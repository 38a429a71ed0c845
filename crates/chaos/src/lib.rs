//! VOPR-style deterministic simulation testing for the engine's
//! concurrency layer.
//!
//! Every parallel subsystem in this workspace promises results
//! **bit-identical to sequential** — parallel value iteration, certified
//! reward brackets, per-SCC topological batching. Ordinary tests only witness the schedules the operating
//! system happens to produce; this crate instead drives the worker
//! pool's scheduling seam (`smg-dtmc`'s `sim` feature) from a
//! seed-derived interleaver that single-steps *virtual* lanes in
//! adversarial orders — LIFO, round-robin, starve-one, random — with
//! fault injection (lane stalls, panic-at-step-K, forced degradation to
//! the inline path). The whole simulation runs on one thread, so every
//! run replays exactly from its seed.
//!
//! The harness checks three invariants per case:
//!
//! 1. **bit-exactness** — the workload's digest under the adversarial
//!    schedule equals the sequential ground truth, bit for bit;
//! 2. **dispatch consistency** — no task lost, none run twice, epochs
//!    settle (checked inside the simulated executor);
//! 3. **panic hygiene** — an injected panic propagates the pool's
//!    enriched `(lane, epoch)` message and a clean rerun still matches
//!    the reference: no lost jobs after a propagated panic.
//!
//! On failure the harness shrinks to a minimal
//! `(seed, step-budget, fault-set)` reproducer and renders a compact
//! per-lane event timeline. The `chaos` binary sweeps seed ranges
//! (`chaos run --seeds 0..10000`), replays reproducers (`chaos repro`),
//! and self-checks against an intentionally order-dependent workload
//! (`chaos mutate`).
//!
//! Both the `parallel` and `sim` features (default on) are required;
//! with either off this library is empty, so a workspace-wide
//! `--no-default-features` build is unaffected.
//!
//! ```
//! # #[cfg(all(feature = "parallel", feature = "sim"))]
//! # fn main() {
//! use smg_chaos::drivers::DriverKind;
//! use smg_chaos::harness::{params_for_seed, run_case};
//!
//! // Seed 1: LIFO adversary over the certified interval sweeps — the
//! // engine's schedule-independence holds, so the case passes.
//! let case = params_for_seed(1);
//! assert!(run_case(DriverKind::Certified, &case).is_ok());
//! # }
//! # #[cfg(not(all(feature = "parallel", feature = "sim")))]
//! # fn main() {}
//! ```

#![deny(unsafe_code)]

#[cfg(feature = "daemon")]
pub mod daemon;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod drivers;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod faults;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod harness;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod interleave;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod policy;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod rng;
#[cfg(all(feature = "parallel", feature = "sim"))]
pub mod timeline;
