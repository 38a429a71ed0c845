//! Explicit-state Discrete-Time Markov Chain (DTMC) substrate.
//!
//! This crate implements the modelling layer of the paper: "MIMO RTL designs
//! can be modeled as finite-state probabilistic systems with discrete-time
//! transitions. Therefore, we represent them as Discrete-Time Markov Chains."
//!
//! A DTMC is described *implicitly* by a [`DtmcModel`]: a state type plus a
//! probabilistic transition function — exactly the paper's tuple `(S, T_p)`.
//! [`explore()`] enumerates the reachable state space breadth-first (reporting
//! the paper's *Reachability Iterations*), interns states, and produces an
//! explicit [`Dtmc`] holding a row-stochastic [`TransitionMatrix`], atomic
//! proposition labels, and a state reward structure.
//!
//! Memoryless designs such as the paper's MIMO detector — where every state
//! has the *same* successor distribution and the chain mixes in one step
//! (RI=3 in the paper's Table V) — are represented with a rank-one matrix
//! ([`MemorylessModel`]), avoiding the quadratic blow-up an explicit sparse
//! matrix would incur. This plays the role of the structure sharing PRISM
//! obtains from MTBDDs.
//!
//! Analysis entry points live in [`transient`] (forward probability
//! propagation for time-bounded properties and instantaneous rewards),
//! [`solve`] (every unbounded answer, one level walk over the SCC
//! condensation) and [`graph`] (SCC/BSCC decomposition, reachability).
//!
//! # The sparse engine
//!
//! The hot paths form a parallel, zero-per-step-allocation sparse engine:
//!
//! * **Buffer reuse** — propagation runs through `forward_into` /
//!   `backward_into` (and masked variants) on [`TransitionMatrix`], which
//!   write into caller-owned ping-pong buffers; see the buffer-reuse
//!   contract in [`matrix`]'s module docs. All solvers in [`transient`] and
//!   [`solve`] allocate their two buffers once per call, never per step.
//! * **Parallelism** — the `parallel` feature (default on) can run the
//!   kernels as fork-join tasks on a persistent, process-wide worker pool
//!   ([`pool`]). Every dispatch site is a measured [`par::Site`]: it times
//!   its sequential and parallel forms on the running host and runs the
//!   cheaper one per size bucket (the parallel one only when clearly
//!   cheaper), and calls below [`par::GATE_FLOOR`]
//!   units of work never dispatch (`SMG_PAR_MIN_ROWS` restores a static
//!   row threshold, `SMG_THREADS` sets the lane count). Under
//!   `--no-default-features` the tuned sequential loops always run. Every
//!   parallel form is bit-identical to its sequential loop, so which form
//!   a site picks never changes an answer: the parallel forward product,
//!   for one, gathers over a lazily cached transpose and writes the bits
//!   the sequential scatter writes.
//! * **Exploration** — BFS interns states into a flat
//!   [`explore::StateIndex`] (an FxHash-style multiply hasher, [`hash`])
//!   and assembles rows directly into a flat [`CsrBuilder`], level by
//!   level, on the calling thread; only the label and reward scans after
//!   the fixpoint go through measured dispatch sites.
//!
//! # Topological solving
//!
//! Iterating the whole state space would pay every sweep until the
//! slowest state converges. The `topo_*` family in [`solve`] instead
//! condenses the chain to its SCC DAG ([`graph::Condensation`]) and solves
//! one component at a time in reverse topological order; on layered models
//! (every SCC trivial) the certified interval solver collapses to a single
//! closed-form backsubstitution pass:
//!
//! ```
//! use smg_dtmc::{graph::Condensation, solve, synthetic::layered_chain};
//!
//! let chain = layered_chain(50, 4); // 50 layers × 4 states, all-trivial SCCs
//! let cond = Condensation::new(&chain);
//! assert_eq!(cond.largest(), 1);
//!
//! let target = chain.label("target")?.clone();
//! let cert = solve::topo_interval_reach_values(&chain, &cond, &target, 1e-9, 10_000)?;
//! // Certified bracket around the exact 0.5, solved without global sweeps.
//! assert!(cert.lo[0] <= 0.5 && 0.5 <= cert.hi[0]);
//! assert!(cert.width() < 1e-9);
//! # Ok::<(), smg_dtmc::DtmcError>(())
//! ```
//!
//! # Example
//!
//! ```
//! use smg_dtmc::{explore, DtmcModel, ExploreOptions};
//!
//! /// A two-state on/off chain.
//! struct OnOff;
//! impl DtmcModel for OnOff {
//!     type State = bool;
//!     fn initial_states(&self) -> Vec<(bool, f64)> {
//!         vec![(false, 1.0)]
//!     }
//!     fn transitions(&self, s: &bool) -> Vec<(bool, f64)> {
//!         if *s { vec![(false, 0.3), (true, 0.7)] } else { vec![(false, 0.6), (true, 0.4)] }
//!     }
//!     fn atomic_propositions(&self) -> Vec<&'static str> {
//!         vec!["on"]
//!     }
//!     fn holds(&self, ap: &str, s: &bool) -> bool {
//!         ap == "on" && *s
//!     }
//! }
//!
//! let explored = explore(&OnOff, &ExploreOptions::default())?;
//! assert_eq!(explored.dtmc.n_states(), 2);
//! let pi = smg_dtmc::transient::distribution_at(&explored.dtmc, 100);
//! // Stationary distribution of this chain is (3/7, 4/7).
//! assert!((pi[1] - 4.0 / 7.0).abs() < 1e-9);
//! # Ok::<(), smg_dtmc::DtmcError>(())
//! ```

// Unsafe is denied crate-wide and allowed *only* in `pool`, whose dispatch
// protocol erases closure lifetimes behind a fork-join latch (each use
// carries its safety argument). Every other module stays safe Rust.
#![deny(unsafe_code)]

pub mod bitvec;
pub mod dtmc;
pub mod error;
pub mod explore;
pub mod export;
pub mod graph;
pub mod hash;
pub mod import;
pub mod matrix;
pub mod model;
pub mod par;
pub mod pool;
#[cfg(feature = "sim")]
pub mod sim;
pub mod solve;
pub mod stats;
pub mod synthetic;
pub mod transient;
pub mod wrappers;

pub use bitvec::BitVec;
pub use dtmc::{Dtmc, StateId};
pub use error::DtmcError;
pub use explore::{
    explore, explore_memoryless, try_explore, ExploreOptions, Explored, Labelling, StateIndex,
};
pub use hash::{FastBuildHasher, FastHashMap, FastHashSet};
pub use matrix::{CsrBuilder, CsrMatrix, RankOneMatrix, RowIter, TransitionMatrix};
pub use model::{DtmcModel, MemorylessModel};
pub use solve::CertifiedValues;
pub use stats::BuildStats;
pub use wrappers::CountingModel;
