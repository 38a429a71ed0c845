//! Explicit-state Markov Decision Process (MDP) substrate.
//!
//! The paper's DTMC pipeline resolves *every* input probabilistically; real
//! RTL verification also needs **worst-case guarantees** when some inputs —
//! stimulus patterns, arbitration, channel regime switches — are unknown
//! rather than random. This crate adds the classic PRISM-style next step:
//! models where each state first offers a *nondeterministic choice of
//! actions* and only then steps probabilistically, checked by quantifying
//! over all resolutions of the nondeterminism (`Pmin`/`Pmax`, `Rmin`/`Rmax`
//! in `smg-pctl`).
//!
//! The crate deliberately mirrors `smg-dtmc`, and reuses its machinery
//! rather than reimplementing it:
//!
//! * [`Mdp`] stores per-state action lists over a shared flat CSR
//!   distribution pool, assembled with the same row-merge primitive as the
//!   DTMC engine ([`smg_dtmc::matrix::merge_row_into`]) — identical inputs
//!   yield byte-identical pool data.
//! * [`explore()`] enumerates an implicit [`MdpModel`] breadth-first,
//!   interning states through the DTMC explorer's
//!   [`smg_dtmc::explore::intern`] into the same [`smg_dtmc::StateIndex`],
//!   so both engines number states the same way.
//! * [`vi`] implements min/max value iteration — bounded until,
//!   instantaneous and cumulative rewards as masked Bellman backups that
//!   run as dynamically dispatched chunks on the pool where their measured
//!   dispatch sites ([`smg_dtmc::par::Site`]) pick that, with a
//!   bit-identical sequential fallback elsewhere; unbounded until and
//!   reachability rewards on the SCC condensation (below). The
//!   `topo_certified_*` drivers replace the residual stopping test with
//!   interval iteration: a `[lo, hi]` bracket that provably contains the
//!   exact optimum and terminates only when its width drops below ε.
//! * [`qual`] provides the graph-based qualitative machinery behind the
//!   certificates — `Prob0`/`Prob1` sets, maximal end components, and a
//!   provably proper scheduler — none of which trusts a numerically
//!   converged value.
//! * [`Mdp::induced_dtmc`] projects a memoryless scheduler back onto the
//!   DTMC engine, connecting every existing analysis (exact checking,
//!   simulation, export) to scheduled MDPs — and letting the test suite pin
//!   `Pmin`/`Pmax` against exhaustive scheduler enumeration.
//!
//! # Topological solving
//!
//! Every unbounded answer comes from the `topo_*` drivers in [`vi`]: they
//! walk the SCC condensation of the any-action graph
//! ([`qual::condensation`]) sinks-first, solving each
//! component with its successors' values (or certified bounds, for the
//! `topo_certified_*` family) as constants — end components never span
//! SCCs, so deflation/inflation stays local. The default drivers keep one
//! lower value per state and stop each component on a residual; the
//! certified ones keep a bracket and stop on its width:
//!
//! ```
//! use smg_mdp::{vi, Mdp, MdpBuilder, Opt, ViOptions};
//! use smg_dtmc::BitVec;
//! use std::collections::BTreeMap;
//!
//! // 0 chooses a fair or a biased coin; 1 = goal, 2 = sink (absorbing).
//! let mut b = MdpBuilder::default();
//! b.push_action(&mut [(1, 0.5), (2, 0.5)])?;
//! b.push_action(&mut [(1, 0.1), (2, 0.9)])?;
//! b.finish_state()?;
//! b.push_action(&mut [(1, 1.0)])?;
//! b.finish_state()?;
//! b.push_action(&mut [(2, 1.0)])?;
//! b.finish_state()?;
//! let mut labels = BTreeMap::new();
//! labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 1));
//! let mdp = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 3])?;
//!
//! let cond = smg_mdp::qual::condensation(&mdp);
//! assert_eq!(cond.largest(), 1); // every SCC trivial → pure backsubstitution
//! let goal = mdp.label("goal")?.clone();
//! let vio = ViOptions::default();
//! let cert = vi::topo_certified_reach_values(&mdp, &cond, &goal, Opt::Max, 1e-9, &vio)?;
//! assert!(cert.lo[0] <= 0.5 && 0.5 <= cert.hi[0]);
//! assert!(cert.width() < 1e-9);
//! let plain = vi::topo_reach_values(&mdp, &cond, &goal, Opt::Max, &vio)?;
//! assert_eq!(plain[0], 0.5); // closed form: one exact backsubstitution
//! # Ok::<(), smg_dtmc::DtmcError>(())
//! ```
//!
//! # Example
//!
//! ```
//! use smg_mdp::{explore, vi, MdpModel, Opt, ViOptions};
//! use smg_dtmc::ExploreOptions;
//!
//! /// A job that can be scheduled on a fast-but-flaky or slow-but-safe
//! /// unit; the adversary controls the dispatch.
//! struct Dispatch;
//! impl MdpModel for Dispatch {
//!     type State = u8; // 0 = pending, 1 = done, 2 = failed
//!     fn initial_states(&self) -> Vec<(u8, f64)> {
//!         vec![(0, 1.0)]
//!     }
//!     fn actions(&self, s: &u8) -> Vec<Vec<(u8, f64)>> {
//!         match s {
//!             0 => vec![
//!                 vec![(1, 0.9), (2, 0.1)],  // fast unit
//!                 vec![(1, 0.5), (0, 0.5)],  // slow unit, retries
//!             ],
//!             s => vec![vec![(*s, 1.0)]],
//!         }
//!     }
//!     fn atomic_propositions(&self) -> Vec<&'static str> {
//!         vec!["done"]
//!     }
//!     fn holds(&self, ap: &str, s: &u8) -> bool {
//!         ap == "done" && *s == 1
//!     }
//! }
//!
//! let e = explore(&Dispatch, &ExploreOptions::default())?;
//! let done = e.mdp.label("done")?.clone();
//! let cond = smg_mdp::qual::condensation(&e.mdp);
//! let vio = ViOptions::default();
//! let pmax = vi::topo_reach_values(&e.mdp, &cond, &done, Opt::Max, &vio)?[0];
//! let pmin = vi::topo_reach_values(&e.mdp, &cond, &done, Opt::Min, &vio)?[0];
//! assert!((pmax - 1.0).abs() < 1e-9); // slow unit always completes
//! assert!((pmin - 0.9).abs() < 1e-9); // worst case: fast unit, one shot
//! # Ok::<(), smg_dtmc::DtmcError>(())
//! ```

#![forbid(unsafe_code)]

pub mod explore;
pub mod export;
pub mod mdp;
pub mod model;
pub mod qual;
pub mod vi;

pub use explore::{explore, try_explore, ExploredMdp};
pub use mdp::{Mdp, MdpBuilder, MdpTransitions};
pub use model::{DtmcAsMdp, MdpModel};
pub use smg_dtmc::solve::CertifiedValues;
pub use vi::{extremal_scheduler, Opt, ViOptions};
