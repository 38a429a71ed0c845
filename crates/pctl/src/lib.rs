//! Probabilistic Computation Tree Logic (pCTL) over DTMCs.
//!
//! The paper specifies its performance metrics "as properties in a
//! probabilistic temporal logic" (Hansson & Jonsson's pCTL) and verifies
//! them with PRISM. This crate is the corresponding layer of our stack:
//!
//! * [`ast`] — formulas: state formulas with a probability operator
//!   `P⋈p [path]`, path formulas `X φ`, `φ U[<=t] ψ`, `F[<=t] φ`,
//!   `G[<=t] φ`, plus top-level queries `P=? [...]`, `R=? [I=t]`,
//!   `R=? [C<=t]` and `S=? [φ]`.
//! * [`parser`] — a PRISM-flavoured concrete syntax, so the paper's
//!   properties can be written verbatim: `P=? [ G<=300 !flag ]`,
//!   `R=? [ I=300 ]`, `P=? [ F<=300 count_exceeds ]`.
//! * [`check`] — the one model checker, over chains ([`smg_dtmc::Dtmc`])
//!   and MDPs ([`smg_mdp::Mdp`]) alike: forward transient propagation for
//!   a chain's bounded initial-state queries, backward iteration over a
//!   per-engine one-step backup for per-state values, and the SCC
//!   condensation walk for every unbounded query. On an MDP the
//!   `Pmin=?`/`Pmax=?`/`Rmin=?`/`Rmax=?` forms quantify over all
//!   resolutions of the nondeterminism, giving worst-case design
//!   guarantees where the chain forms give probabilistic ones.
//! * [`session`] — the batch-oriented [`CheckSession`]: one entry point
//!   over both model families ([`AnyModel`]), with precomputation shared
//!   across a whole property family.
//! * [`write_json_records`] — the one renderer of a batch's `cache` and
//!   `results` JSON members, shared by `smg check --format json` and the
//!   daemon's `/check` reply.
//!
//! # Example
//!
//! ```
//! use smg_dtmc::{explore, DtmcModel, ExploreOptions};
//! use smg_pctl::{check_query, parse_property};
//!
//! struct Coin;
//! impl DtmcModel for Coin {
//!     type State = bool;
//!     fn initial_states(&self) -> Vec<(bool, f64)> { vec![(false, 1.0)] }
//!     fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
//!         vec![(false, 0.5), (true, 0.5)]
//!     }
//!     fn atomic_propositions(&self) -> Vec<&'static str> { vec!["heads"] }
//!     fn holds(&self, ap: &str, s: &bool) -> bool { ap == "heads" && *s }
//! }
//!
//! let e = explore(&Coin, &ExploreOptions::default())?;
//! let prop = parse_property("P=? [ F<=3 heads ]")?;
//! let result = check_query(&e.dtmc, &prop)?;
//! assert!((result.value() - 0.875).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Certified answers
//!
//! Unbounded queries are normally solved by value iteration with a
//! residual stopping test, which can declare convergence arbitrarily far
//! from the true probability. [`CheckOptions::certified`] switches those
//! queries to interval iteration: the result then carries a sound
//! `[lo, hi]` bracket of width below ε ([`CheckResult::interval`]), and
//! [`CheckResult::solver`] reports which engine ran.
//!
//! ```
//! use smg_dtmc::{explore, DtmcModel, ExploreOptions};
//! use smg_pctl::{check_query_with, parse_property, CheckOptions, Solver};
//! # struct Coin;
//! # impl DtmcModel for Coin {
//! #     type State = bool;
//! #     fn initial_states(&self) -> Vec<(bool, f64)> { vec![(false, 1.0)] }
//! #     fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
//! #         vec![(false, 0.5), (true, 0.5)]
//! #     }
//! #     fn atomic_propositions(&self) -> Vec<&'static str> { vec!["heads"] }
//! #     fn holds(&self, ap: &str, s: &bool) -> bool { ap == "heads" && *s }
//! # }
//! let e = explore(&Coin, &ExploreOptions::default())?;
//! let prop = parse_property("P=? [ F heads ]")?;
//! let result = check_query_with(&e.dtmc, &prop, &CheckOptions::certified(1e-9))?;
//! assert_eq!(result.solver(), Solver::IntervalIteration);
//! let (lo, hi) = result.interval().expect("certified runs carry a bracket");
//! assert!(hi - lo < 1e-9);
//! assert!(lo <= 1.0 && 1.0 <= hi); // the exact answer is 1
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Checking sessions
//!
//! Real workloads check a *family* of properties against one model. A
//! [`CheckSession`] owns the model (chain or MDP — an [`AnyModel`]),
//! runs each query through the one checker, and memoizes shared
//! precomputation — satisfaction sets, unbounded solves, certified
//! brackets — so a batch pays the graph work once. The cache is keyed on
//! exact solver inputs and both paths run the same code, so batch results
//! are identical to one-by-one calls.
//!
//! ```
//! use smg_dtmc::{explore, DtmcModel, ExploreOptions};
//! use smg_pctl::{parse_property, CheckSession};
//! # struct Coin;
//! # impl DtmcModel for Coin {
//! #     type State = bool;
//! #     fn initial_states(&self) -> Vec<(bool, f64)> { vec![(false, 1.0)] }
//! #     fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
//! #         vec![(false, 0.5), (true, 0.5)]
//! #     }
//! #     fn atomic_propositions(&self) -> Vec<&'static str> { vec!["heads"] }
//! #     fn holds(&self, ap: &str, s: &bool) -> bool { ap == "heads" && *s }
//! # }
//! let e = explore(&Coin, &ExploreOptions::default())?;
//! let session = CheckSession::new(e.dtmc).certified(1e-9);
//! let family = [
//!     parse_property("P=? [ F heads ]")?,
//!     parse_property("P=? [ G !heads ]")?, // shares the certified solve
//! ];
//! let results = session.check_all(&family)?;
//! assert!((results[0].value() + results[1].value() - 1.0).abs() < 1e-9);
//! assert!(session.cache_stats().hits() > 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]

pub mod ast;
pub mod check;
pub mod error;
pub mod parser;
mod record;
pub mod session;

#[cfg(test)]
mod mdp;

pub use ast::{Cmp, Opt, PathFormula, Property, RewardQuery, StateFormula};
pub use check::{
    check_mdp_query, check_mdp_query_with, check_query, check_query_with, sat_states,
    sat_states_mdp, CheckOptions, CheckResult, Solver,
};
pub use error::PctlError;
pub use parser::parse_property;
pub use record::write_json_records;
pub use session::{AnyModel, CacheKind, CacheStats, CheckSession, KindStats};
