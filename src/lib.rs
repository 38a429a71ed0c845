//! **statguard-mimo** — statistical guarantees of performance for MIMO RTL
//! designs via probabilistic model checking.
//!
//! A from-scratch Rust reproduction of Kumar & Vasudevan, *Statistical
//! Guarantees of Performance for MIMO Designs* (UIUC CSL tech report
//! UILU-ENG-09-2217, December 2009 / DSN 2010): model MIMO RTL components
//! (including channel noise and quantization) as discrete-time Markov
//! chains, express BER-like metrics as pCTL properties, check them
//! exactly with an explicit-state probabilistic model checker, and fight
//! state explosion with certified property-preserving reductions.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`signal`] | `smg-signal` | complex numbers, Gaussian tails, SNR, BPSK, quantizers, Rayleigh fading |
//! | [`rtl`] | `smg-rtl` | saturating counters, shift registers, clocked components |
//! | [`dtmc`] | `smg-dtmc` | DTMC models, state-space exploration, transient/steady-state analysis |
//! | [`mdp`] | `smg-mdp` | MDP models (nondeterminism + probability), min/max value iteration for worst-case guarantees |
//! | [`pctl`] | `smg-pctl` | pCTL syntax, parser, model-checking algorithms (incl. `Pmin`/`Pmax` over MDPs), and the batch-oriented `CheckSession` over either model family |
//! | [`reduce`] | `smg-reduce` | strong lumping, bisimulation certificates, symmetry reduction |
//! | [`viterbi`] | `smg-viterbi` | the Viterbi decoder case study (full, reduced, convergence models) |
//! | [`detector`] | `smg-detector` | the ML MIMO detector case study (full, symmetry-reduced models) |
//! | [`sim`] | `smg-sim` | Monte-Carlo baseline with confidence intervals |
//! | [`core`] | `smg-core` | end-to-end analyzers producing the paper's tables |
//! | [`lang`] | `smg-lang` | PRISM-style guarded-command modeling language and compiler |
//! | [`lint`] | `smg-lint` | interval-domain static analysis of guarded-command models (dead guards, range escapes, certain deadlocks, …) |
//!
//! # Quickstart
//!
//! ```
//! use statguard_mimo::prelude::*;
//!
//! // Analyse a small Viterbi decoder: best / average / worst case error.
//! let report = ViterbiAnalyzer::new(ViterbiConfig::small())
//!     .horizon(50)
//!     .analyze()?;
//! println!("P1 = {}, P2 (BER) = {}, P3 = {}", report.p1, report.p2, report.p3);
//! assert!(report.p2 > 0.0);
//! # Ok::<(), statguard_mimo::core::CoreError>(())
//! ```
//!
//! See `examples/` for complete walkthroughs of every case study and
//! `crates/bench/src/bin/` for the binaries regenerating each table and
//! figure of the paper.

#![forbid(unsafe_code)]

pub use smg_core as core;
pub use smg_detector as detector;
pub use smg_dtmc as dtmc;
pub use smg_lang as lang;
pub use smg_lint as lint;
pub use smg_mdp as mdp;
pub use smg_pctl as pctl;
pub use smg_reduce as reduce;
pub use smg_rtl as rtl;
pub use smg_signal as signal;
pub use smg_sim as sim;
pub use smg_viterbi as viterbi;

/// The most commonly used types, re-exported for convenience.
pub mod prelude {
    pub use smg_core::{
        analyzer::{DetectorAnalyzer, DetectorReport, ViterbiAnalyzer, ViterbiReport},
        steady_scan, CoreError, PerfMetric, Table,
    };
    pub use smg_detector::{DetectorConfig, DetectorModel, SymmetricDetectorModel};
    pub use smg_dtmc::{explore, explore_memoryless, DtmcModel, ExploreOptions, MemorylessModel};
    pub use smg_lang::{compile_any, parse as lang_parse, CompiledAny};
    pub use smg_lint::{lint as lang_lint, lint_with as lang_lint_with, LintOptions, LintReport};
    pub use smg_mdp::{explore as explore_mdp, MdpModel, Opt, ViOptions};
    pub use smg_pctl::{
        check_mdp_query, check_query, parse_property, AnyModel, CheckOptions, CheckResult,
        CheckSession,
    };
    pub use smg_sim::{
        estimate, sprt, BerEstimator, DetectorSimulation, SprtConfig, ViterbiSimulation,
    };
    pub use smg_viterbi::{ConvergenceModel, FullModel, ReducedModel, ViterbiConfig};
}
