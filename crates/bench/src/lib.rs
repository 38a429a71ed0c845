//! Shared plumbing for the experiment binaries.
//!
//! Every table and figure of the paper has a binary in `src/bin/`:
//!
//! | binary | regenerates |
//! |---|---|
//! | `table1` | Table I — Viterbi error properties P1/P2/P3, M vs M_R |
//! | `table2` | Table II — detector symmetry reduction factors |
//! | `table3` | Table III — Viterbi P2 vs T (steady-state approach) |
//! | `table4` | Table IV — Viterbi C1 vs T |
//! | `table5` | Table V — detector BER (P2) vs T |
//! | `fig2` | Figure 2 — C1 as a function of L |
//! | `sim_compare` | §V text — model checking vs 10⁵/10⁷-step simulation |
//! | `all_tables` | everything above, in order |
//!
//! Binaries honour `SMG_SCALE=small` for quick smoke runs (CI/debug); the
//! default is the paper-scale configuration. Absolute values differ from
//! the paper's (its RTL bit-widths are unpublished — see DESIGN.md §3);
//! the *shapes* are the reproduction target, and EXPERIMENTS.md records
//! both sides.

use smg_detector::DetectorConfig;
use smg_viterbi::ViterbiConfig;

/// Experiment scale, selected by the `SMG_SCALE` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale models (default; use `--release`).
    Paper,
    /// Reduced models for smoke runs (`SMG_SCALE=small`).
    Small,
}

/// Reads the scale from the environment.
pub fn scale() -> Scale {
    match std::env::var("SMG_SCALE").as_deref() {
        Ok("small") => Scale::Small,
        _ => Scale::Paper,
    }
}

/// The Viterbi error-property configuration at a scale (Table I, III).
pub fn viterbi_config(scale: Scale) -> ViterbiConfig {
    match scale {
        Scale::Paper => ViterbiConfig::paper(),
        Scale::Small => ViterbiConfig::small(),
    }
}

/// The Viterbi convergence configuration at a scale (Table IV, Figure 2).
pub fn convergence_config(scale: Scale) -> ViterbiConfig {
    match scale {
        Scale::Paper => ViterbiConfig::convergence_paper(),
        Scale::Small => ViterbiConfig::small().with_snr_db(8.0),
    }
}

/// The 1x2 detector configuration at a scale (Tables II and V).
pub fn detector_1x2(scale: Scale) -> DetectorConfig {
    match scale {
        Scale::Paper => DetectorConfig::mimo_1x2(),
        Scale::Small => DetectorConfig::small(),
    }
}

/// The 1x4 detector configuration at a scale (Tables II and V).
pub fn detector_1x4(scale: Scale) -> DetectorConfig {
    match scale {
        Scale::Paper => DetectorConfig::mimo_1x4(),
        Scale::Small => {
            let mut c = DetectorConfig::small().with_nr(4).with_snr_db(12.0);
            c.h_levels = 2;
            c.y_levels = 2;
            c
        }
    }
}

/// Simulation step budgets at a scale (§V comparison).
pub fn sim_budgets(scale: Scale) -> (u64, u64) {
    match scale {
        // The paper simulates 1e5 and 1e7 steps.
        Scale::Paper => (100_000, 10_000_000),
        Scale::Small => (10_000, 200_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_are_valid_at_both_scales() {
        for s in [Scale::Paper, Scale::Small] {
            assert!(viterbi_config(s).validate().is_ok());
            assert!(convergence_config(s).validate().is_ok());
            assert!(detector_1x2(s).validate().is_ok());
            assert!(detector_1x4(s).validate().is_ok());
            let (a, b) = sim_budgets(s);
            assert!(a < b);
        }
    }

    #[test]
    fn scale_reads_env() {
        // Not setting the variable here (process-global); just check the
        // default path is Paper when unset or unrecognized.
        std::env::remove_var("SMG_SCALE");
        assert_eq!(scale(), Scale::Paper);
    }
}
