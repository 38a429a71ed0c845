//! Build and analysis statistics, reported the way the paper's tables do.

use smg_obs as obs;
use std::fmt;
use std::time::Duration;

/// Statistics gathered while exploring a model into an explicit DTMC.
///
/// `reachability_iterations` is the paper's *RI*: "PRISM performs a
/// reachability analysis first and a fixpoint is achieved. The fixpoint is
/// referred to as Reachability Iterations. After this fixpoint, no new
/// states are reached in further iterations." Here it is the number of
/// breadth-first frontier expansions needed before the frontier empties,
/// i.e. the eccentricity of the initial distribution plus one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildStats {
    /// Number of reachable states.
    pub states: usize,
    /// Number of logical transitions (what PRISM would report).
    pub transitions: usize,
    /// Reachability iterations to the exploration fixpoint.
    pub reachability_iterations: usize,
    /// Wall-clock time spent exploring and assembling the matrix.
    pub build_time: Duration,
}

impl BuildStats {
    /// Renders the stats as one row of a paper-style table.
    pub fn table_row(&self) -> String {
        format!(
            "{} states, {} transitions, RI={}, {:.2}s",
            self.states,
            self.transitions,
            self.reachability_iterations,
            self.build_time.as_secs_f64()
        )
    }

    /// Reports the stats as the `smg_explore_*` instrument family (states,
    /// transitions, levels, seconds) through the instrumentation seam; a
    /// no-op when no recorder is installed. Every explorer calls this once
    /// per finished build.
    pub fn record(&self) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("smg_explore_states_total", None, self.states as u64);
        obs::counter_add(
            "smg_explore_transitions_total",
            None,
            self.transitions as u64,
        );
        obs::counter_add(
            "smg_explore_levels_total",
            None,
            self.reachability_iterations as u64,
        );
        obs::observe("smg_explore_seconds", None, self.build_time.as_secs_f64());
    }
}

impl fmt::Display for BuildStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.table_row())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_row_contains_fields() {
        let s = BuildStats {
            states: 42,
            transitions: 99,
            reachability_iterations: 7,
            build_time: Duration::from_millis(1500),
        };
        let row = s.to_string();
        assert!(row.contains("42"));
        assert!(row.contains("99"));
        assert!(row.contains("RI=7"));
        assert!(row.contains("1.50s"));
    }
}
