//! Export to PRISM's explicit-state file formats.
//!
//! The paper checks its models with PRISM; this module lets any chain
//! built here be loaded into PRISM (`prism -importtrans model.tra
//! -importlabels model.lab ...`) for independent cross-checking. Three
//! artifacts are produced:
//!
//! * `.tra` — transitions: a header `n m` followed by `src dst prob`
//!   rows in source order;
//! * `.lab` — labels: a declaration line mapping label names to indices
//!   (with PRISM's mandatory `init` label 0), then `state: idx...` rows;
//! * `.srew` — state rewards: header then `state reward` rows for states
//!   with non-zero reward.
//!
//! The `.lab` and `.srew` formats are the same for MDPs, so their writers
//! take the parts both model classes share rather than a chain.

use crate::bitvec::BitVec;
use crate::dtmc::{Dtmc, StateId};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Renders the `.tra` transitions file.
pub fn to_tra(dtmc: &Dtmc) -> String {
    let n = dtmc.n_states();
    let m = dtmc.matrix().logical_transitions();
    let mut out = String::new();
    let _ = writeln!(out, "{n} {m}");
    for s in 0..n {
        for (c, p) in dtmc.matrix().successors(s) {
            let _ = writeln!(out, "{s} {c} {p}");
        }
    }
    out
}

/// Renders the `.lab` labels file of a chain or an MDP with `n_states`
/// states, its initial distribution and its labels. The initial states
/// carry PRISM's built-in `init` label (index 0); the model's own labels
/// follow in sorted order starting at index 1.
pub fn to_lab(
    n_states: usize,
    initial: &[(StateId, f64)],
    labels: &BTreeMap<String, BitVec>,
) -> String {
    let mut out = String::from("0=\"init\"");
    for (i, name) in labels.keys().enumerate() {
        let _ = write!(out, " {}=\"{name}\"", i + 1);
    }
    out.push('\n');
    let mut init = vec![false; n_states];
    for &(s, p) in initial {
        if p > 0.0 {
            init[s as usize] = true;
        }
    }
    for (s, &is_init) in init.iter().enumerate() {
        let held = labels.values().enumerate().filter(|(_, bits)| bits.get(s));
        let idxs: Vec<String> = is_init
            .then_some(0)
            .into_iter()
            .chain(held.map(|(i, _)| i + 1))
            .map(|i| i.to_string())
            .collect();
        if !idxs.is_empty() {
            let _ = writeln!(out, "{s}: {}", idxs.join(" "));
        }
    }
    out
}

/// Renders the `.srew` state-rewards file of a chain or an MDP from its
/// state reward vector (non-zero rewards only).
pub fn to_srew(rewards: &[f64]) -> String {
    let nonzero: Vec<(usize, &f64)> = rewards
        .iter()
        .enumerate()
        .filter(|(_, &r)| r != 0.0)
        .collect();
    let mut out = format!("{} {}\n", rewards.len(), nonzero.len());
    for (s, r) in nonzero {
        let _ = writeln!(out, "{s} {r}");
    }
    out
}

/// Renders the chain as a Graphviz `dot` digraph: one node per state
/// (labelled with its id and any atomic propositions that hold there,
/// double-circled when its reward is non-zero), one edge per transition
/// annotated with its probability.
pub fn to_dot(dtmc: &Dtmc) -> String {
    let n = dtmc.n_states();
    let names = dtmc.label_names();
    let mut out = String::from("digraph dtmc {\n  rankdir=LR;\n  node [shape=circle];\n");
    for s in 0..n {
        let mut aps: Vec<&str> = Vec::new();
        for name in &names {
            if dtmc.label(name).expect("label exists").get(s) {
                aps.push(name);
            }
        }
        let label = if aps.is_empty() {
            format!("{s}")
        } else {
            format!("{s}\\n{}", aps.join(","))
        };
        let shape = if dtmc.rewards()[s] != 0.0 {
            ", shape=doublecircle"
        } else {
            ""
        };
        let _ = writeln!(out, "  s{s} [label=\"{label}\"{shape}];");
    }
    for &(s, p) in dtmc.initial() {
        if p > 0.0 {
            let _ = writeln!(
                out,
                "  init{s} [shape=point]; init{s} -> s{s} [label=\"{p}\"];"
            );
        }
    }
    for s in 0..n {
        for (t, p) in dtmc.matrix().successors(s) {
            let _ = writeln!(out, "  s{s} -> s{t} [label=\"{p:.6}\"];");
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, ExploreOptions};
    use crate::model::DtmcModel;

    struct Chain;
    impl DtmcModel for Chain {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.25), (0, 0.75)],
                _ => vec![(1, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["done"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "done" && *s == 1
        }
    }

    fn chain() -> Dtmc {
        explore(&Chain, &ExploreOptions::default()).unwrap().dtmc
    }

    #[test]
    fn tra_format() {
        let tra = to_tra(&chain());
        let mut lines = tra.lines();
        assert_eq!(lines.next(), Some("2 3"));
        let rest: Vec<&str> = lines.collect();
        assert_eq!(rest.len(), 3);
        assert!(rest.contains(&"0 1 0.25"));
        assert!(rest.contains(&"0 0 0.75"));
        assert!(rest.contains(&"1 1 1"));
        // Probabilities per source sum to 1.
        let mut sums = [0.0f64; 2];
        for l in rest {
            let f: Vec<&str> = l.split_whitespace().collect();
            sums[f[0].parse::<usize>().unwrap()] += f[2].parse::<f64>().unwrap();
        }
        assert!(sums.iter().all(|s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn lab_format() {
        let d = chain();
        let lab = to_lab(d.n_states(), d.initial(), d.labels());
        let mut lines = lab.lines();
        assert_eq!(lines.next(), Some("0=\"init\" 1=\"done\""));
        let rest: Vec<&str> = lines.collect();
        assert!(rest.contains(&"0: 0"), "{rest:?}");
        assert!(rest.contains(&"1: 1"), "{rest:?}");
    }

    #[test]
    fn srew_format() {
        let srew = to_srew(chain().rewards());
        let lines: Vec<&str> = srew.lines().collect();
        assert_eq!(lines[0], "2 1");
        assert_eq!(lines[1], "1 1");
    }

    #[test]
    fn rank_one_chain_exports_all_rows() {
        use crate::matrix::{RankOneMatrix, TransitionMatrix};
        use std::collections::BTreeMap;
        let m = TransitionMatrix::RankOne(RankOneMatrix::new(3, vec![(1, 0.5), (2, 0.5)]).unwrap());
        let d = Dtmc::new(m, vec![(0, 1.0)], BTreeMap::new(), vec![0.0; 3]).unwrap();
        let tra = to_tra(&d);
        assert_eq!(tra.lines().next(), Some("3 6"));
        assert_eq!(tra.lines().count(), 7);
    }

    #[test]
    fn dot_format() {
        let d = chain();
        let dot = to_dot(&d);
        assert!(dot.starts_with("digraph dtmc {"));
        assert!(dot.contains("s0 -> s1 [label=\"0.250000\"]"));
        assert!(dot.contains("done"), "AP names label the nodes");
        assert!(dot.contains("init0"), "initial state is marked");
        assert!(dot.trim_end().ends_with('}'));
    }
}
