//! Export to PRISM's explicit-state MDP transition format.
//!
//! Same interop story as `smg_dtmc::export`, extended with the action
//! column: an MDP `.tra` file carries a `states choices transitions`
//! header and one `src choice dst prob` row per transition (`prism
//! -importtrans model.tra -mdp ...` reads it back). The `.lab` and
//! `.srew` files have the DTMC formats, so `smg_dtmc::export::to_lab` and
//! `to_srew` write them for MDPs too.

use crate::mdp::Mdp;
use std::fmt::Write as _;

/// Renders the `.tra` transitions file with the MDP action column.
pub fn to_tra(mdp: &Mdp) -> String {
    let n = mdp.n_states();
    let mut out = String::new();
    let _ = writeln!(out, "{n} {} {}", mdp.n_choices(), mdp.n_transitions());
    for s in 0..n {
        for a in 0..mdp.action_count(s) {
            for (c, p) in mdp.action_row(s, a) {
                let _ = writeln!(out, "{s} {a} {c} {p}");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use smg_dtmc::BitVec;
    use std::collections::BTreeMap;

    fn two_action() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 0.25), (1, 0.75)]).unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("done".to_string(), BitVec::from_fn(2, |i| i == 1));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 2.5]).unwrap()
    }

    #[test]
    fn tra_has_action_column() {
        let tra = to_tra(&two_action());
        let mut lines = tra.lines();
        assert_eq!(lines.next(), Some("2 3 4"));
        let rest: Vec<&str> = lines.collect();
        assert!(rest.contains(&"0 0 0 0.25"));
        assert!(rest.contains(&"0 0 1 0.75"));
        assert!(rest.contains(&"0 1 1 1"));
        assert!(rest.contains(&"1 0 1 1"));
        // Probabilities per (source, choice) sum to 1.
        let mut sums: std::collections::HashMap<(usize, usize), f64> = Default::default();
        for l in rest {
            let f: Vec<&str> = l.split_whitespace().collect();
            *sums
                .entry((f[0].parse().unwrap(), f[1].parse().unwrap()))
                .or_insert(0.0) += f[3].parse::<f64>().unwrap();
        }
        assert!(sums.values().all(|s| (s - 1.0).abs() < 1e-12));
    }

    #[test]
    fn lab_and_srew_match_dtmc_shapes() {
        use smg_dtmc::export::{to_lab, to_srew};
        let m = two_action();
        let lab = to_lab(m.n_states(), m.initial(), m.labels());
        assert!(lab.starts_with("0=\"init\" 1=\"done\""));
        assert!(lab.contains("0: 0"));
        assert!(lab.contains("1: 1"));
        let srew = to_srew(m.rewards());
        let lines: Vec<&str> = srew.lines().collect();
        assert_eq!(lines[0], "2 1");
        assert_eq!(lines[1], "1 2.5");
    }
}
