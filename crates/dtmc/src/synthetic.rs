//! Synthetic model generators shared by the benchmarks and the test suite.
//!
//! The paper's detector/channel models are *layered*: state flows strictly
//! forward through pipeline stages, so the transition graph is a DAG of
//! trivial SCCs — exactly the shape where topological solving
//! ([`crate::solve::topo_interval_reach_values`] and friends) replaces
//! global convergence with one backsubstitution pass. [`layered_chain`]
//! builds a parameterised chain of that shape with a deterministic
//! pseudo-random branching structure, so benchmarks and tests share one
//! generator instead of each hand-rolling a near-duplicate.

use crate::bitvec::BitVec;
use crate::dtmc::Dtmc;
use crate::matrix::{CsrBuilder, TransitionMatrix};
use std::collections::BTreeMap;

/// Builds a layered feed-forward chain: `depth` layers of `width` states
/// each, every state branching to one or two states of the next layer with
/// deterministic pseudo-random weights, and the last layer splitting
/// 0.5/0.5 between two absorbing states labelled `"target"` and `"sink"`
/// (their union is labelled `"absorbing"`).
///
/// Structure (state `id = layer·width + offset`, then `target`, `sink`):
///
/// * `n_states() = depth·width + 2`; every SCC is trivial, the condensation
///   DAG has depth `depth + 1`.
/// * Reaching `"absorbing"` is almost sure; reaching `"target"` has
///   probability exactly 0.5 from every non-absorbing state.
/// * Rewards are 1 on non-absorbing states and 0 on absorbing ones, so the
///   expected reward to `"absorbing"` from a layer-`l` state is exactly
///   `depth − l` — a closed form the tests pin solvers against.
///
/// The generator is fully deterministic (fixed xorshift seed): the same
/// `(depth, width)` always yields the same chain.
///
/// # Panics
///
/// Panics if `depth == 0` or `width == 0`, or if the state count overflows
/// `u32`.
pub fn layered_chain(depth: usize, width: usize) -> Dtmc {
    assert!(
        depth > 0 && width > 0,
        "layered_chain needs depth, width ≥ 1"
    );
    let n = depth
        .checked_mul(width)
        .and_then(|dw| dw.checked_add(2))
        .expect("state count overflow");
    assert!(u32::try_from(n).is_ok(), "state count overflows u32");
    let target = (depth * width) as u32;
    let sink = target + 1;

    let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next_u = move |m: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % m
    };

    let mut b = CsrBuilder::with_capacity(n, 2 * n + 2);
    let mut row: Vec<(u32, f64)> = Vec::with_capacity(2);
    for layer in 0..depth {
        let next_base = ((layer + 1) * width) as u32;
        for offset in 0..width {
            row.clear();
            if layer + 1 == depth {
                row.push((target, 0.5));
                row.push((sink, 0.5));
            } else if width == 1 {
                row.push((next_base, 1.0));
            } else {
                let a = next_base + ((offset + 1) % width) as u32;
                let hop = 1 + next_u(width as u64 - 1) as usize;
                let c = next_base + ((offset + hop) % width) as u32;
                #[allow(clippy::cast_precision_loss)]
                let p = 0.25 + 0.5 * (next_u(1_000) as f64 / 1_000.0);
                if a == c {
                    row.push((a, 1.0));
                } else {
                    row.push((a, p));
                    row.push((c, 1.0 - p));
                }
            }
            b.push_row(&mut row).expect("generated row is stochastic");
        }
    }
    row.clear();
    row.push((target, 1.0));
    b.push_row(&mut row).expect("absorbing row");
    row.clear();
    row.push((sink, 1.0));
    b.push_row(&mut row).expect("absorbing row");

    let mut labels = BTreeMap::new();
    labels.insert(
        "target".to_string(),
        BitVec::from_fn(n, |i| i as u32 == target),
    );
    labels.insert("sink".to_string(), BitVec::from_fn(n, |i| i as u32 == sink));
    labels.insert(
        "absorbing".to_string(),
        BitVec::from_fn(n, |i| i as u32 >= target),
    );
    let rewards: Vec<f64> = (0..n)
        .map(|i| if (i as u32) < target { 1.0 } else { 0.0 })
        .collect();
    Dtmc::new(
        TransitionMatrix::Sparse(b.finish()),
        vec![(0, 1.0)],
        labels,
        rewards,
    )
    .expect("layered chain invariants hold by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Condensation;
    use crate::solve;

    #[test]
    fn shape_and_labels() {
        let d = layered_chain(7, 13);
        assert_eq!(d.n_states(), 7 * 13 + 2);
        assert!(d.label("target").unwrap().get(7 * 13));
        assert!(d.label("sink").unwrap().get(7 * 13 + 1));
        assert_eq!(d.label("absorbing").unwrap().count_ones(), 2);
        let cond = Condensation::new(&d);
        assert_eq!(cond.n_components(), d.n_states());
        assert_eq!(cond.largest(), 1);
        assert_eq!(cond.dag_depth(), 8);
    }

    #[test]
    fn determinism() {
        let a = layered_chain(5, 9);
        let b = layered_chain(5, 9);
        for i in 0..a.n_states() {
            let ra: Vec<_> = a.matrix().row_iter(i).collect();
            let rb: Vec<_> = b.matrix().row_iter(i).collect();
            assert_eq!(ra, rb, "row {i}");
        }
    }

    #[test]
    fn closed_forms_hold() {
        let depth = 11;
        let d = layered_chain(depth, 4);
        let target = d.label("target").unwrap().clone();
        let absorbing = d.label("absorbing").unwrap().clone();
        let reach =
            solve::topo_reach_values(&d, &Condensation::new(&d), &target, 1e-12, 10_000).unwrap();
        for (i, v) in reach.iter().enumerate().take(depth * 4) {
            assert!((v - 0.5).abs() < 1e-12, "state {i}: {v}");
        }
        let rew =
            solve::topo_reach_reward_values(&d, &Condensation::new(&d), &absorbing, 1e-12, 10_000)
                .unwrap();
        for layer in 0..depth {
            let want = (depth - layer) as f64;
            let got = rew[layer * 4];
            assert!((got - want).abs() < 1e-9, "layer {layer}: {got} vs {want}");
        }
    }
}
