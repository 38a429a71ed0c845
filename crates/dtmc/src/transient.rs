//! Transient (time-bounded) analysis by forward probability propagation.
//!
//! The paper's properties are all evaluated over a bounded horizon `T` from
//! the initial state, so the natural algorithm is forward propagation of the
//! initial distribution: `π_{t+1} = π_t · P`. Absorbing variants (used for
//! `F<=T` / `G<=T` probabilities) mask out target rows and accumulate the
//! mass that hits them. Steady-state detection watches the L∞ difference of
//! consecutive distributions — "a DTMC model is said to have attained a
//! steady state when the probability of reaching a state is independent of
//! the time step" (§III).
//!
//! Every loop here follows the matrix module's buffer-reuse contract: two
//! ping-pong buffers are allocated up front and swapped each step, so a
//! sweep over `T` steps performs zero per-step allocation regardless of
//! horizon. Each step's product is a measured dispatch site (see
//! [`crate::matrix`] and [`crate::par::Site`]): a step runs on the worker
//! pool only where that has been timed to beat the sequential loop on the
//! running host. A parallel step dispatches its own epoch, 5–55 µs on a
//! 2-core host, so small chains' steps stay sequential. Nothing in this
//! module changes shape between the sequential and parallel paths.

use crate::bitvec::BitVec;
use crate::dtmc::Dtmc;
use crate::error::DtmcError;

/// The distribution over states after exactly `t` steps.
pub fn distribution_at(dtmc: &Dtmc, t: usize) -> Vec<f64> {
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    for _ in 0..t {
        dtmc.matrix().forward_into(&pi, &mut next);
        std::mem::swap(&mut pi, &mut next);
    }
    pi
}

/// The expected instantaneous reward after exactly `t` steps — the paper's
/// `R=? [I=T]` (property P2/C1): "a reward property that computes the
/// expected instantaneous value of flag after exactly T transitions".
pub fn instantaneous_reward(dtmc: &Dtmc, t: usize) -> f64 {
    let pi = distribution_at(dtmc, t);
    dot(&pi, dtmc.rewards())
}

/// The expected instantaneous reward at *every* step `0..=t`, returned as a
/// series. One forward sweep; used for steady-state tables (III–V).
pub fn instantaneous_reward_series(dtmc: &Dtmc, t: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(t + 1);
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    out.push(dot(&pi, dtmc.rewards()));
    for _ in 0..t {
        dtmc.matrix().forward_into(&pi, &mut next);
        std::mem::swap(&mut pi, &mut next);
        out.push(dot(&pi, dtmc.rewards()));
    }
    out
}

/// The probability that a state in `target` is reached within `t` steps
/// (`P=? [F<=t target]`), treating target states as absorbing.
///
/// A state that is initially in `target` counts as reached at step 0.
pub fn bounded_reach_prob(dtmc: &Dtmc, target: &BitVec, t: usize) -> Result<f64, DtmcError> {
    check_len(dtmc, target)?;
    let active = target.not();
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    let mut absorbed = drain_target(&mut pi, target);
    for _ in 0..t {
        dtmc.matrix()
            .forward_masked_into(&pi, Some(&active), &mut next);
        std::mem::swap(&mut pi, &mut next);
        absorbed += drain_target(&mut pi, target);
        if absorbed >= 1.0 - 1e-15 {
            break;
        }
    }
    Ok(absorbed.min(1.0))
}

/// The probability that *every* state visited during the first `t` steps
/// satisfies `good` (`P=? [G<=t good]`) — the paper's best-case property P1
/// with `good = !flag`.
pub fn bounded_globally_prob(dtmc: &Dtmc, good: &BitVec, t: usize) -> Result<f64, DtmcError> {
    let bad = good.not();
    Ok(1.0 - bounded_reach_prob(dtmc, &bad, t)?)
}

/// The probability of `lhs U<=t rhs` (bounded until): a path satisfies it if
/// it reaches an `rhs` state within `t` steps passing only through `lhs`
/// states before that.
pub fn bounded_until_prob(
    dtmc: &Dtmc,
    lhs: &BitVec,
    rhs: &BitVec,
    t: usize,
) -> Result<f64, DtmcError> {
    check_len(dtmc, lhs)?;
    check_len(dtmc, rhs)?;
    // Success: rhs. Failure: !lhs ∧ !rhs. Active: lhs ∧ !rhs.
    let active = lhs.and(&rhs.not());
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    let mut success = drain_target(&mut pi, rhs);
    // Mass in failure states simply stops propagating (masked out).
    for _ in 0..t {
        dtmc.matrix()
            .forward_masked_into(&pi, Some(&active), &mut next);
        std::mem::swap(&mut pi, &mut next);
        success += drain_target(&mut pi, rhs);
        if success >= 1.0 - 1e-15 {
            break;
        }
    }
    Ok(success.min(1.0))
}

/// Backward value iteration for bounded until, producing the satisfaction
/// probability *from every state*. Slower than the forward pass when only
/// the initial value is needed, but required for nested formulas; the two
/// agree (tested in `smg-pctl`).
pub fn bounded_until_values(
    dtmc: &Dtmc,
    lhs: &BitVec,
    rhs: &BitVec,
    t: usize,
) -> Result<Vec<f64>, DtmcError> {
    check_len(dtmc, lhs)?;
    check_len(dtmc, rhs)?;
    let n = dtmc.n_states();
    let active = lhs.and(&rhs.not());
    let mut x: Vec<f64> = (0..n).map(|i| if rhs.get(i) { 1.0 } else { 0.0 }).collect();
    let mut next = vec![0.0; n];
    for _ in 0..t {
        dtmc.matrix()
            .backward_masked_into(&x, Some(&active), &mut next);
        // rhs states stay 1, failure states stay 0 (backward_masked keeps
        // inactive rows' values, which are already 1 on rhs and 0 on fail).
        for (i, v) in next.iter_mut().enumerate() {
            if rhs.get(i) {
                *v = 1.0;
            } else if !lhs.get(i) {
                *v = 0.0;
            }
        }
        std::mem::swap(&mut x, &mut next);
    }
    Ok(x)
}

/// A steady-state detection report.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyState {
    /// The step at which the L∞ change dropped below the tolerance, if it
    /// did within the budget.
    pub converged_at: Option<usize>,
    /// The distribution at the final step computed.
    pub distribution: Vec<f64>,
    /// The L∞ change at the final step.
    pub final_delta: f64,
}

impl SteadyState {
    /// The steady-state expectation of the DTMC's reward structure — the
    /// BER interpretation of P2: "once steady state is attained, we consider
    /// P2 as the BER of the system".
    pub fn expected_reward(&self, dtmc: &Dtmc) -> f64 {
        dot(&self.distribution, dtmc.rewards())
    }
}

/// Iterates the chain forward until the distribution stops changing (L∞
/// change below `tol`) or `max_steps` is hit.
pub fn detect_steady_state(dtmc: &Dtmc, tol: f64, max_steps: usize) -> SteadyState {
    let mut pi = dtmc.initial_dense();
    let mut next = vec![0.0; pi.len()];
    let mut delta = f64::INFINITY;
    for step in 1..=max_steps {
        dtmc.matrix().forward_into(&pi, &mut next);
        delta = max_abs_diff(&pi, &next);
        std::mem::swap(&mut pi, &mut next);
        if delta < tol {
            return SteadyState {
                converged_at: Some(step),
                distribution: pi,
                final_delta: delta,
            };
        }
    }
    SteadyState {
        converged_at: None,
        distribution: pi,
        final_delta: delta,
    }
}

fn drain_target(pi: &mut [f64], target: &BitVec) -> f64 {
    let mut absorbed = 0.0;
    for i in target.iter_ones() {
        absorbed += pi[i];
        pi[i] = 0.0;
    }
    absorbed
}

fn check_len(dtmc: &Dtmc, bits: &BitVec) -> Result<(), DtmcError> {
    if bits.len() != dtmc.n_states() {
        return Err(DtmcError::DimensionMismatch {
            expected: dtmc.n_states(),
            actual: bits.len(),
        });
    }
    Ok(())
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{CsrMatrix, TransitionMatrix};
    use std::collections::BTreeMap;

    /// Chain: 0 → {0: 0.5, 1: 0.5}, 1 → {2: 1.0}, 2 absorbing. Label "goal"
    /// on 2, reward 1.0 on 2.
    fn chain() -> Dtmc {
        let m = TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![
                vec![(0, 0.5), (1, 0.5)],
                vec![(2, 1.0)],
                vec![(2, 1.0)],
            ])
            .unwrap(),
        );
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 2));
        Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0, 0.0, 1.0]).unwrap()
    }

    #[test]
    fn distribution_evolves() {
        let d = chain();
        let p0 = distribution_at(&d, 0);
        assert_eq!(p0, vec![1.0, 0.0, 0.0]);
        let p1 = distribution_at(&d, 1);
        assert_eq!(p1, vec![0.5, 0.5, 0.0]);
        let p2 = distribution_at(&d, 2);
        assert!((p2[0] - 0.25).abs() < 1e-12);
        assert!((p2[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn reward_series_matches_pointwise() {
        let d = chain();
        let series = instantaneous_reward_series(&d, 6);
        for (t, &v) in series.iter().enumerate() {
            assert!((v - instantaneous_reward(&d, t)).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn bounded_reach_probability() {
        let d = chain();
        let goal = d.label("goal").unwrap().clone();
        // Reach 2 within t steps: t=0: 0; t=1: 0; t=2: 0.5; t=3: 0.75, ...
        assert_eq!(bounded_reach_prob(&d, &goal, 0).unwrap(), 0.0);
        assert_eq!(bounded_reach_prob(&d, &goal, 1).unwrap(), 0.0);
        assert!((bounded_reach_prob(&d, &goal, 2).unwrap() - 0.5).abs() < 1e-12);
        assert!((bounded_reach_prob(&d, &goal, 3).unwrap() - 0.75).abs() < 1e-12);
        // In the limit it converges to 1.
        assert!((bounded_reach_prob(&d, &goal, 200).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn globally_complements_reach() {
        let d = chain();
        let goal = d.label("goal").unwrap().clone();
        let safe = goal.not();
        for t in 0..10 {
            let g = bounded_globally_prob(&d, &safe, t).unwrap();
            let f = bounded_reach_prob(&d, &goal, t).unwrap();
            assert!((g + f - 1.0).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn bounded_until_with_constraint() {
        // lhs = {0}, rhs = {2}: paths must avoid state 1, impossible here.
        let d = chain();
        let lhs = BitVec::from_fn(3, |i| i == 0);
        let rhs = BitVec::from_fn(3, |i| i == 2);
        assert_eq!(bounded_until_prob(&d, &lhs, &rhs, 50).unwrap(), 0.0);
        // lhs = {0, 1} makes it reachable.
        let lhs2 = BitVec::from_fn(3, |i| i <= 1);
        assert!((bounded_until_prob(&d, &lhs2, &rhs, 3).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn forward_and_backward_until_agree() {
        let d = chain();
        let lhs = BitVec::from_fn(3, |i| i <= 1);
        let rhs = BitVec::from_fn(3, |i| i == 2);
        for t in 0..8 {
            let fwd = bounded_until_prob(&d, &lhs, &rhs, t).unwrap();
            let vals = bounded_until_values(&d, &lhs, &rhs, t).unwrap();
            // Initial state is 0 with mass 1.
            assert!((fwd - vals[0]).abs() < 1e-12, "t={t}");
        }
    }

    #[test]
    fn steady_state_detection() {
        let d = chain();
        let ss = detect_steady_state(&d, 1e-12, 10_000);
        assert!(ss.converged_at.is_some());
        // All mass ends in the absorbing state.
        assert!((ss.distribution[2] - 1.0).abs() < 1e-9);
        assert!((ss.expected_reward(&d) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_detected() {
        let d = chain();
        let bad = BitVec::zeros(5);
        assert!(matches!(
            bounded_reach_prob(&d, &bad, 1),
            Err(DtmcError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn instantaneous_reward_is_p2() {
        // Two-state flip-flop with reward 1 on state 1: expected reward at
        // t alternates 0/1; with a fair start it is 0.5 forever.
        let m = TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![vec![(1, 1.0)], vec![(0, 1.0)]]).unwrap(),
        );
        let d = Dtmc::new(m, vec![(0, 0.5), (1, 0.5)], BTreeMap::new(), vec![0.0, 1.0]).unwrap();
        for t in 0..5 {
            assert!((instantaneous_reward(&d, t) - 0.5).abs() < 1e-12);
        }
    }
}
