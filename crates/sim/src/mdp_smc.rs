//! Statistical checking of MDPs under explicit schedulers.
//!
//! An MDP has no sampling semantics until the nondeterminism is resolved:
//! a **scheduler** must pick the action at every step. This module samples
//! paths of an [`Mdp`] under a chosen [`Scheduler`] and estimates the
//! probability of a time-bounded path formula, exactly like
//! [`crate::smc::estimate`] does for DTMCs (same Okamoto bound, same
//! seed-derived strata over the worker pool, same determinism contract).
//!
//! The value under *any* scheduler lies between `Pmin` and `Pmax`, which
//! is what makes this the natural statistical **cross-validation** for the
//! exact min/max engine:
//!
//! * [`Scheduler::Uniform`] resolves every choice uniformly at random — a
//!   quick plausibility probe that must land inside `[Pmin, Pmax]`;
//! * [`Scheduler::Memoryless`] replays a fixed action table — feed it
//!   [`smg_mdp::extremal_scheduler`]'s output and the estimate must bracket
//!   the corresponding optimum wherever memoryless schedulers are optimal
//!   (unbounded reachability; for step-bounded formulas it is a one-sided
//!   bound, since the optimum there may need step-dependent choices).
//!
//! The property tests in `smg-mdp/tests/vi_properties.rs` and the
//! `mdp_worst_case` example exercise both directions.

use crate::smc::{
    okamoto_bound, stratum_seed, ApproxResult, CompiledPath, SmcError, ESTIMATE_STRATA,
    PAR_SAMPLE_MIN,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use smg_dtmc::matrix::sample_distribution;
use smg_dtmc::{par, StateId};
use smg_mdp::Mdp;
use smg_pctl::ast::PathFormula;

/// How the nondeterminism is resolved while sampling.
#[derive(Debug, Clone, Copy)]
pub enum Scheduler<'a> {
    /// Each step picks uniformly at random among the state's actions
    /// (randomness drawn from the same stream as the transition sampling,
    /// so runs stay seed-reproducible).
    Uniform,
    /// A memoryless deterministic scheduler: `table[s]` is the action
    /// taken in state `s` (e.g. [`smg_mdp::extremal_scheduler`]'s output).
    Memoryless(&'a [u32]),
}

impl Scheduler<'_> {
    /// Validates the scheduler against the MDP.
    fn check(&self, mdp: &Mdp) -> Result<(), SmcError> {
        if let Scheduler::Memoryless(table) = self {
            if table.len() != mdp.n_states() {
                return Err(SmcError::BadParameter {
                    what: format!(
                        "scheduler length {} does not match state count {}",
                        table.len(),
                        mdp.n_states()
                    ),
                });
            }
            for (s, &a) in table.iter().enumerate() {
                if a as usize >= mdp.action_count(s) {
                    return Err(SmcError::BadParameter {
                        what: format!(
                            "scheduler picks action {a} in state {s}, which has only {} actions",
                            mdp.action_count(s)
                        ),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A path sampler over an MDP under a scheduler; buffer-reuse discipline
/// as in the DTMC sampler (no allocation per path once warm).
struct MdpSampler<'a> {
    mdp: &'a Mdp,
    scheduler: Scheduler<'a>,
    compiled: &'a CompiledPath,
    rng: SmallRng,
    trace: Vec<StateId>,
}

impl<'a> MdpSampler<'a> {
    fn new(mdp: &'a Mdp, scheduler: Scheduler<'a>, compiled: &'a CompiledPath, seed: u64) -> Self {
        MdpSampler {
            mdp,
            scheduler,
            compiled,
            rng: SmallRng::seed_from_u64(seed),
            trace: Vec::with_capacity(compiled.horizon + 1),
        }
    }

    fn sample_once(&mut self) -> bool {
        self.trace.clear();
        let mut state = sample_distribution(self.mdp.initial().iter().copied(), self.rng.gen());
        self.trace.push(state);
        for _ in 0..self.compiled.horizon {
            let s = state as usize;
            let action = match self.scheduler {
                Scheduler::Memoryless(table) => table[s] as usize,
                Scheduler::Uniform => {
                    let k = self.mdp.action_count(s);
                    let u: f64 = self.rng.gen();
                    ((u * k as f64) as usize).min(k - 1)
                }
            };
            state = sample_distribution(self.mdp.action_row(s, action), self.rng.gen());
            self.trace.push(state);
        }
        self.compiled.holds(&self.trace)
    }
}

/// Estimates `P_σ(φ)` — the probability of the bounded path formula under
/// scheduler `σ` — within ±ε at confidence 1−δ, by sampling the
/// Okamoto-bound number of paths. Same stratification and determinism
/// contract as [`crate::smc::estimate`]: the result for a given
/// `(ε, δ, seed, scheduler)` is identical whatever the thread count.
///
/// # Errors
///
/// As for [`crate::smc::estimate`], plus [`SmcError::BadParameter`] for a
/// scheduler that does not fit the MDP.
pub fn estimate_mdp(
    mdp: &Mdp,
    path: &PathFormula,
    scheduler: Scheduler<'_>,
    epsilon: f64,
    delta: f64,
    seed: u64,
) -> Result<ApproxResult, SmcError> {
    scheduler.check(mdp)?;
    let n = okamoto_bound(epsilon, delta)?;
    let compiled = CompiledPath::compile_mdp(mdp, path)?;
    let successes: u64 = if n >= PAR_SAMPLE_MIN {
        let quota = n / ESTIMATE_STRATA as u64;
        let extra = (n % ESTIMATE_STRATA as u64) as usize;
        let mut counts = [0u64; ESTIMATE_STRATA];
        par::chunked_map(&mut counts, 1, |offset, chunk| {
            for (i, slot) in chunk.iter_mut().enumerate() {
                let stratum = offset + i;
                let mut sampler =
                    MdpSampler::new(mdp, scheduler, &compiled, stratum_seed(seed, stratum));
                let draws = quota + u64::from(stratum < extra);
                *slot = (0..draws).filter(|_| sampler.sample_once()).count() as u64;
            }
        });
        counts.iter().sum()
    } else {
        let mut sampler = MdpSampler::new(mdp, scheduler, &compiled, seed);
        (0..n).filter(|_| sampler.sample_once()).count() as u64
    };
    Ok(ApproxResult {
        estimate: successes as f64 / n as f64,
        samples: n,
        epsilon,
        delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use smg_mdp::{vi, MdpBuilder, Opt, ViOptions};
    use smg_pctl::{check_mdp_query, parse_property, Property};
    use std::collections::BTreeMap;

    /// State 0 chooses between a fair coin to goal/bad and a biased one.
    fn mdp() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.push_action(&mut [(1, 0.1), (2, 0.9)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), smg_dtmc::BitVec::from_fn(3, |i| i == 1));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 0.0, 0.0]).unwrap()
    }

    fn path_of(prop: &str) -> PathFormula {
        match parse_property(prop).unwrap() {
            Property::OptProbQuery(_, p) | Property::ProbQuery(p) => p,
            other => panic!("expected a path query, got {other}"),
        }
    }

    #[test]
    fn estimates_bracket_min_and_max() {
        let m = mdp();
        let path = path_of("Pmax=? [ F<=3 goal ]");
        let pmin = check_mdp_query(&m, &parse_property("Pmin=? [ F<=3 goal ]").unwrap())
            .unwrap()
            .value();
        let pmax = check_mdp_query(&m, &parse_property("Pmax=? [ F<=3 goal ]").unwrap())
            .unwrap()
            .value();
        let uni = estimate_mdp(&m, &path, Scheduler::Uniform, 0.02, 0.01, 7).unwrap();
        assert!(
            uni.estimate >= pmin - uni.epsilon && uni.estimate <= pmax + uni.epsilon,
            "uniform estimate {} outside [{pmin}, {pmax}]",
            uni.estimate
        );
        // The extremal memoryless schedulers attain the optima here (the
        // optimal choice in state 0 is time-independent).
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let cond = smg_mdp::qual::condensation(&m);
        let vmax = vi::topo_reach_values(&m, &cond, &goal, Opt::Max, &vio).unwrap();
        let smax = vi::extremal_scheduler(&m, &vmax, Opt::Max, Some(&goal));
        let est = estimate_mdp(&m, &path, Scheduler::Memoryless(&smax), 0.02, 0.01, 7).unwrap();
        assert!(
            (est.estimate - pmax).abs() <= est.epsilon,
            "{}",
            est.estimate
        );
        let vmin = vi::topo_reach_values(&m, &cond, &goal, Opt::Min, &vio).unwrap();
        let smin = vi::extremal_scheduler(&m, &vmin, Opt::Min, None);
        let est = estimate_mdp(&m, &path, Scheduler::Memoryless(&smin), 0.02, 0.01, 7).unwrap();
        assert!(
            (est.estimate - pmin).abs() <= est.epsilon,
            "{}",
            est.estimate
        );
    }

    #[test]
    fn memoryless_estimate_matches_induced_dtmc_exactly_in_distribution() {
        // Sampling the MDP under σ and checking the induced DTMC exactly
        // must agree within ε.
        let m = mdp();
        let sched = [1u32, 0, 0];
        let d = m.induced_dtmc(&sched).unwrap();
        let exact = smg_pctl::check_query(&d, &parse_property("P=? [ F<=4 goal ]").unwrap())
            .unwrap()
            .value();
        let est = estimate_mdp(
            &m,
            &path_of("P=? [ F<=4 goal ]"),
            Scheduler::Memoryless(&sched),
            0.02,
            0.01,
            11,
        )
        .unwrap();
        assert!(
            (est.estimate - exact).abs() <= est.epsilon,
            "{} vs {exact}",
            est.estimate
        );
    }

    #[test]
    fn seeded_runs_are_reproducible_and_stratified_runs_too() {
        let m = mdp();
        let path = path_of("P=? [ F<=3 goal ]");
        let a = estimate_mdp(&m, &path, Scheduler::Uniform, 0.05, 0.05, 99).unwrap();
        let b = estimate_mdp(&m, &path, Scheduler::Uniform, 0.05, 0.05, 99).unwrap();
        assert_eq!(a, b);
        // ε = 0.01 pushes past PAR_SAMPLE_MIN → the stratified pool path.
        let c = estimate_mdp(&m, &path, Scheduler::Uniform, 0.01, 0.05, 99).unwrap();
        assert!(c.samples >= PAR_SAMPLE_MIN);
        let d = estimate_mdp(&m, &path, Scheduler::Uniform, 0.01, 0.05, 99).unwrap();
        assert_eq!(c, d);
    }

    #[test]
    fn bad_schedulers_and_unbounded_formulas_are_rejected() {
        let m = mdp();
        let path = path_of("P=? [ F<=3 goal ]");
        let e = estimate_mdp(&m, &path, Scheduler::Memoryless(&[0, 0]), 0.1, 0.1, 0).unwrap_err();
        assert!(matches!(e, SmcError::BadParameter { .. }));
        let e =
            estimate_mdp(&m, &path, Scheduler::Memoryless(&[7, 0, 0]), 0.1, 0.1, 0).unwrap_err();
        assert!(matches!(e, SmcError::BadParameter { .. }));
        let e = estimate_mdp(
            &m,
            &path_of("P=? [ F goal ]"),
            Scheduler::Uniform,
            0.1,
            0.1,
            0,
        )
        .unwrap_err();
        assert_eq!(e, SmcError::Unbounded);
    }
}
