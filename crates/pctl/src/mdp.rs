//! The pCTL model checker for MDPs.
//!
//! Quantitative queries over an MDP must say *which* resolution of the
//! nondeterminism they mean: [`check_mdp_query`] accepts the `Pmin=?` /
//! `Pmax=?` / `Rmin=?` / `Rmax=?` forms (worst case / best case over all
//! schedulers) and rejects the scheduler-ambiguous plain `P=?` / `R=?` /
//! `S=?` forms with a pointed [`PctlError::Unsupported`]. Boolean state
//! formulas over labels work unchanged.
//!
//! All numeric evaluation happens *backwards* — per-state optimal value
//! vectors from `smg-mdp`'s value iteration (unbounded queries walk the
//! any-action SCC condensation, `smg_mdp::vi::topo_*`), folded over the initial
//! distribution at the end. (A scheduler observes the state, including the
//! initial draw, so the optimal value of a distribution is the expectation
//! of the per-state optima; there is no MDP analogue of the DTMC checker's
//! forward transient pass.)
//!
//! Like the DTMC checker, the algorithms are methods on an evaluator with
//! an optional session cache (`MdpCache`); the free functions run it
//! uncached, [`crate::session::CheckSession`] runs it cached.

use crate::ast::{Opt, PathFormula, Property, RewardQuery, StateFormula, TimeBound};
use crate::check::{
    fold_certificate, is_unbounded_path, sat_key, CheckOptions, CheckResult, EngineValue, Solver,
    CERTIFIED_MAX_ITER,
};
use crate::error::PctlError;
use crate::session::{CacheKind, CacheStats};
use smg_dtmc::graph::Condensation;
use smg_dtmc::solve::CertifiedValues;
use smg_dtmc::BitVec;
use smg_mdp::{qual, vi, Mdp, ViOptions};
use smg_obs as obs;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Evaluates a top-level property against the MDP's initial distribution.
///
/// # Errors
///
/// * [`PctlError::Unsupported`] for query forms that are ambiguous on an
///   MDP (`P=?`, `R=?`, `S=?`, and threshold operators `P⋈p [...]`).
/// * [`PctlError::Dtmc`] for unknown labels or non-convergence.
///
/// # Example
///
/// ```
/// use smg_mdp::{Mdp, MdpBuilder};
/// use smg_pctl::{check_mdp_query, parse_property};
/// use std::collections::BTreeMap;
///
/// // One state choosing between a safe loop and a risky exit to "err".
/// let mut b = MdpBuilder::default();
/// b.push_action(&mut [(0, 1.0)]).unwrap();
/// b.push_action(&mut [(0, 0.2), (1, 0.8)]).unwrap();
/// b.finish_state().unwrap();
/// b.push_action(&mut [(1, 1.0)]).unwrap();
/// b.finish_state().unwrap();
/// let mut labels = BTreeMap::new();
/// labels.insert("err".into(), smg_dtmc::BitVec::from_fn(2, |i| i == 1));
/// let mdp = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 0.0]).unwrap();
///
/// let worst = check_mdp_query(&mdp, &parse_property("Pmax=? [ F err ]")?)?;
/// let best = check_mdp_query(&mdp, &parse_property("Pmin=? [ F err ]")?)?;
/// assert!((worst.value() - 1.0).abs() < 1e-9); // adversary keeps trying
/// assert_eq!(best.value(), 0.0);               // or never tries at all
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn check_mdp_query(mdp: &Mdp, property: &Property) -> Result<CheckResult, PctlError> {
    check_mdp_query_with(mdp, property, &CheckOptions::default())
}

/// Evaluates a top-level property against the MDP's initial distribution.
/// With [`CheckOptions::certified`], unbounded `Pmin`/`Pmax` and
/// reachability `Rmin`/`Rmax` queries run certified interval iteration
/// (`smg-mdp`'s `certified_*` drivers) and the result carries a sound
/// `[lo, hi]` bracket.
///
/// To check a *family* of properties against one MDP, prefer a
/// [`crate::session::CheckSession`], which runs this exact code path with
/// a precomputation cache shared across the batch.
///
/// # Errors
///
/// As for [`check_mdp_query`].
pub fn check_mdp_query_with(
    mdp: &Mdp,
    property: &Property,
    opts: &CheckOptions,
) -> Result<CheckResult, PctlError> {
    MdpEvaluator::uncached(mdp, ViOptions::default()).check_mdp_query_with(property, opts)
}

/// Memoized precomputation shared by every MDP query of a
/// [`crate::session::CheckSession`]. Same keying discipline as
/// [`crate::check::DtmcCache`]: satisfaction sets by the collision-free
/// `sat_key` serialization, optimal
/// value vectors and certified brackets by the exact operand bit-sets plus
/// the optimization direction (and ε bits), so a hit always equals
/// recomputation. The qualitative work inside the certified drivers
/// (`Prob0`/`Prob1` sets, MEC decompositions, proper schedulers) is
/// amortized through these entries: it runs once per distinct
/// `(operands, direction, ε)` triple per session instead of once per
/// query.
#[derive(Debug, Default)]
pub(crate) struct MdpCache {
    /// Satisfaction sets, one entry per distinct (sub)formula text.
    sat: HashMap<String, BitVec>,
    /// The SCC condensation of the any-action graph, built on the first
    /// unbounded query and handed to every topological solve after it.
    cond: OnceCell<Arc<Condensation>>,
    /// Unbounded optimal until values keyed by `(lhs, rhs, opt)`.
    /// (`F φ` routes through this with an all-ones `lhs`.)
    until: HashMap<(BitVec, BitVec, Opt), Arc<Vec<f64>>>,
    /// Optimal reachability-reward values keyed by `(target, opt)`.
    reach_reward: HashMap<(BitVec, Opt), Arc<Vec<f64>>>,
    /// Certified until brackets keyed by `(lhs, rhs, opt, ε bits)`.
    cert_until: HashMap<(BitVec, BitVec, Opt, u64), Arc<CertifiedValues>>,
    /// Certified reachability brackets keyed by `(target, opt, ε bits)`.
    cert_reach: HashMap<(BitVec, Opt, u64), Arc<CertifiedValues>>,
    /// Certified reachability-reward brackets, same key as `cert_reach`.
    cert_reach_reward: HashMap<(BitVec, Opt, u64), Arc<CertifiedValues>>,
    /// Hit/miss telemetry, per cache kind.
    pub(crate) stats: CacheStats,
}

/// The MDP query engine: checking algorithms as methods over an MDP, the
/// value-iteration options to dispatch with, and an optional session
/// cache.
pub(crate) struct MdpEvaluator<'a> {
    mdp: &'a Mdp,
    vio: ViOptions,
    cache: Option<&'a RefCell<MdpCache>>,
    /// An uncached evaluator's own condensation (one per free-function
    /// call), built on its first unbounded solve.
    cond: OnceCell<Arc<Condensation>>,
}

impl<'a> MdpEvaluator<'a> {
    /// An evaluator that recomputes everything (the free-function path).
    pub(crate) fn uncached(mdp: &'a Mdp, vio: ViOptions) -> Self {
        MdpEvaluator {
            mdp,
            vio,
            cache: None,
            cond: OnceCell::new(),
        }
    }

    /// An evaluator sharing a session's cache.
    pub(crate) fn cached(mdp: &'a Mdp, vio: ViOptions, cache: &'a RefCell<MdpCache>) -> Self {
        MdpEvaluator {
            mdp,
            vio,
            cache: Some(cache),
            cond: OnceCell::new(),
        }
    }

    /// The any-action condensation: the session's single copy in cached
    /// mode, this evaluator's own otherwise — built on first use either
    /// way.
    fn condensation(&self) -> Arc<Condensation> {
        let build = || Arc::new(qual::condensation(self.mdp));
        match self.cache {
            Some(cell) => cell.borrow().cond.get_or_init(build).clone(),
            None => self.cond.get_or_init(build).clone(),
        }
    }

    /// Memoizes one computation; see `Evaluator::memo` in
    /// [`crate::check`] for the borrow discipline.
    fn memo<V: Clone>(
        &self,
        kind: CacheKind,
        lookup: impl Fn(&MdpCache) -> Option<V>,
        store: impl FnOnce(&mut MdpCache, V),
        compute: impl FnOnce(&Self) -> Result<V, PctlError>,
    ) -> Result<V, PctlError> {
        let Some(cell) = self.cache else {
            return compute(self);
        };
        let found = lookup(&cell.borrow());
        if let Some(v) = found {
            cell.borrow_mut().stats.record_hit(kind);
            return Ok(v);
        }
        let v = compute(self)?;
        let mut c = cell.borrow_mut();
        c.stats.record_miss(kind);
        store(&mut c, v.clone());
        Ok(v)
    }

    /// A copy of the value-iteration options with the checker's wider
    /// certified iteration budget (interval iteration closes a width, not
    /// a residual).
    fn certified_vio(&self) -> ViOptions {
        ViOptions {
            max_iter: CERTIFIED_MAX_ITER,
            ..self.vio
        }
    }

    /// See [`check_mdp_query_with`].
    pub(crate) fn check_mdp_query_with(
        &self,
        property: &Property,
        opts: &CheckOptions,
    ) -> Result<CheckResult, PctlError> {
        let start = Instant::now();
        let (value, boolean, solver, interval) = match property {
            Property::OptProbQuery(opt, path) => {
                let (v, solver, interval) = self.opt_path_query(path, *opt, opts)?;
                (v, None, solver, interval)
            }
            Property::OptRewardQuery(opt, q) => {
                let (v, solver, interval) = self.opt_reward_query(q, *opt, opts)?;
                (v, None, solver, interval)
            }
            Property::Bool(f) => {
                let sat = self.sat_states_mdp(f)?;
                let ok = self
                    .mdp
                    .initial()
                    .iter()
                    .all(|&(s, p)| p == 0.0 || sat.get(s as usize));
                (
                    if ok { 1.0 } else { 0.0 },
                    Some(ok),
                    Solver::Transient,
                    None,
                )
            }
            Property::ProbQuery(_) => {
                return Err(PctlError::Unsupported {
                    construct: "P=? on an MDP (use Pmin=? / Pmax=? to fix the scheduler \
                                quantification)"
                        .into(),
                })
            }
            Property::RewardQuery(_) => {
                return Err(PctlError::Unsupported {
                    construct: "R=? on an MDP (use Rmin=? / Rmax=?)".into(),
                })
            }
            Property::SteadyQuery(_) => {
                return Err(PctlError::Unsupported {
                    construct: "S=? on an MDP (long-run averages are scheduler-dependent)".into(),
                })
            }
        };
        let elapsed = start.elapsed();
        obs::observe(
            "smg_pctl_property_seconds",
            Some(("solver", solver.as_str())),
            elapsed.as_secs_f64(),
        );
        Ok(CheckResult::assemble(value, boolean, elapsed).with_engine(solver, interval))
    }

    /// Evaluates an optimal path-probability query from the initial
    /// distribution, reporting which engine ran and the value bracket
    /// where one exists.
    fn opt_path_query(
        &self,
        path: &PathFormula,
        opt: Opt,
        opts: &CheckOptions,
    ) -> Result<EngineValue, PctlError> {
        if let Some(eps) = opts.certify {
            match path {
                PathFormula::Until {
                    lhs,
                    rhs,
                    bound: TimeBound::None,
                } => {
                    let l = self.sat_states_mdp(lhs)?;
                    let r = self.sat_states_mdp(rhs)?;
                    let cert = self.cert_until(&l, &r, opt, eps)?;
                    return Ok(fold_certificate(self.mdp.initial(), &cert, false));
                }
                PathFormula::Finally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    let f = self.sat_states_mdp(inner)?;
                    let cert = self.cert_reach(&f, opt, eps)?;
                    return Ok(fold_certificate(self.mdp.initial(), &cert, false));
                }
                PathFormula::Globally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    // G φ = ¬F ¬φ with the dual optimum; the bracket
                    // complements with its ends swapped.
                    let bad = self.sat_states_mdp(inner)?.not();
                    let cert = self.cert_reach(&bad, opt.dual(), eps)?;
                    return Ok(fold_certificate(self.mdp.initial(), &cert, true));
                }
                _ => {} // finite-horizon forms are exact arithmetic below
            }
        }
        let vals = self.opt_path_values(path, opt)?;
        let v = initial_expectation(self.mdp, &vals);
        if is_unbounded_path(path) {
            Ok((v, Solver::Iterative, None))
        } else {
            Ok((v, Solver::Transient, Some((v, v))))
        }
    }

    /// See [`sat_states_mdp`]. Keyed by the collision-free
    /// [`crate::check::sat_key`] serialization, like the DTMC evaluator.
    pub(crate) fn sat_states_mdp(&self, formula: &StateFormula) -> Result<BitVec, PctlError> {
        self.memo(
            CacheKind::Sat,
            |c| c.sat.get(&sat_key(formula)).cloned(),
            |c, v| {
                c.sat.insert(sat_key(formula), v);
            },
            |ev| ev.sat_states_mdp_raw(formula),
        )
    }

    fn sat_states_mdp_raw(&self, formula: &StateFormula) -> Result<BitVec, PctlError> {
        let n = self.mdp.n_states();
        match formula {
            StateFormula::True => Ok(BitVec::ones(n)),
            StateFormula::False => Ok(BitVec::zeros(n)),
            StateFormula::Ap(name) => Ok(self.mdp.label(name)?.clone()),
            StateFormula::Not(f) => Ok(self.sat_states_mdp(f)?.not()),
            StateFormula::And(a, b) => Ok(self.sat_states_mdp(a)?.and(&self.sat_states_mdp(b)?)),
            StateFormula::Or(a, b) => Ok(self.sat_states_mdp(a)?.or(&self.sat_states_mdp(b)?)),
            StateFormula::Implies(a, b) => {
                Ok(self.sat_states_mdp(a)?.not().or(&self.sat_states_mdp(b)?))
            }
            StateFormula::Prob { .. } => Err(PctlError::Unsupported {
                construct: "nested P⋈p operator inside an MDP formula (its satisfaction set \
                            depends on the scheduler quantifier)"
                    .into(),
            }),
        }
    }

    /// See [`opt_path_values`].
    pub(crate) fn opt_path_values(
        &self,
        path: &PathFormula,
        opt: Opt,
    ) -> Result<Vec<f64>, PctlError> {
        let n = self.mdp.n_states();
        match path {
            PathFormula::Next(f) => {
                let sat = self.sat_states_mdp(f)?;
                let x: Vec<f64> = (0..n).map(|i| if sat.get(i) { 1.0 } else { 0.0 }).collect();
                let mut out = vec![0.0; n];
                vi::optimal_step_into(self.mdp, &x, None, opt, &mut out, &self.vio);
                Ok(out)
            }
            PathFormula::Until { lhs, rhs, bound } => {
                let l = self.sat_states_mdp(lhs)?;
                let r = self.sat_states_mdp(rhs)?;
                self.opt_until_values(&l, &r, *bound, opt)
            }
            PathFormula::Finally { inner, bound } => {
                let f = self.sat_states_mdp(inner)?;
                let all = BitVec::ones(n);
                self.opt_until_values(&all, &f, *bound, opt)
            }
            PathFormula::Globally { inner, bound } => {
                // G φ = ¬F ¬φ, with the *dual* optimum: the scheduler
                // maximizing the invariant minimizes the violation.
                let f = self.sat_states_mdp(inner)?;
                let bad = f.not();
                let all = BitVec::ones(n);
                let reach = self.opt_until_values(&all, &bad, *bound, opt.dual())?;
                Ok(reach.into_iter().map(|p| 1.0 - p).collect())
            }
        }
    }

    /// Optimal until values for every [`TimeBound`] variant. Interval
    /// bounds follow PRISM's semantics (the prefix must stay in `lhs`;
    /// reaching `rhs` before the window opens does not count), mirrored
    /// from the DTMC checker's `interval_until_values` with optimal
    /// backups.
    fn opt_until_values(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        bound: TimeBound,
        opt: Opt,
    ) -> Result<Vec<f64>, PctlError> {
        match bound {
            TimeBound::Upper(t) => Ok(vi::bounded_until_values(
                self.mdp, lhs, rhs, t as usize, opt, &self.vio,
            )?),
            TimeBound::None => self.unbounded_until(lhs, rhs, opt).map(arc_to_vec),
            TimeBound::Interval(a, b) => {
                let mut x =
                    vi::bounded_until_values(self.mdp, lhs, rhs, (b - a) as usize, opt, &self.vio)?;
                let mut next = vec![0.0; x.len()];
                for _ in 0..a {
                    vi::optimal_step_into(self.mdp, &x, Some(lhs), opt, &mut next, &self.vio);
                    // Non-lhs states die during the prefix (rhs does not
                    // absorb yet).
                    for (i, v) in next.iter_mut().enumerate() {
                        if !lhs.get(i) {
                            *v = 0.0;
                        }
                    }
                    std::mem::swap(&mut x, &mut next);
                }
                Ok(x)
            }
        }
    }

    /// Unbounded optimal until values, memoized on the operand sets and
    /// the direction.
    fn unbounded_until(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        opt: Opt,
    ) -> Result<Arc<Vec<f64>>, PctlError> {
        self.memo(
            CacheKind::Values,
            |c| c.until.get(&(lhs.clone(), rhs.clone(), opt)).cloned(),
            |c, v| {
                c.until.insert((lhs.clone(), rhs.clone(), opt), v);
            },
            |ev| {
                Ok(Arc::new(vi::topo_until_values(
                    ev.mdp,
                    &ev.condensation(),
                    lhs,
                    rhs,
                    opt,
                    &ev.vio,
                )?))
            },
        )
    }

    fn opt_reward_query(
        &self,
        q: &RewardQuery,
        opt: Opt,
        opts: &CheckOptions,
    ) -> Result<EngineValue, PctlError> {
        match q {
            RewardQuery::Instantaneous(t) => {
                let vals = vi::instantaneous_reward_values(self.mdp, *t as usize, opt, &self.vio);
                let v = initial_expectation(self.mdp, &vals);
                Ok((v, Solver::Transient, Some((v, v))))
            }
            RewardQuery::Cumulative(t) => {
                let vals = vi::cumulative_reward_values(self.mdp, *t as usize, opt, &self.vio);
                let v = initial_expectation(self.mdp, &vals);
                Ok((v, Solver::Transient, Some((v, v))))
            }
            RewardQuery::Reach(phi) => {
                let target = self.sat_states_mdp(phi)?;
                if let Some(eps) = opts.certify {
                    let cert = self.cert_reach_reward(&target, opt, eps)?;
                    return Ok(fold_certificate(self.mdp.initial(), &cert, false));
                }
                let vals = self.reach_reward(&target, opt)?;
                // Skip zero-mass initial states so `0 × ∞` cannot poison
                // the expectation with NaN (same guard as the DTMC
                // checker).
                let v = self
                    .mdp
                    .initial()
                    .iter()
                    .filter(|&&(_, p)| p > 0.0)
                    .map(|&(s, p)| p * vals[s as usize])
                    .sum();
                Ok((v, Solver::Iterative, None))
            }
        }
    }

    /// Optimal reachability-reward values, memoized on the target set and
    /// the direction.
    fn reach_reward(&self, target: &BitVec, opt: Opt) -> Result<Arc<Vec<f64>>, PctlError> {
        self.memo(
            CacheKind::Values,
            |c| c.reach_reward.get(&(target.clone(), opt)).cloned(),
            |c, v| {
                c.reach_reward.insert((target.clone(), opt), v);
            },
            |ev| {
                Ok(Arc::new(vi::topo_reach_reward_values(
                    ev.mdp,
                    &ev.condensation(),
                    target,
                    opt,
                    &ev.vio,
                )?))
            },
        )
    }

    /// Certified unbounded until on the condensation, memoized on
    /// `(lhs, rhs, opt, ε)`.
    fn cert_until(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        opt: Opt,
        eps: f64,
    ) -> Result<Arc<CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| {
                c.cert_until
                    .get(&(lhs.clone(), rhs.clone(), opt, eps.to_bits()))
                    .cloned()
            },
            |c, v| {
                c.cert_until
                    .insert((lhs.clone(), rhs.clone(), opt, eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(vi::topo_certified_until_values(
                    ev.mdp,
                    &ev.condensation(),
                    lhs,
                    rhs,
                    opt,
                    eps,
                    &ev.certified_vio(),
                )?))
            },
        )
    }

    /// Certified unbounded reachability on the condensation, memoized on
    /// `(target, opt, ε)`.
    fn cert_reach(
        &self,
        target: &BitVec,
        opt: Opt,
        eps: f64,
    ) -> Result<Arc<CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| {
                c.cert_reach
                    .get(&(target.clone(), opt, eps.to_bits()))
                    .cloned()
            },
            |c, v| {
                c.cert_reach.insert((target.clone(), opt, eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(vi::topo_certified_reach_values(
                    ev.mdp,
                    &ev.condensation(),
                    target,
                    opt,
                    eps,
                    &ev.certified_vio(),
                )?))
            },
        )
    }

    /// Certified reachability reward on the condensation, memoized on
    /// `(target, opt, ε)`.
    fn cert_reach_reward(
        &self,
        target: &BitVec,
        opt: Opt,
        eps: f64,
    ) -> Result<Arc<CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| {
                c.cert_reach_reward
                    .get(&(target.clone(), opt, eps.to_bits()))
                    .cloned()
            },
            |c, v| {
                c.cert_reach_reward
                    .insert((target.clone(), opt, eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(vi::topo_certified_reach_reward_values(
                    ev.mdp,
                    &ev.condensation(),
                    target,
                    opt,
                    eps,
                    &ev.certified_vio(),
                )?))
            },
        )
    }
}

/// Unwraps a cache handle into an owned vector (no copy when the evaluator
/// was uncached and the handle is unique).
fn arc_to_vec(rc: Arc<Vec<f64>>) -> Vec<f64> {
    Arc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone())
}

/// The set of states satisfying a (boolean) state formula over an MDP's
/// labels. Threshold operators `P⋈p [...]` are rejected: their satisfaction
/// set on an MDP depends on the scheduler quantifier, which this syntax
/// does not carry.
///
/// # Errors
///
/// [`PctlError::Dtmc`] for unknown labels; [`PctlError::Unsupported`] for
/// nested probability operators.
pub fn sat_states_mdp(mdp: &Mdp, formula: &StateFormula) -> Result<BitVec, PctlError> {
    MdpEvaluator::uncached(mdp, ViOptions::default()).sat_states_mdp(formula)
}

/// The optimal probability of the path formula *from every state*.
///
/// # Errors
///
/// As for [`check_mdp_query`].
pub fn opt_path_values(
    mdp: &Mdp,
    path: &PathFormula,
    opt: Opt,
    vio: &ViOptions,
) -> Result<Vec<f64>, PctlError> {
    MdpEvaluator::uncached(mdp, *vio).opt_path_values(path, opt)
}

fn initial_expectation(mdp: &Mdp, vals: &[f64]) -> f64 {
    mdp.initial()
        .iter()
        .map(|&(s, p)| p * vals[s as usize])
        .sum()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_property;
    use smg_mdp::MdpBuilder;
    use std::collections::BTreeMap;

    /// The DTMC checker's gadget with an added adversary choice in state 0:
    /// action 0 behaves like the original chain (0 → {1: ½, 2: ½}), action
    /// 1 restarts (0 → 0). States: 0 start, 1 middle, 2 "bad" absorbing,
    /// 3 "goal" absorbing; 1 → {3: ½, 0: ½}.
    fn gadget_mdp() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 0.5), (0, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 3));
        labels.insert("bad".to_string(), BitVec::from_fn(4, |i| i == 2));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 0.0, 0.0, 1.0]).unwrap()
    }

    fn q(mdp: &Mdp, prop: &str) -> f64 {
        check_mdp_query(mdp, &parse_property(prop).unwrap())
            .unwrap()
            .value()
    }

    #[test]
    fn unbounded_min_max_reach() {
        let m = gadget_mdp();
        // Max: restarting is useless (same 1/3 as the DTMC); the optimum
        // solves p = ½(½ + ½p) → p = 1/3.
        let pmax = q(&m, "Pmax=? [ F goal ]");
        assert!((pmax - 1.0 / 3.0).abs() < 1e-9, "pmax = {pmax}");
        // Min: the adversary restarts forever and never reaches goal.
        assert_eq!(q(&m, "Pmin=? [ F goal ]"), 0.0);
        // Dually for bad.
        assert_eq!(q(&m, "Pmin=? [ F bad ]"), 0.0);
        let pmax_bad = q(&m, "Pmax=? [ F bad ]");
        assert!((pmax_bad - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn globally_duality() {
        let m = gadget_mdp();
        // Pmax[G !bad] = 1 - Pmin[F bad] = 1 (restart forever).
        assert_eq!(q(&m, "Pmax=? [ G !bad ]"), 1.0);
        // Pmin[G !bad] = 1 - Pmax[F bad] = 1/3.
        let pmin_g = q(&m, "Pmin=? [ G !bad ]");
        assert!((pmin_g - 1.0 / 3.0).abs() < 1e-9);
        // Bounded variant.
        let g2 = q(&m, "Pmin=? [ G<=2 !bad ]");
        assert!((g2 - 0.5).abs() < 1e-12, "g2 = {g2}");
    }

    #[test]
    fn bounded_and_interval_untils() {
        let m = gadget_mdp();
        assert_eq!(q(&m, "Pmax=? [ F<=1 goal ]"), 0.0);
        assert!((q(&m, "Pmax=? [ F<=2 goal ]") - 0.25).abs() < 1e-12);
        assert!((q(&m, "Pmax=? [ F<=4 goal ]") - 0.3125).abs() < 1e-12);
        // F[0,t] coincides with F<=t.
        for t in [0u64, 1, 2, 5] {
            let a = q(&m, &format!("Pmax=? [ F[0,{t}] goal ]"));
            let b = q(&m, &format!("Pmax=? [ F<={t} goal ]"));
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
        // Next: one optimal step.
        assert!((q(&m, "Pmax=? [ X bad ]") - 0.5).abs() < 1e-12);
        assert_eq!(q(&m, "Pmin=? [ X bad ]"), 0.0);
        // Until with a constraining lhs: forbidden middle state kills the
        // only path to goal.
        assert_eq!(q(&m, "Pmax=? [ (goal | bad) U goal ]"), 0.0);
    }

    #[test]
    fn reward_queries() {
        let m = gadget_mdp();
        // Instantaneous reward = P(in goal at exactly t) optimized; the
        // restart action lets the adversary pin it to 0.
        assert_eq!(q(&m, "Rmin=? [ I=5 ]"), 0.0);
        let rmax = q(&m, "Rmax=? [ I=4 ]");
        assert!((rmax - 0.3125).abs() < 1e-12, "rmax = {rmax}");
        // Cumulative: goal is absorbing with reward 1, so Rmax grows with
        // the horizon while Rmin stays 0.
        assert_eq!(q(&m, "Rmin=? [ C<=10 ]"), 0.0);
        assert!(q(&m, "Rmax=? [ C<=10 ]") > 1.0);
        // Reach rewards: reaching (goal|bad) is possible but not certain
        // under the worst scheduler (restart forever) → Rmax = ∞; the best
        // scheduler reaches it with certainty without collecting reward.
        assert_eq!(q(&m, "Rmax=? [ F (goal | bad) ]"), f64::INFINITY);
        assert_eq!(q(&m, "Rmin=? [ F (goal | bad) ]"), 0.0);
    }

    #[test]
    fn boolean_queries_work_and_ambiguous_forms_error() {
        let m = gadget_mdp();
        let r = check_mdp_query(&m, &parse_property("!goal").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true));
        let r = check_mdp_query(&m, &parse_property("goal | !bad").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true));
        for bad in ["P=? [ F goal ]", "R=? [ I=3 ]", "S=? [ goal ]"] {
            let e = check_mdp_query(&m, &parse_property(bad).unwrap()).unwrap_err();
            assert!(matches!(e, PctlError::Unsupported { .. }), "{bad}: {e}");
        }
        let e = check_mdp_query(&m, &parse_property("P>=0.5 [ F goal ]").unwrap()).unwrap_err();
        assert!(matches!(e, PctlError::Unsupported { .. }));
        let e = check_mdp_query(&m, &parse_property("Pmax=? [ F nope ]").unwrap()).unwrap_err();
        assert!(matches!(e, PctlError::Dtmc(_)));
    }

    #[test]
    fn certified_mdp_queries_bracket_and_report_solver() {
        use crate::check::{CheckOptions, Solver};
        let m = gadget_mdp();
        let opts = CheckOptions::certified(1e-9);
        let cases = [
            ("Pmax=? [ F goal ]", 1.0 / 3.0),
            ("Pmin=? [ F goal ]", 0.0),
            ("Pmax=? [ G !bad ]", 1.0),
            ("Pmin=? [ G !bad ]", 1.0 / 3.0),
            ("Rmin=? [ F (goal | bad) ]", 0.0),
        ];
        for (prop, want) in cases {
            let r = check_mdp_query_with(&m, &parse_property(prop).unwrap(), &opts).unwrap();
            assert_eq!(r.solver(), Solver::IntervalIteration, "{prop}");
            let (lo, hi) = r.interval().unwrap();
            assert!(hi - lo < 1e-9, "{prop}: width {}", hi - lo);
            assert!(
                lo <= want + 1e-12 && want <= hi + 1e-12,
                "{prop}: [{lo}, {hi}] vs {want}"
            );
        }
        // Rmax [F goal|bad]: the adversary can restart forever → ∞.
        let r = check_mdp_query_with(
            &m,
            &parse_property("Rmax=? [ F (goal | bad) ]").unwrap(),
            &opts,
        )
        .unwrap();
        assert_eq!(r.interval(), Some((f64::INFINITY, f64::INFINITY)));
        // Bounded forms stay exact arithmetic with a degenerate interval.
        let r = check_mdp_query_with(&m, &parse_property("Pmax=? [ F<=4 goal ]").unwrap(), &opts)
            .unwrap();
        assert_eq!(r.solver(), Solver::Transient);
        assert_eq!(r.interval(), Some((r.value(), r.value())));
        // Uncertified unbounded queries claim no bound.
        let r = check_mdp_query(&m, &parse_property("Pmax=? [ F goal ]").unwrap()).unwrap();
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
    }

    #[test]
    fn topological_certified_mdp_matches_and_tags() {
        use crate::check::{CheckOptions, Solver};
        // Both modes walk the same condensation: the certified midpoint
        // matches the default walk's value (∞ pinned alike).
        let m = gadget_mdp();
        let certified = CheckOptions::certified(1e-9);
        for prop in [
            "Pmax=? [ F goal ]",
            "Pmin=? [ F goal ]",
            "Pmax=? [ G !bad ]",
            "Pmin=? [ G !bad ]",
            "Rmin=? [ F (goal | bad) ]",
            "Rmax=? [ F (goal | bad) ]", // ∞ pinning must agree too
        ] {
            let p = parse_property(prop).unwrap();
            let plain = check_mdp_query(&m, &p).unwrap();
            let c = check_mdp_query_with(&m, &p, &certified).unwrap();
            assert_eq!(plain.solver(), Solver::Iterative, "{prop}");
            assert_eq!(c.solver(), Solver::IntervalIteration, "{prop}");
            let (lo, hi) = c.interval().unwrap();
            if c.value().is_finite() {
                assert!(hi - lo < 1e-9, "{prop}");
                assert!((c.value() - plain.value()).abs() < 1e-9, "{prop}");
            } else {
                assert_eq!((lo, hi), (f64::INFINITY, f64::INFINITY), "{prop}");
                assert_eq!(c.value(), plain.value(), "{prop}");
            }
        }
    }

    /// A one-action MDP from explicit rows, starting in state 0, with a
    /// "goal" label and per-state rewards.
    fn one_action(rows: &[&[(u32, f64)]], goal: usize, rewards: Vec<f64>) -> Mdp {
        let mut b = MdpBuilder::default();
        for row in rows {
            b.push_action(&mut row.to_vec()).unwrap();
            b.finish_state().unwrap();
        }
        let n = rows.len();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(n, |i| i == goal));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, rewards).unwrap()
    }

    #[test]
    fn reward_region_comes_from_the_graph() {
        // The DTMC checker's near-certain chain as a one-action MDP: the
        // 1e-10 escape to a dead end makes both optima infinite.
        let m = one_action(
            &[&[(1, 0.9999999999), (2, 1e-10)], &[(1, 1.0)], &[(2, 1.0)]],
            1,
            vec![1.0, 0.0, 0.0],
        );
        assert_eq!(q(&m, "Rmin=? [ F goal ]"), f64::INFINITY);
        assert_eq!(q(&m, "Rmax=? [ F goal ]"), f64::INFINITY);
    }

    #[test]
    fn sticky_self_loop_is_solved_in_closed_form() {
        let m = one_action(
            &[&[(0, 0.9999999999999), (1, 1e-13)], &[(1, 1.0)]],
            1,
            vec![1.0, 0.0],
        );
        for prop in ["Pmin=? [ F goal ]", "Pmax=? [ F goal ]"] {
            let p = q(&m, prop);
            assert!((p - 1.0).abs() < 1e-9, "{prop} = {p}");
        }
        for prop in ["Rmin=? [ F goal ]", "Rmax=? [ F goal ]"] {
            let r = q(&m, prop);
            assert!((r / 1e13 - 1.0).abs() < 1e-9, "{prop} = {r}");
        }
    }

    #[test]
    fn min_max_bracket_every_memoryless_scheduler() {
        let m = gadget_mdp();
        let goal = m.label("goal").unwrap().clone();
        let pmin = q(&m, "Pmin=? [ F goal ]");
        let pmax = q(&m, "Pmax=? [ F goal ]");
        // Enumerate both memoryless schedulers of state 0 (other states
        // have one action); their DTMC values must lie in [pmin, pmax],
        // with the extremes attained.
        let mut vals = Vec::new();
        for a0 in 0..2u32 {
            let d = m.induced_dtmc(&[a0, 0, 0, 0]).unwrap();
            let cond = smg_dtmc::graph::Condensation::new(&d);
            let v = smg_dtmc::solve::topo_reach_values(&d, &cond, &goal, 1e-12, 1_000_000).unwrap();
            let p: f64 = d.initial().iter().map(|&(s, w)| w * v[s as usize]).sum();
            vals.push(p);
            assert!(p >= pmin - 1e-9 && p <= pmax + 1e-9, "a0={a0}: {p}");
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0, f64::max);
        assert!((lo - pmin).abs() < 1e-9 && (hi - pmax).abs() < 1e-9);
    }
}
