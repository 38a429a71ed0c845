//! The pCTL model checker.
//!
//! Two evaluation styles are provided, mirroring how PRISM separates
//! satisfaction sets from numerical queries:
//!
//! * [`sat_states`] computes, for any state formula, the set of satisfying
//!   states (bounded `P⋈p` operators are resolved by backward value
//!   iteration so the operator can be nested).
//! * [`check_query`] evaluates a top-level [`Property`] against the chain's
//!   initial distribution. For `P=? [...]` it uses the *forward* transient
//!   engine (one pass, no per-state vectors), which is how the paper's
//!   single-initial-state experiments are computed.
//!
//! The two styles agree; `forward_backward_agree` in the tests pins this.
//!
//! Internally every algorithm is a method on an evaluator (`Evaluator`):
//! the public free functions run an *uncached* evaluator, while a
//! [`crate::session::CheckSession`] runs a *cached* one whose cache
//! (`DtmcCache`) memoizes satisfaction sets and the expensive iterative
//! solves across a whole property family. Both run the identical code
//! path, so the cache can never change an answer — only skip recomputing
//! it.

use crate::ast::{PathFormula, Property, RewardQuery, StateFormula, TimeBound};
use crate::error::PctlError;
use crate::session::{CacheKind, CacheStats};
use smg_dtmc::graph::Condensation;
use smg_dtmc::{solve, transient, BitVec, Dtmc};
use smg_obs as obs;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Residual tolerance of the default unbounded solvers (per SCC).
const UNBOUNDED_TOL: f64 = 1e-12;
/// Iteration budget for unbounded queries (per SCC).
const UNBOUNDED_MAX_ITER: usize = 1_000_000;
/// Iteration budget for certified interval iteration (dual sweeps close a
/// width, not a residual, so slow-mixing models legitimately need more
/// sweeps than the heuristic test would have taken). Shared with the MDP
/// checker.
pub(crate) const CERTIFIED_MAX_ITER: usize = 50_000_000;
/// Tolerance for steady-state detection.
const STEADY_TOL: f64 = 1e-13;
/// Step budget for steady-state detection.
const STEADY_MAX_STEPS: usize = 1_000_000;

/// Options shared by [`check_query_with`] and
/// [`crate::mdp::check_mdp_query_with`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CheckOptions {
    /// When set, unbounded reachability/until/globally probabilities and
    /// reachability rewards are solved by **certified interval iteration**
    /// with this ε: the result carries a sound `[lo, hi]` bracket of width
    /// below ε ([`CheckResult::interval`]) instead of trusting a residual
    /// test. Like the default mode, the solve walks the SCC condensation
    /// one component at a time in reverse topological order, with
    /// already-certified successor bounds folded in as constants
    /// ([`solve::topo_interval_reach_values`] and friends on chains,
    /// `smg_mdp::vi::topo_certified_*` on MDPs). Finite-horizon queries are
    /// exact arithmetic either way and report the degenerate `[v, v]`;
    /// steady-state detection is not certified and reports no interval.
    /// Formulas nesting an *unbounded* `P⋈p` operator are rejected in this
    /// mode — their satisfaction sets could only come from residual
    /// iteration, which would silently void the certificate.
    pub certify: Option<f64>,
}

impl CheckOptions {
    /// Options requesting a certified interval of width below `epsilon`.
    pub fn certified(epsilon: f64) -> CheckOptions {
        CheckOptions {
            certify: Some(epsilon),
        }
    }
}

/// The numerical engine that produced a [`CheckResult`] — reported so a
/// user can tell a certified answer from a heuristically converged one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solver {
    /// Exact finite-horizon arithmetic (forward transient propagation or
    /// bounded backward iteration) — no convergence test involved.
    Transient,
    /// Unbounded iteration stopped on a heuristic residual test
    /// (`delta < tol`), which bounds nothing: topological value iteration
    /// over the SCC condensation (trivial components in closed form,
    /// the rest until a component-local residual passes), and for
    /// long-run queries damped power iteration inside bottom SCCs.
    Iterative,
    /// Certified interval iteration: dual bounds with a qualitative
    /// pre-pass, run over the SCC condensation (trivial components by
    /// closed-form backsubstitution, the rest until a component-local
    /// `upper − lower < ε` test passes), so every state's bracket is
    /// narrower than ε. The tag names the guarantee, not the walk: the
    /// uncertified [`Iterative`](Solver::Iterative) mode walks the same
    /// condensation.
    IntervalIteration,
}

impl Solver {
    /// The stable tag used in JSON output and metric labels (also the
    /// `Display` text).
    pub fn as_str(self) -> &'static str {
        match self {
            Solver::Transient => "transient",
            Solver::Iterative => "value-iteration",
            Solver::IntervalIteration => "interval-iteration",
        }
    }
}

impl std::fmt::Display for Solver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A query engine's verdict: the point value, the engine that produced
/// it, and the value bracket where one exists (shared between the DTMC
/// and MDP checkers).
pub(crate) type EngineValue = (f64, Solver, Option<(f64, f64)>);

/// The outcome of checking a property, together with the wall-clock time
/// spent (the paper's tables report "time (seconds), accounting for both
/// model construction and model checking"; model-construction time is
/// reported separately by [`smg_dtmc::BuildStats`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckResult {
    value: f64,
    boolean: Option<bool>,
    interval: Option<(f64, f64)>,
    solver: Solver,
    /// Time spent checking.
    pub time: Duration,
}

impl CheckResult {
    /// Assembles a result (shared with the MDP checker in [`crate::mdp`]).
    pub(crate) fn assemble(value: f64, boolean: Option<bool>, time: Duration) -> CheckResult {
        CheckResult {
            value,
            boolean,
            interval: None,
            solver: Solver::Transient,
            time,
        }
    }

    /// Attaches the engine report (shared with the MDP checker).
    pub(crate) fn with_engine(
        mut self,
        solver: Solver,
        interval: Option<(f64, f64)>,
    ) -> CheckResult {
        self.solver = solver;
        self.interval = interval;
        self
    }

    /// The numeric value of the query (for boolean queries, 1.0 or 0.0;
    /// for certified queries, the interval midpoint).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The boolean verdict, if the query was boolean.
    pub fn verdict(&self) -> Option<bool> {
        self.boolean
    }

    /// The sound `[lo, hi]` bracket of the value, when one was computed:
    /// a certificate for certified runs, the degenerate `[v, v]` for exact
    /// finite-horizon arithmetic, `None` where no bound is claimed
    /// (residual-converged iteration, steady-state detection, booleans).
    pub fn interval(&self) -> Option<(f64, f64)> {
        self.interval
    }

    /// Which numerical engine produced the value.
    pub fn solver(&self) -> Solver {
        self.solver
    }
}

/// Evaluates a top-level property against the DTMC's initial distribution
/// with default options (unbounded queries solved topologically on the
/// SCC condensation, residual-tested per component).
///
/// # Errors
///
/// * [`PctlError::Dtmc`] for unknown labels or non-convergence.
///
/// # Example
///
/// See the crate-level example.
pub fn check_query(dtmc: &Dtmc, property: &Property) -> Result<CheckResult, PctlError> {
    check_query_with(dtmc, property, &CheckOptions::default())
}

/// Evaluates a top-level property against the DTMC's initial distribution.
/// With [`CheckOptions::certified`], unbounded probability and
/// reachability-reward queries run certified interval iteration and the
/// result carries a sound `[lo, hi]` bracket
/// ([`CheckResult::interval`]).
///
/// To check a *family* of properties against one chain, prefer a
/// [`crate::session::CheckSession`], which runs this exact code path with
/// a precomputation cache shared across the batch.
///
/// # Errors
///
/// As for [`check_query`].
pub fn check_query_with(
    dtmc: &Dtmc,
    property: &Property,
    opts: &CheckOptions,
) -> Result<CheckResult, PctlError> {
    Evaluator::uncached(dtmc).check_query_with(property, opts)
}

/// Memoized precomputation shared by every query of a
/// [`crate::session::CheckSession`] over one immutable chain.
///
/// Cache keys are chosen so a hit can only return exactly what
/// recomputation would have produced: satisfaction sets are keyed by a
/// collision-free formula serialization ([`sat_key`] — *not* `Display`,
/// which is readable but not injective over arbitrary label names),
/// numeric solves by the **exact operand bit-sets** (plus the
/// certification width's bit pattern where one applies), and every solver
/// is deterministic. The chain itself is owned by the session and
/// immutable, so entries never need invalidation.
#[derive(Debug, Default)]
pub(crate) struct DtmcCache {
    /// Satisfaction sets, one entry per distinct (sub)formula
    /// ([`sat_key`]-keyed).
    sat: HashMap<String, BitVec>,
    /// The chain's SCC condensation, built on the first unbounded query
    /// and handed to every topological solve after it. Query-independent,
    /// so one per session; sessions that only run bounded queries never
    /// build it.
    cond: OnceCell<Arc<Condensation>>,
    /// Unbounded reachability value vectors keyed by the target set
    /// (shared by `F φ`, `G ¬φ` and nested `P⋈p [F φ]` operators).
    reach: HashMap<BitVec, Arc<Vec<f64>>>,
    /// Unbounded until value vectors keyed by `(lhs, rhs)`.
    until: HashMap<(BitVec, BitVec), Arc<Vec<f64>>>,
    /// Reachability-reward value vectors keyed by the target set.
    reach_reward: HashMap<BitVec, Arc<Vec<f64>>>,
    /// Certified reachability brackets keyed by `(target, ε bits)`.
    cert_reach: HashMap<(BitVec, u64), Arc<solve::CertifiedValues>>,
    /// Certified until brackets keyed by `(lhs, rhs, ε bits)`.
    cert_until: HashMap<(BitVec, BitVec, u64), Arc<solve::CertifiedValues>>,
    /// Certified reachability-reward brackets, keyed as [`Self::cert_reach`].
    cert_reach_reward: HashMap<(BitVec, u64), Arc<solve::CertifiedValues>>,
    /// Long-run probabilities (from the initial distribution) keyed by
    /// the satisfaction set.
    steady: HashMap<BitVec, f64>,
    /// Hit/miss telemetry, per cache kind.
    pub(crate) stats: CacheStats,
}

/// The DTMC query engine: every checking algorithm as a method over a
/// chain plus an optional session cache. The public free functions run an
/// uncached evaluator; [`crate::session::CheckSession`] runs a cached one.
pub(crate) struct Evaluator<'a> {
    dtmc: &'a Dtmc,
    cache: Option<&'a RefCell<DtmcCache>>,
    /// An uncached evaluator's own condensation (one per free-function
    /// call), built on its first unbounded solve.
    cond: OnceCell<Arc<Condensation>>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator that recomputes everything (the free-function path).
    pub(crate) fn uncached(dtmc: &'a Dtmc) -> Self {
        Evaluator {
            dtmc,
            cache: None,
            cond: OnceCell::new(),
        }
    }

    /// An evaluator sharing a session's cache.
    pub(crate) fn cached(dtmc: &'a Dtmc, cache: &'a RefCell<DtmcCache>) -> Self {
        Evaluator {
            dtmc,
            cache: Some(cache),
            cond: OnceCell::new(),
        }
    }

    /// The chain's SCC condensation: the session's single copy in cached
    /// mode, this evaluator's own otherwise — built on first use either
    /// way.
    fn condensation(&self) -> Arc<Condensation> {
        let build = || Arc::new(Condensation::new(self.dtmc));
        match self.cache {
            Some(cell) => cell.borrow().cond.get_or_init(build).clone(),
            None => self.cond.get_or_init(build).clone(),
        }
    }

    /// Memoizes one computation: in uncached mode this is a plain call; in
    /// cached mode a hit returns the stored value (which, keys being exact
    /// inputs and solvers deterministic, equals what `compute` would
    /// return) and a miss computes then stores. The borrow is never held
    /// across `compute`, which may recursively re-enter the cache for
    /// nested formulas.
    fn memo<V: Clone>(
        &self,
        kind: CacheKind,
        lookup: impl Fn(&DtmcCache) -> Option<V>,
        store: impl FnOnce(&mut DtmcCache, V),
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

    /// See [`check_query_with`].
    pub(crate) fn check_query_with(
        &self,
        property: &Property,
        opts: &CheckOptions,
    ) -> Result<CheckResult, PctlError> {
        let start = Instant::now();
        let (value, boolean, solver, interval) = match property {
            // On a DTMC there is no nondeterminism to optimize over: every
            // scheduler sees the same chain, so Pmin = Pmax = P and
            // Rmin = Rmax = R. Accepting the min/max forms here lets
            // property files be shared between a design's DTMC and MDP
            // variants (and lets tests pin the MDP checker against this
            // one on single-action models).
            Property::ProbQuery(path) | Property::OptProbQuery(_, path) => {
                let (v, solver, interval) = self.path_prob_query(path, opts)?;
                (v, None, solver, interval)
            }
            Property::Bool(f) => {
                // A certified run must not return a verdict that hinges on
                // residual-converged iteration (e.g. `P>=0.5 [ F goal ]`).
                if opts.certify.is_some() {
                    certify_operands(&[f])?;
                }
                let sat = self.sat_states(f)?;
                // A chain satisfies a state formula iff all initial states
                // with positive mass satisfy it.
                let ok = self
                    .dtmc
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
            Property::RewardQuery(q) | Property::OptRewardQuery(_, q) => {
                let (v, solver, interval) = self.reward_query(q, opts)?;
                (v, None, solver, interval)
            }
            Property::SteadyQuery(f) => {
                let sat = self.sat_states(f)?;
                (self.steady_prob(&sat)?, None, Solver::Iterative, None)
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

    /// Evaluates a probability path query from the initial distribution,
    /// reporting which engine ran and the value bracket where one exists.
    fn path_prob_query(
        &self,
        path: &PathFormula,
        opts: &CheckOptions,
    ) -> Result<EngineValue, PctlError> {
        if opts.certify.is_some() {
            // Guard every operand formula, whatever the outer bound: a
            // bounded outer query is exact arithmetic only if its
            // satisfaction sets are, too.
            match path {
                PathFormula::Next(f) => certify_operands(&[f])?,
                PathFormula::Until { lhs, rhs, .. } => certify_operands(&[lhs, rhs])?,
                PathFormula::Finally { inner, .. } | PathFormula::Globally { inner, .. } => {
                    certify_operands(&[inner])?
                }
            }
        }
        if let Some(eps) = opts.certify {
            match path {
                PathFormula::Until {
                    lhs,
                    rhs,
                    bound: TimeBound::None,
                } => {
                    let l = self.sat_states(lhs)?;
                    let r = self.sat_states(rhs)?;
                    let cert = self.cert_until(&l, &r, eps)?;
                    return Ok(fold_certificate(self.dtmc.initial(), &cert, false));
                }
                PathFormula::Finally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    let f = self.sat_states(inner)?;
                    let cert = self.cert_reach(&f, eps)?;
                    return Ok(fold_certificate(self.dtmc.initial(), &cert, false));
                }
                PathFormula::Globally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    // G φ = ¬F ¬φ; the bracket complements with its ends
                    // swapped.
                    let bad = self.sat_states(inner)?.not();
                    let cert = self.cert_reach(&bad, eps)?;
                    return Ok(fold_certificate(self.dtmc.initial(), &cert, true));
                }
                _ => {} // finite-horizon forms are exact arithmetic below
            }
        }
        let v = self.path_prob_from_initial(path)?;
        if is_unbounded_path(path) {
            Ok((v, Solver::Iterative, None))
        } else {
            Ok((v, Solver::Transient, Some((v, v))))
        }
    }

    /// See [`path_prob_from_initial`].
    pub(crate) fn path_prob_from_initial(&self, path: &PathFormula) -> Result<f64, PctlError> {
        let dtmc = self.dtmc;
        match path {
            PathFormula::Next(f) => {
                let sat = self.sat_states(f)?;
                let pi1 = transient::distribution_at(dtmc, 1);
                Ok(sat.iter_ones().map(|i| pi1[i]).sum())
            }
            PathFormula::Until { lhs, rhs, bound } => {
                let l = self.sat_states(lhs)?;
                let r = self.sat_states(rhs)?;
                match bound {
                    TimeBound::Upper(t) => {
                        Ok(transient::bounded_until_prob(dtmc, &l, &r, *t as usize)?)
                    }
                    TimeBound::Interval(a, b) => {
                        let vals = interval_until_values(dtmc, &l, &r, *a, *b)?;
                        Ok(initial_expectation(dtmc, &vals))
                    }
                    TimeBound::None => {
                        let vals = self.unbounded_until(&l, &r)?;
                        Ok(initial_expectation(dtmc, &vals))
                    }
                }
            }
            PathFormula::Finally { inner, bound } => {
                let f = self.sat_states(inner)?;
                match bound {
                    TimeBound::Upper(t) => {
                        Ok(transient::bounded_reach_prob(dtmc, &f, *t as usize)?)
                    }
                    TimeBound::Interval(a, b) => {
                        let all = BitVec::ones(dtmc.n_states());
                        let vals = interval_until_values(dtmc, &all, &f, *a, *b)?;
                        Ok(initial_expectation(dtmc, &vals))
                    }
                    TimeBound::None => {
                        let vals = self.unbounded_reach(&f)?;
                        Ok(initial_expectation(dtmc, &vals))
                    }
                }
            }
            PathFormula::Globally { inner, bound } => {
                let f = self.sat_states(inner)?;
                match bound {
                    TimeBound::Upper(t) => {
                        Ok(transient::bounded_globally_prob(dtmc, &f, *t as usize)?)
                    }
                    TimeBound::Interval(a, b) => {
                        // G[a,b] φ = ¬ F[a,b] ¬φ.
                        let all = BitVec::ones(dtmc.n_states());
                        let vals = interval_until_values(dtmc, &all, &f.not(), *a, *b)?;
                        Ok(1.0 - initial_expectation(dtmc, &vals))
                    }
                    TimeBound::None => {
                        // G φ = ¬F ¬φ.
                        let bad = f.not();
                        let vals = self.unbounded_reach(&bad)?;
                        Ok(1.0 - initial_expectation(dtmc, &vals))
                    }
                }
            }
        }
    }

    /// See [`sat_states`]. Every node of the formula is memoized (keyed
    /// by [`sat_key`]), so subformulas shared across a session's property
    /// family resolve once.
    pub(crate) fn sat_states(&self, formula: &StateFormula) -> Result<BitVec, PctlError> {
        self.memo(
            CacheKind::Sat,
            |c| c.sat.get(&sat_key(formula)).cloned(),
            |c, v| {
                c.sat.insert(sat_key(formula), v);
            },
            |ev| ev.sat_states_raw(formula),
        )
    }

    fn sat_states_raw(&self, formula: &StateFormula) -> Result<BitVec, PctlError> {
        let n = self.dtmc.n_states();
        match formula {
            StateFormula::True => Ok(BitVec::ones(n)),
            StateFormula::False => Ok(BitVec::zeros(n)),
            StateFormula::Ap(name) => Ok(self.dtmc.label(name)?.clone()),
            StateFormula::Not(f) => Ok(self.sat_states(f)?.not()),
            StateFormula::And(a, b) => Ok(self.sat_states(a)?.and(&self.sat_states(b)?)),
            StateFormula::Or(a, b) => Ok(self.sat_states(a)?.or(&self.sat_states(b)?)),
            StateFormula::Implies(a, b) => Ok(self.sat_states(a)?.not().or(&self.sat_states(b)?)),
            StateFormula::Prob {
                cmp,
                threshold,
                path,
            } => {
                let vals = self.path_values(path)?;
                Ok(BitVec::from_fn(n, |i| cmp.eval(vals[i], *threshold)))
            }
        }
    }

    /// See [`path_values`].
    pub(crate) fn path_values(&self, path: &PathFormula) -> Result<Vec<f64>, PctlError> {
        let dtmc = self.dtmc;
        let n = dtmc.n_states();
        match path {
            PathFormula::Next(f) => {
                let sat = self.sat_states(f)?;
                let x: Vec<f64> = (0..n).map(|i| if sat.get(i) { 1.0 } else { 0.0 }).collect();
                Ok(dtmc.matrix().backward(&x))
            }
            PathFormula::Until { lhs, rhs, bound } => {
                let l = self.sat_states(lhs)?;
                let r = self.sat_states(rhs)?;
                match bound {
                    TimeBound::Upper(t) => {
                        Ok(transient::bounded_until_values(dtmc, &l, &r, *t as usize)?)
                    }
                    TimeBound::Interval(a, b) => interval_until_values(dtmc, &l, &r, *a, *b),
                    TimeBound::None => self.unbounded_until(&l, &r).map(arc_to_vec),
                }
            }
            PathFormula::Finally { inner, bound } => {
                let f = self.sat_states(inner)?;
                let all = BitVec::ones(n);
                match bound {
                    TimeBound::Upper(t) => Ok(transient::bounded_until_values(
                        dtmc,
                        &all,
                        &f,
                        *t as usize,
                    )?),
                    TimeBound::Interval(a, b) => interval_until_values(dtmc, &all, &f, *a, *b),
                    TimeBound::None => self.unbounded_reach(&f).map(arc_to_vec),
                }
            }
            PathFormula::Globally { inner, bound } => {
                // G φ = ¬F ¬φ (also for the bounded cases).
                let f = self.sat_states(inner)?;
                let bad = f.not();
                let all = BitVec::ones(n);
                let reach = match bound {
                    TimeBound::Upper(t) => {
                        transient::bounded_until_values(dtmc, &all, &bad, *t as usize)?
                    }
                    TimeBound::Interval(a, b) => interval_until_values(dtmc, &all, &bad, *a, *b)?,
                    TimeBound::None => arc_to_vec(self.unbounded_reach(&bad)?),
                };
                Ok(reach.into_iter().map(|p| 1.0 - p).collect())
            }
        }
    }

    /// Per-state unbounded reachability probabilities of the target set,
    /// memoized on the exact set. Shared by `F φ`, `G φ` (via the
    /// complement set) and the reachability-reward pre-pass.
    fn unbounded_reach(&self, target: &BitVec) -> Result<Arc<Vec<f64>>, PctlError> {
        self.memo(
            CacheKind::Values,
            |c| c.reach.get(target).cloned(),
            |c, v| {
                c.reach.insert(target.clone(), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_reach_values(
                    ev.dtmc,
                    &ev.condensation(),
                    target,
                    UNBOUNDED_TOL,
                    UNBOUNDED_MAX_ITER,
                )?))
            },
        )
    }

    /// Per-state unbounded until probabilities, memoized on the operand
    /// sets.
    fn unbounded_until(&self, lhs: &BitVec, rhs: &BitVec) -> Result<Arc<Vec<f64>>, PctlError> {
        self.memo(
            CacheKind::Values,
            |c| c.until.get(&(lhs.clone(), rhs.clone())).cloned(),
            |c, v| {
                c.until.insert((lhs.clone(), rhs.clone()), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_until_values(
                    ev.dtmc,
                    &ev.condensation(),
                    lhs,
                    rhs,
                    UNBOUNDED_TOL,
                    UNBOUNDED_MAX_ITER,
                )?))
            },
        )
    }

    fn reward_query(&self, q: &RewardQuery, opts: &CheckOptions) -> Result<EngineValue, PctlError> {
        let dtmc = self.dtmc;
        match q {
            RewardQuery::Instantaneous(t) => {
                let v = transient::instantaneous_reward(dtmc, *t as usize);
                Ok((v, Solver::Transient, Some((v, v))))
            }
            RewardQuery::Cumulative(t) => {
                // Σ_{k=0}^{t-1} expected reward at step k (reward of the
                // state occupied at each of the first t steps).
                let v =
                    transient::instantaneous_reward_series(dtmc, (*t as usize).saturating_sub(1))
                        .iter()
                        .sum();
                Ok((v, Solver::Transient, Some((v, v))))
            }
            RewardQuery::Reach(phi) => {
                if opts.certify.is_some() {
                    certify_operands(&[phi])?;
                }
                let target = self.sat_states(phi)?;
                if let Some(eps) = opts.certify {
                    let cert = self.cert_reach_reward(&target, eps)?;
                    return Ok(fold_certificate(dtmc.initial(), &cert, false));
                }
                let vals = self.reach_reward_values(&target)?;
                // Skip zero-mass initial states so `0 × ∞` cannot poison
                // the expectation with NaN.
                let v = dtmc
                    .initial()
                    .iter()
                    .filter(|&&(_, p)| p > 0.0)
                    .map(|&(s, p)| p * vals[s as usize])
                    .sum();
                Ok((v, Solver::Iterative, None))
            }
        }
    }

    /// See [`reach_reward_values`]; memoized on the target set.
    pub(crate) fn reach_reward_values(&self, target: &BitVec) -> Result<Arc<Vec<f64>>, PctlError> {
        self.memo(
            CacheKind::Values,
            |c| c.reach_reward.get(target).cloned(),
            |c, v| {
                c.reach_reward.insert(target.clone(), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_reach_reward_values(
                    ev.dtmc,
                    &ev.condensation(),
                    target,
                    UNBOUNDED_TOL,
                    UNBOUNDED_MAX_ITER,
                )?))
            },
        )
    }

    /// Certified unbounded reachability on the condensation, memoized on
    /// `(target, ε)`.
    fn cert_reach(
        &self,
        target: &BitVec,
        eps: f64,
    ) -> Result<Arc<solve::CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| c.cert_reach.get(&(target.clone(), eps.to_bits())).cloned(),
            |c, v| {
                c.cert_reach.insert((target.clone(), eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_interval_reach_values(
                    ev.dtmc,
                    &ev.condensation(),
                    target,
                    eps,
                    CERTIFIED_MAX_ITER,
                )?))
            },
        )
    }

    /// Certified unbounded until on the condensation, memoized on
    /// `(lhs, rhs, ε)`.
    fn cert_until(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        eps: f64,
    ) -> Result<Arc<solve::CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| {
                c.cert_until
                    .get(&(lhs.clone(), rhs.clone(), eps.to_bits()))
                    .cloned()
            },
            |c, v| {
                c.cert_until
                    .insert((lhs.clone(), rhs.clone(), eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_interval_until_values(
                    ev.dtmc,
                    &ev.condensation(),
                    lhs,
                    rhs,
                    eps,
                    CERTIFIED_MAX_ITER,
                )?))
            },
        )
    }

    /// Certified reachability reward on the condensation, memoized on
    /// `(target, ε)`.
    fn cert_reach_reward(
        &self,
        target: &BitVec,
        eps: f64,
    ) -> Result<Arc<solve::CertifiedValues>, PctlError> {
        self.memo(
            CacheKind::Certified,
            |c| {
                c.cert_reach_reward
                    .get(&(target.clone(), eps.to_bits()))
                    .cloned()
            },
            |c, v| {
                c.cert_reach_reward
                    .insert((target.clone(), eps.to_bits()), v);
            },
            |ev| {
                Ok(Arc::new(solve::topo_interval_reach_reward_values(
                    ev.dtmc,
                    &ev.condensation(),
                    target,
                    eps,
                    CERTIFIED_MAX_ITER,
                )?))
            },
        )
    }

    /// The long-run probability of being in a `sat`-state (the Cesàro
    /// limit, which exists for periodic chains too), memoized on the set:
    /// `Σ_B P(◇B)·π_B(sat)` over the bottom SCCs of the session's
    /// condensation ([`solve::steady_state_prob`]).
    fn steady_prob(&self, sat: &BitVec) -> Result<f64, PctlError> {
        self.memo(
            CacheKind::Steady,
            |c| c.steady.get(sat).copied(),
            |c, v| {
                c.steady.insert(sat.clone(), v);
            },
            |ev| ev.steady_prob_raw(sat),
        )
    }

    fn steady_prob_raw(&self, sat: &BitVec) -> Result<f64, PctlError> {
        Ok(solve::steady_state_prob(
            self.dtmc,
            &self.condensation(),
            sat,
            STEADY_TOL,
            STEADY_MAX_STEPS,
        )?)
    }
}

/// Unwraps a cache handle into an owned vector. Uncached evaluators hold
/// the only reference, so this is free; in a cached session the cache
/// retains its `Arc` and the vector is copied — but callers reach this
/// only through [`Evaluator::sat_states`]' memoization, so the copy
/// happens at most once per *distinct* formula per session, which is
/// noise next to the iterative solve it fronts.
fn arc_to_vec(rc: Arc<Vec<f64>>) -> Vec<f64> {
    Arc::try_unwrap(rc).unwrap_or_else(|rc| (*rc).clone())
}

/// A collision-free serialization of a state formula, used as the
/// satisfaction-set cache key (shared with the MDP evaluator).
///
/// `Display` would be the obvious key but is **not injective**: label
/// names are arbitrary strings (`Dtmc::new` accepts any map key and
/// [`StateFormula::ap`] any name), so `Not(Ap("x"))` and `Ap("!x")` both
/// render as `!x` and would alias one cache slot. Here every operator
/// carries a distinct tag with explicit delimiters, atom names are quoted
/// with `\`-escaping, and probability thresholds are serialized by bit
/// pattern (two textual spellings of one float cannot diverge, and two
/// different floats cannot collide).
pub(crate) fn sat_key(formula: &StateFormula) -> String {
    use std::fmt::Write as _;

    fn push_state(f: &StateFormula, out: &mut String) {
        match f {
            StateFormula::True => out.push('T'),
            StateFormula::False => out.push('F'),
            StateFormula::Ap(name) => {
                out.push_str("a\"");
                for c in name.chars() {
                    if c == '"' || c == '\\' {
                        out.push('\\');
                    }
                    out.push(c);
                }
                out.push('"');
            }
            StateFormula::Not(x) => {
                out.push_str("!(");
                push_state(x, out);
                out.push(')');
            }
            StateFormula::And(a, b) => push_binary("&", a, b, out),
            StateFormula::Or(a, b) => push_binary("|", a, b, out),
            StateFormula::Implies(a, b) => push_binary("=>", a, b, out),
            StateFormula::Prob {
                cmp,
                threshold,
                path,
            } => {
                let _ = write!(out, "P{cmp:?}#{:016x}[", threshold.to_bits());
                push_path(path, out);
                out.push(']');
            }
        }
    }

    fn push_binary(tag: &str, a: &StateFormula, b: &StateFormula, out: &mut String) {
        out.push_str(tag);
        out.push('(');
        push_state(a, out);
        out.push(',');
        push_state(b, out);
        out.push(')');
    }

    fn push_path(p: &PathFormula, out: &mut String) {
        match p {
            PathFormula::Next(f) => {
                out.push_str("X(");
                push_state(f, out);
                out.push(')');
            }
            PathFormula::Until { lhs, rhs, bound } => {
                out.push('U');
                push_bound(bound, out);
                out.push('(');
                push_state(lhs, out);
                out.push(',');
                push_state(rhs, out);
                out.push(')');
            }
            PathFormula::Finally { inner, bound } => {
                out.push('F');
                push_bound(bound, out);
                out.push('(');
                push_state(inner, out);
                out.push(')');
            }
            PathFormula::Globally { inner, bound } => {
                out.push('G');
                push_bound(bound, out);
                out.push('(');
                push_state(inner, out);
                out.push(')');
            }
        }
    }

    fn push_bound(b: &TimeBound, out: &mut String) {
        let _ = match b {
            TimeBound::None => write!(out, "<*>"),
            TimeBound::Upper(t) => write!(out, "<={t}>"),
            TimeBound::Interval(a, b) => write!(out, "<{a},{b}>"),
        };
    }

    let mut out = String::new();
    push_state(formula, &mut out);
    out
}

/// Folds a per-state certificate over an initial distribution (shared by
/// the DTMC and MDP checkers): both bounds fold linearly (the expectation
/// of a bracketed value stays inside the folded bracket), zero-mass states
/// are skipped so `0 × ∞` cannot poison reward expectations, and the
/// reported point value is the interval midpoint. `complement` maps a
/// bracket of `F ¬φ` to one of `G φ`, swapping the ends.
pub(crate) fn fold_certificate(
    initial: &[(smg_dtmc::StateId, f64)],
    cert: &solve::CertifiedValues,
    complement: bool,
) -> EngineValue {
    let fold = |vals: &[f64]| -> f64 {
        initial
            .iter()
            .filter(|&&(_, p)| p > 0.0)
            .map(|&(s, p)| p * vals[s as usize])
            .sum()
    };
    let (mut lo, mut hi) = (fold(&cert.lo), fold(&cert.hi));
    if complement {
        (lo, hi) = (1.0 - hi, 1.0 - lo);
    }
    let mid = if lo == hi { lo } else { 0.5 * (lo + hi) };
    (mid, Solver::IntervalIteration, Some((lo, hi)))
}

/// Whether a path formula is an unbounded until-family operator — the
/// forms that need an iterative (residual or certified) solver. Everything
/// else is exact finite-horizon arithmetic.
pub(crate) fn is_unbounded_path(path: &PathFormula) -> bool {
    matches!(
        path,
        PathFormula::Until {
            bound: TimeBound::None,
            ..
        } | PathFormula::Finally {
            bound: TimeBound::None,
            ..
        } | PathFormula::Globally {
            bound: TimeBound::None,
            ..
        }
    )
}

/// Whether a state formula nests a `P⋈p [...]` operator over an
/// *unbounded* path formula. Such a satisfaction set can only be computed
/// by residual-test value iteration, so a certified run must reject it —
/// otherwise the outer "sound" interval would be built on an uncertified
/// target set. Bounded nested operators are exact arithmetic and fine.
fn nests_unbounded_prob(formula: &StateFormula) -> bool {
    match formula {
        StateFormula::True | StateFormula::False | StateFormula::Ap(_) => false,
        StateFormula::Not(f) => nests_unbounded_prob(f),
        StateFormula::And(a, b) | StateFormula::Or(a, b) | StateFormula::Implies(a, b) => {
            nests_unbounded_prob(a) || nests_unbounded_prob(b)
        }
        StateFormula::Prob { path, .. } => {
            if is_unbounded_path(path) {
                return true;
            }
            match &**path {
                PathFormula::Next(f) => nests_unbounded_prob(f),
                PathFormula::Until { lhs, rhs, .. } => {
                    nests_unbounded_prob(lhs) || nests_unbounded_prob(rhs)
                }
                PathFormula::Finally { inner, .. } | PathFormula::Globally { inner, .. } => {
                    nests_unbounded_prob(inner)
                }
            }
        }
    }
}

/// Guards a certified query's operand formulas: rejects any that nest an
/// unbounded probability operator (see [`nests_unbounded_prob`]).
pub(crate) fn certify_operands(formulas: &[&StateFormula]) -> Result<(), PctlError> {
    if formulas.iter().any(|f| nests_unbounded_prob(f)) {
        return Err(PctlError::Unsupported {
            construct: "a nested unbounded P operator inside a certified query (its \
                        satisfaction set comes from residual-test iteration, which would \
                        void the certificate; drop --certified or bound the nested \
                        operator)"
                .into(),
        });
    }
    Ok(())
}

/// The probability, from the initial distribution, of the path formula —
/// computed with the forward transient engine.
///
/// # Errors
///
/// [`PctlError::Dtmc`] for unknown labels or non-convergence of unbounded
/// operators.
pub fn path_prob_from_initial(dtmc: &Dtmc, path: &PathFormula) -> Result<f64, PctlError> {
    Evaluator::uncached(dtmc).path_prob_from_initial(path)
}

/// Per-state probabilities of `lhs U[a,b] rhs`: `rhs` is reached at some
/// step in the inclusive window `[a,b]`, with `lhs` holding at every
/// earlier step (including the pre-window prefix — PRISM's interval-until
/// semantics).
///
/// Computed backwards: first the plain bounded until over the window
/// (`b - a` steps), then `a` prefix steps in which only `lhs`-states
/// survive and reaching `rhs` does not yet count.
///
/// # Errors
///
/// [`PctlError::Dtmc`] on dimension mismatches from the matrix layer.
pub fn interval_until_values(
    dtmc: &Dtmc,
    lhs: &BitVec,
    rhs: &BitVec,
    a: u64,
    b: u64,
) -> Result<Vec<f64>, PctlError> {
    debug_assert!(a <= b, "parser enforces non-empty intervals");
    let mut x = transient::bounded_until_values(dtmc, lhs, rhs, (b - a) as usize)?;
    let mut next = vec![0.0; x.len()];
    for _ in 0..a {
        dtmc.matrix().backward_masked_into(&x, Some(lhs), &mut next);
        // Non-lhs states die during the prefix (rhs does not absorb yet).
        for (i, v) in next.iter_mut().enumerate() {
            if !lhs.get(i) {
                *v = 0.0;
            }
        }
        std::mem::swap(&mut x, &mut next);
    }
    Ok(x)
}

/// The set of states satisfying a state formula. Nested `P⋈p` operators are
/// resolved by backward value iteration.
///
/// # Errors
///
/// [`PctlError::Dtmc`] for unknown labels or non-convergence.
pub fn sat_states(dtmc: &Dtmc, formula: &StateFormula) -> Result<BitVec, PctlError> {
    Evaluator::uncached(dtmc).sat_states(formula)
}

/// The probability of the path formula *from every state* (backward
/// algorithms).
///
/// # Errors
///
/// [`PctlError::Dtmc`] for unknown labels or non-convergence.
pub fn path_values(dtmc: &Dtmc, path: &PathFormula) -> Result<Vec<f64>, PctlError> {
    Evaluator::uncached(dtmc).path_values(path)
}

/// The expected reward accumulated strictly before first reaching a
/// `target`-state, *from every state* (PRISM's `R=? [ F φ ]` semantics:
/// the target state's own reward is not counted, and states from which the
/// target is reached with probability < 1 get `f64::INFINITY`).
///
/// The finite region is decided on the graph (the states from which every
/// path keeps the target reachable), and `x = r + P·x` is solved on it
/// topologically ([`solve::topo_reach_reward_values`]); from such states
/// every successor is again in the region (or the target), so infinities
/// never enter the solve.
///
/// # Errors
///
/// [`PctlError::Dtmc`] if the reachability pre-pass or the reward
/// iteration fails to converge.
pub fn reach_reward_values(dtmc: &Dtmc, target: &BitVec) -> Result<Vec<f64>, PctlError> {
    Evaluator::uncached(dtmc)
        .reach_reward_values(target)
        .map(arc_to_vec)
}

fn initial_expectation(dtmc: &Dtmc, vals: &[f64]) -> f64 {
    dtmc.initial()
        .iter()
        .map(|&(s, p)| p * vals[s as usize])
        .sum()
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_property;
    use smg_dtmc::{explore, DtmcModel, ExploreOptions};

    /// The classic Knuth–Yao-ish chain: 0 →(.5) 1 | 2; 1 →(.5) goal | 0;
    /// 2 absorbing "bad"; goal absorbing "goal".
    struct Gadget;
    impl DtmcModel for Gadget {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.5), (2, 0.5)],
                1 => vec![(3, 0.5), (0, 0.5)],
                2 => vec![(2, 1.0)],
                _ => vec![(3, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["goal", "bad"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            (ap == "goal" && *s == 3) || (ap == "bad" && *s == 2)
        }
        fn state_reward(&self, s: &u8) -> f64 {
            if *s == 3 {
                1.0
            } else {
                0.0
            }
        }
    }

    fn gadget() -> Dtmc {
        explore(&Gadget, &ExploreOptions::default()).unwrap().dtmc
    }

    fn q(dtmc: &Dtmc, prop: &str) -> f64 {
        check_query(dtmc, &parse_property(prop).unwrap())
            .unwrap()
            .value()
    }

    #[test]
    fn unbounded_reach_is_one_third() {
        // P(reach goal) satisfies p = 1/2 * (1/2 + 1/2 p) → p = 1/3.
        let d = gadget();
        let p = q(&d, "P=? [ F goal ]");
        assert!((p - 1.0 / 3.0).abs() < 1e-9, "p = {p}");
    }

    #[test]
    fn bounded_reach_steps() {
        let d = gadget();
        assert_eq!(q(&d, "P=? [ F<=1 goal ]"), 0.0);
        assert!((q(&d, "P=? [ F<=2 goal ]") - 0.25).abs() < 1e-12);
        // After 4 steps: 0.25 + (1/4 of the restart mass) * 0.25 = 0.3125.
        assert!((q(&d, "P=? [ F<=4 goal ]") - 0.3125).abs() < 1e-12);
    }

    #[test]
    fn globally_avoids_bad() {
        let d = gadget();
        // G !bad ⇔ never absorb at 2 ⇔ eventually reach goal = 1/3.
        let p = q(&d, "P=? [ G !bad ]");
        assert!((p - 1.0 / 3.0).abs() < 1e-9);
        // Bounded version is larger (paths still alive count).
        let pb = q(&d, "P=? [ G<=2 !bad ]");
        assert!((pb - 0.5).abs() < 1e-12);
    }

    #[test]
    fn next_operator() {
        let d = gadget();
        assert!((q(&d, "P=? [ X bad ]") - 0.5).abs() < 1e-12);
        assert!((q(&d, "P=? [ X (bad | goal) ]") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn until_respects_lhs() {
        let d = gadget();
        // Reach goal while avoiding state 0 after start... lhs = !bad is the
        // same as F goal here.
        let p = q(&d, "P=? [ !bad U goal ]");
        assert!((p - 1.0 / 3.0).abs() < 1e-9);
        // lhs = goal | bad forbids passing through 0 and 1 → 0.
        assert_eq!(q(&d, "P=? [ (goal | bad) U goal ]"), 0.0);
    }

    #[test]
    fn reward_queries() {
        let d = gadget();
        // Instantaneous reward at t equals P(in goal at t) = P(F<=t goal)
        // since goal is absorbing.
        for t in [0u64, 1, 2, 5, 10] {
            let r = q(&d, &format!("R=? [ I={t} ]"));
            let f = q(&d, &format!("P=? [ F<={t} goal ]"));
            assert!((r - f).abs() < 1e-12, "t={t}");
        }
        // Cumulative reward over first steps is the sum of the series.
        let c = q(&d, "R=? [ C<=3 ]");
        let series: f64 = (0..=2).map(|t| q(&d, &format!("R=? [ I={t} ]"))).sum();
        assert!((c - series).abs() < 1e-12);
    }

    #[test]
    fn interval_bounds_follow_prism_semantics() {
        let d = gadget();
        // F[0,t] coincides with F<=t.
        for t in [0u64, 1, 2, 5, 9] {
            let a = q(&d, &format!("P=? [ F[0,{t}] goal ]"));
            let b = q(&d, &format!("P=? [ F<={t} goal ]"));
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
        // F[t,t] φ is exactly "φ at step t" (lhs = true): the transient
        // distribution mass on φ.
        for t in [1usize, 2, 4, 7] {
            let a = q(&d, &format!("P=? [ F[{t},{t}] goal ]"));
            let pi = transient::distribution_at(&d, t);
            let mass: f64 = d.label("goal").unwrap().iter_ones().map(|i| pi[i]).sum();
            assert!((a - mass).abs() < 1e-12, "t={t}: {a} vs {mass}");
        }
        // G[a,b] φ = 1 - F[a,b] ¬φ.
        let g = q(&d, "P=? [ G[2,5] !bad ]");
        let f = q(&d, "P=? [ F[2,5] bad ]");
        assert!((g - (1.0 - f)).abs() < 1e-12);
        // The until prefix constraint really binds: reaching goal in the
        // window while avoiding state 0 after the start is impossible
        // beyond the direct 0→1→goal path once the window opens late.
        let constrained = q(
            &d,
            "P=? [ (goal | bad | P>=0.5 [ X (goal|bad) ]) U[2,2] goal ]",
        );
        // lhs above = {1, 2(bad), 3(goal)}: paths 0→1→goal only.
        assert!(
            (constrained - 0.25).abs() < 1e-12,
            "constrained = {constrained}"
        );
        // Degenerate window at 0: F[0,0] φ is the initial indicator.
        assert_eq!(q(&d, "P=? [ F[0,0] goal ]"), 0.0);
        assert_eq!(q(&d, "P=? [ F[0,0] !goal ]"), 1.0);
    }

    #[test]
    fn interval_bounds_forward_backward_agree() {
        let d = gadget();
        for (a, b) in [(0u64, 3u64), (1, 4), (3, 3), (2, 8)] {
            let prop = format!("P=? [ !bad U[{a},{b}] goal ]");
            let fwd = q(&d, &prop);
            let Property::ProbQuery(path) = parse_property(&prop).unwrap() else {
                unreachable!()
            };
            let vals = path_values(&d, &path).unwrap();
            let bwd = initial_expectation(&d, &vals);
            assert!((fwd - bwd).abs() < 1e-12, "{prop}: {fwd} vs {bwd}");
        }
    }

    #[test]
    fn reach_reward_is_infinite_when_target_not_almost_sure() {
        // The gadget reaches `goal` with probability 1/3 < 1.
        let d = gadget();
        assert_eq!(q(&d, "R=? [ F goal ]"), f64::INFINITY);
        // `goal | bad` is reached almost surely; rewards are 0 outside
        // goal, so the expected pre-target accumulation is 0.
        assert_eq!(q(&d, "R=? [ F (goal | bad) ]"), 0.0);
    }

    #[test]
    fn reach_reward_matches_geometric_expectation() {
        // One transient state with reward 1 that reaches the target with
        // probability p each step: expected visits = 1/p.
        struct Geo(f64);
        impl DtmcModel for Geo {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                match s {
                    0 => vec![(1, self.0), (0, 1.0 - self.0)],
                    _ => vec![(1, 1.0)],
                }
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["t"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                ap == "t" && *s == 1
            }
            fn state_reward(&self, s: &u8) -> f64 {
                // Target reward must NOT be counted; make it huge so a
                // semantics bug is loud.
                if *s == 0 {
                    1.0
                } else {
                    1e9
                }
            }
        }
        for p in [0.5, 0.25, 0.01] {
            let d = explore(&Geo(p), &ExploreOptions::default()).unwrap().dtmc;
            let r = q(&d, "R=? [ F t ]");
            assert!((r - 1.0 / p).abs() < 1e-6, "p={p}: r={r}");
        }
    }

    #[test]
    fn reach_reward_values_per_state() {
        // Deterministic line 0→1→2(target), reward 1 everywhere: values
        // are the distances 2, 1, 0.
        struct Line;
        impl DtmcModel for Line {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                vec![((*s + 1).min(2), 1.0)]
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["end"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                ap == "end" && *s == 2
            }
            fn state_reward(&self, _: &u8) -> f64 {
                1.0
            }
        }
        let d = explore(&Line, &ExploreOptions::default()).unwrap().dtmc;
        let target = d.label("end").unwrap().clone();
        let vals = reach_reward_values(&d, &target).unwrap();
        assert!((vals[0] - 2.0).abs() < 1e-9);
        assert!((vals[1] - 1.0).abs() < 1e-9);
        assert_eq!(vals[2], 0.0);
    }

    #[test]
    fn certified_queries_bracket_and_report_solver() {
        let d = gadget();
        let opts = CheckOptions::certified(1e-9);
        // Unbounded reachability: exact value 1/3.
        let r = check_query_with(&d, &parse_property("P=? [ F goal ]").unwrap(), &opts).unwrap();
        assert_eq!(r.solver(), Solver::IntervalIteration);
        assert_eq!(r.solver().to_string(), "interval-iteration");
        let (lo, hi) = r.interval().unwrap();
        assert!(hi - lo < 1e-9);
        assert!(
            lo <= 1.0 / 3.0 + 1e-12 && 1.0 / 3.0 <= hi + 1e-12,
            "[{lo}, {hi}]"
        );
        assert!((r.value() - 1.0 / 3.0).abs() < 1e-9);
        // Globally complements the bracket.
        let g = check_query_with(&d, &parse_property("P=? [ G !bad ]").unwrap(), &opts).unwrap();
        let (glo, ghi) = g.interval().unwrap();
        assert!(
            glo <= 1.0 / 3.0 + 1e-12 && 1.0 / 3.0 <= ghi + 1e-12,
            "[{glo}, {ghi}]"
        );
        // Until through a constraint: still certified.
        let u =
            check_query_with(&d, &parse_property("P=? [ !bad U goal ]").unwrap(), &opts).unwrap();
        assert_eq!(u.solver(), Solver::IntervalIteration);
        // The min/max forms collapse to the same certified engine on a
        // chain.
        let m = check_query_with(&d, &parse_property("Pmax=? [ F goal ]").unwrap(), &opts).unwrap();
        assert_eq!(m.solver(), Solver::IntervalIteration);
        assert!((m.value() - r.value()).abs() < 1e-9);
    }

    #[test]
    fn topological_certified_matches_and_tags() {
        // Both modes walk the same condensation: the certified midpoint
        // matches the default walk's value (∞ pinned alike), and only the
        // tag and the interval tell the two apart.
        let d = gadget();
        let certified = CheckOptions::certified(1e-9);
        for prop in [
            "P=? [ F goal ]",
            "P=? [ G !bad ]",
            "P=? [ !bad U goal ]",
            "R=? [ F (goal | bad) ]",
            "R=? [ F goal ]", // ∞ pinning must agree too
        ] {
            let p = parse_property(prop).unwrap();
            let plain = check_query(&d, &p).unwrap();
            let c = check_query_with(&d, &p, &certified).unwrap();
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

    #[test]
    fn certified_rewards_and_exact_interval_reporting() {
        let d = gadget();
        let opts = CheckOptions::certified(1e-9);
        // Certified reachability reward: goal missed with probability 2/3
        // → exactly ∞ on both ends.
        let r = check_query_with(&d, &parse_property("R=? [ F goal ]").unwrap(), &opts).unwrap();
        assert_eq!(r.interval(), Some((f64::INFINITY, f64::INFINITY)));
        assert_eq!(r.value(), f64::INFINITY);
        // goal | bad is certain, no reward accrues before absorption.
        let r = check_query_with(
            &d,
            &parse_property("R=? [ F (goal | bad) ]").unwrap(),
            &opts,
        )
        .unwrap();
        let (lo, hi) = r.interval().unwrap();
        assert!(lo <= 0.0 && 0.0 <= hi && hi - lo < 1e-9);
        // Finite-horizon queries are exact arithmetic: degenerate [v, v]
        // and the transient engine, certified mode or not.
        for prop in ["P=? [ F<=4 goal ]", "R=? [ I=3 ]", "P=? [ X bad ]"] {
            let r = check_query_with(&d, &parse_property(prop).unwrap(), &opts).unwrap();
            assert_eq!(r.solver(), Solver::Transient, "{prop}");
            assert_eq!(r.interval(), Some((r.value(), r.value())), "{prop}");
        }
        // Plain unbounded iteration reports itself and claims no bound.
        let r = check_query(&d, &parse_property("P=? [ F goal ]").unwrap()).unwrap();
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
        // Steady-state detection is never certified.
        let r = check_query_with(&d, &parse_property("S=? [ bad ]").unwrap(), &opts).unwrap();
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
    }

    #[test]
    fn certified_rejects_nested_unbounded_prob() {
        let d = gadget();
        let opts = CheckOptions::certified(1e-9);
        // A nested unbounded P operator would feed a residual-converged
        // satisfaction set into the "sound" interval — refuse to certify.
        for prop in [
            "P=? [ F P>=0.5 [ F goal ] ]",
            "P=? [ P>=0.1 [ F goal ] U goal ]",
            "P=? [ G !(P<0.5 [ F goal ]) ]",
            "R=? [ F P>=0.5 [ F goal ] ]",
            // Bounded *outer* forms must be guarded too: an exact-looking
            // [v, v] interval would otherwise rest on residual iteration.
            "P=? [ X P>=0.5 [ F goal ] ]",
            "P=? [ F<=3 P>=0.5 [ F goal ] ]",
            // Top-level threshold verdicts likewise.
            "P>=0.3 [ F goal ]",
        ] {
            let e = check_query_with(&d, &parse_property(prop).unwrap(), &opts).unwrap_err();
            assert!(matches!(e, PctlError::Unsupported { .. }), "{prop}");
        }
        // Bounded nested operators are exact arithmetic: still certified.
        let r = check_query_with(
            &d,
            &parse_property("P=? [ F P>=0.4 [ F<=2 goal ] ]").unwrap(),
            &opts,
        )
        .unwrap();
        assert_eq!(r.solver(), Solver::IntervalIteration);
        // Uncertified mode keeps accepting the nested unbounded form.
        let r = check_query(&d, &parse_property("P=? [ F P>=0.5 [ F goal ] ]").unwrap()).unwrap();
        assert_eq!(r.solver(), Solver::Iterative);
    }

    #[test]
    fn steady_state_query() {
        let d = gadget();
        let s_goal = q(&d, "S=? [ goal ]");
        let s_bad = q(&d, "S=? [ bad ]");
        assert!((s_goal - 1.0 / 3.0).abs() < 1e-6, "s_goal = {s_goal}");
        assert!((s_bad - 2.0 / 3.0).abs() < 1e-6);
    }

    /// A chain from explicit rows, starting in state 0, with the given
    /// labels and per-state rewards.
    fn chain(rows: Vec<Vec<(u32, f64)>>, labels: &[(&str, &[usize])], rewards: Vec<f64>) -> Dtmc {
        use smg_dtmc::{matrix::CsrMatrix, TransitionMatrix};
        let n = rows.len();
        let matrix = TransitionMatrix::Sparse(CsrMatrix::from_rows(rows).unwrap());
        let labels = labels
            .iter()
            .map(|(name, states)| {
                (
                    name.to_string(),
                    BitVec::from_fn(n, |i| states.contains(&i)),
                )
            })
            .collect();
        Dtmc::new(matrix, vec![(0, 1.0)], labels, rewards).unwrap()
    }

    #[test]
    fn reward_region_comes_from_the_graph() {
        // 0 reaches the goal with probability 1 − 1e-10 and otherwise falls
        // into the absorbing state 2, from which the goal is unreachable: a
        // thresholded reach probability would call 0 "certain" and report
        // a finite reward, but the expectation is ∞, as certified says.
        let d = chain(
            vec![
                vec![(1, 0.9999999999), (2, 1e-10)],
                vec![(1, 1.0)],
                vec![(2, 1.0)],
            ],
            &[("goal", &[1])],
            vec![1.0, 0.0, 0.0],
        );
        assert_eq!(q(&d, "R=? [ F goal ]"), f64::INFINITY);
        let certified = check_query_with(
            &d,
            &parse_property("R=? [ F goal ]").unwrap(),
            &CheckOptions::certified(1e-9),
        )
        .unwrap();
        assert_eq!(certified.value(), f64::INFINITY);
    }

    #[test]
    fn sticky_self_loop_is_solved_in_closed_form() {
        // 0 stays with probability 1 − 1e-13 and moves to the absorbing
        // goal otherwise: the goal is reached almost surely after ~1e13
        // steps, and the chain ends there. A residual test sees no
        // progress after one sweep; the closed form divides by the stored
        // off-diagonal mass, not by the cancelling `1 − p_ii`.
        let d = chain(
            vec![vec![(0, 0.9999999999999), (1, 1e-13)], vec![(1, 1.0)]],
            &[("goal", &[1])],
            vec![1.0, 0.0],
        );
        let p = q(&d, "P=? [ F goal ]");
        assert!((p - 1.0).abs() < 1e-9, "P = {p}");
        let r = q(&d, "R=? [ F goal ]");
        assert!((r / 1e13 - 1.0).abs() < 1e-9, "R = {r}");
        let s = q(&d, "S=? [ goal ]");
        assert!((s - 1.0).abs() < 1e-9, "S = {s}");
        // The certified bracket closes on the same chain.
        let certified = check_query_with(
            &d,
            &parse_property("P=? [ F goal ]").unwrap(),
            &CheckOptions::certified(1e-6),
        )
        .unwrap();
        assert!((certified.value() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boolean_queries() {
        let d = gadget();
        let r = check_query(&d, &parse_property("P>=0.3 [ F goal ]").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true));
        assert_eq!(r.value(), 1.0);
        let r = check_query(&d, &parse_property("P>=0.5 [ F goal ]").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(false));
        let r = check_query(&d, &parse_property("!goal").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true), "initial state is not the goal");
    }

    #[test]
    fn forward_backward_agree() {
        let d = gadget();
        for (lhs, rhs) in [("true", "goal"), ("!bad", "goal"), ("true", "bad")] {
            for t in [0u64, 1, 3, 7, 20] {
                let fwd = q(&d, &format!("P=? [ {lhs} U<={t} {rhs} ]"));
                let path = match parse_property(&format!("P=? [ {lhs} U<={t} {rhs} ]")).unwrap() {
                    Property::ProbQuery(p) => p,
                    _ => unreachable!(),
                };
                let vals = path_values(&d, &path).unwrap();
                let bwd = initial_expectation(&d, &vals);
                assert!(
                    (fwd - bwd).abs() < 1e-12,
                    "{lhs} U<={t} {rhs}: fwd={fwd} bwd={bwd}"
                );
            }
        }
    }

    #[test]
    fn nested_probability_operator() {
        let d = gadget();
        // States from which goal is reached with ≥ 1/2 probability: state 1
        // (p=1/2+1/2·1/3=2/3) and goal itself (p=1). Initial state 0 has
        // p=1/3 < 1/2, bad has 0.
        let sat = sat_states(
            &d,
            &parse_property("P>=0.5 [ F goal ]")
                .map(|p| match p {
                    Property::Bool(f) => f,
                    _ => unreachable!(),
                })
                .unwrap(),
        )
        .unwrap();
        assert_eq!(sat.count_ones(), 2);
        // Probability of reaching such a state within 1 step = P(0→1) = 1/2.
        let p = q(&d, "P=? [ F<=1 P>=0.5 [ F goal ] ]");
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn unknown_label_is_reported() {
        let d = gadget();
        let e = check_query(&d, &parse_property("P=? [ F nope ]").unwrap());
        assert!(matches!(
            e,
            Err(PctlError::Dtmc(smg_dtmc::DtmcError::UnknownLabel { .. }))
        ));
    }

    #[test]
    fn globally_unbounded_on_safe_chain() {
        // A chain that never leaves good states: G good = 1.
        struct Safe;
        impl DtmcModel for Safe {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                vec![((s + 1) % 3, 1.0)]
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["good"]
            }
            fn holds(&self, ap: &str, _: &u8) -> bool {
                ap == "good"
            }
        }
        let d = explore(&Safe, &ExploreOptions::default()).unwrap().dtmc;
        assert!((q(&d, "P=? [ G good ]") - 1.0).abs() < 1e-9);
        // Steady state of a period-3 cycle: S=? of one state = 1/3 via the
        // Cesàro (lazy-chain) limit.
        let mut d2 = d.clone();
        d2.insert_label("zero", smg_dtmc::BitVec::from_fn(3, |i| i == 0))
            .unwrap();
        let s = q(&d2, "S=? [ zero ]");
        assert!((s - 1.0 / 3.0).abs() < 1e-5, "s = {s}");
    }
}
