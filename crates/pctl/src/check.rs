//! The pCTL model checker, one evaluator for chains and MDPs.
//!
//! Two evaluation styles are provided, mirroring how PRISM separates
//! satisfaction sets from numerical queries:
//!
//! * [`sat_states`] / [`sat_states_mdp`] compute, for a state formula, the
//!   set of satisfying states. On a chain, bounded and unbounded `P⋈p`
//!   operators are resolved by backward value iteration, so the operator
//!   can be nested; on an MDP their satisfaction set would depend on the
//!   scheduler quantifier, so they are rejected.
//! * [`check_query`] / [`check_mdp_query`] evaluate a top-level
//!   [`Property`] against the model's initial distribution. On a chain a
//!   bounded `P=? [...]`, `R=? [I=t]` or `R=? [C<=t]` runs the *forward*
//!   transient engine (one pass, no per-state vectors), which is how the
//!   paper's single-initial-state experiments are computed. Everything
//!   else — and every MDP query — folds per-state values over the initial
//!   distribution. (A scheduler observes the state, including the initial
//!   draw, so the optimal value of a distribution is the expectation of
//!   the per-state optima; there is no MDP analogue of the forward pass.)
//!
//! The two styles agree; `forward_backward_agree` in the tests pins this.
//!
//! Quantitative queries over an MDP must say *which* resolution of the
//! nondeterminism they mean: the `Pmin=?` / `Pmax=?` / `Rmin=?` / `Rmax=?`
//! forms quantify over all schedulers via `smg-mdp`'s min/max value
//! iteration, and the scheduler-ambiguous plain `P=?` / `R=?` / `S=?`
//! forms are rejected with a pointed [`PctlError::Unsupported`]. On a
//! chain every scheduler sees the same chain, so the min/max forms
//! collapse to the plain ones.
//!
//! Internally every algorithm is a method on one evaluator (`Evaluator`)
//! over a borrowed model view (a `&Dtmc` or a `&Mdp`). The per-state path
//! values (`X`, `U<=t`, `U[a,b]`, `F`, `G`) run over a per-engine one-step
//! backup — the chain's backward product, the MDP's optimal backup — and
//! every unbounded solve walks the SCC condensation (`smg_dtmc::solve`).
//! The public free functions run an *uncached* evaluator, while a
//! [`crate::session::CheckSession`] runs a *cached* one whose cache
//! (`Cache`) memoizes satisfaction sets and the expensive iterative
//! solves across a whole property family. Both run the identical code
//! path, so the cache can never change an answer — only skip recomputing
//! it.

use crate::ast::{Opt, PathFormula, Property, RewardQuery, StateFormula, TimeBound};
use crate::error::PctlError;
use crate::session::{CacheKind, CacheStats};
use smg_dtmc::graph::Condensation;
use smg_dtmc::solve::{self, CertifiedValues};
use smg_dtmc::{transient, BitVec, Dtmc, DtmcError, StateId};
use smg_mdp::{qual, vi, Mdp, ViOptions};
use smg_obs as obs;
use std::cell::{OnceCell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Residual tolerance of the default unbounded chain solvers (per SCC;
/// MDPs use [`ViOptions::default`], which matches it).
const UNBOUNDED_TOL: f64 = 1e-12;
/// Iteration budget for unbounded chain queries (per SCC).
const UNBOUNDED_MAX_ITER: usize = 1_000_000;
/// Iteration budget for certified interval iteration on both engines (dual
/// sweeps close a width, not a residual, so slow-mixing models
/// legitimately need more sweeps than the heuristic test would have
/// taken).
const CERTIFIED_MAX_ITER: usize = 50_000_000;
/// Tolerance for steady-state detection.
const STEADY_TOL: f64 = 1e-13;
/// Step budget for steady-state detection.
const STEADY_MAX_STEPS: usize = 1_000_000;

/// Options shared by [`check_query_with`] and [`check_mdp_query_with`].
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
/// A result takes the tag of the weakest engine its formula used: a
/// bounded query or a boolean verdict whose formula nests an unbounded
/// `P⋈p` operator is [`Iterative`](Solver::Iterative), since residual
/// iteration decided that operator's satisfaction set.
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
/// it, and the value bracket where one exists.
type EngineValue = (f64, Solver, Option<(f64, f64)>);

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
    Evaluator::uncached(Model::Dtmc(dtmc)).check(property, opts)
}

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
/// (`smg-mdp`'s `topo_certified_*` drivers) and the result carries a sound
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
    Evaluator::uncached(Model::Mdp(mdp)).check(property, opts)
}

/// The set of states satisfying a state formula. Nested `P⋈p` operators are
/// resolved by backward value iteration.
///
/// # Errors
///
/// [`PctlError::Dtmc`] for unknown labels or non-convergence.
pub fn sat_states(dtmc: &Dtmc, formula: &StateFormula) -> Result<BitVec, PctlError> {
    Evaluator::uncached(Model::Dtmc(dtmc)).sat_states(formula)
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
    Evaluator::uncached(Model::Mdp(mdp)).sat_states(formula)
}

/// A borrowed view of the model an evaluator checks.
#[derive(Clone, Copy)]
pub(crate) enum Model<'a> {
    /// A discrete-time Markov chain.
    Dtmc(&'a Dtmc),
    /// A Markov decision process.
    Mdp(&'a Mdp),
}

impl<'a> Model<'a> {
    fn n_states(self) -> usize {
        match self {
            Model::Dtmc(d) => d.n_states(),
            Model::Mdp(m) => m.n_states(),
        }
    }

    fn label(self, name: &str) -> Result<&'a BitVec, DtmcError> {
        match self {
            Model::Dtmc(d) => d.label(name),
            Model::Mdp(m) => m.label(name),
        }
    }

    fn initial(self) -> &'a [(StateId, f64)] {
        match self {
            Model::Dtmc(d) => d.initial(),
            Model::Mdp(m) => m.initial(),
        }
    }

    /// The SCC condensation every unbounded solve walks (of the any-action
    /// graph, on an MDP).
    fn condensation(self) -> Condensation {
        match self {
            Model::Dtmc(d) => Condensation::new(d),
            Model::Mdp(m) => qual::condensation(m),
        }
    }
}

/// The engine one query runs on: a chain, or an MDP under the query's
/// optimization direction.
#[derive(Clone, Copy)]
enum Engine<'a> {
    Chain(&'a Dtmc),
    Mdp(&'a Mdp, Opt),
}

impl Engine<'_> {
    /// The direction, as cache keys carry it (`None` on a chain).
    fn opt(self) -> Option<Opt> {
        match self {
            Engine::Chain(_) => None,
            Engine::Mdp(_, opt) => Some(opt),
        }
    }

    /// The engine of `G φ = ¬F ¬φ`: on an MDP the scheduler maximizing the
    /// invariant minimizes the violation, so the direction flips.
    fn dual(self) -> Self {
        match self {
            Engine::Mdp(m, opt) => Engine::Mdp(m, opt.dual()),
            chain => chain,
        }
    }

    /// One backup `out = step(x)`, masked: states outside `mask` keep
    /// their current value. The chain's backward product, or the MDP's
    /// optimal backup.
    fn step(self, x: &[f64], mask: Option<&BitVec>, out: &mut [f64]) {
        match self {
            Engine::Chain(d) => d.matrix().backward_masked_into(x, mask, out),
            Engine::Mdp(m, opt) => {
                vi::optimal_step_into(m, x, mask, opt, out, &ViOptions::default());
            }
        }
    }
}

/// Memoized precomputation shared by every query of a
/// [`crate::session::CheckSession`] over one immutable model.
///
/// Cache keys are chosen so a hit can only return exactly what
/// recomputation would have produced: satisfaction sets are keyed by a
/// collision-free formula serialization ([`sat_key`] — *not* `Display`,
/// which is readable but not injective over arbitrary label names),
/// numeric solves by the **exact operand bit-sets** plus the optimization
/// direction (`None` on a chain) and the certification width's bit pattern
/// where one applies, and every solver is deterministic. The model itself
/// is owned by the session and immutable, so entries never need
/// invalidation. The qualitative work inside the MDP's certified drivers
/// (`Prob0`/`Prob1` sets, MEC decompositions, proper schedulers) is
/// amortized through these entries: it runs once per distinct
/// `(operands, direction, ε)` triple per session instead of once per query.
#[derive(Debug, Default)]
pub(crate) struct Cache {
    /// Satisfaction sets, one entry per distinct (sub)formula
    /// ([`sat_key`]-keyed).
    sat: HashMap<String, BitVec>,
    /// The model's SCC condensation, built on the first unbounded query
    /// and handed to every topological solve after it. Query-independent,
    /// so one per session; sessions that only run bounded queries never
    /// build it.
    cond: OnceCell<Arc<Condensation>>,
    /// Unbounded until value vectors keyed by `(lhs, rhs, direction)`
    /// (`F φ` and `G ¬φ` route through this with an all-ones `lhs`).
    until: HashMap<(BitVec, BitVec, Option<Opt>), Arc<Vec<f64>>>,
    /// Reachability-reward value vectors keyed by `(target, direction)`.
    reach_reward: HashMap<(BitVec, Option<Opt>), Arc<Vec<f64>>>,
    /// Certified until brackets keyed by `(lhs, rhs, direction, ε bits)`.
    cert_until: HashMap<(BitVec, BitVec, Option<Opt>, u64), Arc<CertifiedValues>>,
    /// Certified reachability-reward brackets keyed by
    /// `(target, direction, ε bits)`.
    cert_reach_reward: HashMap<(BitVec, Option<Opt>, u64), Arc<CertifiedValues>>,
    /// Long-run probabilities (from the initial distribution) keyed by
    /// the satisfaction set.
    steady: HashMap<BitVec, f64>,
    /// Hit/miss telemetry, per cache kind.
    pub(crate) stats: CacheStats,
}

/// The query engine: every checking algorithm as a method over a model
/// view plus an optional session cache. The public free functions run an
/// uncached evaluator; [`crate::session::CheckSession`] runs a cached one.
pub(crate) struct Evaluator<'a> {
    model: Model<'a>,
    cache: Option<&'a RefCell<Cache>>,
    /// An uncached evaluator's own condensation (one per free-function
    /// call), built on its first unbounded solve.
    cond: OnceCell<Arc<Condensation>>,
}

impl<'a> Evaluator<'a> {
    /// An evaluator that recomputes everything (the free-function path).
    pub(crate) fn uncached(model: Model<'a>) -> Self {
        Evaluator {
            model,
            cache: None,
            cond: OnceCell::new(),
        }
    }

    /// An evaluator sharing a session's cache.
    pub(crate) fn cached(model: Model<'a>, cache: &'a RefCell<Cache>) -> Self {
        Evaluator {
            model,
            cache: Some(cache),
            cond: OnceCell::new(),
        }
    }

    /// The model's SCC condensation: the session's single copy in cached
    /// mode, this evaluator's own otherwise — built on first use either
    /// way.
    fn condensation(&self) -> Arc<Condensation> {
        let build = || Arc::new(self.model.condensation());
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
        lookup: impl Fn(&Cache) -> Option<V>,
        store: impl FnOnce(&mut Cache, V),
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

    /// See [`check_query_with`] and [`check_mdp_query_with`].
    pub(crate) fn check(
        &self,
        property: &Property,
        opts: &CheckOptions,
    ) -> Result<CheckResult, PctlError> {
        let start = Instant::now();
        let unsupported = |construct: &str| {
            Err(PctlError::Unsupported {
                construct: construct.into(),
            })
        };
        let ((value, solver, interval), boolean) = match (property, self.model) {
            // On a DTMC there is no nondeterminism to optimize over: every
            // scheduler sees the same chain, so Pmin = Pmax = P and
            // Rmin = Rmax = R. Accepting the min/max forms here lets
            // property files be shared between a design's DTMC and MDP
            // variants (and lets tests pin the MDP side against the chain
            // side on single-action models).
            (Property::ProbQuery(path) | Property::OptProbQuery(_, path), Model::Dtmc(d)) => {
                (self.path_query(path, Engine::Chain(d), opts)?, None)
            }
            (Property::OptProbQuery(opt, path), Model::Mdp(m)) => {
                (self.path_query(path, Engine::Mdp(m, *opt), opts)?, None)
            }
            (Property::RewardQuery(q) | Property::OptRewardQuery(_, q), Model::Dtmc(d)) => {
                (self.reward_query(q, Engine::Chain(d), opts)?, None)
            }
            (Property::OptRewardQuery(opt, q), Model::Mdp(m)) => {
                (self.reward_query(q, Engine::Mdp(m, *opt), opts)?, None)
            }
            (Property::Bool(f), _) => {
                // A certified run must not return a verdict that hinges on
                // residual-converged iteration (e.g. `P>=0.5 [ F goal ]`).
                self.certify_operands(opts, &[f])?;
                let sat = self.sat_states(f)?;
                // A model satisfies a state formula iff all initial states
                // with positive mass satisfy it.
                let ok = self
                    .model
                    .initial()
                    .iter()
                    .all(|&(s, p)| p == 0.0 || sat.get(s as usize));
                let solver = if nests_unbounded_prob(f) {
                    Solver::Iterative
                } else {
                    Solver::Transient
                };
                ((if ok { 1.0 } else { 0.0 }, solver, None), Some(ok))
            }
            (Property::SteadyQuery(f), Model::Dtmc(d)) => {
                let sat = self.sat_states(f)?;
                ((self.steady_prob(d, &sat)?, Solver::Iterative, None), None)
            }
            (Property::ProbQuery(_), Model::Mdp(_)) => {
                return unsupported(
                    "P=? on an MDP (use Pmin=? / Pmax=? to fix the scheduler quantification)",
                )
            }
            (Property::RewardQuery(_), Model::Mdp(_)) => {
                return unsupported("R=? on an MDP (use Rmin=? / Rmax=?)")
            }
            (Property::SteadyQuery(_), Model::Mdp(_)) => {
                return unsupported("S=? on an MDP (long-run averages are scheduler-dependent)")
            }
        };
        let elapsed = start.elapsed();
        obs::observe(
            "smg_pctl_property_seconds",
            Some(("solver", solver.as_str())),
            elapsed.as_secs_f64(),
        );
        Ok(CheckResult {
            value,
            boolean,
            interval,
            solver,
            time: elapsed,
        })
    }

    /// In certified mode on a chain, rejects operand formulas that nest an
    /// unbounded probability operator (see [`nests_unbounded_prob`]). On an
    /// MDP every nested `P⋈p` is rejected by [`Self::sat_states`] instead,
    /// with its own error.
    fn certify_operands(
        &self,
        opts: &CheckOptions,
        formulas: &[&StateFormula],
    ) -> Result<(), PctlError> {
        if opts.certify.is_none() || matches!(self.model, Model::Mdp(_)) {
            return Ok(());
        }
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

    /// Evaluates a probability path query from the initial distribution,
    /// reporting which engine ran and the value bracket where one exists.
    fn path_query(
        &self,
        path: &PathFormula,
        engine: Engine<'_>,
        opts: &CheckOptions,
    ) -> Result<EngineValue, PctlError> {
        // Guard every operand formula, whatever the outer bound: a bounded
        // outer query is exact arithmetic only if its satisfaction sets
        // are, too.
        self.certify_operands(opts, &operands(path))?;
        if let Some(eps) = opts.certify {
            let n = self.model.n_states();
            let cert = match path {
                PathFormula::Until {
                    lhs,
                    rhs,
                    bound: TimeBound::None,
                } => {
                    let l = self.sat_states(lhs)?;
                    let r = self.sat_states(rhs)?;
                    Some((self.cert_until(&l, &r, engine, eps)?, false))
                }
                PathFormula::Finally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    let f = self.sat_states(inner)?;
                    let all = BitVec::ones(n);
                    Some((self.cert_until(&all, &f, engine, eps)?, false))
                }
                PathFormula::Globally {
                    inner,
                    bound: TimeBound::None,
                } => {
                    // G φ = ¬F ¬φ (dual optimum on an MDP); the bracket
                    // complements with its ends swapped.
                    let bad = self.sat_states(inner)?.not();
                    let all = BitVec::ones(n);
                    Some((self.cert_until(&all, &bad, engine.dual(), eps)?, true))
                }
                _ => None, // finite-horizon forms are exact arithmetic below
            };
            if let Some((cert, complement)) = cert {
                return Ok(fold_certificate(self.model.initial(), &cert, complement));
            }
        }
        let v = match engine {
            Engine::Chain(d) => self.chain_path_prob(d, path)?,
            Engine::Mdp(..) => expectation(self.model.initial(), &self.path_values(path, engine)?),
        };
        if path_iterates(path) {
            Ok((v, Solver::Iterative, None))
        } else {
            Ok((v, Solver::Transient, Some((v, v))))
        }
    }

    /// The probability of a path formula from a chain's initial
    /// distribution: bounded forms by the forward transient engine, the
    /// rest by folding per-state values.
    fn chain_path_prob(&self, dtmc: &Dtmc, path: &PathFormula) -> Result<f64, PctlError> {
        Ok(match path {
            PathFormula::Next(f) => {
                let sat = self.sat_states(f)?;
                let pi1 = transient::distribution_at(dtmc, 1);
                sat.iter_ones().map(|i| pi1[i]).sum()
            }
            PathFormula::Until {
                lhs,
                rhs,
                bound: TimeBound::Upper(t),
            } => {
                let l = self.sat_states(lhs)?;
                let r = self.sat_states(rhs)?;
                transient::bounded_until_prob(dtmc, &l, &r, *t as usize)?
            }
            PathFormula::Finally {
                inner,
                bound: TimeBound::Upper(t),
            } => transient::bounded_reach_prob(dtmc, &self.sat_states(inner)?, *t as usize)?,
            PathFormula::Globally {
                inner,
                bound: TimeBound::Upper(t),
            } => transient::bounded_globally_prob(dtmc, &self.sat_states(inner)?, *t as usize)?,
            PathFormula::Globally { inner, bound } => {
                // G φ = ¬F ¬φ, complemented after the fold.
                let bad = self.sat_states(inner)?.not();
                let all = BitVec::ones(dtmc.n_states());
                let reach = self.until_values(&all, &bad, bound, Engine::Chain(dtmc))?;
                1.0 - expectation(dtmc.initial(), &reach)
            }
            _ => expectation(
                dtmc.initial(),
                &self.path_values(path, Engine::Chain(dtmc))?,
            ),
        })
    }

    /// See [`sat_states`] and [`sat_states_mdp`]. Every node of the
    /// formula is memoized (keyed by [`sat_key`]), so subformulas shared
    /// across a session's property family resolve once.
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
        let n = self.model.n_states();
        match formula {
            StateFormula::True => Ok(BitVec::ones(n)),
            StateFormula::False => Ok(BitVec::zeros(n)),
            StateFormula::Ap(name) => Ok(self.model.label(name)?.clone()),
            StateFormula::Not(f) => Ok(self.sat_states(f)?.not()),
            StateFormula::And(a, b) => Ok(self.sat_states(a)?.and(&self.sat_states(b)?)),
            StateFormula::Or(a, b) => Ok(self.sat_states(a)?.or(&self.sat_states(b)?)),
            StateFormula::Implies(a, b) => Ok(self.sat_states(a)?.not().or(&self.sat_states(b)?)),
            StateFormula::Prob {
                cmp,
                threshold,
                path,
            } => match self.model {
                Model::Dtmc(d) => {
                    let vals = self.path_values(path, Engine::Chain(d))?;
                    Ok(BitVec::from_fn(n, |i| cmp.eval(vals[i], *threshold)))
                }
                Model::Mdp(_) => Err(PctlError::Unsupported {
                    construct: "nested P⋈p operator inside an MDP formula (its satisfaction set \
                                depends on the scheduler quantifier)"
                        .into(),
                }),
            },
        }
    }

    /// The probability of the path formula *from every state*, by backward
    /// iteration over the engine's one-step backup (optimal on an MDP).
    fn path_values(
        &self,
        path: &PathFormula,
        engine: Engine<'_>,
    ) -> Result<Arc<Vec<f64>>, PctlError> {
        let all = || BitVec::ones(self.model.n_states());
        match path {
            PathFormula::Next(f) => {
                let sat = self.sat_states(f)?;
                let x: Vec<f64> = (0..sat.len())
                    .map(|i| if sat.get(i) { 1.0 } else { 0.0 })
                    .collect();
                let mut out = vec![0.0; x.len()];
                engine.step(&x, None, &mut out);
                Ok(Arc::new(out))
            }
            PathFormula::Until { lhs, rhs, bound } => {
                let l = self.sat_states(lhs)?;
                let r = self.sat_states(rhs)?;
                self.until_values(&l, &r, bound, engine)
            }
            PathFormula::Finally { inner, bound } => {
                let f = self.sat_states(inner)?;
                self.until_values(&all(), &f, bound, engine)
            }
            PathFormula::Globally { inner, bound } => {
                // G φ = ¬F ¬φ (also for the bounded cases), with the dual
                // optimum on an MDP.
                let bad = self.sat_states(inner)?.not();
                let reach = self.until_values(&all(), &bad, bound, engine.dual())?;
                Ok(Arc::new(reach.iter().map(|p| 1.0 - p).collect()))
            }
        }
    }

    /// Per-state until values for every [`TimeBound`] variant. Interval
    /// bounds follow PRISM's semantics: `rhs` is reached at some step in
    /// the inclusive window `[a,b]`, with `lhs` holding at every earlier
    /// step (including the pre-window prefix). Computed backwards: first
    /// the plain bounded until over the window (`b - a` steps), then `a`
    /// prefix steps in which only `lhs`-states survive and reaching `rhs`
    /// does not yet count.
    fn until_values(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        bound: &TimeBound,
        engine: Engine<'_>,
    ) -> Result<Arc<Vec<f64>>, PctlError> {
        let (window, prefix) = match *bound {
            TimeBound::None => return self.until(lhs, rhs, engine),
            TimeBound::Upper(t) => (t, 0),
            TimeBound::Interval(a, b) => {
                debug_assert!(a <= b, "parser enforces non-empty intervals");
                (b - a, a)
            }
        };
        let active = lhs.and(&rhs.not());
        let mut x: Vec<f64> = (0..lhs.len())
            .map(|i| if rhs.get(i) { 1.0 } else { 0.0 })
            .collect();
        let mut next = vec![0.0; x.len()];
        for _ in 0..window {
            engine.step(&x, Some(&active), &mut next);
            // rhs states stay 1, failure states stay 0.
            for (i, v) in next.iter_mut().enumerate() {
                if rhs.get(i) {
                    *v = 1.0;
                } else if !lhs.get(i) {
                    *v = 0.0;
                }
            }
            std::mem::swap(&mut x, &mut next);
        }
        for _ in 0..prefix {
            engine.step(&x, Some(lhs), &mut next);
            // Non-lhs states die during the prefix (rhs does not absorb yet).
            for (i, v) in next.iter_mut().enumerate() {
                if !lhs.get(i) {
                    *v = 0.0;
                }
            }
            std::mem::swap(&mut x, &mut next);
        }
        Ok(Arc::new(x))
    }

    fn reward_query(
        &self,
        q: &RewardQuery,
        engine: Engine<'_>,
        opts: &CheckOptions,
    ) -> Result<EngineValue, PctlError> {
        let exact = |v: f64| Ok((v, Solver::Transient, Some((v, v))));
        let vio = ViOptions::default();
        match (q, engine) {
            (RewardQuery::Instantaneous(t), Engine::Chain(d)) => {
                exact(transient::instantaneous_reward(d, *t as usize))
            }
            (RewardQuery::Cumulative(t), Engine::Chain(d)) => {
                // Σ_{k=0}^{t-1} expected reward at step k (reward of the
                // state occupied at each of the first t steps).
                exact(
                    transient::instantaneous_reward_series(d, (*t as usize).saturating_sub(1))
                        .iter()
                        .sum(),
                )
            }
            (RewardQuery::Instantaneous(t), Engine::Mdp(m, opt)) => {
                let vals = vi::instantaneous_reward_values(m, *t as usize, opt, &vio);
                exact(expectation(m.initial(), &vals))
            }
            (RewardQuery::Cumulative(t), Engine::Mdp(m, opt)) => {
                let vals = vi::cumulative_reward_values(m, *t as usize, opt, &vio);
                exact(expectation(m.initial(), &vals))
            }
            (RewardQuery::Reach(phi), _) => {
                self.certify_operands(opts, &[phi])?;
                let target = self.sat_states(phi)?;
                if let Some(eps) = opts.certify {
                    let cert = self.cert_reach_reward(&target, engine, eps)?;
                    return Ok(fold_certificate(self.model.initial(), &cert, false));
                }
                let vals = self.reach_reward(&target, engine)?;
                // Skip zero-mass initial states so `0 × ∞` cannot poison
                // the expectation with NaN.
                let v = self
                    .model
                    .initial()
                    .iter()
                    .filter(|&&(_, p)| p > 0.0)
                    .map(|&(s, p)| p * vals[s as usize])
                    .sum();
                Ok((v, Solver::Iterative, None))
            }
        }
    }

    /// Per-state unbounded until values, memoized on the operand sets and
    /// the direction. `F φ` and `G ¬φ` pass an all-ones `lhs`.
    fn until(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        engine: Engine<'_>,
    ) -> Result<Arc<Vec<f64>>, PctlError> {
        let key = || (lhs.clone(), rhs.clone(), engine.opt());
        self.memo(
            CacheKind::Values,
            |c| c.until.get(&key()).cloned(),
            |c, v| {
                c.until.insert(key(), v);
            },
            |ev| {
                let cond = ev.condensation();
                Ok(Arc::new(match engine {
                    Engine::Chain(d) => solve::topo_until_values(
                        d,
                        &cond,
                        lhs,
                        rhs,
                        UNBOUNDED_TOL,
                        UNBOUNDED_MAX_ITER,
                    )?,
                    Engine::Mdp(m, opt) => {
                        vi::topo_until_values(m, &cond, lhs, rhs, opt, &ViOptions::default())?
                    }
                }))
            },
        )
    }

    /// The expected reward accumulated strictly before first reaching a
    /// `target`-state, *from every state* (PRISM's `R=? [ F φ ]`
    /// semantics: the target state's own reward is not counted, and states
    /// from which the target is not reached almost surely — under the
    /// query's quantifier on an MDP — get `f64::INFINITY`, decided on the
    /// graph). Memoized on the target set and the direction.
    fn reach_reward(
        &self,
        target: &BitVec,
        engine: Engine<'_>,
    ) -> Result<Arc<Vec<f64>>, PctlError> {
        let key = || (target.clone(), engine.opt());
        self.memo(
            CacheKind::Values,
            |c| c.reach_reward.get(&key()).cloned(),
            |c, v| {
                c.reach_reward.insert(key(), v);
            },
            |ev| {
                let cond = ev.condensation();
                Ok(Arc::new(match engine {
                    Engine::Chain(d) => solve::topo_reach_reward_values(
                        d,
                        &cond,
                        target,
                        UNBOUNDED_TOL,
                        UNBOUNDED_MAX_ITER,
                    )?,
                    Engine::Mdp(m, opt) => {
                        vi::topo_reach_reward_values(m, &cond, target, opt, &ViOptions::default())?
                    }
                }))
            },
        )
    }

    /// Certified unbounded until on the condensation, memoized on
    /// `(lhs, rhs, direction, ε)`.
    fn cert_until(
        &self,
        lhs: &BitVec,
        rhs: &BitVec,
        engine: Engine<'_>,
        eps: f64,
    ) -> Result<Arc<CertifiedValues>, PctlError> {
        let key = || (lhs.clone(), rhs.clone(), engine.opt(), eps.to_bits());
        self.memo(
            CacheKind::Certified,
            |c| c.cert_until.get(&key()).cloned(),
            |c, v| {
                c.cert_until.insert(key(), v);
            },
            |ev| {
                let cond = ev.condensation();
                Ok(Arc::new(match engine {
                    Engine::Chain(d) => solve::topo_interval_until_values(
                        d,
                        &cond,
                        lhs,
                        rhs,
                        eps,
                        CERTIFIED_MAX_ITER,
                    )?,
                    Engine::Mdp(m, opt) => vi::topo_certified_until_values(
                        m,
                        &cond,
                        lhs,
                        rhs,
                        opt,
                        eps,
                        &certified_vi(),
                    )?,
                }))
            },
        )
    }

    /// Certified reachability reward on the condensation, memoized on
    /// `(target, direction, ε)`.
    fn cert_reach_reward(
        &self,
        target: &BitVec,
        engine: Engine<'_>,
        eps: f64,
    ) -> Result<Arc<CertifiedValues>, PctlError> {
        let key = || (target.clone(), engine.opt(), eps.to_bits());
        self.memo(
            CacheKind::Certified,
            |c| c.cert_reach_reward.get(&key()).cloned(),
            |c, v| {
                c.cert_reach_reward.insert(key(), v);
            },
            |ev| {
                let cond = ev.condensation();
                Ok(Arc::new(match engine {
                    Engine::Chain(d) => solve::topo_interval_reach_reward_values(
                        d,
                        &cond,
                        target,
                        eps,
                        CERTIFIED_MAX_ITER,
                    )?,
                    Engine::Mdp(m, opt) => vi::topo_certified_reach_reward_values(
                        m,
                        &cond,
                        target,
                        opt,
                        eps,
                        &certified_vi(),
                    )?,
                }))
            },
        )
    }

    /// The long-run probability of being in a `sat`-state (the Cesàro
    /// limit, which exists for periodic chains too), memoized on the set:
    /// `Σ_B P(◇B)·π_B(sat)` over the bottom SCCs of the session's
    /// condensation ([`solve::steady_state_prob`]).
    fn steady_prob(&self, dtmc: &Dtmc, sat: &BitVec) -> Result<f64, PctlError> {
        self.memo(
            CacheKind::Steady,
            |c| c.steady.get(sat).copied(),
            |c, v| {
                c.steady.insert(sat.clone(), v);
            },
            |ev| {
                Ok(solve::steady_state_prob(
                    dtmc,
                    &ev.condensation(),
                    sat,
                    STEADY_TOL,
                    STEADY_MAX_STEPS,
                )?)
            },
        )
    }
}

/// The MDP value-iteration options of a certified solve: the defaults with
/// the certified iteration budget (interval iteration closes a width, not
/// a residual).
fn certified_vi() -> ViOptions {
    ViOptions {
        max_iter: CERTIFIED_MAX_ITER,
        ..ViOptions::default()
    }
}

/// The expectation of per-state values under an initial distribution.
fn expectation(initial: &[(StateId, f64)], vals: &[f64]) -> f64 {
    initial.iter().map(|&(s, p)| p * vals[s as usize]).sum()
}

/// A collision-free serialization of a state formula, used as the
/// satisfaction-set cache key.
///
/// `Display` would be the obvious key but is **not injective**: label
/// names are arbitrary strings (`Dtmc::new` accepts any map key and
/// [`StateFormula::ap`] any name), so `Not(Ap("x"))` and `Ap("!x")` both
/// render as `!x` and would alias one cache slot. Here every operator
/// carries a distinct tag with explicit delimiters, atom names are quoted
/// with `\`-escaping, and probability thresholds are serialized by bit
/// pattern (two textual spellings of one float cannot diverge, and two
/// different floats cannot collide).
fn sat_key(formula: &StateFormula) -> String {
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

/// Folds a per-state certificate over an initial distribution: both
/// bounds fold linearly (the expectation of a bracketed value stays inside
/// the folded bracket), zero-mass states are skipped so `0 × ∞` cannot
/// poison reward expectations, and the reported point value is the
/// interval midpoint. `complement` maps a bracket of `F ¬φ` to one of
/// `G φ`, swapping the ends.
fn fold_certificate(
    initial: &[(StateId, f64)],
    cert: &CertifiedValues,
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
fn is_unbounded_path(path: &PathFormula) -> bool {
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

/// The state formulas a path formula is built from.
fn operands(path: &PathFormula) -> Vec<&StateFormula> {
    match path {
        PathFormula::Until { lhs, rhs, .. } => vec![lhs, rhs],
        PathFormula::Next(f)
        | PathFormula::Finally { inner: f, .. }
        | PathFormula::Globally { inner: f, .. } => vec![f],
    }
}

/// Whether a state formula nests a `P⋈p [...]` operator over an
/// *unbounded* path formula. Such a satisfaction set can only be computed
/// by residual-test value iteration: a certified run rejects it
/// (otherwise the outer "sound" interval would be built on an uncertified
/// target set), and a default run tags the result with the iterative
/// solver and no interval. Bounded nested operators are exact arithmetic
/// and fine.
fn nests_unbounded_prob(formula: &StateFormula) -> bool {
    match formula {
        StateFormula::True | StateFormula::False | StateFormula::Ap(_) => false,
        StateFormula::Not(f) => nests_unbounded_prob(f),
        StateFormula::And(a, b) | StateFormula::Or(a, b) | StateFormula::Implies(a, b) => {
            nests_unbounded_prob(a) || nests_unbounded_prob(b)
        }
        StateFormula::Prob { path, .. } => path_iterates(path),
    }
}

/// Whether a path formula's value comes from unbounded iteration: it is
/// an unbounded operator itself, or one of its operands nests one.
fn path_iterates(path: &PathFormula) -> bool {
    is_unbounded_path(path) || operands(path).iter().any(|f| nests_unbounded_prob(f))
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

    /// The path formula's probability from the initial distribution by the
    /// backward evaluator (per-state values, folded).
    fn backward(dtmc: &Dtmc, path: &PathFormula) -> f64 {
        let vals = Evaluator::uncached(Model::Dtmc(dtmc))
            .path_values(path, Engine::Chain(dtmc))
            .unwrap();
        expectation(dtmc.initial(), &vals)
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
            let bwd = backward(&d, &path);
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
        let vals = Evaluator::uncached(Model::Dtmc(&d))
            .reach_reward(&target, Engine::Chain(&d))
            .unwrap();
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
                let bwd = backward(&d, &path);
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

    /// The reset counter: `x < n` moves up or back to 0 with ½ each, `x = n`
    /// is the absorbing `goal`. Escaping the loop takes ~2^n attempts, so
    /// residual iteration stops near 0 while the truth is 1.
    fn reset_counter(n: u32) -> Dtmc {
        let rows = (0..=n)
            .map(|x| {
                if x < n {
                    vec![(x + 1, 0.5), (0, 0.5)]
                } else {
                    vec![(x, 1.0)]
                }
            })
            .collect();
        chain(rows, &[("goal", &[n as usize])], vec![0.0; n as usize + 1])
    }

    /// walk.sm's layered channel at `n` ticks: state `2t + e` holds tick
    /// `t` and the latched error flag `e`, which latches with probability
    /// `5e-4` per tick.
    fn layered_channel(n: u32) -> Dtmc {
        let id = |t: u32, e: u32| 2 * t + e;
        let mut rows = Vec::new();
        for t in 0..=n {
            for e in 0..2 {
                rows.push(if t == n {
                    vec![(id(t, e), 1.0)]
                } else if e == 0 {
                    vec![(id(t + 1, 1), 5e-4), (id(t + 1, 0), 1.0 - 5e-4)]
                } else {
                    vec![(id(t + 1, 1), 1.0)]
                });
            }
        }
        let err: Vec<usize> = (0..=n).map(|t| id(t, 1) as usize).collect();
        chain(rows, &[("err", &err)], vec![0.0; 2 * n as usize + 2])
    }

    /// Results whose formula nests an unbounded `P⋈p` come from residual
    /// iteration, whatever the outer operator: they are tagged
    /// `value-iteration` and claim no interval. Values and verdicts are
    /// the residual answers (the reset counter's verdict and nested value
    /// are wrong; the tag now says so).
    #[test]
    fn nested_unbounded_prob_is_tagged_iterative() {
        let check = |d: &Dtmc, prop: &str| check_query(d, &parse_property(prop).unwrap()).unwrap();
        let reset = reset_counter(200);
        let r = check(&reset, "P>=1 [ F goal ]");
        assert_eq!(r.verdict(), Some(false));
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
        let r = check(&reset, "P=? [ F<=10 P>=0.5 [ F goal ] ]");
        assert_eq!(r.value(), 0.0);
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
        let r = check(&layered_channel(40), "P<0.9 [ F err ]");
        assert_eq!(r.verdict(), Some(true));
        assert_eq!(r.solver(), Solver::Iterative);
        // Bounded nesting and plain labels stay exact.
        let d = gadget();
        let r = check(&d, "P=? [ F<=3 P>=0.4 [ F<=2 goal ] ]");
        assert_eq!(r.solver(), Solver::Transient);
        assert_eq!(r.interval(), Some((r.value(), r.value())));
        assert_eq!(check(&d, "P>=0.2 [ X bad ]").solver(), Solver::Transient);
        assert_eq!(check(&d, "!goal").solver(), Solver::Transient);
    }
}
