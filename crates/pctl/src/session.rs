//! Checking sessions: one entry point over DTMCs and MDPs with shared
//! precomputation across a whole property family.
//!
//! The paper's workload is never "one property, once" — every table checks
//! a family of properties (P1/P2/P3, BER-style metrics) against the same
//! model. [`CheckSession`] packages that batch shape: it owns an
//! [`AnyModel`] (chain or MDP), runs each [`Property`] through the one
//! checker ([`crate::check`]), and memoizes the work that related
//! properties share in one cache —
//! satisfaction sets of common subformulas, unbounded
//! reachability/until/reward value vectors, and certified interval
//! brackets (whose qualitative `Prob0`/`Prob1`/MEC pre-passes dominate
//! the per-query cost on MDPs). Transposes are cached inside the model
//! itself ([`smg_dtmc::CsrMatrix`] builds them lazily, once), so they are
//! shared simply because the session keeps one model alive across calls.
//!
//! Because the session *owns* the model and models are immutable, cache
//! invalidation is by construction: an entry, once computed, is valid for
//! the session's lifetime. Cache keys are the exact solver inputs (operand
//! bit-sets, optimization direction, ε bit pattern), and the cached and
//! uncached paths execute the same code, so batching never changes an
//! answer — `tests/session_identity.rs` in the workspace pins
//! `check_all` ≡ one-by-one `check_query`/`check_mdp_query` over
//! randomized models and batches, in both plain and certified modes.

use crate::ast::{Property, StateFormula};
use crate::check::{Cache, CheckOptions, CheckResult, Evaluator, Model};
use crate::error::PctlError;
use smg_dtmc::{BitVec, Dtmc, DtmcError};
use smg_mdp::Mdp;
use smg_obs as obs;
use std::cell::RefCell;

/// An explicit model of either family — the common currency between the
/// language front end ([`smg-lang`'s] `compile_any`), the CLI, and
/// [`CheckSession`]. Callers that don't care whether a program declared
/// `dtmc` or `mdp` can hold an `AnyModel` and let the session dispatch.
///
/// [`smg-lang`'s]: https://docs.rs/smg-lang
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// A discrete-time Markov chain.
    Dtmc(Dtmc),
    /// A Markov decision process.
    Mdp(Mdp),
}

impl AnyModel {
    /// The model family as a lowercase tag (`"dtmc"` / `"mdp"`), the same
    /// words the modeling language uses as headers.
    pub fn kind(&self) -> &'static str {
        match self {
            AnyModel::Dtmc(_) => "dtmc",
            AnyModel::Mdp(_) => "mdp",
        }
    }

    /// Whether the model carries nondeterminism (quantitative queries then
    /// need the `Pmin`/`Pmax`/`Rmin`/`Rmax` forms).
    pub fn is_mdp(&self) -> bool {
        matches!(self, AnyModel::Mdp(_))
    }

    /// Number of states.
    pub fn n_states(&self) -> usize {
        match self {
            AnyModel::Dtmc(d) => d.n_states(),
            AnyModel::Mdp(m) => m.n_states(),
        }
    }

    /// The state set of a label.
    ///
    /// # Errors
    ///
    /// [`DtmcError::UnknownLabel`] when the label does not exist.
    pub fn label(&self, name: &str) -> Result<&BitVec, DtmcError> {
        match self {
            AnyModel::Dtmc(d) => d.label(name),
            AnyModel::Mdp(m) => m.label(name),
        }
    }

    /// Label names, in the model's storage order.
    pub fn label_names(&self) -> Vec<&str> {
        match self {
            AnyModel::Dtmc(d) => d.label_names(),
            AnyModel::Mdp(m) => m.label_names(),
        }
    }

    /// The chain, when this is one.
    pub fn as_dtmc(&self) -> Option<&Dtmc> {
        match self {
            AnyModel::Dtmc(d) => Some(d),
            AnyModel::Mdp(_) => None,
        }
    }

    /// The MDP, when this is one.
    pub fn as_mdp(&self) -> Option<&Mdp> {
        match self {
            AnyModel::Dtmc(_) => None,
            AnyModel::Mdp(m) => Some(m),
        }
    }

    /// The borrowed view the checker evaluates over.
    fn view(&self) -> Model<'_> {
        match self {
            AnyModel::Dtmc(d) => Model::Dtmc(d),
            AnyModel::Mdp(m) => Model::Mdp(m),
        }
    }
}

impl From<Dtmc> for AnyModel {
    fn from(d: Dtmc) -> AnyModel {
        AnyModel::Dtmc(d)
    }
}

impl From<Mdp> for AnyModel {
    fn from(m: Mdp) -> AnyModel {
        AnyModel::Mdp(m)
    }
}

/// The kinds of memoized work a session's cache distinguishes. Each memo
/// lookup of the checker is tagged with one of these, so
/// telemetry can attribute hits to the family of precomputation they
/// saved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// Satisfaction bit-sets of (sub)formulas.
    Sat,
    /// Numeric value vectors (reachability, until, reachability rewards).
    Values,
    /// Certified `[lo, hi]` brackets from interval iteration.
    Certified,
    /// Long-run (steady-state) probabilities.
    Steady,
}

impl CacheKind {
    /// Every kind, in reporting order.
    pub const ALL: [CacheKind; 4] = [
        CacheKind::Sat,
        CacheKind::Values,
        CacheKind::Certified,
        CacheKind::Steady,
    ];

    /// The stable label used in JSON output and metric labels.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::Sat => "sat",
            CacheKind::Values => "values",
            CacheKind::Certified => "certified",
            CacheKind::Steady => "steady",
        }
    }
}

/// Hit/miss counters for one [`CacheKind`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that computed (and stored) a fresh entry.
    pub misses: u64,
}

/// Cache telemetry of a session: how many memoized lookups were answered
/// from the cache versus computed, broken down by [`CacheKind`].
/// `hits() > 0` across a `check_all` batch is the signature of shared
/// precomputation actually paying off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Satisfaction-set lookups.
    pub sat: KindStats,
    /// Value-vector lookups (reach, until, reachability rewards).
    pub values: KindStats,
    /// Certified-bracket lookups.
    pub certified: KindStats,
    /// Steady-state lookups.
    pub steady: KindStats,
}

impl CacheStats {
    /// The counters for one kind.
    pub fn kind(&self, kind: CacheKind) -> KindStats {
        match kind {
            CacheKind::Sat => self.sat,
            CacheKind::Values => self.values,
            CacheKind::Certified => self.certified,
            CacheKind::Steady => self.steady,
        }
    }

    /// Total lookups answered from the cache, across all kinds.
    pub fn hits(&self) -> u64 {
        CacheKind::ALL.iter().map(|&k| self.kind(k).hits).sum()
    }

    /// Total lookups that had to compute, across all kinds.
    pub fn misses(&self) -> u64 {
        CacheKind::ALL.iter().map(|&k| self.kind(k).misses).sum()
    }

    fn slot(&mut self, kind: CacheKind) -> &mut KindStats {
        match kind {
            CacheKind::Sat => &mut self.sat,
            CacheKind::Values => &mut self.values,
            CacheKind::Certified => &mut self.certified,
            CacheKind::Steady => &mut self.steady,
        }
    }

    /// Counts one cache hit (and reports it through the instrumentation
    /// seam).
    pub(crate) fn record_hit(&mut self, kind: CacheKind) {
        self.slot(kind).hits += 1;
        obs::counter_add(
            "smg_session_cache_hits_total",
            Some(("kind", kind.as_str())),
            1,
        );
    }

    /// Counts one cache miss (and reports it through the instrumentation
    /// seam).
    pub(crate) fn record_miss(&mut self, kind: CacheKind) {
        self.slot(kind).misses += 1;
        obs::counter_add(
            "smg_session_cache_misses_total",
            Some(("kind", kind.as_str())),
            1,
        );
    }
}

/// A batch-oriented checking session over one immutable model.
///
/// Built with [`CheckSession::new`] and the builder methods
/// ([`certified`](CheckSession::certified),
/// [`threads`](CheckSession::threads)); queried with
/// [`check`](CheckSession::check), [`check_all`](CheckSession::check_all)
/// and [`sat`](CheckSession::sat). Results are exactly what the
/// corresponding free functions ([`crate::check_query_with`] /
/// [`crate::check_mdp_query_with`]) return — the session only adds
/// dispatch over the model family and the shared precomputation cache.
///
/// # Example
///
/// ```
/// use smg_dtmc::{explore, DtmcModel, ExploreOptions};
/// use smg_pctl::{parse_property, CheckSession};
///
/// struct Coin;
/// impl DtmcModel for Coin {
///     type State = bool;
///     fn initial_states(&self) -> Vec<(bool, f64)> { vec![(false, 1.0)] }
///     fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
///         vec![(false, 0.5), (true, 0.5)]
///     }
///     fn atomic_propositions(&self) -> Vec<&'static str> { vec!["heads"] }
///     fn holds(&self, ap: &str, s: &bool) -> bool { ap == "heads" && *s }
///     fn state_reward(&self, s: &bool) -> f64 { if *s { 1.0 } else { 0.0 } }
/// }
///
/// let e = explore(&Coin, &ExploreOptions::default())?;
/// let session = CheckSession::new(e.dtmc);
/// let family = [
///     parse_property("P=? [ F heads ]")?,
///     parse_property("P=? [ G !heads ]")?, // shares the reachability solve
///     parse_property("R=? [ F heads ]")?,  // shares the qualitative pre-pass
/// ];
/// let results = session.check_all(&family)?;
/// assert!((results[0].value() - 1.0).abs() < 1e-9);
/// assert!(results[1].value().abs() < 1e-9);
/// assert!(session.cache_stats().hits() > 0); // the batch shared real work
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CheckSession {
    model: AnyModel,
    opts: CheckOptions,
    /// Explicit worker-lane pin from [`CheckSession::threads`]; queries run
    /// inside [`smg_dtmc::par::with_lane_scope`] when set, which pins the
    /// chain kernels and the MDP backups alike.
    lanes: Option<usize>,
    cache: RefCell<Cache>,
}

impl CheckSession {
    /// Opens a session over a model (anything convertible into an
    /// [`AnyModel`]: a [`Dtmc`], an [`Mdp`], or an `AnyModel` itself).
    pub fn new(model: impl Into<AnyModel>) -> CheckSession {
        CheckSession {
            model: model.into(),
            opts: CheckOptions::default(),
            lanes: None,
            cache: RefCell::new(Cache::default()),
        }
    }

    /// Requests certified interval iteration with width below `epsilon`
    /// for every unbounded query of this session (see
    /// [`CheckOptions::certified`]).
    #[must_use]
    pub fn certified(mut self, epsilon: f64) -> CheckSession {
        self.opts = CheckOptions::certified(epsilon);
        self
    }

    /// Replaces the session's checking options wholesale.
    #[must_use]
    pub fn with_options(mut self, opts: CheckOptions) -> CheckSession {
        self.opts = opts;
        self
    }

    /// Dispatches this session's solver kernels on a persistent pool of
    /// `n` worker lanes (a lane count of 1 is the sequential fallback;
    /// results are bit-identical for every lane count). One thread-local
    /// lane scope ([`smg_dtmc::par::with_lane_scope`]) wrapped around every
    /// query pins **both** engines: the DTMC chain kernels (the
    /// condensation walk's batches of trivial components, backward
    /// products) and the MDP value-iteration backups and batches all
    /// dispatch on [`smg_dtmc::par::scoped_pool`], so `SMG_THREADS` does
    /// not leak through. Pools are process-wide resources shared by every
    /// scope requesting the same lane count, so building sessions in a
    /// loop does not accumulate threads.
    #[must_use]
    pub fn threads(mut self, n: usize) -> CheckSession {
        self.lanes = Some(n.max(1));
        self
    }

    /// Replaces the session's checking options **in place** — the
    /// non-consuming form of [`with_options`](CheckSession::with_options),
    /// for sessions shared behind a lock (a resident daemon serves many
    /// requests, each with its own `certified` width, through one
    /// long-lived session). Changing options never invalidates the caches:
    /// cache keys embed the exact solver inputs (operand bit-sets,
    /// optimization direction, ε bit pattern), so entries computed under
    /// other options simply stop matching — memoization can only skip
    /// recomputation, never change an answer.
    pub fn set_options(&mut self, opts: CheckOptions) {
        self.opts = opts;
    }

    /// Sets or clears the worker-lane pin in place — the non-consuming
    /// form of [`threads`](CheckSession::threads). `Some(n)` pins both
    /// engines to an `n`-lane pool (clamped to at least one); `None`
    /// restores the default dispatch (`SMG_THREADS` / core count). Like
    /// [`set_options`](CheckSession::set_options), this is safe on a
    /// session whose caches are already warm: lane count never changes
    /// results, only where the sweeps run.
    pub fn set_threads(&mut self, n: Option<usize>) {
        self.lanes = n.map(|n| n.max(1));
    }

    /// Runs `f` under this session's lane pin, if one was requested.
    fn with_lanes<R>(&self, f: impl FnOnce() -> R) -> R {
        match self.lanes {
            Some(n) => smg_dtmc::par::with_lane_scope(n, f),
            None => f(),
        }
    }

    /// The model this session checks.
    pub fn model(&self) -> &AnyModel {
        &self.model
    }

    /// The options every query of this session runs with.
    pub fn options(&self) -> &CheckOptions {
        &self.opts
    }

    /// Consumes the session, returning the model.
    pub fn into_model(self) -> AnyModel {
        self.model
    }

    /// Checks one property, dispatching on the model family.
    ///
    /// # Errors
    ///
    /// As for [`crate::check_query_with`] (chains) and
    /// [`crate::check_mdp_query_with`] (MDPs) — unknown labels,
    /// non-convergence, scheduler-ambiguous query forms on MDPs,
    /// uncertifiable formulas in certified mode.
    pub fn check(&self, property: &Property) -> Result<CheckResult, PctlError> {
        self.with_lanes(|| {
            Evaluator::cached(self.model.view(), &self.cache).check(property, &self.opts)
        })
    }

    /// Checks a property family in order, sharing precomputation across
    /// the batch; fails fast on the first erroring property.
    ///
    /// # Errors
    ///
    /// As for [`CheckSession::check`].
    pub fn check_all(&self, properties: &[Property]) -> Result<Vec<CheckResult>, PctlError> {
        properties.iter().map(|p| self.check(p)).collect()
    }

    /// The satisfaction set of a state formula (memoized like everything
    /// else in the session).
    ///
    /// # Errors
    ///
    /// As for [`crate::sat_states`] (chains) and [`crate::sat_states_mdp`]
    /// (MDPs; nested `P⋈p` operators are rejected there).
    pub fn sat(&self, formula: &StateFormula) -> Result<BitVec, PctlError> {
        self.with_lanes(|| Evaluator::cached(self.model.view(), &self.cache).sat_states(formula))
    }

    /// Cache telemetry accumulated so far, per cache kind.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{
        check_mdp_query, check_mdp_query_with, check_query, check_query_with, Solver,
    };
    use crate::parser::parse_property;
    use smg_mdp::MdpBuilder;
    use std::collections::BTreeMap;

    /// The DTMC checker's test gadget: 0 →(.5) 1 | 2; 1 →(.5) goal | 0;
    /// 2 absorbing "bad"; 3 absorbing "goal" with reward 1.
    fn gadget() -> Dtmc {
        use smg_dtmc::{matrix::CsrMatrix, TransitionMatrix};
        let rows = vec![
            vec![(1u32, 0.5), (2, 0.5)],
            vec![(0, 0.5), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
        ];
        let matrix = TransitionMatrix::Sparse(CsrMatrix::from_rows(rows).unwrap());
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 3));
        labels.insert("bad".to_string(), BitVec::from_fn(4, |i| i == 2));
        Dtmc::new(matrix, vec![(0, 1.0)], labels, vec![0.0, 0.0, 0.0, 1.0]).unwrap()
    }

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

    const DTMC_FAMILY: &[&str] = &[
        "P=? [ F goal ]",
        "P=? [ G !goal ]",
        "R=? [ F goal ]",
        "P>=0.5 [ F goal ]",
        "P=? [ F<=4 goal ]",
        "S=? [ bad ]",
    ];

    #[test]
    fn dtmc_batch_matches_one_by_one_and_hits_cache() {
        let d = gadget();
        let session = CheckSession::new(d.clone());
        let props: Vec<_> = DTMC_FAMILY
            .iter()
            .map(|p| parse_property(p).unwrap())
            .collect();
        let batch = session.check_all(&props).unwrap();
        for (p, r) in props.iter().zip(&batch) {
            let solo = check_query(&d, p).unwrap();
            assert_eq!(solo.value().to_bits(), r.value().to_bits(), "{p}");
            assert_eq!(solo.interval(), r.interval(), "{p}");
            assert_eq!(solo.solver(), r.solver(), "{p}");
            assert_eq!(solo.verdict(), r.verdict(), "{p}");
        }
        // `F goal`, `G !goal`, `R [F goal]` and the threshold operator all
        // share the one unbounded reachability solve.
        let stats = session.cache_stats();
        assert!(stats.hits() >= 3, "stats = {stats:?}");
        assert!(stats.misses() > 0);
    }

    #[test]
    fn certified_batch_matches_one_by_one() {
        let d = gadget();
        let session = CheckSession::new(d.clone()).certified(1e-9);
        let props: Vec<_> = [
            "P=? [ F goal ]",
            "P=? [ G !goal ]",
            "R=? [ F (goal | bad) ]",
        ]
        .iter()
        .map(|p| parse_property(p).unwrap())
        .collect();
        let opts = CheckOptions::certified(1e-9);
        let batch = session.check_all(&props).unwrap();
        for (p, r) in props.iter().zip(&batch) {
            let solo = check_query_with(&d, p, &opts).unwrap();
            assert_eq!(solo.value().to_bits(), r.value().to_bits(), "{p}");
            assert_eq!(solo.interval(), r.interval(), "{p}");
            assert_eq!(solo.solver(), r.solver(), "{p}");
        }
        assert_eq!(batch[0].solver(), Solver::IntervalIteration);
        // F goal and G !goal share a certified bracket: the G query's
        // target set ¬(¬goal) is bit-identical to goal.
        assert!(session.cache_stats().hits() > 0);
    }

    #[test]
    fn mdp_batch_matches_one_by_one() {
        let m = gadget_mdp();
        let props: Vec<_> = [
            "Pmax=? [ F goal ]",
            "Pmin=? [ G !goal ]",
            "Rmax=? [ F goal ]",
            "Pmax=? [ F<=4 goal ]",
            "!goal",
        ]
        .iter()
        .map(|p| parse_property(p).unwrap())
        .collect();
        for certified in [false, true] {
            let opts = if certified {
                CheckOptions::certified(1e-9)
            } else {
                CheckOptions::default()
            };
            let session = CheckSession::new(m.clone()).with_options(opts);
            let batch = session.check_all(&props).unwrap();
            for (p, r) in props.iter().zip(&batch) {
                let solo = check_mdp_query_with(&m, p, &opts).unwrap();
                assert_eq!(solo.value().to_bits(), r.value().to_bits(), "{p}");
                assert_eq!(solo.interval(), r.interval(), "{p}");
                assert_eq!(solo.solver(), r.solver(), "{p}");
            }
            // Pmax [F goal] and Pmin [G !goal] share work (the G query
            // duals to a Pmax reachability of the complement-complement
            // set); goal's sat-set is shared everywhere.
            assert!(session.cache_stats().hits() > 0, "certified={certified}");
        }
    }

    #[test]
    fn session_dispatches_errors_like_the_free_functions() {
        let m = gadget_mdp();
        let session = CheckSession::new(m.clone());
        let plain = parse_property("P=? [ F goal ]").unwrap();
        let e = session.check(&plain).unwrap_err();
        assert!(matches!(e, PctlError::Unsupported { .. }));
        assert!(check_mdp_query(&m, &plain).is_err());
        // check_all fails fast but leaves the session usable.
        let props = vec![parse_property("Pmax=? [ F goal ]").unwrap(), plain];
        assert!(session.check_all(&props).is_err());
        assert!(session.check(&props[0]).is_ok());
    }

    #[test]
    fn any_model_accessors() {
        let am: AnyModel = gadget().into();
        assert_eq!(am.kind(), "dtmc");
        assert!(!am.is_mdp());
        assert_eq!(am.n_states(), 4);
        assert!(am.as_dtmc().is_some() && am.as_mdp().is_none());
        assert_eq!(am.label("goal").unwrap().count_ones(), 1);
        assert!(am.label("nope").is_err());
        let mut names = am.label_names();
        names.sort_unstable();
        assert_eq!(names, vec!["bad", "goal"]);
        let am: AnyModel = gadget_mdp().into();
        assert_eq!(am.kind(), "mdp");
        assert!(am.is_mdp() && am.as_mdp().is_some());
    }

    #[test]
    fn sat_cache_does_not_alias_tricky_label_names() {
        use smg_dtmc::{matrix::CsrMatrix, TransitionMatrix};
        // A label literally named "!x": under Display both Ap("!x") and
        // Not(Ap("x")) render as `!x`, so a Display-keyed cache would
        // alias them. Both label sets are {0}, so the two formulas have
        // *different* satisfaction sets ({0} vs {1}).
        let matrix = TransitionMatrix::Sparse(
            CsrMatrix::from_rows(vec![vec![(1u32, 1.0)], vec![(1, 1.0)]]).unwrap(),
        );
        let mut labels = BTreeMap::new();
        labels.insert("x".to_string(), BitVec::from_fn(2, |i| i == 0));
        labels.insert("!x".to_string(), BitVec::from_fn(2, |i| i == 0));
        let d = Dtmc::new(matrix, vec![(0, 1.0)], labels, vec![0.0, 0.0]).unwrap();
        use crate::ast::StateFormula;
        for first_not in [false, true] {
            let session = CheckSession::new(d.clone());
            let not_x = StateFormula::ap("x").not();
            let ap_bang_x = StateFormula::ap("!x");
            let (a, b) = if first_not {
                (
                    session.sat(&not_x).unwrap(),
                    session.sat(&ap_bang_x).unwrap(),
                )
            } else {
                let b = session.sat(&ap_bang_x).unwrap();
                (session.sat(&not_x).unwrap(), b)
            };
            assert_eq!(a, BitVec::from_fn(2, |i| i == 1), "!x as negation");
            assert_eq!(b, BitVec::from_fn(2, |i| i == 0), "\"!x\" as atom");
        }
    }

    #[test]
    fn shared_pools_are_reused_per_lane_count() {
        // A session's lane pin dispatches on the scope's pool, which is
        // created once per lane count and shared.
        let pool = || smg_dtmc::par::with_lane_scope(3, smg_dtmc::par::scoped_pool);
        assert!(
            std::ptr::eq(pool(), pool()),
            "same lane count must share one pool"
        );
    }

    #[test]
    fn threads_pins_dtmc_kernels_and_answers_match() {
        // Large enough to clear the 4k-row parallel threshold, so the lane
        // scope actually routes the chain kernels; every lane count must
        // produce a sound (and here bit-identical) certified answer.
        let chain = smg_dtmc::synthetic::layered_chain(50, 120);
        let props: Vec<_> = ["P=? [ F target ]", "R=? [ F absorbing ]"]
            .iter()
            .map(|p| parse_property(p).unwrap())
            .collect();
        let base = CheckSession::new(chain.clone()).certified(1e-9);
        let baseline = base.check_all(&props).unwrap();
        for lanes in [1usize, 2, 3] {
            let pinned = CheckSession::new(chain.clone())
                .certified(1e-9)
                .threads(lanes);
            for (b, r) in baseline.iter().zip(&pinned.check_all(&props).unwrap()) {
                let (blo, bhi) = b.interval().unwrap();
                let (rlo, rhi) = r.interval().unwrap();
                assert!(rhi - rlo < 1e-9, "lanes={lanes}");
                assert!(rlo <= bhi + 1e-12 && blo <= rhi + 1e-12, "lanes={lanes}");
            }
        }
    }

    /// The daemon shares one session per resident model behind a
    /// `Mutex<CheckSession>`, so the session must be `Send` (moved into
    /// handler threads) even though its caches are single-owner
    /// `RefCell`s. This is a compile-time contract: losing `Send` (say
    /// by caching an `Rc`) breaks resident serving.
    #[test]
    fn sessions_are_send_for_locked_sharing() {
        fn assert_send<T: Send>() {}
        assert_send::<CheckSession>();
        assert_send::<std::sync::Mutex<CheckSession>>();
    }

    /// In-place option/thread mutation answers identically to a fresh
    /// session built with the consuming builders, and flipping options
    /// back and forth over a warm cache never changes an answer.
    #[test]
    fn set_options_and_set_threads_match_builders_on_warm_caches() {
        let props: Vec<_> = ["P=? [ F goal ]", "R=? [ F goal ]", "P=? [ G !bad ]"]
            .iter()
            .map(|p| parse_property(p).unwrap())
            .collect();
        let plain = CheckSession::new(gadget()).check_all(&props).unwrap();
        let certified = CheckSession::new(gadget())
            .certified(1e-8)
            .check_all(&props)
            .unwrap();

        let mut session = CheckSession::new(gadget());
        for _round in 0..2 {
            session.set_options(CheckOptions::default());
            session.set_threads(None);
            for (a, b) in plain.iter().zip(&session.check_all(&props).unwrap()) {
                assert_eq!(a.value().to_bits(), b.value().to_bits());
                assert_eq!(a.solver(), b.solver());
                assert_eq!(a.interval(), b.interval());
            }
            session.set_options(CheckOptions::certified(1e-8));
            session.set_threads(Some(2));
            for (a, b) in certified.iter().zip(&session.check_all(&props).unwrap()) {
                assert_eq!(a.value().to_bits(), b.value().to_bits());
                assert_eq!(a.solver(), b.solver());
                assert_eq!(a.interval(), b.interval());
            }
        }
        // `Some(n)` pins a lane scope, `None` clears the pin again.
        session.set_threads(Some(3));
        assert!(session.options().certify.is_some());
        session.set_threads(None);
    }

    #[test]
    fn sat_is_memoized_and_threads_builder_works() {
        let session = CheckSession::new(gadget()).threads(2);
        let f = parse_property("goal | bad").unwrap();
        let crate::ast::Property::Bool(f) = f else {
            unreachable!()
        };
        let a = session.sat(&f).unwrap();
        let before = session.cache_stats();
        let b = session.sat(&f).unwrap();
        assert_eq!(a, b);
        assert!(session.cache_stats().hits() > before.hits());
    }
}
