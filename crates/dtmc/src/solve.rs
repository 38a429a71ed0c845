//! Solvers for unbounded properties, on the SCC condensation.
//!
//! Every unbounded `P`/`R`/`S` answer, on chains and on MDPs, comes from
//! one level walk over a condensation ([`graph::Condensation`]),
//! [`topo_walk`]: components are solved one at a time in reverse
//! topological order (sinks first), with their already-solved successors
//! folded in as constants. Trivial (singleton) components collapse to a
//! closed-form backsubstitution; a level's batch of them is one measured
//! dispatch site, and a parallel batch writes the same bits as the
//! sequential loop. Non-trivial components run in-place (Gauss–Seidel
//! order) sweeps restricted to their own states. The walk is generic over
//! a [`RowBackup`], which supplies what differs per engine: this module's
//! drivers back up a chain's rows, and `smg-mdp`'s `vi::topo_*` drivers
//! back up one min/max query with its end-component correction. See
//! "Topological solving" below.
//!
//! # Default and certified modes
//!
//! The walk is generic over the value kept per state ([`LevelValue`]).
//! The default `topo_*` drivers keep one estimate and stop each component
//! on a *residual* test (`delta < tol`), which is well known to be
//! unsound: a slow-mixing chain can make consecutive iterates arbitrarily
//! close while both are arbitrarily far from the fixpoint
//! (`slow_mixing_chain_fools_residual_vi` in the tests constructs one).
//! The `topo_interval_*` drivers fix this with **interval iteration**
//! (Haddad & Monmege; Baier et al.): they keep a *lower* bound iterated up
//! from 0 and an *upper* bound iterated down from a sound seed, and stop a
//! component only when `upper − lower < ε` on it. Monotonicity of the
//! Bellman operator keeps `lo ≤ x* ≤ hi` at every sweep, so the returned
//! [`CertifiedValues`] is a machine-checked error certificate, not a
//! heuristic.
//!
//! Soundness of the seeds is *qualitative*, not numerical: a graph
//! pre-pass ([`graph::can_reach`]) pins states that cannot reach the
//! target to 0 (making the fixpoint unique, so both sequences converge to
//! it), and for expected rewards a finite hitting-probability probe turns
//! the graph bound into a finite upper seed `k·r_max/δ`.

use crate::bitvec::BitVec;
use crate::dtmc::Dtmc;
use crate::error::DtmcError;
use crate::graph;
use crate::matrix::TransitionMatrix;
use crate::par;
use smg_obs as obs;

/// Minimum states per chunk of a parallel trivial-component batch.
/// Matches the matrix kernels' chunking (half of
/// [`crate::par::PAR_MIN_ROWS`]), so a batch that clears the static
/// threshold always gets at least two chunks.
const PAR_MIN_CHUNK: usize = 2_048;

/// The condensation walk's trivial-batch site (work: batch states).
static TOPO_BATCH: par::Site = par::Site::new("topo_batch");

/// A per-state value bracket `[lo, hi]` produced by interval iteration,
/// with the guarantee `lo[s] ≤ x*[s] ≤ hi[s]` for the exact solution `x*`
/// and `hi[s] − lo[s] < ε` for every state (infinite reward states carry
/// `lo = hi = ∞`).
#[derive(Debug, Clone, PartialEq)]
pub struct CertifiedValues {
    /// Sound lower bounds, iterated up from 0.
    pub lo: Vec<f64>,
    /// Sound upper bounds, iterated down from the qualitative seed.
    pub hi: Vec<f64>,
    /// Sweeps performed until every component's width test passed (a
    /// level's batch of trivial components counts as one).
    pub iterations: usize,
}

impl CertifiedValues {
    /// Unzips per-state `(lo, hi)` pairs into a certificate.
    pub fn from_pairs(pairs: Vec<(f64, f64)>, iterations: usize) -> CertifiedValues {
        let (lo, hi) = pairs.into_iter().unzip();
        CertifiedValues { lo, hi, iterations }
    }

    /// The maximum interval width over all states (0 for exactly pinned
    /// states and for infinite `lo = hi = ∞` pairs).
    pub fn width(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| if l == h { 0.0 } else { h - l })
            .fold(0.0, f64::max)
    }

    /// The interval midpoints — the natural point estimate to report
    /// alongside the certificate (`∞` stays `∞`).
    pub fn midpoints(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| if l == h { *l } else { 0.5 * (l + h) })
            .collect()
    }
}

/// The finite region of `R=? [F target]`, from the graph alone: the
/// `certain` states, which reach `target` almost surely (no path escapes
/// to a state that cannot reach it), and the `active` ones among them that
/// still accumulate reward (`certain ∖ target`).
fn reward_region(dtmc: &Dtmc, target: &BitVec) -> (BitVec, BitVec) {
    let s0 = graph::can_reach(dtmc, target, None).not();
    let certain = graph::can_reach(dtmc, &s0, Some(target)).not();
    let active = certain.and(&target.not());
    (certain, active)
}

/// The sound upper seed `k·r_max/δ` of a reward bracket over `active`
/// ([`hitting_probe`]); 0 when no active state carries reward.
fn reward_seed(dtmc: &Dtmc, target: &BitVec, active: &BitVec) -> Result<f64, DtmcError> {
    let rewards = dtmc.rewards();
    let r_max = active.iter_ones().map(|i| rewards[i]).fold(0.0, f64::max);
    if r_max == 0.0 {
        return Ok(0.0);
    }
    let (k, delta) = hitting_probe(dtmc, target, active)?;
    Ok(k as f64 * r_max / delta)
}

/// The smallest sweep count `k` at which every `active` state reaches the
/// target within `k` steps with positive probability, together with the
/// minimum such probability `δ` — the ingredients of the sound reward
/// upper bound `k·r_max/δ`. On a correct certain region `k ≤ n` (a path of
/// length > n revisits a state), so the probe always terminates.
fn hitting_probe(dtmc: &Dtmc, target: &BitVec, active: &BitVec) -> Result<(usize, f64), DtmcError> {
    let n = dtmc.n_states();
    if !active.any() {
        return Ok((1, 1.0));
    }
    let mut w: Vec<f64> = (0..n)
        .map(|i| if target.get(i) { 1.0 } else { 0.0 })
        .collect();
    let mut next = vec![0.0; n];
    for k in 1..=n {
        dtmc.matrix()
            .backward_masked_into(&w, Some(active), &mut next);
        std::mem::swap(&mut w, &mut next);
        let delta = active
            .iter_ones()
            .map(|i| w[i])
            .fold(f64::INFINITY, f64::min);
        if delta > 0.0 {
            return Ok((k, delta));
        }
    }
    // Unreachable when `active` really is the certain region; fail loudly
    // rather than certify with an unsound seed.
    Err(DtmcError::NoConvergence {
        iterations: n,
        residual: 0.0,
    })
}

// ---------------------------------------------------------------------------
// Topological (SCC-ordered) solving
// ---------------------------------------------------------------------------
//
// Iterating the *whole* state space pays every sweep until its slowest
// state converges. The `topo_*` family instead walks the chain's SCC
// condensation ([`graph::Condensation`]) one component at a time in
// reverse topological order (sinks first), with already-solved successor
// values folded in as constants:
//
// * **Trivial SCCs** (single state, the common case in layered models)
//   collapse to one closed-form backsubstitution
//   `x_i = (r_i + Σ_{c≠i} p_c·x_c) / Σ_{c≠i} p_c` — no iteration at all.
//   All trivial components of one DAG level are independent, so they are
//   evaluated as a single batch dispatched onto the persistent worker pool.
// * **Non-trivial SCCs** run in-place sweeps restricted to the component's
//   states, terminating on a *component-local* test. Convergence cost
//   concentrates on the components that need it instead of being paid
//   globally.
//
// One level walk ([`topo_walk`]) serves both modes and both engines. It is
// generic over the value kept per state ([`LevelValue`]): the default mode
// keeps one estimate per state and stops each component on a residual
// test; the certified mode keeps an `(lo, hi)` bracket and stops on its
// width. It is also generic over the row backup ([`RowBackup`]): a chain
// solves each row for its own state ([`solved_row`]), and `smg-mdp` backs
// up the best action of a min/max query and corrects end components after
// each sweep.
//
// Soundness of the certified variants is per-component: every active state
// of a component leaves it almost surely (active states reach the target,
// which lies outside), so `(I − P_CC)` is invertible and the component
// fixpoint's interval width is a convex combination of the already-certified
// successor widths — strictly below ε, with no compounding across DAG depth.
// Each individual in-place update preserves `lo ≤ x* ≤ hi` because the
// diagonal-solved row is monotone in its off-diagonal reads.

/// The value a topological level walk keeps per state: a single estimate
/// (`f64`, the default mode, tested on its residual) or a certified
/// `(lo, hi)` bracket (tested on its width). Arithmetic is slot-wise; a
/// single estimate is its own lower slot and has no upper slot to move.
pub trait LevelValue: Copy + Send + Sync {
    /// Whether this is the certified bracket (its progress measure is a
    /// width, reported as such in convergence records).
    const CERTIFIED: bool;
    /// `v` in every slot.
    fn splat(v: f64) -> Self;
    /// The seed of a state still to be solved: `lo` for a single estimate,
    /// `(lo, hi)` for a bracket.
    fn bracket(lo: f64, hi: f64) -> Self;
    /// `self + p·x`, slot-wise.
    fn add_scaled(self, p: f64, x: Self) -> Self;
    /// `self / d`, slot-wise.
    fn div(self, d: f64) -> Self;
    /// Combines two values slot by slot.
    fn zip(self, other: Self, f: impl Fn(f64, f64) -> f64) -> Self;
    /// The lower slot.
    fn lo(self) -> f64;
    /// The upper slot (a single estimate's own value).
    fn hi(self) -> f64;
    /// Rewrites the lower slot.
    fn map_lo(self, f: impl FnOnce(f64) -> f64) -> Self;
    /// Rewrites the upper slot (a single estimate has none: unchanged).
    fn map_hi(self, f: impl FnOnce(f64) -> f64) -> Self;
    /// The stopping measure of one update: the residual `|new − old|` of a
    /// single estimate, the width `hi − lo` of a bracket.
    fn progress(old: Self, new: Self) -> f64;

    /// Reports one sweep of a solver driver that keeps this value per
    /// state through the instrumentation seam: the sweep counter under
    /// `driver`, and a convergence record carrying `progress` as a
    /// residual or a width.
    fn record_sweep(driver: &'static str, sweep: usize, progress: f64, component: Option<u32>) {
        if !obs::enabled() {
            return;
        }
        obs::counter_add("smg_solve_sweeps_total", Some(("driver", driver)), 1);
        obs::trace(&obs::ConvergenceRecord {
            driver,
            sweep: sweep as u64,
            residual: (!Self::CERTIFIED).then_some(progress),
            width: Self::CERTIFIED.then_some(progress),
            component,
        });
    }
}

impl LevelValue for f64 {
    const CERTIFIED: bool = false;
    fn splat(v: f64) -> f64 {
        v
    }
    fn bracket(lo: f64, _hi: f64) -> f64 {
        lo
    }
    fn add_scaled(self, p: f64, x: f64) -> f64 {
        self + p * x
    }
    fn div(self, d: f64) -> f64 {
        self / d
    }
    fn zip(self, other: f64, f: impl Fn(f64, f64) -> f64) -> f64 {
        f(self, other)
    }
    fn lo(self) -> f64 {
        self
    }
    fn hi(self) -> f64 {
        self
    }
    fn map_lo(self, f: impl FnOnce(f64) -> f64) -> f64 {
        f(self)
    }
    fn map_hi(self, _f: impl FnOnce(f64) -> f64) -> f64 {
        self
    }
    fn progress(old: f64, new: f64) -> f64 {
        (new - old).abs()
    }
}

impl LevelValue for (f64, f64) {
    const CERTIFIED: bool = true;
    fn splat(v: f64) -> (f64, f64) {
        (v, v)
    }
    fn bracket(lo: f64, hi: f64) -> (f64, f64) {
        (lo, hi)
    }
    fn add_scaled(self, p: f64, x: (f64, f64)) -> (f64, f64) {
        (self.0 + p * x.0, self.1 + p * x.1)
    }
    fn div(self, d: f64) -> (f64, f64) {
        (self.0 / d, self.1 / d)
    }
    fn zip(self, other: (f64, f64), f: impl Fn(f64, f64) -> f64) -> (f64, f64) {
        (f(self.0, other.0), f(self.1, other.1))
    }
    fn lo(self) -> f64 {
        self.0
    }
    fn hi(self) -> f64 {
        self.1
    }
    fn map_lo(self, f: impl FnOnce(f64) -> f64) -> (f64, f64) {
        (f(self.0), self.1)
    }
    fn map_hi(self, f: impl FnOnce(f64) -> f64) -> (f64, f64) {
        (self.0, f(self.1))
    }
    fn progress(_old: (f64, f64), new: (f64, f64)) -> f64 {
        new.1 - new.0
    }
}

/// One diagonal-solved row: `(r + Σ_{c≠i} p_c·read(c)) / Σ_{c≠i} p_c`.
/// Dividing by the off-diagonal mass rather than by `1 − p_ii` keeps the
/// closed form exact on sticky rows: with `p_ii = 1 − 10⁻¹³` the
/// subtraction keeps about three significant digits, while the
/// off-diagonal sum is the exact stored mass (the two agree on every
/// stochastic row). Pure self-loops are pinned to zero (they cannot occur
/// in an active region, which by construction reaches the target).
#[inline]
fn solved_row<V: LevelValue>(
    matrix: &TransitionMatrix,
    i: usize,
    reward: f64,
    read: impl Fn(usize) -> V,
) -> V {
    // Dispatch on the storage once per row, not once per entry.
    match matrix {
        TransitionMatrix::Sparse(m) => solved_terms(m.row(i), i, reward, read),
        TransitionMatrix::RankOne(m) => solved_terms(m.dist().iter().copied(), i, reward, read),
    }
}

#[inline(always)]
fn solved_terms<V: LevelValue>(
    terms: impl Iterator<Item = (u32, f64)>,
    i: usize,
    reward: f64,
    read: impl Fn(usize) -> V,
) -> V {
    let mut acc = V::splat(reward);
    let mut off = 0.0;
    for (c, p) in terms {
        if c as usize != i {
            off += p;
            acc = acc.add_scaled(p, read(c as usize));
        }
    }
    if off > 0.0 {
        acc.div(off)
    } else {
        V::splat(0.0)
    }
}

/// The engine half of [`topo_walk`]: how a state's value follows from
/// its successors' values, what corrects a component after a sweep, and
/// how a level's batch of trivial states is dispatched. A chain's rows
/// implement it here (`ChainRows`); `smg-mdp` implements it for one
/// min/max query.
pub trait RowBackup: Sync {
    /// The `smg_solve_sweeps_total` driver labels of the default and the
    /// certified walk, in that order.
    const DRIVERS: [&'static str; 2];

    /// The closed form of state `s` when it is a trivial component: every
    /// successor other than `s` is already solved in `x`.
    fn solved<V: LevelValue>(&self, s: usize, x: &[V]) -> V;

    /// One in-place sweep update of state `s` inside a non-trivial
    /// component, reading the freshest values in `x`.
    fn update<V: LevelValue>(&self, s: usize, x: &[V]) -> V;

    /// Whether [`correct`](RowBackup::correct) acts on component `ci`. Its
    /// sweeps then measure progress against the values they started from,
    /// after the correction.
    fn corrects(&self, _ci: u32) -> bool {
        false
    }

    /// Corrects component `ci` in place after each of its sweeps.
    fn correct<V: LevelValue>(&self, _ci: u32, _x: &mut [V]) {}

    /// Fills a level's trivial batch: runs `fill(offset, chunk)` over
    /// `out`, on the calling thread or on the worker pool.
    fn batch<V: LevelValue>(&self, out: &mut [V], fill: impl Fn(usize, &mut [V]) + Sync);
}

/// A chain's rows as the walk's backup: the closed form and the sweep
/// update both solve the row for its own state ([`solved_row`]), and a
/// trivial batch is the `topo_batch` dispatch site.
struct ChainRows<'a> {
    matrix: &'a TransitionMatrix,
    rewards: Option<&'a [f64]>,
}

impl RowBackup for ChainRows<'_> {
    const DRIVERS: [&'static str; 2] = ["topo", "topo_interval"];

    fn solved<V: LevelValue>(&self, s: usize, x: &[V]) -> V {
        let reward = self.rewards.map_or(0.0, |r| r[s]);
        solved_row(self.matrix, s, reward, |c| x[c])
    }

    fn update<V: LevelValue>(&self, s: usize, x: &[V]) -> V {
        self.solved(s, x)
    }

    fn batch<V: LevelValue>(&self, out: &mut [V], fill: impl Fn(usize, &mut [V]) + Sync) {
        TOPO_BATCH.run(out.len(), out.len(), |parallel| {
            if parallel {
                par::chunked_map(out, par::tune_chunk(PAR_MIN_CHUNK), |offset, chunk| {
                    fill(offset, chunk);
                });
            } else {
                fill(0, out);
            }
        });
    }
}

/// Splits one DAG level into the batch of trivial (singleton) active states
/// and the ids of non-trivial components that contain active states.
/// Components with no active state are already fully pinned and skipped.
fn split_level(
    cond: &graph::Condensation,
    level: usize,
    active: &BitVec,
    batch: &mut Vec<u32>,
    nontrivial: &mut Vec<u32>,
) {
    batch.clear();
    nontrivial.clear();
    for &ci in cond.comps_at_level(level) {
        let comp = cond.comp(ci as usize);
        if let [s] = comp[..] {
            if active.get(s as usize) {
                batch.push(s);
            }
        } else if comp.iter().any(|&s| active.get(s as usize)) {
            nontrivial.push(ci);
        }
    }
}

/// The level walk of every topological solver, on both engines: walks the
/// condensation level by level (sinks first), filling each level's trivial
/// components in one [`RowBackup::batch`] and running component-local
/// in-place sweeps on the rest, each followed by the backup's correction,
/// until each component's [`LevelValue::progress`] drops below `stop`. `x`
/// arrives with all inactive states pinned. Returns the number of sweeps
/// performed (each trivial-batch level counts as one; each non-trivial
/// component contributes its own sweeps). `max_iter` bounds the sweeps of
/// each individual component.
///
/// # Errors
///
/// [`DtmcError::NoConvergence`] if a component misses `stop` within
/// `max_iter` sweeps.
pub fn topo_walk<V: LevelValue, B: RowBackup>(
    backup: &B,
    cond: &graph::Condensation,
    active: &BitVec,
    x: &mut [V],
    stop: f64,
    max_iter: usize,
) -> Result<usize, DtmcError> {
    let driver = B::DRIVERS[usize::from(V::CERTIFIED)];
    let mut iterations = 0usize;
    let mut batch: Vec<u32> = Vec::new();
    let mut nontrivial: Vec<u32> = Vec::new();
    let mut scratch: Vec<V> = Vec::new();
    let mut old: Vec<V> = Vec::new();
    for level in 0..cond.dag_depth() {
        split_level(cond, level, active, &mut batch, &mut nontrivial);
        if !batch.is_empty() {
            iterations += 1;
            scratch.clear();
            scratch.resize(batch.len(), V::splat(0.0));
            let xr: &[V] = x;
            let batch_ref: &[u32] = &batch;
            backup.batch(&mut scratch, |offset, chunk| {
                for (j, slot) in chunk.iter_mut().enumerate() {
                    *slot = backup.solved(batch_ref[offset + j] as usize, xr);
                }
            });
            for (&s, &v) in batch.iter().zip(&scratch) {
                x[s as usize] = v;
            }
            V::record_sweep(driver, iterations, 0.0, None);
        }
        for &ci in &nontrivial {
            let comp = cond.comp(ci as usize);
            let corrects = backup.corrects(ci);
            let mut converged = false;
            for local in 1..=max_iter {
                iterations += 1;
                if corrects {
                    old.clear();
                    old.extend(comp.iter().map(|&s| x[s as usize]));
                }
                let mut progress: f64 = 0.0;
                for &s in comp {
                    let i = s as usize;
                    if !active.get(i) {
                        continue;
                    }
                    let new = backup.update(i, x);
                    progress = progress.max(V::progress(x[i], new));
                    x[i] = new;
                }
                if corrects {
                    backup.correct(ci, x);
                    progress = comp
                        .iter()
                        .zip(&old)
                        .filter(|&(&s, _)| active.get(s as usize))
                        .map(|(&s, &was)| V::progress(was, x[s as usize]))
                        .fold(0.0, f64::max);
                }
                V::record_sweep(driver, local, progress, Some(ci));
                if progress < stop {
                    converged = true;
                    break;
                }
            }
            if !converged {
                return Err(DtmcError::NoConvergence {
                    iterations: max_iter,
                    residual: stop,
                });
            }
        }
    }
    Ok(iterations)
}

/// Checks that every mask and the condensation match the chain's size.
fn check_dims(dtmc: &Dtmc, cond: &graph::Condensation, masks: &[&BitVec]) -> Result<(), DtmcError> {
    let n = dtmc.n_states();
    let lens = masks.iter().map(|m| m.len()).chain([cond.comp_of().len()]);
    for len in lens {
        if len != n {
            return Err(DtmcError::DimensionMismatch {
                expected: n,
                actual: len,
            });
        }
    }
    Ok(())
}

/// `P(lhs U rhs)` on the condensation in either mode: the qualitative
/// pre-pass pins states that cannot reach `rhs` through `lhs` to 0 and
/// `rhs` to 1, then the level walk solves the rest.
fn topo_until<V: LevelValue>(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    stop: f64,
    max_iter: usize,
) -> Result<(Vec<V>, usize), DtmcError> {
    check_dims(dtmc, cond, &[lhs, rhs])?;
    let active = graph::can_reach(dtmc, rhs, Some(&lhs.not())).and(&rhs.not());
    let mut x: Vec<V> = (0..dtmc.n_states())
        .map(|i| {
            if rhs.get(i) {
                V::splat(1.0)
            } else if active.get(i) {
                V::bracket(0.0, 1.0)
            } else {
                V::splat(0.0)
            }
        })
        .collect();
    let rows = ChainRows {
        matrix: dtmc.matrix(),
        rewards: None,
    };
    let iterations = topo_walk(&rows, cond, &active, &mut x, stop, max_iter)?;
    Ok((x, iterations))
}

/// The expected reward to `target` on the condensation in either mode:
/// the finite region comes from the graph ([`reward_region`]), states
/// outside it are pinned to exactly `∞`, targets to 0. The certified
/// bracket's upper seed ([`reward_seed`]) is only read inside non-trivial
/// components, so it is computed only when one of them holds an active
/// state.
fn topo_reach_reward<V: LevelValue>(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    target: &BitVec,
    stop: f64,
    max_iter: usize,
) -> Result<(Vec<V>, usize), DtmcError> {
    check_dims(dtmc, cond, &[target])?;
    let (certain, active) = reward_region(dtmc, target);
    let seed = if V::CERTIFIED && cond.iterates_on(&active) {
        reward_seed(dtmc, target, &active)?
    } else {
        0.0
    };
    let mut x: Vec<V> = (0..dtmc.n_states())
        .map(|i| {
            if active.get(i) {
                V::bracket(0.0, seed)
            } else if certain.get(i) {
                V::splat(0.0) // target states accumulate nothing
            } else {
                V::splat(f64::INFINITY)
            }
        })
        .collect();
    let rows = ChainRows {
        matrix: dtmc.matrix(),
        rewards: Some(dtmc.rewards()),
    };
    let iterations = topo_walk(&rows, cond, &active, &mut x, stop, max_iter)?;
    Ok((x, iterations))
}

/// Unbounded until probabilities `P(lhs U rhs)` by topological solving
/// over `cond` (the chain's [`graph::Condensation`]): the qualitative
/// pre-pass of the interval solvers, then each SCC solved (or
/// backsubstituted in closed form, for trivial SCCs) with its successors'
/// values as constants, each non-trivial SCC stopping on a component-local
/// residual test. On layered, mostly-acyclic chains this replaces global
/// convergence with a single backsubstitution pass. `max_iter` bounds the
/// sweeps of each individual component, not the global total. This is the
/// checker's default unbounded solver.
///
/// # Errors
///
/// * [`DtmcError::DimensionMismatch`] for wrong-length bit vectors or a
///   condensation of another chain.
/// * [`DtmcError::NoConvergence`] if some component fails to reach `tol`
///   within `max_iter` sweeps.
pub fn topo_until_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, DtmcError> {
    topo_until(dtmc, cond, lhs, rhs, tol, max_iter).map(|(x, _)| x)
}

/// Unbounded reachability `P(F target)` by topological solving —
/// [`topo_until_values`] with an unrestricted left operand.
///
/// # Errors
///
/// As for [`topo_until_values`].
pub fn topo_reach_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    target: &BitVec,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, DtmcError> {
    let all = BitVec::ones(dtmc.n_states());
    topo_until_values(dtmc, cond, &all, target, tol, max_iter)
}

/// Expected reward accumulated strictly before first reaching `target`
/// (PRISM `R=? [F target]` semantics) by topological solving. States from
/// which the target is not reached almost surely get exactly `∞`: the
/// finite region is where the graph says the target is reached almost
/// surely ([`graph::can_reach`], twice), never a thresholded probability.
///
/// # Errors
///
/// As for [`topo_until_values`].
pub fn topo_reach_reward_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    target: &BitVec,
    tol: f64,
    max_iter: usize,
) -> Result<Vec<f64>, DtmcError> {
    topo_reach_reward(dtmc, cond, target, tol, max_iter).map(|(x, _)| x)
}

/// Certified probabilities of `lhs U rhs` (unbounded until) from every
/// state, by topological interval iteration: the result's `[lo, hi]`
/// brackets the exact probability (`lo ≤ x* ≤ hi`) with width below
/// `epsilon` at every state.
///
/// The qualitative pre-pass ([`graph::can_reach`]) pins states that cannot
/// reach `rhs` through `lhs` to exactly 0 (and `rhs` states to exactly 1);
/// on the remaining states the lower bound ascends from 0 and the upper
/// bound descends from 1. The dual iteration runs per SCC of `cond` with
/// already-certified successor bounds folded in as constants, and trivial
/// SCCs collapse to one exact dual backsubstitution. See the module notes
/// on why per-component widths do not compound across the DAG.
///
/// # Errors
///
/// As for [`topo_until_values`], with `epsilon` as the width target.
pub fn topo_interval_until_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    epsilon: f64,
    max_iter: usize,
) -> Result<CertifiedValues, DtmcError> {
    topo_until(dtmc, cond, lhs, rhs, epsilon, max_iter)
        .map(|(pairs, it)| CertifiedValues::from_pairs(pairs, it))
}

/// Certified unbounded reachability `P(F target)` from every state by
/// topological interval iteration — the certified counterpart of
/// [`topo_reach_values`].
///
/// # Errors
///
/// As for [`topo_interval_until_values`].
pub fn topo_interval_reach_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    target: &BitVec,
    epsilon: f64,
    max_iter: usize,
) -> Result<CertifiedValues, DtmcError> {
    let all = BitVec::ones(dtmc.n_states());
    topo_interval_until_values(dtmc, cond, &all, target, epsilon, max_iter)
}

/// Certified expected reward accumulated strictly before first reaching
/// `target` (PRISM `R=? [F target]` semantics), by topological interval
/// iteration. States outside the almost-sure region carry the exact
/// `lo = hi = ∞`, as in [`topo_reach_reward_values`]; elsewhere the
/// bracket has width below `epsilon`.
///
/// The upper seed comes from a finite hitting-time probe: if every
/// certain state reaches the target within `k` steps with probability at
/// least `δ > 0` (such a `k ≤ n` always exists), the expected reward is at
/// most `k·r_max/δ`. It is computed only when a non-trivial component
/// will read it.
///
/// # Errors
///
/// As for [`topo_interval_until_values`].
pub fn topo_interval_reach_reward_values(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    target: &BitVec,
    epsilon: f64,
    max_iter: usize,
) -> Result<CertifiedValues, DtmcError> {
    topo_reach_reward(dtmc, cond, target, epsilon, max_iter)
        .map(|(pairs, it)| CertifiedValues::from_pairs(pairs, it))
}

/// The long-run probability of being in a `sat` state from the chain's
/// initial distribution (the Cesàro limit, which exists for periodic
/// chains too), computed from the bottom SCCs: `Σ_B P(◇B)·π_B(sat)`.
///
/// Each bottom SCC `B` (a level-0 component of `cond`) gets its local
/// long-run mass `π_B(sat)`: exactly 0 or 1 when `B` lies entirely outside
/// or inside `sat`, otherwise a damped ("lazy-chain") power iteration
/// restricted to `B`'s rows, stopped on a residual below `tol`. Every
/// bottom state is then pinned to its component's mass and one level walk
/// ([`topo_until_values`]'s default mode) over the transient states folds
/// the absorption probabilities in. A chain that is one bottom SCC runs
/// the damped iteration `π ← ½π + ½πP` on the whole chain from the
/// initial distribution instead — the paper's irreducible models take
/// this path.
///
/// # Errors
///
/// * [`DtmcError::DimensionMismatch`] for a wrong-length `sat` or a
///   condensation of another chain.
/// * [`DtmcError::NoConvergence`] if a power iteration or a transient
///   component misses `tol` within `max_iter` sweeps.
pub fn steady_state_prob(
    dtmc: &Dtmc,
    cond: &graph::Condensation,
    sat: &BitVec,
    tol: f64,
    max_iter: usize,
) -> Result<f64, DtmcError> {
    check_dims(dtmc, cond, &[sat])?;
    if cond.n_components() == 1 {
        return whole_chain_steady_prob(dtmc, sat, tol, max_iter);
    }
    let n = dtmc.n_states();
    let mut x = vec![0.0; n];
    let mut transient = BitVec::ones(n);
    let mut pi: Vec<f64> = Vec::new();
    let mut next: Vec<f64> = Vec::new();
    for &ci in cond.bottom() {
        let members = cond.comp(ci as usize);
        let inside = members.iter().filter(|&&s| sat.get(s as usize)).count();
        let mass = if inside == 0 {
            0.0
        } else if inside == members.len() {
            1.0
        } else {
            if pi.is_empty() {
                pi = vec![0.0; n];
                next = vec![0.0; n];
            }
            bscc_mass(
                dtmc.matrix(),
                ci,
                members,
                sat,
                &mut pi,
                &mut next,
                tol,
                max_iter,
            )?
        };
        for &s in members {
            x[s as usize] = mass;
            transient.set(s as usize, false);
        }
    }
    let rows = ChainRows {
        matrix: dtmc.matrix(),
        rewards: None,
    };
    topo_walk(&rows, cond, &transient, &mut x, tol, max_iter)?;
    Ok(dtmc.initial().iter().map(|&(s, p)| p * x[s as usize]).sum())
}

/// Damped power iteration over the whole (irreducible) chain from the
/// initial distribution.
fn whole_chain_steady_prob(
    dtmc: &Dtmc,
    sat: &BitVec,
    tol: f64,
    max_iter: usize,
) -> Result<f64, DtmcError> {
    let mut pi = dtmc.initial_dense();
    let mut stepped = vec![0.0; pi.len()];
    for it in 1..=max_iter {
        dtmc.matrix().forward_into(&pi, &mut stepped);
        let mut delta: f64 = 0.0;
        for (p, s) in pi.iter_mut().zip(&stepped) {
            let lazy = 0.5 * *p + 0.5 * s;
            delta = delta.max((lazy - *p).abs());
            *p = lazy;
        }
        f64::record_sweep("steady", it, delta, None);
        if delta < tol {
            return Ok(sat.iter_ones().map(|i| pi[i]).sum());
        }
    }
    Err(DtmcError::NoConvergence {
        iterations: max_iter,
        residual: tol,
    })
}

/// The long-run mass of `sat` inside the bottom SCC `members`: damped power
/// iteration `π ← ½π + ½πP` over the component's rows only, from the
/// uniform distribution on it (a bottom SCC is irreducible, so the limit
/// is its unique stationary distribution whatever the start, and the lazy
/// step removes periodicity). `pi`/`next` are full-length scratch vectors
/// of which only the members' slots are touched.
#[allow(clippy::too_many_arguments)]
fn bscc_mass(
    matrix: &TransitionMatrix,
    ci: u32,
    members: &[u32],
    sat: &BitVec,
    pi: &mut [f64],
    next: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> Result<f64, DtmcError> {
    let uniform = 1.0 / members.len() as f64;
    for &s in members {
        pi[s as usize] = uniform;
    }
    for it in 1..=max_iter {
        for &s in members {
            next[s as usize] = 0.5 * pi[s as usize];
        }
        for &s in members {
            let half = 0.5 * pi[s as usize];
            for (c, p) in matrix.row_iter(s as usize) {
                next[c as usize] += p * half;
            }
        }
        let mut delta: f64 = 0.0;
        for &s in members {
            let s = s as usize;
            delta = delta.max((next[s] - pi[s]).abs());
            pi[s] = next[s];
        }
        f64::record_sweep("bscc", it, delta, Some(ci));
        if delta < tol {
            return Ok(members
                .iter()
                .filter(|&&s| sat.get(s as usize))
                .map(|&s| pi[s as usize])
                .sum());
        }
    }
    Err(DtmcError::NoConvergence {
        iterations: max_iter,
        residual: tol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, explore_memoryless, ExploreOptions};
    use crate::model::{DtmcModel, MemorylessModel};
    use crate::transient;

    /// Gambler's ruin on 0..=4 starting at 2 with p = 0.4 up.
    struct Ruin;
    impl DtmcModel for Ruin {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(2, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match *s {
                0 => vec![(0, 1.0)],
                4 => vec![(4, 1.0)],
                s => vec![(s + 1, 0.4), (s - 1, 0.6)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["rich"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "rich" && *s == 4
        }
    }

    /// The default walk's reachability values from every state.
    fn reach(dtmc: &Dtmc, target: &BitVec, tol: f64) -> Result<Vec<f64>, DtmcError> {
        let cond = graph::Condensation::new(dtmc);
        topo_reach_values(dtmc, &cond, target, tol, 1_000_000)
    }

    #[test]
    fn matches_closed_form_gambler() {
        let e = explore(&Ruin, &ExploreOptions::default()).unwrap();
        let rich = e.dtmc.label("rich").unwrap().clone();
        let x = reach(&e.dtmc, &rich, 1e-14).unwrap();
        // Closed form: with q/p ratio r = 0.6/0.4 = 1.5,
        // P(reach 4 from k) = (1 - r^k) / (1 - r^4).
        let r: f64 = 1.5;
        for k in 0..=4u8 {
            let want = (1.0 - r.powi(k as i32)) / (1.0 - r.powi(4));
            let got = x[e.id_of(&k).unwrap() as usize];
            assert!((got - want).abs() < 1e-10, "k={k}: {got} vs {want}");
        }
    }

    /// Whole-space value iteration for 500 steps (the transient block's
    /// spectral radius is below 0.7, so the remainder is below 1e-70)
    /// agrees with the walk's in-place component sweeps.
    #[test]
    fn agrees_with_value_iteration() {
        let e = explore(&Ruin, &ExploreOptions::default()).unwrap();
        let rich = e.dtmc.label("rich").unwrap().clone();
        let topo = reach(&e.dtmc, &rich, 1e-13).unwrap();
        let all = BitVec::ones(e.dtmc.n_states());
        let vi = transient::bounded_until_values(&e.dtmc, &all, &rich, 500).unwrap();
        for (a, b) in topo.iter().zip(&vi) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    struct Dice;
    impl MemorylessModel for Dice {
        type State = u8;
        fn initial_state(&self) -> u8 {
            0
        }
        fn step_distribution(&self) -> Vec<(u8, f64)> {
            (1..=6).map(|f| (f, 1.0 / 6.0)).collect()
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["six"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "six" && *s == 6
        }
    }

    #[test]
    fn rank_one_closed_form() {
        let e = explore_memoryless(&Dice, &ExploreOptions::default()).unwrap();
        let six = e.dtmc.label("six").unwrap().clone();
        let x = reach(&e.dtmc, &six, 1e-14).unwrap();
        // Geometric: the six is eventually rolled with probability 1.
        for (i, v) in x.iter().enumerate() {
            let expect = 1.0;
            assert!((v - expect).abs() < 1e-12, "state {i}: {v}");
        }
    }

    #[test]
    fn absorbing_failure_states_stay_zero() {
        // 0 → {1: .5, 2: .5}; 1 absorbing target; 2 absorbing failure.
        struct Split;
        impl DtmcModel for Split {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                match *s {
                    0 => vec![(1, 0.5), (2, 0.5)],
                    s => vec![(s, 1.0)],
                }
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["goal"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                ap == "goal" && *s == 1
            }
        }
        let e = explore(&Split, &ExploreOptions::default()).unwrap();
        let goal = e.dtmc.label("goal").unwrap().clone();
        let x = reach(&e.dtmc, &goal, 1e-14).unwrap();
        assert!((x[e.id_of(&0).unwrap() as usize] - 0.5).abs() < 1e-12);
        assert_eq!(x[e.id_of(&2).unwrap() as usize], 0.0);
        assert_eq!(x[e.id_of(&1).unwrap() as usize], 1.0);
    }

    #[test]
    fn dimension_checked() {
        let e = explore(&Ruin, &ExploreOptions::default()).unwrap();
        let bad = BitVec::zeros(2);
        assert!(matches!(
            reach(&e.dtmc, &bad, 1e-9),
            Err(DtmcError::DimensionMismatch { .. })
        ));
    }

    /// A slow-mixing line: each of the `k` transient states mostly
    /// self-loops (probability `1 − 2p`), advancing toward the goal or
    /// falling to the sink with probability `p` each. First-exit analysis
    /// gives `P(reach goal from i) = (1/2)^(k−i)` exactly, independent of
    /// `p` — but consecutive VI iterates differ by O(p), so a residual
    /// test with `tol > p` stops essentially immediately, arbitrarily far
    /// from the truth.
    struct LazyLine {
        k: u8,
        p: f64,
    }
    impl DtmcModel for LazyLine {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            // k = goal, k+1 = sink, both absorbing.
            if *s >= self.k {
                vec![(*s, 1.0)]
            } else {
                vec![
                    (*s, 1.0 - 2.0 * self.p),
                    (s + 1, self.p),
                    (self.k + 1, self.p),
                ]
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["goal"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "goal" && *s == self.k
        }
    }

    /// The acceptance-criterion demonstration: plain residual VI (whole
    /// space backward sweeps until consecutive iterates differ by less
    /// than ε) declares convergence while still ~0.5 away from the true
    /// probability; the certified interval brackets the truth with width
    /// below ε on the same chain.
    #[test]
    fn slow_mixing_chain_fools_residual_vi() {
        let e = explore(&LazyLine { k: 4, p: 1e-4 }, &ExploreOptions::default()).unwrap();
        let goal = e.dtmc.label("goal").unwrap().clone();
        let eps = 1e-3;
        let near = e.id_of(&3).unwrap() as usize; // truth: 1/2
        let active = goal.not();
        let mut plain: Vec<f64> = (0..e.dtmc.n_states())
            .map(|i| if goal.get(i) { 1.0 } else { 0.0 })
            .collect();
        let mut next = vec![0.0; plain.len()];
        loop {
            e.dtmc
                .matrix()
                .backward_masked_into(&plain, Some(&active), &mut next);
            std::mem::swap(&mut plain, &mut next);
            let delta = plain.iter().zip(&next).map(|(a, b)| (a - b).abs());
            if delta.fold(0.0, f64::max) < eps {
                break;
            }
        }
        assert!(
            (plain[near] - 0.5).abs() > 0.4,
            "residual VI should stop early here, got {}",
            plain[near]
        );
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert =
            super::topo_interval_reach_values(&e.dtmc, &cond, &goal, eps, 10_000_000).unwrap();
        assert!(cert.width() < eps);
        for (i, truth) in [(near, 0.5), (e.id_of(&0).unwrap() as usize, 0.0625)] {
            assert!(
                cert.lo[i] <= truth && truth <= cert.hi[i],
                "state {i}: [{}, {}] must bracket {truth}",
                cert.lo[i],
                cert.hi[i]
            );
        }
    }

    #[test]
    fn interval_brackets_closed_form_gambler() {
        let e = explore(&Ruin, &ExploreOptions::default()).unwrap();
        let rich = e.dtmc.label("rich").unwrap().clone();
        let eps = 1e-9;
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert =
            super::topo_interval_reach_values(&e.dtmc, &cond, &rich, eps, 1_000_000).unwrap();
        assert!(cert.width() < eps);
        let r: f64 = 1.5;
        for k in 0..=4u8 {
            let want = (1.0 - r.powi(k as i32)) / (1.0 - r.powi(4));
            let i = e.id_of(&k).unwrap() as usize;
            assert!(
                cert.lo[i] <= want + 1e-15 && want <= cert.hi[i] + 1e-15,
                "k={k}: [{}, {}] vs {want}",
                cert.lo[i],
                cert.hi[i]
            );
        }
        // The unreachable-from-goal sink is pinned exactly.
        let sink = e.id_of(&0).unwrap() as usize;
        assert_eq!((cert.lo[sink], cert.hi[sink]), (0.0, 0.0));
        // Midpoints land within ε of the interval everywhere.
        let mid = cert.midpoints();
        assert!(mid.iter().zip(&cert.lo).all(|(m, l)| m >= l));
    }

    #[test]
    fn interval_until_respects_lhs_and_rank_one() {
        // Until with a blocking lhs: goal unreachable through lhs → exact 0.
        let e = explore(&Ruin, &ExploreOptions::default()).unwrap();
        let rich = e.dtmc.label("rich").unwrap().clone();
        let lhs = BitVec::from_fn(e.dtmc.n_states(), |i| {
            i == e.id_of(&2).unwrap() as usize || rich.get(i)
        });
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert =
            super::topo_interval_until_values(&e.dtmc, &cond, &lhs, &rich, 1e-9, 1000).unwrap();
        let start = e.id_of(&2).unwrap() as usize;
        assert_eq!((cert.lo[start], cert.hi[start]), (0.0, 0.0));
        // Rank-one (memoryless) chains run through the same generic walk.
        let e = explore_memoryless(&Dice, &ExploreOptions::default()).unwrap();
        let six = e.dtmc.label("six").unwrap().clone();
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert =
            super::topo_interval_reach_values(&e.dtmc, &cond, &six, 1e-11, 1_000_000).unwrap();
        assert!(cert.width() < 1e-11);
        for i in 0..e.dtmc.n_states() {
            assert!(cert.lo[i] <= 1.0 && cert.hi[i] >= 1.0 - 1e-11, "state {i}");
        }
    }

    #[test]
    fn interval_reward_line_is_exactly_bracketed() {
        // 0 → 1 → 2 (target), reward 1 everywhere: distances 2, 1, 0.
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
        let e = explore(&Line, &ExploreOptions::default()).unwrap();
        let end = e.dtmc.label("end").unwrap().clone();
        let eps = 1e-9;
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert =
            super::topo_interval_reach_reward_values(&e.dtmc, &cond, &end, eps, 1_000_000).unwrap();
        assert!(cert.width() < eps);
        for (s, want) in [(0u8, 2.0), (1, 1.0)] {
            let i = e.id_of(&s).unwrap() as usize;
            assert!(
                cert.lo[i] <= want + 1e-12 && want <= cert.hi[i] + 1e-12,
                "state {s}: [{}, {}] vs {want}",
                cert.lo[i],
                cert.hi[i]
            );
        }
        let t = e.id_of(&2).unwrap() as usize;
        assert_eq!((cert.lo[t], cert.hi[t]), (0.0, 0.0));
    }

    #[test]
    fn interval_reward_infinite_states_are_pinned() {
        // 0 branches to the certain line (1 → 2 target) and to a lossy
        // state 3 that may fall into the sink 4: 0 and 3 get exactly ∞.
        struct Lossy;
        impl DtmcModel for Lossy {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                match *s {
                    0 => vec![(1, 0.5), (3, 0.5)],
                    1 => vec![(2, 1.0)],
                    2 => vec![(2, 1.0)],
                    3 => vec![(2, 0.5), (4, 0.5)],
                    _ => vec![(4, 1.0)],
                }
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
        let e = explore(&Lossy, &ExploreOptions::default()).unwrap();
        let end = e.dtmc.label("end").unwrap().clone();
        let cond = crate::graph::Condensation::new(&e.dtmc);
        let cert = super::topo_interval_reach_reward_values(&e.dtmc, &cond, &end, 1e-9, 1_000_000)
            .unwrap();
        for s in [0u8, 3] {
            let i = e.id_of(&s).unwrap() as usize;
            assert_eq!((cert.lo[i], cert.hi[i]), (f64::INFINITY, f64::INFINITY));
        }
        let one = e.id_of(&1).unwrap() as usize;
        assert!(cert.lo[one] <= 1.0 && 1.0 <= cert.hi[one]);
        // Infinite pairs contribute zero width (no NaN poisoning).
        assert!(cert.width() < 1e-9);
        assert_eq!(
            cert.midpoints()[e.id_of(&0).unwrap() as usize],
            f64::INFINITY
        );
    }

    /// The walk's parallel path — a level's trivial components
    /// backsubstituted as one pool-dispatched batch — must produce the
    /// single-lane bits, and bracket the serial solution (bounded value
    /// iteration at a horizon past the DAG's depth, which is exact on a
    /// DAG), on a chain whose levels clear the engine's parallel
    /// threshold.
    #[test]
    fn interval_parallel_path_brackets_serial_solution() {
        let d = crate::synthetic::layered_chain(3, 5_000);
        let cond = crate::graph::Condensation::new(&d);
        let target = d.label("target").unwrap().clone();
        let eps = 1e-8;
        let solve = || super::topo_interval_reach_values(&d, &cond, &target, eps, 1_000).unwrap();
        let cert = crate::par::with_lane_scope(4, solve);
        let single = crate::par::with_lane_scope(1, solve);
        assert_eq!((&cert.lo, &cert.hi), (&single.lo, &single.hi));
        assert!(cert.width() < eps);
        let all = BitVec::ones(d.n_states());
        let serial = transient::bounded_until_values(&d, &all, &target, cond.dag_depth()).unwrap();
        for (i, v) in serial.iter().enumerate() {
            assert!(
                cert.lo[i] - 1e-9 <= *v && *v <= cert.hi[i] + 1e-9,
                "state {i}: {v} outside [{}, {}]",
                cert.lo[i],
                cert.hi[i]
            );
        }
    }

    #[test]
    fn degenerate_single_scc_matches_global() {
        // A ring where every state can reach every other (one big SCC)
        // with a per-state escape to absorbing goal/fail states: the
        // condensation is 3 components, and the topological drivers run
        // exactly one non-trivial component solve. The answers must match
        // global value iteration's: 2,000 whole-space backward steps, each
        // escaping the ring with probability 0.1 (remainder 0.9^2000).
        struct Ring;
        impl DtmcModel for Ring {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                match s {
                    100 | 101 => vec![(*s, 1.0)],
                    s => vec![((s + 1) % 40, 0.9), (100, 0.06), (101, 0.04)],
                }
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["goal"]
            }
            fn holds(&self, ap: &str, s: &u8) -> bool {
                ap == "goal" && *s == 100
            }
            fn state_reward(&self, s: &u8) -> f64 {
                if *s < 100 {
                    1.0
                } else {
                    0.0
                }
            }
        }
        let e = explore(&Ring, &ExploreOptions::default()).unwrap();
        let cond = crate::graph::Condensation::new(&e.dtmc);
        assert_eq!(cond.n_components(), 3);
        assert_eq!(cond.largest(), 40);
        let goal = e.dtmc.label("goal").unwrap().clone();
        let all = BitVec::ones(e.dtmc.n_states());
        let global = transient::bounded_until_values(&e.dtmc, &all, &goal, 2_000).unwrap();
        let topo =
            super::topo_interval_reach_values(&e.dtmc, &cond, &goal, 1e-10, 10_000_000).unwrap();
        assert!(topo.width() < 1e-10);
        let topo_mid = topo.midpoints();
        let plain = super::topo_reach_values(&e.dtmc, &cond, &goal, 1e-12, 1_000_000).unwrap();
        for i in 0..e.dtmc.n_states() {
            assert!((global[i] - topo_mid[i]).abs() < 1e-9, "state {i}");
            assert!((plain[i] - topo_mid[i]).abs() < 1e-8, "state {i}");
        }
        // Every ring state escapes with the same odds: P(goal) = 0.06/0.10.
        assert!((topo_mid[0] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn deep_chain_is_stack_safe() {
        // A 10k-deep pure chain: 10_001 condensation levels, every SCC
        // trivial. Recursion anywhere in the SCC decomposition or the
        // level walk would overflow the default 8 MiB stack long before
        // this depth; the closed forms pin the values exactly.
        let depth = 10_000;
        let d = crate::synthetic::layered_chain(depth, 1);
        let cond = crate::graph::Condensation::new(&d);
        assert_eq!(cond.n_components(), depth + 2);
        assert_eq!(cond.dag_depth(), depth + 1);
        let target = d.label("target").unwrap().clone();
        let absorbing = d.label("absorbing").unwrap().clone();
        let reach = super::topo_reach_values(&d, &cond, &target, 1e-12, 1_000_000).unwrap();
        assert!((reach[0] - 0.5).abs() < 1e-12);
        let cert = super::topo_interval_reach_values(&d, &cond, &target, 1e-9, 10_000_000).unwrap();
        assert!(cert.width() < 1e-9);
        assert!(cert.lo[0] <= 0.5 && 0.5 <= cert.hi[0]);
        // Expected steps to absorption from the head is exactly `depth`.
        let rew = super::topo_interval_reach_reward_values(&d, &cond, &absorbing, 1e-6, 10_000_000)
            .unwrap();
        let want = depth as f64;
        assert!(
            rew.lo[0] - 1e-6 <= want && want <= rew.hi[0] + 1e-6,
            "[{}, {}] vs {want}",
            rew.lo[0],
            rew.hi[0]
        );
    }

    mod proptests {
        use super::super::*;
        use crate::explore::{explore, ExploreOptions};
        use crate::model::DtmcModel;
        use proptest::prelude::*;

        /// A random absorbing chain: `n` transient states, each branching
        /// to 2 successors (possibly the absorbing target or sink).
        #[derive(Debug)]
        struct RandomAbsorbing {
            n: u32,
            edges: Vec<(u32, u32, u32)>, // (succ_a, succ_b, eighths for a)
        }

        impl DtmcModel for RandomAbsorbing {
            type State = u32;
            fn initial_states(&self) -> Vec<(u32, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u32) -> Vec<(u32, f64)> {
                // n = target (absorbing), n+1 = sink (absorbing).
                if *s >= self.n {
                    return vec![(*s, 1.0)];
                }
                let (a, b, w) = self.edges[*s as usize];
                let p = f64::from(w.clamp(1, 7)) / 8.0;
                let (a, b) = (a % (self.n + 2), b % (self.n + 2));
                if a == b {
                    return vec![(a, 1.0)];
                }
                vec![(a, p), (b, 1.0 - p)]
            }
            fn atomic_propositions(&self) -> Vec<&'static str> {
                vec!["goal"]
            }
            fn holds(&self, ap: &str, s: &u32) -> bool {
                ap == "goal" && *s == self.n
            }
            fn state_reward(&self, s: &u32) -> f64 {
                f64::from(s % 5)
            }
        }

        /// Solves the dense augmented system `[A | b]` in place by Gaussian
        /// elimination with partial pivoting — the *exact* (up to one
        /// floating-point factorization) linear-system reference the
        /// certified intervals are pinned against. No iteration, no
        /// residual test, nothing to terminate early.
        fn solve_dense(mut a: Vec<Vec<f64>>) -> Vec<f64> {
            let m = a.len();
            for col in 0..m {
                let pivot = (col..m)
                    .max_by(|&x, &y| a[x][col].abs().total_cmp(&a[y][col].abs()))
                    .expect("nonempty");
                a.swap(col, pivot);
                let p = a[col][col];
                assert!(p.abs() > 1e-12, "singular system");
                let pivot_row = a[col].clone();
                for (row, row_vals) in a.iter_mut().enumerate() {
                    if row == col {
                        continue;
                    }
                    let f = row_vals[col] / p;
                    if f != 0.0 {
                        for (slot, pv) in row_vals[col..].iter_mut().zip(&pivot_row[col..]) {
                            *slot -= f * pv;
                        }
                    }
                }
            }
            (0..m).map(|r| a[r][m] / a[r][r]).collect()
        }

        /// Exact unbounded reachability: eliminate the `maybe ∖ target`
        /// system `(I − P)x = P·1_target` directly.
        fn exact_reach(dtmc: &Dtmc, target: &BitVec) -> Vec<f64> {
            let n = dtmc.n_states();
            let maybe = crate::graph::can_reach(dtmc, target, None);
            let idx: Vec<usize> = (0..n).filter(|&i| maybe.get(i) && !target.get(i)).collect();
            let mut pos = vec![usize::MAX; n];
            for (r, &i) in idx.iter().enumerate() {
                pos[i] = r;
            }
            let m = idx.len();
            let mut a = vec![vec![0.0; m + 1]; m];
            for (r, &i) in idx.iter().enumerate() {
                a[r][r] += 1.0;
                for (c, p) in dtmc.matrix().row_iter(i) {
                    let c = c as usize;
                    if target.get(c) {
                        a[r][m] += p;
                    } else if pos[c] != usize::MAX {
                        a[r][pos[c]] -= p;
                    }
                }
            }
            let x = solve_dense(a);
            (0..n)
                .map(|i| {
                    if target.get(i) {
                        1.0
                    } else if pos[i] != usize::MAX {
                        x[pos[i]]
                    } else {
                        0.0
                    }
                })
                .collect()
        }

        /// Exact expected reachability reward on the certain region:
        /// eliminate `(I − P)x = r` directly; ∞ outside.
        fn exact_reach_reward(dtmc: &Dtmc, target: &BitVec) -> Vec<f64> {
            let n = dtmc.n_states();
            let s0 = crate::graph::can_reach(dtmc, target, None).not();
            let certain = crate::graph::can_reach(dtmc, &s0, Some(target)).not();
            let idx: Vec<usize> = (0..n)
                .filter(|&i| certain.get(i) && !target.get(i))
                .collect();
            let mut pos = vec![usize::MAX; n];
            for (r, &i) in idx.iter().enumerate() {
                pos[i] = r;
            }
            let m = idx.len();
            let mut a = vec![vec![0.0; m + 1]; m];
            for (r, &i) in idx.iter().enumerate() {
                a[r][r] += 1.0;
                a[r][m] = dtmc.rewards()[i];
                for (c, p) in dtmc.matrix().row_iter(i) {
                    let c = c as usize;
                    if pos[c] != usize::MAX {
                        a[r][pos[c]] -= p;
                    }
                }
            }
            let x = solve_dense(a);
            (0..n)
                .map(|i| {
                    if target.get(i) {
                        0.0
                    } else if pos[i] != usize::MAX {
                        x[pos[i]]
                    } else {
                        f64::INFINITY
                    }
                })
                .collect()
        }

        proptest! {
                    #![proptest_config(ProptestConfig::with_cases(48))]

                    /// Topological (SCC-ordered) solving agrees with the global
                    /// linear system on random absorbing chains: plain values within
                    /// the solver tolerance of its dense solution, certified
                    /// intervals ε-wide and bracketing it.
                    #[test]
                    fn topological_matches_global_on_random_chains(
                        n in 8u32..60,
                        edges in proptest::collection::vec((0u32..64, 0u32..64, 1u32..8), 60),
                    ) {
                        let model = RandomAbsorbing { n, edges };
                        let e = explore(&model, &ExploreOptions::default()).unwrap();
                        let goal = e.dtmc.label("goal").unwrap().clone();
                        let exact = exact_reach(&e.dtmc, &goal);
                        let topo =
                            super::super::topo_reach_values(
        &e.dtmc, &crate::graph::Condensation::new(&e.dtmc), &goal, 1e-12, 1_000_000).unwrap();
                        for (i, (t, g)) in topo.iter().zip(&exact).enumerate() {
                            prop_assert!((t - g).abs() < 1e-8, "state {i}: topo {t} vs exact {g}");
                        }
                        let eps = 1e-8;
                        let cert = super::super::topo_interval_reach_values(
        &e.dtmc, &crate::graph::Condensation::new(&e.dtmc), &goal, eps, 10_000_000,
                        ).unwrap();
                        prop_assert!(cert.width() < eps);
                        for (i, v) in exact.iter().enumerate() {
                            prop_assert!(
                                cert.lo[i] - 1e-10 <= *v && *v <= cert.hi[i] + 1e-10,
                                "state {i}: exact {v} outside topo [{}, {}]",
                                cert.lo[i], cert.hi[i]
                            );
                        }
                    }

                    /// The topological reachability-reward drivers agree with the
                    /// exact solve — including the ∞ region, which the qualitative
                    /// pre-pass must pin identically however the SCCs are ordered.
                    #[test]
                    fn topological_reward_matches_exact_on_random_chains(
                        n in 8u32..60,
                        edges in proptest::collection::vec((0u32..64, 0u32..64, 1u32..8), 60),
                    ) {
                        let model = RandomAbsorbing { n, edges };
                        let e = explore(&model, &ExploreOptions::default()).unwrap();
                        let goal = e.dtmc.label("goal").unwrap().clone();
                        let exact = exact_reach_reward(&e.dtmc, &goal);
                        let topo = super::super::topo_reach_reward_values(
        &e.dtmc, &crate::graph::Condensation::new(&e.dtmc), &goal, 1e-12, 1_000_000,
                        ).unwrap();
                        let cert = super::super::topo_interval_reach_reward_values(
        &e.dtmc, &crate::graph::Condensation::new(&e.dtmc), &goal, 1e-7, 10_000_000,
                        ).unwrap();
                        prop_assert!(cert.width() < 1e-7);
                        for (i, v) in exact.iter().enumerate() {
                            if v.is_infinite() {
                                prop_assert_eq!(topo[i], f64::INFINITY, "state {}", i);
                                prop_assert_eq!(cert.lo[i], f64::INFINITY, "state {}", i);
                                prop_assert_eq!(cert.hi[i], f64::INFINITY, "state {}", i);
                            } else {
                                let slack = 1e-8 * (1.0 + v.abs());
                                prop_assert!(
                                    (topo[i] - v).abs() < slack,
                                    "state {i}: topo {} vs exact {v}", topo[i]
                                );
                                // The dense factorization itself carries
                                // rounding noise; allow it proportionally.
                                let slack = 1e-9 * (1.0 + v.abs());
                                prop_assert!(
                                    cert.lo[i] - slack <= *v && *v <= cert.hi[i] + slack,
                                    "state {i}: exact {v} outside topo [{}, {}]",
                                    cert.lo[i], cert.hi[i]
                                );
                            }
                        }
                    }
                }
    }
}
