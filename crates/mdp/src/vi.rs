//! Min/max value iteration — Bellman backups over the action pool.
//!
//! All quantitative MDP queries reduce to iterating the optimal backup
//! operator: for a value vector `x`,
//!
//! ```text
//! (T_opt x)[s] = opt_{a ∈ actions(s)} Σ_c P(s, a, c) · x[c]
//! ```
//!
//! with `opt` either `min` (worst case over the adversary, `Pmin`/`Rmin`)
//! or `max` (best case, `Pmax`/`Rmax`). [`optimal_step_into`] implements
//! one masked backup following the DTMC engine's buffer-reuse contract
//! (caller-owned ping-pong buffers, zero per-step allocation); the
//! step-bounded drivers ([`bounded_until_values`],
//! [`cumulative_reward_values`], ...) loop it. Every unbounded answer —
//! the default [`topo_until_values`] / [`topo_reach_reward_values`] and
//! the certified [`topo_certified_until_values`] /
//! [`topo_certified_reach_reward_values`] — comes from the chain engine's
//! level walk over the SCC condensation instead
//! ([`smg_dtmc::solve::topo_walk`]), with this module's row backup for one
//! min/max query (see "Topological solving" below).
//!
//! # Parallelism and determinism
//!
//! Where its measured dispatch site ([`smg_dtmc::par::Site`], work: stored
//! transitions of the states that pass the mask; condensation batches
//! count states) picks the parallel form, or an explicit pin asks for it,
//! the backup runs as fixed-size output chunks **dynamically dispatched**
//! over the worker pool of the calling thread's lane scope
//! ([`smg_dtmc::par::scoped_pool`], the chain kernels' pool;
//! [`smg_dtmc::pool::Pool::map_chunks_dynamic`]): action fan-out is often
//! heavy-tailed (a few states carry most choices), so lanes claim chunks
//! through an atomic cursor instead of a fixed stride. Each output state
//! is computed by exactly one task from the same action walk the
//! sequential loop performs, so results are **bit-identical to the
//! sequential fallback for every thread count and chunk geometry**
//! (property-tested in `tests/vi_properties.rs`).
//!
//! # Certified convergence
//!
//! The default unbounded drivers stop on a residual test, which cannot
//! bound the distance to the fixpoint. The `topo_certified_*` drivers
//! replace it with **interval iteration**: a lower bound ascending from 0
//! and an upper bound descending from a qualitative seed ([`crate::qual`]),
//! advanced together by one action walk per state and terminated only when
//! `upper − lower < ε` pointwise. End components — the structures that let
//! plain upper iterates stall above the true `Pmax`, and lower `Rmin`
//! iterates stall below the true cost — are handled by per-sweep
//! *deflation* (capping a component's upper values at its best exit
//! backup) and *inflation* (raising a zero-reward component's lower values
//! to its cheapest exit backup), over maximal end components computed once
//! per query. The result is a sound bracket for all four
//! `Pmin`/`Pmax`/`Rmin`/`Rmax` forms, cross-checked in the tests against
//! exhaustive memoryless-scheduler enumeration.

use crate::mdp::Mdp;
use crate::qual;
use smg_dtmc::graph::Condensation;
use smg_dtmc::solve::{topo_walk, CertifiedValues, LevelValue, RowBackup};
use smg_dtmc::{par, BitVec, DtmcError};
use smg_obs as obs;
use std::collections::BTreeMap;

/// The optimization direction of a query: worst case (`Min`) or best case
/// (`Max`) over the resolution of all nondeterminism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opt {
    /// Minimize over schedulers (`Pmin`, `Rmin`).
    Min,
    /// Maximize over schedulers (`Pmax`, `Rmax`).
    Max,
}

impl Opt {
    /// Whether `candidate` improves on `incumbent` in this direction.
    #[inline]
    pub fn better(self, candidate: f64, incumbent: f64) -> bool {
        match self {
            Opt::Min => candidate < incumbent,
            Opt::Max => candidate > incumbent,
        }
    }

    /// The opposite direction (used by qualitative pre-passes: `Rmax` is
    /// finite where `Pmin` reaches almost surely, and vice versa).
    pub fn dual(self) -> Opt {
        match self {
            Opt::Min => Opt::Max,
            Opt::Max => Opt::Min,
        }
    }

    /// The lowercase suffix (`"min"` / `"max"`) used in property syntax.
    pub fn suffix(self) -> &'static str {
        match self {
            Opt::Min => "min",
            Opt::Max => "max",
        }
    }
}

impl std::fmt::Display for Opt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

/// Knobs for the value-iteration drivers.
#[derive(Debug, Clone, Copy)]
pub struct ViOptions {
    /// L∞ convergence tolerance for unbounded iterations.
    pub tol: f64,
    /// Iteration budget for unbounded iterations.
    pub max_iter: usize,
    /// State-count threshold above which backups run on the worker pool.
    /// `None` (the default) lets the backups' measured dispatch sites
    /// decide ([`par::Site`]), or the static rule when the calling thread
    /// is pinned ([`par::with_lane_scope`]); explicit values let tests and
    /// benches force either path. Results are identical either way.
    pub par_min_states: Option<usize>,
    /// States per dynamically dispatched chunk of a parallel backup.
    pub chunk: usize,
}

impl Default for ViOptions {
    fn default() -> Self {
        ViOptions {
            tol: 1e-12,
            max_iter: 1_000_000,
            par_min_states: None,
            chunk: 2_048,
        }
    }
}

impl ViOptions {
    /// Options with an explicit parallel threshold (0 forces the parallel
    /// path, `usize::MAX` forces the sequential one).
    pub fn with_par_min_states(mut self, m: usize) -> Self {
        self.par_min_states = Some(m);
        self
    }

    /// Runs `f` with the form a call over `rows` states carrying `work`
    /// units takes (`true` = parallel): the explicit threshold first,
    /// `site`'s choice otherwise.
    fn dispatch<R>(
        &self,
        site: &par::Site,
        rows: usize,
        work: usize,
        f: impl FnOnce(bool) -> R,
    ) -> R {
        match self.par_min_states {
            Some(m) => f(rows >= m),
            None => site.run(rows, work, f),
        }
    }
}

/// One optimal Bellman backup `out = T_opt x`, masked: states outside
/// `active` keep their current value (`out[s] = x[s]`, the absorbing
/// semantics the until/reward iterations rely on). The output buffer is
/// fully overwritten and must not alias `x`.
///
/// # Panics
///
/// Panics if `x.len()`, `out.len()`, or the mask length mismatch the
/// state count.
pub fn optimal_step_into(
    mdp: &Mdp,
    x: &[f64],
    active: Option<&BitVec>,
    opt: Opt,
    out: &mut [f64],
    vio: &ViOptions,
) {
    let n = mdp.n_states();
    assert_eq!(x.len(), n, "value vector length mismatch");
    assert_eq!(out.len(), n, "output buffer length mismatch");
    if let Some(m) = active {
        assert_eq!(m.len(), n, "mask length mismatch");
    }
    let body = |offset: usize, chunk: &mut [f64]| {
        for (j, slot) in chunk.iter_mut().enumerate() {
            let s = offset + j;
            if let Some(mask) = active {
                if !mask.get(s) {
                    *slot = x[s];
                    continue;
                }
            }
            let mut best = 0.0;
            for a in 0..mdp.action_count(s) {
                let mut acc = 0.0;
                for (c, p) in mdp.action_row(s, a) {
                    acc += p * x[c as usize];
                }
                if a == 0 || opt.better(acc, best) {
                    best = acc;
                }
            }
            *slot = best;
        }
    };
    // Work: the transitions of the states that pass the mask; both forms
    // copy the other states through.
    static STEP: par::Site = par::Site::new("vi_step");
    let work = match active {
        None => mdp.n_transitions(),
        Some(mask) => par::live_work(mdp.n_transitions(), n, |s| mask.get(s)),
    };
    vio.dispatch(&STEP, n, work, |parallel| {
        if parallel {
            par::scoped_pool()
                .map_chunks_dynamic(out, vio.chunk.max(1), &|offset, chunk| body(offset, chunk));
        } else {
            body(0, out);
        }
    });
}

/// Tolerance within which an action's backup counts as attaining the
/// optimum during scheduler extraction (the values come from an iteration
/// converged to ~1e-12, so exact float equality would be wrong).
const SCHED_TOL: f64 = 1e-9;

/// The memoryless deterministic scheduler extracted from a converged value
/// vector: `scheduler[s]` attains the optimal one-step backup of `values`
/// at `s`. For unbounded reachability (where memoryless schedulers are
/// optimal) this is an optimal scheduler; simulation uses it for
/// statistical cross-validation (`smg-sim::mdp_smc`).
///
/// **`Pmax` needs the `target` set.** Greedily maximizing is not enough:
/// a value-preserving cycle (e.g. a self-loop) ties with the progressing
/// action and would trap the induced chain at probability 0 — the
/// classic pitfall of max-scheduler extraction. When `opt` is
/// [`Opt::Max`] and `target` is given, ties are broken by the standard
/// attractor construction: states are claimed outward from the target,
/// each picking an optimal action with an already-claimed successor, so
/// the induced chain provably makes progress. For [`Opt::Min`] (any
/// minimizing selection is optimal) and for step-bounded cross-checks,
/// `None` suffices.
pub fn extremal_scheduler(
    mdp: &Mdp,
    values: &[f64],
    opt: Opt,
    target: Option<&BitVec>,
) -> Vec<u32> {
    let n = mdp.n_states();
    assert_eq!(values.len(), n, "value vector length mismatch");
    let backup = |s: usize, a: usize| -> f64 {
        let mut acc = 0.0;
        for (c, p) in mdp.action_row(s, a) {
            acc += p * values[c as usize];
        }
        acc
    };
    // Greedy pass: first action attaining the optimum.
    let mut sched: Vec<u32> = (0..n)
        .map(|s| {
            let mut best = 0.0;
            let mut arg = 0u32;
            for a in 0..mdp.action_count(s) {
                let acc = backup(s, a);
                if a == 0 || opt.better(acc, best) {
                    best = acc;
                    arg = a as u32;
                }
            }
            arg
        })
        .collect();
    // Attractor repair for Pmax: claim states outward from the target
    // through optimal actions, so every positive-value state's choice has
    // a claimed successor (hence positive probability of progress).
    if let (Opt::Max, Some(target)) = (opt, target) {
        let mut claimed: Vec<bool> = (0..n).map(|s| target.get(s)).collect();
        loop {
            let mut changed = false;
            for s in 0..n {
                if claimed[s] || values[s] <= 0.0 {
                    continue;
                }
                // The greedy pass left the optimal backup at sched[s].
                let best = backup(s, sched[s] as usize);
                for a in 0..mdp.action_count(s) {
                    if backup(s, a) < best - SCHED_TOL {
                        continue;
                    }
                    if mdp
                        .action_row(s, a)
                        .any(|(c, p)| p > 0.0 && claimed[c as usize])
                    {
                        sched[s] = a as u32;
                        claimed[s] = true;
                        changed = true;
                        break;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    sched
}

fn check_len(mdp: &Mdp, bits: &BitVec) -> Result<(), DtmcError> {
    if bits.len() != mdp.n_states() {
        return Err(DtmcError::DimensionMismatch {
            expected: mdp.n_states(),
            actual: bits.len(),
        });
    }
    Ok(())
}

/// The optimal probability of `lhs U<=t rhs` from every state: backward
/// value iteration over `t` optimal backups, with `rhs` pinned to 1 and
/// failure states (`¬lhs ∧ ¬rhs`) pinned to 0 — the MDP analogue of
/// [`smg_dtmc::transient::bounded_until_values`].
///
/// # Errors
///
/// [`DtmcError::DimensionMismatch`] for wrong-length bit vectors.
pub fn bounded_until_values(
    mdp: &Mdp,
    lhs: &BitVec,
    rhs: &BitVec,
    t: usize,
    opt: Opt,
    vio: &ViOptions,
) -> Result<Vec<f64>, DtmcError> {
    check_len(mdp, lhs)?;
    check_len(mdp, rhs)?;
    let n = mdp.n_states();
    let active = lhs.and(&rhs.not());
    let mut x: Vec<f64> = (0..n).map(|i| if rhs.get(i) { 1.0 } else { 0.0 }).collect();
    let mut next = vec![0.0; n];
    for _ in 0..t {
        optimal_step_into(mdp, &x, Some(&active), opt, &mut next, vio);
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

/// The optimal expected instantaneous reward at exactly step `t` from
/// every state (the MDP form of `R=? [I=t]`): `t` unmasked optimal
/// backups of the reward vector.
pub fn instantaneous_reward_values(mdp: &Mdp, t: usize, opt: Opt, vio: &ViOptions) -> Vec<f64> {
    let mut x = mdp.rewards().to_vec();
    let mut next = vec![0.0; x.len()];
    for _ in 0..t {
        optimal_step_into(mdp, &x, None, opt, &mut next, vio);
        std::mem::swap(&mut x, &mut next);
    }
    x
}

/// The optimal expected reward accumulated over the first `t` steps from
/// every state (the MDP form of `R=? [C<=t]`; the state occupied at each
/// of steps `0..t-1` contributes its reward, matching the DTMC checker's
/// cumulative semantics).
pub fn cumulative_reward_values(mdp: &Mdp, t: usize, opt: Opt, vio: &ViOptions) -> Vec<f64> {
    let n = mdp.n_states();
    let rewards = mdp.rewards();
    let mut x = vec![0.0; n];
    let mut next = vec![0.0; n];
    for _ in 0..t {
        optimal_step_into(mdp, &x, None, opt, &mut next, vio);
        for (v, r) in next.iter_mut().zip(rewards) {
            *v += r;
        }
        std::mem::swap(&mut x, &mut next);
    }
    x
}

/// Per-state end-component membership (`u32::MAX` = none) plus the list,
/// precomputed once per query that deflates or inflates.
struct EcIndex {
    of: Vec<u32>,
    members: Vec<Vec<u32>>,
}

impl EcIndex {
    fn new(mdp: &Mdp, restrict: &BitVec) -> EcIndex {
        let members = qual::max_end_components(mdp, restrict);
        let mut of = vec![u32::MAX; mdp.n_states()];
        for (k, m) in members.iter().enumerate() {
            for &s in m {
                of[s as usize] = k as u32;
            }
        }
        EcIndex { of, members }
    }

    /// The `opt`-best backup over the *exit* actions of component `k` —
    /// actions of member states whose support leaves the component. Every
    /// retained component has at least one (closed components that cannot
    /// reach the target are excluded by the qualitative pre-passes).
    fn best_exit(&self, mdp: &Mdp, k: usize, value: impl Fn(usize) -> f64, opt: Opt) -> f64 {
        let mut best = match opt {
            Opt::Max => f64::NEG_INFINITY,
            Opt::Min => f64::INFINITY,
        };
        for &u in &self.members[k] {
            let u = u as usize;
            for a in 0..mdp.action_count(u) {
                let mut exits = false;
                let mut acc = 0.0;
                for (c, p) in mdp.action_row(u, a) {
                    exits |= self.of[c as usize] != self.of[u];
                    acc += p * value(c as usize);
                }
                if exits && opt.better(acc, best) {
                    best = acc;
                }
            }
        }
        best
    }
}

/// The smallest `k` at which every `active` state reaches the target
/// within `k` steps with positive probability under *every* scheduler,
/// with the minimum such probability `δ` — `k` bounded min-VI sweeps. On a
/// correct `Pmin = 1` region such a `k ≤ n` always exists (a scheduler
/// avoiding the target for `n` steps surely contains an avoiding cycle,
/// contradicting `Pmin = 1`).
fn min_hitting_probe(
    mdp: &Mdp,
    target: &BitVec,
    active: &BitVec,
    vio: &ViOptions,
) -> Result<(usize, f64), DtmcError> {
    let n = mdp.n_states();
    if !active.any() {
        return Ok((1, 1.0));
    }
    let mut w: Vec<f64> = (0..n)
        .map(|i| if target.get(i) { 1.0 } else { 0.0 })
        .collect();
    let mut next = vec![0.0; n];
    for k in 1..=n {
        optimal_step_into(mdp, &w, Some(active), Opt::Min, &mut next, vio);
        std::mem::swap(&mut w, &mut next);
        let delta = active
            .iter_ones()
            .map(|i| w[i])
            .fold(f64::INFINITY, f64::min);
        if delta > 0.0 {
            return Ok((k, delta));
        }
    }
    // Unreachable when `active` really is the Pmin = 1 region; fail loudly
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
// The `topo_*` drivers run the one level walk of both engines
// ([`topo_walk`]) over the SCC condensation of the any-action graph
// ([`qual::condensation`]), level by level (sinks first), solving each
// component with its successors' already-solved values folded in as
// constants. This module supplies the walk's [`RowBackup`] for one min/max
// query (`OptRows`): the closed form of a trivial state, the optimal
// backup of a sweep, and the end-component correction after each sweep.
// Because an end component is strongly connected, it never spans two SCCs,
// so deflation (Pmax) and inflation (Rmin) stay component-local. Trivial
// components — a single state, the dominant case in layered models —
// collapse to one closed-form backsubstitution; all trivial components of
// a DAG level are independent and are evaluated as one batch on the
// `vi_batch` dispatch site.
//
// The walk is generic over the value kept per state ([`LevelValue`]): the
// certified `topo_certified_*` drivers keep an `(lo, hi)` bracket and stop
// each component on its width; the default `topo_*` drivers keep only the
// lower value, iterated up from 0 and stopped on a residual. The lower
// side needs no upper seed, no hitting probe and no proper scheduler: it
// converges to the least fixpoint, which is `Pmin`/`Pmax` and `Rmax`
// exactly, and `Rmin` once zero-reward end components are inflated (a
// stall there costs nothing per backup but never reaches the target).

/// Which end-component correction a query needs: cap upper bounds at the
/// best exit (certified `Pmax`) or raise lower bounds to the cheapest exit
/// (`Rmin` over zero-reward components).
#[derive(Clone, Copy)]
enum EcMode {
    DeflateHi,
    InflateLo,
}

/// A query's end components, their correction, and the end components of
/// each condensation component (an end component never spans SCCs).
struct EcCorrection {
    ecs: EcIndex,
    mode: EcMode,
    by_comp: BTreeMap<u32, Vec<usize>>,
}

impl EcCorrection {
    fn new(ecs: EcIndex, mode: EcMode, cond: &Condensation) -> EcCorrection {
        let mut by_comp: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        for (k, members) in ecs.members.iter().enumerate() {
            by_comp
                .entry(cond.comp_of()[members[0] as usize])
                .or_default()
                .push(k);
        }
        EcCorrection { ecs, mode, by_comp }
    }
}

/// One min/max query as the walk's [`RowBackup`]: optimal backups over the
/// action pool, rewards added per state, and an optional end-component
/// correction. Trivial batches run on the `vi_batch` site through
/// [`ViOptions::dispatch`] with dynamic chunks.
struct OptRows<'a> {
    mdp: &'a Mdp,
    opt: Opt,
    rewards: Option<&'a [f64]>,
    ec: Option<EcCorrection>,
    vio: &'a ViOptions,
}

impl RowBackup for OptRows<'_> {
    const DRIVERS: [&'static str; 2] = ["topo_vi", "topo_certified_vi"];

    /// The optimal fixpoint of `x = opt_a (r + Σ_c P(s,a,c)·x_c)` with every
    /// non-self successor already solved. Per action, the self-loop mass is
    /// eliminated algebraically (`x_a = (r + Σ_{c≠s} p_c·x_c) / Σ_{c≠s}
    /// p_c`, dividing by the stored off-diagonal mass rather than `1 − p_ss`,
    /// which loses the digits of a sticky self-loop); actions keeping all
    /// mass on `s` are skipped — staying forever never reaches a target
    /// (`P` forms: contributes the already-seeded 0; reward forms: exactly
    /// what deflation/inflation would enforce, since the state is then a
    /// singleton end component whose exits are the remaining actions).
    fn solved<V: LevelValue>(&self, s: usize, x: &[V]) -> V {
        let reward = self.rewards.map_or(0.0, |r| r[s]);
        let mut best: Option<V> = None;
        for a in 0..self.mdp.action_count(s) {
            let mut off = 0.0;
            let mut acc = V::splat(reward);
            for (c, p) in self.mdp.action_row(s, a) {
                if c as usize != s {
                    off += p;
                    acc = acc.add_scaled(p, x[c as usize]);
                }
            }
            if off <= 0.0 {
                continue;
            }
            let cand = acc.div(off);
            best = Some(match best {
                None => cand,
                Some(b) => b.zip(cand, |b, c| if self.opt.better(c, b) { c } else { b }),
            });
        }
        // Active states always have at least one mass-moving action (they
        // reach a target outside themselves), so this fallback is never
        // taken.
        best.unwrap_or(V::splat(0.0))
    }

    /// The optimal backup of `s`, reading the freshest values. In-place
    /// updates are sound because the backup is monotone: any read vector
    /// satisfying `lo ≤ x* ≤ hi` pointwise produces an update that still
    /// satisfies it. They converge at least as fast as Jacobi sweeps: a
    /// fresher (already tighter) read can only tighten the update.
    fn update<V: LevelValue>(&self, s: usize, x: &[V]) -> V {
        let pick = |b: f64, c: f64| if self.opt.better(c, b) { c } else { b };
        let mut best = V::splat(0.0);
        for a in 0..self.mdp.action_count(s) {
            let mut acc = V::splat(0.0);
            for (c, p) in self.mdp.action_row(s, a) {
                acc = acc.add_scaled(p, x[c as usize]);
            }
            best = if a == 0 { acc } else { best.zip(acc, pick) };
        }
        if let Some(r) = self.rewards {
            best = best.add_scaled(1.0, V::splat(r[s]));
        }
        best
    }

    fn corrects(&self, ci: u32) -> bool {
        self.ec
            .as_ref()
            .is_some_and(|ec| ec.by_comp.contains_key(&ci))
    }

    /// Deflates or inflates the end components inside component `ci`.
    /// Every state whose bound moves adds one to `smg_vi_deflations_total`
    /// or `smg_vi_inflations_total`.
    fn correct<V: LevelValue>(&self, ci: u32, x: &mut [V]) {
        let Some(EcCorrection { ecs, mode, by_comp }) = &self.ec else {
            return;
        };
        let Some(ids) = by_comp.get(&ci) else {
            return;
        };
        let mut moved = 0u64;
        for &k in ids {
            match mode {
                EcMode::DeflateHi => {
                    let cap = ecs.best_exit(self.mdp, k, |c| x[c].hi(), Opt::Max);
                    for &s in &ecs.members[k] {
                        let was = x[s as usize];
                        x[s as usize] = was.map_hi(|hi| hi.min(cap));
                        moved += u64::from(x[s as usize].hi() < was.hi());
                    }
                }
                EcMode::InflateLo => {
                    let floor = ecs.best_exit(self.mdp, k, |c| x[c].lo(), Opt::Min);
                    for &s in &ecs.members[k] {
                        let was = x[s as usize];
                        x[s as usize] = was.map_lo(|lo| lo.max(floor));
                        moved += u64::from(x[s as usize].lo() > was.lo());
                    }
                }
            }
        }
        if moved > 0 {
            let counter = match mode {
                EcMode::DeflateHi => "smg_vi_deflations_total",
                EcMode::InflateLo => "smg_vi_inflations_total",
            };
            obs::counter_add(counter, None, moved);
        }
    }

    fn batch<V: LevelValue>(&self, out: &mut [V], fill: impl Fn(usize, &mut [V]) + Sync) {
        static BATCH: par::Site = par::Site::new("vi_batch");
        self.vio.dispatch(&BATCH, out.len(), out.len(), |parallel| {
            if parallel {
                par::scoped_pool().map_chunks_dynamic(out, self.vio.chunk.max(1), &fill);
            } else {
                fill(0, out);
            }
        });
    }
}

/// Checks that `cond` is a condensation of this MDP's graph.
fn check_cond(mdp: &Mdp, cond: &Condensation) -> Result<(), DtmcError> {
    if cond.comp_of().len() != mdp.n_states() {
        return Err(DtmcError::DimensionMismatch {
            expected: mdp.n_states(),
            actual: cond.comp_of().len(),
        });
    }
    Ok(())
}

/// `Pmin`/`Pmax [lhs U rhs]` on the condensation in either mode: the
/// `P = 0` region is pinned qualitatively ([`qual::prob0_max`] /
/// [`qual::prob0_min`]), `rhs` to 1, and the level walk solves the rest.
/// Only the certified `Pmax` upper bound needs deflation.
fn topo_until<V: LevelValue>(
    mdp: &Mdp,
    cond: &Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    opt: Opt,
    stop: f64,
    vio: &ViOptions,
) -> Result<(Vec<V>, usize), DtmcError> {
    check_len(mdp, lhs)?;
    check_len(mdp, rhs)?;
    check_cond(mdp, cond)?;
    let zero = match opt {
        Opt::Max => qual::prob0_max(mdp, lhs, rhs),
        Opt::Min => qual::prob0_min(mdp, lhs, rhs),
    };
    let active = lhs.and(&rhs.not()).and(&zero.not());
    let ec = match opt {
        Opt::Max if V::CERTIFIED => Some(EcCorrection::new(
            EcIndex::new(mdp, &active),
            EcMode::DeflateHi,
            cond,
        )),
        // Every end component has Pmin = 0 (pinned already), and a lower
        // value iterated from 0 reaches the least fixpoint unaided.
        _ => None,
    };
    let mut cur: Vec<V> = (0..mdp.n_states())
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
    let rows = OptRows {
        mdp,
        opt,
        rewards: None,
        ec,
        vio,
    };
    let iterations = topo_walk(&rows, cond, &active, &mut cur, stop, vio.max_iter)?;
    Ok((cur, iterations))
}

/// `Rmin`/`Rmax [F target]` on the condensation in either mode. The
/// finite region is graph-based ([`qual::prob1_min`] for `Rmax`,
/// [`qual::prob1_max`] for `Rmin`), states outside it are pinned to
/// exactly `∞`, and `Rmin` inflates zero-reward end components on the
/// lower side. The certified upper seeds (the min hitting probe for
/// `Rmax`, the proper scheduler's cost for `Rmin`) are read only inside
/// non-trivial components, so they are computed only when one of those
/// holds an active state.
fn topo_reach_reward<V: LevelValue>(
    mdp: &Mdp,
    cond: &Condensation,
    target: &BitVec,
    opt: Opt,
    stop: f64,
    vio: &ViOptions,
) -> Result<(Vec<V>, usize), DtmcError> {
    check_len(mdp, target)?;
    check_cond(mdp, cond)?;
    let n = mdp.n_states();
    let all = BitVec::ones(n);
    let certain = match opt {
        Opt::Max => qual::prob1_min(mdp, &all, target),
        Opt::Min => qual::prob1_max(mdp, &all, target),
    };
    let active = certain.and(&target.not());
    let rewards = mdp.rewards();
    let seed: Vec<f64> = if V::CERTIFIED && cond.iterates_on(&active) {
        upper_reward_seed(mdp, target, &active, opt, stop, vio)?
    } else {
        vec![0.0; n]
    };
    let ec = match opt {
        Opt::Min => {
            let zero_reward = BitVec::from_fn(n, |i| active.get(i) && rewards[i] == 0.0);
            Some(EcCorrection::new(
                EcIndex::new(mdp, &zero_reward),
                EcMode::InflateLo,
                cond,
            ))
        }
        Opt::Max => None, // no end components survive inside a Pmin = 1 region
    };
    let mut cur: Vec<V> = (0..n)
        .map(|i| {
            if active.get(i) {
                V::bracket(0.0, seed[i])
            } else if certain.get(i) {
                V::splat(0.0)
            } else {
                V::splat(f64::INFINITY)
            }
        })
        .collect();
    let rows = OptRows {
        mdp,
        opt,
        rewards: Some(rewards),
        ec,
        vio,
    };
    let iterations = topo_walk(&rows, cond, &active, &mut cur, stop, vio.max_iter)?;
    Ok((cur, iterations))
}

/// The per-state upper seed of a certified reward bracket over `active`:
/// `k·r_max/δ` from the min hitting probe for `Rmax` (every scheduler is
/// proper there), the certified cost of the graph-built proper scheduler
/// for `Rmin`.
fn upper_reward_seed(
    mdp: &Mdp,
    target: &BitVec,
    active: &BitVec,
    opt: Opt,
    epsilon: f64,
    vio: &ViOptions,
) -> Result<Vec<f64>, DtmcError> {
    let n = mdp.n_states();
    match opt {
        Opt::Max => {
            let rewards = mdp.rewards();
            let r_max = active.iter_ones().map(|i| rewards[i]).fold(0.0, f64::max);
            let bound = if r_max == 0.0 {
                0.0
            } else {
                let (k, delta) = min_hitting_probe(mdp, target, active, vio)?;
                k as f64 * r_max / delta
            };
            Ok(vec![bound; n])
        }
        Opt::Min => {
            let sched = qual::proper_scheduler(mdp, &BitVec::ones(n), target);
            let chain = mdp.induced_dtmc(&sched)?;
            Ok(smg_dtmc::solve::topo_interval_reach_reward_values(
                &chain,
                &Condensation::new(&chain),
                target,
                epsilon,
                vio.max_iter,
            )?
            .hi)
        }
    }
}

/// Optimal probabilities of `lhs U rhs` by **topological** value
/// iteration — the checker's default unbounded MDP solver. Same
/// qualitative pre-pass as [`topo_certified_until_values`], then one SCC at a time
/// in reverse topological order over `cond` ([`qual::condensation`]):
/// trivial components by closed-form backsubstitution, the others by
/// in-place optimal backups of the lower value from 0, each stopping on a
/// component-local residual below `vio.tol`. `vio.max_iter` bounds each
/// component's sweeps.
///
/// # Errors
///
/// [`DtmcError::DimensionMismatch`] for wrong-length bit vectors or a
/// condensation of another MDP; [`DtmcError::NoConvergence`] if a
/// component misses the tolerance within `vio.max_iter` sweeps.
pub fn topo_until_values(
    mdp: &Mdp,
    cond: &Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    opt: Opt,
    vio: &ViOptions,
) -> Result<Vec<f64>, DtmcError> {
    topo_until(mdp, cond, lhs, rhs, opt, vio.tol, vio).map(|(x, _)| x)
}

/// Optimal reachability `Pmin`/`Pmax` `[F target]` by topological value
/// iteration — [`topo_until_values`] with an unrestricted left operand.
///
/// # Errors
///
/// As for [`topo_until_values`].
pub fn topo_reach_values(
    mdp: &Mdp,
    cond: &Condensation,
    target: &BitVec,
    opt: Opt,
    vio: &ViOptions,
) -> Result<Vec<f64>, DtmcError> {
    let all = BitVec::ones(mdp.n_states());
    topo_until_values(mdp, cond, &all, target, opt, vio)
}

/// The optimal expected reward accumulated strictly before first reaching
/// a `target` state, from every state (`Rmin`/`Rmax` `[F target]`, PRISM
/// semantics: the target's own reward is not counted), by topological
/// value iteration of the lower value.
///
/// A state's value is `∞` when the *dual* reachability is not almost sure
/// — `Rmax` where some scheduler avoids the target (`Pmin < 1`), `Rmin`
/// where even the best scheduler cannot reach it almost surely
/// (`Pmax < 1`) — decided from the graph ([`qual::prob1_min`] /
/// [`qual::prob1_max`]), never from a thresholded probability. `Rmax`
/// ascends from 0 to its unique fixpoint (every scheduler is proper in its
/// finite region); `Rmin` ascends with zero-reward end components inflated
/// to their cheapest exit, which steps over the spurious sub-fixpoints a
/// free stall would create. Rewards are assumed non-negative.
///
/// # Errors
///
/// As for [`topo_until_values`].
pub fn topo_reach_reward_values(
    mdp: &Mdp,
    cond: &Condensation,
    target: &BitVec,
    opt: Opt,
    vio: &ViOptions,
) -> Result<Vec<f64>, DtmcError> {
    topo_reach_reward(mdp, cond, target, opt, vio.tol, vio).map(|(x, _)| x)
}

/// Certified optimal probabilities of `lhs U rhs` from every state by
/// **topological** interval iteration: the `[lo, hi]` result provably
/// brackets the exact `Pmin`/`Pmax` value with width below `epsilon` at
/// every state, solved one SCC of `cond` at a time in reverse topological
/// order, so certified cost concentrates on the components that need
/// iteration while layered structure collapses to closed-form
/// backsubstitution. `vio.max_iter` bounds each component's sweeps, not
/// the global total.
///
/// The qualitative pre-pass pins the `P = 0` region exactly (for `Pmax`
/// the states no scheduler can steer to `rhs`, for `Pmin` the states some
/// scheduler can keep away — [`qual::prob0_max`]/[`qual::prob0_min`]).
/// For `Pmin` that already makes the fixpoint unique. For `Pmax` the
/// remaining end components can hold the upper iterate above the true
/// value forever, so each sweep *deflates* them: every component's upper
/// values are capped at its best exit backup, which is sound (any
/// scheduler must leave the component to reach `rhs`) and restores
/// convergence.
///
/// # Errors
///
/// [`DtmcError::DimensionMismatch`] for wrong-length bit vectors or a
/// condensation of another MDP; [`DtmcError::NoConvergence`] if a
/// component's width stays above `epsilon` for `vio.max_iter` sweeps.
pub fn topo_certified_until_values(
    mdp: &Mdp,
    cond: &Condensation,
    lhs: &BitVec,
    rhs: &BitVec,
    opt: Opt,
    epsilon: f64,
    vio: &ViOptions,
) -> Result<CertifiedValues, DtmcError> {
    let (cur, iterations) = topo_until::<(f64, f64)>(mdp, cond, lhs, rhs, opt, epsilon, vio)?;
    Ok(CertifiedValues::from_pairs(cur, iterations))
}

/// Certified optimal reachability `Pmin`/`Pmax` `[F target]` by
/// topological interval iteration — [`topo_certified_until_values`] with
/// an unrestricted left operand.
///
/// # Errors
///
/// As for [`topo_certified_until_values`].
pub fn topo_certified_reach_values(
    mdp: &Mdp,
    cond: &Condensation,
    target: &BitVec,
    opt: Opt,
    epsilon: f64,
    vio: &ViOptions,
) -> Result<CertifiedValues, DtmcError> {
    let all = BitVec::ones(mdp.n_states());
    topo_certified_until_values(mdp, cond, &all, target, opt, epsilon, vio)
}

/// Certified optimal expected reward accumulated strictly before first
/// reaching `target` (`Rmin`/`Rmax` `[F target]`, PRISM semantics), by
/// topological interval iteration. States outside the qualitative certain
/// region carry the exact `lo = hi = ∞`; on the certain region the bracket
/// has width below `epsilon`.
///
/// Everything the certificate rests on is graph-based, never a
/// residual-converged number:
///
/// * the certain region is [`qual::prob1_min`] for `Rmax` (every
///   scheduler must be proper there for the supremum to be finite) and
///   [`qual::prob1_max`] for `Rmin`;
/// * the `Rmax` upper seed comes from a finite hitting probe — `k` min-VI
///   sweeps showing every certain state reaches the target within `k`
///   steps with probability ≥ δ under *every* scheduler, giving the bound
///   `k·r_max/δ`;
/// * the `Rmin` upper seed is a certified upper bound
///   ([`smg_dtmc::solve::topo_interval_reach_reward_values`]) on the cost
///   of a graph-constructed proper scheduler ([`qual::proper_scheduler`]);
/// * the `Rmin` *lower* iterate would stall below the true cost wherever
///   a zero-reward end component lets the minimizer wait for free, so
///   each sweep *inflates* those components' lower values to their
///   cheapest exit backup (sound: a proper scheduler must leave, and
///   leaving costs at least the cheapest exit).
///
/// The walk solves one SCC at a time (inflation stays component-local,
/// since an end component never spans SCCs), and the upper seeds are
/// computed only when a non-trivial component will read them.
///
/// # Errors
///
/// As for [`topo_certified_until_values`] (for the reward iteration, the
/// hitting probe, and the seed computation).
pub fn topo_certified_reach_reward_values(
    mdp: &Mdp,
    cond: &Condensation,
    target: &BitVec,
    opt: Opt,
    epsilon: f64,
    vio: &ViOptions,
) -> Result<CertifiedValues, DtmcError> {
    let (cur, iterations) = topo_reach_reward::<(f64, f64)>(mdp, cond, target, opt, epsilon, vio)?;
    Ok(CertifiedValues::from_pairs(cur, iterations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use std::collections::BTreeMap;

    /// 0 chooses: action 0 = fair coin between goal(1)/bad(2); action 1 =
    /// biased 0.1 goal / 0.9 bad. Goal and bad absorb.
    fn tiny() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.push_action(&mut [(1, 0.1), (2, 0.9)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 1));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![1.0, 0.0, 0.0]).unwrap()
    }

    #[test]
    fn opt_helpers() {
        assert!(Opt::Max.better(1.0, 0.5));
        assert!(!Opt::Max.better(0.5, 0.5));
        assert!(Opt::Min.better(0.4, 0.5));
        assert_eq!(Opt::Min.dual(), Opt::Max);
        assert_eq!(Opt::Max.to_string(), "max");
    }

    /// The default walk's `Pmin`/`Pmax [F target]` from every state.
    fn reach(m: &Mdp, target: &BitVec, opt: Opt, vio: &ViOptions) -> Vec<f64> {
        topo_reach_values(m, &qual::condensation(m), target, opt, vio).unwrap()
    }

    /// `P [F target]` on a chain, by the chain's default walk.
    fn chain_reach(d: &smg_dtmc::Dtmc, target: &BitVec) -> Vec<f64> {
        let cond = Condensation::new(d);
        smg_dtmc::solve::topo_reach_values(d, &cond, target, 1e-12, 100_000).unwrap()
    }

    #[test]
    fn min_max_reach_on_tiny() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let max = reach(&m, &goal, Opt::Max, &vio);
        let min = reach(&m, &goal, Opt::Min, &vio);
        assert!((max[0] - 0.5).abs() < 1e-9, "Pmax = {}", max[0]);
        assert!((min[0] - 0.1).abs() < 1e-9, "Pmin = {}", min[0]);
        assert_eq!((max[1], min[1]), (1.0, 1.0));
        assert_eq!((max[2], min[2]), (0.0, 0.0));
        // Bounded with a generous horizon agrees.
        let all = BitVec::ones(3);
        let bmax = bounded_until_values(&m, &all, &goal, 50, Opt::Max, &vio).unwrap();
        assert!((bmax[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn extremal_scheduler_picks_the_optimal_action() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let max_vals = reach(&m, &goal, Opt::Max, &vio);
        let min_vals = reach(&m, &goal, Opt::Min, &vio);
        assert_eq!(
            extremal_scheduler(&m, &max_vals, Opt::Max, Some(&goal))[0],
            0
        );
        assert_eq!(extremal_scheduler(&m, &min_vals, Opt::Min, None)[0], 1);
        // The induced chains reproduce the optimal values exactly.
        let d = m
            .induced_dtmc(&extremal_scheduler(&m, &max_vals, Opt::Max, Some(&goal)))
            .unwrap();
        let v = chain_reach(&d, &goal);
        assert!((v[0] - max_vals[0]).abs() < 1e-9);
    }

    #[test]
    fn max_scheduler_extraction_breaks_value_preserving_cycles() {
        // State 0: action 0 self-loops (backup = own value, a tie), action
        // 1 moves to goal with probability 1. Greedy tie-breaking toward
        // action 0 would induce a chain that never reaches goal; the
        // attractor repair must pick action 1.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(2, |i| i == 1));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 0.0]).unwrap();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let vals = reach(&m, &goal, Opt::Max, &vio);
        assert!((vals[0] - 1.0).abs() < 1e-9);
        let sched = extremal_scheduler(&m, &vals, Opt::Max, Some(&goal));
        assert_eq!(sched[0], 1, "must escape the value-preserving self-loop");
        let d = m.induced_dtmc(&sched).unwrap();
        let v = chain_reach(&d, &goal);
        assert!((v[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reward_queries_on_tiny() {
        let m = tiny();
        let vio = ViOptions::default();
        // Reward 1 only in state 0 (transient): instantaneous reward at
        // step 0 is 1, at any later step 0 under both opts.
        let i0 = instantaneous_reward_values(&m, 0, Opt::Max, &vio);
        assert_eq!(i0[0], 1.0);
        let i3 = instantaneous_reward_values(&m, 3, Opt::Max, &vio);
        assert_eq!(i3[0], 0.0);
        // Cumulative over t steps from state 0: exactly one visit to 0.
        let c5 = cumulative_reward_values(&m, 5, Opt::Min, &vio);
        assert!((c5[0] - 1.0).abs() < 1e-12);
        assert_eq!(c5[1], 0.0);
    }

    #[test]
    fn reach_rewards_and_infinity() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        // Rmin/Rmax to reach goal: bad (state 2) never reaches → ∞ from 0
        // too, since every action risks ending in bad.
        let rmax =
            topo_reach_reward_values(&m, &qual::condensation(&m), &goal, Opt::Max, &vio).unwrap();
        assert_eq!(rmax[0], f64::INFINITY);
        assert_eq!(rmax[2], f64::INFINITY);
        assert_eq!(rmax[1], 0.0);
        // Reaching goal | bad is certain in one step; reward 1 accrues in
        // state 0 only.
        let either = BitVec::from_fn(3, |i| i > 0);
        let r =
            topo_reach_reward_values(&m, &qual::condensation(&m), &either, Opt::Min, &vio).unwrap();
        assert!((r[0] - 1.0).abs() < 1e-9);
        assert_eq!(r[1], 0.0);
    }

    #[test]
    fn rmin_is_not_fooled_by_zero_reward_cycles() {
        // States 0 <-> 1 form a zero-reward cycle; each also has an exit
        // action to state 2 (reward 10), which steps to the target 3.
        // A minimizer stalling on the cycle never reaches the target —
        // semantically an ∞-reward path — so the true Rmin is 10, the cost
        // of the cheapest *proper* scheduler. Value iteration from zero
        // would report 0 (the stall costs nothing per Bellman step); the
        // proper-seeded descent must not.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap(); // 0: loop to 1
        b.push_action(&mut [(2, 1.0)]).unwrap(); // 0: exit
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap(); // 1: loop to 0
        b.push_action(&mut [(2, 1.0)]).unwrap(); // 1: exit
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap(); // 2: to target
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap(); // 3: absorbing target
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("t".to_string(), BitVec::from_fn(4, |i| i == 3));
        let m = Mdp::new(
            b.finish(),
            vec![(0, 1.0)],
            labels,
            vec![0.0, 0.0, 10.0, 0.0],
        )
        .unwrap();
        let target = m.label("t").unwrap().clone();
        let vio = ViOptions::default();
        let rmin =
            topo_reach_reward_values(&m, &qual::condensation(&m), &target, Opt::Min, &vio).unwrap();
        assert!((rmin[0] - 10.0).abs() < 1e-9, "Rmin[0] = {}", rmin[0]);
        assert!((rmin[1] - 10.0).abs() < 1e-9, "Rmin[1] = {}", rmin[1]);
        assert!((rmin[2] - 10.0).abs() < 1e-9);
        assert_eq!(rmin[3], 0.0);
        // Rmax here: the maximizer could also stall forever — but a
        // stalling path never reaches the target, so Rmax is ∞ exactly
        // when Pmin < 1, which the qualitative pre-pass reports.
        let rmax =
            topo_reach_reward_values(&m, &qual::condensation(&m), &target, Opt::Max, &vio).unwrap();
        assert_eq!(rmax[0], f64::INFINITY);
    }

    #[test]
    fn certified_reach_brackets_tiny() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let eps = 1e-9;
        for (opt, want) in [(Opt::Max, 0.5), (Opt::Min, 0.1)] {
            let cert =
                topo_certified_reach_values(&m, &qual::condensation(&m), &goal, opt, eps, &vio)
                    .unwrap();
            assert!(cert.width() < eps, "{opt:?}");
            assert!(
                cert.lo[0] <= want && want <= cert.hi[0],
                "{opt:?}: [{}, {}] vs {want}",
                cert.lo[0],
                cert.hi[0]
            );
            // Pinned states are exact.
            assert_eq!((cert.lo[1], cert.hi[1]), (1.0, 1.0));
            assert_eq!((cert.lo[2], cert.hi[2]), (0.0, 0.0));
        }
    }

    #[test]
    fn certified_pmax_deflates_value_preserving_loops() {
        // 0: action 0 self-loops (an end component), action 1 risks
        // {goal: ½, sink: ½}. Pmax = ½, but a plain upper iterate from 1
        // is a fixpoint of the backup (the self-loop preserves it), so
        // only deflation lets the certificate close.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 1));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 3]).unwrap();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let eps = 1e-9;
        let cert =
            topo_certified_reach_values(&m, &qual::condensation(&m), &goal, Opt::Max, eps, &vio)
                .unwrap();
        assert!(cert.width() < eps);
        assert!(
            cert.lo[0] <= 0.5 && 0.5 <= cert.hi[0] && cert.hi[0] < 0.5 + eps,
            "[{}, {}]",
            cert.lo[0],
            cert.hi[0]
        );
        // Pmin = 0 is pinned qualitatively (stall forever).
        let cert =
            topo_certified_reach_values(&m, &qual::condensation(&m), &goal, Opt::Min, eps, &vio)
                .unwrap();
        assert_eq!((cert.lo[0], cert.hi[0]), (0.0, 0.0));
    }

    #[test]
    fn certified_until_respects_lhs() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        // lhs excludes state 0 → goal unreachable from 0 through lhs.
        let lhs = BitVec::from_fn(3, |i| i != 0);
        let vio = ViOptions::default();
        let cert = topo_certified_until_values(
            &m,
            &qual::condensation(&m),
            &lhs,
            &goal,
            Opt::Max,
            1e-9,
            &vio,
        )
        .unwrap();
        assert_eq!((cert.lo[0], cert.hi[0]), (0.0, 0.0));
    }

    #[test]
    fn certified_rewards_bracket_tiny_and_infinity() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let vio = ViOptions::default();
        let eps = 1e-9;
        // Reaching goal alone is uncertain from 0 → ∞ under both opts.
        for opt in [Opt::Max, Opt::Min] {
            let cert = topo_certified_reach_reward_values(
                &m,
                &qual::condensation(&m),
                &goal,
                opt,
                eps,
                &vio,
            )
            .unwrap();
            assert_eq!((cert.lo[0], cert.hi[0]), (f64::INFINITY, f64::INFINITY));
            assert_eq!((cert.lo[1], cert.hi[1]), (0.0, 0.0));
            assert!(cert.width() < eps);
        }
        // goal | bad is reached in one certain step; reward 1 accrues at 0.
        let either = BitVec::from_fn(3, |i| i > 0);
        for opt in [Opt::Max, Opt::Min] {
            let cert = topo_certified_reach_reward_values(
                &m,
                &qual::condensation(&m),
                &either,
                opt,
                eps,
                &vio,
            )
            .unwrap();
            assert!(cert.width() < eps);
            assert!(
                cert.lo[0] <= 1.0 && 1.0 <= cert.hi[0],
                "{opt:?}: [{}, {}]",
                cert.lo[0],
                cert.hi[0]
            );
        }
    }

    #[test]
    fn certified_rmin_inflates_zero_reward_cycles() {
        // Same model as `rmin_is_not_fooled_by_zero_reward_cycles`: the
        // 0 ↔ 1 zero-reward cycle would hold a plain lower iterate at 0
        // forever; inflation must lift it to the true Rmin = 10 and the
        // certificate must close around it.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("t".to_string(), BitVec::from_fn(4, |i| i == 3));
        let m = Mdp::new(
            b.finish(),
            vec![(0, 1.0)],
            labels,
            vec![0.0, 0.0, 10.0, 0.0],
        )
        .unwrap();
        let target = m.label("t").unwrap().clone();
        let vio = ViOptions::default();
        let eps = 1e-9;
        let cert = topo_certified_reach_reward_values(
            &m,
            &qual::condensation(&m),
            &target,
            Opt::Min,
            eps,
            &vio,
        )
        .unwrap();
        assert!(cert.width() < eps);
        for s in [0usize, 1, 2] {
            assert!(
                cert.lo[s] <= 10.0 + 1e-12 && 10.0 <= cert.hi[s] + 1e-12,
                "state {s}: [{}, {}]",
                cert.lo[s],
                cert.hi[s]
            );
        }
        // Rmax is ∞ (the maximizer can stall, so Pmin < 1).
        let cert = topo_certified_reach_reward_values(
            &m,
            &qual::condensation(&m),
            &target,
            Opt::Max,
            eps,
            &vio,
        )
        .unwrap();
        assert_eq!((cert.lo[0], cert.hi[0]), (f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn topo_certified_handles_end_components() {
        // 0 ↔ 1 is a two-state end component (a non-trivial SCC), each
        // state also risking {goal, sink}: ½/½ from 0, ¼/¾ from 1. Pmax = ½
        // on both, but the upper iterate is a fixpoint of the cycle's
        // backups at 1; only component-local deflation closes the bracket.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.push_action(&mut [(2, 0.5), (3, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(2, 0.25), (3, 0.75)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 2));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 4]).unwrap();
        let goal = m.label("goal").unwrap().clone();
        let cond = qual::condensation(&m);
        assert_eq!(cond.largest(), 2);
        let vio = ViOptions::default();
        let eps = 1e-9;
        let cert = topo_certified_reach_values(&m, &cond, &goal, Opt::Max, eps, &vio).unwrap();
        assert!(cert.width() < eps);
        for s in [0usize, 1] {
            assert!(
                cert.lo[s] <= 0.5 && 0.5 <= cert.hi[s] && cert.hi[s] < 0.5 + eps,
                "state {s}: [{}, {}]",
                cert.lo[s],
                cert.hi[s]
            );
        }
        // Pmin = 0 is pinned qualitatively (stall on the cycle forever).
        let cert = topo_certified_reach_values(&m, &cond, &goal, Opt::Min, eps, &vio).unwrap();
        assert_eq!((cert.lo[0], cert.hi[0]), (0.0, 0.0));
    }

    #[test]
    fn topo_certified_rmin_inflates_zero_reward_cycles() {
        // The zero-reward cycle 0 ↔ 1 is an end component inside a larger
        // SCC: both exit to 2 (reward 10), which reaches the target 3 or
        // falls back to 0 with probability ½ each. Rmin = 20 on 0, 1 and
        // 2; the inflation floor (2's lower value) rises sweep by sweep
        // while the component iterates.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 0.5), (3, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("t".to_string(), BitVec::from_fn(4, |i| i == 3));
        let m = Mdp::new(
            b.finish(),
            vec![(0, 1.0)],
            labels,
            vec![0.0, 0.0, 10.0, 0.0],
        )
        .unwrap();
        let target = m.label("t").unwrap().clone();
        let cond = qual::condensation(&m);
        assert_eq!(cond.largest(), 3);
        let vio = ViOptions::default();
        let eps = 1e-9;
        let cert =
            topo_certified_reach_reward_values(&m, &cond, &target, Opt::Min, eps, &vio).unwrap();
        assert!(cert.width() < eps);
        for s in [0usize, 1, 2] {
            assert!(
                cert.lo[s] <= 20.0 + 1e-9 && 20.0 <= cert.hi[s] + 1e-9,
                "state {s}: [{}, {}]",
                cert.lo[s],
                cert.hi[s]
            );
        }
        // Rmax stays exactly ∞ (the maximizer can stall, so Pmin < 1).
        let cert =
            topo_certified_reach_reward_values(&m, &cond, &target, Opt::Max, eps, &vio).unwrap();
        assert_eq!((cert.lo[0], cert.hi[0]), (f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn topo_certified_deep_chain_is_stack_safe_and_exact() {
        // A 10k-deep single-action chain: forces one trivial SCC per state
        // through the full topological machinery.
        let depth = 10_000u32;
        let mut b = MdpBuilder::default();
        for s in 0..depth {
            b.push_action(&mut [(s + 1, 1.0)]).unwrap();
            b.finish_state().unwrap();
        }
        b.push_action(&mut [(depth, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let n = depth as usize + 1;
        let mut labels = BTreeMap::new();
        labels.insert("end".to_string(), BitVec::from_fn(n, |i| i == n - 1));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![1.0; n]).unwrap();
        let end = m.label("end").unwrap().clone();
        let vio = ViOptions::default();
        for opt in [Opt::Min, Opt::Max] {
            let cert =
                topo_certified_reach_values(&m, &qual::condensation(&m), &end, opt, 1e-9, &vio)
                    .unwrap();
            assert!(cert.width() < 1e-9);
            assert!((cert.midpoints()[0] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn certified_parallel_path_is_bit_identical() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let seq = ViOptions::default().with_par_min_states(usize::MAX);
        let par = ViOptions {
            chunk: 1,
            ..ViOptions::default().with_par_min_states(0)
        };
        for opt in [Opt::Min, Opt::Max] {
            let a =
                topo_certified_reach_values(&m, &qual::condensation(&m), &goal, opt, 1e-10, &seq)
                    .unwrap();
            let b =
                topo_certified_reach_values(&m, &qual::condensation(&m), &goal, opt, 1e-10, &par)
                    .unwrap();
            assert_eq!((a.lo, a.hi), (b.lo, b.hi));
        }
    }

    #[test]
    fn forced_parallel_path_is_bit_identical() {
        let m = tiny();
        let goal = m.label("goal").unwrap().clone();
        let seq = ViOptions::default().with_par_min_states(usize::MAX);
        let par = ViOptions {
            chunk: 1,
            ..ViOptions::default().with_par_min_states(0)
        };
        let all = BitVec::ones(m.n_states());
        for opt in [Opt::Min, Opt::Max] {
            assert_eq!(reach(&m, &goal, opt, &seq), reach(&m, &goal, opt, &par));
            assert_eq!(
                bounded_until_values(&m, &all, &goal, 5, opt, &seq).unwrap(),
                bounded_until_values(&m, &all, &goal, 5, opt, &par).unwrap()
            );
        }
    }
}
