//! Breadth-first state-space exploration.
//!
//! [`explore`] enumerates the states of a [`DtmcModel`] reachable from its
//! initial distribution, interning each distinct state and assembling the
//! explicit [`Dtmc`]. The number of frontier expansions until the fixpoint
//! is the paper's *Reachability Iterations* (RI). Probability-threshold
//! pruning mirrors PRISM's behaviour in the paper's 1x4 detector experiment
//! ("PRISM discards states that are reached with a probability less than
//! 10⁻¹⁵").
//!
//! The search itself is one core, [`try_explore`]: it takes the successor
//! function as a plain closure that may fail with the caller's own error
//! type, plus a closure labelling the reachable states. [`explore`] passes
//! a model's infallible [`DtmcModel::transitions`]; the `.sm` compiler in
//! `smg-lang` passes its fallible guarded-command expansion, so a deadlock
//! or a range violation comes back as an error value from the first
//! failing state in BFS order, on the sequential and the parallel path
//! alike.
//!
//! # Performance notes
//!
//! Exploration is dominated by state interning and row assembly, so both are
//! tuned:
//!
//! * states intern into a [`StateIndex`] — a [`FastHashMap`]
//!   ([`crate::hash`]) *sharded by hash prefix*, one shard per worker —
//!   instead of the std SipHash map: hashing is the single hottest
//!   operation here and needs no HashDoS resistance in-process;
//! * the frontier expands level by level (batched BFS): ids are assigned in
//!   discovery order and whole levels are drained before their successors'
//!   level begins, which makes the level count itself the RI statistic and
//!   keeps the expansion loop free of per-state depth bookkeeping;
//! * transition rows append straight into a flat [`CsrBuilder`] instead of
//!   a `Vec<Vec<_>>` of per-state rows, removing one short-lived allocation
//!   per expanded state.
//!
//! # Parallel exploration
//!
//! A level runs in parallel only when pinned: by an explicit
//! [`ExploreOptions::par_min_level`], or by the static rule of a process or
//! thread pin ([`crate::par::pinned`]: `SMG_PAR_MIN_ROWS`, a lane scope).
//! Unpinned exploration is sequential: on the 2-core hosts measured, the
//! pipeline lost at every size (`perf_report`'s `pool.explore` rows, 1e6
//! states, read fewer states/s on two and four shards than on one), and a
//! parallel default waits for a host where it wins. A parallel level is
//! expanded as batched fork-join tasks on the persistent worker pool
//! ([`crate::pool`]), in consecutive slices of at most [`PAR_SLICE`]
//! states, each in four phases:
//!
//! 1. **Expand** — the slice is split into contiguous chunks, one per
//!    worker; each chunk calls the model's transition function, validates
//!    the rows, and *routes* every successor occurrence to its owning
//!    shard (selected by the top bits of the state's hash).
//! 2. **Intern (owner-computes)** — each shard owner scans the occurrences
//!    routed to it in global slice order, resolving known states to their
//!    ids and tagging first occurrences of new states. No shard is touched
//!    by more than one worker, so the maps need no locks.
//! 3. **Assign** — a sequential merge orders all newly discovered states by
//!    their *first-occurrence position* in the slice and assigns ids in
//!    exactly that order — the order sequential BFS would have used. Shard
//!    owners then (in parallel again) replace their tags with final ids.
//! 4. **Assemble** — each expand chunk sorts and merges its rows into a
//!    private CSR segment (sharing the row primitive with
//!    [`CsrBuilder::push_row`]), and the segments are concatenated in
//!    chunk order — a flat memcpy merge.
//!
//! Because ids depend only on first-occurrence order and row assembly uses
//! the same primitive as the sequential path, the resulting state ids,
//! rows, matrix, and statistics are **bit-identical to sequential BFS for
//! every shard and thread count** (property-tested in
//! `tests/sharded_explore.rs`); slices preserve it because the states a
//! slice discovers get their ids before the next slice starts, exactly as
//! in the sequential scan. The only observable difference is error
//! precedence inside a single failing slice: a validation error anywhere in
//! the slice is reported before a state-limit overflow, whereas sequential
//! BFS reports whichever its scan hits first. Since only a pin starts the
//! pipeline, which error a run reports depends on its configuration, never
//! on timing.
//!
//! The successor function is called concurrently (and, on a failing level,
//! possibly for states sequential BFS would never have expanded), so it
//! must be pure, as a [`DtmcModel`]'s transition function already
//! implicitly is.

use crate::dtmc::{Dtmc, StateId};
use crate::error::DtmcError;
use crate::hash::{FastBuildHasher, FastHashMap};
use crate::matrix::{merge_row_into, CsrBuilder, RankOneMatrix, TransitionMatrix, STOCHASTIC_TOL};
use crate::model::{DtmcModel, MemorylessModel};
use crate::stats::BuildStats;
use crate::{par, BitVec};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::{BuildHasher, Hash};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// The most states one pass of the parallel pipeline expands: a wider
/// level runs as consecutive slices of this size, so the per-chunk
/// successor buffers and the occurrence slots stay bounded by the slice
/// instead of growing with the level. Consecutive slices keep the
/// first-occurrence order, so ids and rows are unchanged.
pub const PAR_SLICE: usize = 8_192;

/// Tag bit marking a not-yet-assigned intern entry during a parallel level
/// (shard-local index in the low bits). Ids must stay below this bit, so a
/// level falls back to sequential expansion if it could overflow.
const NEW_TAG: u32 = 1 << 31;

/// Options controlling state-space exploration.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Abort with [`DtmcError::StateLimitExceeded`] if more than this many
    /// states are discovered.
    pub max_states: usize,
    /// Drop transitions with probability below this threshold and
    /// renormalize the remainder (`0.0` disables pruning). This is the
    /// paper's 10⁻¹⁵ PRISM cutoff.
    pub prune_threshold: f64,
    /// Worker/shard count for parallel exploration. `None` (the default)
    /// uses the engine's lane count ([`crate::par::max_threads`]); explicit
    /// values let benches sweep scaling and tests pin shard geometry. The
    /// result is bit-identical for every value.
    pub threads: Option<usize>,
    /// Minimum BFS level size before a level is expanded in parallel.
    /// `None` (the default) expands levels sequentially unless a pin's
    /// static rule asks for the pipeline ([`crate::par::pinned`]); an
    /// explicit value pins the threshold, so tests and benches can force
    /// either path.
    pub par_min_level: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 50_000_000,
            prune_threshold: 0.0,
            threads: None,
            par_min_level: None,
        }
    }
}

impl ExploreOptions {
    /// Options with a state limit.
    pub fn with_max_states(mut self, max: usize) -> Self {
        self.max_states = max;
        self
    }

    /// Options with a probability pruning threshold.
    pub fn with_prune_threshold(mut self, t: f64) -> Self {
        self.prune_threshold = t;
        self
    }

    /// Options with an explicit worker/shard count for exploration.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Options with an explicit parallel level-size threshold (1 forces
    /// the parallel pipeline on every level of a multi-worker run,
    /// `usize::MAX` the sequential loop).
    pub fn with_par_min_level(mut self, min_level: usize) -> Self {
        self.par_min_level = Some(min_level);
        self
    }
}

/// The sharded interning table mapping model states to [`StateId`]s.
///
/// Shards are selected by the top bits of the state's
/// [`crate::hash::FastHasher`] hash; during parallel exploration each shard
/// is owned by exactly one worker (owner-computes), so lookups and
/// insertions never contend and need no locks. With a single shard this is
/// exactly the flat map the sequential explorer always used.
#[derive(Debug, Clone)]
pub struct StateIndex<S> {
    shards: Vec<FastHashMap<S, StateId>>,
    /// `64 - log2(shards.len())`; unused when there is a single shard.
    shift: u32,
}

impl<S: Hash + Eq> StateIndex<S> {
    /// An empty single-shard index. This is the intern table sibling
    /// explorers build on (the MDP explorer in `smg-mdp` interns its states
    /// through exactly this type, so DTMC and MDP exploration share one
    /// interning implementation); [`explore`] itself starts from the same
    /// shape and reshards on demand.
    pub fn new() -> Self {
        StateIndex {
            shards: vec![FastHashMap::default()],
            shift: 0,
        }
    }

    /// Interns `state` under `id`, returning the previously interned id if
    /// the state was already present (in which case the table keeps the old
    /// id — ids are assigned once, in discovery order).
    pub fn insert(&mut self, state: S, id: StateId) -> Option<StateId> {
        let sh = shard_of(&state, self.shift, self.shards.len());
        match self.shards[sh].entry(state) {
            std::collections::hash_map::Entry::Occupied(o) => Some(*o.get()),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(id);
                None
            }
        }
    }

    /// Looks up the id of an interned state.
    pub fn get(&self, state: &S) -> Option<StateId> {
        self.shards[shard_of(state, self.shift, self.shards.len())]
            .get(state)
            .copied()
    }

    /// The number of interned states.
    pub fn len(&self) -> usize {
        self.shards.iter().map(FastHashMap::len).sum()
    }

    /// Whether no state has been interned.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(FastHashMap::is_empty)
    }

    /// The number of shards the table is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Iterates over all `(state, id)` pairs (shard by shard; no further
    /// order guarantee).
    pub fn iter(&self) -> impl Iterator<Item = (&S, StateId)> {
        self.shards
            .iter()
            .flat_map(|m| m.iter().map(|(s, &id)| (s, id)))
    }
}

impl<S: Hash + Eq> Default for StateIndex<S> {
    fn default() -> Self {
        StateIndex::new()
    }
}

impl<'a, S: Hash + Eq> IntoIterator for &'a StateIndex<S> {
    type Item = (&'a S, StateId);
    type IntoIter = Box<dyn Iterator<Item = (&'a S, StateId)> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

impl<S: Hash + Eq> std::ops::Index<&S> for StateIndex<S> {
    type Output = StateId;

    fn index(&self, state: &S) -> &StateId {
        self.shards[shard_of(state, self.shift, self.shards.len())]
            .get(state)
            .expect("state not interned")
    }
}

/// The shard owning `state`: top `log2(nshards)` bits of its fast hash.
#[inline(always)]
fn shard_of<S: Hash>(state: &S, shift: u32, nshards: usize) -> usize {
    if nshards == 1 {
        0
    } else {
        (FastBuildHasher::default().hash_one(state) >> shift) as usize
    }
}

/// The result of exploring a model: the explicit chain plus the mapping
/// between model states and matrix indices.
#[derive(Debug, Clone)]
pub struct Explored<S> {
    /// The explicit DTMC.
    pub dtmc: Dtmc,
    /// State at each index (`states[id]` is the model state of `id`).
    pub states: Vec<S>,
    /// Index of each state (sharded fast-hash interning table).
    pub index: StateIndex<S>,
    /// Exploration statistics (the paper's table columns).
    pub stats: BuildStats,
}

impl<S> Explored<S> {
    /// Looks up the id of a model state.
    pub fn id_of(&self, state: &S) -> Option<StateId>
    where
        S: std::hash::Hash + Eq,
    {
        self.index.get(state)
    }
}

/// Normalizes a successor list in place: validates probabilities, optionally
/// prunes tiny ones (renormalizing the remainder), and drops exact zeros.
/// Public because every explorer over a probabilistic transition function —
/// including the MDP explorer in `smg-mdp`, which cleans each action's
/// distribution independently — needs exactly this validation.
///
/// # Errors
///
/// [`DtmcError::InvalidProbability`] for negative/NaN/super-unit entries and
/// [`DtmcError::NotStochastic`] when the list does not sum to one (or
/// pruning removed all mass).
pub fn clean_successors<S: std::fmt::Debug>(
    state: &S,
    succ: &mut Vec<(S, f64)>,
    prune: f64,
) -> Result<(), DtmcError> {
    let mut sum = 0.0;
    for &(_, p) in succ.iter() {
        if p < 0.0 || p.is_nan() || p > 1.0 + STOCHASTIC_TOL {
            return Err(DtmcError::InvalidProbability {
                state: format!("{state:?}"),
                prob: p,
            });
        }
        sum += p;
    }
    if (sum - 1.0).abs() > STOCHASTIC_TOL {
        return Err(DtmcError::NotStochastic {
            state: format!("{state:?}"),
            sum,
        });
    }
    if prune > 0.0 {
        succ.retain(|&(_, p)| p >= prune);
        let kept: f64 = succ.iter().map(|&(_, p)| p).sum();
        if kept <= 0.0 {
            return Err(DtmcError::NotStochastic {
                state: format!("{state:?}"),
                sum: 0.0,
            });
        }
        for s in succ.iter_mut() {
            s.1 /= kept;
        }
    } else {
        succ.retain(|&(_, p)| p > 0.0);
    }
    Ok(())
}

/// One interning shard: the map plus the per-level scratch the parallel
/// owner-computes passes use. Outside a level's phases the map holds only
/// final ids (never [`NEW_TAG`]-tagged values).
#[derive(Debug)]
struct Shard<S> {
    map: FastHashMap<S, StateId>,
    /// First-occurrence positions (level-global, ascending) of states newly
    /// discovered in the current level, in discovery order.
    fresh: Vec<u32>,
    /// Final ids aligned with `fresh`, filled by the sequential merge.
    assigned: Vec<StateId>,
    /// Occurrence positions whose slot holds a tagged value to patch.
    patch: Vec<u32>,
}

impl<S> Shard<S> {
    fn new() -> Self {
        Shard {
            map: FastHashMap::default(),
            fresh: Vec::new(),
            assigned: Vec::new(),
            patch: Vec::new(),
        }
    }
}

/// Per-worker expansion scratch, reused across levels (the per-level
/// allocations amortize to zero once the vectors reach steady-state size).
#[derive(Debug)]
struct ChunkScratch<S> {
    /// Flat successor occurrences `(state, probability)` of this chunk.
    succ: Vec<(S, f64)>,
    /// Successor count per source state.
    row_len: Vec<u32>,
    /// Per shard: indices into `succ` routed to that shard (ascending).
    routed: Vec<Vec<u32>>,
    /// Assembled CSR segment: merged per-row lengths, columns, values.
    seg_len: Vec<u32>,
    seg_cols: Vec<u32>,
    seg_vals: Vec<f64>,
    /// Row sort/merge buffer.
    row_buf: Vec<(u32, f64)>,
}

impl<S> ChunkScratch<S> {
    fn new() -> Self {
        ChunkScratch {
            succ: Vec::new(),
            row_len: Vec::new(),
            routed: Vec::new(),
            seg_len: Vec::new(),
            seg_cols: Vec::new(),
            seg_vals: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    fn reset(&mut self, nshards: usize) {
        self.succ.clear();
        self.row_len.clear();
        if self.routed.len() != nshards {
            self.routed.resize_with(nshards, Vec::new);
        }
        for r in &mut self.routed {
            r.clear();
        }
    }
}

/// Interns one state into one shard map (the caller picked the shard).
#[inline(always)]
fn intern_in<S: Clone + Hash + Eq>(
    s: S,
    states: &mut Vec<S>,
    map: &mut FastHashMap<S, StateId>,
    max_states: usize,
) -> Result<StateId, DtmcError> {
    if let Some(&id) = map.get(&s) {
        return Ok(id);
    }
    if states.len() >= max_states {
        return Err(DtmcError::StateLimitExceeded { limit: max_states });
    }
    let id = states.len() as StateId;
    map.insert(s.clone(), id);
    states.push(s);
    Ok(id)
}

/// Splits a single-shard table into `nshards` hash-prefix shards — the
/// one-time rehash performed when the first parallel-sized level appears.
/// Ids are preserved; only their shard homes change, so the result is
/// indistinguishable from having sharded from the start.
fn reshard<S: Clone + Hash + Eq>(shards: &mut Vec<Shard<S>>, nshards: usize, shift: u32) {
    debug_assert_eq!(shards.len(), 1, "reshard runs once, from the flat table");
    let flat = std::mem::take(&mut shards[0].map);
    *shards = (0..nshards).map(|_| Shard::new()).collect();
    for (s, id) in flat {
        let sh = shard_of(&s, shift, nshards);
        shards[sh].map.insert(s, id);
    }
}

/// Validates an initial distribution and interns its support (in order)
/// through `intern`, returning the `(id, mass)` pairs. Shared with the MDP
/// explorer in `smg-mdp`.
///
/// # Errors
///
/// [`DtmcError::BadInitialDistribution`] for a negative or NaN mass, an
/// empty support, or masses not summing to one; any error of `intern`.
pub fn intern_initial<S>(
    initial: Vec<(S, f64)>,
    mut intern: impl FnMut(S) -> Result<StateId, DtmcError>,
) -> Result<Vec<(StateId, f64)>, DtmcError> {
    let mut sum = 0.0;
    let mut ids = Vec::with_capacity(initial.len());
    for (s, p) in initial {
        if p < 0.0 || p.is_nan() {
            return Err(DtmcError::BadInitialDistribution { sum: f64::NAN });
        }
        sum += p;
        if p > 0.0 {
            ids.push((intern(s)?, p));
        }
    }
    if (sum - 1.0).abs() > STOCHASTIC_TOL || ids.is_empty() {
        return Err(DtmcError::BadInitialDistribution { sum });
    }
    Ok(ids)
}

/// Interns one state through the sharded table (sequential path).
#[inline(always)]
fn intern<S: Clone + Hash + Eq>(
    s: S,
    states: &mut Vec<S>,
    shards: &mut [Shard<S>],
    shift: u32,
    max_states: usize,
) -> Result<StateId, DtmcError> {
    let sh = shard_of(&s, shift, shards.len());
    intern_in(s, states, &mut shards[sh].map, max_states)
}

/// Expands one BFS level sequentially (the original single-threaded loop).
/// The single-shard case — every default sequential exploration — binds the
/// map directly so the hot intern path is exactly the pre-sharding flat
/// lookup (no shard selection, no slice indirection per successor).
#[allow(clippy::too_many_arguments)] // internal level-pipeline plumbing
fn expand_level_sequential<S, E, F>(
    expand: &F,
    options: &ExploreOptions,
    states: &mut Vec<S>,
    shards: &mut [Shard<S>],
    shift: u32,
    builder: &mut CsrBuilder,
    level: std::ops::Range<usize>,
    row: &mut Vec<(u32, f64)>,
) -> Result<(), E>
where
    S: Clone + Eq + Hash + Debug,
    E: From<DtmcError>,
    F: Fn(&S) -> Result<Vec<(S, f64)>, E>,
{
    if let [only] = shards {
        for cur in level {
            let mut succ = expand(&states[cur])?;
            clean_successors(&states[cur], &mut succ, options.prune_threshold)?;
            row.clear();
            for (s, p) in succ {
                let id = intern_in(s, states, &mut only.map, options.max_states)?;
                row.push((id, p));
            }
            builder.push_row(row)?;
        }
        return Ok(());
    }
    for cur in level {
        let mut succ = expand(&states[cur])?;
        clean_successors(&states[cur], &mut succ, options.prune_threshold)?;
        row.clear();
        for (s, p) in succ {
            let id = intern(s, states, shards, shift, options.max_states)?;
            row.push((id, p));
        }
        builder.push_row(row)?;
    }
    Ok(())
}

/// Expands one BFS level through the pool's four-phase pipeline (see the
/// module docs). Returns `Ok(false)` — level untouched — when id tagging
/// could overflow [`NEW_TAG`] and the caller must use the sequential path.
#[allow(clippy::too_many_arguments)] // internal level-pipeline plumbing
fn expand_level_parallel<S, E, F>(
    expand: &F,
    options: &ExploreOptions,
    states: &mut Vec<S>,
    shards: &mut [Shard<S>],
    shift: u32,
    builder: &mut CsrBuilder,
    level: std::ops::Range<usize>,
    scratch: &mut [ChunkScratch<S>],
    slots: &mut Vec<AtomicU32>,
) -> Result<bool, E>
where
    S: Clone + Eq + Hash + Debug + Send + Sync,
    E: From<DtmcError> + Send,
    F: Fn(&S) -> Result<Vec<(S, f64)>, E> + Sync,
{
    let nchunks = scratch.len();
    let nshards = shards.len();
    let level_len = level.len();
    let per_chunk = level_len.div_ceil(nchunks);
    // The scoped pool honours `par::with_lane_scope` (checking sessions
    // pinning a lane count, the sim harness pinning a virtual lane count);
    // without a scope this is the process-wide pool as before.
    let pool = par::scoped_pool();

    // Phase 1: expand + route.
    {
        let level_states = &states[level.clone()];
        let prune = options.prune_threshold;
        let results = pool.map_chunks(scratch, 1, &|t, sc: &mut [ChunkScratch<S>]| {
            let sc = &mut sc[0];
            sc.reset(nshards);
            // The last chunks can be empty when `per_chunk` over-covers.
            let lo = level_len.min(t * per_chunk);
            let hi = level_len.min(lo + per_chunk);
            for cur in &level_states[lo..hi] {
                let mut succ = expand(cur)?;
                clean_successors(cur, &mut succ, prune)?;
                sc.row_len.push(succ.len() as u32);
                for (s, p) in succ {
                    let shard = shard_of(&s, shift, nshards);
                    sc.routed[shard].push(sc.succ.len() as u32);
                    sc.succ.push((s, p));
                }
            }
            Ok::<_, E>(())
        });
        // Deterministic error reporting: results come back in chunk order,
        // which is level order, and each chunk stopped at its first
        // failing state.
        results.into_iter().collect::<Result<(), E>>()?;
    }

    // Occurrence positions are level-global: chunk base + index in chunk.
    let mut chunk_base = Vec::with_capacity(nchunks);
    let mut total = 0usize;
    for sc in scratch.iter() {
        chunk_base.push(total as u32);
        total += sc.succ.len();
    }
    if states.len() + total >= NEW_TAG as usize {
        return Ok(false);
    }
    if slots.len() < total {
        let grow = total - slots.len();
        slots.extend(std::iter::repeat_with(|| AtomicU32::new(0)).take(grow));
    }

    // Phase 2: owner-computes interning per shard.
    {
        let scratch_ro = &scratch[..];
        let chunk_base = &chunk_base[..];
        let slots = &slots[..];
        pool.map_chunks(shards, 1, &|s, sh: &mut [Shard<S>]| {
            let sh = &mut sh[0];
            sh.fresh.clear();
            sh.assigned.clear();
            sh.patch.clear();
            for (c, sc) in scratch_ro.iter().enumerate() {
                let base = chunk_base[c];
                for &occ in &sc.routed[s] {
                    let seq = base + occ;
                    let state = &sc.succ[occ as usize].0;
                    if let Some(&v) = sh.map.get(state) {
                        slots[seq as usize].store(v, Ordering::Relaxed);
                        if v & NEW_TAG != 0 {
                            sh.patch.push(seq);
                        }
                    } else {
                        let tag = NEW_TAG | sh.fresh.len() as u32;
                        sh.map.insert(state.clone(), tag);
                        sh.fresh.push(seq);
                        sh.patch.push(seq);
                        slots[seq as usize].store(tag, Ordering::Relaxed);
                    }
                }
            }
        });
    }

    // Phase 3a (sequential): assign ids in first-occurrence order — a k-way
    // merge of the shards' ascending `fresh` lists reproduces exactly the
    // discovery order sequential BFS would have used.
    let locate = |seq: u32| -> (usize, usize) {
        let c = chunk_base.partition_point(|&b| b <= seq) - 1;
        (c, (seq - chunk_base[c]) as usize)
    };
    {
        use std::cmp::Reverse;
        let mut heap: std::collections::BinaryHeap<Reverse<(u32, usize)>> = shards
            .iter()
            .enumerate()
            .filter_map(|(s, sh)| sh.fresh.first().map(|&seq| Reverse((seq, s))))
            .collect();
        let mut cursor = vec![0usize; nshards];
        while let Some(Reverse((seq, s))) = heap.pop() {
            if states.len() >= options.max_states {
                return Err(DtmcError::StateLimitExceeded {
                    limit: options.max_states,
                }
                .into());
            }
            let id = states.len() as StateId;
            let (c, occ) = locate(seq);
            states.push(scratch[c].succ[occ].0.clone());
            shards[s].assigned.push(id);
            cursor[s] += 1;
            if let Some(&next) = shards[s].fresh.get(cursor[s]) {
                heap.push(Reverse((next, s)));
            }
        }
    }

    // Phase 3b: shard owners swap tags for final ids (map and slots).
    {
        let scratch_ro = &scratch[..];
        let slots = &slots[..];
        pool.map_chunks(shards, 1, &|_, sh: &mut [Shard<S>]| {
            let sh = &mut sh[0];
            for (k, &seq) in sh.fresh.iter().enumerate() {
                let (c, occ) = locate(seq);
                let state = &scratch_ro[c].succ[occ].0;
                *sh.map.get_mut(state).expect("tagged intern entry") = sh.assigned[k];
            }
            for &seq in &sh.patch {
                let v = slots[seq as usize].load(Ordering::Relaxed);
                debug_assert!(v & NEW_TAG != 0, "patch slot already final");
                slots[seq as usize].store(sh.assigned[(v & !NEW_TAG) as usize], Ordering::Relaxed);
            }
        });
    }

    // Phase 4: per-chunk row assembly, then the flat segment merge.
    {
        let chunk_base = &chunk_base[..];
        let slots = &slots[..];
        pool.map_chunks(scratch, 1, &|c, sc: &mut [ChunkScratch<S>]| {
            let ChunkScratch {
                succ,
                row_len,
                seg_len,
                seg_cols,
                seg_vals,
                row_buf,
                ..
            } = &mut sc[0];
            seg_len.clear();
            seg_cols.clear();
            seg_vals.clear();
            let base = chunk_base[c] as usize;
            let mut occ = 0usize;
            for &len in row_len.iter() {
                row_buf.clear();
                for _ in 0..len {
                    let id = slots[base + occ].load(Ordering::Relaxed);
                    row_buf.push((id, succ[occ].1));
                    occ += 1;
                }
                let before = seg_cols.len();
                merge_row_into(seg_cols, seg_vals, row_buf);
                seg_len.push((seg_cols.len() - before) as u32);
            }
        });
    }
    for sc in scratch.iter() {
        builder.append_segment(&sc.seg_len, &sc.seg_cols, &sc.seg_vals);
    }
    Ok(true)
}

/// Explores a [`DtmcModel`] breadth-first into an explicit [`Dtmc`].
///
/// Large frontier levels are expanded in parallel on the engine's worker
/// pool; the result is bit-identical to sequential BFS (see the module
/// docs). The model is shared across workers, hence the `Sync` bounds.
///
/// # Errors
///
/// Propagates invalid-probability/stochasticity errors from the model and
/// returns [`DtmcError::StateLimitExceeded`] if the reachable space is
/// larger than `options.max_states`.
pub fn explore<M>(model: &M, options: &ExploreOptions) -> Result<Explored<M::State>, DtmcError>
where
    M: DtmcModel + Sync,
    M::State: Send + Sync,
{
    try_explore(
        model.initial_states(),
        |s| Ok(model.transitions(s)),
        |states| {
            Ok(assemble_labels_rewards(
                states.len(),
                &model.atomic_propositions(),
                |ap, i| model.holds(ap, &states[i]),
                |i| model.state_reward(&states[i]),
            ))
        },
        options,
    )
}

/// Label bit-sets by name and the state-reward vector, both indexed like
/// the explored states.
pub type Labelling = (BTreeMap<String, BitVec>, Vec<f64>);

/// The breadth-first search behind [`explore`], over a successor function
/// that may fail: enumerates the states reachable from `initial` through
/// `expand`, interning each distinct state and assembling the transition
/// rows exactly as [`explore`] does for a model (same ids, same rows, same
/// parallel levels), then attaches what `label` computes over the
/// reachable states.
///
/// `expand` returns a state's successors with their probabilities
/// (duplicates allowed, masses summing to one) or the caller's own error,
/// which stops the search. Errors come from the first failing state in BFS
/// order whatever the lane count, because a parallel level reports the
/// first error of its lowest-numbered chunk.
///
/// # Errors
///
/// The first error `expand` or `label` returns, or (converted into `E`)
/// the validation and state-limit errors [`explore`] documents.
pub fn try_explore<S, E, F, L>(
    initial: Vec<(S, f64)>,
    expand: F,
    label: L,
    options: &ExploreOptions,
) -> Result<Explored<S>, E>
where
    S: Clone + Eq + Hash + Debug + Send + Sync,
    E: From<DtmcError> + Send,
    F: Fn(&S) -> Result<Vec<(S, f64)>, E> + Sync,
    L: FnOnce(&[S]) -> Result<Labelling, E>,
{
    let start = Instant::now();
    let workers = options
        .threads
        .unwrap_or_else(par::max_threads)
        .clamp(1, 1 << 16);
    let nshards = workers.next_power_of_two();
    let shift = if nshards == 1 {
        0
    } else {
        64 - nshards.trailing_zeros()
    };
    // Interning starts single-sharded whatever the worker count: models
    // whose levels all run sequentially then intern through
    // the flat-map fast path for the whole run, paying nothing for cores
    // they cannot use. The table is split into `nshards` — a one-time
    // O(states) rehash — only when the first level actually runs in
    // parallel.
    let mut shards: Vec<Shard<S>> = vec![Shard::new()];
    let mut states: Vec<S> = Vec::new();

    // Initial distribution — level 0 of the BFS.
    let init_ids = intern_initial(initial, |s| {
        intern(s, &mut states, &mut shards, shift, options.max_states)
    })?;

    // Batched BFS: ids are assigned in discovery order and expanded in that
    // same order, one whole level at a time, so CSR rows are emitted
    // sequentially and the level count is the RI statistic directly.
    // The reachable size is unknown until the fixpoint; the builder's flat
    // arrays grow geometrically, which amortises fine without a hint.
    let mut builder = CsrBuilder::default();
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut scratch: Vec<ChunkScratch<S>> = Vec::new();
    let mut slots: Vec<AtomicU32> = Vec::new();
    let mut levels = 0usize;
    let mut level_start = 0usize;
    while level_start < states.len() {
        let level_end = states.len();
        levels += 1;
        let level_len = level_end - level_start;
        let parallel = workers > 1
            && match options.par_min_level {
                Some(min) => level_len >= min.max(1),
                None => par::pinned(level_len).unwrap_or(false),
            };
        if parallel && shards.len() != nshards {
            reshard(&mut shards, nshards, shift);
        }
        // A parallel level runs through the pipeline in consecutive slices.
        let step = if parallel { PAR_SLICE } else { level_len };
        let mut lo = level_start;
        while lo < level_end {
            let slice = lo..level_end.min(lo + step);
            let mut expanded = false;
            if parallel {
                let nchunks = workers.min(slice.len());
                if scratch.len() < nchunks {
                    scratch.resize_with(nchunks, ChunkScratch::new);
                }
                expanded = expand_level_parallel(
                    &expand,
                    options,
                    &mut states,
                    &mut shards,
                    shift,
                    &mut builder,
                    slice.clone(),
                    &mut scratch[..nchunks],
                    &mut slots,
                )?;
            }
            if !expanded {
                expand_level_sequential(
                    &expand,
                    options,
                    &mut states,
                    &mut shards,
                    shift,
                    &mut builder,
                    slice.clone(),
                    &mut row,
                )?;
            }
            lo = slice.end;
        }
        level_start = level_end;
    }

    let (labels, rewards) = label(&states)?;
    let matrix = TransitionMatrix::Sparse(builder.finish());
    let dtmc = Dtmc::new(matrix, init_ids, labels, rewards)?;
    let stats = BuildStats {
        states: states.len(),
        transitions: dtmc.matrix().logical_transitions(),
        // The fixpoint is detected one frontier expansion after the deepest
        // discovery (the expansion that finds nothing new); the number of
        // non-empty BFS levels counts exactly that.
        reachability_iterations: levels,
        build_time: start.elapsed(),
    };
    stats.record();
    Ok(Explored {
        dtmc,
        states,
        index: StateIndex {
            shards: shards.into_iter().map(|sh| sh.map).collect(),
            shift,
        },
        stats,
    })
}

/// Explores a [`MemorylessModel`] into a rank-one [`Dtmc`].
///
/// The state space is the support of the shared step distribution plus the
/// initial state; the matrix stores the distribution once. RI is 2 when the
/// initial state is itself in the support, 3 otherwise — matching the RI=3
/// the paper reports for its detector models (reset state, first draw,
/// fixpoint).
///
/// # Errors
///
/// Same conditions as [`explore`].
pub fn explore_memoryless<M: MemorylessModel + Sync>(
    model: &M,
    options: &ExploreOptions,
) -> Result<Explored<M::State>, DtmcError>
where
    M::State: Sync,
{
    let start = Instant::now();
    let init = model.initial_state();
    let mut step = model.step_distribution();
    clean_successors(&init, &mut step, options.prune_threshold)?;

    let mut states: Vec<M::State> = Vec::new();
    let mut shards: Vec<Shard<M::State>> = vec![Shard::new()];

    let init_id = intern(
        init.clone(),
        &mut states,
        &mut shards,
        0,
        options.max_states,
    )?;
    let mut dist: Vec<(u32, f64)> = Vec::with_capacity(step.len());
    for (s, p) in step {
        let id = intern(s, &mut states, &mut shards, 0, options.max_states)?;
        dist.push((id, p));
    }
    let init_in_support = dist.iter().any(|&(id, _)| id == init_id);

    let matrix = TransitionMatrix::RankOne(RankOneMatrix::new(states.len(), dist)?);
    let (labels, rewards) = assemble_labels_rewards(
        states.len(),
        &model.atomic_propositions(),
        |ap, i| model.holds(ap, &states[i]),
        |i| model.state_reward(&states[i]),
    );
    let dtmc = Dtmc::new(matrix, vec![(init_id, 1.0)], labels, rewards)?;
    let stats = BuildStats {
        states: states.len(),
        transitions: dtmc.matrix().logical_transitions(),
        reachability_iterations: if init_in_support { 2 } else { 3 },
        build_time: start.elapsed(),
    };
    stats.record();
    Ok(Explored {
        dtmc,
        states,
        index: StateIndex {
            shards: shards.into_iter().map(|sh| sh.map).collect(),
            shift: 0,
        },
        stats,
    })
}

/// States per chunk of the parallel reward-vector scan — reward closures
/// are about as cheap as a label test, so the same granularity logic as
/// [`BitVec::from_fn_parallel`]'s words-per-chunk applies.
const REWARD_CHUNK: usize = 65_536;

/// The reward-vector scan's dispatch site (work: states).
static REWARD_SCAN: par::Site = par::Site::new("reward_scan");

/// Assembles the per-proposition label bit vectors and the state-reward
/// vector of an explored chain, chunking the per-state scans over the
/// engine's worker pool where their dispatch sites pick that (each label
/// word and each reward slot is produced by exactly one task, so the
/// result is bit-identical to the sequential scans whatever the thread
/// count).
///
/// Shared by [`explore`]/[`explore_memoryless`] and by the MDP explorer in
/// `smg-mdp`, which has the same post-exploration labelling shape.
pub fn assemble_labels_rewards(
    n: usize,
    aps: &[&'static str],
    holds: impl Fn(&str, usize) -> bool + Sync,
    reward: impl Fn(usize) -> f64 + Sync,
) -> Labelling {
    let mut labels = BTreeMap::new();
    for ap in aps {
        labels.insert(
            ap.to_string(),
            BitVec::from_fn_parallel(n, |i| holds(ap, i)),
        );
    }
    let mut rewards = vec![0.0; n];
    let fill = |offset: usize, chunk: &mut [f64]| {
        for (k, slot) in chunk.iter_mut().enumerate() {
            *slot = reward(offset + k);
        }
    };
    REWARD_SCAN.run(n, n, |parallel| {
        if parallel {
            par::chunked_map(&mut rewards, REWARD_CHUNK, fill);
        } else {
            fill(0, &mut rewards);
        }
    });
    (labels, rewards)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Random walk on 0..n with reflecting barriers.
    struct Walk {
        n: u8,
    }

    impl DtmcModel for Walk {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            if *s == 0 {
                vec![(1, 1.0)]
            } else if *s == self.n - 1 {
                vec![(self.n - 2, 1.0)]
            } else {
                vec![(s - 1, 0.5), (s + 1, 0.5)]
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["end"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "end" && *s == self.n - 1
        }
    }

    #[test]
    fn explores_whole_walk() {
        let e = explore(&Walk { n: 10 }, &ExploreOptions::default()).unwrap();
        assert_eq!(e.dtmc.n_states(), 10);
        assert_eq!(e.stats.states, 10);
        // Line graph: farthest state is at depth 9 → RI 10.
        assert_eq!(e.stats.reachability_iterations, 10);
        assert!(e
            .dtmc
            .label("end")
            .unwrap()
            .get(e.id_of(&9).unwrap() as usize));
        assert_eq!(e.dtmc.rewards()[e.id_of(&9).unwrap() as usize], 1.0);
    }

    #[test]
    fn state_limit_enforced() {
        let err = explore(
            &Walk { n: 100 },
            &ExploreOptions::default().with_max_states(5),
        );
        assert!(matches!(
            err,
            Err(DtmcError::StateLimitExceeded { limit: 5 })
        ));
    }

    #[test]
    fn state_limit_enforced_in_parallel_levels() {
        let err = explore(
            &Grid { w: 30 },
            &ExploreOptions::default()
                .with_max_states(100)
                .with_threads(4)
                .with_par_min_level(1),
        );
        assert!(matches!(
            err,
            Err(DtmcError::StateLimitExceeded { limit: 100 })
        ));
    }

    struct BadModel;
    impl DtmcModel for BadModel {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, _: &u8) -> Vec<(u8, f64)> {
            vec![(0, 0.5)]
        }
    }

    #[test]
    fn non_stochastic_model_rejected() {
        let err = explore(&BadModel, &ExploreOptions::default());
        assert!(matches!(err, Err(DtmcError::NotStochastic { .. })));
    }

    struct Skewed;
    impl DtmcModel for Skewed {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, _: &u8) -> Vec<(u8, f64)> {
            vec![(0, 1.0 - 1e-6), (1, 1e-6)]
        }
    }

    #[test]
    fn pruning_drops_rare_branches() {
        let full = explore(&Skewed, &ExploreOptions::default()).unwrap();
        assert_eq!(full.dtmc.n_states(), 2);
        let pruned = explore(
            &Skewed,
            &ExploreOptions::default().with_prune_threshold(1e-3),
        )
        .unwrap();
        assert_eq!(pruned.dtmc.n_states(), 1);
        // Remaining row renormalized to 1 (matrix constructor would reject
        // otherwise).
        assert_eq!(pruned.dtmc.matrix().successors(0), vec![(0, 1.0)]);
    }

    struct Dice;
    impl MemorylessModel for Dice {
        type State = u8;
        fn initial_state(&self) -> u8 {
            255
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
    fn memoryless_exploration() {
        let e = explore_memoryless(&Dice, &ExploreOptions::default()).unwrap();
        assert_eq!(e.dtmc.n_states(), 7); // reset state + 6 faces
        assert_eq!(e.stats.reachability_iterations, 3);
        assert_eq!(e.dtmc.matrix().stored_transitions(), 6);
        assert_eq!(e.dtmc.matrix().logical_transitions(), 42);
        // Forward from the initial distribution mixes in one step.
        let pi1 = e.dtmc.matrix().forward(&e.dtmc.initial_dense());
        let six = e.id_of(&6).unwrap() as usize;
        assert!((pi1[six] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn memoryless_agrees_with_general_exploration() {
        use crate::model::MemorylessAsDtmc;
        let fast = explore_memoryless(&Dice, &ExploreOptions::default()).unwrap();
        let slow = explore(&MemorylessAsDtmc(Dice), &ExploreOptions::default()).unwrap();
        assert_eq!(fast.dtmc.n_states(), slow.dtmc.n_states());
        let pf = crate::transient::distribution_at(&fast.dtmc, 5);
        let ps = crate::transient::distribution_at(&slow.dtmc, 5);
        // Same states may have different ids; compare via state lookup.
        for (s, id_f) in &fast.index {
            let id_s = slow.index[s] as usize;
            assert!((pf[id_f as usize] - ps[id_s]).abs() < 1e-12);
        }
    }

    /// A model with a two-dimensional state, exercising the fast hasher's
    /// multi-word path and the level-batched frontier on a diamond-shaped
    /// graph where several states are re-discovered from multiple parents.
    struct Grid {
        w: u16,
    }

    impl DtmcModel for Grid {
        type State = (u16, u16);
        fn initial_states(&self) -> Vec<((u16, u16), f64)> {
            vec![((0, 0), 1.0)]
        }
        fn transitions(&self, &(x, y): &(u16, u16)) -> Vec<((u16, u16), f64)> {
            if x + 1 >= self.w && y + 1 >= self.w {
                return vec![((x, y), 1.0)];
            }
            if x + 1 >= self.w {
                return vec![((x, y + 1), 1.0)];
            }
            if y + 1 >= self.w {
                return vec![((x + 1, y), 1.0)];
            }
            vec![((x + 1, y), 0.5), ((x, y + 1), 0.5)]
        }
    }

    #[test]
    fn grid_bfs_levels_count_ri() {
        let e = explore(&Grid { w: 20 }, &ExploreOptions::default()).unwrap();
        assert_eq!(e.dtmc.n_states(), 400);
        // Anti-diagonal BFS levels: 2w - 1 of them.
        assert_eq!(e.stats.reachability_iterations, 39);
        // Ids are discovery-ordered: the initial state is id 0.
        assert_eq!(e.id_of(&(0, 0)), Some(0));
    }

    /// The sharded parallel pipeline must reproduce sequential BFS exactly:
    /// same ids, same states vector, same matrix, same RI — for shard
    /// counts below, at, and above the level sizes (the full randomized
    /// sweep lives in `tests/sharded_explore.rs`).
    #[test]
    fn parallel_levels_bit_identical_to_sequential() {
        let sequential = explore(&Grid { w: 24 }, &ExploreOptions::default().with_threads(1))
            .expect("sequential explore");
        for threads in [2usize, 3, 4, 7, 16] {
            let par = explore(
                &Grid { w: 24 },
                &ExploreOptions::default()
                    .with_threads(threads)
                    .with_par_min_level(1),
            )
            .unwrap_or_else(|e| panic!("parallel explore at {threads} threads: {e:?}"));
            assert_eq!(par.states, sequential.states, "threads={threads}");
            assert_eq!(
                par.dtmc.matrix(),
                sequential.dtmc.matrix(),
                "threads={threads}"
            );
            assert_eq!(
                par.stats.reachability_iterations,
                sequential.stats.reachability_iterations
            );
            assert_eq!(par.index.len(), sequential.index.len());
            for (s, id) in &par.index {
                assert_eq!(sequential.index[s], id, "threads={threads}");
            }
        }
    }

    #[test]
    fn state_index_lookup_and_iteration() {
        let e = explore(
            &Grid { w: 8 },
            &ExploreOptions::default()
                .with_threads(4)
                .with_par_min_level(1),
        )
        .unwrap();
        assert_eq!(e.index.shard_count(), 4);
        assert_eq!(e.index.len(), 64);
        assert!(!e.index.is_empty());
        assert_eq!(e.index.get(&(9, 9)), None);
        for (id, s) in e.states.iter().enumerate() {
            assert_eq!(e.index.get(s), Some(id as StateId));
            assert_eq!(e.index[s] as usize, id);
        }
        let mut seen: Vec<StateId> = e.index.iter().map(|(_, id)| id).collect();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &id)| i == id as usize));
    }
}
