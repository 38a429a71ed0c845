//! Breadth-first state-space exploration for MDPs.
//!
//! [`explore`] enumerates the states of an [`MdpModel`] reachable from its
//! initial distribution — a state is reachable if *some* action sequence
//! can reach it — interning each distinct state and assembling the explicit
//! [`Mdp`]. The machinery is shared with the DTMC explorer: states intern
//! into the same sharded [`StateIndex`], action distributions are validated
//! by the same [`clean_successors`], rows merge through the same
//! [`merge_row_into`] primitive into [`MdpBuilder`]'s flat pool, and labels
//! and rewards assemble through the same parallel
//! [`assemble_labels_rewards`] scans.
//!
//! # Parallel exploration
//!
//! As on the DTMC side, a level runs in parallel only when pinned: by an
//! explicit [`ExploreOptions::par_min_level`], or by the static rule of a
//! process or thread pin ([`smg_dtmc::par::pinned`]). A parallel level
//! runs in consecutive slices of at most [`PAR_SLICE`] states, each
//! through a three-phase pipeline on the worker pool of the calling
//! thread's lane scope ([`smg_dtmc::par::scoped_pool`]):
//!
//! 1. **Expand** (parallel) — the slice is split into contiguous chunks;
//!    each chunk calls the model's action function and validates every
//!    action's distribution.
//! 2. **Intern** (sequential) — one scan over the chunks in slice order
//!    resolves every successor to its id, assigning fresh ids in
//!    first-occurrence order — exactly the order sequential BFS would have
//!    used. (The DTMC explorer shards this phase too; MDP expansion is
//!    dominated by the model's action enumeration, so a sequential intern
//!    scan costs a small fraction of phase 1 and keeps the pipeline simple.)
//! 3. **Assemble** (parallel) — each chunk merges its action rows into a
//!    private flat segment, and segments concatenate in chunk order.
//!
//! Ids, rows and statistics are bit-identical to sequential BFS for every
//! thread count and lane scope (pinned by this module's tests).
//!
//! As on the DTMC side, [`explore`] is a thin call into one search core,
//! [`try_explore`], whose action function may fail with the caller's own
//! error type; the `.sm` compiler builds `mdp` programs through it.

use crate::mdp::{Mdp, MdpBuilder};
use crate::model::MdpModel;
use smg_dtmc::explore::{
    assemble_labels_rewards, clean_successors, intern_initial, ExploreOptions, Labelling,
    StateIndex, PAR_SLICE,
};
use smg_dtmc::matrix::merge_row_into;
use smg_dtmc::{par, BuildStats, DtmcError, StateId};
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

/// The result of exploring an MDP model: the explicit process plus the
/// mapping between model states and matrix indices.
#[derive(Debug, Clone)]
pub struct ExploredMdp<S> {
    /// The explicit MDP.
    pub mdp: Mdp,
    /// State at each index (`states[id]` is the model state of `id`).
    pub states: Vec<S>,
    /// Index of each state (the DTMC engine's interning table).
    pub index: StateIndex<S>,
    /// Exploration statistics; `transitions` counts stored MDP transitions
    /// (summed over all actions).
    pub stats: BuildStats,
}

impl<S> ExploredMdp<S> {
    /// Looks up the id of a model state.
    pub fn id_of(&self, state: &S) -> Option<StateId>
    where
        S: Hash + Eq,
    {
        self.index.get(state)
    }
}

/// Interns one state, assigning the next id in discovery order.
#[inline]
fn intern<S: Clone + Hash + Eq>(
    s: S,
    states: &mut Vec<S>,
    index: &mut StateIndex<S>,
    max_states: usize,
) -> Result<StateId, DtmcError> {
    if let Some(id) = index.get(&s) {
        return Ok(id);
    }
    if states.len() >= max_states {
        return Err(DtmcError::StateLimitExceeded { limit: max_states });
    }
    let id = states.len() as StateId;
    index.insert(s.clone(), id);
    states.push(s);
    Ok(id)
}

/// Per-worker expansion scratch, reused across levels.
#[derive(Debug)]
struct ChunkScratch<S> {
    /// Flat successor occurrences `(state, probability)` of this chunk.
    succ: Vec<(S, f64)>,
    /// Resolved state ids aligned with `succ` (filled by the intern scan).
    ids: Vec<u32>,
    /// Successor count per action, flat in source order.
    act_len: Vec<u32>,
    /// Action count per source state.
    action_count: Vec<u32>,
    /// Assembled segment: merged per-action lengths, columns, values.
    seg_act_len: Vec<u32>,
    seg_cols: Vec<u32>,
    seg_vals: Vec<f64>,
    /// Row sort/merge buffer.
    row_buf: Vec<(u32, f64)>,
}

impl<S> ChunkScratch<S> {
    fn new() -> Self {
        ChunkScratch {
            succ: Vec::new(),
            ids: Vec::new(),
            act_len: Vec::new(),
            action_count: Vec::new(),
            seg_act_len: Vec::new(),
            seg_cols: Vec::new(),
            seg_vals: Vec::new(),
            row_buf: Vec::new(),
        }
    }

    fn reset(&mut self) {
        self.succ.clear();
        self.ids.clear();
        self.act_len.clear();
        self.action_count.clear();
    }
}

/// Explores an [`MdpModel`] breadth-first into an explicit [`Mdp`].
///
/// Large frontier levels are expanded in parallel on the engine's worker
/// pool; the result is bit-identical to sequential BFS (see the module
/// docs). The model is shared across workers, hence the `Sync` bounds.
///
/// # Errors
///
/// Propagates invalid-probability/stochasticity errors from the model,
/// [`DtmcError::NoActions`] for deadlocked states, and
/// [`DtmcError::StateLimitExceeded`] if the reachable space is larger than
/// `options.max_states`.
pub fn explore<M>(model: &M, options: &ExploreOptions) -> Result<ExploredMdp<M::State>, DtmcError>
where
    M: MdpModel + Sync,
    M::State: Send + Sync,
{
    try_explore(
        model.initial_states(),
        |s| Ok(model.actions(s)),
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

/// The breadth-first search behind [`explore`], over an action function
/// that may fail: enumerates the states reachable from `initial` through
/// `expand` exactly as [`explore`] does for a model (same ids, same action
/// rows, same parallel levels), then attaches what `label` computes over
/// the reachable states. Build statistics are reported through
/// [`BuildStats::record`], as the DTMC explorer does.
///
/// `expand` returns a state's actions, each a distribution over successors,
/// or the caller's own error, which stops the search. Errors come from the
/// first failing state in BFS order whatever the lane count.
///
/// # Errors
///
/// The first error `expand` or `label` returns, or (converted into `E`)
/// the validation, deadlock and state-limit errors [`explore`] documents.
pub fn try_explore<S, E, F, L>(
    initial: Vec<(S, f64)>,
    expand: F,
    label: L,
    options: &ExploreOptions,
) -> Result<ExploredMdp<S>, E>
where
    S: Clone + Eq + Hash + Debug + Send + Sync,
    E: From<DtmcError> + Send,
    F: Fn(&S) -> Result<Vec<Vec<(S, f64)>>, E> + Sync,
    L: FnOnce(&[S]) -> Result<Labelling, E>,
{
    let start = Instant::now();
    let workers = options
        .threads
        .unwrap_or_else(par::max_threads)
        .clamp(1, 1 << 16);

    let mut index: StateIndex<S> = StateIndex::new();
    let mut states: Vec<S> = Vec::new();

    // Initial distribution — level 0 of the BFS.
    let init_ids = intern_initial(initial, |s| {
        intern(s, &mut states, &mut index, options.max_states)
    })?;

    let mut builder = MdpBuilder::default();
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut scratch: Vec<ChunkScratch<S>> = Vec::new();
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
        if parallel {
            let mut lo = level_start;
            while lo < level_end {
                let slice = lo..level_end.min(lo + PAR_SLICE);
                let nchunks = workers.min(slice.len());
                if scratch.len() < nchunks {
                    scratch.resize_with(nchunks, ChunkScratch::new);
                }
                lo = slice.end;
                expand_level_parallel(
                    &expand,
                    options,
                    &mut states,
                    &mut index,
                    &mut builder,
                    slice,
                    &mut scratch[..nchunks],
                )?;
            }
        } else {
            for cur in level_start..level_end {
                let actions = state_actions(&expand, &states[cur], options.prune_threshold)?;
                for dist in actions {
                    row.clear();
                    for (s, p) in dist {
                        let id = intern(s, &mut states, &mut index, options.max_states)?;
                        row.push((id, p));
                    }
                    builder.push_action(&mut row)?;
                }
                builder.finish_state()?;
            }
        }
        level_start = level_end;
    }

    let (labels, rewards) = label(&states)?;
    let mdp = Mdp::new(builder.finish(), init_ids, labels, rewards)?;
    let stats = BuildStats {
        states: states.len(),
        transitions: mdp.n_transitions(),
        reachability_iterations: levels,
        build_time: start.elapsed(),
    };
    stats.record();
    Ok(ExploredMdp {
        mdp,
        states,
        index,
        stats,
    })
}

/// The validated actions of one state: [`DtmcError::NoActions`] for a
/// deadlock, and every action's distribution cleaned by
/// [`clean_successors`].
fn state_actions<S, E, F>(expand: &F, state: &S, prune: f64) -> Result<Vec<Vec<(S, f64)>>, E>
where
    S: Debug,
    E: From<DtmcError>,
    F: Fn(&S) -> Result<Vec<Vec<(S, f64)>>, E>,
{
    let mut actions = expand(state)?;
    if actions.is_empty() {
        return Err(DtmcError::NoActions {
            state: format!("{state:?}"),
        }
        .into());
    }
    for dist in &mut actions {
        clean_successors(state, dist, prune)?;
    }
    Ok(actions)
}

/// Expands one slice of a BFS level through the three-phase pipeline
/// (module docs).
fn expand_level_parallel<S, E, F>(
    expand: &F,
    options: &ExploreOptions,
    states: &mut Vec<S>,
    index: &mut StateIndex<S>,
    builder: &mut MdpBuilder,
    level: std::ops::Range<usize>,
    scratch: &mut [ChunkScratch<S>],
) -> Result<(), E>
where
    S: Clone + Eq + Hash + Debug + Send + Sync,
    E: From<DtmcError> + Send,
    F: Fn(&S) -> Result<Vec<Vec<(S, f64)>>, E> + Sync,
{
    let nchunks = scratch.len();
    let level_len = level.len();
    let per_chunk = level_len.div_ceil(nchunks);
    // The scoped pool honours `par::with_lane_scope`, as the DTMC
    // explorer's pipeline does.
    let pool = par::scoped_pool();

    // Phase 1: expand + validate.
    {
        let level_states = &states[level];
        let prune = options.prune_threshold;
        let results = pool.map_chunks(scratch, 1, &|t, sc: &mut [ChunkScratch<S>]| {
            let sc = &mut sc[0];
            sc.reset();
            let lo = level_len.min(t * per_chunk);
            let hi = level_len.min(lo + per_chunk);
            for cur in &level_states[lo..hi] {
                let actions = state_actions(expand, cur, prune)?;
                sc.action_count.push(actions.len() as u32);
                for dist in actions {
                    sc.act_len.push(dist.len() as u32);
                    sc.succ.extend(dist);
                }
            }
            Ok::<_, E>(())
        });
        // Deterministic error reporting: results come back in chunk order,
        // which is level order, and each chunk stopped at its first
        // failing state.
        results.into_iter().collect::<Result<(), E>>()?;
    }

    // Phase 2 (sequential): intern every occurrence in level order — ids
    // come out in exactly the first-occurrence order sequential BFS uses.
    for sc in scratch.iter_mut() {
        for (s, _) in &sc.succ {
            let id = intern(s.clone(), states, index, options.max_states)?;
            sc.ids.push(id);
        }
    }

    // Phase 3: per-chunk row assembly, then the flat segment merge.
    pool.map_chunks(scratch, 1, &|_, sc: &mut [ChunkScratch<S>]| {
        let ChunkScratch {
            succ,
            ids,
            act_len,
            seg_act_len,
            seg_cols,
            seg_vals,
            row_buf,
            ..
        } = &mut sc[0];
        seg_act_len.clear();
        seg_cols.clear();
        seg_vals.clear();
        let mut occ = 0usize;
        for &len in act_len.iter() {
            row_buf.clear();
            for _ in 0..len {
                row_buf.push((ids[occ], succ[occ].1));
                occ += 1;
            }
            let before = seg_cols.len();
            merge_row_into(seg_cols, seg_vals, row_buf);
            seg_act_len.push((seg_cols.len() - before) as u32);
        }
    });
    for sc in scratch.iter() {
        builder.append_segment(
            &sc.action_count,
            &sc.seg_act_len,
            &sc.seg_cols,
            &sc.seg_vals,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A grid walk where the adversary picks the axis and noise decides
    /// whether the step lands; corners absorb.
    pub(crate) struct Grid {
        pub w: u16,
    }

    impl MdpModel for Grid {
        type State = (u16, u16);
        fn initial_states(&self) -> Vec<(Self::State, f64)> {
            vec![((0, 0), 1.0)]
        }
        fn actions(&self, &(x, y): &Self::State) -> Vec<Vec<(Self::State, f64)>> {
            let mut acts = Vec::new();
            if x + 1 < self.w {
                acts.push(vec![((x + 1, y), 0.75), ((x, y), 0.25)]);
            }
            if y + 1 < self.w {
                acts.push(vec![((x, y + 1), 0.75), ((x, y), 0.25)]);
            }
            if acts.is_empty() {
                acts.push(vec![((x, y), 1.0)]);
            }
            acts
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["corner"]
        }
        fn holds(&self, ap: &str, &(x, y): &Self::State) -> bool {
            ap == "corner" && x + 1 == self.w && y + 1 == self.w
        }
    }

    #[test]
    fn explores_whole_grid() {
        let e = explore(&Grid { w: 8 }, &ExploreOptions::default()).unwrap();
        assert_eq!(e.mdp.n_states(), 64);
        assert_eq!(e.stats.states, 64);
        // Interior states offer 2 actions, edges 1, the far corner 1.
        assert_eq!(e.mdp.n_choices(), 49 * 2 + 14 + 1);
        assert_eq!(e.id_of(&(0, 0)), Some(0));
        let corner = e.id_of(&(7, 7)).unwrap() as usize;
        assert!(e.mdp.label("corner").unwrap().get(corner));
        assert_eq!(e.mdp.rewards()[corner], 1.0);
    }

    /// One initial state fanning out to `width` states, each offering two
    /// actions over a few thousand shared successors (scrambled so that
    /// rediscoveries cross slice boundaries), which lead back to the start.
    struct Fan {
        width: u32,
    }

    impl MdpModel for Fan {
        type State = u32;
        fn initial_states(&self) -> Vec<(u32, f64)> {
            vec![(0, 1.0)]
        }
        fn actions(&self, &s: &u32) -> Vec<Vec<(u32, f64)>> {
            let w = self.width;
            if s == 0 {
                let p = 1.0 / f64::from(w);
                vec![(1..=w).map(|i| (i, p)).collect()]
            } else if s <= w {
                vec![
                    vec![(w + 1 + s.wrapping_mul(7_919) % 3_000, 1.0)],
                    vec![(w + 1 + s % 1_000, 0.5), (0, 0.5)],
                ]
            } else {
                vec![vec![(0, 1.0)]]
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec![]
        }
        fn holds(&self, _: &str, _: &u32) -> bool {
            false
        }
    }

    fn assert_same<S: Clone + Eq + Hash + Debug>(
        seq: &ExploredMdp<S>,
        par: &ExploredMdp<S>,
        what: &str,
    ) {
        assert_eq!(par.states, seq.states, "{what}");
        assert_eq!(par.mdp.n_choices(), seq.mdp.n_choices(), "{what}");
        assert_eq!(par.mdp.n_transitions(), seq.mdp.n_transitions(), "{what}");
        for s in 0..seq.mdp.n_states() {
            assert_eq!(par.mdp.action_count(s), seq.mdp.action_count(s), "{what}");
            for a in 0..seq.mdp.action_count(s) {
                assert_eq!(
                    par.mdp.action_row(s, a).collect::<Vec<_>>(),
                    seq.mdp.action_row(s, a).collect::<Vec<_>>(),
                    "{what} state={s} action={a}"
                );
            }
        }
        assert_eq!(
            par.stats.reachability_iterations, seq.stats.reachability_iterations,
            "{what}"
        );
    }

    #[test]
    fn parallel_exploration_bit_identical_to_sequential() {
        let seq = explore(&Grid { w: 16 }, &ExploreOptions::default().with_threads(1)).unwrap();
        for threads in [2usize, 3, 4, 7] {
            let par = explore(
                &Grid { w: 16 },
                &ExploreOptions::default()
                    .with_threads(threads)
                    .with_par_min_level(1),
            )
            .unwrap();
            assert_same(&seq, &par, &format!("grid, threads={threads}"));
        }
        // A level wider than one pipeline slice runs as consecutive
        // slices, forced onto the pipeline by `par_min_level` and by a lane
        // scope's static rule.
        let fan = Fan {
            width: 2 * PAR_SLICE as u32 + 1_234,
        };
        let seq = explore(&fan, &ExploreOptions::default().with_threads(1)).unwrap();
        assert_eq!(seq.stats.reachability_iterations, 3);
        for threads in [2usize, 4] {
            let par = explore(
                &fan,
                &ExploreOptions::default()
                    .with_threads(threads)
                    .with_par_min_level(1),
            )
            .unwrap();
            assert_same(&seq, &par, &format!("fan, threads={threads}"));
        }
        let scoped = par::with_lane_scope(4, || {
            explore(&fan, &ExploreOptions::default().with_threads(4)).unwrap()
        });
        assert_same(&seq, &scoped, "fan, lane scope");
    }

    #[test]
    fn state_limit_enforced() {
        let err = explore(
            &Grid { w: 100 },
            &ExploreOptions::default().with_max_states(10),
        );
        assert!(matches!(
            err,
            Err(DtmcError::StateLimitExceeded { limit: 10 })
        ));
    }

    struct Deadlocked;
    impl MdpModel for Deadlocked {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn actions(&self, s: &u8) -> Vec<Vec<(u8, f64)>> {
            if *s == 0 {
                vec![vec![(1, 1.0)]]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn deadlock_is_reported() {
        let err = explore(&Deadlocked, &ExploreOptions::default());
        assert!(matches!(err, Err(DtmcError::NoActions { .. })));
    }

    struct BadDist;
    impl MdpModel for BadDist {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn actions(&self, _: &u8) -> Vec<Vec<(u8, f64)>> {
            vec![vec![(0, 0.5)], vec![(0, 1.0)]]
        }
    }

    #[test]
    fn non_stochastic_action_rejected() {
        let err = explore(&BadDist, &ExploreOptions::default());
        assert!(matches!(err, Err(DtmcError::NotStochastic { .. })));
    }

    #[test]
    fn single_action_mdp_matches_dtmc_exploration() {
        use crate::model::DtmcAsMdp;

        struct Walk;
        impl smg_dtmc::DtmcModel for Walk {
            type State = u8;
            fn initial_states(&self) -> Vec<(u8, f64)> {
                vec![(0, 1.0)]
            }
            fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
                if *s >= 5 {
                    vec![(*s, 1.0)]
                } else {
                    vec![(s + 1, 0.5), (0, 0.5)]
                }
            }
        }

        let d = smg_dtmc::explore(&Walk, &ExploreOptions::default()).unwrap();
        let m = explore(&DtmcAsMdp(Walk), &ExploreOptions::default()).unwrap();
        assert_eq!(m.mdp.n_states(), d.dtmc.n_states());
        assert_eq!(m.mdp.n_choices(), d.dtmc.n_states());
        assert_eq!(m.states, d.states);
        for s in 0..d.dtmc.n_states() {
            assert_eq!(
                m.mdp.action_row(s, 0).collect::<Vec<_>>(),
                d.dtmc.matrix().successors(s)
            );
        }
    }
}
