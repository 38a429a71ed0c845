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
//! failing state in BFS order.
//!
//! # Performance notes
//!
//! Exploration is dominated by state interning and row assembly, so both are
//! tuned:
//!
//! * states intern into a [`StateIndex`] — a [`FastHashMap`]
//!   ([`crate::hash`]) instead of the std SipHash map: hashing is the
//!   single hottest operation here and needs no HashDoS resistance
//!   in-process;
//! * the frontier expands level by level (batched BFS): ids are assigned in
//!   discovery order and whole levels are drained before their successors'
//!   level begins, which makes the level count itself the RI statistic and
//!   keeps the expansion loop free of per-state depth bookkeeping;
//! * transition rows append straight into a flat [`CsrBuilder`] instead of
//!   a `Vec<Vec<_>>` of per-state rows, removing one short-lived allocation
//!   per expanded state.
//!
//! The search runs on the calling thread, so ids, rows and the error a
//! failing run reports follow the scan order alone, whatever the lane
//! count. Only the label and reward scans after the fixpoint
//! ([`assemble_labels_rewards`]) may run on the worker pool, through
//! measured [`par::Site`]s.

use crate::dtmc::{Dtmc, StateId};
use crate::error::DtmcError;
use crate::hash::FastHashMap;
use crate::matrix::{CsrBuilder, RankOneMatrix, TransitionMatrix, STOCHASTIC_TOL};
use crate::model::{DtmcModel, MemorylessModel};
use crate::stats::BuildStats;
use crate::{par, BitVec};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::time::Instant;

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
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_states: 50_000_000,
            prune_threshold: 0.0,
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
}

/// The interning table mapping model states to [`StateId`]s: one flat
/// fast-hash map, shared by this explorer and the MDP explorer in
/// `smg-mdp` through [`intern`].
pub type StateIndex<S> = FastHashMap<S, StateId>;

/// The result of exploring a model: the explicit chain plus the mapping
/// between model states and matrix indices.
#[derive(Debug, Clone)]
pub struct Explored<S> {
    /// The explicit DTMC.
    pub dtmc: Dtmc,
    /// State at each index (`states[id]` is the model state of `id`).
    pub states: Vec<S>,
    /// Index of each state (the fast-hash interning table).
    pub index: StateIndex<S>,
    /// Exploration statistics (the paper's table columns).
    pub stats: BuildStats,
}

impl<S> Explored<S> {
    /// Looks up the id of a model state.
    pub fn id_of(&self, state: &S) -> Option<StateId>
    where
        S: Hash + Eq,
    {
        self.index.get(state).copied()
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

/// Interns one state: its id if `index` already holds it, else the next id
/// in discovery order (`states.len()`), recording the state in both.
/// Shared with the MDP explorer in `smg-mdp`.
///
/// # Errors
///
/// [`DtmcError::StateLimitExceeded`] when a new state would make more than
/// `max_states`.
#[inline(always)]
pub fn intern<S: Clone + Hash + Eq>(
    s: S,
    states: &mut Vec<S>,
    index: &mut StateIndex<S>,
    max_states: usize,
) -> Result<StateId, DtmcError> {
    if let Some(&id) = index.get(&s) {
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

/// Explores a [`DtmcModel`] breadth-first into an explicit [`Dtmc`].
///
/// The label and reward scans may run on the engine's worker pool, hence
/// the `Sync` bounds.
///
/// # Errors
///
/// Propagates invalid-probability/stochasticity errors from the model and
/// returns [`DtmcError::StateLimitExceeded`] if the reachable space is
/// larger than `options.max_states`.
pub fn explore<M>(model: &M, options: &ExploreOptions) -> Result<Explored<M::State>, DtmcError>
where
    M: DtmcModel + Sync,
    M::State: Sync,
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
/// rows exactly as [`explore`] does for a model (same ids, same rows),
/// then attaches what `label` computes over the reachable states.
///
/// `expand` returns a state's successors with their probabilities
/// (duplicates allowed, masses summing to one) or the caller's own error,
/// which stops the search at the first failing state in BFS order.
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
    S: Clone + Eq + Hash + Debug,
    E: From<DtmcError>,
    F: Fn(&S) -> Result<Vec<(S, f64)>, E>,
    L: FnOnce(&[S]) -> Result<Labelling, E>,
{
    let start = Instant::now();
    let mut index = StateIndex::default();
    let mut states: Vec<S> = Vec::new();

    // Initial distribution — level 0 of the BFS.
    let init_ids = intern_initial(initial, |s| {
        intern(s, &mut states, &mut index, options.max_states)
    })?;

    // Batched BFS: ids are assigned in discovery order and expanded in that
    // same order, one whole level at a time, so CSR rows are emitted
    // sequentially and the level count is the RI statistic directly.
    // The reachable size is unknown until the fixpoint; the builder's flat
    // arrays grow geometrically, which amortises fine without a hint.
    let mut builder = CsrBuilder::default();
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut levels = 0usize;
    let mut level_start = 0usize;
    while level_start < states.len() {
        let level_end = states.len();
        levels += 1;
        for cur in level_start..level_end {
            let mut succ = expand(&states[cur])?;
            clean_successors(&states[cur], &mut succ, options.prune_threshold)?;
            row.clear();
            for (s, p) in succ {
                let id = intern(s, &mut states, &mut index, options.max_states)?;
                row.push((id, p));
            }
            builder.push_row(&mut row)?;
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
        index,
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
    let mut index = StateIndex::default();

    let init_id = intern(init.clone(), &mut states, &mut index, options.max_states)?;
    let mut dist: Vec<(u32, f64)> = Vec::with_capacity(step.len());
    for (s, p) in step {
        let id = intern(s, &mut states, &mut index, options.max_states)?;
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
        index,
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

    /// A cap that falls inside a level: the grid's anti-diagonal levels
    /// hold 91 states through level 13, and level 14 would add 14 more.
    #[test]
    fn state_limit_enforced_inside_a_level() {
        let err = explore(
            &Grid { w: 30 },
            &ExploreOptions::default().with_max_states(100),
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
        for (s, &id_f) in &fast.index {
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

    #[test]
    fn state_index_lookup_and_iteration() {
        let e = explore(&Grid { w: 8 }, &ExploreOptions::default()).unwrap();
        assert_eq!(e.index.len(), 64);
        assert!(!e.index.is_empty());
        assert_eq!(e.id_of(&(9, 9)), None);
        for (id, s) in e.states.iter().enumerate() {
            assert_eq!(e.id_of(s), Some(id as StateId));
            assert_eq!(e.index[s] as usize, id);
        }
        let mut seen: Vec<StateId> = e.index.values().copied().collect();
        seen.sort_unstable();
        assert!(seen.iter().enumerate().all(|(i, &id)| i == id as usize));
    }
}
