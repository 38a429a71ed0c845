//! Breadth-first state-space exploration for MDPs.
//!
//! [`explore`] enumerates the states of an [`MdpModel`] reachable from its
//! initial distribution — a state is reachable if *some* action sequence
//! can reach it — interning each distinct state and assembling the explicit
//! [`Mdp`]. The machinery is shared with the DTMC explorer: states intern
//! through the same [`intern`] into the same [`StateIndex`], action
//! distributions are validated by the same [`clean_successors`], rows
//! merge through [`MdpBuilder::push_action`] into the flat pool, and labels
//! and rewards assemble through the same [`assemble_labels_rewards`] scans.
//! As in the DTMC explorer, the search runs on the calling thread, so ids,
//! action rows and the error a failing run reports follow the scan order
//! alone.
//!
//! As on the DTMC side, [`explore`] is a thin call into one search core,
//! [`try_explore`], whose action function may fail with the caller's own
//! error type; the `.sm` compiler builds `mdp` programs through it.

use crate::mdp::{Mdp, MdpBuilder};
use crate::model::MdpModel;
use smg_dtmc::explore::{
    assemble_labels_rewards, clean_successors, intern, intern_initial, ExploreOptions, Labelling,
    StateIndex,
};
use smg_dtmc::{BuildStats, DtmcError, StateId};
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
        self.index.get(state).copied()
    }
}

/// Explores an [`MdpModel`] breadth-first into an explicit [`Mdp`].
///
/// The label and reward scans may run on the engine's worker pool, hence
/// the `Sync` bounds.
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
    M::State: Sync,
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
/// rows), then attaches what `label` computes over the reachable states.
/// Build statistics are reported through [`BuildStats::record`], as the
/// DTMC explorer does.
///
/// `expand` returns a state's actions, each a distribution over successors,
/// or the caller's own error, which stops the search at the first failing
/// state in BFS order.
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
    S: Clone + Eq + Hash + Debug,
    E: From<DtmcError>,
    F: Fn(&S) -> Result<Vec<Vec<(S, f64)>>, E>,
    L: FnOnce(&[S]) -> Result<Labelling, E>,
{
    let start = Instant::now();
    let mut index = StateIndex::default();
    let mut states: Vec<S> = Vec::new();

    // Initial distribution — level 0 of the BFS.
    let init_ids = intern_initial(initial, |s| {
        intern(s, &mut states, &mut index, options.max_states)
    })?;

    let mut builder = MdpBuilder::default();
    let mut row: Vec<(u32, f64)> = Vec::new();
    let mut levels = 0usize;
    let mut level_start = 0usize;
    while level_start < states.len() {
        let level_end = states.len();
        levels += 1;
        for cur in level_start..level_end {
            // Every action is validated before any successor interns, so a
            // bad distribution wins over a state-limit overflow.
            let state = &states[cur];
            let mut actions = expand(state)?;
            if actions.is_empty() {
                return Err(DtmcError::NoActions {
                    state: format!("{state:?}"),
                }
                .into());
            }
            for dist in &mut actions {
                clean_successors(state, dist, options.prune_threshold)?;
            }
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
