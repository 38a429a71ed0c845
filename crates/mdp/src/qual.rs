//! Qualitative (graph-based) analyses of an MDP — the pre-passes that
//! make certified value iteration sound.
//!
//! Interval iteration ([`crate::vi`]'s `certified_*` drivers) needs facts
//! that must *not* come from numerically converged probabilities, because
//! the whole point is to certify those numbers. This module computes them
//! purely from the transition structure:
//!
//! * [`prob0_max`] / [`prob0_min`] — the states where `Pmax = 0`
//!   (no scheduler can reach) and where `Pmin = 0` (some scheduler can
//!   avoid), PRISM's `Prob0A`/`Prob0E`.
//! * [`prob1_min`] / [`prob1_max`] — the states where `Pmin = 1` (every
//!   scheduler reaches almost surely) and where `Pmax = 1` (some scheduler
//!   does), PRISM's `Prob1A`/`Prob1E` — the "certain" regions of the
//!   `Rmax`/`Rmin` reward iterations.
//! * [`max_end_components`] — the maximal end components of a restricted
//!   sub-MDP. End components are exactly the structures that break the
//!   uniqueness of Bellman fixpoints (a scheduler can cycle inside one
//!   forever), so the certified drivers deflate upper bounds / inflate
//!   lower bounds across them.
//! * [`proper_scheduler`] — a memoryless scheduler that reaches the target
//!   almost surely from every `Pmax = 1` state, built by a safe-action
//!   attractor (used to seed the certified `Rmin` descent with a cost that
//!   is provably finite).
//! * [`condensation`] — the SCC condensation of the any-action graph that
//!   the topological drivers walk.
//!
//! Every fixpoint runs as a worklist over a predecessor index of the
//! choices (each state lists the choices that can move into it), so each
//! pass touches every transition a constant number of times: linear in the
//! MDP's size, however deep its graph. (`prob1_max` keeps de Alfaro's
//! outer loop, one linear pass per refinement.)
//!
//! Every function takes the until-style `(lhs, rhs)` masks the checkers
//! use: states outside `lhs ∪ rhs` are failure states whose actions are
//! ignored (they behave as absorbing sinks), matching the path semantics
//! of `lhs U rhs`.

use crate::mdp::Mdp;
use smg_dtmc::graph::Condensation;
use smg_dtmc::BitVec;
use smg_obs as obs;
use std::collections::VecDeque;

/// Whether state `s` may be expanded through: a legal path intermediate
/// (in `lhs`, not already in `rhs`).
#[inline]
fn expandable(lhs: &BitVec, rhs: &BitVec, s: usize) -> bool {
    lhs.get(s) && !rhs.get(s)
}

/// The predecessor index of an MDP's choices: for every state `c`, the
/// global ids of the choices with `c` in their positive-probability
/// support (ascending), plus the state owning each choice.
struct ChoicePreds {
    ptr: Vec<usize>,
    choices: Vec<u32>,
    owner: Vec<u32>,
}

impl ChoicePreds {
    fn new(mdp: &Mdp) -> ChoicePreds {
        let n = mdp.n_states();
        let mut owner = vec![0u32; mdp.n_choices()];
        let mut ptr = vec![0usize; n + 1];
        for s in 0..n {
            for choice in mdp.state_choices(s) {
                owner[choice] = s as u32;
                for (c, p) in mdp.choice_row(choice) {
                    if p > 0.0 {
                        ptr[c as usize + 1] += 1;
                    }
                }
            }
        }
        for c in 0..n {
            ptr[c + 1] += ptr[c];
        }
        let mut fill = ptr.clone();
        let mut choices = vec![0u32; ptr[n]];
        for choice in 0..mdp.n_choices() {
            for (c, p) in mdp.choice_row(choice) {
                if p > 0.0 {
                    choices[fill[c as usize]] = choice as u32;
                    fill[c as usize] += 1;
                }
            }
        }
        ChoicePreds {
            ptr,
            choices,
            owner,
        }
    }

    /// The choices that can move into state `c`.
    fn entering(&self, c: usize) -> &[u32] {
        &self.choices[self.ptr[c]..self.ptr[c + 1]]
    }
}

/// Whether every positive-probability successor of `choice` lies in `set`.
fn stays_in(mdp: &Mdp, choice: usize, set: impl Fn(usize) -> bool) -> bool {
    mdp.choice_row(choice)
        .all(|(c, p)| p == 0.0 || set(c as usize))
}

/// The states that can reach `rhs` with positive probability under *some*
/// scheduler, through `lhs`-states only — the complement of the
/// `Pmax = 0` set.
pub fn pre_star(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    pre_star_with(mdp, &ChoicePreds::new(mdp), lhs, rhs)
}

fn pre_star_with(mdp: &Mdp, preds: &ChoicePreds, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    let mut reach = BitVec::zeros(mdp.n_states());
    let mut queue: VecDeque<usize> = rhs.iter_ones().collect();
    for &s in &queue {
        reach.set(s, true);
    }
    while let Some(c) = queue.pop_front() {
        for &choice in preds.entering(c) {
            let s = preds.owner[choice as usize] as usize;
            if !reach.get(s) && expandable(lhs, rhs, s) {
                reach.set(s, true);
                queue.push_back(s);
            }
        }
    }
    reach
}

/// The `Pmax = 0` states of `lhs U rhs`: no scheduler reaches `rhs`
/// through `lhs` with positive probability (PRISM `Prob0A`).
pub fn prob0_max(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    pre_star(mdp, lhs, rhs).not()
}

/// The `Pmin = 0` states of `lhs U rhs`: *some* scheduler avoids `rhs`
/// almost surely (PRISM `Prob0E`). Computed as the greatest fixpoint of
/// `U = {s ∉ rhs : s is a failure state, or some action keeps all mass
/// in U}`: states leave `U` from `rhs` outward, and an expandable state
/// leaves once every one of its actions can move out of `U`.
pub fn prob0_min(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    prob0_min_with(mdp, &ChoicePreds::new(mdp), lhs, rhs)
}

fn prob0_min_with(mdp: &Mdp, preds: &ChoicePreds, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    let n = mdp.n_states();
    let mut u = rhs.not();
    // Per state: actions still keeping all their mass inside `U`.
    let mut staying: Vec<u32> = (0..n).map(|s| mdp.action_count(s) as u32).collect();
    let mut leaves = vec![false; mdp.n_choices()];
    let mut queue: VecDeque<usize> = rhs.iter_ones().collect();
    while let Some(c) = queue.pop_front() {
        for &choice in preds.entering(c) {
            let choice = choice as usize;
            if leaves[choice] {
                continue;
            }
            leaves[choice] = true;
            let s = preds.owner[choice] as usize;
            staying[s] -= 1;
            // rhs states are never in `U`; failure states stay in it.
            if staying[s] == 0 && u.get(s) && expandable(lhs, rhs, s) {
                u.set(s, false);
                queue.push_back(s);
            }
        }
    }
    u
}

/// The `Pmin = 1` states of `lhs U rhs`: every scheduler reaches `rhs`
/// almost surely (PRISM `Prob1A`). A state fails the test exactly when
/// some scheduler reaches the `Pmin = 0` region with positive probability
/// before `rhs`, so this is `¬ pre*(prob0_min)`.
pub fn prob1_min(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    let preds = ChoicePreds::new(mdp);
    let zero = prob0_min_with(mdp, &preds, lhs, rhs);
    // Intermediates must avoid rhs (reaching rhs first is a success), so
    // restrict the expansion mask to lhs ∖ rhs — `pre_star` already never
    // expands through its `rhs` argument (`zero` here), and we exclude the
    // real rhs by masking it out of lhs.
    pre_star_with(mdp, &preds, &lhs.and(&rhs.not()), &zero).not()
}

/// The `Pmax = 1` states of `lhs U rhs`: some scheduler reaches `rhs`
/// almost surely (PRISM `Prob1E`, de Alfaro's nested fixpoint).
pub fn prob1_max(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    prob1_max_with(mdp, &ChoicePreds::new(mdp), lhs, rhs)
}

fn prob1_max_with(mdp: &Mdp, preds: &ChoicePreds, lhs: &BitVec, rhs: &BitVec) -> BitVec {
    let n = mdp.n_states();
    let mut x = BitVec::ones(n);
    loop {
        // Inner least fixpoint: states with an action that stays inside X
        // and makes progress toward rhs through Y, grown backward from rhs.
        let inside: Vec<bool> = (0..mdp.n_choices())
            .map(|choice| stays_in(mdp, choice, |c| x.get(c)))
            .collect();
        let mut y = rhs.clone();
        let mut queue: VecDeque<usize> = rhs.iter_ones().collect();
        while let Some(c) = queue.pop_front() {
            for &choice in preds.entering(c) {
                let s = preds.owner[choice as usize] as usize;
                if !y.get(s) && x.get(s) && expandable(lhs, rhs, s) && inside[choice as usize] {
                    y.set(s, true);
                    queue.push_back(s);
                }
            }
        }
        if y == x {
            return x;
        }
        x = y;
    }
}

/// The maximal end components of the sub-MDP restricted to `restrict`:
/// maximal state sets `M ⊆ restrict` such that every state of `M` has at
/// least one action whose support stays inside `M`, and `M` is strongly
/// connected through those actions. Singleton components qualify only
/// with a self-loop action. Components are returned as sorted state
/// lists.
pub fn max_end_components(mdp: &Mdp, restrict: &BitVec) -> Vec<Vec<u32>> {
    let n = mdp.n_states();
    // Component id per state; refine until stable. Initially one candidate
    // component (id 0) covering `restrict`, everything else isolated.
    let mut comp: Vec<u32> = (0..n)
        .map(|s| if restrict.get(s) { 0 } else { u32::MAX })
        .collect();
    loop {
        // SCCs through the actions fully inside the current candidate
        // component of their source (unassigned states get no edges).
        let internal = |s: usize, a: usize| -> bool {
            mdp.action_row(s, a)
                .all(|(c, p)| p == 0.0 || comp[c as usize] == comp[s])
        };
        let sccs = Condensation::from_successors(n, |s| {
            let actions = if comp[s] == u32::MAX {
                0
            } else {
                mdp.action_count(s)
            };
            (0..actions)
                .filter(move |&a| internal(s, a))
                .flat_map(move |a| {
                    mdp.action_row(s, a)
                        .filter(|&(_, p)| p > 0.0)
                        .map(|(c, _)| c)
                })
        });
        let scc_of = sccs.comp_of();
        // Re-map: states sharing (old component, scc) stay together.
        let mut next: Vec<u32> = vec![u32::MAX; n];
        let mut ids: std::collections::BTreeMap<(u32, u32), u32> =
            std::collections::BTreeMap::new();
        for s in 0..n {
            if comp[s] == u32::MAX {
                continue;
            }
            let key = (comp[s], scc_of[s]);
            let fresh = ids.len() as u32;
            next[s] = *ids.entry(key).or_insert(fresh);
        }
        if next == comp {
            break;
        }
        comp = next;
    }
    // Collect stable components that really are end components.
    let mut groups: std::collections::BTreeMap<u32, Vec<u32>> = std::collections::BTreeMap::new();
    for (s, &c) in comp.iter().enumerate() {
        if c != u32::MAX {
            groups.entry(c).or_default().push(s as u32);
        }
    }
    let mecs: Vec<Vec<u32>> = groups
        .into_values()
        .filter(|members| {
            members.iter().all(|&s| {
                let s = s as usize;
                (0..mdp.action_count(s)).any(|a| {
                    mdp.action_row(s, a)
                        .all(|(c, p)| p == 0.0 || comp[c as usize] == comp[s])
                })
            })
        })
        .collect();
    obs::counter_add("smg_mdp_mecs_total", None, mecs.len() as u64);
    mecs
}

/// The SCC condensation of an MDP's *any-action* transition graph: states
/// are grouped into strongly-connected components over the union of all
/// action supports, and components are arranged into DAG levels (level 0 =
/// sinks, i.e. components with no outgoing cross-component edge).
///
/// This is the structural backbone of the topological drivers
/// ([`crate::vi::topo_until_values`], [`crate::vi::topo_certified_until_values`]
/// and friends): components are solved in ascending level order, so every
/// cross-component read hits an already-solved constant. End components
/// are always strongly connected through their internal actions, so **an
/// end component never spans two SCCs** — deflation and inflation stay
/// component-local.
pub fn condensation(mdp: &Mdp) -> Condensation {
    Condensation::from_successors(mdp.n_states(), |s| mdp.successors(s))
}

/// A memoryless scheduler that reaches `rhs` almost surely from every
/// `Pmax = 1` state of `lhs U rhs`, constructed purely from the graph:
/// states are claimed outward from `rhs` (breadth-first), each picking an
/// action that (a) keeps all its mass inside the `Pmax = 1` region and
/// (b) moves to an already-claimed state with positive probability. Such
/// an action always exists for every `Pmax = 1` state (follow the
/// almost-sure scheduler's own choices), and the induced chain provably
/// reaches `rhs` almost surely — no numeric value vector is trusted
/// anywhere.
///
/// Unclaimed states (outside the `Pmax = 1` region) default to action 0;
/// their induced behaviour is irrelevant to the callers, which only
/// evaluate the scheduler on the certain region.
pub fn proper_scheduler(mdp: &Mdp, lhs: &BitVec, rhs: &BitVec) -> Vec<u32> {
    let n = mdp.n_states();
    let preds = ChoicePreds::new(mdp);
    let certain = prob1_max_with(mdp, &preds, lhs, rhs);
    let mut sched = vec![0u32; n];
    let mut claimed = rhs.clone();
    let mut queue: VecDeque<usize> = rhs.iter_ones().collect();
    while let Some(c) = queue.pop_front() {
        for &choice in preds.entering(c) {
            let choice = choice as usize;
            let s = preds.owner[choice] as usize;
            if claimed.get(s)
                || !certain.get(s)
                || !expandable(lhs, rhs, s)
                || !stays_in(mdp, choice, |c| certain.get(c) || rhs.get(c))
            {
                continue;
            }
            sched[s] = (choice - mdp.state_choices(s).start) as u32;
            claimed.set(s, true);
            queue.push_back(s);
        }
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mdp::MdpBuilder;
    use std::collections::BTreeMap;

    /// 0: action 0 self-loops, action 1 → {goal: ½, sink: ½};
    /// 1 = goal (absorbing), 2 = sink (absorbing).
    fn risky() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), smg_dtmc::BitVec::from_fn(3, |i| i == 1));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 3]).unwrap()
    }

    #[test]
    fn qualitative_sets_on_risky() {
        let m = risky();
        let goal = m.label("goal").unwrap().clone();
        let all = BitVec::ones(3);
        // Pmax > 0 everywhere except the sink.
        let p0max = prob0_max(&m, &all, &goal);
        assert_eq!(p0max.iter_ones().collect::<Vec<_>>(), vec![2]);
        // Pmin = 0 at 0 (stall forever) and at the sink.
        let p0min = prob0_min(&m, &all, &goal);
        assert_eq!(p0min.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        // Pmin = 1 only at the goal itself.
        let p1min = prob1_min(&m, &all, &goal);
        assert_eq!(p1min.iter_ones().collect::<Vec<_>>(), vec![1]);
        // Pmax = 1 at the goal; 0 only reaches with probability ½.
        let p1max = prob1_max(&m, &all, &goal);
        assert_eq!(p1max.iter_ones().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn prob1_max_sees_retry_loops() {
        // 0: action 0 → {goal: ½, 0: ½} — retrying forever succeeds a.s.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 0.5), (0, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), smg_dtmc::BitVec::from_fn(2, |i| i == 1));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 2]).unwrap();
        let goal = m.label("goal").unwrap().clone();
        let all = BitVec::ones(2);
        assert!(prob1_max(&m, &all, &goal).all());
        assert!(prob1_min(&m, &all, &goal).all());
    }

    #[test]
    fn end_components_found_and_filtered() {
        // {0, 1} cycle via dedicated actions, each with an exit; 2 has no
        // self-loop action → not an EC on its own.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], BTreeMap::new(), vec![0.0; 4]).unwrap();
        let restrict = BitVec::from_fn(4, |i| i < 3);
        let mecs = max_end_components(&m, &restrict);
        assert_eq!(mecs, vec![vec![0, 1]]);
        // The absorbing state 3 is a singleton EC when included.
        let mecs = max_end_components(&m, &BitVec::ones(4));
        assert_eq!(mecs, vec![vec![0, 1], vec![3]]);
    }

    #[test]
    fn condensation_groups_cycles_and_levels_sinks_first() {
        // 0 ↔ 1 cycle (via actions), both can exit to 2, 2 → 3 (absorbing).
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], BTreeMap::new(), vec![0.0; 4]).unwrap();
        let cond = condensation(&m);
        assert_eq!(cond.n_components(), 3);
        assert_eq!(cond.largest(), 2);
        assert_eq!(cond.dag_depth(), 3);
        // {0,1} share a component; every cross edge targets a smaller id.
        assert_eq!(cond.comp_of()[0], cond.comp_of()[1]);
        for comp in cond.components() {
            assert!(comp.windows(2).all(|w| w[0] < w[1]), "sorted members");
        }
        assert!(cond.comp_of()[2] < cond.comp_of()[0]);
        assert!(cond.comp_of()[3] < cond.comp_of()[2]);
        // Level 0 holds exactly the absorbing sink's component.
        assert_eq!(cond.comps_at_level(0), &[cond.comp_of()[3]]);
        // An end component never spans SCCs: the {0,1} MEC sits inside one.
        let mecs = max_end_components(&m, &BitVec::ones(4));
        for mec in &mecs {
            let c0 = cond.comp_of()[mec[0] as usize];
            assert!(mec.iter().all(|&s| cond.comp_of()[s as usize] == c0));
        }
    }

    #[test]
    fn proper_scheduler_avoids_risky_ties() {
        // 0: action 0 = risky {goal ½, sink ½}; action 1 = safe → 1;
        // 1 → goal surely. Pmax = 1 via the safe route only, so the
        // proper scheduler must not pick action 0 at state 0.
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(2, 0.5), (3, 0.5)]).unwrap();
        b.push_action(&mut [(1, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), smg_dtmc::BitVec::from_fn(4, |i| i == 2));
        let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 4]).unwrap();
        let goal = m.label("goal").unwrap().clone();
        let all = BitVec::ones(4);
        assert!(prob1_max(&m, &all, &goal).get(0));
        let sched = proper_scheduler(&m, &all, &goal);
        assert_eq!(sched[0], 1, "must take the safe action");
        let d = m.induced_dtmc(&sched).unwrap();
        let cond = smg_dtmc::graph::Condensation::new(&d);
        let v = smg_dtmc::solve::topo_reach_values(&d, &cond, &goal, 1e-12, 100_000).unwrap();
        assert!((v[0] - 1.0).abs() < 1e-9);
    }
}
