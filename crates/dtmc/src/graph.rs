//! Graph-theoretic analyses of the underlying digraph of a DTMC.
//!
//! The paper's steady-state argument (§V) is: "The DTMC model for the
//! Viterbi decoder is finite, irreducible and aperiodic. Therefore, the
//! model is guaranteed to converge to a steady-state probability
//! distribution." This module provides the machinery to *check* those
//! hypotheses rather than assume them: strongly-connected components
//! (iterative Tarjan), bottom SCCs, irreducibility, and aperiodicity (gcd of
//! cycle lengths via BFS levels).

use crate::bitvec::BitVec;
use crate::dtmc::Dtmc;
use crate::matrix::TransitionMatrix;

/// The strongly-connected components of the chain's digraph, each a sorted
/// list of state ids. Components are returned in reverse topological order
/// (successors before predecessors), which is Tarjan's natural output order.
pub fn sccs(dtmc: &Dtmc) -> Vec<Vec<u32>> {
    Condensation::new(dtmc)
        .components()
        .map(<[u32]>::to_vec)
        .collect()
}

/// The *bottom* strongly-connected components: SCCs with no edge leaving
/// them. Once the chain enters a BSCC it never leaves; the long-run
/// distribution is supported on the BSCCs.
pub fn bsccs(dtmc: &Dtmc) -> Vec<Vec<u32>> {
    let cond = Condensation::new(dtmc);
    cond.bottom()
        .iter()
        .map(|&ci| cond.comp(ci as usize).to_vec())
        .collect()
}

/// Whether the chain is irreducible: a single SCC covering every state.
pub fn is_irreducible(dtmc: &Dtmc) -> bool {
    dtmc.n_states() > 0 && Condensation::new(dtmc).n_components() == 1
}

/// The period of an irreducible chain: the gcd of all cycle lengths,
/// computed from BFS level differences. Returns `None` if the chain is not
/// irreducible (period is then not uniquely defined chain-wide).
///
/// An irreducible chain is *aperiodic* iff the period is 1 — together with
/// finiteness this is the paper's §III guarantee of a steady state.
pub fn period(dtmc: &Dtmc) -> Option<u64> {
    if !is_irreducible(dtmc) {
        return None;
    }
    let n = dtmc.n_states();
    let mut level = vec![u64::MAX; n];
    level[0] = 0;
    let mut queue = std::collections::VecDeque::from([0u32]);
    let mut g: u64 = 0;
    while let Some(v) = queue.pop_front() {
        for (c, _) in dtmc.matrix().successors(v as usize) {
            let c = c as usize;
            if level[c] == u64::MAX {
                level[c] = level[v as usize] + 1;
                queue.push_back(c as u32);
            } else {
                // Non-tree edge closes a cycle of length
                // level[v] + 1 - level[c] (may be negative mod period; gcd
                // of absolute differences is what matters).
                let diff = (level[v as usize] + 1).abs_diff(level[c]);
                if diff > 0 {
                    g = gcd(g, diff);
                } else {
                    // level difference zero means an odd/even-length pair of
                    // paths, i.e. a cycle of length contributing gcd with
                    // |l(v)+1-l(c)| = 0 → contributes a cycle of length
                    // divisible by the period only; a self-consistent level
                    // assignment exists, nothing to fold in.
                    g = gcd(g, level[v as usize] + 1 - level[c]);
                }
            }
        }
    }
    Some(if g == 0 { u64::MAX } else { g })
}

/// Whether a finite chain is guaranteed to converge to a steady state:
/// irreducible and aperiodic (§III).
pub fn is_ergodic(dtmc: &Dtmc) -> bool {
    matches!(period(dtmc), Some(1))
}

/// The states from which some `target` state is reachable through paths
/// whose intermediate states avoid `avoid` — the qualitative backward
/// reachability underlying certified solvers.
///
/// A state `s` is in the result iff there is a path `s = u₀ u₁ … u_k` with
/// `u_k ∈ target` and `u_i ∉ avoid` for every `i < k`. Target states are
/// always included (the empty path witnesses them), even when they are also
/// in `avoid`; a non-target state in `avoid` can never start a path, so it
/// is excluded unless it is itself a target.
///
/// Two graph facts the interval-iteration solvers ([`crate::solve`]) build
/// on:
///
/// * `can_reach(target, None)` is the set where `P(F target) > 0`; its
///   complement is the sound `hi = 0` seed of the upper value vector.
/// * `can_reach(S₀, Some(target))` — with `S₀` the complement above — is
///   the set where `P(F target) < 1`; *its* complement is the region where
///   reachability is almost sure, the "certain" region of reward
///   iteration. (The `avoid` mask makes target states absorbing for the
///   backward search, as the probabilistic semantics requires.)
pub fn can_reach(dtmc: &Dtmc, target: &BitVec, avoid: Option<&BitVec>) -> BitVec {
    let n = dtmc.n_states();
    let blocked = |s: usize| avoid.is_some_and(|a| a.get(s)) && !target.get(s);
    // An edge `s → c` can extend a path exactly when `s` is a legal
    // intermediate (not blocked, not already a target — target edges are
    // never followed); the filter is applied at traversal time so the
    // predecessor structure stays query-independent.
    let usable = |s: usize| !target.get(s) && !blocked(s);
    let preds: Vec<Vec<u32>> = match dtmc.matrix() {
        // Sparse chains share the matrix's transpose machinery (and its
        // cached transpose, when the parallel forward gather already paid
        // for one).
        TransitionMatrix::Sparse(m) => m.transpose_structure(),
        // Rank-one chains have identical rows: every state precedes each
        // support state.
        TransitionMatrix::RankOne(m) => {
            let mut preds: Vec<Vec<u32>> = vec![Vec::new(); n];
            for &(c, p) in m.dist() {
                if p > 0.0 {
                    preds[c as usize] = (0..n as u32).collect();
                }
            }
            preds
        }
    };
    let mut reach = BitVec::zeros(n);
    let mut queue: std::collections::VecDeque<u32> =
        (0..n as u32).filter(|&s| target.get(s as usize)).collect();
    for &s in &queue {
        reach.set(s as usize, true);
    }
    while let Some(u) = queue.pop_front() {
        for &s in &preds[u as usize] {
            if usable(s as usize) && !reach.get(s as usize) {
                reach.set(s as usize, true);
                queue.push_back(s);
            }
        }
    }
    reach
}

/// The condensation of a digraph: its strongly-connected components
/// together with the component-of map and the DAG structure the
/// topological solvers ([`crate::solve`]'s `topo_*` drivers, and
/// `smg-mdp`'s over the any-action graph) walk.
///
/// Components are numbered in reverse topological order (successors before
/// predecessors, Tarjan's pop order), so iterating them by ascending index
/// — or level by level via [`Condensation::comps_at_level`] — visits every
/// component only after all components it can reach. Level 0 holds the
/// sink components: on a chain (every state has a successor) these are
/// exactly the bottom SCCs ([`Condensation::bottom`]).
///
/// The layout is flat: one array of states ordered by component (members
/// sorted) with per-component offsets, and one array of component ids
/// ordered by level with per-level offsets — no allocation per component
/// or per level, so a session can keep one for the model's lifetime.
/// Built by an iterative Tarjan, stack-safe at millions of states.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// States grouped by component, each group sorted.
    states: Vec<u32>,
    /// `states[comp_ptr[ci]..comp_ptr[ci + 1]]` are component `ci`'s members.
    comp_ptr: Vec<u32>,
    comp_of: Vec<u32>,
    /// Per-component DAG level: 0 for sink components, else
    /// `1 + max(level of successor components)`.
    level: Vec<u32>,
    /// Component ids grouped by level, ascending within a level.
    by_level: Vec<u32>,
    /// `by_level[level_ptr[l]..level_ptr[l + 1]]` are the components at
    /// level `l`.
    level_ptr: Vec<u32>,
}

impl Condensation {
    /// Builds the condensation of a chain's digraph.
    pub fn new(dtmc: &Dtmc) -> Condensation {
        let matrix = dtmc.matrix();
        Condensation::from_successors(dtmc.n_states(), |s| matrix.row_iter(s).map(|(c, _)| c))
    }

    /// Builds the condensation of the digraph on `0..n` whose edges leave
    /// each vertex `s` toward the ids `succ(s)` yields. `succ` is called
    /// twice per vertex (once by Tarjan, once by the level pass), and each
    /// call's iterator is kept on the Tarjan frame stack, so the search
    /// never materializes a successor list. Self-loops and repeated edges
    /// are allowed.
    pub fn from_successors<I, F>(n: usize, succ: F) -> Condensation
    where
        F: Fn(usize) -> I,
        I: Iterator<Item = u32>,
    {
        const UNVISITED: u32 = u32::MAX;
        let mut index_of = vec![UNVISITED; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut frames: Vec<(usize, I)> = Vec::new();
        let mut next_index = 0u32;
        let mut states: Vec<u32> = Vec::with_capacity(n);
        let mut comp_ptr: Vec<u32> = vec![0];
        let mut comp_of = vec![0u32; n];

        for root in 0..n {
            if index_of[root] != UNVISITED {
                continue;
            }
            let mut descend = Some(root);
            loop {
                if let Some(v) = descend.take() {
                    index_of[v] = next_index;
                    lowlink[v] = next_index;
                    next_index += 1;
                    stack.push(v as u32);
                    on_stack[v] = true;
                    frames.push((v, succ(v)));
                }
                let Some((v, edges)) = frames.last_mut() else {
                    break;
                };
                let v = *v;
                if let Some(w) = edges.next() {
                    let w = w as usize;
                    if index_of[w] == UNVISITED {
                        descend = Some(w);
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(index_of[w]);
                    }
                    continue;
                }
                frames.pop();
                if lowlink[v] == index_of[v] {
                    let ci = (comp_ptr.len() - 1) as u32;
                    let begin = states.len();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp_of[w as usize] = ci;
                        states.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    states[begin..].sort_unstable();
                    comp_ptr.push(states.len() as u32);
                }
                if let Some(&(parent, _)) = frames.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
            }
        }
        drop((index_of, lowlink, on_stack, stack, frames));

        // Components arrive successors-first, so one forward pass settles
        // every level before it is read.
        let n_comps = comp_ptr.len() - 1;
        let mut level = vec![0u32; n_comps];
        for ci in 0..n_comps {
            let mut l = 0u32;
            for &s in &states[comp_ptr[ci] as usize..comp_ptr[ci + 1] as usize] {
                for c in succ(s as usize) {
                    let tc = comp_of[c as usize] as usize;
                    if tc != ci {
                        l = l.max(level[tc] + 1);
                    }
                }
            }
            level[ci] = l;
        }
        // Counting sort of the components by level (stable: ascending ids
        // within a level).
        let depth = level.iter().copied().max().map_or(0, |d| d as usize + 1);
        let mut level_ptr = vec![0u32; depth + 1];
        for &l in &level {
            level_ptr[l as usize + 1] += 1;
        }
        for l in 0..depth {
            level_ptr[l + 1] += level_ptr[l];
        }
        let mut fill = level_ptr.clone();
        let mut by_level = vec![0u32; n_comps];
        for (ci, &l) in level.iter().enumerate() {
            by_level[fill[l as usize] as usize] = ci as u32;
            fill[l as usize] += 1;
        }
        Condensation {
            states,
            comp_ptr,
            comp_of,
            level,
            by_level,
            level_ptr,
        }
    }

    /// The members of component `ci`, sorted.
    pub fn comp(&self, ci: usize) -> &[u32] {
        &self.states[self.comp_ptr[ci] as usize..self.comp_ptr[ci + 1] as usize]
    }

    /// The components in index order (reverse topological order), each a
    /// sorted member slice.
    pub fn components(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.n_components()).map(|ci| self.comp(ci))
    }

    /// The component index of each state.
    pub fn comp_of(&self) -> &[u32] {
        &self.comp_of
    }

    /// The number of components.
    pub fn n_components(&self) -> usize {
        self.comp_ptr.len() - 1
    }

    /// The size of the largest component.
    pub fn largest(&self) -> usize {
        self.comp_ptr
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The DAG level of component `ci`: 0 for sink components, else one
    /// more than the deepest successor component.
    pub fn level(&self, ci: usize) -> u32 {
        self.level[ci]
    }

    /// The depth of the component DAG: the number of levels (the length of
    /// the longest component chain). 0 only for the empty graph.
    pub fn dag_depth(&self) -> usize {
        self.level_ptr.len() - 1
    }

    /// The component indices at DAG level `l` (0 = sinks). Components at
    /// one level cannot reach each other; solving level by level (ascending
    /// `l`) sees every successor component already solved.
    pub fn comps_at_level(&self, l: usize) -> &[u32] {
        &self.by_level[self.level_ptr[l] as usize..self.level_ptr[l + 1] as usize]
    }

    /// The sink components (level 0): the bottom SCCs of a chain, the
    /// closed components of an MDP's any-action graph. Empty only for the
    /// empty graph.
    pub fn bottom(&self) -> &[u32] {
        if self.dag_depth() == 0 {
            &[]
        } else {
            self.comps_at_level(0)
        }
    }

    /// Whether some component of more than one state holds an `active`
    /// state — the only places a topological walk iterates (every other
    /// active state is closed by one backsubstitution).
    pub fn iterates_on(&self, active: &BitVec) -> bool {
        self.components()
            .any(|comp| comp.len() > 1 && comp.iter().any(|&s| active.get(s as usize)))
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::{CsrMatrix, TransitionMatrix};
    use std::collections::BTreeMap;

    fn dtmc_from_rows(rows: Vec<Vec<(u32, f64)>>) -> Dtmc {
        let m = TransitionMatrix::Sparse(CsrMatrix::from_rows(rows).unwrap());
        let n = m.n();
        Dtmc::new(m, vec![(0, 1.0)], BTreeMap::new(), vec![0.0; n]).unwrap()
    }

    #[test]
    fn single_scc_cycle() {
        let d = dtmc_from_rows(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(0, 1.0)]]);
        let comps = sccs(&d);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0], vec![0, 1, 2]);
        assert!(is_irreducible(&d));
        assert_eq!(period(&d), Some(3));
        assert!(!is_ergodic(&d));
    }

    #[test]
    fn cycle_with_self_loop_is_aperiodic() {
        let d = dtmc_from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(2, 1.0)],
            vec![(0, 1.0)],
        ]);
        assert!(is_irreducible(&d));
        assert_eq!(period(&d), Some(1));
        assert!(is_ergodic(&d));
    }

    #[test]
    fn chain_with_absorbing_state() {
        // 0 → 1 → 2 (absorbing).
        let d = dtmc_from_rows(vec![vec![(1, 1.0)], vec![(2, 1.0)], vec![(2, 1.0)]]);
        let comps = sccs(&d);
        assert_eq!(comps.len(), 3);
        assert!(!is_irreducible(&d));
        assert_eq!(period(&d), None);
        let b = bsccs(&d);
        assert_eq!(b, vec![vec![2]]);
    }

    #[test]
    fn two_bsccs() {
        // 0 branches to absorbing 1 and 2-cycle {2,3}.
        let d = dtmc_from_rows(vec![
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 1.0)],
            vec![(3, 1.0)],
            vec![(2, 1.0)],
        ]);
        let mut b = bsccs(&d);
        b.sort();
        assert_eq!(b, vec![vec![1], vec![2, 3]]);
    }

    #[test]
    fn even_cycle_period_two() {
        let d = dtmc_from_rows(vec![
            vec![(1, 0.5), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(3, 0.5), (1, 0.5)],
            vec![(0, 1.0)],
        ]);
        assert!(is_irreducible(&d));
        assert_eq!(period(&d), Some(2));
    }

    #[test]
    fn rank_one_is_single_scc_over_support_closure() {
        use crate::matrix::RankOneMatrix;
        let m = TransitionMatrix::RankOne(RankOneMatrix::new(3, vec![(1, 0.5), (2, 0.5)]).unwrap());
        let d = Dtmc::new(m, vec![(0, 1.0)], BTreeMap::new(), vec![0.0; 3]).unwrap();
        let mut comps = sccs(&d);
        comps.sort();
        // State 0 is transient (not in the support); {1,2} communicate.
        assert!(comps.contains(&vec![0]));
        assert!(comps.contains(&vec![1, 2]));
        let b = bsccs(&d);
        assert_eq!(b, vec![vec![1, 2]]);
        // Memoryless chains have self-loops inside the support → aperiodic.
        assert_eq!(period(&d), None); // not irreducible (state 0 transient)
    }

    #[test]
    fn can_reach_basic_and_avoid_semantics() {
        use crate::bitvec::BitVec;
        // 0 → 1 → 2(goal, absorbing); 3 → 3 (separate sink).
        let d = dtmc_from_rows(vec![
            vec![(1, 1.0)],
            vec![(2, 1.0)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
        ]);
        let goal = BitVec::from_fn(4, |i| i == 2);
        let r = can_reach(&d, &goal, None);
        assert!(r.get(0) && r.get(1) && r.get(2) && !r.get(3));
        // Avoiding state 1 cuts the only path; the goal itself stays in.
        let avoid = BitVec::from_fn(4, |i| i == 1);
        let r = can_reach(&d, &goal, Some(&avoid));
        assert!(!r.get(0) && !r.get(1) && r.get(2));
        // A target inside `avoid` is still reachable (the empty path) but
        // never extended through: 2 → itself only.
        let r = can_reach(&d, &goal, Some(&goal));
        assert!(r.get(0) && r.get(1) && r.get(2));
    }

    #[test]
    fn can_reach_certain_region_composition() {
        use crate::bitvec::BitVec;
        // 0 → {1: ½ (→goal), 3: ½ (→sink)}: P(F goal) ∈ (0, 1) at 0.
        let d = dtmc_from_rows(vec![
            vec![(1, 0.5), (3, 0.5)],
            vec![(2, 1.0)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
        ]);
        let goal = BitVec::from_fn(4, |i| i == 2);
        let s0 = can_reach(&d, &goal, None).not();
        assert_eq!(s0.iter_ones().collect::<Vec<_>>(), vec![3]);
        let certain = can_reach(&d, &s0, Some(&goal)).not();
        // Certain: 1 (goes straight to goal) and goal itself; 0 is not.
        assert!(!certain.get(0) && certain.get(1) && certain.get(2) && !certain.get(3));
    }

    #[test]
    fn condensation_levels_and_stats() {
        // 0 branches to absorbing 1 and 2-cycle {2,3}; 4 feeds 0.
        let d = dtmc_from_rows(vec![
            vec![(1, 0.5), (2, 0.5)],
            vec![(1, 1.0)],
            vec![(3, 1.0)],
            vec![(2, 1.0)],
            vec![(0, 1.0)],
        ]);
        let c = Condensation::new(&d);
        assert_eq!(c.n_components(), 4);
        assert_eq!(c.largest(), 2);
        assert_eq!(c.dag_depth(), 3); // {4} → {0} → sinks
                                      // Reverse topological order: every edge points to an
                                      // earlier-indexed component.
        for s in 0..d.n_states() {
            for (t, _) in d.matrix().row_iter(s) {
                let (cs, ct) = (c.comp_of()[s] as usize, c.comp_of()[t as usize] as usize);
                assert!(ct <= cs, "edge {s}→{t} breaks reverse topo order");
                if cs != ct {
                    assert!(c.level(cs) > c.level(ct));
                }
            }
        }
        // Sinks at level 0, and levels partition the components.
        for &ci in c.comps_at_level(0) {
            assert!(c.comp(ci as usize) == [1] || c.comp(ci as usize) == [2, 3]);
        }
        let total: usize = (0..c.dag_depth()).map(|l| c.comps_at_level(l).len()).sum();
        assert_eq!(total, c.n_components());
    }

    #[test]
    fn condensation_deep_chain_is_stack_safe() {
        // A 50k-deep pure chain: recursion-based Tarjan would overflow.
        let n = 50_000;
        let rows: Vec<Vec<(u32, f64)>> = (0..n)
            .map(|i| vec![((i + 1).min(n - 1) as u32, 1.0)])
            .collect();
        let d = dtmc_from_rows(rows);
        let c = Condensation::new(&d);
        assert_eq!(c.n_components(), n as usize);
        assert_eq!(c.dag_depth(), n as usize);
        assert_eq!(c.largest(), 1);
    }

    #[test]
    fn larger_random_structure_scc_count() {
        // A 6-state chain: {0,1} cycle feeding {2,3,4} cycle, 5 absorbing.
        let d = dtmc_from_rows(vec![
            vec![(1, 1.0)],
            vec![(0, 0.5), (2, 0.5)],
            vec![(3, 1.0)],
            vec![(4, 1.0)],
            vec![(2, 0.5), (5, 0.5)],
            vec![(5, 1.0)],
        ]);
        let comps = sccs(&d);
        assert_eq!(comps.len(), 3);
        let b = bsccs(&d);
        assert_eq!(b, vec![vec![5]]);
    }
}
