//! Pins the breadth-first explorer to a textbook BFS written here: a std
//! `HashMap`, a FIFO scan that numbers states in first-discovery order, and
//! rows sorted by id with duplicate successors summed in generation order.
//! The explorer must reproduce the states vector, every row bit for bit,
//! the initial distribution, labels, rewards, the interning index and the
//! RI statistic, and must stop with `StateLimitExceeded` at a cap that
//! falls inside a BFS level.
//!
//! The randomized models draw their transition structure (branching,
//! back-edges, self-loops, multi-parent rediscovery, duplicate successors,
//! a two-state initial distribution) from proptest.

use proptest::prelude::*;
use smg_dtmc::{explore, DtmcError, DtmcModel, ExploreOptions, Explored};
use std::collections::HashMap;
use std::hash::Hash;

/// A deterministic pseudo-random model: `n` states, each with a derived
/// branching structure over the whole id space (plus guaranteed forward
/// edges so most of the space is reachable), including duplicate
/// successors, self-loops, and heavy multi-parent rediscovery.
#[derive(Debug, Clone)]
struct Scramble {
    n: u32,
    seed: u64,
}

impl Scramble {
    fn mix(&self, s: u32, k: u32) -> u64 {
        let mut x = self
            .seed
            .wrapping_add(u64::from(s).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(u64::from(k) << 32);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl DtmcModel for Scramble {
    type State = (u32, u32);

    fn initial_states(&self) -> Vec<((u32, u32), f64)> {
        // A two-state initial distribution exercises multi-state level 0.
        if self.n > 1 {
            vec![((0, 0), 0.5), ((1, 1), 0.5)]
        } else {
            vec![((0, 0), 1.0)]
        }
    }

    fn transitions(&self, &(s, tag): &(u32, u32)) -> Vec<((u32, u32), f64)> {
        let fan = 1 + (self.mix(s, tag) % 4) as u32;
        let mut succ = Vec::with_capacity(fan as usize + 1);
        let mut weights = Vec::with_capacity(fan as usize + 1);
        for k in 0..fan {
            let t = (self.mix(s, tag.wrapping_add(k + 1)) % u64::from(self.n)) as u32;
            succ.push((t, t % 3)); // few tags → heavy rediscovery
            weights.push(1 + self.mix(t, k) % 8);
        }
        // Forward edge keeps the space connected (and the BFS deep).
        let fwd = (s + 1) % self.n;
        succ.push((fwd, fwd % 3));
        weights.push(1 + self.mix(fwd, 7) % 8);
        let total: u64 = weights.iter().sum();
        succ.into_iter()
            .zip(weights)
            .map(|(st, w)| (st, w as f64 / total as f64))
            .collect()
    }

    fn atomic_propositions(&self) -> Vec<&'static str> {
        vec!["odd"]
    }

    fn holds(&self, ap: &str, &(s, _): &(u32, u32)) -> bool {
        ap == "odd" && s % 2 == 1
    }
}

/// One initial state fanning out to `width` states, which rediscover a
/// few thousand shared successors in a scrambled order, which all lead
/// back to the start: one BFS level of `width` states.
struct Fan {
    width: u32,
}

impl DtmcModel for Fan {
    type State = u32;

    fn initial_states(&self) -> Vec<(u32, f64)> {
        vec![(0, 1.0)]
    }

    fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
        let w = self.width;
        if s == 0 {
            let p = 1.0 / f64::from(w);
            (1..=w).map(|i| (i, p)).collect()
        } else if s <= w {
            vec![
                (w + 1 + s.wrapping_mul(7_919) % 3_000, 0.5),
                (w + 1 + s % 1_000, 0.5),
            ]
        } else {
            vec![(0, 1.0)]
        }
    }
}

/// What a textbook BFS derives from a model.
struct Reference<S> {
    /// States in first-discovery order: `states[id]`.
    states: Vec<S>,
    /// BFS depth of each state.
    depth: Vec<usize>,
    /// Each state's row, sorted by id, duplicates summed in generation
    /// order.
    rows: Vec<Vec<(u32, f64)>>,
    /// The initial distribution over ids.
    initial: Vec<(u32, f64)>,
}

/// Numbers `s` on first discovery (at `depth`) and returns its id.
fn discover<S: Clone + Eq + Hash>(
    r: &mut Reference<S>,
    ids: &mut HashMap<S, u32>,
    s: S,
    depth: usize,
) -> u32 {
    if let Some(&id) = ids.get(&s) {
        return id;
    }
    let id = r.states.len() as u32;
    ids.insert(s.clone(), id);
    r.states.push(s);
    r.depth.push(depth);
    id
}

/// Breadth-first search with a FIFO queue: the queue is the states vector
/// itself, scanned in id order.
fn textbook_bfs<M: DtmcModel>(model: &M) -> Reference<M::State>
where
    M::State: Clone + Eq + Hash,
{
    let mut r = Reference {
        states: Vec::new(),
        depth: Vec::new(),
        rows: Vec::new(),
        initial: Vec::new(),
    };
    let mut ids = HashMap::new();
    for (s, p) in model.initial_states() {
        let id = discover(&mut r, &mut ids, s, 0);
        r.initial.push((id, p));
    }
    let mut head = 0;
    while head < r.states.len() {
        let s = r.states[head].clone();
        let d = r.depth[head];
        let mut row: Vec<(u32, f64)> = Vec::new();
        for (t, p) in model.transitions(&s) {
            let id = discover(&mut r, &mut ids, t, d + 1);
            match row.iter_mut().find(|(c, _)| *c == id) {
                Some(entry) => entry.1 += p,
                None => row.push((id, p)),
            }
        }
        row.sort_by_key(|&(c, _)| c);
        r.rows.push(row);
        head += 1;
    }
    r
}

/// The number of BFS levels, the paper's RI statistic.
fn levels<S>(r: &Reference<S>) -> usize {
    r.depth.iter().max().map_or(0, |d| d + 1)
}

fn bits(row: &[(u32, f64)]) -> Vec<(u32, u64)> {
    row.iter().map(|&(c, p)| (c, p.to_bits())).collect()
}

fn assert_matches_reference<M: DtmcModel>(model: &M, e: &Explored<M::State>, what: &str)
where
    M::State: Clone + Eq + Hash + std::fmt::Debug,
{
    let r = textbook_bfs(model);
    assert_eq!(e.states, r.states, "{what}: states vector");
    assert_eq!(e.stats.states, r.states.len(), "{what}: state count");
    assert_eq!(e.stats.reachability_iterations, levels(&r), "{what}: RI");
    let m = e.dtmc.matrix();
    for (id, row) in r.rows.iter().enumerate() {
        assert_eq!(bits(&m.successors(id)), bits(row), "{what}: row {id}");
    }
    let nnz: usize = r.rows.iter().map(Vec::len).sum();
    assert_eq!(e.stats.transitions, nnz, "{what}: transitions");
    assert_eq!(bits(e.dtmc.initial()), bits(&r.initial), "{what}: initial");
    assert_eq!(e.index.len(), r.states.len(), "{what}: index size");
    for (id, s) in r.states.iter().enumerate() {
        assert_eq!(e.id_of(s), Some(id as u32), "{what}: id of {s:?}");
    }
    for ap in model.atomic_propositions() {
        let label = e.dtmc.label(ap).unwrap();
        for (id, s) in r.states.iter().enumerate() {
            assert_eq!(label.get(id), model.holds(ap, s), "{what}: {ap} at {id}");
        }
    }
    let rewards: Vec<f64> = r.states.iter().map(|s| model.state_reward(s)).collect();
    assert_eq!(e.dtmc.rewards(), &rewards[..], "{what}: rewards");
}

/// Asserts that exploring under a cap of `cap` states, which falls inside
/// a BFS level of the reference, stops with `StateLimitExceeded`.
fn assert_cap_inside_a_level_stops<M>(model: &M, cap: usize, what: &str)
where
    M: DtmcModel + Sync,
    M::State: Clone + Eq + Hash + std::fmt::Debug + Sync,
{
    let r = textbook_bfs(model);
    assert!(cap > 0 && cap < r.states.len(), "{what}: cap {cap}");
    assert_eq!(
        r.depth[cap - 1],
        r.depth[cap],
        "{what}: cap {cap} must fall inside a level"
    );
    let limited = explore(model, &ExploreOptions::default().with_max_states(cap));
    assert!(
        matches!(limited, Err(DtmcError::StateLimitExceeded { limit }) if limit == cap),
        "{what}: {:?}",
        limited.map(|e| e.stats)
    );
    // A cap of exactly the reachable count is not exceeded.
    let exact = ExploreOptions::default().with_max_states(r.states.len());
    assert!(explore(model, &exact).is_ok(), "{what}: exact cap");
}

#[test]
fn thousands_of_states_match_textbook_bfs() {
    let model = Scramble {
        n: 4000,
        seed: 0xC0FFEE,
    };
    let e = explore(&model, &ExploreOptions::default()).unwrap();
    assert!(e.dtmc.n_states() > 1000, "model must be non-trivial");
    assert_matches_reference(&model, &e, "n=4000");
}

#[test]
fn a_wide_fan_level_matches_textbook_bfs() {
    let model = Fan { width: 17_618 };
    let e = explore(&model, &ExploreOptions::default()).unwrap();
    assert_eq!(e.stats.reachability_iterations, 3);
    assert_matches_reference(&model, &e, "fan");
    // The cap falls among the fan's first level.
    assert_cap_inside_a_level_stops(&model, 9_000, "fan");
}

#[test]
fn state_limit_inside_a_level_matches_textbook_bfs() {
    let model = Scramble {
        n: 5000,
        seed: 0xBADC0DE,
    };
    let r = textbook_bfs(&model);
    // The first cap past 700 that splits a level.
    let cap = (700..r.states.len())
        .find(|&c| r.depth[c - 1] == r.depth[c])
        .expect("some level holds two states");
    assert_cap_inside_a_level_stops(&model, cap, "n=5000");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized models against the textbook BFS, and a cap drawn inside
    /// one of their levels.
    #[test]
    fn randomized_models_match_textbook_bfs(
        n in 3u32..400,
        seed in 0u64..u64::MAX,
        pick in 0usize..usize::MAX,
    ) {
        let model = Scramble { n, seed };
        let e = explore(&model, &ExploreOptions::default()).unwrap();
        let what = format!("n={n} seed={seed:#x}");
        assert_matches_reference(&model, &e, &what);
        let r = textbook_bfs(&model);
        let inside: Vec<usize> = (1..r.states.len())
            .filter(|&c| r.depth[c - 1] == r.depth[c])
            .collect();
        if !inside.is_empty() {
            assert_cap_inside_a_level_stops(&model, inside[pick % inside.len()], &what);
        }
    }
}
