//! Pins the sharded parallel explorer to sequential BFS: state ids, the
//! states vector, the CSR matrix, the interning index, and the RI statistic
//! must be **bit-identical** for every shard/thread count — below, at, and
//! far above the machine's core count.
//!
//! This file is its own process (integration test), so `SMG_THREADS` is set
//! before the engine's `OnceLock`s are first read and the global pool
//! really spawns oversubscribed workers; everything is kept in one `#[test]`
//! per concern to avoid init races between tests. The randomized sweep uses
//! models whose transition structure (branching, back-edges, multi-parent
//! rediscovery, duplicate successors) is drawn by proptest, with the
//! parallel level threshold forced to 1 so even tiny levels go through the
//! four-phase pipeline.

use proptest::prelude::*;
use smg_dtmc::{explore, DtmcModel, ExploreOptions, Explored};

/// Sets `SMG_THREADS=4` exactly once, before any engine `OnceLock` is
/// read. Every test (and every proptest case) calls this first, so the
/// pool size is deterministic regardless of which test thread wins the
/// race to initialize the engine.
fn init_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("SMG_THREADS", "4"));
}

/// A deterministic pseudo-random model: `n` states, each with a derived
/// branching structure over the whole id space (plus guaranteed forward
/// edges so most of the space is reachable), including duplicate
/// successors, self-loops, and heavy multi-parent rediscovery — the shapes
/// the sharded interning phases have to get right.
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

fn assert_bit_identical<S: std::fmt::Debug + Clone + Eq + std::hash::Hash>(
    seq: &Explored<S>,
    par: &Explored<S>,
    what: &str,
) {
    assert_eq!(par.states, seq.states, "{what}: states vector");
    assert_eq!(par.dtmc.matrix(), seq.dtmc.matrix(), "{what}: matrix");
    assert_eq!(
        par.stats.reachability_iterations, seq.stats.reachability_iterations,
        "{what}: RI"
    );
    assert_eq!(par.stats.states, seq.stats.states, "{what}: state count");
    assert_eq!(
        par.stats.transitions, seq.stats.transitions,
        "{what}: transitions"
    );
    assert_eq!(par.index.len(), seq.index.len(), "{what}: index size");
    for (s, id) in &par.index {
        assert_eq!(seq.index[s], id, "{what}: id of {s:?}");
    }
    assert_eq!(
        par.dtmc.label("odd").ok(),
        seq.dtmc.label("odd").ok(),
        "{what}: odd label"
    );
    assert_eq!(par.dtmc.rewards(), seq.dtmc.rewards(), "{what}: rewards");
    assert_eq!(par.dtmc.initial(), seq.dtmc.initial(), "{what}: initial");
}

#[test]
fn sharded_explore_is_bit_identical_across_thread_counts() {
    // The global pool spawns 4 real workers even on a single-core machine,
    // so the cross-thread phases genuinely run threaded here. Without the
    // `parallel` feature the pool stays single-lane and the sharded
    // pipeline runs inline — the identities below must hold either way.
    init_env();
    if cfg!(feature = "parallel") {
        assert_eq!(smg_dtmc::pool::global().lanes(), 4);
    } else {
        assert_eq!(smg_dtmc::pool::global().lanes(), 1);
    }

    // Fixed-seed smoke sweep at a size with thousands of states.
    let model = Scramble {
        n: 4000,
        seed: 0xC0FFEE,
    };
    let seq = explore(&model, &ExploreOptions::default().with_threads(1)).unwrap();
    assert!(seq.dtmc.n_states() > 1000, "model must be non-trivial");
    // Below, at, and far above both the core count and the pool size —
    // the last entries oversubscribe every machine this can run on.
    for threads in [2usize, 3, 4, 5, 8, 13, 32] {
        let par = explore(
            &model,
            &ExploreOptions::default()
                .with_threads(threads)
                .with_par_min_level(1),
        )
        .unwrap_or_else(|e| panic!("threads={threads}: {e:?}"));
        assert_bit_identical(&seq, &par, &format!("threads={threads}"));
    }
    // Default threshold: small levels sequential, large ones parallel —
    // the mixed-mode run must still be identical.
    let mixed = explore(
        &model,
        &ExploreOptions::default()
            .with_threads(4)
            .with_par_min_level(64),
    )
    .unwrap();
    assert_bit_identical(&seq, &mixed, "mixed thresholds");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Randomized models × randomized shard counts (including
    /// oversubscribed ones) against sequential BFS.
    #[test]
    fn randomized_models_explore_identically(
        n in 3u32..400,
        seed in 0u64..u64::MAX,
        threads in 2usize..12,
        min_level in 1usize..8,
    ) {
        init_env();
        let model = Scramble { n, seed };
        let seq = explore(&model, &ExploreOptions::default().with_threads(1)).unwrap();
        let par = explore(
            &model,
            &ExploreOptions::default()
                .with_threads(threads)
                .with_par_min_level(min_level),
        )
        .unwrap();
        assert_bit_identical(&seq, &par, &format!("n={n} seed={seed:#x} threads={threads}"));
    }
}

/// One initial state fanning out to `width` states, which rediscover a
/// few thousand shared successors in a scrambled order that crosses slice
/// boundaries, which all lead back to the start.
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

/// A level wider than one pipeline slice runs as consecutive slices, and
/// the ids, rows and statistics still match sequential BFS — forced onto
/// the pipeline by `par_min_level` and by a lane scope's static rule
/// alike.
#[test]
fn levels_wider_than_one_slice_explore_identically() {
    init_env();
    let model = Fan {
        width: 2 * smg_dtmc::explore::PAR_SLICE as u32 + 1_234,
    };
    let seq = explore(&model, &ExploreOptions::default().with_threads(1)).unwrap();
    assert_eq!(seq.stats.reachability_iterations, 3);
    for threads in [2usize, 4, 5] {
        let par = explore(
            &model,
            &ExploreOptions::default()
                .with_threads(threads)
                .with_par_min_level(1),
        )
        .unwrap();
        assert_bit_identical(&seq, &par, &format!("wide, threads={threads}"));
    }
    let scoped = smg_dtmc::par::with_lane_scope(4, || {
        explore(&model, &ExploreOptions::default().with_threads(4)).unwrap()
    });
    assert_bit_identical(&seq, &scoped, "wide, lane scope");
    let unpinned = explore(&model, &ExploreOptions::default()).unwrap();
    assert_bit_identical(&seq, &unpinned, "wide, unpinned");
}

/// The state limit must abort with the same error through the parallel
/// phases (ids are assigned in discovery order, so the limit hits at the
/// same state either way).
#[test]
fn parallel_state_limit_matches_sequential() {
    init_env();
    let model = Scramble {
        n: 5000,
        seed: 0xBADC0DE,
    };
    let seq = explore(
        &model,
        &ExploreOptions::default()
            .with_threads(1)
            .with_max_states(700),
    );
    let par = explore(
        &model,
        &ExploreOptions::default()
            .with_threads(4)
            .with_par_min_level(1)
            .with_max_states(700),
    );
    assert!(
        matches!(
            seq,
            Err(smg_dtmc::DtmcError::StateLimitExceeded { limit: 700 })
        ),
        "{seq:?}"
    );
    assert!(
        matches!(
            par,
            Err(smg_dtmc::DtmcError::StateLimitExceeded { limit: 700 })
        ),
        "{par:?}"
    );
}
