//! Pins the min/max value-iteration engine two independent ways:
//!
//! 1. **Against the theory** — on tiny random MDPs, `Pmin`/`Pmax`
//!    unbounded reachability must equal the min/max over *every*
//!    memoryless deterministic scheduler, computed by exhaustively
//!    enumerating the schedulers and solving each induced DTMC with the
//!    (independently tested) certified DTMC walk. Memoryless schedulers
//!    are optimal for unbounded reachability, so the enumeration is exact.
//! 2. **Against itself** — the parallel Bellman backup (dynamic chunks on
//!    the worker pool) must be **bit-identical** to the sequential
//!    fallback for every lane scope (1, 2 and 4 lanes, and none: the
//!    global pool) and chunk geometry.
//!
//! This file is its own process, so `SMG_THREADS` is pinned before the
//! engine's `OnceLock`s are read and the global pool really runs 4
//! workers; the CI matrix re-runs the whole suite under `SMG_THREADS=1`,
//! covering the degenerate inline path as well.

use proptest::prelude::*;
use smg_dtmc::graph::Condensation;
use smg_dtmc::{par, solve, BitVec, Dtmc, ExploreOptions};
use smg_mdp::{explore, vi, Mdp, MdpModel, Opt, ViOptions};

/// Sets `SMG_THREADS=4` exactly once, before any engine `OnceLock` is
/// read, so every test in this process sees the same 4-lane pool.
fn init_env() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("SMG_THREADS", "4"));
}

/// A deterministic pseudo-random MDP: `n` states, 1–3 actions each, 1–3
/// successors per action (duplicates and self-loops included), with the
/// last state absorbing and labelled "target".
#[derive(Debug, Clone)]
struct RandomMdp {
    n: u32,
    seed: u64,
}

impl RandomMdp {
    fn mix(&self, a: u64, b: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b << 24);
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }
}

impl MdpModel for RandomMdp {
    type State = u32;

    fn initial_states(&self) -> Vec<(u32, f64)> {
        vec![(0, 1.0)]
    }

    fn actions(&self, &s: &u32) -> Vec<Vec<(u32, f64)>> {
        if s == self.n - 1 {
            return vec![vec![(s, 1.0)]]; // absorbing target
        }
        let n_actions = 1 + (self.mix(s.into(), 0) % 3) as usize;
        (0..n_actions)
            .map(|a| {
                let fan = 1 + (self.mix(s.into(), 1 + a as u64) % 3) as usize;
                let mut succ = Vec::with_capacity(fan);
                let mut weights = Vec::with_capacity(fan);
                for k in 0..fan {
                    let t =
                        (self.mix(s.into(), (10 + a * 7 + k) as u64) % u64::from(self.n)) as u32;
                    succ.push(t);
                    weights.push(1 + self.mix(t.into(), k as u64) % 8);
                }
                let total: u64 = weights.iter().sum();
                succ.into_iter()
                    .zip(weights)
                    .map(|(t, w)| (t, w as f64 / total as f64))
                    .collect()
            })
            .collect()
    }

    fn atomic_propositions(&self) -> Vec<&'static str> {
        vec!["target"]
    }

    fn holds(&self, ap: &str, &s: &u32) -> bool {
        ap == "target" && s == self.n - 1
    }

    fn state_reward(&self, &s: &u32) -> f64 {
        f64::from(s % 4)
    }
}

fn explore_mdp(n: u32, seed: u64) -> Mdp {
    explore(&RandomMdp { n, seed }, &ExploreOptions::default())
        .expect("random MDP explores")
        .mdp
}

/// `P [F target]` from every state of a chain: the midpoints of the
/// certified DTMC walk's brackets, each within 5e-11 of the truth.
fn chain_reach(d: &Dtmc, target: &BitVec) -> Vec<f64> {
    solve::topo_interval_reach_values(d, &Condensation::new(d), target, 1e-10, 10_000_000)
        .unwrap()
        .midpoints()
}

/// Enumerates every memoryless deterministic scheduler (odometer over the
/// per-state action counts) and returns the per-state min and max of the
/// induced DTMCs' reachability values.
fn enumerate_schedulers(mdp: &Mdp, target: &BitVec) -> (Vec<f64>, Vec<f64>) {
    let n = mdp.n_states();
    let mut sched = vec![0u32; n];
    let mut min = vec![f64::INFINITY; n];
    let mut max = vec![f64::NEG_INFINITY; n];
    loop {
        let d = mdp.induced_dtmc(&sched).expect("valid scheduler");
        let vals = chain_reach(&d, target);
        for i in 0..n {
            min[i] = min[i].min(vals[i]);
            max[i] = max[i].max(vals[i]);
        }
        // Odometer.
        let mut k = n;
        loop {
            if k == 0 {
                return (min, max);
            }
            k -= 1;
            sched[k] += 1;
            if (sched[k] as usize) < mdp.action_count(k) {
                break;
            }
            sched[k] = 0;
        }
    }
}

/// The per-state min and max *expected reachability reward* over every
/// memoryless deterministic scheduler, each induced chain solved by the
/// DTMC engine's own certified interval solver (pinned independently
/// against dense linear-system elimination in `smg-dtmc`'s test suite).
/// Improper schedulers contribute `∞`, matching PRISM's reward semantics.
fn enumerate_scheduler_rewards(mdp: &Mdp, target: &BitVec) -> (Vec<f64>, Vec<f64>) {
    let n = mdp.n_states();
    let mut sched = vec![0u32; n];
    let mut min = vec![f64::INFINITY; n];
    let mut max = vec![f64::NEG_INFINITY; n];
    loop {
        let d = mdp.induced_dtmc(&sched).expect("valid scheduler");
        // ε leaves headroom above the f64 rounding floor: expected rewards
        // on these chains can reach ~1e5, where a 1e-11 width is not
        // representably closable.
        let cond = Condensation::new(&d);
        let vals = solve::topo_interval_reach_reward_values(&d, &cond, target, 1e-9, 10_000_000)
            .unwrap()
            .midpoints();
        for i in 0..n {
            min[i] = min[i].min(vals[i]);
            max[i] = max[i].max(vals[i]);
        }
        let mut k = n;
        loop {
            if k == 0 {
                return (min, max);
            }
            k -= 1;
            sched[k] += 1;
            if (sched[k] as usize) < mdp.action_count(k) {
                break;
            }
            sched[k] = 0;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Pmin/Pmax unbounded reachability by value iteration (the default
    /// condensation walk) equals the exhaustive memoryless-scheduler
    /// envelope (memoryless schedulers are optimal for unbounded
    /// reachability), and the schedulers extracted from its values attain
    /// it.
    #[test]
    fn value_iteration_matches_scheduler_enumeration(
        n in 2u32..6,
        seed in 0u64..u64::MAX,
    ) {
        init_env();
        let mdp = explore_mdp(n, seed);
        let target = mdp.label("target").unwrap().clone();
        let vio = ViOptions::default();
        let cond = smg_mdp::qual::condensation(&mdp);
        let vmin = vi::topo_reach_values(&mdp, &cond, &target, Opt::Min, &vio).unwrap();
        let vmax = vi::topo_reach_values(&mdp, &cond, &target, Opt::Max, &vio).unwrap();
        let (emin, emax) = enumerate_schedulers(&mdp, &target);
        for s in 0..mdp.n_states() {
            prop_assert!(
                (vmin[s] - emin[s]).abs() < 1e-6,
                "state {s}: Pmin VI {} vs enumeration {} (n={n}, seed={seed:#x})",
                vmin[s], emin[s]
            );
            prop_assert!(
                (vmax[s] - emax[s]).abs() < 1e-6,
                "state {s}: Pmax VI {} vs enumeration {} (n={n}, seed={seed:#x})",
                vmax[s], emax[s]
            );
        }
        // The extracted extremal schedulers attain the optima.
        for (opt, expect) in [(Opt::Min, &vmin), (Opt::Max, &vmax)] {
            let sched = vi::extremal_scheduler(&mdp, expect, opt, Some(&target));
            let vals = chain_reach(&mdp.induced_dtmc(&sched).unwrap(), &target);
            for s in 0..mdp.n_states() {
                prop_assert!(
                    (vals[s] - expect[s]).abs() < 1e-6,
                    "state {s}: induced {} vs optimal {} ({opt:?})",
                    vals[s], expect[s]
                );
            }
        }
    }

    /// The certified (topological) intervals bracket the exhaustive
    /// memoryless-scheduler envelope with width below ε, for all four
    /// `Pmin`/`Pmax`/`Rmin`/`Rmax` forms — including exact agreement of the
    /// qualitative `∞` region with the enumeration's improper-scheduler
    /// analysis.
    #[test]
    fn certified_intervals_bracket_scheduler_enumeration(
        n in 2u32..6,
        seed in 0u64..u64::MAX,
    ) {
        init_env();
        let mdp = explore_mdp(n, seed);
        let target = mdp.label("target").unwrap().clone();
        let vio = ViOptions::default();
        let eps = 1e-7;
        let cond = smg_mdp::qual::condensation(&mdp);
        let (emin, emax) = enumerate_schedulers(&mdp, &target);
        for (opt, envelope) in [(Opt::Min, &emin), (Opt::Max, &emax)] {
            let cert = vi::topo_certified_reach_values(&mdp, &cond, &target, opt, eps, &vio).unwrap();
            prop_assert!(cert.width() < eps, "{opt:?} width {}", cert.width());
            for (s, &env) in envelope.iter().enumerate() {
                prop_assert!(
                    cert.lo[s] - 1e-9 <= env && env <= cert.hi[s] + 1e-9,
                    "state {s}: P{opt} {} outside [{}, {}] (n={n}, seed={seed:#x})",
                    env, cert.lo[s], cert.hi[s]
                );
            }
        }
        let (rmin, rmax) = enumerate_scheduler_rewards(&mdp, &target);
        for (opt, envelope) in [(Opt::Min, &rmin), (Opt::Max, &rmax)] {
            let cert =
                vi::topo_certified_reach_reward_values(&mdp, &cond, &target, opt, eps, &vio).unwrap();
            prop_assert!(cert.width() < eps, "{opt:?} width {}", cert.width());
            for (s, &env) in envelope.iter().enumerate() {
                if env.is_infinite() {
                    prop_assert_eq!(cert.lo[s], f64::INFINITY, "state {} (R{:?})", s, opt);
                } else {
                    let slack = 1e-6 * (1.0 + env.abs());
                    prop_assert!(
                        cert.lo[s] - slack <= env && env <= cert.hi[s] + slack,
                        "state {s}: R{opt} {} outside [{}, {}] (n={n}, seed={seed:#x})",
                        env, cert.lo[s], cert.hi[s]
                    );
                }
            }
        }
    }

    /// The checker's default unbounded solvers — topological value
    /// iteration of the lower value, `Pmin`/`Pmax` and `Rmin`/`Rmax` —
    /// equal the exhaustive memoryless-scheduler envelope, including the
    /// exact `∞` region of the reward forms.
    #[test]
    fn topological_default_matches_scheduler_enumeration(
        n in 2u32..6,
        seed in 0u64..u64::MAX,
    ) {
        init_env();
        let mdp = explore_mdp(n, seed);
        let target = mdp.label("target").unwrap().clone();
        let vio = ViOptions::default();
        let cond = smg_mdp::qual::condensation(&mdp);
        let (emin, emax) = enumerate_schedulers(&mdp, &target);
        for (opt, envelope) in [(Opt::Min, &emin), (Opt::Max, &emax)] {
            let vals = vi::topo_reach_values(&mdp, &cond, &target, opt, &vio).unwrap();
            for (s, &env) in envelope.iter().enumerate() {
                prop_assert!(
                    (vals[s] - env).abs() < 1e-6,
                    "state {s}: P{opt} topo {} vs enumeration {env} (n={n}, seed={seed:#x})",
                    vals[s]
                );
            }
        }
        let (rmin, rmax) = enumerate_scheduler_rewards(&mdp, &target);
        for (opt, envelope) in [(Opt::Min, &rmin), (Opt::Max, &rmax)] {
            let vals = vi::topo_reach_reward_values(&mdp, &cond, &target, opt, &vio).unwrap();
            for (s, &env) in envelope.iter().enumerate() {
                if env.is_infinite() {
                    prop_assert_eq!(vals[s], f64::INFINITY, "state {} (R{:?})", s, opt);
                } else {
                    let slack = 1e-6 * (1.0 + env.abs());
                    prop_assert!(
                        (vals[s] - env).abs() <= slack,
                        "state {s}: R{opt} topo {} vs enumeration {env} (n={n}, seed={seed:#x})",
                        vals[s]
                    );
                }
            }
        }
    }

    /// The parallel Bellman backup is bit-identical to the sequential
    /// fallback — in 1/2/4-lane scopes, unscoped on the (4-lane) global
    /// pool, and over randomized chunk geometry, for bounded and unbounded
    /// queries in both directions.
    #[test]
    fn parallel_vi_bit_identical_across_lane_counts(
        n in 2u32..60,
        seed in 0u64..u64::MAX,
        chunk in 1usize..9,
        horizon in 0usize..12,
    ) {
        init_env();
        let mdp = explore_mdp(n, seed);
        let target = mdp.label("target").unwrap().clone();
        let lhs = BitVec::from_fn(mdp.n_states(), |i| i % 3 != 1);
        let cond = smg_mdp::qual::condensation(&mdp);
        let run = |opt, vio: &ViOptions| {
            (
                vi::topo_reach_values(&mdp, &cond, &target, opt, vio).unwrap(),
                vi::bounded_until_values(&mdp, &lhs, &target, horizon, opt, vio).unwrap(),
                vi::cumulative_reward_values(&mdp, horizon, opt, vio),
            )
        };
        let seq = ViOptions::default().with_par_min_states(usize::MAX);
        let par = ViOptions {
            chunk,
            ..ViOptions::default().with_par_min_states(0)
        };
        for opt in [Opt::Min, Opt::Max] {
            let want = run(opt, &seq);
            // No scope: the process-global pool (4 lanes here; 1 in the
            // SMG_THREADS=1 CI leg).
            prop_assert_eq!(&run(opt, &par), &want, "global pool ({:?})", opt);
            for lanes in [1usize, 2, 4] {
                let got = par::with_lane_scope(lanes, || run(opt, &par));
                prop_assert_eq!(&got, &want, "{} lanes ({:?})", lanes, opt);
            }
        }
    }
}

/// Bounded optimal values must bracket every memoryless scheduler's
/// bounded value (time-dependent schedulers can do better, so this is an
/// inequality, not an equality — the equality case is the unbounded test).
#[test]
fn bounded_values_bracket_memoryless_schedulers() {
    init_env();
    let mdp = explore_mdp(5, 0xABCDEF);
    let target = mdp.label("target").unwrap().clone();
    let all = BitVec::ones(mdp.n_states());
    let vio = ViOptions::default();
    for t in [0usize, 1, 3, 7] {
        let vmin = vi::bounded_until_values(&mdp, &all, &target, t, Opt::Min, &vio).unwrap();
        let vmax = vi::bounded_until_values(&mdp, &all, &target, t, Opt::Max, &vio).unwrap();
        let mut sched = vec![0u32; mdp.n_states()];
        'schedulers: loop {
            let d = mdp.induced_dtmc(&sched).unwrap();
            let vals = smg_dtmc::transient::bounded_until_values(&d, &all, &target, t).unwrap();
            for s in 0..mdp.n_states() {
                assert!(
                    vals[s] >= vmin[s] - 1e-9 && vals[s] <= vmax[s] + 1e-9,
                    "t={t} state {s}: {} outside [{}, {}]",
                    vals[s],
                    vmin[s],
                    vmax[s]
                );
            }
            let mut k = mdp.n_states();
            loop {
                if k == 0 {
                    break 'schedulers;
                }
                k -= 1;
                sched[k] += 1;
                if (sched[k] as usize) < mdp.action_count(k) {
                    break;
                }
                sched[k] = 0;
            }
        }
    }
}
