//! The real consumers the harness sweeps, each reduced to a digest.
//!
//! A driver runs one of the engine's parallel workloads — parallel value
//! iteration, certified reward brackets, per-SCC topological batching —
//! and folds every numeric result into a 64-bit FNV digest, **bit by bit**
//! (`f64::to_bits`, not an epsilon comparison). All three production
//! drivers are *bit-identical by construction*: the engine pins their parallel paths to the sequential
//! results exactly, whatever the schedule, so under the chaos
//! interleaver any digest drift is a real ordering bug.
//!
//! [`DriverKind::Buggy`] is the mutation check: a deliberately
//! order-dependent prefix-sum that a correct harness *must* flag under
//! adversarial schedules — it validates the harness, not the engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::harness::CaseParams;
use smg_dtmc::solve;
use smg_dtmc::synthetic::layered_chain;
use smg_dtmc::{par, pool, BitVec};
use smg_mdp::{vi, Mdp, MdpBuilder, Opt, ViOptions};

/// The workloads the harness can drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverKind {
    /// Parallel min/max value iteration on a seeded MDP: bounded backups
    /// past its depth, and the default and certified condensation walks.
    Vi,
    /// Certified reward brackets on the condensation walk: a wide layered
    /// chain, and `Rmin` with zero-reward end-component inflation on a
    /// layered MDP.
    Certified,
    /// Per-SCC topological batching, DTMC and MDP sides.
    Topo,
    /// The intentionally order-dependent mutation check.
    Buggy,
    /// The second mutation check, sensitive to *deferred shares* rather
    /// than raw execution order: a consumer assumes lane `l`'s share
    /// starts before lane `l+1`'s share completes — true under both the
    /// index-order and the benign share-order schedules, broken exactly
    /// when a torn latch parks a whole share past the settle point.
    Stale,
}

impl DriverKind {
    /// The production drivers a sweep covers by default (excludes the
    /// mutation check).
    pub const ALL: [DriverKind; 3] = [DriverKind::Vi, DriverKind::Certified, DriverKind::Topo];

    /// The driver's CLI name.
    pub fn name(&self) -> &'static str {
        match self {
            DriverKind::Vi => "vi",
            DriverKind::Certified => "certified",
            DriverKind::Topo => "topo",
            DriverKind::Buggy => "buggy",
            DriverKind::Stale => "stale",
        }
    }

    /// Parses a CLI name.
    pub fn from_name(name: &str) -> Option<DriverKind> {
        match name {
            "vi" => Some(DriverKind::Vi),
            "certified" => Some(DriverKind::Certified),
            "topo" => Some(DriverKind::Topo),
            "buggy" => Some(DriverKind::Buggy),
            "stale" => Some(DriverKind::Stale),
            _ => None,
        }
    }
}

/// Runs `kind`'s workload and digests the result. With `parallel` false
/// this is the ground-truth run: single lane, sequential kernels, no
/// interleaver consulted. With `parallel` true the workload is pushed
/// through the pool's parallel paths — the caller is expected to have a
/// sim interleaver installed, which is what makes the run adversarial.
pub fn digest(kind: DriverKind, case: &CaseParams, parallel: bool) -> u64 {
    match kind {
        DriverKind::Vi => digest_vi(case, parallel),
        DriverKind::Certified => digest_certified(case, parallel),
        DriverKind::Topo => digest_topo(case, parallel),
        DriverKind::Buggy => digest_buggy(case, parallel),
        DriverKind::Stale => digest_stale(case, parallel),
    }
}

// --- digest folding ------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(FNV_OFFSET)
    }
    fn mix(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
    fn mix_f64s(&mut self, vals: &[f64]) {
        for v in vals {
            self.mix(v.to_bits());
        }
    }
    fn mix_cert(&mut self, c: &solve::CertifiedValues) {
        self.mix_f64s(&c.lo);
        self.mix_f64s(&c.hi);
    }
    fn finish(self) -> u64 {
        self.0
    }
}

// --- seeded workload shapes ----------------------------------------------

/// splitmix-style stateless hash for deriving model structure.
fn mash(parts: &[u64]) -> u64 {
    let mut h = 0x51_7c_c1_b7_27_22_0a_95u64;
    for &p in parts {
        h ^= p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = h.rotate_left(29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    h ^ (h >> 31)
}

/// A seeded forward-chained MDP: every action moves strictly toward two
/// absorbing states (`goal`, sink), so certified iteration converges in
/// at most `n` sweeps whatever the schedule.
fn seeded_mdp(seed: u64) -> Mdp {
    let n: u32 = 40;
    let goal = n;
    let sink = n + 1;
    let mut b = MdpBuilder::default();
    for s in 0..n {
        let actions = 1 + mash(&[seed, u64::from(s)]) % 3;
        for a in 0..actions {
            let ha = mash(&[seed, u64::from(s), a, 7]);
            let fan = 1 + (ha % 3) as u32;
            let mut row: Vec<(u32, u64)> = Vec::new();
            for k in 0..fan {
                let hk = mash(&[seed, u64::from(s), a, u64::from(k)]);
                // Strictly forward: interior successor or an absorber.
                let span = u64::from(n - s) + 1;
                let t = match hk % span {
                    0 => {
                        if hk & 1 == 0 {
                            goal
                        } else {
                            sink
                        }
                    }
                    d => s + d as u32,
                };
                let t = if t >= n {
                    if hk & 2 == 0 {
                        goal
                    } else {
                        sink
                    }
                } else {
                    t
                };
                let w = 1 + (hk >> 33) % 9;
                match row.iter_mut().find(|(c, _)| *c == t) {
                    Some((_, wc)) => *wc += w,
                    None => row.push((t, w)),
                }
            }
            row.sort_by_key(|&(c, _)| c);
            let total: u64 = row.iter().map(|&(_, w)| w).sum();
            let mut dist: Vec<(u32, f64)> = row
                .into_iter()
                .map(|(c, w)| (c, w as f64 / total as f64))
                .collect();
            b.push_action(&mut dist)
                .expect("row-stochastic by construction");
        }
        b.finish_state().expect("at least one action per state");
    }
    for _ in 0..2 {
        let s = b.states() as u32;
        b.push_action(&mut [(s, 1.0)]).expect("absorbing self-loop");
        b.finish_state().expect("absorbing state");
    }
    let total = (n + 2) as usize;
    let mut labels = BTreeMap::new();
    labels.insert(
        "goal".to_string(),
        BitVec::from_fn(total, |i| i == goal as usize),
    );
    let rewards: Vec<f64> = (0..total)
        .map(|s| (mash(&[seed, s as u64, 13]) % 5) as f64)
        .collect();
    Mdp::new(b.finish(), vec![(0, 1.0)], labels, rewards).expect("valid seeded MDP")
}

/// A seeded *layered* MDP: `width` states per layer, every action
/// targeting the next layer (absorbers after the last), so the SCC
/// condensation has `width`-sized levels — exactly the shape whose
/// per-level batches the `topo_*` drivers dispatch onto the pool. Rewards
/// are seeded in `0..4`. With `twins`, the first two states of every
/// layer also get an action to each other and reward 0: a zero-reward end
/// component that certified `Rmin` must inflate, exiting into rewarded
/// states, beside a batch of `width − 2` trivial ones. Without, every
/// component is trivial.
fn layered_mdp(seed: u64, layers: u32, width: u32, twins: bool) -> Mdp {
    let twin = |w: u32| twins && w < 2 && width >= 2;
    let n = layers * width;
    let goal = n;
    let sink = n + 1;
    let mut b = MdpBuilder::default();
    for l in 0..layers {
        for w in 0..width {
            let s = l * width + w;
            let actions = 1 + mash(&[seed, u64::from(s)]) % 2;
            for a in 0..actions {
                let fan = 1 + (mash(&[seed, u64::from(s), a, 3]) % 3) as u32;
                let mut row: Vec<(u32, u64)> = Vec::new();
                for k in 0..fan {
                    let hk = mash(&[seed, u64::from(s), a, u64::from(k), 11]);
                    let t = if l + 1 == layers {
                        if hk & 1 == 0 {
                            goal
                        } else {
                            sink
                        }
                    } else {
                        (l + 1) * width + (hk % u64::from(width)) as u32
                    };
                    let wgt = 1 + (hk >> 33) % 9;
                    match row.iter_mut().find(|(c, _)| *c == t) {
                        Some((_, wc)) => *wc += wgt,
                        None => row.push((t, wgt)),
                    }
                }
                row.sort_by_key(|&(c, _)| c);
                let total: u64 = row.iter().map(|&(_, w)| w).sum();
                let mut dist: Vec<(u32, f64)> = row
                    .into_iter()
                    .map(|(c, w)| (c, w as f64 / total as f64))
                    .collect();
                b.push_action(&mut dist)
                    .expect("row-stochastic by construction");
            }
            if twin(w) {
                b.push_action(&mut [(l * width + (w ^ 1), 1.0)])
                    .expect("twin move");
            }
            b.finish_state().expect("at least one action per state");
        }
    }
    for _ in 0..2 {
        let s = b.states() as u32;
        b.push_action(&mut [(s, 1.0)]).expect("absorbing self-loop");
        b.finish_state().expect("absorbing state");
    }
    let total = (n + 2) as usize;
    let mut labels = BTreeMap::new();
    labels.insert(
        "goal".to_string(),
        BitVec::from_fn(total, |i| i == goal as usize),
    );
    let rewards: Vec<f64> = (0..total)
        .map(|s| {
            if s as u32 >= n || twin(s as u32 % width) {
                0.0
            } else {
                (mash(&[seed, s as u64, 17]) % 4) as f64
            }
        })
        .collect();
    Mdp::new(b.finish(), vec![(0, 1.0)], labels, rewards).expect("valid layered MDP")
}

// --- drivers -------------------------------------------------------------

fn digest_vi(case: &CaseParams, parallel: bool) -> u64 {
    let m = seeded_mdp(case.seed);
    let goal = m.label("goal").expect("seeded MDP labels goal").clone();
    let all = BitVec::ones(m.n_states());
    let cond = smg_mdp::qual::condensation(&m);
    let vio = if parallel {
        ViOptions {
            par_min_states: Some(0),
            chunk: case.chunk,
            ..ViOptions::default()
        }
    } else {
        ViOptions {
            par_min_states: Some(usize::MAX),
            ..ViOptions::default()
        }
    };
    let lanes = if parallel { case.lanes } else { 1 };
    let mut d = Digest::new();
    par::with_lane_scope(lanes, || {
        for opt in [Opt::Max, Opt::Min] {
            // Every path runs strictly forward, so a horizon of the state
            // count is past the DAG's depth: the whole-space backups reach
            // the unbounded values.
            let bounded = vi::bounded_until_values(&m, &all, &goal, m.n_states(), opt, &vio)
                .expect("bounded VI on seeded MDP");
            d.mix_f64s(&bounded);
            let reach = vi::topo_reach_values(&m, &cond, &goal, opt, &vio)
                .expect("topological VI on seeded MDP");
            d.mix_f64s(&reach);
        }
        let cert = vi::topo_certified_reach_values(&m, &cond, &goal, Opt::Max, 1e-9, &vio)
            .expect("certified VI on seeded MDP");
        d.mix_cert(&cert);
    });
    d.finish()
}

fn digest_certified(case: &CaseParams, parallel: bool) -> u64 {
    // The wide layered chain of `digest_topo`, so the reward walk's level
    // batches reach the simulated scheduler too.
    let chain = layered_chain(8, 24);
    let absorbing = chain
        .label("absorbing")
        .expect("layered_chain labels absorbing")
        .clone();
    // `Rmin` to either absorber: twin pairs are zero-reward end
    // components whose lower bounds must be inflated.
    let m = layered_mdp(case.seed ^ 0x5A5A, 6, 12, true);
    let done = BitVec::from_fn(m.n_states(), |i| i + 2 >= m.n_states());
    let lanes = if parallel { case.lanes } else { 1 };
    let mut d = Digest::new();
    par::with_lane_scope(lanes, || {
        let cond = smg_dtmc::graph::Condensation::new(&chain);
        let reward =
            solve::topo_interval_reach_reward_values(&chain, &cond, &absorbing, 1e-9, 100_000)
                .expect("topo interval reward on layered chain");
        d.mix_cert(&reward);
        let cert = vi::topo_certified_reach_reward_values(
            &m,
            &smg_mdp::qual::condensation(&m),
            &done,
            Opt::Min,
            1e-9,
            &layered_vio(case, parallel),
        )
        .expect("topo certified Rmin");
        d.mix_cert(&cert);
    });
    d.finish()
}

/// Value-iteration options for the layered MDPs: every backup parallel
/// with several chunks per `width`-state level batch (on the pool of the
/// caller's lane scope), or the sequential reference.
fn layered_vio(case: &CaseParams, parallel: bool) -> ViOptions {
    if parallel {
        ViOptions {
            par_min_states: Some(0),
            // Per-level batches are `width` states; keep several chunks
            // per batch so the dispatch is genuinely multi-lane.
            chunk: case.chunk.min(6),
            ..ViOptions::default()
        }
    } else {
        ViOptions {
            par_min_states: Some(usize::MAX),
            ..ViOptions::default()
        }
    }
}

fn digest_topo(case: &CaseParams, parallel: bool) -> u64 {
    // Wide layers: the per-SCC backsubstitution batches one condensation
    // level at a time, and a level must span several kernel chunks for
    // the batch dispatch to reach the simulated scheduler.
    let chain = layered_chain(8, 24);
    let target = chain
        .label("target")
        .expect("layered_chain labels target")
        .clone();
    let m = layered_mdp(case.seed ^ 0xA5A5, 6, 12, false);
    let goal = m.label("goal").expect("layered MDP labels goal").clone();
    let lanes = if parallel { case.lanes } else { 1 };
    let mut d = Digest::new();
    par::with_lane_scope(lanes, || {
        let cond = smg_dtmc::graph::Condensation::new(&chain);
        let cert = solve::topo_interval_reach_values(&chain, &cond, &target, 1e-9, 100_000)
            .expect("topo interval reach");
        d.mix_cert(&cert);
        let cert = vi::topo_certified_reach_values(
            &m,
            &smg_mdp::qual::condensation(&m),
            &goal,
            Opt::Max,
            1e-9,
            &layered_vio(case, parallel),
        )
        .expect("topo certified VI");
        d.mix_cert(&cert);
    });
    d.finish()
}

/// The mutation check: a prefix-sum where each task reads its
/// predecessor's slot *if already written*. In-order execution (the
/// sequential reference, or a FIFO-ish schedule) produces true prefix
/// sums; any schedule that runs task `t` before `t-1` lands a zero
/// instead — an order-dependence bug the harness must catch and shrink.
fn digest_buggy(case: &CaseParams, parallel: bool) -> u64 {
    let ntasks = 24usize;
    let slots: Vec<AtomicU64> = (0..ntasks).map(|_| AtomicU64::new(0)).collect();
    let written: Vec<AtomicBool> = (0..ntasks).map(|_| AtomicBool::new(false)).collect();
    let pool = if parallel {
        pool::shared(case.lanes)
    } else {
        pool::with_lanes(1)
    };
    pool.run(ntasks, &|t| {
        let prev = if t > 0 && written[t - 1].load(Ordering::SeqCst) {
            slots[t - 1].load(Ordering::SeqCst)
        } else {
            0
        };
        slots[t].store(prev + t as u64 + 1, Ordering::SeqCst);
        written[t].store(true, Ordering::SeqCst);
    });
    let mut d = Digest::new();
    for s in &slots {
        d.mix(s.load(Ordering::SeqCst));
    }
    d.finish()
}

/// The deferred-share mutation check (see [`DriverKind::Stale`]). Each
/// task is mapped to its static-stride lane `t % lanes`; a lane's first
/// task records whether the *next* lane's share already completed in
/// full. Under the sequential reference, the index-order schedule and
/// the benign lowest-lane schedule that never happens; a torn latch that
/// defers a whole share makes it so.
fn digest_stale(case: &CaseParams, parallel: bool) -> u64 {
    let lanes = case.lanes.max(2);
    let share = 4usize;
    let ntasks = lanes * share;
    let done: Vec<AtomicU64> = (0..lanes).map(|_| AtomicU64::new(0)).collect();
    let stale: Vec<AtomicBool> = (0..lanes).map(|_| AtomicBool::new(false)).collect();
    let pool = if parallel {
        pool::shared(lanes)
    } else {
        pool::with_lanes(1)
    };
    pool.run(ntasks, &|t| {
        let lane = t % lanes;
        // First task of this share: has the next lane's share (no
        // wraparound — lane 0 legitimately finishes first under the
        // benign schedule) already fully completed?
        if done[lane].load(Ordering::SeqCst) == 0 && lane + 1 < lanes {
            let next = done[lane + 1].load(Ordering::SeqCst);
            if next as usize >= share {
                stale[lane].store(true, Ordering::SeqCst);
            }
        }
        done[lane].fetch_add(1, Ordering::SeqCst);
    });
    let mut d = Digest::new();
    for s in &stale {
        d.mix(s.load(Ordering::SeqCst) as u64);
    }
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(seed: u64) -> CaseParams {
        crate::harness::params_for_seed(seed)
    }

    #[test]
    fn sequential_digests_are_reproducible_and_seed_sensitive() {
        for kind in DriverKind::ALL {
            let a = digest(kind, &case(1), false);
            let b = digest(kind, &case(1), false);
            assert_eq!(a, b, "{}", kind.name());
        }
        // The seeded workloads actually vary with the seed.
        assert_ne!(
            digest(DriverKind::Vi, &case(1), false),
            digest(DriverKind::Vi, &case(2), false)
        );
    }

    #[test]
    fn driver_names_round_trip() {
        for kind in DriverKind::ALL {
            assert_eq!(DriverKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(DriverKind::from_name("buggy"), Some(DriverKind::Buggy));
        assert_eq!(DriverKind::from_name("nope"), None);
    }

    #[test]
    fn seeded_mdp_is_well_formed() {
        for seed in 0..8 {
            let m = seeded_mdp(seed);
            assert_eq!(m.n_states(), 42);
            assert!(m.n_choices() >= m.n_states());
            assert_eq!(m.label("goal").unwrap().count_ones(), 1);
        }
    }

    #[test]
    fn certified_driver_inflates_its_twin_end_components() {
        let m = layered_mdp(9, 6, 12, true);
        let done = BitVec::from_fn(m.n_states(), |i| i + 2 >= m.n_states());
        let cap = std::sync::Arc::new(smg_obs::Capture::new());
        let cert = smg_obs::with_recorder(cap.clone(), || {
            vi::topo_certified_reach_reward_values(
                &m,
                &smg_mdp::qual::condensation(&m),
                &done,
                Opt::Min,
                1e-9,
                &ViOptions::default(),
            )
            .unwrap()
        });
        assert!(cert.width() < 1e-9);
        assert!(cap.counter("smg_vi_inflations_total") > 0);
    }
}
