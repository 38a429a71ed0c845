//! The fixed simulation corpus: the seeds CI replays on every push.
//!
//! Three layers of assurance:
//!
//! * **corpus** — a fixed seed range across every production driver,
//!   with benign fault injection and panic probes: all must pass;
//! * **mutation check** — the intentionally order-dependent workload
//!   must be caught, shrunk, and the shrunk reproducer must replay;
//! * **stress** — nested `with_lane_scope` re-entry and an
//!   oversubscribed (32-lane) virtual pool, pinned bit-identical to the
//!   sequential reference.

#![cfg(all(feature = "parallel", feature = "sim"))]

use smg_chaos::drivers::DriverKind;
use smg_chaos::faults::FaultPlan;
use smg_chaos::harness::{
    panic_probe, params_for_seed, replay, run_case, sweep, CaseParams, SweepOptions,
};

/// Seeds 0..32 × all three production drivers, benign faults on, panic
/// probes on — the engine's schedule-independence must hold throughout.
#[test]
fn fixed_corpus_passes_across_all_drivers() {
    let report = sweep(&DriverKind::ALL, 0..32, SweepOptions::default());
    assert_eq!(report.cases, 32 * DriverKind::ALL.len());
    assert!(
        report.failures.is_empty(),
        "corpus failures:\n{}",
        report
            .failures
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The mutation check: a harness that cannot catch a seeded ordering
/// bug is worthless. The buggy driver must fail for some seed, the
/// shrunk reproducer must be no larger than the original case, and it
/// must replay the failure.
#[test]
fn mutation_check_catches_and_shrinks_the_seeded_bug() {
    let mut caught = None;
    for seed in 0..64 {
        let case = params_for_seed(seed);
        if let Err(failure) = run_case(DriverKind::Buggy, &case) {
            caught = Some((seed, failure));
            break;
        }
    }
    let (seed, failure) = caught.expect("the seeded ordering bug must be caught within 64 seeds");
    assert!(
        failure.reason.contains("digest mismatch"),
        "the bug manifests as a digest divergence: {}",
        failure.reason
    );
    assert!(
        failure.repro.seed <= seed,
        "shrinking never yields a larger seed"
    );
    assert!(
        failure.repro.budget < u64::MAX,
        "the step budget must have been minimized"
    );
    // The minimal reproducer replays.
    let mut minimal = params_for_seed(failure.repro.seed);
    minimal.budget = failure.repro.budget;
    minimal.faults = failure.repro.faults.clone();
    assert!(
        replay(DriverKind::Buggy, &minimal).is_err(),
        "the shrunk reproducer must still fail: {}",
        failure.repro.command_line()
    );
    // One adversarial step less must not fail the same way — the budget
    // is genuinely minimal (budget 0 means even one step was enough).
    if failure.repro.budget > 0 {
        let mut under = minimal.clone();
        under.budget = failure.repro.budget - 1;
        assert!(
            replay(DriverKind::Buggy, &under).is_ok(),
            "budget {} is not minimal",
            failure.repro.budget
        );
    }
    // The failing run leaves a usable timeline.
    assert!(
        failure.timeline.contains("epoch"),
        "failure reports carry a timeline:\n{}",
        failure.timeline
    );
}

/// Panic probes across drivers and seeds: the enriched `(lane, epoch)`
/// message propagates and a clean rerun still matches the sequential
/// reference — no lost jobs after a propagated panic.
#[test]
fn panic_probes_keep_the_pool_consistent() {
    for kind in DriverKind::ALL {
        for seed in [1, 3, 9, 17] {
            let case = params_for_seed(seed);
            if let Err(reason) = panic_probe(kind, &case) {
                panic!(
                    "panic probe failed for {} seed {seed}: {reason}",
                    kind.name()
                );
            }
        }
    }
}

/// Satellite stress: `with_lane_scope` re-entry (a session pinning lanes
/// while the harness already scoped them) and `threads(n)` far above the
/// host's core count, both under the sim scheduler, both pinned
/// bit-identical to sequential.
#[test]
fn nested_scope_and_oversubscription_stay_bit_identical() {
    use smg_chaos::interleave::ChaosInterleaver;
    use smg_dtmc::{explore, par, transient, DtmcModel, ExploreOptions};
    use std::cell::RefCell;
    use std::rc::Rc;

    // Oversubscribed: every-17th seed derives a 32-lane virtual pool.
    for &seed in &[0u64, 17, 34] {
        let case = params_for_seed(seed);
        assert_eq!(case.lanes, 32, "seed {seed} oversubscribes");
        for kind in DriverKind::ALL {
            if let Err(f) = run_case(kind, &case) {
                panic!("oversubscribed case failed: {}", f.render());
            }
        }
    }

    // Nested lane scopes under the sim: outer scope 4 lanes, inner
    // scope 2, a bounded transient product computed inside the inner
    // scope must equal the plain sequential one bit for bit.
    struct Grid;
    impl DtmcModel for Grid {
        type State = (u8, u8);
        fn initial_states(&self) -> Vec<((u8, u8), f64)> {
            vec![((0, 0), 1.0)]
        }
        fn transitions(&self, &(x, y): &(u8, u8)) -> Vec<((u8, u8), f64)> {
            if x >= 12 || y >= 12 {
                return vec![((x, y), 1.0)];
            }
            vec![((x + 1, y), 0.5), ((x, y + 1), 0.5)]
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["edge"]
        }
        fn holds(&self, ap: &str, &(x, y): &(u8, u8)) -> bool {
            ap == "edge" && (x >= 12 || y >= 12)
        }
    }

    let grid = explore(&Grid, &ExploreOptions::default()).unwrap().dtmc;
    let edge = grid.label("edge").unwrap().clone();
    let product = || {
        let pi = transient::distribution_at(&grid, 30);
        let reach = transient::bounded_reach_prob(&grid, &edge, 30).unwrap();
        let mut bits: Vec<u64> = pi.iter().map(|p| p.to_bits()).collect();
        bits.push(reach.to_bits());
        bits
    };
    let sequential = par::with_lane_scope(1, product);
    let case = params_for_seed(2);
    let il = Rc::new(RefCell::new(ChaosInterleaver::new(
        case.seed,
        case.policy,
        FaultPlan::none(),
        u64::MAX,
    )));
    let il_dyn: Rc<RefCell<dyn smg_dtmc::sim::Interleaver>> = il.clone();
    let guard = smg_dtmc::sim::install(
        il_dyn,
        smg_dtmc::sim::SimConfig {
            kernel_chunk: Some(8),
            min_rows: 2,
        },
    );
    let nested = par::with_lane_scope(4, || par::with_lane_scope(2, product));
    drop(guard);
    assert!(
        il.borrow().steps_taken() > 0,
        "the nested product never reached the simulated scheduler"
    );
    assert_eq!(
        nested, sequential,
        "nested scoped transient product under the sim must be bit-identical"
    );
    assert_eq!(nested.len(), grid.n_states() + 1);
}

/// The corpus is not vacuous: under the harness's kernel-chunk and
/// min-rows overrides, every production driver actually dispatches
/// multi-lane simulated epochs (otherwise "bit-identical under chaos"
/// would be trivially true of a sequential run).
#[test]
fn drivers_actually_exercise_simulated_epochs() {
    use smg_chaos::interleave::ChaosInterleaver;
    use std::cell::RefCell;
    use std::rc::Rc;

    // Seeds 4/12/20/28 cover the whole kernel-chunk palette.
    for (kind, seed) in DriverKind::ALL
        .into_iter()
        .flat_map(|k| [4u64, 12, 20, 28].map(|s| (k, s)))
    {
        let case = params_for_seed(seed);
        let il = Rc::new(RefCell::new(ChaosInterleaver::new(
            case.seed,
            case.policy,
            FaultPlan::none(),
            u64::MAX,
        )));
        let il_dyn: Rc<RefCell<dyn smg_dtmc::sim::Interleaver>> = il.clone();
        {
            let _guard = smg_dtmc::sim::install(
                il_dyn,
                smg_dtmc::sim::SimConfig {
                    kernel_chunk: Some(case.chunk),
                    min_rows: 2,
                },
            );
            smg_chaos::drivers::digest(kind, &case, true);
        }
        let steps = il.borrow().steps_taken();
        assert!(
            steps > 0,
            "driver {} (seed {seed}) never reached the simulated scheduler",
            kind.name()
        );
    }
}

/// Replaying the same case twice yields the same verdict and timeline
/// determinism is absolute: the whole point of a deterministic harness.
#[test]
fn cases_replay_deterministically() {
    for seed in [0u64, 5, 13, 21] {
        let case: CaseParams = params_for_seed(seed);
        for kind in [DriverKind::Topo, DriverKind::Certified] {
            let a = run_case(kind, &case).is_ok();
            let b = run_case(kind, &case).is_ok();
            assert_eq!(a, b, "{} seed {seed} must replay identically", kind.name());
        }
    }
}
