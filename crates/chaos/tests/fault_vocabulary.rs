//! The extended fault vocabulary: torn latch updates and epoch-counter
//! skew.
//!
//! Both faults are *benign* — they mislabel or renumber work without
//! destroying it — so every production driver must stay bit-identical to
//! the sequential reference under arbitrarily many of them. The shrinker
//! contract is pinned from both sides: a fault that *causes* a failure
//! survives minimization as the plan's only entry, and faults that are
//! mere bystanders are all dropped.

#![cfg(all(feature = "parallel", feature = "sim"))]

use smg_chaos::drivers::DriverKind;
use smg_chaos::faults::{FaultKind, FaultPlan};
use smg_chaos::harness::{params_for_seed, replay, run_case, shrink, CaseParams};
use smg_chaos::policy::Policy;

/// Production drivers stay bit-identical under torn latches and epoch
/// skews, alone and mixed with stalls.
#[test]
fn production_drivers_tolerate_torn_latches_and_epoch_skews() {
    let plan = FaultPlan::parse("torn@1,skew@4x3,stall@9x2,torn@15,skew@40x6").unwrap();
    for kind in DriverKind::ALL {
        for seed in [0u64, 3, 7, 17] {
            let case = CaseParams {
                faults: plan.clone(),
                ..params_for_seed(seed)
            };
            if let Err(f) = run_case(kind, &case) {
                panic!(
                    "{} seed {seed} diverged under torn/skew faults:\n{}",
                    kind.name(),
                    f.render()
                );
            }
        }
    }
}

/// A torn latch that *causes* the failure survives shrinking as the
/// plan's only fault. The deferred-share mutation driver passes under
/// the fault-free FIFO schedule; fault step 8 is lane 2's first
/// execution attempt, so the tear parks that whole share past the
/// settle point — exactly the staleness the driver detects. The skew
/// and out-of-range stall padding must all be dropped by the delta
/// pass, and the budget must shrink to the tear's step.
#[test]
fn shrinker_keeps_an_essential_torn_latch_and_drops_padding() {
    let case = CaseParams {
        seed: 0,
        lanes: 4,
        policy: Policy::Fifo,
        chunk: 8,
        budget: u64::MAX,
        faults: FaultPlan::parse("torn@8,skew@13x2,skew@30x5,stall@5000x3").unwrap(),
    };
    assert!(
        replay(DriverKind::Stale, &case).is_err(),
        "the torn latch must defer lane 2's share past lane 3's completion"
    );
    let clean = CaseParams {
        faults: FaultPlan::none(),
        ..case.clone()
    };
    assert!(
        replay(DriverKind::Stale, &clean).is_ok(),
        "the fault-free FIFO schedule must pass"
    );
    let repro = shrink(DriverKind::Stale, &case, 4096);
    assert_eq!(
        repro.faults.faults.len(),
        1,
        "padding survived shrinking: {}",
        repro.faults.describe()
    );
    assert!(
        matches!(repro.faults.faults[0].kind, FaultKind::Torn),
        "the essential torn latch was dropped: {}",
        repro.faults.describe()
    );
    assert!(repro.faults.inline_epochs.is_empty());
    assert!(
        repro.budget < u64::MAX,
        "the budget must have been minimized"
    );
    // The minimal reproducer still replays the failure.
    let minimal = CaseParams {
        budget: repro.budget,
        faults: repro.faults.clone(),
        ..case
    };
    assert!(replay(DriverKind::Stale, &minimal).is_err());
}

/// Skews (and torn latches) that are mere bystanders to a failure are
/// all dropped: LIFO scheduling breaks the buggy driver with or without
/// them, so the minimal plan is empty. An epoch skew can never be the
/// *sole* essential fault — it only renumbers epochs, so it can at most
/// redirect a forced-inline entry, and the delta pass then reduces the
/// chain — which makes "minimal reproducers carry no bystander skews"
/// the strongest minimality statement there is for this fault kind.
#[test]
fn shrinker_drops_bystander_skews_and_torn_latches() {
    let case = CaseParams {
        seed: 0,
        lanes: 4,
        policy: Policy::Lifo,
        chunk: 8,
        budget: u64::MAX,
        faults: FaultPlan::parse("skew@0x3,torn@6,skew@11x2").unwrap(),
    };
    assert!(replay(DriverKind::Buggy, &case).is_err());
    let repro = shrink(DriverKind::Buggy, &case, 4096);
    assert!(
        repro.faults.is_empty(),
        "bystander faults survived shrinking: {}",
        repro.faults.describe()
    );
    let minimal = CaseParams {
        budget: repro.budget,
        faults: FaultPlan::none(),
        ..case
    };
    assert!(replay(DriverKind::Buggy, &minimal).is_err());
}

/// The new fault kinds report through the recorder seam when a run is
/// driven with metrics on.
#[test]
fn torn_and_skew_faults_report_their_counters() {
    use smg_chaos::interleave::ChaosInterleaver;
    use std::cell::RefCell;
    use std::rc::Rc;

    let cap = std::sync::Arc::new(smg_obs::Capture::new());
    smg_obs::with_recorder(cap.clone(), || {
        let case = CaseParams {
            seed: 1,
            lanes: 4,
            policy: Policy::RoundRobin,
            chunk: 8,
            budget: u64::MAX,
            faults: FaultPlan::parse("torn@2,skew@5x3").unwrap(),
        };
        let il = Rc::new(RefCell::new(ChaosInterleaver::new(
            case.seed,
            case.policy,
            case.faults.clone(),
            case.budget,
        )));
        let il_dyn: Rc<RefCell<dyn smg_dtmc::sim::Interleaver>> = il.clone();
        let _guard = smg_dtmc::sim::install(
            il_dyn,
            smg_dtmc::sim::SimConfig {
                kernel_chunk: Some(case.chunk),
                min_rows: 2,
            },
        );
        smg_chaos::drivers::digest(DriverKind::Topo, &case, true);
    });
    assert!(cap.counter("smg_chaos_torn_latches_total") >= 1);
    assert!(cap.counter("smg_chaos_epoch_skews_total") >= 1);
}
