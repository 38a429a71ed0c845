//! Capture-recorder coverage of the instrumented MDP value-iteration
//! drivers: the default walk streams residual records, the certified walk
//! streams width records that end below the requested ε, sweeps counted
//! through `smg_solve_sweeps_total` always equal the traced record count,
//! and end-component corrections are counted in both modes.

use smg_dtmc::BitVec;
use smg_mdp::{vi, Mdp, MdpBuilder, Opt, ViOptions};
use smg_obs as obs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// State 0 chooses between a lazy coin flip (self/goal) and a risky jump
/// (0.1 goal / 0.9 bad); 1 ("goal") and 2 ("bad") absorb. Pmax(F goal)
/// from 0 is 1, Pmin is 0.1.
fn tiny() -> Mdp {
    let mut b = MdpBuilder::default();
    b.push_action(&mut [(0, 0.5), (1, 0.5)]).unwrap();
    b.push_action(&mut [(1, 0.1), (2, 0.9)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(1, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(2, 1.0)]).unwrap();
    b.finish_state().unwrap();
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 1));
    labels.insert("bad".to_string(), BitVec::from_fn(3, |i| i == 2));
    Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 1.0, 0.0]).unwrap()
}

fn captured<R>(f: impl FnOnce() -> R) -> (Arc<obs::Capture>, R) {
    let cap = Arc::new(obs::Capture::new());
    let out = obs::with_recorder(cap.clone(), f);
    (cap, out)
}

#[test]
fn certified_vi_emits_records_ending_below_epsilon() {
    let m = tiny();
    let goal = m.label("goal").unwrap().clone();
    let eps = 1e-9;
    let cond = smg_mdp::qual::condensation(&m);
    let (cap, certified) = captured(|| {
        vi::topo_certified_reach_values(&m, &cond, &goal, Opt::Min, eps, &ViOptions::default())
            .unwrap()
    });
    assert!((certified.lo[0] - 0.1).abs() < 1e-6);
    let traces = cap.traces_for("topo_certified_vi");
    assert!(!traces.is_empty(), "certified solve must stream records");
    assert_eq!(
        cap.counter_with("smg_solve_sweeps_total", "topo_certified_vi"),
        traces.len() as u64
    );
    let last = traces.last().unwrap();
    assert!(last.width.unwrap() < eps, "{last:?}");
    assert!(last.residual.is_none());
    assert!(certified.hi[0] - certified.lo[0] < eps);
}

#[test]
fn topo_certified_vi_emits_records_ending_below_epsilon() {
    let m = tiny();
    let goal = m.label("goal").unwrap().clone();
    let eps = 1e-9;
    let (cap, certified) = captured(|| {
        vi::topo_certified_reach_values(
            &m,
            &smg_mdp::qual::condensation(&m),
            &goal,
            Opt::Max,
            eps,
            &ViOptions::default(),
        )
        .unwrap()
    });
    assert!((certified.hi[0] - 1.0).abs() < 1e-6);
    let traces = cap.traces_for("topo_certified_vi");
    assert!(!traces.is_empty());
    assert_eq!(
        cap.counter_with("smg_solve_sweeps_total", "topo_certified_vi"),
        traces.len() as u64
    );
    assert!(traces.last().unwrap().width.unwrap() < eps);
}

#[test]
fn topo_vi_default_driver_reports_residuals_per_component() {
    // 0 ↔ 1 leak into the absorbing goal 2; 1 may instead jump to the
    // absorbing bad state 3. The cycle is a non-trivial SCC, so the
    // default walk sweeps it in place under its component id.
    let mut b = MdpBuilder::default();
    b.push_action(&mut [(1, 0.9), (2, 0.1)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(0, 0.9), (2, 0.1)]).unwrap();
    b.push_action(&mut [(3, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(2, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(3, 1.0)]).unwrap();
    b.finish_state().unwrap();
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 2));
    let m = Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0; 4]).unwrap();
    let goal = m.label("goal").unwrap().clone();
    let vio = ViOptions::default();
    let cond = smg_mdp::qual::condensation(&m);
    let (cap, values) =
        captured(|| vi::topo_reach_values(&m, &cond, &goal, Opt::Max, &vio).unwrap());
    assert!((values[0] - 1.0).abs() < 1e-9, "Pmax = {}", values[0]);
    let traces = cap.traces_for("topo_vi");
    assert!(!traces.is_empty());
    assert_eq!(
        cap.counter_with("smg_solve_sweeps_total", "topo_vi"),
        traces.len() as u64
    );
    assert!(traces.iter().all(|t| t.width.is_none()));
    let last = traces.last().unwrap();
    assert!(last.component.is_some(), "{last:?}");
    assert!(last.residual.unwrap() < vio.tol, "{last:?}");
}

/// The end component 0 ↔ 1 (zero reward) exits only into the cost-1 state
/// 2, which falls into the absorbing goal 3 or sink 4 with probability ½
/// each. `Pmax [F goal]` is ½ on the cycle, whose upper bounds start at 1
/// and must be deflated; `Rmin [F goal | sink]` is 1 on the cycle, whose
/// lower bounds start at 0 and must be inflated.
fn end_component() -> Mdp {
    let mut b = MdpBuilder::default();
    b.push_action(&mut [(1, 1.0)]).unwrap();
    b.push_action(&mut [(2, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(0, 1.0)]).unwrap();
    b.push_action(&mut [(2, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(3, 0.5), (4, 0.5)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(3, 1.0)]).unwrap();
    b.finish_state().unwrap();
    b.push_action(&mut [(4, 1.0)]).unwrap();
    b.finish_state().unwrap();
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(5, |i| i == 3));
    labels.insert("done".to_string(), BitVec::from_fn(5, |i| i >= 3));
    Mdp::new(
        b.finish(),
        vec![(0, 1.0)],
        labels,
        vec![0.0, 0.0, 1.0, 0.0, 0.0],
    )
    .unwrap()
}

#[test]
fn end_component_corrections_are_counted_in_both_modes() {
    let m = end_component();
    let cond = smg_mdp::qual::condensation(&m);
    let vio = ViOptions::default();
    let eps = 1e-9;
    let goal = m.label("goal").unwrap().clone();
    let (cap, pmax) = captured(|| {
        vi::topo_certified_reach_values(&m, &cond, &goal, Opt::Max, eps, &vio).unwrap()
    });
    assert!(pmax.lo[0] <= 0.5 && 0.5 <= pmax.hi[0] && pmax.width() < eps);
    assert!(cap.counter("smg_vi_deflations_total") > 0, "certified Pmax");
    let done = m.label("done").unwrap().clone();
    let (cap, rmin) =
        captured(|| vi::topo_reach_reward_values(&m, &cond, &done, Opt::Min, &vio).unwrap());
    assert!((rmin[0] - 1.0).abs() < 1e-9, "Rmin = {}", rmin[0]);
    assert!(cap.counter("smg_vi_inflations_total") > 0, "default Rmin");
    let (cap, rmin) = captured(|| {
        vi::topo_certified_reach_reward_values(&m, &cond, &done, Opt::Min, eps, &vio).unwrap()
    });
    assert!(rmin.lo[0] <= 1.0 && 1.0 <= rmin.hi[0] && rmin.width() < eps);
    assert!(cap.counter("smg_vi_inflations_total") > 0, "certified Rmin");
}

#[test]
fn no_recorder_means_identical_results() {
    let m = tiny();
    let goal = m.label("goal").unwrap().clone();
    let vio = ViOptions::default();
    let cond = smg_mdp::qual::condensation(&m);
    let plain = vi::topo_certified_reach_values(&m, &cond, &goal, Opt::Min, 1e-9, &vio).unwrap();
    let (_cap, recorded) = captured(|| {
        vi::topo_certified_reach_values(&m, &cond, &goal, Opt::Min, 1e-9, &vio).unwrap()
    });
    assert_eq!(plain.lo, recorded.lo, "recording must not change results");
    assert_eq!(plain.hi, recorded.hi);
    assert_eq!(plain.iterations, recorded.iterations);
}

/// A counter the adversary advances by one or two; 0..=9, absorbing at 9.
struct Ladder;

impl smg_mdp::MdpModel for Ladder {
    type State = u8;
    fn initial_states(&self) -> Vec<(u8, f64)> {
        vec![(0, 1.0)]
    }
    fn actions(&self, s: &u8) -> Vec<Vec<(u8, f64)>> {
        if *s == 9 {
            return vec![vec![(9, 1.0)]];
        }
        vec![
            vec![(s + 1, 0.5), (*s, 0.5)],
            vec![((s + 2).min(9), 0.25), (*s, 0.75)],
        ]
    }
}

#[test]
fn explore_reports_the_explore_family() {
    let (cap, e) =
        captured(|| smg_mdp::explore(&Ladder, &smg_dtmc::ExploreOptions::default()).unwrap());
    assert_eq!(cap.counter("smg_explore_states_total"), 10);
    assert_eq!(
        cap.counter("smg_explore_transitions_total"),
        e.mdp.n_transitions() as u64
    );
    assert_eq!(
        cap.counter("smg_explore_levels_total"),
        e.stats.reachability_iterations as u64
    );
    // Levels {0}, {1,2}, {3,4}, {5,6}, {7,8}, {9}.
    assert_eq!(e.stats.reachability_iterations, 6);
    assert_eq!(cap.observations("smg_explore_seconds").len(), 1);
}
