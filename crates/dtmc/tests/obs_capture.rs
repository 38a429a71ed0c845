//! Capture-recorder coverage of the instrumented DTMC solve drivers:
//! every driver must report its sweeps through `smg_solve_sweeps_total`
//! and stream one convergence record per iteration, with the final
//! residual (or bracket width) below the requested tolerance. A trailing
//! test pins the zero-overhead contract the engine instrumentation rests
//! on: with no recorder installed, results are identical.

use smg_dtmc::bitvec::BitVec;
use smg_dtmc::graph::Condensation;
use smg_dtmc::matrix::{CsrMatrix, TransitionMatrix};
use smg_dtmc::{solve, Dtmc};
use smg_obs as obs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Chain: 0 → {0: 0.5, 1: 0.5}, 1 → {2: 1.0}, 2 absorbing; "goal" on 2.
fn chain() -> Dtmc {
    let m = TransitionMatrix::Sparse(
        CsrMatrix::from_rows(vec![
            vec![(0, 0.5), (1, 0.5)],
            vec![(2, 1.0)],
            vec![(2, 1.0)],
        ])
        .unwrap(),
    );
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(3, |i| i == 2));
    Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0, 0.0, 1.0]).unwrap()
}

fn captured<R>(f: impl FnOnce() -> R) -> (Arc<obs::Capture>, R) {
    let cap = Arc::new(obs::Capture::new());
    let out = obs::with_recorder(cap.clone(), f);
    (cap, out)
}

/// The damped power iteration `S=?` runs on a chain that is one bottom
/// SCC (driver `steady`).
#[test]
fn power_driver_emits_one_record_per_sweep() {
    // 0 → 1 with probability ½, 1 → 0 with ¼: stationary mass 2/3 on 1.
    let m = TransitionMatrix::Sparse(
        CsrMatrix::from_rows(vec![vec![(0, 0.5), (1, 0.5)], vec![(0, 0.25), (1, 0.75)]]).unwrap(),
    );
    let mut labels = BTreeMap::new();
    labels.insert("one".to_string(), BitVec::from_fn(2, |i| i == 1));
    let d = Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0; 2]).unwrap();
    let one = d.label("one").unwrap().clone();
    let cond = Condensation::new(&d);
    let (cap, value) =
        captured(|| solve::steady_state_prob(&d, &cond, &one, 1e-12, 10_000).unwrap());
    assert!((value - 2.0 / 3.0).abs() < 1e-9, "{value}");
    let traces = cap.traces_for("steady");
    assert!(!traces.is_empty());
    assert_eq!(
        cap.counter_with("smg_solve_sweeps_total", "steady"),
        traces.len() as u64
    );
    let last = traces.last().unwrap();
    assert_eq!(last.sweep as usize, traces.len(), "sweeps are 1-based");
    assert!(last.residual.unwrap() < 1e-12, "{last:?}");
    assert!(last.width.is_none() && last.component.is_none());
}

#[test]
fn interval_driver_reports_width_below_epsilon() {
    // 0 ↔ 1 is a non-trivial SCC leaking into the absorbing goal 2 and
    // sink 3, so the certified walk iterates on it.
    let m = TransitionMatrix::Sparse(
        CsrMatrix::from_rows(vec![
            vec![(1, 0.8), (2, 0.1), (3, 0.1)],
            vec![(0, 0.8), (2, 0.2)],
            vec![(2, 1.0)],
            vec![(3, 1.0)],
        ])
        .unwrap(),
    );
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 2));
    let d = Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0; 4]).unwrap();
    let goal = d.label("goal").unwrap().clone();
    let eps = 1e-9;
    let cond = Condensation::new(&d);
    let (cap, certified) =
        captured(|| solve::topo_interval_reach_values(&d, &cond, &goal, eps, 10_000).unwrap());
    assert!(certified.hi[0] - certified.lo[0] < eps);
    let traces = cap.traces_for("topo_interval");
    assert_eq!(traces.len(), certified.iterations);
    // The cycle's widths shrink monotonically to below epsilon; residual
    // stays unset (interval iteration certifies by bracket, not by
    // residual).
    let widths: Vec<f64> = traces
        .iter()
        .filter(|t| t.component.is_some())
        .map(|t| t.width.unwrap())
        .collect();
    assert!(widths.len() > 1, "{traces:?}");
    assert!(widths.windows(2).all(|w| w[1] <= w[0]), "{widths:?}");
    assert!(*widths.last().unwrap() < eps);
    assert!(traces.iter().all(|t| t.residual.is_none()));
}

#[test]
fn topo_interval_driver_tags_components() {
    // 0 ↔ 1 cycle escaping through the trivial relay state 3 into the
    // absorbing goal state 2: the cycle is a nontrivial SCC whose sweeps
    // must carry the component id, while the relay is solved in a trivial
    // backsubstitution batch that does not.
    let m = TransitionMatrix::Sparse(
        CsrMatrix::from_rows(vec![
            vec![(1, 0.9), (3, 0.1)],
            vec![(0, 0.9), (3, 0.1)],
            vec![(2, 1.0)],
            vec![(2, 1.0)],
        ])
        .unwrap(),
    );
    let mut labels = BTreeMap::new();
    labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 2));
    let d = Dtmc::new(m, vec![(0, 1.0)], labels, vec![0.0, 0.0, 1.0, 0.0]).unwrap();
    let goal = d.label("goal").unwrap().clone();
    let eps = 1e-9;
    let cond = Condensation::new(&d);
    let (cap, certified) =
        captured(|| solve::topo_interval_reach_values(&d, &cond, &goal, eps, 10_000).unwrap());
    assert!(certified.hi[0] - certified.lo[0] < eps);
    let traces = cap.traces_for("topo_interval");
    assert_eq!(traces.len(), certified.iterations);
    assert!(traces.iter().any(|t| t.component.is_some()), "{traces:?}");
    assert!(traces.iter().any(|t| t.component.is_none()), "{traces:?}");
    assert!(traces.last().unwrap().width.unwrap() < eps);

    // The default (residual) walk over the same condensation reports under
    // its own label, with residuals instead of widths.
    let (cap, values) =
        captured(|| solve::topo_reach_values(&d, &cond, &goal, 1e-12, 10_000).unwrap());
    assert!((values[0] - 1.0).abs() < 1e-9);
    let traces = cap.traces_for("topo");
    assert!(!traces.is_empty());
    assert_eq!(
        cap.counter_with("smg_solve_sweeps_total", "topo"),
        traces.len() as u64
    );
    assert!(traces.iter().any(|t| t.component.is_some()), "{traces:?}");
    assert!(traces.iter().all(|t| t.width.is_none()));
    let last_cycle = traces.iter().rev().find(|t| t.component.is_some()).unwrap();
    assert!(last_cycle.residual.unwrap() < 1e-12, "{last_cycle:?}");
}

#[test]
fn no_recorder_means_identical_results() {
    let d = chain();
    let goal = d.label("goal").unwrap().clone();
    let cond = Condensation::new(&d);
    let plain = solve::topo_interval_reach_values(&d, &cond, &goal, 1e-9, 10_000).unwrap();
    let (_cap, recorded) =
        captured(|| solve::topo_interval_reach_values(&d, &cond, &goal, 1e-9, 10_000).unwrap());
    assert_eq!(plain.lo, recorded.lo, "recording must not change results");
    assert_eq!(plain.hi, recorded.hi);
    assert_eq!(plain.iterations, recorded.iterations);
}

/// The dispatch counter counts each call of at least the gate's floor in
/// rows or in work, and skips the tiny sequential ones (a condensation
/// walk makes one per level, cheaper than the event).
#[test]
fn dispatch_counter_skips_tiny_sequential_calls() {
    static SITE: smg_dtmc::par::Site = smg_dtmc::par::Site::new("probe");
    let floor = smg_dtmc::par::GATE_FLOOR;
    let (cap, ()) = captured(|| {
        SITE.run(2, 2, |_| ());
        SITE.run(floor - 1, floor - 1, |_| ());
        SITE.run(floor, 0, |parallel| assert!(!parallel));
    });
    assert_eq!(cap.counter("smg_par_dispatch_total"), 1);
    assert_eq!(cap.counter_with("smg_par_dispatch_total", "probe"), 1);
    assert_eq!(cap.counter_with("smg_par_dispatch_total", "seq"), 1);
}
