//! The paper's §III steady-state argument, checked rather than assumed,
//! plus interop (PRISM export) and composition on the real case studies.

mod support;

use statguard_mimo::dtmc::{explore, export, graph, transient, ExploreOptions};
use statguard_mimo::viterbi::{ConvergenceModel, ReducedModel, ViterbiConfig};
use support::SyncProduct;

/// "All finite, irreducible, aperiodic DTMC models are guaranteed to reach
/// a steady state" — our chains have a transient reset prefix, so the
/// precise statement is: a single bottom SCC (one recurrent class), into
/// which all mass flows, and empirical convergence of the distribution.
#[test]
fn viterbi_reduced_chain_has_single_recurrent_class() {
    let e = explore(
        &ReducedModel::new(ViterbiConfig::small()).unwrap(),
        &ExploreOptions::default(),
    )
    .unwrap();
    let b = graph::bsccs(&e.dtmc);
    assert_eq!(b.len(), 1, "exactly one recurrent class");
    // The recurrent class holds almost all states (the reset prefix is
    // tiny).
    assert!(b[0].len() > e.dtmc.n_states() / 2);
    let ss = transient::detect_steady_state(&e.dtmc, 1e-12, 100_000);
    assert!(ss.converged_at.is_some(), "distribution must converge");
    // All steady-state mass lives inside the BSCC.
    let in_bscc: f64 = b[0].iter().map(|&s| ss.distribution[s as usize]).sum();
    assert!((in_bscc - 1.0).abs() < 1e-9, "mass in BSCC = {in_bscc}");
}

#[test]
fn convergence_chain_is_ergodic_enough_for_c1() {
    let e = explore(
        &ConvergenceModel::new(ViterbiConfig::small().with_snr_db(8.0)).unwrap(),
        &ExploreOptions::default(),
    )
    .unwrap();
    let b = graph::bsccs(&e.dtmc);
    assert_eq!(b.len(), 1);
    let ss = transient::detect_steady_state(&e.dtmc, 1e-13, 100_000);
    assert!(ss.converged_at.is_some());
    // C1 at large T equals the steady-state expected reward.
    let c1 = transient::instantaneous_reward(&e.dtmc, 2000);
    assert!((c1 - ss.expected_reward(&e.dtmc)).abs() < 1e-9);
}

/// The PRISM export of a real case-study chain is well-formed: the header
/// counts match, every row is a valid triple, and per-source masses sum
/// to one.
#[test]
fn prism_export_of_viterbi_chain_is_well_formed() {
    let e = explore(
        &ReducedModel::new(ViterbiConfig::small()).unwrap(),
        &ExploreOptions::default(),
    )
    .unwrap();
    let tra = export::to_tra(&e.dtmc);
    let mut lines = tra.lines();
    let header: Vec<usize> = lines
        .next()
        .unwrap()
        .split_whitespace()
        .map(|x| x.parse().unwrap())
        .collect();
    assert_eq!(header[0], e.dtmc.n_states());
    let mut sums = vec![0.0f64; header[0]];
    let mut rows = 0usize;
    for l in lines {
        let f: Vec<&str> = l.split_whitespace().collect();
        assert_eq!(f.len(), 3);
        let src: usize = f[0].parse().unwrap();
        let dst: usize = f[1].parse().unwrap();
        let p: f64 = f[2].parse().unwrap();
        assert!(dst < header[0]);
        assert!(p > 0.0 && p <= 1.0);
        sums[src] += p;
        rows += 1;
    }
    assert_eq!(rows, header[1]);
    for (s, total) in sums.iter().enumerate() {
        assert!((total - 1.0).abs() < 1e-9, "row {s} sums to {total}");
    }

    let d = &e.dtmc;
    let lab = export::to_lab(d.n_states(), d.initial(), d.labels());
    assert!(lab.starts_with("0=\"init\" 1=\"flag\""));
    let srew = export::to_srew(d.rewards());
    assert!(srew.lines().count() >= 1);
}

/// Composing two independent decoder rails (e.g. the I and Q rails of a
/// receiver): the expected total error count is the sum of the rails',
/// and a rail's marginal behaviour is unchanged by composition.
#[test]
fn composed_decoder_rails_behave_independently() {
    let cfg_i = ViterbiConfig::small();
    let cfg_q = ViterbiConfig::small().with_snr_db(7.0);
    let rail_i = ConvergenceModel::new(cfg_i.clone()).unwrap();
    let rail_q = ConvergenceModel::new(cfg_q.clone()).unwrap();
    let ei = explore(
        &ConvergenceModel::new(cfg_i).unwrap(),
        &ExploreOptions::default(),
    )
    .unwrap();
    let eq = explore(
        &ConvergenceModel::new(cfg_q).unwrap(),
        &ExploreOptions::default(),
    )
    .unwrap();
    let ep = explore(
        &SyncProduct::new(rail_i, rail_q),
        &ExploreOptions::default(),
    )
    .unwrap();

    for t in [1usize, 10, 100] {
        let ri = transient::instantaneous_reward(&ei.dtmc, t);
        let rq = transient::instantaneous_reward(&eq.dtmc, t);
        let rp = transient::instantaneous_reward(&ep.dtmc, t);
        assert!((rp - (ri + rq)).abs() < 1e-10, "t={t}: {rp} vs {ri}+{rq}");
    }
    // Marginal non-convergence of rail I inside the product.
    let pi = transient::distribution_at(&ep.dtmc, 50);
    let label = ep.dtmc.label("l.nonconv").unwrap();
    let marginal: f64 = label.iter_ones().map(|i| pi[i]).sum();
    let direct = {
        let d = transient::distribution_at(&ei.dtmc, 50);
        let lab = ei.dtmc.label("nonconv").unwrap();
        lab.iter_ones().map(|i| d[i]).sum::<f64>()
    };
    assert!((marginal - direct).abs() < 1e-10);
}
