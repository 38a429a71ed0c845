//! Property-based tests (proptest) over the core machinery: random chains,
//! random formulas, random quantizer/Gaussian parameters.

use proptest::prelude::*;
use statguard_mimo::dtmc::matrix::CsrMatrix;
use statguard_mimo::dtmc::{transient, BitVec, Dtmc, TransitionMatrix};
use statguard_mimo::pctl::{parse_property, Property};
use statguard_mimo::reduce::{check_lumping, lump};
use statguard_mimo::signal::{special, Gaussian, Quantizer};
use std::collections::BTreeMap;

/// Strategy: a random row-stochastic chain with n states, each row having
/// 1..=4 successors, plus a random binary label and 0/1 rewards tied to it.
fn arb_dtmc(max_n: usize) -> impl Strategy<Value = Dtmc> {
    (2..=max_n)
        .prop_flat_map(|n| {
            let row = proptest::collection::vec((0..n as u32, 1u32..=100), 1..=4);
            let rows = proptest::collection::vec(row, n);
            let labels = proptest::collection::vec(any::<bool>(), n);
            (Just(n), rows, labels)
        })
        .prop_map(|(n, raw_rows, labels)| {
            let rows: Vec<Vec<(u32, f64)>> = raw_rows
                .into_iter()
                .map(|r| {
                    let total: u32 = r.iter().map(|&(_, w)| w).sum();
                    r.into_iter()
                        .map(|(c, w)| (c, w as f64 / total as f64))
                        .collect()
                })
                .collect();
            let matrix = TransitionMatrix::Sparse(CsrMatrix::from_rows(rows).unwrap());
            let mut label_map = BTreeMap::new();
            label_map.insert("mark".to_string(), BitVec::from_fn(n, |i| labels[i]));
            let rewards: Vec<f64> = (0..n).map(|i| if labels[i] { 1.0 } else { 0.0 }).collect();
            Dtmc::new(matrix, vec![(0, 1.0)], label_map, rewards).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Forward propagation conserves probability mass.
    #[test]
    fn forward_preserves_mass(d in arb_dtmc(12), t in 0usize..30) {
        let pi = transient::distribution_at(&d, t);
        let total: f64 = pi.iter().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass = {total}");
        prop_assert!(pi.iter().all(|&p| p >= -1e-15));
    }

    /// Bounded reachability is monotone in the horizon and bounded by 1.
    #[test]
    fn bounded_reach_monotone(d in arb_dtmc(12)) {
        let target = d.label("mark").unwrap().clone();
        let mut prev = 0.0;
        for t in 0..20 {
            let p = transient::bounded_reach_prob(&d, &target, t).unwrap();
            prop_assert!(p >= prev - 1e-12, "t={t}: {p} < {prev}");
            prop_assert!(p <= 1.0 + 1e-12);
            prev = p;
        }
    }

    /// G<=t φ and F<=t ¬φ are complementary.
    #[test]
    fn globally_finally_duality(d in arb_dtmc(12), t in 0usize..20) {
        let mark = d.label("mark").unwrap().clone();
        let g = transient::bounded_globally_prob(&d, &mark.not(), t).unwrap();
        let f = transient::bounded_reach_prob(&d, &mark, t).unwrap();
        prop_assert!((g + f - 1.0).abs() < 1e-9);
    }

    /// Forward (initial-state) and backward (per-state) bounded-until agree.
    #[test]
    fn forward_backward_until_agree(d in arb_dtmc(10), t in 0usize..15) {
        let all = BitVec::ones(d.n_states());
        let mark = d.label("mark").unwrap().clone();
        let fwd = transient::bounded_until_prob(&d, &all, &mark, t).unwrap();
        let vals = transient::bounded_until_values(&d, &all, &mark, t).unwrap();
        let bwd: f64 = d.initial().iter().map(|&(s, p)| p * vals[s as usize]).sum();
        prop_assert!((fwd - bwd).abs() < 1e-9, "fwd {fwd} vs bwd {bwd}");
    }

    /// The coarsest lumping is always certified and its quotient preserves
    /// instantaneous rewards at every horizon.
    #[test]
    fn lumping_always_sound(d in arb_dtmc(10)) {
        let p = lump::coarsest_lumping(&d);
        prop_assert!(check_lumping(&d, &p).is_ok());
        let q = lump::quotient(&d, &p).unwrap();
        for t in [0usize, 1, 3, 7] {
            let a = transient::instantaneous_reward(&d, t);
            let b = transient::instantaneous_reward(&q, t);
            prop_assert!((a - b).abs() < 1e-9, "t={t}: {a} vs {b}");
        }
    }

    /// Quantizing any Gaussian yields a normalized mass function whose mean
    /// tracks the distribution's mean.
    #[test]
    fn quantizer_discretization_normalized(
        mean in -3.0f64..3.0,
        var in 0.01f64..4.0,
        levels in 2usize..16,
        range in 0.5f64..5.0,
    ) {
        let q = Quantizer::symmetric(levels, range).unwrap();
        let g = Gaussian::new(mean, var).unwrap();
        let pmf = q.discretize(&g);
        let total: f64 = pmf.iter().map(|&(_, p)| p).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(pmf.iter().all(|&(_, p)| p >= 0.0));
        // Quantized mean within half a cell + clipping error of the true mean.
        let qmean: f64 = pmf.iter().map(|&(l, p)| q.level_value(l) * p).sum();
        let clipped = mean.clamp(-range, range);
        prop_assert!((qmean - clipped).abs() < q.step() + 3.0 * var.sqrt());
    }

    /// Monotone CDF: phi and erf are monotone over random pairs.
    #[test]
    fn special_functions_monotone(a in -6.0f64..6.0, b in -6.0f64..6.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(special::phi(lo) <= special::phi(hi) + 1e-15);
        prop_assert!(special::erf(lo) <= special::erf(hi) + 1e-15);
    }

    /// inv_phi is the right inverse of phi across the open unit interval.
    #[test]
    fn inv_phi_right_inverse(p in 1e-6f64..0.999999) {
        let x = special::inv_phi(p);
        prop_assert!((special::phi(x) - p).abs() < 1e-9);
    }

    /// Parser round trip: printing any parsed property reparses to the same
    /// AST (tested over a grammar-shaped pool of strings).
    #[test]
    fn parser_round_trip(
        ap1 in "[a-z][a-z0-9_]{0,6}",
        ap2 in "[a-z][a-z0-9_]{0,6}",
        t in 0u64..5000,
        kind in 0usize..6,
    ) {
        let text = match kind {
            0 => format!("P=? [ G<={t} !{ap1} ]"),
            1 => format!("P=? [ F<={t} {ap1} ]"),
            2 => format!("R=? [ I={t} ]"),
            3 => format!("P=? [ {ap1} U<={t} {ap2} ]"),
            4 => format!("S=? [ {ap1} & !{ap2} ]"),
            _ => format!("P=? [ X ({ap1} | {ap2}) ]"),
        };
        let parsed: Property = parse_property(&text).unwrap();
        let reparsed = parse_property(&parsed.to_string()).unwrap();
        prop_assert_eq!(parsed, reparsed, "{}", text);
    }

    /// PRISM explicit-format round trip: exporting any chain to
    /// .tra/.lab/.srew and importing the text back reproduces the chain
    /// exactly (structure, initial distribution, labels, rewards).
    #[test]
    fn explicit_files_round_trip(d in arb_dtmc(12)) {
        use statguard_mimo::dtmc::{export, import};
        let back = import::from_explicit(
            &export::to_tra(&d),
            Some(&export::to_lab(d.n_states(), d.initial(), d.labels())),
            Some(&export::to_srew(d.rewards())),
        )
        .unwrap();
        prop_assert_eq!(back.n_states(), d.n_states());
        prop_assert_eq!(back.initial(), d.initial());
        prop_assert_eq!(back.rewards(), d.rewards());
        for s in 0..d.n_states() {
            let a = back.matrix().successors(s);
            let b = d.matrix().successors(s);
            prop_assert_eq!(a.len(), b.len(), "row {}", s);
            for ((ca, pa), (cb, pb)) in a.iter().zip(&b) {
                prop_assert_eq!(ca, cb);
                // .tra prints probabilities with `{}`; f64 Display is
                // shortest-round-trip, so values come back bit-identical.
                prop_assert_eq!(pa, pb);
            }
        }
        prop_assert_eq!(
            back.label("mark").unwrap().iter_ones().collect::<Vec<_>>(),
            d.label("mark").unwrap().iter_ones().collect::<Vec<_>>()
        );
    }

    /// Guarded-command round trip: program_text of any chain recompiles to
    /// a chain with identical transient rewards (the P2 read-out) even
    /// though state numbering may differ.
    #[test]
    fn program_text_round_trip(d in arb_dtmc(10), t in 0usize..20) {
        use statguard_mimo::lang;
        let text = lang::program_text(&d);
        let compiled = lang::compile(lang::check(lang::parse(&text).unwrap()).unwrap()).unwrap();
        // Random chains may contain states unreachable from state 0; the
        // compiler's BFS drops those, so it can only shrink the space.
        prop_assert!(compiled.dtmc.n_states() <= d.n_states());
        let a = transient::instantaneous_reward(&d, t);
        let b = transient::instantaneous_reward(&compiled.dtmc, t);
        prop_assert!((a - b).abs() < 1e-9, "t={}: {} vs {}", t, a, b);
    }

    /// The reachability-reward solver agrees with a closed form on random
    /// single-parameter geometric chains, and is monotone in p.
    #[test]
    fn reach_reward_geometric_closed_form(w in 1u32..100) {
        use statguard_mimo::pctl::check_query;
        let p = f64::from(w) / 100.0;
        let matrix = TransitionMatrix::Sparse(CsrMatrix::from_rows(vec![
            vec![(0, 1.0 - p), (1, p)],
            vec![(1, 1.0)],
        ]).unwrap());
        let mut labels = BTreeMap::new();
        labels.insert("t".to_string(), BitVec::from_fn(2, |i| i == 1));
        let d = Dtmc::new(matrix, vec![(0, 1.0)], labels, vec![1.0, 0.0]).unwrap();
        let r = check_query(&d, &parse_property("R=? [ F t ]").unwrap())
            .unwrap()
            .value();
        prop_assert!((r - 1.0 / p).abs() < 1e-6 * (1.0 / p), "p={}: r={}", p, r);
    }
}
