//! The checker's MDP-side tests: `Pmin`/`Pmax`/`Rmin`/`Rmax` against
//! closed forms and scheduler enumeration, the rejected ambiguous forms,
//! and certified brackets. The checker itself is [`crate::check`], one
//! evaluator for both model classes; this test-only module keeps the
//! tests at their `mdp::tests` paths.

mod tests {
    use crate::check::{check_mdp_query, check_mdp_query_with, CheckOptions, Solver};
    use crate::error::PctlError;
    use crate::parser::parse_property;
    use smg_dtmc::BitVec;
    use smg_mdp::{Mdp, MdpBuilder};
    use std::collections::BTreeMap;

    /// The DTMC checker's gadget with an added adversary choice in state 0:
    /// action 0 behaves like the original chain (0 → {1: ½, 2: ½}), action
    /// 1 restarts (0 → 0). States: 0 start, 1 middle, 2 "bad" absorbing,
    /// 3 "goal" absorbing; 1 → {3: ½, 0: ½}.
    fn gadget_mdp() -> Mdp {
        let mut b = MdpBuilder::default();
        b.push_action(&mut [(1, 0.5), (2, 0.5)]).unwrap();
        b.push_action(&mut [(0, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 0.5), (0, 0.5)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(2, 1.0)]).unwrap();
        b.finish_state().unwrap();
        b.push_action(&mut [(3, 1.0)]).unwrap();
        b.finish_state().unwrap();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(4, |i| i == 3));
        labels.insert("bad".to_string(), BitVec::from_fn(4, |i| i == 2));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, vec![0.0, 0.0, 0.0, 1.0]).unwrap()
    }

    fn q(mdp: &Mdp, prop: &str) -> f64 {
        check_mdp_query(mdp, &parse_property(prop).unwrap())
            .unwrap()
            .value()
    }

    #[test]
    fn unbounded_min_max_reach() {
        let m = gadget_mdp();
        // Max: restarting is useless (same 1/3 as the DTMC); the optimum
        // solves p = ½(½ + ½p) → p = 1/3.
        let pmax = q(&m, "Pmax=? [ F goal ]");
        assert!((pmax - 1.0 / 3.0).abs() < 1e-9, "pmax = {pmax}");
        // Min: the adversary restarts forever and never reaches goal.
        assert_eq!(q(&m, "Pmin=? [ F goal ]"), 0.0);
        // Dually for bad.
        assert_eq!(q(&m, "Pmin=? [ F bad ]"), 0.0);
        let pmax_bad = q(&m, "Pmax=? [ F bad ]");
        assert!((pmax_bad - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn globally_duality() {
        let m = gadget_mdp();
        // Pmax[G !bad] = 1 - Pmin[F bad] = 1 (restart forever).
        assert_eq!(q(&m, "Pmax=? [ G !bad ]"), 1.0);
        // Pmin[G !bad] = 1 - Pmax[F bad] = 1/3.
        let pmin_g = q(&m, "Pmin=? [ G !bad ]");
        assert!((pmin_g - 1.0 / 3.0).abs() < 1e-9);
        // Bounded variant.
        let g2 = q(&m, "Pmin=? [ G<=2 !bad ]");
        assert!((g2 - 0.5).abs() < 1e-12, "g2 = {g2}");
    }

    #[test]
    fn bounded_and_interval_untils() {
        let m = gadget_mdp();
        assert_eq!(q(&m, "Pmax=? [ F<=1 goal ]"), 0.0);
        assert!((q(&m, "Pmax=? [ F<=2 goal ]") - 0.25).abs() < 1e-12);
        assert!((q(&m, "Pmax=? [ F<=4 goal ]") - 0.3125).abs() < 1e-12);
        // F[0,t] coincides with F<=t.
        for t in [0u64, 1, 2, 5] {
            let a = q(&m, &format!("Pmax=? [ F[0,{t}] goal ]"));
            let b = q(&m, &format!("Pmax=? [ F<={t} goal ]"));
            assert!((a - b).abs() < 1e-12, "t={t}: {a} vs {b}");
        }
        // Next: one optimal step.
        assert!((q(&m, "Pmax=? [ X bad ]") - 0.5).abs() < 1e-12);
        assert_eq!(q(&m, "Pmin=? [ X bad ]"), 0.0);
        // Until with a constraining lhs: forbidden middle state kills the
        // only path to goal.
        assert_eq!(q(&m, "Pmax=? [ (goal | bad) U goal ]"), 0.0);
    }

    #[test]
    fn reward_queries() {
        let m = gadget_mdp();
        // Instantaneous reward = P(in goal at exactly t) optimized; the
        // restart action lets the adversary pin it to 0.
        assert_eq!(q(&m, "Rmin=? [ I=5 ]"), 0.0);
        let rmax = q(&m, "Rmax=? [ I=4 ]");
        assert!((rmax - 0.3125).abs() < 1e-12, "rmax = {rmax}");
        // Cumulative: goal is absorbing with reward 1, so Rmax grows with
        // the horizon while Rmin stays 0.
        assert_eq!(q(&m, "Rmin=? [ C<=10 ]"), 0.0);
        assert!(q(&m, "Rmax=? [ C<=10 ]") > 1.0);
        // Reach rewards: reaching (goal|bad) is possible but not certain
        // under the worst scheduler (restart forever) → Rmax = ∞; the best
        // scheduler reaches it with certainty without collecting reward.
        assert_eq!(q(&m, "Rmax=? [ F (goal | bad) ]"), f64::INFINITY);
        assert_eq!(q(&m, "Rmin=? [ F (goal | bad) ]"), 0.0);
    }

    #[test]
    fn boolean_queries_work_and_ambiguous_forms_error() {
        let m = gadget_mdp();
        let r = check_mdp_query(&m, &parse_property("!goal").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true));
        let r = check_mdp_query(&m, &parse_property("goal | !bad").unwrap()).unwrap();
        assert_eq!(r.verdict(), Some(true));
        for bad in ["P=? [ F goal ]", "R=? [ I=3 ]", "S=? [ goal ]"] {
            let e = check_mdp_query(&m, &parse_property(bad).unwrap()).unwrap_err();
            assert!(matches!(e, PctlError::Unsupported { .. }), "{bad}: {e}");
        }
        let e = check_mdp_query(&m, &parse_property("P>=0.5 [ F goal ]").unwrap()).unwrap_err();
        assert!(matches!(e, PctlError::Unsupported { .. }));
        let e = check_mdp_query(&m, &parse_property("Pmax=? [ F nope ]").unwrap()).unwrap_err();
        assert!(matches!(e, PctlError::Dtmc(_)));
    }

    #[test]
    fn certified_mdp_queries_bracket_and_report_solver() {
        let m = gadget_mdp();
        let opts = CheckOptions::certified(1e-9);
        let cases = [
            ("Pmax=? [ F goal ]", 1.0 / 3.0),
            ("Pmin=? [ F goal ]", 0.0),
            ("Pmax=? [ G !bad ]", 1.0),
            ("Pmin=? [ G !bad ]", 1.0 / 3.0),
            ("Rmin=? [ F (goal | bad) ]", 0.0),
        ];
        for (prop, want) in cases {
            let r = check_mdp_query_with(&m, &parse_property(prop).unwrap(), &opts).unwrap();
            assert_eq!(r.solver(), Solver::IntervalIteration, "{prop}");
            let (lo, hi) = r.interval().unwrap();
            assert!(hi - lo < 1e-9, "{prop}: width {}", hi - lo);
            assert!(
                lo <= want + 1e-12 && want <= hi + 1e-12,
                "{prop}: [{lo}, {hi}] vs {want}"
            );
        }
        // Rmax [F goal|bad]: the adversary can restart forever → ∞.
        let r = check_mdp_query_with(
            &m,
            &parse_property("Rmax=? [ F (goal | bad) ]").unwrap(),
            &opts,
        )
        .unwrap();
        assert_eq!(r.interval(), Some((f64::INFINITY, f64::INFINITY)));
        // Bounded forms stay exact arithmetic with a degenerate interval.
        let r = check_mdp_query_with(&m, &parse_property("Pmax=? [ F<=4 goal ]").unwrap(), &opts)
            .unwrap();
        assert_eq!(r.solver(), Solver::Transient);
        assert_eq!(r.interval(), Some((r.value(), r.value())));
        // Uncertified unbounded queries claim no bound.
        let r = check_mdp_query(&m, &parse_property("Pmax=? [ F goal ]").unwrap()).unwrap();
        assert_eq!(r.solver(), Solver::Iterative);
        assert_eq!(r.interval(), None);
    }

    #[test]
    fn topological_certified_mdp_matches_and_tags() {
        // Both modes walk the same condensation: the certified midpoint
        // matches the default walk's value (∞ pinned alike).
        let m = gadget_mdp();
        let certified = CheckOptions::certified(1e-9);
        for prop in [
            "Pmax=? [ F goal ]",
            "Pmin=? [ F goal ]",
            "Pmax=? [ G !bad ]",
            "Pmin=? [ G !bad ]",
            "Rmin=? [ F (goal | bad) ]",
            "Rmax=? [ F (goal | bad) ]", // ∞ pinning must agree too
        ] {
            let p = parse_property(prop).unwrap();
            let plain = check_mdp_query(&m, &p).unwrap();
            let c = check_mdp_query_with(&m, &p, &certified).unwrap();
            assert_eq!(plain.solver(), Solver::Iterative, "{prop}");
            assert_eq!(c.solver(), Solver::IntervalIteration, "{prop}");
            let (lo, hi) = c.interval().unwrap();
            if c.value().is_finite() {
                assert!(hi - lo < 1e-9, "{prop}");
                assert!((c.value() - plain.value()).abs() < 1e-9, "{prop}");
            } else {
                assert_eq!((lo, hi), (f64::INFINITY, f64::INFINITY), "{prop}");
                assert_eq!(c.value(), plain.value(), "{prop}");
            }
        }
    }

    /// A one-action MDP from explicit rows, starting in state 0, with a
    /// "goal" label and per-state rewards.
    fn one_action(rows: &[&[(u32, f64)]], goal: usize, rewards: Vec<f64>) -> Mdp {
        let mut b = MdpBuilder::default();
        for row in rows {
            b.push_action(&mut row.to_vec()).unwrap();
            b.finish_state().unwrap();
        }
        let n = rows.len();
        let mut labels = BTreeMap::new();
        labels.insert("goal".to_string(), BitVec::from_fn(n, |i| i == goal));
        Mdp::new(b.finish(), vec![(0, 1.0)], labels, rewards).unwrap()
    }

    #[test]
    fn reward_region_comes_from_the_graph() {
        // The DTMC checker's near-certain chain as a one-action MDP: the
        // 1e-10 escape to a dead end makes both optima infinite.
        let m = one_action(
            &[&[(1, 0.9999999999), (2, 1e-10)], &[(1, 1.0)], &[(2, 1.0)]],
            1,
            vec![1.0, 0.0, 0.0],
        );
        assert_eq!(q(&m, "Rmin=? [ F goal ]"), f64::INFINITY);
        assert_eq!(q(&m, "Rmax=? [ F goal ]"), f64::INFINITY);
    }

    #[test]
    fn sticky_self_loop_is_solved_in_closed_form() {
        let m = one_action(
            &[&[(0, 0.9999999999999), (1, 1e-13)], &[(1, 1.0)]],
            1,
            vec![1.0, 0.0],
        );
        for prop in ["Pmin=? [ F goal ]", "Pmax=? [ F goal ]"] {
            let p = q(&m, prop);
            assert!((p - 1.0).abs() < 1e-9, "{prop} = {p}");
        }
        for prop in ["Rmin=? [ F goal ]", "Rmax=? [ F goal ]"] {
            let r = q(&m, prop);
            assert!((r / 1e13 - 1.0).abs() < 1e-9, "{prop} = {r}");
        }
    }

    #[test]
    fn min_max_bracket_every_memoryless_scheduler() {
        let m = gadget_mdp();
        let goal = m.label("goal").unwrap().clone();
        let pmin = q(&m, "Pmin=? [ F goal ]");
        let pmax = q(&m, "Pmax=? [ F goal ]");
        // Enumerate both memoryless schedulers of state 0 (other states
        // have one action); their DTMC values must lie in [pmin, pmax],
        // with the extremes attained.
        let mut vals = Vec::new();
        for a0 in 0..2u32 {
            let d = m.induced_dtmc(&[a0, 0, 0, 0]).unwrap();
            let cond = smg_dtmc::graph::Condensation::new(&d);
            let v = smg_dtmc::solve::topo_reach_values(&d, &cond, &goal, 1e-12, 1_000_000).unwrap();
            let p: f64 = d.initial().iter().map(|&(s, w)| w * v[s as usize]).sum();
            vals.push(p);
            assert!(p >= pmin - 1e-9 && p <= pmax + 1e-9, "a0={a0}: {p}");
        }
        let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = vals.iter().cloned().fold(0.0, f64::max);
        assert!((lo - pmin).abs() < 1e-9 && (hi - pmax).abs() < 1e-9);
    }
}
