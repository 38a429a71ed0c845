//! The [`SyncProduct`] test helper against the laws of synchronous
//! composition: probabilities factorize, rewards add, each component's
//! marginal equals the component alone, and lumping the product is no
//! coarser than the product of the component quotients.

mod support;

use statguard_mimo::dtmc::{explore, transient, DtmcModel, ExploreOptions};
use statguard_mimo::reduce::coarsest_lumping;
use support::SyncProduct;

#[derive(Clone)]
struct Coin(f64);
impl DtmcModel for Coin {
    type State = bool;
    fn initial_states(&self) -> Vec<(bool, f64)> {
        vec![(false, 1.0)]
    }
    fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
        vec![(false, 1.0 - self.0), (true, self.0)]
    }
    fn atomic_propositions(&self) -> Vec<&'static str> {
        vec!["heads"]
    }
    fn holds(&self, ap: &str, s: &bool) -> bool {
        ap == "heads" && *s
    }
}

#[test]
fn product_probabilities_factorize() {
    let p = SyncProduct::new(Coin(0.3), Coin(0.6));
    let succ = p.transitions(&(false, false));
    let total: f64 = succ.iter().map(|&(_, x)| x).sum();
    assert!((total - 1.0).abs() < 1e-12);
    let both = succ
        .iter()
        .find(|((l, r), _)| *l && *r)
        .map(|&(_, x)| x)
        .unwrap();
    assert!((both - 0.18).abs() < 1e-12);
}

#[test]
fn product_rewards_add_and_aps_namespace() {
    let p = SyncProduct::new(Coin(0.5), Coin(0.5));
    assert_eq!(p.state_reward(&(true, true)), 2.0);
    assert_eq!(p.state_reward(&(true, false)), 1.0);
    assert!(p.holds("l.heads", &(true, false)));
    assert!(!p.holds("r.heads", &(true, false)));
    assert!(
        !p.holds("heads", &(true, true)),
        "unprefixed AP resolves to neither"
    );
    let aps = p.atomic_propositions();
    assert!(aps.contains(&"l.heads") && aps.contains(&"r.heads"));
}

#[test]
fn product_marginals_match_components() {
    // The marginal of each component inside the product equals the
    // component analyzed alone.
    let left = Coin(0.3);
    let right = Coin(0.7);
    let el = explore(&left, &ExploreOptions::default()).unwrap();
    let p = SyncProduct::new(left, right);
    let ep = explore(&p, &ExploreOptions::default()).unwrap();
    for t in [1usize, 3, 10] {
        let dl = transient::distribution_at(&el.dtmc, t);
        let dp = transient::distribution_at(&ep.dtmc, t);
        // P(left = heads) from the product:
        let mut lp = 0.0;
        for (i, (ls, _)) in ep.states.iter().enumerate() {
            if *ls {
                lp += dp[i];
            }
        }
        let direct = dl[el.id_of(&true).unwrap() as usize];
        assert!((lp - direct).abs() < 1e-12, "t={t}");
    }
}

#[test]
fn expected_reward_is_sum_of_component_rewards() {
    let a = Coin(0.2);
    let b = Coin(0.9);
    let ea = explore(&a, &ExploreOptions::default()).unwrap();
    let eb = explore(&b, &ExploreOptions::default()).unwrap();
    let ep = explore(&SyncProduct::new(a, b), &ExploreOptions::default()).unwrap();
    for t in [0usize, 1, 5] {
        let ra = transient::instantaneous_reward(&ea.dtmc, t);
        let rb = transient::instantaneous_reward(&eb.dtmc, t);
        let rp = transient::instantaneous_reward(&ep.dtmc, t);
        assert!((rp - (ra + rb)).abs() < 1e-12, "t={t}");
    }
}

#[test]
fn composition_commutes_with_lumping() {
    // Composing two lumpable components: lumping the product gives a
    // space no larger than the product of the component quotients.
    #[derive(Clone)]
    struct Redundant;
    impl DtmcModel for Redundant {
        type State = u8;
        fn initial_states(&self) -> Vec<(u8, f64)> {
            vec![(0, 1.0)]
        }
        fn transitions(&self, s: &u8) -> Vec<(u8, f64)> {
            match s {
                0 => vec![(1, 0.5), (2, 0.5)], // 1 and 2 are twins
                _ => vec![(0, 1.0)],
            }
        }
        fn atomic_propositions(&self) -> Vec<&'static str> {
            vec!["back"]
        }
        fn holds(&self, ap: &str, s: &u8) -> bool {
            ap == "back" && *s == 0
        }
    }
    let comp = explore(&Redundant, &ExploreOptions::default()).unwrap();
    let comp_blocks = coarsest_lumping(&comp.dtmc).block_count();
    assert_eq!(comp_blocks, 2);
    let prod = explore(
        &SyncProduct::new(Redundant, Redundant),
        &ExploreOptions::default(),
    )
    .unwrap();
    let prod_blocks = coarsest_lumping(&prod.dtmc).block_count();
    assert!(
        prod_blocks <= comp_blocks * comp_blocks,
        "{prod_blocks} > {}",
        comp_blocks * comp_blocks
    );
}
