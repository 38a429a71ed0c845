//! A single-action MDP *is* a DTMC: embedding a chain through
//! `smg_mdp::DtmcAsMdp` and checking it with the MDP engine's
//! `Pmin`/`Pmax`/`Rmin`/`Rmax` queries must reproduce the chain's
//! `P=?`/`R=?` answers — min, max and plain all coincide when there is
//! nothing to optimize over. This pins the checker's two engines (forward
//! transient vs backward optimal value iteration, the chain's and the
//! MDP's condensation walks) against each other across the whole query
//! surface, in default and certified mode.

use proptest::prelude::*;
use smg_dtmc::{DtmcModel, ExploreOptions};
use smg_mdp::DtmcAsMdp;
use smg_pctl::{
    check_mdp_query, check_mdp_query_with, check_query, check_query_with, parse_property,
    CheckOptions,
};

/// A deterministic pseudo-random chain with an absorbing "target" state
/// and an "odd" labelling, rich in self-loops and duplicate successors.
#[derive(Debug, Clone)]
struct Scramble {
    n: u32,
    seed: u64,
}

impl Scramble {
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

impl DtmcModel for Scramble {
    type State = u32;

    fn initial_states(&self) -> Vec<(u32, f64)> {
        vec![(0, 1.0)]
    }

    fn transitions(&self, &s: &u32) -> Vec<(u32, f64)> {
        if s == self.n - 1 {
            return vec![(s, 1.0)];
        }
        let fan = 1 + (self.mix(s.into(), 0) % 3) as usize;
        let mut succ = Vec::with_capacity(fan);
        let mut weights = Vec::with_capacity(fan);
        for k in 0..fan {
            let t = (self.mix(s.into(), 1 + k as u64) % u64::from(self.n)) as u32;
            succ.push(t);
            weights.push(1 + self.mix(t.into(), k as u64) % 8);
        }
        let total: u64 = weights.iter().sum();
        succ.into_iter()
            .zip(weights)
            .map(|(t, w)| (t, w as f64 / total as f64))
            .collect()
    }

    fn atomic_propositions(&self) -> Vec<&'static str> {
        vec!["target", "odd"]
    }

    fn holds(&self, ap: &str, &s: &u32) -> bool {
        (ap == "target" && s == self.n - 1) || (ap == "odd" && s % 2 == 1)
    }
}

/// Probability path bodies: checked as `P=?` on the chain and as both
/// `Pmin=?` and `Pmax=?` on the embedded MDP.
const PATHS: &[&str] = &[
    "X odd",
    "F<=4 target",
    "F target",
    "G<=3 !target",
    "G !target",
    "odd U<=5 target",
    "odd U target",
    "F[2,4] target",
    "odd U[1,4] target",
    "G[1,3] !target",
];

/// Reward query bodies: `R=?` vs `Rmin=?`/`Rmax=?`.
const REWARDS: &[&str] = &["I=0", "I=3", "C<=4", "F target", "F (target | odd)"];

/// The unbounded bodies of the certified pass, each with its query form on
/// the chain and its two forms on the embedded MDP.
const CERTIFIED: &[(&str, [&str; 2], &str)] = &[
    ("P", ["Pmin", "Pmax"], "F target"),
    ("P", ["Pmin", "Pmax"], "G !target"),
    ("P", ["Pmin", "Pmax"], "odd U target"),
    ("R", ["Rmin", "Rmax"], "F target"),
    ("R", ["Rmin", "Rmax"], "F (target | odd)"),
];

fn close(a: f64, b: f64) -> bool {
    (a.is_infinite() && b.is_infinite() && a.signum() == b.signum()) || (a - b).abs() < 1e-6
}

/// Whether a certified bracket is narrower than `eps` (an exact `[∞, ∞]`
/// has width 0).
fn narrow((lo, hi): (f64, f64), eps: f64) -> bool {
    lo == hi || hi - lo < eps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn single_action_mdp_reproduces_dtmc_answers(
        n in 2u32..40,
        seed in 0u64..u64::MAX,
    ) {
        let model = Scramble { n, seed };
        let d = smg_dtmc::explore(&model, &ExploreOptions::default()).unwrap();
        let m = smg_mdp::explore(&DtmcAsMdp(model), &ExploreOptions::default()).unwrap();
        prop_assert_eq!(m.mdp.n_states(), d.dtmc.n_states());

        for body in PATHS {
            let plain = check_query(&d.dtmc, &parse_property(&format!("P=? [ {body} ]")).unwrap())
                .unwrap()
                .value();
            for form in ["Pmin", "Pmax"] {
                let prop = parse_property(&format!("{form}=? [ {body} ]")).unwrap();
                let opt = check_mdp_query(&m.mdp, &prop).unwrap().value();
                prop_assert!(
                    close(opt, plain),
                    "{form}=? [ {body} ]: mdp {opt} vs dtmc {plain} (n={n}, seed={seed:#x})"
                );
                // The DTMC checker itself accepts the min/max forms and
                // collapses them to the plain value.
                let collapsed = check_query(&d.dtmc, &prop).unwrap().value();
                prop_assert!(close(collapsed, plain), "{form} collapse on dtmc");
            }
        }
        for body in REWARDS {
            let plain = check_query(&d.dtmc, &parse_property(&format!("R=? [ {body} ]")).unwrap())
                .unwrap()
                .value();
            for form in ["Rmin", "Rmax"] {
                let prop = parse_property(&format!("{form}=? [ {body} ]")).unwrap();
                let opt = check_mdp_query(&m.mdp, &prop).unwrap().value();
                prop_assert!(
                    close(opt, plain),
                    "{form}=? [ {body} ]: mdp {opt} vs dtmc {plain} (n={n}, seed={seed:#x})"
                );
            }
        }
        // Certified brackets from the two engines' walks: each narrower
        // than ε, and overlapping.
        let eps = 1e-9;
        let opts = CheckOptions::certified(eps);
        for (chain_form, mdp_forms, body) in CERTIFIED {
            let prop = parse_property(&format!("{chain_form}=? [ {body} ]")).unwrap();
            let chain = check_query_with(&d.dtmc, &prop, &opts).unwrap().interval().unwrap();
            prop_assert!(narrow(chain, eps), "{chain_form}=? [ {body} ]: {chain:?}");
            for form in mdp_forms {
                let prop = parse_property(&format!("{form}=? [ {body} ]")).unwrap();
                let mdp = check_mdp_query_with(&m.mdp, &prop, &opts)
                    .unwrap()
                    .interval()
                    .unwrap();
                prop_assert!(narrow(mdp, eps), "{form}=? [ {body} ]: {mdp:?}");
                prop_assert!(
                    mdp.0 <= chain.1 && chain.0 <= mdp.1,
                    "{form}=? [ {body} ]: mdp {mdp:?} vs dtmc {chain:?} (n={n}, seed={seed:#x})"
                );
            }
        }
        // Boolean queries agree too.
        for formula in ["!target", "odd | !odd", "target => odd"] {
            let p = parse_property(formula).unwrap();
            let a = check_query(&d.dtmc, &p).unwrap().verdict();
            let b = check_mdp_query(&m.mdp, &p).unwrap().verdict();
            prop_assert_eq!(a, b, "boolean {}", formula);
        }
    }
}
