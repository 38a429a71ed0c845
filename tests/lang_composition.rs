//! Compositional modeling — the paper's stated future work ("for larger
//! MIMO systems, we plan to explore a compositional approach") — checked
//! two independent ways:
//!
//! 1. the language's multi-module synchronous semantics against the
//!    native [`SyncProduct`] test helper, transition-for-transition;
//! 2. the automatic coarsest-lumping engine against the symmetry that
//!    synchronous composition of identical components creates.

mod support;

use statguard_mimo::dtmc::{explore, transient, DtmcModel, ExploreOptions};
use statguard_mimo::lang;
use statguard_mimo::pctl::{check_query, parse_property};
use statguard_mimo::reduce::{coarsest_lumping, quotient};
use support::SyncProduct;

/// A one-bit noisy channel as a native model.
#[derive(Clone)]
struct Channel {
    p_err: f64,
}

impl DtmcModel for Channel {
    type State = bool;
    fn initial_states(&self) -> Vec<(bool, f64)> {
        vec![(false, 1.0)]
    }
    fn transitions(&self, _: &bool) -> Vec<(bool, f64)> {
        vec![(true, self.p_err), (false, 1.0 - self.p_err)]
    }
    fn atomic_propositions(&self) -> Vec<&'static str> {
        vec!["err"]
    }
    fn holds(&self, ap: &str, s: &bool) -> bool {
        ap == "err" && *s
    }
}

fn channel_pair_src(p1: f64, p2: f64) -> String {
    format!(
        "dtmc
         module rail_i
           err_i : bool init false;
           [] true -> {p1:?}:(err_i'=true) + {:?}:(err_i'=false);
         endmodule
         module rail_q
           err_q : bool init false;
           [] true -> {p2:?}:(err_q'=true) + {:?}:(err_q'=false);
         endmodule
         label \"any\" = err_i | err_q;
         label \"both\" = err_i & err_q;
         rewards (err_i & err_q) : 1; endrewards",
        1.0 - p1,
        1.0 - p2
    )
}

#[test]
fn two_module_program_equals_native_sync_product() {
    let (p1, p2) = (0.1, 0.25);
    let native = SyncProduct::new(Channel { p_err: p1 }, Channel { p_err: p2 });
    let native_dtmc = explore(&native, &ExploreOptions::default()).unwrap().dtmc;
    let compiled =
        lang::compile(lang::check(lang::parse(&channel_pair_src(p1, p2)).unwrap()).unwrap())
            .unwrap();

    assert_eq!(compiled.dtmc.n_states(), native_dtmc.n_states());
    // P(both rails err at step t) = p1·p2 for every t ≥ 1.
    let pi = transient::distribution_at(&compiled.dtmc, 4);
    let mass: f64 = compiled
        .dtmc
        .label("both")
        .unwrap()
        .iter_ones()
        .map(|i| pi[i])
        .sum();
    assert!((mass - p1 * p2).abs() < 1e-12, "mass {mass}");
    // The native product namespaces APs as l.err / r.err; compare the
    // joint-error probability query on each.
    let q_native = check_query(
        &native_dtmc,
        &parse_property("P=? [ F<=8 (l.err & r.err) ]").unwrap(),
    )
    .unwrap()
    .value();
    let q_lang = check_query(
        &compiled.dtmc,
        &parse_property("P=? [ F<=8 both ]").unwrap(),
    )
    .unwrap()
    .value();
    assert!(
        (q_native - q_lang).abs() < 1e-12,
        "native {q_native} vs language {q_lang}"
    );
}

#[test]
fn identical_components_create_lumpable_symmetry() {
    // Two *identical* rails: the product chain is symmetric under swapping
    // them, so states (e,!e) and (!e,e) are bisimilar once labels are
    // symmetric too. Use a symmetric label ("exactly one error") so the
    // coarsest lumping can merge the mixed states.
    let p = 0.2;
    let src = format!(
        "dtmc
         module a ea : bool; [] true -> {p}:(ea'=true) + {:?}:(ea'=false); endmodule
         module b eb : bool; [] true -> {p}:(eb'=true) + {:?}:(eb'=false); endmodule
         label \"one\" = (ea & !eb) | (!ea & eb);
         label \"two\" = ea & eb;
         rewards (ea & !eb) | (!ea & eb) : 1; endrewards",
        1.0 - p,
        1.0 - p
    );
    let compiled = lang::compile(lang::check(lang::parse(&src).unwrap()).unwrap()).unwrap();
    let n = compiled.dtmc.n_states();
    assert_eq!(n, 4);
    let partition = coarsest_lumping(&compiled.dtmc);
    // (t,f) and (f,t) collapse: 3 blocks from 4 states.
    assert_eq!(partition.block_count(), 3);
    let q = quotient(&compiled.dtmc, &partition).unwrap();
    // Property values are preserved by the quotient.
    for prop in ["R=? [ I=6 ]", "P=? [ F<=4 two ]", "S=? [ one ]"] {
        let a = check_query(&compiled.dtmc, &parse_property(prop).unwrap())
            .unwrap()
            .value();
        let b = check_query(&q, &parse_property(prop).unwrap())
            .unwrap()
            .value();
        assert!((a - b).abs() < 1e-9, "{prop}: full {a} vs quotient {b}");
    }
}

#[test]
fn composition_scales_multiplicatively_until_lumped() {
    // k identical rails → 2^k states; after lumping, k+1 (the error
    // count is a sufficient statistic). This is exactly the paper's
    // symmetry-reduction story (2·N_R interchangeable blocks → multiset).
    for k in [2usize, 3, 4] {
        let mut src = String::from("dtmc\n");
        for i in 0..k {
            src.push_str(&format!(
                "module m{i} e{i} : bool; [] true -> 0.125:(e{i}'=true) + 0.875:(e{i}'=false); endmodule\n"
            ));
        }
        let all: Vec<String> = (0..k).map(|i| format!("e{i}")).collect();
        src.push_str(&format!("label \"all\" = {};\n", all.join(" & ")));
        // Symmetric reward: the number of errored rails.
        for i in 0..k {
            src.push_str(&format!("rewards \"r{i}\" e{i} : 1; endrewards\n"));
        }
        src.push_str(&format!(
            "rewards {} : 1; endrewards\n",
            (0..k)
                .map(|i| format!("e{i}"))
                .collect::<Vec<_>>()
                .join(" & ")
        ));
        let compiled = lang::compile(lang::check(lang::parse(&src).unwrap()).unwrap()).unwrap();
        assert_eq!(compiled.dtmc.n_states(), 1 << k);
        let partition = coarsest_lumping(&compiled.dtmc);
        assert!(
            partition.block_count() <= k + 2,
            "k={k}: {} blocks",
            partition.block_count()
        );
        // All-rails-wrong probability at any step ≥1 is 0.125^k.
        let v = check_query(&compiled.dtmc, &parse_property("R=? [ I=5 ]").unwrap())
            .unwrap()
            .value();
        assert!((v - 0.125f64.powi(k as i32)).abs() < 1e-12, "k={k}: {v}");
    }
}
