//! Lane-count independence of `.sm` compilation: a program compiles to
//! the same model, or fails with the same error, whether its BFS levels
//! run on one lane or are forced onto the explorers' parallel path at 2
//! and 4 lanes.

use crate::model::{explore_dtmc, explore_mdp, CompiledMdp, CompiledModel};
use crate::{check, parse, ExpandOptions, LangError, LangModel};
use proptest::prelude::*;
use smg_dtmc::ExploreOptions;

#[path = "../tests/programs/mod.rs"]
mod programs;

/// The wide fixture: three saturating counters whose BFS levels reach
/// [`WIDE_LEVEL`] states.
const COUNTERS: &str = include_str!("../../../examples/models/counters.sm");

/// A level width at which every chunk of a forced parallel level at 4
/// lanes carries hundreds of states.
const WIDE_LEVEL: usize = 1_024;

/// One lane, then parallel levels forced at 2 and 4 lanes.
fn lane_configs() -> [ExploreOptions; 3] {
    let base = ExpandOptions::default().explore_options();
    [
        base.clone().with_threads(1),
        base.clone().with_threads(2).with_par_min_level(1),
        base.with_threads(4).with_par_min_level(1),
    ]
}

/// Everything a compiled chain carries, as comparable bits.
fn dtmc_bits(m: &CompiledModel) -> Vec<u64> {
    let mut out = Vec::new();
    for s in &m.states {
        out.extend(s.iter().map(|&v| v as u64));
    }
    for s in 0..m.dtmc.n_states() {
        for (c, p) in m.dtmc.matrix().successors(s) {
            out.extend([u64::from(c), p.to_bits()]);
        }
        out.push(u64::MAX);
    }
    for &(id, p) in m.dtmc.initial() {
        out.extend([u64::from(id), p.to_bits()]);
    }
    for name in m.dtmc.label_names() {
        out.extend(m.dtmc.label(name).unwrap().iter_ones().map(|i| i as u64));
        out.push(u64::MAX);
    }
    out.extend(m.dtmc.rewards().iter().map(|r| r.to_bits()));
    for v in m.named_rewards.values() {
        out.extend(v.iter().map(|r| r.to_bits()));
    }
    out
}

/// Everything a compiled MDP carries, as comparable bits.
fn mdp_bits(m: &CompiledMdp) -> Vec<u64> {
    let mut out = Vec::new();
    for s in &m.states {
        out.extend(s.iter().map(|&v| v as u64));
    }
    for s in 0..m.mdp.n_states() {
        for a in 0..m.mdp.action_count(s) {
            for (c, p) in m.mdp.action_row(s, a) {
                out.extend([u64::from(c), p.to_bits()]);
            }
            out.push(u64::MAX);
        }
        out.push(u64::MAX - 1);
    }
    for &(id, p) in m.mdp.initial() {
        out.extend([u64::from(id), p.to_bits()]);
    }
    for name in m.mdp.label_names() {
        out.extend(m.mdp.label(name).unwrap().iter_ones().map(|i| i as u64));
        out.push(u64::MAX);
    }
    out.extend(m.mdp.rewards().iter().map(|r| r.to_bits()));
    for v in m.named_rewards.values() {
        out.extend(v.iter().map(|r| r.to_bits()));
    }
    out
}

/// Compiles `src` under both semantics at every lane configuration and
/// asserts that each family's outcome is the same at every one. Returns
/// the one-lane outcomes.
fn compile_at_every_lane_count(
    src: &str,
) -> (Result<Vec<u64>, LangError>, Result<Vec<u64>, LangError>) {
    let checked = check(parse(src).unwrap()).unwrap();
    let options = ExpandOptions::default();
    let outcomes: Vec<_> = lane_configs()
        .iter()
        .map(|explore| {
            let dtmc = explore_dtmc(checked.clone(), options, explore).map(|m| dtmc_bits(&m));
            let mdp = explore_mdp(checked.clone(), options, explore).map(|m| mdp_bits(&m));
            (dtmc, mdp)
        })
        .collect();
    for (lanes, outcome) in [2, 4].iter().zip(&outcomes[1..]) {
        assert!(
            outcome.0 == outcomes[0].0,
            "dtmc compile differs at {lanes} lanes"
        );
        assert!(
            outcome.1 == outcomes[0].1,
            "mdp compile differs at {lanes} lanes"
        );
    }
    outcomes.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_programs_compile_identically_at_every_lane_count(
        (_hi, src) in programs::counter_programs()
    ) {
        let (dtmc, mdp) = compile_at_every_lane_count(&src);
        prop_assert!(dtmc.is_ok() && mdp.is_ok(), "{src}");
    }
}

/// The counters fixture's states in BFS order, each with its BFS level
/// (the largest counter: every counter can step once per tick).
fn counters_states() -> Vec<(Vec<i64>, usize)> {
    let m = crate::compile(check(parse(COUNTERS).unwrap()).unwrap()).unwrap();
    m.states
        .into_iter()
        .map(|s| {
            let level = *s.iter().max().unwrap() as usize;
            (s, level)
        })
        .collect()
}

#[test]
fn wide_fixture_compiles_identically_at_every_lane_count() {
    let states = counters_states();
    let widest = (0..=24)
        .map(|l| states.iter().filter(|(_, level)| *level == l).count())
        .max()
        .unwrap();
    assert!(widest >= WIDE_LEVEL, "widest level has {widest} states");
    let (dtmc, mdp) = compile_at_every_lane_count(COUNTERS);
    assert!(dtmc.is_ok() && mdp.is_ok());
}

/// The states at which every injected fault below fires: all of them are
/// first reached in BFS level 20, which has 1,261 states.
fn faulty(s: &[i64]) -> bool {
    s[1] == 20 && s[2] >= 10
}

#[test]
fn expansion_errors_in_a_wide_level_name_the_first_failing_state() {
    let states = counters_states();
    // The faulty states spread over several chunks of the level at 4
    // lanes, so a parallel level that reported a later chunk's error
    // first would be caught.
    let level: Vec<&Vec<i64>> = states
        .iter()
        .filter(|(_, l)| *l == 20)
        .map(|(s, _)| s)
        .collect();
    assert!(level.len() >= WIDE_LEVEL);
    let per_chunk = level.len().div_ceil(4);
    let mut chunks: Vec<usize> = (0..level.len())
        .filter(|&i| faulty(level[i]))
        .map(|i| i / per_chunk)
        .collect();
    chunks.dedup();
    assert!(chunks.len() >= 2, "faulty states sit in chunks {chunks:?}");

    let guard = "!(y = 20 & z >= 10)";
    let variants = [
        // Module a has no enabled command in the faulty states.
        COUNTERS
            .replace("[] x < N ->", &format!("[] x < N & {guard} ->"))
            .replace("[] x = N ->", &format!("[] x = N & {guard} ->")),
        // An assignment out of range, with a value that encodes the state.
        COUNTERS.replace(
            "p:(x'=x+1)",
            "p:(x'=(y = 20 & z >= 10 ? 1000000 + 10000*x + 100*y + z : x+1))",
        ),
        // A division by zero in a guard.
        COUNTERS.replace(
            "[] z < N ->",
            "[] z < N & 1 / (y = 20 & z >= 10 ? 0 : 1) > 0 ->",
        ),
    ];
    let options = ExpandOptions::default();
    for src in &variants {
        assert_ne!(src, COUNTERS, "fault injection must change the program");
        let checked = check(parse(src).unwrap()).unwrap();
        let model = LangModel::new(checked.clone());
        // The first failing state in BFS order, and its error.
        let (first, expected) = states
            .iter()
            .find_map(|(s, _)| model.transitions_checked(s).err().map(|e| (s, e)))
            .expect("the fault fires");
        assert!(faulty(first));
        let expected_mdp = model.actions_checked(first).unwrap_err();
        if let LangError::Deadlock { state, .. } = &expected {
            let rendered = format!("{{x={}, y={}, z={}}}", first[0], first[1], first[2]);
            assert_eq!(*state, rendered);
        }
        if let LangError::OutOfRange { value, .. } = &expected {
            assert_eq!(
                *value,
                1_000_000 + 10_000 * first[0] + 100 * first[1] + first[2]
            );
        }
        for explore in lane_configs() {
            let lanes = explore.threads;
            let got = explore_dtmc(checked.clone(), options, &explore).unwrap_err();
            assert_eq!(got, expected, "dtmc at {lanes:?} lanes");
            let got = explore_mdp(checked.clone(), options, &explore).unwrap_err();
            assert_eq!(got, expected_mdp, "mdp at {lanes:?} lanes");
        }
    }
}
