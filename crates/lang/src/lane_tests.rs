//! Error precedence of `.sm` compilation: a program whose expansion fails
//! in several states of one wide BFS level reports the first failing state
//! in BFS order, under both semantics.

use crate::{check, parse, ExpandOptions, LangError, LangModel};

/// The wide fixture: three saturating counters whose BFS levels reach
/// [`WIDE_LEVEL`] states.
const COUNTERS: &str = include_str!("../../../examples/models/counters.sm");

/// A level width well past the faulty states' spread.
const WIDE_LEVEL: usize = 1_024;

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

/// The states at which every injected fault below fires: all of them are
/// first reached in BFS level 20, which has 1,261 states.
fn faulty(s: &[i64]) -> bool {
    s[1] == 20 && s[2] >= 10
}

#[test]
fn expansion_errors_in_a_wide_level_name_the_first_failing_state() {
    let states = counters_states();
    // The faulty states spread over the level, so reporting any but the
    // first of them would be caught.
    let level: Vec<&Vec<i64>> = states
        .iter()
        .filter(|(_, l)| *l == 20)
        .map(|(s, _)| s)
        .collect();
    assert!(level.len() >= WIDE_LEVEL);
    let positions: Vec<usize> = (0..level.len()).filter(|&i| faulty(level[i])).collect();
    assert!(
        positions.len() >= 2 && positions[positions.len() - 1] - positions[0] >= level.len() / 4,
        "faulty states sit at {positions:?}"
    );

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
        let got = crate::compile_with(checked.clone(), options).unwrap_err();
        assert_eq!(got, expected, "dtmc");
        let got = crate::compile_mdp_with(checked, options).unwrap_err();
        assert_eq!(got, expected_mdp, "mdp");
    }
}
