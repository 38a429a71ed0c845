//! Random guarded-command programs, shared by the integration proptests
//! and the crate's lane-count tests.

use proptest::prelude::*;

/// Single-module programs over one bounded counter `x : [0..hi]` with
/// dyadic branch probabilities, a label and a reward on one state. Yields
/// `(hi, source)`.
pub fn counter_programs() -> impl Strategy<Value = (i64, String)> {
    (
        1i64..6,
        // Each state's command: (eighths for branch A, target A, target B)
        proptest::collection::vec((1u32..8, 0i64..6, 0i64..6), 6),
        0i64..6,
    )
        .prop_map(|(hi, rows, reward_state)| (hi, counter_program(hi, &rows, reward_state)))
}

fn counter_program(hi: i64, rows: &[(u32, i64, i64)], reward_state: i64) -> String {
    let mut src = String::from("dtmc\nmodule m\n");
    src.push_str(&format!("  x : [0..{hi}] init 0;\n"));
    for v in 0..=hi {
        let (eighths, ta, tb) = rows[v as usize % rows.len()];
        let p = f64::from(eighths) / 8.0;
        let (ta, tb) = (ta.min(hi), tb.min(hi));
        src.push_str(&format!(
            "  [] x={v} -> {p}:(x'={ta}) + {:?}:(x'={tb});\n",
            1.0 - p
        ));
    }
    src.push_str("endmodule\n");
    let r = reward_state.min(hi);
    src.push_str(&format!("label \"hit\" = x={r};\n"));
    src.push_str(&format!("rewards x={r} : 1; endrewards\n"));
    src
}
