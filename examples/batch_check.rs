//! Batch checking through one `CheckSession`: load a model once, check a
//! property file's worth of queries, print machine-readable records.
//!
//! This is the shape of every table in the paper — one model, a family of
//! related properties — and the shape the CLI's `check --props FILE
//! --format json` drives. The session pays the shared precomputation
//! once: here four of the six properties lean on the same unbounded
//! reachability solve (`F fail`, its complement `G !fail`, the threshold
//! operator, and the reachability reward's qualitative pre-pass), which
//! the cache statistics at the end make visible.
//!
//! Run with `cargo run --release --example batch_check`.

use statguard_mimo::lang;
use statguard_mimo::prelude::*;

/// A saturating error counter fed by a noisy channel: the kind of
/// RTL-derived chain the paper checks table-by-table.
const MODEL: &str = r#"
    dtmc
    const double p_err = 0.1;
    const int CMAX = 3;

    module channel_and_counter
      c : [0..CMAX] init 0;
      [] c < CMAX -> p_err:(c'=c+1) + (1-p_err):(c'=c);
      [] c = CMAX -> true;
    endmodule

    label "fail" = c = CMAX;
    rewards c > 0 : c; endrewards
"#;

/// The "property file": one query per line, as `--props` would read it.
const PROPS: &str = "
    // the family of one table row
    P=? [ F fail ]
    P=? [ G !fail ]
    P>=0.99 [ F fail ]
    R=? [ F fail ]
    P=? [ F<=50 fail ]
    R=? [ C<=50 ]
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One entry point whatever the model header declares: compile_any
    // dispatches, CheckSession checks.
    let compiled = compile_any(lang::check(lang::parse(MODEL)?)?)?;
    println!(
        "model: {} ({} states)",
        compiled.model.kind(),
        compiled.model.n_states()
    );
    assert_eq!(compiled.model.kind(), "dtmc");
    assert_eq!(compiled.model.n_states(), 4);

    let session = CheckSession::new(compiled.model);
    let properties = PROPS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .map(parse_property)
        .collect::<Result<Vec<_>, _>>()?;
    let results = session.check_all(&properties)?;

    // The `cache` and `results` members of `smg check --format json`,
    // from the renderer the CLI and the daemon share.
    let mut doc = String::from("{\n");
    statguard_mimo::pctl::write_json_records(
        &mut doc,
        session.cache_stats(),
        &properties,
        &results,
    );
    doc.push_str("}\n");
    print!("{doc}");

    // The counter saturates almost surely, so the family's answers are
    // pinned: P(F fail) = 1, P(G !fail) = 0, the threshold holds, and the
    // expected accumulated count until saturation is finite.
    assert!((results[0].value() - 1.0).abs() < 1e-9);
    assert!(results[1].value().abs() < 1e-9);
    assert_eq!(results[2].verdict(), Some(true));
    assert!(results[3].value().is_finite() && results[3].value() > 0.0);
    assert!(results[4].value() > 0.5 && results[4].value() < 1.0);

    // Batch ≡ one-by-one: the cache only skips recomputation.
    let solo = check_query(
        session.model().as_dtmc().expect("dtmc model"),
        &properties[3],
    )?;
    assert_eq!(solo.value().to_bits(), results[3].value().to_bits());

    let stats = session.cache_stats();
    println!(
        "session cache: {} hits / {} misses across {} properties",
        stats.hits(),
        stats.misses(),
        results.len()
    );
    assert!(
        stats.hits() >= 3,
        "the shared-subformula family must hit the cache"
    );

    println!("ok");
    Ok(())
}
