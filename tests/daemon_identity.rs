//! Daemon ≡ CLI: the resident daemon's `/check` answers are bit-exact
//! equal to `smg check --props` over randomized models and property
//! batches — values, intervals, solver tags and verdicts — in both
//! plain and certified modes, and eviction followed by recompilation
//! changes nothing.
//!
//! The CLI path compiles from a `.sm` file and runs a fresh
//! single-threaded-equivalent session per invocation; the daemon path
//! compiles over HTTP and answers from a long-lived session whose
//! caches have seen arbitrary earlier requests. Equality here is the
//! tentpole contract: residency is a pure latency optimization, never
//! an observable one.

use proptest::prelude::*;
use smg_cli::{run, Cmd, Options, OutputFormat};
use smg_serve::json::{self, Value};
use smg_serve::{client, spawn, ServerConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The parameterized channel chain (labels `done`/`err`, rewards on
/// `err`) — the paper's model shape, scaled down for the sweep.
fn channel_source(n: u32, perr_thousandths: u32) -> String {
    format!(
        "dtmc\n\
         const int N = {n};\n\
         const double perr = 0.{perr_thousandths:03};\n\
         module channel\n\
         \x20 t : [0..N] init 0;\n\
         \x20 err : bool init false;\n\
         \x20 [] t < N & !err -> perr:(t'=t+1)&(err'=true) + (1-perr):(t'=t+1);\n\
         \x20 [] t < N & err -> (t'=t+1);\n\
         \x20 [] t = N -> true;\n\
         endmodule\n\
         label \"done\" = t = N;\n\
         label \"err\" = err;\n\
         rewards\n\
         \x20 err : 1;\n\
         endrewards\n"
    )
}

/// A parameterized MDP: two overlapping commands per interior state.
fn mdp_source(k: u32) -> String {
    format!(
        "mdp\n\
         module m\n\
         \x20 x : [0..{k}] init 0;\n\
         \x20 [] x<{k} -> 0.5:(x'=x+1) + 0.5:(x'=x);\n\
         \x20 [] x<{k} -> (x'=x+1);\n\
         \x20 [] x={k} -> true;\n\
         endmodule\n\
         label \"done\" = x={k};\n"
    )
}

const DTMC_POOL: &[&str] = &[
    "P=? [ F err ]",
    "P=? [ G !err ]",
    "P=? [ F<=10 err ]",
    "R=? [ I=10 ]",
    "S=? [ err ]",
];

const MDP_POOL: &[&str] = &[
    "Pmax=? [ F done ]",
    "Pmin=? [ F done ]",
    "Pmax=? [ F<=4 done ]",
    "Pmin=? [ G !done ]",
];

/// Writes `source` to a unique temp `.sm` file; returns its path.
fn temp_model(source: &str) -> String {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let path = std::env::temp_dir().join(format!(
        "smg-daemon-identity-{}-{}.sm",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, source).unwrap();
    path.to_string_lossy().into_owned()
}

/// Runs `smg check --format json` in-process and returns its `results`
/// array.
fn cli_results(source: &str, props: &[String], certified: Option<f64>) -> Vec<Value> {
    let path = temp_model(source);
    let out = run(&Cmd::Check {
        model: path.clone(),
        props: props.to_vec(),
        prop_files: Vec::new(),
        certified,
        format: OutputFormat::Json,
        metrics: None,
        trace_convergence: None,
        options: Options::default(),
    })
    .unwrap();
    let _ = std::fs::remove_file(&path);
    json::parse(&out)
        .unwrap()
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec()
}

/// Compiles `source` on the daemon and returns its content hash.
fn daemon_compile(addr: &str, source: &str) -> String {
    let body = format!("{{\"source\": {}}}", json::escape(source));
    let (status, reply) = client::post(addr, "/models", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    json::parse(&reply)
        .unwrap()
        .get("hash")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

/// Runs `/check` on the daemon and returns its `results` array.
fn daemon_results(addr: &str, hash: &str, props: &[String], certified: Option<f64>) -> Vec<Value> {
    let props_json: Vec<String> = props.iter().map(|p| json::escape(p)).collect();
    let extra = match certified {
        Some(eps) => format!(", \"certified\": {}", json::number(eps)),
        None => String::new(),
    };
    let body = format!(
        "{{\"hash\": \"{hash}\", \"props\": [{}]{extra}}}",
        props_json.join(", ")
    );
    let (status, reply) = client::post(addr, "/check", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    json::parse(&reply)
        .unwrap()
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec()
}

/// Field-by-field bit-exact comparison of CLI and daemon result
/// records, ignoring only `time_s`.
fn assert_records_identical(cli: &[Value], daemon: &[Value], context: &str) {
    assert_eq!(cli.len(), daemon.len(), "{context}: record counts");
    for (i, (c, d)) in cli.iter().zip(daemon).enumerate() {
        for key in ["property", "solver"] {
            assert_eq!(
                c.get(key).unwrap().as_str(),
                d.get(key).unwrap().as_str(),
                "{context}: results[{i}].{key}"
            );
        }
        assert_eq!(
            c.get("value").unwrap().as_f64().unwrap().to_bits(),
            d.get("value").unwrap().as_f64().unwrap().to_bits(),
            "{context}: results[{i}].value"
        );
        assert_eq!(
            c.get("verdict").unwrap(),
            d.get("verdict").unwrap(),
            "{context}: results[{i}].verdict"
        );
        match (c.get("interval").unwrap(), d.get("interval").unwrap()) {
            (Value::Null, Value::Null) => {}
            (ci, di) => {
                let (ci, di) = (ci.as_array().unwrap(), di.as_array().unwrap());
                for side in 0..2 {
                    assert_eq!(
                        ci[side].as_f64().unwrap().to_bits(),
                        di[side].as_f64().unwrap().to_bits(),
                        "{context}: results[{i}].interval[{side}]"
                    );
                }
            }
        }
    }
}

fn pick_props(pool: &[&str], picks: &[usize]) -> Vec<String> {
    picks
        .iter()
        .map(|&i| pool[i % pool.len()].to_string())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomized DTMC × property batch: daemon ≡ CLI, plain and
    /// certified, against one daemon whose session has already served
    /// the *other* mode (so cross-request cache reuse is in play).
    #[test]
    fn dtmc_daemon_matches_cli(
        n in 4u32..40,
        perr in 1u32..40,
        picks in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let source = channel_source(n, perr);
        let props = pick_props(DTMC_POOL, &picks);
        let handle = spawn(ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let hash = daemon_compile(&addr, &source);
        for certified in [None, Some(1e-6)] {
            let cli = cli_results(&source, &props, certified);
            let daemon = daemon_results(&addr, &hash, &props, certified);
            assert_records_identical(
                &cli,
                &daemon,
                &format!("dtmc n={n} perr={perr} certified={certified:?}"),
            );
        }
        handle.shutdown();
    }

    /// Randomized MDP × property batch: daemon ≡ CLI, both modes.
    #[test]
    fn mdp_daemon_matches_cli(
        k in 2u32..12,
        picks in proptest::collection::vec(0usize..64, 1..6),
    ) {
        let source = mdp_source(k);
        let props = pick_props(MDP_POOL, &picks);
        let handle = spawn(ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let hash = daemon_compile(&addr, &source);
        for certified in [None, Some(1e-6)] {
            let cli = cli_results(&source, &props, certified);
            let daemon = daemon_results(&addr, &hash, &props, certified);
            assert_records_identical(
                &cli,
                &daemon,
                &format!("mdp k={k} certified={certified:?}"),
            );
        }
        handle.shutdown();
    }

    /// Evicting a model and recompiling the identical source restores
    /// the identical hash *and* the identical bits — and both still
    /// equal the CLI.
    #[test]
    fn evict_then_recompile_preserves_cli_identity(
        n in 4u32..30,
        perr in 1u32..40,
    ) {
        let source = channel_source(n, perr);
        let props = pick_props(DTMC_POOL, &[0, 1, 4]);
        let handle = spawn(ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let hash = daemon_compile(&addr, &source);
        let before = daemon_results(&addr, &hash, &props, Some(1e-6));
        let (status, _) = client::delete(&addr, &format!("/models/{hash}")).unwrap();
        prop_assert_eq!(status, 200);
        let rehash = daemon_compile(&addr, &source);
        prop_assert_eq!(&rehash, &hash, "content hash must be stable");
        let after = daemon_results(&addr, &hash, &props, Some(1e-6));
        let cli = cli_results(&source, &props, Some(1e-6));
        assert_records_identical(&before, &after, "across evict/recompile");
        assert_records_identical(&cli, &after, "CLI vs recompiled daemon");
        handle.shutdown();
    }
}
