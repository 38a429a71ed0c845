//! The residency contract: warm sessions answer repeated property
//! families bit-identically while the cache-hit instruments rise, two
//! models stay resident side by side, and concurrent clients serialize
//! per model without ever mixing options.

use smg_serve::json::{self, Value};
use smg_serve::{client, spawn, Handle, ServerConfig};

fn channel_model(n: u32, perr: f64) -> String {
    format!(
        "dtmc\n\
         const int N = {n};\n\
         const double perr = {perr};\n\
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

/// The walk.props shape: certified reachability (twice — the second is
/// a bracket cache hit), its complement, a bounded query, an
/// instantaneous reward and a long-run average.
const FAMILY: &[&str] = &[
    "P=? [ F err ]",
    "P=? [ F err ]",
    "P=? [ G !err ]",
    "P=? [ F<=10 err ]",
    "R=? [ I=10 ]",
    "S=? [ err ]",
];

fn daemon(config: ServerConfig) -> (Handle, String) {
    let handle = spawn(config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn compile(addr: &str, source: &str) -> String {
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

fn check_family(addr: &str, hash: &str, extra: &str) -> Vec<Value> {
    let props: Vec<String> = FAMILY.iter().map(|p| json::escape(p)).collect();
    let body = format!(
        "{{\"hash\": \"{hash}\", \"props\": [{}]{extra}}}",
        props.join(", ")
    );
    let (status, reply) = client::post(addr, "/check", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    let v = json::parse(&reply).unwrap();
    v.get("results").unwrap().as_array().unwrap().to_vec()
}

/// Field-by-field bit-exact comparison of two result records, ignoring
/// only `time_s`.
fn assert_bit_identical(a: &[Value], b: &[Value], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        for key in ["property", "solver"] {
            assert_eq!(
                ra.get(key).unwrap().as_str(),
                rb.get(key).unwrap().as_str(),
                "{context}: results[{i}].{key}"
            );
        }
        assert_eq!(
            ra.get("value").unwrap().as_f64().unwrap().to_bits(),
            rb.get("value").unwrap().as_f64().unwrap().to_bits(),
            "{context}: results[{i}].value"
        );
        assert_eq!(
            ra.get("verdict").unwrap(),
            rb.get("verdict").unwrap(),
            "{context}: results[{i}].verdict"
        );
        match (ra.get("interval").unwrap(), rb.get("interval").unwrap()) {
            (Value::Null, Value::Null) => {}
            (ia, ib) => {
                let (ia, ib) = (ia.as_array().unwrap(), ib.as_array().unwrap());
                for side in 0..2 {
                    assert_eq!(
                        ia[side].as_f64().unwrap().to_bits(),
                        ib[side].as_f64().unwrap().to_bits(),
                        "{context}: results[{i}].interval[{side}]"
                    );
                }
            }
        }
    }
}

#[test]
fn two_resident_models_answer_certified_families_from_warm_sessions() {
    let (handle, addr) = daemon(ServerConfig::default());
    let registry = handle.registry();
    let hash_a = compile(&addr, &channel_model(40, 0.02));
    let hash_b = compile(&addr, &channel_model(60, 0.005));
    assert_ne!(hash_a, hash_b);

    let first_a = check_family(&addr, &hash_a, ", \"certified\": 1e-6");
    let first_b = check_family(&addr, &hash_b, ", \"certified\": 1e-6");
    let hits_after_first =
        registry.counter_value("smg_session_cache_hits_total", Some("certified"));
    assert!(
        hits_after_first >= 2,
        "the repeated `P=? [ F err ]` must hit each session's certified bracket \
         (got {hits_after_first} hits)"
    );

    // The second identical family answers from the warm caches …
    let second_a = check_family(&addr, &hash_a, ", \"certified\": 1e-6");
    let second_b = check_family(&addr, &hash_b, ", \"certified\": 1e-6");
    let hits_after_second =
        registry.counter_value("smg_session_cache_hits_total", Some("certified"));
    assert!(
        hits_after_second > hits_after_first,
        "the second family must hit the session cache \
         ({hits_after_first} → {hits_after_second})"
    );
    // … and bit-identically.
    assert_bit_identical(&first_a, &second_a, "model A warm repeat");
    assert_bit_identical(&first_b, &second_b, "model B warm repeat");
    // The two models are distinct chains: their answers differ.
    assert_ne!(
        first_a[0].get("value").unwrap().as_f64().unwrap().to_bits(),
        first_b[0].get("value").unwrap().as_f64().unwrap().to_bits(),
    );

    // The exposition is well-formed and carries both the server and the
    // session instrument families.
    let (status, text) = client::get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    let summary = smg_obs::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("GET /metrics is not valid exposition format: {e}\n{text}"));
    assert!(summary.samples > 0);
    for family in [
        "smg_serve_requests_total",
        "smg_serve_request_seconds",
        "smg_serve_models",
        "smg_session_cache_hits_total",
    ] {
        assert!(text.contains(family), "/metrics lacks {family}:\n{text}");
    }
    handle.shutdown();
}

/// Each `/check` that reaches its model's session lock observes its wait
/// there once; a request for a model that is not resident observes
/// nothing.
#[test]
fn every_check_observes_its_session_lock_wait() {
    let (handle, addr) = daemon(ServerConfig::default());
    let hash = compile(&addr, &channel_model(40, 0.02));
    let n = 5;
    for _ in 0..n {
        check_family(&addr, &hash, "");
    }
    let (status, _) = client::post(
        &addr,
        "/check",
        "{\"hash\": \"0000\", \"props\": [\"P=? [ F err ]\"]}",
    )
    .unwrap();
    assert_eq!(status, 404);
    let (status, text) = client::get(&addr, "/metrics").unwrap();
    assert_eq!(status, 200);
    assert!(
        text.contains(&format!("\nsmg_serve_session_wait_seconds_count {n}\n")),
        "{text}"
    );
    handle.shutdown();
}

#[test]
fn evict_then_recompile_lands_on_the_same_hash_and_the_same_bits() {
    let (handle, addr) = daemon(ServerConfig::default());
    let source = channel_model(40, 0.02);
    let hash = compile(&addr, &source);
    let before = check_family(&addr, &hash, ", \"certified\": 1e-6");
    let (status, _) = client::delete(&addr, &format!("/models/{hash}")).unwrap();
    assert_eq!(status, 200);
    let (status, _) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"]}}"),
    )
    .unwrap();
    assert_eq!(status, 404, "evicted model must be gone");
    let rehash = compile(&addr, &source);
    assert_eq!(rehash, hash, "identical content must rehash identically");
    let after = check_family(&addr, &hash, ", \"certified\": 1e-6");
    assert_bit_identical(&before, &after, "evict → recompile");
    handle.shutdown();
}

#[test]
fn concurrent_clients_serialize_per_model_and_stay_bit_identical() {
    let (handle, addr) = daemon(ServerConfig::default());
    let hash_a = compile(&addr, &channel_model(40, 0.02));
    let hash_b = compile(&addr, &channel_model(60, 0.005));

    // Three interleaved option profiles per model — plain, certified,
    // and certified with a per-request thread pin — hammered from
    // parallel clients. Per (model, profile) every response must carry
    // the same bits; the per-session lock is what keeps a half-applied
    // option change from ever being observable.
    let profiles = [
        "",
        ", \"certified\": 1e-6",
        ", \"certified\": 1e-6, \"threads\": 2",
    ];
    let mut workers = Vec::new();
    for round in 0..3u32 {
        for (model_idx, hash) in [hash_a.clone(), hash_b.clone()].into_iter().enumerate() {
            for (profile_idx, profile) in profiles.iter().enumerate() {
                let addr = addr.clone();
                let hash = hash.clone();
                let profile = (*profile).to_string();
                workers.push(std::thread::spawn(move || {
                    let results = check_family(&addr, &hash, &profile);
                    (model_idx, profile_idx, round, results)
                }));
            }
        }
    }
    let mut reference: std::collections::BTreeMap<(usize, usize), Vec<Value>> =
        std::collections::BTreeMap::new();
    for worker in workers {
        let (model_idx, profile_idx, round, results) = worker.join().unwrap();
        match reference.entry((model_idx, profile_idx)) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(results);
            }
            std::collections::btree_map::Entry::Occupied(slot) => {
                assert_bit_identical(
                    slot.get(),
                    &results,
                    &format!("model {model_idx} profile {profile_idx} round {round}"),
                );
            }
        }
    }
    handle.shutdown();
}
