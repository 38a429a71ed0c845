//! Protocol-edge coverage: every malformed, mistargeted or oversized
//! request gets a *structured* error — and none of them ever poisons a
//! resident session.

use smg_serve::json;
use smg_serve::{client, spawn, Handle, ServerConfig};
use std::io::Write as _;
use std::time::Duration;

const DTMC: &str = "dtmc\n\
const int N = 40;\n\
const double perr = 0.02;\n\
module channel\n\
  t : [0..N] init 0;\n\
  err : bool init false;\n\
  [] t < N & !err -> perr:(t'=t+1)&(err'=true) + (1-perr):(t'=t+1);\n\
  [] t < N & err -> (t'=t+1);\n\
  [] t = N -> true;\n\
endmodule\n\
label \"done\" = t = N;\n\
label \"err\" = err;\n\
rewards\n\
  err : 1;\n\
endrewards\n";

const MDP: &str = "mdp\n\
module m\n\
  x : [0..3] init 0;\n\
  [] x<3 -> 0.5:(x'=x+1) + 0.5:(x'=x);\n\
  [] x<3 -> (x'=x+1);\n\
  [] x=3 -> true;\n\
endmodule\n\
label \"done\" = x=3;\n";

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

/// Asserts an error response carries the structured error schema.
fn assert_structured(status: u16, body: &str, expect_status: u16, needle: &str) {
    assert_eq!(status, expect_status, "{body}");
    let v = json::parse(body).unwrap_or_else(|e| panic!("unparseable error body {body:?}: {e}"));
    assert_eq!(
        v.get("schema").and_then(json::Value::as_str),
        Some("smg-serve-error/1"),
        "{body}"
    );
    assert_eq!(
        v.get("status").and_then(json::Value::as_u64),
        Some(u64::from(expect_status)),
        "{body}"
    );
    let msg = v.get("error").and_then(json::Value::as_str).unwrap();
    assert!(msg.contains(needle), "error {msg:?} lacks {needle:?}");
}

#[test]
fn malformed_bodies_and_bad_fields_are_structured_400s() {
    let (handle, addr) = daemon(ServerConfig::default());
    let hash = compile(&addr, DTMC);

    let (s, b) = client::post(&addr, "/models", "{nope").unwrap();
    assert_structured(s, &b, 400, "malformed JSON body");
    let (s, b) = client::post(&addr, "/models", "{\"source\": 7}").unwrap();
    assert_structured(s, &b, 400, "source");
    let (s, b) = client::post(&addr, "/models", "{\"source\": \"dtmc garbage\"}").unwrap();
    assert_structured(s, &b, 400, "model error");

    let (s, b) = client::post(&addr, "/check", "{\"props\": [\"P=? [ F err ]\"]}").unwrap();
    assert_structured(s, &b, 400, "hash");
    let (s, b) = client::post(&addr, "/check", &format!("{{\"hash\": \"{hash}\"}}")).unwrap();
    assert_structured(s, &b, 400, "props");
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": []}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "empty");
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [7]}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "array of strings");
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"banana\"]}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "property error");
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"], \"certified\": -1}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "positive width");
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"], \"threads\": 0}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "positive integer");

    // After the whole gauntlet the resident session still answers.
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"]}}"),
    )
    .unwrap();
    assert_eq!(s, 200, "{b}");
    handle.shutdown();
}

#[test]
fn unknown_check_fields_are_ignored() {
    // `topo` selected a second certified solver in older clients; like any
    // other unknown field it is now ignored, so the answer is the plain
    // certified one.
    let (handle, addr) = daemon(ServerConfig::default());
    let hash = compile(&addr, DTMC);
    let results = |extra: &str| {
        let body = format!(
            "{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"], \"certified\": 1e-6{extra}}}"
        );
        let (s, b) = client::post(&addr, "/check", &body).unwrap();
        assert_eq!(s, 200, "{b}");
        let mut records = json::parse(&b).unwrap().get("results").unwrap().clone();
        if let json::Value::Array(items) = &mut records {
            for item in items {
                if let json::Value::Object(fields) = item {
                    fields.remove("time_s");
                }
            }
        }
        records
    };
    let plain = results("");
    assert_eq!(
        plain.as_array().unwrap()[0].get("solver").unwrap().as_str(),
        Some("interval-iteration")
    );
    assert_eq!(results(", \"topo\": true"), plain);
    assert_eq!(results(", \"topo\": \"yes\", \"colour\": 7"), plain);
    handle.shutdown();
}

#[test]
fn unknown_hashes_and_routes_are_404() {
    let (handle, addr) = daemon(ServerConfig::default());
    let (s, b) = client::post(
        &addr,
        "/check",
        "{\"hash\": \"0000000000000000\", \"props\": [\"P=? [ F err ]\"]}",
    )
    .unwrap();
    assert_structured(s, &b, 404, "no resident model");
    let (s, b) = client::delete(&addr, "/models/0000000000000000").unwrap();
    assert_structured(s, &b, 404, "no resident model");
    let (s, b) = client::get(&addr, "/nope").unwrap();
    assert_structured(s, &b, 404, "no such route");
    let (s, b) = client::post(&addr, "/healthz", "{}").unwrap();
    assert_structured(s, &b, 404, "no such route");
    handle.shutdown();
}

#[test]
fn wrong_model_class_is_rejected_without_poisoning_the_session() {
    let (handle, addr) = daemon(ServerConfig::default());
    let hash = compile(&addr, MDP);
    // `P=?` is scheduler-ambiguous on an MDP: a structured 400 …
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F done ]\"]}}"),
    )
    .unwrap();
    assert_structured(s, &b, 400, "property error");
    // … and the very same resident session still solves the min/max
    // forms afterwards.
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!(
            "{{\"hash\": \"{hash}\", \"props\": [\"Pmax=? [ F done ]\", \"Pmin=? [ F done ]\"]}}"
        ),
    )
    .unwrap();
    assert_eq!(s, 200, "{b}");
    let v = json::parse(&b).unwrap();
    let results = v.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].get("value").unwrap().as_f64(), Some(1.0));
    handle.shutdown();
}

#[test]
fn cyclic_formulas_are_400s_and_the_daemon_stays_up() {
    let (handle, addr) = daemon(ServerConfig::default());
    // Before cycles were rejected, the first hung a worker thread and the
    // second overflowed its stack, taking the whole daemon down.
    let sources = [
        ("a", "formula a = b;\nformula b = a;\n"),
        ("loop", "formula loop = loop & true;\n"),
    ];
    for (name, formulas) in sources {
        let source = format!(
            "dtmc\n{formulas}module m\n  x : [0..1] init 0;\n  [] true -> (x'=1-x);\nendmodule\n\
             label \"l\" = {name};\n"
        );
        let body = format!("{{\"source\": {}}}", json::escape(&source));
        let needle = format!("formula \"{name}\" is defined in terms of itself");
        for route in ["/models", "/lint"] {
            let (s, b) = client::post(&addr, route, &body).unwrap();
            assert_structured(s, &b, 400, &needle);
        }
        let (s, _) = client::get(&addr, "/healthz").unwrap();
        assert_eq!(s, 200);
    }
    handle.shutdown();
}

#[test]
fn hostile_nesting_is_a_400_and_the_daemon_stays_up() {
    let (handle, addr) = daemon(ServerConfig::default());
    let healthy = |addr: &str| {
        let (s, _) = client::get(addr, "/healthz").unwrap();
        assert_eq!(s, 200);
    };
    // 100,000 `[` used to overflow a handler thread's stack in the JSON
    // parser, aborting the process and every resident session with it.
    let brackets = "[".repeat(100_000);
    for route in ["/check", "/models", "/lint"] {
        let (s, b) = client::post(&addr, route, &brackets).unwrap();
        assert_structured(s, &b, 400, "nesting deeper than 128 levels at byte 128");
        healthy(&addr);
    }
    // So did a property nested 5,000 deep (parsed before the hash is
    // looked up) and a 5,000-term `&` chain against a resident model.
    let hash = compile(&addr, DTMC);
    let deep = format!("{}done{}", "(".repeat(5_000), ")".repeat(5_000));
    let chain = vec!["done"; 5_000].join(" & ");
    for (target, prop) in [
        ("0000", &deep),
        (hash.as_str(), &deep),
        (hash.as_str(), &chain),
    ] {
        let body = format!(
            "{{\"hash\": {}, \"props\": [{}]}}",
            json::escape(target),
            json::escape(prop)
        );
        let (s, b) = client::post(&addr, "/check", &body).unwrap();
        assert_structured(s, &b, 400, "nested deeper than 256 levels");
        healthy(&addr);
    }
    // At the cap both shapes are checked like any other property.
    let cap = smg_pctl::parser::MAX_DEPTH;
    let at_cap = [
        format!("{}done{}", "(".repeat(cap), ")".repeat(cap)),
        vec!["done"; cap].join(" & "),
    ];
    let props: Vec<String> = at_cap.iter().map(|p| json::escape(p)).collect();
    let body = format!(
        "{{\"hash\": \"{hash}\", \"props\": [{}]}}",
        props.join(", ")
    );
    let (s, b) = client::post(&addr, "/check", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    handle.shutdown();
}

/// The `.sm` front end behind `/models` and `/lint` caps nesting as the
/// property parser does. Each hostile source below used to overflow a
/// handler thread's stack, aborting the daemon and every resident session
/// with it.
#[test]
fn hostile_sm_nesting_is_a_400_and_the_daemon_stays_up() {
    let (handle, addr) = daemon(ServerConfig::default());
    let program = |formulas: &str, guard: &str| {
        format!(
            "dtmc\n{formulas}module m\n  x : [0..1] init 0;\n  [] {guard} -> (x'=1-x);\n  [] x = 1 -> (x'=0);\n\
             endmodule\nlabel \"zero\" = x = 0;\n"
        )
    };
    let parens = |n: usize| format!("{}x = 0{}", "(".repeat(n), ")".repeat(n));
    let chain = |n: usize| vec!["x = 0"; n].join(" & ");
    // `n` formulas, each two levels above the one before it (`f{n-1}`
    // stands 2n high); the guard names the last.
    let references = |n: usize| {
        let mut formulas: String = (1..n)
            .map(|i| format!("formula f{i} = f{} & x = 0;\n", i - 1))
            .collect();
        formulas.push_str("formula f0 = x = 0;\n");
        program(&formulas, &format!("f{}", n - 1))
    };
    let post = |route: &str, source: &str| {
        let body = format!("{{\"source\": {}}}", json::escape(source));
        client::post(&addr, route, &body).unwrap()
    };
    for (source, needle) in [
        (
            program("", &parens(1_000)),
            "expression nested deeper than 256 levels",
        ),
        (
            program("", &chain(20_000)),
            "expression nested deeper than 256 levels",
        ),
        (references(5_000), "nests deeper than 256 levels"),
    ] {
        for route in ["/models", "/lint"] {
            let (s, b) = post(route, &source);
            assert_structured(s, &b, 400, needle);
            let (s, _) = client::get(&addr, "/healthz").unwrap();
            assert_eq!(s, 200);
        }
    }
    // At the cap each shape compiles and lints like any other model: the
    // atom `x = 0` stands two levels high.
    let cap = smg_lang::parser::MAX_DEPTH;
    for source in [
        program("", &parens(cap)),
        program("", &chain(cap - 1)),
        references(cap / 2),
    ] {
        for route in ["/models", "/lint"] {
            let (s, b) = post(route, &source);
            assert_eq!(s, 200, "{route}: {b}");
        }
    }
    handle.shutdown();
}

#[test]
fn oversized_bodies_are_413_and_do_not_wedge_the_daemon() {
    let (handle, addr) = daemon(ServerConfig {
        max_body: 256,
        ..ServerConfig::default()
    });
    let big = format!("{{\"source\": {}}}", json::escape(&"x".repeat(4096)));
    let (s, b) = client::post(&addr, "/models", &big).unwrap();
    assert_structured(s, &b, 413, "cap");
    let (s, _) = client::get(&addr, "/healthz").unwrap();
    assert_eq!(s, 200);
    handle.shutdown();
}

#[test]
fn client_abort_mid_request_leaves_the_daemon_healthy() {
    let (handle, addr) = daemon(ServerConfig::default());
    // Declare a body, send half of it, vanish.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream
            .write_all(b"POST /check HTTP/1.1\r\nContent-Length: 64\r\n\r\n{\"hash")
            .unwrap();
        stream.flush().unwrap();
    }
    // Raw non-HTTP bytes, then vanish.
    {
        let mut stream = std::net::TcpStream::connect(&addr).unwrap();
        stream.write_all(b"\x00\x01\x02 nonsense\r\n\r\n").unwrap();
    }
    let hash = compile(&addr, DTMC);
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F done ]\"]}}"),
    )
    .unwrap();
    assert_eq!(s, 200, "{b}");
    handle.shutdown();
}

#[test]
fn shutdown_drains_an_inflight_request() {
    let (handle, addr) = daemon(ServerConfig::default());
    let hash = compile(&addr, DTMC);
    let addr2 = addr.clone();
    let hash2 = hash.clone();
    let inflight = std::thread::spawn(move || {
        client::post(
            &addr2,
            "/check",
            &format!(
                "{{\"hash\": \"{hash2}\", \"props\": [\"P=? [ F err ]\"], \"certified\": 1e-9}}"
            ),
        )
        .unwrap()
    });
    // Let the request reach the daemon, then stop accepting.
    std::thread::sleep(Duration::from_millis(5));
    handle.shutdown();
    let (s, b) = inflight.join().unwrap();
    assert_eq!(s, 200, "in-flight request was dropped by shutdown: {b}");
    // The listener is gone now.
    std::thread::sleep(Duration::from_millis(20));
    assert!(client::get(&addr, "/healthz").is_err());
}

#[test]
fn evictions_update_models_and_metrics() {
    let (handle, addr) = daemon(ServerConfig {
        capacity: 1,
        ..ServerConfig::default()
    });
    let registry = handle.registry();
    let dtmc_hash = compile(&addr, DTMC);
    let mdp_hash = compile(&addr, MDP);
    assert_ne!(dtmc_hash, mdp_hash);
    // Capacity 1: compiling the MDP evicted the chain.
    let (s, b) = client::get(&addr, "/models").unwrap();
    assert_eq!(s, 200);
    let v = json::parse(&b).unwrap();
    let models = v.get("models").unwrap().as_array().unwrap();
    assert_eq!(models.len(), 1, "{b}");
    assert_eq!(
        models[0].get("hash").unwrap().as_str(),
        Some(mdp_hash.as_str())
    );
    assert_eq!(
        registry.counter_value("smg_serve_evictions_total", Some("capacity")),
        1
    );
    // Explicit eviction counts under its own reason.
    let (s, _) = client::delete(&addr, &format!("/models/{mdp_hash}")).unwrap();
    assert_eq!(s, 200);
    assert_eq!(
        registry.counter_value("smg_serve_evictions_total", Some("explicit")),
        1
    );
    handle.shutdown();
}

#[test]
fn ttl_lapses_evict_idle_models() {
    let (handle, addr) = daemon(ServerConfig {
        ttl: Some(Duration::from_millis(80)),
        ..ServerConfig::default()
    });
    let registry = handle.registry();
    let hash = compile(&addr, DTMC);
    std::thread::sleep(Duration::from_millis(200));
    let (s, b) = client::post(
        &addr,
        "/check",
        &format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F err ]\"]}}"),
    )
    .unwrap();
    assert_structured(s, &b, 404, "no resident model");
    assert!(registry.counter_value("smg_serve_evictions_total", Some("ttl")) >= 1);
    handle.shutdown();
}

#[test]
fn lint_route_matches_cli_json_and_model_replies_carry_the_summary() {
    let (handle, addr) = daemon(ServerConfig::default());

    // A clean model: zero counts over the wire, byte-identical to an
    // in-process render (the CLI's `smg lint --format json` calls the
    // same function on the same checked program).
    let body = format!("{{\"source\": {}}}", json::escape(DTMC));
    let (s, b) = client::post(&addr, "/lint", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    let expected =
        smg_lint::lint(&smg_lang::check(smg_lang::parse(DTMC).unwrap()).unwrap()).render_json();
    assert_eq!(b, expected);
    let v = json::parse(&b).unwrap();
    assert_eq!(
        v.get("schema").and_then(json::Value::as_str),
        Some("smg-lint/1")
    );
    assert_eq!(v.get("errors").and_then(json::Value::as_f64), Some(0.0));
    assert_eq!(v.get("warnings").and_then(json::Value::as_f64), Some(0.0));

    // A model with a dead guard still lints 200 — findings are data, not
    // protocol errors — and the diagnostics carry code and position.
    let dead = "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x < 3 -> (x'=x+1);\n  \
                [] x = 3 -> true;\n  [] x > 3 -> (x'=0);\nendmodule\n";
    let body = format!("{{\"source\": {}}}", json::escape(dead));
    let (s, b) = client::post(&addr, "/lint", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    let v = json::parse(&b).unwrap();
    assert_eq!(v.get("warnings").and_then(json::Value::as_f64), Some(1.0));
    let d = &v.get("diagnostics").unwrap().as_array().unwrap()[0];
    assert_eq!(d.get("code").and_then(json::Value::as_str), Some("L001"));
    assert_eq!(d.get("line").and_then(json::Value::as_f64), Some(6.0));

    // `allow_stutter` stands the deadlock analysis down, as in the CLI.
    let clocked = "dtmc\nmodule m\n  x : [0..3] init 0;\n  [] x < 3 -> (x'=x+1);\nendmodule\n";
    let body = format!("{{\"source\": {}}}", json::escape(clocked));
    let (s, b) = client::post(&addr, "/lint", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    assert!(b.contains("L005"), "{b}");
    let body = format!(
        "{{\"source\": {}, \"allow_stutter\": true}}",
        json::escape(clocked)
    );
    let (s, b) = client::post(&addr, "/lint", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    assert!(!b.contains("L005"), "{b}");

    // Malformed bodies and unparseable models are structured 400s.
    let (s, b) = client::post(&addr, "/lint", "{\"source\": 7}").unwrap();
    assert_structured(s, &b, 400, "source");
    let (s, b) = client::post(&addr, "/lint", "{\"source\": \"dtmc garbage\"}").unwrap();
    assert_structured(s, &b, 400, "model error");

    // POST /models answers with the same counts inline, on both the
    // compile and the cached path.
    let body = format!("{{\"source\": {}}}", json::escape(dead));
    for _ in 0..2 {
        let (s, b) = client::post(&addr, "/models", &body).unwrap();
        assert_eq!(s, 200, "{b}");
        let v = json::parse(&b).unwrap();
        let lint = v.get("lint").unwrap();
        assert_eq!(lint.get("errors").and_then(json::Value::as_f64), Some(0.0));
        assert_eq!(
            lint.get("warnings").and_then(json::Value::as_f64),
            Some(1.0)
        );
    }

    handle.shutdown();
}

/// Python's `json.dumps` escapes every non-ASCII character and writes one
/// outside the basic plane as a UTF-16 surrogate pair: `/lint` must read
/// the pair as one character.
#[test]
fn surrogate_pair_escapes_are_one_character() {
    let (handle, addr) = daemon(ServerConfig::default());
    let source = format!(
        "{}// \u{1F600}\n",
        include_str!("../../../examples/models/walk.sm")
    );
    let mut body = String::from("{\"source\": ");
    for c in json::escape(&source).chars() {
        if c.is_ascii() {
            body.push(c);
        } else {
            for unit in c.encode_utf16(&mut [0; 2]) {
                body.push_str(&format!("\\u{unit:04x}"));
            }
        }
    }
    body.push('}');
    assert!(body.contains("// \\ud83d\\ude00"), "{body}");
    let (s, b) = client::post(&addr, "/lint", &body).unwrap();
    assert_eq!(s, 200, "{b}");
    let plain = format!("{{\"source\": {}}}", json::escape(&source));
    assert_eq!(client::post(&addr, "/lint", &plain).unwrap(), (s, b));
    handle.shutdown();
}
