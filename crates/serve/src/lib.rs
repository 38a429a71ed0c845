//! # smg-serve — a resident model-checking daemon
//!
//! The CLI pays the full compile-and-warm-up cost on every invocation:
//! parse, expand, and then re-derive every satisfaction set, reachability
//! solve and certified bracket from scratch. This crate keeps compiled
//! models **resident**: a small hand-rolled HTTP/1.1 server (std-only —
//! the JSON layer is `smg-obs`'s [`json`] module, re-exported here, and
//! the protocol lives in `http`) holds an [`smg_pctl::CheckSession`] per
//! model, so a family of related properties asked across many requests
//! shares the session's memoized sat-sets, value vectors and certified
//! brackets exactly as a single `smg check` batch would.
//!
//! The answers are **bit-identical to the CLI**: the same checker, the
//! same session memoization, and the same renderer for the `cache` and
//! `results` members of the reply ([`smg_pctl::write_json_records`], which
//! `smg check --format json` calls too), with its shortest round-trip
//! float encoding (`{:?}`), so a value that travels over HTTP parses back
//! to the very bits a fresh in-process run produces.
//!
//! ## Protocol (see `docs/SERVE.md` for the full schemas)
//!
//! * `POST /models` — compile guarded-command source, return its content
//!   hash plus a lint summary (error/warning counts from `smg-lint`'s
//!   interval analysis); recompiling identical content returns the same
//!   hash and keeps the warm session.
//! * `POST /check` — check a property batch against a resident model,
//!   with per-request `certified` / `threads` options.
//! * `POST /lint` — run the static analysis alone (no expansion, nothing
//!   kept resident); the reply is byte-identical to
//!   `smg lint --format json`.
//! * `GET /models`, `DELETE /models/{hash}` — list / evict.
//! * `GET /metrics` — Prometheus text exposition of the daemon's
//!   registry (`smg_serve_*` plus everything the engine reports).
//! * `GET /healthz` — liveness.
//!
//! Residency is bounded by a capped LRU with optional TTL
//! ([`lruttl::LruTtl`]); shutdown drains in-flight requests before the
//! listener thread exits. Requests against *different* models check in
//! parallel; requests against the *same* model serialize through its
//! session lock.
//!
//! ```
//! let handle = smg_serve::spawn(smg_serve::ServerConfig::default()).unwrap();
//! let addr = handle.addr().to_string();
//!
//! // Compile a tiny chain and keep it resident.
//! let model = "dtmc\n\
//!     module m\n  x : [0..3] init 0;\n\
//!     [] x<3 -> 0.5:(x'=x+1) + 0.5:(x'=x);\n  [] x=3 -> true;\n\
//!     endmodule\n\
//!     label \"done\" = x=3;";
//! let body = format!("{{\"source\": {}}}", smg_serve::json::escape(model));
//! let (status, reply) = smg_serve::client::post(&addr, "/models", &body).unwrap();
//! assert_eq!(status, 200);
//! let hash = smg_serve::json::parse(&reply).unwrap();
//! let hash = hash.get("hash").unwrap().as_str().unwrap().to_string();
//!
//! // Check a property against the warm session.
//! let body = format!("{{\"hash\": \"{hash}\", \"props\": [\"P=? [ F done ]\"]}}");
//! let (status, reply) = smg_serve::client::post(&addr, "/check", &body).unwrap();
//! assert_eq!(status, 200);
//! let reply = smg_serve::json::parse(&reply).unwrap();
//! let value = reply.get("results").unwrap().as_array().unwrap()[0]
//!     .get("value").unwrap().as_f64().unwrap();
//! assert!((value - 1.0).abs() < 1e-9);
//! handle.shutdown();
//! ```

pub mod lruttl;

mod http;

pub use http::client;
pub use smg_obs::json;

use lruttl::{EvictReason, LruTtl};
use smg_lang::{check, compile_any_with, parse, ExpandOptions};
use smg_obs as obs;
use smg_pctl::{parse_property, CheckOptions, CheckResult, CheckSession, Property};
use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// A daemon-level error (bind failures, shutdown problems) with a
/// message for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError(format!("io error: {e}"))
    }
}

/// Configuration for [`spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`Handle::addr`]).
    pub addr: String,
    /// Maximum number of resident models (LRU beyond it).
    pub capacity: usize,
    /// Evict models unused for this long (never, if `None`).
    pub ttl: Option<Duration>,
    /// Cap on request bodies; larger declared lengths get 413.
    pub max_body: usize,
    /// Also install the daemon's registry as the process-global recorder,
    /// so engine events fired from worker threads land in `/metrics` too.
    /// The CLI's `smg serve` turns this on; tests leave it off so
    /// parallel test daemons never share a recorder.
    pub install_global: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            capacity: 8,
            ttl: None,
            max_body: 4 * 1024 * 1024,
            install_global: false,
        }
    }
}

/// A running daemon. Dropping the handle shuts the daemon down
/// (drain-then-stop, same as [`Handle::shutdown`]).
#[derive(Debug)]
pub struct Handle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
    registry: Arc<obs::Registry>,
    installed_global: bool,
}

impl Handle {
    /// The address the daemon actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's metrics registry (what `GET /metrics` renders).
    pub fn registry(&self) -> Arc<obs::Registry> {
        self.registry.clone()
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// then join the listener thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(join) = self.join.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = join.join();
            if self.installed_global {
                let _ = obs::clear_global();
            }
        }
    }
}

impl Drop for Handle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// One resident model: immutable compile-time facts plus the warm
/// session. The session `Mutex` is the whole concurrency story — checks
/// against one model serialize here while other models' sessions stay
/// free, and per-request options (`certified`, `threads`) are
/// set under the same lock that runs the batch.
struct Resident {
    hash: String,
    kind: String,
    states: usize,
    build_s: f64,
    lint_errors: usize,
    lint_warnings: usize,
    session: Mutex<CheckSession>,
}

struct Daemon {
    registry: Arc<obs::Registry>,
    models: Mutex<LruTtl<Arc<Resident>>>,
    max_body: usize,
}

/// The FNV-1a content hash keying resident models: the model *source*
/// (plus the compile options, which shape the state space) — not the
/// compiled artifact — so recompiling identical content always lands on
/// the same handle, including after an eviction.
pub fn content_hash(source: &str, max_states: usize, allow_stutter: bool) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(source.as_bytes());
    eat(&(max_states as u64).to_le_bytes());
    eat(&[u8::from(allow_stutter)]);
    format!("{h:016x}")
}

/// Starts the daemon on a background thread.
///
/// # Errors
///
/// [`ServeError`] when the address cannot be bound.
pub fn spawn(config: ServerConfig) -> Result<Handle, ServeError> {
    let listener = TcpListener::bind(&config.addr)
        .map_err(|e| ServeError(format!("cannot bind {}: {e}", config.addr)))?;
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let registry = Arc::new(obs::Registry::new());
    if config.install_global {
        obs::set_global(registry.clone());
    }
    let daemon = Arc::new(Daemon {
        registry: registry.clone(),
        models: Mutex::new(LruTtl::new(config.capacity, config.ttl)),
        max_body: config.max_body,
    });
    let stop = Arc::new(AtomicBool::new(false));
    let stop_for_loop = stop.clone();
    let join = std::thread::spawn(move || accept_loop(&listener, &daemon, &stop_for_loop));
    Ok(Handle {
        addr,
        stop,
        join: Some(join),
        registry,
        installed_global: config.install_global,
    })
}

/// Runs the daemon on the calling thread until SIGTERM/SIGINT (on unix;
/// elsewhere it runs until the process dies), writing the bound address
/// to `out` once listening. This is the body of `smg serve`.
///
/// # Errors
///
/// As for [`spawn`], plus write errors on `out`.
pub fn run_blocking(config: ServerConfig, out: &mut dyn std::io::Write) -> Result<(), ServeError> {
    let handle = spawn(config)?;
    writeln!(out, "smg-serve listening on http://{}", handle.addr())
        .and_then(|()| out.flush())
        .map_err(ServeError::from)?;
    signal::install();
    while !signal::stop_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    Ok(())
}

#[cfg(unix)]
#[allow(unsafe_code)] // audited exception to the workspace-wide deny
mod signal {
    //! Minimal SIGTERM/SIGINT latch: the handler only sets an atomic
    //! flag (async-signal-safe), the serve loop polls it. `libc` is not
    //! a dependency, so the two symbols are declared directly against
    //! the C library every unix Rust program already links.

    use std::sync::atomic::{AtomicBool, Ordering};

    static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` with a handler that only stores to an atomic
        // is the canonical async-signal-safe pattern; both arguments are
        // valid for the platform's C `signal`.
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }

    pub fn stop_requested() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signal {
    //! Non-unix fallback: no signal latch, `smg serve` runs until the
    //! process dies.

    pub fn install() {}

    pub fn stop_requested() -> bool {
        false
    }
}

/// How long the accept loop sleeps between polls (nonblocking accept is
/// the shutdown lever: no extra fd machinery, bounded stop latency).
const ACCEPT_POLL: Duration = Duration::from_millis(2);
/// How long shutdown waits for in-flight requests before giving up.
const DRAIN_LIMIT: Duration = Duration::from_secs(10);

fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>, stop: &Arc<AtomicBool>) {
    let inflight = Arc::new(AtomicUsize::new(0));
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
                let _ = stream.set_nodelay(true);
                inflight.fetch_add(1, Ordering::SeqCst);
                let daemon = daemon.clone();
                let inflight = inflight.clone();
                std::thread::spawn(move || {
                    struct Guard(Arc<AtomicUsize>);
                    impl Drop for Guard {
                        fn drop(&mut self) {
                            self.0.fetch_sub(1, Ordering::SeqCst);
                        }
                    }
                    let _guard = Guard(inflight);
                    handle_conn(&daemon, stream);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Drain: the listener no longer accepts, in-flight requests finish.
    let deadline = Instant::now() + DRAIN_LIMIT;
    while inflight.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
        std::thread::sleep(ACCEPT_POLL);
    }
}

/// One connection, one request, one response. The daemon's registry is
/// installed as the handler thread's recorder for the duration, so
/// engine instruments fired during the check (session cache hits, solver
/// sweeps) aggregate into `/metrics`.
fn handle_conn(daemon: &Arc<Daemon>, mut stream: TcpStream) {
    obs::with_recorder(daemon.registry.clone() as Arc<dyn obs::Recorder>, || {
        let req = match http::read_request(&mut stream, daemon.max_body) {
            Ok(req) => req,
            Err(http::ReadError::TooLarge) => {
                respond_error(daemon, &mut stream, 413, "request body exceeds the cap");
                return;
            }
            Err(http::ReadError::Malformed(msg)) => {
                respond_error(
                    daemon,
                    &mut stream,
                    400,
                    &format!("malformed request: {msg}"),
                );
                return;
            }
            // The peer vanished mid-request: nothing to answer, nothing
            // poisoned — the request never reached a session.
            Err(http::ReadError::Disconnected) => return,
        };
        let started = Instant::now();
        let (route, outcome) = dispatch(daemon, &req);
        obs::counter_add("smg_serve_requests_total", Some(("route", route)), 1);
        obs::observe(
            "smg_serve_request_seconds",
            None,
            started.elapsed().as_secs_f64(),
        );
        match outcome {
            Ok((content_type, body)) => {
                let _ = http::write_response(&mut stream, 200, content_type, &body);
            }
            Err((status, msg)) => respond_error(daemon, &mut stream, status, &msg),
        }
    });
}

fn respond_error(daemon: &Daemon, stream: &mut TcpStream, status: u16, msg: &str) {
    let _ = daemon; // errors count through the thread-local recorder
    obs::counter_add(
        "smg_serve_http_errors_total",
        Some(("status", &status.to_string())),
        1,
    );
    let body = format!(
        "{{\"schema\": \"smg-serve-error/1\", \"status\": {status}, \"error\": {}}}\n",
        json::escape(msg)
    );
    let _ = http::write_response(stream, status, "application/json", &body);
}

type RouteResult = Result<(&'static str, String), (u16, String)>;

/// Maps a request to its handler. A handler panic (a checker bug, or a
/// worker-pool panic re-raised on this thread) is caught and answered as
/// a 500 so the daemon — and every *other* resident session — survives.
fn dispatch(daemon: &Arc<Daemon>, req: &http::Request) -> (&'static str, RouteResult) {
    let (route, body): (&'static str, RouteResult) =
        match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => (
                "healthz",
                Ok((
                    "application/json",
                    "{\"schema\": \"smg-serve-health/1\", \"ok\": true}\n".to_string(),
                )),
            ),
            ("GET", "/metrics") => ("metrics", handle_metrics(daemon)),
            ("GET", "/models") => ("models_list", handle_models_list(daemon)),
            ("POST", "/models") => ("models_post", guarded(|| handle_models_post(daemon, req))),
            ("POST", "/check") => ("check", guarded(|| handle_check(daemon, req))),
            ("POST", "/lint") => ("lint", guarded(|| handle_lint(req))),
            ("DELETE", target) => match target.strip_prefix("/models/") {
                Some(hash) if !hash.is_empty() && !hash.contains('/') => {
                    ("models_delete", handle_models_delete(daemon, hash))
                }
                _ => (
                    "other",
                    Err((404, format!("no such route: DELETE {target}"))),
                ),
            },
            (method, target) => (
                "other",
                Err((404, format!("no such route: {method} {target}"))),
            ),
        };
    (route, body)
}

/// Runs a handler under `catch_unwind`, mapping panics to 500s.
fn guarded(f: impl FnOnce() -> RouteResult) -> RouteResult {
    match std::panic::catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("opaque panic payload");
            Err((500, format!("internal panic: {msg}")))
        }
    }
}

fn parse_body(req: &http::Request) -> Result<json::Value, (u16, String)> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| (400, "request body is not UTF-8".to_string()))?;
    json::parse(text).map_err(|e| (400, format!("malformed JSON body: {e}")))
}

/// Notes a batch of evictions in the instruments.
fn note_evictions(evicted: &[(String, Arc<Resident>)], reason: EvictReason) {
    for _ in evicted {
        obs::counter_add(
            "smg_serve_evictions_total",
            Some(("reason", reason.as_str())),
            1,
        );
    }
}

fn handle_models_post(daemon: &Arc<Daemon>, req: &http::Request) -> RouteResult {
    let body = parse_body(req)?;
    let source = body
        .get("source")
        .and_then(json::Value::as_str)
        .ok_or_else(|| (400, "missing string field \"source\"".to_string()))?;
    let defaults = ExpandOptions::default();
    let max_states = match body.get("max_states") {
        None | Some(json::Value::Null) => defaults.max_states,
        Some(v) => v.as_u64().map(|n| n as usize).ok_or_else(|| {
            (
                400,
                "\"max_states\" must be a non-negative integer".to_string(),
            )
        })?,
    };
    let allow_stutter = match body.get("allow_stutter") {
        None | Some(json::Value::Null) => defaults.allow_stutter,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| (400, "\"allow_stutter\" must be a boolean".to_string()))?,
    };
    let hash = content_hash(source, max_states, allow_stutter);

    let now = Instant::now();
    {
        let mut models = lock(&daemon.models);
        let expired = models.expire_at(now);
        note_evictions(&expired, EvictReason::Ttl);
        if let Some(resident) = models.get_at(&hash, now) {
            obs::counter_add("smg_serve_model_hits_total", None, 1);
            let reply = model_reply(resident, true);
            obs::gauge_set("smg_serve_models", None, models.len() as f64);
            return Ok(("application/json", reply));
        }
    }

    // Compile outside the map lock so a slow expansion never blocks
    // checks against other residents. A racing identical compile just
    // replaces the entry with an identical one.
    let build_started = Instant::now();
    let checked = parse(source)
        .and_then(check)
        .map_err(|e| (400, format!("model error: {e}")))?;
    // Lint between check and expansion: the summary rides along in the
    // model reply so clients see modeling smells without a second
    // request (POST /lint returns the full diagnostics).
    let lint_report = smg_lint::lint_with(&checked, &lint_options(allow_stutter));
    let compiled = compile_any_with(
        checked,
        ExpandOptions {
            max_states,
            allow_stutter,
        },
    )
    .map_err(|e| (400, format!("model error: {e}")))?;
    let build_s = build_started.elapsed().as_secs_f64();
    obs::counter_add("smg_serve_compiles_total", None, 1);
    let resident = Arc::new(Resident {
        hash: hash.clone(),
        kind: compiled.model.kind().to_string(),
        states: compiled.model.n_states(),
        build_s,
        lint_errors: lint_report.error_count(),
        lint_warnings: lint_report.warning_count(),
        session: Mutex::new(CheckSession::new(compiled.model)),
    });
    let reply = model_reply(&resident, false);
    let mut models = lock(&daemon.models);
    let evicted = models.insert_at(hash, resident, Instant::now());
    note_evictions(&evicted, EvictReason::Capacity);
    obs::gauge_set("smg_serve_models", None, models.len() as f64);
    Ok(("application/json", reply))
}

fn model_reply(resident: &Resident, cached: bool) -> String {
    format!(
        "{{\n  \"schema\": \"smg-serve-model/1\",\n  \"hash\": {},\n  \"type\": {},\n  \"states\": {},\n  \"cached\": {cached},\n  \"lint\": {{\"errors\": {}, \"warnings\": {}}},\n  \"build_s\": {}\n}}\n",
        json::escape(&resident.hash),
        json::escape(&resident.kind),
        resident.states,
        resident.lint_errors,
        resident.lint_warnings,
        json::number(resident.build_s),
    )
}

/// The daemon's lint configuration: `allow_stutter` stands the deadlock
/// analysis down exactly as it does for the expansion.
fn lint_options(allow_stutter: bool) -> smg_lint::LintOptions {
    smg_lint::LintOptions {
        allow_stutter,
        ..smg_lint::LintOptions::default()
    }
}

/// `POST /lint` — parse, check and lint source without expanding the
/// state space or keeping anything resident. The reply bytes match
/// `smg lint --format json` on the same source exactly.
fn handle_lint(req: &http::Request) -> RouteResult {
    let body = parse_body(req)?;
    let source = body
        .get("source")
        .and_then(json::Value::as_str)
        .ok_or_else(|| (400, "missing string field \"source\"".to_string()))?;
    let allow_stutter = match body.get("allow_stutter") {
        None | Some(json::Value::Null) => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| (400, "\"allow_stutter\" must be a boolean".to_string()))?,
    };
    let checked = parse(source)
        .and_then(check)
        .map_err(|e| (400, format!("model error: {e}")))?;
    let report = smg_lint::lint_with(&checked, &lint_options(allow_stutter));
    Ok(("application/json", report.render_json()))
}

fn handle_check(daemon: &Arc<Daemon>, req: &http::Request) -> RouteResult {
    let body = parse_body(req)?;
    let hash = body
        .get("hash")
        .and_then(json::Value::as_str)
        .ok_or_else(|| (400, "missing string field \"hash\"".to_string()))?;
    let prop_texts: Vec<&str> = body
        .get("props")
        .and_then(json::Value::as_array)
        .map(|items| items.iter().filter_map(json::Value::as_str).collect())
        .ok_or_else(|| (400, "missing array field \"props\"".to_string()))?;
    let n_props = body
        .get("props")
        .and_then(json::Value::as_array)
        .map_or(0, <[json::Value]>::len);
    if prop_texts.len() != n_props {
        return Err((400, "\"props\" must be an array of strings".to_string()));
    }
    if prop_texts.is_empty() {
        return Err((400, "\"props\" must not be empty".to_string()));
    }
    let certified = match body.get("certified") {
        None | Some(json::Value::Null) => None,
        Some(v) => {
            let eps = v
                .as_f64()
                .ok_or_else(|| (400, "\"certified\" must be a number".to_string()))?;
            if !eps.is_finite() || eps <= 0.0 {
                return Err((400, "\"certified\" must be a positive width".to_string()));
            }
            Some(eps)
        }
    };
    let threads = match body.get("threads") {
        None | Some(json::Value::Null) => None,
        Some(v) => Some(
            v.as_u64()
                .filter(|&n| n >= 1)
                .map(|n| n as usize)
                .ok_or_else(|| (400, "\"threads\" must be a positive integer".to_string()))?,
        ),
    };
    let properties = prop_texts
        .iter()
        .map(|p| parse_property(p).map_err(|e| (400, format!("property error: {e}"))))
        .collect::<Result<Vec<_>, _>>()?;

    let resident = {
        let mut models = lock(&daemon.models);
        let expired = models.expire_at(Instant::now());
        note_evictions(&expired, EvictReason::Ttl);
        models
            .get_at(hash, Instant::now())
            .cloned()
            .ok_or_else(|| (404, format!("no resident model {hash:?}")))?
    };

    // The per-model serialization point: options are set and the batch
    // runs under one lock, so concurrent requests with different options
    // never interleave half-configured. A checker error (unknown label,
    // scheduler-ambiguous query on an MDP, …) only aborts *this* batch —
    // the session and its memoized results stay valid.
    let session = &mut *lock_session(&resident.session);
    session.set_options(CheckOptions { certify: certified });
    session.set_threads(threads);
    let results = session
        .check_all(&properties)
        .map_err(|e| (400, format!("property error: {e}")))?;
    let reply = check_reply(&resident, session, &properties, &results);
    Ok(("application/json", reply))
}

/// Renders the `/check` response: the `smg-serve-check/1` header, then
/// the `cache` and `results` members from the renderer
/// `smg check --format json` uses, so "daemon ≡ CLI" holds byte for byte
/// (modulo `time_s`) on the extracted `results` arrays.
fn check_reply(
    resident: &Resident,
    session: &CheckSession,
    properties: &[Property],
    results: &[CheckResult],
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"smg-serve-check/1\",");
    let _ = writeln!(out, "  \"hash\": {},", json::escape(&resident.hash));
    out.push_str("  \"model\": {\n");
    let _ = writeln!(out, "    \"type\": {},", json::escape(&resident.kind));
    let _ = writeln!(out, "    \"states\": {}", resident.states);
    out.push_str("  },\n");
    smg_pctl::write_json_records(&mut out, session.cache_stats(), properties, results);
    out.push_str("}\n");
    out
}

fn handle_models_list(daemon: &Arc<Daemon>) -> RouteResult {
    let mut models = lock(&daemon.models);
    let expired = models.expire_at(Instant::now());
    note_evictions(&expired, EvictReason::Ttl);
    obs::gauge_set("smg_serve_models", None, models.len() as f64);
    let mut out = String::from("{\n  \"schema\": \"smg-serve-models/1\",\n  \"models\": [\n");
    let residents: Vec<&Arc<Resident>> = models.iter().map(|(_, v)| v).collect();
    for (i, resident) in residents.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"hash\": {}, \"type\": {}, \"states\": {}}}{}",
            json::escape(&resident.hash),
            json::escape(&resident.kind),
            resident.states,
            if i + 1 < residents.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    Ok(("application/json", out))
}

fn handle_models_delete(daemon: &Arc<Daemon>, hash: &str) -> RouteResult {
    let mut models = lock(&daemon.models);
    let expired = models.expire_at(Instant::now());
    note_evictions(&expired, EvictReason::Ttl);
    let removed = models.remove(hash);
    obs::gauge_set("smg_serve_models", None, models.len() as f64);
    match removed {
        Some(resident) => {
            obs::counter_add(
                "smg_serve_evictions_total",
                Some(("reason", EvictReason::Explicit.as_str())),
                1,
            );
            Ok((
                "application/json",
                format!(
                    "{{\"schema\": \"smg-serve-model/1\", \"hash\": {}, \"evicted\": true}}\n",
                    json::escape(&resident.hash)
                ),
            ))
        }
        None => Err((404, format!("no resident model {hash:?}"))),
    }
}

fn handle_metrics(daemon: &Arc<Daemon>) -> RouteResult {
    obs::gauge_set("smg_serve_models", None, lock(&daemon.models).len() as f64);
    Ok(("text/plain; version=0.0.4", daemon.registry.render_text()))
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Session locks recover from poisoning: a caught panic in one batch
/// must not brick the resident model for every later request. The
/// session's caches only memoize *completed* solves (entries are
/// inserted after the solver returns), so a torn-down batch leaves no
/// partial state behind.
fn lock_session(m: &Mutex<CheckSession>) -> std::sync::MutexGuard<'_, CheckSession> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_is_stable_and_option_sensitive() {
        let a = content_hash("dtmc\n", 100, false);
        assert_eq!(a, content_hash("dtmc\n", 100, false));
        assert_ne!(a, content_hash("dtmc \n", 100, false));
        assert_ne!(a, content_hash("dtmc\n", 101, false));
        assert_ne!(a, content_hash("dtmc\n", 100, true));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn spawn_binds_a_free_port_and_shuts_down() {
        let handle = spawn(ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let (status, body) = client::get(&addr, "/healthz").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"ok\": true"), "{body}");
        handle.shutdown();
        // The listener is gone: connecting now fails (give the OS a
        // moment to tear the socket down).
        std::thread::sleep(Duration::from_millis(20));
        assert!(client::get(&addr, "/healthz").is_err());
    }
}
