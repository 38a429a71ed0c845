//! `serve`: the daemon in-process (`smg_serve::spawn`, default config) on
//! loopback, under a closed loop of up to two client threads, one
//! connection per request as the protocol requires.
//!
//! Set-up compiles walk.sm and the seeded regime MDP (`POST /models`) and
//! answers each model's certified family once, cold. Each timed request
//! then goes to the model the seed's schedule names, carrying that model's
//! family (all session-cache hits) plus one bounded query whose horizon the
//! schedule draws, so compile and unbounded solving stay out of the timed
//! phase and the daemon's own path dominates it.

use crate::batch::{answers, check_each};
use crate::gen::{self, Regime, Request, Rng, Schedule, WalkConsts};
use crate::reference::{self, Expect};
use crate::trace::{self, json_str, Tracer};
use crate::{repeated_setup, stats, Report, Run, Tally, SETUPS};
use smg_pctl::CheckSession;
use smg_serve::{client, Handle, ServerConfig};
use std::time::Instant;

/// Width of the certified brackets every request asks for; answers must
/// land within it of their references.
const EPS: f64 = 1e-6;
/// Requests replayed in-process for `serve.compute_ms`.
const REPLAY_CAP: usize = 2_000;

/// A model's reference: property text → expected value.
type Reference = Box<dyn Fn(&str) -> Option<f64> + Sync>;

/// One resident model: its source, its certified family and its reference.
struct Target {
    name: &'static str,
    source: String,
    family: Vec<String>,
    reference: Reference,
}

impl Target {
    fn bounded(&self, horizon: u64) -> String {
        match self.name {
            "walk" => format!("P=? [ F<={horizon} err ]"),
            _ => gen::regime_bounded(horizon),
        }
    }

    /// The property batch of one request, with its references.
    fn batch(&self, horizon: Option<u64>) -> Result<Vec<Expect>, String> {
        self.family
            .iter()
            .cloned()
            .chain(horizon.map(|t| self.bounded(t)))
            .map(|p| {
                let value = (self.reference)(&p).ok_or(format!("no reference for {p:?}"))?;
                Ok(Expect {
                    property: p,
                    value,
                    tol: EPS,
                })
            })
            .collect()
    }
}

/// walk.sm with its unbounded properties, and the seeded regime MDP with
/// its unbounded family.
fn targets(run: &Run) -> Result<Vec<Target>, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let walk = read("examples/models/walk.sm")?;
    let consts = WalkConsts::parse(&walk).ok_or("walk.sm: cannot read N and perr")?;
    let mut walk_family = gen::read_props(&read("examples/models/walk.props")?);
    walk_family.retain(|p| !p.contains("<=") && !p.contains("I="));
    let regime = Regime::seeded(&mut Rng::new(run.seed, 0), 999, 9);
    Ok(vec![
        Target {
            name: "walk",
            source: walk,
            family: walk_family,
            reference: Box::new(move |p| reference::walk(consts, p)),
        },
        Target {
            name: "regime",
            source: regime.source(),
            family: gen::REGIME_FAMILY.iter().map(|p| p.to_string()).collect(),
            reference: Box::new(move |p| reference::regime(&regime, p)),
        },
    ])
}

fn check_body(hash: &str, batch: &[Expect]) -> String {
    let props: Vec<String> = batch.iter().map(|e| json_str(&e.property)).collect();
    format!(
        "{{\"hash\": {}, \"props\": [{}], \"certified\": {EPS:e}}}",
        json_str(hash),
        props.join(", ")
    )
}

/// Whether a reply is a 200 whose records match the batch's references.
fn verified(reply: &std::io::Result<(u16, String)>, batch: &[Expect]) -> bool {
    match reply {
        Ok((200, body)) => answers(body).is_ok_and(|got| reference::mismatches(batch, &got) == 0),
        _ => false,
    }
}

/// A booted daemon with its resident models' hashes.
struct Daemon {
    handle: Handle,
    addr: String,
    hashes: Vec<String>,
}

/// Boots the daemon, compiles every target, and answers each family once,
/// cold; checks those answers and the wrong-reference self-check.
fn boot(targets: &[Target], tracer: Option<&Tracer>) -> Result<(Daemon, bool), String> {
    let handle = smg_serve::spawn(ServerConfig::default()).map_err(|e| e.to_string())?;
    let addr = handle.addr().to_string();
    let timed =
        |name: &'static str, f: &mut dyn FnMut() -> std::io::Result<(u16, String)>| match tracer {
            Some(tr) => tr.span(name, None, |_| f()),
            None => f(),
        };
    let mut ok = true;
    let mut hashes = Vec::new();
    for t in targets {
        let body = format!("{{\"source\": {}}}", json_str(&t.source));
        let reply = timed("serve.compile", &mut || {
            client::post(&addr, "/models", &body)
        });
        let hash = match &reply {
            Ok((200, body)) => smg_serve::json::parse(body)
                .ok()
                .and_then(|v| v.get("hash").and_then(|h| h.as_str()).map(str::to_string)),
            _ => None,
        }
        .ok_or(format!("POST /models for {} failed: {reply:?}", t.name))?;
        let batch = t.batch(None)?;
        let body = check_body(&hash, &batch);
        let reply = timed("serve.cold_check", &mut || {
            client::post(&addr, "/check", &body)
        });
        ok &= verified(&reply, &batch);
        if let Ok((_, body)) = &reply {
            ok &= answers(body).is_ok_and(|got| reference::self_check(&batch, &got));
        }
        hashes.push(hash);
    }
    Ok((
        Daemon {
            handle,
            addr,
            hashes,
        },
        ok,
    ))
}

/// One client's record of one request.
struct Sent {
    request: Request,
    latency: f64,
    ok: bool,
}

/// A closed loop until the timed phase expires; in traced runs every other
/// request is wrapped in a span and the rest only timed.
fn client_loop(
    run: &Run,
    client_id: u64,
    t0: Instant,
    daemon: &Daemon,
    batches: &[Vec<Vec<Expect>>],
    tracer: Option<&Tracer>,
) -> Vec<Sent> {
    let mut sent = Vec::new();
    for (i, request) in Schedule::new(run.seed, client_id).enumerate() {
        if run.expired(t0) {
            break;
        }
        let batch =
            &batches[request.model][(request.horizon - gen::SERVE_HORIZONS.start()) as usize];
        let body = check_body(&daemon.hashes[request.model], batch);
        let post = || client::post(&daemon.addr, "/check", &body);
        let start = Instant::now();
        let reply = match tracer {
            Some(tr) if i % 2 == 1 => tr.span("request", None, |id| {
                tr.attr(id, "client", client_id);
                tr.attr(id, "model", request.model);
                tr.attr(id, "horizon", request.horizon);
                post()
            }),
            _ => post(),
        };
        let end = Instant::now();
        if let (Some(tr), 0) = (tracer, i % 2) {
            tr.interval("request.untraced", start, end);
        }
        sent.push(Sent {
            request,
            latency: (end - start).as_secs_f64(),
            ok: verified(&reply, batch),
        });
    }
    sent
}

/// Runs `serve`.
pub fn run(run: &Run, tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut untimed_ok = true;
    let setups = if tracer.is_some() { 1 } else { SETUPS };
    let ((targets, daemon), setup_times) = repeated_setup(setups, || {
        let targets = targets(run)?;
        let (daemon, ok) = boot(&targets, tracer)?;
        untimed_ok &= ok;
        Ok((targets, daemon))
    })?;
    // Every batch a schedule can draw, built before the timed phase so
    // references cost the clients nothing.
    let batches = targets
        .iter()
        .map(|t| gen::SERVE_HORIZONS.map(|h| t.batch(Some(h))).collect())
        .collect::<Result<Vec<Vec<_>>, String>>()?;
    let clients = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2) as u64;
    let registry = daemon.handle.registry();
    let before = trace::read_registry(&registry);
    if tracer.is_none() {
        stats::reset_peak_rss();
    }
    let t0 = Instant::now();
    let sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let (daemon, batches) = (&daemon, &batches);
                s.spawn(move || client_loop(run, c, t0, daemon, batches, tracer))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let peak = stats::peak_rss_mb();
    let after = trace::read_registry(&registry);
    daemon.handle.shutdown();
    let mut tally = Tally {
        untimed_ok,
        ..Tally::default()
    };
    for s in &sent {
        tally.record(s.ok);
    }
    let latencies: Vec<f64> = sent.iter().map(|s| s.latency).collect();
    let Some(tracer) = tracer else {
        let mut report = Report::end_to_end(tally, &setup_times, &latencies, wall, peak);
        let parts: Vec<(&str, Vec<f64>)> = targets
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let times = sent.iter().filter(|s| s.request.model == i);
                (t.name, times.map(|s| s.latency).collect())
            })
            .collect();
        report.part_medians(&parts);
        return Ok(report);
    };
    tracer.span("serve.phase", None, |id| {
        tracer.attr(id, "requests", sent.len());
        tracer.attr(
            id,
            "mean_latency_s",
            latencies.iter().sum::<f64>() / latencies.len() as f64,
        );
        tracer.counters(id, trace::delta(&before, &after));
    });
    replay(tracer, &targets, &sent)?;
    Ok(Report {
        tally,
        ..Report::default()
    })
}

/// `serve.compute_ms`: the timed phase's request batches again, on
/// in-process warm sessions (same sources, same certified width), each
/// batch parsed and checked inside one span.
fn replay(tracer: &Tracer, targets: &[Target], sent: &[Sent]) -> Result<(), String> {
    let sessions = targets
        .iter()
        .map(|t| {
            let checked = smg_lang::check(smg_lang::parse(&t.source).map_err(|e| e.to_string())?)
                .map_err(|e| e.to_string())?;
            let compiled = smg_lang::compile_any_with(checked, smg_lang::ExpandOptions::default())
                .map_err(|e| e.to_string())?;
            let session = CheckSession::new(compiled.model).certified(EPS);
            for p in &t.family {
                session
                    .check(&smg_pctl::parse_property(p).map_err(|e| e.to_string())?)
                    .map_err(|e| e.to_string())?;
            }
            Ok(session)
        })
        .collect::<Result<Vec<_>, String>>()?;
    for s in sent.iter().take(REPLAY_CAP) {
        let target = &targets[s.request.model];
        tracer.span("serve.compute", None, |id| {
            tracer.attr(id, "model", target.name);
            let props = target
                .family
                .iter()
                .cloned()
                .chain([target.bounded(s.request.horizon)])
                .map(|p| smg_pctl::parse_property(&p).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, String>>()?;
            check_each(tracer, id, &sessions[s.request.model], &props).map(drop)
        })?;
    }
    Ok(())
}
