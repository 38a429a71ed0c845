//! `solve` and `build`: one `smg check --format json` job at a time in a
//! closed loop, through the CLI's own entry points (`smg_cli::parse_args`
//! and `smg_cli::run`, as the `smg` binary's `main` calls them).
//!
//! The traced variant calls the stages `smg_cli::run` performs one by one
//! (parse → check → lint → compile → one `CheckSession` checking each
//! property in turn) and times each call.

use crate::gen::{self, Lattice, Regime, Rng, WalkConsts};
use crate::reference::{self, Expect, DEFAULT_TOL};
use crate::trace::{self, Tracer};
use crate::{repeated_setup, stats, Report, Run, Tally, SETUPS};
use smg_obs::Registry;
use smg_pctl::ast::TimeBound;
use smg_pctl::{AnyModel, CheckSession, PathFormula, Property, RewardQuery};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const WALK: &str = "examples/models/walk.sm";
const WALK_PROPS: &str = "examples/models/walk.props";

/// One model of a job: its files and the answers it must produce.
struct Model {
    name: &'static str,
    source: PathBuf,
    props: PathBuf,
    expect: Vec<Expect>,
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Pairs each property with its reference; a property without one is a
/// benchmark bug, reported before anything is timed.
fn expect(
    props: &[String],
    reference: impl Fn(&str) -> Option<f64>,
) -> Result<Vec<Expect>, String> {
    props
        .iter()
        .map(|p| {
            let value = reference(p).ok_or(format!("no reference for {p:?}"))?;
            Ok(Expect {
                property: p.clone(),
                value,
                tol: DEFAULT_TOL,
            })
        })
        .collect()
}

/// Generates the workload's seeded inputs under `run.out`.
fn inputs(workload: &str, run: &Run) -> Result<Vec<Model>, String> {
    let mut rng = Rng::new(run.seed, 0);
    let generated =
        |name: &str, source: &str, props: &[String]| -> Result<(PathBuf, PathBuf), String> {
            let stem = run.out.join(format!("{workload}-{}-{name}", run.seed));
            let (sm, pr) = (stem.with_extension("sm"), stem.with_extension("props"));
            write(&sm, source)?;
            write(&pr, &(props.join("\n") + "\n"))?;
            Ok((sm, pr))
        };
    let regime_model = |r: &Regime, props: Vec<String>| -> Result<Model, String> {
        let expect = expect(&props, |p| reference::regime(r, p))?;
        let (source, props) = generated("regime", &r.source(), &props)?;
        Ok(Model {
            name: "regime",
            source,
            props,
            expect,
        })
    };
    match workload {
        "solve" => {
            let consts = WalkConsts::parse(&read(Path::new(WALK))?).ok_or(format!(
                "{WALK}: cannot read `const int N` and `const double perr`"
            ))?;
            let walk_props = gen::read_props(&read(Path::new(WALK_PROPS))?);
            let walk = Model {
                name: "walk",
                source: WALK.into(),
                props: WALK_PROPS.into(),
                expect: expect(&walk_props, |p| reference::walk(consts, p))?,
            };
            let regime = Regime::seeded(&mut rng, 999, 9);
            let mut props: Vec<String> = gen::REGIME_FAMILY.iter().map(|p| p.to_string()).collect();
            props.insert(2, gen::regime_bounded(rng.pick(40, 60)));
            Ok(vec![walk, regime_model(&regime, props)?])
        }
        "build" => {
            let lattice = Lattice::seeded(&mut rng, 600);
            let props = vec![lattice.property()];
            let value = reference::lattice(&lattice);
            let lattice_expect = expect(&props, |_| Some(value))?;
            let (source, props) = generated("lattice", &lattice.source(), &props)?;
            let lattice = Model {
                name: "lattice",
                source,
                props,
                expect: lattice_expect,
            };
            let regime = Regime::seeded(&mut rng, 19_999, 9);
            Ok(vec![
                lattice,
                regime_model(&regime, vec![gen::regime_bounded(20)])?,
            ])
        }
        other => Err(format!("unknown batch workload {other:?}")),
    }
}

/// `smg check MODEL --props PROPS --format json`, in-process.
fn check_cli(m: &Model) -> Result<String, String> {
    let args: Vec<String> = [
        "check",
        &m.source.to_string_lossy(),
        "--props",
        &m.props.to_string_lossy(),
        "--format",
        "json",
    ]
    .map(String::from)
    .to_vec();
    let cmd = smg_cli::parse_args(&args).map_err(|e| e.to_string())?;
    smg_cli::run(&cmd).map_err(|e| e.to_string())
}

/// The `(property, value)` records of a `check --format json` document or
/// a `/check` reply.
pub fn answers(doc: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = smg_serve::json::parse(doc).map_err(|e| format!("malformed JSON: {e}"))?;
    let results = doc
        .get("results")
        .and_then(|r| r.as_array())
        .ok_or("no results array")?;
    results
        .iter()
        .map(|r| {
            let property = r.get("property").and_then(|p| p.as_str());
            let value = r.get("value").and_then(|v| v.as_f64());
            match (property, value) {
                (Some(p), Some(v)) => Ok((p.to_string(), v)),
                _ => Err("result without property or value".to_string()),
            }
        })
        .collect()
}

/// Whether a CLI output matches the model's references.
fn verified(m: &Model, out: &Result<String, String>) -> bool {
    out.as_ref()
        .map_err(Clone::clone)
        .and_then(|doc| answers(doc))
        .is_ok_and(|got| reference::mismatches(&m.expect, &got) == 0)
}

/// Runs `solve` or `build`.
pub fn run(workload: &str, run: &Run, tracer: Option<&Tracer>) -> Result<Report, String> {
    let mut untimed_ok = true;
    let setups = if tracer.is_some() { 1 } else { SETUPS };
    let (models, setup_times) = repeated_setup(setups, || {
        let models = inputs(workload, run)?;
        for m in &models {
            let out = check_cli(m);
            untimed_ok &= verified(m, &out);
            let got = answers(&out?)?;
            untimed_ok &= reference::self_check(&m.expect, &got);
        }
        Ok(models)
    })?;
    let mut tally = Tally {
        untimed_ok,
        ..Tally::default()
    };
    if let Some(tracer) = tracer {
        traced(run, tracer, &models, &mut tally)?;
        return Ok(Report {
            tally,
            ..Report::default()
        });
    }
    let mut jobs = Vec::new();
    let mut parts: Vec<(&str, Vec<f64>)> = models.iter().map(|m| (m.name, Vec::new())).collect();
    stats::reset_peak_rss();
    let t0 = Instant::now();
    while !run.expired(t0) {
        let (time, calls) = job(&models);
        jobs.push(time);
        for ((_, times), (t, _)) in parts.iter_mut().zip(&calls) {
            times.push(*t);
        }
        tally.record(job_verified(&models, &calls));
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut report = Report::end_to_end(tally, &setup_times, &jobs, wall, stats::peak_rss_mb());
    report.part_medians(&parts);
    Ok(report)
}

type Call = (f64, Result<String, String>);

/// One end-to-end job: each model through the CLI, timed per call.
fn job(models: &[Model]) -> (f64, Vec<Call>) {
    let start = Instant::now();
    let calls = models
        .iter()
        .map(|m| {
            let t = Instant::now();
            let out = check_cli(m);
            (t.elapsed().as_secs_f64(), out)
        })
        .collect();
    (start.elapsed().as_secs_f64(), calls)
}

fn job_verified(models: &[Model], calls: &[Call]) -> bool {
    models
        .iter()
        .zip(calls)
        .all(|(m, (_, out))| verified(m, out))
}

/// The traced run: untraced and traced jobs alternate (the pair gives the
/// tracing overhead), then one lane probe checks each model's properties on
/// a fresh one-lane session.
fn traced(run: &Run, tracer: &Tracer, models: &[Model], tally: &mut Tally) -> Result<(), String> {
    let t0 = Instant::now();
    let mut compiled = Vec::new();
    let mut n = 0;
    while n < 2 || !run.expired(t0) {
        if n % 2 == 0 {
            let start = Instant::now();
            let (_, calls) = job(models);
            tracer.interval("job.untraced", start, Instant::now());
            tally.record(job_verified(models, &calls));
        } else {
            let mut ok = true;
            compiled = tracer.span("job", None, |id| {
                models
                    .iter()
                    .map(|m| {
                        let (got, model, props) = traced_model(tracer, id, m)?;
                        ok &= reference::mismatches(&m.expect, &got) == 0;
                        Ok((model, props))
                    })
                    .collect::<Result<Vec<_>, String>>()
            })?;
            tally.record(ok);
        }
        n += 1;
    }
    tracer.span("probe", None, |probe| {
        tracer.attr(probe, "lanes", 1);
        for ((model, props), m) in compiled.into_iter().zip(models) {
            tracer.span("model", Some(probe), |id| {
                tracer.attr(id, "name", m.name);
                let session = CheckSession::new(model).threads(1);
                with_counters(tracer, id, || check_each(tracer, id, &session, &props))
            })?;
        }
        Ok(())
    })
}

/// Runs `f` with a fresh `smg-obs` registry installed on this thread (the
/// engine fires every instrument from the dispatching thread) and attaches
/// its readings to span `id`.
pub fn with_counters<R>(tracer: &Tracer, id: usize, f: impl FnOnce() -> R) -> R {
    let registry = Arc::new(Registry::new());
    let out = smg_obs::with_recorder(registry.clone(), f);
    tracer.counters(id, trace::read_registry(&registry));
    out
}

type Answers = Vec<(String, f64)>;

/// One model through the stages of `smg check`, each call in its own span.
/// Returns the answers plus the compiled model and parsed properties.
fn traced_model(
    tr: &Tracer,
    job: usize,
    m: &Model,
) -> Result<(Answers, AnyModel, Vec<Property>), String> {
    tr.span("model", Some(job), |id| {
        tr.attr(id, "name", m.name);
        with_counters(tr, id, || {
            let src = read(&m.source)?;
            let program = tr
                .span("lang.parse", Some(id), |_| smg_lang::parse(&src))
                .map_err(|e| e.to_string())?;
            let checked = tr
                .span("lang.check", Some(id), |_| smg_lang::check(program))
                .map_err(|e| e.to_string())?;
            tr.span("lint.run", Some(id), |_| {
                smg_lint::lint_with(&checked, &smg_lint::LintOptions::default())
            });
            let compiled = tr
                .span("lang.compile", Some(id), |sid| {
                    let c = smg_lang::compile_any_with(checked, smg_cli::Options::default().into());
                    if let Ok(c) = &c {
                        tr.attr(sid, "family", c.model.kind());
                        tr.attr(sid, "states", c.model.n_states());
                    }
                    c
                })
                .map_err(|e| e.to_string())?;
            let texts = gen::read_props(&read(&m.props)?);
            let props = tr
                .span("pctl.parse", Some(id), |_| {
                    texts
                        .iter()
                        .map(|p| smg_pctl::parse_property(p))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let session = CheckSession::new(compiled.model);
            let got = check_each(tr, id, &session, &props)?;
            Ok((got, session.into_model(), props))
        })
    })
}

/// `CheckSession::check` on each property in turn, one span per call,
/// tagged with the property's kind.
pub fn check_each(
    tr: &Tracer,
    parent: usize,
    session: &CheckSession,
    props: &[Property],
) -> Result<Answers, String> {
    props
        .iter()
        .map(|p| {
            tr.span("pctl.check", Some(parent), |id| {
                tr.attr(id, "kind", kind(p));
                let r = session.check(p).map_err(|e| e.to_string())?;
                Ok((p.to_string(), r.value()))
            })
        })
        .collect()
}

/// The per-layer bucket of a query: unbounded reachability, unbounded
/// reward, long-run (`S=?`), or bounded/instantaneous.
pub fn kind(p: &Property) -> &'static str {
    let bounded = |path: &PathFormula| match path {
        PathFormula::Next(_) => true,
        PathFormula::Until { bound, .. }
        | PathFormula::Finally { bound, .. }
        | PathFormula::Globally { bound, .. } => !matches!(bound, TimeBound::None),
    };
    match p {
        Property::ProbQuery(path) | Property::OptProbQuery(_, path) if bounded(path) => "bounded",
        Property::ProbQuery(_) | Property::OptProbQuery(..) | Property::Bool(_) => "reach",
        Property::RewardQuery(RewardQuery::Reach(_))
        | Property::OptRewardQuery(_, RewardQuery::Reach(_)) => "reward",
        Property::RewardQuery(_) | Property::OptRewardQuery(..) => "bounded",
        Property::SteadyQuery(_) => "steady",
    }
}
