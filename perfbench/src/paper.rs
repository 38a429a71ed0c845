//! `paper`: the paper pipeline through `smg-core`, one job at a time in a
//! closed loop. A job is three analyzer calls: `ViterbiAnalyzer` at the
//! Table I configuration (T=300, threshold 1, full models included) and
//! `DetectorAnalyzer` for the 1x2 and 1x4 detectors at horizons 5, 10, 20.
//! The paper configurations are fixed, so the seed changes nothing here.

use crate::batch::with_counters;
use crate::reference::{self, Expect, DEFAULT_TOL};
use crate::trace::Tracer;
use crate::{repeated_setup, stats, Report, Run, Tally, SETUPS};
use smg_core::report::fmt_prob;
use smg_core::{DetectorAnalyzer, ViterbiAnalyzer};
use smg_detector::{DetectorConfig, DetectorModel};
use smg_dtmc::BuildStats;
use std::time::Instant;

const HORIZONS: [u64; 3] = [5, 10, 20];

/// One analyzer call and the answers it must produce.
struct Call {
    system: &'static str,
    detector: Option<DetectorConfig>,
    expect: Vec<Expect>,
}

/// What one analyzer call reports, flattened for checking and tracing.
struct Outcome {
    answers: Vec<(String, f64)>,
    explore_s: f64,
    states: usize,
    check_s: f64,
}

fn exact(property: &str, value: f64) -> Expect {
    Expect {
        property: property.to_string(),
        value,
        tol: 0.0,
    }
}

/// A value as Table I prints it, read back as a number (`≈ 1` is 1).
fn printed(p: f64) -> f64 {
    let text = fmt_prob(p);
    text.parse()
        .unwrap_or(if text == "≈ 1" { 1.0 } else { f64::NAN })
}

/// The three calls with their references: Table I's state counts and
/// printed values; Table II's state counts and the detector's closed-form
/// BER (direct enumeration of the unreduced model's one-step distribution),
/// which P2 must equal at every horizon of this memoryless chain.
fn calls() -> Result<Vec<Call>, String> {
    let mut viterbi: Vec<Expect> = ["M", "M_R", "M_P3", "M_R_P3"]
        .iter()
        .zip(reference::TABLE1_STATES)
        .map(|(name, n)| exact(&format!("table1.states.{name}"), n as f64))
        .collect();
    for (name, text) in ["P1", "P2", "P3"].iter().zip(reference::TABLE1_PRINTED) {
        let value = text.parse().unwrap_or(1.0);
        viterbi.push(exact(&format!("table1.printed.{name}"), value));
    }
    let mut out = vec![Call {
        system: "viterbi",
        detector: None,
        expect: viterbi,
    }];
    for ((system, full, reduced), config) in reference::TABLE2_STATES
        .into_iter()
        .zip([DetectorConfig::mimo_1x2(), DetectorConfig::mimo_1x4()])
    {
        let ber = DetectorModel::new(config.clone())?.ber();
        let mut expect = vec![
            exact(&format!("table2.{system}.M"), full as f64),
            exact(&format!("table2.{system}.M_R"), reduced as f64),
        ];
        for t in HORIZONS {
            expect.push(Expect {
                property: format!("table5.{system}.P2@{t}"),
                value: ber,
                tol: DEFAULT_TOL,
            });
        }
        out.push(Call {
            system,
            detector: Some(config),
            expect,
        });
    }
    Ok(out)
}

fn explored(stats: &[&BuildStats]) -> (f64, usize) {
    (
        stats.iter().map(|s| s.build_time.as_secs_f64()).sum(),
        stats.iter().map(|s| s.states).sum(),
    )
}

fn analyze(call: &Call) -> Result<Outcome, String> {
    let start = Instant::now();
    let err = |e: smg_core::CoreError| e.to_string();
    match &call.detector {
        None => {
            let r = ViterbiAnalyzer::new(smg_viterbi::ViterbiConfig::paper())
                .horizon(300)
                .worst_case_threshold(1)
                .include_full_model(true)
                .analyze()
                .map_err(err)?;
            let (full, p3_full) = (
                r.full_stats.as_ref().ok_or("no full-model stats")?,
                r.p3_full_stats.as_ref().ok_or("no full P3-model stats")?,
            );
            let all = [full, &r.reduced_stats, p3_full, &r.p3_stats];
            let (explore_s, states) = explored(&all);
            let mut answers: Vec<(String, f64)> = ["M", "M_R", "M_P3", "M_R_P3"]
                .iter()
                .zip(all)
                .map(|(name, s)| (format!("table1.states.{name}"), s.states as f64))
                .collect();
            for (name, p) in ["P1", "P2", "P3"].iter().zip([r.p1, r.p2, r.p3]) {
                answers.push((format!("table1.printed.{name}"), printed(p)));
            }
            Ok(Outcome {
                answers,
                explore_s,
                states,
                check_s: r.check_time.as_secs_f64(),
            })
        }
        Some(config) => {
            let r = DetectorAnalyzer::new(config.clone())
                .horizons(HORIZONS.to_vec())
                .analyze()
                .map_err(err)?;
            let elapsed = start.elapsed().as_secs_f64();
            let (explore_s, states) = explored(&[&r.full_stats, &r.reduced_stats]);
            let system = call.system;
            let mut answers = vec![
                (format!("table2.{system}.M"), r.full_stats.states as f64),
                (
                    format!("table2.{system}.M_R"),
                    r.reduced_stats.states as f64,
                ),
            ];
            for (t, v) in &r.p2_at {
                answers.push((format!("table5.{system}.P2@{t}"), *v));
            }
            Ok(Outcome {
                answers,
                explore_s,
                states,
                check_s: elapsed - explore_s,
            })
        }
    }
}

fn verified(call: &Call, out: &Result<Outcome, String>) -> bool {
    out.as_ref()
        .is_ok_and(|o| reference::mismatches(&call.expect, &o.answers) == 0)
}

/// Runs `paper`.
pub fn run(run: &Run, tracer: Option<&Tracer>) -> Result<Report, String> {
    let calls = calls()?;
    let mut untimed_ok = true;
    let setups = if tracer.is_some() { 1 } else { SETUPS };
    let ((), setup_times) = repeated_setup(setups, || {
        for call in &calls {
            let out = analyze(call)?;
            untimed_ok &= reference::mismatches(&call.expect, &out.answers) == 0;
            untimed_ok &= reference::self_check(&call.expect, &out.answers);
        }
        Ok(())
    })?;
    let mut tally = Tally {
        untimed_ok,
        ..Tally::default()
    };
    let mut jobs = Vec::new();
    let mut parts: Vec<(&str, Vec<f64>)> = calls.iter().map(|c| (c.system, Vec::new())).collect();
    if tracer.is_none() {
        stats::reset_peak_rss();
    }
    let t0 = Instant::now();
    let mut n = 0;
    while !run.expired(t0) || (tracer.is_some() && n < 2) {
        let start = Instant::now();
        let ok = match tracer {
            Some(tr) if n % 2 == 1 => tr.span("job", None, |job| {
                let outs: Vec<_> = calls
                    .iter()
                    .map(|call| traced_call(tr, job, call))
                    .collect();
                calls
                    .iter()
                    .zip(&outs)
                    .all(|(call, out)| verified(call, out))
            }),
            _ => {
                let outs: Vec<_> = calls
                    .iter()
                    .map(|call| {
                        let t = Instant::now();
                        let out = analyze(call);
                        (t.elapsed().as_secs_f64(), out)
                    })
                    .collect();
                jobs.push(start.elapsed().as_secs_f64());
                if let Some(tr) = tracer {
                    tr.interval("job.untraced", start, Instant::now());
                }
                for ((_, times), (t, _)) in parts.iter_mut().zip(&outs) {
                    times.push(*t);
                }
                calls
                    .iter()
                    .zip(&outs)
                    .all(|(call, (_, out))| verified(call, out))
            }
        };
        tally.record(ok);
        n += 1;
    }
    if tracer.is_some() {
        return Ok(Report {
            tally,
            ..Report::default()
        });
    }
    let wall = t0.elapsed().as_secs_f64();
    let mut report = Report::end_to_end(tally, &setup_times, &jobs, wall, stats::peak_rss_mb());
    report.part_medians(&parts);
    Ok(report)
}

/// One analyzer call in a `core.analyze` span, with its counter readings
/// and the report's explore time, state count and check time.
fn traced_call(tr: &Tracer, job: usize, call: &Call) -> Result<Outcome, String> {
    tr.span("core.analyze", Some(job), |id| {
        tr.attr(id, "system", call.system);
        let out = with_counters(tr, id, || analyze(call));
        if let Ok(o) = &out {
            tr.attr(id, "explore_s", o.explore_s);
            tr.attr(id, "states", o.states);
            tr.attr(id, "check_s", o.check_s);
        }
        out
    })
}
