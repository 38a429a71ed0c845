//! `perfbench` — the load generator behind `perfbench/run.py`.
//!
//! ```text
//! perfbench <solve|build|serve|paper> --seed N --seconds S [--trace FILE] [--out DIR]
//! ```
//!
//! Without `--trace` the run measures the end-to-end metrics and prints
//! them as its last line of JSON. With `--trace FILE` it runs the traced
//! variant of the workload, writes its spans to FILE, and `run.py` derives
//! the per-layer metrics from that file. Every answer is checked against an
//! independent reference (see `reference.rs`); generated inputs go to
//! `--out` (default `.bench_out`).

mod batch;
mod gen;
mod paper;
mod reference;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;
use trace::{json_str, Tracer};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The parsed command line.
#[derive(Debug)]
pub struct Run {
    /// Workload seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Directory for generated inputs.
    pub out: PathBuf,
    /// Where the traced run writes its spans (traced runs only).
    pub trace: Option<PathBuf>,
}

impl Run {
    /// Whether the timed phase, started at `t0`, has run its length.
    pub fn expired(&self, t0: Instant) -> bool {
        t0.elapsed().as_secs_f64() >= self.seconds
    }
}

/// Operation accounting: an operation is one job of a batch workload (each
/// of its models or analyzer calls once) or one HTTP request. It fails on
/// any error, a non-200 reply, or an answer outside its reference.
#[derive(Debug, Default)]
pub struct Tally {
    /// Timed operations attempted.
    pub attempted: usize,
    /// Timed operations that failed.
    pub failed: usize,
    /// Whether every untimed check held too (warm-up answers and the
    /// wrong-reference self-check).
    pub untimed_ok: bool,
}

impl Tally {
    /// Counts one timed operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

/// What a run reports: the tally, its metrics (end-to-end runs) and
/// details recorded beside them.
#[derive(Debug, Default)]
pub struct Report {
    /// Operation accounting.
    pub tally: Tally,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// `(key, JSON value)` recorded beside the metrics.
    pub detail: Vec<(&'static str, String)>,
}

impl Report {
    /// The end-to-end metrics from set-up times, operation latencies
    /// (seconds; a batch workload's operation is its job), the timed
    /// phase's wall time and its peak memory.
    pub fn end_to_end(
        tally: Tally,
        setups: &[f64],
        ops: &[f64],
        wall: f64,
        peak_mb: f64,
    ) -> Report {
        let (tail, pct) = stats::tail(ops);
        // p99 is recorded beside the bounded p90 but not bounded itself: on
        // a shared host it follows bursts of CPU steal. Null when fewer than
        // ten operations lie beyond it.
        let p99 =
            stats::percentile(ops, 99.0).map_or("null".to_string(), |v| format!("{:?}", 1e3 * v));
        Report {
            tally,
            metrics: vec![
                ("setup_s", stats::median(setups), "s"),
                ("job_p50_s", stats::median(ops), "s"),
                ("req_p50_ms", 1e3 * stats::median(ops), "ms"),
                ("req_tail_ms", 1e3 * tail, "ms"),
                ("req_per_s", ops.len() as f64 / wall, "1/s"),
                ("peak_rss_mb", peak_mb, "MB"),
            ],
            detail: vec![
                ("operations", ops.len().to_string()),
                ("req_tail_percentile", format!("{pct:?}")),
                ("req_p99_ms", p99),
                ("timed_wall_s", format!("{wall:?}")),
                ("setup_runs_s", format!("{setups:?}")),
            ],
        }
    }

    /// Records the median latency of each part of a job beside the metrics.
    pub fn part_medians(&mut self, parts: &[(&str, Vec<f64>)]) {
        let medians: Vec<String> = parts
            .iter()
            .map(|(name, times)| format!("{}: {:?}", json_str(name), stats::median(times)))
            .collect();
        self.detail
            .push(("part_p50_s", format!("{{{}}}", medians.join(", "))));
    }
}

/// Runs `setup` `times` times (at least once), timing each; returns the
/// last set-up's state and every duration. Earlier states are dropped
/// (daemons shut down) before the next set-up starts.
pub fn repeated_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let mut durations = Vec::new();
    let mut last = None;
    while durations.len() < times.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup()?);
        durations.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), durations))
}

fn parse_args() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let workload = args.next().ok_or("missing workload")?;
    let mut run = Run {
        seed: 0,
        seconds: 10.0,
        out: PathBuf::from(".bench_out"),
        trace: None,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--seed" => run.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => run.out = PathBuf::from(value),
            "--trace" => run.trace = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload, run))
}

fn main() {
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let tracer = run.trace.as_ref().map(|_| Tracer::default());
    let steal_at_start = stats::host_steal_s();
    let result = std::fs::create_dir_all(&run.out)
        .map_err(|e| format!("cannot create {}: {e}", run.out.display()))
        .and_then(|()| match workload.as_str() {
            "solve" | "build" => batch::run(&workload, &run, tracer.as_ref()),
            "serve" => serve::run(&run, tracer.as_ref()),
            "paper" => paper::run(&run, tracer.as_ref()),
            other => Err(format!("unknown workload {other:?}")),
        });
    let report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench {workload}: {e}");
            std::process::exit(1);
        }
    };
    let meta = meta(&workload, &run, stats::host_steal_s() - steal_at_start);
    if let (Some(path), Some(tracer)) = (&run.trace, &tracer) {
        let doc = format!(
            "{{\n\"schema\": \"perfbench-trace/1\",\n\"meta\": {meta},\n\"spans\": {}\n}}\n",
            tracer.to_json()
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
    println!("{}", summary(&report, &meta));
}

/// Run metadata: engine lanes and parallel threshold as the engine sees
/// them, the host's core count, the seed, and the CPU time the host took
/// from this machine during the run.
fn meta(workload: &str, run: &Run, steal_s: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {:?}, \"nproc\": {nproc}, \"lanes\": {}, \"min_rows\": {}, \"host_steal_s\": {steal_s:?}}}",
        json_str(workload),
        run.seed,
        run.seconds,
        smg_dtmc::par::max_threads(),
        smg_dtmc::par::min_rows(),
    )
}

fn summary(report: &Report, meta: &str) -> String {
    let t = &report.tally;
    let mut metrics = String::from("{");
    for (i, (name, value, unit)) in report.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            if i > 0 { ", " } else { "" },
            json_str(name),
            json_str(unit)
        );
    }
    metrics.push('}');
    let detail: Vec<String> = report
        .detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}, \"detail\": {{{}}}, \"meta\": {meta}}}",
        t.failed == 0 && t.untimed_ok && t.attempted > 0,
        t.attempted,
        t.failed,
        detail.join(", "),
    )
}
