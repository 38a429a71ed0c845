//! The aggregating recorder: counters, gauges and fixed-bucket histograms
//! with Prometheus text exposition and a JSON snapshot.

use crate::{json, Event, Recorder};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Latency buckets, applied to `*_seconds` histograms.
const TIME_BUCKETS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];
/// Unit-interval buckets, applied to `*_ratio` histograms.
const RATIO_BUCKETS: &[f64] = &[0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0];
/// Generic magnitude buckets, applied to everything else.
const VALUE_BUCKETS: &[f64] = &[1.0, 2.0, 5.0, 10.0, 100.0, 1_000.0, 10_000.0, 100_000.0];

/// Bucket table for a histogram, picked by name suffix.
fn buckets_for(name: &str) -> &'static [f64] {
    if name.ends_with("_seconds") {
        TIME_BUCKETS
    } else if name.ends_with("_ratio") {
        RATIO_BUCKETS
    } else {
        VALUE_BUCKETS
    }
}

/// `# HELP` text for the workspace's known instruments; anything the engine
/// grows later still renders, with a generic line.
fn help_for(name: &str) -> &'static str {
    match name {
        "smg_explore_states_total" => "States discovered during model exploration.",
        "smg_explore_transitions_total" => "Transitions discovered during model exploration.",
        "smg_explore_levels_total" => "Frontier levels expanded during model exploration.",
        "smg_explore_seconds" => "Wall time of model exploration runs.",
        "smg_solve_sweeps_total" => "Solver sweeps (full matrix passes) by driver.",
        "smg_vi_deflations_total" => {
            "States whose certified Pmax upper bound end-component deflation lowered."
        }
        "smg_vi_inflations_total" => {
            "States whose Rmin lower bound zero-reward end-component inflation raised."
        }
        "smg_mdp_mecs_total" => "Maximal end components found by MEC decomposition.",
        "smg_pool_dispatch_seconds" => "Worker-pool epoch dispatch-to-completion latency.",
        "smg_pool_epochs_total" => "Parallel epochs dispatched to the worker pool.",
        "smg_pool_tasks_total" => "Tasks dispatched to the worker pool.",
        "smg_pool_inline_runs_total" => "Pool runs executed inline (below the parallel threshold).",
        "smg_pool_lane_utilization_ratio" => "Fraction of pool lanes engaged per epoch.",
        "smg_pool_lanes" => "Configured worker-pool lane count.",
        "smg_par_dispatch_total" => {
            "Sequential-or-parallel decisions of the dispatch gate by site and path."
        }
        "smg_pctl_property_seconds" => "Per-property check wall time by solver.",
        "smg_check_properties_total" => "Properties checked by `smg check` runs.",
        "smg_session_cache_hits_total" => "Check-session cache hits by cache kind.",
        "smg_session_cache_misses_total" => "Check-session cache misses by cache kind.",
        "smg_chaos_epochs_total" => "Simulated pool epochs replayed by the chaos harness.",
        "smg_chaos_stalls_total" => "Lane stalls injected by the chaos interleaver.",
        "smg_chaos_injected_panics_total" => "Task panics injected by the chaos interleaver.",
        "smg_chaos_torn_latches_total" => {
            "Torn result-latch updates injected by the chaos interleaver."
        }
        "smg_chaos_epoch_skews_total" => "Epoch-counter skews injected by the chaos interleaver.",
        "smg_lint_runs_total" => "Lint runs over checked .sm programs.",
        "smg_lint_diagnostics_total" => "Lint diagnostics reported, by severity.",
        "smg_serve_requests_total" => "Daemon requests by route.",
        "smg_serve_request_seconds" => "Daemon request latency, read to response.",
        "smg_serve_http_errors_total" => "Daemon error responses by HTTP status.",
        "smg_serve_compiles_total" => "Models compiled by POST /models (cache misses).",
        "smg_serve_model_hits_total" => "POST /models requests answered by a resident model.",
        "smg_serve_evictions_total" => "Resident models evicted, by reason.",
        "smg_serve_models" => "Models currently resident in the daemon.",
        _ => GENERIC_HELP,
    }
}

/// The HELP line of an instrument [`help_for`] has no entry for.
const GENERIC_HELP: &str = "Instrument recorded by smg-obs.";

/// Owned label pairs of one series, in rendering order.
type LabelSet = Vec<(&'static str, String)>;

/// Instrument key: name plus its label pairs, owned.
type Key = (&'static str, LabelSet);

#[derive(Debug, Clone)]
struct Hist {
    buckets: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Hist {
    fn new(name: &str) -> Hist {
        let buckets = buckets_for(name);
        Hist {
            buckets,
            counts: vec![0; buckets.len()],
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, value: f64) {
        for (i, &le) in self.buckets.iter().enumerate() {
            if value <= le {
                self.counts[i] += 1;
            }
        }
        self.sum += value;
        self.count += 1;
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, f64>,
    hists: BTreeMap<Key, Hist>,
}

/// An aggregating [`Recorder`]: folds counter/gauge/observe events into
/// sorted instrument maps and renders them as Prometheus text exposition
/// ([`Registry::render_text`]) or a JSON snapshot
/// ([`Registry::render_json`]). Convergence-trace events are not
/// aggregated here — route them to a [`crate::JsonLines`] via
/// [`crate::Fanout`] when both are wanted.
///
/// Rendering order is fully deterministic (sorted by name, then label), so
/// two runs of a deterministic workload produce byte-identical text modulo
/// timing-valued samples.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

/// One family's samples, flattened for rendering.
enum Family<'a> {
    Counter(Vec<(&'a LabelSet, u64)>),
    Gauge(Vec<(&'a LabelSet, f64)>),
    Hist(Vec<(&'a LabelSet, &'a Hist)>),
}

/// Renders a float for the text exposition: plain decimal for finite
/// values, Prometheus spellings otherwise (the JSON snapshot uses
/// [`json::number`]).
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// `k="v"` pairs joined by commas.
fn pairs(labels: &[(&'static str, String)]) -> String {
    let pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    pairs.join(",")
}

fn label_str(labels: &LabelSet) -> String {
    if labels.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs(labels))
    }
}

/// Label set for a histogram sample, merging the instrument labels with an
/// extra `le` pair.
fn label_le(labels: &LabelSet, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{{{},le=\"{le}\"}}", pairs(labels))
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.counters.is_empty() && inner.gauges.is_empty() && inner.hists.is_empty()
    }

    /// Current value of the counter `name` with the given single label
    /// value (`None` for the unlabelled instrument); 0 if never
    /// incremented.
    pub fn counter_value(&self, name: &str, label_value: Option<&str>) -> u64 {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let values: Vec<&str> = label_value.into_iter().collect();
        inner
            .counters
            .iter()
            .find(|((n, l), _)| {
                *n == name && l.iter().map(|(_, v)| v.as_str()).eq(values.iter().copied())
            })
            .map_or(0, |(_, v)| *v)
    }

    fn families(inner: &Inner) -> BTreeMap<&'static str, Family<'_>> {
        let mut out: BTreeMap<&'static str, Family<'_>> = BTreeMap::new();
        for ((name, label), value) in &inner.counters {
            match out
                .entry(name)
                .or_insert_with(|| Family::Counter(Vec::new()))
            {
                Family::Counter(samples) => samples.push((label, *value)),
                _ => unreachable!("instrument {name} used as two metric types"),
            }
        }
        for ((name, label), value) in &inner.gauges {
            match out.entry(name).or_insert_with(|| Family::Gauge(Vec::new())) {
                Family::Gauge(samples) => samples.push((label, *value)),
                _ => unreachable!("instrument {name} used as two metric types"),
            }
        }
        for ((name, label), hist) in &inner.hists {
            match out.entry(name).or_insert_with(|| Family::Hist(Vec::new())) {
                Family::Hist(samples) => samples.push((label, hist)),
                _ => unreachable!("instrument {name} used as two metric types"),
            }
        }
        out
    }

    /// The registry as Prometheus text exposition: per family a `# HELP`
    /// and `# TYPE` line followed by its samples, families and samples in
    /// sorted order.
    pub fn render_text(&self) -> String {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = String::new();
        for (name, family) in Self::families(&inner) {
            out.push_str(&format!("# HELP {name} {}\n", help_for(name)));
            match family {
                Family::Counter(samples) => {
                    out.push_str(&format!("# TYPE {name} counter\n"));
                    for (label, value) in samples {
                        out.push_str(&format!("{name}{} {value}\n", label_str(label)));
                    }
                }
                Family::Gauge(samples) => {
                    out.push_str(&format!("# TYPE {name} gauge\n"));
                    for (label, value) in samples {
                        out.push_str(&format!("{name}{} {}\n", label_str(label), fmt_f64(value)));
                    }
                }
                Family::Hist(samples) => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    for (label, hist) in samples {
                        for (i, &le) in hist.buckets.iter().enumerate() {
                            out.push_str(&format!(
                                "{name}_bucket{} {}\n",
                                label_le(label, &fmt_f64(le)),
                                hist.counts[i]
                            ));
                        }
                        out.push_str(&format!(
                            "{name}_bucket{} {}\n",
                            label_le(label, "+Inf"),
                            hist.count
                        ));
                        out.push_str(&format!(
                            "{name}_sum{} {}\n",
                            label_str(label),
                            fmt_f64(hist.sum)
                        ));
                        out.push_str(&format!(
                            "{name}_count{} {}\n",
                            label_str(label),
                            hist.count
                        ));
                    }
                }
            }
        }
        out
    }

    /// The registry as one JSON object:
    /// `{"counters": [...], "gauges": [...], "histograms": [...]}` with one
    /// `{"name", "label", "value"|…}` entry per instrument, sorted like the
    /// text exposition. Strings and numbers use the [`json`] encoding, so
    /// non-finite numbers render as `"Infinity"`, `"-Infinity"`, `"NaN"`.
    pub fn render_json(&self) -> String {
        fn json_label(labels: &LabelSet) -> String {
            if labels.is_empty() {
                return "null".to_string();
            }
            let pairs: Vec<String> = labels
                .iter()
                .map(|(k, v)| format!("{}:{}", json::escape(k), json::escape(v)))
                .collect();
            format!("{{{}}}", pairs.join(","))
        }
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let counters: Vec<String> = inner
            .counters
            .iter()
            .map(|((name, label), value)| {
                format!(
                    "{{\"name\":{},\"label\":{},\"value\":{value}}}",
                    json::escape(name),
                    json_label(label)
                )
            })
            .collect();
        let gauges: Vec<String> = inner
            .gauges
            .iter()
            .map(|((name, label), value)| {
                format!(
                    "{{\"name\":{},\"label\":{},\"value\":{}}}",
                    json::escape(name),
                    json_label(label),
                    json::number(*value)
                )
            })
            .collect();
        let hists: Vec<String> = inner
            .hists
            .iter()
            .map(|((name, label), hist)| {
                let buckets: Vec<String> = hist
                    .buckets
                    .iter()
                    .zip(&hist.counts)
                    .map(|(le, c)| format!("{{\"le\":{},\"count\":{c}}}", json::number(*le)))
                    .collect();
                format!(
                    "{{\"name\":{},\"label\":{},\"count\":{},\"sum\":{},\"buckets\":[{}]}}",
                    json::escape(name),
                    json_label(label),
                    hist.count,
                    json::number(hist.sum),
                    buckets.join(",")
                )
            })
            .collect();
        format!(
            "{{\"counters\":[{}],\"gauges\":[{}],\"histograms\":[{}]}}",
            counters.join(","),
            gauges.join(","),
            hists.join(",")
        )
    }
}

/// The owned key labels of an event.
fn own(labels: crate::Labels<'_>) -> LabelSet {
    labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

impl Recorder for Registry {
    fn record(&self, event: &Event<'_>) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match *event {
            Event::CounterAdd {
                name,
                labels,
                value,
            } => {
                *inner.counters.entry((name, own(labels))).or_insert(0) += value;
            }
            Event::GaugeSet {
                name,
                labels,
                value,
            } => {
                inner.gauges.insert((name, own(labels)), value);
            }
            Event::Observe {
                name,
                labels,
                value,
            } => {
                inner
                    .hists
                    .entry((name, own(labels)))
                    .or_insert_with(|| Hist::new(name))
                    .observe(value);
            }
            // Per-iteration traces are a streaming channel, not an
            // aggregate — see `JsonLines`.
            Event::Trace(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every instrument the inventory in `docs/OBSERVABILITY.md` lists
    /// renders its own HELP line, not the generic one.
    #[test]
    fn every_documented_instrument_has_its_own_help() {
        let inventory = include_str!("../../../docs/OBSERVABILITY.md");
        let listed: Vec<&str> = inventory
            .lines()
            .filter_map(|l| l.strip_prefix("| `")?.split('`').next())
            .filter(|name| name.starts_with("smg_"))
            .collect();
        assert!(listed.len() >= 30, "inventory rows: {listed:?}");
        let generic: Vec<&str> = listed
            .into_iter()
            .filter(|name| {
                let reg = Registry::new();
                reg.record(&Event::CounterAdd {
                    name,
                    labels: &[],
                    value: 1,
                });
                reg.render_text()
                    .contains(&format!("# HELP {name} {GENERIC_HELP}\n"))
            })
            .collect();
        assert!(generic.is_empty(), "generic HELP for {generic:?}");
    }

    fn sample_registry() -> Registry {
        let reg = Registry::new();
        reg.record(&Event::CounterAdd {
            name: "smg_solve_sweeps_total",
            labels: &[("driver", "interval")],
            value: 12,
        });
        reg.record(&Event::CounterAdd {
            name: "smg_solve_sweeps_total",
            labels: &[("driver", "gauss_seidel")],
            value: 4,
        });
        reg.record(&Event::GaugeSet {
            name: "smg_pool_lanes",
            labels: &[],
            value: 4.0,
        });
        reg.record(&Event::Observe {
            name: "smg_pool_dispatch_seconds",
            labels: &[],
            value: 3.0e-5,
        });
        reg.record(&Event::Observe {
            name: "smg_pool_dispatch_seconds",
            labels: &[],
            value: 2.0,
        });
        reg
    }

    #[test]
    fn text_exposition_is_sorted_and_complete() {
        let text = sample_registry().render_text();
        assert!(text.contains("# TYPE smg_solve_sweeps_total counter"));
        assert!(text.contains("smg_solve_sweeps_total{driver=\"gauss_seidel\"} 4"));
        assert!(text.contains("smg_solve_sweeps_total{driver=\"interval\"} 12"));
        assert!(text.contains("# TYPE smg_pool_lanes gauge"));
        assert!(text.contains("smg_pool_lanes 4"));
        assert!(text.contains("# TYPE smg_pool_dispatch_seconds histogram"));
        assert!(text.contains("smg_pool_dispatch_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("smg_pool_dispatch_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("smg_pool_dispatch_seconds_sum 2.00003"));
        assert!(text.contains("smg_pool_dispatch_seconds_count 2"));
        // Sorted label values within a family.
        let gs = text.find("driver=\"gauss_seidel\"").unwrap();
        let iv = text.find("driver=\"interval\"").unwrap();
        assert!(gs < iv);
        // Two renders are byte-identical.
        assert_eq!(text, sample_registry().render_text());
    }

    #[test]
    fn bucket_tables_follow_name_suffix() {
        assert_eq!(buckets_for("smg_pool_dispatch_seconds"), TIME_BUCKETS);
        assert_eq!(
            buckets_for("smg_pool_lane_utilization_ratio"),
            RATIO_BUCKETS
        );
        assert_eq!(buckets_for("smg_batch_size"), VALUE_BUCKETS);
    }

    #[test]
    fn json_snapshot_mirrors_the_text() {
        let json = sample_registry().render_json();
        assert!(json.starts_with("{\"counters\":["));
        assert!(json.contains(
            "{\"name\":\"smg_solve_sweeps_total\",\"label\":{\"driver\":\"interval\"},\"value\":12}"
        ));
        assert!(json.contains("\"name\":\"smg_pool_lanes\",\"label\":null,\"value\":4"));
        assert!(json.contains("\"name\":\"smg_pool_dispatch_seconds\""));
        assert!(json.contains("\"count\":2,\"sum\":2.00003"));
    }

    #[test]
    fn counter_value_reads_back() {
        let reg = sample_registry();
        assert_eq!(
            reg.counter_value("smg_solve_sweeps_total", Some("interval")),
            12
        );
        assert_eq!(reg.counter_value("smg_solve_sweeps_total", Some("nope")), 0);
        assert_eq!(reg.counter_value("smg_missing_total", None), 0);
        assert!(!reg.is_empty());
        assert!(Registry::new().is_empty());
    }

    #[test]
    fn multi_label_series_render_every_pair() {
        let reg = Registry::new();
        for path in ["seq", "par", "seq"] {
            reg.record(&Event::CounterAdd {
                name: "smg_par_dispatch_total",
                labels: &[("site", "spmv_forward"), ("path", path)],
                value: 1,
            });
        }
        let text = reg.render_text();
        assert!(text.contains("smg_par_dispatch_total{site=\"spmv_forward\",path=\"seq\"} 2"));
        assert!(text.contains("smg_par_dispatch_total{site=\"spmv_forward\",path=\"par\"} 1"));
        assert!(text.contains("# HELP smg_par_dispatch_total Sequential-or-parallel"));
        crate::validate_exposition(&text).unwrap();
        assert!(reg
            .render_json()
            .contains("\"label\":{\"site\":\"spmv_forward\",\"path\":\"par\"},\"value\":1"));
        // Single-label reads never match a multi-label series.
        assert_eq!(reg.counter_value("smg_par_dispatch_total", Some("par")), 0);
    }

    #[test]
    fn traces_are_not_aggregated() {
        let reg = Registry::new();
        reg.record(&Event::Trace(&crate::ConvergenceRecord {
            driver: "vi",
            sweep: 1,
            residual: Some(0.1),
            width: None,
            component: None,
        }));
        assert!(reg.is_empty());
    }
}
