//! Spans of the traced run, kept in memory and written once when the run
//! ends, plus the `smg-obs` counter readings attached to them.

use smg_obs::Registry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One timed call: name, interval (seconds since the run's epoch), the
/// span that caused it, and what was read around it.
#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
    attrs: Vec<(&'static str, String)>,
    counters: BTreeMap<String, f64>,
}

/// An in-memory span recorder, shared by the run's threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs `f` inside a span; `f` receives the span's id, the parent of
    /// the spans it opens.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let start = self.epoch.elapsed().as_secs_f64();
        let id = {
            let mut spans = self.spans();
            spans.push(Span {
                name,
                parent,
                start,
                end: f64::NAN,
                attrs: Vec::new(),
                counters: BTreeMap::new(),
            });
            spans.len() - 1
        };
        let out = f(id);
        self.spans()[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Records an already-measured interval (an untraced operation, timed
    /// by the caller), as a root span.
    pub fn interval(&self, name: &'static str, start: Instant, end: Instant) {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans().push(Span {
            name,
            parent: None,
            start: at(start),
            end: at(end),
            attrs: Vec::new(),
            counters: BTreeMap::new(),
        });
    }

    /// Attaches an attribute to a span.
    pub fn attr(&self, id: usize, key: &'static str, value: impl ToString) {
        self.spans()[id].attrs.push((key, value.to_string()));
    }

    /// Attaches counter readings to a span.
    pub fn counters(&self, id: usize, counters: BTreeMap<String, f64>) {
        self.spans()[id].counters = counters;
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans();
        let mut out = String::from("[\n");
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"name\": {}, \"start\": {:?}, \"end\": {:?}, \"attrs\": {{",
                json_str(s.name),
                s.start,
                s.end
            );
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
                .collect();
            out.push_str(&attrs.join(", "));
            out.push_str("}, \"counters\": {");
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("{}: {v:?}", json_str(k)))
                .collect();
            out.push_str(&counters.join(", "));
            out.push_str("}}");
            out.push_str(if id + 1 < spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The engine instruments the traced run reads. Histograms contribute
/// their `_sum` and `_count` series.
const INSTRUMENTS: [&str; 8] = [
    "smg_solve_sweeps_total",
    "smg_pool_epochs_total",
    "smg_pool_dispatch_seconds",
    "smg_session_cache_hits_total",
    "smg_session_cache_misses_total",
    "smg_explore_states_total",
    "smg_serve_request_seconds",
    "smg_serve_http_errors_total",
];

/// Reads the registry's counters and histogram sums/counts for the
/// instruments above, keyed by series (name plus labels), from its
/// Prometheus exposition.
pub fn read_registry(registry: &Registry) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in registry.render_text().lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name = series.split('{').next().unwrap_or(series);
        let base = name
            .strip_suffix("_sum")
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if INSTRUMENTS.contains(&base) {
            if let Ok(v) = value.parse::<f64>() {
                out.insert(series.to_string(), v);
            }
        }
    }
    out
}

/// `after − before`, per series.
pub fn delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
) -> BTreeMap<String, f64> {
    after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect()
}
