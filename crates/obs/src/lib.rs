//! # smg-obs — the workspace's instrumentation layer
//!
//! Every engine crate (exploration, the chain and MDP solvers, the worker
//! pool, checking sessions) reports what it did through this crate's
//! *recorder seam*: free functions ([`counter_add`], [`gauge_set`],
//! [`observe`], [`trace`]) that forward to whatever [`Recorder`] is
//! installed. With no recorder installed — the default — every entry point
//! is one relaxed atomic load, one thread-local read and an early return,
//! so instrumentation costs nothing measurable on the hot paths (the engine's bit-identical
//! seq/parallel pins and the committed kernel benchmarks all run in this
//! no-op state).
//!
//! Two installation scopes exist, mirroring the two consumers:
//!
//! * [`set_global`] installs a process-wide recorder — the shape a
//!   long-running daemon (`smg-serve`'s `/metrics`) wants. Events fired
//!   from any thread (including pool workers) reach it.
//! * [`with_recorder`] installs a **thread-local** recorder for the
//!   duration of a closure — the shape the CLI (one run, one snapshot) and
//!   tests (parallel-safe capture) want. Events fired on the wrapped
//!   thread prefer the innermost local recorder; other threads fall back
//!   to the global one. Every instrumentation site in the engine fires
//!   from the dispatching thread, so a local recorder sees a full run.
//!
//! The crate ships three recorders: [`Registry`] (atomic-flavoured
//! counters, gauges and fixed-bucket histograms with Prometheus text
//! exposition and a JSON snapshot), [`Capture`] (records raw events for
//! test assertions), and [`JsonLines`] (streams solver
//! [`ConvergenceRecord`]s as JSON lines — the `check --trace-convergence`
//! channel). [`Fanout`] composes them.
//!
//! The crate also holds the workspace's one JSON module, [`json`]: the
//! escaper, float encoder and parser that every JSON document of the CLI,
//! the daemon, the linter and this crate's own snapshots goes through.
//!
//! # Example
//!
//! ```
//! use smg_obs as obs;
//! use std::sync::Arc;
//!
//! let registry = Arc::new(obs::Registry::new());
//! let snapshot = obs::with_recorder(registry.clone(), || {
//!     // ... run a solver; the engine crates fire these internally ...
//!     obs::counter_add("smg_solve_sweeps_total", Some(("driver", "topo_interval")), 12);
//!     obs::gauge_set("smg_pool_lanes", None, 4.0);
//!     obs::observe("smg_pool_dispatch_seconds", None, 3.2e-6);
//!     obs::trace(&obs::ConvergenceRecord {
//!         driver: "topo_interval",
//!         sweep: 12,
//!         residual: None,
//!         width: Some(4.5e-10),
//!         component: None,
//!     });
//!     registry.render_text()
//! });
//! assert!(snapshot.contains("smg_solve_sweeps_total{driver=\"topo_interval\"} 12"));
//! assert!(snapshot.contains("# TYPE smg_pool_dispatch_seconds histogram"));
//! // The exposition parses: 3 metric families, and outside the closure
//! // the seam is a no-op again.
//! let summary = obs::validate_exposition(&snapshot).unwrap();
//! assert!(summary.families >= 3);
//! assert!(!obs::enabled());
//! ```

#![forbid(unsafe_code)]

mod capture;
mod expo;
pub mod json;
mod registry;
mod trace;

pub use capture::{Capture, CapturedEvent};
pub use expo::{validate_exposition, ExpositionSummary};
pub use registry::Registry;
pub use trace::{ConvergenceRecord, JsonLines};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Instant;

/// The label pairs of one event, borrowed from the call site.
pub type Labels<'a> = &'a [(&'static str, &'a str)];

/// One instrumentation event, borrowed from the call site. Recorders that
/// need to keep an event own-copy it ([`CapturedEvent`]); the aggregating
/// [`Registry`] folds it into its instruments instead.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// A monotone counter increased by `value`.
    CounterAdd {
        /// Instrument name (`smg_*`, counters end in `_total`).
        name: &'static str,
        /// `key="value"` label pairs, in rendering order (often none or
        /// one).
        labels: Labels<'a>,
        /// Increment (≥ 0 by construction).
        value: u64,
    },
    /// A gauge was set to `value` (last write wins).
    GaugeSet {
        /// Instrument name.
        name: &'static str,
        /// Label pairs.
        labels: Labels<'a>,
        /// New gauge value.
        value: f64,
    },
    /// A histogram observed one sample.
    Observe {
        /// Instrument name (`_seconds` names get latency buckets, `_ratio`
        /// names get unit-interval buckets — see [`Registry`]).
        name: &'static str,
        /// Label pairs.
        labels: Labels<'a>,
        /// Observed sample.
        value: f64,
    },
    /// A solver emitted one per-iteration convergence record.
    Trace(&'a ConvergenceRecord),
}

/// The seam every instrumented crate talks through. Implementations must
/// tolerate concurrent calls from many threads (the worker pool records
/// from its dispatching thread, but a global recorder can also see worker
/// threads).
pub trait Recorder: Send + Sync {
    /// Handles one event. Must not call back into the recording seam
    /// (events produced while recording would recurse).
    fn record(&self, event: &Event<'_>);
}

/// Whether a process-wide recorder is installed. Relaxed loads suffice:
/// the flag publishes no data, since `dispatch` reads the recorder
/// itself under `GLOBAL`'s lock.
static GLOBAL_INSTALLED: AtomicBool = AtomicBool::new(false);

/// The process-wide recorder, if any.
static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    /// Innermost-wins stack of thread-local recorders.
    static LOCAL: RefCell<Vec<Arc<dyn Recorder>>> = const { RefCell::new(Vec::new()) };
    /// Number of [`with_recorder`] scopes active on this thread (the depth
    /// of `LOCAL`, readable without a `RefCell` borrow).
    static LOCAL_SCOPES: Cell<usize> = const { Cell::new(0) };
}

/// Whether events fired *from this thread* reach a recorder: a global
/// recorder is installed, or this thread is inside a [`with_recorder`]
/// scope. A scope on another thread does not switch this thread on. The
/// instrumented crates use this to skip building event payloads; it is one
/// relaxed atomic load and one thread-local read.
#[inline]
pub fn enabled() -> bool {
    GLOBAL_INSTALLED.load(Ordering::Relaxed) || LOCAL_SCOPES.with(Cell::get) != 0
}

/// Installs (or replaces) the process-wide recorder. Thread-local
/// recorders installed by [`with_recorder`] take precedence on their
/// threads.
pub fn set_global(recorder: Arc<dyn Recorder>) {
    let mut slot = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    *slot = Some(recorder);
    GLOBAL_INSTALLED.store(true, Ordering::Relaxed);
}

/// Removes the process-wide recorder, returning it if one was installed.
pub fn clear_global() -> Option<Arc<dyn Recorder>> {
    let mut slot = GLOBAL.write().unwrap_or_else(PoisonError::into_inner);
    GLOBAL_INSTALLED.store(false, Ordering::Relaxed);
    slot.take()
}

/// Runs `f` with `recorder` installed as this thread's recorder (innermost
/// wins; restored on exit, panic included). Events fired by `f` on this
/// thread go to `recorder` instead of the global one; events fired by
/// other threads (e.g. pool workers) still go to the global recorder.
/// Every solver/pool instrumentation site fires from the dispatching
/// thread, so wrapping a check run captures it completely — and two tests
/// wrapping different recorders on different threads never see each
/// other's events.
pub fn with_recorder<R>(recorder: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Scope;
    impl Drop for Scope {
        fn drop(&mut self) {
            LOCAL.with(|l| l.borrow_mut().pop());
            LOCAL_SCOPES.with(|n| n.set(n.get() - 1));
        }
    }
    LOCAL.with(|l| l.borrow_mut().push(recorder));
    LOCAL_SCOPES.with(|n| n.set(n.get() + 1));
    let _scope = Scope;
    f()
}

/// Routes one event: innermost thread-local recorder if present, else the
/// global recorder, else dropped.
fn dispatch(event: &Event<'_>) {
    let delivered = LOCAL.with(|l| {
        // A recorder must not re-enter the seam, but user recorders are
        // arbitrary code: don't hold the borrow across the call.
        let local = l.borrow().last().cloned();
        match local {
            Some(r) => {
                r.record(event);
                true
            }
            None => false,
        }
    });
    if !delivered {
        let global = GLOBAL
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        if let Some(r) = global {
            r.record(event);
        }
    }
}

/// Adds `value` to the counter `name` (with an optional label pair).
/// No-op unless a recorder is installed.
#[inline]
pub fn counter_add(name: &'static str, label: Option<(&'static str, &str)>, value: u64) {
    counter_add_labels(name, label.as_slice(), value);
}

/// Adds `value` to the counter `name` under several label pairs (the
/// series `name{k1="v1",k2="v2"}`). No-op unless a recorder is installed.
#[inline]
pub fn counter_add_labels(name: &'static str, labels: Labels<'_>, value: u64) {
    if !enabled() {
        return;
    }
    dispatch(&Event::CounterAdd {
        name,
        labels,
        value,
    });
}

/// Sets the gauge `name` to `value`. No-op unless a recorder is installed.
#[inline]
pub fn gauge_set(name: &'static str, label: Option<(&'static str, &str)>, value: f64) {
    if !enabled() {
        return;
    }
    dispatch(&Event::GaugeSet {
        name,
        labels: label.as_slice(),
        value,
    });
}

/// Observes `value` into the histogram `name`. No-op unless a recorder is
/// installed.
#[inline]
pub fn observe(name: &'static str, label: Option<(&'static str, &str)>, value: f64) {
    if !enabled() {
        return;
    }
    dispatch(&Event::Observe {
        name,
        labels: label.as_slice(),
        value,
    });
}

/// Emits one solver convergence record. No-op unless a recorder is
/// installed; callers that would allocate to build the record should guard
/// with [`enabled`] first.
#[inline]
pub fn trace(record: &ConvergenceRecord) {
    if !enabled() {
        return;
    }
    dispatch(&Event::Trace(record));
}

/// A monotonic span timer: started with [`Span::start`], it observes the
/// elapsed wall time (seconds) into the histogram `name` when dropped.
/// When no recorder is installed at start time the span holds no clock
/// reading and drops for free.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    label: Option<(&'static str, &'static str)>,
    start: Option<Instant>,
}

impl Span {
    /// Starts a span feeding the histogram `name`.
    #[must_use]
    pub fn start(name: &'static str) -> Span {
        Span {
            name,
            label: None,
            start: enabled().then(Instant::now),
        }
    }

    /// Starts a labelled span.
    #[must_use]
    pub fn start_with(name: &'static str, key: &'static str, value: &'static str) -> Span {
        Span {
            name,
            label: Some((key, value)),
            start: enabled().then(Instant::now),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            observe(self.name, self.label, start.elapsed().as_secs_f64());
        }
    }
}

/// Broadcasts every event to a set of recorders, in order — e.g. a
/// [`Registry`] snapshot plus a [`JsonLines`] trace file in one CLI run.
pub struct Fanout(Vec<Arc<dyn Recorder>>);

impl Fanout {
    /// A fanout over `recorders`.
    pub fn new(recorders: Vec<Arc<dyn Recorder>>) -> Fanout {
        Fanout(recorders)
    }
}

impl Recorder for Fanout {
    fn record(&self, event: &Event<'_>) {
        for r in &self.0 {
            r.record(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Barrier, Mutex, MutexGuard};

    /// Serializes the one test that installs a global recorder (which
    /// switches the seam on for every thread) with the tests that assert
    /// the seam is off.
    static GLOBAL_LOCK: Mutex<()> = Mutex::new(());

    fn no_global() -> MutexGuard<'static, ()> {
        GLOBAL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn seam_is_off_by_default_and_scoped_install_restores() {
        let _g = no_global();
        assert!(!enabled());
        // Events with no recorder vanish (and must not panic).
        counter_add("smg_test_total", None, 1);
        let cap = Arc::new(Capture::new());
        let inner = Arc::new(Capture::new());
        with_recorder(cap.clone(), || {
            assert!(enabled());
            counter_add("smg_test_total", None, 2);
            // Innermost wins.
            with_recorder(inner.clone(), || {
                counter_add("smg_test_total", None, 40);
            });
            counter_add("smg_test_total", Some(("kind", "x")), 3);
        });
        assert_eq!(cap.counter("smg_test_total"), 5);
        assert_eq!(inner.counter("smg_test_total"), 40);
        assert_eq!(cap.counter_with("smg_test_total", "x"), 3);
    }

    #[test]
    fn scoped_recorder_survives_panics() {
        let _g = no_global();
        let cap = Arc::new(Capture::new());
        let r = std::panic::catch_unwind(|| {
            with_recorder(cap.clone(), || panic!("boom"));
        });
        assert!(r.is_err());
        assert!(!enabled());
        counter_add("smg_after_total", None, 1);
        assert_eq!(cap.counter("smg_after_total"), 0);
    }

    #[test]
    fn global_recorder_receives_other_threads() {
        let _g = no_global();
        let cap = Arc::new(Capture::new());
        set_global(cap.clone());
        std::thread::spawn(|| counter_add("smg_thread_total", None, 7))
            .join()
            .unwrap();
        let got = clear_global();
        assert!(got.is_some());
        assert_eq!(cap.counter("smg_thread_total"), 7);
        assert!(clear_global().is_none());
    }

    #[test]
    fn scopes_on_other_threads_leave_this_thread_off() {
        let _g = no_global();
        const SCOPED: usize = 8;
        const BARE: usize = 4;
        let caps: Vec<Arc<Capture>> = (0..SCOPED).map(|_| Arc::new(Capture::new())).collect();
        // Every thread reads `enabled()` between the two barrier waits,
        // while all the scoped threads are inside their scopes. Threads
        // report instead of asserting, so a failure cannot strand the
        // others at a barrier.
        let barrier = Barrier::new(SCOPED + BARE);
        std::thread::scope(|s| {
            let scoped: Vec<_> = caps
                .iter()
                .enumerate()
                .map(|(i, cap)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        let inside = with_recorder(cap.clone(), || {
                            barrier.wait();
                            let on = enabled();
                            counter_add("smg_test_total", None, i as u64 + 1);
                            barrier.wait();
                            on
                        });
                        (inside, enabled())
                    })
                })
                .collect();
            let bare: Vec<_> = (0..BARE)
                .map(|_| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let on = enabled();
                        counter_add("smg_test_total", None, 1000);
                        barrier.wait();
                        on
                    })
                })
                .collect();
            for h in scoped {
                assert_eq!(h.join().unwrap(), (true, false));
            }
            for h in bare {
                assert!(
                    !h.join().unwrap(),
                    "another thread's scope switched this one on"
                );
            }
        });
        // Each scope saw exactly its own thread's event.
        for (i, cap) in caps.iter().enumerate() {
            assert_eq!(cap.counter("smg_test_total"), i as u64 + 1);
        }
    }

    #[test]
    fn span_observes_elapsed_seconds() {
        let cap = Arc::new(Capture::new());
        with_recorder(cap.clone(), || {
            let span = Span::start_with("smg_test_seconds", "kind", "a");
            std::hint::black_box(17 * 3);
            drop(span);
        });
        let obs = cap.observations("smg_test_seconds");
        assert_eq!(obs.len(), 1);
        assert!(obs[0] >= 0.0);
        // Started outside any recorder scope: drops silently even if a
        // recorder appears afterwards.
        let late = Span::start("smg_test_seconds");
        with_recorder(cap.clone(), move || drop(late));
        assert_eq!(cap.observations("smg_test_seconds").len(), 1);
    }

    #[test]
    fn fanout_broadcasts() {
        let a = Arc::new(Capture::new());
        let b = Arc::new(Capture::new());
        let fan = Arc::new(Fanout::new(vec![a.clone(), b.clone()]));
        with_recorder(fan, || {
            gauge_set("smg_test_lanes", None, 4.0);
        });
        assert_eq!(a.gauge("smg_test_lanes"), Some(4.0));
        assert_eq!(b.gauge("smg_test_lanes"), Some(4.0));
    }

    /// Both JSON emitters of this crate write non-finite numbers the way
    /// [`json::Value::as_f64`] reads them, so the workspace's own parser
    /// can read an infinite residual back out of its own trace.
    #[test]
    fn metrics_and_trace_json_read_back_non_finite_values() {
        let values = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-12];
        let same = |got: f64, want: f64| got == want || (got.is_nan() && want.is_nan());

        let reg = Registry::new();
        for (label, &value) in ["a", "b", "c", "d"].iter().zip(&values) {
            reg.record(&Event::GaugeSet {
                name: "smg_test_value",
                labels: &[("k", label)],
                value,
            });
        }
        reg.record(&Event::Observe {
            name: "smg_test_seconds",
            labels: &[],
            value: f64::INFINITY,
        });
        let doc = json::parse(&reg.render_json()).expect("valid metrics JSON");
        let gauges = doc.get("gauges").and_then(json::Value::as_array).unwrap();
        let read: Vec<f64> = gauges
            .iter()
            .map(|g| g.get("value").and_then(json::Value::as_f64).unwrap())
            .collect();
        assert_eq!(read.len(), values.len());
        assert!(
            read.iter().zip(&values).all(|(&g, &w)| same(g, w)),
            "{read:?}"
        );
        let hist = &doc
            .get("histograms")
            .and_then(json::Value::as_array)
            .unwrap()[0];
        assert_eq!(
            hist.get("sum").and_then(json::Value::as_f64),
            Some(f64::INFINITY)
        );

        let mut sink = Vec::new();
        let lines = JsonLines::new(&mut sink);
        for pair in values.chunks(2) {
            lines.record(&Event::Trace(&ConvergenceRecord {
                driver: "topo_interval",
                sweep: 1,
                residual: Some(pair[0]),
                width: Some(pair[1]),
                component: None,
            }));
        }
        let mut read = Vec::new();
        for line in String::from_utf8(sink).unwrap().lines() {
            let rec = json::parse(line).expect("valid trace line");
            for key in ["residual", "width"] {
                read.push(rec.get(key).and_then(json::Value::as_f64).unwrap());
            }
        }
        assert_eq!(read.len(), values.len());
        assert!(
            read.iter().zip(&values).all(|(&g, &w)| same(g, w)),
            "{read:?}"
        );
    }
}
