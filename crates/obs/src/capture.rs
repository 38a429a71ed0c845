//! A recorder that keeps every event, owned, for test assertions.

use crate::trace::ConvergenceRecord;
use crate::{Event, Recorder};
use std::sync::{Mutex, PoisonError};

/// An owned copy of one [`Event`], as stored by [`Capture`].
#[derive(Debug, Clone, PartialEq)]
pub enum CapturedEvent {
    /// A counter increment.
    CounterAdd {
        /// Instrument name.
        name: &'static str,
        /// Label pairs, values owned.
        labels: Vec<(&'static str, String)>,
        /// Increment.
        value: u64,
    },
    /// A gauge write.
    GaugeSet {
        /// Instrument name.
        name: &'static str,
        /// Label pairs, values owned.
        labels: Vec<(&'static str, String)>,
        /// New value.
        value: f64,
    },
    /// A histogram sample.
    Observe {
        /// Instrument name.
        name: &'static str,
        /// Label pairs, values owned.
        labels: Vec<(&'static str, String)>,
        /// Sample.
        value: f64,
    },
    /// A solver convergence record.
    Trace(ConvergenceRecord),
}

fn own(labels: crate::Labels<'_>) -> Vec<(&'static str, String)> {
    labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

/// Stores every event it sees; tests assert against the accessors.
/// Cheap enough for tests, not meant for production paths.
#[derive(Debug, Default)]
pub struct Capture {
    events: Mutex<Vec<CapturedEvent>>,
}

impl Capture {
    /// An empty capture.
    pub fn new() -> Capture {
        Capture::default()
    }

    /// Every event seen so far, in arrival order.
    pub fn events(&self) -> Vec<CapturedEvent> {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Sum of increments to the counter `name`, across all labels.
    pub fn counter(&self, name: &str) -> u64 {
        self.events()
            .iter()
            .filter_map(|e| match e {
                CapturedEvent::CounterAdd { name: n, value, .. } if *n == name => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// Sum of increments to the counter `name` with some label whose
    /// value equals `label_value`.
    pub fn counter_with(&self, name: &str, label_value: &str) -> u64 {
        self.events()
            .iter()
            .filter_map(|e| match e {
                CapturedEvent::CounterAdd {
                    name: n,
                    labels,
                    value,
                } if *n == name && labels.iter().any(|(_, v)| v == label_value) => Some(*value),
                _ => None,
            })
            .sum()
    }

    /// Last value written to the gauge `name`, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.events().iter().rev().find_map(|e| match e {
            CapturedEvent::GaugeSet { name: n, value, .. } if *n == name => Some(*value),
            _ => None,
        })
    }

    /// Every sample observed into the histogram `name`, in order.
    pub fn observations(&self, name: &str) -> Vec<f64> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                CapturedEvent::Observe { name: n, value, .. } if *n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Every convergence record seen, in order.
    pub fn traces(&self) -> Vec<ConvergenceRecord> {
        self.events()
            .iter()
            .filter_map(|e| match e {
                CapturedEvent::Trace(rec) => Some(rec.clone()),
                _ => None,
            })
            .collect()
    }

    /// Convergence records from the named driver only.
    pub fn traces_for(&self, driver: &str) -> Vec<ConvergenceRecord> {
        self.traces()
            .into_iter()
            .filter(|r| r.driver == driver)
            .collect()
    }
}

impl Recorder for Capture {
    fn record(&self, event: &Event<'_>) {
        let owned = match *event {
            Event::CounterAdd {
                name,
                labels,
                value,
            } => CapturedEvent::CounterAdd {
                name,
                labels: own(labels),
                value,
            },
            Event::GaugeSet {
                name,
                labels,
                value,
            } => CapturedEvent::GaugeSet {
                name,
                labels: own(labels),
                value,
            },
            Event::Observe {
                name,
                labels,
                value,
            } => CapturedEvent::Observe {
                name,
                labels: own(labels),
                value,
            },
            Event::Trace(rec) => CapturedEvent::Trace(rec.clone()),
        };
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(owned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_slice_the_event_stream() {
        let cap = Capture::new();
        cap.record(&Event::CounterAdd {
            name: "smg_a_total",
            labels: &[("kind", "x")],
            value: 2,
        });
        cap.record(&Event::CounterAdd {
            name: "smg_a_total",
            labels: &[("kind", "y")],
            value: 3,
        });
        cap.record(&Event::GaugeSet {
            name: "smg_g",
            labels: &[],
            value: 1.0,
        });
        cap.record(&Event::GaugeSet {
            name: "smg_g",
            labels: &[],
            value: 2.5,
        });
        cap.record(&Event::Observe {
            name: "smg_h_seconds",
            labels: &[],
            value: 0.25,
        });
        cap.record(&Event::Trace(&ConvergenceRecord {
            driver: "vi",
            sweep: 1,
            residual: Some(0.5),
            width: None,
            component: None,
        }));
        assert_eq!(cap.counter("smg_a_total"), 5);
        assert_eq!(cap.counter_with("smg_a_total", "y"), 3);
        assert_eq!(cap.counter("smg_missing_total"), 0);
        assert_eq!(cap.gauge("smg_g"), Some(2.5));
        assert_eq!(cap.gauge("smg_missing"), None);
        assert_eq!(cap.observations("smg_h_seconds"), vec![0.25]);
        assert_eq!(cap.traces().len(), 1);
        assert_eq!(cap.traces_for("vi")[0].sweep, 1);
        assert!(cap.traces_for("interval").is_empty());
        assert_eq!(cap.events().len(), 6);
    }
}
