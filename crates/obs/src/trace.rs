//! The solver convergence-trace channel: per-iteration records streamed
//! from the unbounded, certified and topological drivers, and a recorder
//! that serializes them as JSON lines (`check --trace-convergence FILE`).

use crate::{json, Event, Recorder};
use std::io::Write;
use std::sync::{Mutex, PoisonError};

/// One per-iteration record from a value-iteration-family solver.
///
/// Field availability depends on the driver: residual-test drivers report
/// `residual` (the max update delta of the sweep), interval drivers report
/// `width` (the max `hi − lo` over active states), topological drivers
/// additionally carry the SCC `component` being solved (`None` for a
/// trivial-component backsubstitution batch and for global drivers).
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergenceRecord {
    /// Which driver produced the record (`"gauss_seidel"`, `"power"`,
    /// `"topo"`, `"topo_interval"`, `"vi"`, `"topo_vi"`,
    /// `"topo_certified_vi"`, …).
    pub driver: &'static str,
    /// 1-based sweep index within the driver invocation (for per-component
    /// topological records, the sweeps spent on that component).
    pub sweep: u64,
    /// Max update delta of the sweep, where the driver tests a residual.
    pub residual: Option<f64>,
    /// Max `hi − lo` interval width over active states, where the driver
    /// iterates dual bounds.
    pub width: Option<f64>,
    /// SCC id (condensation component) the record belongs to, for
    /// topological drivers.
    pub component: Option<u32>,
}

impl ConvergenceRecord {
    /// The record as one JSON object (no trailing newline). Keys are
    /// stable: `driver`, `sweep`, `residual`, `width`, `component`;
    /// missing fields are `null`, and numbers use the [`json::number`]
    /// encoding (non-finite ones as the strings `"Infinity"`,
    /// `"-Infinity"`, `"NaN"`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"driver\":{},\"sweep\":{},\"residual\":{},\"width\":{},\"component\":{}}}",
            json::escape(self.driver),
            self.sweep,
            self.residual.map_or("null".to_string(), json::number),
            self.width.map_or("null".to_string(), json::number),
            self.component.map_or("null".to_string(), |c| c.to_string()),
        )
    }
}

/// A recorder that writes every [`ConvergenceRecord`] as one JSON line and
/// ignores all other events. Wrap a `BufWriter<File>` for
/// `--trace-convergence`; call [`JsonLines::flush`] (or drop the last
/// handle) when the run is over.
pub struct JsonLines<W: Write + Send> {
    sink: Mutex<W>,
}

impl<W: Write + Send> JsonLines<W> {
    /// A trace writer over `sink`.
    pub fn new(sink: W) -> JsonLines<W> {
        JsonLines {
            sink: Mutex::new(sink),
        }
    }

    /// Flushes the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the writer's I/O error.
    pub fn flush(&self) -> std::io::Result<()> {
        self.sink
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flush()
    }
}

impl<W: Write + Send> Recorder for JsonLines<W> {
    fn record(&self, event: &Event<'_>) {
        if let Event::Trace(rec) = event {
            let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
            // A full disk mid-trace must not panic the solver; the flush
            // at the end surfaces persistent errors.
            let _ = writeln!(sink, "{}", rec.to_json());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_keeps_only_traces_with_stable_keys() {
        let w = JsonLines::new(Vec::new());
        w.record(&Event::CounterAdd {
            name: "smg_x_total",
            labels: &[],
            value: 1,
        });
        w.record(&Event::Trace(&ConvergenceRecord {
            driver: "interval",
            sweep: 3,
            residual: None,
            width: Some(0.5),
            component: None,
        }));
        w.record(&Event::Trace(&ConvergenceRecord {
            driver: "topo_certified_vi",
            sweep: 1,
            residual: Some(f64::INFINITY),
            width: Some(1e-12),
            component: Some(7),
        }));
        let text = String::from_utf8(w.sink.into_inner().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"driver\":\"interval\",\"sweep\":3,\"residual\":null,\
             \"width\":0.5,\"component\":null}"
        );
        assert_eq!(
            lines[1],
            "{\"driver\":\"topo_certified_vi\",\"sweep\":1,\"residual\":\"Infinity\",\
             \"width\":1e-12,\"component\":7}"
        );
    }
}
