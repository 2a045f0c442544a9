//! Observability plane for the llm.npu serving stack.
//!
//! Everything the engine does — admission, pressure-ladder eviction,
//! prefix-cache hits, retries, per-task execution, kernel dispatches —
//! happens behind a report struct today; this crate turns it into
//! *live, exportable* telemetry without perturbing the determinism
//! contract the rest of the workspace is built on:
//!
//! * [`trace::TraceSink`] — a thread-safe span/event recorder. Spans
//!   carry the request id, attempt, lane, task class, and **modeled**
//!   duration everywhere; **wall** timestamps only where the timing
//!   plane is allowed to read clocks. A disabled sink is a
//!   near-zero-cost no-op (one relaxed atomic load), so tracing-off
//!   runs are bit-identical to tracing-on runs.
//! * [`metrics::MetricsRegistry`] — named counters, gauges, and
//!   fixed-bucket histograms (TTFT, queue wait, decode ms/token, cache
//!   hit ratio), snapshotable at any time from a live session.
//! * [`chrome`] — Chrome trace-event JSON export (loads directly in
//!   Perfetto / `chrome://tracing`): one track per pool lane, complete
//!   `X` slices per task, per-request async spans and flow arrows. The
//!   companion [`chrome::modeled_trace_json`] export contains *only*
//!   plan-determined fields in a canonical order, so two runs of the
//!   same seeded workload produce byte-identical bytes regardless of
//!   worker count — pinned by the determinism proptests.
//! * [`flight`] — a plain-text flight recorder: the N most recent
//!   requests with their spans and events, for postmortems without a
//!   trace viewer.
//! * [`calib::CalibrationTable`] — per-(site, shape) kernel latency
//!   percentiles aggregated from opt-in probes around the GEMM/GEMV/
//!   LUT drivers and DAG stage functions, serializable to JSON. This
//!   is the measurement artifact the ROADMAP's SLO-aware scheduler
//!   calibrates against.
//! * [`render`] — the reusable text Gantt / queue-depth lane renderer
//!   shared by the serving and front-end examples.
//!
//! # The two event planes
//!
//! The workspace's core invariant is that served streams — and now
//! trace exports — are deterministic functions of the workload, not of
//! thread interleaving. Records therefore declare which plane they
//! belong to ([`trace::Plane`]):
//!
//! * **Plan** — emitted from single-threaded planner/round code, in
//!   deterministic order with deterministic content (admissions,
//!   pressure-ladder steps, retries, plan-verify results).
//! * **Exec** — emitted from concurrent executor/pool/cache code;
//!   order and wall content vary run-to-run (task dispatch/completion,
//!   live cache traffic).
//!
//! The canonical modeled export keeps spans (sorted on plan-determined
//! keys) plus Plan events only; the Chrome export keeps everything.
//!
//! This crate is dependency-free (std only) and sits below the tensor /
//! kv / sched / core crates, which call into it. The only wall-clock
//! reads live in [`calib::WallProbe`] and are justified per-site under
//! the workspace lint's `wall-clock` rule.

#![forbid(unsafe_code)]

pub mod calib;
pub mod chrome;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod render;
pub mod trace;

use std::sync::Arc;

pub use calib::{CalibrationTable, KernelProbe, WallProbe};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use trace::{EventKind, Plane, TraceEvent, TraceLog, TraceSink, TraceSpan};

/// The bundle a serving session or front-end owns: one tracing sink,
/// one metrics registry, one calibration table. Cloning is cheap (all
/// `Arc`s) and clones share the same underlying state, so a caller can
/// keep a handle while the engine writes.
#[derive(Clone, Debug, Default)]
pub struct Observability {
    /// Span/event recorder. Disabled by default.
    pub sink: Arc<TraceSink>,
    /// Live counters/gauges/histograms.
    pub registry: Arc<MetricsRegistry>,
    /// Per-(site, shape) kernel latency samples.
    pub calibration: Arc<CalibrationTable>,
}

impl Observability {
    /// A bundle with tracing enabled (metrics and calibration are
    /// always live; only span/event recording is gated).
    #[must_use]
    pub fn enabled() -> Self {
        let obs = Self::default();
        obs.sink.set_enabled(true);
        obs
    }

    /// A wall-clock kernel probe feeding this bundle's calibration
    /// table, ready to install into the tensor kernel plane.
    #[must_use]
    pub fn kernel_probe(&self) -> Arc<dyn KernelProbe> {
        Arc::new(WallProbe::new(Arc::clone(&self.calibration)))
    }
}

#[cfg(test)]
mod tests {
    use crate::json::{to_string_pretty, ToJson, Value};

    #[test]
    fn primitives_map_to_expected_variants() {
        assert_eq!(3usize.to_json(), Value::Int(3));
        assert_eq!(2.5.to_json(), Value::Float(2.5));
        assert_eq!(true.to_json(), Value::Bool(true));
        assert_eq!("x".to_json(), Value::Str("x".to_owned()));
        assert_eq!(
            vec![1usize, 2].to_json(),
            Value::Arr(vec![Value::Int(1), Value::Int(2)])
        );
    }

    #[test]
    fn renders_nested_structures() {
        let v = Value::Obj(vec![
            ("id", Value::Str("x".to_owned())),
            ("rows", Value::Arr(vec![Value::Int(1), Value::Float(2.5)])),
        ]);
        let s = to_string_pretty(&v);
        assert!(s.contains("\"id\": \"x\""));
        assert!(s.contains("2.5"));
    }

    #[test]
    fn escapes_strings() {
        let s = to_string_pretty(&Value::Str("a\"b\nc".to_owned()));
        assert_eq!(s, "\"a\\\"b\\nc\"");
    }
}
