//! The span/event tracing core.
//!
//! [`TraceSink`] is the single recorder the whole stack writes into.
//! It is deliberately simple — one mutex around two vectors — because
//! the write rate is bounded by the serving planner (hundreds of
//! records per batch, not per token-byte), and because a lock-free
//! design would buy nothing for the disabled path, which is the one
//! that matters: `is_enabled()` is a single relaxed atomic load, and
//! every emission helper takes closures so argument formatting is
//! never paid when tracing is off.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Which determinism plane a record belongs to. See the crate docs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Plane {
    /// Emitted from single-threaded planner/round code: deterministic
    /// order and content for a given workload. Included in the
    /// canonical modeled export.
    Plan,
    /// Emitted from concurrent executor/pool/cache code: order and
    /// content may vary run-to-run. Chrome/flight exports only.
    Exec,
}

/// Typed discrete events the stack emits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Planner admitted a segment this round.
    Admission,
    /// A pressure-ladder step (cache evict / retained reclaim / live
    /// preemption) freed pages to admit a request.
    Pressure,
    /// Prefix-cache lookup matched a prefix.
    CacheHit,
    /// Prefix-cache lookup matched nothing.
    CacheMiss,
    /// Prefix-cache inserted newly computed blocks.
    CacheInsert,
    /// Prefix-cache evicted cold blocks.
    CacheEvict,
    /// Pool allocated pages.
    PoolReserve,
    /// Pool released pages.
    PoolRelease,
    /// Copy-on-write divergence copied a shared page.
    PoolCow,
    /// A failed request was re-queued for another attempt.
    Retry,
    /// A request was cancelled.
    Cancel,
    /// A request exceeded its deadline.
    Deadline,
    /// Static plan verification passed for a round's graph.
    PlanVerified,
    /// Executor dispatched a task to a lane.
    Dispatch,
    /// A task completed.
    TaskDone,
    /// A task panicked or returned an error.
    TaskFailed,
    /// The dispatch gate skipped a task (cancelled/dead request).
    TaskSkipped,
    /// A request entered the front-end queue.
    Submit,
    /// The front-end formed a batch from queued requests.
    Batch,
    /// A round cut a request's prefill at a chunk boundary and handed
    /// it back to the front-end to resume.
    Suspend,
}

impl EventKind {
    /// Stable lowercase-kebab name used by every exporter.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Admission => "admission",
            EventKind::Pressure => "pressure",
            EventKind::CacheHit => "cache-hit",
            EventKind::CacheMiss => "cache-miss",
            EventKind::CacheInsert => "cache-insert",
            EventKind::CacheEvict => "cache-evict",
            EventKind::PoolReserve => "pool-reserve",
            EventKind::PoolRelease => "pool-release",
            EventKind::PoolCow => "pool-cow",
            EventKind::Retry => "retry",
            EventKind::Cancel => "cancel",
            EventKind::Deadline => "deadline",
            EventKind::PlanVerified => "plan-verified",
            EventKind::Dispatch => "dispatch",
            EventKind::TaskDone => "task-done",
            EventKind::TaskFailed => "task-failed",
            EventKind::TaskSkipped => "task-skipped",
            EventKind::Submit => "submit",
            EventKind::Batch => "batch",
            EventKind::Suspend => "suspend",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The class of a span that records a lane lending its thread to
/// another lane's kernel bands. Such spans are measured, not planned —
/// whether and when a lane lends depends on timing — so the canonical
/// modeled export leaves them out.
pub const LENT_CLASS: &str = "lent";

/// One traced span: a unit of scheduled work on a lane.
///
/// `modeled_ms` is plan-determined and present on every span; the wall
/// fields are `None` for spans recorded outside the timing plane and
/// are **excluded** from the canonical modeled export.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceSpan {
    /// Originating request id, if the span belongs to one.
    pub request: Option<usize>,
    /// Retry attempt (0 = first).
    pub attempt: usize,
    /// Lane / processor the span ran on (e.g. `"Npu"`, `"Cpu"`).
    pub lane: String,
    /// Task label, unique within a round (e.g. `"R3.1-C0-L2-Qkv"`).
    pub name: String,
    /// Task class (e.g. `"prefill"`, `"decode"`, `"admit"`).
    pub class: String,
    /// Executed start on the run's timeline, ms. Measured, so it may
    /// vary run-to-run; excluded from the canonical modeled export.
    pub start_ms: f64,
    /// Executed end on the run's timeline, ms (measured; see
    /// `start_ms`).
    pub end_ms: f64,
    /// Modeled task duration, ms — the plan's cost for the task, fully
    /// determined by the workload.
    pub modeled_ms: f64,
    /// Wall-clock start relative to the sink's epoch, ms (timing plane
    /// only).
    pub wall_start_ms: Option<f64>,
    /// Wall-clock end relative to the sink's epoch, ms (timing plane
    /// only).
    pub wall_end_ms: Option<f64>,
}

/// One discrete traced event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Determinism plane the emission site lives on.
    pub plane: Plane,
    /// What happened.
    pub kind: EventKind,
    /// Request the event concerns, if any.
    pub request: Option<usize>,
    /// Human-readable detail (deterministic for `Plan` events).
    pub detail: String,
    /// Wall-clock timestamp, ms (timing plane only).
    pub wall_ms: Option<f64>,
}

/// A point-in-time copy of everything a sink has recorded.
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// All spans, in recording order.
    pub spans: Vec<TraceSpan>,
    /// All events, in recording order.
    pub events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Request ids appearing on any span or event, sorted + deduped.
    #[must_use]
    pub fn request_ids(&self) -> Vec<usize> {
        let mut ids: Vec<usize> = self
            .spans
            .iter()
            .filter_map(|s| s.request)
            .chain(self.events.iter().filter_map(|e| e.request))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<TraceSpan>,
    events: Vec<TraceEvent>,
}

/// Thread-safe span/event recorder. Disabled by default; a disabled
/// sink rejects every record with one relaxed atomic load and no lock.
#[derive(Debug, Default)]
pub struct TraceSink {
    enabled: AtomicBool,
    buf: Mutex<TraceBuf>,
}

impl TraceSink {
    /// A sink that records.
    #[must_use]
    pub fn enabled() -> Self {
        let sink = Self::default();
        sink.set_enabled(true);
        sink
    }

    /// Whether records are currently accepted.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turn recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceBuf> {
        // Trace buffers hold plain data; a panicking recorder cannot
        // leave them logically torn, so poison is safely ignored.
        match self.buf.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Record a span. The closure runs only when the sink is enabled.
    pub fn span(&self, f: impl FnOnce() -> TraceSpan) {
        if self.is_enabled() {
            self.lock().spans.push(f());
        }
    }

    /// Record an event with no wall timestamp (numeric-plane sites).
    /// The detail closure runs only when the sink is enabled.
    pub fn event(
        &self,
        plane: Plane,
        kind: EventKind,
        request: Option<usize>,
        detail: impl FnOnce() -> String,
    ) {
        if self.is_enabled() {
            self.lock().events.push(TraceEvent {
                plane,
                kind,
                request,
                detail: detail(),
                wall_ms: None,
            });
        }
    }

    /// Record an event carrying a wall timestamp (timing-plane sites).
    pub fn event_at(
        &self,
        plane: Plane,
        kind: EventKind,
        request: Option<usize>,
        wall_ms: f64,
        detail: impl FnOnce() -> String,
    ) {
        if self.is_enabled() {
            self.lock().events.push(TraceEvent {
                plane,
                kind,
                request,
                detail: detail(),
                wall_ms: Some(wall_ms),
            });
        }
    }

    /// Copy out everything recorded so far.
    #[must_use]
    pub fn snapshot(&self) -> TraceLog {
        let buf = self.lock();
        TraceLog {
            spans: buf.spans.clone(),
            events: buf.events.clone(),
        }
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn span_count(&self) -> usize {
        self.lock().spans.len()
    }

    /// Drop everything recorded so far (the enabled flag is kept).
    pub fn clear(&self) {
        let mut buf = self.lock();
        buf.spans.clear();
        buf.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(request: usize, name: &str) -> TraceSpan {
        TraceSpan {
            request: Some(request),
            attempt: 0,
            lane: "Npu".to_owned(),
            name: name.to_owned(),
            class: "prefill".to_owned(),
            start_ms: 0.0,
            end_ms: 1.0,
            modeled_ms: 1.0,
            wall_start_ms: None,
            wall_end_ms: None,
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_skips_closures() {
        let sink = TraceSink::default();
        assert!(!sink.is_enabled());
        sink.span(|| unreachable!("span closure must not run when disabled"));
        sink.event(Plane::Plan, EventKind::Admission, Some(0), || {
            unreachable!("event closure must not run when disabled")
        });
        let log = sink.snapshot();
        assert!(log.spans.is_empty() && log.events.is_empty());
    }

    #[test]
    fn enabled_sink_records_in_order() {
        let sink = TraceSink::enabled();
        sink.span(|| span(0, "a"));
        sink.span(|| span(1, "b"));
        sink.event(Plane::Plan, EventKind::Retry, Some(1), || {
            "again".to_owned()
        });
        let log = sink.snapshot();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[1].name, "b");
        assert_eq!(log.events[0].kind, EventKind::Retry);
        assert_eq!(log.request_ids(), vec![0, 1]);
    }

    #[test]
    fn concurrent_writers_lose_nothing() {
        let sink = std::sync::Arc::new(TraceSink::enabled());
        std::thread::scope(|s| {
            for t in 0..4 {
                let sink = std::sync::Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..100 {
                        sink.span(|| span(t, &format!("t{t}-{i}")));
                    }
                });
            }
        });
        assert_eq!(sink.span_count(), 400);
    }

    #[test]
    fn clear_keeps_enabled() {
        let sink = TraceSink::enabled();
        sink.span(|| span(0, "a"));
        sink.clear();
        assert!(sink.is_enabled());
        assert_eq!(sink.span_count(), 0);
    }
}
