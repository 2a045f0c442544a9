//! Stage 5 — **report**: what a serving call hands back. The unified
//! executed timeline and its witnesses, per-request outcomes, paged-KV
//! accounting, and the metrics a finished call publishes — plus the
//! translation of one round's task outcomes into timeline spans.

use std::collections::HashMap;

use llmnpu_graph::dag::TaskRole;
use llmnpu_graph::layer::Stage;
use llmnpu_kv::PrefixCacheMetrics;
use llmnpu_obs::metrics::LATENCY_BUCKETS_MS;
use llmnpu_obs::{MetricsSnapshot, Observability, TraceSpan};
use llmnpu_sched::{LaneGraph, TaskOutcome};
use llmnpu_soc::des::{Timeline, TimelineEntry};

use super::build::{RunCtx, TaskMeta};
use super::{RequestStatus, ServeSession};

/// Fixed buckets for ratio-valued histograms (prefix-cache hit ratio).
const RATIO_BUCKETS: [f64; 5] = [0.2, 0.4, 0.6, 0.8, 1.0];

/// Short span-class tag used by the trace exports.
fn kind_class(kind: &ServeTaskKind) -> &'static str {
    match kind {
        ServeTaskKind::Admit => "admit",
        ServeTaskKind::PrefillStage { .. } => "prefill",
        ServeTaskKind::PrefillFinish => "prefill-finish",
        ServeTaskKind::Evicted => "evict",
        ServeTaskKind::Decode { .. } | ServeTaskKind::DecodeBatch { .. } => "decode",
        ServeTaskKind::Release => "release",
    }
}

/// What a serving-timeline span implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeTaskKind {
    /// Page reservation (and prefix fork) at admission.
    Admit,
    /// One stage task of the request's chunked-prefill DAG.
    PrefillStage {
        /// Chunk index within the request's (unshared) prompt suffix.
        chunk: usize,
        /// Decoder layer.
        layer: usize,
        /// Host stage.
        stage: Stage,
        /// Pipeline role (main / shadow / merge).
        role: TaskRole,
    },
    /// Last-hidden assembly after the request's prefill (KV already
    /// lives in the pool).
    PrefillFinish,
    /// Memory-pressure preemption: this incarnation's pages return to
    /// the pool and its prefill work is discarded (a later incarnation
    /// recomputes it).
    Evicted,
    /// One decode step of a single request (cohort width 1).
    Decode {
        /// Zero-based position in the request's generated stream.
        step: usize,
    },
    /// One **batched** decode step: `width` requests' same-position
    /// steps stacked into one `m = width` GEMM per linear site.
    DecodeBatch {
        /// Zero-based stream position for every member.
        step: usize,
        /// Cohort members still decoding at this step.
        width: usize,
    },
    /// Pages returned to the pool after the request's last token.
    Release,
}

impl ServeTaskKind {
    /// Whether this span belongs to the prefill phase.
    #[must_use]
    pub fn is_prefill(&self) -> bool {
        matches!(
            self,
            ServeTaskKind::PrefillStage { .. } | ServeTaskKind::PrefillFinish
        )
    }

    /// Whether this span is a decode step (batched or not).
    #[must_use]
    pub fn is_decode(&self) -> bool {
        matches!(
            self,
            ServeTaskKind::Decode { .. } | ServeTaskKind::DecodeBatch { .. }
        )
    }
}

/// What the serving plane knows about an executed span beyond its
/// interval: whose it is and what it implements.
#[derive(Debug, Clone)]
pub struct ServeMeta {
    /// Request index (admission order). For a batched decode span, the
    /// first cohort member.
    pub request: usize,
    /// Which incarnation of the request this span belongs to (0 unless
    /// the request was evicted and recomputed).
    pub attempt: usize,
    /// What the span implements.
    pub kind: ServeTaskKind,
    /// The task's plan-time modeled duration (the latency model's
    /// figure, before any scheduling), ms.
    pub modeled_ms: f64,
}

/// One executed span of the batched run: label (e.g. `"R1-C0-L2-Ffn"`,
/// `"R1-D3"`, or `"C0-D2"`), lane, and wall-clock interval relative to
/// run start (ms), plus its [`ServeMeta`].
pub type ServeSpan = TimelineEntry<ServeMeta>;

/// The unified executed timeline of a batched serving run, in completion
/// order: every request's admission, prefill stages, decode steps,
/// evictions, and releases on one clock — the same [`Timeline`] (and the
/// same makespan / busy / overlap metrics) the simulator records.
pub type ServeTimeline = Timeline<ServeMeta>;

/// Spans of one request, in completion order.
#[must_use]
pub fn request_entries(timeline: &ServeTimeline, request: usize) -> Vec<&ServeSpan> {
    let spans = timeline.entries().iter();
    spans.filter(|s| s.meta.request == request).collect()
}

/// The continuous-batching witness: some decode step of one request
/// ran *inside* another request's prefill window (between that
/// request's first prefill dispatch and its last prefill
/// completion). True wall-clock overlap implies it on multicore
/// hosts; on a single core it still witnesses task-granular
/// interleaving — decode work was dispatched before a neighbor's
/// prefill had drained, which is impossible under one-request-at-a-
/// time serving.
#[must_use]
pub fn decode_interleaved_with_prefill(timeline: &ServeTimeline) -> bool {
    let mut windows: HashMap<usize, (f64, f64)> = HashMap::new();
    for s in timeline.entries() {
        if s.meta.kind.is_prefill() {
            let w = windows
                .entry(s.meta.request)
                .or_insert((f64::INFINITY, f64::NEG_INFINITY));
            w.0 = w.0.min(s.start);
            w.1 = w.1.max(s.end);
        }
    }
    timeline.entries().iter().any(|d| {
        d.meta.kind.is_decode()
            && windows
                .iter()
                .any(|(&r, &(lo, hi))| r != d.meta.request && d.start < hi && d.end > lo)
    })
}

/// The preemption witness: `request` was evicted and later ran
/// prefill work again under a higher attempt number.
#[must_use]
pub fn evicted_and_recomputed(timeline: &ServeTimeline, request: usize) -> bool {
    let spans = request_entries(timeline, request);
    let evicted = spans.iter().any(|s| s.meta.kind == ServeTaskKind::Evicted);
    let recomputed = spans
        .iter()
        .any(|s| s.meta.attempt > 0 && matches!(s.meta.kind, ServeTaskKind::PrefillStage { .. }));
    evicted && recomputed
}

/// Per-request outcome of a serving run.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Request index (admission order).
    pub request: usize,
    /// The generated token stream. Complete only for
    /// [`RequestStatus::Completed`]; other statuses keep whatever prefix
    /// of the stream was emitted before the request terminated.
    pub tokens: Vec<u32>,
    /// Wall-clock completion time of each generated token (ms from run
    /// start, one entry per token — the "stream").
    pub token_times_ms: Vec<f64>,
    /// The request's arrival time.
    pub arrival_ms: f64,
    /// First dispatch of any of the request's tasks (any incarnation;
    /// the arrival time if nothing ever dispatched).
    pub first_dispatch_ms: f64,
    /// Completion of the request's (final) prefill — KV pages ready.
    /// `0.0` if the request terminated before finishing prefill.
    pub prefill_done_ms: f64,
    /// Completion of the request's last decode step (`0.0` if none ran).
    pub finish_ms: f64,
    /// Incarnations this request ran, counting both memory-pressure
    /// evictions and failure retries (1 = one clean pass).
    pub attempts: usize,
    /// How the request terminated.
    pub status: RequestStatus,
}

impl RequestOutcome {
    /// Time spent queued before the scheduler first touched the request.
    #[must_use]
    pub fn queue_wait_ms(&self) -> f64 {
        self.first_dispatch_ms - self.arrival_ms
    }

    /// Time-to-first-token: arrival until the first generated token.
    #[must_use]
    pub fn ttft_ms(&self) -> f64 {
        self.token_times_ms.first().map_or(0.0, |&t| t) - self.arrival_ms
    }

    /// Decode throughput over the request's own decode window.
    #[must_use]
    pub fn decode_tokens_per_s(&self) -> f64 {
        let window = self.finish_ms - self.prefill_done_ms;
        if window > 0.0 {
            self.tokens.len() as f64 / (window / 1e3)
        } else {
            0.0
        }
    }
}

/// Paged-KV accounting for one serving run.
#[derive(Debug, Clone, Copy)]
pub struct KvPoolReport {
    /// Token positions per page.
    pub block_tokens: usize,
    /// Total pool pages.
    pub pool_blocks: usize,
    /// Total pool bytes (all layers, K+V, f32).
    pub pool_bytes: u64,
    /// High-water mark of pages in use during the run.
    pub peak_used_blocks: usize,
    /// Pages still referenced after every request released — **must be
    /// zero**; pinned by the serving tests.
    pub leaked_blocks: usize,
    /// Memory-pressure evictions (preempted incarnations).
    pub evictions: usize,
    /// Pages that were *shared* instead of re-allocated thanks to
    /// live-donor prefix sharing (sum over admissions).
    pub shared_prefix_blocks: usize,
    /// Copy-on-write page copies the pool performed.
    pub cow_copies: u64,
    /// Global prefix-cache lookups that matched at least one token
    /// (this run's share of the session cache's counters).
    pub prefix_cache_hits: u64,
    /// Prefix-cache lookups that matched nothing.
    pub prefix_cache_misses: u64,
    /// Prompt tokens served from the prefix cache (full pages plus
    /// row-copied tails) instead of being re-prefilled.
    pub prefix_cache_hit_tokens: u64,
    /// Pool pages reused from the prefix cache instead of re-allocated.
    pub prefix_cache_hit_blocks: u64,
    /// Pages newly retained by prefix-cache inserts at prefill
    /// completion.
    pub prefix_cache_inserted_blocks: u64,
    /// Cached-prefix pages evicted by the planner under pool pressure.
    pub prefix_cache_evictions: u64,
    /// Pages still resident in the prefix cache when this report was
    /// taken (zero for transient [`LlmNpuEngine::serve`](crate::engine::LlmNpuEngine::serve) runs, which
    /// flush; a live [`ServeSession`] keeps them for the next batch).
    pub prefix_cache_resident_blocks: usize,
}

/// Aggregate outcome of one batched serving run.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-request outcomes, in admission order.
    pub requests: Vec<RequestOutcome>,
    /// The unified executed timeline.
    pub timeline: ServeTimeline,
    /// Paged-KV pool accounting.
    pub kv: KvPoolReport,
    /// Static-verification proof sizes, one entry per retry round: every
    /// round's spliced plan was proven clean by `llmnpu-verify` before a
    /// single task ran (a finding aborts the run with
    /// [`Error::PlanRejected`](crate::Error::PlanRejected) instead).
    pub verification: Vec<llmnpu_verify::PlanStats>,
    /// Queue depth over time: `(time_ms, depth)` step points, where
    /// depth counts requests that have arrived but not yet reached a
    /// terminal status. Derived from the outcomes and the timeline, so
    /// it is exactly reproducible run to run.
    pub queue_depth: Vec<(f64, usize)>,
    /// Snapshot of the attached metrics registry taken as the report
    /// was assembled (empty when [`ServeOptions::obs`](super::ServeOptions::obs) was `None`).
    /// With a session registry this is cumulative across batches — the
    /// single source report renderers should read counters from.
    pub metrics: MetricsSnapshot,
}

impl ServeReport {
    /// Wall-clock makespan of the whole batch.
    #[must_use]
    pub fn makespan_ms(&self) -> f64 {
        self.timeline.makespan()
    }

    /// Total generated tokens across all requests.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.requests.iter().map(|r| r.tokens.len()).sum()
    }

    /// Aggregate generation throughput (all requests' tokens over the
    /// batch makespan).
    #[must_use]
    pub fn tokens_per_s(&self) -> f64 {
        let ms = self.makespan_ms();
        if ms > 0.0 {
            self.total_tokens() as f64 / (ms / 1e3)
        } else {
            0.0
        }
    }

    /// Mean time-to-first-token across requests.
    #[must_use]
    pub fn mean_ttft_ms(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(RequestOutcome::ttft_ms)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Mean queue wait across requests.
    #[must_use]
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(RequestOutcome::queue_wait_ms)
            .sum::<f64>()
            / self.requests.len() as f64
    }

    /// Maximum simultaneous in-flight requests over the run (the peak
    /// of [`ServeReport::queue_depth`]).
    #[must_use]
    pub fn peak_queue_depth(&self) -> usize {
        self.queue_depth.iter().map(|&(_, d)| d).max().unwrap_or(0)
    }
}

/// The queue-depth-over-time series for a set of resolved requests: +1
/// at each arrival, −1 when the request reaches its terminal (its last
/// executed span, or its finish time if later; its arrival if nothing
/// ever ran). Simultaneous events coalesce into one step point, with
/// departures applied before arrivals at equal timestamps.
pub(super) fn queue_depth_series(
    outcomes: &[RequestOutcome],
    timeline: &ServeTimeline,
) -> Vec<(f64, usize)> {
    let mut last_span: HashMap<usize, f64> = HashMap::new();
    for s in timeline.entries() {
        let e = last_span.entry(s.meta.request).or_insert(f64::NEG_INFINITY);
        *e = e.max(s.end);
    }
    let mut events: Vec<(f64, i64)> = Vec::with_capacity(outcomes.len() * 2);
    for o in outcomes {
        let done = last_span
            .get(&o.request)
            .copied()
            .unwrap_or(f64::NEG_INFINITY)
            .max(o.finish_ms)
            .max(o.arrival_ms);
        events.push((o.arrival_ms, 1));
        events.push((done, -1));
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut series: Vec<(f64, usize)> = Vec::new();
    let mut depth: i64 = 0;
    for (t, delta) in events {
        depth += delta;
        let d = depth.max(0) as usize;
        match series.last_mut() {
            Some(last) if last.0 == t => last.1 = d,
            _ => series.push((t, d)),
        }
    }
    series
}

/// Paged-KV accounting of one serving call over `session`:
/// `base` is the cache's counter snapshot from before the call, so the
/// prefix-cache figures are this call's share.
pub(super) fn kv_report(
    session: &ServeSession,
    evictions: usize,
    shared_blocks: usize,
    base: &PrefixCacheMetrics,
) -> KvPoolReport {
    let stats = session.pool.stats();
    let held = session.cache.held_blocks();
    let m = session.cache.metrics();
    KvPoolReport {
        block_tokens: session.pool.config().block_tokens,
        pool_blocks: stats.total_blocks,
        pool_bytes: stats.bytes,
        peak_used_blocks: stats.peak_used_blocks,
        // Pages the global cache deliberately keeps resident are not
        // leaks: a leak is anything used beyond the cache's holdings.
        leaked_blocks: stats.used_blocks.saturating_sub(held),
        evictions,
        shared_prefix_blocks: shared_blocks,
        cow_copies: stats.cow_copies,
        prefix_cache_hits: m.hits - base.hits,
        prefix_cache_misses: m.misses - base.misses,
        prefix_cache_hit_tokens: m.hit_tokens - base.hit_tokens,
        prefix_cache_hit_blocks: m.hit_blocks - base.hit_blocks,
        prefix_cache_inserted_blocks: m.inserted_blocks - base.inserted_blocks,
        prefix_cache_evictions: m.evicted_blocks - base.evicted_blocks,
        prefix_cache_resident_blocks: held,
    }
}

/// The one conversion from a timeline entry — of any plane — to the
/// record the observability exporters consume. `owner` is the
/// `(request, attempt)` the interval belongs to, if any; `modeled_ms`
/// its plan-time cost.
#[must_use]
pub fn trace_span<M>(
    entry: &TimelineEntry<M>,
    class: &str,
    owner: Option<(usize, usize)>,
    modeled_ms: f64,
) -> TraceSpan {
    TraceSpan {
        request: owner.map(|(request, _)| request),
        attempt: owner.map_or(0, |(_, attempt)| attempt),
        lane: format!("{:?}", entry.processor),
        name: entry.label.clone(),
        class: class.to_owned(),
        start_ms: entry.start,
        end_ms: entry.end,
        modeled_ms,
        wall_start_ms: Some(entry.start),
        wall_end_ms: Some(entry.end),
    }
}

/// A serving span as the observability plane records it.
pub(super) fn serve_trace_span(span: &ServeSpan) -> TraceSpan {
    let m = &span.meta;
    let owner = Some((m.request, m.attempt));
    trace_span(span, kind_class(&m.kind), owner, m.modeled_ms)
}

/// One round's executed timeline in completion order (skipped tasks
/// have no span), on the round-local clock, already carrying original
/// request ids and global attempt numbers. With observability attached
/// every span also feeds a stage-level calibration sample: executed
/// duration per span class, decode keyed by cohort width.
pub(super) fn round_timeline(
    ctx: RunCtx<'_>,
    graph: &LaneGraph,
    meta: &[TaskMeta],
    outcomes: &[TaskOutcome],
) -> ServeTimeline {
    let mut order: Vec<(f64, f64, usize)> = outcomes
        .iter()
        .enumerate()
        .filter_map(|(i, o)| o.span().map(|(start, end)| (start, end, i)))
        .collect();
    order.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut timeline = ServeTimeline::new();
    for (start, end, i) in order {
        let (m, task) = (&meta[i], &graph.tasks()[i]);
        if let Some(o) = ctx.round.obs {
            let ms = end - start;
            match m.kind {
                ServeTaskKind::PrefillStage { stage, role, .. } => {
                    let site = format!("serve.stage.{stage:?}.{role:?}");
                    o.calibration.record(&site, 0, 0, 0, ms);
                }
                ServeTaskKind::Decode { .. } => {
                    o.calibration.record("serve.decode.token", 1, 0, 0, ms);
                }
                ServeTaskKind::DecodeBatch { width, .. } => {
                    o.calibration.record("serve.decode.token", width, 0, 0, ms);
                }
                _ => {}
            }
        }
        timeline.record(ServeSpan {
            label: task.label.clone(),
            processor: task.processor,
            start,
            end,
            meta: ServeMeta {
                request: ctx.orig(m.segs[0]),
                attempt: ctx.attempt(m.segs[0]),
                kind: m.kind,
                modeled_ms: task.duration_ms,
            },
        });
    }
    timeline
}

/// Publishes a finished call's counters, latency histograms and pool
/// gauges into the attached registry.
pub(super) fn publish_metrics(
    obs: &Observability,
    outcomes: &[RequestOutcome],
    retries: usize,
    kv: &KvPoolReport,
) {
    let reg = &obs.registry;
    reg.counter("serve.batches").inc();
    reg.counter("serve.requests").add(outcomes.len() as u64);
    reg.counter("serve.retries").add(retries as u64);
    reg.counter("serve.evictions").add(kv.evictions as u64);
    let ttft = reg.histogram("serve.ttft_ms", &LATENCY_BUCKETS_MS);
    let wait = reg.histogram("serve.queue_wait_ms", &LATENCY_BUCKETS_MS);
    let per_token = reg.histogram("serve.decode_ms_per_token", &LATENCY_BUCKETS_MS);
    for oc in outcomes {
        let status = match &oc.status {
            RequestStatus::Completed => "serve.completed",
            RequestStatus::Cancelled => "serve.cancelled",
            RequestStatus::DeadlineExceeded => "serve.deadline_exceeded",
            RequestStatus::Failed { .. } | RequestStatus::RetriesExhausted { .. } => "serve.failed",
        };
        reg.counter(status).inc();
        reg.counter("serve.tokens").add(oc.tokens.len() as u64);
        wait.observe(oc.queue_wait_ms());
        if oc.status.is_completed() {
            ttft.observe(oc.ttft_ms());
            let window = oc.finish_ms - oc.prefill_done_ms;
            if !oc.tokens.is_empty() && window > 0.0 {
                per_token.observe(window / oc.tokens.len() as f64);
            }
        }
    }
    // Cumulative pool-lifetime figures report as gauges; the
    // prefix-cache numbers below are per-run deltas.
    reg.gauge("kv.cow_copies").set(kv.cow_copies as i64);
    reg.counter("kv.prefix_cache.hits")
        .add(kv.prefix_cache_hits);
    reg.counter("kv.prefix_cache.misses")
        .add(kv.prefix_cache_misses);
    reg.gauge("kv.peak_used_blocks")
        .set(kv.peak_used_blocks as i64);
    let lookups = kv.prefix_cache_hits + kv.prefix_cache_misses;
    if lookups > 0 {
        reg.histogram("serve.prefix_cache_hit_ratio", &RATIO_BUCKETS)
            .observe(kv.prefix_cache_hits as f64 / lookups as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_metrics_derive() {
        let o = RequestOutcome {
            request: 0,
            tokens: vec![1, 2],
            token_times_ms: vec![30.0, 40.0],
            arrival_ms: 5.0,
            first_dispatch_ms: 10.0,
            prefill_done_ms: 20.0,
            finish_ms: 40.0,
            attempts: 1,
            status: RequestStatus::Completed,
        };
        assert!((o.queue_wait_ms() - 5.0).abs() < 1e-12);
        assert!((o.ttft_ms() - 25.0).abs() < 1e-12);
        assert!((o.decode_tokens_per_s() - 100.0).abs() < 1e-9);
    }

    fn span(request: usize, attempt: usize, kind: ServeTaskKind, lo: f64, hi: f64) -> ServeSpan {
        ServeSpan {
            label: format!("R{request}"),
            processor: llmnpu_soc::Processor::Cpu,
            start: lo,
            end: hi,
            meta: ServeMeta {
                request,
                attempt,
                kind,
                modeled_ms: hi - lo,
            },
        }
    }

    const PREFILL_STAGE: ServeTaskKind = ServeTaskKind::PrefillStage {
        chunk: 0,
        layer: 0,
        stage: Stage::AttnPre,
        role: TaskRole::Main,
    };

    #[test]
    fn interleave_witness_logic() {
        let mut tl = ServeTimeline::new();
        tl.record(span(1, 0, PREFILL_STAGE, 0.0, 10.0));
        // Decode of request 0 strictly after request 1's prefill window:
        // not interleaved.
        tl.record(span(0, 0, ServeTaskKind::Decode { step: 0 }, 11.0, 12.0));
        assert!(!decode_interleaved_with_prefill(&tl));
        // A decode span inside the window flips the witness — batched
        // spans count too.
        let batched = ServeTaskKind::DecodeBatch { step: 1, width: 2 };
        tl.record(span(0, 0, batched, 4.0, 6.0));
        assert!(decode_interleaved_with_prefill(&tl));
    }

    #[test]
    fn eviction_witness_logic() {
        let mut tl = ServeTimeline::new();
        tl.record(span(2, 0, ServeTaskKind::Evicted, 5.0, 5.1));
        assert!(!evicted_and_recomputed(&tl, 2), "no recompute yet");
        tl.record(span(2, 1, PREFILL_STAGE, 6.0, 7.0));
        assert!(evicted_and_recomputed(&tl, 2));
        assert!(!evicted_and_recomputed(&tl, 0));
    }
}
