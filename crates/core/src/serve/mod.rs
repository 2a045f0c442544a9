//! Continuous-batching request serving over the **paged KV pool** (the
//! paper's §4 decode stage, grown into a memory-aware multi-request
//! scheduler).
//!
//! The chunked prefill of §3.2 exists so prefill work can *share the
//! device* with other in-flight work; this module is where that sharing
//! happens — and, since the paged-KV subsystem landed, where the
//! device's **memory** is shared too. [`LlmNpuEngine::serve`] admits a
//! queue of [`GenerationRequest`]s against one fixed
//! [`BlockPool`] of KV pages and builds one
//! combined [`LaneGraph`] holding, per admitted request *incarnation*:
//!
//! * an **admission task** that reserves the request's worst-case page
//!   budget, reusing pages from the **global radix prefix cache**
//!   ([`llmnpu_kv::PrefixCache`]) — the one prefix-reuse path: a prompt
//!   prefix computed by an earlier request, however long ago it
//!   released, is reused at any length (full cached pages are adopted
//!   ref-counted, the sub-page remainder is recovered by a leading-row
//!   copy), so the shared system prompt is allocated and prefilled
//!   **once per session**, not once per batch. The lookup happens at
//!   plan time, so two requests of one cold batch with the same prompt
//!   prefix both prefill it, and the first to finish caches it,
//! * the request's **chunked-prefill DAG** over its *uncached suffix*,
//!   writing K/V straight into the pool through the request's block
//!   table (position-addressed, so out-of-order chunks can't reorder
//!   the cache),
//! * its **decode steps** — its first token as soon as its own prefill
//!   ends (step 0 samples from the prefill's last hidden row), then,
//!   grouped into cohorts, steps whose concurrent requests'
//!   same-position rows run as **one `m = B` batched GEMM** per linear
//!   site instead of B separate GEMVs ([`ServeOptions::decode_batch`]),
//!   attention staying per-request over each paged history — and
//! * a **release task** returning every page to the pool (the zero-leak
//!   counter [`KvPoolReport::leaked_blocks`] pins this).
//!
//! # Admission is a memory model, not a request count
//!
//! A request is admitted when the pool has pages for its worst case
//! (prompt + decode budget) *and* a slot under
//! [`ServeOptions::max_active`]. When pages run out, the planner either
//! **waits** for the earliest active request to finish, or — under
//! [`PressurePolicy::EvictYoungest`] — **preempts** the youngest active
//! request: its pages are freed, its (so far prefill-only) work is
//! discarded, and it is requeued behind the preemptor to be
//! **recomputed** from scratch. Both the eviction and the second
//! prefill appear in the unified timeline — the preemption witness.
//! Admission decisions are made by a deterministic planner over request
//! order and page arithmetic, so the *structure* of a serving run never
//! depends on wall-clock noise.
//!
//! # Sessions and the global prefix cache
//!
//! There is one serving path: [`LlmNpuEngine::serve_with_session`] over
//! a [`ServeSession`] (one pool plus one [`llmnpu_kv::PrefixCache`]).
//! [`LlmNpuEngine::serve`] is literally that path on a *transient*
//! session — opened for the call, autosized to the batch, flushed (and
//! proven empty) before returning. A long-running front-end (see
//! [`crate::frontend`]) instead opens a session once and runs one
//! round per loop turn: cached prompt prefixes (every completed prefill
//! inserts its full prompt pages, a prefill cut at a chunk boundary the
//! full pages it completed) survive *across* rounds, so a later request
//! sharing a system prompt with any earlier one reuses those pages even
//! though the producer is long released. Cached pages are ref-counted residents of the pool;
//! under admission pressure the planner evicts cold cached prefixes
//! (LRU, refusing pages mid-reuse or claimed by the current round)
//! before it resorts to preempting live requests. The zero-leak
//! invariant becomes: used pages minus cache-resident pages is zero
//! after every round, and exactly zero after a session flush.
//!
//! # Determinism
//!
//! Each request's decode chain stays a serial dependency over its own
//! paged cache and its own seeded [`Sampler`]; attention over any page
//! size is bit-identical to the one-page store solo `generate` runs on
//! (the same layer loop, the same kernel, its key tile a constant); and
//! stacking rows into an `m = B` GEMM never changes a row's bits,
//! because every [`LinearBackend`](llmnpu_model::backend::LinearBackend)
//! computes each output row from its own input row alone — so every
//! request's token stream is **bit-identical** to its solo
//! [`Transformer::generate`] run at every worker count, policy, batch
//! width, pool size, and eviction schedule, with prefix reuse and
//! decode cohorts on for every backend.
//!
//! # Failure containment
//!
//! Serving is a *service*, so one request's failure is never the run's
//! failure. The combined graph executes through `llmnpu-sched`'s
//! fault-contained entry (`execute_lane_graph_contained`): a panic or
//! error in one request's stage closure fails only that request's chain, a
//! dispatch gate skips tasks whose request was cancelled
//! ([`CancelToken`]) or is past its [`GenerationRequest::deadline_ms`],
//! and the Admit / Evicted / Release tasks are containment *barriers*
//! that run on every path — which is how the zero-leak page invariant
//! holds under failure, not just success. Every request ends in exactly
//! one [`RequestStatus`]; transient failures are retried with bounded
//! exponential backoff (requeued into the next round — the retry
//! re-streams from step 0 with the same seeded sampler, so a surviving
//! retry is still bit-identical to the solo run). Deterministic fault
//! injection for all of this lives in [`crate::faults`]; a fault is
//! keyed on the request's stable id and its attempt, counted across
//! rounds.
//!
//! # Module map
//!
//! Serving drains one **queue**, a *round* at a time: a round runs every
//! entry through a fixed pipeline over one `Round` context and resolves
//! each to one outcome — finished, requeued for retry (its backoff as
//! its arrival) or requeued suspended. An entry keeps its stable id (its
//! index in a `serve` batch, or its front-end submission id) and its
//! attempts across rounds. `serve_with_session` runs rounds until the
//! queue drains; the [front-end](crate::frontend) runs one per loop
//! turn, arrivals first.
//!
//! A round ends when its graph drains — or, when the front-end forms
//! it, a new submission arrives while it runs and all it has left is
//! prefill it may cut, at the next **chunk boundary** of each such
//! prefill: chunks already under way finish, the tasks of later ones run
//! empty, the completed full pages go to the prefix cache at the
//! request's Release, and the request is requeued *suspended*, to
//! resume through an ordinary cache hit. A request in decode is never
//! cut, and every cut completes at least one chunk and one new full
//! page; `serve` and `serve_with_session` have no arrival source and
//! never cut.
//!
//! * `plan` — the deterministic admission planner (segments, prefix-cache
//!   hits, gates, pressure ladder, decode cohorts — resumed prefills in
//!   their own),
//! * `build` — the combined lane graph; every task enters through one
//!   `push_task` that states its lane facts, body, and metadata together;
//!   a cuttable prefill's stage bodies consult its chunk cut, and each
//!   cohort's decode chain ends in its members' Release tasks,
//! * `prove` — the graph as an `llmnpu-verify` plan, proven clean
//!   before any closure runs,
//! * `run` — the executor hook (the dispatch gate, and a record of each
//!   member's settled tasks from which it is resolved: a complete
//!   stream as its last token settles, everyone else when the round
//!   ends), fault-contained execution, and the round over the queue
//!   composing onto one clock,
//! * `report` — the timeline, outcomes, pool accounting and metrics a
//!   call hands back.
//!
//! [`LaneGraph`]: llmnpu_sched::LaneGraph
//! [`Sampler`]: llmnpu_model::sample::Sampler
//! [`Transformer::generate`]: llmnpu_model::forward::Transformer::generate

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use llmnpu_kv::{BlockPool, PoolConfig, PrefixCache, PrefixCacheMetrics};
use llmnpu_model::forward::Transformer;
use llmnpu_model::sample::{Sampler, SamplerConfig};
use llmnpu_obs::{MetricsSnapshot, Observability, TraceSink};
use llmnpu_soc::memory::MemoryModel;
use llmnpu_soc::{Millis, Processor};

use crate::engine::LlmNpuEngine;
use crate::faults::FaultPlan;
use crate::{Error, Result};

mod build;
mod plan;
mod prove;
mod report;
mod run;

pub use report::{
    decode_interleaved_with_prefill, evicted_and_recomputed, request_entries, trace_span,
    KvPoolReport, RequestOutcome, ServeMeta, ServeReport, ServeSpan, ServeTaskKind, ServeTimeline,
};
use run::RoundMode;
pub(crate) use run::Served;

/// Locks a serving-plane mutex, recovering from poisoning: every guarded
/// value here (generation state, KV-cache slots, terminal-status cells)
/// is plain per-request data whose chain is already poisoned at the task
/// level when its holder panics — recovery contains the failure to that
/// request instead of spreading it to every neighbor sharing the run.
fn plain_lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A shared cancellation handle for one request's stream.
///
/// Cloning shares the flag: keep a clone (via
/// [`GenerationRequest::cancel_handle`]) and flip it from anywhere — an
/// `on_token` sink after enough tokens, a timeout thread, a caller-side
/// disconnect. The serving gate observes it at every dispatch decision:
/// the request's remaining tasks are skipped (never run), its pages are
/// released by the barrier Release task, and its outcome reports
/// [`RequestStatus::Cancelled`]. Cancelling after the stream already
/// finished is a no-op (the request stays `Completed`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent, takes effect at the next
    /// dispatch decision touching the request).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Terminal outcome of one served request — every request ends in
/// exactly one of these, and KV pages are released on *all* of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestStatus {
    /// The full stream was generated (bit-identical to the solo run).
    Completed,
    /// A task of the request panicked or errored and no retry budget was
    /// configured (`max_retries == 0`).
    Failed {
        /// The failing task's error (panic payloads are stringified).
        error: String,
    },
    /// The request's [`CancelToken`] fired before the stream finished.
    Cancelled,
    /// The request blew its [`GenerationRequest::deadline_ms`] (or its
    /// TTFT deadline before producing a first token).
    DeadlineExceeded,
    /// The request failed, was retried `max_retries` times with backoff,
    /// and every attempt failed.
    RetriesExhausted {
        /// The last attempt's error.
        error: String,
    },
}

impl RequestStatus {
    /// Whether the stream completed fully.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, RequestStatus::Completed)
    }

    /// The failure message, if this is a failing status.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            RequestStatus::Failed { error } | RequestStatus::RetriesExhausted { error } => {
                Some(error)
            }
            _ => None,
        }
    }
}

/// One queued generation request.
#[derive(Debug, Clone)]
pub struct GenerationRequest {
    /// Prompt token ids (must be non-empty).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate (must be at least 1).
    pub max_new_tokens: usize,
    /// Sampling strategy and seed for this request's stream.
    pub sampler: SamplerConfig,
    /// Arrival time, ms from the start of the serving run. Tasks of this
    /// request are not dispatched earlier. Through the front-end it is an
    /// offset from the moment of [`FrontendClient::submit`](crate::frontend::FrontendClient::submit).
    pub arrival_ms: Millis,
    /// Completion deadline, ms *from the request's arrival* (re-armed on
    /// retry attempts). Once the clock passes it, remaining tasks are
    /// skipped and the request reports
    /// [`RequestStatus::DeadlineExceeded`]. `None` = no deadline.
    ///
    /// Through the front-end the clock starts at submission: time spent
    /// queued behind a running round, or suspended between rounds, is
    /// spent from this budget, and a request whose budget ran out before
    /// it joins a round ends `DeadlineExceeded` without reserving a page.
    pub deadline_ms: Option<Millis>,
    /// Time-to-first-token deadline, ms from arrival: enforced only
    /// until the first token is out (a request that already streamed a
    /// token cannot TTFT-expire). `None` = no TTFT deadline. Through the
    /// front-end, queued time counts against it as for
    /// [`GenerationRequest::deadline_ms`].
    pub ttft_deadline_ms: Option<Millis>,
    /// The request's cancellation flag (shared with every clone).
    pub cancel: CancelToken,
}

impl GenerationRequest {
    /// A greedy request arriving at time zero.
    #[must_use]
    pub fn new(prompt: Vec<u32>, max_new_tokens: usize) -> Self {
        GenerationRequest {
            prompt,
            max_new_tokens,
            sampler: SamplerConfig::greedy(),
            arrival_ms: 0.0,
            deadline_ms: None,
            ttft_deadline_ms: None,
            cancel: CancelToken::new(),
        }
    }

    /// The deterministic synthetic request used by the serving demo and
    /// the `BENCH_kernels.json` serving section — one definition so the
    /// two workloads cannot drift apart: prompt token `k` is
    /// `(k·7 + index) % vocab`, sampled top-k(8) at temperature 0.9 with
    /// seed `42 + index`.
    #[must_use]
    pub fn synthetic(index: usize, prompt_len: usize, max_new_tokens: usize, vocab: usize) -> Self {
        let prompt: Vec<u32> = (0..prompt_len as u32)
            .map(|k| (k * 7 + index as u32) % vocab.max(1) as u32)
            .collect();
        GenerationRequest::new(prompt, max_new_tokens).with_sampler(SamplerConfig::top_k(
            8,
            0.9,
            42 + index as u64,
        ))
    }

    /// Sets the sampling configuration.
    #[must_use]
    pub fn with_sampler(mut self, sampler: SamplerConfig) -> Self {
        self.sampler = sampler;
        self
    }

    /// Sets the arrival time (ms from run start).
    #[must_use]
    pub fn with_arrival_ms(mut self, arrival_ms: Millis) -> Self {
        self.arrival_ms = arrival_ms;
        self
    }

    /// Sets the completion deadline (ms from arrival).
    #[must_use]
    pub fn with_deadline_ms(mut self, deadline_ms: Millis) -> Self {
        self.deadline_ms = Some(deadline_ms);
        self
    }

    /// Sets the time-to-first-token deadline (ms from arrival).
    #[must_use]
    pub fn with_ttft_deadline_ms(mut self, ttft_deadline_ms: Millis) -> Self {
        self.ttft_deadline_ms = Some(ttft_deadline_ms);
        self
    }

    /// A handle that cancels this request when fired (usable from an
    /// `on_token` sink, another thread, or after `serve` was entered).
    #[must_use]
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Worst-case token footprint: prompt plus full decode budget.
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.prompt.len() + self.max_new_tokens
    }
}

/// What to do when a request's page budget does not fit the free pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PressurePolicy {
    /// Queue behind the earliest active request until pages free.
    Wait,
    /// Preempt: evict the **youngest** active request (its pages free
    /// immediately, its work is discarded and recomputed after the
    /// preemptor admits). Re-admissions never evict in turn, so
    /// planning always terminates.
    #[default]
    EvictYoungest,
}

/// One token becoming available on a stream, delivered to
/// [`ServeOptions::on_token`] while the batch is still running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenEvent {
    /// The request's stable id: its index in a `serve` batch, or its
    /// [front-end](crate::frontend) submission id.
    pub request: usize,
    /// Zero-based position in the request's stream.
    pub step: usize,
    /// The sampled token.
    pub token: u32,
}

/// A streaming token callback: invoked from decode tasks as they
/// complete, strictly in stream order *per request* (cross-request
/// interleaving follows the schedule). Must be cheap and non-blocking —
/// it runs on the execution lanes.
pub type TokenSink = Arc<dyn Fn(&TokenEvent) + Send + Sync>;

/// Serving-loop knobs.
#[derive(Clone)]
pub struct ServeOptions {
    /// Maximum number of requests in flight at once (continuous
    /// batching's concurrency cap, layered *on top of* the page-based
    /// admission): request `r` additionally waits for an active slot.
    pub max_active: usize,
    /// Token positions per KV page (the pool's block size).
    pub block_tokens: usize,
    /// Total pool pages. `None` sizes the pool to fit every request's
    /// worst case concurrently (no memory pressure — the compatibility
    /// default); `Some(n)` makes admission a real memory model and can
    /// trigger waiting or eviction.
    pub kv_pool_blocks: Option<usize>,
    /// What to do under memory pressure.
    pub pressure: PressurePolicy,
    /// Maximum decode cohort width B: from the second token on,
    /// same-position decode steps of up to B concurrently admitted
    /// requests run as one `m = B` batched GEMM per linear site (each
    /// request's first token follows its own prefill alone). `1` keeps
    /// each request's steps separate GEMVs.
    pub decode_batch: usize,
    /// Reuse prompt prefixes through the session's global prefix cache:
    /// completed prefills cache their full prompt pages, and a later
    /// round's admission adopts the longest cached prefix of its prompt
    /// (any length: full pages ref-counted, the sub-page tail
    /// row-copied). Off, nothing is cached or looked up.
    pub share_prefixes: bool,
    /// Streaming token callback, if any.
    pub on_token: Option<TokenSink>,
    /// How many times a *failed* request (panic or task error) is
    /// requeued into a later round before giving up with
    /// [`RequestStatus::RetriesExhausted`]. Cancelled and
    /// deadline-expired requests never retry. Each retry re-streams from
    /// step 0 with the request's seeded sampler, so a surviving retry is
    /// still bit-identical to the solo run (the sink sees the stream
    /// restart).
    pub max_retries: usize,
    /// Base backoff before a retry, ms: retry `k` joins the next round
    /// arriving at `retry_backoff_ms · 2^(k-1)` on that round's clock.
    pub retry_backoff_ms: Millis,
    /// Deterministic fault-injection script ([`crate::faults`]); `None`
    /// injects nothing.
    pub faults: Option<FaultPlan>,
    /// Observability stack ([`llmnpu_obs`]): the trace sink, metrics
    /// registry, and kernel-calibration table serving should report
    /// into, shared with the caller by `Arc`. `None` skips all
    /// instrumentation (the near-zero-cost default).
    pub obs: Option<Observability>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            max_active: 2,
            block_tokens: 16,
            kv_pool_blocks: None,
            pressure: PressurePolicy::default(),
            decode_batch: 1,
            share_prefixes: true,
            on_token: None,
            max_retries: 2,
            retry_backoff_ms: 4.0,
            faults: None,
            obs: None,
        }
    }
}

impl fmt::Debug for ServeOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServeOptions")
            .field("max_active", &self.max_active)
            .field("block_tokens", &self.block_tokens)
            .field("kv_pool_blocks", &self.kv_pool_blocks)
            .field("pressure", &self.pressure)
            .field("decode_batch", &self.decode_batch)
            .field("share_prefixes", &self.share_prefixes)
            .field("on_token", &self.on_token.as_ref().map(|_| "Fn"))
            .field("max_retries", &self.max_retries)
            .field("retry_backoff_ms", &self.retry_backoff_ms)
            .field("faults", &self.faults)
            .field("obs", &self.obs.as_ref().map(|_| "Observability"))
            .finish()
    }
}

/// A persistent serving context: one paged KV pool plus one global
/// radix prefix cache, shared by every batch served through
/// [`LlmNpuEngine::serve_with_session`]. Prompt prefixes prefilled by an
/// earlier batch stay resident (ref-held by the cache) and are adopted
/// by later requests with matching prompts, with no submit-time
/// declaration. Dropping the session drops the pool slab; call
/// [`ServeSession::flush`] first to assert emptiness.
#[derive(Debug)]
pub struct ServeSession {
    pool: Arc<BlockPool>,
    cache: PrefixCache,
    obs: Option<Observability>,
}

impl ServeSession {
    /// Pages currently held by the global prefix cache.
    #[must_use]
    pub fn cached_blocks(&self) -> usize {
        self.cache.held_blocks()
    }

    /// The observability stack attached when the session was opened
    /// ([`ServeOptions::obs`]), if any.
    #[must_use]
    pub fn observability(&self) -> Option<&Observability> {
        self.obs.as_ref()
    }

    /// Point-in-time snapshot of the session's metrics registry,
    /// cumulative over every batch served so far (empty when no
    /// observability is attached).
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs
            .as_ref()
            .map(|o| o.registry.snapshot())
            .unwrap_or_default()
    }

    /// Cumulative prefix-cache counters over the session's lifetime.
    #[must_use]
    pub fn cache_metrics(&self) -> PrefixCacheMetrics {
        self.cache.metrics()
    }

    /// The session pool's page statistics (size, usage, watermarks).
    #[must_use]
    pub fn pool_stats(&self) -> llmnpu_kv::PoolStats {
        self.pool.stats()
    }

    /// Drops every cached prefix and returns its pages to the pool,
    /// then proves the pool is completely empty — the session-wide
    /// zero-leak check.
    ///
    /// # Errors
    ///
    /// Returns an error if releasing cached pages fails or if pages
    /// remain in use after the flush (a leak).
    pub fn flush(&self) -> Result<usize> {
        let freed = self.cache.flush(&self.pool).map_err(kv_err)?;
        let used = self.pool.used_blocks();
        if used != 0 {
            return Err(Error::Internal {
                what: format!("{used} KV pages leaked after session flush"),
            });
        }
        Ok(freed)
    }
}

/// The front-end's submission counter as a running round reads it: a
/// submission beyond the `seen` ones the round was formed from is
/// pending, and the round yields at its next chunk boundary once all it
/// has left is prefill it may cut.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Arrivals<'a> {
    submitted: &'a AtomicU64,
    seen: u64,
}

impl<'a> Arrivals<'a> {
    /// `submitted` counts every accepted submission (bumped after its
    /// message is queued); `seen` of them are in the round or answered.
    pub(crate) fn new(submitted: &'a AtomicU64, seen: u64) -> Self {
        Arrivals { submitted, seen }
    }

    /// Whether a submission is queued that the round does not hold.
    pub(super) fn pending(self) -> bool {
        self.submitted.load(Ordering::Acquire) > self.seen
    }
}

/// Where a round hands each member it finished, once: a completed
/// stream from the lane that ran its last token, while the round still
/// runs; any other outcome when the round ends.
pub(crate) type FinishedSink<'a> = dyn Fn(&RequestOutcome) + Sync + 'a;

/// A pending request in a serving queue — new, requeued for retry or
/// suspended by a cut alike — with its history across rounds.
#[derive(Debug)]
pub(crate) struct Queued {
    /// The request, its arrival on the next round's clock.
    pub(crate) request: GenerationRequest,
    /// Stable caller-side id, as fault keys, events and outcomes carry it.
    pub(crate) id: usize,
    /// Incarnations earlier rounds ran (evicted, failed or cut alike).
    pub(crate) attempts: usize,
    /// Failure retries already spent.
    retries: usize,
    /// Resumes a prefill a round cut: it decodes in cohorts of its own,
    /// so fresh requests' batched steps do not wait out the rest of its
    /// prefill.
    pub(crate) resumed: bool,
    /// Arrival (stamped by its first round) and first dispatch, on the
    /// caller's clock — what the outcome reports.
    arrival_ms: f64,
    first_dispatch_ms: Option<f64>,
}

impl Queued {
    /// A request that has not run yet.
    pub(crate) fn new(id: usize, request: GenerationRequest) -> Self {
        Queued {
            request,
            id,
            attempts: 0,
            retries: 0,
            resumed: false,
            arrival_ms: 0.0,
            first_dispatch_ms: None,
        }
    }
}

/// A caller's batch as a queue: request `r` has id `r`.
fn queue_of(requests: &[GenerationRequest]) -> Vec<Queued> {
    let queued = |(r, req): (usize, &GenerationRequest)| Queued::new(r, req.clone());
    requests.iter().enumerate().map(queued).collect()
}

/// Everything fixed about one round, stated once: its members (queue
/// entries, in queue order), the session and the knobs in effect. Every
/// stage — `plan` → `build` → `prove` → `run` → `report` — reads this.
struct Round<'a> {
    members: Vec<Queued>,
    opts: &'a ServeOptions,
    pool: &'a Arc<BlockPool>,
    cache: &'a PrefixCache,
    faults: FaultPlan,
    obs: Option<&'a Observability>,
    /// The front-end's arrival source: with it, the round may cut
    /// prefills at a chunk boundary.
    arrivals: Option<Arrivals<'a>>,
    /// Where the round hands each member it finished, if anywhere.
    finished: Option<&'a FinishedSink<'a>>,
    /// Where the round starts on the clock its spans and outcomes use.
    clock_ms: f64,
}

impl<'a> Round<'a> {
    /// A round over `members` on `session`, starting at `clock_ms`,
    /// handing each member it finishes to `finished`.
    fn new(
        members: Vec<Queued>,
        opts: &'a ServeOptions,
        session: &'a ServeSession,
        arrivals: Option<Arrivals<'a>>,
        finished: Option<&'a FinishedSink<'a>>,
        clock_ms: f64,
    ) -> Self {
        Round {
            members,
            opts,
            pool: &session.pool,
            cache: &session.cache,
            faults: opts.faults.clone().unwrap_or_default(),
            obs: opts.obs.as_ref().or(session.obs.as_ref()),
            arrivals,
            finished,
            clock_ms,
        }
    }

    /// Member `m`'s request.
    fn request(&self, m: usize) -> &GenerationRequest {
        &self.members[m].request
    }

    /// The Plan/Exec event sink, when observability is attached.
    fn sink(&self) -> Option<&'a TraceSink> {
        self.obs.map(|o| o.sink.as_ref())
    }
}

impl LlmNpuEngine {
    /// Serves a queue of generation requests with continuous batching on
    /// this engine's pool: per-request chunked-prefill DAGs and decode
    /// chains interleave on the per-processor lanes under the engine's
    /// scheduling policy, honoring arrival times, the admission cap,
    /// and — new with the paged KV subsystem — the page budget of a
    /// shared [`BlockPool`], with prefix-cache reuse, optional preemption
    /// under memory pressure, and batched decode GEMMs.
    ///
    /// `t` is the numeric transformer the requests run on (its
    /// configuration, not the engine's model, drives the per-request
    /// DAGs). Returns per-request token
    /// streams — bit-identical to solo [`Transformer::generate`] runs
    /// with `chunk_len = self.config().chunk_len` — plus serving
    /// metrics, the unified timeline, and the pool accounting.
    ///
    /// This is [`LlmNpuEngine::serve_with_session`] on a transient
    /// session: a pool auto-sized to fit every request's worst case
    /// (unless [`ServeOptions::kv_pool_blocks`] pins a budget) and a
    /// fresh prefix cache, flushed — and leak-proven empty — before
    /// returning.
    ///
    /// Serving is **fault-contained** (see the module docs): a panic or
    /// error in one request's chain, a fired [`CancelToken`], or a blown
    /// deadline terminates *that request only* — every other stream
    /// completes bit-identical to its solo run. Failed requests are
    /// requeued up to [`ServeOptions::max_retries`] times into later
    /// rounds with exponential backoff; every request ends in exactly
    /// one [`RequestStatus`] in its [`RequestOutcome::status`], and the
    /// pool is page-leak-free afterwards no matter which paths failed.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty/invalid request (empty prompt, zero
    /// `max_new_tokens`, bad sampler config, non-finite or negative
    /// arrival or deadline), invalid options (zero caps or page sizes, a
    /// pool too small for some request, a pool exceeding the SoC's
    /// NPU-window budget), or a *structural* execution failure (lane
    /// setup, graph wiring; page leaks are [`Error::Internal`]).
    /// Per-request failures do **not** surface here — they are reported
    /// per request.
    pub fn serve(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
    ) -> Result<ServeReport> {
        validate_options(opts)?;
        let session = self.open_session(t, opts, serve_pool_blocks(requests, opts))?;
        let mut report = self.serve_with_session(t, requests, opts, &session)?;
        // One-shot contract: nothing survives the call, including
        // cached prefixes — and the flush proves the pool empty.
        session.flush()?;
        report.kv.prefix_cache_resident_blocks = 0;
        Ok(report)
    }

    /// Opens a persistent serving session: one paged pool plus one
    /// global prefix cache that batches served through
    /// [`LlmNpuEngine::serve_with_session`] share. The pool holds
    /// [`ServeOptions::kv_pool_blocks`] pages (required — a
    /// long-running session cannot autosize to a batch it has not seen
    /// yet) and is checked against the SoC's NPU-window budget.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid options, a missing page budget, or
    /// a pool exceeding the NPU-addressable space.
    pub fn open_serve_session(
        &self,
        t: &Transformer<'_>,
        opts: &ServeOptions,
    ) -> Result<ServeSession> {
        validate_options(opts)?;
        let Some(blocks) = opts.kv_pool_blocks else {
            return Err(Error::InvalidConfig {
                what: "a serve session needs an explicit kv_pool_blocks page budget".to_owned(),
            });
        };
        self.open_session(t, opts, blocks)
    }

    /// A session over a fresh `blocks`-page pool (options already
    /// validated).
    fn open_session(
        &self,
        t: &Transformer<'_>,
        opts: &ServeOptions,
        blocks: usize,
    ) -> Result<ServeSession> {
        let pool_cfg = PoolConfig {
            layers: t.config().layers,
            kv_dim: t.config().kv_dim(),
            block_tokens: opts.block_tokens,
            blocks,
        };
        let pool = Arc::new(BlockPool::new(pool_cfg).map_err(kv_err)?);
        // The pool is one slab in the SoC's NPU-addressable space: the
        // window (and DRAM budget) bound how much KV a device can serve.
        MemoryModel::new(&self.config().soc).alloc(
            Processor::Npu,
            "paged-kv-pool",
            pool.bytes(),
        )?;
        Ok(ServeSession {
            pool,
            cache: PrefixCache::new(opts.block_tokens),
            obs: opts.obs.clone(),
        })
    }

    /// Serves one batch on a persistent [`ServeSession`]: the pool and
    /// the global prefix cache outlive the call — prompt prefixes
    /// prefilled by *earlier batches* are reused from cache, and the
    /// pages this batch's prefills cache stay resident for later ones.
    /// The zero-leak proof nets out cache residents: used pages beyond
    /// the cache's holdings must be zero on return.
    ///
    /// # Errors
    ///
    /// As [`LlmNpuEngine::serve`], plus a mismatch between the session
    /// pool and this call (`block_tokens`, model geometry, or a request
    /// that cannot fit the session pool even alone).
    pub fn serve_with_session(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
        session: &ServeSession,
    ) -> Result<ServeReport> {
        check_batch(t, requests, opts, session)?;
        // No arrival source: no round is ever cut, nothing is suspended;
        // a failed request is requeued until its retries run out.
        let mut queue = queue_of(requests);
        let mut served = Served::new(self, opts, session, 0.0);
        while !queue.is_empty() {
            served.round(t, &mut queue, None, None)?;
        }
        let mut report = served.report()?;
        report.requests.sort_by_key(|o| o.request);
        Ok(report)
    }

    /// Statically verifies the serving plan for `requests` without
    /// executing a single task: plans the batch, builds and splices the
    /// full first-round lane graph exactly as [`LlmNpuEngine::serve`]
    /// would, runs the `llmnpu-verify` checks against it, and returns
    /// the proof. No pool pages are reserved, no model math runs, and no
    /// time passes on any lane.
    ///
    /// A clean [`llmnpu_verify::Report`] means the plan is deadlock-free,
    /// its admissions fit the page budget, every admitted segment's
    /// pages provably return on all outcome paths, and no two tasks race
    /// on KV state — the same gate `serve` itself applies before each
    /// round.
    ///
    /// # Errors
    ///
    /// Returns the same input/option validation errors as
    /// [`LlmNpuEngine::serve`], or [`Error::PlanRejected`] listing the
    /// findings when verification fails.
    pub fn verify_serve(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
    ) -> Result<llmnpu_verify::Report> {
        validate_options(opts)?;
        let session = self.open_session(t, opts, serve_pool_blocks(requests, opts))?;
        check_batch(t, requests, opts, &session)?;
        if requests.is_empty() {
            return Ok(llmnpu_verify::Report::default());
        }
        let round = Round::new(queue_of(requests), opts, &session, None, None, 0.0);
        Ok(self.run_round(t, &round, RoundMode::DryRun)?.verified)
    }
}

/// Input validation shared by the serving and dry-run paths: the
/// options, every request, and their fit with the session pool.
fn check_batch(
    t: &Transformer<'_>,
    requests: &[GenerationRequest],
    opts: &ServeOptions,
    session: &ServeSession,
) -> Result<()> {
    validate_options(opts)?;
    let cfg = session.pool.config();
    if cfg.block_tokens != opts.block_tokens {
        return Err(Error::InvalidConfig {
            what: format!(
                "session pool uses {}-token pages, options ask for {}",
                cfg.block_tokens, opts.block_tokens
            ),
        });
    }
    if cfg.layers != t.config().layers || cfg.kv_dim != t.config().kv_dim() {
        return Err(Error::InvalidConfig {
            what: "session pool geometry does not match the model".to_owned(),
        });
    }
    for (r, req) in requests.iter().enumerate() {
        validate_request(r, req, cfg.block_tokens, cfg.blocks)?;
    }
    Ok(())
}

fn validate_options(opts: &ServeOptions) -> Result<()> {
    let positive = [
        ("max_active", Some(opts.max_active)),
        ("block_tokens", Some(opts.block_tokens)),
        ("decode_batch", Some(opts.decode_batch)),
        ("kv_pool_blocks", opts.kv_pool_blocks),
    ];
    if let Some((name, _)) = positive.iter().find(|(_, v)| *v == Some(0)) {
        return Err(Error::InvalidConfig {
            what: format!("{name} must be at least 1"),
        });
    }
    if !opts.retry_backoff_ms.is_finite() || opts.retry_backoff_ms < 0.0 {
        return Err(Error::InvalidConfig {
            what: format!("invalid retry_backoff_ms {}", opts.retry_backoff_ms),
        });
    }
    Ok(())
}

/// Validates one request (`r` labels it in the error) against a pool of
/// `blocks` pages of `block_tokens` tokens: well-formed prompt, budget,
/// clock values and sampler, and a worst-case footprint the pool could
/// hold even alone. The one per-request check — the batch entry points
/// and [`crate::frontend::FrontendClient::submit`] both run it.
pub(crate) fn validate_request(
    r: usize,
    req: &GenerationRequest,
    block_tokens: usize,
    blocks: usize,
) -> Result<()> {
    let invalid = |what: String| Err(Error::InvalidConfig { what });
    if req.prompt.is_empty() {
        return invalid(format!("request {r} has an empty prompt"));
    }
    if req.max_new_tokens == 0 {
        return invalid(format!("request {r} asks for zero tokens"));
    }
    for (name, ms) in [
        ("arrival", Some(req.arrival_ms)),
        ("deadline_ms", req.deadline_ms),
        ("ttft_deadline_ms", req.ttft_deadline_ms),
    ] {
        if let Some(ms) = ms.filter(|ms| !ms.is_finite() || *ms < 0.0) {
            return invalid(format!("request {r} has invalid {name} {ms}"));
        }
    }
    Sampler::new(&req.sampler)?;
    let need = req.total_tokens().div_ceil(block_tokens);
    if need > blocks {
        return invalid(format!(
            "request {r} needs {need} KV pages, pool holds {blocks}"
        ));
    }
    Ok(())
}

/// Maps a paged-KV error into the engine's: a pool whose own bookkeeping
/// went out of sync is a broken invariant ([`Error::Internal`]), every
/// other pool error is a configuration the caller chose.
fn kv_err(e: llmnpu_kv::Error) -> Error {
    let what = format!("kv pool: {e}");
    match e {
        llmnpu_kv::Error::Inconsistent { .. } => Error::Internal { what },
        _ => Error::InvalidConfig { what },
    }
}

/// Page budget of a transient serving run: auto-sized to the batch (no
/// pressure) unless the caller pinned a budget, squeezed by a
/// fault-plan pool cap (but never below the largest single request —
/// nothing could ever be admitted).
fn serve_pool_blocks(requests: &[GenerationRequest], opts: &ServeOptions) -> usize {
    let needs = || {
        requests
            .iter()
            .map(|r| r.total_tokens().div_ceil(opts.block_tokens))
    };
    let mut blocks = opts.kv_pool_blocks.unwrap_or(needs().sum::<usize>().max(1));
    if let Some(cap) = opts.faults.as_ref().and_then(|f| f.pool_blocks_cap) {
        blocks = blocks.min(cap).max(needs().max().unwrap_or(0).max(1));
    }
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_builders_compose() {
        let r = GenerationRequest::new(vec![1, 2, 3], 4)
            .with_sampler(SamplerConfig::top_k(5, 0.8, 7))
            .with_arrival_ms(12.5);
        assert_eq!(r.max_new_tokens, 4);
        assert_eq!(r.sampler.top_k, Some(5));
        assert!((r.arrival_ms - 12.5).abs() < 1e-12);
        assert_eq!(r.total_tokens(), 7);
    }

    #[test]
    fn options_debug_does_not_require_sink_debug() {
        let o = ServeOptions {
            on_token: Some(Arc::new(|_| {})),
            ..ServeOptions::default()
        };
        let s = format!("{o:?}");
        assert!(s.contains("on_token"));
    }

    #[test]
    fn kv_errors_map_by_blame() {
        // A pool whose bookkeeping disagrees with itself is our bug, not
        // the caller's configuration.
        let broken = kv_err(llmnpu_kv::Error::Inconsistent {
            what: "double free".to_owned(),
        });
        assert!(matches!(broken, Error::Internal { .. }), "{broken:?}");
        assert!(broken.to_string().contains("double free"));
        for e in [
            llmnpu_kv::Error::InvalidConfig {
                what: "zero pages".to_owned(),
            },
            llmnpu_kv::Error::OutOfPages {
                requested: 4,
                available: 1,
            },
        ] {
            let mapped = kv_err(e);
            assert!(matches!(mapped, Error::InvalidConfig { .. }), "{mapped:?}");
        }
    }

    #[test]
    fn request_validation_is_per_request() {
        let ok = GenerationRequest::new(vec![1, 2, 3], 4);
        assert!(validate_request(0, &ok, 4, 2).is_ok());
        let too_big = validate_request(5, &ok, 4, 1).unwrap_err();
        assert!(too_big.to_string().contains("request 5 needs 2 KV pages"));
        for bad in [
            GenerationRequest::new(vec![], 4),
            GenerationRequest::new(vec![1], 0),
            ok.clone().with_arrival_ms(f64::NAN),
            ok.clone().with_deadline_ms(f64::INFINITY),
            ok.clone().with_ttft_deadline_ms(-1.0),
            ok.clone().with_sampler(SamplerConfig::top_k(0, 1.0, 1)),
        ] {
            assert!(validate_request(0, &bad, 4, 64).is_err(), "{bad:?}");
        }
    }
}
