//! Long-running **streaming front-end** over the serving plane.
//!
//! [`LlmNpuEngine::serve`](crate::serve) answers one batch and tears
//! everything down. A deployed on-device assistant is not a batch: it
//! is a *process* that accepts requests whenever they arrive, streams
//! tokens back per request as they are produced, and keeps warm state
//! — the [`ServeSession`](crate::serve::ServeSession)'s paged pool and global radix prefix cache —
//! alive between arrivals so a shared system prompt is prefilled once,
//! not once per batch.
//!
//! This module is that process, built on nothing but `std::sync::mpsc`:
//!
//! * [`frontend`] splits into a cloneable [`FrontendClient`] (the
//!   submit side — any number of caller threads) and a [`Frontend`]
//!   (the engine side — one serving loop).
//! * [`FrontendClient::submit`] enqueues a [`GenerationRequest`] and
//!   returns a [`StreamHandle`] immediately: a private channel carrying
//!   [`StreamEvent::Token`] for every generated token and exactly one
//!   terminal [`StreamEvent::Finished`] with the request's full
//!   [`RequestOutcome`]. The handle also carries the request's
//!   [`CancelToken`], so a caller can abandon a stream mid-flight.
//! * [`Frontend::run`] opens one [`ServeSession`](crate::serve::ServeSession) and loops: block for
//!   the next arrival, drain everything else that is already queued
//!   into the same batch (natural batching — a burst becomes one
//!   serving round, a trickle becomes many small ones), serve the
//!   batch with [`LlmNpuEngine::serve_with_session`], and fan the
//!   per-request outcomes back out to their handles. The loop ends
//!   when a client calls [`FrontendClient::shutdown`] or every client
//!   handle has been dropped; the session is then flushed, which
//!   *proves* zero pages leaked over the whole run.
//!
//! Cancellation, deadlines, retries, fault containment and the
//! bit-identity guarantee are all inherited unchanged from the serving
//! plane: the front-end adds arrival-over-time and streaming, not new
//! execution semantics. Determinism note: *which* requests share a
//! batch depends on caller timing, but every request's token stream is
//! bit-identical to its solo run regardless of batch composition, so
//! the front-end never changes any stream's bits — only latencies.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};

use llmnpu_kv::PrefixCacheMetrics;
use llmnpu_model::forward::Transformer;
use llmnpu_obs::{EventKind, MetricsSnapshot, Plane};

use crate::engine::LlmNpuEngine;
use crate::serve::{
    validate_request, CancelToken, GenerationRequest, RequestOutcome, RequestStatus, ServeOptions,
    TokenEvent,
};
use crate::{Error, Result};

/// One event on a request's stream, in order: zero or more `Token`s,
/// then exactly one `Finished`.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// One generated token, streamed while the batch is still running.
    Token {
        /// Zero-based decode step within the request's stream.
        step: usize,
        /// The sampled token id.
        token: u32,
    },
    /// The request reached a terminal [`RequestStatus`]; the outcome
    /// carries the full stream, timings and attempt count.
    Finished {
        /// The request's complete outcome. `outcome.request` is the
        /// index within the *batch* the front-end formed, not a global
        /// id — use [`StreamHandle::id`] for identity.
        outcome: RequestOutcome,
    },
}

struct Submission {
    request: GenerationRequest,
    events: Sender<StreamEvent>,
}

enum Msg {
    Submit(Box<Submission>),
    Shutdown,
}

/// The submit side of a front-end: cheap to clone, one per caller
/// thread. Dropping every clone shuts the front-end down gracefully.
#[derive(Clone)]
pub struct FrontendClient {
    tx: Sender<Msg>,
    next_id: Arc<AtomicU64>,
    /// The session pool's shape (page size, page count), so an
    /// unservable request is refused at the door.
    block_tokens: usize,
    pool_blocks: usize,
}

/// A caller's view of one in-flight request: its stream receiver plus
/// the cancellation token.
pub struct StreamHandle {
    id: u64,
    cancel: CancelToken,
    events: Receiver<StreamEvent>,
}

impl FrontendClient {
    /// Submits a request for the next serving batch and returns its
    /// stream handle immediately.
    ///
    /// A malformed request (empty prompt, zero token budget, non-finite
    /// or negative arrival or deadline, bad sampler) or one whose worst
    /// case cannot fit the session pool even alone is refused *here*,
    /// to its own submitter — it never reaches the serving loop, so it
    /// cannot take batch-mates or the loop down with it.
    ///
    /// # Errors
    ///
    /// Returns an error for such a request, or if the front-end loop
    /// has already exited.
    pub fn submit(&self, request: GenerationRequest) -> Result<StreamHandle> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        validate_request(id as usize, &request, self.block_tokens, self.pool_blocks)?;
        let cancel = request.cancel_handle();
        let (events_tx, events_rx) = mpsc::channel();
        let sub = Submission {
            request,
            events: events_tx,
        };
        self.tx
            .send(Msg::Submit(Box::new(sub)))
            .map_err(|_| Error::InvalidConfig {
                what: "serving front-end has shut down".to_string(),
            })?;
        Ok(StreamHandle {
            id,
            cancel,
            events: events_rx,
        })
    }

    /// Asks the front-end to stop after the batch it is currently
    /// forming. Requests already submitted are still served to a
    /// terminal status.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Msg::Shutdown);
    }
}

impl StreamHandle {
    /// Front-end-wide id of this request (submission order).
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Requests cancellation of this stream (idempotent; the request
    /// still ends in a terminal [`RequestStatus::Cancelled`] outcome).
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Blocks for the next stream event; `None` once the stream is
    /// finished (or the front-end died before serving it).
    #[must_use]
    pub fn recv(&self) -> Option<StreamEvent> {
        self.events.recv().ok()
    }

    /// Non-blocking poll for the next stream event.
    #[must_use]
    pub fn try_recv(&self) -> Option<StreamEvent> {
        self.events.try_recv().ok()
    }

    /// Drains the stream to completion and returns the terminal
    /// outcome (`None` if the front-end died before serving it).
    #[must_use]
    pub fn wait(self) -> Option<RequestOutcome> {
        while let Ok(ev) = self.events.recv() {
            if let StreamEvent::Finished { outcome } = ev {
                return Some(outcome);
            }
        }
        None
    }
}

/// Aggregate accounting for one front-end run.
#[derive(Debug, Clone, Default)]
pub struct FrontendReport {
    /// Serving batches the loop formed (each one `serve_with_session`).
    pub batches: usize,
    /// Requests served to a terminal status.
    pub requests: usize,
    /// Requests that completed their full stream.
    pub completed: usize,
    /// Requests cancelled by their [`CancelToken`].
    pub cancelled: usize,
    /// Requests that blew a deadline.
    pub deadline_exceeded: usize,
    /// Requests that failed (with or without exhausting retries).
    pub failed: usize,
    /// High-water mark of pool pages in use across the whole session.
    pub peak_used_blocks: usize,
    /// Total pages in the session pool.
    pub pool_blocks: usize,
    /// Cumulative prefix-cache counters over the session.
    pub cache: PrefixCacheMetrics,
    /// Cached pages returned to the pool by the final session flush
    /// (after which the pool is proven empty — zero leaks).
    pub flushed_blocks: usize,
    /// Sum of per-batch makespans: the engine time the front-end spent
    /// actually serving (its serial simulated clock).
    pub serve_ms: f64,
    /// Queue depth over the whole run: each batch's series shifted onto
    /// the front-end's serial serving clock and concatenated.
    pub queue_depth: Vec<(f64, usize)>,
    /// Final snapshot of the session's metrics registry, cumulative
    /// over every batch (empty when [`ServeOptions::obs`] was `None`).
    pub metrics: MetricsSnapshot,
}

/// The engine side of a front-end; see [`Frontend::run`].
pub struct Frontend {
    rx: Receiver<Msg>,
    opts: ServeOptions,
}

/// Creates a front-end: a cloneable submit handle plus the serving
/// loop to hand to an engine thread.
///
/// `opts` must set [`ServeOptions::kv_pool_blocks`] — a long-running
/// session needs an explicit page budget. `opts.on_token` may also be
/// set; the front-end chains it after its own streaming sink.
#[must_use]
pub fn frontend(opts: ServeOptions) -> (FrontendClient, Frontend) {
    let (tx, rx) = mpsc::channel();
    (
        FrontendClient {
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
            // Options `run` will reject anyway (zero page size, no page
            // budget) must not fault the fit check.
            block_tokens: opts.block_tokens.max(1),
            pool_blocks: opts.kv_pool_blocks.unwrap_or(usize::MAX),
        },
        Frontend { rx, opts },
    )
}

/// `submit` cannot see the model: a prompt token outside the vocabulary
/// would only be caught building the batch, as a structural error ending
/// the loop for everyone. Answers each such submission alone, with
/// [`RequestStatus::Failed`] on its own stream, and leaves the rest of
/// the batch to be served.
fn answer_out_of_vocab(batch: &mut Vec<Submission>, vocab: usize, report: &mut FrontendReport) {
    batch.retain(|sub| {
        let prompt = &sub.request.prompt;
        let Some(&token) = prompt.iter().find(|&&tk| tk as usize >= vocab) else {
            return true;
        };
        report.requests += 1;
        report.failed += 1;
        let arrival_ms = sub.request.arrival_ms;
        let _ = sub.events.send(StreamEvent::Finished {
            outcome: RequestOutcome {
                request: 0,
                tokens: Vec::new(),
                token_times_ms: Vec::new(),
                arrival_ms,
                first_dispatch_ms: arrival_ms,
                prefill_done_ms: 0.0,
                finish_ms: 0.0,
                attempts: 0,
                status: RequestStatus::Failed {
                    error: format!("prompt token {token} outside vocabulary of {vocab}"),
                },
            },
        });
        false
    });
}

impl Frontend {
    /// Runs the serving loop until shutdown (explicit, or every
    /// [`FrontendClient`] dropped), then flushes the session and
    /// returns the aggregate report.
    ///
    /// Blocks the calling thread; callers submit from other threads
    /// through the [`FrontendClient`].
    ///
    /// # Errors
    ///
    /// Returns an error if the session cannot be opened (missing or
    /// oversized page budget), if a batch fails *structurally* (plan
    /// rejected by the verifier, a broken engine invariant), or if the
    /// final flush finds leaked pages. Per-request failures are *not*
    /// errors here — they are terminal statuses on their own streams —
    /// and neither are per-request *input* errors:
    /// [`FrontendClient::submit`] refuses what it can see, and a prompt
    /// token outside the model's vocabulary is answered here with a
    /// [`RequestStatus::Failed`] on that stream alone.
    pub fn run(self, engine: &LlmNpuEngine, t: &Transformer<'_>) -> Result<FrontendReport> {
        let session = engine.open_serve_session(t, &self.opts)?;
        let mut report = FrontendReport {
            pool_blocks: session.pool_stats().total_blocks,
            ..FrontendReport::default()
        };
        let mut shutdown = false;
        while !shutdown {
            // Block for the next arrival, then drain the burst that is
            // already queued into the same batch.
            let mut batch: Vec<Submission> = Vec::new();
            match self.rx.recv() {
                Ok(Msg::Submit(sub)) => batch.push(*sub),
                Ok(Msg::Shutdown) | Err(_) => break,
            }
            loop {
                match self.rx.try_recv() {
                    Ok(Msg::Submit(sub)) => batch.push(*sub),
                    Ok(Msg::Shutdown) => {
                        shutdown = true;
                        break;
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        shutdown = true;
                        break;
                    }
                }
            }

            answer_out_of_vocab(&mut batch, t.config().vocab, &mut report);
            if batch.is_empty() {
                continue;
            }

            report.batches += 1;
            let requests: Vec<GenerationRequest> =
                batch.iter().map(|s| s.request.clone()).collect();
            if let Some(obs) = session.observability() {
                // Batch composition depends on caller timing, so these
                // are Exec-plane events (excluded from the canonical
                // modeled export).
                let batches = report.batches;
                let width = requests.len();
                obs.sink.event(Plane::Exec, EventKind::Batch, None, || {
                    format!("batch {batches}: {width} request(s)")
                });
                for (idx, req) in requests.iter().enumerate() {
                    obs.sink
                        .event(Plane::Exec, EventKind::Submit, Some(idx), || {
                            format!(
                                "prompt {} token(s), max_new {}",
                                req.prompt.len(),
                                req.max_new_tokens
                            )
                        });
                }
            }

            // Per-batch streaming sink: TokenEvent.request indexes the
            // batch, which is submission order here. Senders are
            // wrapped in mutexes only to make the sink Sync; sends are
            // non-blocking, as the execution lanes require.
            let senders: Arc<Vec<Mutex<Sender<StreamEvent>>>> =
                Arc::new(batch.iter().map(|s| Mutex::new(s.events.clone())).collect());
            let chained = self.opts.on_token.clone();
            let sink_senders = Arc::clone(&senders);
            let mut opts = self.opts.clone();
            opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
                if let Some(tx) = sink_senders.get(ev.request) {
                    if let Ok(tx) = tx.lock() {
                        // A dropped StreamHandle just stops listening;
                        // cancellation is the token's job.
                        let _ = tx.send(StreamEvent::Token {
                            step: ev.step,
                            token: ev.token,
                        });
                    }
                }
                if let Some(f) = &chained {
                    f(ev);
                }
            }));

            let served = engine.serve_with_session(t, &requests, &opts, &session)?;
            // Each batch runs on its own round clock; shift onto the
            // front-end's serial clock before concatenating.
            let base = report.serve_ms;
            report
                .queue_depth
                .extend(served.queue_depth.iter().map(|&(ts, d)| (ts + base, d)));
            report.serve_ms += served.makespan_ms();
            for outcome in served.requests {
                let idx = outcome.request;
                report.requests += 1;
                match outcome.status {
                    RequestStatus::Completed => report.completed += 1,
                    RequestStatus::Cancelled => report.cancelled += 1,
                    RequestStatus::DeadlineExceeded => report.deadline_exceeded += 1,
                    RequestStatus::Failed { .. } | RequestStatus::RetriesExhausted { .. } => {
                        report.failed += 1;
                    }
                }
                if let Some(sub) = batch.get(idx) {
                    let _ = sub.events.send(StreamEvent::Finished { outcome });
                }
            }
        }

        report.cache = session.cache_metrics();
        report.peak_used_blocks = session.pool_stats().peak_used_blocks;
        report.flushed_blocks = session.flush()?;
        report.metrics = session.metrics();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_handle_outlives_frontend_drop() {
        let (client, fe) = frontend(ServeOptions::default());
        let handle = client
            .submit(GenerationRequest::new(vec![1, 2, 3], 4))
            .expect("frontend alive");
        drop(fe);
        assert!(
            client.submit(GenerationRequest::new(vec![1], 1)).is_err(),
            "submit after the loop died must error"
        );
        assert!(handle.wait().is_none(), "unserved stream ends empty");
    }

    #[test]
    fn shutdown_is_idempotent_and_unblocks_run_loop() {
        let (client, fe) = frontend(ServeOptions::default());
        client.shutdown();
        client.shutdown();
        // The loop side sees Shutdown first and exits before serving.
        match fe.rx.recv() {
            Ok(Msg::Shutdown) => {}
            _ => panic!("expected shutdown message"),
        }
    }
}
