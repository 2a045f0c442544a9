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
//! * [`Frontend::run`] opens one [`ServeSession`](crate::serve::ServeSession)
//!   and drains the serving plane's queue: block for the next arrival
//!   when it is empty, put the burst already submitted ahead of the
//!   entries earlier rounds requeued (natural batching), and run one
//!   round. A request whose stream completes hears `Finished` at its
//!   last token, from the lane that ran it, while its round-mates run
//!   on; one the round ends otherwise (cancelled, past deadline,
//!   failed for good) hears it when the round ends. A failed request
//!   with retries left is requeued, as in `serve`, and joins the next
//!   round beside new arrivals: nobody waits out its retries. The loop
//!   ends, once the queue drains, at [`FrontendClient::shutdown`] or when
//!   every client handle is dropped; the session is then flushed, which
//!   *proves* zero pages leaked over the whole run.
//!
//! Every id the loop reports — outcomes, token and trace events, the
//! request a [`FaultPlan`](crate::faults::FaultPlan) entry targets — is
//! the submission id, [`StreamHandle::id`].
//!
//! # A submission cuts the running round at a chunk boundary
//!
//! A round does not hold the queue hostage. [`FrontendClient::submit`]
//! bumps a submission counter that the running round reads: once a
//! submission is pending and all the round has left is prefill it may
//! cut, it stops starting new prefill chunks (§3.2's fixed-size chunk is
//! the unit of prefill work, so a chunk boundary is where new work gets
//! in). A member still to decode keeps the round running anyway, so
//! until it finishes the others keep prefilling instead of idling.
//! Chunks already under way run to completion; each cut prefill
//! publishes the full pages of its completed chunks to the session's
//! prefix cache and is requeued *suspended*, to resume through an
//! ordinary prefix-cache hit. The rules that keep this safe:
//!
//! * a request already decoding is never suspended, so no streamed
//!   token is ever re-sent;
//! * a suspended prefill completed at least one chunk in its round, so a
//!   flood of arrivals delays a long prompt but never starves it;
//! * a suspension never fails, retries or cancels anyone, nor spends
//!   `max_retries` (the cut counts as an attempt, as an eviction does);
//! * time spent queued or suspended is spent from the request's
//!   deadlines ([`GenerationRequest::deadline_ms`]): a request whose
//!   budget ran out before it joins a round ends
//!   [`RequestStatus::DeadlineExceeded`] without reserving a page.
//!
//! Cancellation, retries, fault containment and the bit-identity
//! guarantee are the serving plane's: *which* requests share a round,
//! and where a round is cut, depends on caller timing, but every
//! stream is bit-identical to its solo run regardless (a resumed
//! prefill is a prefix-cache hit, proven identical at any page
//! alignment) — the front-end changes only latencies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{mpsc, Arc};
use std::time::Instant;

use llmnpu_kv::PrefixCacheMetrics;
use llmnpu_model::forward::Transformer;
use llmnpu_obs::{EventKind, MetricsSnapshot, Plane};

use crate::engine::LlmNpuEngine;
use crate::serve::{
    validate_request, Arrivals, CancelToken, GenerationRequest, Queued, RequestOutcome,
    RequestStatus, ServeOptions, Served, TokenEvent,
};
use crate::{Error, Result};

/// One event on a request's stream, in order: zero or more `Token`s,
/// then exactly one `Finished`.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// One generated token, streamed from the lane that sampled it while
    /// its round is still running.
    Token {
        /// Zero-based decode step within the request's stream.
        step: usize,
        /// The sampled token id.
        token: u32,
    },
    /// The request reached a terminal [`RequestStatus`]; the outcome
    /// carries the full stream, timings and attempt count. A completed
    /// stream's comes right after its last `Token`, while its round may
    /// still be running; any other status's when its round ends.
    Finished {
        /// The request's complete outcome; `outcome.request` is its
        /// submission id, [`StreamHandle::id`].
        outcome: RequestOutcome,
    },
}

struct Submission {
    /// The submission id ([`StreamHandle::id`]).
    id: usize,
    request: GenerationRequest,
    events: Sender<StreamEvent>,
    /// When `submit` accepted it: the request's arrival and deadlines
    /// are measured from here, whichever round it joins.
    submitted_at: Instant,
}

impl Submission {
    /// The request as it joins a round at `now`: its arrival offset and
    /// deadlines less the time already spent since submission — or the
    /// status it ends with instead: `DeadlineExceeded` when a deadline
    /// is already spent, `Failed` for a prompt token outside the model's
    /// `vocab`, which `submit` cannot see and which would otherwise fail
    /// the whole round structurally, ending the loop for everyone.
    fn for_round(
        &self,
        now: Instant,
        vocab: usize,
    ) -> std::result::Result<GenerationRequest, RequestStatus> {
        let req = &self.request;
        if let Some(&token) = req.prompt.iter().find(|&&tk| tk as usize >= vocab) {
            let error = format!("prompt token {token} outside vocabulary of {vocab}");
            return Err(RequestStatus::Failed { error });
        }
        let since = now.duration_since(self.submitted_at).as_secs_f64() * 1e3;
        let waited = (since - req.arrival_ms).max(0.0);
        let left = |d: Option<f64>| d.map(|d| d - waited);
        let joined = GenerationRequest {
            arrival_ms: (req.arrival_ms - since).max(0.0),
            deadline_ms: left(req.deadline_ms),
            ttft_deadline_ms: left(req.ttft_deadline_ms),
            ..req.clone()
        };
        let spent = [joined.deadline_ms, joined.ttft_deadline_ms]
            .into_iter()
            .flatten()
            .any(|d| d <= 0.0);
        if spent {
            return Err(RequestStatus::DeadlineExceeded);
        }
        Ok(joined)
    }

    /// Answers the submission with `status` on its own stream, outside
    /// any round.
    fn answer(self, status: RequestStatus, report: &mut FrontendReport) {
        report.tally(&status);
        let arrival_ms = self.request.arrival_ms;
        let _ = self.events.send(StreamEvent::Finished {
            outcome: RequestOutcome {
                request: self.id,
                tokens: Vec::new(),
                token_times_ms: Vec::new(),
                arrival_ms,
                first_dispatch_ms: arrival_ms,
                prefill_done_ms: 0.0,
                finish_ms: 0.0,
                attempts: 0,
                status,
            },
        });
    }
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
    /// Accepted submissions, bumped once each is queued: the running
    /// round reads it to yield at its next chunk boundary.
    submitted: Arc<AtomicU64>,
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
    /// Submits a request for the next serving round and returns its
    /// stream handle immediately. A round already running yields at a
    /// chunk boundary, once all it has left is prefill it may cut, so the
    /// request joins the next round (see the module docs); its deadlines
    /// run from this call.
    ///
    /// A malformed request (empty prompt, zero token budget, non-finite
    /// or negative arrival or deadline, bad sampler) or one whose worst
    /// case cannot fit the session pool even alone is refused *here*,
    /// to its own submitter — it never reaches the serving loop, so it
    /// cannot take round-mates or the loop down with it.
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
            id: id as usize,
            request,
            events: events_tx,
            submitted_at: Instant::now(),
        };
        self.tx
            .send(Msg::Submit(Box::new(sub)))
            .map_err(|_| Error::InvalidConfig {
                what: "serving front-end has shut down".to_string(),
            })?;
        // After the send: a round that sees the count also finds the
        // message queued.
        self.submitted.fetch_add(1, Ordering::Release);
        Ok(StreamHandle {
            id,
            cancel,
            events: events_rx,
        })
    }

    /// Asks the front-end to stop accepting work. Requests submitted
    /// before the shutdown — queued, in the running round, requeued for
    /// retry or suspended at a chunk boundary — are still served to a
    /// terminal status, with no further cuts; then the loop exits.
    pub fn shutdown(&self) {
        let _ = self.tx.send(Msg::Shutdown);
    }
}

impl StreamHandle {
    /// Front-end-wide id of this request (submission order): the
    /// `request` of its outcome, token events and fault keys.
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
    /// Rounds the loop ran over its queue (a request retried or resumed
    /// is in more than one).
    pub batches: usize,
    /// Requests served to a terminal status.
    pub requests: usize,
    /// Prefills a round cut at a chunk boundary and requeued to resume
    /// in a later round (one per request per cut round).
    pub suspensions: usize,
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
    /// Sum of per-round makespans: the engine time the front-end spent
    /// actually serving (its serial serving clock, which every outcome's
    /// times are on).
    pub serve_ms: f64,
    /// Queue depth over the whole run: each round's series, on the
    /// front-end's serial serving clock, concatenated.
    pub queue_depth: Vec<(f64, usize)>,
    /// Final snapshot of the session's metrics registry, cumulative
    /// over every round (empty when [`ServeOptions::obs`] was `None`).
    pub metrics: MetricsSnapshot,
}

impl FrontendReport {
    /// Counts one request that reached `status`.
    fn tally(&mut self, status: &RequestStatus) {
        self.requests += 1;
        match status {
            RequestStatus::Completed => self.completed += 1,
            RequestStatus::Cancelled => self.cancelled += 1,
            RequestStatus::DeadlineExceeded => self.deadline_exceeded += 1,
            RequestStatus::Failed { .. } | RequestStatus::RetriesExhausted { .. } => {
                self.failed += 1;
            }
        }
    }
}

/// The engine side of a front-end; see [`Frontend::run`].
pub struct Frontend {
    rx: Receiver<Msg>,
    opts: ServeOptions,
    submitted: Arc<AtomicU64>,
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
    let submitted = Arc::new(AtomicU64::new(0));
    (
        FrontendClient {
            tx,
            next_id: Arc::new(AtomicU64::new(0)),
            submitted: Arc::clone(&submitted),
            // Options `run` will reject anyway (zero page size, no page
            // budget) must not fault the fit check.
            block_tokens: opts.block_tokens.max(1),
            pool_blocks: opts.kv_pool_blocks.unwrap_or(usize::MAX),
        },
        Frontend {
            rx,
            opts,
            submitted,
        },
    )
}

impl Frontend {
    /// Takes every queued submission, first blocking for one when
    /// `block`: its entry into `arrived`, the submission into
    /// `unfinished`, and a count into `received`. Returns whether the
    /// loop still accepts work (no shutdown, a client alive).
    fn receive(
        &self,
        block: bool,
        arrived: &mut Vec<Queued>,
        unfinished: &mut HashMap<usize, Submission>,
        received: &mut u64,
    ) -> bool {
        let mut msg = if block {
            self.rx.recv().map_err(|_| TryRecvError::Disconnected)
        } else {
            self.rx.try_recv()
        };
        loop {
            match msg {
                Ok(Msg::Submit(sub)) => {
                    *received += 1;
                    arrived.push(Queued::new(sub.id, sub.request.clone()));
                    unfinished.insert(sub.id, *sub);
                }
                Ok(Msg::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
            msg = self.rx.try_recv();
        }
    }

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
    /// oversized page budget), if a round fails *structurally* (plan
    /// rejected by the verifier, a broken engine invariant), or if the
    /// final flush finds leaked pages. A structural error a round finds
    /// once it has run (a dispatch deadlock, leaked pages) can come
    /// after some of its members already heard `Finished` at their last
    /// token; the other members' streams then end without one.
    ///
    /// Per-request failures are *not* errors here — they are terminal
    /// statuses on their own streams — and neither are per-request
    /// *input* errors:
    /// [`FrontendClient::submit`] refuses what it can see, and a prompt
    /// token outside the model's vocabulary is answered here with a
    /// [`RequestStatus::Failed`] on that stream alone.
    pub fn run(self, engine: &LlmNpuEngine, t: &Transformer<'_>) -> Result<FrontendReport> {
        let session = engine.open_serve_session(t, &self.opts)?;
        let mut report = FrontendReport {
            pool_blocks: session.pool_stats().total_blocks,
            ..FrontendReport::default()
        };
        // Submissions taken off the channel (the running round's view of
        // what is not pending), the unfinished ones by id, and the queue
        // each round drains and requeues its retries and cuts into.
        let mut received = 0u64;
        let mut unfinished: HashMap<usize, Submission> = HashMap::new();
        let mut queue: Vec<Queued> = Vec::new();
        let mut open = true;
        loop {
            // Block for the next arrival when nothing is queued, then
            // drain the burst that is already queued.
            let mut arrived = Vec::new();
            if open {
                let block = queue.is_empty();
                open = self.receive(block, &mut arrived, &mut unfinished, &mut received);
            }
            if arrived.is_empty() && queue.is_empty() {
                if open {
                    continue;
                }
                break;
            }

            // The burst ahead of the carried entries. A new or suspended
            // request joins on the time since its submission (what cannot
            // join is answered on its own stream); a retry keeps the
            // backoff arrival its round gave it.
            let now = Instant::now();
            let vocab = t.config().vocab;
            for mut q in arrived.into_iter().chain(std::mem::take(&mut queue)) {
                if q.attempts == 0 || q.resumed {
                    let Some(sub) = unfinished.remove(&q.id) else {
                        continue;
                    };
                    match sub.for_round(now, vocab) {
                        Ok(request) => q.request = request,
                        Err(status) => {
                            sub.answer(status, &mut report);
                            continue;
                        }
                    }
                    unfinished.insert(q.id, sub);
                }
                queue.push(q);
            }
            if queue.is_empty() {
                continue;
            }

            report.batches += 1;
            if let Some(obs) = session.observability() {
                // Round composition depends on caller timing, so these
                // are Exec-plane events (excluded from the canonical
                // modeled export).
                let (round, width) = (report.batches, queue.len());
                obs.sink.event(Plane::Exec, EventKind::Batch, None, || {
                    format!("round {round}: {width} request(s)")
                });
                for q in &queue {
                    let (prompt, max_new) = (q.request.prompt.len(), q.request.max_new_tokens);
                    obs.sink
                        .event(Plane::Exec, EventKind::Submit, Some(q.id), || {
                            format!("prompt {prompt} token(s), max_new {max_new}")
                        });
                }
            }

            // Per-round streaming sinks, keyed by submission id; sends are
            // non-blocking, as the execution lanes require.
            let senders: HashMap<usize, Sender<StreamEvent>> = queue
                .iter()
                .filter_map(|q| Some((q.id, unfinished.get(&q.id)?.events.clone())))
                .collect();
            let finishers = senders.clone();
            let finish = move |outcome: &RequestOutcome| {
                if let Some(tx) = finishers.get(&outcome.request) {
                    let _ = tx.send(StreamEvent::Finished {
                        outcome: outcome.clone(),
                    });
                }
            };
            let chained = self.opts.on_token.clone();
            let mut opts = self.opts.clone();
            opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
                if let Some(tx) = senders.get(&ev.request) {
                    // A dropped StreamHandle just stops listening;
                    // cancellation is the token's job.
                    let _ = tx.send(StreamEvent::Token {
                        step: ev.step,
                        token: ev.token,
                    });
                }
                if let Some(f) = &chained {
                    f(ev);
                }
            }));

            // After shutdown nothing new can join, so nothing cuts. The
            // round runs on the front-end's serial serving clock; a
            // request hears `Finished` at its last token, or when the
            // round ends if it stopped short.
            let arrivals = open.then(|| Arrivals::new(&self.submitted, received));
            let start = report.serve_ms;
            let mut served = Served::new(engine, &opts, &session, start);
            served.round(t, &mut queue, arrivals, Some(&finish))?;
            report.serve_ms = served.clock_ms;
            report.suspensions += served.suspensions;
            let round = served.report()?;
            // A carried request arrived before this round: its series
            // starts where the round does.
            let depth = round.queue_depth.iter().map(|&(ts, d)| (ts.max(start), d));
            report.queue_depth.extend(depth);
            for outcome in &round.requests {
                report.tally(&outcome.status);
                unfinished.remove(&outcome.request);
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
