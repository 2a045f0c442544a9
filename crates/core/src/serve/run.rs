//! Stage 4 — **run**: one round over the queue end to end (plan → build
//! → prove → execute → resolve, each member finished or requeued), and
//! [`Served`], which composes rounds onto one clock.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use llmnpu_kv::PrefixCacheMetrics;
use llmnpu_model::forward::Transformer;
use llmnpu_obs::{EventKind, Plane};
use llmnpu_sched::{execute_lane_graph_contained, GateFn, LaneGraph, TaskOutcome};

use super::build::{
    build_round, release_slot, Prefill, RoundGraph, RoundState, RunCtx, SegBuild, TaskMeta,
};
use super::plan::plan_batch;
use super::report::{
    kv_report, lent_trace_span, publish_metrics, queue_depth_series, round_timeline,
};
use super::{
    plain_lock, prove, Arrivals, Queued, RequestOutcome, RequestStatus, Round, ServeOptions,
    ServeReport, ServeSession, ServeTimeline,
};
use crate::engine::LlmNpuEngine;
use crate::{Error, Result};

/// Slack for dispatch-time deadline comparisons (mirrors the executor's
/// release-time epsilon).
const DEADLINE_EPS: f64 = 1e-9;

/// One member's result for one round (on the caller's clock).
struct MemberRound {
    /// The terminal status — or, for a prefill the round cut, the chunks
    /// it completed before it was suspended.
    status: std::result::Result<RequestStatus, usize>,
    tokens: Vec<u32>,
    token_times_ms: Vec<f64>,
    first_dispatch_ms: Option<f64>,
    prefill_done_ms: f64,
    finish_ms: f64,
    incarnations: usize,
}

/// One round's result: per-member outcomes plus the round's timeline
/// (carrying stable request ids and global attempt numbers, on the
/// caller's clock).
pub(super) struct RoundOutput {
    members: Vec<MemberRound>,
    timeline: ServeTimeline,
    evictions: usize,
    /// The static verifier's (clean) report for the round's spliced
    /// graph — findings would have aborted the round instead.
    pub(super) verified: llmnpu_verify::Report,
}

/// Whether a round executes its graph or stops after static
/// verification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum RoundMode {
    /// Verify, then execute (the serving path).
    Execute,
    /// Build and verify the spliced plan, then return without running a
    /// single task (the [`LlmNpuEngine::verify_serve`] path).
    DryRun,
}

impl LlmNpuEngine {
    /// Plans, builds, proves, and executes one round's combined
    /// lane graph, with fault containment: per-task isolation, the
    /// cancellation/deadline dispatch gate, fault injection, and
    /// per-member outcome resolution. The pool must hold nothing beyond
    /// the prefix cache's residents on entry and is drained to that
    /// state again before returning.
    pub(super) fn run_round(
        &self,
        t: &Transformer<'_>,
        round: &Round<'_>,
        mode: RoundMode,
    ) -> Result<RoundOutput> {
        // New planning round: cached prefixes touched from here on are
        // pinned against eviction until the next round begins.
        round.cache.begin_round();
        let plan = plan_batch(round)?;
        let free_blocks = round.pool.free_blocks();
        let live = RoundState::new(round, plan.segments.len())?;
        let ctx = RunCtx {
            round,
            segments: &plan.segments,
            live: &live,
            t,
        };
        let prefill = Prefill::new(self, ctx)?;
        let built = build_round(self, ctx, &prefill, plan.cohorts)?;
        let mut out = RoundOutput {
            members: Vec::new(),
            timeline: ServeTimeline::new(),
            evictions: plan.segments.iter().filter(|s| s.evicted).count(),
            verified: prove::prove(ctx, &built, &prefill.plans, free_blocks)?,
        };
        if mode == RoundMode::DryRun {
            // Nothing executed: no spans, no outcomes, pool untouched.
            return Ok(out);
        }

        // Fault-contained execution: a task failure poisons only its
        // request's chain; the gate skips tasks of cancelled / expired /
        // failed requests at dispatch time. Only *structural* errors
        // surface as Err here.
        let RoundGraph {
            graph,
            closures,
            meta,
            builds,
            token_tasks,
        } = built;
        let run = self.pool().install_scope(|| {
            execute_lane_graph_contained(
                &graph,
                closures,
                self.config().policy,
                self.pool(),
                Some(dispatch_gate(ctx, &graph, &meta)),
                round.sink(),
            )
        })?;
        // Belt and braces: whatever a failed path left behind, drain it
        // before accounting (barrier Release tasks already released the
        // normal and most failed paths).
        for slot in &live.slots {
            let _ = release_slot(slot);
        }
        let mut ran_empty = std::mem::take(&mut *plain_lock(&live.ran_empty));
        ran_empty.sort_unstable();
        out.timeline = round_timeline(ctx, &graph, &meta, &run.outcomes, &ran_empty);
        out.members = resolve_members(ctx, &meta, &builds, &token_tasks, &run.outcomes);
        if let Some(o) = round.obs {
            for lent in &run.lent {
                o.sink.span(|| lent_trace_span(lent, round.clock_ms));
            }
        }
        Ok(out)
    }
}

/// Rounds over one queue on one clock — a whole [`LlmNpuEngine::serve`]
/// call, or one front-end round on the front-end's serving clock — and
/// what their [`ServeReport`] is assembled from.
pub(crate) struct Served<'a> {
    engine: &'a LlmNpuEngine,
    opts: &'a ServeOptions,
    session: &'a ServeSession,
    /// Where the next round starts on the caller's clock.
    pub(crate) clock_ms: f64,
    finished: Vec<RequestOutcome>,
    timeline: ServeTimeline,
    evictions: usize,
    verification: Vec<llmnpu_verify::PlanStats>,
    retries: usize,
    /// Prefills the rounds cut and requeued suspended.
    pub(crate) suspensions: usize,
    /// The cache's counters before the first round, so the report's
    /// prefix-cache figures are these rounds' share.
    metrics_base: PrefixCacheMetrics,
}

impl<'a> Served<'a> {
    /// Starts composing rounds over `session` at `clock_ms`, attaching
    /// the observability stack, if any: pool and cache keep their first
    /// sink (they outlive any one call); the worker pool meters into the
    /// latest registry.
    pub(crate) fn new(
        engine: &'a LlmNpuEngine,
        opts: &'a ServeOptions,
        session: &'a ServeSession,
        clock_ms: f64,
    ) -> Self {
        if let Some(o) = opts.obs.as_ref().or(session.obs.as_ref()) {
            session.pool.install_trace(Arc::clone(&o.sink));
            session.cache.install_trace(Arc::clone(&o.sink));
            engine.pool().install_metrics(&o.registry);
        }
        Served {
            engine,
            opts,
            session,
            clock_ms,
            finished: Vec::new(),
            timeline: ServeTimeline::new(),
            evictions: 0,
            verification: Vec::new(),
            retries: 0,
            suspensions: 0,
            metrics_base: session.cache.metrics(),
        }
    }

    /// One round over every entry of `queue`: plans, builds, proves and
    /// runs them together — with `arrivals`, the round may cut prefills
    /// at a chunk boundary — and resolves each member to exactly one
    /// outcome. A member that reached a terminal status is finished, on
    /// this clock; a failed one with retries left is requeued with its
    /// exponential backoff as its arrival; a prefill the round cut is
    /// requeued suspended. The round drains the pool to the cache's
    /// residents, so the next one starts at this one's makespan.
    pub(crate) fn round(
        &mut self,
        t: &Transformer<'_>,
        queue: &mut Vec<Queued>,
        arrivals: Option<Arrivals<'_>>,
    ) -> Result<()> {
        for q in queue.iter_mut().filter(|q| q.attempts == 0) {
            q.arrival_ms = self.clock_ms + q.request.arrival_ms;
        }
        let (opts, members) = (self.opts, std::mem::take(queue));
        let round = Round::new(members, opts, self.session, arrivals, self.clock_ms);
        let obs = round.obs;
        let mut out = self.engine.run_round(t, &round, RoundMode::Execute)?;
        self.evictions += out.evictions;
        self.verification.push(out.verified.stats);
        self.clock_ms = self.clock_ms.max(out.timeline.makespan());
        let spans = out.timeline.entries_mut();
        self.timeline.entries_mut().append(spans);
        for (m, mut q) in out.members.into_iter().zip(round.members) {
            let id = q.id;
            q.attempts += m.incarnations;
            // Rounds run in clock order: the first dispatch is the earliest.
            q.first_dispatch_ms = q.first_dispatch_ms.or(m.first_dispatch_ms);
            let status = match m.status {
                Ok(status) => status,
                Err(chunks) => {
                    if let Some(o) = obs {
                        o.sink.event(Plane::Exec, EventKind::Suspend, Some(id), || {
                            format!("suspended after {chunks} chunk(s)")
                        });
                    }
                    self.suspensions += 1;
                    q.resumed = true;
                    queue.push(q);
                    continue;
                }
            };
            if matches!(status, RequestStatus::Failed { .. }) && q.retries < opts.max_retries {
                q.retries += 1;
                let exp = (q.retries - 1).min(30) as u32;
                let backoff = opts.retry_backoff_ms * f64::from(1u32 << exp);
                if let Some(o) = obs {
                    let used = q.retries;
                    o.sink.event(Plane::Plan, EventKind::Retry, Some(id), || {
                        format!("retry {used} admitted with {backoff:.3} ms backoff")
                    });
                }
                self.retries += 1;
                q.request.arrival_ms = backoff;
                q.resumed = false;
                queue.push(q);
                continue;
            }
            let status = match status {
                RequestStatus::Failed { error } if q.retries > 0 => {
                    RequestStatus::RetriesExhausted { error }
                }
                other => other,
            };
            self.finished.push(RequestOutcome {
                request: id,
                tokens: m.tokens,
                token_times_ms: m.token_times_ms,
                arrival_ms: q.arrival_ms,
                first_dispatch_ms: q.first_dispatch_ms.unwrap_or(q.arrival_ms),
                prefill_done_ms: m.prefill_done_ms,
                finish_ms: m.finish_ms,
                attempts: q.attempts,
                status,
            });
        }
        Ok(())
    }

    /// The report over the requests the rounds finished, in round and
    /// queue order, after the leak proof (nothing beyond the cache's
    /// residents stays allocated) and, if a round ran, metrics publication.
    pub(crate) fn report(mut self) -> Result<ServeReport> {
        self.timeline
            .entries_mut()
            .sort_by(|a, b| a.end.total_cmp(&b.end));
        let kv = kv_report(self.session, self.evictions, &self.metrics_base);
        if kv.leaked_blocks != 0 {
            return Err(Error::Internal {
                what: format!("{} KV pages leaked after serve", kv.leaked_blocks),
            });
        }
        let obs = self.opts.obs.as_ref().or(self.session.obs.as_ref());
        if let Some(o) = obs.filter(|_| !self.verification.is_empty()) {
            publish_metrics(o, &self.finished, self.retries, self.suspensions, &kv);
        }
        Ok(ServeReport {
            queue_depth: queue_depth_series(&self.finished, &self.timeline),
            requests: self.finished,
            timeline: self.timeline,
            kv,
            verification: self.verification,
            metrics: obs.map(|o| o.registry.snapshot()).unwrap_or_default(),
        })
    }
}

/// The round's dispatch gate: the first dispatch decision touching a
/// member after its cancel flag fired or a deadline passed records the
/// terminal status; a gate-skippable task ([`TaskMeta::gated`]) whose
/// members are all terminal is skipped instead of run.
fn dispatch_gate<'run>(
    ctx: RunCtx<'run>,
    graph: &'run LaneGraph,
    meta: &'run [TaskMeta],
) -> GateFn<'run> {
    let sink = ctx.round.sink();
    Box::new(move |task: usize, now: f64| -> bool {
        let m = &meta[task];
        let mut all_terminal = true;
        for &s in &m.segs {
            let mem = ctx.member(s);
            let rt = &ctx.live.runtime[mem];
            let req = ctx.round.request(mem);
            let mut term = plain_lock(&rt.term);
            if term.is_none() {
                let past =
                    |d: Option<f64>| d.is_some_and(|d| now >= req.arrival_ms + d - DEADLINE_EPS);
                let verdict = if rt.cancel.is_cancelled() {
                    Some((RequestStatus::Cancelled, EventKind::Cancel, "cancelled"))
                } else if past(req.deadline_ms)
                    || (rt.tokens_out.load(Ordering::Acquire) == 0 && past(req.ttft_deadline_ms))
                {
                    let status = RequestStatus::DeadlineExceeded;
                    Some((status, EventKind::Deadline, "deadline blown"))
                } else {
                    None
                };
                if let Some((status, kind, what)) = verdict {
                    *term = Some(status);
                    if let Some(sink) = sink {
                        sink.event_at(Plane::Exec, kind, Some(ctx.orig(s)), now, || {
                            format!("{what} at dispatch of {}", graph.tasks()[task].label)
                        });
                    }
                }
            }
            all_terminal &= term.is_some();
        }
        m.gated && all_terminal
    })
}

/// Per-member resolution of one executed round: status (or suspension),
/// stream, timings.
fn resolve_members(
    ctx: RunCtx<'_>,
    meta: &[TaskMeta],
    builds: &[SegBuild],
    token_tasks: &[Vec<usize>],
    outcomes: &[TaskOutcome],
) -> Vec<MemberRound> {
    let touches = |i: usize, m: usize| meta[i].segs.iter().any(|&s| ctx.member(s) == m);
    let clock = ctx.round.clock_ms;
    let mut members = Vec::with_capacity(ctx.round.members.len());
    for (m, req) in ctx.round.members.iter().map(|q| &q.request).enumerate() {
        let st = plain_lock(&ctx.live.states[m]);
        let term = plain_lock(&ctx.live.runtime[m].term).take();
        let cut = ctx.live.suspended[m].load(Ordering::Acquire);
        let status = if cut > 0 && term.is_none() {
            // Cut at a chunk boundary before any token: the front-end
            // resumes it from the pages its Release cached.
            Err(cut)
        } else if st.tokens.len() == req.max_new_tokens {
            // A complete stream wins even over a recorded terminal: a
            // cancel/deadline that landed after the last token, or a
            // failure confined to a doomed evicted incarnation, did
            // not cost the caller anything.
            Ok(RequestStatus::Completed)
        } else {
            Ok(term.unwrap_or_else(|| {
                let attributed = (0..meta.len())
                    .filter(|&i| touches(i, m))
                    .find_map(|i| outcomes[i].error().map(str::to_owned));
                RequestStatus::Failed {
                    error: attributed.unwrap_or_else(|| {
                        format!(
                            "produced {} of {} tokens",
                            st.tokens.len(),
                            req.max_new_tokens
                        )
                    }),
                }
            }))
        };
        let first_dispatch_ms = (0..meta.len())
            .filter(|&i| touches(i, m))
            .filter_map(|i| outcomes[i].span().map(|(start, _)| start + clock))
            .reduce(f64::min);
        let prefill_done_ms = ctx
            .segments
            .iter()
            .position(|s| s.req == m && !s.evicted)
            .and_then(|fs| match &outcomes[builds[fs].prefill_finish] {
                TaskOutcome::Completed { end_ms, .. } => Some(*end_ms + clock),
                _ => None,
            })
            .unwrap_or(0.0);
        let token_times_ms: Vec<f64> = token_tasks[m][..st.tokens.len()]
            .iter()
            .map(|&i| outcomes[i].span().map_or(0.0, |(_, end)| end) + clock)
            .collect();
        members.push(MemberRound {
            status,
            tokens: st.tokens.clone(),
            finish_ms: token_times_ms.last().copied().unwrap_or(0.0),
            token_times_ms,
            first_dispatch_ms,
            prefill_done_ms,
            incarnations: ctx.segments.iter().filter(|s| s.req == m).count(),
        });
    }
    members
}
