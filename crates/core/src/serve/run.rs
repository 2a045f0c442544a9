//! Stage 4 — **run**: one round end to end (plan → build → prove →
//! execute → resolve), and the retry loop that composes rounds into one
//! serving call.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use llmnpu_model::forward::Transformer;
use llmnpu_obs::{EventKind, Plane};
use llmnpu_sched::{execute_lane_graph_contained, GateFn, LaneGraph, TaskOutcome};

use super::build::{
    build_round, release_slot, Prefill, RoundGraph, RoundState, RunCtx, SegBuild, TaskMeta,
};
use super::plan::plan_batch;
use super::report::{
    kv_report, publish_metrics, queue_depth_series, round_timeline, serve_trace_span,
};
use super::{
    plain_lock, prove, GenerationRequest, RequestOutcome, RequestStatus, Round, ServeOptions,
    ServeReport, ServeSession, ServeTimeline,
};
use crate::engine::LlmNpuEngine;
use crate::{Error, Result};

/// Slack for dispatch-time deadline comparisons (mirrors the executor's
/// release-time epsilon).
const DEADLINE_EPS: f64 = 1e-9;

/// One member's result for one retry round (round-local clock).
struct MemberRound {
    status: RequestStatus,
    tokens: Vec<u32>,
    token_times_ms: Vec<f64>,
    first_dispatch_ms: f64,
    prefill_done_ms: f64,
    finish_ms: f64,
    incarnations: usize,
}

/// One retry round's result: per-member outcomes plus the round's
/// timeline (already carrying original request ids and global attempt
/// numbers, still on the round-local clock).
pub(super) struct RoundOutput {
    members: Vec<MemberRound>,
    timeline: ServeTimeline,
    evictions: usize,
    shared_blocks: usize,
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
    /// Plans, builds, proves, and executes one retry round's combined
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
            shared_blocks: plan.shared_blocks,
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
        let outcomes = self.pool().install_scope(|| {
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
        out.timeline = round_timeline(ctx, &graph, &meta, &outcomes);
        out.members = resolve_members(ctx, &meta, &builds, &token_tasks, &outcomes);
        Ok(out)
    }

    /// The serving loop behind [`LlmNpuEngine::serve_with_session`]:
    /// retry rounds over the session's pool and prefix cache, then the
    /// leak proof — nothing beyond the cache's residents may stay
    /// allocated — and the report.
    pub(super) fn serve_rounds(
        &self,
        t: &Transformer<'_>,
        requests: &[GenerationRequest],
        opts: &ServeOptions,
        session: &ServeSession,
    ) -> Result<ServeReport> {
        let mut round = Round::first(requests, opts, session);
        let obs = round.obs;
        let metrics_base = session.cache.metrics();
        if let Some(o) = obs {
            // Pool and cache keep their first sink (they outlive any
            // one call); the worker pool meters into the latest
            // registry.
            session.pool.install_trace(Arc::clone(&o.sink));
            session.cache.install_trace(Arc::clone(&o.sink));
            self.pool().install_metrics(&o.registry);
        }
        let snapshot = || obs.map(|o| o.registry.snapshot()).unwrap_or_default();
        if requests.is_empty() {
            return Ok(ServeReport {
                requests: Vec::new(),
                timeline: ServeTimeline::new(),
                kv: kv_report(session, 0, 0, &metrics_base),
                verification: Vec::new(),
                queue_depth: Vec::new(),
                metrics: snapshot(),
            });
        }

        // ---- Retry rounds -------------------------------------------------
        // Round 1 serves everyone; each later round re-serves only the
        // requests that *failed* (never the cancelled or expired ones),
        // re-admitted with exponential backoff on the new round's clock.
        // Each round drains the pool completely, so rounds compose on
        // one timeline by offsetting with the previous makespan.
        let n = requests.len();
        let mut outcomes: Vec<Option<RequestOutcome>> = (0..n).map(|_| None).collect();
        let mut timeline = ServeTimeline::new();
        let mut evictions = 0usize;
        let mut shared_blocks = 0usize;
        let mut verification: Vec<llmnpu_verify::PlanStats> = Vec::new();
        let mut time_offset = 0.0f64;
        let mut retries_used = vec![0usize; n];
        let mut attempt_base = vec![0usize; n];
        let mut first_dispatch = vec![f64::INFINITY; n];
        loop {
            let mut out = self.run_round(t, &round, RoundMode::Execute)?;
            evictions += out.evictions;
            shared_blocks += out.shared_blocks;
            verification.push(out.verified.stats);
            let round_ms = out.timeline.makespan();
            for mut span in out.timeline.entries_mut().drain(..) {
                span.start += time_offset;
                span.end += time_offset;
                if let Some(o) = obs {
                    o.sink.span(|| serve_trace_span(&span));
                }
                timeline.record(span);
            }
            let mut next_members = Vec::new();
            let mut next_backoffs = Vec::new();
            let shift = |ms: f64| if ms > 0.0 { ms + time_offset } else { 0.0 };
            for (m, &r) in out.members.into_iter().zip(&round.orig_ids) {
                attempt_base[r] += m.incarnations;
                if m.first_dispatch_ms.is_finite() {
                    first_dispatch[r] = first_dispatch[r].min(m.first_dispatch_ms + time_offset);
                }
                if matches!(m.status, RequestStatus::Failed { .. })
                    && retries_used[r] < opts.max_retries
                {
                    retries_used[r] += 1;
                    next_members.push(r);
                    let exp = (retries_used[r] - 1).min(30) as u32;
                    let backoff = opts.retry_backoff_ms * f64::from(1u32 << exp);
                    if let Some(o) = obs {
                        let used = retries_used[r];
                        o.sink.event(Plane::Plan, EventKind::Retry, Some(r), || {
                            format!("retry {used} admitted with {backoff:.3} ms backoff")
                        });
                    }
                    next_backoffs.push(backoff);
                    continue;
                }
                let status = match m.status {
                    RequestStatus::Failed { error } if retries_used[r] > 0 => {
                        RequestStatus::RetriesExhausted { error }
                    }
                    other => other,
                };
                outcomes[r] = Some(RequestOutcome {
                    request: r,
                    tokens: m.tokens,
                    token_times_ms: m
                        .token_times_ms
                        .iter()
                        .map(|&tt| tt + time_offset)
                        .collect(),
                    arrival_ms: requests[r].arrival_ms,
                    first_dispatch_ms: if first_dispatch[r].is_finite() {
                        first_dispatch[r]
                    } else {
                        requests[r].arrival_ms
                    },
                    prefill_done_ms: shift(m.prefill_done_ms),
                    finish_ms: shift(m.finish_ms),
                    attempts: attempt_base[r],
                    status,
                });
            }
            time_offset += round_ms;
            if next_members.is_empty() {
                break;
            }
            round.retry(requests, next_members, &next_backoffs, &attempt_base);
        }
        timeline
            .entries_mut()
            .sort_by(|a, b| a.end.total_cmp(&b.end));
        let outcomes: Vec<RequestOutcome> = outcomes
            .into_iter()
            .collect::<Option<_>>()
            .ok_or_else(|| Error::Internal {
                what: "a request left the retry loop without a terminal status".to_owned(),
            })?;

        let kv = kv_report(session, evictions, shared_blocks, &metrics_base);
        if kv.leaked_blocks != 0 {
            return Err(Error::Internal {
                what: format!("{} KV pages leaked after serve", kv.leaked_blocks),
            });
        }
        if let Some(o) = obs {
            publish_metrics(o, &outcomes, retries_used.iter().sum(), &kv);
        }
        let queue_depth = queue_depth_series(&outcomes, &timeline);
        Ok(ServeReport {
            requests: outcomes,
            timeline,
            kv,
            verification,
            queue_depth,
            metrics: snapshot(),
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
            let req = &ctx.round.requests[mem];
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

/// Per-member resolution of one executed round: status, stream, timings.
fn resolve_members(
    ctx: RunCtx<'_>,
    meta: &[TaskMeta],
    builds: &[SegBuild],
    token_tasks: &[Vec<usize>],
    outcomes: &[TaskOutcome],
) -> Vec<MemberRound> {
    let touches = |i: usize, m: usize| meta[i].segs.iter().any(|&s| ctx.member(s) == m);
    let mut members = Vec::with_capacity(ctx.round.requests.len());
    for (m, req) in ctx.round.requests.iter().enumerate() {
        let st = plain_lock(&ctx.live.states[m]);
        let term = plain_lock(&ctx.live.runtime[m].term).take();
        let status = if st.tokens.len() == req.max_new_tokens {
            // A complete stream wins even over a recorded terminal: a
            // cancel/deadline that landed after the last token, or a
            // failure confined to a doomed evicted incarnation, did
            // not cost the caller anything.
            RequestStatus::Completed
        } else {
            term.unwrap_or_else(|| {
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
            })
        };
        let first_dispatch_ms = (0..meta.len())
            .filter(|&i| touches(i, m))
            .filter_map(|i| outcomes[i].span().map(|(start, _)| start))
            .fold(f64::INFINITY, f64::min);
        let prefill_done_ms = ctx
            .segments
            .iter()
            .position(|s| s.req == m && !s.evicted)
            .and_then(|fs| match &outcomes[builds[fs].prefill_finish] {
                TaskOutcome::Completed { end_ms, .. } => Some(*end_ms),
                _ => None,
            })
            .unwrap_or(0.0);
        let token_times_ms: Vec<f64> = token_tasks[m][..st.tokens.len()]
            .iter()
            .map(|&i| outcomes[i].span().map_or(0.0, |(_, end)| end))
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
