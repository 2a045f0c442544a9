//! Stage 4 — **run**: one round over the queue end to end (plan → build
//! → prove → execute → resolve, each member finished or requeued), and
//! [`Served`], which composes rounds onto one clock.

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use llmnpu_kv::PrefixCacheMetrics;
use llmnpu_model::forward::Transformer;
use llmnpu_obs::{EventKind, Plane};
use llmnpu_sched::{execute_lane_graph_contained, LaneGraph, TaskHook, TaskOutcome};

use super::build::{
    build_round, release_slot, Prefill, RoundGraph, RoundState, RunCtx, SegBuild, TaskMeta,
};
use super::plan::plan_batch;
use super::report::{
    kv_report, lent_trace_span, publish_metrics, queue_depth_series, round_timeline,
};
use super::{
    plain_lock, prove, Arrivals, FinishedSink, Queued, RequestOutcome, RequestStatus, Round,
    ServeOptions, ServeReport, ServeSession, ServeTaskKind, ServeTimeline,
};
use crate::engine::LlmNpuEngine;
use crate::{Error, Result};

/// Slack for dispatch-time deadline comparisons (mirrors the executor's
/// release-time epsilon).
const DEADLINE_EPS: f64 = 1e-9;

/// The terminal status a member reached in its round — or, for a
/// prefill the round cut, the chunks it completed before it was
/// suspended.
type MemberStatus = std::result::Result<RequestStatus, usize>;

/// What one round did for one member (on the caller's clock).
struct MemberRound {
    tokens: Vec<u32>,
    token_times_ms: Vec<f64>,
    first_dispatch_ms: Option<f64>,
    prefill_done_ms: f64,
    finish_ms: f64,
    incarnations: usize,
}

/// A member once its round has run: answered the moment its stream
/// completed, or resolved when the round ended.
enum Resolved {
    Finished(RequestOutcome),
    Open(MemberStatus, MemberRound),
}

/// One round's result: per-member outcomes plus the round's timeline
/// (carrying stable request ids and global attempt numbers, on the
/// caller's clock).
pub(super) struct RoundOutput {
    members: Vec<Resolved>,
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
    /// per-member outcome resolution — a member whose stream completes
    /// is finished, and handed to the round's finished sink, as its
    /// last token settles. The pool must hold nothing beyond
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
        let hook = RoundHook::new(ctx, &graph, &meta, &builds, &token_tasks);
        let run = self.pool().install_scope(|| {
            execute_lane_graph_contained(
                &graph,
                closures,
                self.config().policy,
                self.pool(),
                Some(&hook),
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
        out.members = hook.resolve_all();
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
    /// this clock, and handed to `finished` once: a completed stream as
    /// its last token settles, while the round still runs; any other
    /// status when the round ends. A failed member with retries left is
    /// requeued with its exponential backoff as its arrival; a prefill
    /// the round cut is requeued suspended. The round drains the pool to
    /// the cache's residents, so the next one starts at this one's
    /// makespan.
    pub(crate) fn round(
        &mut self,
        t: &Transformer<'_>,
        queue: &mut Vec<Queued>,
        arrivals: Option<Arrivals<'_>>,
        finished: Option<&FinishedSink<'_>>,
    ) -> Result<()> {
        for q in queue.iter_mut().filter(|q| q.attempts == 0) {
            q.arrival_ms = self.clock_ms + q.request.arrival_ms;
        }
        let (opts, members) = (self.opts, std::mem::take(queue));
        let round = Round::new(
            members,
            opts,
            self.session,
            arrivals,
            finished,
            self.clock_ms,
        );
        let obs = round.obs;
        let mut out = self.engine.run_round(t, &round, RoundMode::Execute)?;
        self.evictions += out.evictions;
        self.verification.push(out.verified.stats);
        self.clock_ms = self.clock_ms.max(out.timeline.makespan());
        let spans = out.timeline.entries_mut();
        self.timeline.entries_mut().append(spans);
        for (member, mut q) in out.members.into_iter().zip(round.members) {
            let (status, m) = match member {
                Resolved::Finished(outcome) => {
                    self.finished.push(outcome);
                    continue;
                }
                Resolved::Open(status, m) => (status, m),
            };
            let id = q.id;
            let status = match status {
                Ok(status) => status,
                Err(chunks) => {
                    if let Some(o) = obs {
                        o.sink.event(Plane::Exec, EventKind::Suspend, Some(id), || {
                            format!("suspended after {chunks} chunk(s)")
                        });
                    }
                    self.suspensions += 1;
                    q.resumed = true;
                    q.carry(&m);
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
                q.carry(&m);
                queue.push(q);
                continue;
            }
            let status = match status {
                RequestStatus::Failed { error } if q.retries > 0 => {
                    RequestStatus::RetriesExhausted { error }
                }
                other => other,
            };
            let outcome = q.finish(m, status);
            if let Some(sink) = finished {
                sink(&outcome);
            }
            self.finished.push(outcome);
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

impl Queued {
    /// Carries what this round did for the entry into its next round.
    fn carry(&mut self, m: &MemberRound) {
        self.attempts += m.incarnations;
        // Rounds run in clock order: the first dispatch is the earliest.
        self.first_dispatch_ms = self.first_dispatch_ms.or(m.first_dispatch_ms);
    }

    /// The entry's outcome, finishing this round with `status` — the one
    /// place an outcome is built, whether at the member's last token or
    /// when its round ends.
    fn finish(&self, m: MemberRound, status: RequestStatus) -> RequestOutcome {
        RequestOutcome {
            request: self.id,
            tokens: m.tokens,
            token_times_ms: m.token_times_ms,
            arrival_ms: self.arrival_ms,
            first_dispatch_ms: self
                .first_dispatch_ms
                .or(m.first_dispatch_ms)
                .unwrap_or(self.arrival_ms),
            prefill_done_ms: m.prefill_done_ms,
            finish_ms: m.finish_ms,
            attempts: self.attempts + m.incarnations,
            status,
        }
    }
}

/// What a member's tasks reported as each settled, in ms from the
/// run's start.
#[derive(Default)]
struct Facts {
    /// Earliest start of any task touching the member.
    first_start_ms: Option<f64>,
    /// End of its surviving incarnation's PrefillFinish, if it completed.
    prefill_done_ms: Option<f64>,
    /// End of each decode step's task (0 until it settles).
    token_end_ms: Vec<f64>,
    /// The lowest-numbered failed task touching the member, and its error.
    error: Option<(usize, String)>,
}

/// The round's executor hook: the cancellation/deadline gate, and a
/// record of every member's settled tasks that each member is resolved
/// from — a complete stream as its last token task settles, everyone
/// else when the round ends.
struct RoundHook<'run> {
    ctx: RunCtx<'run>,
    graph: &'run LaneGraph,
    meta: &'run [TaskMeta],
    token_tasks: &'run [Vec<usize>],
    /// Per member: its surviving incarnation's PrefillFinish task.
    prefill_finish: Vec<Option<usize>>,
    facts: Vec<Mutex<Facts>>,
    /// Per member: its outcome, once its stream completed.
    finished: Vec<Mutex<Option<RequestOutcome>>>,
}

impl<'run> RoundHook<'run> {
    fn new(
        ctx: RunCtx<'run>,
        graph: &'run LaneGraph,
        meta: &'run [TaskMeta],
        builds: &[SegBuild],
        token_tasks: &'run [Vec<usize>],
    ) -> Self {
        let members = ctx.round.members.len();
        let mut prefill_finish = vec![None; members];
        for (seg, build) in ctx.segments.iter().zip(builds) {
            if !seg.evicted {
                prefill_finish[seg.req] = Some(build.prefill_finish);
            }
        }
        let facts = token_tasks
            .iter()
            .map(|steps| {
                Mutex::new(Facts {
                    token_end_ms: vec![0.0; steps.len()],
                    ..Facts::default()
                })
            })
            .collect();
        RoundHook {
            ctx,
            graph,
            meta,
            token_tasks,
            prefill_finish,
            facts,
            finished: (0..members).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Member `m`'s status (or suspension) and stream, from its state and
    /// the facts its settled tasks recorded.
    fn resolve(&self, m: usize) -> (MemberStatus, MemberRound) {
        let ctx = self.ctx;
        let req = ctx.round.request(m);
        let clock = ctx.round.clock_ms;
        let tokens = plain_lock(&ctx.live.states[m]).tokens.clone();
        let term = plain_lock(&ctx.live.runtime[m].term).clone();
        let cut = ctx.live.suspended[m].load(Ordering::Acquire);
        let facts = plain_lock(&self.facts[m]);
        let status = if cut > 0 && term.is_none() {
            // Cut at a chunk boundary before any token: the front-end
            // resumes it from the pages its Release cached.
            Err(cut)
        } else if tokens.len() == req.max_new_tokens {
            // A complete stream wins even over a recorded terminal: a
            // cancel/deadline that landed after the last token, or a
            // failure confined to a doomed evicted incarnation, did
            // not cost the caller anything.
            Ok(RequestStatus::Completed)
        } else {
            Ok(term.unwrap_or_else(|| RequestStatus::Failed {
                error: facts.error.as_ref().map_or_else(
                    || format!("produced {} of {} tokens", tokens.len(), req.max_new_tokens),
                    |(_, error)| error.clone(),
                ),
            }))
        };
        let token_times_ms: Vec<f64> = facts.token_end_ms[..tokens.len()]
            .iter()
            .map(|&end| end + clock)
            .collect();
        let member = MemberRound {
            tokens,
            finish_ms: token_times_ms.last().copied().unwrap_or(0.0),
            token_times_ms,
            first_dispatch_ms: facts.first_start_ms.map(|start| start + clock),
            prefill_done_ms: facts.prefill_done_ms.map_or(0.0, |end| end + clock),
            incarnations: ctx.segments.iter().filter(|s| s.req == m).count(),
        };
        (status, member)
    }

    /// Every member once the run is over, in member order: the outcome
    /// of a completed stream, or its resolution now.
    fn resolve_all(&self) -> Vec<Resolved> {
        (0..self.finished.len())
            .map(|m| {
                let done = plain_lock(&self.finished[m]).take();
                done.map_or_else(
                    || {
                        let (status, member) = self.resolve(m);
                        Resolved::Open(status, member)
                    },
                    Resolved::Finished,
                )
            })
            .collect()
    }
}

impl TaskHook for RoundHook<'_> {
    /// The first dispatch decision touching a member after its cancel
    /// flag fired or a deadline passed records the terminal status; a
    /// gate-skippable task ([`TaskMeta::gated`]) whose members are all
    /// terminal is skipped instead of run.
    fn gate(&self, task: usize, now: f64) -> bool {
        let ctx = self.ctx;
        let m = &self.meta[task];
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
                    if let Some(sink) = ctx.round.sink() {
                        sink.event_at(Plane::Exec, kind, Some(ctx.orig(s)), now, || {
                            format!("{what} at dispatch of {}", self.graph.tasks()[task].label)
                        });
                    }
                }
            }
            all_terminal &= term.is_some();
        }
        m.gated && all_terminal
    }

    /// Records the task's facts for every member it touches. At a
    /// member's last token task a complete stream is final — it cannot
    /// be suspended or retried, and it wins over any later terminal —
    /// so its outcome is built and handed to the finished sink now,
    /// before the task's dependents (its Release, a cohort-mate's next
    /// step) are dispatched.
    fn settled(&self, task: usize, outcome: &TaskOutcome) {
        let Some((start, end)) = outcome.span() else {
            return;
        };
        let step = match self.meta[task].kind {
            ServeTaskKind::Decode { step, .. } => Some(step),
            _ => None,
        };
        for &s in &self.meta[task].segs {
            let m = self.ctx.member(s);
            let steps = &self.token_tasks[m];
            {
                let mut facts = plain_lock(&self.facts[m]);
                facts.first_start_ms = Some(facts.first_start_ms.map_or(start, |t| t.min(start)));
                if let Some(error) = outcome.error() {
                    if facts.error.as_ref().is_none_or(|&(t, _)| task < t) {
                        facts.error = Some((task, error.to_owned()));
                    }
                }
                if self.prefill_finish[m] == Some(task) && outcome.is_completed() {
                    facts.prefill_done_ms = Some(end);
                }
                if let Some(k) = step.filter(|&k| steps.get(k) == Some(&task)) {
                    facts.token_end_ms[k] = end;
                }
            }
            if steps.last() != Some(&task) {
                continue;
            }
            if let (Ok(status @ RequestStatus::Completed), member) = self.resolve(m) {
                let outcome = self.ctx.round.members[m].finish(member, status);
                if let Some(sink) = self.ctx.round.finished {
                    sink(&outcome);
                }
                *plain_lock(&self.finished[m]) = Some(outcome);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::AtomicU64;

    use llmnpu_model::backend::FloatBackend;
    use llmnpu_model::config::ModelConfig;
    use llmnpu_model::weights::{synthesize, OutlierSpec};
    use llmnpu_soc::spec::SocSpec;

    use super::*;
    use crate::engine::EngineConfig;
    use crate::faults::{FaultMode, FaultPlan, FaultSite, FaultSpec};
    use crate::serve::{queue_of, GenerationRequest, TokenEvent};

    /// What the sinks heard, in order: `(request, Some(step))` for a
    /// token, `(request, None)` for a finished outcome.
    type Log = Mutex<Vec<(usize, Option<usize>)>>;

    fn assert_same(got: &RequestOutcome, want: &RequestOutcome) {
        let what = format!("request {}", want.request);
        assert_eq!(got.request, want.request, "{what}");
        assert_eq!(got.tokens, want.tokens, "{what}");
        assert_eq!(got.token_times_ms, want.token_times_ms, "{what}");
        assert_eq!(
            got.arrival_ms.to_bits(),
            want.arrival_ms.to_bits(),
            "{what}"
        );
        assert_eq!(
            got.first_dispatch_ms.to_bits(),
            want.first_dispatch_ms.to_bits(),
            "{what}"
        );
        assert_eq!(
            got.prefill_done_ms.to_bits(),
            want.prefill_done_ms.to_bits(),
            "{what}"
        );
        assert_eq!(got.finish_ms.to_bits(), want.finish_ms.to_bits(), "{what}");
        assert_eq!(got.attempts, want.attempts, "{what}");
        assert_eq!(got.status, want.status, "{what}");
    }

    /// One slot, so every member runs after the one before it releases:
    /// A (2 tokens) and B (4) complete, C is cancelled before it starts,
    /// D fails at decode step 1 with no retries left, and E's long
    /// prefill is cut (a submission is pending throughout round 1) and
    /// completes in round 2. The finished sink hears every member once:
    /// A before B's first token and B before D's — at their last tokens
    /// — and C and D when round 1 ends; each outcome it heard is the one
    /// the report holds, field by field.
    #[test]
    fn the_finished_sink_hears_each_member_once_a_complete_stream_at_its_last_token() {
        let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
        let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let prompt = |n: u32, stride: u32| (0..n).map(|i| (i * stride + 3) % 96).collect();
        let requests = [
            GenerationRequest::new(prompt(5, 7), 2),
            GenerationRequest::new(prompt(4, 11), 4),
            GenerationRequest::new(prompt(5, 13), 3),
            GenerationRequest::new(prompt(3, 17), 3),
            GenerationRequest::new(prompt(30, 19), 2),
        ];
        requests[2].cancel_handle().cancel();
        let fault = FaultSpec {
            request: 3,
            attempt: 1,
            site: FaultSite::Decode { step: 1 },
            mode: FaultMode::Error,
            permanent: true,
        };
        for workers in 1..=4 {
            let mut ecfg =
                EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
            ecfg.chunk_len = 3;
            ecfg.pool_workers = workers;
            let engine = LlmNpuEngine::new(ecfg).unwrap();
            let log: Arc<Log> = Arc::default();
            let heard: Mutex<Vec<RequestOutcome>> = Mutex::default();
            let tokens_log = Arc::clone(&log);
            let opts = ServeOptions {
                max_active: 1,
                block_tokens: 4,
                kv_pool_blocks: Some(64),
                share_prefixes: true,
                max_retries: 0,
                faults: Some(FaultPlan::new().with_fault(fault)),
                on_token: Some(Arc::new(move |ev: &TokenEvent| {
                    plain_lock(&tokens_log).push((ev.request, Some(ev.step)));
                })),
                ..ServeOptions::default()
            };
            let sink = |o: &RequestOutcome| {
                plain_lock(&log).push((o.request, None));
                plain_lock(&heard).push(o.clone());
            };
            let session = engine.open_serve_session(&t, &opts).unwrap();
            let mut served = Served::new(&engine, &opts, &session, 0.0);
            let mut queue = queue_of(&requests);
            let pending = AtomicU64::new(1);
            served
                .round(
                    &t,
                    &mut queue,
                    Some(Arrivals::new(&pending, 0)),
                    Some(&sink),
                )
                .unwrap();
            assert_eq!(served.suspensions, 1, "{workers} worker(s): E was cut");
            let resumed: Vec<usize> = queue.iter().map(|q| q.id).collect();
            assert_eq!(resumed, [4], "{workers} worker(s)");
            while !queue.is_empty() {
                served.round(&t, &mut queue, None, Some(&sink)).unwrap();
            }
            let report = served.report().unwrap();

            let token = |r: usize, steps: usize| (0..steps).map(move |k| (r, Some(k)));
            let expect: Vec<(usize, Option<usize>)> = token(0, 2)
                .chain([(0, None)])
                .chain(token(1, 4))
                .chain([(1, None)])
                .chain(token(3, 1))
                .chain([(2, None), (3, None)])
                .chain(token(4, 2))
                .chain([(4, None)])
                .collect();
            assert_eq!(*plain_lock(&log), expect, "{workers} worker(s)");
            let heard = std::mem::take(&mut *plain_lock(&heard));
            assert_eq!(heard.len(), report.requests.len(), "{workers} worker(s)");
            for (got, want) in heard.iter().zip(&report.requests) {
                assert_same(got, want);
            }
            let ids: Vec<usize> = heard.iter().map(|o| o.request).collect();
            assert_eq!(ids, [0, 1, 2, 3, 4], "{workers} worker(s)");
            for (o, r) in heard.iter().zip(&requests) {
                let done = o.tokens.len() == r.max_new_tokens;
                match o.request {
                    2 => assert_eq!(o.status, RequestStatus::Cancelled),
                    3 => assert!(matches!(o.status, RequestStatus::Failed { .. })),
                    _ => assert!(done && o.status == RequestStatus::Completed, "{o:?}"),
                }
            }
        }
    }
}
