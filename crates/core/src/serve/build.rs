//! Stage 2 — **build**: turns a [`RoundPlan`](super::plan::RoundPlan)
//! into the round's combined lane graph. Every task enters through
//! [`RoundBuilder::push_task`], which states its lane facts, its body,
//! its serve-level metadata and its verifier annotations together —
//! the proof ([`super::prove`]), the dispatch gate and the report all
//! read that one record.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{build_prefill_dag, PrefillDag, Task, TaskRole};
use llmnpu_graph::layer::Stage;
use llmnpu_model::forward::{PagedDecodeEntry, Transformer};
use llmnpu_model::kv::PagedKvCache;
use llmnpu_model::sample::Sampler;
use llmnpu_sched::{LaneGraph, LaneTask, PrefillProgram, TaskFn};
use llmnpu_soc::Processor;
use llmnpu_tensor::Tensor;
use llmnpu_verify::TaskClass;

use super::plan::{GateKind, SegmentPlan};
use super::{plain_lock, CancelToken, RequestStatus, Round, ServeTaskKind, TokenEvent};
use crate::decode::DecodeSim;
use crate::engine::LlmNpuEngine;
use crate::faults::{FaultMode, FaultSite};
use crate::{Error, Result};

/// Modeled duration of bookkeeping tasks (admission, cache assembly,
/// eviction, release — not GEMMs; only used for scheduling priority).
const FINISH_TASK_MS: f64 = 0.05;

/// Mutable per-request generation state, touched only by the request's
/// own (serially chained) tasks — plus the cohort decode tasks, which
/// lock every member in a fixed order.
pub(super) struct ReqState {
    sampler: Sampler,
    last_hidden: Option<Tensor<f32>>,
    pub(super) tokens: Vec<u32>,
}

/// Live, per-round, per-member fault-containment state: the terminal
/// status cell (first writer wins), the emitted-token counter (TTFT
/// deadline gating), and the request's shared cancel flag.
pub(super) struct ReqRuntime {
    pub(super) term: Mutex<Option<RequestStatus>>,
    pub(super) tokens_out: AtomicUsize,
    pub(super) cancel: CancelToken,
}

/// The live state one round's task bodies share for the whole run.
pub(super) struct RoundState {
    /// Per-member paged-cache slots: filled by Admit, drained by
    /// Release / Evicted.
    pub(super) slots: Vec<Mutex<Option<PagedKvCache>>>,
    pub(super) states: Vec<Mutex<ReqState>>,
    pub(super) runtime: Vec<ReqRuntime>,
    /// Per-segment prefill-completion flags: a prefix sharer's Admit
    /// refuses to fork from a donor whose prefill never completed
    /// (failed or skipped) — the sharer fails cleanly (and retries
    /// unshared) instead of forking a half-written cache.
    prefill_ok: Vec<AtomicBool>,
}

impl RoundState {
    pub(super) fn new(round: &Round<'_>, segments: usize) -> Result<Self> {
        let requests = &round.requests;
        Ok(RoundState {
            slots: requests.iter().map(|_| Mutex::new(None)).collect(),
            states: requests
                .iter()
                .map(|req| {
                    Ok(Mutex::new(ReqState {
                        sampler: Sampler::new(&req.sampler)?,
                        last_hidden: None,
                        tokens: Vec::with_capacity(req.max_new_tokens),
                    }))
                })
                .collect::<Result<_>>()?,
            runtime: requests
                .iter()
                .map(|req| ReqRuntime {
                    term: Mutex::new(None),
                    tokens_out: AtomicUsize::new(0),
                    cancel: req.cancel.clone(),
                })
                .collect(),
            prefill_ok: (0..segments).map(|_| AtomicBool::new(false)).collect(),
        })
    }
}

/// What every stage after planning reads, and every task body may
/// touch, for the duration of one round's run.
#[derive(Clone, Copy)]
pub(super) struct RunCtx<'run> {
    pub(super) round: &'run Round<'run>,
    pub(super) segments: &'run [SegmentPlan],
    pub(super) live: &'run RoundState,
    pub(super) t: &'run Transformer<'run>,
}

impl RunCtx<'_> {
    /// Round-member index of segment `s`.
    pub(super) fn member(self, s: usize) -> usize {
        self.segments[s].req
    }

    /// Global attempt number of segment `s`. Numbering is global across
    /// rounds: memory-pressure evictions and failure retries share one
    /// ladder, so the attempt-numbered spans witness both preemption
    /// *and* retry.
    pub(super) fn attempt(self, s: usize) -> usize {
        self.round.attempt_base[self.member(s)] + self.segments[s].attempt
    }

    /// Original (caller-side) request id of segment `s`.
    pub(super) fn orig(self, s: usize) -> usize {
        self.round.orig_ids[self.member(s)]
    }

    /// Segment `s`'s `FaultSpec` key: original request id and 1-based
    /// global attempt.
    fn fault_key(self, s: usize) -> (usize, usize) {
        (self.orig(s), self.attempt(s) + 1)
    }
}

/// Per-segment prefill machinery over the unshared prompt suffix.
pub(super) struct Prefill<'run> {
    dags: Vec<PrefillDag>,
    pub(super) plans: Vec<ChunkPlan>,
    programs: Vec<PrefillProgram<'run, 'run>>,
}

impl<'run> Prefill<'run> {
    pub(super) fn new(engine: &LlmNpuEngine, ctx: RunCtx<'run>) -> Result<Self> {
        let n = ctx.segments.len();
        let mut pre = Prefill {
            dags: Vec::with_capacity(n),
            plans: Vec::with_capacity(n),
            programs: Vec::with_capacity(n),
        };
        for seg in ctx.segments {
            let shared_tokens = seg.prefix_tokens();
            let suffix = &ctx.round.requests[seg.req].prompt[shared_tokens..];
            let dag_cfg = engine.dag_config(suffix.len())?;
            let dag = build_prefill_dag(ctx.t.config(), &dag_cfg, engine.latency_model())?;
            pre.programs.push(PrefillProgram::new(
                ctx.t,
                suffix,
                &dag,
                &dag_cfg.plan,
                shared_tokens,
                &ctx.live.slots[seg.req],
            )?);
            pre.plans.push(dag_cfg.plan);
            pre.dags.push(dag);
        }
        Ok(pre)
    }
}

/// Build-time record of one segment's task ids.
pub(super) struct SegBuild {
    pub(super) admit: usize,
    pub(super) prefill_finish: usize,
    /// Final decode task of the segment (set when its cohort's decode
    /// chain is flushed; `None` for evicted segments).
    last_decode: Option<usize>,
    pub(super) release: Option<usize>,
}

/// Everything serve knows about one graph task, stated once at
/// [`RoundBuilder::push_task`].
pub(super) struct TaskMeta {
    pub(super) kind: ServeTaskKind,
    /// Segments the task touches — one, except for batched decode (every
    /// live cohort member). The first is the owner: its member and
    /// global attempt label the task's span.
    pub(super) segs: Vec<usize>,
    /// The verifier's accounting class.
    pub(super) class: TaskClass,
    /// Whether the dispatch gate may skip the task once every member it
    /// touches is terminal.
    pub(super) gated: bool,
    /// Whether the task body can fail or panic.
    pub(super) fallible: bool,
}

/// One round's spliced lane graph: `graph`, `closures` and `meta` are
/// parallel (same task ids).
pub(super) struct RoundGraph<'run> {
    pub(super) graph: LaneGraph,
    pub(super) closures: Vec<TaskFn<'run>>,
    pub(super) meta: Vec<TaskMeta>,
    pub(super) builds: Vec<SegBuild>,
    /// Decode task id per (member, step) — the token stream spans.
    pub(super) token_tasks: Vec<Vec<usize>>,
}

struct RoundBuilder<'run> {
    ctx: RunCtx<'run>,
    prefill: &'run Prefill<'run>,
    /// Lane of the bookkeeping and decode tasks.
    decode_proc: Processor,
    /// Decode-task durations come from the shared context-aware decode
    /// model, priced for the numeric model actually being served.
    dsim: DecodeSim,
    out: RoundGraph<'run>,
    /// Cohort id -> member segments, flushed when complete.
    cohort_members: Vec<Vec<usize>>,
    cohort_flushed: Vec<bool>,
}

/// Builds the round's combined lane graph from its plan.
pub(super) fn build_round<'run>(
    engine: &LlmNpuEngine,
    ctx: RunCtx<'run>,
    prefill: &'run Prefill<'run>,
    cohorts: usize,
) -> Result<RoundGraph<'run>> {
    let decode_proc = engine.config().decode_processor;
    let mut b = RoundBuilder {
        ctx,
        prefill,
        decode_proc,
        dsim: DecodeSim::new(
            ctx.t.config().clone(),
            engine.config().soc.clone(),
            decode_proc,
        ),
        out: RoundGraph {
            graph: LaneGraph::new(),
            closures: Vec::new(),
            meta: Vec::new(),
            builds: Vec::new(),
            token_tasks: ctx
                .round
                .requests
                .iter()
                .map(|r| vec![0; r.max_new_tokens])
                .collect(),
        },
        cohort_members: vec![Vec::new(); cohorts],
        cohort_flushed: vec![false; cohorts],
    };
    // Admissions are chained in planned order: the planner's page
    // accounting for segment `s` assumes every earlier-planned
    // segment already reserved (or skipped) its pages, but a fault-
    // poisoned chain can collapse early and let a later-planned
    // Admit's gates resolve first — letting it steal pages the plan
    // earmarked for an earlier one and fail its physical reserve.
    // The chain pins physical reservation order to planned order
    // (Admit is a barrier, so a failed predecessor doesn't poison
    // it; the page-accounting inequality then holds by induction).
    let mut prev_admit: Option<usize> = None;
    for s in 0..ctx.segments.len() {
        prev_admit = Some(b.segment(s, prev_admit)?);
    }
    for c in 0..cohorts {
        b.flush_cohort(c)?;
    }
    // Every surviving segment returns its pages (every segment is
    // built now, so sharer Admit ids all exist).
    for (s, seg) in ctx.segments.iter().enumerate() {
        if !seg.evicted {
            b.emit_release(s)?;
        }
    }
    debug_assert_eq!(b.out.graph.len(), b.out.closures.len());
    debug_assert_eq!(b.out.graph.len(), b.out.meta.len());
    Ok(b.out)
}

impl<'run> RoundBuilder<'run> {
    /// The one way a task enters the round: the executor's lane facts
    /// and dependencies, the body, and what serve and the verifier know
    /// about it, together.
    ///
    /// The two cleanup kinds (Release, Evicted) drain a cache slot: they
    /// cannot fail and are never gate-skipped — pages return on every
    /// terminal path. Every other kind runs a fallible body and is
    /// skippable once its members are terminal; the single-member ones
    /// are wrapped in [`contain`], batched decode records failures per
    /// member inside its body.
    fn push_task(
        &mut self,
        task: LaneTask,
        deps: Vec<usize>,
        kind: ServeTaskKind,
        segs: Vec<usize>,
        body: TaskFn<'run>,
    ) -> Result<usize> {
        let (class, cleanup) = match kind {
            ServeTaskKind::Admit => (TaskClass::Admit, false),
            ServeTaskKind::Evicted => (TaskClass::Evict, true),
            ServeTaskKind::Release => (TaskClass::Release, true),
            _ => (TaskClass::Other, false),
        };
        let body = if cleanup || kind.is_decode() {
            body
        } else {
            contain(&self.ctx.live.runtime[self.ctx.member(segs[0])], body)
        };
        let id = self.out.graph.push(task, deps)?;
        self.out.closures.push(body);
        self.out.meta.push(TaskMeta {
            kind,
            segs,
            class,
            gated: !cleanup,
            fallible: !cleanup,
        });
        Ok(id)
    }

    /// A bookkeeping task of segment `s` on the decode lane.
    fn bookkeeping(&self, label: String, s: usize, barrier: bool) -> LaneTask {
        LaneTask {
            label,
            processor: self.decode_proc,
            duration_ms: FINISH_TASK_MS,
            release_ms: self.ctx.round.requests[self.ctx.member(s)].arrival_ms,
            barrier,
        }
    }

    /// Emits segment `s`'s Admit, suffix-prefill DAG and prefill
    /// terminal (after any Release its Done gates demand); returns the
    /// Admit task id.
    fn segment(&mut self, s: usize, prev_admit: Option<usize>) -> Result<usize> {
        let ctx = self.ctx;
        let seg = &ctx.segments[s];
        // Any Done gate on a normal segment needs that segment's
        // Release task — flush its cohort's decode chain, then emit
        // just *that* segment's Release (its sharers are all built:
        // they attached while the donor was active, i.e. before any
        // segment could gate Done on it).
        for &(g, kind) in &seg.gates {
            if kind == GateKind::Done && !ctx.segments[g].evicted {
                self.flush_cohort(ctx.segments[g].cohort)?;
                self.emit_release(g)?;
            }
        }
        let req = seg.req;
        let request = &ctx.round.requests[req];
        let attempt = ctx.attempt(s);
        let (orig, fault_attempt) = ctx.fault_key(s);
        let faults = &ctx.round.faults;
        let rlabel = if attempt == 0 {
            format!("R{orig}")
        } else {
            format!("R{orig}.{attempt}")
        };

        // Admission: reserve pages (forking the donor's prefix).
        let mut gate_deps: Vec<usize> = Vec::with_capacity(seg.gates.len() + 1);
        for &(g, kind) in &seg.gates {
            let build = &self.out.builds[g];
            gate_deps.push(match kind {
                GateKind::Done if !ctx.segments[g].evicted => {
                    build.release.ok_or_else(|| Error::Internal {
                        what: format!(
                            "segment {s} gates on segment {g}'s release, which was never emitted"
                        ),
                    })?
                }
                // A sharer waits for the donor's prefill; an evicted
                // incarnation's terminal *is* its prefill-finish slot.
                _ => build.prefill_finish,
            });
        }
        gate_deps.extend(prev_admit);
        // Admit is a barrier (it must *run* after failed gates so the
        // donor check inside can fail the sharer cleanly), but it is
        // gate-skippable: a request already cancelled or expired
        // reserves nothing.
        let admit = self.push_task(
            self.bookkeeping(format!("{rlabel}-Admit"), s, true),
            gate_deps,
            ServeTaskKind::Admit,
            vec![s],
            self.admit_body(s),
        )?;

        // The suffix prefill DAG; roots wait on admission. Scripted
        // prefill faults replace the matching stage closure (the
        // Main-path FFN of the targeted chunk/layer — a unique task per
        // site) outright.
        let prefill = self.prefill;
        let dag = &prefill.dags[s];
        let dur_factor = faults.duration_factor(orig, fault_attempt);
        let offset = self.out.graph.len();
        let bodies = prefill.programs[s].closures(dag);
        for (i, (task, body)) in dag.tasks().iter().zip(bodies).enumerate() {
            let mut deps: Vec<usize> = dag.deps(i).iter().map(|&d| d + offset).collect();
            if deps.is_empty() {
                deps.push(admit);
            }
            self.push_task(
                LaneTask {
                    label: format!("{rlabel}-{}", task.label),
                    processor: task.processor,
                    duration_ms: task.duration_ms * dur_factor,
                    release_ms: request.arrival_ms,
                    barrier: false,
                },
                deps,
                ServeTaskKind::PrefillStage {
                    chunk: task.chunk,
                    layer: task.layer,
                    stage: task.stage,
                    role: task.role,
                },
                vec![s],
                self.prefill_fault(s, task).unwrap_or(body),
            )?;
        }

        // Prefill terminal: last-hidden assembly — or, for a preempted
        // incarnation, the eviction (pages freed, work discarded).
        let mut finish_deps: Vec<usize> = dag_sinks(dag).iter().map(|&k| k + offset).collect();
        if finish_deps.is_empty() {
            finish_deps.push(admit);
        }
        // An eviction is a containment barrier (its page release must
        // run even when the incarnation's prefill failed); a real
        // PrefillFinish is not — a failed prefill poisons it.
        let finish = if seg.evicted {
            let slot = &ctx.live.slots[req];
            self.push_task(
                self.bookkeeping(format!("{rlabel}-Evicted"), s, true),
                finish_deps,
                ServeTaskKind::Evicted,
                vec![s],
                Box::new(move || release_slot(slot)),
            )?
        } else {
            self.cohort_members[seg.cohort].push(s);
            self.push_task(
                self.bookkeeping(format!("{rlabel}-PrefillFinish"), s, false),
                finish_deps,
                ServeTaskKind::PrefillFinish,
                vec![s],
                self.prefill_finish_body(s),
            )?
        };
        self.out.builds.push(SegBuild {
            admit,
            prefill_finish: finish,
            last_decode: None,
            release: None,
        });
        Ok(admit)
    }

    /// The Admit body of segment `s`: reserve its worst-case pages,
    /// adopting a cached prefix or forking a live donor's.
    fn admit_body(&self, s: usize) -> TaskFn<'run> {
        let ctx = self.ctx;
        let seg = &ctx.segments[s];
        let request = &ctx.round.requests[seg.req];
        let (orig, fault_attempt) = ctx.fault_key(s);
        let admit_fault = ctx
            .round
            .faults
            .fault_at(orig, fault_attempt, FaultSite::Admit)
            .copied();
        let pool = ctx.round.pool;
        let block_tokens = pool.config().block_tokens;
        let need = seg.fresh_blocks(pool.config(), request);
        let full = seg.prefix_full_tokens(block_tokens);
        let total = request.total_tokens();
        let donor = seg
            .shared
            .map(|sh| (sh, &ctx.live.slots[ctx.member(sh.donor_seg)]));
        Box::new(move || {
            if let Some(f) = admit_fault {
                let msg = format!("injected admit fault: request {orig}");
                match f.mode {
                    FaultMode::Panic => panic!("{msg}"),
                    FaultMode::Error => return Err(msg),
                }
            }
            // Admission valve: when the planner balanced its budget by
            // reclaiming cache-resident pages (or a prior failure left
            // stale residents), evict them physically now, best effort
            // — the reserve below is the arbiter. Claimed hits and
            // mid-use pages are refused by the cache itself.
            let short = need.saturating_sub(pool.free_blocks());
            if short > 0 {
                let _ = ctx.round.cache.evict_lru(pool, short);
            }
            // Reserve, then recover any sub-page prefix tail with a
            // leading-row copy `(source page, destination index, rows)`
            // into the first private page (per-row causal masking keeps
            // the math identical).
            let donor_guard = donor.map(|(sh, slot)| (sh, plain_lock(slot)));
            let (mut cache, tail) = match (&seg.cached, &donor_guard) {
                // Global-cache hit: adopt the cached full pages (no
                // donor, no liveness gate).
                (Some(hit), _) => (
                    PagedKvCache::reserve_with_prefix(pool, &hit.blocks, total)
                        .map_err(|e| e.to_string())?,
                    hit.tail.map(|(src, rows)| (src, hit.blocks.len(), rows)),
                ),
                // Live donor: ref-share its full pages.
                (None, Some((sh, guard))) => {
                    if !ctx.live.prefill_ok[sh.donor_seg].load(Ordering::Acquire) {
                        return Err("prefix donor prefill incomplete".to_string());
                    }
                    let donor = guard.as_ref().ok_or("prefix donor cache missing")?;
                    let page = full / block_tokens;
                    (
                        PagedKvCache::reserve_shared(pool, donor, full, total)
                            .map_err(|e| e.to_string())?,
                        (sh.tokens > full)
                            .then(|| (donor.table().blocks()[page], page, sh.tokens - full)),
                    )
                }
                (None, None) => (
                    PagedKvCache::reserve(pool, total).map_err(|e| e.to_string())?,
                    None,
                ),
            };
            if let Some((src, dst, rows)) = tail {
                let dst = cache.table().blocks()[dst];
                if let Err(e) = pool.copy_rows(src, dst, rows) {
                    let _ = cache.release();
                    return Err(e.to_string());
                }
            }
            drop(donor_guard);
            *plain_lock(&ctx.live.slots[seg.req]) = Some(cache);
            Ok(())
        })
    }

    /// The scripted fault, if any, that replaces prefill task `task` of
    /// segment `s`.
    fn prefill_fault(&self, s: usize, task: &Task) -> Option<TaskFn<'run>> {
        if task.role != TaskRole::Main || task.stage != Stage::Ffn {
            return None;
        }
        let (orig, fault_attempt) = self.ctx.fault_key(s);
        let (chunk, layer) = (task.chunk, task.layer);
        let site = FaultSite::Prefill { chunk, layer };
        let f = self.ctx.round.faults.fault_at(orig, fault_attempt, site)?;
        let msg = format!("injected prefill fault: request {orig} chunk {chunk} layer {layer}");
        Some(match f.mode {
            FaultMode::Panic => Box::new(move || panic!("{msg}")),
            FaultMode::Error => Box::new(move || Err(msg)),
        })
    }

    /// The PrefillFinish body of segment `s`: hand the last hidden row
    /// to decode and publish the prompt pages to the prefix cache.
    fn prefill_finish_body(&self, s: usize) -> TaskFn<'run> {
        let ctx = self.ctx;
        let req = ctx.member(s);
        let program = &self.prefill.programs[s];
        Box::new(move || {
            let last = program.last_hidden_row().map_err(|e| e.to_string())?;
            plain_lock(&ctx.live.states[req]).last_hidden = Some(last);
            if ctx.round.share {
                // Publish the now-complete prompt pages to the global
                // cache (full blocks only, first writer wins) so later
                // batches reuse them without a live donor. Failure here
                // is a contained request failure, like any prefill
                // fault.
                let blocks = {
                    let guard = plain_lock(&ctx.live.slots[req]);
                    let c = guard.as_ref().ok_or("prefill cache slot empty")?;
                    c.table().blocks().to_vec()
                };
                ctx.round
                    .cache
                    .insert(ctx.round.pool, &ctx.round.requests[req].prompt, &blocks)
                    .map_err(|e| e.to_string())?;
            }
            ctx.live.prefill_ok[s].store(true, Ordering::Release);
            Ok(())
        })
    }

    /// Emits cohort `c`'s batched decode chain (once).
    fn flush_cohort(&mut self, c: usize) -> Result<()> {
        if std::mem::replace(&mut self.cohort_flushed[c], true) {
            return Ok(());
        }
        let ctx = self.ctx;
        let requests = &ctx.round.requests;
        let members = std::mem::take(&mut self.cohort_members[c]);
        let mut chain_prev: Vec<usize> = members
            .iter()
            .map(|&s| self.out.builds[s].prefill_finish)
            .collect();
        let steps_of = |s: usize| requests[ctx.member(s)].max_new_tokens;
        let max_steps = members.iter().map(|&s| steps_of(s)).max().unwrap_or(0);
        for step in 0..max_steps {
            let active: Vec<usize> = (0..members.len())
                .filter(|&i| step < steps_of(members[i]))
                .collect();
            let segs: Vec<usize> = active.iter().map(|&i| members[i]).collect();
            let width = segs.len();
            let mut deps: Vec<usize> = active.iter().map(|&i| chain_prev[i]).collect();
            deps.sort_unstable();
            deps.dedup();
            let duration = segs
                .iter()
                .map(|&s| {
                    let (orig, fault_attempt) = ctx.fault_key(s);
                    self.dsim
                        .token_ms(requests[ctx.member(s)].prompt.len() + step)
                        * ctx.round.faults.duration_factor(orig, fault_attempt)
                })
                .fold(0.0, f64::max);
            let release = segs
                .iter()
                .map(|&s| requests[ctx.member(s)].arrival_ms)
                .fold(0.0, f64::max);
            let (label, kind) = if width == 1 {
                (
                    format!("R{}-D{step}", ctx.orig(segs[0])),
                    ServeTaskKind::Decode { step },
                )
            } else {
                (
                    format!("C{c}-D{step}x{width}"),
                    ServeTaskKind::DecodeBatch { step, width },
                )
            };
            // Decode tasks are containment barriers: a failed (or
            // skipped) member's chain must not poison the cohort —
            // the task runs for whoever is still live and the
            // per-member filter inside the body excludes the rest.
            let body_segs = segs.clone();
            let id = self.push_task(
                LaneTask {
                    label,
                    processor: self.decode_proc,
                    duration_ms: duration,
                    release_ms: release,
                    barrier: true,
                },
                deps,
                kind,
                segs,
                Box::new(move || ctx.decode_step(&body_segs, step)),
            )?;
            for &i in &active {
                chain_prev[i] = id;
                self.out.token_tasks[ctx.member(members[i])][step] = id;
            }
        }
        // Record each member's final decode task; the Release task
        // is emitted separately (and possibly later — it must wait
        // for every *sharer* of the member's blocks to have an
        // Admit task in the graph, and a sharer can be a segment
        // that is not built yet at an early cohort flush).
        for (i, &s) in members.iter().enumerate() {
            self.out.builds[s].last_decode = Some(chain_prev[i]);
        }
        Ok(())
    }

    /// Emits segment `s`'s Release task (once): pages go back once the
    /// member's stream is done — but never before every sharer of
    /// its blocks has admitted. Callers must guarantee every sharer
    /// segment is already built (true when the release is demanded
    /// by a later segment's Done gate — sharers attach only while
    /// the donor is active, so they precede any Done-gater — and
    /// trivially true at the final sweep).
    fn emit_release(&mut self, s: usize) -> Result<()> {
        if self.out.builds[s].release.is_some() {
            return Ok(());
        }
        let last_decode = self.out.builds[s]
            .last_decode
            .ok_or_else(|| Error::Internal {
                what: format!("release for segment {s} emitted before its cohort was flushed"),
            })?;
        let mut deps = vec![last_decode];
        for &sharer in &self.ctx.segments[s].sharer_segs {
            deps.push(self.out.builds[sharer].admit);
        }
        deps.sort_unstable();
        deps.dedup();
        // Release is a containment barrier and is never gate-skipped:
        // pages must return to the pool on every terminal path.
        let slot = &self.ctx.live.slots[self.ctx.member(s)];
        let id = self.push_task(
            self.bookkeeping(format!("R{}-Release", self.ctx.orig(s)), s, true),
            deps,
            ServeTaskKind::Release,
            vec![s],
            Box::new(move || release_slot(slot)),
        )?;
        self.out.builds[s].release = Some(id);
        Ok(())
    }
}

/// Wraps a single-member task closure so that any failure — error return
/// or panic — records the member's terminal status *before* the
/// executor sees it. The recorded status is what lets the dispatch gate
/// stop feeding a failed request's downstream chain and what the
/// per-member liveness filter inside batched decode keys on. Panics are
/// re-raised so the executor's unwind containment (the actual isolation
/// boundary) is exercised, not bypassed.
fn contain<'run>(rt: &'run ReqRuntime, f: TaskFn<'run>) -> TaskFn<'run> {
    Box::new(move || {
        let record = |error: String| {
            let mut term = plain_lock(&rt.term);
            if term.is_none() {
                *term = Some(RequestStatus::Failed { error });
            }
        };
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => {
                record(e.clone());
                Err(e)
            }
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "task panicked".to_string());
                record(msg);
                std::panic::resume_unwind(payload)
            }
        }
    })
}

impl RunCtx<'_> {
    /// The numeric body of one (possibly batched) decode step over the
    /// cohort members `segs`: filter the cohort down to its *live*
    /// members, forward every live member's previous token through one
    /// `m = B` stacked forward, then project + sample each member's
    /// next token, emitting it to the sink.
    ///
    /// Liveness is per member — a cancelled, expired, or failed member
    /// is excluded from the stacked GEMM without touching its neighbors
    /// (row exclusion is bit-safe for row-wise backends, the only ones
    /// that batch), which is what keeps a cohort-mate's failure out of
    /// every other stream.
    fn decode_step(self, segs: &[usize], step: usize) -> std::result::Result<(), String> {
        let RoundState {
            slots,
            states,
            runtime,
            ..
        } = self.live;
        // Live members, as (round-member index, original request id).
        let mut live: Vec<(usize, usize)> = Vec::with_capacity(segs.len());
        for &s in segs {
            let member = self.member(s);
            let (orig, fault_attempt) = self.fault_key(s);
            let mut term = plain_lock(&runtime[member].term);
            if term.is_none() && runtime[member].cancel.is_cancelled() {
                *term = Some(RequestStatus::Cancelled);
            }
            if term.is_some() {
                continue;
            }
            let g = plain_lock(&states[member]);
            if g.tokens.len() != step || g.last_hidden.is_none() {
                // The member's chain never reached this step (upstream
                // failure or skip) — not live here.
                continue;
            }
            let site = FaultSite::Decode { step };
            if let Some(f) = self.round.faults.fault_at(orig, fault_attempt, site) {
                let msg = format!("injected decode fault: request {orig} step {step}");
                if f.mode == FaultMode::Panic && segs.len() == 1 {
                    drop(g);
                    drop(term);
                    panic!("{msg}");
                }
                // Inside a cohort the blast radius must stay per-member:
                // record the failure and exclude the member; neighbors in
                // the same batched GEMM keep decoding.
                *term = Some(RequestStatus::Failed { error: msg });
                continue;
            }
            live.push((member, orig));
        }
        if live.is_empty() {
            return Ok(());
        }
        // Lock live members in cohort order (this task is the only holder).
        let mut state_guards: Vec<_> = live.iter().map(|&(m, _)| plain_lock(&states[m])).collect();
        if step > 0 {
            // Forward every member's token `step - 1`: one batched GEMM per
            // linear site, per-request paged KV appends and attention.
            let mut slot_guards: Vec<_> =
                live.iter().map(|&(m, _)| plain_lock(&slots[m])).collect();
            let mut entries: Vec<PagedDecodeEntry<'_>> = Vec::with_capacity(live.len());
            for ((slot, state), &(m, _)) in slot_guards.iter_mut().zip(&state_guards).zip(&live) {
                entries.push(PagedDecodeEntry {
                    token: *state.tokens.get(step - 1).ok_or("missing previous token")?,
                    pos: self.round.requests[m].prompt.len() + step - 1,
                    kv: slot.as_mut().ok_or("missing kv cache")?,
                });
            }
            let h = self
                .t
                .decode_forward_batch(&mut entries)
                .map_err(|e| e.to_string())?;
            let (_, hidden) = h.matrix_dims();
            for (i, g) in state_guards.iter_mut().enumerate() {
                g.last_hidden = Some(
                    Tensor::from_vec(h.row(i).to_vec(), [1, hidden]).map_err(|e| e.to_string())?,
                );
            }
        }
        // LM head over the stacked last-hidden rows (one m = B GEMM), then
        // per-member seeded sampling.
        let hidden = self.t.config().hidden;
        let mut stacked = Vec::with_capacity(live.len() * hidden);
        for g in &state_guards {
            stacked.extend_from_slice(g.last_hidden.as_ref().ok_or("missing hidden state")?.row(0));
        }
        let stacked = Tensor::from_vec(stacked, [live.len(), hidden]).map_err(|e| e.to_string())?;
        let logits = self.t.logits(&stacked).map_err(|e| e.to_string())?;
        for (i, (g, &(member, orig))) in state_guards.iter_mut().zip(&live).enumerate() {
            let token = g.sampler.sample(logits.row(i)).map_err(|e| e.to_string())?;
            g.tokens.push(token);
            runtime[member].tokens_out.fetch_add(1, Ordering::AcqRel);
            if let Some(sink) = &self.round.opts.on_token {
                sink(&TokenEvent {
                    request: orig,
                    step,
                    token,
                });
            }
        }
        Ok(())
    }
}

/// Returns a request's pages to the pool (eviction, completion, or any
/// failed terminal path — the zero-leak invariant's workhorse).
pub(super) fn release_slot(slot: &Mutex<Option<PagedKvCache>>) -> std::result::Result<(), String> {
    if let Some(mut cache) = plain_lock(slot).take() {
        cache.release().map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Tasks of a DAG with no in-DAG successors (everything a prefill-finish
/// task must wait for).
fn dag_sinks(dag: &PrefillDag) -> Vec<usize> {
    let mut has_successor = vec![false; dag.len()];
    for t in 0..dag.len() {
        for &d in dag.deps(t) {
            has_successor[d] = true;
        }
    }
    (0..dag.len()).filter(|&t| !has_successor[t]).collect()
}
