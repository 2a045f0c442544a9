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

use super::plan::SegmentPlan;
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
    /// Per-segment prefill-completion flags: a cuttable prefill that
    /// completed has nothing left to cut, so it no longer lets the
    /// round yield ([`RunCtx::yields`]).
    prefill_ok: Vec<AtomicBool>,
    /// Per-segment chunk cut of a front-end round, and whether the
    /// segment's prefill may be cut at all.
    cuts: Vec<Mutex<ChunkCut>>,
    cuttable: Vec<AtomicBool>,
    /// Per-member chunks completed by a prefill its Release suspended
    /// (0: not suspended).
    pub(super) suspended: Vec<AtomicUsize>,
    /// Graph ids of the prefill tasks that ran empty past a cut: they
    /// did no work, so they get no span.
    pub(super) ran_empty: Mutex<Vec<usize>>,
}

/// Where a front-end round cuts one segment's prefill. The out-of-order
/// executor runs every chunk's layer-0 work far ahead, so a chunk
/// commits once a task past layer 0 starts: from then on it runs to
/// completion. The first prefill task of the segment to start while the
/// round yields ([`RunCtx::yields`]) freezes the boundary after the
/// committed chunks — and never before the segment's first boundary
/// that completes a new full page, so every cut leaves the resumed
/// request further ahead — and tasks of later chunks run empty from
/// then on.
#[derive(Debug, Default)]
struct ChunkCut {
    /// Chunks `< deep` have a task past layer 0 under way.
    deep: usize,
    /// The frozen boundary: chunks `< at` run, later ones run empty.
    at: Option<usize>,
}

impl ChunkCut {
    /// Whether a task of `chunk` at `layer`, starting now, does its
    /// work; `min_at` is the segment's earliest boundary.
    fn admits(&mut self, chunk: usize, layer: usize, min_at: usize, ctx: RunCtx<'_>) -> bool {
        if self.at.is_none() && ctx.yields() {
            self.at = Some(self.deep.max(min_at));
        }
        match self.at {
            Some(at) => chunk < at,
            None => {
                if layer > 0 {
                    self.deep = self.deep.max(chunk + 1);
                }
                true
            }
        }
    }
}

impl RoundState {
    pub(super) fn new(round: &Round<'_>, segments: usize) -> Result<Self> {
        let requests = || round.members.iter().map(|q| &q.request);
        Ok(RoundState {
            slots: requests().map(|_| Mutex::new(None)).collect(),
            states: requests()
                .map(|req| {
                    Ok(Mutex::new(ReqState {
                        sampler: Sampler::new(&req.sampler)?,
                        last_hidden: None,
                        tokens: Vec::with_capacity(req.max_new_tokens),
                    }))
                })
                .collect::<Result<_>>()?,
            runtime: requests()
                .map(|req| ReqRuntime {
                    term: Mutex::new(None),
                    tokens_out: AtomicUsize::new(0),
                    cancel: req.cancel.clone(),
                })
                .collect(),
            prefill_ok: (0..segments).map(|_| AtomicBool::new(false)).collect(),
            cuts: (0..segments).map(|_| Mutex::default()).collect(),
            cuttable: (0..segments).map(|_| AtomicBool::new(false)).collect(),
            suspended: requests().map(|_| AtomicUsize::new(0)).collect(),
            ran_empty: Mutex::default(),
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

impl<'run> RunCtx<'run> {
    /// Round-member index of segment `s`.
    pub(super) fn member(self, s: usize) -> usize {
        self.segments[s].req
    }

    /// Global attempt number of segment `s`. Numbering is global across
    /// rounds: memory-pressure evictions and failure retries share one
    /// ladder, so the attempt-numbered spans witness both preemption
    /// *and* retry.
    pub(super) fn attempt(self, s: usize) -> usize {
        self.round.members[self.member(s)].attempts + self.segments[s].attempt
    }

    /// Stable caller-side request id of segment `s`.
    pub(super) fn orig(self, s: usize) -> usize {
        self.round.members[self.member(s)].id
    }

    /// Segment `s`'s `FaultSpec` key: stable request id and 1-based
    /// global attempt.
    fn fault_key(self, s: usize) -> (usize, usize) {
        (self.orig(s), self.attempt(s) + 1)
    }

    /// The earliest boundary segment `s`'s prefill (planned as `plan`)
    /// may be cut at, if it may be cut at all: a front-end round,
    /// prefixes shared (the resumed request finds its completed pages in
    /// the cache), a surviving incarnation, and a boundary before the
    /// last chunk that completes a full page beyond the pages it started
    /// from.
    fn cut_from(self, s: usize, plan: &ChunkPlan) -> Option<usize> {
        let seg = &self.segments[s];
        let cuttable =
            self.round.arrivals.is_some() && self.round.opts.share_prefixes && !seg.evicted;
        let bt = self.round.pool.config().block_tokens;
        let start = seg.prefix_tokens();
        let next_page = (start / bt + 1) * bt;
        let min_at = (next_page - start).div_ceil(plan.chunk_len).max(1);
        (cuttable && min_at < plan.chunks).then_some(min_at)
    }

    /// Chunks segment `s` completes before its cut, if the round cut its
    /// prefill short of its `chunks`.
    fn cut_at(self, s: usize, chunks: usize) -> Option<usize> {
        plain_lock(&self.live.cuts[s]).at.filter(|&at| at < chunks)
    }

    /// Whether a front-end round yields at its next chunk boundary: a
    /// submission is pending, and everything the round has left is
    /// prefill it may cut — every member has finished, or is a prefill
    /// that may be cut and has not completed. A member still to decode,
    /// or whose prefill may not be cut, keeps the round running anyway,
    /// and cutting the others then would only idle them.
    fn yields(self) -> bool {
        let Some(arrivals) = self.round.arrivals else {
            return false;
        };
        let live = self.live;
        arrivals.pending()
            && self.segments.iter().enumerate().all(|(s, seg)| {
                let rt = &live.runtime[seg.req];
                seg.evicted
                    || (live.cuttable[s].load(Ordering::Acquire)
                        && !live.prefill_ok[s].load(Ordering::Acquire))
                    || rt.tokens_out.load(Ordering::Acquire)
                        == self.round.request(seg.req).max_new_tokens
                    || plain_lock(&rt.term).is_some()
            })
    }
}

/// Per-segment prefill machinery over the prompt suffix past the cache
/// hit.
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
            let cached_tokens = seg.prefix_tokens();
            let suffix = &ctx.round.request(seg.req).prompt[cached_tokens..];
            let dag_cfg = engine.dag_config(suffix.len())?;
            let dag = build_prefill_dag(ctx.t.config(), &dag_cfg, engine.latency_model())?;
            pre.programs.push(PrefillProgram::new(
                ctx.t,
                suffix,
                &dag,
                &dag_cfg.plan,
                cached_tokens,
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
    /// The segment's Release task, emitted when its cohort's decode
    /// chain is flushed (`None` for evicted segments, whose terminal is
    /// the Evicted task in `prefill_finish`).
    pub(super) release: Option<usize>,
}

/// Everything serve knows about one graph task, stated when the task is
/// pushed ([`RoundBuilder::push_task`]).
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
    /// Whether the task writes its chunk's K/V rows at one layer: the
    /// prefill splice copies the DAG's [`PrefillDag::writes_kv`]; false
    /// for every other task.
    pub(super) writes_kv: bool,
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
                .members
                .iter()
                .map(|q| vec![0; q.request.max_new_tokens])
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
            writes_kv: false,
        });
        Ok(id)
    }

    /// A bookkeeping task of segment `s` on the decode lane.
    fn bookkeeping(&self, label: String, s: usize, barrier: bool) -> LaneTask {
        LaneTask {
            label,
            processor: self.decode_proc,
            duration_ms: FINISH_TASK_MS,
            release_ms: self.ctx.round.request(self.ctx.member(s)).arrival_ms,
            barrier,
        }
    }

    /// Emits segment `s`'s Admit, suffix-prefill DAG and prefill
    /// terminal (after any Release its gates demand); returns the Admit
    /// task id.
    fn segment(&mut self, s: usize, prev_admit: Option<usize>) -> Result<usize> {
        let ctx = self.ctx;
        let seg = &ctx.segments[s];
        let req = seg.req;
        let request = ctx.round.request(req);
        let attempt = ctx.attempt(s);
        let (orig, fault_attempt) = ctx.fault_key(s);
        let faults = &ctx.round.faults;
        let rlabel = if attempt == 0 {
            format!("R{orig}")
        } else {
            format!("R{orig}.{attempt}")
        };

        // Admission: reserve pages (adopting a cached prefix).
        let mut gate_deps: Vec<usize> = Vec::with_capacity(seg.gates.len() + 1);
        for &g in &seg.gates {
            gate_deps.push(if ctx.segments[g].evicted {
                // An evicted incarnation's terminal *is* its
                // prefill-finish slot.
                self.out.builds[g].prefill_finish
            } else {
                // A surviving segment's Release ends its cohort's
                // decode chain.
                self.flush_cohort(ctx.segments[g].cohort)?;
                self.out.builds[g].release.ok_or_else(|| Error::Internal {
                    what: format!(
                        "segment {s} gates on segment {g}'s release, which was never emitted"
                    ),
                })?
            });
        }
        gate_deps.extend(prev_admit);
        // Admit is a barrier (it must *run* after failed gates, or a
        // failed predecessor would break the planned-order admission
        // chain), but it is gate-skippable: a request already cancelled
        // or expired reserves nothing.
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
        let cut_from = ctx.cut_from(s, &prefill.plans[s]);
        ctx.live.cuttable[s].store(cut_from.is_some(), Ordering::Release);
        for (i, (task, body)) in dag.tasks().iter().zip(bodies).enumerate() {
            let mut deps: Vec<usize> = dag.deps(i).iter().map(|&d| d + offset).collect();
            if deps.is_empty() {
                deps.push(admit);
            }
            let mut body = self.prefill_fault(s, task).unwrap_or(body);
            if let Some(min_at) = cut_from {
                body = self.cut_body(s, task, min_at, body);
            }
            let id = self.push_task(
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
                body,
            )?;
            self.out.meta[id].writes_kv = dag.writes_kv(i);
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
            release: None,
        });
        Ok(admit)
    }

    /// The Admit body of segment `s`: reserve its worst-case pages,
    /// adopting a cached prefix.
    fn admit_body(&self, s: usize) -> TaskFn<'run> {
        let ctx = self.ctx;
        let seg = &ctx.segments[s];
        let request = ctx.round.request(seg.req);
        let (orig, fault_attempt) = ctx.fault_key(s);
        let admit_fault = ctx
            .round
            .faults
            .fault_at(orig, fault_attempt, FaultSite::Admit)
            .copied();
        let pool = ctx.round.pool;
        let need = seg.fresh_blocks(pool.config(), request);
        let total = request.total_tokens();
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
            // Reserve — adopting the cached full pages of a hit — then
            // recover any sub-page prefix tail with a leading-row copy
            // into the first private page (per-row causal masking keeps
            // the math identical).
            let mut cache = match &seg.cached {
                Some(hit) => PagedKvCache::reserve_with_prefix(pool, &hit.blocks, total),
                None => PagedKvCache::reserve(pool, total),
            }
            .map_err(|e| e.to_string())?;
            if let Some(hit) = &seg.cached {
                if let Some((src, rows)) = hit.tail {
                    let dst = cache.table().blocks()[hit.blocks.len()];
                    if let Err(e) = pool.copy_rows(src, dst, rows) {
                        let _ = cache.release();
                        return Err(e.to_string());
                    }
                }
            }
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

    /// Prefill task `task` of segment `s`, to become the next task in
    /// the graph, cut no earlier than chunk `min_at` (see
    /// [`RunCtx::cut_from`]): it does its work only if its chunk is
    /// inside the segment's [`ChunkCut`], and otherwise runs empty.
    /// Its dependents are then empty tasks of cut chunks too — chunk
    /// order only ever runs forward — and nothing is skipped, so the
    /// prefill terminal still runs after every task of the DAG is done.
    fn cut_body(&self, s: usize, task: &Task, min_at: usize, body: TaskFn<'run>) -> TaskFn<'run> {
        let ctx = self.ctx;
        let (chunk, layer, id) = (task.chunk, task.layer, self.out.graph.len());
        Box::new(move || {
            if plain_lock(&ctx.live.cuts[s]).admits(chunk, layer, min_at, ctx) {
                return body();
            }
            plain_lock(&ctx.live.ran_empty).push(id);
            Ok(())
        })
    }

    /// The PrefillFinish body of segment `s`: hand the last hidden row
    /// to decode and publish the prompt pages to the prefix cache — or,
    /// for a prefill the round cut, nothing (its Release publishes).
    fn prefill_finish_body(&self, s: usize) -> TaskFn<'run> {
        let ctx = self.ctx;
        let req = ctx.member(s);
        let program = &self.prefill.programs[s];
        let chunks = self.prefill.plans[s].chunks;
        Box::new(move || {
            if ctx.cut_at(s, chunks).is_some() {
                return Ok(());
            }
            let last = program.last_hidden_row().map_err(|e| e.to_string())?;
            plain_lock(&ctx.live.states[req]).last_hidden = Some(last);
            if ctx.round.opts.share_prefixes {
                // Publish the now-complete prompt pages to the global
                // cache (full blocks only, first writer wins) so later
                // rounds reuse them. Failure here is a contained request
                // failure, like any prefill fault.
                let blocks = {
                    let guard = plain_lock(&ctx.live.slots[req]);
                    let c = guard.as_ref().ok_or("prefill cache slot empty")?;
                    c.table().blocks().to_vec()
                };
                ctx.round
                    .cache
                    .insert(ctx.round.pool, &ctx.round.request(req).prompt, &blocks)
                    .map_err(|e| e.to_string())?;
            }
            ctx.live.prefill_ok[s].store(true, Ordering::Release);
            Ok(())
        })
    }

    /// Emits cohort `c`'s batched decode chain and its members' Release
    /// tasks (once).
    fn flush_cohort(&mut self, c: usize) -> Result<()> {
        if std::mem::replace(&mut self.cohort_flushed[c], true) {
            return Ok(());
        }
        let ctx = self.ctx;
        let round = ctx.round;
        let members = std::mem::take(&mut self.cohort_members[c]);
        let mut chain_prev: Vec<usize> = members
            .iter()
            .map(|&s| self.out.builds[s].prefill_finish)
            .collect();
        let steps_of = |s: usize| round.request(ctx.member(s)).max_new_tokens;
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
                        .token_ms(round.request(ctx.member(s)).prompt.len() + step)
                        * ctx.round.faults.duration_factor(orig, fault_attempt)
                })
                .fold(0.0, f64::max);
            let release = segs
                .iter()
                .map(|&s| round.request(ctx.member(s)).arrival_ms)
                .fold(0.0, f64::max);
            let label = if width == 1 {
                format!("R{}-D{step}", ctx.orig(segs[0]))
            } else {
                format!("C{c}-D{step}x{width}")
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
                ServeTaskKind::Decode { step, width },
                segs,
                Box::new(move || ctx.decode_step(&body_segs, step)),
            )?;
            for &i in &active {
                chain_prev[i] = id;
                self.out.token_tasks[ctx.member(members[i])][step] = id;
            }
        }
        // Each member's pages go back right after its last decode step.
        for (i, &s) in members.iter().enumerate() {
            self.emit_release(s, chain_prev[i])?;
        }
        Ok(())
    }

    /// Emits segment `s`'s Release task after `final_step`, its last
    /// decode task: pages go back once the member's stream is done.
    fn emit_release(&mut self, s: usize, final_step: usize) -> Result<()> {
        // Release is a containment barrier and is never gate-skipped:
        // pages must return to the pool on every terminal path.
        let ctx = self.ctx;
        let slot = &ctx.live.slots[ctx.member(s)];
        let plan = &self.prefill.plans[s];
        let (chunks, chunk_len) = (plan.chunks, plan.chunk_len);
        let id = self.push_task(
            self.bookkeeping(format!("R{}-Release", ctx.orig(s)), s, true),
            vec![final_step],
            ServeTaskKind::Release,
            vec![s],
            Box::new(move || {
                if let Some(at) = ctx.cut_at(s, chunks) {
                    ctx.suspend(s, at, chunk_len);
                }
                release_slot(slot)
            }),
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
    /// Suspends segment `s`, whose prefill the round cut after `at`
    /// chunks of `chunk_len` tokens: the full pages of its completed
    /// prompt prefix go to the prefix cache, where the resumed request
    /// finds them, and the member is marked suspended. A member that
    /// already reached a terminal status, or whose cancel flag fired,
    /// is not suspended; a failed insert fails it.
    fn suspend(self, s: usize, at: usize, chunk_len: usize) {
        let m = self.member(s);
        let rt = &self.live.runtime[m];
        let mut term = plain_lock(&rt.term);
        if term.is_some() {
            return;
        }
        if rt.cancel.is_cancelled() {
            *term = Some(RequestStatus::Cancelled);
            return;
        }
        let prompt = &self.round.request(m).prompt;
        let bt = self.round.pool.config().block_tokens;
        let done = self.segments[s].prefix_tokens() + at * chunk_len;
        let full = done - done % bt;
        let blocks = plain_lock(&self.live.slots[m])
            .as_ref()
            .map(|c| c.table().blocks().to_vec());
        let published = match blocks {
            Some(blocks) => self
                .round
                .cache
                .insert(self.round.pool, &prompt[..full], &blocks)
                .map_err(|e| e.to_string()),
            None => Err("suspended prefill's cache slot empty".to_owned()),
        };
        match published {
            Ok(_) => self.live.suspended[m].store(at, Ordering::Release),
            Err(error) => *term = Some(RequestStatus::Failed { error }),
        }
    }

    /// The numeric body of one (possibly batched) decode step over the
    /// cohort members `segs`: filter the cohort down to its *live*
    /// members, forward every live member's previous token through one
    /// `m = B` stacked forward, then project + sample each member's
    /// next token, emitting it to the sink.
    ///
    /// Liveness is per member — a cancelled, expired, or failed member
    /// is excluded from the stacked GEMM without touching its neighbors
    /// (row exclusion is bit-safe: every backend is row-wise), which is
    /// what keeps a cohort-mate's failure out of every other stream.
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
                    pos: self.round.request(m).prompt.len() + step - 1,
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
