//! The numeric out-of-order task executor: runs chunked-prefill DAGs —
//! and, since the serving layer landed, *any* lane-structured task graph
//! (prefill chunks and decode steps of many concurrent requests) —
//! **for real** on the transformer, not just analytically.
//!
//! This is the other half of the unified planes (§3.4): the same
//! [`PrefillDag`] that `crate::exec::schedule` prices on the simulated
//! SoC is executed here with one closure per task over the
//! `Transformer`'s stage functions — quantized main-path projections,
//! shadow-outlier float MatMuls, and the merge/rope/attention stages in
//! between. Tasks are dispatched out-of-order as their dependencies
//! resolve, across one serial *lane* per processor (Equation 4: one task
//! per processor at a time), with the lane loops running on the
//! persistent [`WorkerPool`] so the CPU shadow lane genuinely overlaps
//! the NPU main lane in wall-clock time.
//!
//! # The generic layer
//!
//! The dispatcher itself knows nothing about prefill. It executes a
//! [`LaneGraph`] — tasks with a processor lane, a modeled duration (for
//! the Equation 5 C-value priority), an optional *release time* (a
//! request's arrival: the task may not start earlier), and dependency
//! edges — against one boxed closure per task ([`execute_lane_graph`]).
//! *Which* ready task a free lane takes is not decided here: the
//! dispatcher asks the crate's one policy core, the same one the
//! simulated plane's virtual-clock loop asks, and only supplies the wall
//! clock and the completion flags.
//! [`execute_chunked_prefill`] is the prefill instantiation;
//! `llmnpu-core`'s continuous-batching scheduler builds a combined
//! graph holding several requests' prefill DAGs *plus their decode
//! chains* and runs it through the same dispatcher, which is how decode
//! steps become first-class tasks on the same lanes as prefill chunks.
//!
//! # Determinism
//!
//! Executed outputs — hidden states and the K/V rows left in the
//! request's pages — are **bit-identical** to the sequential
//! [`Transformer::prefill_chunked`] at every worker count, every policy,
//! and across repeated runs: each task closure *is* the corresponding
//! stage call of the sequential forward (the sequential path is composed
//! from the same functions), task inputs are fixed by the dependency
//! edges, and the kernel layer is thread-count-invariant. Scheduling
//! order changes only the wall-clock interleaving recorded in the
//! [`ExecutedTimeline`], never a float.
//!
//! # Failure containment
//!
//! Two execution modes share the dispatcher:
//!
//! * [`execute_lane_graph`] is **fail-fast**: the first task failure (or
//!   panic) aborts the whole run and surfaces as [`Error::Exec`] — the
//!   right contract for a single request's prefill, where partial
//!   results are useless.
//! * [`execute_lane_graph_contained`] is **fault-contained**: a failing
//!   or panicking task becomes a per-task [`TaskOutcome::Failed`] that
//!   poisons only its *dependents* ([`TaskOutcome::Skipped`] with
//!   [`SkipReason::PoisonedDep`]) — every task not downstream of the
//!   failure keeps executing. Tasks flagged as containment *barriers*
//!   ([`LaneTask::barrier`]) absorb the poison: they run even when a
//!   dependency failed, which is how a request's page-release task is
//!   guaranteed on every path. An optional dispatch [`GateFn`] is
//!   consulted under the dispatch lock before each task is handed to a
//!   lane, so work whose request was cancelled or is past deadline is
//!   skipped ([`SkipReason::Gated`]), not run.
//!
//! Because a task may panic mid-stage in isolated mode, the data-plane
//! locks here (stage hand-off slots, the request's paged-KV slot)
//! recover from poisoning via
//! [`PoisonError::into_inner`](std::sync::PoisonError::into_inner): each
//! guards a plain value slab that a panicking *reader or whole-value
//! writer* cannot leave half-mutated, and a truly torn write only
//! poisons the chain the failed task already poisoned logically. The one
//! lock where poisoning stays fatal is the dispatcher's own bookkeeping
//! mutex — see the field doc on `Dispatcher::state`.

use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{PrefillDag, Task, TaskRole};
use llmnpu_graph::layer::Stage;
use llmnpu_model::forward::{FfnMains, FfnShadows, QkvMains, QkvShadows, Transformer};
use llmnpu_model::kv::PagedKvCache;
use llmnpu_obs::{EventKind, Plane, TraceSink};
use llmnpu_soc::des::{Timeline, TimelineEntry};
use llmnpu_soc::Processor;
use llmnpu_tensor::kernel::parallel::Job;
use llmnpu_tensor::Tensor;

use crate::policy::{Progress, Scheduler, EPS};
use crate::pool::WorkerPool;
use crate::{Error, Policy, Result};

/// One executed task: its wall-clock interval (ms from run start) on
/// its lane, carrying the DAG task it ran.
pub type ExecutedTask = TimelineEntry<Task>;

/// The executed (wall-clock) timeline of one numeric prefill, in
/// completion order — the same type, with the same metrics, as the
/// simulator's analytic timeline of the same DAG.
pub type ExecutedTimeline = Timeline<Task>;

/// Checks that `timeline` is a valid schedule of `graph`, whichever
/// plane produced it: every task ran exactly once (matched by label, so
/// labels must be unique), every dependency finished before its
/// dependent started, and every lane ran one task at a time
/// (Equation 4).
///
/// # Errors
///
/// Returns [`Error::Exec`] describing the first violation.
pub fn validate_timeline<M>(timeline: &Timeline<M>, graph: &LaneGraph) -> Result<()> {
    let entries = timeline.entries();
    if entries.len() != graph.len() {
        return Err(Error::Exec {
            what: format!("timeline has {} of {} tasks", entries.len(), graph.len()),
        });
    }
    let mut by_label = std::collections::HashMap::new();
    for e in entries {
        if by_label.insert(e.label.as_str(), e).is_some() {
            return Err(Error::Exec {
                what: format!("task {} ran twice", e.label),
            });
        }
    }
    let entry_of = |t: usize| {
        let label = graph.tasks()[t].label.as_str();
        by_label.get(label).copied().ok_or_else(|| Error::Exec {
            what: format!("task {label} never ran"),
        })
    };
    for t in 0..graph.len() {
        let e = entry_of(t)?;
        for &d in graph.deps(t) {
            let de = entry_of(d)?;
            if de.end > e.start + EPS {
                return Err(Error::Exec {
                    what: format!(
                        "{} started at {:.4} before dep {} ended at {:.4}",
                        e.label, e.start, de.label, de.end
                    ),
                });
            }
        }
    }
    for p in Processor::ALL {
        let mut lane: Vec<&TimelineEntry<M>> =
            entries.iter().filter(|e| e.processor == p).collect();
        lane.sort_by(|a, b| a.start.total_cmp(&b.start));
        if let Some(w) = lane.windows(2).find(|w| w[0].end > w[1].start + EPS) {
            return Err(Error::Exec {
                what: format!("lane {p} ran {} and {} at once", w[0].label, w[1].label),
            });
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The generic lane graph
// ---------------------------------------------------------------------------

/// One schedulable unit of a [`LaneGraph`]: the dispatcher-facing facts
/// about a task (its numeric body lives in the parallel closure vector).
#[derive(Debug, Clone)]
pub struct LaneTask {
    /// Display label (diagnostics only; need not be unique).
    pub label: String,
    /// The serial lane (processor) this task must run on (Equation 4).
    pub processor: Processor,
    /// Modeled duration, used by the out-of-order policy's Equation 5
    /// C-value — the executor prioritizes with the timing plane's
    /// predictions, exactly as the paper's online scheduler does.
    pub duration_ms: f64,
    /// Earliest wall-clock start, ms from run start (a request's arrival
    /// time in the serving scheduler; 0 for always-available work).
    pub release_ms: f64,
    /// Containment barrier (isolated mode only): the task still runs
    /// when a dependency failed or was skipped, instead of being
    /// poisoned along with the rest of the chain. Bookkeeping tasks that
    /// must execute on every path — page releases, evictions, admission
    /// gates of *other* requests — are barriers; numeric tasks, whose
    /// inputs genuinely do not exist after an upstream failure, are not.
    /// Ignored by the fail-fast [`execute_lane_graph`].
    pub barrier: bool,
}

/// A dependency-structured batch of lane tasks — the generic input of
/// [`execute_lane_graph`]. Construction is topological: a task may only
/// depend on already-pushed tasks, which makes cycles unrepresentable.
#[derive(Debug, Clone, Default)]
pub struct LaneGraph {
    tasks: Vec<LaneTask>,
    deps: Vec<Vec<usize>>,
}

impl LaneGraph {
    /// An empty graph.
    #[must_use]
    pub fn new() -> Self {
        LaneGraph::default()
    }

    /// Appends a task depending on the given earlier task ids; returns
    /// the new task's id.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] if a dependency references this task or a
    /// not-yet-pushed one.
    pub fn push(&mut self, task: LaneTask, deps: Vec<usize>) -> Result<usize> {
        let id = self.tasks.len();
        if let Some(&bad) = deps.iter().find(|&&d| d >= id) {
            return Err(Error::Exec {
                what: format!(
                    "task {id} ({}) depends on non-earlier task {bad}",
                    task.label
                ),
            });
        }
        self.tasks.push(task);
        self.deps.push(deps);
        Ok(id)
    }

    /// All tasks, indexed by id.
    #[must_use]
    pub fn tasks(&self) -> &[LaneTask] {
        &self.tasks
    }

    /// Prerequisites of task `t`.
    #[must_use]
    pub fn deps(&self, t: usize) -> &[usize] {
        &self.deps[t]
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The distinct lanes present, in fixed NPU/CPU/GPU order.
    #[must_use]
    pub fn lanes(&self) -> Vec<Processor> {
        let mut lanes = Vec::new();
        for p in [Processor::Npu, Processor::Cpu, Processor::Gpu] {
            if self.tasks.iter().any(|t| t.processor == p) {
                lanes.push(p);
            }
        }
        lanes
    }

    /// Translates the graph into the static verifier's structural IR:
    /// same task ids, lanes numbered in the fixed NPU/CPU/GPU order,
    /// every task classified neutrally (no serve-level metadata — the
    /// serving layer enriches its own translation with task classes,
    /// page segments, and KV write sets).
    ///
    /// Structural verification of the result catches dependency damage,
    /// cycles, and infeasible timings; it cannot (by construction)
    /// produce barrier/gate or page findings.
    #[must_use]
    pub fn verify_plan(&self) -> llmnpu_verify::Plan {
        const LANE_ORDER: [Processor; 3] = [Processor::Npu, Processor::Cpu, Processor::Gpu];
        let mut plan = llmnpu_verify::Plan {
            lane_names: LANE_ORDER.iter().map(ToString::to_string).collect(),
            ..llmnpu_verify::Plan::default()
        };
        for (i, task) in self.tasks.iter().enumerate() {
            let lane = LANE_ORDER
                .iter()
                .position(|&p| p == task.processor)
                .unwrap_or(LANE_ORDER.len());
            let mut vt =
                llmnpu_verify::PlanTask::new(task.label.clone(), lane, self.deps[i].clone());
            vt.release_ms = task.release_ms;
            vt.duration_ms = task.duration_ms;
            vt.barrier = task.barrier;
            plan.tasks.push(vt);
        }
        plan
    }

    /// Mirrors a [`PrefillDag`]'s structure (same task ids) with zero
    /// release times.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] if the DAG is not topologically ordered.
    pub fn from_prefill_dag(dag: &PrefillDag) -> Result<Self> {
        let mut graph = LaneGraph::new();
        for (i, task) in dag.tasks().iter().enumerate() {
            graph.push(
                LaneTask {
                    label: task.label.clone(),
                    processor: task.processor,
                    duration_ms: task.duration_ms,
                    release_ms: 0.0,
                    barrier: false,
                },
                dag.deps(i).to_vec(),
            )?;
        }
        Ok(graph)
    }
}

/// Result of executing a chunked prefill through the DAG runner.
#[derive(Debug)]
pub struct NumericPrefill {
    /// Final hidden states `[prompt_len, hidden]`, row-concatenated in
    /// chunk order — bit-identical to `Transformer::prefill_chunked`.
    pub hidden: Tensor<f32>,
    /// The populated KV cache — a solo one-page store with one position
    /// of headroom past the prompt, so it takes the first decode step as
    /// it stands.
    pub cache: PagedKvCache,
    /// The measured execution timeline.
    pub timeline: ExecutedTimeline,
}

/// Per-chunk activation slots flowing between stage tasks. A chunk's
/// stages form a dependency chain, so at most one task touches a slot
/// at a time; the mutexes exist for `Sync`, not for contention.
struct ChunkSlots {
    h: Mutex<Tensor<f32>>,
    a_in: Mutex<Option<std::sync::Arc<Tensor<f32>>>>,
    q: Mutex<Option<Tensor<f32>>>,
    attn: Mutex<Option<Tensor<f32>>>,
    f_in: Mutex<Option<std::sync::Arc<Tensor<f32>>>>,
    qkv_mains: Mutex<Option<QkvMains>>,
    qkv_shadows: Mutex<Option<QkvShadows>>,
    ffn_mains: Mutex<Option<FfnMains>>,
    ffn_shadows: Mutex<Option<FfnShadows>>,
}

struct ExecCtx<'t, 'w> {
    t: &'t Transformer<'w>,
    chunks: Vec<ChunkSlots>,
    /// The request's K/V pages. Serving fills the slot in the request's
    /// admission task (`None` until its pages are reserved; the
    /// dependency edges put admission before every write);
    /// [`execute_chunked_prefill`] hands in a solo store. Writes and
    /// reads address **absolute** positions — chunk `c` owns rows
    /// `[base + c·chunk_len, … + len_c)` — so out-of-order chunk
    /// completion cannot reorder the cache: the edges only have to put
    /// the rows there before attention reads them, which is exactly
    /// Equation 2.
    slot: &'t Mutex<Option<PagedKvCache>>,
    /// `(token_start, token_len)` per chunk, **absolute** positions
    /// (token_start includes `base_pos`; last chunk may be short).
    bounds: Vec<(usize, usize)>,
    /// Tokens this program computes (the suffix length when resuming
    /// after a shared prefix; `bounds` already folds the base offset
    /// into every start position).
    prompt_len: usize,
}

impl ExecCtx<'_, '_> {
    fn write_kv(
        &self,
        layer: usize,
        chunk: usize,
        k: &Tensor<f32>,
        v: &Tensor<f32>,
    ) -> std::result::Result<(), String> {
        let (start, len) = self.bounds[chunk];
        let mut guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        let cache = guard.as_mut().ok_or("kv pages not reserved before write")?;
        for r in 0..len {
            cache
                .write_position(layer, start + r, k.row(r), v.row(r))
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Attention over everything visible to `chunk` (Equation 2: all
    /// positions through the chunk's end, including any shared prefix
    /// before `base_pos`).
    fn attention(
        &self,
        layer: usize,
        chunk: usize,
        q: &Tensor<f32>,
    ) -> std::result::Result<Tensor<f32>, String> {
        let (start, len) = self.bounds[chunk];
        // Snapshot the block table and drop the slot lock before the
        // page walk: attention is the long pole, and holding the owner's
        // mutex across it would serialize this request's independent
        // stage tasks.
        let reader = {
            let guard = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
            guard
                .as_ref()
                .ok_or("kv pages not reserved before read")?
                .reader()
        };
        self.t
            .stage_attention(layer, q, &reader, start + len, start)
            .map_err(|e| e.to_string())
    }
}

/// The executable body of one lane task. The returned error string is
/// surfaced as [`Error::Exec`] by the dispatcher.
pub type TaskFn<'run> = Box<dyn FnOnce() -> std::result::Result<(), String> + Send + 'run>;

fn take<T>(slot: &Mutex<Option<T>>, what: &str) -> std::result::Result<T, String> {
    slot.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
        .ok_or_else(|| format!("missing {what} input"))
}

/// Builds the executable closure for one DAG task.
fn task_closure<'run>(ctx: &'run ExecCtx<'_, '_>, task: &Task, split: bool) -> TaskFn<'run> {
    let chunk = task.chunk;
    let layer = task.layer;
    let stage = task.stage;
    let role = task.role;
    Box::new(move || {
        let t = ctx.t;
        let slots = &ctx.chunks[chunk];
        let (start_pos, _len) = ctx.bounds[chunk];
        let err = |e: llmnpu_model::Error| e.to_string();
        match (role, stage) {
            (TaskRole::Main, Stage::AttnPre) => {
                let a_in = {
                    let h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    t.stage_attn_pre(layer, &h).map_err(err)?
                };
                *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(std::sync::Arc::new(a_in));
            }
            (TaskRole::Main, Stage::QkvLinear) => {
                let a_in = slots
                    .a_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing a_in input")?;
                if split {
                    // Shadow task attached: compute the quantized mains
                    // only; the merge task finishes the stage.
                    let mains = t.stage_qkv_main(layer, &a_in).map_err(err)?;
                    *slots
                        .qkv_mains
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(mains);
                } else {
                    let (q, k, v) = t.stage_qkv(layer, &a_in, start_pos).map_err(err)?;
                    *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                    ctx.write_kv(layer, chunk, &k, &v)?;
                    *slots.q.lock().unwrap_or_else(PoisonError::into_inner) = Some(q);
                }
            }
            (TaskRole::Shadow, Stage::QkvLinear) => {
                let a_in = slots
                    .a_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing a_in input")?;
                let shadows = t.stage_qkv_shadow(layer, &a_in).map_err(err)?;
                *slots
                    .qkv_shadows
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(shadows);
            }
            (TaskRole::MergeSync, Stage::QkvLinear) => {
                let mains = take(&slots.qkv_mains, "qkv mains")?;
                let shadows = take(&slots.qkv_shadows, "qkv shadows")?;
                let (q, k, v) = t.stage_qkv_finish(mains, shadows, start_pos).map_err(err)?;
                *slots.a_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                ctx.write_kv(layer, chunk, &k, &v)?;
                *slots.q.lock().unwrap_or_else(PoisonError::into_inner) = Some(q);
            }
            (TaskRole::Main, Stage::Attention) => {
                let q = take(&slots.q, "q")?;
                let attn = ctx.attention(layer, chunk, &q)?;
                *slots.attn.lock().unwrap_or_else(PoisonError::into_inner) = Some(attn);
            }
            (TaskRole::Main, Stage::OProj) => {
                let attn = take(&slots.attn, "attention output")?;
                let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                *h = t.stage_attn_out(layer, &h, &attn).map_err(err)?;
            }
            (TaskRole::Main, Stage::FfnPre) => {
                let f_in = {
                    let h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    t.stage_ffn_pre(layer, &h).map_err(err)?
                };
                *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) =
                    Some(std::sync::Arc::new(f_in));
            }
            (TaskRole::Main, Stage::Ffn) => {
                let f_in = slots
                    .f_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing f_in input")?;
                if split {
                    let mains = t.stage_ffn_mid_main(layer, &f_in).map_err(err)?;
                    *slots
                        .ffn_mains
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(mains);
                } else {
                    let mid = t.stage_ffn_mid(layer, &f_in).map_err(err)?;
                    *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                    let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                    *h = t.stage_ffn_down(layer, &h, &mid).map_err(err)?;
                }
            }
            (TaskRole::Shadow, Stage::Ffn) => {
                let f_in = slots
                    .f_in
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .clone()
                    .ok_or("missing f_in input")?;
                let shadows = t.stage_ffn_mid_shadow(layer, &f_in).map_err(err)?;
                *slots
                    .ffn_shadows
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner) = Some(shadows);
            }
            (TaskRole::MergeSync, Stage::Ffn) => {
                let mains = take(&slots.ffn_mains, "ffn mains")?;
                let shadows = take(&slots.ffn_shadows, "ffn shadows")?;
                let mid = t.stage_ffn_mid_finish(mains, shadows).map_err(err)?;
                *slots.f_in.lock().unwrap_or_else(PoisonError::into_inner) = None;
                let mut h = slots.h.lock().unwrap_or_else(PoisonError::into_inner);
                *h = t.stage_ffn_down(layer, &h, &mid).map_err(err)?;
            }
            (role, stage) => {
                return Err(format!("unexecutable task: {role:?} on {stage:?}"));
            }
        }
        Ok(())
    })
}

/// One request's prefill, prepared for execution: the per-chunk
/// activation slots, the request's K/V slot, and the mapping from DAG
/// tasks to stage closures.
///
/// [`execute_chunked_prefill`] drives one of these through the
/// dispatcher on its own; the serving scheduler in `llmnpu-core`
/// prepares one per admitted request and splices all their closures into
/// a single combined [`LaneGraph`] together with decode tasks.
pub struct PrefillProgram<'t, 'w> {
    ctx: ExecCtx<'t, 'w>,
    /// (layer, stage) pairs with a shadow task attached: their main
    /// tasks compute pre-merge halves only.
    split: std::collections::HashSet<(usize, Stage)>,
}

impl<'t, 'w> PrefillProgram<'t, 'w> {
    /// Validates the DAG/plan/model agreement and seeds the per-chunk
    /// slots with the embedded hidden states. K/V rows are written to,
    /// and attended from, the [`PagedKvCache`] in `slot`, starting at
    /// absolute position `base_pos` (non-zero when `tokens` is the
    /// suffix after a shared, already-cached prompt prefix). The slot
    /// may still be `None` here — the serving scheduler's admission task
    /// fills it — but every DAG task that touches K/V must depend
    /// (transitively) on whatever does.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a plan/DAG/model mismatch.
    pub fn new(
        t: &'t Transformer<'w>,
        tokens: &[u32],
        dag: &PrefillDag,
        plan: &ChunkPlan,
        base_pos: usize,
        slot: &'t Mutex<Option<PagedKvCache>>,
    ) -> Result<Self> {
        if tokens.len() != plan.prompt_len {
            return Err(Error::Exec {
                what: format!(
                    "plan is for {} tokens, got {}",
                    plan.prompt_len,
                    tokens.len()
                ),
            });
        }
        let cfg = t.config();
        if let Some(bad) = dag.tasks().iter().find(|task| task.layer >= cfg.layers) {
            return Err(Error::Exec {
                what: format!(
                    "dag task {} references layer {} of a {}-layer model",
                    bad.label, bad.layer, cfg.layers
                ),
            });
        }
        dag.validate().map_err(|e| Error::Exec {
            what: format!("invalid dag: {e}"),
        })?;

        let split: std::collections::HashSet<(usize, Stage)> = dag
            .tasks()
            .iter()
            .filter(|task| task.role == TaskRole::Shadow)
            .map(|task| (task.layer, task.stage))
            .collect();

        let chunk_len = plan.chunk_len;
        let mut bounds = Vec::with_capacity(plan.chunks);
        let mut chunks = Vec::with_capacity(plan.chunks);
        for (c, chunk_tokens) in tokens.chunks(chunk_len).enumerate() {
            bounds.push((base_pos + c * chunk_len, chunk_tokens.len()));
            chunks.push(ChunkSlots {
                h: Mutex::new(t.embed(chunk_tokens).map_err(exec_err)?),
                a_in: Mutex::new(None),
                q: Mutex::new(None),
                attn: Mutex::new(None),
                f_in: Mutex::new(None),
                qkv_mains: Mutex::new(None),
                qkv_shadows: Mutex::new(None),
                ffn_mains: Mutex::new(None),
                ffn_shadows: Mutex::new(None),
            });
        }
        if bounds.len() != plan.chunks {
            return Err(Error::Exec {
                what: format!(
                    "plan expects {} chunks, tokens produce {}",
                    plan.chunks,
                    bounds.len()
                ),
            });
        }
        Ok(PrefillProgram {
            ctx: ExecCtx {
                t,
                chunks,
                slot,
                bounds,
                prompt_len: tokens.len(),
            },
            split,
        })
    }

    /// Builds one executable closure per DAG task (same indices as
    /// `dag.tasks()`). The closures borrow this program, so it must
    /// outlive the execution.
    #[must_use]
    pub fn closures<'run>(&'run self, dag: &PrefillDag) -> Vec<TaskFn<'run>> {
        dag.tasks()
            .iter()
            .map(|task| {
                let is_split = self.split.contains(&(task.layer, task.stage));
                task_closure(&self.ctx, task, is_split)
            })
            .collect()
    }

    /// Assembles the final hidden states `[prompt_len, hidden]` in chunk
    /// order (valid once every task has run).
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a shape inconsistency.
    pub fn assemble_hidden(&self) -> Result<Tensor<f32>> {
        let hidden_w = self.ctx.t.config().hidden;
        let mut out = Vec::with_capacity(self.ctx.prompt_len * hidden_w);
        for slots in &self.ctx.chunks {
            out.extend_from_slice(
                slots
                    .h
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .as_slice(),
            );
        }
        Tensor::from_vec(out, [self.ctx.prompt_len, hidden_w]).map_err(|e| Error::Exec {
            what: format!("hidden assembly: {e}"),
        })
    }

    /// The last token's hidden state as a `[1, hidden]` tensor — the
    /// LM-head input of the first decode step.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Exec`] on a shape inconsistency.
    pub fn last_hidden_row(&self) -> Result<Tensor<f32>> {
        let hidden_w = self.ctx.t.config().hidden;
        let last = self.ctx.chunks.last().ok_or(Error::Exec {
            what: "empty prefill program".to_owned(),
        })?;
        let h = last.h.lock().unwrap_or_else(PoisonError::into_inner);
        let (rows, _) = h.matrix_dims();
        Tensor::from_vec(h.row(rows - 1).to_vec(), [1, hidden_w]).map_err(|e| Error::Exec {
            what: format!("last hidden row: {e}"),
        })
    }
}

/// Why an isolated run skipped a task without executing it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// A (transitive) dependency failed or was itself skipped, so the
    /// task's inputs will never exist.
    PoisonedDep,
    /// The dispatch gate refused the task — its request was cancelled or
    /// past its deadline at dispatch time.
    Gated,
}

/// Terminal state of one task after [`execute_lane_graph_contained`].
#[derive(Debug, Clone)]
pub enum TaskOutcome {
    /// Ran to completion; timestamps are ms from run start.
    Completed {
        /// Wall-clock start.
        start_ms: f64,
        /// Wall-clock end.
        end_ms: f64,
    },
    /// Ran and failed — the closure returned an error or panicked. Only
    /// the task's non-barrier dependents were poisoned; everything else
    /// kept executing.
    Failed {
        /// Wall-clock start.
        start_ms: f64,
        /// Wall-clock end (when the failure was recorded).
        end_ms: f64,
        /// The closure's error string (or a panic notice).
        error: String,
    },
    /// Never ran.
    Skipped {
        /// When the skip was decided, ms from run start.
        at_ms: f64,
        /// Why the dispatcher refused it.
        reason: SkipReason,
    },
}

impl TaskOutcome {
    /// The executed wall-clock span, if the task actually ran.
    #[must_use]
    pub fn span(&self) -> Option<(f64, f64)> {
        match *self {
            TaskOutcome::Completed { start_ms, end_ms }
            | TaskOutcome::Failed {
                start_ms, end_ms, ..
            } => Some((start_ms, end_ms)),
            TaskOutcome::Skipped { .. } => None,
        }
    }

    /// Whether the task ran to completion.
    #[must_use]
    pub fn is_completed(&self) -> bool {
        matches!(self, TaskOutcome::Completed { .. })
    }

    /// The failure message, if the task failed.
    #[must_use]
    pub fn error(&self) -> Option<&str> {
        match self {
            TaskOutcome::Failed { error, .. } => Some(error),
            _ => None,
        }
    }
}

/// A dispatch-time gate for isolated runs, consulted under the dispatch
/// lock for every dependency-ready task before it can be handed to a
/// lane: `gate(task_id, now_ms)` returning `true` skips the task
/// ([`SkipReason::Gated`]) and poisons its non-barrier dependents. The
/// serving layer uses this for release-aware cancellation and deadline
/// checks — a task whose request is already terminal is never run. Must
/// be cheap: it runs with the dispatch lock held.
pub type GateFn<'run> = Box<dyn Fn(usize, f64) -> bool + Send + Sync + 'run>;

/// Shared dispatch state for the lane loops.
struct DispatchState {
    /// What the policy core ranks over. A task skipped without running
    /// is both `scheduled` and `done`.
    progress: Progress,
    remaining: usize,
    aborted: bool,
    error: Option<String>,
    outcomes: Vec<Option<TaskOutcome>>,
}

struct Dispatcher<'d> {
    /// The policy core shared with the simulated plane; this dispatcher
    /// drives it with the wall clock.
    core: Scheduler<'d>,
    /// Fault-contained mode: task failures poison dependents instead of
    /// aborting the run.
    isolate: bool,
    gate: Option<GateFn<'d>>,
    /// The dispatcher's own bookkeeping mutex (`state`) is the one lock
    /// in this module where poisoning IS fatal: closures run *outside*
    /// it, so it can only be poisoned by a panic inside the dispatcher's
    /// own accounting — and `scheduled`/`remaining`/`in_flight`
    /// invariants cannot be re-validated after a partial update. Every
    /// `.expect("dispatch mutex")` below is deliberate.
    state: Mutex<DispatchState>,
    cv: Condvar,
    started: Instant,
    /// Optional trace recorder for dispatch/completion/skip events
    /// (Exec plane: emission order follows the live interleaving).
    sink: Option<&'d TraceSink>,
}

impl<'d> Dispatcher<'d> {
    fn new(
        graph: &'d LaneGraph,
        policy: Policy,
        isolate: bool,
        gate: Option<GateFn<'d>>,
        sink: Option<&'d TraceSink>,
    ) -> Self {
        let n = graph.len();
        Dispatcher {
            core: Scheduler::new(graph, policy),
            isolate,
            gate,
            state: Mutex::new(DispatchState {
                progress: Progress::new(n),
                remaining: n,
                aborted: false,
                error: None,
                outcomes: vec![None; n],
            }),
            cv: Condvar::new(),
            started: Instant::now(),
            sink,
        }
    }

    /// Emit an Exec-plane event for task `t` when tracing is on.
    fn trace_task(&self, kind: EventKind, t: usize, wall_ms: f64, note: &str) {
        if let Some(sink) = self.sink {
            let task = &self.core.graph.tasks()[t];
            sink.event_at(Plane::Exec, kind, None, wall_ms, || {
                if note.is_empty() {
                    format!("{} on {}", task.label, task.processor)
                } else {
                    format!("{} on {} ({note})", task.label, task.processor)
                }
            });
        }
    }

    /// Unscheduled tasks whose dependencies are settled (released or
    /// not), on any lane.
    fn dep_ready<'s>(&'s self, st: &'s DispatchState) -> impl Iterator<Item = usize> + 's {
        (0..self.core.graph.len())
            .filter(|&t| !st.progress.scheduled[t] && self.core.deps_done(&st.progress, t))
    }

    /// Milliseconds until the earliest pending release among dep-ready
    /// tasks, or `None` when every dep-ready task is already released.
    fn next_release_in(&self, st: &DispatchState, now: f64) -> Option<f64> {
        self.dep_ready(st)
            .map(|t| self.core.graph.tasks()[t].release_ms - now)
            .filter(|&dt| dt > EPS)
            .fold(None, |acc, dt| Some(acc.map_or(dt, |a: f64| a.min(dt))))
    }

    fn now_ms(&self) -> f64 {
        self.started.elapsed().as_secs_f64() * 1e3
    }

    /// Settles `t` without running it.
    fn skip(&self, st: &mut DispatchState, t: usize, at_ms: f64, reason: SkipReason, why: &str) {
        st.progress.retire(t);
        st.remaining -= 1;
        st.outcomes[t] = Some(TaskOutcome::Skipped { at_ms, reason });
        self.trace_task(EventKind::TaskSkipped, t, at_ms, why);
    }

    /// Marks every not-yet-scheduled, non-barrier transitive dependent
    /// of `t` as skipped ([`SkipReason::PoisonedDep`]). Barrier tasks
    /// stop the cascade: they still run (cleanup paths must execute even
    /// when the work they clean up after failed), and their own
    /// dependents are reached through them only if they fail too.
    fn poison_dependents(&self, st: &mut DispatchState, t: usize, at_ms: f64) {
        let tasks = self.core.graph.tasks();
        let mut stack: Vec<usize> = self.core.successors[t].clone();
        while let Some(s) = stack.pop() {
            if st.progress.scheduled[s] || tasks[s].barrier {
                continue;
            }
            self.skip(st, s, at_ms, SkipReason::PoisonedDep, "poisoned dep");
            stack.extend(self.core.successors[s].iter().copied());
        }
    }

    /// Applies the dispatch gate (isolated mode only): every unscheduled
    /// task whose dependencies are settled is offered to the gate; a
    /// `true` verdict skips it ([`SkipReason::Gated`]) — regardless of
    /// its release time, so cancelled queued work is retired immediately
    /// — and poisons its non-barrier dependents. Returns whether
    /// anything changed, in which case the caller must wake the other
    /// lanes (a barrier may have become ready elsewhere).
    fn apply_gate(&self, st: &mut DispatchState, now: f64) -> bool {
        let Some(gate) = self.gate.as_deref() else {
            return false;
        };
        let mut changed = false;
        // A skip settles deps, which can expose earlier-indexed tasks to
        // the gate: rescan from the top after each one.
        loop {
            let gated = self.dep_ready(st).find(|&t| gate(t, now));
            let Some(t) = gated else {
                return changed;
            };
            self.skip(st, t, now, SkipReason::Gated, "gated");
            self.poison_dependents(st, t, now);
            changed = true;
        }
    }

    /// Runs one task inline, recording timestamps and completion. A
    /// panicking closure is converted into a task failure; in fail-fast
    /// mode that aborts the whole run (the other lane loops drain
    /// instead of waiting forever), in isolated mode it poisons only the
    /// task's non-barrier dependency chain and everything else keeps
    /// executing.
    fn run_task(&self, closures: &[Mutex<Option<TaskFn<'_>>>], t: usize) {
        let closure = closures[t]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            // lint: allow(panic) — `scheduled[t]` under the dispatch lock makes double dispatch unreachable
            .expect("task dispatched twice");
        let t0 = self.now_ms();
        self.trace_task(EventKind::Dispatch, t, t0, "");
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(closure))
            .unwrap_or_else(|payload| {
                // Preserve the payload text (fault injection and asserts
                // carry their diagnosis there) — `task N panicked` alone
                // is useless to the caller attributing the failure.
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque payload".to_string());
                Err(format!("task {t} panicked: {msg}"))
            });
        let t1 = self.now_ms();
        // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
        let mut st = self.state.lock().expect("dispatch mutex");
        st.progress.complete(t);
        st.remaining -= 1;
        match result {
            Ok(()) => {
                st.outcomes[t] = Some(TaskOutcome::Completed {
                    start_ms: t0,
                    end_ms: t1,
                });
                self.trace_task(EventKind::TaskDone, t, t1, "");
            }
            Err(e) => {
                st.outcomes[t] = Some(TaskOutcome::Failed {
                    start_ms: t0,
                    end_ms: t1,
                    error: e.clone(),
                });
                self.trace_task(EventKind::TaskFailed, t, t1, &e);
                if self.isolate {
                    self.poison_dependents(&mut st, t, t1);
                } else {
                    st.aborted = true;
                    st.error.get_or_insert(e);
                }
            }
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The blocking lane loop for processor `p` (one OS thread per lane).
    fn lane_loop(&self, closures: &[Mutex<Option<TaskFn<'_>>>], p: Processor) {
        loop {
            let picked = {
                // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
                let mut st = self.state.lock().expect("dispatch mutex");
                loop {
                    if st.aborted || st.remaining == 0 {
                        return;
                    }
                    let now = self.now_ms();
                    if self.apply_gate(&mut st, now) {
                        self.cv.notify_all();
                        continue;
                    }
                    if let Some(t) = self.core.pick(&st.progress, p, now) {
                        st.progress.dispatch(t);
                        break t;
                    }
                    // A dep-ready task may just be awaiting its release
                    // (request arrival): sleep until then, not forever.
                    let pending_release = self.next_release_in(&st, now);
                    if st.progress.in_flight == 0
                        && self.dep_ready(&st).next().is_none()
                        && pending_release.is_none()
                    {
                        st.aborted = true;
                        st.error
                            .get_or_insert_with(|| "dispatch deadlock".to_owned());
                        drop(st);
                        self.cv.notify_all();
                        return;
                    }
                    st = match pending_release {
                        Some(wait_ms) => {
                            let timeout = Duration::from_secs_f64((wait_ms / 1e3).max(1e-5));
                            // lint: allow(panic) — condvar wait only errs on a poisoned lock, unreachable here
                            self.cv.wait_timeout(st, timeout).expect("dispatch mutex").0
                        }
                        // lint: allow(panic) — condvar wait only errs on a poisoned lock, unreachable here
                        None => self.cv.wait(st).expect("dispatch mutex"),
                    };
                }
            };
            self.run_task(closures, picked);
        }
    }

    /// Single-threaded fallback: interleaves the lanes in NPU-first
    /// order on the calling thread. Numerically identical to the
    /// concurrent dispatcher; only the wall-clock overlap is lost.
    fn sequential(&self, closures: &[Mutex<Option<TaskFn<'_>>>], lanes: &[Processor]) -> bool {
        loop {
            let picked = {
                // lint: allow(panic) — task panics are caught before this lock, so poisoning is unreachable
                let mut st = self.state.lock().expect("dispatch mutex");
                if st.aborted || st.remaining == 0 {
                    return true;
                }
                let now = self.now_ms();
                if self.apply_gate(&mut st, now) {
                    continue;
                }
                let found = lanes
                    .iter()
                    .find_map(|&p| self.core.pick(&st.progress, p, now));
                let Some(t) = found else {
                    // Nothing dispatchable right now: if something is
                    // only waiting on its release time, sleep it in;
                    // otherwise the graph is stuck.
                    let Some(wait_ms) = self.next_release_in(&st, now) else {
                        st.aborted = true;
                        st.error
                            .get_or_insert_with(|| "dispatch deadlock".to_owned());
                        return false;
                    };
                    drop(st);
                    std::thread::sleep(Duration::from_secs_f64((wait_ms / 1e3).max(1e-5)));
                    continue;
                };
                st.progress.dispatch(t);
                t
            };
            self.run_task(closures, picked);
        }
    }
}

/// The shared dispatch core under both execution modes: builds the
/// dispatcher, drives the lane loops on the pool (or the sequential
/// fallback), and returns every task's outcome.
fn run_lane_graph<'run>(
    graph: &LaneGraph,
    closures: Vec<TaskFn<'run>>,
    policy: Policy,
    pool: &WorkerPool,
    isolate: bool,
    gate: Option<GateFn<'run>>,
    sink: Option<&TraceSink>,
) -> Result<Vec<TaskOutcome>> {
    if closures.len() != graph.len() {
        return Err(Error::Exec {
            what: format!(
                "graph has {} tasks but {} closures",
                graph.len(),
                closures.len()
            ),
        });
    }
    if graph.is_empty() {
        return Ok(Vec::new());
    }
    // Debug builds statically verify every graph they execute: the
    // structural half of the plan checks (dependency sanity, cycles,
    // timing feasibility) runs before a single task is dispatched, so
    // every integration test doubles as a verifier fixture.
    #[cfg(debug_assertions)]
    {
        let report = llmnpu_verify::verify(&graph.verify_plan());
        debug_assert!(
            report.is_clean(),
            "lane graph failed static verification:\n{}",
            report
                .findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
    let closures: Vec<Mutex<Option<TaskFn<'_>>>> =
        closures.into_iter().map(|c| Mutex::new(Some(c))).collect();
    let lanes = graph.lanes();
    let dispatcher = Dispatcher::new(graph, policy, isolate, gate, sink);
    let concurrent = {
        let mut jobs: Vec<Job<'_>> = lanes
            .iter()
            .map(|&p| {
                let dispatcher = &dispatcher;
                let closures = &closures;
                Job::new(move || dispatcher.lane_loop(closures, p))
            })
            .collect();
        pool.run_concurrent(&mut jobs)
    };
    if !concurrent {
        dispatcher.sequential(&closures, &lanes);
    }

    // lint: allow(panic) — all lane threads have joined; nothing can hold or poison the lock
    let st = dispatcher.state.into_inner().expect("dispatch mutex");
    if let Some(e) = st.error {
        return Err(Error::Exec { what: e });
    }
    Ok(st
        .outcomes
        .into_iter()
        // lint: allow(panic) — `remaining == 0` implies every outcome slot was filled
        .map(|o| o.expect("all tasks accounted for"))
        .collect())
}

/// Executes a [`LaneGraph`] — one closure per task — out-of-order across
/// per-processor serial lanes on the persistent pool, honoring release
/// times and the scheduling policy. Returns each task's measured
/// `(start_ms, end_ms)` wall-clock span, indexed like the graph.
///
/// This is the fail-fast mode: the first task failure (or panic) aborts
/// the whole run. It is the generic engine under
/// [`execute_chunked_prefill`]; the continuous-batching serving
/// scheduler in `llmnpu-core` uses the fault-contained
/// [`execute_lane_graph_contained`] instead.
///
/// # Errors
///
/// Returns [`Error::Exec`] when closure and task counts disagree, when a
/// task body fails or panics, or when dispatch cannot make progress.
pub fn execute_lane_graph(
    graph: &LaneGraph,
    closures: Vec<TaskFn<'_>>,
    policy: Policy,
    pool: &WorkerPool,
) -> Result<Vec<(f64, f64)>> {
    let outcomes = run_lane_graph(graph, closures, policy, pool, false, None, None)?;
    // Fail-fast: an error would have surfaced above, so every task ran.
    Ok(outcomes
        .into_iter()
        // lint: allow(panic) — fail-fast mode errored above unless every task completed with a span
        .map(|o| o.span().expect("all tasks traced"))
        .collect())
}

/// Executes a [`LaneGraph`] with request-level fault containment: a task
/// body that fails or panics produces [`TaskOutcome::Failed`] and
/// poisons only its own non-barrier dependency chain
/// ([`TaskOutcome::Skipped`]) — every other task keeps executing. Tasks
/// with [`LaneTask::barrier`] set still run after a failed dependency
/// (cleanup must happen on all paths). The optional `gate` is consulted
/// under the dispatch lock before any dependency-ready task is handed to
/// a lane; returning `true` skips the task ([`SkipReason::Gated`]) —
/// this is how the serving layer retires cancelled and past-deadline
/// requests without running them. With a `sink`, the dispatcher emits
/// Exec-plane dispatch / completion / failure / skip events (with wall
/// timestamps) as tasks move through the lanes — numerically identical
/// to the untraced run: emission happens strictly outside task bodies,
/// and a disabled sink short-circuits to one atomic load per site.
///
/// Returns one [`TaskOutcome`] per task, indexed like the graph.
///
/// # Errors
///
/// Returns [`Error::Exec`] only for structural problems: closure and
/// task counts disagreeing, or dispatch unable to make progress. Task
/// failures are reported in the outcomes, not as errors.
pub fn execute_lane_graph_contained<'run>(
    graph: &LaneGraph,
    closures: Vec<TaskFn<'run>>,
    policy: Policy,
    pool: &WorkerPool,
    gate: Option<GateFn<'run>>,
    sink: Option<&TraceSink>,
) -> Result<Vec<TaskOutcome>> {
    run_lane_graph(graph, closures, policy, pool, true, gate, sink)
}

/// Executes a chunked prefill by running the DAG's tasks out-of-order
/// across per-processor lanes on the persistent pool.
///
/// The DAG must have been built (`llmnpu_graph::dag::build_prefill_dag`)
/// for `t.config()` and for `plan` (`plan.prompt_len == tokens.len()`).
/// K/V rows go to a solo one-page store (the prompt plus one decode
/// position), filled by the tasks and returned. Returns the final hidden
/// states and that cache — both bit-identical to
/// [`Transformer::prefill_chunked`] with the same chunk length — plus the
/// measured execution timeline.
///
/// # Errors
///
/// Returns [`Error::Exec`] on a plan/DAG/model mismatch or a stage
/// failure, and [`Error::Deadlock`] never (the DAG's topological
/// validation precedes execution).
pub fn execute_chunked_prefill(
    t: &Transformer<'_>,
    tokens: &[u32],
    dag: &PrefillDag,
    plan: &ChunkPlan,
    policy: Policy,
    pool: &WorkerPool,
) -> Result<NumericPrefill> {
    let solo = PagedKvCache::solo(t.config(), tokens.len() + 1).map_err(exec_err)?;
    let slot = Mutex::new(Some(solo));
    let program = PrefillProgram::new(t, tokens, dag, plan, 0, &slot)?;
    let graph = LaneGraph::from_prefill_dag(dag)?;
    let spans = execute_lane_graph(&graph, program.closures(dag), policy, pool)?;

    // Assemble the timeline in completion order.
    let mut order: Vec<usize> = (0..dag.len()).collect();
    order.sort_by(|&a, &b| spans[a].1.total_cmp(&spans[b].1));
    let mut timeline = ExecutedTimeline::new();
    for i in order {
        let task = &dag.tasks()[i];
        timeline.record(TimelineEntry {
            label: task.label.clone(),
            processor: task.processor,
            start: spans[i].0,
            end: spans[i].1,
            meta: task.clone(),
        });
    }

    let hidden = program.assemble_hidden()?;
    drop(program);
    let cache = slot
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .ok_or_else(|| Error::Exec {
            what: "prefill left no kv cache in its slot".to_owned(),
        })?;
    Ok(NumericPrefill {
        hidden,
        cache,
        timeline,
    })
}

fn exec_err(e: llmnpu_model::Error) -> Error {
    Error::Exec {
        what: e.to_string(),
    }
}
