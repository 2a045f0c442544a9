//! The prefill task DAG (§3.4).
//!
//! Every (chunk, subgraph) pair becomes a task with a processor and a
//! duration. Dependencies encode the paper's two rules:
//!
//! * **Intra-chunk** (Equation 3): subgraph `j` of chunk `i` needs
//!   subgraph `j-1` of the same chunk.
//! * **Cross-chunk** (Equation 2): a *dynamic* subgraph (attention) of
//!   chunk `i` additionally needs subgraph `j-1` of every earlier chunk —
//!   its K/V inputs come from all preceding chunks.
//!
//! Shadow-outlier tasks (§3.3) attach to the NPU linear stages of the
//! layers whose outlier paths survive pruning: a small CPU MatMul plus a
//! synchronization that must land before the next float stage consumes the
//! merged result.

use llmnpu_model::config::ModelConfig;
use llmnpu_soc::latency::LatencyModel;
use llmnpu_soc::{DataType, Millis, Processor};

use crate::chunk::ChunkPlan;
use crate::layer::{build_chunk_subgraphs, LayerPlan, Stage};
use crate::op::{Op, OpKind};
use crate::{Error, Result};

/// What part of the pipeline a task implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskRole {
    /// A main subgraph (one of the six per-layer stages).
    Main,
    /// A shadow-outlier MatMul on the float processor (§3.3).
    Shadow,
    /// The CPU→NPU merge of a shadow result: shared-buffer transfer plus
    /// the NPU pipeline interruption — the synchronization §3.3 measures
    /// at 29.7% of e2e latency when no layer is pruned.
    MergeSync,
}

/// A schedulable task.
///
/// Carries its op payload — `(chunk, layer, stage, role)` — so the task
/// is executable, not just priceable: the timing plane prices it on the
/// simulated SoC, and the numeric executor (`llmnpu-sched`) maps the
/// same payload to the transformer stage closure it denotes and runs it
/// for real.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Display label, e.g. `"C2-L3-Ffn"`.
    pub label: String,
    /// Chunk index.
    pub chunk: usize,
    /// Decoder layer the task belongs to.
    pub layer: usize,
    /// The per-layer stage this task implements; shadow/merge tasks
    /// carry their *host* stage (the NPU stage they attach to).
    pub stage: Stage,
    /// Position of the subgraph inside the chunk's sequence (the `j` of
    /// Equations 2–3); shadow/merge tasks reuse their host's `j`.
    pub seq_index: usize,
    /// Processor assignment.
    pub processor: Processor,
    /// Duration from the calibrated latency model.
    pub duration_ms: Millis,
    /// The task's pipeline role.
    pub role: TaskRole,
}

impl Task {
    /// Whether this is a shadow-outlier side task (shadow MatMul or merge).
    #[must_use]
    pub fn is_shadow(&self) -> bool {
        self.role != TaskRole::Main
    }
}

/// The complete prefill DAG for one prompt.
#[derive(Debug, Clone, Default)]
pub struct PrefillDag {
    tasks: Vec<Task>,
    /// `deps[t]` lists the task ids that must finish before task `t`.
    deps: Vec<Vec<usize>>,
    /// `shadowed[t]`: task `t`'s (chunk, layer, stage) has a shadow half.
    shadowed: Vec<bool>,
}

impl PrefillDag {
    /// All tasks, indexed by id.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Prerequisites of task `t`.
    #[must_use]
    pub fn deps(&self, t: usize) -> &[usize] {
        &self.deps[t]
    }

    /// Whether task `t`'s (chunk, layer, stage) has a shadow half
    /// attached: its Main task then computes the quantized main half
    /// only, and the MergeSync task finishes the stage.
    #[must_use]
    pub fn has_shadow_half(&self, t: usize) -> bool {
        self.shadowed[t]
    }

    /// Whether task `t` writes its (chunk, layer)'s K/V rows: the
    /// MergeSync `QkvLinear` when the stage has a shadow half, otherwise
    /// the Main `QkvLinear`.
    #[must_use]
    pub fn writes_kv(&self, t: usize) -> bool {
        let task = &self.tasks[t];
        task.stage == Stage::QkvLinear
            && match task.role {
                TaskRole::Main => !self.shadowed[t],
                TaskRole::MergeSync => true,
                TaskRole::Shadow => false,
            }
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the DAG is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Sum of all task durations per processor (lower bound on that
    /// processor's busy time).
    #[must_use]
    pub fn total_work_ms(&self, p: Processor) -> Millis {
        self.tasks
            .iter()
            .filter(|t| t.processor == p)
            .map(|t| t.duration_ms)
            .sum()
    }

    /// Critical-path length (longest dependency chain by duration) — the
    /// absolute lower bound on makespan with infinite processors.
    #[must_use]
    pub fn critical_path_ms(&self) -> Millis {
        let mut finish = vec![0.0_f64; self.tasks.len()];
        // Tasks are appended in topological order by construction.
        for t in 0..self.tasks.len() {
            let ready = self.deps[t].iter().map(|&d| finish[d]).fold(0.0, f64::max);
            finish[t] = ready + self.tasks[t].duration_ms;
        }
        finish.into_iter().fold(0.0, f64::max)
    }

    /// Validates that dependencies only reference earlier task ids (the
    /// construction-order topological invariant).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidDag`] on a forward or self reference.
    pub fn validate(&self) -> Result<()> {
        for (t, deps) in self.deps.iter().enumerate() {
            for &d in deps {
                if d >= t {
                    return Err(Error::InvalidDag {
                        what: format!("task {t} depends on non-earlier task {d}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Configuration for DAG construction.
#[derive(Debug, Clone, PartialEq)]
pub struct DagConfig {
    /// The chunk plan for the prompt.
    pub plan: ChunkPlan,
    /// Processor executing float stages (CPU default; GPU per §4.6).
    pub float_processor: Processor,
    /// Fraction of layers whose shadow-outlier path is *kept*
    /// (= 1 − pruning rate; default pruning rate is 85%, §4).
    pub shadow_fraction: f64,
    /// Expected outlier channels per extraction (5–15 per Figure 10).
    pub outlier_channels: usize,
    /// Whether NPU MatMuls use the equivalent-shape optimization.
    pub shape_optimized: bool,
    /// Per-group quantization group size for NPU MatMuls (`None` =
    /// per-tensor; `Some` models per-group engines like PowerInfer-v2 and
    /// the pre-`+Outlier` ablation rungs of Figure 19).
    pub npu_group_size: Option<usize>,
}

impl DagConfig {
    /// The llm.npu default configuration for a prompt.
    ///
    /// # Errors
    ///
    /// Returns an error if the chunk plan is invalid.
    pub fn llmnpu_default(prompt_len: usize, chunk_len: usize) -> Result<Self> {
        Ok(DagConfig {
            plan: ChunkPlan::new(prompt_len, chunk_len)?,
            float_processor: Processor::Cpu,
            shadow_fraction: 0.15,
            outlier_channels: 10,
            shape_optimized: true,
            npu_group_size: None,
        })
    }
}

/// Layers whose shadow path survives pruning: importance is U-shaped over
/// depth (§3.3), so the kept layers are taken from both ends.
#[must_use]
pub fn shadow_active_layers(layers: usize, shadow_fraction: f64) -> Vec<bool> {
    let keep = (layers as f64 * shadow_fraction.clamp(0.0, 1.0)).round() as usize;
    let mut active = vec![false; layers];
    let front = keep.div_ceil(2);
    let back = keep - front;
    for a in active.iter_mut().take(front) {
        *a = true;
    }
    for a in active.iter_mut().rev().take(back) {
        *a = true;
    }
    active
}

/// Builds the prefill DAG for a model and prompt.
///
/// # Errors
///
/// Returns an error if the configuration is inconsistent.
pub fn build_prefill_dag(
    cfg: &ModelConfig,
    dag_cfg: &DagConfig,
    lat: &LatencyModel,
) -> Result<PrefillDag> {
    let plan = &dag_cfg.plan;
    let shadow_layers = shadow_active_layers(cfg.layers, dag_cfg.shadow_fraction);
    let mut dag = PrefillDag::default();

    // Task ids of (chunk, seq_index) main subgraphs, for dependency wiring.
    let per_chunk = cfg.layers * Stage::ORDER.len();
    let mut main_id = vec![vec![usize::MAX; per_chunk]; plan.chunks];

    for chunk in 0..plan.chunks {
        let layer_plan = LayerPlan {
            chunk_len: plan.chunk_len,
            kv_len: plan.kv_len(chunk),
            float_processor: dag_cfg.float_processor,
            shape_optimized: dag_cfg.shape_optimized,
            npu_group_size: dag_cfg.npu_group_size,
        };
        let subgraphs = build_chunk_subgraphs(cfg, &layer_plan);
        debug_assert_eq!(subgraphs.len(), per_chunk);

        for (j, sg) in subgraphs.iter().enumerate() {
            let mut deps = Vec::new();
            if j > 0 {
                // Equation 3: intra-chunk order.
                deps.push(main_id[chunk][j - 1]);
            }
            if sg.stage.is_dynamic() && j > 0 {
                // Equation 2: K/V from every earlier chunk's QKV stage.
                for earlier in main_id.iter().take(chunk) {
                    deps.push(earlier[j - 1]);
                }
            }

            // Shadow-outlier side task for kept layers, attached to the
            // QKV and FFN NPU stages (the biggest linears). The shadow
            // MatMul runs on the float processor in parallel with the NPU
            // stage; its result is merged back through the shared buffer,
            // which interrupts the NPU pipeline (MergeSync on the NPU).
            // The merge, not the main task, then writes the stage's K/V
            // rows (`PrefillDag::writes_kv`).
            let shadow_host =
                matches!(sg.stage, Stage::QkvLinear | Stage::Ffn) && shadow_layers[sg.layer];

            let id = dag.tasks.len();
            dag.tasks.push(Task {
                label: format!("C{}-L{}-{:?}", chunk, sg.layer, sg.stage),
                chunk,
                layer: sg.layer,
                stage: sg.stage,
                seq_index: j,
                processor: sg.processor,
                duration_ms: sg.latency_ms(lat),
                role: TaskRole::Main,
            });
            dag.deps.push(deps);
            dag.shadowed.push(shadow_host);
            main_id[chunk][j] = id;

            if shadow_host {
                let n_out = match sg.stage {
                    Stage::QkvLinear => cfg.q_dim() + 2 * cfg.kv_dim(),
                    _ => cfg.ffn_hidden,
                };
                let shadow_op = Op::new(
                    OpKind::ShadowMatMul {
                        m: plan.chunk_len,
                        channels: dag_cfg.outlier_channels,
                        n: n_out,
                    },
                    dag_cfg.float_processor,
                    DataType::Fp32,
                );
                let sync_bytes = (plan.chunk_len * n_out * 4) as u64;

                let shadow_id = dag.tasks.len();
                dag.tasks.push(Task {
                    label: format!("C{}-L{}-Shadow{:?}", chunk, sg.layer, sg.stage),
                    chunk,
                    layer: sg.layer,
                    stage: sg.stage,
                    seq_index: j,
                    processor: dag_cfg.float_processor,
                    duration_ms: shadow_op.latency_ms(lat),
                    role: TaskRole::Shadow,
                });
                // The shadow task reads the same inputs as the NPU stage.
                dag.deps.push(if j > 0 {
                    vec![main_id[chunk][j - 1]]
                } else {
                    Vec::new()
                });
                dag.shadowed.push(true);

                // Merge: needs both halves; occupies the NPU (flush +
                // shared-buffer transfer). Overwrites main_id so that the
                // next stage (and any cross-chunk consumer) waits for the
                // *merged* result.
                let merge_id = dag.tasks.len();
                dag.tasks.push(Task {
                    label: format!("C{}-L{}-Merge{:?}", chunk, sg.layer, sg.stage),
                    chunk,
                    layer: sg.layer,
                    stage: sg.stage,
                    seq_index: j,
                    processor: Processor::Npu,
                    duration_ms: lat.spec().sync_ms(sync_bytes) + lat.spec().npu_flush_ms,
                    role: TaskRole::MergeSync,
                });
                dag.deps.push(vec![id, shadow_id]);
                dag.shadowed.push(true);
                main_id[chunk][j] = merge_id;
            }
        }
    }

    dag.validate()?;
    Ok(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu_model::config::ModelConfig;
    use llmnpu_soc::spec::SocSpec;

    fn lat() -> LatencyModel {
        LatencyModel::new(&SocSpec::snapdragon_8gen3())
    }

    fn dag_for(prompt: usize, chunk: usize, shadow_fraction: f64) -> PrefillDag {
        let cfg = ModelConfig::qwen15_18b();
        let mut dc = DagConfig::llmnpu_default(prompt, chunk).unwrap();
        dc.shadow_fraction = shadow_fraction;
        build_prefill_dag(&cfg, &dc, &lat()).unwrap()
    }

    #[test]
    fn task_count_matches_structure() {
        // 4 chunks × 144 main subgraphs + shadow tasks.
        let dag = dag_for(1024, 256, 0.0);
        assert_eq!(dag.len(), 4 * 144);
        let with_shadow = dag_for(1024, 256, 1.0);
        // Every layer hosts 2 shadow + 2 merge tasks per chunk (QKV + FFN).
        assert_eq!(with_shadow.len(), 4 * (144 + 4 * 24));
    }

    #[test]
    fn dag_is_topologically_ordered() {
        let dag = dag_for(1024, 256, 0.15);
        dag.validate().unwrap();
    }

    #[test]
    fn cross_chunk_deps_only_on_dynamic_stages() {
        let dag = dag_for(512, 256, 0.0);
        for (t, task) in dag.tasks().iter().enumerate() {
            let cross: Vec<usize> = dag
                .deps(t)
                .iter()
                .copied()
                .filter(|&d| dag.tasks()[d].chunk != task.chunk)
                .collect();
            if task.label.contains("Attention") && task.chunk > 0 {
                assert!(
                    !cross.is_empty(),
                    "chunk-1 attention must depend on chunk 0: {}",
                    task.label
                );
            } else {
                assert!(cross.is_empty(), "unexpected cross dep on {}", task.label);
            }
        }
    }

    #[test]
    fn attention_depends_on_all_earlier_chunks_qkv() {
        let dag = dag_for(768, 256, 0.0);
        // Find chunk 2's first attention task.
        let (t, _) = dag
            .tasks()
            .iter()
            .enumerate()
            .find(|(_, t)| t.chunk == 2 && t.label.contains("Attention"))
            .unwrap();
        let dep_chunks: Vec<usize> = dag.deps(t).iter().map(|&d| dag.tasks()[d].chunk).collect();
        assert!(dep_chunks.contains(&0));
        assert!(dep_chunks.contains(&1));
        assert!(dep_chunks.contains(&2));
    }

    #[test]
    fn shadow_and_merge_tasks_wired_correctly() {
        let dag = dag_for(256, 256, 1.0);
        let mut shadow_count = 0;
        let mut merge_count = 0;
        for (i, task) in dag.tasks().iter().enumerate() {
            match task.role {
                TaskRole::Shadow => {
                    shadow_count += 1;
                    // Shadow MatMuls run on the float processor.
                    assert_eq!(task.processor, Processor::Cpu);
                    assert!(task.is_shadow());
                    // Every shadow task feeds exactly one merge.
                    let consumers: Vec<usize> = (0..dag.len())
                        .filter(|&t| dag.deps(t).contains(&i))
                        .collect();
                    assert_eq!(consumers.len(), 1, "shadow {i} consumers");
                    assert_eq!(dag.tasks()[consumers[0]].role, TaskRole::MergeSync);
                }
                TaskRole::MergeSync => {
                    merge_count += 1;
                    // Merges occupy the NPU (the pipeline interruption).
                    assert_eq!(task.processor, Processor::Npu);
                    assert!(task.duration_ms > 0.0);
                    // A merge depends on both the NPU stage and the shadow.
                    assert_eq!(dag.deps(i).len(), 2);
                }
                TaskRole::Main => assert!(!task.is_shadow()),
            }
        }
        assert_eq!(shadow_count, merge_count);
        assert_eq!(shadow_count, 2 * 24);
    }

    #[test]
    fn each_chunk_layer_has_one_kv_writer() {
        // 0.15 keeps the shadow half on some layers only: both branches
        // of the rule are exercised.
        let dag = dag_for(512, 256, 0.15);
        let mut writers = std::collections::HashMap::new();
        for (t, task) in dag.tasks().iter().enumerate() {
            if dag.writes_kv(t) {
                let split = task.role == TaskRole::MergeSync;
                assert_eq!(split, dag.has_shadow_half(t), "{}", task.label);
                assert!(writers.insert((task.chunk, task.layer), split).is_none());
            }
        }
        assert_eq!(writers.len(), 2 * 24);
        assert!(writers.values().any(|&split| split));
        assert!(writers.values().any(|&split| !split));
    }

    #[test]
    fn unpruned_shadow_slows_prefill_via_merge_syncs() {
        // §3.3: without pruning, CPU-NPU synchronization costs ~30% of
        // latency; pruning the unimportant layers eliminates it.
        let full = dag_for(512, 256, 1.0);
        let pruned = dag_for(512, 256, 0.15);
        let npu_full = full.total_work_ms(Processor::Npu);
        let npu_pruned = pruned.total_work_ms(Processor::Npu);
        assert!(
            npu_full > npu_pruned * 1.15,
            "full {npu_full:.0} vs pruned {npu_pruned:.0}"
        );
    }

    #[test]
    fn shadow_fraction_selects_edge_layers() {
        let active = shadow_active_layers(24, 0.15);
        let kept: Vec<usize> = active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i)
            .collect();
        // 15% of 24 ≈ 4 layers: 2 at the front, 2 at the back (importance
        // is U-shaped, §3.3).
        assert_eq!(kept.len(), 4);
        assert!(kept.contains(&0));
        assert!(kept.contains(&23));
        assert!(!kept.contains(&12));
    }

    #[test]
    fn npu_work_exceeds_float_work() {
        let dag = dag_for(1024, 256, 0.15);
        let npu = dag.total_work_ms(Processor::Npu);
        let cpu = dag.total_work_ms(Processor::Cpu);
        assert!(npu > cpu, "npu {npu} vs cpu {cpu}");
    }

    #[test]
    fn critical_path_below_total_work() {
        let dag = dag_for(1024, 256, 0.15);
        let total: f64 = dag.total_work_ms(Processor::Npu) + dag.total_work_ms(Processor::Cpu);
        let cp = dag.critical_path_ms();
        assert!(cp > 0.0);
        assert!(cp < total);
    }

    #[test]
    fn single_chunk_prompt_has_no_cross_deps() {
        let dag = dag_for(128, 256, 0.0);
        for t in 0..dag.len() {
            for &d in dag.deps(t) {
                assert_eq!(dag.tasks()[d].chunk, dag.tasks()[t].chunk);
            }
        }
    }
}
