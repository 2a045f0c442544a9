//! The llm.npu engine: both planes of the paper's two-stage workflow
//! (Figure 6), unified over one prefill DAG.
//!
//! * **Preparation** (once per model/device): build and optimize the
//!   fixed-length chunk-sharing graphs, select the chunk length by
//!   profiling (Figure 8), fix the outlier-pruning plan — and create the
//!   persistent [`WorkerPool`] whose threads live for the engine's
//!   lifetime (`pool_workers` lanes; the kernel layer never spawns a
//!   thread per call once the pool is installed).
//! * **Execution** (per prompt): split the prompt into chunks, construct
//!   the subgraph DAG with shadow-outlier tasks, schedule it out-of-order
//!   across CPU/GPU and NPU, then decode on the configured backend.
//!
//! # The two planes
//!
//! The same [`PrefillDag`] drives two executions that this engine keeps
//! in lock-step:
//!
//! * the **timing plane** ([`LlmNpuEngine::prefill`]) prices each task's
//!   `MatMul` / `Dequantize` ops analytically on the simulated SoC and
//!   schedules the DAG under the configured [`Policy`] — the paper's
//!   device-calibrated latency projections;
//! * the **numeric plane** executes each task *for real* on a
//!   [`Transformer`] via the out-of-order DAG runner in
//!   `llmnpu_sched::runner`: [`LlmNpuEngine::serve`] splices many
//!   requests' prefill DAGs and decode steps into one lane graph on this
//!   engine's pool, and [`execute_chunked_prefill`] runs one prompt's
//!   DAG alone. Quantized main-path GEMMs run on the NPU lane and
//!   shadow-outlier float GEMMs on the CPU lane, dispatched as
//!   dependencies resolve, bit-identical to the sequential chunked
//!   forward at every worker count.
//!
//! Both planes record the same timeline type, and [`validate_timeline`]
//! checks either against the DAG: every task exactly once, dependencies
//! respected, every lane serial (Equation 4). The kernel-level fusion
//! story is unchanged: `MatMul → Dequantize` pairs run as one pass in
//! `llmnpu_tensor::kernel`.
//!
//! [`PrefillDag`]: llmnpu_graph::dag::PrefillDag
//! [`Transformer`]: llmnpu_model::forward::Transformer
//! [`execute_chunked_prefill`]: llmnpu_sched::execute_chunked_prefill
//! [`validate_timeline`]: llmnpu_sched::validate_timeline

use std::sync::Arc;

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{build_prefill_dag, DagConfig};
use llmnpu_graph::memory::{graph_memory, graph_profile};
use llmnpu_model::config::ModelConfig;
use llmnpu_sched::{schedule, Policy, WorkerPool};
use llmnpu_soc::latency::LatencyModel;
use llmnpu_soc::lifecycle::{lifecycle_cost, LifecycleCost, LifecycleParams};
use llmnpu_soc::spec::SocSpec;
use llmnpu_soc::{DataType, Millis, Processor};
use llmnpu_workloads::suites::WorkloadSample;

use crate::decode::DecodeSim;
use crate::report::{E2eReport, MemoryReport, PrefillReport};
use crate::{Error, Result};

/// Engine configuration (the knobs of §4's implementation).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// The model to serve.
    pub model: ModelConfig,
    /// The device to run on.
    pub soc: SocSpec,
    /// Fixed chunk length (256 by default, per the Figure 8 profiling).
    pub chunk_len: usize,
    /// Outlier-layer pruning rate (default 0.85, §4).
    pub pruning_rate: f64,
    /// Processor executing float stages (CPU in the shipped prototype).
    pub float_processor: Processor,
    /// Processor executing the decode stage (CPU by default; GPU per §4.6).
    pub decode_processor: Processor,
    /// Scheduling policy (out-of-order in the full system).
    pub policy: Policy,
    /// Whether the equivalent-shape optimization is applied.
    pub shape_optimized: bool,
    /// Per-group NPU quantization (None = llm.npu's per-tensor).
    pub npu_group_size: Option<usize>,
    /// Lanes of the persistent worker pool created with the engine
    /// (spawned threads + the caller). Overridable via the
    /// `LLMNPU_POOL_WORKERS` environment variable; at least 2 by default
    /// so the NPU and float lanes of the numeric plane can genuinely
    /// overlap even on small hosts.
    pub pool_workers: usize,
}

impl EngineConfig {
    /// The default llm.npu configuration for a model on a device.
    #[must_use]
    pub fn llmnpu(model: ModelConfig, soc: SocSpec) -> Self {
        EngineConfig {
            model,
            soc,
            chunk_len: 256,
            pruning_rate: 0.85,
            float_processor: Processor::Cpu,
            decode_processor: Processor::Cpu,
            policy: Policy::OutOfOrder,
            shape_optimized: true,
            npu_group_size: None,
            pool_workers: WorkerPool::env_workers(
                llmnpu_tensor::kernel::parallel::default_threads().max(2),
            ),
        }
    }

    fn validate(&self) -> Result<()> {
        if self.chunk_len == 0 {
            return Err(Error::InvalidConfig {
                what: "chunk length must be non-zero".to_owned(),
            });
        }
        if !(0.0..=1.0).contains(&self.pruning_rate) {
            return Err(Error::InvalidConfig {
                what: format!("pruning rate {} must be in [0, 1]", self.pruning_rate),
            });
        }
        if self.float_processor == Processor::Npu {
            return Err(Error::InvalidConfig {
                what: "float stages cannot run on the NPU (§2.2: no usable FP path)".to_owned(),
            });
        }
        if self.pool_workers == 0 {
            return Err(Error::InvalidConfig {
                what: "pool must have at least one lane".to_owned(),
            });
        }
        Ok(())
    }
}

/// The prepared llm.npu engine.
#[derive(Debug, Clone)]
pub struct LlmNpuEngine {
    config: EngineConfig,
    lat: LatencyModel,
    preparation: LifecycleCost,
    /// The persistent worker pool: created once here, shared by every
    /// clone of the engine, dropped (joining its threads) with the last
    /// one. Replaces per-call thread spawning throughout the numeric
    /// plane.
    pool: Arc<WorkerPool>,
}

impl LlmNpuEngine {
    /// Runs the preparation stage and returns a ready engine.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid.
    pub fn new(config: EngineConfig) -> Result<Self> {
        config.validate()?;
        let lat = LatencyModel::new(&config.soc);
        // Chunk-sharing graphs are built and optimized once, offline.
        let profile = graph_profile(&config.model, config.chunk_len);
        let preparation = lifecycle_cost(&LifecycleParams::default(), &profile);
        let pool = Arc::new(WorkerPool::new(config.pool_workers));
        Ok(LlmNpuEngine {
            config,
            lat,
            preparation,
            pool,
        })
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// One-time preparation cost (paid offline, *not* per prompt — the
    /// whole point of chunk-sharing graphs, §3.2).
    #[must_use]
    pub fn preparation(&self) -> &LifecycleCost {
        &self.preparation
    }

    /// The latency model in use.
    #[must_use]
    pub fn latency_model(&self) -> &LatencyModel {
        &self.lat
    }

    /// The engine's persistent worker pool. Install it as the kernel
    /// parallel backend (`WorkerPool::install_scope`) to run any
    /// numeric-plane work with zero per-call thread spawns.
    #[must_use]
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// The DAG configuration for a prompt under this engine's knobs
    /// (shared with the serving scheduler in `crate::serve`).
    pub(crate) fn dag_config(&self, prompt_len: usize) -> Result<DagConfig> {
        Ok(DagConfig {
            plan: ChunkPlan::new(prompt_len, self.config.chunk_len)?,
            float_processor: self.config.float_processor,
            shadow_fraction: 1.0 - self.config.pruning_rate,
            outlier_channels: 10,
            shape_optimized: self.config.shape_optimized,
            npu_group_size: self.config.npu_group_size,
        })
    }

    /// Simulates one prefill (the timing plane).
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-length prompt or scheduling failure.
    pub fn prefill(&self, prompt_len: usize) -> Result<PrefillReport> {
        let dag_cfg = self.dag_config(prompt_len)?;
        let dag = build_prefill_dag(&self.config.model, &dag_cfg, &self.lat)?;
        let outcome = schedule(&dag, self.config.policy)?;
        let energy = outcome.timeline.energy(&self.config.soc);
        Ok(PrefillReport::new(
            prompt_len,
            outcome.makespan_ms,
            energy,
            outcome.npu_bubble_rate,
            Some(outcome.timeline),
        ))
    }

    /// The decode-latency model on the configured decode backend — the
    /// single context-aware model shared with [`DecodeSim::run`] and the
    /// baselines (the engine used to carry its own context-free copy,
    /// which silently dropped the KV-attention term).
    #[must_use]
    pub fn decode_sim(&self) -> DecodeSim {
        DecodeSim::new(
            self.config.model.clone(),
            self.config.soc.clone(),
            self.config.decode_processor,
        )
    }

    /// Decode latency of the first generated token (context ≈ 1): the
    /// memory-bound floor where the whole weight set streams through
    /// once. Per-token latency *grows* from here with KV length; use
    /// [`LlmNpuEngine::decode_sim`] for context-aware totals.
    #[must_use]
    pub fn decode_ms_per_token(&self) -> Millis {
        self.decode_sim().token_ms(1)
    }

    /// Simulates one end-to-end request. Decode latency comes from the
    /// shared context-aware model, so it grows with both the prompt
    /// length (attention over the prefilled KV) and the output position.
    ///
    /// # Errors
    ///
    /// Returns an error on prefill failure.
    pub fn e2e(&self, sample: &WorkloadSample) -> Result<E2eReport> {
        let prefill = self.prefill(sample.prompt_len)?;
        let decode_ms = self
            .decode_sim()
            .total_ms(sample.prompt_len, sample.output_len);
        Ok(E2eReport {
            prompt_len: sample.prompt_len,
            output_len: sample.output_len,
            prefill_ms: prefill.latency_ms,
            decode_ms,
            prefill_energy_j: prefill.energy_j,
        })
    }

    /// Memory footprint at a prompt length (Figure 17's "Ours" bar).
    ///
    /// # Errors
    ///
    /// Returns an error for a zero-length prompt.
    pub fn memory(&self, prompt_len: usize) -> Result<MemoryReport> {
        let plan = ChunkPlan::new(prompt_len, self.config.chunk_len)?;
        let gm = graph_memory(&self.config.model, &plan, self.config.float_processor);
        let kv_bytes = kv_cache_bytes(&self.config.model, prompt_len);
        // Shadow float weights: hot channels only (§3.3). ~3% of channels
        // cover >80% of outliers; FP16 rows for the kept layers.
        let kept_layers =
            (self.config.model.layers as f64 * (1.0 - self.config.pruning_rate)).round();
        let hot_fraction = 0.03;
        let shadow_bytes = (self.config.model.hidden as f64
            * hot_fraction
            * (self.config.model.q_dim()
                + 2 * self.config.model.kv_dim()
                + 3 * self.config.model.ffn_hidden) as f64
            * 2.0
            * kept_layers) as u64;
        Ok(MemoryReport {
            weight_bytes: self.config.model.weight_bytes_int8(),
            activation_bytes: gm.shared_buffer_bytes + gm.dynamic_buffer_bytes,
            kv_bytes,
            shadow_bytes,
        })
    }

    /// Sweeps chunk lengths and returns `(chunk_len, per_token_ms)` pairs
    /// for the QKV-linear+FFN NPU work — the Figure 8 profiling that picks
    /// 256 on the Xiaomi 14-class device.
    #[must_use]
    pub fn chunk_length_profile(&self, candidates: &[usize]) -> Vec<(usize, f64)> {
        candidates
            .iter()
            .map(|&c| {
                let mut total = 0.0;
                for &(k, n) in &self.config.model.layer_linear_shapes() {
                    total += self.lat.matmul_ms(Processor::Npu, DataType::Int8, c, k, n);
                }
                (c, total * self.config.model.layers as f64 / c as f64)
            })
            .collect()
    }

    /// Picks the chunk length from a candidate sweep: the *smallest* chunk
    /// whose per-token NPU latency is within 5% of the sweep's optimum.
    ///
    /// This is Figure 8's decision rule: per-token latency flattens once
    /// the NPU saturates (~256 on the 8gen3-class device), and any larger
    /// chunk only adds intra-chunk padding for shorter prompts.
    #[must_use]
    pub fn select_chunk_len(&self, candidates: &[usize]) -> usize {
        let profile = self.chunk_length_profile(candidates);
        let best = profile
            .iter()
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let mut sorted = profile;
        sorted.sort_by_key(|&(c, _)| c);
        sorted
            .into_iter()
            .find(|&(_, t)| t <= best * 1.05)
            .map_or(256, |(c, _)| c)
    }
}

/// KV-cache bytes for a prompt (FP16 keys and values per layer).
#[must_use]
pub fn kv_cache_bytes(model: &ModelConfig, prompt_len: usize) -> u64 {
    (2 * prompt_len * model.kv_dim() * model.layers) as u64 * 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> LlmNpuEngine {
        LlmNpuEngine::new(EngineConfig::llmnpu(
            ModelConfig::qwen15_18b(),
            SocSpec::snapdragon_8gen3(),
        ))
        .unwrap()
    }

    #[test]
    fn config_validation() {
        let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
        cfg.chunk_len = 0;
        assert!(LlmNpuEngine::new(cfg.clone()).is_err());
        cfg.chunk_len = 256;
        cfg.pruning_rate = 1.5;
        assert!(LlmNpuEngine::new(cfg.clone()).is_err());
        cfg.pruning_rate = 0.85;
        cfg.float_processor = Processor::Npu;
        assert!(LlmNpuEngine::new(cfg).is_err());
    }

    #[test]
    fn preparation_is_seconds_scale() {
        // Figure 2: build + optimize for Qwen ≈ 0.45 + 3.3 s — paid once.
        let e = engine();
        let prep = e.preparation().prepare_ms();
        assert!(prep > 2000.0 && prep < 8000.0, "prep = {prep}");
    }

    #[test]
    fn headline_throughput_above_1000_tokens_per_s() {
        // §1: "llm.npu achieves more than 1,000 tokens/sec prefilling for
        // a billion-sized model" (Qwen1.5-1.8B at 1024 tokens, 8gen3).
        let e = engine();
        let r = e.prefill(1024).unwrap();
        assert!(r.tokens_per_s > 1000.0, "tokens/s = {:.0}", r.tokens_per_s);
    }

    #[test]
    fn prefill_latency_matches_table5_scale() {
        // Table 5: Qwen prefill of ~1561 tokens in ~1.49 s on the K70 Pro.
        let e = engine();
        let r = e.prefill(1561).unwrap();
        assert!(
            (800.0..2500.0).contains(&r.latency_ms),
            "latency = {:.0} ms",
            r.latency_ms
        );
    }

    #[test]
    fn decode_speed_matches_table5() {
        // Table 5 decode: ~12–16 tok/s for Qwen on the CPU backend.
        let e = engine();
        let ms = e.decode_ms_per_token();
        let tok_s = 1e3 / ms;
        assert!((8.0..25.0).contains(&tok_s), "decode {tok_s:.1} tok/s");
    }

    #[test]
    fn e2e_splits_prefill_and_decode() {
        let e = engine();
        let sample = WorkloadSample {
            prompt_len: 700,
            output_len: 4,
        };
        let r = e.e2e(&sample).unwrap();
        assert!(r.prefill_ms > 0.0);
        assert!(r.decode_ms > 0.0);
        assert!((r.total_ms() - (r.prefill_ms + r.decode_ms)).abs() < 1e-9);
        // Figure 1: prefill dominates for QA-style workloads.
        assert!(r.prefill_fraction() > 0.5);
    }

    #[test]
    fn e2e_decode_matches_decode_sim_run() {
        // The drift regression: `e2e` decode and `DecodeSim::run` must be
        // the same model, to the bit, at every prompt/output shape.
        let e = engine();
        for (prompt, output) in [(700usize, 16usize), (64, 2), (1536, 40)] {
            let r = e
                .e2e(&WorkloadSample {
                    prompt_len: prompt,
                    output_len: output,
                })
                .unwrap();
            let sim = e.decode_sim().run(prompt, output).unwrap();
            assert!(
                (r.decode_ms - sim.latency_ms).abs() < 1e-9,
                "({prompt}, {output}): e2e {} vs sim {}",
                r.decode_ms,
                sim.latency_ms
            );
        }
    }

    #[test]
    fn e2e_decode_grows_with_context() {
        // The symptom the drift caused: simulated decode latency never
        // grew with KV length. Same output budget, longer prompt must
        // now decode strictly slower (attention over a bigger cache).
        let e = engine();
        let short = e
            .e2e(&WorkloadSample {
                prompt_len: 256,
                output_len: 8,
            })
            .unwrap();
        let long = e
            .e2e(&WorkloadSample {
                prompt_len: 1536,
                output_len: 8,
            })
            .unwrap();
        assert!(
            long.decode_ms > short.decode_ms,
            "decode {:.2} ms at 1536 ctx should exceed {:.2} ms at 256",
            long.decode_ms,
            short.decode_ms
        );
        // And within one request, later tokens are slower than earlier
        // ones (per-token latency rises as the cache grows).
        let sim = e.decode_sim();
        assert!(sim.token_ms(1536) > sim.token_ms(256));
    }

    #[test]
    fn chunk_selection_lands_near_256() {
        // Figure 8: the per-token latency curve flattens after ~256; the
        // profiling should not pick a tiny chunk.
        let e = engine();
        let picked = e.select_chunk_len(&[32, 64, 128, 256, 512, 1024]);
        assert!(picked >= 128, "picked {picked}");
        // The profile must be monotically non-increasing in the small-chunk
        // region (larger chunks amortize better).
        let prof = e.chunk_length_profile(&[32, 64, 128, 256]);
        assert!(prof[0].1 > prof[3].1);
    }

    #[test]
    fn memory_includes_shadow_weights() {
        let e = engine();
        let m = e.memory(512).unwrap();
        assert!(m.shadow_bytes > 0);
        // §4.5: shadow floats are ~0.6–1% of total memory.
        let frac = m.shadow_bytes as f64 / m.total() as f64;
        assert!(frac < 0.05, "shadow fraction {frac}");
        assert!(m.weight_bytes > m.activation_bytes);
    }

    #[test]
    fn gpu_float_backend_works() {
        let mut cfg = EngineConfig::llmnpu(ModelConfig::gemma_2b(), SocSpec::snapdragon_8gen3());
        cfg.float_processor = Processor::Gpu;
        cfg.decode_processor = Processor::Gpu;
        let e = LlmNpuEngine::new(cfg).unwrap();
        let r = e.prefill(512).unwrap();
        assert!(r.latency_ms > 0.0);
        // GPU decode is faster than CPU decode (Figure 18b).
        let cpu_engine = LlmNpuEngine::new(EngineConfig::llmnpu(
            ModelConfig::gemma_2b(),
            SocSpec::snapdragon_8gen3(),
        ))
        .unwrap();
        assert!(e.decode_ms_per_token() < cpu_engine.decode_ms_per_token());
    }

    #[test]
    fn short_prompts_pay_padding() {
        // §4.2: 64-token prompts waste most of a 256 chunk, so tokens/s is
        // far below the 1024-token rate.
        let e = engine();
        let short = e.prefill(64).unwrap();
        let long = e.prefill(1024).unwrap();
        assert!(long.tokens_per_s > 2.0 * short.tokens_per_s);
    }
}
