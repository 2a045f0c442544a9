//! The fixed configuration every workload runs on, and the timed
//! set-up that builds it: weights, the workload's backend (including
//! calibration or packing), the engine, and one session open.

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{PressurePolicy, ServeOptions};
use llmnpu::model::backend::{FloatBackend, LinearBackend, LutBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::soc::spec::SocSpec;
use llmnpu::workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec;
use crate::Res;

pub const CHUNK_LEN: usize = 32;
/// Set in code, never through `LLMNPU_POOL_WORKERS`: one NPU lane and
/// one CPU lane on the 2-core host.
pub const POOL_WORKERS: usize = 2;
pub const BLOCK_TOKENS: usize = 16;
pub const POOL_BLOCKS: usize = 256;
pub const MAX_ACTIVE: usize = 8;
/// The program under test is the same for every `--seed`; only the
/// requests change.
const WEIGHT_SEED: u64 = 29;

/// `(hidden, layers, vocab)` of the numeric model.
pub fn model_scale(smoke: bool) -> (usize, usize, usize) {
    if smoke {
        (48, 2, 96)
    } else {
        // ~19 M linear parameters, 76 MB at f32: far beyond the cores'
        // private caches, so every pass streams its weights.
        (512, 6, 4096)
    }
}

pub fn serve_options() -> ServeOptions {
    ServeOptions {
        max_active: MAX_ACTIVE,
        decode_batch: 8,
        block_tokens: BLOCK_TOKENS,
        kv_pool_blocks: Some(POOL_BLOCKS),
        pressure: PressurePolicy::EvictYoungest,
        share_prefixes: true,
        obs: None,
        ..ServeOptions::default()
    }
}

pub struct Stack {
    pub weights: ModelWeights,
    pub backend: Box<dyn LinearBackend>,
    pub engine: LlmNpuEngine,
}

impl Stack {
    pub fn build(workload: &str, smoke: bool) -> Res<Stack> {
        let (hidden, layers, vocab) = model_scale(smoke);
        let cfg = ModelConfig::qwen15_18b().scaled_down(hidden, layers, vocab)?;
        let weights = synthesize(&cfg, WEIGHT_SEED, OutlierSpec::default())?;
        let backend: Box<dyn LinearBackend> = match workload {
            spec::PREFILL_LONG => {
                // The paper's int8-main + float-shadow path: clipping
                // scales at the 0.997 quantile, 85 % of sites pruned.
                let float = FloatBackend::new(weights.clone());
                let mut rng = StdRng::seed_from_u64(WEIGHT_SEED);
                let prompts: Vec<Vec<u32>> =
                    (0..4).map(|_| random_prompt(&mut rng, 64, vocab)).collect();
                let calibration = Transformer::new(&weights, &float).calibrate(&prompts)?;
                Box::new(ShadowBackend::new(&weights, &calibration, 0.997, 0.85)?)
            }
            spec::DECODE_BATCH => Box::new(LutBackend::int4(&weights, 32)?),
            _ => Box::new(FloatBackend::new(weights.clone())),
        };
        let mut engine_cfg =
            EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
        engine_cfg.chunk_len = CHUNK_LEN;
        engine_cfg.pool_workers = POOL_WORKERS;
        let engine = LlmNpuEngine::new(engine_cfg)?;
        let stack = Stack {
            weights,
            backend,
            engine,
        };
        // A session open allocates and zeroes the whole page pool; the
        // serving calls pay it again, set-up shows what it costs.
        drop(
            stack
                .engine
                .open_serve_session(&stack.transformer(), &serve_options())?,
        );
        Ok(stack)
    }

    pub fn transformer(&self) -> Transformer<'_> {
        Transformer::new(&self.weights, self.backend.as_ref())
    }
}
