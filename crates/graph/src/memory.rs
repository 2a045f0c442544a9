//! Graph memory accounting: per-chunk vs chunk-sharing footprints.
//!
//! §3.2's memory argument: keeping one pre-built graph per chunk position
//! multiplies the *static* subgraphs' buffers and weights by the chunk
//! count (2–4× the LLM weights); sharing static subgraphs across chunks
//! leaves only the weightless attention subgraphs replicated — a saving of
//! up to 75%.

use llmnpu_model::config::ModelConfig;
use llmnpu_soc::lifecycle::GraphProfile;
use llmnpu_soc::Processor;

use crate::chunk::ChunkPlan;
use crate::layer::{build_chunk_subgraphs, LayerPlan};

/// Memory footprint of a prefill graph configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GraphMemory {
    /// INT8 weight bytes (one copy; shared subgraphs do not duplicate).
    pub weight_bytes: u64,
    /// Activation buffer bytes for shared (static) subgraphs.
    pub shared_buffer_bytes: u64,
    /// Activation buffer bytes for per-chunk (dynamic) subgraphs.
    pub dynamic_buffer_bytes: u64,
    /// Duplicated weight+buffer bytes a non-sharing design would add.
    pub no_sharing_extra_bytes: u64,
}

impl GraphMemory {
    /// Total bytes of the chunk-sharing design.
    #[must_use]
    pub fn sharing_total(&self) -> u64 {
        self.weight_bytes + self.shared_buffer_bytes + self.dynamic_buffer_bytes
    }

    /// Total bytes of the naive per-chunk design.
    #[must_use]
    pub fn no_sharing_total(&self) -> u64 {
        self.sharing_total() + self.no_sharing_extra_bytes
    }

    /// Fraction of the naive design's memory saved by sharing.
    #[must_use]
    pub fn saving_fraction(&self) -> f64 {
        let naive = self.no_sharing_total();
        if naive == 0 {
            return 0.0;
        }
        1.0 - self.sharing_total() as f64 / naive as f64
    }
}

/// Computes graph memory for a model and chunk plan.
///
/// The naive design replicates every static subgraph (weights *and*
/// buffers) once per chunk; the sharing design keeps one copy of the
/// static subgraphs and replicates only the dynamic attention buffers,
/// sized at each chunk's KV length.
#[must_use]
pub fn graph_memory(
    cfg: &ModelConfig,
    plan: &ChunkPlan,
    float_processor: Processor,
) -> GraphMemory {
    let mut mem = GraphMemory::default();
    for chunk in 0..plan.chunks {
        let lp = LayerPlan {
            chunk_len: plan.chunk_len,
            kv_len: plan.kv_len(chunk),
            float_processor,
            shape_optimized: true,
            npu_group_size: None,
        };
        let subgraphs = build_chunk_subgraphs(cfg, &lp);
        for sg in &subgraphs {
            if sg.stage.is_dynamic() {
                mem.dynamic_buffer_bytes += sg.buffer_bytes();
            } else if chunk == 0 {
                // Static subgraphs exist once in the sharing design.
                mem.weight_bytes += sg.weight_bytes();
                mem.shared_buffer_bytes += sg.buffer_bytes();
            } else {
                // The naive design would replicate them per chunk.
                mem.no_sharing_extra_bytes += sg.weight_bytes() + sg.buffer_bytes();
            }
        }
    }
    mem
}

/// Builds the [`GraphProfile`] (op count + weight sizes) for lifecycle
/// costing of a full-model NPU graph at a given chunk length.
#[must_use]
pub fn graph_profile(cfg: &ModelConfig, chunk_len: usize) -> GraphProfile {
    let lp = LayerPlan {
        chunk_len,
        kv_len: chunk_len,
        float_processor: Processor::Cpu,
        shape_optimized: true,
        npu_group_size: None,
    };
    let subgraphs = build_chunk_subgraphs(cfg, &lp);
    let mut profile = GraphProfile::default();
    for sg in &subgraphs {
        profile.op_count += sg.ops.len();
        for op in &sg.ops {
            let w = op.weight_bytes();
            if w > 0 {
                profile.weight_bytes.push(w);
            }
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu_model::config::ModelConfig;

    #[test]
    fn sharing_saves_most_of_the_naive_footprint() {
        // §3.2: "reducing the memory consumption by up to 75%" for
        // prompt 1024 / chunk 256.
        let cfg = ModelConfig::qwen15_18b();
        let plan = ChunkPlan::new(1024, 256).unwrap();
        let mem = graph_memory(&cfg, &plan, Processor::Cpu);
        let saving = mem.saving_fraction();
        assert!(
            (0.55..0.90).contains(&saving),
            "saving {saving} should be near the paper's 75%"
        );
    }

    #[test]
    fn single_chunk_has_no_duplication() {
        let cfg = ModelConfig::qwen15_18b();
        let plan = ChunkPlan::new(256, 256).unwrap();
        let mem = graph_memory(&cfg, &plan, Processor::Cpu);
        assert_eq!(mem.no_sharing_extra_bytes, 0);
        assert_eq!(mem.saving_fraction(), 0.0);
    }

    #[test]
    fn dynamic_buffers_grow_with_chunk_count() {
        let cfg = ModelConfig::qwen15_18b();
        let short = graph_memory(&cfg, &ChunkPlan::new(512, 256).unwrap(), Processor::Cpu);
        let long = graph_memory(&cfg, &ChunkPlan::new(2048, 256).unwrap(), Processor::Cpu);
        assert!(long.dynamic_buffer_bytes > short.dynamic_buffer_bytes);
        // Weights don't grow — they're shared.
        assert_eq!(long.weight_bytes, short.weight_bytes);
    }

    #[test]
    fn weight_bytes_match_config_linears() {
        let cfg = ModelConfig::qwen15_18b();
        let plan = ChunkPlan::new(256, 256).unwrap();
        let mem = graph_memory(&cfg, &plan, Processor::Cpu);
        let expected: u64 = cfg
            .layer_linear_shapes()
            .iter()
            .map(|&(k, n)| (k * n) as u64)
            .sum::<u64>()
            * cfg.layers as u64;
        assert_eq!(mem.weight_bytes, expected);
    }

    #[test]
    fn profile_counts_weighted_ops() {
        let cfg = ModelConfig::qwen15_18b();
        let p = graph_profile(&cfg, 256);
        // 7 weighted matmuls per layer.
        assert_eq!(p.weight_bytes.len(), 7 * 24);
        assert!(p.op_count > p.weight_bytes.len());
    }
}
