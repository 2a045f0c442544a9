//! Engine memory-footprint comparison (Figure 17).
//!
//! Figure 17 compares INT8-weight engines at a 512-token prompt:
//! llama.cpp-CPU and TFLite reuse a small number of activation buffers,
//! while llm.npu (built on MLLM + QNN) allocates an independent buffer per
//! operator "to enhance speed", costing up to 1.32× llama.cpp — plus the
//! tiny (0.6–1%) float shadow weights.

use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;

use crate::engine::{kv_cache_bytes, EngineConfig, LlmNpuEngine};
use crate::report::MemoryReport;
use crate::Result;

/// Memory model of a baseline engine at a prompt length.
///
/// Baselines keep INT8 weights, the KV cache, and a *reused* activation
/// workspace of a few transient buffers (llama.cpp's scratch planning),
/// rather than per-op allocations.
#[must_use]
pub fn baseline_memory(
    model: &ModelConfig,
    prompt_len: usize,
    workspace_buffers: u64,
) -> MemoryReport {
    let activation =
        workspace_buffers * (prompt_len * model.hidden.max(model.ffn_hidden)) as u64 * 4;
    MemoryReport {
        weight_bytes: model.weight_bytes_int8(),
        activation_bytes: activation,
        kv_bytes: kv_cache_bytes(model, prompt_len),
        shadow_bytes: 0,
    }
}

/// The Figure 17 comparison rows for one model.
#[derive(Debug, Clone)]
pub struct MemoryComparison {
    /// Engine name.
    pub engine: &'static str,
    /// Footprint report.
    pub report: MemoryReport,
}

/// Computes the Figure 17 rows: llama.cpp-CPU, TFLite-GPU, TFLite-CPU,
/// and llm.npu (with its shadow weights split out).
///
/// # Errors
///
/// Returns an error if the engine configuration is invalid.
pub fn figure17_rows(
    model: &ModelConfig,
    soc: &SocSpec,
    prompt_len: usize,
) -> Result<Vec<MemoryComparison>> {
    let engine = LlmNpuEngine::new(EngineConfig::llmnpu(model.clone(), soc.clone()))?;
    let ours = engine.memory(prompt_len)?;
    Ok(vec![
        MemoryComparison {
            engine: "llama.cpp-CPU",
            report: baseline_memory(model, prompt_len, 4),
        },
        MemoryComparison {
            engine: "TFLite-GPU",
            report: baseline_memory(model, prompt_len, 8),
        },
        MemoryComparison {
            engine: "TFLite-CPU",
            report: baseline_memory(model, prompt_len, 8),
        },
        MemoryComparison {
            engine: "Ours",
            report: ours,
        },
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ours_costs_more_but_bounded() {
        // Figure 17: llm.npu consumes up to 1.32× llama.cpp.
        let model = ModelConfig::gemma_2b();
        let rows = figure17_rows(&model, &SocSpec::snapdragon_8gen2(), 512).unwrap();
        let lcpp = rows[0].report.total() as f64;
        let ours = rows[3].report.total() as f64;
        let ratio = ours / lcpp;
        assert!(
            (1.0..1.6).contains(&ratio),
            "ours/llama.cpp memory ratio {ratio:.2}"
        );
    }

    #[test]
    fn absolute_scale_matches_figure17() {
        // Figure 17 reports ~2.8 GB for llama.cpp and ~3.7 GB for ours on
        // Gemma-2B at prompt 512.
        let model = ModelConfig::gemma_2b();
        let rows = figure17_rows(&model, &SocSpec::snapdragon_8gen2(), 512).unwrap();
        let lcpp = rows[0].report.total_gib();
        let ours = rows[3].report.total_gib();
        assert!((2.0..3.6).contains(&lcpp), "llama.cpp {lcpp:.2} GiB");
        assert!((2.2..4.4).contains(&ours), "ours {ours:.2} GiB");
    }

    #[test]
    fn shadow_weights_are_a_tiny_fraction() {
        // §4.5: shadow floats account for only 0.6–1% of total memory.
        let model = ModelConfig::phi2_27b();
        let rows = figure17_rows(&model, &SocSpec::snapdragon_8gen2(), 512).unwrap();
        let ours = &rows[3].report;
        let frac = ours.shadow_bytes as f64 / ours.total() as f64;
        assert!(frac > 0.0005 && frac < 0.05, "shadow fraction {frac:.4}");
    }

    #[test]
    fn weights_dominate_every_engine() {
        let model = ModelConfig::gemma_2b();
        for row in figure17_rows(&model, &SocSpec::snapdragon_8gen2(), 512).unwrap() {
            assert!(
                row.report.weight_bytes * 2 > row.report.total(),
                "{}: weights should be at least half the footprint",
                row.engine
            );
        }
    }
}
