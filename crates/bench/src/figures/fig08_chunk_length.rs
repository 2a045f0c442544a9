//! Figure 8: per-token latency of the QKV linears and FFN under different
//! chunk lengths, for Qwen1.5-1.8B and Gemma-2B.
//!
//! Paper reference: the per-token curve falls steeply up to ~256 and then
//! flattens; llm.npu picks 256 on the Xiaomi-14-class device as the
//! latency-optimal chunk that minimizes intra-chunk padding.

use llmnpu_core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::latency::LatencyModel;
use llmnpu_soc::spec::SocSpec;
use llmnpu_soc::{DataType, Processor};

use crate::{header, Result};

/// Prints Figure 8.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen3();
    let lat = LatencyModel::new(&soc);
    let chunks = [32usize, 64, 128, 256, 384, 512, 768, 1024];

    for cfg in [ModelConfig::qwen15_18b(), ModelConfig::gemma_2b()] {
        header(&format!("Figure 8: {}", cfg.name));
        println!(
            "{:>10} {:>18} {:>18}",
            "chunk", "QKV ms/token", "FFN ms/token"
        );
        for &c in &chunks {
            // QKV: q, k, v projections; FFN: gate/up/down.
            let qkv: f64 = [
                (cfg.hidden, cfg.q_dim()),
                (cfg.hidden, cfg.kv_dim()),
                (cfg.hidden, cfg.kv_dim()),
            ]
            .iter()
            .map(|&(k, n)| lat.matmul_ms(Processor::Npu, DataType::Int8, c, k, n))
            .sum::<f64>()
                / c as f64;
            let mut ffn_shapes = vec![(cfg.hidden, cfg.ffn_hidden), (cfg.ffn_hidden, cfg.hidden)];
            if cfg.act.gated() {
                ffn_shapes.push((cfg.hidden, cfg.ffn_hidden));
            }
            let ffn: f64 = ffn_shapes
                .iter()
                .map(|&(k, n)| lat.matmul_ms(Processor::Npu, DataType::Int8, c, k, n))
                .sum::<f64>()
                / c as f64;
            println!("{c:>10} {qkv:>18.4} {ffn:>18.4}");
        }
        let engine = LlmNpuEngine::new(EngineConfig::llmnpu(cfg.clone(), soc.clone()))?;
        let picked = engine.select_chunk_len(&chunks);
        println!("chunk length selected: {picked}  (paper picks 256)");
    }
    Ok(())
}
