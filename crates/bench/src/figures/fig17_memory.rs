//! Figure 17: memory consumption of INT8-weight engines at a 512-token
//! prompt, for Gemma-2B and Phi-2-2.7B.
//!
//! Paper reference (Gemma-2B): llama.cpp-CPU 2.8 GB, TFLite-GPU 3.1 GB,
//! TFLite-CPU 3.1 GB, Ours 3.7 GB (up to 1.32x llama.cpp, because MLLM +
//! QNN allocate per-operator activation buffers); the shadow-outlier
//! float weights are only 0.6-1% of the total.

use llmnpu_core::memory::figure17_rows;
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;

use crate::{header, Result};

/// Prints Figure 17.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen2(); // K60 Pro, as in the paper

    for model in [ModelConfig::gemma_2b(), ModelConfig::phi2_27b()] {
        header(&format!("Figure 17: {} (prompt 512)", model.name));
        println!(
            "{:<16} {:>10} {:>10} {:>12} {:>12}",
            "engine", "total GiB", "weights", "activations", "shadow MiB"
        );
        let comparison = figure17_rows(&model, &soc, 512)?;
        let llamacpp_total = comparison[0].report.total_gib();
        for c in &comparison {
            let r = &c.report;
            println!(
                "{:<16} {:>10.2} {:>10.2} {:>12.2} {:>12.1}",
                c.engine,
                r.total_gib(),
                r.weight_bytes as f64 / (1u64 << 30) as f64,
                (r.activation_bytes + r.kv_bytes) as f64 / (1u64 << 30) as f64,
                r.shadow_bytes as f64 / (1u64 << 20) as f64,
            );
        }
        let ours_total = comparison[3].report.total_gib();
        println!(
            "ours / llama.cpp = {:.2}x (paper: up to 1.32x)",
            ours_total / llamacpp_total
        );
    }
    Ok(())
}
