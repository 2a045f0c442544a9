//! Table 6: LLM benchmark accuracy for five quantization schemes across
//! five models.
//!
//! The paper's FP16 accuracies anchor the proxy benchmarks: each
//! (benchmark, model) pair is calibrated so the FP32 reference scores the
//! paper's FP16 number, and every scheme is then evaluated with *real*
//! quantized forward passes on scaled-down synthetic models. The quantity
//! to compare against the paper is the per-scheme **degradation** row
//! ordering: ours ≈ LLM.int8() ≈ FP16, K-Quant slightly behind,
//! SmoothQuant clearly behind.
//!
//! This is the heaviest figure; run it in release.

use llmnpu_model::backend::{FloatBackend, LinearBackend, ShadowBackend, SmoothQuantBackend};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu_workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baselines::{LlmInt8Backend, PerGroupBackend};
use crate::{header, Result};

const TASKS: usize = 60;

/// The paper's Table 6 FP16 column, used as calibration anchors.
fn fp16_anchor(benchmark: &str, model: &str) -> f64 {
    match (benchmark, model) {
        ("LAMBADA", "Qwen1.5-1.8B") => 0.711,
        ("LAMBADA", "Gemma-2B") => 0.596,
        ("LAMBADA", "Phi-2-2.7B") => 0.722,
        ("LAMBADA", "LLaMA-2-7B") => 0.875,
        ("LAMBADA", "Mistral-7B") => 0.848,
        ("HellaSwag", "Qwen1.5-1.8B") => 0.438,
        ("HellaSwag", "Gemma-2B") => 0.465,
        ("HellaSwag", "Phi-2-2.7B") => 0.482,
        ("HellaSwag", "LLaMA-2-7B") => 0.528,
        ("HellaSwag", "Mistral-7B") => 0.574,
        ("WinoGrande", "Qwen1.5-1.8B") => 0.583,
        ("WinoGrande", "Gemma-2B") => 0.583,
        ("WinoGrande", "Phi-2-2.7B") => 0.722,
        ("WinoGrande", "LLaMA-2-7B") => 0.652,
        ("WinoGrande", "Mistral-7B") => 0.735,
        ("OpenBookQA", "Qwen1.5-1.8B") => 0.288,
        ("OpenBookQA", "Gemma-2B") => 0.337,
        ("OpenBookQA", "Phi-2-2.7B") => 0.410,
        ("OpenBookQA", "LLaMA-2-7B") => 0.327,
        ("OpenBookQA", "Mistral-7B") => 0.394,
        ("MMLU", "Qwen1.5-1.8B") => 0.297,
        ("MMLU", "Gemma-2B") => 0.357,
        ("MMLU", "Phi-2-2.7B") => 0.354,
        ("MMLU", "LLaMA-2-7B") => 0.378,
        ("MMLU", "Mistral-7B") => 0.421,
        _ => 0.5,
    }
}

/// Prints Table 6.
pub fn run(seed: u64) -> Result {
    for bench_spec in BenchmarkSpec::all() {
        header(&format!("Table 6: {}", bench_spec.name));
        println!(
            "{:<14} {:>8} {:>12} {:>12} {:>9} {:>8}",
            "model", "FP16", "SmoothQuant", "LLM.int8()", "K-Quant", "Ours"
        );
        // Per-scheme degradation accumulators, in column order.
        let mut degradation = [0.0_f64; 5];

        for full_cfg in ModelConfig::all_evaluated() {
            let mini = full_cfg.scaled_down(48, 3, 96)?;
            let weights = synthesize(&mini, seed ^ hash(full_cfg.name), OutlierSpec::default())?;
            let float_be = FloatBackend::new(weights.clone());
            let reference = Transformer::new(&weights, &float_be);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7a ^ hash(bench_spec.name));
            let prompts: Vec<Vec<u32>> = (0..5)
                .map(|_| random_prompt(&mut rng, bench_spec.prompt_len, mini.vocab))
                .collect();
            let cal = reference.calibrate(&prompts)?;

            let anchor = fp16_anchor(bench_spec.name, full_cfg.name);
            let bench = generate(
                &weights,
                &float_be,
                bench_spec,
                TASKS,
                anchor,
                seed ^ hash(bench_spec.name) ^ hash(full_cfg.name),
            )?;

            let smooth = SmoothQuantBackend::new(&weights, &cal, 0.5)?;
            let int8 = LlmInt8Backend::new(&weights, 6.0)?;
            let kquant = PerGroupBackend::new(&weights, 16)?;
            let ours = ShadowBackend::new(&weights, &cal, 0.9995, 0.85)?;

            let accs: Vec<f64> = {
                let backends: [&dyn LinearBackend; 5] = [&float_be, &smooth, &int8, &kquant, &ours];
                backends
                    .iter()
                    .map(|b| bench.evaluate(&weights, *b))
                    .collect::<std::result::Result<_, _>>()?
            };

            println!(
                "{:<14} {:>7.1}% {:>11.1}% {:>11.1}% {:>8.1}% {:>7.1}%",
                full_cfg.name,
                accs[0] * 100.0,
                accs[1] * 100.0,
                accs[2] * 100.0,
                accs[3] * 100.0,
                accs[4] * 100.0
            );
            for (d, acc) in degradation.iter_mut().zip(&accs) {
                *d += acc - accs[0];
            }
        }
        let n = ModelConfig::all_evaluated().len() as f64;
        println!(
            "{:<14} {:>7.1}% {:>11.1}% {:>11.1}% {:>8.1}% {:>7.1}%",
            "avg. degrad.",
            0.0,
            degradation[1] / n * 100.0,
            degradation[2] / n * 100.0,
            degradation[3] / n * 100.0,
            degradation[4] / n * 100.0
        );
    }
    println!(
        "\nPaper's ordering to check: ours and LLM.int8() stay within ~1% of\n\
         FP16 on average; K-Quant trails slightly; SmoothQuant degrades the\n\
         most (its static smoothing misses runtime outliers)."
    );
    Ok(())
}

fn hash(s: &str) -> u64 {
    s.bytes().fold(1469598103934665603_u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(1099511628211)
    })
}
