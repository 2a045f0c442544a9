//! Runs the numeric plane end to end: synthesizes a small
//! outlier-realistic transformer, calibrates it, and evaluates every
//! quantization scheme on a proxy benchmark — a miniature Table 6 row.
//!
//! ```sh
//! cargo run --release --example quantization_accuracy
//! ```

use llmnpu::model::backend::{
    FloatBackend, LinearBackend, PerTensorBackend, ShadowBackend, SmoothQuantBackend,
};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu::workloads::random_prompt;
use llmnpu_bench::baselines::{LlmInt8Backend, PerGroupBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down Qwen with realistic hot-channel outliers.
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96)?;
    let weights = synthesize(&cfg, 2024, OutlierSpec::default())?;
    println!(
        "model: {} scaled to hidden {} / {} layers; hot channels: {:?}",
        cfg.name, cfg.hidden, cfg.layers, weights.hot_channels
    );

    // Offline calibration pass (the paper profiles a large corpus; we use
    // a handful of prompts on the small model).
    let float_backend = FloatBackend::new(weights.clone());
    let reference = Transformer::new(&weights, &float_backend);
    let mut rng = StdRng::seed_from_u64(3);
    let prompts: Vec<Vec<u32>> = (0..6)
        .map(|_| random_prompt(&mut rng, 16, cfg.vocab))
        .collect();
    let calibration = reference.calibrate(&prompts)?;

    // A HellaSwag-style proxy benchmark calibrated to 70% FP reference.
    let spec = BenchmarkSpec {
        name: "HellaSwag-proxy",
        choices: 4,
        prompt_len: 14,
    };
    let bench = generate(&weights, &float_backend, spec, 120, 0.70, 9)?;
    println!(
        "benchmark: {} ({} tasks, reference accuracy {:.1}%)\n",
        spec.name,
        bench.tasks.len(),
        bench.reference_accuracy * 100.0
    );

    let per_tensor = PerTensorBackend::new(&weights, &calibration)?;
    let per_group = PerGroupBackend::new(&weights, 16)?;
    let smooth = SmoothQuantBackend::new(&weights, &calibration, 0.5)?;
    let int8 = LlmInt8Backend::new(&weights, 6.0)?;
    let shadow = ShadowBackend::new(&weights, &calibration, 0.997, 0.0)?;
    let shadow_pruned = ShadowBackend::new(&weights, &calibration, 0.997, 0.85)?;

    println!("{:<22} {:>10}", "scheme", "accuracy");
    for backend in [
        &float_backend as &dyn LinearBackend,
        &int8,
        &shadow,
        &shadow_pruned,
        &per_group,
        &smooth,
        &per_tensor,
    ] {
        let acc = bench.evaluate(&weights, backend)?;
        println!("{:<22} {:>9.1}%", backend.name(), acc * 100.0);
    }
    println!(
        "\nExpected ordering (Table 6): FP16 ≈ LLM.int8() ≈ Ours ≥ K-Quant\n\
         ≥ SmoothQuant/naive per-tensor — emerging from real quantized\n\
         forward passes, not curve fitting."
    );
    Ok(())
}
