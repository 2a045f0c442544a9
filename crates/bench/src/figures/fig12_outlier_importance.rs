//! Figure 12: (left) outlier importance of the linear layers over depth;
//! (right) accuracy vs the number of importance-pruned layers.
//!
//! Paper reference: importance (largest outlier / quantization scale) is
//! highest near the model's inputs and outputs; pruning the 85% least
//! important layers' outliers costs almost no accuracy, after which the
//! curve falls off.

use llmnpu_model::backend::{model_sites, FloatBackend, ShadowBackend};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_quant::outlier::calibrate_scale;
use llmnpu_quant::per_tensor::QMAX;
use llmnpu_tensor::Tensor;
use llmnpu_workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu_workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::{header, Result};

/// Prints Figure 12.
pub fn run(seed: u64) -> Result {
    let cfg = ModelConfig::qwen15_18b().scaled_down(64, 8, 96)?;
    let weights = synthesize(&cfg, seed, OutlierSpec::default())?;
    let float_be = FloatBackend::new(weights.clone());
    let model = Transformer::new(&weights, &float_be);

    let mut rng = StdRng::seed_from_u64(seed ^ 0x99);
    let prompts: Vec<Vec<u32>> = (0..8)
        .map(|_| random_prompt(&mut rng, 16, cfg.vocab))
        .collect();
    let cal = model.calibrate(&prompts)?;

    // --- Left panel: importance per layer (mean over the layer's sites) ---
    header("Figure 12 (left): outlier importance over depth");
    let mut importance = Vec::new();
    for layer in 0..cfg.layers {
        let mut vals = Vec::new();
        for (l, kind) in model_sites(&weights) {
            if l != layer {
                continue;
            }
            let acts = &cal[&(l, kind)];
            let scale = calibrate_scale(acts, 0.997)?;
            let limit = scale * QMAX;
            let max_abs = acts.iter().map(Tensor::abs_max).fold(0.0_f32, f32::max);
            vals.push(f64::from(max_abs / limit.max(1e-9)));
        }
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        println!("layer {layer:>2}: importance {mean:>7.2} {}", bar(mean));
        importance.push(mean);
    }
    let first = importance.first().copied().unwrap_or(0.0);
    let last = importance.last().copied().unwrap_or(0.0);
    let mid = importance[cfg.layers / 2];
    println!(
        "edges vs middle: first {first:.2}, middle {mid:.2}, last {last:.2} — the\n\
         paper's U-shape (input/output layers matter most)"
    );

    // --- Right panel: accuracy vs pruning rate ---
    header("Figure 12 (right): accuracy vs pruned layers");
    let spec = BenchmarkSpec {
        name: "HellaSwag-proxy",
        choices: 4,
        prompt_len: 14,
    };
    let bench = generate(&weights, &float_be, spec, 150, 0.62, seed ^ 0x4242)?;
    println!(
        "{:>14} {:>12}  (float reference {:.1}%)",
        "pruning rate",
        "accuracy",
        bench.reference_accuracy * 100.0
    );
    for rate in [0.0, 0.25, 0.5, 0.75, 0.85, 0.95, 1.0] {
        let backend = ShadowBackend::new(&weights, &cal, 0.997, rate)?;
        let acc = bench.evaluate(&weights, &backend)?;
        println!("{:>13.0}% {:>11.1}%", rate * 100.0, acc * 100.0);
    }
    println!(
        "\nPaper: accuracy is flat until ~85% pruning (the default), then\n\
         degrades as important outliers start being dropped."
    );
    Ok(())
}

fn bar(v: f64) -> String {
    let n = (v * 4.0).clamp(0.0, 60.0) as usize;
    "#".repeat(n)
}
