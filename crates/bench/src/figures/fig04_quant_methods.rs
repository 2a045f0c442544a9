//! Figure 4: prefill latency and accuracy of quantization algorithms on
//! the NPU, for LLaMA-2-7B and Qwen1.5-1.8B.
//!
//! Paper reference: per-group schemes (K-Quant, AWQ) cost 8.1–10.7× more
//! prefill latency than per-tensor on the NPU while keeping high accuracy;
//! SmoothQuant keeps per-tensor speed but drops accuracy (3.9% / 8.4%
//! HellaSwag loss for LLaMA / Qwen).
//!
//! Latency comes from the timing plane (per-group MatMul decomposition on
//! the simulated NPU); accuracy comes from the numeric plane (real
//! quantized forward passes on scaled-down models).

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::dag::{build_prefill_dag, DagConfig};
use llmnpu_model::backend::{FloatBackend, PerTensorBackend, SmoothQuantBackend};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_sched::{schedule, Policy};
use llmnpu_soc::latency::LatencyModel;
use llmnpu_soc::spec::SocSpec;
use llmnpu_soc::Processor;
use llmnpu_workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu_workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::baselines::PerGroupBackend;
use crate::{header, Result};

fn prefill_ms(model: &ModelConfig, lat: &LatencyModel, group: Option<usize>) -> Result<f64> {
    let dag_cfg = DagConfig {
        plan: ChunkPlan::new(512, 256)?,
        float_processor: Processor::Cpu,
        shadow_fraction: 0.0,
        outlier_channels: 0,
        shape_optimized: true,
        npu_group_size: group,
    };
    let dag = build_prefill_dag(model, &dag_cfg, lat)?;
    Ok(schedule(&dag, Policy::OutOfOrder)?.makespan_ms)
}

/// Prints Figure 4.
pub fn run(seed: u64) -> Result {
    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    let schemes: [(&'static str, Option<usize>); 4] = [
        ("PerTensor", None),
        ("K-Quant", Some(64)),
        ("AWQ", Some(128)),
        ("SmoothQuant", None), // per-tensor granularity → per-tensor speed
    ];

    for full_cfg in [ModelConfig::llama2_7b(), ModelConfig::qwen15_18b()] {
        header(&format!("Figure 4: {} (prompt 512, 8gen3)", full_cfg.name));

        // --- Accuracy on the numeric plane (scaled-down model) ---
        let mini = full_cfg.scaled_down(48, 3, 96)?;
        let weights = synthesize(&mini, seed, OutlierSpec::default())?;
        let float_be = FloatBackend::new(weights.clone());
        let reference = Transformer::new(&weights, &float_be);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5f);
        let prompts: Vec<Vec<u32>> = (0..5)
            .map(|_| random_prompt(&mut rng, 14, mini.vocab))
            .collect();
        let cal = reference.calibrate(&prompts)?;
        let spec = BenchmarkSpec {
            name: "HellaSwag-proxy",
            choices: 4,
            prompt_len: 14,
        };
        let bench = generate(&weights, &float_be, spec, 80, 0.55, seed ^ 0xa1)?;

        let per_tensor_acc = {
            let be = PerTensorBackend::new(&weights, &cal)?;
            bench.evaluate(&weights, &be)?
        };
        let group_acc = {
            let be = PerGroupBackend::new(&weights, 16)?;
            bench.evaluate(&weights, &be)?
        };
        let smooth_acc = {
            let be = SmoothQuantBackend::new(&weights, &cal, 0.5)?;
            bench.evaluate(&weights, &be)?
        };

        // --- Latency on the timing plane ---
        let base_ms = prefill_ms(&full_cfg, &lat, None)?;
        println!(
            "{:<14} {:>12} {:>12} {:>10}",
            "scheme", "prefill ms", "vs per-tensor", "accuracy"
        );
        for (name, group) in schemes {
            let ms = prefill_ms(&full_cfg, &lat, group)?;
            let acc = match name {
                "PerTensor" => per_tensor_acc,
                "SmoothQuant" => smooth_acc,
                _ => group_acc,
            };
            println!(
                "{:<14} {:>12.0} {:>11.1}x {:>9.1}%",
                name,
                ms,
                ms / base_ms,
                acc * 100.0
            );
        }
        println!(
            "reference accuracy (float): {:.1}%  | paper: per-group is 8.1-10.7x\n\
             slower on NPU; SmoothQuant is fast but least accurate",
            bench.reference_accuracy * 100.0
        );
    }
    Ok(())
}
