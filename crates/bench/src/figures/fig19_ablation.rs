//! Figure 19: the ablation ladder — CPU, naive NPU offload, then each of
//! llm.npu's three techniques added in turn — for Qwen1.5-1.8B, Gemma-2B,
//! and LLaMA-2-7B at a 512-token prompt.
//!
//! Paper reference (tokens/s): Gemma 46 → 18 → 91 → 355 → 420;
//! Qwen 65 → 25 → 37 → 395 → 569; LLaMA 13 → 5 → 15 → 133 → 186.

use llmnpu_core::ablation::{run_ladder, AblationStep};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;

use crate::{header, Result};

fn paper_value(model: &str, step: AblationStep) -> f64 {
    let ladder: [f64; 5] = match model {
        "Qwen1.5-1.8B" => [65.0, 25.0, 37.0, 395.0, 569.0],
        "Gemma-2B" => [46.0, 18.0, 91.0, 355.0, 420.0],
        "LLaMA-2-7B" => [13.0, 5.0, 15.0, 133.0, 186.0],
        _ => [f64::NAN; 5],
    };
    let idx = AblationStep::LADDER
        .iter()
        .position(|&s| s == step)
        .unwrap_or(0);
    ladder[idx]
}

/// Prints Figure 19.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen3();

    for model in [
        ModelConfig::gemma_2b(),
        ModelConfig::qwen15_18b(),
        ModelConfig::llama2_7b(),
    ] {
        header(&format!("Figure 19: {} (prompt 512)", model.name));
        println!(
            "{:<32} {:>12} {:>12}",
            "configuration", "tok/s", "paper tok/s"
        );
        for (step, speed) in run_ladder(&model, &soc, 512)? {
            let paper = paper_value(model.name, step);
            println!("{:<32} {:>12.0} {:>12.0}", step.label(), speed, paper);
        }
    }
    println!(
        "\nShape to check against the paper: naive NPU offload *loses* to the\n\
         CPU; chunk-sharing recovers part of it; shadow outlier execution is\n\
         the order-of-magnitude jump; OOE adds the final 18-44%."
    );
    Ok(())
}
