//! Figure 14: prefill speed (tokens/s) for five models × prompt lengths
//! {64, 256, 1024} × engines × two devices.
//!
//! Paper reference (1024 tokens, Redmi K70 Pro): llm.npu is 18.2–38.4×
//! faster than llama.cpp-CPU, ~7.3× than MNN-CPU, 32.5–43.6× than
//! MLC-GPU, 1.27–2.34× than TFLite-GPU, and 3.28–5.32× than
//! PowerInfer-v2; >1,000 tokens/s on billion-scale models.

use llmnpu_core::baselines::{applicable_baselines, Engine, LlmNpuAsEngine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;

use crate::{header, ratio, Result};

/// Prints Figure 14.
pub fn run() -> Result {
    let prompts = [64usize, 256, 1024];

    for soc in [SocSpec::snapdragon_8gen3(), SocSpec::snapdragon_8gen2()] {
        header(&format!("Figure 14: prefill speed on {}", soc.name));
        for model in ModelConfig::all_evaluated() {
            let ours = LlmNpuAsEngine::with_defaults(model.clone(), soc.clone())?;
            println!("\n--- {} ---", model.name);
            println!(
                "{:<20} {:>10} {:>10} {:>10}",
                "engine", "64 tok/s", "256 tok/s", "1024 tok/s"
            );
            let our_speeds: Vec<f64> = prompts
                .iter()
                .map(|&p| ours.prefill(p).map(|r| r.tokens_per_s))
                .collect::<std::result::Result<_, _>>()?;
            // Ours first.
            println!(
                "{:<20} {:>10.0} {:>10.0} {:>10.0}",
                ours.name(),
                our_speeds[0],
                our_speeds[1],
                our_speeds[2]
            );
            for engine in applicable_baselines(&model, &soc) {
                let speeds: Vec<f64> = prompts
                    .iter()
                    .map(|&p| engine.prefill(p).map(|r| r.tokens_per_s))
                    .collect::<std::result::Result<_, _>>()?;
                println!(
                    "{:<20} {:>10.0} {:>10.0} {:>10.0}   (ours {} at 1024)",
                    engine.name(),
                    speeds[0],
                    speeds[1],
                    speeds[2],
                    ratio(speeds[2], our_speeds[2])
                );
            }
        }
    }
    println!(
        "\nHeadline check: billion-scale models exceed 1,000 tokens/s of\n\
         prefill at 1024 tokens on the 8gen3 (the paper's first-ever mark)."
    );
    Ok(())
}
