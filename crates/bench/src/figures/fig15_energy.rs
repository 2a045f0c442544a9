//! Figure 15: prefill energy consumption under different prompt lengths
//! on the Redmi K60 Pro (the rootable device the paper measured).
//!
//! Paper reference (1024 tokens): llm.npu saves 35.6–59.5× energy vs
//! llama.cpp-CPU, 35.2–59.3× vs MLC-GPU, and 1.85–4.32× vs TFLite-GPU;
//! at 64 tokens the savings shrink to ~10–18× and ~3.2–3.7×.

use llmnpu_core::baselines::{applicable_baselines, Engine, LlmNpuAsEngine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;

use crate::{header, Result};

/// Prints Figure 15.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen2(); // K60 Pro
    let prompts = [64usize, 256, 1024];

    header(&format!("Figure 15: prefill energy on {}", soc.name));
    for model in ModelConfig::all_evaluated() {
        let ours = LlmNpuAsEngine::with_defaults(model.clone(), soc.clone())?;
        println!("\n--- {} ---", model.name);
        println!(
            "{:<20} {:>10} {:>10} {:>10} {:>16}",
            "engine", "64 (J)", "256 (J)", "1024 (J)", "saving @1024"
        );
        let our_energy: Vec<f64> = prompts
            .iter()
            .map(|&p| ours.prefill(p).map(|r| r.energy_j))
            .collect::<std::result::Result<_, _>>()?;
        println!(
            "{:<20} {:>10.2} {:>10.2} {:>10.2} {:>16}",
            ours.name(),
            our_energy[0],
            our_energy[1],
            our_energy[2],
            "1.0x"
        );
        for engine in applicable_baselines(&model, &soc) {
            let energies: Vec<f64> = prompts
                .iter()
                .map(|&p| engine.prefill(p).map(|r| r.energy_j))
                .collect::<std::result::Result<_, _>>()?;
            println!(
                "{:<20} {:>10.2} {:>10.2} {:>10.2} {:>15.1}x",
                engine.name(),
                energies[0],
                energies[1],
                energies[2],
                energies[2] / our_energy[2]
            );
        }
    }
    println!(
        "\nThe savings grow with prompt length: NPU power (~1.5 W) vs all-core\n\
         CPU prefill (~8 W) compounds with the latency gap."
    );
    Ok(())
}
