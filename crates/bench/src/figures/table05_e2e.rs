//! Table 5: end-to-end latency (prefill + decode) across five datasets ×
//! five models × all applicable engines, on the Redmi K70 Pro.
//!
//! Paper reference (Qwen1.5-1.8B on LongBench 2wikimqa): MLC 45.6 s,
//! llama.cpp 26.7 s, MNN 10.6 s, ours 1.7 s; geometric-mean speedups at
//! the bottom of each dataset block (e.g. 34.7x over MLC, 21.8x over
//! llama.cpp, 4.8x over MNN, 1.7x over TFLite for 2wikimqa).

use std::collections::BTreeMap;

use llmnpu_core::baselines::{applicable_baselines, Engine, LlmNpuAsEngine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;
use llmnpu_workloads::suites::Suite;

use crate::{header, Result};

/// Prints Table 5.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen3();

    for suite in Suite::all_e2e() {
        header(&format!(
            "Table 5: {} (prompt {}..{}, output {}..{})",
            suite.name,
            suite.prompt_range.0,
            suite.prompt_range.1,
            suite.output_range.0,
            suite.output_range.1
        ));
        let sample = suite.midpoint();

        // Per-engine geometric mean of speedups across models.
        let mut geo: BTreeMap<String, (f64, usize)> = BTreeMap::new();

        for model in ModelConfig::all_evaluated() {
            let ours = LlmNpuAsEngine::with_defaults(model.clone(), soc.clone())?;
            let our_r = ours.e2e(&sample)?;
            println!("\n  {}:", model.name);
            println!(
                "    {:<20} {:>9} {:>10} {:>9} {:>9}",
                "engine", "total s", "prefill s", "decode s", "speedup"
            );
            println!(
                "    {:<20} {:>9.2} {:>10.2} {:>9.2} {:>9}",
                ours.name(),
                our_r.total_ms() / 1e3,
                our_r.prefill_ms / 1e3,
                our_r.decode_ms / 1e3,
                "-"
            );
            for engine in applicable_baselines(&model, &soc) {
                let r = engine.e2e(&sample)?;
                let speedup = r.total_ms() / our_r.total_ms();
                println!(
                    "    {:<20} {:>9.2} {:>10.2} {:>9.2} {:>8.1}x",
                    engine.name(),
                    r.total_ms() / 1e3,
                    r.prefill_ms / 1e3,
                    r.decode_ms / 1e3,
                    speedup
                );
                let entry = geo.entry(engine.name().to_owned()).or_insert((0.0, 0));
                entry.0 += speedup.ln();
                entry.1 += 1;
            }
        }
        println!("\n  geometric-mean speedup of ours over each baseline:");
        for (name, (log_sum, n)) in geo {
            println!("    {:<20} {:>6.1}x", name, (log_sum / n as f64).exp());
        }
    }
    Ok(())
}
