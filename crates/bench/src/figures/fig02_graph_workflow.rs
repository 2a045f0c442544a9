//! Figure 2: the NPU graph lifecycle (setup / build / optimize / execute /
//! free) for Qwen1.5-1.8B and Gemma-2B chunk graphs.
//!
//! Paper reference values: setup ≈500 ms (once); Qwen build 450 ms,
//! optimize 3.30 s, execute 149 ms; Gemma build 360 ms, optimize 11.54 s,
//! execute 108 ms.

use llmnpu_graph::memory::graph_profile;
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::lifecycle::{lifecycle_cost, LifecycleParams};

use crate::{header, Result};

/// Prints Figure 2.
pub fn run() -> Result {
    let params = LifecycleParams::default();
    let cases = [
        (ModelConfig::qwen15_18b(), 450.0, 3300.0),
        (ModelConfig::gemma_2b(), 360.0, 11540.0),
    ];

    header("Figure 2: NPU graph lifecycle costs (chunk length 256)");
    println!(
        "{:<14} {:>9} {:>9} {:>12} {:>8} {:>12} {:>14}",
        "model", "setup", "build", "optimize", "free", "paper build", "paper optimize"
    );
    for (cfg, paper_build, paper_opt) in cases {
        let profile = graph_profile(&cfg, 256);
        let cost = lifecycle_cost(&params, &profile);
        println!(
            "{:<14} {:>7.0}ms {:>7.0}ms {:>10.0}ms {:>6.0}ms {:>10.0}ms {:>12.0}ms",
            cfg.name,
            cost.setup_ms,
            cost.build_ms,
            cost.optimize_ms,
            cost.free_ms,
            paper_build,
            paper_opt
        );
    }
    println!(
        "\nThe §2.3 takeaway: preparation costs seconds per shape, so a naive\n\
         engine that rebuilds per prompt length cannot beat the CPU."
    );
    Ok(())
}
