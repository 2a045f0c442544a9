//! Figure 1: prefill vs decode share of end-to-end latency for the three
//! motivating application categories, on a CPU engine (llama.cpp-like)
//! and a GPU engine (TFLite-like).
//!
//! Paper reference values (prefill share): CPU — UI automation 98.8%,
//! context-aware QA 94.4%, chat summary 88.3%; GPU — 91.7%, 81.0%, 54.2%.

use llmnpu_core::baselines::{AnalyticEngine, BaselineKind, Engine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;
use llmnpu_workloads::suites::Suite;

use crate::{header, Result};

/// Prints Figure 1.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen3();
    // CPU rows use llama.cpp + Qwen (as in §2.1); GPU rows use the
    // TFLite-like engine + Gemma (TFLite's supported model).
    let cpu = AnalyticEngine::new(
        BaselineKind::LlamaCppCpu,
        ModelConfig::qwen15_18b(),
        soc.clone(),
    );
    let gpu = AnalyticEngine::new(BaselineKind::TfliteGpu, ModelConfig::gemma_2b(), soc);

    let paper: &[(&str, f64, f64)] = &[
        ("UI Automation", 98.8, 91.7),
        ("Context-aware QA", 94.4, 81.0),
        ("Chat-Summary", 88.3, 54.2),
    ];

    header("Figure 1: prefill/decode breakdown");
    println!(
        "{:<6} {:<18} {:>12} {:>12} {:>14}",
        "proc", "category", "prefill %", "decode %", "paper prefill"
    );
    for suite in Suite::figure1_categories() {
        let sample = suite.midpoint();
        for (proc_name, engine) in [("CPU", &cpu as &dyn Engine), ("GPU", &gpu as &dyn Engine)] {
            let r = engine.e2e(&sample)?;
            let prefill_pct = r.prefill_fraction() * 100.0;
            let paper_ref = paper
                .iter()
                .find(|(c, _, _)| *c == suite.category)
                .map(|(_, c, g)| if proc_name == "CPU" { *c } else { *g })
                .unwrap_or(f64::NAN);
            println!(
                "{:<6} {:<18} {:>11.1}% {:>11.1}% {:>13.1}%",
                proc_name,
                suite.category,
                prefill_pct,
                100.0 - prefill_pct,
                paper_ref
            );
        }
    }
    Ok(())
}
