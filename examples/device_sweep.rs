//! Sweeps llm.npu across device variants — the two paper devices plus
//! hypothetical SoCs with scaled NPU throughput — and exports one
//! execution trace for inspection in `chrome://tracing` / Perfetto.
//!
//! ```sh
//! cargo run --release --example device_sweep
//! ```

use llmnpu::core::decode::DecodeSim;
use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::trace_span;
use llmnpu::model::config::ModelConfig;
use llmnpu::obs::chrome::{chrome_trace_json, validate_chrome_trace};
use llmnpu::obs::TraceLog;
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::trace;
use llmnpu::soc::Processor;

fn scaled_npu(base: &SocSpec, name: &'static str, factor: f64) -> SocSpec {
    let mut soc = base.clone();
    soc.name = name;
    soc.npu.gemm_slope_per_row *= factor;
    soc.npu.gemm_ceiling *= factor;
    soc.table3_anchors = false;
    soc
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::qwen15_18b();
    let g3 = SocSpec::snapdragon_8gen3();
    let devices = vec![
        SocSpec::snapdragon_8gen2(),
        g3.clone(),
        scaled_npu(&g3, "hypothetical 1.5x NPU", 1.5),
        scaled_npu(&g3, "hypothetical 2x NPU", 2.0),
    ];

    println!(
        "llm.npu device sweep — {} @ 1024-token prompt\n",
        model.name
    );
    println!(
        "{:<36} {:>12} {:>10} {:>12} {:>12}",
        "device", "prefill t/s", "energy J", "NPU bubbles", "decode t/s"
    );
    for soc in &devices {
        let engine = LlmNpuEngine::new(EngineConfig::llmnpu(model.clone(), soc.clone()))?;
        let prefill = engine.prefill(1024)?;
        let decode = DecodeSim::new(model.clone(), soc.clone(), Processor::Cpu).run(1024, 16)?;
        println!(
            "{:<36} {:>12.0} {:>10.2} {:>11.1}% {:>12.1}",
            soc.name,
            prefill.tokens_per_s,
            prefill.energy_j,
            prefill.npu_bubble_rate * 100.0,
            decode.tokens_per_s
        );
    }

    // Export the 8gen3 trace for visual inspection.
    let engine = LlmNpuEngine::new(EngineConfig::llmnpu(model, g3))?;
    let report = engine.prefill(512)?;
    let timeline = report.timeline.as_ref().expect("timeline");
    let dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(dir)?;
    let trace_path = dir.join("prefill_trace.json");
    // Every plane's timeline exports through the same entry → span
    // conversion and the same Chrome writer; a simulated entry has no
    // owning request and is its own modeled cost.
    let log = TraceLog {
        spans: timeline
            .entries()
            .iter()
            .map(|e| trace_span(e, "simulated", None, e.duration()))
            .collect(),
        events: Vec::new(),
    };
    let chrome = chrome_trace_json(&log);
    let check = validate_chrome_trace(&chrome)?;
    assert_eq!(check.slices, timeline.entries().len());
    std::fs::write(&trace_path, chrome)?;
    let csv_path = dir.join("prefill_trace.csv");
    std::fs::write(&csv_path, trace::to_csv(timeline))?;

    println!("\nutilization over the 512-token prefill:");
    for (proc, util) in trace::utilization_summary(timeline) {
        println!("  {proc}: {:>5.1}%", util * 100.0);
    }
    println!(
        "\ntraces written:\n  {} (load in chrome://tracing)\n  {}",
        trace_path.display(),
        csv_path.display()
    );
    Ok(())
}
