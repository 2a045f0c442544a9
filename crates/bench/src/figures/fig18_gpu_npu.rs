//! Figure 18: CPU-NPU vs GPU-NPU coordination for Gemma-2B.
//!
//! Paper reference: (a) prefill speed is identical under either float
//! backend — the CPU/GPU work hides behind the NPU's critical path — but
//! (b) GPU-NPU cuts end-to-end latency by 80–90 ms on the LongBench
//! datasets thanks to faster GPU decoding.

use llmnpu_core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::spec::SocSpec;
use llmnpu_soc::Processor;
use llmnpu_workloads::suites::Suite;

use crate::{header, Result};

/// Prints Figure 18.
pub fn run() -> Result {
    let soc = SocSpec::snapdragon_8gen3();
    let model = ModelConfig::gemma_2b();

    let cpu_npu = LlmNpuEngine::new(EngineConfig::llmnpu(model.clone(), soc.clone()))?;
    let mut gpu_cfg = EngineConfig::llmnpu(model, soc);
    gpu_cfg.float_processor = Processor::Gpu;
    gpu_cfg.decode_processor = Processor::Gpu;
    let gpu_npu = LlmNpuEngine::new(gpu_cfg)?;

    header("Figure 18(a): prefill speed, CPU-NPU vs GPU-NPU (Gemma-2B)");
    println!(
        "{:>8} {:>16} {:>16}",
        "prompt", "CPU-NPU tok/s", "GPU-NPU tok/s"
    );
    for p in [64usize, 256, 1024] {
        let a = cpu_npu.prefill(p)?.tokens_per_s;
        let b = gpu_npu.prefill(p)?.tokens_per_s;
        println!("{p:>8} {a:>16.0} {b:>16.0}");
    }

    header("Figure 18(b): end-to-end latency on LongBench");
    println!(
        "{:<32} {:>12} {:>12} {:>10}",
        "suite", "CPU-NPU ms", "GPU-NPU ms", "saving"
    );
    for suite in [Suite::longbench_2wikimqa(), Suite::longbench_triviaqa()] {
        let sample = suite.midpoint();
        let a = cpu_npu.e2e(&sample)?.total_ms();
        let b = gpu_npu.e2e(&sample)?.total_ms();
        println!(
            "{:<32} {:>12.0} {:>12.0} {:>8.0}ms",
            suite.name,
            a,
            b,
            a - b
        );
    }
    println!(
        "\nPrefill parity + a decode-side saving (paper: 80-90 ms) — the float\n\
         backend choice \"is not essential\" for prefill because the NPU is\n\
         the critical path (§4.6)."
    );
    Ok(())
}
