//! Table 3: MatMul latencies for the six LLM-typical shapes across
//! NPU-INT8, CPU-INT8, GPU-FP16, and NPU-FP16.
//!
//! The anchors reproduce the paper's measured numbers exactly (they are
//! the calibration set of the latency model); the `parametric` column
//! shows what the smooth fallback model predicts for the same shape, so
//! the calibration error off-anchor is visible.

use llmnpu_soc::latency::{LatencyModel, TABLE3_ANCHORS};
use llmnpu_soc::spec::SocSpec;
use llmnpu_soc::{DataType, Processor};

use crate::{header, Result};

/// Prints Table 3.
pub fn run() -> Result {
    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    let shapes: [(usize, usize, usize); 6] = [
        (64, 2048, 2048),
        (64, 2048, 8192),
        (64, 2048, 11008),
        (32, 4096, 4096),
        (32, 4096, 8192),
        (32, 4096, 11008),
    ];

    header("Table 3: MatMul latency (ms) on Redmi K70 Pro");
    println!(
        "{:<18} {:>9} {:>9} {:>9} {:>10} {:>9} {:>9}",
        "shape", "NPU INT8", "CPU INT8", "GPU FP16", "NPU FP16", "CPU/NPU", "GPU/NPU"
    );
    for (m, k, n) in shapes {
        let npu = lat.matmul_ms(Processor::Npu, DataType::Int8, m, k, n);
        let cpu = lat.matmul_ms(Processor::Cpu, DataType::Int8, m, k, n);
        let gpu = lat.matmul_ms(Processor::Gpu, DataType::Fp16, m, k, n);
        let npu_fp = lat.matmul_ms(Processor::Npu, DataType::Fp16, m, k, n);
        println!(
            "{:<18} {:>9.1} {:>9.1} {:>9.1} {:>10.0} {:>8.1}x {:>8.1}x",
            format!("{m}x{k} @ {k}x{n}"),
            npu,
            cpu,
            gpu,
            npu_fp,
            cpu / npu,
            gpu / npu
        );
    }

    header("Parametric fallback vs anchors (model calibration error)");
    println!(
        "{:<18} {:<10} {:>10} {:>12} {:>8}",
        "shape", "path", "anchor ms", "parametric", "ratio"
    );
    for a in TABLE3_ANCHORS {
        let est = lat.matmul_parametric_ms(a.processor, a.dtype, a.m, a.k, a.n);
        println!(
            "{:<18} {:<10} {:>10.1} {:>12.2} {:>7.2}x",
            format!("{}x{} @ {}x{}", a.m, a.k, a.k, a.n),
            format!("{}-{}", a.processor, a.dtype),
            a.latency_ms,
            est,
            est / a.latency_ms
        );
    }
    println!(
        "\nPaper's takeaways hold: NPU INT8 beats CPU INT8 by 4.5-5.8x and GPU\n\
         FP16 by 1.8-3.5x, while NPU FP16 is catastrophically slow."
    );
    Ok(())
}
