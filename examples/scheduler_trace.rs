//! Visualizes both planes of the out-of-order scheduler: text Gantt
//! charts of a chunked prefill under naive-overlap vs out-of-order
//! dispatch (Figure 13's two panels) on the **simulated** SoC, and then
//! the **executed** numeric timeline of the same DAG run for real on the
//! persistent worker pool — so the two planes can be eyeballed against
//! each other.
//!
//! ```sh
//! cargo run --example scheduler_trace
//! ```

use std::sync::Arc;

use llmnpu::graph::dag::{build_prefill_dag, DagConfig, PrefillDag, TaskRole};
use llmnpu::model::backend::{FloatBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::sched::{
    execute_chunked_prefill, schedule, validate_timeline, LaneGraph, Policy, WorkerPool,
};
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;

const LANE_WIDTH: usize = 100;

/// Renders one lane of a Gantt chart from `(start, end, glyph)` spans.
fn lane_row(spans: &[(f64, f64, char)], span_ms: f64) -> String {
    let mut lane = vec!['.'; LANE_WIDTH];
    for &(start, end, glyph) in spans {
        let a = ((start / span_ms) * LANE_WIDTH as f64) as usize;
        let b = (((end / span_ms) * LANE_WIDTH as f64).ceil() as usize).min(LANE_WIDTH);
        for slot in lane.iter_mut().take(b).skip(a.min(LANE_WIDTH)) {
            *slot = glyph;
        }
    }
    lane.iter().collect()
}

fn label_glyph(label: &str) -> char {
    // Labels look like "C2-L0-Ffn"; the digit after 'C' is the chunk.
    label
        .strip_prefix('C')
        .and_then(|rest| rest.chars().next())
        .unwrap_or('#')
}

/// Renders the NPU/CPU lanes of a simulated timeline.
fn print_sim_lanes(outcome: &llmnpu::sched::ScheduleOutcome) {
    let span = outcome.makespan_ms;
    for proc in [Processor::Npu, Processor::Cpu] {
        let spans: Vec<(f64, f64, char)> = outcome
            .timeline
            .entries()
            .iter()
            .filter(|e| e.processor == proc)
            .map(|e| (e.start, e.end, label_glyph(&e.label)))
            .collect();
        println!("{proc}: {}", lane_row(&spans, span));
    }
}

fn print_simulated(dag: &PrefillDag, policy: Policy) -> Result<(), Box<dyn std::error::Error>> {
    let outcome = schedule(dag, policy)?;
    println!(
        "=== simulated | {} | makespan {:.1} ms | NPU bubbles {:.1}% ===",
        policy.label(),
        outcome.makespan_ms,
        outcome.npu_bubble_rate * 100.0
    );
    print_sim_lanes(&outcome);
    println!("legend: digits = chunk index of the running subgraph, '.' = idle\n");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- Timing plane: the full-size analytic model -------------------
    let mut model = ModelConfig::qwen15_18b();
    model.layers = 2;
    let soc = SocSpec::snapdragon_8gen3();
    let lat = LatencyModel::new(&soc);

    let dag_cfg = DagConfig {
        plan: llmnpu::graph::chunk::ChunkPlan::new(1024, 256)?,
        float_processor: Processor::Cpu,
        shadow_fraction: 0.5,
        outlier_channels: 10,
        shape_optimized: true,
        npu_group_size: None,
    };
    let dag = build_prefill_dag(&model, &dag_cfg, &lat)?;
    println!(
        "{} tasks over {} chunks (2-layer slice of Qwen1.5-1.8B)\n",
        dag.len(),
        dag_cfg.plan.chunks
    );
    for policy in [Policy::FifoQueues, Policy::OutOfOrder] {
        print_simulated(&dag, policy)?;
    }

    // --- Numeric plane: the same DAG structure, executed for real ----
    // A scaled-down synthesized model with an unpruned shadow backend,
    // so the CPU lane carries genuine outlier MatMuls.
    let numeric_cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96)?;
    let weights = synthesize(&numeric_cfg, 7, OutlierSpec::default())?;
    let float = FloatBackend::new(weights.clone());
    let calibration =
        Transformer::new(&weights, &float).calibrate(&[(0..12u32).collect::<Vec<_>>()])?;
    let shadow = ShadowBackend::new(&weights, &calibration, 0.997, 0.0)?;
    let t = Transformer::new(&weights, &shadow);

    let tokens: Vec<u32> = (0..24u32).map(|i| (i * 7 + 3) % 96).collect();
    let mut exec_cfg = DagConfig::llmnpu_default(tokens.len(), 6)?;
    exec_cfg.shadow_fraction = 1.0;
    let exec_plan = exec_cfg.plan.clone();
    let exec_dag = build_prefill_dag(&numeric_cfg, &exec_cfg, &lat)?;

    let pool = Arc::new(WorkerPool::new(3));
    let exec = pool.install_scope(|| {
        execute_chunked_prefill(
            &t,
            &tokens,
            &exec_dag,
            &exec_plan,
            Policy::OutOfOrder,
            &pool,
        )
    })?;
    let sim = schedule(&exec_dag, Policy::OutOfOrder)?;
    // One validator, both planes: each timeline is a schedule of this DAG.
    let exec_graph = LaneGraph::from_prefill_dag(&exec_dag)?;
    validate_timeline(&sim.timeline, &exec_graph)?;
    validate_timeline(&exec.timeline, &exec_graph)?;
    println!(
        "=== unified planes: {}-task DAG, {} chunks, 48-hidden shadow model ===",
        exec_dag.len(),
        exec_plan.chunks
    );
    println!(
        "simulated makespan {:.2} ms (device model) | executed makespan {:.2} ms (this host, {} pool lanes)\n",
        sim.makespan_ms,
        exec.timeline.makespan(),
        pool.workers()
    );

    println!("--- simulated timeline (out-of-order) ---");
    print_sim_lanes(&sim);

    println!("\n--- executed numeric timeline (same DAG, real GEMMs) ---");
    let span = exec.timeline.makespan();
    for proc in [Processor::Npu, Processor::Cpu] {
        let spans: Vec<(f64, f64, char)> = exec
            .timeline
            .entries()
            .iter()
            .filter(|e| e.processor == proc)
            .map(|e| {
                let glyph = if e.meta.role == TaskRole::Shadow {
                    's'
                } else {
                    label_glyph(&e.label)
                };
                (e.start, e.end, glyph)
            })
            .collect();
        println!("{proc}: {}", lane_row(&spans, span));
    }
    let shadow_overlap = exec.timeline.overlap(
        |e| e.meta.role == TaskRole::Shadow,
        |e| e.meta.role == TaskRole::Main && e.processor == Processor::Npu,
    );
    println!(
        "legend: digits = chunk, 's' = shadow-outlier MatMul, '.' = idle\n\
         shadow ↔ NPU-main wall-clock overlap: {:.3} ms\n",
        shadow_overlap
    );
    println!(
        "Out-of-order dispatch fills the NPU's wait-for-attention gaps with\n\
         later chunks' linear subgraphs — the bubble collapse of Figure 13 —\n\
         and the executed plane shows the same reordering on real threads\n\
         (wall-clock overlap requires a multicore host; on one core the\n\
         lanes interleave at task granularity instead)."
    );
    Ok(())
}
