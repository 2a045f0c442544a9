//! Figure 7: the three graph designs — whole-prompt graph, per-chunk
//! graphs, and the chunk-sharing graph — compared on preparation cost,
//! memory, and flexibility.
//!
//! Paper reference (§3.2): per-chunk graphs need 2–4× the LLM weights in
//! graph memory; sharing the 120 static subgraphs cuts that by up to 75%
//! (7.2 GB for Qwen at prompt 1024 / chunk 256). A whole-prompt graph is
//! cheapest in memory but must be rebuilt for every prompt length.

use llmnpu_graph::chunk::ChunkPlan;
use llmnpu_graph::memory::{graph_memory, graph_profile};
use llmnpu_model::config::ModelConfig;
use llmnpu_soc::lifecycle::{lifecycle_cost, LifecycleParams};
use llmnpu_soc::Processor;

use crate::{header, Result};

/// Prints Figure 7.
pub fn run() -> Result {
    let cfg = ModelConfig::qwen15_18b();
    let params = LifecycleParams::default();
    let plan = ChunkPlan::new(1024, 256)?;
    let gib = |b: u64| b as f64 / (1u64 << 30) as f64;

    // (a) Whole-prompt graph: rebuilt whenever the prompt length changes.
    let prompt_profile = graph_profile(&cfg, 1024);
    let prompt_cost = lifecycle_cost(&params, &prompt_profile);

    // (b) Per-chunk graphs: built once per chunk position, no sharing.
    let mem = graph_memory(&cfg, &plan, Processor::Cpu);
    let chunk_profile = graph_profile(&cfg, 256);
    let chunk_cost = lifecycle_cost(&params, &chunk_profile);

    // (c) Chunk-sharing graph: static subgraphs built once, dynamic
    // attention subgraphs per chunk (weightless, cheap to build).
    // Columns: prepare ms per new prompt length, graph GiB, any length.
    // The chunk designs are pre-built offline, so they prepare nothing.
    let rows = [
        (
            "prompt graph (Figure 7a)",
            prompt_cost.prepare_ms(),
            gib(mem.weight_bytes + mem.shared_buffer_bytes),
            false,
        ),
        (
            "chunk graphs (Figure 7b)",
            0.0,
            gib(mem.no_sharing_total()),
            true,
        ),
        (
            "chunk-sharing graph (Figure 7c)",
            0.0,
            gib(mem.sharing_total()),
            true,
        ),
    ];

    header("Figure 7: graph designs (Qwen1.5-1.8B, prompt 1024, chunk 256)");
    println!(
        "{:<34} {:>22} {:>12} {:>12}",
        "design", "prepare/new length (ms)", "memory GiB", "any length"
    );
    for (design, prepare_ms, memory_gib, any_length) in rows {
        println!("{design:<34} {prepare_ms:>22.0} {memory_gib:>12.2} {any_length:>12}");
    }
    println!(
        "\noffline (one-time) preparation of the chunk-sharing graph: {:.1} s;\n\
         sharing saves {:.0}% of the per-chunk design's graph memory\n\
         (paper: up to 75% / 7.2 GB for this configuration).",
        chunk_cost.prepare_ms() / 1e3,
        mem.saving_fraction() * 100.0
    );
    Ok(())
}
