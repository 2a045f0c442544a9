//! Memory-pressure serving demo: a heavy-tail queue (bursty Pareto
//! arrivals, long-prompt outliers) served against a deliberately
//! undersized paged KV pool, so admission really is a memory model —
//! requests wait for pages, the youngest active request gets evicted
//! and recomputed when a burst overcommits the pool, and every page is
//! back in the pool at the end.
//!
//! ```sh
//! cargo run --example memory_pressure
//! ```

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{GenerationRequest, PressurePolicy, ServeOptions, ServeTaskKind};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::soc::spec::SocSpec;
use llmnpu::workloads::traces::{ArrivalTrace, LengthMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down numeric model (the real GEMMs) under the full
    // engine's scheduling machinery.
    let numeric_cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96)?;
    let weights = synthesize(&numeric_cfg, 7, OutlierSpec::default())?;
    let float = FloatBackend::new(weights.clone());
    let t = Transformer::new(&weights, &float);

    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = 6;
    let engine = LlmNpuEngine::new(cfg)?;

    // Heavy-tail workload: bursty arrivals, mostly-short prompts with
    // document-length outliers.
    let mix = LengthMix::heavy_tail(11, 7, 6, 30);
    let trace = ArrivalTrace::heavy_tail(11, 2.0, 1.1, mix.len());
    let requests: Vec<GenerationRequest> = mix
        .shapes
        .iter()
        .zip(&trace.arrivals_ms)
        .enumerate()
        .map(|(i, (&(prompt_len, max_new), &arrival))| {
            GenerationRequest::synthetic(i, prompt_len, max_new, numeric_cfg.vocab)
                .with_arrival_ms(arrival)
        })
        .collect();

    // Size the pool well below the batch's aggregate worst case, so a
    // burst must wait or preempt.
    let block_tokens = 4usize;
    let needs: Vec<usize> = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .collect();
    let total_need: usize = needs.iter().sum();
    let pool_blocks = (total_need / 2).max(*needs.iter().max().unwrap());
    println!(
        "=== memory-pressure serving | {} requests need {} pages worst-case, pool holds {} ===",
        requests.len(),
        total_need,
        pool_blocks
    );

    let opts = ServeOptions {
        max_active: requests.len(),
        block_tokens,
        kv_pool_blocks: Some(pool_blocks),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        ..ServeOptions::default()
    };
    let report = engine.serve(&t, &requests, &opts)?;

    println!(
        "{:>3}  {:>7}  {:>6}  {:>9}  {:>9}  {:>8}  tokens",
        "req", "arrive", "pages", "wait(ms)", "ttft(ms)", "attempts"
    );
    for (r, outcome) in report.requests.iter().enumerate() {
        println!(
            "{:>3}  {:>7.1}  {:>6}  {:>9.2}  {:>9.2}  {:>8}  {:?}",
            r,
            outcome.arrival_ms,
            needs[r],
            outcome.queue_wait_ms(),
            outcome.ttft_ms(),
            outcome.attempts,
            outcome.tokens
        );
    }
    let kv = &report.kv;
    println!(
        "\npool: {} pages ({} KiB) | peak {} | evictions {} | shared {} | cow {} | leaked {}",
        kv.pool_blocks,
        kv.pool_bytes / 1024,
        kv.peak_used_blocks,
        kv.evictions,
        kv.shared_prefix_blocks,
        kv.cow_copies,
        kv.leaked_blocks
    );
    let evict_spans = report
        .timeline
        .entries()
        .iter()
        .filter(|s| s.meta.kind == ServeTaskKind::Evicted)
        .count();
    println!(
        "timeline: {:.1} ms makespan, {} eviction spans, {} total tokens at {:.1} tok/s",
        report.makespan_ms(),
        evict_spans,
        report.total_tokens(),
        report.tokens_per_s()
    );

    // The hard guarantees, asserted so CI fails loudly if they slip:
    // pressure really occurred, nothing leaked, and no stream moved.
    assert!(kv.evictions >= 1, "undersized pool never hit pressure");
    assert_eq!(kv.leaked_blocks, 0, "pages leaked");
    assert!(kv.peak_used_blocks <= pool_blocks, "pool budget exceeded");
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t.generate(
            &requests[r].prompt,
            Some(6),
            requests[r].max_new_tokens,
            &requests[r].sampler,
        )?;
        assert_eq!(
            outcome.tokens, solo,
            "request {r}'s stream changed under memory pressure"
        );
    }
    println!("\nall streams bit-identical to solo runs; zero pages leaked.");
    Ok(())
}
