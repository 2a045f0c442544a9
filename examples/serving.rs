//! Continuous-batching serving demo: a Poisson queue of generation
//! requests served on llm.npu's shadow-outlier int8 backend over the
//! engine's worker-pool lanes, with per-request prefill DAGs and decode
//! chains interleaving under the out-of-order policy and same-step
//! decodes stacked into cohorts — then the same queue served
//! single-stream (admission cap 1) for comparison.
//!
//! ```sh
//! cargo run --example serving
//! ```

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{
    decode_interleaved_with_prefill, GenerationRequest, ServeOptions, ServeReport, ServeTaskKind,
};
use llmnpu::model::backend::{FloatBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::obs::render::{self, DEFAULT_WIDTH};
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;
use llmnpu::workloads::traces::ArrivalTrace;

fn print_report(report: &ServeReport) {
    println!(
        "{:>3}  {:>7}  {:>9}  {:>9}  {:>9}  {:>10}  tokens",
        "req", "arrive", "wait(ms)", "ttft(ms)", "done(ms)", "dec tok/s"
    );
    for r in &report.requests {
        println!(
            "{:>3}  {:>7.1}  {:>9.2}  {:>9.2}  {:>9.2}  {:>10.1}  {:?}",
            r.request,
            r.arrival_ms,
            r.queue_wait_ms(),
            r.ttft_ms(),
            r.finish_ms,
            r.decode_tokens_per_s(),
            r.tokens
        );
    }
    println!(
        "batch: {} tokens in {:.1} ms = {:.1} tok/s aggregate | mean TTFT {:.1} ms | mean wait {:.1} ms",
        report.total_tokens(),
        report.makespan_ms(),
        report.tokens_per_s(),
        report.mean_ttft_ms(),
        report.mean_queue_wait_ms()
    );
    println!(
        "kv: peak {}/{} pages | leaked {} | prefix cache: {} hits / {} misses, \
         {} tokens + {} pages reused, {} pages evicted",
        report.kv.peak_used_blocks,
        report.kv.pool_blocks,
        report.kv.leaked_blocks,
        report.kv.prefix_cache_hits,
        report.kv.prefix_cache_misses,
        report.kv.prefix_cache_hit_tokens,
        report.kv.prefix_cache_hit_blocks,
        report.kv.prefix_cache_evictions,
    );
    // Queue depth over time: requests arrived but not yet terminal,
    // rendered as a one-line depth profile over the run's makespan.
    let span = report.makespan_ms();
    if span > 0.0 && !report.queue_depth.is_empty() {
        println!(
            "queue depth (peak {}): {}",
            report.peak_queue_depth(),
            render::depth_row(&report.queue_depth, span, DEFAULT_WIDTH)
        );
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled-down numeric model (the real GEMMs) under the full
    // engine's scheduling machinery.
    let numeric_cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96)?;
    let weights = synthesize(&numeric_cfg, 7, OutlierSpec::default())?;

    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = 6;
    let engine = LlmNpuEngine::new(cfg)?;

    // Six requests off a seeded Poisson trace: mixed prompt lengths,
    // decode budgets, and sampling strategies.
    let trace = ArrivalTrace::poisson(11, 200.0, 6);
    let shapes: [(usize, usize); 6] = [(24, 6), (6, 10), (30, 4), (12, 8), (8, 8), (36, 3)];
    let requests: Vec<GenerationRequest> = shapes
        .iter()
        .zip(&trace.arrivals_ms)
        .enumerate()
        .map(|(i, (&(prompt_len, max_new), &arrival))| {
            GenerationRequest::synthetic(i, prompt_len, max_new, numeric_cfg.vocab)
                .with_arrival_ms(arrival)
        })
        .collect();

    // The paper's backend, calibrated on the queue's own prompts; every
    // site keeps its shadow path, so every outlier takes the float half.
    let float = FloatBackend::new(weights.clone());
    let prompts: Vec<Vec<u32>> = requests.iter().map(|r| r.prompt.clone()).collect();
    let calibration = Transformer::new(&weights, &float).calibrate(&prompts)?;
    let shadow = ShadowBackend::new(&weights, &calibration, 0.997, 0.0)?;
    let t = Transformer::new(&weights, &shadow);

    println!(
        "=== continuous batching | {} requests, Poisson arrivals, {} pool lanes, \
         max_active 3, decode_batch 3, shadow-int8 ===",
        requests.len(),
        engine.pool().workers()
    );
    let batched = engine.serve(
        &t,
        &requests,
        &ServeOptions {
            max_active: 3,
            decode_batch: 3,
            ..ServeOptions::default()
        },
    )?;
    print_report(&batched);

    // The unified timeline: digits are the request of a prefill task,
    // 'd' marks decode steps — the interleave is visible directly.
    let span = batched.timeline.makespan();
    println!("\n--- unified timeline (digits = request's prefill, d = decode) ---");
    for proc in [Processor::Npu, Processor::Cpu] {
        let spans: Vec<(f64, f64, char)> = batched
            .timeline
            .entries()
            .iter()
            .filter(|s| s.processor == proc)
            .map(|s| {
                let glyph = if s.meta.kind.is_decode() {
                    'd'
                } else {
                    char::from_digit(s.meta.request as u32 % 10, 10).unwrap_or('#')
                };
                (s.start, s.end, glyph)
            })
            .collect();
        println!("{proc}: {}", render::lane_row(&spans, span, DEFAULT_WIDTH));
    }
    println!(
        "decode interleaved with another request's prefill: {}",
        decode_interleaved_with_prefill(&batched.timeline)
    );
    let cohort_steps = batched
        .timeline
        .entries()
        .iter()
        .filter(|s| matches!(s.meta.kind, ServeTaskKind::Decode { width, .. } if width > 1))
        .count();
    println!("batched decode steps (cohorts of 2-3 requests): {cohort_steps}");
    assert!(cohort_steps > 0, "decode cohorts must engage");

    println!("\n=== same queue, single-stream (max_active 1) ===");
    let single = engine.serve(
        &t,
        &requests,
        &ServeOptions {
            max_active: 1,
            ..ServeOptions::default()
        },
    )?;
    print_report(&single);

    for (a, b) in batched.requests.iter().zip(&single.requests) {
        assert_eq!(
            a.tokens, b.tokens,
            "per-request streams must be bit-identical across batching modes"
        );
    }
    println!(
        "\nbatched {:.1} ms vs single-stream {:.1} ms makespan; token streams bit-identical.",
        batched.makespan_ms(),
        single.makespan_ms()
    );
    Ok(())
}
