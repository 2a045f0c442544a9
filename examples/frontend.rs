//! Long-running front-end demo: requests arrive over time (staggered
//! waves, all opening with the same system prompt), stream their
//! tokens live over per-request channels, and — because the serving
//! session keeps a **global radix prefix cache** over the paged pool —
//! every wave after the first reuses the system prompt's KV pages
//! instead of re-prefilling them, even though the request that
//! computed them is long finished.
//!
//! The demo prints per-wave prefix-hit statistics and asserts that the
//! session's peak page usage stays **strictly below** the no-sharing
//! worst case (every request holding private pages for its full
//! prompt), then flushes the session — proving zero pages leaked.
//!
//! A last, *late-arrival* wave shows a running round yielding to a new
//! submission: a short probe arrives as a long prompt's prefill starts,
//! the round is cut at a chunk boundary, the probe is served, and the
//! long prompt resumes from its cached pages. The demo asserts the
//! probe finished first, the cut happened, and both streams equal
//! their solo runs.
//!
//! ```sh
//! cargo run --example frontend
//! ```

use std::sync::{Arc, Mutex, OnceLock};
use std::thread;

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::frontend::{frontend, FrontendClient, StreamEvent, StreamHandle};
use llmnpu::core::serve::{
    GenerationRequest, PressurePolicy, RequestStatus, ServeOptions, TokenEvent,
};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::obs::render::{self, DEFAULT_WIDTH};
use llmnpu::obs::Observability;
use llmnpu::soc::spec::SocSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let numeric_cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96)?;
    let weights = synthesize(&numeric_cfg, 7, OutlierSpec::default())?;
    let float = FloatBackend::new(weights.clone());
    let t = Transformer::new(&weights, &float);

    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = 6;
    let engine = LlmNpuEngine::new(cfg)?;
    let chunk_len = engine.config().chunk_len;

    let opts = ServeOptions {
        max_active: 6,
        block_tokens: 4,
        kv_pool_blocks: Some(96),
        pressure: PressurePolicy::Wait,
        decode_batch: 4,
        share_prefixes: true,
        obs: Some(Observability::default()),
        ..ServeOptions::default()
    };
    let block_tokens = opts.block_tokens;
    let blocks_for = |tokens: usize| tokens.div_ceil(block_tokens);

    // Every request opens with the assistant's 24-token system prompt.
    let system: Vec<u32> = (0..24u32).map(|i| (i * 5 + 3) % 96).collect();
    let request = |stride: u32, suffix: usize, max_new: usize| {
        let mut p = system.clone();
        p.extend((0..suffix as u32).map(|i| (i * stride + 1) % 96));
        GenerationRequest::new(p, max_new)
    };

    // Wave 1 primes the cache; waves 2 and 3 arrive after it finished,
    // so their only source of reuse is the session's global cache.
    let waves: Vec<Vec<GenerationRequest>> = vec![
        vec![request(7, 4, 4)],
        vec![request(11, 6, 4), request(13, 2, 5), request(17, 9, 3)],
        vec![request(19, 3, 4), request(23, 7, 3), request(29, 5, 4)],
    ];
    let private_worst: usize = waves
        .iter()
        .flatten()
        .map(|r| blocks_for(r.total_tokens()))
        .sum();

    let (client, fe) = frontend(opts.clone());
    let report = thread::scope(|s| {
        let serving = s.spawn(|| fe.run(&engine, &t));
        for (w, wave) in waves.iter().enumerate() {
            // Submit the whole wave, then drain each stream live — the
            // next wave only starts once this one is fully answered,
            // so its reuse can only come from the cache.
            let handles: Vec<_> = wave
                .iter()
                .map(|r| client.submit(r.clone()).expect("front-end alive"))
                .collect();
            for (h, r) in handles.into_iter().zip(wave) {
                let id = h.id();
                let mut stream = Vec::new();
                while let Some(ev) = h.recv() {
                    match ev {
                        StreamEvent::Token { token, .. } => stream.push(token),
                        StreamEvent::Finished { outcome } => {
                            assert!(matches!(outcome.status, RequestStatus::Completed));
                            assert_eq!(stream, outcome.tokens, "live stream == outcome");
                            println!(
                                "wave {w} req {id}: {} prompt tokens -> streamed {:?} (ttft {:.1} ms)",
                                r.prompt.len(),
                                stream,
                                outcome.ttft_ms()
                            );
                        }
                    }
                }
            }
        }
        client.shutdown();
        serving.join().expect("serving thread panicked")
    })?;

    println!(
        "\n{} requests in {} rounds: {} completed | prefix cache: {} hits, \
         {} tokens + {} pages reused, {} pages inserted",
        report.requests,
        report.batches,
        report.completed,
        report.cache.hits,
        report.cache.hit_tokens,
        report.cache.hit_blocks,
        report.cache.inserted_blocks,
    );
    println!(
        "peak pool usage {} pages vs {} pages private worst case | flushed {} cached pages, zero leaks",
        report.peak_used_blocks, private_worst, report.flushed_blocks,
    );
    // The session's metrics registry is the single source both the
    // latency line and the depth lane below render from.
    if let Some(ttft) = report.metrics.histograms.get("serve.ttft_ms") {
        println!(
            "metrics: {} completed | ttft mean {:.1} ms p90 <= {:.1} ms | queue wait mean {:.1} ms",
            report.metrics.counter("serve.completed"),
            ttft.mean(),
            ttft.quantile(0.90),
            report
                .metrics
                .histograms
                .get("serve.queue_wait_ms")
                .map_or(0.0, |h| h.mean()),
        );
    }
    if report.serve_ms > 0.0 && !report.queue_depth.is_empty() {
        println!(
            "queue depth over serialized serve time: {}",
            render::depth_row(&report.queue_depth, report.serve_ms, DEFAULT_WIDTH)
        );
    }

    assert!(
        report.cache.hits as usize >= report.requests - 1,
        "every request after the first shares the system prompt and must hit the cache"
    );
    assert!(
        report.peak_used_blocks < private_worst,
        "caching must beat the no-sharing worst case ({} >= {})",
        report.peak_used_blocks,
        private_worst
    );
    println!("asserts passed: cache hits on every follow-up wave, peak below private worst case.");

    late_arrival(&engine, &t, &opts, chunk_len)?;
    Ok(())
}

/// The late-arrival wave, on a session with one slot: an opener and a
/// long prompt form one round, and the opener's first token submits a
/// probe — so the probe is pending as the long prompt's prefill starts
/// (it waits for the slot), and the round is cut at a chunk boundary.
/// The next round holds the probe first and the resumed long prompt
/// behind it.
fn late_arrival(
    engine: &LlmNpuEngine,
    t: &Transformer<'_>,
    opts: &ServeOptions,
    chunk_len: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let opener = GenerationRequest::new((0..5u32).map(|i| (i * 3 + 2) % 96).collect(), 2);
    let long = GenerationRequest::new((0..90u32).map(|i| (i * 7 + 5) % 96).collect(), 4);
    let probe = GenerationRequest::new((0..8u32).map(|i| (i * 11 + 1) % 96).collect(), 4);

    let client_cell: Arc<OnceLock<FrontendClient>> = Arc::default();
    let probe_cell: Arc<Mutex<Option<StreamHandle>>> = Arc::default();
    let sink = {
        let (client_cell, probe_cell, probe) = (
            Arc::clone(&client_cell),
            Arc::clone(&probe_cell),
            probe.clone(),
        );
        Arc::new(move |ev: &TokenEvent| {
            let mut slot = probe_cell.lock().unwrap_or_else(|e| e.into_inner());
            if ev.step == 0 && slot.is_none() {
                if let Some(client) = client_cell.get() {
                    *slot = client.submit(probe.clone()).ok();
                }
            }
        })
    };
    let late_opts = ServeOptions {
        max_active: 1,
        on_token: Some(sink),
        obs: None,
        ..opts.clone()
    };
    let (client, fe) = frontend(late_opts);
    let opener_handle = client.submit(opener)?;
    let long_handle = client.submit(long.clone())?;
    let _ = client_cell.set(client.clone());
    let (long_outcome, probe_outcome, report) = thread::scope(|s| {
        let serving = s.spawn(|| fe.run(engine, t));
        let _ = opener_handle.wait();
        // When the long prompt's Finished arrives, the probe's must
        // already be there: it was answered first.
        let long_outcome = long_handle.wait().expect("long prompt answered");
        let probe_handle = probe_cell
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .expect("the opener's first token submitted the probe");
        let mut probe_outcome = None;
        while let Some(ev) = probe_handle.try_recv() {
            if let StreamEvent::Finished { outcome } = ev {
                probe_outcome = Some(outcome);
            }
        }
        client.shutdown();
        let report = serving.join().expect("serving thread panicked");
        (long_outcome, probe_outcome, report)
    });
    let report = report?;
    let probe_outcome = probe_outcome.expect("the probe finished before the long prompt");
    println!(
        "\nlate arrival: probe of {} tokens answered in {} round(s) while a {}-token prompt \
         prefilled ({} suspension(s)); probe ttft {:.1} ms",
        probe.prompt.len(),
        report.batches,
        long.prompt.len(),
        report.suspensions,
        probe_outcome.ttft_ms(),
    );
    assert!(
        report.suspensions >= 1,
        "the probe must cut the long prefill"
    );
    for (outcome, r) in [(&long_outcome, &long), (&probe_outcome, &probe)] {
        assert!(matches!(outcome.status, RequestStatus::Completed));
        let solo = t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)?;
        assert_eq!(outcome.tokens, solo, "a cut stream must equal its solo run");
    }
    println!("asserts passed: probe first, prefill cut and resumed, both streams equal solo.");
    Ok(())
}
