//! Streaming front-end + session/prefix-cache integration: requests
//! submitted over time through [`llmnpu::core::frontend`] stream
//! tokens bit-identical to their solo runs; a shared system prompt is
//! prefilled once per session and *re-used from the global radix
//! cache* by later batches whose donor is long gone; cancellation
//! works mid-stream; and a trace-replay soak (heavy-tail lengths,
//! bursty arrivals, thousands of requests) finishes with zero leaked
//! pages, bounded pool usage, and sampled stream identity.

use std::thread;

use proptest::prelude::*;

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::frontend::{frontend, StreamEvent};
use llmnpu::core::serve::{
    GenerationRequest, PressurePolicy, RequestStatus, ServeOptions, ServeSession,
};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::soc::spec::SocSpec;
use llmnpu::workloads::traces::ChatTrace;

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn engine(chunk_len: usize, pool_workers: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    cfg.pool_workers = pool_workers;
    LlmNpuEngine::new(cfg).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * stride + 3) % 96).collect()
}

fn solo(t: &Transformer<'_>, r: &GenerationRequest, chunk_len: usize) -> Vec<u32> {
    t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
        .unwrap()
}

fn serve_opts() -> ServeOptions {
    ServeOptions {
        max_active: 4,
        block_tokens: 4,
        kv_pool_blocks: Some(96),
        pressure: PressurePolicy::Wait,
        decode_batch: 4,
        share_prefixes: true,
        ..ServeOptions::default()
    }
}

/// The tentpole pin: two *waves* of requests submitted to a running
/// front-end, every stream bit-identical to its solo run, and — with
/// the wave-1 producers long finished — wave 2 hits the global prefix
/// cache on the shared system prompt with **no donor declaration**.
#[test]
fn frontend_streams_are_bit_identical_and_wave_two_hits_the_cache() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 2);

    let system = tokens(12, 5);
    let req = |suffix: Vec<u32>, max_new: usize| {
        let mut p = system.clone();
        p.extend(suffix);
        GenerationRequest::new(p, max_new)
    };
    let wave1 = vec![req(tokens(5, 7), 4), req(tokens(3, 11), 3)];
    let wave2 = vec![
        req(tokens(6, 13), 4),
        req(tokens(2, 17), 3),
        req(tokens(9, 19), 2),
    ];
    let expect: Vec<Vec<u32>> = wave1
        .iter()
        .chain(wave2.iter())
        .map(|r| solo(&t, r, chunk_len))
        .collect();

    let (client, fe) = frontend(serve_opts());
    let report = thread::scope(|s| {
        let loop_thread = s.spawn(|| fe.run(&eng, &t).unwrap());

        let mut streams = Vec::new();
        for wave in [wave1, wave2] {
            // Submit the wave, then drain every stream to completion —
            // so the next wave is a *fresh batch* whose only source of
            // prefix reuse is the session's global cache.
            let handles: Vec<_> = wave
                .into_iter()
                .map(|r| client.submit(r).unwrap())
                .collect();
            for h in handles {
                let mut tokens_seen = Vec::new();
                let mut outcome = None;
                while let Some(ev) = h.recv() {
                    match ev {
                        StreamEvent::Token { step, token } => {
                            assert_eq!(step, tokens_seen.len(), "stream order");
                            tokens_seen.push(token);
                        }
                        StreamEvent::Finished { outcome: o } => {
                            outcome = Some(o);
                        }
                    }
                }
                let outcome = outcome.expect("terminal outcome");
                assert!(matches!(outcome.status, RequestStatus::Completed));
                assert_eq!(tokens_seen, outcome.tokens, "live stream == outcome");
                streams.push(tokens_seen);
            }
        }
        client.shutdown();
        let report = loop_thread.join().unwrap();
        for (i, (got, want)) in streams.iter().zip(expect.iter()).enumerate() {
            assert_eq!(got, want, "request {i}: batched stream != solo");
        }
        report
    });

    assert!(report.batches >= 2, "two waves => at least two batches");
    assert_eq!(report.requests, 5);
    assert_eq!(report.completed, 5);
    assert!(
        report.cache.hits >= 1,
        "wave 2 shares the system prompt with a *finished* wave-1 request: \
         only the global cache can serve it (hits = {})",
        report.cache.hits
    );
    assert!(report.cache.hit_blocks >= 1, "cached pages were reused");
    assert_eq!(
        report.peak_used_blocks,
        report.peak_used_blocks.min(96),
        "bounded by the pool"
    );
    // The flush proof ran inside run(): flushed pages are exactly what
    // the cache still held, and the pool ended empty.
    assert!(
        report.flushed_blocks >= 1,
        "session cache held the system prompt"
    );
}

/// Cancelling through the stream handle mid-run ends that stream in
/// `Cancelled` while its neighbor completes bit-identical — and the
/// session still flushes leak-free.
#[test]
fn frontend_cancellation_is_contained_to_its_stream() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 1);

    let victim = GenerationRequest::new(tokens(10, 7), 6);
    let survivor = GenerationRequest::new(tokens(6, 11), 4);
    let survivor_solo = solo(&t, &survivor, chunk_len);

    let (client, fe) = frontend(serve_opts());
    let report = thread::scope(|s| {
        let loop_thread = s.spawn(|| fe.run(&eng, &t).unwrap());
        let vh = client.submit(victim).unwrap();
        // Cancel before the batch forms: deterministic — the dispatch
        // gate skips every task of the victim.
        vh.cancel();
        let sh = client.submit(survivor).unwrap();
        let v = vh.wait().expect("victim outcome");
        let sv = sh.wait().expect("survivor outcome");
        client.shutdown();
        let report = loop_thread.join().unwrap();
        assert!(
            matches!(v.status, RequestStatus::Cancelled),
            "{:?}",
            v.status
        );
        assert!(matches!(sv.status, RequestStatus::Completed));
        assert_eq!(sv.tokens, survivor_solo);
        report
    });
    assert_eq!(report.cancelled, 1);
    assert_eq!(report.completed, 1);
}

/// A malformed or unservable submit is answered to its own submitter
/// and never reaches the serving loop: requests submitted before and
/// after it stream bit-identical to solo, `run` returns `Ok`, and the
/// session flushes leak-free. (Before submit-time validation each of
/// these failed the whole batch inside `run`: the loop exited, every
/// batch-mate's stream ended without `Finished`, no flush ran.) The one
/// input error `submit` cannot see — a prompt token outside the model's
/// vocabulary — is accepted and then answered by the loop itself, as
/// `Failed` on that stream alone.
#[test]
fn frontend_refuses_a_bad_submit_and_keeps_serving() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 2);

    let good = [
        GenerationRequest::new(tokens(9, 7), 4),
        GenerationRequest::new(tokens(5, 11), 3),
    ];
    let expect: Vec<Vec<u32>> = good.iter().map(|r| solo(&t, r, chunk_len)).collect();
    // 96 pages of 4 tokens: a 400-token worst case cannot fit even alone.
    let bad = [
        GenerationRequest::new(Vec::new(), 4),
        GenerationRequest::new(tokens(4, 5), 0),
        GenerationRequest::new(tokens(4, 5), 2).with_deadline_ms(f64::NAN),
        GenerationRequest::new(tokens(4, 5), 2).with_arrival_ms(-1.0),
        GenerationRequest::new(tokens(390, 5), 10),
    ];
    // `submit` cannot see the vocabulary: this one is accepted, and the
    // serving loop must answer it alone instead of dying on it.
    let mut out_of_vocab = tokens(6, 3);
    out_of_vocab[4] = w.config.vocab as u32;

    let (client, fe) = frontend(serve_opts());
    let report = thread::scope(|s| {
        let loop_thread = s.spawn(|| fe.run(&eng, &t));
        let first = client.submit(good[0].clone()).unwrap();
        for b in &bad {
            assert!(client.submit(b.clone()).is_err(), "accepted {b:?}");
        }
        let oov = client
            .submit(GenerationRequest::new(out_of_vocab, 3))
            .unwrap();
        let second = client.submit(good[1].clone()).unwrap();
        let streams = [first, second].map(|h| h.wait().expect("stream finishes"));
        let oov = oov.wait().expect("out-of-vocab stream finishes");
        assert!(matches!(oov.status, RequestStatus::Failed { .. }));
        assert!(oov.tokens.is_empty());
        client.shutdown();
        for (got, want) in streams.iter().zip(&expect) {
            assert!(matches!(got.status, RequestStatus::Completed));
            assert_eq!(&got.tokens, want, "good stream != solo");
        }
        loop_thread.join().unwrap()
    })
    .expect("a refused submit must not fail the serving loop");

    assert_eq!(report.requests, 3, "refused submits were never served");
    assert_eq!(report.completed, 2);
    assert_eq!(
        report.failed, 1,
        "the out-of-vocab prompt, on its own stream"
    );
    // `run` only returns Ok after the flush proved the pool empty.
    assert!(report.flushed_blocks >= 1, "served prompts were cached");
}

/// Trace-replay soak: a seeded multi-tenant chat trace (shared system
/// prompts, heavy-tail suffix lengths, bursty arrivals) replayed
/// through one long-lived session in arrival-order batches. Pins:
/// zero leaked pages after every batch *and* after the final flush,
/// pool usage bounded by the configured budget throughout, the global
/// cache actually hit (system prompts prefilled once per session, not
/// once per request), and a sampled subset of streams bit-identical
/// to solo `generate`.
fn soak(n: usize, batch: usize, pool_blocks: usize) {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 4;
    let eng = engine(chunk_len, 2);

    let trace = ChatTrace::shared_system_prompts(29, n, 4, 12, 2, 40, 96, 5.0);
    let opts = ServeOptions {
        max_active: 4,
        block_tokens: 4,
        kv_pool_blocks: Some(pool_blocks),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 4,
        share_prefixes: true,
        ..ServeOptions::default()
    };
    let session: ServeSession = eng.open_serve_session(&t, &opts).unwrap();

    let mut served = 0usize;
    let mut completed = 0usize;
    let mut peak = 0usize;
    let mut sampled = Vec::new();
    for (b, chunk) in trace.prompts.chunks(batch).enumerate() {
        let base = b * batch;
        let requests: Vec<GenerationRequest> = chunk
            .iter()
            .enumerate()
            .map(|(i, p)| {
                // Replay arrivals relative to the batch's first arrival
                // so every batch starts its own clock at ~zero.
                let t0 = trace.arrivals_ms[base];
                GenerationRequest::new(p.tokens.clone(), p.max_new_tokens)
                    .with_arrival_ms(trace.arrivals_ms[base + i] - t0)
            })
            .collect();
        let report = eng
            .serve_with_session(&t, &requests, &opts, &session)
            .unwrap();
        assert_eq!(
            report.kv.leaked_blocks, 0,
            "batch {b}: leaked pages (cache-resident pages are not leaks)"
        );
        assert!(
            report.kv.peak_used_blocks <= pool_blocks,
            "batch {b}: peak {} blew the {pool_blocks}-page budget",
            report.kv.peak_used_blocks
        );
        peak = peak.max(report.kv.peak_used_blocks);
        for o in &report.requests {
            served += 1;
            if matches!(o.status, RequestStatus::Completed) {
                completed += 1;
                // Sample ~1% for the expensive solo-identity check.
                if (base + o.request).is_multiple_of(97) {
                    sampled.push((requests[o.request].clone(), o.tokens.clone()));
                }
            }
        }
    }
    let metrics = session.cache_metrics();
    let flushed = session.flush().unwrap();

    assert_eq!(served, n, "every request reached a terminal status");
    assert!(
        completed * 10 >= n * 9,
        "soak should mostly complete: {completed}/{n}"
    );
    assert!(
        metrics.hits as usize >= n / 4,
        "shared system prompts must hit the session cache (hits = {})",
        metrics.hits
    );
    assert!(metrics.hit_blocks >= 1 && flushed >= 1);
    assert!(peak <= pool_blocks, "bounded memory: peak {peak}");
    assert!(!sampled.is_empty(), "sampling must cover the soak");
    for (i, (r, stream)) in sampled.iter().enumerate() {
        assert_eq!(
            stream,
            &solo(&t, r, chunk_len),
            "sampled request {i}: batched stream != solo"
        );
    }
}

/// Radix-cache lifecycle through a live session: a cold cached prefix
/// is evicted when a fat unrelated request needs its pages, the next
/// same-prefix request misses (and re-inserts), and the one after
/// that hits again — with every stream bit-identical throughout.
#[test]
fn cached_prefix_evicted_under_pressure_then_reinserted_and_hit() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 4;
    let eng = engine(chunk_len, 2);

    let opts = ServeOptions {
        max_active: 2,
        block_tokens: 4,
        kv_pool_blocks: Some(12),
        pressure: PressurePolicy::Wait,
        decode_batch: 2,
        share_prefixes: true,
        ..ServeOptions::default()
    };
    let session = eng.open_serve_session(&t, &opts).unwrap();
    let system = tokens(12, 5);
    let with_suffix = |stride: u32, extra: usize, max_new: usize| {
        let mut p = system.clone();
        p.extend(tokens(extra, stride).iter().map(|&x| (x + 1) % 96));
        GenerationRequest::new(p, max_new)
    };

    // Batch 1: prefill the system prompt; its pages stay cached.
    let a = with_suffix(7, 2, 3);
    let ra = eng
        .serve_with_session(&t, std::slice::from_ref(&a), &opts, &session)
        .unwrap();
    assert_eq!(ra.requests[0].tokens, solo(&t, &a, chunk_len));
    assert!(session.cached_blocks() >= 3, "system prompt pages cached");

    // Batch 2: an unrelated request needs all 12 pages — the planner
    // must evict the entire cold cached prefix to fit it. Its first
    // token differs from the system prompt's, so the lookup cannot
    // claim (and thereby pin) any cached page with a tail match.
    let fat = GenerationRequest::new((0..44u32).map(|i| (i * 13 + 7) % 96).collect(), 4);
    let rb = eng
        .serve_with_session(&t, std::slice::from_ref(&fat), &opts, &session)
        .unwrap();
    assert_eq!(rb.requests[0].tokens, solo(&t, &fat, chunk_len));
    assert!(
        rb.kv.prefix_cache_evictions >= 1,
        "pressure must evict the cached prefix (evictions = {})",
        rb.kv.prefix_cache_evictions
    );

    // Batch 3: same system prompt — a miss now, but it re-inserts...
    let c = with_suffix(11, 3, 3);
    let rc = eng
        .serve_with_session(&t, std::slice::from_ref(&c), &opts, &session)
        .unwrap();
    assert_eq!(rc.requests[0].tokens, solo(&t, &c, chunk_len));
    assert!(rc.kv.prefix_cache_misses >= 1);

    // ...so batch 4 hits again.
    let d = with_suffix(17, 4, 2);
    let rd = eng
        .serve_with_session(&t, std::slice::from_ref(&d), &opts, &session)
        .unwrap();
    assert_eq!(rd.requests[0].tokens, solo(&t, &d, chunk_len));
    assert!(
        rd.kv.prefix_cache_hits >= 1 && rd.kv.prefix_cache_hit_blocks >= 1,
        "re-inserted prefix must be reusable: {:?} hits",
        rd.kv.prefix_cache_hits
    );

    session.flush().unwrap();
}

/// Interleaved insert/lookup determinism: the same multi-batch session
/// workload — where one batch's prefill-completion inserts race
/// another request's lookups on the executor lanes — replayed twice
/// produces identical streams, identical cache counters, and an
/// identical pool high-water mark. CI's determinism loop re-runs this
/// at `LLMNPU_POOL_WORKERS` 1–4.
#[test]
fn session_cache_interleaving_is_deterministic() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 4);

    let run = || {
        let trace = ChatTrace::shared_system_prompts(41, 48, 2, 8, 2, 24, 96, 4.0);
        let opts = serve_opts();
        let session = eng.open_serve_session(&t, &opts).unwrap();
        let mut streams = Vec::new();
        for chunk in trace.prompts.chunks(8) {
            let requests: Vec<GenerationRequest> = chunk
                .iter()
                .map(|p| GenerationRequest::new(p.tokens.clone(), p.max_new_tokens))
                .collect();
            let report = eng
                .serve_with_session(&t, &requests, &opts, &session)
                .unwrap();
            assert_eq!(report.kv.leaked_blocks, 0);
            for o in report.requests {
                streams.push((o.tokens, format!("{:?}", o.status)));
            }
        }
        let metrics = session.cache_metrics();
        let peak = session.pool_stats().peak_used_blocks;
        session.flush().unwrap();
        (streams, format!("{metrics:?}"), peak)
    };
    assert_eq!(run(), run(), "session replay must be bit-identical");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// S1 boundary property: prefix sharing at *any* alignment — the
    /// shared length need not be a multiple of the page size (full
    /// pages are ref-shared, the sub-page tail is row-copied). For
    /// arbitrary page sizes, common-prefix lengths, and suffixes, both
    /// streams stay bit-identical to solo runs, the planner shares
    /// exactly `cap / block_tokens` full pages (cap = the share length
    /// after the compute-at-least-one-token clamp), and nothing leaks.
    #[test]
    fn prop_unaligned_prefix_share_is_exact_and_bit_identical(
        bt in 2usize..=5,
        lcp in 1usize..=18,
        suffix_a in 0usize..=6,
        suffix_b in 0usize..=6,
        seed in 0u32..4,
    ) {
        let w = mini_model();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let chunk_len = 3;
        let eng = engine(chunk_len, 2);

        let common: Vec<u32> = (0..lcp as u32).map(|i| (i * 5 + 3 + seed) % 96).collect();
        let mut pa = common.clone();
        pa.extend((0..suffix_a as u32).map(|i| (i * 3 + 40) % 96));
        let mut pb = common.clone();
        pb.extend((0..suffix_b as u32).map(|i| (i * 7 + 90) % 96));
        let ra = GenerationRequest::new(pa.clone(), 3);
        let rb = GenerationRequest::new(pb.clone(), 2);

        let opts = ServeOptions {
            max_active: 2,
            block_tokens: bt,
            kv_pool_blocks: None,
            pressure: PressurePolicy::Wait,
            decode_batch: 2,
            share_prefixes: true,
            ..ServeOptions::default()
        };
        let rep = eng.serve(&t, &[ra.clone(), rb.clone()], &opts).unwrap();

        prop_assert_eq!(&rep.requests[0].tokens, &solo(&t, &ra, chunk_len));
        prop_assert_eq!(&rep.requests[1].tokens, &solo(&t, &rb, chunk_len));
        prop_assert_eq!(rep.kv.leaked_blocks, 0);

        // The planner's exact share arithmetic: request 1 forks request
        // 0's pages iff the clamped common prefix spans at least one
        // page; only whole pages are ref-shared.
        let real_lcp = pa.iter().zip(&pb).take_while(|(x, y)| x == y).count();
        let cap = real_lcp.min(pb.len() - 1);
        let expect = if cap >= bt { cap / bt } else { 0 };
        prop_assert_eq!(rep.kv.shared_prefix_blocks, expect);
    }
}

/// Tier-1 smoke version of the soak (seconds, debug-friendly).
#[test]
fn soak_smoke_replays_a_chat_trace_leak_free() {
    soak(256, 32, 64);
}

/// The full 10⁴-request soak — run by the CI `soak` job in release
/// (`cargo test --release -- --ignored soak_full`).
#[test]
#[ignore = "10^4-request soak; run in release via the CI soak job"]
fn soak_full_ten_thousand_requests_leak_free() {
    soak(10_000, 64, 64);
}
