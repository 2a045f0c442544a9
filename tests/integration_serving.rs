//! Continuous-batching serving tests: batched token streams must be
//! bit-identical to solo runs (same seed, same chunk length) at every
//! worker count and batch composition, per-request KV caches must be
//! isolated, and the unified timeline must demonstrate that decode
//! steps of in-flight requests interleave with prefill chunks of newly
//! admitted ones.

use std::sync::{Arc, Mutex};

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{
    decode_interleaved_with_prefill, evicted_and_recomputed, GenerationRequest, PressurePolicy,
    ServeOptions, ServeTaskKind, TokenEvent,
};
use llmnpu::model::backend::{FloatBackend, LutBackend, PerTensorBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::sample::SamplerConfig;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::sched::Policy;
use llmnpu::soc::spec::SocSpec;
use llmnpu::tensor::kernel::lut::lut_tables_built_global;

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * stride + 3) % 96).collect()
}

fn engine(chunk_len: usize, pool_workers: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    cfg.pool_workers = pool_workers;
    LlmNpuEngine::new(cfg).unwrap()
}

/// A mixed 5-request batch: different prompt lengths, strategies, and
/// seeds. The serving acceptance bar: every request's stream equals its
/// solo `Transformer::generate` run, at every worker count.
#[test]
fn batched_streams_bit_identical_to_solo_runs() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 6).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
        GenerationRequest::new(tokens(7, 11), 5).with_sampler(SamplerConfig::temperature(1.1, 9)),
        GenerationRequest::new(tokens(12, 3), 3).with_sampler(SamplerConfig::top_p(0.8, 0.7, 77)),
        GenerationRequest::new(tokens(5, 13), 4).with_sampler(SamplerConfig::top_k(4, 1.3, 1000)),
    ];
    let solo: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
                .unwrap()
        })
        .collect();

    for workers in [1usize, 2, 4] {
        let e = engine(chunk_len, workers);
        let report = e
            .serve(
                &t,
                &requests,
                &ServeOptions {
                    max_active: 3,
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        assert_eq!(report.requests.len(), requests.len());
        for (r, outcome) in report.requests.iter().enumerate() {
            assert_eq!(
                outcome.tokens, solo[r],
                "request {r} diverged from its solo run at {workers} workers"
            );
            assert_eq!(outcome.token_times_ms.len(), outcome.tokens.len());
            assert!(outcome.queue_wait_ms() >= 0.0);
            assert!(outcome.ttft_ms() > 0.0);
            assert!(outcome.prefill_done_ms <= outcome.finish_ms);
            // The stream is monotone in time.
            for pair in outcome.token_times_ms.windows(2) {
                assert!(pair[1] >= pair[0]);
            }
        }
        assert_eq!(report.total_tokens(), solo.iter().map(Vec::len).sum());
        assert!(report.tokens_per_s() > 0.0);
    }
}

/// The full serving stack on 4-bit weights: a `LutBackend` model must
/// serve end-to-end with every request's stream bit-identical to its
/// solo `Transformer::generate` run at every worker count (the LUT
/// drivers are row-wise, so cohort batching is stream-transparent),
/// and the decode loop must never materialize a lookup table.
#[test]
fn int4_backend_serves_with_stream_identity() {
    let w = mini_model();
    let be = LutBackend::int4(&w, 16).unwrap();
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 6).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
        GenerationRequest::new(tokens(7, 11), 5).with_sampler(SamplerConfig::temperature(1.1, 9)),
        GenerationRequest::new(tokens(12, 3), 3).with_sampler(SamplerConfig::top_p(0.8, 0.7, 77)),
    ];
    let solo: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
                .unwrap()
        })
        .collect();

    let builds0 = lut_tables_built_global();
    for workers in [1usize, 2, 4] {
        let e = engine(chunk_len, workers);
        let report = e
            .serve(
                &t,
                &requests,
                &ServeOptions {
                    max_active: 3,
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        for (r, outcome) in report.requests.iter().enumerate() {
            assert_eq!(
                outcome.tokens, solo[r],
                "int4 request {r} diverged from its solo run at {workers} workers"
            );
        }
        assert_eq!(report.total_tokens(), solo.iter().map(Vec::len).sum());
    }
    assert_eq!(
        lut_tables_built_global(),
        builds0,
        "serving on packed int4 weights materialized a lookup table"
    );
    // The packed model streams less than the i8 byte count (= element
    // count) of the same projections: the memory claim, end to end.
    let elems: usize = w
        .layers
        .iter()
        .map(|l| {
            l.wq.len()
                + l.wk.len()
                + l.wv.len()
                + l.wo.len()
                + l.w_gate.as_ref().map_or(0, |g| g.len())
                + l.w_up.len()
                + l.w_down.len()
        })
        .sum();
    assert!(be.weight_bytes() < elems, "int4 must beat i8 bytes");
}

/// Repeat batched runs are identical: scheduling noise must never leak
/// into any request's stream.
#[test]
fn serving_is_deterministic_across_repeat_runs() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(4, 3);
    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 5).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(tokens(6, 11), 5).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
    ];
    let first = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    for _ in 0..3 {
        let again = e
            .serve(
                &t,
                &requests,
                &ServeOptions {
                    max_active: 2,
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        for (a, b) in first.requests.iter().zip(&again.requests) {
            assert_eq!(a.tokens, b.tokens);
        }
    }
}

/// KV isolation: concurrent requests over the *same* prompt with
/// different seeds diverge exactly as their solo runs do, and identical
/// (prompt, seed) pairs stay identical — a cross-request cache leak
/// would break both.
#[test]
fn kv_caches_are_isolated_between_concurrent_requests() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    let prompt = tokens(8, 7);
    let cfg_a = SamplerConfig::temperature(1.2, 11);
    let cfg_b = SamplerConfig::temperature(1.2, 999);
    let requests = vec![
        GenerationRequest::new(prompt.clone(), 8).with_sampler(cfg_a.clone()),
        GenerationRequest::new(prompt.clone(), 8).with_sampler(cfg_b.clone()),
        GenerationRequest::new(prompt.clone(), 8).with_sampler(cfg_a.clone()),
        // A different prompt sharing the batch must not perturb anyone.
        GenerationRequest::new(tokens(11, 5), 6).with_sampler(cfg_a.clone()),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 4,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let solo_a = t.generate(&prompt, Some(3), 8, &cfg_a).unwrap();
    let solo_b = t.generate(&prompt, Some(3), 8, &cfg_b).unwrap();
    assert_eq!(report.requests[0].tokens, solo_a);
    assert_eq!(report.requests[1].tokens, solo_b);
    assert_eq!(report.requests[2].tokens, solo_a, "same seed, same stream");
    assert_ne!(
        report.requests[0].tokens, report.requests[1].tokens,
        "different seeds over one prompt should diverge"
    );
    assert_eq!(
        report.requests[3].tokens,
        t.generate(&tokens(11, 5), Some(3), 6, &cfg_a).unwrap()
    );
}

/// The continuous-batching payoff, measured on the unified timeline: a
/// short request admitted alongside a long prompt decodes *inside* the
/// long request's prefill window.
#[test]
fn decode_steps_interleave_with_prefill_chunks() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(4, 3);
    let requests = vec![
        // Short prompt, long decode: in flight early.
        GenerationRequest::new(tokens(4, 7), 12),
        // Long prompt: its prefill keeps the lanes busy for a while.
        GenerationRequest::new(tokens(40, 5), 2),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert!(
        decode_interleaved_with_prefill(&report.timeline),
        "no decode step ran inside another request's prefill window"
    );
    // Both phases really produced spans on the unified clock.
    let spans = report.timeline.entries();
    assert!(spans.iter().any(|s| s.meta.kind.is_decode()));
    assert!(spans.iter().any(|s| s.meta.kind.is_prefill()));
    assert!(report.timeline.makespan() > 0.0);
}

/// Arrival times gate dispatch: a request arriving late must not start
/// early, and its queue wait is measured from arrival.
#[test]
fn arrivals_are_release_times() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 2);
    let requests = vec![
        GenerationRequest::new(tokens(6, 7), 2),
        GenerationRequest::new(tokens(6, 11), 2).with_arrival_ms(30.0),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let late = &report.requests[1];
    assert!(
        late.first_dispatch_ms >= 30.0 - 1e-6,
        "late request dispatched at {:.3} ms before its 30 ms arrival",
        late.first_dispatch_ms
    );
    assert!(late.queue_wait_ms() >= -1e-6);
}

/// The admission cap is honored: with `max_active = 1`, request 1 may
/// not start until request 0 has fully finished (single-stream serving),
/// and the streams still match solo runs.
#[test]
fn admission_cap_serializes_requests() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    let requests = vec![
        GenerationRequest::new(tokens(6, 7), 3),
        GenerationRequest::new(tokens(6, 11), 3),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 1,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let r0 = &report.requests[0];
    let r1 = &report.requests[1];
    assert!(
        r1.first_dispatch_ms >= r0.finish_ms - 1e-6,
        "request 1 started at {:.3} ms before request 0 finished at {:.3} ms",
        r1.first_dispatch_ms,
        r0.finish_ms
    );
    assert!(!decode_interleaved_with_prefill(&report.timeline));
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo);
    }
}

/// Invalid requests and options are rejected up front.
#[test]
fn serve_rejects_invalid_inputs() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 2);
    let ok = GenerationRequest::new(tokens(4, 7), 2);

    assert!(e
        .serve(
            &t,
            std::slice::from_ref(&ok),
            &ServeOptions {
                max_active: 0,
                ..ServeOptions::default()
            }
        )
        .is_err());
    assert!(e
        .serve(
            &t,
            &[GenerationRequest::new(vec![], 2)],
            &ServeOptions::default()
        )
        .is_err());
    assert!(e
        .serve(
            &t,
            &[GenerationRequest::new(tokens(4, 7), 0)],
            &ServeOptions::default()
        )
        .is_err());
    assert!(e
        .serve(
            &t,
            &[ok.clone().with_arrival_ms(f64::NAN)],
            &ServeOptions::default()
        )
        .is_err());
    // The empty queue is a no-op, not an error.
    let empty = e.serve(&t, &[], &ServeOptions::default()).unwrap();
    assert!(empty.requests.is_empty());
    assert_eq!(empty.total_tokens(), 0);
}

// ---------------------------------------------------------------------------
// Paged KV-cache serving: memory-pressure eviction, prefix sharing,
// batched decode GEMMs, streaming sinks, and zero-leak accounting.
// ---------------------------------------------------------------------------

/// Every serving configuration must leave the pool empty and every
/// stream bit-identical to its solo run — across page sizes, pressure
/// policies, decode-batch widths, worker counts, and scheduling
/// policies. This is the paged determinism matrix CI loops.
#[test]
fn paged_options_never_change_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 6).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
        GenerationRequest::new(tokens(7, 11), 5).with_sampler(SamplerConfig::temperature(1.1, 9)),
    ];
    let solo: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
                .unwrap()
        })
        .collect();

    for policy in [Policy::Serial, Policy::FifoQueues, Policy::OutOfOrder] {
        for workers in [1usize, 3] {
            for decode_batch in [1usize, 3] {
                for block_tokens in [2usize, 16] {
                    let mut cfg = EngineConfig::llmnpu(
                        ModelConfig::qwen15_18b(),
                        SocSpec::snapdragon_8gen3(),
                    );
                    cfg.chunk_len = chunk_len;
                    cfg.pool_workers = workers;
                    cfg.policy = policy;
                    let e = LlmNpuEngine::new(cfg).unwrap();
                    let opts = ServeOptions {
                        max_active: 3,
                        block_tokens,
                        decode_batch,
                        ..ServeOptions::default()
                    };
                    let report = e.serve(&t, &requests, &opts).unwrap();
                    for (r, outcome) in report.requests.iter().enumerate() {
                        assert_eq!(
                            outcome.tokens, solo[r],
                            "request {r} diverged ({policy:?}, {workers}w, \
                             batch {decode_batch}, pages of {block_tokens})"
                        );
                    }
                    assert_eq!(report.kv.leaked_blocks, 0, "pages leaked");
                }
            }
        }
    }
}

/// Memory pressure with `EvictYoungest`: a pool too small for three
/// concurrent requests preempts the youngest, requeues it, recomputes
/// its prefill — and its stream still matches the solo run exactly.
#[test]
fn eviction_recomputes_without_changing_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    // 8 + 4 = 12 tokens per request; 4-token pages → 3 pages each. A
    // 6-page pool fits two requests, so the third admission preempts.
    let requests = vec![
        GenerationRequest::new(tokens(8, 7), 4),
        GenerationRequest::new(tokens(8, 11), 4).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(tokens(8, 13), 4).with_sampler(SamplerConfig::temperature(1.2, 9)),
    ];
    let opts = ServeOptions {
        max_active: 8,
        block_tokens: 4,
        kv_pool_blocks: Some(6),
        pressure: PressurePolicy::EvictYoungest,
        share_prefixes: false,
        ..ServeOptions::default()
    };
    let report = e.serve(&t, &requests, &opts).unwrap();
    assert!(report.kv.evictions >= 1, "pressure never triggered");
    let victim = report
        .requests
        .iter()
        .find(|r| r.attempts > 1)
        .expect("some request was preempted and recomputed");
    assert!(
        evicted_and_recomputed(&report.timeline, victim.request),
        "timeline missing the preemption witness"
    );
    // The eviction and the recompute both left spans on the clock.
    assert!(report
        .timeline
        .entries()
        .iter()
        .any(|s| s.meta.kind == ServeTaskKind::Evicted));
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo, "request {r} diverged after eviction");
    }
    assert_eq!(report.kv.leaked_blocks, 0);
    assert!(report.kv.peak_used_blocks <= 6, "pool budget exceeded");

    // Under `Wait` the same pool serializes instead of evicting — same
    // streams, zero evictions.
    let wait = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                pressure: PressurePolicy::Wait,
                ..opts.clone()
            },
        )
        .unwrap();
    assert_eq!(wait.kv.evictions, 0);
    for (a, b) in report.requests.iter().zip(&wait.requests) {
        assert_eq!(a.tokens, b.tokens);
    }
}

/// Prefix sharing: requests with a block-aligned common prompt prefix
/// allocate it once (ref-counted pages), prefill only their suffixes,
/// and still produce bit-identical streams.
#[test]
fn shared_prefixes_allocate_once_and_keep_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    // Identical 12-token system prefix (lcm(block 3, chunk 3) aligned),
    // different tails, different samplers.
    let prefix = tokens(12, 7);
    let mut p1 = prefix.clone();
    p1.extend_from_slice(&[1, 2, 3]);
    let mut p2 = prefix.clone();
    p2.extend_from_slice(&[60, 61]);
    let requests = vec![
        GenerationRequest::new(p1, 4),
        GenerationRequest::new(p2, 4).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
    ];
    let opts = ServeOptions {
        max_active: 2,
        block_tokens: 3,
        share_prefixes: true,
        ..ServeOptions::default()
    };
    let report = e.serve(&t, &requests, &opts).unwrap();
    assert!(
        report.kv.shared_prefix_blocks >= 4,
        "12 shared tokens at 3-token pages should share 4 blocks, got {}",
        report.kv.shared_prefix_blocks
    );
    // Sharing must shrink the peak footprint below two private caches.
    let private_need: usize = requests
        .iter()
        .map(|r| (r.prompt.len() + r.max_new_tokens).div_ceil(3))
        .sum();
    assert!(
        report.kv.peak_used_blocks < private_need,
        "peak {} should be below the private worst case {private_need}",
        report.kv.peak_used_blocks
    );
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo, "request {r} diverged under sharing");
    }
    assert_eq!(report.kv.leaked_blocks, 0);

    // Turning sharing off costs the full private footprint.
    let unshared = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                share_prefixes: false,
                ..opts.clone()
            },
        )
        .unwrap();
    assert_eq!(unshared.kv.shared_prefix_blocks, 0);
    assert_eq!(unshared.kv.peak_used_blocks, private_need);
    for (a, b) in report.requests.iter().zip(&unshared.requests) {
        assert_eq!(a.tokens, b.tokens);
    }
}

/// Batched decode: same-position steps of concurrent requests run as
/// one m=B task (visible in the timeline), with streams unchanged.
#[test]
fn batched_decode_stacks_steps_without_changing_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    let requests = vec![
        GenerationRequest::new(tokens(6, 7), 5),
        GenerationRequest::new(tokens(9, 11), 3).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(tokens(4, 13), 6).with_sampler(SamplerConfig::temperature(1.2, 9)),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 3,
                decode_batch: 3,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let widths: Vec<usize> = report
        .timeline
        .entries()
        .iter()
        .filter_map(|s| match s.meta.kind {
            ServeTaskKind::DecodeBatch { width, .. } => Some(width),
            _ => None,
        })
        .collect();
    assert!(
        widths.contains(&3),
        "no full-width batched decode step ran: {widths:?}"
    );
    // Members drop out as their budgets end: widths shrink, never grow.
    assert!(widths.iter().any(|&w| w < 3), "no ragged tail steps");
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo, "request {r} diverged under batching");
        // Cohort members' same-position tokens complete at the same
        // wall-clock instant (one task) — the stream stays monotone.
        for pair in outcome.token_times_ms.windows(2) {
            assert!(pair[1] >= pair[0]);
        }
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// The streaming token sink fires while the batch runs, strictly in
/// stream order per request, with exactly the final tokens.
#[test]
fn token_sink_streams_in_request_order() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 2);
    let requests = vec![
        GenerationRequest::new(tokens(6, 7), 4),
        GenerationRequest::new(tokens(5, 11), 6).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
    ];
    let events: Arc<Mutex<Vec<TokenEvent>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_events = Arc::clone(&events);
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                decode_batch: 2,
                on_token: Some(Arc::new(move |ev| {
                    sink_events.lock().unwrap().push(*ev);
                })),
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let events = events.lock().unwrap();
    assert_eq!(events.len(), report.total_tokens());
    for (r, outcome) in report.requests.iter().enumerate() {
        let seen: Vec<&TokenEvent> = events.iter().filter(|ev| ev.request == r).collect();
        assert_eq!(seen.len(), outcome.tokens.len());
        for (step, ev) in seen.iter().enumerate() {
            assert_eq!(ev.step, step, "request {r} events out of order");
            assert_eq!(ev.token, outcome.tokens[step]);
        }
    }
}

/// A non-row-wise backend (dynamic per-tensor activation quantization)
/// still serves correctly: sharing and batching silently disable, and
/// streams match the backend's own solo runs.
#[test]
fn quantized_backend_serves_with_batching_auto_disabled() {
    let w = mini_model();
    let float = FloatBackend::new(w.clone());
    let t_float = Transformer::new(&w, &float);
    let cal = t_float.calibrate(&[tokens(8, 7), tokens(6, 5)]).unwrap();
    let be = PerTensorBackend::new(&w, &cal).unwrap();
    let t = Transformer::new(&w, &be);
    assert!(!t.backend_row_wise());

    let e = engine(3, 2);
    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 3),
        GenerationRequest::new(tokens(9, 7), 3).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                decode_batch: 4,      // ignored: backend is not row-wise
                share_prefixes: true, // ignored likewise
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert_eq!(report.kv.shared_prefix_blocks, 0, "sharing must not engage");
    assert!(
        !report
            .timeline
            .entries()
            .iter()
            .any(|s| matches!(s.meta.kind, ServeTaskKind::DecodeBatch { .. })),
        "batched decode must not engage for a non-row-wise backend"
    );
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(
            outcome.tokens, solo,
            "request {r} diverged on quantized backend"
        );
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// Regression: a prefix sharer planned *after* an early cohort flush
/// (a Done gate forces cohort 0's decode chain out while the sharer of
/// one of its members is still unbuilt) used to panic the graph
/// builder with an index out of bounds. Release emission is now lazy
/// per segment, so this mix must serve cleanly and bit-identically.
#[test]
fn late_prefix_sharer_after_early_cohort_flush() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    // Six requests; request 4 shares request 2's 9-token aligned
    // prefix. max_active 3 makes segment 3 gate Done on segment 0,
    // flushing cohort {0, 1, 2} before segment 4 (2's sharer) exists.
    let mut shared_tail = tokens(9, 7);
    shared_tail.extend_from_slice(&[1, 2, 3]);
    let mut shared_tail2 = tokens(9, 7);
    shared_tail2.extend_from_slice(&[60, 61]);
    let requests = vec![
        GenerationRequest::new(tokens(6, 5), 3),
        GenerationRequest::new(tokens(7, 11), 3).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(shared_tail, 3),
        GenerationRequest::new(tokens(5, 13), 3).with_sampler(SamplerConfig::temperature(1.2, 9)),
        GenerationRequest::new(shared_tail2, 3).with_sampler(SamplerConfig::top_k(4, 0.9, 77)),
        GenerationRequest::new(tokens(8, 3), 3),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 3,
                block_tokens: 3,
                decode_batch: 3,
                share_prefixes: true,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert!(
        report.kv.shared_prefix_blocks >= 3,
        "request 4 should share request 2's prefix"
    );
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo, "request {r} diverged");
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// Regression: a segment can fully wait on a decode-cohort member
/// *through a preempted incarnation* — R1 (sharing R0's prompt) cannot
/// fit beside its donor and waits for R0's release; R2 then preempts R1
/// and gates on that eviction. The planner used to seat R2 in R0's
/// cohort (no gate of R2 names R0), the builder flushed that cohort
/// before R2 existed, and the whole call failed with `Error::Internal`.
#[test]
fn cohort_breaks_on_a_wait_through_a_preempted_incarnation() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(4, 2);
    let requests = vec![
        GenerationRequest::new(tokens(16, 7), 4),
        GenerationRequest::new(tokens(16, 7), 4).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(vec![90, 91, 92, 93], 4),
    ];
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 4,
                block_tokens: 4,
                kv_pool_blocks: Some(6),
                pressure: PressurePolicy::EvictYoungest,
                decode_batch: 2,
                share_prefixes: true,
                ..ServeOptions::default()
            },
        )
        .unwrap();
    assert!(evicted_and_recomputed(&report.timeline, 1));
    for (r, outcome) in report.requests.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(4),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(outcome.tokens, solo, "request {r} diverged");
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}
