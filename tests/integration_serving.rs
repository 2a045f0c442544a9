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
use llmnpu::model::backend::{
    FloatBackend, LinearBackend, LutBackend, PerTensorBackend, ShadowBackend, SmoothQuantBackend,
};
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
/// solo `Transformer::generate` run at every worker count (like every
/// backend, the LUT drivers are row-wise, so cohort batching is
/// stream-transparent), and the decode loop must never materialize a
/// lookup table.
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

/// Prefix reuse through the session's prefix cache: a request whose
/// prompt shares a prefix with an earlier batch's adopts that batch's
/// cached pages
/// (allocated and prefilled once), prefills only its suffix, and still
/// produces a bit-identical stream.
#[test]
fn shared_prefixes_allocate_once_and_keep_streams() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(3, 3);
    // Identical 12-token system prefix (four whole 3-token pages),
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
        kv_pool_blocks: Some(16),
        share_prefixes: true,
        ..ServeOptions::default()
    };
    // One batch per request on one session; returns the second batch's
    // report and both streams.
    let run = |opts: &ServeOptions| {
        let session = e.open_serve_session(&t, opts).unwrap();
        let mut streams = Vec::new();
        let mut last = None;
        for r in &requests {
            let report = e
                .serve_with_session(&t, std::slice::from_ref(r), opts, &session)
                .unwrap();
            assert_eq!(report.kv.leaked_blocks, 0);
            streams.push(report.requests[0].tokens.clone());
            last = Some(report);
        }
        session.flush().unwrap();
        (last.unwrap(), streams)
    };
    let (second, streams) = run(&opts);
    assert_eq!(
        (
            second.kv.prefix_cache_hit_blocks,
            second.kv.prefix_cache_hit_tokens
        ),
        (4, 12),
        "12 shared tokens at 3-token pages: 4 cached pages adopted"
    );
    assert_eq!(
        second.kv.prefix_cache_inserted_blocks, 0,
        "the adopted pages are already cached, and the suffix fills no page"
    );
    for (r, stream) in streams.iter().enumerate() {
        let solo = t
            .generate(
                &requests[r].prompt,
                Some(3),
                requests[r].max_new_tokens,
                &requests[r].sampler,
            )
            .unwrap();
        assert_eq!(*stream, solo, "request {r} diverged under sharing");
    }

    // Turning sharing off reuses nothing, and the streams stay.
    let (unshared, unshared_streams) = run(&ServeOptions {
        share_prefixes: false,
        ..opts.clone()
    });
    assert_eq!(unshared.kv.prefix_cache_hit_blocks, 0);
    assert_eq!(unshared_streams, streams);
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
            ServeTaskKind::Decode { width, .. } if width > 1 => Some(width),
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

/// The int8 lane serves like the others: the static-scale backends —
/// `PerTensorBackend`, `SmoothQuantBackend`, and `ShadowBackend` with its
/// shadow halves kept or mostly pruned — are row-wise, so a second
/// batch adopts the first one's cached system prefix, decode cohorts
/// engage, and every stream still equals its solo run at every page
/// size and worker count, with no page leaked.
#[test]
fn int8_backends_serve_with_sharing_and_cohorts() {
    let w = mini_model();
    let float = FloatBackend::new(w.clone());
    let cal = Transformer::new(&w, &float)
        .calibrate(&[tokens(8, 7), tokens(6, 5)])
        .unwrap();
    let backends: Vec<(&str, Box<dyn LinearBackend>)> = vec![
        (
            "per-tensor",
            Box::new(PerTensorBackend::new(&w, &cal).unwrap()),
        ),
        (
            "smoothquant",
            Box::new(SmoothQuantBackend::new(&w, &cal, 0.5).unwrap()),
        ),
        (
            "shadow at 0",
            Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.0).unwrap()),
        ),
        (
            "shadow at 0.85",
            Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
        ),
    ];
    // A 17-token system prefix spans a whole page at every page size.
    let prefix = tokens(17, 7);
    let with_tail = |tail: &[u32]| [prefix.as_slice(), tail].concat();
    let requests = [
        GenerationRequest::new(with_tail(&[1, 2, 3]), 4),
        GenerationRequest::new(with_tail(&[60, 61]), 4)
            .with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
        GenerationRequest::new(with_tail(&[9]), 5).with_sampler(SamplerConfig::temperature(1.2, 9)),
    ];
    for (name, be) in &backends {
        let t = Transformer::new(&w, be.as_ref());
        let solo: Vec<Vec<u32>> = requests
            .iter()
            .map(|r| {
                t.generate(&r.prompt, Some(3), r.max_new_tokens, &r.sampler)
                    .unwrap()
            })
            .collect();
        for workers in [1, 3] {
            let e = engine(3, workers);
            for block_tokens in [1, 4, 16] {
                let opts = ServeOptions {
                    max_active: 3,
                    block_tokens,
                    kv_pool_blocks: Some(
                        requests
                            .iter()
                            .map(|r| r.total_tokens().div_ceil(block_tokens))
                            .sum(),
                    ),
                    decode_batch: 4,
                    share_prefixes: true,
                    ..ServeOptions::default()
                };
                // The first request prefills the system prefix; the
                // second batch, on the same session, adopts its pages.
                let session = e.open_serve_session(&t, &opts).unwrap();
                let first = e
                    .serve_with_session(&t, &requests[..1], &opts, &session)
                    .unwrap();
                let second = e
                    .serve_with_session(&t, &requests[1..], &opts, &session)
                    .unwrap();
                session.flush().unwrap();
                let what = format!("{name}, {block_tokens}-token pages, {workers} workers");
                assert!(
                    second.kv.prefix_cache_hit_blocks > 0,
                    "{what}: sharing must engage"
                );
                assert!(
                    second.timeline.entries().iter().any(
                        |s| matches!(s.meta.kind, ServeTaskKind::Decode { width, .. } if width > 1)
                    ),
                    "{what}: batched decode must engage"
                );
                let outcomes = first.requests.iter().chain(&second.requests);
                for (r, outcome) in outcomes.enumerate() {
                    assert_eq!(outcome.tokens, solo[r], "{what}: request {r} diverged");
                }
                assert_eq!(first.kv.leaked_blocks, 0, "{what}");
                assert_eq!(second.kv.leaked_blocks, 0, "{what}");
            }
        }
    }
}

/// Regression: a segment can fully wait on a decode-cohort member
/// *through a preempted incarnation* — R1 preempts R0; R0's
/// re-admission may not preempt, so it waits for R1's release; R2 then
/// preempts it and gates only on that eviction. The planner used to
/// seat such a segment in the cohort it waits on (no gate of R2 names
/// R1), the builder flushed that cohort before R2 existed, and the
/// whole call failed with `Error::Internal`.
#[test]
fn cohort_breaks_on_a_wait_through_a_preempted_incarnation() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(4, 2);
    let requests = vec![
        GenerationRequest::new(tokens(16, 7), 4),
        GenerationRequest::new(tokens(16, 5), 4).with_sampler(SamplerConfig::top_k(6, 1.0, 5)),
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
    assert!(evicted_and_recomputed(&report.timeline, 0));
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
