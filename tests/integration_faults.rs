//! Fault-containment tests for the serving layer: a panic or error
//! injected into one request's task chain fails only that request —
//! every other stream completes bit-identical to its solo run — KV
//! pages are released on every terminal path (failure, cancellation,
//! deadline, retry exhaustion), transient faults recover through the
//! retry ladder, and a seeded ≥200-request chaos soak (faults +
//! cancellations + deadlines + an undersized pool) is deterministic
//! down to the token.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::faults::{DurationSpike, FaultMode, FaultPlan, FaultSite, FaultSpec};
use llmnpu::core::serve::{
    request_entries, GenerationRequest, PressurePolicy, RequestStatus, ServeOptions, ServeReport,
    TokenEvent,
};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::sample::SamplerConfig;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::soc::spec::SocSpec;
use llmnpu::workloads::traces::{ArrivalTrace, LengthMix};

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

fn solo_streams(
    t: &Transformer<'_>,
    requests: &[GenerationRequest],
    chunk_len: usize,
) -> Vec<Vec<u32>> {
    requests
        .iter()
        .map(|r| {
            t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
                .unwrap()
        })
        .collect()
}

/// The acceptance pin: a panic (or error) injected into one request's
/// stage closure fails only that request. Every other request completes
/// with a stream bit-identical to its solo run, and no page leaks — at
/// every worker count, for both fault manifestations, at every site.
#[test]
fn injected_fault_fails_only_the_victim() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 5).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
        GenerationRequest::new(tokens(7, 11), 4).with_sampler(SamplerConfig::temperature(1.1, 9)),
        GenerationRequest::new(tokens(12, 3), 3).with_sampler(SamplerConfig::top_p(0.8, 0.7, 77)),
    ];
    let solo = solo_streams(&t, &requests, chunk_len);

    let sites = [
        FaultSite::Admit,
        FaultSite::Prefill { chunk: 0, layer: 1 },
        FaultSite::Decode { step: 1 },
    ];
    for workers in [1usize, 2, 4] {
        let e = engine(chunk_len, workers);
        for site in sites {
            for mode in [FaultMode::Panic, FaultMode::Error] {
                let victim = 1usize;
                let plan = FaultPlan::new().with_fault(FaultSpec {
                    request: victim,
                    attempt: 1,
                    site,
                    mode,
                    permanent: true,
                });
                let report = e
                    .serve(
                        &t,
                        &requests,
                        &ServeOptions {
                            max_active: 4,
                            max_retries: 0,
                            faults: Some(plan),
                            ..ServeOptions::default()
                        },
                    )
                    .unwrap();
                let ctx = format!("{workers} workers, {site:?}, {mode:?}");
                for (r, outcome) in report.requests.iter().enumerate() {
                    if r == victim {
                        let err = outcome.status.error().unwrap_or_else(|| {
                            panic!("victim not failed ({ctx}): {:?}", outcome.status)
                        });
                        assert!(err.contains("injected"), "unexpected error `{err}` ({ctx})");
                        assert!(
                            matches!(outcome.status, RequestStatus::Failed { .. }),
                            "no retry budget must mean Failed, got {:?} ({ctx})",
                            outcome.status
                        );
                        // A decode-site fault still streams the tokens
                        // before the faulted step; earlier sites stream
                        // nothing. Whatever came out is a solo prefix.
                        assert!(outcome.tokens.len() < requests[r].max_new_tokens, "{ctx}");
                        assert_eq!(outcome.tokens, solo[r][..outcome.tokens.len()], "{ctx}");
                        assert_eq!(outcome.attempts, 1, "{ctx}");
                    } else {
                        assert_eq!(
                            outcome.status,
                            RequestStatus::Completed,
                            "bystander {r} harmed ({ctx})"
                        );
                        assert_eq!(
                            outcome.tokens, solo[r],
                            "bystander {r} stream moved ({ctx})"
                        );
                    }
                }
                assert_eq!(report.kv.leaked_blocks, 0, "pages leaked ({ctx})");
            }
        }
    }
}

/// A transient fault (fires on attempt 1 only) recovers through the
/// retry ladder: the victim ends `Completed` with the *same* stream as
/// its solo run, its `attempts` counts the extra round, and the
/// timeline carries attempt-numbered spans as the retry witness.
#[test]
fn transient_fault_retries_to_completion() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 4),
        GenerationRequest::new(tokens(6, 5), 4).with_sampler(SamplerConfig::top_k(8, 0.9, 5)),
        GenerationRequest::new(tokens(11, 3), 3),
    ];
    let solo = solo_streams(&t, &requests, chunk_len);
    let e = engine(chunk_len, 2);
    let plan = FaultPlan::new().with_fault(FaultSpec {
        request: 1,
        attempt: 1,
        site: FaultSite::Prefill { chunk: 0, layer: 0 },
        mode: FaultMode::Panic,
        permanent: false,
    });
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 3,
                max_retries: 2,
                faults: Some(plan),
                ..ServeOptions::default()
            },
        )
        .unwrap();

    for (r, outcome) in report.requests.iter().enumerate() {
        assert_eq!(outcome.status, RequestStatus::Completed, "request {r}");
        assert_eq!(outcome.tokens, solo[r], "request {r} stream moved");
    }
    assert_eq!(
        report.requests[1].attempts, 2,
        "one failed + one good round"
    );
    assert_eq!(report.requests[0].attempts, 1);
    assert_eq!(report.requests[2].attempts, 1);
    // Retry witness: the victim has spans from both incarnations.
    let attempts: Vec<usize> = request_entries(&report.timeline, 1)
        .iter()
        .map(|s| s.meta.attempt)
        .collect();
    assert!(attempts.contains(&0), "first-attempt spans missing");
    assert!(attempts.contains(&1), "retry spans missing from timeline");
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// A permanent fault exhausts the retry budget: `1 + max_retries`
/// attempts, terminal status `RetriesExhausted`, bystanders untouched,
/// zero leaks.
#[test]
fn permanent_fault_exhausts_retries() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(8, 7), 4),
        GenerationRequest::new(tokens(6, 5), 4),
    ];
    let solo = solo_streams(&t, &requests, chunk_len);
    let e = engine(chunk_len, 2);
    let plan = FaultPlan::new().with_fault(FaultSpec {
        request: 0,
        attempt: 1,
        site: FaultSite::Decode { step: 0 },
        mode: FaultMode::Error,
        permanent: true,
    });
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 2,
                max_retries: 2,
                retry_backoff_ms: 1.0,
                faults: Some(plan),
                ..ServeOptions::default()
            },
        )
        .unwrap();

    let victim = &report.requests[0];
    assert!(
        matches!(victim.status, RequestStatus::RetriesExhausted { .. }),
        "got {:?}",
        victim.status
    );
    assert!(victim
        .status
        .error()
        .unwrap()
        .contains("injected decode fault"));
    assert_eq!(victim.attempts, 3, "1 first try + 2 retries");
    assert_eq!(report.requests[1].status, RequestStatus::Completed);
    assert_eq!(report.requests[1].tokens, solo[1]);
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// Deadlines: a zero completion (or TTFT) deadline expires at the first
/// dispatch decision — no tokens, `DeadlineExceeded`, never retried —
/// while a generous deadline changes nothing. Bystanders keep their
/// solo streams and nothing leaks.
#[test]
fn deadlines_gate_dispatch_deterministically() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 4).with_deadline_ms(0.0),
        GenerationRequest::new(tokens(6, 5), 4).with_deadline_ms(1e12),
        GenerationRequest::new(tokens(7, 11), 3).with_ttft_deadline_ms(0.0),
        GenerationRequest::new(tokens(10, 3), 4),
    ];
    let solo = solo_streams(&t, &requests, chunk_len);
    let e = engine(chunk_len, 2);
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

    for r in [0usize, 2] {
        let outcome = &report.requests[r];
        assert_eq!(
            outcome.status,
            RequestStatus::DeadlineExceeded,
            "request {r}"
        );
        assert!(
            outcome.tokens.is_empty(),
            "request {r} streamed past its deadline"
        );
        assert_eq!(outcome.attempts, 1, "expired requests must not retry");
    }
    for r in [1usize, 3] {
        let outcome = &report.requests[r];
        assert_eq!(outcome.status, RequestStatus::Completed, "request {r}");
        assert_eq!(outcome.tokens, solo[r], "request {r} stream moved");
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// Cancellation from the token sink: cancelling request `v` as its
/// token `k` streams stops it after exactly `k + 1` tokens (the gate
/// skips the next decode dispatch), the partial stream is a solo
/// prefix, bystanders are untouched, and the pages come back.
#[test]
fn sink_cancellation_stops_after_current_token() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 5),
        GenerationRequest::new(tokens(5, 5), 5).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
        GenerationRequest::new(tokens(7, 3), 4),
    ];
    let solo = solo_streams(&t, &requests, chunk_len);

    for workers in [1usize, 2, 4] {
        let e = engine(chunk_len, workers);
        let victim = 1usize;
        let cancel_at_step = 1usize;
        // Fresh flag per worker-count run (the token is shared across
        // clones, so reuse would leave it pre-cancelled).
        let requests_run: Vec<GenerationRequest> = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let mut r = r.clone();
                if i == victim {
                    r.cancel = llmnpu::core::serve::CancelToken::new();
                }
                r
            })
            .collect();
        let handle = requests_run[victim].cancel_handle();
        let sink: Arc<dyn Fn(&TokenEvent) + Send + Sync> = Arc::new(move |ev: &TokenEvent| {
            if ev.request == victim && ev.step == cancel_at_step {
                handle.cancel();
            }
        });
        let report = e
            .serve(
                &t,
                &requests_run,
                &ServeOptions {
                    max_active: 3,
                    on_token: Some(sink),
                    ..ServeOptions::default()
                },
            )
            .unwrap();
        let v = &report.requests[victim];
        assert_eq!(v.status, RequestStatus::Cancelled, "{workers} workers");
        assert_eq!(
            v.tokens.len(),
            cancel_at_step + 1,
            "cancel after token {cancel_at_step} must stop the serial chain ({workers} workers)"
        );
        assert_eq!(
            v.tokens[..],
            solo[victim][..v.tokens.len()],
            "{workers} workers"
        );
        assert_eq!(v.attempts, 1, "cancelled requests must not retry");
        for (r, outcome) in report.requests.iter().enumerate() {
            if r != victim {
                assert_eq!(
                    outcome.status,
                    RequestStatus::Completed,
                    "{workers} workers"
                );
                assert_eq!(outcome.tokens, solo[r], "bystander {r} ({workers} workers)");
            }
        }
        assert_eq!(report.kv.leaked_blocks, 0, "{workers} workers");
    }
}

/// The pool-pressure squeeze: `FaultPlan::with_pool_cap` shrinks the
/// pool under the configured size (clamped so the largest request still
/// fits), forcing eviction/recompute — and every stream still matches
/// its solo run with zero leaks.
#[test]
fn pool_squeeze_evicts_but_streams_hold() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;

    let requests: Vec<GenerationRequest> = (0..4)
        .map(|i| GenerationRequest::new(tokens(10 + i, 7), 4))
        .collect();
    let solo = solo_streams(&t, &requests, chunk_len);
    let block_tokens = 4usize;
    let max_need = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .max()
        .unwrap();

    let e = engine(chunk_len, 2);
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 4,
                block_tokens,
                pressure: PressurePolicy::EvictYoungest,
                faults: Some(FaultPlan::new().with_pool_cap(max_need)),
                // Sharing off: these prompts are prefixes of each other,
                // and a reclaimable cached prefix would let the planner
                // wait its way out of the squeeze. This test is about the
                // preemption/recompute path.
                share_prefixes: false,
                ..ServeOptions::default()
            },
        )
        .unwrap();

    assert!(
        report.kv.pool_blocks <= max_need.max(1),
        "squeeze ignored: pool holds {} blocks",
        report.kv.pool_blocks
    );
    assert!(report.kv.evictions >= 1, "squeezed pool never hit pressure");
    for (r, outcome) in report.requests.iter().enumerate() {
        assert_eq!(outcome.status, RequestStatus::Completed, "request {r}");
        assert_eq!(outcome.tokens, solo[r], "request {r} stream moved");
    }
    assert_eq!(report.kv.leaked_blocks, 0);
}

// Property (satellite): cancellation at *arbitrary* points — before
// the run, mid-decode via the sink, or never — always yields zero
// leaked pages, a partial stream that is a prefix of the solo run, and
// bit-identical streams for every other request. Randomizes the
// victim, the cancel point, prefix sharing, and the worker count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn cancellation_anywhere_never_leaks_or_perturbs(
        victim in 0usize..3,
        cancel_step in 0usize..6,
        pre_cancel in prop::bool::ANY,
        share in prop::bool::ANY,
        workers in 1usize..4,
    ) {
        let w = mini_model();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let chunk_len = 4;

        // Requests 0 and 1 start with the same 8 tokens (two whole
        // 4-token pages). With sharing on, a completed prefill publishes
        // its full prompt pages to the session's prefix cache, so the
        // victim's pages may be held by the cache when it is cancelled.
        let mut long = tokens(8, 7);
        long.extend_from_slice(&[9, 8, 7]);
        let requests = vec![
            GenerationRequest::new(tokens(8, 7), 4),
            GenerationRequest::new(long, 4).with_sampler(SamplerConfig::top_k(8, 0.9, 42)),
            GenerationRequest::new(tokens(6, 11), 3),
        ];
        let solo = solo_streams(&t, &requests, chunk_len);

        if pre_cancel {
            requests[victim].cancel.cancel();
        }
        let handle = requests[victim].cancel_handle();
        let sink: Arc<dyn Fn(&TokenEvent) + Send + Sync> = Arc::new(move |ev: &TokenEvent| {
            if ev.request == victim && ev.step == cancel_step {
                handle.cancel();
            }
        });
        let e = engine(chunk_len, workers);
        let report = e
            .serve(
                &t,
                &requests,
                &ServeOptions {
                    max_active: 3,
                    block_tokens: 4,
                    share_prefixes: share,
                    on_token: Some(sink),
                    ..ServeOptions::default()
                },
            )
            .unwrap();

        prop_assert_eq!(report.kv.leaked_blocks, 0);
        for (r, outcome) in report.requests.iter().enumerate() {
            if r == victim {
                // Cancelled somewhere (or never, if the stream finished
                // before the cancel step): either a clean completion or
                // a cancelled solo prefix.
                match &outcome.status {
                    RequestStatus::Completed => {
                        prop_assert_eq!(&outcome.tokens, &solo[r]);
                    }
                    RequestStatus::Cancelled => {
                        prop_assert!(outcome.tokens.len() <= solo[r].len());
                        prop_assert_eq!(
                            &outcome.tokens[..],
                            &solo[r][..outcome.tokens.len()]
                        );
                    }
                    other => prop_assert!(false, "unexpected status {:?}", other),
                }
            } else {
                prop_assert_eq!(&outcome.status, &RequestStatus::Completed);
                prop_assert_eq!(&outcome.tokens, &solo[r]);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The chaos soak.
// ---------------------------------------------------------------------

/// Soak scale: ≥ 200 requests (the acceptance floor).
const SOAK_REQUESTS: usize = 208;
const SOAK_SEED: u64 = 2025;
const SOAK_CHUNK: usize = 6;

fn soak_requests(vocab: usize) -> Vec<GenerationRequest> {
    let mix = LengthMix::heavy_tail(SOAK_SEED, SOAK_REQUESTS, 4, 18);
    let trace = ArrivalTrace::heavy_tail(SOAK_SEED, 1.5, 1.1, mix.len());
    mix.shapes
        .iter()
        .zip(&trace.arrivals_ms)
        .enumerate()
        .map(|(i, (&(prompt_len, max_new), &arrival))| {
            let mut r = GenerationRequest::synthetic(i, prompt_len, max_new, vocab)
                .with_arrival_ms(arrival);
            // Deterministic adversarial sprinkles on disjoint residues:
            // pre-cancelled, zero-deadline, and zero-TTFT requests. The
            // deadline victims arrive at t = 0 so expiry is decided by
            // the constant-true `now ≥ arrival + 0` — a *nonzero*
            // modeled arrival would race the executor's wall clock and
            // break run-to-run determinism.
            match i % 19 {
                3 => r.cancel.cancel(),
                7 => r = r.with_arrival_ms(0.0).with_deadline_ms(0.0),
                11 => r = r.with_arrival_ms(0.0).with_ttft_deadline_ms(0.0),
                _ => {}
            }
            r
        })
        .collect()
}

fn soak_serve(
    e: &LlmNpuEngine,
    t: &Transformer<'_>,
    requests: &[GenerationRequest],
    pool_blocks: usize,
) -> ServeReport {
    // Sink-cancel a deterministic subset mid-stream (residue disjoint
    // from the pre-cancelled/deadline ones).
    let sink: Arc<dyn Fn(&TokenEvent) + Send + Sync> = {
        let handles: Vec<_> = requests
            .iter()
            .map(GenerationRequest::cancel_handle)
            .collect();
        Arc::new(move |ev: &TokenEvent| {
            if ev.request % 19 == 15 && ev.step == 1 {
                handles[ev.request].cancel();
            }
        })
    };
    let plan = FaultPlan::seeded(SOAK_SEED, requests.len(), 0.6).with_spike(DurationSpike {
        request: 0,
        attempt: 0,
        factor: 5.0,
    });
    e.serve(
        t,
        requests,
        &ServeOptions {
            max_active: 8,
            block_tokens: 4,
            kv_pool_blocks: Some(pool_blocks),
            pressure: PressurePolicy::EvictYoungest,
            decode_batch: 2,
            share_prefixes: true,
            on_token: Some(sink),
            max_retries: 2,
            retry_backoff_ms: 1.0,
            faults: Some(plan),
            obs: None,
        },
    )
    .unwrap()
}

/// The chaos soak: ≥ 200 heavy-tail requests against an undersized
/// pool with seeded faults, duration spikes, cancellations, and
/// deadlines, all at once. The engine survives, every page returns,
/// every surviving stream is bit-identical to its solo run, every
/// terminal status category occurs, and the whole thing is
/// deterministic: a second run reproduces every status, token, and
/// attempt count exactly.
#[test]
fn chaos_soak_survives_deterministically_with_no_leaks() {
    // Two decoder layers keep the ~200-request task graph tractable in
    // debug builds while still exercising every layer-crossing edge.
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(SOAK_CHUNK, 4);

    let requests = soak_requests(cfg.vocab);
    let block_tokens = 4usize;
    let needs: Vec<usize> = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .collect();
    // Far below max_active × worst-case so bursts hit real pressure.
    let pool_blocks = (needs.iter().max().unwrap() * 3).max(*needs.iter().max().unwrap());

    let first = soak_serve(&e, &t, &requests, pool_blocks);
    assert_eq!(first.requests.len(), SOAK_REQUESTS);
    assert_eq!(first.kv.leaked_blocks, 0, "chaos leaked pages");
    assert!(
        first.kv.evictions >= 1,
        "undersized pool never hit pressure"
    );

    // Every terminal category occurs at this seed (pinned so the soak
    // can't silently degrade into an all-Completed no-op).
    let count =
        |f: &dyn Fn(&RequestStatus) -> bool| first.requests.iter().filter(|o| f(&o.status)).count();
    let completed = count(&|s| matches!(s, RequestStatus::Completed));
    let cancelled = count(&|s| matches!(s, RequestStatus::Cancelled));
    let expired = count(&|s| matches!(s, RequestStatus::DeadlineExceeded));
    let exhausted = count(&|s| matches!(s, RequestStatus::RetriesExhausted { .. }));
    assert!(completed > SOAK_REQUESTS / 2, "only {completed} completed");
    assert!(cancelled > 0, "no cancellations fired");
    assert!(expired > 0, "no deadlines fired");
    assert!(exhausted > 0, "no retry ladder exhausted");

    // Retries actually happened and recovered (transient faults
    // dominate the seeded plan).
    let retried_ok = first
        .requests
        .iter()
        .filter(|o| o.status.is_completed() && o.attempts > 1)
        .count();
    assert!(retried_ok > 0, "no request recovered through a retry");

    // Survivors are bit-identical to their solo runs.
    let mut checked = 0usize;
    for (r, outcome) in first.requests.iter().enumerate() {
        if outcome.status.is_completed() {
            let solo = t
                .generate(
                    &requests[r].prompt,
                    Some(SOAK_CHUNK),
                    requests[r].max_new_tokens,
                    &requests[r].sampler,
                )
                .unwrap();
            assert_eq!(outcome.tokens, solo, "request {r} diverged from solo");
            checked += 1;
        }
    }
    assert_eq!(checked, completed);

    // Determinism: a second run (fresh cancel tokens, same script)
    // reproduces every status, stream, and attempt count.
    let requests2 = soak_requests(cfg.vocab);
    let second = soak_serve(&e, &t, &requests2, pool_blocks);
    assert_eq!(second.kv.leaked_blocks, 0);
    for (a, b) in first.requests.iter().zip(&second.requests) {
        assert_eq!(a.status, b.status, "request {} status drifted", a.request);
        assert_eq!(a.tokens, b.tokens, "request {} stream drifted", a.request);
        assert_eq!(
            a.attempts, b.attempts,
            "request {} attempts drifted",
            a.request
        );
    }
}

/// The soak's token totals are internally consistent: the report's
/// total equals the sum over outcomes, and the sink saw at least that
/// many events (retried requests re-stream from step 0, so the sink
/// may legitimately see more).
#[test]
fn soak_token_accounting_is_consistent() {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let e = engine(SOAK_CHUNK, 2);

    let requests: Vec<GenerationRequest> = (0..12)
        .map(|i| GenerationRequest::synthetic(i, 6 + i % 5, 3, cfg.vocab))
        .collect();
    let seen = Arc::new(AtomicUsize::new(0));
    let sink: Arc<dyn Fn(&TokenEvent) + Send + Sync> = {
        let seen = Arc::clone(&seen);
        Arc::new(move |_: &TokenEvent| {
            seen.fetch_add(1, Ordering::Relaxed);
        })
    };
    let plan = FaultPlan::seeded(7, requests.len(), 0.9);
    let report = e
        .serve(
            &t,
            &requests,
            &ServeOptions {
                max_active: 6,
                on_token: Some(sink),
                faults: Some(plan),
                ..ServeOptions::default()
            },
        )
        .unwrap();
    let sum: usize = report.requests.iter().map(|o| o.tokens.len()).sum();
    assert_eq!(report.total_tokens(), sum);
    assert!(
        seen.load(Ordering::Relaxed) >= sum,
        "sink saw fewer events than tokens reported"
    );
    assert_eq!(report.kv.leaked_blocks, 0);
}
