//! Streaming front-end + session/prefix-cache integration: requests
//! submitted over time through [`llmnpu::core::frontend`] stream
//! tokens bit-identical to their solo runs; a shared system prompt is
//! prefilled once per session and *re-used from the global radix
//! cache* by later batches whose producer is long gone; cancellation
//! works mid-stream; a submission arriving mid-prefill cuts the running
//! batch at a chunk boundary and the suspended prefill resumes
//! bit-identical; deadlines count queued time; and a trace-replay soak
//! (heavy-tail lengths, bursty arrivals, thousands of requests)
//! finishes with zero leaked pages, bounded pool usage, and sampled
//! stream identity.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::faults::{FaultMode, FaultPlan, FaultSite, FaultSpec};
use llmnpu::core::frontend::{frontend, FrontendClient, FrontendReport, StreamEvent, StreamHandle};
use llmnpu::core::serve::{
    GenerationRequest, PressurePolicy, RequestOutcome, RequestStatus, ServeOptions, ServeSession,
    TokenEvent,
};
use llmnpu::model::backend::{FloatBackend, LinearBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::obs::{EventKind, Observability};
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
/// cache on the shared system prompt.
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

/// What a [`cut_run`] observed.
struct CutRun {
    /// The batch's outcomes, then the probes', in submission order.
    outcomes: Vec<RequestOutcome>,
    report: FrontendReport,
    /// Detail of every suspend event, in emission order.
    suspends: Vec<String>,
}

/// One front-end run built to cut prefills mid-batch. `batch` is
/// submitted before the serving loop starts, so it forms the first
/// batch; from then on, the `k`-th first token of any stream (the
/// `on_token` sink, on the execution lanes) submits `probes[k]` while
/// its batch is still running. With `max_active = 1` the batch's long
/// request admits only after the request ahead of it released, so the
/// probe is pending before its first prefill task starts and the cut
/// falls at its earliest boundary — deterministic at any worker count.
/// `cancel_at` cancels batch member `i` at the `k`-th first token.
/// `run` must return `Ok`: its final flush proves zero leaked pages.
fn cut_run(
    eng: &LlmNpuEngine,
    t: &Transformer<'_>,
    mut opts: ServeOptions,
    batch: &[GenerationRequest],
    probes: &[GenerationRequest],
    cancel_at: Option<(usize, usize)>,
) -> CutRun {
    let obs = Observability::enabled();
    opts.obs = Some(obs.clone());
    let client_cell: Arc<OnceLock<FrontendClient>> = Arc::default();
    let probe_handles: Arc<Mutex<Vec<StreamHandle>>> = Arc::default();
    let cancels: Arc<OnceLock<Vec<llmnpu::core::serve::CancelToken>>> = Arc::default();
    let firsts = Arc::new(AtomicUsize::new(0));
    {
        let (client_cell, probe_handles, cancels) = (
            Arc::clone(&client_cell),
            Arc::clone(&probe_handles),
            Arc::clone(&cancels),
        );
        let probes = probes.to_vec();
        let chained = opts.on_token.take();
        opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
            if let Some(f) = &chained {
                f(ev);
            }
            if ev.step != 0 {
                return;
            }
            let k = firsts.fetch_add(1, Ordering::SeqCst);
            if let Some((i, _)) = cancel_at.filter(|&(_, at)| at == k) {
                cancels.get().expect("batch submitted")[i].cancel();
            }
            if let Some(p) = probes.get(k) {
                let client = client_cell.get().expect("client set before serving");
                let h = client.submit(p.clone()).expect("front-end alive");
                probe_handles.lock().unwrap().push(h);
            }
        }));
    }
    let (client, fe) = frontend(opts);
    let handles: Vec<StreamHandle> = batch
        .iter()
        .map(|r| client.submit(r.clone()).unwrap())
        .collect();
    let _ = cancels.set(batch.iter().map(GenerationRequest::cancel_handle).collect());
    let _ = client_cell.set(client.clone());
    let (outcomes, report) = thread::scope(|s| {
        let serving = s.spawn(|| fe.run(eng, t));
        let mut outcomes: Vec<RequestOutcome> = handles
            .into_iter()
            .map(|h| h.wait().expect("batch stream finishes"))
            .collect();
        for _ in probes {
            let h = loop {
                let next = {
                    let mut submitted = probe_handles.lock().unwrap();
                    (!submitted.is_empty()).then(|| submitted.remove(0))
                };
                if let Some(h) = next {
                    break h;
                }
                thread::sleep(Duration::from_millis(1));
            };
            outcomes.push(h.wait().expect("probe stream finishes"));
        }
        client.shutdown();
        (outcomes, serving.join().unwrap().expect("leak-free run"))
    });
    let suspends = obs
        .sink
        .snapshot()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Suspend)
        .map(|e| e.detail)
        .collect();
    CutRun {
        outcomes,
        report,
        suspends,
    }
}

/// Asserts every outcome completed bit-identical to its solo run.
fn assert_solo(
    t: &Transformer<'_>,
    run: &CutRun,
    requests: &[GenerationRequest],
    chunk_len: usize,
    what: &str,
) {
    for (i, (o, r)) in run.outcomes.iter().zip(requests).enumerate() {
        assert_eq!(o.status, RequestStatus::Completed, "{what}: request {i}");
        assert_eq!(
            o.tokens,
            solo(t, r, chunk_len),
            "{what}: request {i} != solo"
        );
    }
}

/// A trigger, a long prompt and a probe, with one slot: the long
/// prompt's prefill is cut when the probe arrives — at its first chunk
/// boundary that completes a full page — its completed full pages are
/// cached, and it resumes behind the probe through a cache hit. Every
/// stream equals its solo run — at page sizes 1, 4 and 16, with
/// `chunk_len` 12 against 16-token pages (the cut is not page-aligned)
/// — and every run cut once and flushed leak-free.
#[test]
fn a_mid_prefill_arrival_cuts_and_resumes_bit_identical_at_every_page_size() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let trigger = GenerationRequest::new(tokens(4, 5), 2);
    let long = GenerationRequest::new(tokens(50, 7), 3);
    let probe = GenerationRequest::new(tokens(6, 11), 3);
    for (bt, chunk_len, workers) in [(1, 3, 1), (4, 3, 2), (16, 3, 3), (16, 12, 4), (4, 5, 2)] {
        let eng = engine(chunk_len, workers);
        let opts = ServeOptions {
            max_active: 1,
            block_tokens: bt,
            kv_pool_blocks: Some(256usize.div_ceil(bt)),
            ..serve_opts()
        };
        let what = format!("page {bt}, chunk {chunk_len}, {workers} worker(s)");
        let batch = [trigger.clone(), long.clone()];
        let run = cut_run(&eng, &t, opts, &batch, std::slice::from_ref(&probe), None);
        assert_solo(
            &t,
            &run,
            &[trigger.clone(), long.clone(), probe.clone()],
            chunk_len,
            &what,
        );
        assert_eq!(
            run.report.suspensions, 1,
            "{what}: the long prefill was cut once"
        );
        let at = bt.div_ceil(chunk_len);
        assert_eq!(
            run.suspends,
            [format!("suspended after {at} chunk(s)")],
            "{what}"
        );
        assert_eq!(run.report.metrics.counter("serve.suspensions"), 1, "{what}");
        assert_eq!(
            run.report.requests, 3,
            "{what}: a suspension is not a served request"
        );
        assert!(
            run.report.cache.hits >= 1,
            "{what}: the resumed prefill hit its own cached pages"
        );
    }
}

/// The cut on the paper's backend: shadow-int8 streams resume
/// bit-identical too, at 1–4 pool workers.
#[test]
fn a_cut_prefill_resumes_bit_identical_on_shadow_int8_at_any_worker_count() {
    let w = mini_model();
    let float = FloatBackend::new(w.clone());
    let cal = Transformer::new(&w, &float)
        .calibrate(&[tokens(8, 7), tokens(6, 5)])
        .unwrap();
    let shadow = ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap();
    let backends: [(&str, &dyn LinearBackend); 2] = [("f32", &float), ("shadow-int8", &shadow)];
    let batch = [
        GenerationRequest::new(tokens(5, 3), 2),
        GenerationRequest::new(tokens(41, 13), 4),
    ];
    let probe = GenerationRequest::new(tokens(7, 17), 2);
    let chunk_len = 4;
    for (name, be) in backends {
        let t = Transformer::new(&w, be);
        for workers in 1..=4 {
            let eng = engine(chunk_len, workers);
            let opts = ServeOptions {
                max_active: 1,
                ..serve_opts()
            };
            let run = cut_run(&eng, &t, opts, &batch, std::slice::from_ref(&probe), None);
            let what = format!("{name}, {workers} worker(s)");
            let all = [batch[0].clone(), batch[1].clone(), probe.clone()];
            assert_solo(&t, &run, &all, chunk_len, &what);
            assert_eq!(run.report.suspensions, 1, "{what}");
        }
    }
}

/// A request whose prompt prefix comes from the cache with a sub-page
/// tail (10 tokens over 4-token pages: 2 cached pages adopted, 2 rows
/// row-copied, its own prefill starting at position 10) is cut
/// mid-prefill at its earliest boundary, publishes the pages it
/// completed, and resumes bit-identical. One slot throughout. Batch 1
/// (the donor of the pages, then a short request no boundary can cut):
/// their first tokens submit the trigger and the sharer, which form
/// batch 2 once it ends. In batch 2 the trigger's first token submits
/// the probe before the sharer admits, so the sharer's first prefill
/// task finds the round yielding.
#[test]
fn a_cache_hit_sharer_cut_at_an_unaligned_offset_resumes_bit_identical() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let common = tokens(10, 7);
    // The other prompts share no first token with any cached page, so
    // only the sharer's lookup and its resume hit the cache.
    let batch = [
        GenerationRequest::new([common.as_slice(), &[90, 91]].concat(), 1),
        GenerationRequest::new(vec![70, 71, 72, 73], 2),
    ];
    let probes = [
        GenerationRequest::new(vec![75, 76, 77, 78], 2),
        GenerationRequest::new([common.as_slice(), &tokens(40, 11)].concat(), 3),
        GenerationRequest::new(vec![80, 81, 82, 83, 84], 2),
    ];
    for workers in 1..=4 {
        let eng = engine(chunk_len, workers);
        let opts = ServeOptions {
            max_active: 1,
            decode_batch: 1,
            ..serve_opts()
        };
        let run = cut_run(&eng, &t, opts, &batch, &probes, None);
        let what = format!("{workers} worker(s)");
        let all: Vec<GenerationRequest> = batch.iter().chain(&probes).cloned().collect();
        assert_solo(&t, &run, &all, chunk_len, &what);
        // The cached tail leaves 2 rows to the next page boundary: the
        // cut falls after the first 3-token chunk, with 12 tokens' full
        // pages published.
        assert_eq!(
            run.suspends,
            ["suspended after 1 chunk(s)".to_owned()],
            "{what}"
        );
        assert_eq!(run.report.suspensions, 1, "{what}");
        // The sharer's hit (2 full pages + 2 tail rows) and its resume
        // (3 full pages: the donor's first two and its own third).
        assert_eq!(run.report.cache.hits, 2, "{what}");
        assert_eq!(run.report.cache.hit_tokens, 10 + 12, "{what}");
        assert_eq!(run.report.cache.hit_blocks, 2 + 3, "{what}");
    }
}

/// A request cancelled while it waits to resume ends `Cancelled`
/// without reserving a page in its resumed batch; everyone else's
/// stream is untouched.
#[test]
fn a_request_cancelled_while_suspended_ends_cancelled_leak_free() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 2);
    let batch = [
        GenerationRequest::new(tokens(4, 5), 2),
        GenerationRequest::new(tokens(45, 7), 3),
    ];
    let probes = [
        GenerationRequest::new(tokens(6, 11), 2),
        GenerationRequest::new(tokens(3, 13), 2),
    ];
    let opts = ServeOptions {
        max_active: 1,
        ..serve_opts()
    };
    // First token 0 (the trigger's) submits probe 0 and cuts the long
    // prefill; first token 1 (probe 0's, in the next batch) lands while
    // the suspended request still waits for the one slot.
    let run = cut_run(&eng, &t, opts, &batch, &probes, Some((1, 1)));
    assert_eq!(run.report.suspensions, 1);
    assert_eq!(run.outcomes[1].status, RequestStatus::Cancelled);
    assert!(run.outcomes[1].tokens.is_empty());
    let survivors = [batch[0].clone(), probes[0].clone(), probes[1].clone()];
    let survived = CutRun {
        outcomes: [0, 2, 3].map(|i| run.outcomes[i].clone()).to_vec(),
        ..run
    };
    assert_solo(&t, &survived, &survivors, chunk_len, "survivors");
    assert_eq!(survived.report.cancelled, 1);
}

/// A flood of arrivals delays a long prompt but never starves it: each
/// probe's first token submits the next, every batch cuts the long
/// prefill again, and every cut falls after at least one completed
/// chunk — so the long prompt finishes, bit-identical, however many
/// arrive.
#[test]
fn a_flood_of_arrivals_never_starves_a_long_prefill() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let long = GenerationRequest::new(tokens(36, 7), 3);
    let chunks = long.prompt.len().div_ceil(chunk_len);
    let batch = [GenerationRequest::new(tokens(4, 5), 2), long.clone()];
    let probes: Vec<GenerationRequest> = (0..6u32)
        .map(|i| GenerationRequest::new(tokens(3 + i as usize, 11 + i), 2))
        .collect();
    for workers in 1..=4 {
        let eng = engine(chunk_len, workers);
        let opts = ServeOptions {
            max_active: 1,
            ..serve_opts()
        };
        let run = cut_run(&eng, &t, opts, &batch, &probes, None);
        let what = format!("{workers} worker(s)");
        let all: Vec<GenerationRequest> = batch.iter().chain(&probes).cloned().collect();
        assert_solo(&t, &run, &all, chunk_len, &what);
        assert!(run.report.suspensions >= 1, "{what}: no cut");
        assert!(
            run.report.suspensions < chunks,
            "{what}: {} cuts of a {chunks}-chunk prefill",
            run.report.suspensions
        );
        for detail in &run.suspends {
            let done: usize = detail
                .trim_start_matches("suspended after ")
                .trim_end_matches(" chunk(s)")
                .parse()
                .unwrap();
            assert!(done >= 1, "{what}: a cut without progress: {detail}");
        }
        assert_eq!(
            run.report.suspensions,
            probes.len(),
            "{what}: every arrival cut the long prefill once"
        );
    }
}

/// Time spent queued counts against a request's deadline: a probe with
/// a 5 ms budget submitted behind a request that is decoding (never
/// cut) waits out that request's batch and ends `DeadlineExceeded`
/// without joining a batch, where it used to get its whole budget back
/// once its own batch started.
#[test]
fn a_deadline_spent_in_the_queue_expires_before_the_request_runs() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let chunk_len = 3;
    let eng = engine(chunk_len, 2);
    let long = GenerationRequest::new(tokens(8, 7), 40);
    let probe = GenerationRequest::new(tokens(5, 11), 2).with_deadline_ms(5.0);
    let mut opts = serve_opts();
    // The long request's stream outlasts the probe's budget: its
    // tokens are slowed in the sink, after its prefill is done.
    let slow: Arc<dyn Fn(&TokenEvent) + Send + Sync> = Arc::new(|ev: &TokenEvent| {
        if ev.step == 1 {
            thread::sleep(Duration::from_millis(20));
        }
    });
    opts.on_token = Some(slow);
    let run = cut_run(&eng, &t, opts, std::slice::from_ref(&long), &[probe], None);
    assert_eq!(run.outcomes[0].tokens, solo(&t, &long, chunk_len));
    assert_eq!(run.outcomes[1].status, RequestStatus::DeadlineExceeded);
    assert!(run.outcomes[1].tokens.is_empty());
    assert_eq!(run.report.deadline_exceeded, 1);
    assert_eq!(run.report.suspensions, 0, "a decoding request is never cut");
}

/// What a [`retry_run`] observed.
struct RetryRun {
    /// A's outcome, then the batch-mate's and the arrival's, if any.
    outcomes: Vec<RequestOutcome>,
    report: FrontendReport,
    /// Detail of every round event, in order.
    rounds: Vec<String>,
    /// Whether the batch-mate's `Finished` was already on its stream
    /// when A's retry streamed its first token.
    mate_done_at_retry: bool,
}

/// One front-end run in which request A (submission id 0) fails once:
/// a transient decode fault keyed on its id fires at step 1 of its
/// first attempt, and A has one retry. `mate` is submitted with A and
/// shares its failing round; `arrival` is submitted from A's first
/// token, while that round still runs. `run` must return `Ok`: its
/// final flush proves zero leaked pages.
fn retry_run(
    eng: &LlmNpuEngine,
    t: &Transformer<'_>,
    a: &GenerationRequest,
    mate: Option<&GenerationRequest>,
    arrival: Option<&GenerationRequest>,
) -> RetryRun {
    let obs = Observability::enabled();
    let fault = FaultSpec {
        request: 0,
        attempt: 1,
        site: FaultSite::Decode { step: 1 },
        mode: FaultMode::Error,
        permanent: false,
    };
    let mut opts = ServeOptions {
        max_retries: 1,
        retry_backoff_ms: 1.0,
        faults: Some(FaultPlan::new().with_fault(fault)),
        obs: Some(obs.clone()),
        ..serve_opts()
    };
    let client_cell: Arc<OnceLock<FrontendClient>> = Arc::default();
    let arrival_handle: Arc<Mutex<Option<StreamHandle>>> = Arc::default();
    let mate_handle: Arc<Mutex<Option<StreamHandle>>> = Arc::default();
    let mate_seen: Arc<Mutex<Vec<StreamEvent>>> = Arc::default();
    {
        let (client_cell, arrival_handle, mate_handle, mate_seen) = (
            Arc::clone(&client_cell),
            Arc::clone(&arrival_handle),
            Arc::clone(&mate_handle),
            Arc::clone(&mate_seen),
        );
        let arrival = arrival.cloned();
        let a_firsts = AtomicUsize::new(0);
        opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
            if ev.request != 0 || ev.step != 0 {
                return;
            }
            match a_firsts.fetch_add(1, Ordering::SeqCst) {
                0 => {
                    if let Some(r) = &arrival {
                        let client = client_cell.get().expect("client set before serving");
                        let h = client.submit(r.clone()).expect("front-end alive");
                        *arrival_handle.lock().unwrap() = Some(h);
                    }
                }
                1 => {
                    if let Some(h) = mate_handle.lock().unwrap().as_ref() {
                        mate_seen
                            .lock()
                            .unwrap()
                            .extend(std::iter::from_fn(|| h.try_recv()));
                    }
                }
                _ => {}
            }
        }));
    }
    let (client, fe) = frontend(opts);
    let a_handle = client.submit(a.clone()).unwrap();
    if let Some(m) = mate {
        *mate_handle.lock().unwrap() = Some(client.submit(m.clone()).unwrap());
    }
    let _ = client_cell.set(client.clone());
    let finished = |ev: StreamEvent| match ev {
        StreamEvent::Finished { outcome } => Some(outcome),
        StreamEvent::Token { .. } => None,
    };
    let (outcomes, mate_done_at_retry, report) = thread::scope(|s| {
        let serving = s.spawn(|| fe.run(eng, t));
        let mut outcomes = vec![a_handle.wait().expect("A's stream finishes")];
        let mut mate_done_at_retry = false;
        if let Some(h) = mate_handle.lock().unwrap().take() {
            let seen = std::mem::take(&mut *mate_seen.lock().unwrap());
            let early = seen.into_iter().find_map(finished);
            mate_done_at_retry = early.is_some();
            outcomes.push(early.or_else(|| h.wait()).expect("mate's stream finishes"));
        }
        if arrival.is_some() {
            let h = arrival_handle.lock().unwrap().take();
            outcomes.push(h.and_then(StreamHandle::wait).expect("arrival finishes"));
        }
        client.shutdown();
        let report = serving.join().unwrap().expect("leak-free run");
        (outcomes, mate_done_at_retry, report)
    });
    let rounds = obs
        .sink
        .snapshot()
        .events
        .into_iter()
        .filter(|e| e.kind == EventKind::Batch)
        .map(|e| e.detail)
        .collect();
    RetryRun {
        outcomes,
        report,
        rounds,
        mate_done_at_retry,
    }
}

/// Asserts every outcome completed bit-identical to its solo run, and
/// ran `attempts` incarnations.
fn assert_retried_solo(
    t: &Transformer<'_>,
    outcomes: &[RequestOutcome],
    expect: &[(&GenerationRequest, usize)],
    what: &str,
) {
    assert_eq!(outcomes.len(), expect.len(), "{what}");
    for (i, (o, &(r, attempts))) in outcomes.iter().zip(expect).enumerate() {
        assert_eq!(o.status, RequestStatus::Completed, "{what}: request {i}");
        assert_eq!(o.tokens, solo(t, r, 3), "{what}: request {i} != solo");
        assert_eq!(o.attempts, attempts, "{what}: request {i}'s attempts");
    }
}

/// A request that fails transiently is requeued, not retried inside its
/// round: its retry joins the next round beside the request submitted
/// while the failing round ran, instead of holding that request back
/// until the retries end. The fault is keyed on A's submission id, so
/// the newcomer never inherits it.
#[test]
fn a_retry_joins_the_next_round_beside_a_new_arrival() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let a = GenerationRequest::new(tokens(9, 5), 3);
    let b = GenerationRequest::new(tokens(7, 11), 2);
    for workers in 1..=4 {
        let run = retry_run(&engine(3, workers), &t, &a, None, Some(&b));
        let what = format!("{workers} worker(s)");
        assert_retried_solo(&t, &run.outcomes, &[(&a, 2), (&b, 1)], &what);
        assert_eq!(
            run.rounds,
            ["round 1: 1 request(s)", "round 2: 2 request(s)"],
            "{what}: A's retry and B share the second round"
        );
        assert_eq!(run.report.metrics.counter("serve.retries"), 1, "{what}");
        assert_eq!((run.report.completed, run.report.failed), (2, 0), "{what}");
    }
}

/// A batch-mate that completes in the round where A fails hears its
/// `Finished` in that round — at its last token, before A's retry round
/// starts — not once A's retries are over.
#[test]
fn a_batch_mate_finishes_before_the_failed_request_retries() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let a = GenerationRequest::new(tokens(9, 5), 3);
    let c = GenerationRequest::new(tokens(5, 13), 2);
    for workers in 1..=4 {
        let run = retry_run(&engine(3, workers), &t, &a, Some(&c), None);
        let what = format!("{workers} worker(s)");
        assert_retried_solo(&t, &run.outcomes, &[(&a, 2), (&c, 1)], &what);
        assert!(
            run.mate_done_at_retry,
            "{what}: the mate's Finished waited for A's retry"
        );
        assert_eq!(
            run.rounds,
            ["round 1: 2 request(s)", "round 2: 1 request(s)"],
            "{what}"
        );
    }
}

/// A stream hears `Finished` at its last token, not when its round
/// ends. A (2 tokens) and B (8 tokens) are submitted before the loop
/// starts, so they share one round and one decode cohort; B's step 2
/// depends on the batched step 1 that emits A's last token, so when B's
/// step-2 token reaches the `on_token` sink, A's stream must already
/// hold its two tokens and then its `Finished` — at any worker count.
/// Every stream gets exactly one `Finished`, after all of its tokens,
/// and equals its solo run.
#[test]
fn a_completed_stream_finishes_before_its_cohort_mate_decodes_on() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let a = GenerationRequest::new(tokens(7, 5), 2);
    let b = GenerationRequest::new(tokens(6, 11), 8);
    for workers in 1..=4 {
        let what = format!("{workers} worker(s)");
        let a_handle: Arc<Mutex<Option<StreamHandle>>> = Arc::default();
        let a_at_b2: Arc<Mutex<Option<Vec<StreamEvent>>>> = Arc::default();
        let obs = Observability::enabled();
        let mut opts = ServeOptions {
            decode_batch: 2,
            obs: Some(obs.clone()),
            ..serve_opts()
        };
        {
            let (a_handle, a_at_b2) = (Arc::clone(&a_handle), Arc::clone(&a_at_b2));
            opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
                if ev.request == 1 && ev.step == 2 {
                    let handle = a_handle.lock().unwrap();
                    let h = handle.as_ref().expect("A submitted before serving");
                    *a_at_b2.lock().unwrap() = Some(std::iter::from_fn(|| h.try_recv()).collect());
                }
            }));
        }
        let (client, fe) = frontend(opts);
        *a_handle.lock().unwrap() = Some(client.submit(a.clone()).unwrap());
        let b_handle = client.submit(b.clone()).unwrap();
        let eng = engine(3, workers);
        let (a_events, b_events) = thread::scope(|s| {
            let serving = s.spawn(|| fe.run(&eng, &t));
            let b_events: Vec<StreamEvent> = std::iter::from_fn(|| b_handle.recv()).collect();
            client.shutdown();
            serving.join().unwrap().expect("leak-free run");
            let a = a_handle.lock().unwrap().take().expect("A's handle");
            let a_rest: Vec<StreamEvent> = std::iter::from_fn(|| a.recv()).collect();
            assert!(
                a_rest.is_empty(),
                "{what}: A heard {a_rest:?} after B's step 2"
            );
            let a_events = a_at_b2.lock().unwrap().take();
            (a_events.expect("B reached step 2"), b_events)
        });
        let rounds: Vec<String> = obs
            .sink
            .snapshot()
            .events
            .into_iter()
            .filter(|e| e.kind == EventKind::Batch)
            .map(|e| e.detail)
            .collect();
        assert_eq!(rounds, ["round 1: 2 request(s)"], "{what}");
        for (events, r, name) in [(&a_events, &a, "A"), (&b_events, &b, "B")] {
            let (last, tokens) = events.split_last().expect("a stream");
            let tokens: Vec<u32> = tokens
                .iter()
                .enumerate()
                .map(|(i, ev)| match ev {
                    StreamEvent::Token { step, token } if *step == i => *token,
                    other => panic!("{what}: {name}'s event {i} is {other:?}"),
                })
                .collect();
            let StreamEvent::Finished { outcome } = last else {
                panic!("{what}: {name}'s stream does not end in Finished: {last:?}");
            };
            assert_eq!(outcome.status, RequestStatus::Completed, "{what}: {name}");
            assert_eq!(outcome.tokens, tokens, "{what}: {name}'s outcome != stream");
            assert_eq!(tokens, solo(&t, r, 3), "{what}: {name} != solo");
        }
    }
}

/// A transient fault fires once: on the attempt it names, of the
/// request it names. The trigger T (id 0) fails at decode step 1 of its
/// first attempt, and the probe P its first token submits cuts the long
/// prefill L (id 1), whose own first-attempt fault at decode step 0 lies
/// past where the cut ended that attempt. The next round holds P — at
/// T's old batch position — T's retry and L resumed on its second
/// attempt: neither fault fires again, so T's is the only retry, and
/// every stream equals its solo run.
#[test]
fn a_transient_fault_never_fires_again_on_a_newcomer_or_a_resumed_prefill() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let trigger = GenerationRequest::new(tokens(4, 5), 2);
    let long = GenerationRequest::new(tokens(45, 7), 3);
    let probe = GenerationRequest::new(tokens(6, 11), 2);
    let transient = |request: usize, step: usize| FaultSpec {
        request,
        attempt: 1,
        site: FaultSite::Decode { step },
        mode: FaultMode::Error,
        permanent: false,
    };
    let faults = FaultPlan::new()
        .with_fault(transient(0, 1))
        .with_fault(transient(1, 0));
    for workers in 1..=4 {
        let opts = ServeOptions {
            max_active: 1,
            max_retries: 1,
            retry_backoff_ms: 1.0,
            faults: Some(faults.clone()),
            ..serve_opts()
        };
        let batch = [trigger.clone(), long.clone()];
        let run = cut_run(
            &engine(3, workers),
            &t,
            opts,
            &batch,
            std::slice::from_ref(&probe),
            None,
        );
        let what = format!("{workers} worker(s)");
        assert_retried_solo(
            &t,
            &run.outcomes,
            &[(&trigger, 2), (&long, 2), (&probe, 1)],
            &what,
        );
        assert_eq!(
            run.report.suspensions, 1,
            "{what}: the long prefill was cut"
        );
        assert_eq!(run.report.metrics.counter("serve.retries"), 1, "{what}");
        assert_eq!(run.report.failed, 0, "{what}");
    }
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

    /// S1 boundary property: prefix reuse at *any* alignment — the
    /// reused length need not be a multiple of the page size (full
    /// cached pages are adopted, the sub-page tail is row-copied). For
    /// arbitrary page sizes, common-prefix lengths, and suffixes, a
    /// second batch on the session reuses exactly what the first one
    /// cached — `min(lcp, len_b − 1, ⌊len_a / bt⌋ · bt)` tokens (its
    /// prefill computes at least one token, and only full pages of A's
    /// prompt are cached) — both streams stay bit-identical to solo
    /// runs, and nothing leaks.
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
            kv_pool_blocks: Some((ra.total_tokens() + rb.total_tokens()).div_ceil(bt) + 2),
            pressure: PressurePolicy::Wait,
            decode_batch: 2,
            share_prefixes: true,
            ..ServeOptions::default()
        };
        let session = eng.open_serve_session(&t, &opts).unwrap();
        let rep_a = eng
            .serve_with_session(&t, std::slice::from_ref(&ra), &opts, &session)
            .unwrap();
        let rep_b = eng
            .serve_with_session(&t, std::slice::from_ref(&rb), &opts, &session)
            .unwrap();

        prop_assert_eq!(&rep_a.requests[0].tokens, &solo(&t, &ra, chunk_len));
        prop_assert_eq!(&rep_b.requests[0].tokens, &solo(&t, &rb, chunk_len));
        prop_assert_eq!(rep_a.kv.leaked_blocks, 0);
        prop_assert_eq!(rep_b.kv.leaked_blocks, 0);

        // The cache's exact reuse arithmetic.
        let real_lcp = pa.iter().zip(&pb).take_while(|(x, y)| x == y).count();
        let expect = real_lcp.min(pb.len() - 1).min(pa.len() / bt * bt);
        prop_assert_eq!(rep_b.kv.prefix_cache_hit_tokens, expect as u64);
        prop_assert_eq!(rep_b.kv.prefix_cache_hit_blocks, (expect / bt) as u64);
        session.flush().unwrap();
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
