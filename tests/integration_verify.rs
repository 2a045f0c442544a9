//! Static-verification tests: every serving plan the current tree
//! builds — eviction under memory pressure, batched decode, fault
//! injection — must verify clean through
//! [`LlmNpuEngine::verify_serve`] without executing a task, the
//! structural translation of bare prefill lane graphs must verify clean
//! too, and a real `serve` run — a session round adopting cached
//! prefix pages included — must carry the per-round proof stats it was
//! gated on.

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::faults::{FaultMode, FaultPlan, FaultSite, FaultSpec};
use llmnpu::core::serve::{GenerationRequest, PressurePolicy, ServeOptions};
use llmnpu::graph::dag::{build_prefill_dag, DagConfig};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::sched::LaneGraph;
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::verify::{verify, Report};
use llmnpu::workloads::traces::{ArrivalTrace, LengthMix};

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32).map(|i| (i * stride + 3) % 96).collect()
}

fn engine(chunk_len: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    LlmNpuEngine::new(cfg).unwrap()
}

fn assert_clean(name: &str, report: &Report) {
    assert!(
        report.is_clean(),
        "{name}: expected a clean plan, got:\n{}",
        report
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn plain_batch_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let requests = vec![
        GenerationRequest::new(tokens(10, 7), 4),
        GenerationRequest::new(tokens(4, 5), 6),
        GenerationRequest::new(tokens(7, 11), 5),
    ];
    let report = engine
        .verify_serve(&t, &requests, &ServeOptions::default())
        .unwrap();
    assert_clean("plain batch", &report);
    assert_eq!(report.stats.segments, 3);
    assert!(report.stats.tasks > 0);
    assert!(report.stats.alias_pairs > 0, "KV accesses must be modeled");
    assert!(report.stats.peak_pages > 0);
    assert!(Some(report.stats.peak_pages) <= report.stats.page_capacity);
}

#[test]
fn prefix_sharing_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    // Three requests off one 6-token common prefix over 4-token pages.
    // The first batch caches the first one's two full prompt pages; the
    // second batch's two requests each adopt page 0 and row-copy 2 tail
    // rows of page 1 — a round that declares the tail writes, proven
    // clean before it ran.
    let base = tokens(6, 7);
    let mk = |extra: &[u32], new| {
        let mut p = base.clone();
        p.extend_from_slice(extra);
        GenerationRequest::new(p, new)
    };
    let requests = [
        mk(&[50, 51, 52], 4),
        mk(&[60, 61, 62], 3),
        mk(&[70, 71, 72], 3),
    ];
    let opts = ServeOptions {
        block_tokens: 4,
        kv_pool_blocks: Some(12),
        share_prefixes: true,
        ..ServeOptions::default()
    };
    let session = engine.open_serve_session(&t, &opts).unwrap();
    engine
        .serve_with_session(&t, &requests[..1], &opts, &session)
        .unwrap();
    let report = engine
        .serve_with_session(&t, &requests[1..], &opts, &session)
        .unwrap();
    session.flush().unwrap();
    assert_eq!(
        (
            report.kv.prefix_cache_hit_blocks,
            report.kv.prefix_cache_hit_tokens
        ),
        (2, 12),
        "one full page and a 2-row tail per request"
    );
    let proof = &report.verification[0];
    assert_eq!(proof.segments, 2);
    assert!(proof.alias_pairs > 0, "KV accesses must be modeled");
    assert!(Some(proof.peak_pages) <= proof.page_capacity);
    assert_eq!(report.kv.leaked_blocks, 0);
}

#[test]
fn eviction_and_batched_decode_plan_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let requests: Vec<GenerationRequest> = (0..5)
        .map(|i| GenerationRequest::new(tokens(9 + 3 * (i % 3), 7 + i as u32), 4))
        .collect();
    let block_tokens = 3usize;
    let needs: Vec<usize> = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .collect();
    let pool_blocks = (needs.iter().sum::<usize>() / 2).max(*needs.iter().max().unwrap());
    let opts = ServeOptions {
        max_active: requests.len(),
        block_tokens,
        kv_pool_blocks: Some(pool_blocks),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        ..ServeOptions::default()
    };
    let report = engine.verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("eviction + batched decode", &report);
    assert!(
        report.stats.segments > requests.len(),
        "an undersized pool must plan evicted incarnations \
         ({} segments for {} requests)",
        report.stats.segments,
        requests.len()
    );
    assert!(report.stats.peak_pages <= pool_blocks);
}

#[test]
fn faulty_plan_verifies_clean_and_matches_execution() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let requests = vec![
        GenerationRequest::new(tokens(9, 7), 3),
        GenerationRequest::new(tokens(6, 5), 4),
    ];
    let plan = FaultPlan::default().with_fault(FaultSpec {
        request: 0,
        attempt: 1,
        site: FaultSite::Prefill { chunk: 0, layer: 0 },
        mode: FaultMode::Panic,
        permanent: false,
    });
    let opts = ServeOptions {
        max_retries: 2,
        retry_backoff_ms: 1.0,
        faults: Some(plan),
        ..ServeOptions::default()
    };
    let verified = engine.verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("faulty batch", &verified);

    // The real run proves every round before it runs and reports the
    // stats each was gated on: the transient fault requeues request 0
    // for the next round, so the run takes at least two rounds, the
    // first of which analyzed the same plan the dry run did.
    let report = engine.serve(&t, &requests, &opts).unwrap();
    assert!(
        report.verification.len() >= 2,
        "a retried run must carry one proof per round, got {}",
        report.verification.len()
    );
    assert_eq!(report.verification[0].tasks, verified.stats.tasks);
    assert_eq!(report.verification[0].edges, verified.stats.edges);
    assert_eq!(report.verification[0].segments, verified.stats.segments);
    assert_eq!(report.kv.leaked_blocks, 0);
}

/// Pins the spliced round-1 graph itself: the proof sizes of the
/// `serving`, `memory_pressure` and `chaos` example configurations
/// (exactly as `examples/verify_plan.rs` builds them). A change to the
/// planner or the round builder that adds, drops or rewires a task
/// moves these numbers — a refactor must not.
#[test]
fn example_plans_keep_their_pinned_proof_sizes() {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(6);
    let requests = |shapes: &[(usize, usize)], arrivals: &[f64]| -> Vec<GenerationRequest> {
        shapes
            .iter()
            .zip(arrivals)
            .enumerate()
            .map(|(i, (&(prompt_len, max_new), &arrival))| {
                GenerationRequest::synthetic(i, prompt_len, max_new, cfg.vocab)
                    .with_arrival_ms(arrival)
            })
            .collect()
    };
    // Undersized pool: a fraction of the summed worst cases, but never
    // below the largest single request.
    let squeezed = |requests: &[GenerationRequest], divisor: usize| {
        let needs: Vec<usize> = requests
            .iter()
            .map(|r| r.total_tokens().div_ceil(4))
            .collect();
        (needs.iter().sum::<usize>() / divisor).max(*needs.iter().max().unwrap())
    };
    let pinned = |name: &str, requests: &[GenerationRequest], opts: &ServeOptions, want| {
        let report = engine.verify_serve(&t, requests, opts).unwrap();
        assert_clean(name, &report);
        let s = &report.stats;
        assert_eq!(
            (s.tasks, s.edges, s.segments, s.peak_pages),
            want,
            "{name}: (tasks, edges, segments, peak_pages) moved"
        );
    };

    let serving = requests(
        &[(24, 6), (6, 10), (30, 4), (12, 8), (8, 8), (36, 3)],
        &ArrivalTrace::poisson(11, 200.0, 6).arrivals_ms,
    );
    let opts = ServeOptions {
        max_active: 3,
        ..ServeOptions::default()
    };
    pinned("serving", &serving, &opts, (297, 379, 6, 8));

    let mix = LengthMix::heavy_tail(11, 7, 6, 30);
    let trace = ArrivalTrace::heavy_tail(11, 2.0, 1.1, mix.len());
    let memory_pressure = requests(&mix.shapes, &trace.arrivals_ms);
    let opts = ServeOptions {
        max_active: memory_pressure.len(),
        block_tokens: 4,
        kv_pool_blocks: Some(squeezed(&memory_pressure, 2)),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        ..ServeOptions::default()
    };
    // Its 2-wide cohorts emit step 0 as one width-1 task per member.
    pinned(
        "memory_pressure",
        &memory_pressure,
        &opts,
        (437, 566, 11, 15),
    );

    let mix = LengthMix::heavy_tail(11, 24, 5, 24);
    let trace = ArrivalTrace::heavy_tail(11, 1.5, 1.1, mix.len());
    let chaos = requests(&mix.shapes, &trace.arrivals_ms);
    let fault = |request, site, mode, permanent| FaultSpec {
        request,
        attempt: 1,
        site,
        mode,
        permanent,
    };
    let plan = FaultPlan::seeded(2025, chaos.len(), 0.7)
        .with_fault(fault(
            0,
            FaultSite::Prefill { chunk: 0, layer: 0 },
            FaultMode::Panic,
            false,
        ))
        .with_fault(fault(
            1,
            FaultSite::Decode { step: 0 },
            FaultMode::Error,
            true,
        ));
    let opts = ServeOptions {
        max_active: 6,
        block_tokens: 4,
        kv_pool_blocks: Some(squeezed(&chaos, 5)),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        share_prefixes: true,
        max_retries: 2,
        retry_backoff_ms: 1.0,
        faults: Some(plan),
        ..ServeOptions::default()
    };
    // Twelve 2-wide cohorts, so twelve more step-0 tasks and edges.
    pinned("chaos", &chaos, &opts, (1157, 1391, 40, 21));
}

#[test]
fn verify_serve_reserves_no_pages_and_is_idempotent() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let requests = vec![
        GenerationRequest::new(tokens(8, 7), 3),
        GenerationRequest::new(tokens(5, 5), 3),
    ];
    let opts = ServeOptions::default();
    let a = engine.verify_serve(&t, &requests, &opts).unwrap();
    let b = engine.verify_serve(&t, &requests, &opts).unwrap();
    assert_clean("first dry run", &a);
    assert_eq!(a.stats.tasks, b.stats.tasks);
    assert_eq!(a.stats.edges, b.stats.edges);
    assert_eq!(a.stats.peak_pages, b.stats.peak_pages);
    // The dry runs left no trace: a real serve on the same engine still
    // completes leak-free with the same plan shape.
    let report = engine.serve(&t, &requests, &opts).unwrap();
    assert_eq!(report.kv.leaked_blocks, 0);
    assert_eq!(report.verification.len(), 1);
    assert_eq!(report.verification[0].tasks, a.stats.tasks);
}

#[test]
fn empty_batch_verifies_clean() {
    let w = mini_model();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let engine = engine(3);
    let report = engine
        .verify_serve(&t, &[], &ServeOptions::default())
        .unwrap();
    assert_clean("empty batch", &report);
    assert_eq!(report.stats.tasks, 0);
}

#[test]
fn structural_prefill_graphs_verify_clean() {
    // The sched-layer translation: bare prefill lane graphs (what the
    // executor's debug hook verifies on every run) are structurally
    // clean at several prompt/chunk shapes and shadow fractions.
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    for (prompt, chunk, shadow) in [(9, 3, 0.0), (12, 4, 0.5), (10, 5, 1.0)] {
        let mut dc = DagConfig::llmnpu_default(prompt, chunk).unwrap();
        dc.shadow_fraction = shadow;
        let dag = build_prefill_dag(&cfg, &dc, &lat).unwrap();
        let graph = LaneGraph::from_prefill_dag(&dag).unwrap();
        let report = verify(&graph.verify_plan());
        assert_clean(&format!("prefill dag {prompt}/{chunk}/{shadow}"), &report);
        assert_eq!(report.stats.tasks, graph.len());
        assert!(report.stats.lanes >= 2, "prefill must span CPU and NPU");
    }
}
