//! Warm-path resource pinning: with the persistent pool installed, a
//! steady-state forward performs **zero thread spawns**, **zero B-side
//! weight packs**, and **zero A-panel scratch allocations** — the
//! ISSUE's counter-pinned acceptance criteria.
//!
//! Lives in its own test binary: `pack::a_scratch_grows` is
//! process-global (growth happens on pool worker threads), so the other
//! integration binaries' concurrent forwards would perturb the deltas.

use std::sync::Arc;

use llmnpu::graph::dag::{build_prefill_dag, DagConfig};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::kv::PagedKvCache;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::sched::{execute_chunked_prefill, Policy, WorkerPool};
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::tensor::kernel::pack;
use llmnpu::tensor::kernel::parallel;

/// Serializes the tests in this binary: they read deltas of
/// process-global counters, so concurrent execution would cross-talk.
static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[test]
fn warm_forward_spawns_no_threads_and_allocates_no_panels() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96).unwrap();
    let w = synthesize(&cfg, 3, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let toks: Vec<u32> = (0..24u32).map(|i| (i * 5 + 1) % 96).collect();

    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    let dc = DagConfig::llmnpu_default(toks.len(), 8).unwrap();
    let plan = dc.plan.clone();
    let dag = build_prefill_dag(&cfg, &dc, &lat).unwrap();

    let pool = Arc::new(WorkerPool::new(4));
    pool.install_scope(|| {
        // Warmup: size every worker's scratch arena for both the
        // whole-prompt (m = 24) and the DAG-executed chunked shapes. The
        // deterministic lane partition sends the same band of the same
        // GEMM to the same worker on every pass, so one pass suffices.
        let mut cache = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        t.prefill_paged(&toks, 0, &mut cache).unwrap();
        execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).unwrap();

        let spawns = parallel::thread_spawns();
        // The *global* pack counter: the executed prefill's linears run
        // on pool worker threads, whose thread-local counters the
        // observing thread cannot see.
        let packs = pack::pack_b_calls_global();
        let grows = pack::a_scratch_grows();

        // Steady state: the same forwards again.
        let mut cache = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        t.prefill_paged(&toks, 0, &mut cache).unwrap();
        let exec =
            execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).unwrap();
        assert!(exec.hidden.as_slice().iter().all(|v| v.is_finite()));

        assert_eq!(
            parallel::thread_spawns() - spawns,
            0,
            "steady-state forwards must spawn no threads"
        );
        assert_eq!(
            pack::pack_b_calls_global() - packs,
            0,
            "steady-state forwards must never repack weights (any thread)"
        );
        assert_eq!(
            pack::a_scratch_grows() - grows,
            0,
            "steady-state forwards must not grow the A-panel arenas"
        );
    });
}

#[test]
fn scope_fallback_still_spawns_but_pool_does_not() {
    let _serial = COUNTER_LOCK.lock().unwrap();
    // The contrast that makes the pool's claim meaningful: the same
    // forward without an installed pool spawns per call (when the host
    // grants more than one effective thread — on a 1-core host the
    // scoped path collapses to inline and also spawns zero).
    let cfg = ModelConfig::qwen15_18b().scaled_down(32, 2, 64).unwrap();
    let w = synthesize(&cfg, 5, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let toks: Vec<u32> = (0..16u32).map(|i| (i * 3 + 2) % 64).collect();

    let pool = Arc::new(WorkerPool::new(4));
    let spawns_before = parallel::thread_spawns();
    pool.install_scope(|| {
        let mut cache = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        t.prefill_paged(&toks, 0, &mut cache).unwrap();
        // With the pool installed, the kernel reports the pool's width
        // as its effective concurrency even on a 1-core host.
        assert_eq!(parallel::effective_threads(8), 4);
    });
    assert_eq!(
        parallel::thread_spawns() - spawns_before,
        0,
        "pooled forward must not spawn"
    );
}
