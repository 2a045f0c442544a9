//! Unified-plane executor tests: the numeric out-of-order DAG runner
//! must be bit-identical to the sequential forward at every worker
//! count, every policy, and across repeated runs — and must demonstrably
//! overlap shadow-outlier tasks with the NPU main path.

use std::sync::Arc;

use llmnpu::graph::chunk::ChunkPlan;
use llmnpu::graph::dag::{build_prefill_dag, DagConfig, PrefillDag, TaskRole};
use llmnpu::model::backend::{
    FloatBackend, LinearBackend, LlmInt8Backend, PerGroupBackend, PerTensorBackend, ShadowBackend,
    SmoothQuantBackend,
};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::kv::PagedKvCache;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::sched::{execute_chunked_prefill, validate_timeline, LaneGraph, Policy, WorkerPool};
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;

fn mini_model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    synthesize(&cfg, 7, OutlierSpec::default()).unwrap()
}

fn tokens(n: usize, vocab: usize) -> Vec<u32> {
    (0..n as u32).map(|i| (i * 7 + 3) % vocab as u32).collect()
}

fn dag_for(
    cfg: &ModelConfig,
    prompt: usize,
    chunk: usize,
    shadow_fraction: f64,
) -> (PrefillDag, ChunkPlan) {
    let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
    let mut dc = DagConfig::llmnpu_default(prompt, chunk).unwrap();
    dc.shadow_fraction = shadow_fraction;
    let plan = dc.plan.clone();
    (build_prefill_dag(cfg, &dc, &lat).unwrap(), plan)
}

fn calibration(w: &ModelWeights) -> llmnpu::model::backend::CalibrationSet {
    let float = FloatBackend::new(w.clone());
    let t = Transformer::new(w, &float);
    t.calibrate(&[tokens(12, w.config.vocab), tokens(9, w.config.vocab)])
        .unwrap()
}

/// Every backend, every worker count, every policy: the executed hidden
/// states and cached K and V rows must be bit-identical to the sequential
/// chunked forward on the one-page store, and runs must be repeatable
/// bit-for-bit.
#[test]
fn executor_determinism_bit_identical_across_workers_and_backends() {
    let w = mini_model();
    let cfg = w.config.clone();
    let cal = calibration(&w);
    let toks = tokens(10, cfg.vocab);
    let chunk_len = 3;
    let (dag, plan) = dag_for(&cfg, toks.len(), chunk_len, 1.0);
    let graph = LaneGraph::from_prefill_dag(&dag).unwrap();

    let backends: Vec<Box<dyn LinearBackend>> = vec![
        Box::new(FloatBackend::new(w.clone())),
        Box::new(PerTensorBackend::new(&w, &cal).unwrap()),
        Box::new(PerGroupBackend::new(&w, 16).unwrap()),
        Box::new(SmoothQuantBackend::new(&w, &cal, 0.5).unwrap()),
        Box::new(LlmInt8Backend::new(&w, 6.0).unwrap()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.0).unwrap()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
    ];

    // CI's determinism loop varies LLMNPU_POOL_WORKERS; fold that width
    // into the matrix so the loop actually exercises extra pool shapes.
    let mut worker_counts = vec![1usize, 2, 4];
    let env_workers = WorkerPool::env_workers(0);
    if env_workers >= 1 && !worker_counts.contains(&env_workers) {
        worker_counts.push(env_workers);
    }

    for be in &backends {
        let t = Transformer::new(&w, be.as_ref());
        let mut seq_cache = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        let sequential = t.prefill_chunked(&toks, chunk_len, &mut seq_cache).unwrap();

        for &workers in &worker_counts {
            let pool = Arc::new(WorkerPool::new(workers));
            for policy in Policy::ALL {
                let first = execute_chunked_prefill(&t, &toks, &dag, &plan, policy, &pool).unwrap();
                assert_eq!(
                    first.hidden.as_slice(),
                    sequential.as_slice(),
                    "{} diverged from sequential ({workers} workers, {policy:?})",
                    be.name()
                );
                for layer in 0..cfg.layers {
                    let (exec_k, exec_v) = first.cache.rows(layer, toks.len()).unwrap();
                    let (seq_k, seq_v) = seq_cache.rows(layer, toks.len()).unwrap();
                    assert_eq!(
                        exec_k,
                        seq_k,
                        "{} kv keys diverged at layer {layer}",
                        be.name()
                    );
                    assert_eq!(
                        exec_v,
                        seq_v,
                        "{} kv values diverged at layer {layer}",
                        be.name()
                    );
                }
                validate_timeline(&first.timeline, &graph).unwrap();

                // Repeat runs are bit-identical (scheduling order must
                // never leak into the numerics).
                let second =
                    execute_chunked_prefill(&t, &toks, &dag, &plan, policy, &pool).unwrap();
                assert_eq!(first.hidden.as_slice(), second.hidden.as_slice());
            }
        }
    }
}

/// For backends whose activation handling is per-row (static calibrated
/// scales), chunked execution — sequential or DAG-executed — is
/// bit-identical even to the *whole-prompt* forward. (Per-group and
/// LLM.int8() quantize dynamically over the whole activation batch, so
/// their chunked results legitimately differ in the last bits; the seed
/// pins those with an MSE bound instead.)
#[test]
fn executor_bit_matches_whole_prompt_for_rowwise_backends() {
    let w = mini_model();
    let cfg = w.config.clone();
    let cal = calibration(&w);
    let toks = tokens(10, cfg.vocab);
    let (dag, plan) = dag_for(&cfg, toks.len(), 4, 0.15);
    let pool = Arc::new(WorkerPool::new(3));

    let backends: Vec<Box<dyn LinearBackend>> = vec![
        Box::new(FloatBackend::new(w.clone())),
        Box::new(PerTensorBackend::new(&w, &cal).unwrap()),
        Box::new(SmoothQuantBackend::new(&w, &cal, 0.5).unwrap()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.0).unwrap()),
    ];
    for be in &backends {
        let t = Transformer::new(&w, be.as_ref());
        let mut whole_cache = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        let whole = t.prefill_paged(&toks, 0, &mut whole_cache).unwrap();
        let exec =
            execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).unwrap();
        assert_eq!(
            exec.hidden.as_slice(),
            whole.as_slice(),
            "{} executed-chunked vs whole-prompt",
            be.name()
        );
    }
}

/// Decode after a DAG-executed prefill continues bit-identically to
/// decode after the sequential chunked prefill — the cache the executor
/// fills is the real thing — and releasing it frees exactly its pages.
#[test]
fn decode_continues_bit_identically_from_executed_cache() {
    let w = mini_model();
    let cfg = w.config.clone();
    let float = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &float);
    let toks = tokens(9, cfg.vocab);
    let (dag, plan) = dag_for(&cfg, toks.len(), 3, 0.15);
    let pool = Arc::new(WorkerPool::new(2));

    let decode_step = |cache: &mut PagedKvCache| {
        let hidden = t.prefill_paged(&[5], toks.len(), cache).unwrap();
        t.logits(&hidden).unwrap()
    };
    let mut seq_cache = PagedKvCache::solo(&cfg, toks.len() + 1).unwrap();
    t.prefill_chunked(&toks, 3, &mut seq_cache).unwrap();
    let seq_logits = decode_step(&mut seq_cache);

    let exec = execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).unwrap();
    let mut exec_cache = exec.cache;
    let exec_logits = decode_step(&mut exec_cache);
    assert_eq!(seq_logits.as_slice(), exec_logits.as_slice());

    let kv_pool = Arc::clone(exec_cache.pool());
    let held = kv_pool.config().blocks_for(exec_cache.capacity_tokens());
    assert_eq!(kv_pool.used_blocks(), held);
    assert_eq!(exec_cache.release().unwrap(), held);
    assert_eq!(kv_pool.used_blocks(), 0, "executed prefill leaked pages");
}

/// The §3.4 payoff, measured: shadow-outlier tasks (float lane) must
/// run concurrently with main-path tasks (NPU lane) in wall-clock time.
#[test]
fn shadow_tasks_overlap_npu_main_path_in_executed_timeline() {
    let w = mini_model();
    let cfg = w.config.clone();
    let cal = calibration(&w);
    // Unpruned shadow backend + fully-shadowed DAG: every layer hosts
    // shadow tasks, so the CPU lane is saturated with overlap work.
    let shadow = ShadowBackend::new(&w, &cal, 0.997, 0.0).unwrap();
    let t = Transformer::new(&w, &shadow);
    let toks = tokens(24, cfg.vocab);
    let (dag, plan) = dag_for(&cfg, toks.len(), 6, 1.0);
    let graph = LaneGraph::from_prefill_dag(&dag).unwrap();
    assert!(
        dag.tasks().iter().any(|task| task.role == TaskRole::Shadow),
        "dag must contain shadow tasks"
    );
    let pool = Arc::new(WorkerPool::new(3));

    // Two acceptable witnesses of concurrency, tried over a few runs:
    //
    // * measured wall-clock overlap between a shadow task and an NPU
    //   main task — the strong form, physically possible only with ≥ 2
    //   cores (lane threads are real OS threads, so any multicore host
    //   shows it);
    // * on a single core, where simultaneity cannot exist, the
    //   out-of-order dispatch witness: a *later* chunk's shadow task
    //   completes before an *earlier* chunk's NPU main task has even
    //   started — impossible under sequential chunk-by-chunk execution,
    //   and exactly the reordering the wall-clock overlap comes from
    //   once cores exist.
    let mut demonstrated = false;
    for _ in 0..5 {
        let exec =
            execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).unwrap();
        validate_timeline(&exec.timeline, &graph).unwrap();
        let overlap = exec.timeline.overlap(
            |e| e.meta.role == TaskRole::Shadow,
            |e| e.meta.role == TaskRole::Main && e.processor == Processor::Npu,
        );
        let entries = exec.timeline.entries();
        let reordered = entries.iter().any(|s| {
            s.meta.role == TaskRole::Shadow
                && entries.iter().any(|m| {
                    m.meta.role == TaskRole::Main
                        && m.processor == Processor::Npu
                        && s.meta.chunk > m.meta.chunk
                        && s.end <= m.start
                })
        });
        if overlap > 0.0 || reordered {
            demonstrated = true;
            break;
        }
    }
    assert!(
        demonstrated,
        "no wall-clock overlap and no out-of-order shadow dispatch observed"
    );
}

/// The executed timeline is a *valid schedule* of the same DAG the
/// timing plane prices: same task set, dependencies respected, one task
/// per lane at a time — and the runner honors all three policies.
#[test]
fn executed_timeline_cross_checks_against_dag() {
    let w = mini_model();
    let cfg = w.config.clone();
    let float = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &float);
    let toks = tokens(8, cfg.vocab);
    let (dag, plan) = dag_for(&cfg, toks.len(), 4, 1.0);
    let graph = LaneGraph::from_prefill_dag(&dag).unwrap();
    let pool = Arc::new(WorkerPool::new(2));

    for policy in Policy::ALL {
        let exec = execute_chunked_prefill(&t, &toks, &dag, &plan, policy, &pool).unwrap();
        validate_timeline(&exec.timeline, &graph).unwrap();
        assert_eq!(exec.timeline.entries().len(), dag.len());
        assert!(exec.timeline.makespan() > 0.0);
        // Busy time is conserved across lanes.
        let busy: f64 = [Processor::Npu, Processor::Cpu, Processor::Gpu]
            .iter()
            .map(|&p| exec.timeline.busy_time(p))
            .sum();
        assert!(busy > 0.0);
    }
}

/// Mismatched plan/token lengths and wrong-model DAGs are rejected
/// instead of executing garbage.
#[test]
fn executor_rejects_mismatched_inputs() {
    let w = mini_model();
    let cfg = w.config.clone();
    let float = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &float);
    let (dag, plan) = dag_for(&cfg, 8, 4, 0.0);
    let pool = Arc::new(WorkerPool::new(2));

    // Plan is for 8 tokens, give 6.
    let toks = tokens(6, cfg.vocab);
    assert!(execute_chunked_prefill(&t, &toks, &dag, &plan, Policy::OutOfOrder, &pool).is_err());

    // DAG built for a deeper model than the transformer.
    let deep = ModelConfig::qwen15_18b().scaled_down(48, 5, 96).unwrap();
    let (deep_dag, deep_plan) = dag_for(&deep, 8, 4, 0.0);
    let toks = tokens(8, cfg.vocab);
    assert!(
        execute_chunked_prefill(&t, &toks, &deep_dag, &deep_plan, Policy::OutOfOrder, &pool)
            .is_err()
    );
}
