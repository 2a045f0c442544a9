//! Unified-plane executor tests: the numeric out-of-order DAG runner
//! must be bit-identical to the sequential forward at every worker
//! count, every policy, and across repeated runs — and must demonstrably
//! overlap shadow-outlier tasks with the NPU main path.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

use llmnpu::graph::chunk::ChunkPlan;
use llmnpu::graph::dag::{build_prefill_dag, DagConfig, PrefillDag, TaskRole};
use llmnpu::model::backend::{
    FloatBackend, LinearBackend, LutBackend, PerTensorBackend, ShadowBackend, SmoothQuantBackend,
};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::kv::PagedKvCache;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::sched::{
    execute_chunked_prefill, execute_lane_graph, execute_lane_graph_contained, validate_timeline,
    GateFn, LaneGraph, LaneTask, Policy, SkipReason, TaskFn, TaskOutcome, WorkerPool,
};
use llmnpu::soc::des::{Timeline, TimelineEntry};
use llmnpu::soc::latency::LatencyModel;
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;
use llmnpu_bench::baselines::{LlmInt8Backend, PerGroupBackend};

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

/// Every served backend is row-wise (static calibrated scales, or a
/// scale per row), so chunked execution — sequential or DAG-executed —
/// is bit-identical even to the *whole-prompt* forward, shadow halves
/// pruned or not. (The per-group and LLM.int8() baselines quantize over
/// the whole activation batch, so their chunked results legitimately
/// differ in the last bits; `integration_numeric` pins those with an
/// MSE bound instead.)
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
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
        Box::new(LutBackend::int4(&w, 16).unwrap()),
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

fn lane_task(label: &str, processor: Processor, release_ms: f64, barrier: bool) -> LaneTask {
    LaneTask {
        label: label.to_owned(),
        processor,
        duration_ms: 1.0,
        release_ms,
        barrier,
    }
}

/// A closure that records that it ran and succeeds.
fn mark(flag: &AtomicBool) -> TaskFn<'_> {
    Box::new(move || {
        flag.store(true, Ordering::SeqCst);
        Ok(())
    })
}

/// One failing task fails only its own chain: its dependents never run,
/// a task on the other lane released well after the failure still runs
/// to completion, and the error names the failing task.
#[test]
fn a_failed_task_poisons_only_its_dependents() {
    let pool = WorkerPool::new(2);
    let mut graph = LaneGraph::new();
    let bad = graph
        .push(lane_task("bad", Processor::Npu, 0.0, false), vec![])
        .unwrap();
    let next = graph
        .push(lane_task("next", Processor::Npu, 0.0, false), vec![bad])
        .unwrap();
    graph
        .push(lane_task("last", Processor::Cpu, 0.0, false), vec![next])
        .unwrap();
    graph
        .push(
            lane_task("independent", Processor::Cpu, 20.0, false),
            vec![],
        )
        .unwrap();
    let ran: Vec<AtomicBool> = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
    let closures: Vec<TaskFn<'_>> = vec![
        Box::new(|| Err("injected".to_owned())),
        mark(&ran[1]),
        mark(&ran[2]),
        mark(&ran[3]),
    ];
    let err = execute_lane_graph(&graph, closures, Policy::OutOfOrder, &pool)
        .unwrap_err()
        .to_string();
    assert!(
        err.contains("bad") && err.contains("injected"),
        "error must name the failing task: {err}"
    );
    assert!(!ran[1].load(Ordering::SeqCst), "a dependent ran");
    assert!(!ran[2].load(Ordering::SeqCst), "a transitive dependent ran");
    assert!(
        ran[3].load(Ordering::SeqCst),
        "the independent task must still run"
    );
}

/// On a one-worker pool the lanes cannot each get a thread: the caller
/// runs the one lane loop over both lanes. Release times still hold, the
/// dependency chain still orders the tasks, and the timeline is a valid
/// schedule.
#[test]
fn a_one_worker_pool_runs_every_lane_on_the_caller() {
    let pool = WorkerPool::new(1);
    let mut graph = LaneGraph::new();
    let n0 = graph
        .push(lane_task("n0", Processor::Npu, 0.0, false), vec![])
        .unwrap();
    let c0 = graph
        .push(lane_task("c0", Processor::Cpu, 0.0, false), vec![n0])
        .unwrap();
    graph
        .push(lane_task("n1", Processor::Npu, 0.0, false), vec![c0])
        .unwrap();
    let c1 = graph
        .push(lane_task("c1", Processor::Cpu, 15.0, false), vec![])
        .unwrap();
    graph
        .push(lane_task("n2", Processor::Npu, 5.0, false), vec![c1])
        .unwrap();
    let threads: Vec<Mutex<Option<ThreadId>>> =
        (0..graph.len()).map(|_| Mutex::new(None)).collect();
    let closures: Vec<TaskFn<'_>> = threads
        .iter()
        .map(|slot| {
            Box::new(move || {
                *slot.lock().unwrap() = Some(std::thread::current().id());
                Ok(())
            }) as TaskFn<'_>
        })
        .collect();
    let spans = execute_lane_graph(&graph, closures, Policy::OutOfOrder, &pool).unwrap();

    let caller = std::thread::current().id();
    for slot in &threads {
        assert_eq!(
            *slot.lock().unwrap(),
            Some(caller),
            "a task left the caller"
        );
    }
    let mut timeline: Timeline = Timeline::new();
    for (task, &(start, end)) in graph.tasks().iter().zip(&spans) {
        assert!(
            start >= task.release_ms,
            "{} started at {start:.3} ms, before its release at {} ms",
            task.label,
            task.release_ms
        );
        timeline.record(TimelineEntry {
            label: task.label.clone(),
            processor: task.processor,
            start,
            end,
            meta: (),
        });
    }
    validate_timeline(&timeline, &graph).unwrap();
}

/// The dispatch gate works on the caller's loop too: a gated task and
/// its dependents are skipped without running, and a barrier behind it
/// still runs.
#[test]
fn the_gate_skips_gated_tasks_on_a_one_worker_pool() {
    let pool = WorkerPool::new(1);
    let mut graph = LaneGraph::new();
    let first = graph
        .push(lane_task("first", Processor::Npu, 0.0, false), vec![])
        .unwrap();
    let gated = graph
        .push(lane_task("gated", Processor::Cpu, 0.0, false), vec![first])
        .unwrap();
    graph
        .push(
            lane_task("poisoned", Processor::Npu, 0.0, false),
            vec![gated],
        )
        .unwrap();
    graph
        .push(lane_task("cleanup", Processor::Cpu, 0.0, true), vec![gated])
        .unwrap();
    graph
        .push(lane_task("other", Processor::Npu, 0.0, false), vec![])
        .unwrap();
    let ran: Vec<AtomicBool> = (0..graph.len()).map(|_| AtomicBool::new(false)).collect();
    let closures: Vec<TaskFn<'_>> = ran.iter().map(mark).collect();
    let gate: GateFn<'_> = Box::new(move |t, _| t == gated);
    let run = execute_lane_graph_contained(
        &graph,
        closures,
        Policy::OutOfOrder,
        &pool,
        Some(gate),
        None,
    )
    .unwrap();

    let skipped = |t: usize| match run.outcomes[t] {
        TaskOutcome::Skipped { reason, .. } => Some(reason),
        _ => None,
    };
    assert_eq!(skipped(1), Some(SkipReason::Gated));
    assert_eq!(skipped(2), Some(SkipReason::PoisonedDep));
    for t in [0, 3, 4] {
        assert!(run.outcomes[t].is_completed(), "task {t}");
    }
    let ran: Vec<bool> = ran.iter().map(|r| r.load(Ordering::SeqCst)).collect();
    assert_eq!(ran, [true, false, false, true, true]);
}
