//! Lending: in lane mode a lane with no ready task runs bands of the
//! kernel calls a busy lane posts (`sched::pool` module docs). These
//! tests hold the two halves of that contract:
//!
//! * **Bit-invisible, and real.** A decode wave on int4 weights with
//!   cohorts, a shadow-int8 chunked prefill and an f32 chat round with
//!   shared prefixes, each served on 2-, 3- and 4-worker pools: every
//!   stream equals its solo `generate`, no page leaks, and the pool's
//!   `pool.lent_batches` counter is non-zero, so lending really ran.
//!   Lent time shows up as `lent` spans on the lending lane, never
//!   overlapping that lane's tasks.
//! * **Hostile timing.** A band that panics on the helping lane fails
//!   only the lending task; a task that becomes ready mid-loan is taken
//!   after at most one more band; a run ends (and the pool drops) with a
//!   lane parked; and yield-perturbed lane graphs give the same bits at
//!   every pool width.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::serve::{GenerationRequest, ServeOptions, ServeReport};
use llmnpu::model::backend::{FloatBackend, LinearBackend, LutBackend, ShadowBackend};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::sample::SamplerConfig;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::obs::trace::LENT_CLASS;
use llmnpu::obs::{MetricsRegistry, Observability};
use llmnpu::sched::{
    execute_lane_graph, execute_lane_graph_contained, LaneGraph, LaneTask, Policy, TaskFn,
    TaskOutcome, WorkerPool,
};
use llmnpu::soc::spec::SocSpec;
use llmnpu::soc::Processor;
use llmnpu::tensor::kernel::{self, pack::PackedMatrixF32, parallel};

/// Serializes the tests in this binary: lending needs the idle lane to
/// get a core, and concurrent tests' pools would crowd it out.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A wide vocabulary makes the LM head the step's long kernel call:
/// its bands take long enough that an idle lane reliably claims one.
const VOCAB: usize = 2048;

fn model() -> ModelWeights {
    let cfg = ModelConfig::qwen15_18b()
        .scaled_down(128, 2, VOCAB)
        .unwrap();
    synthesize(&cfg, 11, OutlierSpec::default()).unwrap()
}

fn tokens(n: usize, stride: u32) -> Vec<u32> {
    (0..n as u32)
        .map(|i| (i * stride + 5) % VOCAB as u32)
        .collect()
}

fn engine(chunk_len: usize, pool_workers: usize) -> LlmNpuEngine {
    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = chunk_len;
    cfg.pool_workers = pool_workers;
    LlmNpuEngine::new(cfg).unwrap()
}

/// Serves `requests` with observability on and checks the stream
/// identity, the leak count and the lent spans; returns the report.
fn serve_and_check(
    what: &str,
    t: &Transformer<'_>,
    requests: &[GenerationRequest],
    chunk_len: usize,
    workers: usize,
    opts: ServeOptions,
) -> ServeReport {
    let solo: Vec<Vec<u32>> = requests
        .iter()
        .map(|r| {
            t.generate(&r.prompt, Some(chunk_len), r.max_new_tokens, &r.sampler)
                .unwrap()
        })
        .collect();
    let obs = Observability::enabled();
    let opts = ServeOptions {
        obs: Some(obs.clone()),
        ..opts
    };
    let report = engine(chunk_len, workers)
        .serve(t, requests, &opts)
        .unwrap();
    let what = format!("{what}, {workers} workers");
    for (r, outcome) in report.requests.iter().enumerate() {
        assert_eq!(outcome.tokens, solo[r], "{what}: request {r} diverged");
    }
    assert_eq!(report.kv.leaked_blocks, 0, "{what}");

    // Lent time is busy time on the lending lane, and a lane still runs
    // one thing at a time: no lent span overlaps a task of its lane.
    let log = obs.sink.snapshot();
    let lent: Vec<_> = log.spans.iter().filter(|s| s.class == LENT_CLASS).collect();
    for l in &lent {
        assert!(
            l.request.is_none() && l.end_ms >= l.start_ms,
            "{what}: {l:?}"
        );
        let clash = log.spans.iter().find(|s| {
            s.class != LENT_CLASS
                && s.lane == l.lane
                && s.start_ms < l.end_ms - 1e-9
                && l.start_ms < s.end_ms - 1e-9
        });
        assert!(clash.is_none(), "{what}: {l:?} overlaps {clash:?}");
    }
    let lent_batches = report.metrics.counter("pool.lent_batches");
    assert_eq!(
        lent_batches > 0,
        !lent.is_empty(),
        "{what}: a lent band makes a lent span"
    );
    report
}

#[test]
fn lending_is_bit_invisible_and_actually_happens() {
    let _serial = serial();
    let w = model();

    // A decode wave on int4 weights: eight short prompts in one cohort,
    // the CPU lane running every step while the NPU lane lends.
    let lut = LutBackend::int4(&w, 32).unwrap();
    let wave: Vec<GenerationRequest> = (0..8u32)
        .map(|r| {
            let req = GenerationRequest::new(tokens(5 + r as usize, 7 + 2 * r), 24);
            if r % 2 == 0 {
                req
            } else {
                req.with_sampler(SamplerConfig::top_k(8, 0.9, 40 + u64::from(r)))
            }
        })
        .collect();

    // A shadow-int8 chunked prefill: the paper's split lanes.
    let float = FloatBackend::new(w.clone());
    let cal = Transformer::new(&w, &float)
        .calibrate(&[tokens(12, 7), tokens(9, 5)])
        .unwrap();
    let shadow = ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap();
    let prefill = vec![
        GenerationRequest::new(tokens(40, 3), 2),
        GenerationRequest::new(tokens(33, 11), 2),
    ];

    // An f32 chat round over a shared system prompt.
    let system = tokens(17, 13);
    let chat: Vec<GenerationRequest> = [&[1u32, 2, 3][..], &[40, 41], &[9]]
        .iter()
        .map(|tail| GenerationRequest::new([system.as_slice(), tail].concat(), 6))
        .collect();

    let backends: [(&str, &dyn LinearBackend, &[GenerationRequest], ServeOptions); 3] = [
        (
            "int4 decode wave",
            &lut,
            &wave,
            ServeOptions {
                max_active: 8,
                decode_batch: 8,
                ..ServeOptions::default()
            },
        ),
        (
            "shadow-int8 prefill",
            &shadow,
            &prefill,
            ServeOptions {
                max_active: 2,
                ..ServeOptions::default()
            },
        ),
        (
            "f32 chat round",
            &float,
            &chat,
            ServeOptions {
                max_active: 3,
                decode_batch: 3,
                share_prefixes: true,
                block_tokens: 4,
                ..ServeOptions::default()
            },
        ),
    ];
    for workers in [2usize, 3, 4] {
        let mut lent_batches = 0;
        for (what, be, requests, opts) in &backends {
            let t = Transformer::new(&w, *be);
            let report = serve_and_check(what, &t, requests, 8, workers, opts.clone());
            lent_batches += report.metrics.counter("pool.lent_batches");
        }
        // Hundreds of kernel calls posted while the other lane idled:
        // lending must have happened. (A single short serve can miss
        // every loan when the OS runs both lanes on one core until it
        // rebalances, so the three are counted together.)
        assert!(lent_batches > 0, "{workers} workers: nothing was lent");
    }
}

fn lane_task(label: &str, processor: Processor, release_ms: f64) -> LaneTask {
    LaneTask {
        label: label.to_owned(),
        processor,
        duration_ms: 1.0,
        release_ms,
        barrier: false,
    }
}

/// Spins (sleeping a millisecond a turn) until `flag` is set or ten
/// seconds pass.
fn wait_for(flag: &AtomicBool) {
    let until = Instant::now() + Duration::from_secs(10);
    while !flag.load(Ordering::Acquire) && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_band_that_panics_on_the_helper_fails_only_the_lending_task() {
    let _serial = serial();
    let pool = WorkerPool::new(2);
    let registry = MetricsRegistry::default();
    pool.install_metrics(&registry);
    let mut graph = LaneGraph::new();
    graph
        .push(lane_task("lender", Processor::Npu, 0.0), vec![])
        .unwrap();
    // Released later, so the CPU lane is idle — and lends — first.
    graph
        .push(lane_task("later", Processor::Cpu, 30.0), vec![])
        .unwrap();
    let helper_band_started = AtomicBool::new(false);
    let later_ran = AtomicBool::new(false);
    let closures: Vec<TaskFn<'_>> = vec![
        Box::new(|| {
            let lender = std::thread::current().id();
            let mut rows = [0u32; 2];
            // The lender's band holds on until the other band has started
            // on the idle lane, and that one fails.
            parallel::run_row_partitioned(2, 2, 1, &mut rows, |_, _, _| {
                if std::thread::current().id() == lender {
                    wait_for(&helper_band_started);
                } else {
                    helper_band_started.store(true, Ordering::Release);
                    panic!("the helper's band fails");
                }
            });
            Ok(())
        }),
        Box::new(|| {
            later_ran.store(true, Ordering::Release);
            Ok(())
        }),
    ];
    let run = execute_lane_graph_contained(&graph, closures, Policy::OutOfOrder, &pool, None, None)
        .unwrap();
    let error = run.outcomes[0].error().expect("the lending task fails");
    assert!(
        error.contains("lending its core panicked"),
        "the helper's panic is the lender's failure: {error}"
    );
    assert!(
        run.outcomes[1].is_completed(),
        "the helping lane keeps serving: {:?}",
        run.outcomes[1]
    );
    assert!(later_ran.load(Ordering::Acquire));
    assert_eq!(registry.snapshot().counter("pool.lent_batches"), 1);
    assert!(run.lent.iter().any(|l| l.lane == Processor::Cpu));
}

#[test]
fn a_task_ready_mid_loan_is_taken_after_at_most_one_band() {
    let _serial = serial();
    const RELEASE_MS: f64 = 20.0;
    let pool = WorkerPool::new(2);
    let mut graph = LaneGraph::new();
    graph
        .push(lane_task("lender", Processor::Npu, 0.0), vec![])
        .unwrap();
    graph
        .push(lane_task("mid-loan", Processor::Cpu, RELEASE_MS), vec![])
        .unwrap();
    let base = Instant::now();
    let since = |at: Instant| at.duration_since(base).as_secs_f64() * 1e3;
    let released_task_started = AtomicBool::new(false);
    let bands: Mutex<Vec<(std::thread::ThreadId, f64)>> = Mutex::new(Vec::new());
    let task_at: Mutex<Option<(std::thread::ThreadId, f64)>> = Mutex::new(None);
    let closures: Vec<TaskFn<'_>> = vec![
        Box::new(|| {
            let lender = std::thread::current().id();
            let mut rows = [0u32; 8];
            parallel::run_row_partitioned(8, 8, 1, &mut rows, |_, _, _| {
                if std::thread::current().id() == lender {
                    // Keep the loan open until the released task runs.
                    wait_for(&released_task_started);
                    return;
                }
                let start = since(Instant::now());
                bands
                    .lock()
                    .unwrap()
                    .push((std::thread::current().id(), start));
                std::thread::sleep(Duration::from_millis(5));
            });
            Ok(())
        }),
        Box::new(|| {
            *task_at.lock().unwrap() = Some((std::thread::current().id(), since(Instant::now())));
            released_task_started.store(true, Ordering::Release);
            Ok(())
        }),
    ];
    let run = execute_lane_graph_contained(&graph, closures, Policy::OutOfOrder, &pool, None, None)
        .unwrap();
    assert!(run.outcomes.iter().all(TaskOutcome::is_completed));
    let (helper, started) = task_at.lock().unwrap().expect("the released task ran");
    let bands = bands.into_inner().unwrap();
    let helped: Vec<f64> = bands
        .iter()
        .filter(|(thread, _)| *thread == helper)
        .map(|&(_, at)| at)
        .collect();
    assert!(!helped.is_empty(), "the idle lane lent before the release");
    let after_release = helped
        .iter()
        .filter(|&&at| at >= RELEASE_MS && at <= started)
        .count();
    assert!(
        after_release <= 1,
        "the helper started {after_release} bands between the release and its task at {started:.2} ms: {helped:?}"
    );
}

#[test]
fn the_pool_shuts_down_with_a_lane_parked() {
    let _serial = serial();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let pool = WorkerPool::new(2);
        // The CPU task waits on the NPU one, far past the spin window:
        // the CPU lane parks, and the settled task must wake it.
        let mut graph = LaneGraph::new();
        let first = graph
            .push(lane_task("sleeper", Processor::Npu, 0.0), vec![])
            .unwrap();
        graph
            .push(lane_task("after", Processor::Cpu, 0.0), vec![first])
            .unwrap();
        let closures: Vec<TaskFn<'_>> = vec![
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(20));
                Ok(())
            }),
            Box::new(|| Ok(())),
        ];
        let spans = execute_lane_graph(&graph, closures, Policy::OutOfOrder, &pool).unwrap();
        assert!(spans[1].0 >= spans[0].1);

        // The failing NPU task poisons the CPU task the parked CPU lane
        // is waiting on, which settles the run: that must wake it too.
        let closures: Vec<TaskFn<'_>> = vec![
            Box::new(|| {
                std::thread::sleep(Duration::from_millis(20));
                Err("stop".to_owned())
            }),
            Box::new(|| Ok(())),
        ];
        assert!(execute_lane_graph(&graph, closures, Policy::OutOfOrder, &pool).is_err());
        drop(pool);
        done_tx.send(()).unwrap();
    });
    done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("a parked lane must not outlive its run or its pool");
}

/// Deterministic per-task perturbation: how often task `t` yields.
fn yields(t: usize, salt: usize) -> usize {
    (t * 7 + salt * 13) % 5
}

#[test]
fn yield_perturbed_lane_graphs_are_bit_identical_at_every_pool_width() {
    let _serial = serial();
    let (m, k, n) = (8usize, 96usize, 200usize);
    let weights: Vec<PackedMatrixF32> = (0..4)
        .map(|s| {
            let b: Vec<f32> = (0..k * n)
                .map(|i| ((i * 31 + s * 17) % 97) as f32 / 97.0 - 0.5)
                .collect();
            PackedMatrixF32::pack(&b, k, n)
        })
        .collect();
    let input = |t: usize| -> Vec<f32> {
        (0..m * k)
            .map(|i| ((i * 13 + t * 5) % 89) as f32 / 89.0 - 0.5)
            .collect()
    };
    let tasks = 12usize;
    // The reference: every task's product on one thread, no pool.
    let want: Vec<Vec<f32>> = (0..tasks)
        .map(|t| {
            let mut c = vec![0.0f32; m * n];
            kernel::gemm_f32_prepacked_batched(m, &input(t), &weights[t % 4], &mut c, 1);
            c
        })
        .collect();
    for workers in 1..=4usize {
        for salt in 0..3usize {
            let pool = WorkerPool::new(workers);
            // Two chains, one per lane, crossing at every third task.
            let mut graph = LaneGraph::new();
            for t in 0..tasks {
                let lane = if t % 2 == 0 {
                    Processor::Npu
                } else {
                    Processor::Cpu
                };
                let mut deps = Vec::new();
                if t >= 2 {
                    deps.push(t - 2);
                }
                if t % 3 == 2 {
                    deps.push(t - 1);
                }
                graph
                    .push(lane_task(&format!("t{t}"), lane, 0.0), deps)
                    .unwrap();
            }
            let outputs: Vec<Mutex<Vec<f32>>> =
                (0..tasks).map(|_| Mutex::new(vec![0.0; m * n])).collect();
            let bands_seen = AtomicUsize::new(0);
            let closures: Vec<TaskFn<'_>> = (0..tasks)
                .map(|t| {
                    let (outputs, weights, bands_seen) = (&outputs, &weights, &bands_seen);
                    Box::new(move || {
                        for _ in 0..yields(t, salt) {
                            std::thread::yield_now();
                        }
                        let a = input(t);
                        let mut c = vec![0.0f32; m * n];
                        let threads = parallel::effective_threads(4);
                        kernel::gemm_f32_prepacked_batched(m, &a, &weights[t % 4], &mut c, threads);
                        // A perturbed band loop of its own: rows in
                        // bands, each yielding before it writes.
                        let mut sums = vec![0.0f32; m];
                        parallel::run_row_partitioned(
                            threads,
                            m,
                            1,
                            &mut sums,
                            |row0, rows, band| {
                                for (r, s) in band.iter_mut().enumerate().take(rows) {
                                    for _ in 0..yields(row0 + r, salt) {
                                        std::thread::yield_now();
                                    }
                                    *s = c[(row0 + r) * n..][..n].iter().sum();
                                }
                                bands_seen.fetch_add(1, Ordering::Relaxed);
                            },
                        );
                        for (r, s) in sums.iter().enumerate() {
                            let direct: f32 = c[r * n..][..n].iter().sum();
                            if s.to_bits() != direct.to_bits() {
                                return Err(format!("row sum {r} moved"));
                            }
                        }
                        *outputs[t].lock().unwrap() = c;
                        Ok(())
                    }) as TaskFn<'_>
                })
                .collect();
            execute_lane_graph(&graph, closures, Policy::OutOfOrder, &pool).unwrap();
            for (t, out) in outputs.iter().enumerate() {
                let got = out.lock().unwrap();
                assert!(
                    got.iter()
                        .zip(&want[t])
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "task {t} at {workers} workers, salt {salt}"
                );
            }
            assert!(bands_seen.load(Ordering::Relaxed) >= tasks);
        }
    }
}
