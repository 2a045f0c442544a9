//! Per-layer metrics: what the traced phase's public reports say, plus
//! a replay of the workload's own inputs layer by layer, one harness
//! span around each public call.
//!
//! Replayed calls run on one thread (`InlineBackend`), as they do
//! inside a lane: pool workers run nested kernels inline, so a lane's
//! GEMM never fans out. Bandwidth figures are bytes computed from
//! tensor sizes over measured time, not counter reads.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;

use llmnpu::core::serve::GenerationRequest;
use llmnpu::graph::chunk::ChunkPlan;
use llmnpu::graph::dag::{build_prefill_dag, DagConfig, PrefillDag};
use llmnpu::kv::{BlockPool, BlockTable, PoolConfig, PrefixCache};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::{attention_over_pages, PagedDecodeEntry};
use llmnpu::model::kv::PagedKvCache;
use llmnpu::obs::calib::CalibrationRow;
use llmnpu::obs::TraceLog;
use llmnpu::quant::outlier::{calibrate_scale, extract_outliers, ShadowLinear};
use llmnpu::sched::{execute_lane_graph, LaneGraph, Policy, TaskFn};
use llmnpu::tensor::gemm;
use llmnpu::tensor::kernel::parallel::{with_backend, InlineBackend, Job};
use llmnpu::tensor::{PackedMatrixF32, PackedMatrixI4, PackedMatrixI8, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::check::Verdict;
use crate::drive::Phase;
use crate::e2e;
use crate::inputs::Inputs;
use crate::spans::Trace;
use crate::spec;
use crate::stack::{
    serve_options, Stack, BLOCK_TOKENS, CHUNK_LEN, MAX_ACTIVE, POOL_BLOCKS, POOL_WORKERS,
};
use crate::stats::{mean, median, tail_percentile};
use crate::Res;

/// Everything the traced pass collected before the replay.
pub struct Pass<'a> {
    pub workload: &'a str,
    pub stack: &'a Stack,
    pub inputs: &'a Inputs,
    /// The same blocks served with tracing off…
    pub untraced: &'a Phase,
    /// …and with `Observability::enabled()` and the kernel probe.
    pub traced: &'a Phase,
    pub log: &'a TraceLog,
    pub kernels: &'a [CalibrationRow],
    pub verdict: Verdict,
    /// Timed iterations per replayed call.
    pub iters: usize,
}

type Values = BTreeMap<&'static str, f64>;

pub fn per_layer(pass: &Pass<'_>, trace: &mut Trace) -> Res<Values> {
    let mut v = Values::new();
    traced_counts(pass, trace, &mut v);
    let root = trace.open("replay", "harness", None);
    with_backend(Arc::new(InlineBackend), || -> Res<()> {
        tensor_probes(pass, trace, root, &mut v)?;
        quant_probes(pass, trace, root, &mut v)?;
        model_probes(pass, trace, root, &mut v)
    })?;
    graph_verify_sched_probes(pass, trace, root, &mut v)?;
    kv_probes(pass, trace, root, &mut v)?;
    soc_probes(pass, trace, root, &mut v)?;
    trace.close(root);
    unattributed(pass, &mut v);
    Ok(v)
}

// ---------------------------------------------------------------------
// What the traced phase reported about itself
// ---------------------------------------------------------------------

fn traced_counts(pass: &Pass<'_>, trace: &mut Trace, v: &mut Values) {
    let (traced, untraced, log) = (pass.traced, pass.untraced, pass.log);
    let agg = &traced.agg;
    let requests = traced.samples.len().max(1) as f64;
    let wall_ms = traced.wall_s * 1e3;

    // The load generator's own view goes into the trace file: one span
    // per round, one envelope per request under it.
    for (r, round) in traced.rounds.iter().enumerate() {
        let id = trace.add(
            format!("round {r}"),
            "client",
            (round.start_s * 1e6, round.end_s * 1e6),
            None,
            None,
        );
        for &i in &round.samples {
            let s = &traced.samples[i];
            trace.add(
                format!("request b{}#{}", s.block, s.index),
                "client",
                (s.submit_s * 1e6, s.done_s * 1e6),
                Some(id),
                Some(i),
            );
        }
    }

    // Lane occupancy over the engine's own serving time: the host
    // analogue of the paper's NPU bubble rate.
    let busy = |pred: &dyn Fn(&llmnpu::obs::TraceSpan) -> bool| -> f64 {
        log.spans
            .iter()
            .filter(|s| pred(s))
            .map(|s| s.end_ms - s.start_ms)
            .sum()
    };
    let (npu, cpu) = (busy(&|s| s.lane == "Npu"), busy(&|s| s.lane == "Cpu"));
    let all = busy(&|_| true);
    let serve_ms = agg.serve_ms.max(f64::MIN_POSITIVE);
    v.insert("sched.lane_busy_frac_npu", npu / serve_ms);
    v.insert("sched.lane_busy_frac_cpu", cpu / serve_ms);
    v.insert("sched.lane_idle_frac", 1.0 - (npu + cpu) / (2.0 * serve_ms));
    v.insert(
        "sched.decode_busy_frac",
        if all > 0.0 {
            busy(&|s| s.class == "decode") / all
        } else {
            0.0
        },
    );
    v.insert("sched.tasks_per_req", log.spans.len() as f64 / requests);
    v.insert(
        "obs.spans_per_req",
        (log.spans.len() + log.events.len()) as f64 / requests,
    );

    // Kernel wall time summed over calls, per lane-second of the phase.
    let calls: u64 = pass.kernels.iter().map(|r| r.count).sum();
    let kernel_ms: f64 = pass.kernels.iter().map(|r| r.count as f64 * r.p50_ms).sum();
    v.insert("tensor.kernel_calls", calls as f64);
    v.insert(
        "tensor.kernel_busy_frac",
        kernel_ms / (wall_ms * POOL_WORKERS as f64),
    );

    let prompt_tokens: usize = traced.samples.iter().map(|s| s.prompt_tokens).sum();
    v.insert(
        "kv.prefix_hit_token_frac",
        agg.hit_tokens as f64 / prompt_tokens.max(1) as f64,
    );
    v.insert("kv.evicted_blocks", agg.evicted_blocks as f64);
    v.insert(
        "kv.peak_used_frac",
        agg.peak_used_blocks as f64 / agg.pool_blocks.max(1) as f64,
    );
    v.insert("kv.cow_copies", agg.cow_copies as f64);
    v.insert("kv.leaked_blocks", agg.leaked_blocks as f64);

    v.insert("core.batches", agg.batches as f64);
    v.insert(
        "core.batch_size_mean",
        agg.requests as f64 / agg.batches.max(1) as f64,
    );
    // Client TTFT minus the engine's own: time before the request's
    // batch even started.
    let waits: Vec<f64> = e2e::latency_samples(pass.workload, traced)
        .filter_map(|s| Some(s.ttft_ms()? - s.outcome.as_ref()?.ttft_ms()))
        .collect();
    v.insert("core.frontend_wait_ms_p50", median(&waits).unwrap_or(0.0));
    v.insert("core.serve_busy_frac", agg.serve_ms / wall_ms);
    v.insert("core.retries", agg.retries as f64);
    v.insert("core.preemptions", agg.preemptions as f64);

    let round_wall = |p: &Phase| {
        median(
            &p.rounds
                .iter()
                .map(|r| r.end_s - r.start_s)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0)
    };
    let (on, off) = (round_wall(traced), round_wall(untraced));
    v.insert(
        "obs.trace_overhead_frac",
        if off > 0.0 { (on - off) / off } else { 0.0 },
    );

    // Latency tails come from the tracing-off phase, like every
    // client-side number.
    let ttft = e2e::ttfts_ms(pass.workload, untraced);
    v.insert(
        "client.ttft_ms_p90",
        tail_percentile(&ttft, 90.0).unwrap_or(0.0),
    );
    let gaps = e2e::gaps_ms(pass.workload, untraced);
    v.insert("client.tpot_ms_p50", median(&gaps).unwrap_or(0.0));
    v.insert(
        "client.tpot_ms_p95",
        tail_percentile(&gaps, 95.0).unwrap_or(0.0),
    );
    v.insert("client.latency_samples", ttft.len() as f64);
    v.insert(
        "client.fail_frac",
        pass.verdict.failed as f64 / pass.verdict.attempted.max(1) as f64,
    );

    v.insert("workloads.gen_ms", pass.inputs.gen_ms);
    v.insert(
        "workloads.inputs_hash",
        (pass.inputs.hash & 0xffff_ffff) as f64,
    );
}

// ---------------------------------------------------------------------
// tensor
// ---------------------------------------------------------------------

fn random_f32(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn random_i8(rng: &mut StdRng, len: usize) -> Vec<i8> {
    (0..len)
        .map(|_| rng.gen_range(-127i32..=127) as i8)
        .collect()
}

/// Reads all of `buf`: the stream probe's work, and what pushes a
/// kernel row's operands out of the core's private caches.
fn read_through(buf: &[u64]) -> u64 {
    black_box(buf).iter().fold(0u64, |a, &x| a.wrapping_add(x))
}

/// Read bandwidth of one core over a 64 MB buffer.
fn stream_probe(trace: &mut Trace, root: usize, iters: usize, buf: &[u64]) -> f64 {
    let secs = trace.time("roofline.stream", "tensor", Some(root), iters, || {
        read_through(buf)
    });
    std::mem::size_of_val(buf) as f64 / secs / 1e9
}

/// Fused multiply-add rate of one core on register-resident data.
fn fma_probe(trace: &mut Trace, root: usize, iters: usize) -> f64 {
    const LANES: usize = 128;
    const STEPS: usize = 200_000;
    let secs = trace.time("roofline.fma", "tensor", Some(root), iters, || {
        let (a, b) = (black_box(0.999f32), black_box(0.001f32));
        let mut acc = [1.0f32; LANES];
        for _ in 0..STEPS {
            for x in &mut acc {
                *x = x.mul_add(a, b);
            }
        }
        acc
    });
    (2 * LANES * STEPS) as f64 / secs / 1e9
}

/// The kernel rows: metric, its roofline share, and whether the roof
/// is bandwidth (bytes streamed) or compute (operations).
const KERNEL_ROWS: [(&str, &str, bool); 6] = [
    (
        "tensor.gemm_f32_m32_gflops",
        "tensor.gemm_f32_m32_roofline_frac",
        false,
    ),
    (
        "tensor.gemm_i8_m32_gops",
        "tensor.gemm_i8_m32_roofline_frac",
        false,
    ),
    (
        "tensor.gemv_f32_m1_gbs",
        "tensor.gemv_f32_m1_roofline_frac",
        true,
    ),
    (
        "tensor.gemm_f32_m8_gflops",
        "tensor.gemm_f32_m8_roofline_frac",
        false,
    ),
    (
        "tensor.lut_i4_m1_gbs",
        "tensor.lut_i4_m1_roofline_frac",
        true,
    ),
    (
        "tensor.lut_i4_m8_gops",
        "tensor.lut_i4_m8_roofline_frac",
        false,
    ),
];

fn tensor_probes(pass: &Pass<'_>, trace: &mut Trace, root: usize, v: &mut Values) -> Res<()> {
    let cfg = &pass.stack.weights.config;
    let mut shapes = cfg.layer_linear_shapes();
    shapes.sort_unstable();
    shapes.dedup();
    let mut rng = StdRng::seed_from_u64(1);
    // A serving pass touches every layer's weights between two uses of
    // one matrix, so each timed call starts with its operands evicted
    // from the core's private caches, not warm from the last call.
    let big = vec![1u64; 8 << 20];
    // Per row of `KERNEL_ROWS`: work done (operations, or bytes
    // computed from tensor sizes) and seconds taken, summed over the
    // model's linear shapes.
    let mut totals = [(0.0f64, 0.0f64); KERNEL_ROWS.len()];
    for (k, n) in shapes {
        let ops = |m: usize| (2 * m * k * n) as f64;
        let w = Tensor::from_vec(random_f32(&mut rng, k * n), [k, n])?;
        let w_f32 = PackedMatrixF32::from_tensor(&w);
        let w_i8 =
            PackedMatrixI8::from_tensor(&Tensor::from_vec(random_i8(&mut rng, k * n), [k, n])?);
        let w_i4 = PackedMatrixI4::from_tensor(&w, 32);
        let a32 = Tensor::from_vec(random_f32(&mut rng, 32 * k), [32, k])?;
        let a32_i8 = Tensor::from_vec(random_i8(&mut rng, 32 * k), [32, k])?;
        let a1 = Tensor::from_vec(random_f32(&mut rng, k), [1, k])?;
        let rows: Vec<Vec<f32>> = (0..8).map(|_| random_f32(&mut rng, k)).collect();
        let rows: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();

        type Call<'a> = &'a dyn Fn() -> llmnpu::tensor::Result<()>;
        let calls: [(&str, f64, Call<'_>); KERNEL_ROWS.len()] = [
            ("gemm.matmul_f32_prepacked m=32", ops(32), &|| {
                gemm::matmul_f32_prepacked(&a32, &w_f32, 1).map(drop)
            }),
            ("gemm.matmul_i8_prepacked m=32", ops(32), &|| {
                gemm::matmul_i8_prepacked(&a32_i8, &w_i8, 1).map(drop)
            }),
            ("gemm.matmul_f32_prepacked m=1", (4 * k * n) as f64, &|| {
                gemm::matmul_f32_prepacked(&a1, &w_f32, 1).map(drop)
            }),
            ("gemm.matmul_f32_rows_prepacked m=8", ops(8), &|| {
                gemm::matmul_f32_rows_prepacked(&rows, &w_f32, 1).map(drop)
            }),
            (
                "gemm.matmul_i4_prepacked m=1",
                w_i4.packed_bytes() as f64,
                &|| gemm::matmul_i4_prepacked(&a1, &w_i4, 1).map(drop),
            ),
            ("gemm.matmul_i4_rows_prepacked m=8", ops(8), &|| {
                gemm::matmul_i4_rows_prepacked(&rows, &w_i4, 1).map(drop)
            }),
        ];
        for (total, (name, work, call)) in totals.iter_mut().zip(calls) {
            let evict = || {
                black_box(read_through(&big));
            };
            total.0 += work;
            total.1 += trace.time_after(name, "tensor", Some(root), pass.iters, evict, call);
        }
    }
    let stream = stream_probe(trace, root, pass.iters, &big);
    let fma = fma_probe(trace, root, pass.iters);
    v.insert("tensor.roofline_stream_gbs", stream);
    v.insert("tensor.roofline_fma_gflops", fma);
    for ((name, frac_name, bandwidth), (work, secs)) in KERNEL_ROWS.into_iter().zip(totals) {
        let giga_per_s = work / secs / 1e9;
        v.insert(name, giga_per_s);
        v.insert(frac_name, giga_per_s / if bandwidth { stream } else { fma });
    }
    Ok(())
}

// ---------------------------------------------------------------------
// quant
// ---------------------------------------------------------------------

fn quant_probes(pass: &Pass<'_>, trace: &mut Trace, root: usize, v: &mut Values) -> Res<()> {
    let cfg = &pass.stack.weights.config;
    let (k, n) = (cfg.hidden, cfg.ffn_hidden);
    let mut rng = StdRng::seed_from_u64(2);
    let w = Tensor::from_vec(random_f32(&mut rng, k * n), [k, n])?;
    // Activations with a handful of outlier channels, as §3.3 finds.
    let mut x = random_f32(&mut rng, CHUNK_LEN * k);
    for row in 0..CHUNK_LEN {
        for channel in [3, k / 2, k - 1] {
            x[row * k + channel] *= 40.0;
        }
    }
    let x = Tensor::from_vec(x, [CHUNK_LEN, k])?;
    let scale = calibrate_scale(std::slice::from_ref(&x), 0.997)?;
    let linear = ShadowLinear::new(&w, scale);
    let full = trace.time(
        "outlier.ShadowLinear.forward",
        "quant",
        Some(root),
        pass.iters,
        || linear.forward(&x).map(drop),
    );
    let main = trace.time(
        "outlier.ShadowLinear.forward_main",
        "quant",
        Some(root),
        pass.iters,
        || linear.forward_main(&x).map(drop),
    );
    let extract = trace.time(
        "outlier.extract_outliers",
        "quant",
        Some(root),
        pass.iters,
        || extract_outliers(&x, scale),
    );
    v.insert("quant.shadow_overhead_frac", (full - main) / main);
    v.insert("quant.outlier_extract_us", extract * 1e6);
    Ok(())
}

// ---------------------------------------------------------------------
// model
// ---------------------------------------------------------------------

/// A 32-token chunk of the workload's first measured prompt.
fn first_chunk(inputs: &Inputs) -> Vec<u32> {
    inputs.blocks[1][0]
        .prompt
        .iter()
        .copied()
        .cycle()
        .take(CHUNK_LEN)
        .collect()
}

fn probe_pool(cfg: &ModelConfig, blocks: usize) -> Res<Arc<BlockPool>> {
    Ok(Arc::new(BlockPool::new(PoolConfig {
        layers: cfg.layers,
        kv_dim: cfg.kv_dim(),
        block_tokens: BLOCK_TOKENS,
        blocks,
    })?))
}

fn model_probes(pass: &Pass<'_>, trace: &mut Trace, root: usize, v: &mut Values) -> Res<()> {
    let t = pass.stack.transformer();
    let cfg = t.config().clone();
    let chunk = first_chunk(pass.inputs);
    // Positions below a probe's start are zero pages: attention costs
    // the same over zeros as over real keys.
    let history = 640 + CHUNK_LEN;
    let decode_capacity = 96;
    let pool = probe_pool(
        &cfg,
        history.div_ceil(BLOCK_TOKENS) + MAX_ACTIVE * decode_capacity / BLOCK_TOKENS,
    )?;

    let mut kv = PagedKvCache::reserve(&pool, history)?;
    for (name, hist) in [
        ("model.prefill_chunk_ms_h0", 0),
        ("model.prefill_chunk_ms_h320", 320),
        ("model.prefill_chunk_ms_h640", 640),
    ] {
        let label = format!("Transformer::prefill_paged history={hist}");
        let secs = trace.time(&label, "model", Some(root), pass.iters, || {
            t.prefill_paged(&chunk, hist, &mut kv).map(drop)
        });
        v.insert(name, secs * 1e3);
    }
    kv.release()?;

    let mut rng = StdRng::seed_from_u64(3);
    let q = Tensor::from_vec(
        random_f32(&mut rng, CHUNK_LEN * cfg.q_dim()),
        [CHUNK_LEN, cfg.q_dim()],
    )?;
    for (name, kv_len) in [
        ("model.attn_paged_us_kv64", 64),
        ("model.attn_paged_us_kv640", 640),
    ] {
        let page = BLOCK_TOKENS * cfg.kv_dim();
        let pages: Vec<Vec<f32>> = (0..kv_len / BLOCK_TOKENS)
            .map(|_| random_f32(&mut rng, page))
            .collect();
        let pages: Vec<&[f32]> = pages.iter().map(Vec::as_slice).collect();
        let label = format!("attention_over_pages kv_len={kv_len}");
        let secs = trace.time(&label, "model", Some(root), pass.iters, || {
            attention_over_pages(&q, &pages, &pages, &cfg, kv_len - CHUNK_LEN).map(drop)
        });
        v.insert(name, secs * 1e6);
    }

    let mut caches: Vec<PagedKvCache> = (0..MAX_ACTIVE)
        .map(|_| PagedKvCache::reserve(&pool, decode_capacity))
        .collect::<Result<_, _>>()?;
    let mut step_ms = |width: usize, trace: &mut Trace| {
        let label = format!("Transformer::decode_forward_batch width={width}");
        trace.time(&label, "model", Some(root), pass.iters, || {
            let mut entries: Vec<PagedDecodeEntry<'_>> = caches
                .iter_mut()
                .take(width)
                .enumerate()
                .map(|(i, kv)| PagedDecodeEntry {
                    token: chunk[i],
                    pos: 64,
                    kv,
                })
                .collect();
            t.decode_forward_batch(&mut entries).map(drop)
        }) * 1e3
    };
    let b1 = step_ms(1, trace);
    let b8 = step_ms(MAX_ACTIVE, trace);
    v.insert("model.decode_step_ms_b1", b1);
    v.insert("model.decode_step_ms_b8", b8);
    v.insert("model.batch8_speedup", MAX_ACTIVE as f64 * b1 / b8);
    for kv in &mut caches {
        kv.release()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// graph, verify, core's planner, sched
// ---------------------------------------------------------------------

/// The DAG `serve` builds for a prompt of `len` tokens under this
/// engine's knobs.
fn dag_for(stack: &Stack, len: usize) -> Res<PrefillDag> {
    let ec = stack.engine.config();
    let dag_cfg = DagConfig {
        plan: ChunkPlan::new(len, ec.chunk_len)?,
        float_processor: ec.float_processor,
        shadow_fraction: 1.0 - ec.pruning_rate,
        outlier_channels: 10,
        shape_optimized: ec.shape_optimized,
        npu_group_size: ec.npu_group_size,
    };
    Ok(build_prefill_dag(
        &stack.weights.config,
        &dag_cfg,
        stack.engine.latency_model(),
    )?)
}

/// The batches the workload hands the planner, on its first measured
/// block: what `verify_serve` is replayed on.
fn batch_shapes<'a>(
    workload: &str,
    block: &'a [GenerationRequest],
) -> Vec<&'a [GenerationRequest]> {
    match workload {
        spec::PREFILL_LONG => block.chunks(1).collect(),
        spec::DECODE_BATCH => vec![block],
        spec::CHAT_SHARED_PREFIX => vec![&block[..MAX_ACTIVE]],
        // The long request alone, then the probe alone.
        _ => vec![&block[..1], &block[1..2]],
    }
}

fn graph_verify_sched_probes(
    pass: &Pass<'_>,
    trace: &mut Trace,
    root: usize,
    v: &mut Values,
) -> Res<()> {
    let stack = pass.stack;
    let block = &pass.inputs.blocks[1];

    let (mut build_us, mut tasks, mut padding) = (Vec::new(), Vec::new(), Vec::new());
    for request in block {
        let len = request.prompt.len();
        let secs = trace.time(
            "dag.build_prefill_dag",
            "graph",
            Some(root),
            pass.iters,
            || dag_for(stack, len).map(drop),
        );
        build_us.push(secs * 1e6);
        tasks.push(dag_for(stack, len)?.len() as f64);
        padding.push(ChunkPlan::new(len, CHUNK_LEN)?.padding_fraction());
    }
    v.insert("graph.dag_build_us_per_req", mean(&build_us).unwrap_or(0.0));
    v.insert("graph.tasks_per_req", mean(&tasks).unwrap_or(0.0));
    v.insert("graph.padding_frac", mean(&padding).unwrap_or(0.0));

    let t = stack.transformer();
    let opts = serve_options();
    let (mut plan_ms, mut plan_tasks) = (Vec::new(), Vec::new());
    for batch in batch_shapes(pass.workload, block) {
        let secs = trace.time(
            "LlmNpuEngine::verify_serve",
            "core",
            Some(root),
            pass.iters,
            || stack.engine.verify_serve(&t, batch, &opts).map(drop),
        );
        plan_ms.push(secs * 1e3);
        plan_tasks.push(stack.engine.verify_serve(&t, batch, &opts)?.stats.tasks as f64);
    }
    let plan_ms = mean(&plan_ms).unwrap_or(0.0);
    v.insert("core.plan_verify_ms_per_batch", plan_ms);
    v.insert("verify.tasks_per_batch", mean(&plan_tasks).unwrap_or(0.0));
    v.insert(
        "core.plan_verify_frac",
        plan_ms * pass.traced.agg.batches as f64 / (pass.traced.wall_s * 1e3),
    );

    let dag = dag_for(stack, block[0].prompt.len())?;
    let graph = LaneGraph::from_prefill_dag(&dag)?;
    let plan = graph.verify_plan();
    let secs = trace.time("verify::verify", "verify", Some(root), pass.iters, || {
        llmnpu::verify::verify(&plan)
    });
    v.insert(
        "verify.verify_us_per_task",
        secs * 1e6 / plan.tasks.len() as f64,
    );

    let pool = stack.engine.pool();
    let secs = trace.time(
        "runner.execute_lane_graph (no-op tasks)",
        "sched",
        Some(root),
        pass.iters,
        || {
            let noops: Vec<TaskFn<'_>> = (0..graph.len())
                .map(|_| Box::new(|| Ok(())) as TaskFn<'_>)
                .collect();
            execute_lane_graph(&graph, noops, Policy::OutOfOrder, pool).map(drop)
        },
    );
    v.insert(
        "sched.dispatch_us_per_task",
        secs * 1e6 / graph.len() as f64,
    );
    let secs = trace.time(
        "WorkerPool::run_concurrent (empty jobs)",
        "sched",
        Some(root),
        pass.iters * 20,
        || {
            let mut jobs: Vec<Job<'_>> = (0..POOL_WORKERS).map(|_| Job::new(|| {})).collect();
            pool.run_concurrent(&mut jobs)
        },
    );
    v.insert("sched.pool_roundtrip_us", secs * 1e6);
    Ok(())
}

// ---------------------------------------------------------------------
// kv
// ---------------------------------------------------------------------

/// Direct pool and prefix-cache calls with the first measured block's
/// prompts: what every admission pays, hit or no hit.
fn kv_probes(pass: &Pass<'_>, trace: &mut Trace, root: usize, v: &mut Values) -> Res<()> {
    let cfg = &pass.stack.weights.config;
    let pool = probe_pool(cfg, POOL_BLOCKS)?;
    let cache = PrefixCache::new(BLOCK_TOKENS);
    let (mut reserve_us, mut insert_us, mut lookup_us) = (Vec::new(), Vec::new(), Vec::new());
    for request in &pass.inputs.blocks[1] {
        let tokens = request.total_tokens();
        let need = pool.config().blocks_for(tokens);
        if pool.free_blocks() < need {
            cache.begin_round();
            cache.evict_lru(&pool, need)?;
        }
        let (table, secs) = trace.once("BlockTable::reserve", "kv", Some(root), || {
            BlockTable::reserve(&pool, tokens)
        });
        let mut table = table?;
        cache.begin_round();
        let (_, lookup) = trace.once("PrefixCache::lookup", "kv", Some(root), || {
            black_box(cache.lookup(&request.prompt[..request.prompt.len() - 1]))
        });
        let (inserted, insert) = trace.once("PrefixCache::insert", "kv", Some(root), || {
            cache.insert(&pool, &request.prompt, table.blocks())
        });
        inserted?;
        let (released, release) = trace.once("BlockTable::release", "kv", Some(root), || {
            table.release(&pool)
        });
        released?;
        reserve_us.push((secs + release) * 1e6);
        lookup_us.push(lookup * 1e6);
        insert_us.push(insert * 1e6);
    }
    cache.begin_round();
    let held = cache.held_blocks();
    let (freed, evict) = trace.once("PrefixCache::evict_lru", "kv", Some(root), || {
        cache.evict_lru(&pool, held)
    });
    let freed = freed?;
    let evict_us = evict * 1e6;
    cache.flush(&pool)?;
    v.insert("kv.reserve_release_us", median(&reserve_us).unwrap_or(0.0));
    v.insert("kv.prefix_lookup_us", median(&lookup_us).unwrap_or(0.0));
    v.insert("kv.prefix_insert_us", median(&insert_us).unwrap_or(0.0));
    v.insert("kv.evict_lru_us_per_block", evict_us / freed.max(1) as f64);
    Ok(())
}

// ---------------------------------------------------------------------
// soc
// ---------------------------------------------------------------------

/// The paper's own metrics: the simulated Snapdragon 8 Gen 3 over the
/// first measured block's prompt lengths. Simulated time and energy
/// repeat exactly for a seed; `sim_host_us_per_task` is host time.
fn soc_probes(pass: &Pass<'_>, trace: &mut Trace, root: usize, v: &mut Values) -> Res<()> {
    let engine = &pass.stack.engine;
    let (mut tokens, mut sim_ms, mut energy, mut bubble, mut host_us, mut sim_tasks) =
        (0usize, 0.0, 0.0, Vec::new(), 0.0, 0usize);
    for request in &pass.inputs.blocks[1] {
        let len = request.prompt.len();
        let (report, secs) = trace.once(
            "LlmNpuEngine::prefill (simulated)",
            "soc",
            Some(root),
            || engine.prefill(len),
        );
        let report = report?;
        tokens += len;
        sim_ms += report.latency_ms;
        energy += report.energy_j;
        bubble.push(report.npu_bubble_rate);
        host_us += secs * 1e6;
        sim_tasks += report.timeline.map_or(0, |tl| tl.entries().len());
    }
    v.insert("soc.sim_prefill_tok_s", tokens as f64 / (sim_ms / 1e3));
    v.insert(
        "soc.sim_prefill_energy_j",
        energy / pass.inputs.blocks[1].len() as f64,
    );
    v.insert("soc.sim_npu_bubble_rate", mean(&bubble).unwrap_or(0.0));
    v.insert(
        "soc.sim_host_us_per_task",
        host_us / sim_tasks.max(1) as f64,
    );
    Ok(())
}

// ---------------------------------------------------------------------
// The residual
// ---------------------------------------------------------------------

/// `1 - Σ(replayed per-call time × call count) / wall` over the traced
/// phase. Call counts come from the traced phase, per-call times from
/// the replay; chunk time is interpolated at the mean history a chunk
/// of this workload sees, step time at the mean cohort width.
fn unattributed(pass: &Pass<'_>, v: &mut Values) {
    let traced = pass.traced;
    let requests = traced.samples.len() as f64;
    let prompt_tokens: f64 = traced.samples.iter().map(|s| s.prompt_tokens as f64).sum();
    let prefilled = prompt_tokens - traced.agg.hit_tokens as f64;
    let mean_history = (prompt_tokens / requests.max(1.0) / 2.0).min(640.0);
    let (h0, h640) = (
        v["model.prefill_chunk_ms_h0"],
        v["model.prefill_chunk_ms_h640"],
    );
    let chunk_ms = h0 + (h640 - h0) * mean_history / 640.0;
    let prefill_ms = prefilled / CHUNK_LEN as f64 * chunk_ms;

    let steps = pass
        .log
        .spans
        .iter()
        .filter(|s| s.class == "decode")
        .count() as f64;
    let rows: f64 = traced
        .samples
        .iter()
        .map(|s| s.stream.len().saturating_sub(1) as f64)
        .sum();
    let width = if steps > 0.0 { rows / steps } else { 1.0 };
    let (b1, b8) = (v["model.decode_step_ms_b1"], v["model.decode_step_ms_b8"]);
    let step_ms = b1 + (b8 - b1) * (width - 1.0) / (MAX_ACTIVE - 1) as f64;
    let decode_ms = steps * step_ms;

    let planner_ms = traced.agg.batches as f64 * v["core.plan_verify_ms_per_batch"];
    let per_request_us = v["graph.dag_build_us_per_req"]
        + v["kv.reserve_release_us"]
        + v["kv.prefix_lookup_us"]
        + v["kv.prefix_insert_us"];
    let dispatch_us = pass.log.spans.len() as f64 * v["sched.dispatch_us_per_task"];
    let attributed_ms =
        prefill_ms + decode_ms + planner_ms + (requests * per_request_us + dispatch_us) / 1e3;
    v.insert(
        "core.unattributed_frac",
        1.0 - attributed_ms / (traced.wall_s * 1e3),
    );
}
