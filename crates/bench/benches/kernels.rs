//! Criterion microbenchmarks of the numeric-plane kernels, plus the
//! kernel-subsystem comparison that records `BENCH_kernels.json` at the
//! repository root: naive (scalar reference) vs blocked vs blocked+threaded
//! GEMM at paper-relevant prefill shapes, and a decode (`m ≤ 2`) section
//! comparing the f32 streaming GEMV, a repack-weights-every-call strawman,
//! and the pack-once `PackedMatrix` fast path — with tokens-equivalent
//! throughput so the perf trajectory of the kernel layer is tracked across
//! PRs — and an LM-head section timing the served `512 × 4096` head
//! packed per call against packed once. Every integer column goes
//! through `matmul_i8_prepacked`, the path every quantized layer runs;
//! serving-level numbers live in `benchmark/`.
//! Threaded columns are labeled with the *effective* worker count
//! after the host-core clamp, and the record carries an explicit
//! `thread_scaling_valid` flag (false on a 1-core host, where "threaded"
//! timings are a second single-threaded run, not thread scaling).

use criterion::{criterion_group, BatchSize, Criterion};
use std::hint::black_box;
use std::time::Instant;

use llmnpu_obs::json::{self, ToJson, Value};
use llmnpu_quant::outlier::{extract_outliers, ShadowLinear};
use llmnpu_quant::per_group::GroupedLinear;
use llmnpu_quant::per_tensor::{max_min_scale, QuantizedLinear, QuantizedMatrix};
use llmnpu_tensor::kernel::{self, Epilogue};
use llmnpu_tensor::{
    gemm, PackedMatrixF32, PackedMatrixI2, PackedMatrixI4, PackedMatrixI8, Tensor,
};

fn ramp(rows: usize, cols: usize, amp: f32) -> Tensor<f32> {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| amp * (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5))
            .collect(),
        [rows, cols],
    )
    .unwrap()
}

fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let a_f = ramp(32, 256, 1.0);
    let b_f = ramp(256, 256, 1.0);
    group.bench_function("f32_naive_32x256x256", |b| {
        b.iter(|| gemm::matmul_f32_reference(black_box(&a_f), black_box(&b_f)).unwrap())
    });
    group.bench_function("f32_blocked_32x256x256", |b| {
        b.iter(|| gemm::matmul_f32(black_box(&a_f), black_box(&b_f)).unwrap())
    });
    let a_i = QuantizedMatrix::quantize(&a_f);
    let b_i = QuantizedMatrix::quantize(&b_f);
    group.bench_function("i8_naive_32x256x256", |b| {
        b.iter(|| gemm::matmul_i8_reference(black_box(a_i.data()), black_box(b_i.data())).unwrap())
    });
    let packed_i = PackedMatrixI8::from_tensor(b_i.data());
    group.bench_function("i8_blocked_32x256x256", |b| {
        b.iter(|| {
            gemm::matmul_i8_prepacked(black_box(a_i.data()), black_box(&packed_i), 1).unwrap()
        })
    });
    let mut out = Tensor::zeros([32, 256]);
    let epilogue = Epilogue::PerTensor {
        scale: a_i.scale() * b_i.scale(),
    };
    group.bench_function("i8_fused_dequant_32x256x256", |b| {
        b.iter(|| {
            gemm::matmul_i8_fused_prepacked(
                &mut out,
                black_box(a_i.data()),
                black_box(&packed_i),
                epilogue,
                1,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_quantized_linears(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantized_linear");
    let w = ramp(256, 256, 0.5);
    let mut xv = ramp(8, 256, 0.05).into_vec();
    xv[3] = 12.0; // one outlier channel
    let x = Tensor::from_vec(xv, [8, 256]).unwrap();
    let scale = max_min_scale(&[0.05_f32, -0.05]);

    let per_tensor = QuantizedLinear::new(&w, scale);
    group.bench_function("per_tensor_forward", |b| {
        b.iter(|| per_tensor.forward(black_box(&x)).unwrap())
    });

    // Decode-shaped (m = 1) forward: the prepacked GEMV path.
    let x1 = ramp(1, 256, 0.05);
    group.bench_function("per_tensor_forward_decode", |b| {
        b.iter(|| per_tensor.forward(black_box(&x1)).unwrap())
    });

    let grouped = GroupedLinear::new(&w, 32).unwrap();
    group.bench_function("per_group_forward(g=32)", |b| {
        b.iter(|| grouped.forward(black_box(&x)).unwrap())
    });

    let shadow = ShadowLinear::new(&w, scale);
    group.bench_function("shadow_forward", |b| {
        b.iter(|| shadow.forward(black_box(&x)).unwrap())
    });
    group.finish();
}

fn bench_outlier_extraction(c: &mut Criterion) {
    let mut group = c.benchmark_group("outlier");
    let mut xv = ramp(64, 1024, 0.05).into_vec();
    for i in 0..6 {
        xv[i * 997 + 13] = 20.0;
    }
    let x = Tensor::from_vec(xv, [64, 1024]).unwrap();
    group.bench_function("extract_64x1024_6ch", |b| {
        b.iter_batched(
            || x.clone(),
            |x| extract_outliers(black_box(&x), 0.01),
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Kernel-subsystem comparison -> BENCH_kernels.json
// ---------------------------------------------------------------------------

/// Threads *requested* for the threaded rows in the JSON record; the
/// record labels its columns by the effective count after the host-core
/// clamp.
const THREADS: usize = 4;

/// Declares a record struct and its [`ToJson`] impl: one JSON field per
/// struct field, in declaration order.
macro_rules! json_record {
    ($(#[$meta:meta])* struct $name:ident {
        $($(#[$field_meta:meta])* $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])*
        struct $name {
            $($(#[$field_meta])* $field: $ty,)*
        }

        impl ToJson for $name {
            fn to_json(&self) -> Value {
                Value::Obj(vec![$((stringify!($field), self.$field.to_json()),)*])
            }
        }
    };
}

json_record! {
    struct KernelRow {
        shape: String,
        m: usize,
        k: usize,
        n: usize,
        naive_ms: f64,
        blocked_ms: f64,
        /// Blocked kernel with `threads_effective` workers (see the record
        /// header — NOT necessarily the requested count).
        threaded_ms: f64,
        /// Workers actually used for `threaded_ms` after the host-core clamp.
        threads_effective: usize,
        naive_gflops: f64,
        blocked_gflops: f64,
        threaded_gflops: f64,
        speedup_blocked: f64,
        speedup_threaded: f64,
        /// Rows of A pushed through the layer per second on the fastest
        /// kernel — "tokens-equivalent" throughput, since one token's hidden
        /// state is one activation row of a linear layer.
        tokens_equiv_per_s: f64,
        i8_naive_ms: f64,
        i8_blocked_ms: f64,
        i8_speedup: f64,
        /// The prepacked i8 kernel as an achieved rate (`2·m·k·n` operations
        /// per second) and against the f32 blocked column of this row — the
        /// quantized path is meant to be the fast one.
        i8_gops: f64,
        i8_vs_f32: f64,
        i8_bit_exact: bool,
    }
}

json_record! {
    /// Decode (`m ≤ 2`) comparison: the f32 streaming per-call GEMV, a
    /// repack-the-weights-every-call strawman (what any driver without a
    /// persistent weight cache must do to use a packed layout), and the
    /// pack-once `PackedMatrix` fast path in both dtypes (the integer path
    /// has no per-call driver to compare against).
    struct DecodeRow {
        shape: String,
        m: usize,
        k: usize,
        n: usize,
        f32_streaming_ms: f64,
        f32_repack_per_call_ms: f64,
        f32_prepacked_ms: f64,
        f32_speedup_vs_repack: f64,
        f32_speedup_vs_streaming: f64,
        /// Prepacked f32 GEMV bit-identical to the streaming driver.
        f32_bit_identical: bool,
        i8_prepacked_ms: f64,
        /// Prepacked i8 result bit-exact vs `matmul_i8_reference`.
        i8_bit_exact: bool,
        /// Acceptance: f32 prepacked ≥ 2× the per-call-repacking path.
        meets_2x_vs_repack: bool,
    }
}

json_record! {
    /// The LM head at the served shape (`hidden 512 × vocab 4096`) and
    /// decode-cohort heights: a row-major head packed on every call (the
    /// bench keeps its own row-major copy; the model holds only the
    /// packed one) against the head packed once, which is what
    /// `Transformer::logits` multiplies by.
    struct LmHeadRow {
        shape: String,
        m: usize,
        k: usize,
        n: usize,
        per_call_ms: f64,
        prepacked_ms: f64,
        speedup: f64,
        /// Prepacked output bit-identical to the per-call one.
        bit_identical: bool,
    }
}

json_record! {
    /// Batched-decode comparison: B concurrent requests' decode GEMVs run
    /// one at a time (each streaming the full weight matrix) vs stacked
    /// into a single m=B GEMM through the batched-decode driver
    /// (`gemm::matmul_f32_rows_prepacked`). The acceptance bar for the
    /// paged-KV serving PR: ≥ 1.3× aggregate decode tokens/s at B=8. The
    /// win is memory-bandwidth arithmetic (weights stream once per batch,
    /// not once per request), so it holds on a 1-core host too — but
    /// `thread_scaling_valid` still labels the record's provenance.
    struct BatchedDecodeRow {
        /// Requests decoding concurrently (the GEMM's m).
        batch: usize,
        k: usize,
        n: usize,
        /// Total time for B separate m=1 prepacked GEMVs.
        gemv_total_ms: f64,
        /// One m=B prepacked GEMM over the same B rows.
        batched_ms: f64,
        /// Aggregate decode throughput of the B-GEMV path (rows/s).
        gemv_tokens_per_s: f64,
        /// Aggregate decode throughput of the batched path (rows/s).
        batched_tokens_per_s: f64,
        speedup: f64,
        /// Row i of the batched GEMM bit-identical to its solo GEMV.
        bit_identical: bool,
        /// Acceptance: batched ≥ 1.3× the separate-GEMV aggregate.
        meets_1_3x: bool,
    }
}

json_record! {
    /// Sub-8-bit LUT decode comparison: the same decode-shaped product run
    /// against f32, i8, int4, and int2 prepacked weights. Decode is
    /// memory-bandwidth-bound, so the column to watch is bytes moved per
    /// token — the packed int4/int2 streams are 1/8 and 1/16 of the f32
    /// panels — and tok/s should track it. The acceptance bar for the LUT
    /// PR: int4 decode GEMV ≥ 1.5× i8 tok/s on the same host. Bit-exactness
    /// columns pin the optimized in-register drivers to the scalar LUT
    /// reference, and `zero_warm_table_builds` pins the table-free hot path
    /// (the LUT twin of the zero-repack invariant).
    struct LutDecodeRow {
        shape: String,
        m: usize,
        k: usize,
        n: usize,
        /// Quantization group width of the int4/int2 formats.
        group_size: usize,
        /// Weight bytes streamed per decode step by each dtype's path
        /// (f32 panel slabs; i8 offset-`u8` panels; int4/int2 packed codes +
        /// group scales). At m > 1 the stream is shared by the whole cohort,
        /// so bytes per *token* are these divided by m.
        f32_bytes_per_token: usize,
        i8_bytes_per_token: usize,
        /// What the packed i8 operand actually keeps resident per weight
        /// (`resident_bytes / (k·n)`): 1 when the streamed bytes above are
        /// all there is.
        i8_resident_bytes_per_weight: f64,
        i4_bytes_per_token: usize,
        i2_bytes_per_token: usize,
        /// Warm timings: weights LLC-resident across reps. On a
        /// large-cache host this regime is compute-bound on the shared
        /// MAC count, so every format reads ≈ the same — it says nothing
        /// about the bytes-moved advantage and is reported only for
        /// transparency.
        f32_warm_ms: f64,
        i8_warm_ms: f64,
        i4_warm_ms: f64,
        i2_warm_ms: f64,
        /// Warm LUT throughput, `2·m·k·n` operations per second: the
        /// column that is comparable across shapes and group sizes (the
        /// group epilogue's cost shows up here as a gs = 32 vs gs = 256
        /// gap).
        i4_gops: f64,
        i2_gops: f64,
        /// Cold timings: the LLC is evicted before every rep so weights
        /// stream from DRAM. This is the regime a real decode step lives
        /// in — the model's full weight set is walked once per token and
        /// does not fit any cache, so each layer's matrix is gone again by
        /// the time the next token needs it. The tok/s and speedup columns
        /// below are computed from these.
        f32_cold_ms: f64,
        i8_cold_ms: f64,
        i4_cold_ms: f64,
        i2_cold_ms: f64,
        f32_tokens_per_s: f64,
        i8_tokens_per_s: f64,
        i4_tokens_per_s: f64,
        i2_tokens_per_s: f64,
        /// Cold int4-vs-i8 ratio. At m = 1 the weight stream dominates and
        /// the halved bytes show up directly; as m grows the stream is
        /// amortized over the cohort and the ratio converges back to the
        /// compute-bound warm parity.
        i4_vs_i8_speedup: f64,
        i2_vs_i8_speedup: f64,
        /// Optimized int4 driver bit-exact vs the scalar LUT reference.
        i4_bit_exact: bool,
        /// Optimized int2 driver bit-exact vs the scalar LUT reference.
        i2_bit_exact: bool,
        /// True for the solo decode GEMV row the ≥1.5× acceptance is
        /// evaluated on — at the group size the serving stack uses
        /// (gs = 32), where the scales are a fifth of the stream and the
        /// group epilogue runs eight times as often as at gs = 256. Cohort
        /// rows (m > 1) share one weight stream across m tokens, so the
        /// per-token bytes advantage — and with it the expected ratio —
        /// shrinks by design.
        gate_row: bool,
        /// Acceptance: cold int4 ≥ 1.5× cold i8 tok/s at this shape.
        meets_1_5x_vs_i8: bool,
        /// Warm int4/int2 calls materialized zero partial-sum tables.
        zero_warm_table_builds: bool,
    }
}

json_record! {
    /// Paged-KV attention: the kernel behind `attention_over_pages`
    /// reading one contiguous K/V slab vs the same rows through a block
    /// table. The kernel reads every page row in place, so paging changes
    /// only where a row is found: the tax should be a few percent and the
    /// outputs bit-identical. Each row also states what it achieved
    /// against this core's FMA roofline — the shapes the serving benchmark
    /// runs (32 heads × 16 dims: chunks 32 × 64 and 32 × 640, decode
    /// 1 × 112 and `prefill_long`'s decode tail 1 × 704), one grouped-query
    /// chunk, and the long-context 8 × 64 ones.
    struct PagedKvRow {
        heads: usize,
        /// Key/value heads (`heads / kv_heads` query heads share each).
        kv_heads: usize,
        head_dim: usize,
        /// Query rows (1 = decode step, >1 = prefill chunk).
        q_rows: usize,
        /// Cached positions attended over.
        kv_len: usize,
        /// Tokens per page.
        block_tokens: usize,
        /// Pages the cache splits into.
        pages: usize,
        contiguous_ms: f64,
        paged_ms: f64,
        /// paged / contiguous (1.0 = free paging).
        overhead_ratio: f64,
        /// `4 · heads · q_rows · kv_len · head_dim` (QKᵀ + PV, unmasked) over
        /// the paged time.
        paged_gflops: f64,
        /// `paged_gflops` over the record's `fma_roofline_gflops`.
        roofline_frac: f64,
        /// Paged output bit-identical to contiguous.
        bit_identical: bool,
    }
}

json_record! {
    /// One shadow-int8 decoder layer's NPU-lane stages at the benchmark
    /// model's shape (hidden 512, FFN 1376), split by where the time goes —
    /// measured, where ROADMAP item 13 had only inferred the share spent
    /// outside the tile. Two compositions of the same work:
    ///
    /// * `fused` is this code: the served `Transformer` stage on a layer
    ///   whose outlier paths are all pruned (the main half is the NPU
    ///   lane's work), with one activation quantization and one GEMM per
    ///   input — Q | K | V and Gate | Up each one `[k, Σ n]` product.
    /// * `per_site` is the composition those stages ran before siblings
    ///   were fused: a quantization pass (the per-lane-convert
    ///   `round().clamp() as i8` expression) and a GEMM per projection, and
    ///   SiLU on libm `exp` — rebuilt here from the same public primitives.
    ///
    /// Parts are timed on their own (best of `reps`, one thread, warm) on
    /// the stage's inputs; `rest_ms` is the stage minus its parts: RoPE, the
    /// Q | K | V and Gate | Up splits, the gate multiply, the residual add
    /// and the allocations between them.
    struct LayerI8Row {
        /// `qkv` (QkvLinear + RoPE), `o` (OProj + residual) or `ffn`
        /// (gate/up, SiLU × up, down + residual).
        stage: &'static str,
        /// Activation rows: a prefill chunk (32) or a batched decode cohort (8).
        m: usize,
        composition: &'static str,
        /// Projection GEMMs the stage makes.
        gemms: usize,
        quantize_ms: f64,
        /// i8 tile loop with the fused per-channel dequantization epilogue.
        tile_ms: f64,
        silu_ms: f64,
        rest_ms: f64,
        stage_ms: f64,
        /// Share of the stage spent outside the tile and its epilogue.
        outside_tile_frac: f64,
    }
}

json_record! {
    /// One part of a served decode step on the benchmark's model
    /// (`512 × 6 × 4096`: the decode forward of `m` cohort rows, or the LM
    /// head over them), timed on the CPU lane of a two-lane executor run
    /// three ways: `alone` — one lane, nothing to band with, so one band;
    /// `sibling_busy` — the NPU lane runs a task of its own, so the
    /// kernel calls' two column bands run one after the other on the CPU
    /// lane; `lent` — the NPU lane is idle and runs one band of every
    /// call. Median of `reps`, warm.
    struct LaneLendingRow {
        backend: &'static str,
        /// `forward` or `head`.
        part: &'static str,
        m: usize,
        alone_ms: f64,
        sibling_busy_ms: f64,
        lent_ms: f64,
        /// `alone_ms / lent_ms`.
        lent_speedup: f64,
        /// All three outputs bit-identical.
        bit_identical: bool,
    }
}

json_record! {
    struct KernelRecord {
        id: &'static str,
        description: &'static str,
        /// Worker count requested for the threaded rows.
        threads_requested: usize,
        /// Worker count actually used after the host-core clamp — on a
        /// 1-core host the threaded rows are effectively single-threaded
        /// and should read ≈ the blocked rows.
        threads_effective: usize,
        host_cpus: usize,
        /// False when `host_cpus == 1`: the `threaded_*` columns are then a
        /// second single-threaded run and say nothing about thread scaling.
        thread_scaling_valid: bool,
        fma: bool,
        /// Which body of the integer tile (`microkernel_int`) every i8 and
        /// LUT tile row ran: `"avx512-vnni"` or `"portable"`.
        int_body: &'static str,
        rows: Vec<KernelRow>,
        decode: Vec<DecodeRow>,
        lm_head: Vec<LmHeadRow>,
        lut_decode: Vec<LutDecodeRow>,
        batched_decode: Vec<BatchedDecodeRow>,
        /// One core's fused multiply-add rate on register-resident data —
        /// the roof the `paged_kv` rows are stated against.
        fma_roofline_gflops: f64,
        paged_kv: Vec<PagedKvRow>,
        layer_i8: Vec<LayerI8Row>,
        lane_lending: Vec<LaneLendingRow>,
    }
}

/// Fused multiply-add rate of one core on register-resident data (the
/// same probe `benchmark/` takes its `tensor.roofline_fma_gflops` from).
fn fma_roofline_gflops() -> f64 {
    const LANES: usize = 128;
    const STEPS: usize = 200_000;
    let secs = best_of(5, || {
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

/// The integer tile body this host runs, decided by the same feature
/// test `microkernel_int` dispatches on (the library exposes no API for
/// it: the choice never changes a result).
fn int_body() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni")
        && is_x86_feature_detected!("avx512vbmi")
    {
        return "avx512-vnni";
    }
    "portable"
}

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// The per-call f32 driver — a row-major B packed on every call — at
/// `threads` workers after the host-core clamp: `gemm::matmul_f32` runs
/// it on one thread only.
/// Median wall time of `reps` calls of `f`, in seconds.
fn median_of<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

fn per_call_f32(a: &Tensor<f32>, b: &Tensor<f32>, threads: usize) -> Vec<f32> {
    let ((m, k), (_, n)) = (a.matrix_dims(), b.matrix_dims());
    let mut c = vec![0.0; m * n];
    let threads = kernel::parallel::effective_threads(threads);
    kernel::gemm_f32(m, k, n, a.as_slice(), b.as_slice(), &mut c, threads);
    c
}

fn compare_shape(m: usize, k: usize, n: usize, reps: usize) -> KernelRow {
    let a = ramp(m, k, 1.0);
    let b = ramp(k, n, 1.0);
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let threads_effective = llmnpu_tensor::kernel::parallel::effective_threads(THREADS);

    let naive = best_of(reps, || gemm::matmul_f32_reference(&a, &b).unwrap());
    let blocked = best_of(reps, || gemm::matmul_f32(&a, &b).unwrap());
    let threaded = best_of(reps, || per_call_f32(&a, &b, THREADS));

    let ai = a.map(|x| (x * 120.0) as i8);
    let bi = b.map(|x| (x * 120.0) as i8);
    let packed_i = PackedMatrixI8::from_tensor(&bi);
    let i8_naive = best_of(reps, || gemm::matmul_i8_reference(&ai, &bi).unwrap());
    let i8_blocked = best_of(reps, || {
        gemm::matmul_i8_prepacked(&ai, &packed_i, 1).unwrap()
    });
    let i8_bit_exact = gemm::matmul_i8_prepacked(&ai, &packed_i, 1)
        .unwrap()
        .as_slice()
        == gemm::matmul_i8_reference(&ai, &bi).unwrap().as_slice();

    let fastest = blocked.min(threaded);
    KernelRow {
        shape: format!("{m}x{k}x{n}"),
        m,
        k,
        n,
        naive_ms: naive * 1e3,
        blocked_ms: blocked * 1e3,
        threaded_ms: threaded * 1e3,
        threads_effective,
        naive_gflops: flops / naive / 1e9,
        blocked_gflops: flops / blocked / 1e9,
        threaded_gflops: flops / threaded / 1e9,
        speedup_blocked: naive / blocked,
        speedup_threaded: naive / threaded,
        tokens_equiv_per_s: m as f64 / fastest,
        i8_naive_ms: i8_naive * 1e3,
        i8_blocked_ms: i8_blocked * 1e3,
        i8_speedup: i8_naive / i8_blocked,
        i8_gops: flops / i8_blocked / 1e9,
        i8_vs_f32: blocked / i8_blocked,
        i8_bit_exact,
    }
}

fn compare_decode(m: usize, k: usize, n: usize, reps: usize) -> DecodeRow {
    let a = ramp(m, k, 1.0);
    let b = ramp(k, n, 1.0);

    // f32: streaming per-call GEMV vs repack-every-call vs pack-once.
    let f32_streaming = best_of(reps, || per_call_f32(&a, &b, THREADS));
    let f32_repack = best_of(reps, || {
        let packed = PackedMatrixF32::from_tensor(&b);
        gemm::matmul_f32_prepacked(&a, &packed, THREADS).unwrap()
    });
    let packed_f = PackedMatrixF32::from_tensor(&b);
    let f32_prepacked = best_of(reps, || {
        gemm::matmul_f32_prepacked(&a, &packed_f, THREADS).unwrap()
    });
    let f32_bit_identical = gemm::matmul_f32_prepacked(&a, &packed_f, THREADS)
        .unwrap()
        .as_slice()
        == per_call_f32(&a, &b, THREADS);

    // i8: the pack-once path, plus bit-exactness vs the scalar reference.
    let ai = a.map(|x| (x * 120.0) as i8);
    let bi = b.map(|x| (x * 120.0) as i8);
    let packed_i = PackedMatrixI8::from_tensor(&bi);
    let i8_prepacked = best_of(reps, || {
        gemm::matmul_i8_prepacked(&ai, &packed_i, THREADS).unwrap()
    });
    let i8_bit_exact = gemm::matmul_i8_prepacked(&ai, &packed_i, THREADS)
        .unwrap()
        .as_slice()
        == gemm::matmul_i8_reference(&ai, &bi).unwrap().as_slice();

    DecodeRow {
        shape: format!("{m}x{k}x{n}"),
        m,
        k,
        n,
        f32_streaming_ms: f32_streaming * 1e3,
        f32_repack_per_call_ms: f32_repack * 1e3,
        f32_prepacked_ms: f32_prepacked * 1e3,
        f32_speedup_vs_repack: f32_repack / f32_prepacked,
        f32_speedup_vs_streaming: f32_streaming / f32_prepacked,
        f32_bit_identical,
        i8_prepacked_ms: i8_prepacked * 1e3,
        i8_bit_exact,
        meets_2x_vs_repack: f32_repack / f32_prepacked >= 2.0,
    }
}

fn compare_lm_head(m: usize, k: usize, n: usize, reps: usize) -> LmHeadRow {
    let a = ramp(m, k, 1.0);
    let head = ramp(k, n, (1.0 / k as f32).sqrt());
    let packed = PackedMatrixF32::from_tensor(&head);
    let per_call = best_of(reps, || per_call_f32(&a, &head, THREADS));
    let prepacked = best_of(reps, || {
        gemm::matmul_f32_prepacked(&a, &packed, THREADS).unwrap()
    });
    let bit_identical = gemm::matmul_f32_prepacked(&a, &packed, THREADS)
        .unwrap()
        .as_slice()
        == per_call_f32(&a, &head, THREADS);
    LmHeadRow {
        shape: format!("{m}x{k}x{n}"),
        m,
        k,
        n,
        per_call_ms: per_call * 1e3,
        prepacked_ms: prepacked * 1e3,
        speedup: per_call / prepacked,
        bit_identical,
    }
}

fn compare_batched_decode(batch: usize, k: usize, n: usize, reps: usize) -> BatchedDecodeRow {
    let b = ramp(k, n, 1.0);
    let packed = PackedMatrixF32::from_tensor(&b);
    // B scattered activation rows, as per-request state would hold them.
    let rows: Vec<Vec<f32>> = (0..batch)
        .map(|i| ramp(1, k, 1.0 + i as f32 * 0.1).into_vec())
        .collect();
    let row_refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
    let row_tensors: Vec<Tensor<f32>> = rows
        .iter()
        .map(|r| Tensor::from_vec(r.clone(), [1, k]).unwrap())
        .collect();

    let gemv_total = best_of(reps, || {
        for a in &row_tensors {
            black_box(gemm::matmul_f32_prepacked(a, &packed, THREADS).unwrap());
        }
    });
    let batched = best_of(reps, || {
        gemm::matmul_f32_rows_prepacked(&row_refs, &packed, THREADS).unwrap()
    });

    let stacked = gemm::matmul_f32_rows_prepacked(&row_refs, &packed, THREADS).unwrap();
    let bit_identical = row_tensors.iter().enumerate().all(|(i, a)| {
        gemm::matmul_f32_prepacked(a, &packed, THREADS)
            .unwrap()
            .row(0)
            == stacked.row(i)
    });

    let speedup = gemv_total / batched;
    BatchedDecodeRow {
        batch,
        k,
        n,
        gemv_total_ms: gemv_total * 1e3,
        batched_ms: batched * 1e3,
        gemv_tokens_per_s: batch as f64 / gemv_total,
        batched_tokens_per_s: batch as f64 / batched,
        speedup,
        bit_identical,
        meets_1_3x: speedup >= 1.3,
    }
}

/// Bytes walked to displace every line of the last-level cache. Sized
/// well past this class of host (the largest LLC we run on is 260 MB);
/// on smaller machines the walk simply over-evicts, which is harmless.
const LLC_EVICT_BYTES: usize = 320 << 20;

/// Best-of timing with the LLC displaced before every rep, so the
/// measured kernel streams its weights from DRAM.
///
/// Why cold is the honest decode regime: a decode step runs one GEMV
/// against every layer's weights, and a model worth serving is far
/// larger than any cache — by the time token t+1 revisits a layer, its
/// matrix has been evicted by the layers after it. Plain `best_of`
/// re-runs one matrix back-to-back, which leaves it LLC-resident on a
/// big-cache host and turns the measurement compute-bound; that regime
/// hides exactly the weight-bytes advantage sub-8-bit formats exist
/// for. Evicting between reps restores the DRAM-streaming steady
/// state the decode loop actually runs in.
fn best_of_cold<R>(reps: usize, evict: &mut [u8], mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let mut displaced = 0u64;
        for line in evict.chunks(64) {
            displaced = displaced.wrapping_add(u64::from(line[0]));
        }
        black_box(displaced);
        let t = Instant::now();
        black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn compare_lut_decode(
    m: usize,
    k: usize,
    n: usize,
    group_size: usize,
    reps: usize,
    gate_row: bool,
) -> LutDecodeRow {
    use llmnpu_tensor::kernel::lut;

    let a = ramp(m, k, 1.0);
    let b = ramp(k, n, 0.5);
    let mut evict = vec![1u8; LLC_EVICT_BYTES];

    let packed_f = PackedMatrixF32::from_tensor(&b);
    let f32_warm = best_of(reps, || {
        gemm::matmul_f32_prepacked(&a, &packed_f, THREADS).unwrap()
    });
    let f32_cold = best_of_cold(reps, &mut evict, || {
        gemm::matmul_f32_prepacked(&a, &packed_f, THREADS).unwrap()
    });

    let ai = a.map(|x| (x * 120.0) as i8);
    let bi = b.map(|x| (x * 120.0) as i8);
    let packed_i8 = PackedMatrixI8::from_tensor(&bi);
    let i8_warm = best_of(reps, || {
        gemm::matmul_i8_prepacked(&ai, &packed_i8, THREADS).unwrap()
    });
    let i8_cold = best_of_cold(reps, &mut evict, || {
        gemm::matmul_i8_prepacked(&ai, &packed_i8, THREADS).unwrap()
    });

    let packed_i4 = PackedMatrixI4::from_tensor(&b, group_size);
    let packed_i2 = PackedMatrixI2::from_tensor(&b, group_size);
    let builds0 = lut::lut_tables_built_global();
    let i4_warm = best_of(reps, || {
        gemm::matmul_i4_prepacked(&a, &packed_i4, THREADS).unwrap()
    });
    let i4_cold = best_of_cold(reps, &mut evict, || {
        gemm::matmul_i4_prepacked(&a, &packed_i4, THREADS).unwrap()
    });
    let i2_warm = best_of(reps, || {
        gemm::matmul_i2_prepacked(&a, &packed_i2, THREADS).unwrap()
    });
    let i2_cold = best_of_cold(reps, &mut evict, || {
        gemm::matmul_i2_prepacked(&a, &packed_i2, THREADS).unwrap()
    });
    let zero_warm_table_builds = lut::lut_tables_built_global() == builds0;

    let i4_bit_exact = gemm::matmul_i4_prepacked(&a, &packed_i4, THREADS)
        .unwrap()
        .as_slice()
        == gemm::matmul_lut_reference(&a, &packed_i4)
            .unwrap()
            .as_slice();
    let i2_bit_exact = gemm::matmul_i2_prepacked(&a, &packed_i2, THREADS)
        .unwrap()
        .as_slice()
        == gemm::matmul_lut_reference(&a, &packed_i2)
            .unwrap()
            .as_slice();

    let i4_vs_i8 = i8_cold / i4_cold;
    LutDecodeRow {
        shape: format!("{m}x{k}x{n}"),
        m,
        k,
        n,
        group_size,
        f32_bytes_per_token: k * n * std::mem::size_of::<f32>(),
        i8_bytes_per_token: k * n,
        i8_resident_bytes_per_weight: packed_i8.resident_bytes() as f64 / (k * n) as f64,
        i4_bytes_per_token: packed_i4.packed_bytes(),
        i2_bytes_per_token: packed_i2.packed_bytes(),
        f32_warm_ms: f32_warm * 1e3,
        i8_warm_ms: i8_warm * 1e3,
        i4_warm_ms: i4_warm * 1e3,
        i2_warm_ms: i2_warm * 1e3,
        i4_gops: (2 * m * k * n) as f64 / i4_warm / 1e9,
        i2_gops: (2 * m * k * n) as f64 / i2_warm / 1e9,
        f32_cold_ms: f32_cold * 1e3,
        i8_cold_ms: i8_cold * 1e3,
        i4_cold_ms: i4_cold * 1e3,
        i2_cold_ms: i2_cold * 1e3,
        f32_tokens_per_s: m as f64 / f32_cold,
        i8_tokens_per_s: m as f64 / i8_cold,
        i4_tokens_per_s: m as f64 / i4_cold,
        i2_tokens_per_s: m as f64 / i2_cold,
        i4_vs_i8_speedup: i4_vs_i8,
        i2_vs_i8_speedup: i8_cold / i2_cold,
        i4_bit_exact,
        i2_bit_exact,
        gate_row,
        meets_1_5x_vs_i8: i4_vs_i8 >= 1.5,
        zero_warm_table_builds,
    }
}

/// One `paged_kv` shape: `(heads, kv_heads, head_dim, q_rows, kv_len,
/// block_tokens, reps)`.
type PagedKvShape = (usize, usize, usize, usize, usize, usize, usize);

fn compare_paged_kv(shape: PagedKvShape, roofline_gflops: f64) -> PagedKvRow {
    use llmnpu_model::config::ModelConfig;
    use llmnpu_model::forward::attention_over_pages;

    let (heads, kv_heads, head_dim, q_rows, kv_len, block_tokens, reps) = shape;
    // Config fields beyond the head geometry are irrelevant to the
    // attention kernel.
    let mut cfg = ModelConfig::qwen15_18b();
    cfg.hidden = heads * head_dim;
    cfg.heads = heads;
    cfg.kv_heads = kv_heads;
    cfg.head_dim = head_dim;
    let kv_dim = cfg.kv_heads * cfg.head_dim;
    let q = ramp(q_rows, cfg.heads * cfg.head_dim, 1.0);
    let keys = ramp(kv_len, kv_dim, 0.7).into_vec();
    let values = ramp(kv_len, kv_dim, -0.6).into_vec();
    // Attention masks relative to the *end* of the cache.
    let start_pos = kv_len - q_rows;

    let contiguous = best_of(reps, || {
        attention_over_pages(&q, &[&keys], &[&values], &cfg, start_pos).unwrap()
    });
    let pages_k: Vec<&[f32]> = keys.chunks(block_tokens * kv_dim).collect();
    let pages_v: Vec<&[f32]> = values.chunks(block_tokens * kv_dim).collect();
    let paged = best_of(reps, || {
        attention_over_pages(&q, &pages_k, &pages_v, &cfg, start_pos).unwrap()
    });
    let bit_identical = attention_over_pages(&q, &pages_k, &pages_v, &cfg, start_pos)
        .unwrap()
        .as_slice()
        == attention_over_pages(&q, &[&keys], &[&values], &cfg, start_pos)
            .unwrap()
            .as_slice();
    let paged_gflops = (4 * heads * q_rows * kv_len * head_dim) as f64 / paged / 1e9;

    PagedKvRow {
        heads,
        kv_heads,
        head_dim,
        q_rows,
        kv_len,
        block_tokens,
        pages: pages_k.len(),
        contiguous_ms: contiguous * 1e3,
        paged_ms: paged * 1e3,
        overhead_ratio: paged / contiguous,
        paged_gflops,
        roofline_frac: paged_gflops / roofline_gflops,
        bit_identical,
    }
}

/// The `layer_i8` rows (see [`LayerI8Row`]) at `m` activation rows.
/// What the NPU lane does while [`on_cpu_lane`] runs its job.
#[derive(Clone, Copy)]
enum Sibling {
    /// Runs a task of its own (a spin, no kernel call) for the job's
    /// whole length.
    Busy,
    /// Has no task until the job is done: it lends.
    Idle,
}

/// Runs `job` as the CPU-lane task of a two-lane executor run on `pool`,
/// with the NPU lane doing `sibling`, and returns its result.
fn on_cpu_lane<R: Send>(
    pool: &llmnpu_sched::WorkerPool,
    sibling: Sibling,
    job: impl FnOnce() -> R + Send,
) -> R {
    use llmnpu_sched::{execute_lane_graph, LaneGraph, LaneTask, Policy, TaskFn};
    use llmnpu_soc::Processor;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    let task = |label: &str, processor| LaneTask {
        label: label.to_owned(),
        processor,
        duration_ms: 1.0,
        release_ms: 0.0,
        barrier: false,
    };
    let mut graph = LaneGraph::new();
    let measured = graph
        .push(task("measured", Processor::Cpu), vec![])
        .unwrap();
    let deps = match sibling {
        Sibling::Busy => vec![],
        Sibling::Idle => vec![measured],
    };
    graph.push(task("sibling", Processor::Npu), deps).unwrap();
    let done = AtomicBool::new(false);
    let out = Mutex::new(None);
    let closures: Vec<TaskFn<'_>> = vec![
        Box::new(|| {
            *out.lock().unwrap() = Some(job());
            done.store(true, Ordering::Release);
            Ok(())
        }),
        Box::new(|| {
            while matches!(sibling, Sibling::Busy) && !done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            Ok(())
        }),
    ];
    execute_lane_graph(&graph, closures, Policy::OutOfOrder, pool).unwrap();
    out.into_inner().unwrap().unwrap()
}

/// The `lane_lending` rows: the served decode step's forward and LM head
/// at `m = 1` and `8`, on int4 and f32 weights, alone / sibling busy /
/// lent (see [`LaneLendingRow`]).
fn compare_lane_lending() -> Vec<LaneLendingRow> {
    use llmnpu_model::backend::{FloatBackend, LinearBackend, LutBackend};
    use llmnpu_model::config::ModelConfig;
    use llmnpu_model::forward::{PagedDecodeEntry, Transformer};
    use llmnpu_model::kv::PagedKvCache;
    use llmnpu_model::weights::{synthesize, OutlierSpec};
    use llmnpu_tensor::kernel::parallel::{with_backend, InlineBackend};

    const PROMPT: usize = 64;
    let cfg = ModelConfig::qwen15_18b().scaled_down(512, 6, 4096).unwrap();
    let w = synthesize(&cfg, 29, OutlierSpec::default()).unwrap();
    let lut = LutBackend::int4(&w, 32).unwrap();
    let float = FloatBackend::new(w.clone());
    let pool = llmnpu_sched::WorkerPool::new(2);
    let backends: [(&'static str, &dyn LinearBackend, usize); 2] =
        [("int4", &lut, 31), ("f32", &float, 15)];
    let mut rows = Vec::new();
    for (backend, be, reps) in backends {
        let t = Transformer::new(&w, be);
        for m in [1usize, 8] {
            // `m` requests `PROMPT` tokens in; every rep decodes the same
            // token at the same position, so every rep's output is equal.
            let mut caches: Vec<PagedKvCache> = (0..m)
                .map(|r| {
                    let prompt: Vec<u32> = (0..PROMPT)
                        .map(|i| ((i * 31 + r * 7 + 1) % cfg.vocab) as u32)
                        .collect();
                    let mut kv = PagedKvCache::solo(&cfg, PROMPT + 1).unwrap();
                    t.prefill_paged(&prompt, 0, &mut kv).unwrap();
                    kv
                })
                .collect();
            let mut forward = || {
                let mut entries: Vec<PagedDecodeEntry<'_>> = caches
                    .iter_mut()
                    .enumerate()
                    .map(|(r, kv)| PagedDecodeEntry {
                        token: ((r * 17 + 3) % cfg.vocab) as u32,
                        pos: PROMPT,
                        kv,
                    })
                    .collect();
                t.decode_forward_batch(&mut entries).unwrap()
            };
            let hidden = forward();
            let mut head = || t.logits(&hidden).unwrap();
            let parts: [(&'static str, &mut (dyn FnMut() -> Tensor<f32> + Send)); 2] =
                [("forward", &mut forward), ("head", &mut head)];
            for (part, f) in parts {
                let timed = |f: &mut (dyn FnMut() -> Tensor<f32> + Send)| {
                    let out = f();
                    (median_of(reps, &mut *f) * 1e3, out)
                };
                let (alone_ms, alone) =
                    with_backend(std::sync::Arc::new(InlineBackend), || timed(&mut *f));
                let (sibling_busy_ms, busy) = on_cpu_lane(&pool, Sibling::Busy, || timed(&mut *f));
                let (lent_ms, lent) = on_cpu_lane(&pool, Sibling::Idle, || timed(&mut *f));
                rows.push(LaneLendingRow {
                    backend,
                    part,
                    m,
                    alone_ms,
                    sibling_busy_ms,
                    lent_ms,
                    lent_speedup: alone_ms / lent_ms,
                    bit_identical: alone.as_slice() == busy.as_slice()
                        && alone.as_slice() == lent.as_slice(),
                });
            }
        }
    }
    rows
}

fn compare_layer_i8(m: usize, reps: usize) -> Vec<LayerI8Row> {
    use llmnpu_model::backend::{FloatBackend, ShadowBackend};
    use llmnpu_model::config::ModelConfig;
    use llmnpu_model::forward::Transformer;
    use llmnpu_model::weights::{synthesize, OutlierSpec};
    use llmnpu_quant::outlier::calibrate_scale;
    use llmnpu_tensor::kernel::parallel::{with_backend, InlineBackend};
    use llmnpu_tensor::{ops, rope};

    let cfg = ModelConfig::qwen15_18b().scaled_down(512, 1, 64).unwrap();
    let w = synthesize(&cfg, 29, OutlierSpec::default()).unwrap();
    let (hidden, ffn, qd, kvd) = (cfg.hidden, cfg.ffn_hidden, cfg.q_dim(), cfg.kv_dim());
    let tokens: Vec<u32> = (0..m as u32).map(|i| (i * 7 + 3) % 64).collect();
    let float = FloatBackend::new(w.clone());
    let cal = Transformer::new(&w, &float)
        .calibrate(std::slice::from_ref(&tokens))
        .unwrap();
    let shadow = ShadowBackend::new(&w, &cal, 0.997, 1.0).unwrap();
    let t = Transformer::new(&w, &shadow);

    let h = t.embed(&tokens).unwrap();
    let a_in = t.stage_attn_pre(0, &h).unwrap();
    let attn = t.stage_qkv(0, &a_in, 0).unwrap().0;
    let f_in = t.stage_ffn_pre(0, &h).unwrap();
    let mid = t.stage_ffn_mid(0, &f_in).unwrap();
    let gate = ramp(m, ffn, 4.0);
    let scale = |x: &Tensor<f32>| calibrate_scale(std::slice::from_ref(x), 0.997).unwrap();
    let (s_attn, s_out, s_ffn, s_mid) = (scale(&a_in), scale(&attn), scale(&f_in), scale(&mid));

    // Weights of each projection shape, for the parts timed alone.
    let weight = |k: usize, n: usize| {
        let b = ramp(k, n, 1.0).map(|x| (x * 200.0) as i8);
        (PackedMatrixI8::from_tensor(&b), vec![0.01f32; n])
    };
    let tile = |xq: &Tensor<i8>, (packed, w_scales): &(PackedMatrixI8, Vec<f32>), a_scale| {
        let mut out = Tensor::zeros([xq.matrix_dims().0, packed.n()]);
        let epilogue = Epilogue::PerChannel { a_scale, w_scales };
        gemm::matmul_i8_fused_prepacked(&mut out, xq, packed, epilogue, 1).unwrap();
        out
    };
    let quantize = QuantizedMatrix::quantize_with_scale;
    let quantize_per_lane =
        |x: &Tensor<f32>, s: f32| x.map(|v| (v / s).round().clamp(-127.0, 127.0) as i8);
    let silu_libm = |x: &Tensor<f32>| x.map(|v| v / (1.0 + (-v).exp()));
    let (w_q, w_kv, w_o) = (weight(hidden, qd), weight(hidden, kvd), weight(qd, hidden));
    let (w_ffn, w_down) = (weight(hidden, ffn), weight(ffn, hidden));
    let (w_qkv, w_gate_up) = (weight(hidden, qd + 2 * kvd), weight(hidden, 2 * ffn));
    let (a_q, f_q, attn_q, mid_q) = (
        quantize(&a_in, s_attn).data().clone(),
        quantize(&f_in, s_ffn).data().clone(),
        quantize(&attn, s_out).data().clone(),
        quantize(&mid, s_mid).data().clone(),
    );
    let rope_qk = |q: &mut Tensor<f32>, k: &mut Tensor<f32>| {
        let hd = cfg.head_dim;
        rope::apply_rope_heads_inplace(q, hd, 0..m, rope::DEFAULT_THETA).unwrap();
        rope::apply_rope_heads_inplace(k, hd, 0..m, rope::DEFAULT_THETA).unwrap();
    };

    with_backend(std::sync::Arc::new(InlineBackend), || {
        let split = |stage, composition, gemms, parts: &mut LayerParts<'_>| {
            split_stage(stage, composition, gemms, m, reps, parts)
        };
        let mut rows = Vec::new();
        // QkvLinear.
        rows.push(split(
            "qkv",
            "fused",
            1,
            &mut LayerParts {
                quantize: &mut || drop(black_box(quantize(&a_in, s_attn))),
                tile: &mut || drop(black_box(tile(&a_q, &w_qkv, s_attn))),
                silu: None,
                stage: &mut || drop(black_box(t.stage_qkv(0, &a_in, 0).unwrap())),
            },
        ));
        rows.push(split(
            "qkv",
            "per_site",
            3,
            &mut LayerParts {
                quantize: &mut || {
                    for _ in 0..3 {
                        black_box(quantize_per_lane(&a_in, s_attn));
                    }
                },
                tile: &mut || {
                    for w in [&w_q, &w_kv, &w_kv] {
                        black_box(tile(&a_q, w, s_attn));
                    }
                },
                silu: None,
                stage: &mut || {
                    let mut q = tile(&quantize_per_lane(&a_in, s_attn), &w_q, s_attn);
                    let mut k = tile(&quantize_per_lane(&a_in, s_attn), &w_kv, s_attn);
                    let v = tile(&quantize_per_lane(&a_in, s_attn), &w_kv, s_attn);
                    rope_qk(&mut q, &mut k);
                    black_box((q, k, v));
                },
            },
        ));

        // OProj: one site either way; only the quantizer differs.
        rows.push(split(
            "o",
            "fused",
            1,
            &mut LayerParts {
                quantize: &mut || drop(black_box(quantize(&attn, s_out))),
                tile: &mut || drop(black_box(tile(&attn_q, &w_o, s_out))),
                silu: None,
                stage: &mut || drop(black_box(t.stage_attn_out(0, &h, &attn).unwrap())),
            },
        ));
        rows.push(split(
            "o",
            "per_site",
            1,
            &mut LayerParts {
                quantize: &mut || drop(black_box(quantize_per_lane(&attn, s_out))),
                tile: &mut || drop(black_box(tile(&attn_q, &w_o, s_out))),
                silu: None,
                stage: &mut || {
                    let y = tile(&quantize_per_lane(&attn, s_out), &w_o, s_out);
                    black_box(ops::add(&h, &y).unwrap());
                },
            },
        ));

        // Ffn: gate | up, the activation, down.
        rows.push(split(
            "ffn",
            "fused",
            2,
            &mut LayerParts {
                quantize: &mut || {
                    black_box(quantize(&f_in, s_ffn));
                    black_box(quantize(&mid, s_mid));
                },
                tile: &mut || {
                    black_box(tile(&f_q, &w_gate_up, s_ffn));
                    black_box(tile(&mid_q, &w_down, s_mid));
                },
                silu: Some(&mut || drop(black_box(ops::silu(&gate)))),
                stage: &mut || {
                    let mid = t.stage_ffn_mid(0, &f_in).unwrap();
                    black_box(t.stage_ffn_down(0, &h, &mid).unwrap());
                },
            },
        ));
        rows.push(split(
            "ffn",
            "per_site",
            3,
            &mut LayerParts {
                quantize: &mut || {
                    black_box(quantize_per_lane(&f_in, s_ffn));
                    black_box(quantize_per_lane(&f_in, s_ffn));
                    black_box(quantize_per_lane(&mid, s_mid));
                },
                tile: &mut || {
                    black_box(tile(&f_q, &w_ffn, s_ffn));
                    black_box(tile(&f_q, &w_ffn, s_ffn));
                    black_box(tile(&mid_q, &w_down, s_mid));
                },
                silu: Some(&mut || drop(black_box(silu_libm(&gate)))),
                stage: &mut || {
                    let g = tile(&quantize_per_lane(&f_in, s_ffn), &w_ffn, s_ffn);
                    let u = tile(&quantize_per_lane(&f_in, s_ffn), &w_ffn, s_ffn);
                    let act = ops::mul(&silu_libm(&g), &u).unwrap();
                    let y = tile(&quantize_per_lane(&act, s_mid), &w_down, s_mid);
                    black_box(ops::add(&h, &y).unwrap());
                },
            },
        ));
        rows
    })
}

/// One stage's work for a `layer_i8` row: its parts, and the whole.
struct LayerParts<'a> {
    quantize: &'a mut dyn FnMut(),
    tile: &'a mut dyn FnMut(),
    silu: Option<&'a mut dyn FnMut()>,
    stage: &'a mut dyn FnMut(),
}

/// Times a stage and its parts round-robin — rep `r` of every one runs
/// before rep `r + 1` of any — so host drift moves them alike and `rest`,
/// a difference of best times, stays meaningful.
fn split_stage(
    stage: &'static str,
    composition: &'static str,
    gemms: usize,
    m: usize,
    reps: usize,
    parts: &mut LayerParts<'_>,
) -> LayerI8Row {
    let mut best = [f64::MAX; 4];
    for _ in 0..reps {
        let mut time = |slot: usize, f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            best[slot] = best[slot].min(t.elapsed().as_secs_f64() * 1e3);
        };
        time(0, parts.quantize);
        time(1, parts.tile);
        if let Some(silu) = parts.silu.as_deref_mut() {
            time(2, silu);
        }
        time(3, parts.stage);
    }
    let [quantize_ms, tile_ms, silu_ms, stage_ms] = best;
    let silu_ms = if parts.silu.is_some() { silu_ms } else { 0.0 };
    LayerI8Row {
        stage,
        m,
        composition,
        gemms,
        quantize_ms,
        tile_ms,
        silu_ms,
        rest_ms: stage_ms - quantize_ms - tile_ms - silu_ms,
        stage_ms,
        outside_tile_frac: 1.0 - tile_ms / stage_ms,
    }
}

fn kernel_comparison() {
    let threads_effective = llmnpu_tensor::kernel::parallel::effective_threads(THREADS);
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let int_body = int_body();
    println!(
        "\n=== kernel subsystem: naive vs blocked vs blocked+{threads_effective}-thread \
         (requested {THREADS}, host has {host_cpus} cpus; integer tile body: {int_body}) ==="
    );
    let shapes: [(usize, usize, usize, usize); 4] = [
        (256, 256, 256, 9),
        (512, 512, 512, 7),
        (1024, 1024, 1024, 3),
        (1, 4096, 4096, 9), // decode GEMV
    ];
    let rows: Vec<KernelRow> = shapes
        .iter()
        .map(|&(m, k, n, reps)| {
            let row = compare_shape(m, k, n, reps);
            println!(
                "{:<14} naive {:>8.2} ms | blocked {:>7.2} ms ({:>4.2}x, {:>5.1} GFLOP/s) | {}t {:>7.2} ms ({:>4.2}x) | i8 {:>7.2} ms {:>5.1} Gop/s ({:>4.2}x f32) exact={} | {:>9.0} tok-eq/s",
                row.shape,
                row.naive_ms,
                row.blocked_ms,
                row.speedup_blocked,
                row.blocked_gflops,
                row.threads_effective,
                row.threaded_ms,
                row.speedup_threaded,
                row.i8_blocked_ms,
                row.i8_gops,
                row.i8_vs_f32,
                row.i8_bit_exact,
                row.tokens_equiv_per_s,
            );
            row
        })
        .collect();

    println!(
        "--- decode (m <= 2): f32 streaming vs repack-per-call vs prepacked; i8 prepacked ---"
    );
    let decode_shapes: [(usize, usize, usize, usize); 2] = [(1, 4096, 4096, 9), (2, 4096, 4096, 7)];
    let decode: Vec<DecodeRow> = decode_shapes
        .iter()
        .map(|&(m, k, n, reps)| {
            let row = compare_decode(m, k, n, reps);
            println!(
                "{:<14} f32 stream {:>6.2} ms | repack {:>7.2} ms | prepacked {:>6.2} ms ({:>5.2}x vs repack) | i8 prepacked {:>6.2} ms exact={} | 2x-target={}",
                row.shape,
                row.f32_streaming_ms,
                row.f32_repack_per_call_ms,
                row.f32_prepacked_ms,
                row.f32_speedup_vs_repack,
                row.i8_prepacked_ms,
                row.i8_bit_exact,
                row.meets_2x_vs_repack,
            );
            row
        })
        .collect();

    println!("--- lm head: served 512x4096 head, packed per call vs packed once ---");
    let lm_head: Vec<LmHeadRow> = [(1, 25), (2, 25), (8, 15)]
        .into_iter()
        .map(|(m, reps)| {
            let row = compare_lm_head(m, 512, 4096, reps);
            println!(
                "{:<14} per call {:>6.3} ms | prepacked {:>6.3} ms ({:>5.2}x) | identical={}",
                row.shape, row.per_call_ms, row.prepacked_ms, row.speedup, row.bit_identical,
            );
            row
        })
        .collect();

    println!(
        "--- lut decode: f32 vs i8 vs int4 vs int2 prepacked, cold-stream (bytes/token, tok/s) ---"
    );
    // The served shapes first: the benchmark model's linear sites at the
    // group size every backend, test and workload uses (gs = 32), at
    // solo decode, a half and a full batched-decode cohort and a prefill
    // chunk.
    let lut_shapes: [(usize, usize, usize, usize, usize, bool); 13] = [
        (1, 512, 1376, 32, 25, false),
        (4, 512, 1376, 32, 25, false),
        (8, 512, 1376, 32, 25, false),
        (32, 512, 1376, 32, 15, false),
        (1, 1376, 512, 32, 25, false),
        (4, 1376, 512, 32, 25, false),
        (8, 1376, 512, 32, 25, false),
        (32, 1376, 512, 32, 15, false),
        (1, 4096, 4096, 32, 12, true), // solo decode GEMV — the 1.5x gate row
        (1, 4096, 4096, 256, 12, false), // wide groups: an eighth of the epilogues
        (1, 4096, 4096, 128, 9, false),
        (2, 4096, 4096, 128, 7, false), // widest GEMV cohort
        (8, 4096, 4096, 128, 5, false), // batched-decode cohort (m = B)
    ];
    let lut_decode: Vec<LutDecodeRow> = lut_shapes
        .iter()
        .map(|&(m, k, n, gs, reps, gate)| {
            let row = compare_lut_decode(m, k, n, gs, reps, gate);
            println!(
                "{:<14} gs={:<3} cold: f32 {:>6.2} ms ({:>5.1} MB) | i8 {:>6.2} ms ({:>5.1} MB) | i4 {:>6.2} ms ({:>5.1} MB, {:>4.2}x vs i8) | i2 {:>6.2} ms ({:>5.1} MB, {:>4.2}x) | warm: i8 {:>5.2} i4 {:>5.2} i2 {:>5.2} ms, i4 {:>4.1} i2 {:>4.1} Gop/s | exact i4={} i2={} | gate={} 1.5x={} zero-builds={}",
                row.shape,
                row.group_size,
                row.f32_cold_ms,
                row.f32_bytes_per_token as f64 / 1e6,
                row.i8_cold_ms,
                row.i8_bytes_per_token as f64 / 1e6,
                row.i4_cold_ms,
                row.i4_bytes_per_token as f64 / 1e6,
                row.i4_vs_i8_speedup,
                row.i2_cold_ms,
                row.i2_bytes_per_token as f64 / 1e6,
                row.i2_vs_i8_speedup,
                row.i8_warm_ms,
                row.i4_warm_ms,
                row.i2_warm_ms,
                row.i4_gops,
                row.i2_gops,
                row.i4_bit_exact,
                row.i2_bit_exact,
                row.gate_row,
                row.meets_1_5x_vs_i8,
                row.zero_warm_table_builds,
            );
            row
        })
        .collect();

    println!("--- batched decode: B separate m=1 GEMVs vs one m=B GEMM ---");
    let batched_shapes: [(usize, usize, usize, usize); 3] =
        [(2, 4096, 4096, 7), (4, 4096, 4096, 5), (8, 4096, 4096, 5)];
    let batched_decode: Vec<BatchedDecodeRow> = batched_shapes
        .iter()
        .map(|&(b, k, n, reps)| {
            let row = compare_batched_decode(b, k, n, reps);
            println!(
                "B={:<2} {:>5}x{:<5} gemv x{} {:>7.2} ms ({:>6.0} tok/s) | m={} gemm {:>6.2} ms ({:>6.0} tok/s) | {:>4.2}x | identical={} | 1.3x-target={}",
                row.batch,
                row.k,
                row.n,
                row.batch,
                row.gemv_total_ms,
                row.gemv_tokens_per_s,
                row.batch,
                row.batched_ms,
                row.batched_tokens_per_s,
                row.speedup,
                row.bit_identical,
                row.meets_1_3x,
            );
            row
        })
        .collect();

    let fma_roofline_gflops = fma_roofline_gflops();
    println!(
        "--- paged kv: attention, contiguous vs block table (FMA roofline {fma_roofline_gflops:.0} GFLOP/s) ---"
    );
    let paged_shapes: [PagedKvShape; 8] = [
        (32, 32, 16, 32, 64, 16, 25),
        (32, 32, 16, 32, 640, 16, 15),
        (32, 8, 16, 32, 640, 16, 15),
        (32, 32, 16, 1, 112, 16, 25),
        (32, 32, 16, 1, 704, 16, 25),
        (8, 8, 64, 1, 2048, 16, 9),
        (8, 8, 64, 1, 2048, 64, 9),
        (8, 8, 64, 32, 2048, 16, 9),
    ];
    let paged_kv: Vec<PagedKvRow> = paged_shapes
        .iter()
        .map(|&shape| {
            let row = compare_paged_kv(shape, fma_roofline_gflops);
            println!(
                "{:>2}x{:<2} ({:>2} kv) q={:<3} kv={:<5} pages of {:<3} ({:>3} pages): contiguous {:>7.3} ms | paged {:>7.3} ms | overhead {:>5.3}x | {:>5.1} GFLOP/s ({:>4.2} of roofline) | identical={}",
                row.heads,
                row.head_dim,
                row.kv_heads,
                row.q_rows,
                row.kv_len,
                row.block_tokens,
                row.pages,
                row.contiguous_ms,
                row.paged_ms,
                row.overhead_ratio,
                row.paged_gflops,
                row.roofline_frac,
                row.bit_identical,
            );
            row
        })
        .collect();

    println!(
        "--- layer i8: one shadow-int8 layer's NPU-lane stages, per-site (before fusion) vs fused, 1 thread ---"
    );
    let layer_i8: Vec<LayerI8Row> = [(32, 150), (8, 400)]
        .into_iter()
        .flat_map(|(m, reps)| compare_layer_i8(m, reps))
        .inspect(|row| {
            println!(
                "{:<4} m={:<3} {:<9} {} gemm(s) | quantize {:>6.3} | tile {:>6.3} | silu {:>6.3} | rest {:>6.3} | stage {:>6.3} ms | outside tile {:>4.2}",
                row.stage,
                row.m,
                row.composition,
                row.gemms,
                row.quantize_ms,
                row.tile_ms,
                row.silu_ms,
                row.rest_ms,
                row.stage_ms,
                row.outside_tile_frac,
            );
        })
        .collect();

    println!(
        "--- lane lending: a served decode step's parts on the CPU lane, alone vs sibling busy vs lent ---"
    );
    let lane_lending: Vec<LaneLendingRow> = compare_lane_lending()
        .into_iter()
        .inspect(|row| {
            println!(
                "{:<4} {:<7} m={} alone {:>7.3} ms | sibling busy {:>7.3} ms | lent {:>7.3} ms ({:>4.2}x) | identical={}",
                row.backend,
                row.part,
                row.m,
                row.alone_ms,
                row.sibling_busy_ms,
                row.lent_ms,
                row.lent_speedup,
                row.bit_identical,
            );
        })
        .collect();

    let record = KernelRecord {
        id: "kernels",
        description: "Blocked+packed+threaded GEMM vs scalar reference \
                      (every i8 column is the prepacked path all quantized \
                      layers run); decode section compares the f32 streaming \
                      GEMV, repack-per-call and pack-once PackedMatrix paths, \
                      plus the i8 pack-once GEMV; lm_head times the served \
                      512x4096 LM head packed per call vs packed once at \
                      m = 1, 2, 8; lut_decode compares the \
                      decode GEMV across f32/i8/int4/int2 prepacked weights with \
                      bytes moved per token, timed cold (LLC evicted before each \
                      rep so weights stream from DRAM, the steady state of a \
                      real decode loop whose model exceeds any cache; warm \
                      rows are LLC-resident and compute-bound, reported for \
                      transparency) — acceptance: cold int4 >= 1.5x cold i8 \
                      tok/s on the gate row, optimized LUT drivers bit-exact vs \
                      the scalar LUT reference, zero warm table builds; \
                      batched_decode compares \
                      B separate m=1 decode GEMVs against one m=B GEMM through \
                      the batched-decode driver (acceptance: >=1.3x aggregate \
                      tokens/s); paged_kv times the attention kernel over \
                      a contiguous cache and over a block table (paging \
                      overhead + bit identity) and states each shape as \
                      achieved GFLOP/s against fma_roofline_gflops; layer_i8 splits \
                      one shadow-int8 layer's NPU-lane stages (QKV, O, FFN) into \
                      activation quantize, tile + epilogue, SiLU and the rest, \
                      per-site (the composition before sibling projections were \
                      fused) vs fused; lane_lending times a served decode \
                      step's forward and LM head on the CPU lane of a two-lane \
                      executor run alone, with the NPU lane busy (bands inline) \
                      and with it idle (lent); serving-level and pool-dispatch numbers \
                      live in benchmark/ (BENCHMARK.json); tokens-equivalent \
                      = activation rows per second",
        threads_requested: THREADS,
        threads_effective,
        host_cpus,
        thread_scaling_valid: host_cpus > 1,
        fma: cfg!(target_feature = "fma"),
        int_body,
        rows,
        decode,
        lm_head,
        lut_decode,
        batched_decode,
        fma_roofline_gflops,
        paged_kv,
        layer_i8,
        lane_lending,
    };
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let json = json::to_string_pretty(&record.to_json());
    std::fs::write(path, json + "\n").expect("write BENCH_kernels.json");
    println!("wrote {path}");

    // Exactness is a property of the code, not of the host: a false flag
    // is a bug on any machine, so it fails the run (the record above is
    // still written, for the post-mortem). The timing gates (`meets_*`)
    // stay report-only — the CI host is not steady.
    let mut flags: Vec<(String, bool)> = Vec::new();
    for r in &record.rows {
        flags.push((format!("{} i8", r.shape), r.i8_bit_exact));
    }
    for r in &record.decode {
        flags.push((format!("{} f32 prepacked", r.shape), r.f32_bit_identical));
        flags.push((format!("{} i8 prepacked", r.shape), r.i8_bit_exact));
    }
    for r in &record.lm_head {
        flags.push((format!("{} lm head prepacked", r.shape), r.bit_identical));
    }
    for r in &record.lut_decode {
        let at = format!("{} gs={}", r.shape, r.group_size);
        flags.push((format!("{at} i4"), r.i4_bit_exact));
        flags.push((format!("{at} i2"), r.i2_bit_exact));
        flags.push((
            format!("{at} zero warm table builds"),
            r.zero_warm_table_builds,
        ));
    }
    for r in &record.batched_decode {
        flags.push((format!("batched decode B={}", r.batch), r.bit_identical));
    }
    for r in &record.paged_kv {
        let at = format!(
            "paged kv {}x{} ({} kv) q={} kv={} pages of {}",
            r.heads, r.head_dim, r.kv_heads, r.q_rows, r.kv_len, r.block_tokens
        );
        flags.push((at, r.bit_identical));
    }
    for r in &record.lane_lending {
        let at = format!("lane lending {} {} m={}", r.backend, r.part, r.m);
        flags.push((at, r.bit_identical));
    }
    let inexact: Vec<&str> = flags
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(what, _)| what.as_str())
        .collect();
    if !inexact.is_empty() {
        eprintln!("kernel bench: exactness flags false: {inexact:?}");
        std::process::exit(1);
    }
}

criterion_group!(
    benches,
    bench_gemm,
    bench_quantized_linears,
    bench_outlier_extraction
);

fn main() {
    benches();
    kernel_comparison();
}
