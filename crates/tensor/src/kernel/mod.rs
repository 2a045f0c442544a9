//! The blocked, packed, multi-threaded GEMM kernel subsystem.
//!
//! This module is the performance engine behind [`crate::gemm`]: every
//! public matmul in the crate is a thin wrapper over the drivers here.
//! The design is the classic three-level GotoBLAS decomposition, in
//! `#![forbid(unsafe_code)]` Rust:
//!
//! 1. **Cache blocking** ([`blocking constants`](self#blocking)): the
//!    K dimension is split into `KC`-deep slabs and the output into
//!    `MC × NC` blocks, sized so one packed B slab lives in L2 and one
//!    packed A block in L1 while they are reused.
//! 2. **Packing** ([`pack`]): operand blocks are copied once into
//!    panel-ordered buffers that the inner loop reads with unit stride;
//!    integer operands are widened to `i16` during the copy.
//! 3. **Register tiling** ([`microkernel`]): an `MR × NR` tile of C is
//!    held in SIMD registers across the whole K loop (with hardware FMA
//!    when the build target has it).
//!
//! # Fused epilogues
//!
//! The integer drivers apply a dequantization [`Epilogue`] while the
//! `i32` tile is still hot, so `MatMul → Dequantize` pipelines (paper
//! Figure 5) run in one pass without materializing an intermediate
//! `i32` tensor. Each epilogue reproduces the float expression of the
//! two-pass code it replaces *exactly* — same operations, same order —
//! so fusing is bit-invisible to callers.
//!
//! # Prepacked weights: pack once, multiply forever
//!
//! The drivers above re-pack the B operand on **every** call — correct
//! for one-shot products, wasteful for weights, which are multiplied
//! thousands of times against changing activations. The `*_prepacked`
//! entry points ([`gemm_f32_prepacked`], [`gemm_i8_prepacked`],
//! [`gemm_i8_fused_prepacked`], [`gemv_f32_prepacked`],
//! [`gemv_i8_prepacked`], [`gemv_i8_fused_prepacked`]) instead consume a
//! [`pack::PackedMatrixF32`] / [`pack::PackedMatrixI8`] built once at
//! weight load/quantization time:
//!
//! * **Ownership**: the `PackedMatrix` owns the panel-ordered
//!   (i16-widened, for i8) slab sequence keyed by the same `KC`/`NC`
//!   blocking the per-call drivers use; the i8 variant additionally
//!   carries a transposed (`n × k`, 1-byte) copy for decode. Callers
//!   hold it next to the quantized payload (e.g. a linear layer's
//!   weight struct) and hand out `&` borrows per call.
//! * **When packing happens**: exactly once, inside
//!   `PackedMatrix::pack`. The prepacked drivers perform **zero** B-side
//!   packing per call ([`pack::pack_b_calls`] observes this); only the
//!   small per-call A (activation) panels are still packed inside the
//!   `m > 2` tile loop — into a persistent per-worker scratch arena
//!   ([`pack::with_a_scratch_f32`]), so a warm steady state performs
//!   zero A-panel allocations per call ([`pack::a_scratch_grows`]
//!   observes this).
//! * **Decode layout**: for `m ≤ 2` (decode-shaped inputs) the drivers
//!   switch to a GEMV that N-partitions the output columns across
//!   `threads` workers ([`parallel::run_col_partitioned`]) — decode no
//!   longer silently ignores the thread count the way the
//!   row-partitioned path (capped at `m` bands) necessarily did. The
//!   f32 GEMV reads the persistent panel slabs directly (each
//!   `NR`-column panel already gives the K loop unit-stride, SIMD-width
//!   column access); the i8 GEMV reads the transposed copy, whose
//!   1-byte elements halve decode memory traffic vs the i16-widened
//!   panels — decode is memory-bound, and integer exactness lets its
//!   dot products reassociate freely for vectorization.
//!
//! Prepacked and per-call drivers are **bit-identical**: the slab bytes
//! are equal by construction, and the GEMV keeps the per-element
//! operation sequence of the streaming path (same `KC`-slab reset/add
//! structure, same `fmadd` contraction rule as the microkernel), so
//! `C[i][j]` matches bit-for-bit in both f32 and fused-dequant outputs.
//!
//! # Sub-8-bit weights: the LUT family
//!
//! Below i8 the kernel plane switches arithmetic styles: the [`lut`]
//! module stores weights as 4-bit ([`lut::PackedMatrixI4`]) or 2-bit
//! ([`lut::PackedMatrixI2`]) group-quantized codes — half / a quarter
//! of the i8 decode bytes — and computes with T-MAN-style partial-sum
//! tables (16-entry for int4, 4-entry for int2) instead of widening
//! multiplies. A scalar reference materializes the tables; the
//! optimized drivers evaluate the same entries in registers, which is
//! bit-identical (exact i32 arithmetic) and counted by
//! [`lut::lut_tables_built`] staying flat. Codes live in one layout —
//! `NR`-column panels, so SIMD lanes are output columns and a group's
//! dequantization is one vector epilogue per 16 outputs rather than a
//! horizontal reduction per element (the group-size cliff that layout
//! removes is stated in the [`lut`] module docs) — walked by one kernel
//! per shape class for every group size: the same `m ≤ 2` GEMV / tiled
//! split as the f32 and i8 drivers, the GEMV dotting the packed bytes in
//! place and the tile unpacking each group once for all row tiles, over
//! the row-cohort column partitioner
//! [`parallel::run_col_partitioned_rows`] in whole panels.
//!
//! # Determinism
//!
//! For a fixed build, every driver is deterministic and
//! *shape-stable*: the value of `C[i][j]` depends only on row `i` of A,
//! column `j` of B, and K — not on the other dimensions, the blocking,
//! or the thread count. Threading partitions output rows
//! ([`parallel`]) — or output columns in the GEMV paths — which never
//! changes the K-summation order of any element, so 1-thread and
//! N-thread runs are bit-identical. The integer kernels are exact (and
//! therefore also bit-identical to the scalar reference) for any
//! `K ≤ 2^16`.
//!
//! # Blocking
//!
//! `KC = 512`, `MC = 128`, `NC = 1024`, tuned on the 512³ shape against
//! this crate's microkernel (see `BENCH_kernels.json` at the repo
//! root). The f32 path blocks all three dimensions; the integer path
//! keeps the full K per tile (exactness makes partial-K accumulation
//! unnecessary, and fused epilogues require complete `i32` sums).

pub mod lut;
pub mod microkernel;
pub mod pack;
pub mod parallel;
pub mod probe;

use microkernel::{microkernel_f32, microkernel_i8, MR, NR};
use pack::{PackedMatrixF32, PackedMatrixI8};

/// K-slab depth for the f32 driver.
pub const KC: usize = 512;
/// Row-block height packed per A panel set.
pub const MC: usize = 128;
/// Column-block width packed per B slab.
pub const NC: usize = 1024;

/// Row count at or below which the f32 driver takes the packing-free
/// GEMV path (decode-shaped inputs).
const GEMV_MAX_ROWS: usize = 2;

/// Fused dequantization applied to completed `i32` tiles of the integer
/// driver. Float expressions match the two-pass pipelines they replace
/// bit-for-bit; see the module docs.
#[derive(Debug, Clone, Copy)]
pub enum Epilogue<'a> {
    /// `C[i][j] = acc · scale` (per-tensor dequant, overwrite).
    PerTensor {
        /// Combined activation × weight scale.
        scale: f32,
    },
    /// `C[i][j] += acc · scale` (per-tensor dequant, accumulate — the
    /// grouped-quantization reduction).
    PerTensorAcc {
        /// Combined activation × weight scale for this group.
        scale: f32,
    },
    /// `C[i][j] = (acc · a_scale) · w_scales[j]` (per-output-channel
    /// weight scales).
    PerChannel {
        /// Activation scale.
        a_scale: f32,
        /// One weight scale per output column (length `n`).
        w_scales: &'a [f32],
    },
    /// `C[i][j] = (acc · row_scales[i]) · w_scales[j]` (vector-wise
    /// scales, LLM.int8()-style).
    PerRow {
        /// One activation scale per output row (length `m`).
        row_scales: &'a [f32],
        /// One weight scale per output column (length `n`).
        w_scales: &'a [f32],
    },
}

/// `C += A · B` over `f32`, blocked + packed + register-tiled.
///
/// `a` is `m × k`, `b` is `k × n`, `c` is `m × n`, all row-major and
/// dense. `c` is accumulated into (pass zeros for a plain product).
/// `threads` row-partitions the output; any value gives bit-identical
/// results. The requested count is honored exactly (so tests can
/// exercise multi-band execution on any host); callers that want
/// host-aware capping apply [`parallel::effective_threads`] first, as
/// the `gemm::matmul_*_threaded` wrappers do.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], threads: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_f32(m, k, n, a, GemvBF32::RowMajor(b), c, threads);
        return;
    }
    gemm_f32_tiled(m, k, n, a, F32Slabs::PerCall(b), c, threads);
}

/// Where the tiled f32 driver gets its B slabs.
#[derive(Clone, Copy)]
enum F32Slabs<'a> {
    /// Pack each `(p0, j0)` block from the row-major operand per call.
    PerCall(&'a [f32]),
    /// Persistent pre-packed slabs (zero packing per call).
    Prepacked(&'a PackedMatrixF32),
}

/// The shared f32 tile loop: **one** body serves both the per-call and
/// the prepacked driver, so the documented bit-identity between them can
/// never drift — only the slab source differs. B slabs come up once per
/// `(p0, j0)` block on the calling thread and are shared immutably by
/// every row-band worker; only the A panels (which are disjoint per
/// band) are packed inside the workers.
fn gemm_f32_tiled(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    src: F32Slabs<'_>,
    c: &mut [f32],
    threads: usize,
) {
    let mut b_pack: Vec<f32> = Vec::new();
    let mut slab_idx = 0;
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let b_slab: &[f32] = match src {
                F32Slabs::PerCall(b) => {
                    pack::pack_b_f32(b, n, p0, j0, kc, nc, &mut b_pack);
                    &b_pack
                }
                F32Slabs::Prepacked(pm) => pm.slab(slab_idx),
            };
            slab_idx += 1;
            parallel::run_row_partitioned(threads, m, n, c, |row0, rows, band| {
                gemm_f32_band(row0, rows, k, n, a, p0, kc, j0, nc, b_slab, band);
            });
            j0 += nc;
        }
        p0 += kc;
    }
}

/// The f32 tile loop over one contiguous row band, for one packed
/// `(p0, j0)` B slab. `c` is the band's slice of the output (band-relative
/// rows); `row0` locates the band in A.
#[allow(clippy::too_many_arguments)] // BLAS-style driver signature
fn gemm_f32_band(
    row0: usize,
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    b_pack: &[f32],
    c: &mut [f32],
) {
    // A panels live in the worker's persistent scratch arena: packing per
    // call is correct (activations change), allocating per call is not.
    pack::with_a_scratch_f32(|a_pack| {
        let n_panels = nc.div_ceil(NR);
        let mut i0 = 0;
        while i0 < m {
            let mc = MC.min(m - i0);
            pack::pack_a_f32(a, k, row0 + i0, p0, mc, kc, a_pack);
            let m_panels = mc.div_ceil(MR);
            for pi in 0..m_panels {
                let rows = (mc - pi * MR).min(MR);
                let a_panel = &a_pack[pi * kc * MR..(pi + 1) * kc * MR];
                for pj in 0..n_panels {
                    let cols = (nc - pj * NR).min(NR);
                    let b_panel = &b_pack[pj * kc * NR..(pj + 1) * kc * NR];
                    let mut acc = [[0.0f32; NR]; MR];
                    microkernel_f32(kc, a_panel, b_panel, &mut acc);
                    #[allow(clippy::needless_range_loop)] // indexed form vectorizes best here
                    for r in 0..rows {
                        let c0 = (i0 + pi * MR + r) * n + j0 + pj * NR;
                        let c_row = &mut c[c0..c0 + cols];
                        for j in 0..cols {
                            c_row[j] += acc[r][j];
                        }
                    }
                }
            }
            i0 += mc;
        }
    });
}

/// How the f32 GEMV reads its right-hand operand.
#[derive(Clone, Copy)]
enum GemvBF32<'a> {
    /// Dense row-major `k × n` (the per-call, unpacked path).
    RowMajor(&'a [f32]),
    /// A persistent slab sequence: each `NR`-column panel already gives
    /// the K loop unit-stride, SIMD-width column access, so no separate
    /// decode copy is needed for f32.
    Packed(&'a PackedMatrixF32),
}

/// How the integer GEMV reads its right-hand operand.
#[derive(Clone, Copy)]
enum GemvBI8<'a> {
    /// Dense row-major `k × n` (the per-call, unpacked path).
    RowMajor(&'a [i8]),
    /// Dense transposed `n × k` (a [`PackedMatrixI8`]'s decode layout:
    /// each output column's K run is contiguous at 1 byte per element —
    /// half the traffic of the i16-widened panels on a memory-bound
    /// decode).
    Transposed(&'a [i8]),
}

/// Decode fast path (`m ≤ 2`), f32: no per-call packing — B is streamed
/// row-major or read from the persistent slabs — with the output columns
/// N-partitioned across `threads` workers.
///
/// Both layouts accumulate with the same contracted FMA and the same
/// `KC`-slab reset/add structure as the blocked path, so per-element
/// results stay bit-identical to the microkernel's (shape stability) and
/// to each other, for any thread count.
fn gemv_f32(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: GemvBF32<'_>,
    c: &mut [f32],
    threads: usize,
) {
    // NR-aligned bands keep every packed panel inside one worker.
    parallel::run_col_partitioned(threads, m, n, NR, c, |row, col0, cols, band| {
        let a_row = &a[row * k..(row + 1) * k];
        match b {
            GemvBF32::RowMajor(b) => {
                let mut slab = vec![0.0f32; cols];
                let mut p0 = 0;
                while p0 < k {
                    let kc = KC.min(k - p0);
                    slab[..].fill(0.0);
                    for (p, &a_ip) in a_row[p0..p0 + kc].iter().enumerate() {
                        let b_row = &b[(p0 + p) * n + col0..(p0 + p) * n + col0 + cols];
                        for (s, &b_pj) in slab.iter_mut().zip(b_row) {
                            *s = microkernel::fmadd(a_ip, b_pj, *s);
                        }
                    }
                    for (dst, &s) in band.iter_mut().zip(&slab) {
                        *dst += s;
                    }
                    p0 += kc;
                }
            }
            GemvBF32::Packed(pm) => gemv_f32_packed_band(k, n, a_row, pm, col0, cols, band),
        }
    });
}

/// One column band of the prepacked f32 GEMV: walks the persistent slab
/// sequence in driver order and accumulates whole `NR`-wide panels (the
/// accumulator vectorizes across the panel lanes), writing back only the
/// lanes inside `[col0, col0 + cols)`. For each output element the
/// operation sequence — sequential `fmadd` over `p` within a `KC` slab,
/// slab partial added to C, `p0` ascending — is exactly the streaming
/// path's, so the two are bit-identical.
fn gemv_f32_packed_band(
    k: usize,
    n: usize,
    a_row: &[f32],
    pm: &PackedMatrixF32,
    col0: usize,
    cols: usize,
    band: &mut [f32],
) {
    let band_end = col0 + cols;
    let mut slab_idx = 0;
    let mut p0 = 0;
    while p0 < k {
        let kc = KC.min(k - p0);
        let a_slab = &a_row[p0..p0 + kc];
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let slab = pm.slab(slab_idx);
            slab_idx += 1;
            if j0 >= band_end || j0 + nc <= col0 {
                j0 += nc;
                continue;
            }
            let n_panels = nc.div_ceil(NR);
            for pj in 0..n_panels {
                let pcol0 = j0 + pj * NR;
                let pcols = (nc - pj * NR).min(NR);
                if pcol0 >= band_end || pcol0 + pcols <= col0 {
                    continue;
                }
                let panel = &slab[pj * kc * NR..(pj + 1) * kc * NR];
                let mut acc = [0.0f32; NR];
                for (&a_ip, b_row) in a_slab.iter().zip(panel.chunks_exact(NR)) {
                    for (s, &b_pj) in acc.iter_mut().zip(b_row) {
                        *s = microkernel::fmadd(a_ip, b_pj, *s);
                    }
                }
                for (l, &s) in acc.iter().enumerate().take(pcols) {
                    let col = pcol0 + l;
                    if col >= col0 && col < band_end {
                        band[col - col0] += s;
                    }
                }
            }
            j0 += nc;
        }
        p0 += kc;
    }
}

/// `C += A · B` over `f32` with B packed once in a [`PackedMatrixF32`].
///
/// Bit-identical to [`gemm_f32`] on the same operands (see the module
/// docs); performs **zero** B-side packing per call. `m ≤ 2` routes to
/// the N-partitioned panel-walking GEMV.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_f32_prepacked(m: usize, a: &[f32], b: &PackedMatrixF32, c: &mut [f32], threads: usize) {
    let (k, n) = (b.k(), b.n());
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_f32(m, k, n, a, GemvBF32::Packed(b), c, threads);
        return;
    }
    gemm_f32_tiled(m, k, n, a, F32Slabs::Prepacked(b), c, threads);
}

/// [`gemm_f32_prepacked`] that **always** takes the tiled path, even
/// for `m ≤ 2` — the batched-decode entry point. Stacked decode rows
/// exist precisely to stream the weights once per *batch*; the GEMV's
/// row-at-a-time slab walk would stream them once per *row*, wasting
/// the stacking at `m = 2`. Per-row results are bit-identical to the
/// GEMV path (each output element accumulates over K in the same slab
/// order), which the batched-decode driver tests pin.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_f32_prepacked_batched(
    m: usize,
    a: &[f32],
    b: &PackedMatrixF32,
    c: &mut [f32],
    threads: usize,
) {
    let (k, n) = (b.k(), b.n());
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    gemm_f32_tiled(m, k, n, a, F32Slabs::Prepacked(b), c, threads);
}

/// The decode GEMV over a prepacked f32 matrix — walks the persistent
/// panel slabs; usable for any `m`, but built for `m ≤ 2` (larger `m`
/// should prefer the tiled [`gemm_f32_prepacked`], which reuses each B
/// element across rows from cache). Output columns are N-partitioned
/// across `threads`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemv_f32_prepacked(m: usize, a: &[f32], b: &PackedMatrixF32, c: &mut [f32], threads: usize) {
    assert_eq!(a.len(), m * b.k(), "lhs shape mismatch");
    assert_eq!(c.len(), m * b.n(), "output shape mismatch");
    gemv_f32(m, b.k(), b.n(), a, GemvBF32::Packed(b), c, threads);
}

/// `C = A · B` over `i8 → i32`, blocked + packed + register-tiled.
///
/// Bit-exact: identical to the scalar reference for any `K ≤ 2^16`.
/// `threads` row-partitions the output.
///
/// # Panics
///
/// Panics if a slice length disagrees with its dimensions.
pub fn gemm_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8], c: &mut [i32], threads: usize) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_i8(
            m,
            k,
            n,
            a,
            GemvBI8::RowMajor(b),
            c,
            threads,
            |_, _, acc, dst| *dst = acc,
        );
        return;
    }
    gemm_i8_tiled(
        m,
        k,
        n,
        a,
        I8Slabs::PerCall(b),
        c,
        threads,
        |_, _, acc, dst| *dst = acc,
    );
}

/// Where the tiled integer driver gets its i16 B slabs.
#[derive(Clone, Copy)]
enum I8Slabs<'a> {
    /// Pack each `NC`-column block from the row-major operand per call.
    PerCall(&'a [i8]),
    /// Persistent pre-packed slabs (zero packing per call).
    Prepacked(&'a PackedMatrixI8),
}

/// The shared integer tile loop: **one** body serves the plain and fused
/// entry points on both the per-call and the prepacked slab source, so
/// the documented bit-identity between them can never drift. `apply`
/// receives `(global_row, global_col, acc, &mut dst)` for every
/// completed full-K `i32` dot product.
#[allow(clippy::too_many_arguments)] // BLAS-style driver signature
fn gemm_i8_tiled<T: Send>(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    src: I8Slabs<'_>,
    c: &mut [T],
    threads: usize,
    apply: impl Fn(usize, usize, i32, &mut T) + Sync,
) {
    let mut b_pack: Vec<i16> = Vec::new();
    let mut slab_idx = 0;
    let mut j0 = 0;
    while j0 < n {
        let nc = NC.min(n - j0);
        let b_slab: &[i16] = match src {
            I8Slabs::PerCall(b) => {
                pack::pack_b_i8(b, n, 0, j0, k, nc, &mut b_pack);
                &b_pack
            }
            I8Slabs::Prepacked(pm) => pm.slab(slab_idx),
        };
        slab_idx += 1;
        parallel::run_row_partitioned(threads, m, n, c, |row0, rows, band| {
            gemm_i8_band(row0, rows, k, a, j0, nc, b_slab, |i, j, acc| {
                apply(row0 + i, j, acc, &mut band[i * n + j]);
            });
        });
        j0 += nc;
    }
}

/// `C = A · B` over `i8 → i32` with B packed once in a
/// [`PackedMatrixI8`]. Bit-exact against [`gemm_i8`] and the scalar
/// reference; performs **zero** B-side packing per call. `m ≤ 2` routes
/// to the N-partitioned transposed-layout GEMV.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_i8_prepacked(m: usize, a: &[i8], b: &PackedMatrixI8, c: &mut [i32], threads: usize) {
    let (k, n) = (b.k(), b.n());
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_i8(
            m,
            k,
            n,
            a,
            GemvBI8::Transposed(b.bt()),
            c,
            threads,
            |_, _, acc, dst| *dst = acc,
        );
        return;
    }
    gemm_i8_tiled(
        m,
        k,
        n,
        a,
        I8Slabs::Prepacked(b),
        c,
        threads,
        |_, _, acc, dst| *dst = acc,
    );
}

/// The decode GEMV over a prepacked transposed layout, `i8 → i32` —
/// output columns N-partitioned across `threads`.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemv_i8_prepacked(m: usize, a: &[i8], b: &PackedMatrixI8, c: &mut [i32], threads: usize) {
    assert_eq!(a.len(), m * b.k(), "lhs shape mismatch");
    assert_eq!(c.len(), m * b.n(), "output shape mismatch");
    gemv_i8(
        m,
        b.k(),
        b.n(),
        a,
        GemvBI8::Transposed(b.bt()),
        c,
        threads,
        |_, _, acc, dst| *dst = acc,
    );
}

/// `C = dequant(A · B)` over `i8` with a fused [`Epilogue`], blocked +
/// packed + register-tiled. The `i32` accumulation is exact; the fused
/// float expression matches the equivalent two-pass pipeline exactly.
///
/// # Panics
///
/// Panics if a slice length (including epilogue scale vectors) disagrees
/// with its dimensions.
#[allow(clippy::too_many_arguments)] // BLAS-style driver signature
pub fn gemm_i8_fused(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: &[i8],
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(b.len(), k * n, "rhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    check_epilogue_scales(&epilogue, m, n);
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_i8(
            m,
            k,
            n,
            a,
            GemvBI8::RowMajor(b),
            c,
            threads,
            |row, col, acc, dst| {
                apply_epilogue(epilogue, dst, row, col, acc);
            },
        );
        return;
    }
    gemm_i8_tiled(
        m,
        k,
        n,
        a,
        I8Slabs::PerCall(b),
        c,
        threads,
        |row, col, acc, dst| {
            apply_epilogue(epilogue, dst, row, col, acc);
        },
    );
}

/// `C = dequant(A · B)` over `i8` with a fused [`Epilogue`] and B packed
/// once in a [`PackedMatrixI8`]. The `i32` accumulation is exact and the
/// epilogue is applied once per element, so outputs are bit-identical to
/// [`gemm_i8_fused`] for any thread count; performs **zero** B-side
/// packing per call.
///
/// # Panics
///
/// Panics if a slice length (including epilogue scale vectors) disagrees
/// with the packed dimensions.
pub fn gemm_i8_fused_prepacked(
    m: usize,
    a: &[i8],
    b: &PackedMatrixI8,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    threads: usize,
) {
    let (k, n) = (b.k(), b.n());
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    check_epilogue_scales(&epilogue, m, n);
    if m == 0 || n == 0 {
        return;
    }
    if m <= GEMV_MAX_ROWS {
        gemv_i8(
            m,
            k,
            n,
            a,
            GemvBI8::Transposed(b.bt()),
            c,
            threads,
            |row, col, acc, dst| {
                apply_epilogue(epilogue, dst, row, col, acc);
            },
        );
        return;
    }
    gemm_i8_tiled(
        m,
        k,
        n,
        a,
        I8Slabs::Prepacked(b),
        c,
        threads,
        |row, col, acc, dst| {
            apply_epilogue(epilogue, dst, row, col, acc);
        },
    );
}

/// The decode GEMV over a prepacked transposed layout with a fused
/// [`Epilogue`] — output columns N-partitioned across `threads`.
///
/// # Panics
///
/// Panics if a slice length (including epilogue scale vectors) disagrees
/// with the packed dimensions.
pub fn gemv_i8_fused_prepacked(
    m: usize,
    a: &[i8],
    b: &PackedMatrixI8,
    c: &mut [f32],
    epilogue: Epilogue<'_>,
    threads: usize,
) {
    assert_eq!(a.len(), m * b.k(), "lhs shape mismatch");
    assert_eq!(c.len(), m * b.n(), "output shape mismatch");
    check_epilogue_scales(&epilogue, m, b.n());
    gemv_i8(
        m,
        b.k(),
        b.n(),
        a,
        GemvBI8::Transposed(b.bt()),
        c,
        threads,
        |row, col, acc, dst| apply_epilogue(epilogue, dst, row, col, acc),
    );
}

/// Asserts that an epilogue's scale vectors match the output dimensions.
fn check_epilogue_scales(epilogue: &Epilogue<'_>, m: usize, n: usize) {
    match epilogue {
        Epilogue::PerChannel { w_scales, .. } => {
            assert_eq!(w_scales.len(), n, "weight scale count mismatch");
        }
        Epilogue::PerRow {
            row_scales,
            w_scales,
        } => {
            assert_eq!(row_scales.len(), m, "row scale count mismatch");
            assert_eq!(w_scales.len(), n, "weight scale count mismatch");
        }
        Epilogue::PerTensor { .. } | Epilogue::PerTensorAcc { .. } => {}
    }
}

/// Applies a fused [`Epilogue`] to one completed `i32` dot product.
/// `row`/`col` are global output coordinates (the per-row scale indexes
/// by absolute row).
#[inline(always)]
fn apply_epilogue(epilogue: Epilogue<'_>, dst: &mut f32, row: usize, col: usize, acc: i32) {
    match epilogue {
        Epilogue::PerTensor { scale } => *dst = acc as f32 * scale,
        Epilogue::PerTensorAcc { scale } => *dst += acc as f32 * scale,
        Epilogue::PerChannel { a_scale, w_scales } => {
            *dst = acc as f32 * a_scale * w_scales[col];
        }
        Epilogue::PerRow {
            row_scales,
            w_scales,
        } => {
            *dst = acc as f32 * row_scales[row] * w_scales[col];
        }
    }
}

/// Decode-shaped integer fast path (`m ≤ 2`): panel-packing B (`k × n`
/// widened to `i16`) would dwarf the single row's arithmetic, so B is
/// streamed row-major or read from a prepacked transposed layout.
/// Integer accumulation is exact and order-independent (the streaming
/// arm's zero-skip and the transposed arm's lane-partitioned sums are
/// both bit-invisible), so both layouts stay bit-identical to the tiled
/// path for any thread count. Output columns are N-partitioned across
/// `threads`; `apply` receives `(row, col, acc, &mut dst)` for each
/// completed dot product.
#[allow(clippy::too_many_arguments)] // BLAS-style driver signature
fn gemv_i8<T: Send>(
    m: usize,
    k: usize,
    n: usize,
    a: &[i8],
    b: GemvBI8<'_>,
    c: &mut [T],
    threads: usize,
    apply: impl Fn(usize, usize, i32, &mut T) + Sync,
) {
    parallel::run_col_partitioned(threads, m, n, 1, c, |row, col0, cols, band| {
        let a_row = &a[row * k..(row + 1) * k];
        match b {
            GemvBI8::RowMajor(b) => {
                let mut acc = vec![0i32; cols];
                for (p, &a_ip) in a_row.iter().enumerate() {
                    if a_ip == 0 {
                        continue;
                    }
                    let a_ip = i32::from(a_ip);
                    let b_row = &b[p * n + col0..p * n + col0 + cols];
                    for (s, &b_pj) in acc.iter_mut().zip(b_row) {
                        *s += a_ip * i32::from(b_pj);
                    }
                }
                for (jj, (dst, &v)) in band.iter_mut().zip(&acc).enumerate() {
                    apply(row, col0 + jj, v, dst);
                }
            }
            GemvBI8::Transposed(bt) => {
                // No zero-skip here: a branch in the dot product defeats
                // auto-vectorization, and skipping an exactly-zero term
                // is bit-invisible for integers anyway. Lane-partitioned
                // partial sums let the compiler keep SIMD accumulators;
                // integer addition is associative, so the result is
                // identical to the sequential sum.
                const LANES: usize = 16;
                for (jj, dst) in band.iter_mut().enumerate() {
                    let col = &bt[(col0 + jj) * k..(col0 + jj + 1) * k];
                    let mut lanes = [0i32; LANES];
                    let mut a_chunks = a_row.chunks_exact(LANES);
                    let mut b_chunks = col.chunks_exact(LANES);
                    for (ac, bc) in (&mut a_chunks).zip(&mut b_chunks) {
                        for (s, (&a_ip, &b_pj)) in lanes.iter_mut().zip(ac.iter().zip(bc)) {
                            *s += i32::from(a_ip) * i32::from(b_pj);
                        }
                    }
                    let mut s: i32 = lanes.iter().sum();
                    for (&a_ip, &b_pj) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
                        s += i32::from(a_ip) * i32::from(b_pj);
                    }
                    apply(row, col0 + jj, s, dst);
                }
            }
        }
    });
}

/// Integer tile loop over one contiguous row band, for one packed `j0`
/// B slab (full K — see module docs on why the integer path never blocks
/// K). Hands every completed `i32` dot product to `emit(band_row,
/// global_col, acc)`; the full-K accumulation is the invariant that makes
/// fused dequantization sound.
#[allow(clippy::too_many_arguments)] // BLAS-style driver signature
fn gemm_i8_band(
    row0: usize,
    m: usize,
    k: usize,
    a: &[i8],
    j0: usize,
    nc: usize,
    b_pack: &[i16],
    mut emit: impl FnMut(usize, usize, i32),
) {
    // A panels live in the worker's persistent scratch arena (see the
    // f32 band driver above).
    pack::with_a_scratch_i16(|a_pack| {
        let n_panels = nc.div_ceil(NR);
        let mut i0 = 0;
        while i0 < m {
            let mc = MC.min(m - i0);
            pack::pack_a_i8(a, k, row0 + i0, 0, mc, k, a_pack);
            let m_panels = mc.div_ceil(MR);
            for pi in 0..m_panels {
                let rows = (mc - pi * MR).min(MR);
                let a_panel = &a_pack[pi * k * MR..(pi + 1) * k * MR];
                for pj in 0..n_panels {
                    let cols = (nc - pj * NR).min(NR);
                    let b_panel = &b_pack[pj * k * NR..(pj + 1) * k * NR];
                    let mut acc = [[0i32; NR]; MR];
                    microkernel_i8(k, a_panel, b_panel, &mut acc);
                    for (r, acc_row) in acc.iter().take(rows).enumerate() {
                        let row = i0 + pi * MR + r;
                        for (j, &v) in acc_row.iter().take(cols).enumerate() {
                            emit(row, j0 + pj * NR + j, v);
                        }
                    }
                }
            }
            i0 += mc;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_f32(len: usize, mul: usize, add: usize, modu: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul + add) % modu) as f32 / modu as f32 - 0.5)
            .collect()
    }

    fn ramp_i8(len: usize, mul: usize, add: usize) -> Vec<i8> {
        (0..len)
            .map(|i| (((i * mul + add) % 255) as i32 - 127) as i8)
            .collect()
    }

    fn scalar_f32(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = a[i * k + p];
                for j in 0..n {
                    c[i * n + j] += a_ip * b[p * n + j];
                }
            }
        }
        c
    }

    fn scalar_i8(m: usize, k: usize, n: usize, a: &[i8], b: &[i8]) -> Vec<i32> {
        let mut c = vec![0i32; m * n];
        for i in 0..m {
            for p in 0..k {
                let a_ip = i32::from(a[i * k + p]);
                for j in 0..n {
                    c[i * n + j] += a_ip * i32::from(b[p * n + j]);
                }
            }
        }
        c
    }

    #[test]
    fn f32_blocked_tracks_scalar_on_awkward_shapes() {
        for (m, k, n) in [(1, 5, 9), (3, 17, 33), (9, 130, 31), (20, 513, 18)] {
            let a = ramp_f32(m * k, 37, 11, 127);
            let b = ramp_f32(k * n, 29, 7, 113);
            let want = scalar_f32(m, k, n, &a, &b);
            let mut c = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut c, 1);
            for (x, y) in c.iter().zip(&want) {
                assert!((x - y).abs() < 1e-3 * k as f32, "({m},{k},{n}): {x} vs {y}");
            }
        }
    }

    #[test]
    fn f32_thread_count_is_bit_invisible() {
        let (m, k, n) = (23, 70, 19);
        let a = ramp_f32(m * k, 37, 11, 127);
        let b = ramp_f32(k * n, 29, 7, 113);
        let mut c1 = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut c1, 1);
        for threads in [2, 3, 4, 8] {
            let mut ct = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut ct, threads);
            assert_eq!(c1, ct, "threads = {threads}");
        }
    }

    #[test]
    fn f32_row_values_are_shape_stable() {
        // C[i][j] must not depend on m: a row computed inside a tall
        // matmul equals the same row computed as a 1-row (GEMV) matmul.
        let (m, k, n) = (11, 600, 21);
        let a = ramp_f32(m * k, 37, 11, 127);
        let b = ramp_f32(k * n, 29, 7, 113);
        let mut full = vec![0.0f32; m * n];
        gemm_f32(m, k, n, &a, &b, &mut full, 1);
        for i in [0usize, 5, 10] {
            let mut row = vec![0.0f32; n];
            gemm_f32(1, k, n, &a[i * k..(i + 1) * k], &b, &mut row, 1);
            assert_eq!(&full[i * n..(i + 1) * n], &row[..], "row {i}");
        }
    }

    #[test]
    fn f32_accumulates_into_c() {
        let a = vec![1.0f32; 6];
        let b = vec![2.0f32; 6];
        let mut c = vec![10.0f32; 4];
        gemm_f32(2, 3, 2, &a, &b, &mut c, 1);
        assert!(c.iter().all(|&x| (x - 16.0).abs() < 1e-6));
    }

    #[test]
    fn i8_blocked_is_bit_exact() {
        for (m, k, n) in [(1, 3, 2), (7, 40, 5), (13, 129, 17), (33, 64, 70)] {
            let a = ramp_i8(m * k, 37, 11);
            let b = ramp_i8(k * n, 29, 7);
            let want = scalar_i8(m, k, n, &a, &b);
            for threads in [1, 4] {
                let mut c = vec![0i32; m * n];
                gemm_i8(m, k, n, &a, &b, &mut c, threads);
                assert_eq!(c, want, "({m},{k},{n}) x{threads}");
            }
        }
    }

    #[test]
    fn empty_dims_are_noops() {
        let mut c: Vec<f32> = Vec::new();
        gemm_f32(0, 4, 0, &[], &[], &mut c, 4);
        let mut c = vec![0.0f32; 6];
        gemm_f32(2, 0, 3, &[], &[], &mut c, 1);
        assert!(c.iter().all(|&x| x == 0.0));
        let mut ci = vec![0i32; 6];
        gemm_i8(2, 0, 3, &[], &[], &mut ci, 1);
        assert!(ci.iter().all(|&x| x == 0));
    }

    #[test]
    fn prepacked_drivers_bit_match_per_call_packing() {
        // Ragged shapes straddling MR/NR/KC edges, plus decode rows.
        for (m, k, n) in [
            (1, 5, 9),
            (2, 600, 21),
            (3, 17, 33),
            (9, 130, 31),
            (20, 513, 18),
        ] {
            let a = ramp_f32(m * k, 37, 11, 127);
            let b = ramp_f32(k * n, 29, 7, 113);
            let bp = PackedMatrixF32::pack(&b, k, n);
            for threads in [1, 4] {
                let mut per_call = vec![0.0f32; m * n];
                gemm_f32(m, k, n, &a, &b, &mut per_call, threads);
                let mut prepacked = vec![0.0f32; m * n];
                gemm_f32_prepacked(m, &a, &bp, &mut prepacked, threads);
                assert_eq!(per_call, prepacked, "f32 ({m},{k},{n}) x{threads}");
            }

            let ai = ramp_i8(m * k, 37, 11);
            let bi = ramp_i8(k * n, 29, 7);
            let bip = PackedMatrixI8::pack(&bi, k, n);
            let want = scalar_i8(m, k, n, &ai, &bi);
            for threads in [1, 4] {
                let mut ci = vec![0i32; m * n];
                gemm_i8_prepacked(m, &ai, &bip, &mut ci, threads);
                assert_eq!(ci, want, "i8 ({m},{k},{n}) x{threads}");
            }
        }
    }

    #[test]
    fn threaded_gemv_bit_matches_single_thread() {
        // Decode shapes: the N-partitioned GEMV must be bit-identical
        // across thread counts, in all four flavours (f32/i8 ×
        // unpacked/prepacked).
        for (m, k, n) in [(1, 700, 37), (2, 129, 95)] {
            let a = ramp_f32(m * k, 37, 11, 127);
            let b = ramp_f32(k * n, 29, 7, 113);
            let bp = PackedMatrixF32::pack(&b, k, n);
            let mut single = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut single, 1);
            let mut single_pre = vec![0.0f32; m * n];
            gemv_f32_prepacked(m, &a, &bp, &mut single_pre, 1);
            assert_eq!(single, single_pre, "prepacked vs streaming ({m},{k},{n})");
            for threads in [2, 3, 8] {
                let mut multi = vec![0.0f32; m * n];
                gemm_f32(m, k, n, &a, &b, &mut multi, threads);
                assert_eq!(single, multi, "f32 unpacked x{threads}");
                let mut multi_pre = vec![0.0f32; m * n];
                gemv_f32_prepacked(m, &a, &bp, &mut multi_pre, threads);
                assert_eq!(single, multi_pre, "f32 prepacked x{threads}");
            }

            let ai = ramp_i8(m * k, 37, 11);
            let bi = ramp_i8(k * n, 29, 7);
            let bip = PackedMatrixI8::pack(&bi, k, n);
            let want = scalar_i8(m, k, n, &ai, &bi);
            let w_scales: Vec<f32> = (0..n).map(|j| 0.01 + j as f32 * 0.003).collect();
            let epi = Epilogue::PerChannel {
                a_scale: 0.12,
                w_scales: &w_scales,
            };
            let mut fused_single = vec![0.0f32; m * n];
            gemv_i8_fused_prepacked(m, &ai, &bip, &mut fused_single, epi, 1);
            for threads in [1, 2, 8] {
                let mut ci = vec![0i32; m * n];
                gemm_i8(m, k, n, &ai, &bi, &mut ci, threads);
                assert_eq!(ci, want, "i8 unpacked x{threads}");
                let mut cip = vec![0i32; m * n];
                gemv_i8_prepacked(m, &ai, &bip, &mut cip, threads);
                assert_eq!(cip, want, "i8 prepacked x{threads}");
                let mut fused = vec![0.0f32; m * n];
                gemv_i8_fused_prepacked(m, &ai, &bip, &mut fused, epi, threads);
                assert_eq!(fused, fused_single, "i8 fused prepacked x{threads}");
                let mut fused_unpacked = vec![0.0f32; m * n];
                gemm_i8_fused(m, k, n, &ai, &bi, &mut fused_unpacked, epi, threads);
                assert_eq!(fused_unpacked, fused_single, "i8 fused unpacked x{threads}");
            }
        }
    }

    #[test]
    fn prepacked_empty_dims_are_noops() {
        let bp = PackedMatrixF32::pack(&[], 4, 0);
        let mut c: Vec<f32> = Vec::new();
        gemm_f32_prepacked(3, &[0.0; 12], &bp, &mut c, 2);
        let bp0 = PackedMatrixF32::pack(&[], 0, 3);
        let mut c0 = vec![1.0f32; 6];
        gemm_f32_prepacked(2, &[], &bp0, &mut c0, 1);
        assert!(c0.iter().all(|&x| x == 1.0), "k = 0 accumulates nothing");
        let bip = PackedMatrixI8::pack(&[], 0, 3);
        let mut ci = vec![7i32; 6];
        gemm_i8_prepacked(2, &[], &bip, &mut ci, 1);
        assert!(ci.iter().all(|&x| x == 0), "k = 0 still overwrites");
    }

    #[test]
    fn fused_epilogues_match_two_pass() {
        let (m, k, n) = (9, 37, 12);
        let a = ramp_i8(m * k, 37, 11);
        let b = ramp_i8(k * n, 29, 7);
        let mut acc = vec![0i32; m * n];
        gemm_i8(m, k, n, &a, &b, &mut acc, 1);

        // Per-tensor overwrite.
        let scale = 0.031f32;
        let mut fused = vec![7.0f32; m * n];
        gemm_i8_fused(
            m,
            k,
            n,
            &a,
            &b,
            &mut fused,
            Epilogue::PerTensor { scale },
            2,
        );
        let two_pass: Vec<f32> = acc.iter().map(|&x| x as f32 * scale).collect();
        assert_eq!(fused, two_pass);

        // Per-tensor accumulate.
        let mut fused_acc = vec![1.5f32; m * n];
        gemm_i8_fused(
            m,
            k,
            n,
            &a,
            &b,
            &mut fused_acc,
            Epilogue::PerTensorAcc { scale },
            1,
        );
        let two_pass_acc: Vec<f32> = acc.iter().map(|&x| 1.5 + x as f32 * scale).collect();
        assert_eq!(fused_acc, two_pass_acc);

        // Per-channel.
        let w_scales: Vec<f32> = (0..n).map(|j| 0.01 + j as f32 * 0.003).collect();
        let a_scale = 0.12f32;
        let mut fused_ch = vec![0.0f32; m * n];
        gemm_i8_fused(
            m,
            k,
            n,
            &a,
            &b,
            &mut fused_ch,
            Epilogue::PerChannel {
                a_scale,
                w_scales: &w_scales,
            },
            3,
        );
        for i in 0..m {
            for j in 0..n {
                let want = acc[i * n + j] as f32 * a_scale * w_scales[j];
                assert_eq!(fused_ch[i * n + j], want);
            }
        }

        // Per-row (vector-wise).
        let row_scales: Vec<f32> = (0..m).map(|i| 0.05 + i as f32 * 0.01).collect();
        let mut fused_row = vec![0.0f32; m * n];
        gemm_i8_fused(
            m,
            k,
            n,
            &a,
            &b,
            &mut fused_row,
            Epilogue::PerRow {
                row_scales: &row_scales,
                w_scales: &w_scales,
            },
            2,
        );
        for i in 0..m {
            for j in 0..n {
                let want = acc[i * n + j] as f32 * row_scales[i] * w_scales[j];
                assert_eq!(fused_row[i * n + j], want);
            }
        }
    }
}
