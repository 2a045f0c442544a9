//! The blocked, packed, multi-threaded GEMM kernel subsystem.
//!
//! This module is the performance engine behind [`crate::gemm`]: every
//! public matmul in the crate is a thin wrapper over the drivers here.
//! The design is the classic three-level GotoBLAS decomposition, in
//! safe Rust with exactly one `unsafe` block — the runtime dispatch to
//! the AVX-512 VNNI integer tile ([`microkernel`] module docs):
//!
//! 1. **Cache blocking** ([`blocking constants`](self#blocking)): the
//!    K dimension is split into `KC`-deep slabs and the output into
//!    `MC × NC` blocks, sized so one packed B slab lives in L2 and one
//!    packed A block in L1 while they are reused.
//! 2. **Packing** ([`pack`]): operand blocks are copied once into
//!    panel-ordered buffers that the inner loop reads with unit stride;
//!    integer activations stay `i8`, four K steps per row adjacent,
//!    integer weights are stored as offset `u8` (one byte each).
//! 3. **Register tiling** ([`microkernel`]): an `MR × NR` tile of C is
//!    held in SIMD registers across the whole K loop (with hardware FMA
//!    when the build target has it; with `vpdpbusd` for the integer tile
//!    when the running CPU has it).
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
//! Weights are multiplied thousands of times against changing
//! activations, so every driver but one ([`gemm_f32_prepacked`],
//! [`gemm_f32_prepacked_batched`], [`gemm_i8_prepacked`],
//! [`gemm_i8_fused_prepacked`], and the [`lut`] pair) consumes a
//! [`pack::PackedMatrixF32`] / [`pack::PackedMatrixI8`] /
//! [`lut::PackedLut`] built once at weight load/quantization time — the
//! LM head included, which the model holds only packed. The exception
//! is [`gemm_f32`], which packs a row-major B per call: the
//! `forward_float` yardsticks multiply by a matrix dequantized on the
//! spot, a genuinely *dynamic* right-hand side, and a per-call pack is
//! the right cost for a one-shot product. The integer path has no such
//! caller (every quantized layer packs at construction), so it has no
//! per-call driver: one fewer path to keep bit-identical.
//!
//! * **Ownership**: the f32 `PackedMatrix` owns the panel-ordered slab
//!   sequence keyed by the `KC`/`NC` blocking of its tile loop; the i8
//!   one owns full-K `NR`-column panels of `b + 128` as `u8` — one byte
//!   per weight, one copy for prefill and decode. The packed matrix
//!   *is* the payload: a layer holds it plus its scales and nothing
//!   row-major, and hands out `&` borrows per call. What a layer reads
//!   *back* — the weight rows of the shadow-outlier channels, the
//!   matrix the `forward_float` yardsticks dequantize — comes through
//!   [`pack::PackedMatrixI8::copy_row`], the i8 twin of
//!   [`lut::PackedLut::code_at`], so the panel bytes stay known to
//!   [`pack`] alone.
//! * **When packing happens**: exactly once, inside
//!   `PackedMatrix::pack`. The prepacked drivers perform **zero** B-side
//!   packing per call ([`pack::pack_b_calls`] observes this); only the
//!   small per-call A (activation) panels are still packed inside the
//!   `m > 2` tile loop — into a persistent per-worker scratch arena
//!   ([`pack::with_a_scratch_f32`]), so a warm steady state performs
//!   zero A-panel allocations per call ([`pack::a_scratch_grows`]
//!   observes this).
//! * **Column bands**: every driver splits its output into `threads`
//!   bands of whole `NR`-column panels, with one dispatch per call
//!   ([`parallel::run_col_partitioned_rows`]); each band streams only
//!   its own panels of B, every row against each. Two bands run one
//!   after the other on one thread (a busy pool) therefore stream every
//!   weight once — a row band would stream them all twice — and a
//!   decode-shaped call still splits across every worker.
//! * **Decode layout**: for `m ≤ 2` (decode-shaped inputs) the drivers
//!   switch to a GEMV over the same column bands
//!   ([`parallel::run_col_partitioned`]). Both GEMVs read the persistent panels in place (each `NR`-column panel
//!   already gives the K loop unit-stride, SIMD-width column access):
//!   the f32 one walks the slab sequence, the i8 one is
//!   `microkernel::lut_dot` at `BITS = 8` over a whole panel, both
//!   rows of an `m = 2` call finished against a panel while it is hot.
//!   Decode streams one byte per weight, and integer exactness lets the
//!   dot products reassociate freely for vectorization.
//!
//! # The offset operand
//!
//! The i8 weights are stored as `b + 128`, so both integer kernels
//! multiply a signed activation by an unsigned byte — the operand shape
//! of `vpdpbusd` (`u8 × i8`, [`microkernel::microkernel_int`]) and, in
//! the portable bodies, of the paired widening multiply-accumulate — and
//! the drivers subtract `128 · Σₖ a[i, k]` from every output of row `i`
//! (the row sum is taken once, where the A panel is packed). This is the
//! `bias · Σ aq` identity the [`lut`] epilogue uses with `bias = 8` and
//! `2`: i8 is the `BITS = 8`, one-group case of the same algebra. The
//! i8 GEMV and the LUT GEMV share one inner kernel (`lut_dot`); the i8
//! tile loop and the LUT's fused tile are two jobs of one integer tile
//! with one runtime dispatch.
//!
//! The f32 prepacked and per-call drivers are **bit-identical**: one
//! tile loop and one GEMV serve both B sources, the slab bytes are equal
//! by construction, and the GEMV keeps the per-element operation
//! sequence of the tile loop (same `KC`-slab reset/add structure, same
//! `fmadd` contraction rule as the microkernel), so `C[i][j]` matches
//! bit-for-bit. The two integer drivers are one body with two
//! per-row-segment `apply` closures, so the fused output is exactly the
//! epilogue of the raw `i32` output.
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
//! place and the fused tile splitting each group's planes in registers,
//! over
//! the row-cohort column partitioner
//! [`parallel::run_col_partitioned_rows`] in whole panels.
//!
//! # Attention
//!
//! [`attention`] is the one kernel here that is not a GEMM: causal
//! multi-head attention over paged K/V, the float operator the paper
//! leaves on the CPU lane (§3.2). Per KV head, the `group` query heads
//! that share it stack into `m = group × seq` rows (row `i` is head
//! `i % group` of position `i / group`, so causal limits ascend). Every
//! output is fixed by three reduction orders, whichever way the kernel
//! lays its work out:
//!
//! 1. **Scores.** A score is `(0 + Σ_k q[k]·key[k]) · scale`: one
//!    ascending-`k` `fmadd` chain from zero (the microkernel's
//!    contraction rule). The causal mask makes a position past a row's
//!    limit `−∞` or leaves it out; it is never read.
//! 2. **Softmax.** The row maximum ignores NaN, so a NaN score survives
//!    to poison its own row; the branch-free [`crate::ops::exp_nonpos`]
//!    gives exactly `0` for a masked entry. The sum keeps one partial per
//!    position mod [`attention::KEY_TILE`] (`= NR`, a constant of the
//!    kernel, never the page size), each in ascending position order, and
//!    folds them with one fixed tree. Normalisation is deferred to the
//!    `head_dim` outputs.
//! 3. **PV.** Each output is one ascending-position `fmadd` chain from
//!    zero over the positions its row may see. No masked position is
//!    multiplied, so a `0 × ∞` cannot arise from a row that is not
//!    visible.
//!
//! The kernel evaluates these in one of two orientations, picked by
//! nothing but the rows per KV head, and transposes no key or value row
//! in either:
//!
//! - **Query rows in the lanes** (more than three rows per KV head: a
//!   prefill chunk). A block of up to 32 rows is transposed once into
//!   lane vectors, one row per SIMD lane. A score step broadcasts one key
//!   element from its page row into the lane vectors of queries (both
//!   lane groups of a block share it), eight keys' chains side by side.
//!   The mask is a lane predicate: a lane's scores past its limit become
//!   `−∞`. The `PV` pass broadcasts each value element into the lane
//!   vector of probabilities, sixteen dimensions' chains side by side,
//!   a block of positions at a time right after that block's softmax
//!   numerators. It covers the positions every lane sees; each lane then
//!   finishes its own tail with the dimensions in the lanes, so masked
//!   positions stay out of every chain.
//! - **Keys' chains interleaved** (at most three rows per KV head: a
//!   decode step). Each dot product is still one scalar chain, but eight
//!   keys' chains run side by side. The scores are stored position-major
//!   across the call's heads, so the softmax runs with the heads in the
//!   lanes, and `PV` keeps the dimensions in the lanes with eight heads'
//!   chains side by side.
//!
//! The two orientations perform the same operations on the same operands
//! in the same order for every output, so they are bit-identical by
//! construction; only their speed differs. Every output row therefore
//! depends on its own query row, the positions it may see, and
//! `head_dim` — not on the page size, the other rows of the block, `seq`,
//! or how much cache lies beyond its limit. That one property is what
//! the serving identities reduce to: any paging of the same rows, chunked
//! ≡ whole prefill, row `r` of a block ≡ the one-row call at
//! `start_pos + r`, batched decode row ≡ solo row
//! (`tests/prop_attention.rs` pins them, non-finite data past a row's
//! limit included, and pins the output bits of a fixed matrix of shapes
//! on fused builds). The floats differ from the scalar
//! [`attention::attention_reference`] by rounding only.
//!
//! # Determinism
//!
//! For a fixed build, every driver is deterministic and
//! *shape-stable*: the value of `C[i][j]` depends only on row `i` of A,
//! column `j` of B, and K — not on the other dimensions, the blocking,
//! or the thread count. Threading partitions output columns in whole
//! panels ([`parallel`]), which never changes the K-summation order of
//! any element, so 1-thread and N-thread runs are bit-identical — and so
//! is any placement of the bands on threads. The integer kernels are exact (and
//! therefore also bit-identical to the scalar reference, whichever tile
//! body the CPU runs) for any `K ≤ 2^16`: the largest partial sum the
//! offset operand can produce is `128 · 255 · K`, which stays below
//! `2^31` up to exactly that depth, so no intermediate wraps (the debug
//! profile's overflow checks hold this on the portable body in
//! `tests/prop_gemm_i8.rs`; `vpdpbusd` does not saturate).
//!
//! # Blocking
//!
//! `KC = 512`, `MC = 128`, `NC = 1024`, tuned on the 512³ shape against
//! this crate's microkernel (see `BENCH_kernels.json` at the repo
//! root). The f32 path blocks all three dimensions; the integer path
//! keeps the full K per tile (exactness makes partial-K accumulation
//! unnecessary, and fused epilogues require complete `i32` sums).

pub mod attention;
pub mod lut;
pub mod microkernel;
pub mod pack;
pub mod parallel;
pub mod probe;

use microkernel::{microkernel_f32, microkernel_int, MR, NR};
use pack::{PackedMatrixF32, PackedMatrixI8};

/// K-slab depth for the f32 driver.
pub const KC: usize = 512;
/// Row-block height packed per A panel set.
pub const MC: usize = 128;
/// Column-block width packed per B slab.
pub const NC: usize = 1024;

/// Row count at or below which staging a tile costs more than dotting
/// the rows in place (decode-shaped inputs): the GEMM drivers take the
/// packing-free GEMV path.
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
/// `threads` column-partitions the output; any value gives bit-identical
/// results. The requested count is honored exactly (so tests can
/// exercise multi-band execution on any host); callers that want
/// host-aware capping apply [`parallel::effective_threads`] first, as
/// the `gemm::matmul_*` wrappers do.
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
        gemv_f32(m, k, n, a, F32Rhs::RowMajor(b), c, threads);
        return;
    }
    gemm_f32_tiled(m, k, n, a, &PackedMatrixF32::pack(b, k, n), c, threads);
}

/// Where the f32 GEMV reads B from.
#[derive(Clone, Copy)]
enum F32Rhs<'a> {
    /// Dense row-major `k × n`, streamed unpacked.
    RowMajor(&'a [f32]),
    /// Persistent pre-packed slabs (zero packing per call); the GEMV walks
    /// them in place — each `NR`-column panel already gives the K loop
    /// unit-stride, SIMD-width column access, so f32 needs no separate
    /// decode copy.
    Packed(&'a PackedMatrixF32),
}

/// The f32 tile loop, against packed slabs: a row-major B (the per-call
/// driver) is packed into the same slab sequence first, so **one** body
/// serves both drivers and the documented bit-identity between them can
/// never drift. The output is split into `NR`-aligned column bands with
/// one dispatch per call; each band walks the whole slab sequence for
/// its own panels, so a band run inline after another (a busy pool)
/// streams no weight twice.
fn gemm_f32_tiled(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &PackedMatrixF32,
    c: &mut [f32],
    threads: usize,
) {
    parallel::run_col_partitioned_rows(threads, m, n, NR, c, |col0, cols, rows| {
        gemm_f32_band(k, n, a, b, col0, cols, rows);
    });
}

/// The f32 tile loop over one `NR`-aligned column band
/// `[col0, col0 + cols)`: `rows[i]` is output row `i`'s slice of the
/// band. For every element the slab partials are added in ascending
/// `p0`, exactly as a single band over the whole output adds them, so
/// the band layout never changes a bit.
fn gemm_f32_band(
    k: usize,
    n: usize,
    a: &[f32],
    b: &PackedMatrixF32,
    col0: usize,
    cols: usize,
    rows: &mut [(usize, &mut [f32])],
) {
    let m = rows.len();
    let band_end = col0 + cols;
    debug_assert!(col0.is_multiple_of(NR) && (band_end == n || band_end.is_multiple_of(NR)));
    let col_blocks = n.div_ceil(NC);
    // A panels live in the worker's persistent scratch arena: packing per
    // call is correct (activations change), allocating per call is not.
    pack::with_a_scratch_f32(|a_pack| {
        for (kb, p0) in (0..k).step_by(KC).enumerate() {
            let kc = KC.min(k - p0);
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                pack::pack_a_f32(a, k, i0, p0, mc, kc, a_pack);
                for blk in col0 / NC..band_end.div_ceil(NC) {
                    let j0 = blk * NC;
                    let nc = NC.min(n - j0);
                    let slab = b.slab(kb * col_blocks + blk);
                    let first = (col0.max(j0) - j0) / NR;
                    let last = (band_end.min(j0 + nc) - j0).div_ceil(NR);
                    for pj in first..last {
                        let panel_cols = (nc - pj * NR).min(NR);
                        let b_panel = &slab[pj * kc * NR..(pj + 1) * kc * NR];
                        let at = j0 + pj * NR - col0;
                        for (pi, a_panel) in a_pack.chunks_exact(kc * MR).enumerate() {
                            let mut acc = [[0.0f32; NR]; MR];
                            microkernel_f32(kc, a_panel, b_panel, &mut acc);
                            let r0 = i0 + pi * MR;
                            for ((_, c_row), acc_row) in
                                rows[r0..(r0 + MR).min(i0 + mc)].iter_mut().zip(&acc)
                            {
                                for (dst, &s) in c_row[at..at + panel_cols].iter_mut().zip(acc_row)
                                {
                                    *dst += s;
                                }
                            }
                        }
                    }
                }
            }
        }
    });
}

/// Decode fast path (`m ≤ 2`), f32: no per-call packing — B is streamed
/// row-major or read from the persistent slabs — with the output columns
/// N-partitioned across `threads` workers.
///
/// Both layouts accumulate with the same contracted FMA and the same
/// `KC`-slab reset/add structure as the blocked path, so per-element
/// results stay bit-identical to the microkernel's (shape stability) and
/// to each other, for any thread count.
fn gemv_f32(m: usize, k: usize, n: usize, a: &[f32], b: F32Rhs<'_>, c: &mut [f32], threads: usize) {
    // NR-aligned bands keep every packed panel inside one worker.
    parallel::run_col_partitioned(threads, m, n, NR, c, |row, col0, cols, band| {
        let a_row = &a[row * k..(row + 1) * k];
        match b {
            F32Rhs::RowMajor(b) => {
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
            F32Rhs::Packed(pm) => gemv_f32_packed_band(k, n, a_row, pm, col0, cols, band),
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
        gemv_f32(m, k, n, a, F32Rhs::Packed(b), c, threads);
        return;
    }
    gemm_f32_tiled(m, k, n, a, b, c, threads);
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
    gemm_f32_tiled(m, k, n, a, b, c, threads);
}

/// `C = A · B` over `i8 → i32` with B packed once in a
/// [`PackedMatrixI8`]. Bit-exact against the scalar reference for any
/// `K ≤ 2^16` and any thread count; performs **zero** B-side packing per
/// call. `m ≤ 2` routes to the N-partitioned panel GEMV.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_i8_prepacked(m: usize, a: &[i8], b: &PackedMatrixI8, c: &mut [i32], threads: usize) {
    gemm_i8_with(m, a, b, c, threads, |_, _, acc, dst| {
        dst.copy_from_slice(acc);
    });
}

/// `C = dequant(A · B)` over `i8` with a fused [`Epilogue`] and B packed
/// once in a [`PackedMatrixI8`]. The `i32` accumulation is exact and the
/// epilogue is applied once per completed element, so outputs are
/// bit-identical to the epilogue's float expression over
/// [`gemm_i8_prepacked`]'s output, for any thread count.
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
    check_epilogue_scales(&epilogue, m, b.n());
    gemm_i8_with(m, a, b, c, threads, |row, col0, acc, dst| {
        apply_epilogue(epilogue, row, col0, acc, dst);
    });
}

/// The one integer driver body: decode-shaped inputs (`m ≤ 2`) dot each
/// column panel in place ([`microkernel::lut_dot`] at `BITS = 8`),
/// everything else runs the register tile over the same panels. Both
/// compute `Σ a · (b + 128)` and subtract `128 · Σ a` per row (see
/// [`pack::PackedMatrixI8`]). `apply` receives `(global_row, global_col0,
/// acc, dst)` for every completed **row segment** — up to `NR` full-K
/// `i32` dot products of one output row and the output elements they
/// belong to; the raw and fused drivers differ in nothing else.
fn gemm_i8_with<T: Send>(
    m: usize,
    a: &[i8],
    b: &PackedMatrixI8,
    c: &mut [T],
    threads: usize,
    apply: impl Fn(usize, usize, &[i32], &mut [T]) + Sync,
) {
    let (k, n) = (b.k(), b.n());
    assert_eq!(a.len(), m * k, "lhs shape mismatch");
    assert_eq!(c.len(), m * n, "output shape mismatch");
    if m == 0 || n == 0 {
        return;
    }
    if m > GEMV_MAX_ROWS {
        // NR-aligned column bands, one dispatch per call: each band streams
        // only its own panels, whichever thread runs it.
        parallel::run_col_partitioned_rows(threads, m, n, NR, c, |col0, cols, rows| {
            gemm_i8_band(m, a, b, col0, cols, |i, gcol0, acc| {
                apply(i, gcol0, acc, &mut rows[i].1[gcol0 - col0..][..acc.len()]);
            });
        });
        return;
    }
    // Decode: the rows widened once to the panel depth (zero-padded, so
    // the padded panel rows contribute nothing), with their corrections.
    let k_pad = b.k_pad();
    let mut aq = vec![0i16; m * k_pad];
    let mut corr = [0i32; GEMV_MAX_ROWS];
    for ((aq_row, a_row), corr) in aq
        .chunks_mut(k_pad.max(1))
        .zip(a.chunks(k.max(1)))
        .zip(&mut corr)
    {
        for (q, &v) in aq_row.iter_mut().zip(a_row) {
            *q = i16::from(v);
        }
        *corr = pack::i8_offset_correction(a_row);
    }
    // NR-aligned bands keep every panel inside one worker, which finishes
    // both rows against a panel while its bytes are hot: the weights
    // stream from memory once per call, not once per row.
    parallel::run_col_partitioned_rows(threads, m, n, NR, c, |col0, cols, group| {
        for j0 in (0..cols).step_by(NR) {
            let panel = b.panel((col0 + j0) / NR);
            let width = NR.min(cols - j0);
            for (row, band) in group.iter_mut() {
                let aq_row = &aq[*row * k_pad..(*row + 1) * k_pad];
                let acc = gemv_i8_panel(panel, aq_row, corr[*row]);
                apply(*row, col0 + j0, &acc[..width], &mut band[j0..j0 + width]);
            }
        }
    });
}

/// One activation row against one column panel: the `NR` signed dot
/// products, offset correction applied. `#[inline(never)]` around the
/// `#[inline(always)]` [`microkernel::lut_dot`] is the pairing the LUT
/// row walker uses — one standalone function per panel walk, the shape
/// the vectorizer is checked against.
#[inline(never)]
fn gemv_i8_panel(panel: &[u8], aq: &[i16], corr: i32) -> [i32; NR] {
    let mut acc = microkernel::lut_dot::<8>(panel, aq);
    for s in &mut acc {
        *s -= corr;
    }
    acc
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

/// Applies a fused [`Epilogue`] to one completed row segment: `acc[j]`
/// is the `i32` dot product of output `(row, col0 + j)`, `dst[j]` that
/// output. The variant is matched once per segment and each arm is a
/// straight loop over the lanes, so the dequantization vectorizes; the
/// float expression per element is the documented one.
#[inline(always)]
fn apply_epilogue(epilogue: Epilogue<'_>, row: usize, col0: usize, acc: &[i32], dst: &mut [f32]) {
    let lanes = dst.iter_mut().zip(acc);
    match epilogue {
        Epilogue::PerTensor { scale } => {
            for (d, &s) in lanes {
                *d = s as f32 * scale;
            }
        }
        Epilogue::PerTensorAcc { scale } => {
            for (d, &s) in lanes {
                *d += s as f32 * scale;
            }
        }
        Epilogue::PerChannel { a_scale, w_scales } => {
            for ((d, &s), &w) in lanes.zip(&w_scales[col0..]) {
                *d = s as f32 * a_scale * w;
            }
        }
        Epilogue::PerRow {
            row_scales,
            w_scales,
        } => {
            let a_scale = row_scales[row];
            for ((d, &s), &w) in lanes.zip(&w_scales[col0..]) {
                *d = s as f32 * a_scale * w;
            }
        }
    }
}

/// Integer tile loop over one `NR`-aligned column band
/// `[col0, col0 + cols)`, every row (full K — see module docs on why the
/// integer path never blocks K). Each column panel is taken through every
/// row tile of the block while it is hot, so the weights stream once per
/// `MC` rows. Hands every completed row segment to `emit(row,
/// global_col0, acc)`; the full-K accumulation is the invariant that
/// makes fused dequantization sound.
fn gemm_i8_band(
    m: usize,
    a: &[i8],
    b: &PackedMatrixI8,
    col0: usize,
    cols: usize,
    mut emit: impl FnMut(usize, usize, &[i32]),
) {
    let (k, n) = (b.k(), b.n());
    let band_end = col0 + cols;
    debug_assert!(col0.is_multiple_of(NR) && (band_end == n || band_end.is_multiple_of(NR)));
    // A panels live in the worker's persistent scratch arena (see the
    // f32 band driver above).
    let k_pad = b.k_pad();
    pack::with_a_scratch_i8(|a_pack| {
        for i0 in (0..m).step_by(MC) {
            let mc = MC.min(m - i0);
            pack::pack_a_i8(a, k, i0, 0, mc, k, a_pack);
            let mut corr = [0i32; MC];
            for (corr, a_row) in corr[..mc].iter_mut().zip(a[i0 * k..].chunks(k.max(1))) {
                *corr = pack::i8_offset_correction(a_row);
            }
            for pj in col0 / NR..band_end.div_ceil(NR) {
                let panel_cols = NR.min(n - pj * NR);
                let b_panel = b.panel(pj);
                for (pi, corr) in corr[..mc].chunks(MR).enumerate() {
                    let a_panel = &a_pack[pi * k_pad * MR..(pi + 1) * k_pad * MR];
                    let mut acc = [[0i32; NR]; MR];
                    microkernel_int(k_pad, a_panel, b_panel, &mut acc);
                    for (r, (acc_row, &corr)) in acc.iter_mut().zip(corr).enumerate() {
                        for s in acc_row.iter_mut() {
                            *s -= corr;
                        }
                        emit(i0 + pi * MR + r, pj * NR, &acc_row[..panel_cols]);
                    }
                }
            }
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
    fn i8_prepacked_is_bit_exact() {
        // Ragged shapes straddling MR/NR edges, both sides of the
        // GEMV/tile switch.
        for (m, k, n) in [
            (1, 3, 2),
            (2, 600, 21),
            (3, 17, 33),
            (7, 40, 5),
            (13, 129, 17),
            (20, 513, 18),
            (33, 64, 70),
        ] {
            let a = ramp_i8(m * k, 37, 11);
            let b = ramp_i8(k * n, 29, 7);
            let bp = PackedMatrixI8::pack(&b, k, n);
            let want = scalar_i8(m, k, n, &a, &b);
            for threads in [1, 4] {
                let mut c = vec![0i32; m * n];
                gemm_i8_prepacked(m, &a, &bp, &mut c, threads);
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
    }

    #[test]
    fn f32_prepacked_bit_matches_per_call_packing() {
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
        }
    }

    #[test]
    fn threaded_gemv_bit_matches_single_thread() {
        // Decode shapes: the N-partitioned GEMV must be bit-identical
        // across thread counts — f32 from either B source, i8 raw and
        // fused.
        for (m, k, n) in [(1, 700, 37), (2, 129, 95)] {
            let a = ramp_f32(m * k, 37, 11, 127);
            let b = ramp_f32(k * n, 29, 7, 113);
            let bp = PackedMatrixF32::pack(&b, k, n);
            let mut single = vec![0.0f32; m * n];
            gemm_f32(m, k, n, &a, &b, &mut single, 1);
            for threads in [1, 2, 3, 8] {
                let mut multi = vec![0.0f32; m * n];
                gemm_f32(m, k, n, &a, &b, &mut multi, threads);
                assert_eq!(single, multi, "f32 unpacked x{threads}");
                let mut multi_pre = vec![0.0f32; m * n];
                gemm_f32_prepacked(m, &a, &bp, &mut multi_pre, threads);
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
            gemm_i8_fused_prepacked(m, &ai, &bip, &mut fused_single, epi, 1);
            for threads in [1, 2, 8] {
                let mut ci = vec![0i32; m * n];
                gemm_i8_prepacked(m, &ai, &bip, &mut ci, threads);
                assert_eq!(ci, want, "i8 x{threads}");
                let mut fused = vec![0.0f32; m * n];
                gemm_i8_fused_prepacked(m, &ai, &bip, &mut fused, epi, threads);
                assert_eq!(fused, fused_single, "i8 fused x{threads}");
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
        // Both sides of the GEMV/tile switch: every epilogue is its float
        // expression over the raw driver's i32 output, element by element.
        for m in [2usize, 9] {
            let (k, n) = (37, 12);
            let a = ramp_i8(m * k, 37, 11);
            let bp = PackedMatrixI8::pack(&ramp_i8(k * n, 29, 7), k, n);
            let mut acc = vec![0i32; m * n];
            gemm_i8_prepacked(m, &a, &bp, &mut acc, 1);

            let (scale, a_scale, init) = (0.031f32, 0.12f32, 1.5f32);
            let w_scales: Vec<f32> = (0..n).map(|j| 0.01 + j as f32 * 0.003).collect();
            let row_scales: Vec<f32> = (0..m).map(|i| 0.05 + i as f32 * 0.01).collect();
            let (w_scales, row_scales) = (&w_scales[..], &row_scales[..]);
            for epilogue in [
                Epilogue::PerTensor { scale },
                Epilogue::PerTensorAcc { scale },
                Epilogue::PerChannel { a_scale, w_scales },
                Epilogue::PerRow {
                    row_scales,
                    w_scales,
                },
            ] {
                for threads in [1, 3] {
                    let mut fused = vec![init; m * n];
                    gemm_i8_fused_prepacked(m, &a, &bp, &mut fused, epilogue, threads);
                    for i in 0..m {
                        for j in 0..n {
                            let x = acc[i * n + j] as f32;
                            let want = match epilogue {
                                Epilogue::PerTensor { .. } => x * scale,
                                Epilogue::PerTensorAcc { .. } => init + x * scale,
                                Epilogue::PerChannel { .. } => x * a_scale * w_scales[j],
                                Epilogue::PerRow { .. } => x * row_scales[i] * w_scales[j],
                            };
                            assert_eq!(fused[i * n + j], want, "{epilogue:?} m={m} ({i},{j})");
                        }
                    }
                }
            }
        }
    }
}
