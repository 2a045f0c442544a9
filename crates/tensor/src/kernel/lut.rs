//! Sub-8-bit weights via table-lookup (LUT) kernels: int4/int2 packed
//! group-quantized storage and the GEMV/GEMM drivers that consume it.
//!
//! Decode is memory-bandwidth-bound, so weight bytes are the single
//! biggest lever on tokens/s: the i8 column panels stream
//! `k · n` bytes per token, the [`PackedMatrixI4`] stream is half that
//! and [`PackedMatrixI2`] a quarter. The arithmetic follows the unified
//! table-lookup formulation of T-MAN-style low-bit inference:
//!
//! ```text
//! dot(a, w_col) = Σ_g  s_g · Σ_{p ∈ group g}  T_p[ code(p) ]
//! where        T_p[v] = aq[p] · (v − bias)        (the partial-sum table)
//! ```
//!
//! with `aq` the activation row quantized to i8 (one dynamic per-row
//! scale, exactly like the per-tensor path) and `code(p)` the stored
//! 4-/2-bit weight code. Each reduction position owns a 16-entry (int4)
//! or 4-entry (int2) partial-sum table; a group's i32 table sums are
//! dequantized by one fused `a_scale · w_scale[g]` multiply and
//! accumulated in f32 — the same fused-epilogue discipline as the i8
//! drivers.
//!
//! Two kernel families implement the same formulation:
//!
//! * the **scalar LUT reference** ([`gemm_lut_reference`]) materializes
//!   every `T_p` and resolves each code with an actual table lookup —
//!   the semantic ground truth, and the thing the property suite pins
//!   the optimized driver against;
//! * the **optimized driver** ([`gemm_lut`]) evaluates the same table
//!   entries in registers as each code selects them (`aq[p] · (v − bias)`
//!   is exact in i32, so distributed evaluation is bit-identical to the
//!   lookup — and, unlike a gather, it auto-vectorizes). The hot path
//!   therefore materializes **zero** tables: [`lut_tables_built`] counts
//!   materializations, and the steady-state invariant mirrors the
//!   zero-repack one — a warm decode step builds no tables at all.
//!
//! Both are const-generic over the code width; `BITS` is inferred from
//! the packed operand ([`PackedMatrixI4`] / [`PackedMatrixI2`]).
//!
//! # Packed layout
//!
//! Weights are stored in **column panels**: `NR = 16` output columns
//! side by side, so the SIMD lanes of every kernel are output columns
//! and one group scale vector applies to a whole vector of outputs. The
//! reduction dimension is covered by `group_size`-wide quantization
//! groups, each with an independent f32 scale per output column, stored
//! `[panel][group][NR]`; the last group may be ragged when `group_size`
//! does not divide `k`. Codes are stored `[panel][group][byte-row][NR]`
//! and **plane-split** within a group of `L` positions: for int4,
//! byte-row `i` holds the 16 columns' codes for position `i` in the low
//! nibbles and position `L/2 + i` in the high nibbles; for int2,
//! byte-row `i` holds positions `i`, `L/4 + i`, `2·L/4 + i`,
//! `3·L/4 + i` in its four bit-pairs — so a plane is one shift-and-mask
//! of a whole byte-row and consecutive byte-rows meet consecutive
//! activations. `k` is padded up to a multiple of 4 (whole bytes, and an
//! even number of int4 byte-rows per group) and `n` up to a whole panel
//! with codes that decode to exactly 0 (padded columns also carry
//! scale 0, and the activation buffer is zero-padded to match), so
//! ragged shapes need no edge branches in the kernels. One copy of the
//! codes serves both shape classes below.
//!
//! Storage per `k × n` matrix is `k·n·bits/8` code bytes plus
//! `4·n·⌈k / group_size⌉` scale bytes: a 4096² int4 matrix is 8.4 MB of
//! codes + 0.26 MB of scales at `gs = 256`, and 8.4 MB + 2.1 MB at the
//! `gs = 32` the serving stack actually uses.
//!
//! # Why lanes are output columns
//!
//! Group quantization ends every (row, column, group) in an
//! integer-to-float conversion and a scaled accumulate — the tax the
//! paper's Figure 4 prices at 8.1–10.7× when each group becomes its own
//! reduction. With each column's reduction run contiguous (this
//! module's first layout) that epilogue was a 16-lane horizontal sum
//! and a dependent scalar multiply-add per output *element* per group:
//! at `gs = 32` the driver ran 5–7 Gop/s on every shape, against 38–44
//! at `gs = 128/256`. With columns in the lanes the same epilogue is
//! one vector convert-multiply-add per 16 outputs (`lut_epilogue`) and
//! the cliff is gone: `gs = 32` runs 28–41 Gop/s against 41–59 at
//! `gs = 128/256` (one core; `BENCH_kernels.json`, `lut_decode`). There
//! is no group-size specialization anywhere: one walker per shape
//! class, every group size.
//!
//! # Bit-exactness and threading
//!
//! All integer arithmetic is exact, so the optimized drivers match the
//! scalar LUT reference bit-for-bit regardless of lane partitioning or
//! evaluation order. The f32 group accumulation is a fixed ascending-
//! group sequence of `acc · (a_scale · w_scale)` terms, identical in
//! both families and independent of the cohort size — so row `r` of an
//! `m = B` batched call is bit-identical to a solo `m = 1` call on the
//! same row, which is what lets batched decode and chunked prefill ride
//! this path without perturbing streams. Threading N-partitions output
//! columns in whole panels ([`parallel::run_col_partitioned_rows`] with
//! `align = NR`): each worker finishes all `B` rows of a panel while
//! its bytes are hot, so the weights stream through memory once per
//! *batch*, and partitioning never touches any element's accumulation
//! order.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use super::microkernel::{lut_dot, lut_unpack, microkernel_int, MR, NR};
use super::{pack, parallel, GEMV_MAX_ROWS};

thread_local! {
    /// Materialized partial-sum table builds on this thread.
    static LUT_TABLES_BUILT: Cell<u64> = const { Cell::new(0) };
}

/// Materialized partial-sum table builds across **all** threads (the
/// cross-thread counterpart of [`lut_tables_built`], for observing
/// forwards that run on pool workers).
static LUT_TABLES_BUILT_GLOBAL: AtomicU64 = AtomicU64::new(0);

/// Number of partial-sum tables this thread has materialized so far.
///
/// Only the scalar LUT reference ever materializes tables; the
/// optimized drivers keep them distributed in registers. A warm decode
/// step therefore holds this counter constant — the LUT twin of the
/// zero-repack invariant that [`pack::pack_b_calls`] pins.
#[must_use]
pub fn lut_tables_built() -> u64 {
    LUT_TABLES_BUILT.with(Cell::get)
}

/// Materialized table builds across all threads so far.
#[must_use]
pub fn lut_tables_built_global() -> u64 {
    LUT_TABLES_BUILT_GLOBAL.load(Ordering::Relaxed)
}

fn note_table_build() {
    LUT_TABLES_BUILT.with(|c| c.set(c.get() + 1));
    LUT_TABLES_BUILT_GLOBAL.fetch_add(1, Ordering::Relaxed);
}

/// A `k × n` weight matrix packed **once** into the `BITS`-bit LUT
/// format (see the module docs for the layout): plane-split codes in
/// column panels with per-(column, group) f32 scales. Built at weight
/// load/quantization time; [`gemm_lut`] then never touches the float
/// original again. Only the two widths below exist.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedLut<const BITS: usize> {
    k: usize,
    n: usize,
    group_size: usize,
    /// `k` rounded up to a multiple of 4: whole bytes for either width,
    /// and an even number of int4 byte-rows in every group.
    k_pad: usize,
    /// Column panels of `NR` columns, plane-split per group: panel `pj`
    /// is `codes[pj * panel_bytes() ..]`, byte-row `i` of it is `NR`
    /// bytes, one per column.
    codes: Vec<u8>,
    /// Per-(panel, group) scale vectors, `scales[(pj * groups + g) * NR + lane]`.
    scales: Vec<f32>,
}

/// int4: codes `0..=15` decode to `[-7, 7]` (bias 8), 2 per byte,
/// 16-entry tables — half the bytes of the i8 panels.
pub type PackedMatrixI4 = PackedLut<4>;

/// int2: codes `1..=3` decode to `[-1, 1]` (bias 2; ternary, BitNet /
/// T-MAN style — code 0 is unused headroom), 4 per byte, 4-entry tables
/// — a quarter of the i8 bytes.
pub type PackedMatrixI2 = PackedLut<2>;

impl<const BITS: usize> PackedLut<BITS> {
    /// Codes per packed byte; also the number of split planes per group.
    const PLANES: usize = 8 / BITS;
    /// Stored-code bias: code `v` decodes to `v - BIAS`.
    const BIAS: i32 = 1 << (BITS - 1);
    /// Symmetric quantization bound on decoded values.
    const QMAX: i32 = Self::BIAS - 1;

    /// Quantizes and packs a row-major `k × n` f32 matrix with
    /// `group_size`-wide per-column groups along the reduction
    /// dimension. `group_size` need not divide `k` — the last group is
    /// ragged.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n` or `group_size` is not a positive
    /// multiple of 4 (every group boundary must be byte-aligned for
    /// both code widths).
    #[must_use]
    pub fn quantize_pack(b: &[f32], k: usize, n: usize, group_size: usize) -> Self {
        const { assert!(BITS == 4 || BITS == 2, "LUT codes are 4 or 2 bits wide") };
        assert_eq!(b.len(), k * n, "rhs shape mismatch");
        assert!(
            group_size >= 4 && group_size.is_multiple_of(4),
            "LUT group size must be a positive multiple of 4, got {group_size}"
        );
        pack::note_pack_b();
        let k_pad = k.next_multiple_of(4);
        let groups = k.div_ceil(group_size);
        let panels = n.div_ceil(NR);
        let mut codes = Vec::with_capacity(panels * NR * k_pad / Self::PLANES);
        let mut scales = Vec::with_capacity(panels * groups * NR);
        for j0 in (0..n).step_by(NR) {
            let cols = NR.min(n - j0);
            for g0 in (0..k).step_by(group_size) {
                // Every read is a panel-wide run of one B row: the pack
                // walks the float matrix with unit stride. Lanes past `n`
                // keep scale 0.
                let mut scale = [0.0f32; NR];
                for p in g0..(g0 + group_size).min(k) {
                    for (s, &x) in scale.iter_mut().zip(&b[p * n + j0..][..cols]) {
                        *s = s.max(x.abs());
                    }
                }
                for s in &mut scale {
                    *s = if *s > 0.0 {
                        *s / Self::QMAX as f32
                    } else {
                        0.0
                    };
                }
                scales.extend_from_slice(&scale);
                let rows = (k_pad - g0).min(group_size) / Self::PLANES;
                for i in 0..rows {
                    let mut bytes = [0u8; NR];
                    for t in 0..Self::PLANES {
                        let p = g0 + t * rows + i;
                        for (l, byte) in bytes.iter_mut().enumerate() {
                            // Padding (positions past `k`, lanes past `n`)
                            // quantizes a zero: the bias code, decoding to 0.
                            let x = if p < k && l < cols {
                                b[p * n + j0 + l]
                            } else {
                                0.0
                            };
                            *byte |= Self::quantize_code(x, scale[l]) << (BITS * t);
                        }
                    }
                    codes.extend_from_slice(&bytes);
                }
            }
        }
        PackedLut {
            k,
            n,
            group_size,
            k_pad,
            codes,
            scales,
        }
    }

    /// Symmetric round-and-clamp to `[-QMAX, QMAX]`, biased into a stored
    /// code. A zero scale (all-zero group) maps everything to the bias
    /// code, which decodes to exactly 0.
    fn quantize_code(x: f32, scale: f32) -> u8 {
        if scale <= 0.0 {
            return Self::BIAS as u8;
        }
        let q = (x / scale).round() as i32;
        (q.clamp(-Self::QMAX, Self::QMAX) + Self::BIAS) as u8
    }

    /// Quantizes and packs from a `[k, n]` tensor view.
    ///
    /// # Panics
    ///
    /// Panics if `group_size` is not a positive multiple of 4.
    #[must_use]
    pub fn from_tensor(b: &crate::Tensor<f32>, group_size: usize) -> Self {
        let (k, n) = b.matrix_dims();
        Self::quantize_pack(b.as_slice(), k, n, group_size)
    }

    /// Reduction-dimension length.
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-dimension length.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Quantization group width along the reduction dimension.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Number of groups (the last may be ragged).
    #[must_use]
    pub fn groups(&self) -> usize {
        self.k.div_ceil(self.group_size)
    }

    /// Positions covered by group `g`: `group_size` for every group but
    /// the last, which ends at the padded `k`.
    fn group_len(&self, g: usize) -> usize {
        (self.k_pad - g * self.group_size).min(self.group_size)
    }

    /// Packed bytes per column panel.
    fn panel_bytes(&self) -> usize {
        self.k_pad / Self::PLANES * NR
    }

    /// Bytes a decode GEMV streams per token (packed codes + scales) —
    /// the memory-traffic number the bench reports.
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.codes.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// The stored code of reduction position `p` in column `j` — the
    /// inverse of the plane-split pack, for tests and the reference
    /// kernel; `p` may index the padded tail (`k ≤ p < k_pad`).
    #[must_use]
    pub fn code_at(&self, p: usize, j: usize) -> u8 {
        debug_assert!(p < self.k_pad && j < self.n);
        let g = (p / self.group_size).min(self.groups() - 1);
        let g0 = g * self.group_size;
        let rows = self.group_len(g) / Self::PLANES;
        let (t, i) = ((p - g0) / rows, (p - g0) % rows);
        let byte = self.codes[j / NR * self.panel_bytes() + (g0 / Self::PLANES + i) * NR + j % NR];
        (byte >> (BITS * t)) & ((1 << BITS) - 1)
    }

    /// The f32 scale of group `g` in column `j`.
    #[must_use]
    pub fn scale_at(&self, j: usize, g: usize) -> f32 {
        self.scales[(j / NR * self.groups() + g) * NR + j % NR]
    }

    /// Reconstructs the row-major `k × n` float matrix.
    #[must_use]
    pub fn dequantize(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.k * self.n];
        for p in 0..self.k {
            for j in 0..self.n {
                let q = i32::from(self.code_at(p, j)) - Self::BIAS;
                out[p * self.n + j] = q as f32 * self.scale_at(j, p / self.group_size);
            }
        }
        out
    }
}

/// Symmetric i8 range used for activation rows (matches the per-tensor
/// quantization plane).
const A_QMAX: f32 = 127.0;

/// Activation rows quantized to i16-widened i8, one dynamic max-min
/// scale per row, with the per-(row, group) sums the bias correction
/// needs. Rows are stored in tiles of `mr`, K-major within a tile:
/// element `(r, p)` is `aq[(r / mr * k_pad + p) * mr + r % mr]` and sum
/// `(r, g)` is `sums[(r / mr * groups + g) * mr + r % mr]` — row-major
/// for `mr = 1`, the A-panel order of the register tile for `mr = MR`.
/// Rows are zero-padded to `k_pad` and to a whole tile.
struct QuantRows {
    aq: Vec<i16>,
    scales: Vec<f32>,
    sums: Vec<i32>,
}

/// Quantizes `m` activation rows (row-major, stride `k`) in one pass.
/// Shared verbatim by the reference and optimized drivers so the two can
/// never quantize differently. A row holding a NaN or an infinity gets a
/// NaN scale — every output of that row is NaN, as in the float drivers —
/// and no other row is affected.
fn quantize_rows<const BITS: usize>(
    a: &[f32],
    m: usize,
    p: &PackedLut<BITS>,
    mr: usize,
) -> QuantRows {
    let groups = p.groups();
    let tiles = m.div_ceil(mr);
    let mut aq = vec![0i16; tiles * p.k_pad * mr];
    let mut sums = vec![0i32; tiles * groups * mr];
    let mut scales = Vec::with_capacity(m);
    for r in 0..m {
        let row = &a[r * p.k..(r + 1) * p.k];
        let mut amax = 0.0f32;
        for &v in row {
            // `f32::max` would drop a NaN; this keeps it.
            if v.abs() > amax || v.is_nan() {
                amax = v.abs();
            }
        }
        let scale = if !amax.is_finite() {
            f32::NAN
        } else if amax > 0.0 {
            amax / A_QMAX
        } else {
            0.0
        };
        scales.push(scale);
        if scale > 0.0 {
            let (tile, lane) = (r / mr, r % mr);
            for (g, group) in row.chunks(p.group_size).enumerate() {
                let mut sum = 0i32;
                for (i, &v) in group.iter().enumerate() {
                    let q = (v / scale).round().clamp(-A_QMAX, A_QMAX) as i16;
                    aq[(tile * p.k_pad + g * p.group_size + i) * mr + lane] = q;
                    sum += i32::from(q);
                }
                sums[(tile * groups + g) * mr + lane] = sum;
            }
        }
    }
    QuantRows { aq, scales, sums }
}

/// One column panel as the walkers see it: its codes and its
/// `[group][NR]` scale vectors, and how to cut both into groups.
/// Chunking `codes` by `group_size · BITS / 8 · NR` bytes peels the
/// ragged last group off by itself — its chunk is simply shorter.
struct Panel<'a> {
    codes: &'a [u8],
    scales: &'a [f32],
    group_size: usize,
}

/// The group epilogue, one panel row at a time: dequantizes the 16
/// columns' i32 group sums and adds them to the running f32 outputs.
/// `corr` is `bias · Σ aq` over the group (see [`lut_dot`]). The float
/// expression — and, called in ascending group order, the accumulation
/// sequence of every element — is the reference's, verbatim. This is
/// the step the panel layout exists for: one vector convert-multiply-add
/// per 16 outputs where a column-contiguous layout pays a horizontal
/// reduction and a dependent scalar multiply-add per element.
#[inline(always)]
fn lut_epilogue(out: &mut [f32; NR], acc: &[i32; NR], corr: i32, a_scale: f32, w_scales: &[f32]) {
    for ((o, &s), &w) in out.iter_mut().zip(acc).zip(w_scales) {
        *o += (s - corr) as f32 * (a_scale * w);
    }
}

/// The GEMV-shaped walker (`m ≤ 2`): one activation row against one
/// panel, every group dotted in place from the packed bytes. `aq` is the
/// row's `k_pad` quantized activations, `sums` its per-group sums.
///
/// `#[inline(never)]` here and `#[inline(always)]` on [`lut_dot`] are a
/// pair: the group loop, the dot and the epilogue compile as one
/// standalone function whose 16 running outputs stay in a register
/// (checked by the `lut_decode` bench rows, not by eye).
#[inline(never)]
fn lut_panel_row<const BITS: usize>(
    panel: &Panel<'_>,
    aq: &[i16],
    sums: &[i32],
    a_scale: f32,
) -> [f32; NR] {
    let mut out = [0.0f32; NR];
    for (((codes, aq), &sum), w_scales) in panel
        .codes
        .chunks(panel.group_size * BITS / 8 * NR)
        .zip(aq.chunks(panel.group_size))
        .zip(sums)
        .zip(panel.scales.chunks_exact(NR))
    {
        let acc = lut_dot::<BITS>(codes, aq);
        lut_epilogue(
            &mut out,
            &acc,
            PackedLut::<BITS>::BIAS * sum,
            a_scale,
            w_scales,
        );
    }
    out
}

/// The tiled walker (`m > 2`): every row tile of `q` (K-major,
/// `k_pad` deep) against one panel. Each group is unpacked **once** into
/// `scratch` and the register tile runs over every row tile against it,
/// so the unpack is amortized over the whole cohort; `out[r]` receives
/// row `r`'s 16 outputs.
fn lut_panel_tiles<const BITS: usize>(
    panel: &Panel<'_>,
    q: &QuantRows,
    k_pad: usize,
    out: &mut [[f32; NR]],
    scratch: &mut [u8],
) {
    out.fill([0.0; NR]);
    let groups = panel.scales.len() / NR;
    for (g, (codes, w_scales)) in panel
        .codes
        .chunks(panel.group_size * BITS / 8 * NR)
        .zip(panel.scales.chunks_exact(NR))
        .enumerate()
    {
        let len = codes.len() * 8 / BITS / NR;
        let b_panel = &mut scratch[..len * NR];
        lut_unpack::<BITS>(codes, b_panel);
        for (tile, out_tile) in out.chunks_mut(MR).enumerate() {
            let a_panel = &q.aq[(tile * k_pad + g * panel.group_size) * MR..];
            let mut acc = [[0i32; NR]; MR];
            microkernel_int(len, a_panel, b_panel, &mut acc);
            let sums = &q.sums[(tile * groups + g) * MR..][..MR];
            let a_scales = &q.scales[tile * MR..];
            for (((out_row, acc_row), &sum), &a_scale) in
                out_tile.iter_mut().zip(&acc).zip(sums).zip(a_scales)
            {
                lut_epilogue(
                    out_row,
                    acc_row,
                    PackedLut::<BITS>::BIAS * sum,
                    a_scale,
                    w_scales,
                );
            }
        }
    }
}

/// `C = dequant(A · B)` against `BITS`-bit LUT weights — the optimized
/// driver: one layout, and one panel walker per shape class
/// (`lut_panel_row`, `lut_panel_tiles`) for every group size.
/// Activation rows are quantized with one dynamic per-row scale, every
/// group's partial-sum table is evaluated in registers (zero
/// materialized tables — see [`lut_tables_built`]), and group sums are
/// dequantized by a fused `a_scale · w_scale` epilogue applied to a
/// whole panel of output columns at once.
///
/// For `m ≤ 2` this is the N-partitioned decode GEMV; larger `m` (the
/// batched-decode cohort and chunked prefill) runs the register-tiled
/// walk over the same column panels, so the weights stream once per
/// batch. Row `r` is bit-identical to a solo `m = 1` call on the same
/// row, and results are bit-exact vs [`gemm_lut_reference`] for any
/// thread count.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_lut<const BITS: usize>(
    m: usize,
    a: &[f32],
    p: &PackedLut<BITS>,
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * p.k, "lhs shape mismatch");
    assert_eq!(c.len(), m * p.n, "output shape mismatch");
    if m == 0 || p.n == 0 {
        return;
    }
    if p.k == 0 {
        // An empty reduction, exactly as the reference computes.
        c.fill(0.0);
        return;
    }
    let gemv = m <= GEMV_MAX_ROWS;
    let q = quantize_rows(a, m, p, if gemv { 1 } else { MR });
    let (groups, k_pad) = (p.groups(), p.k_pad);
    // NR-aligned bands keep every packed panel inside one worker, which
    // finishes all rows of a panel while its bytes are hot: the weights
    // stream from memory once per cohort.
    parallel::run_col_partitioned_rows(threads, m, p.n, NR, c, |col0, _, group| {
        let mut out = vec![[0.0f32; NR]; m];
        let mut scratch = vec![0u8; p.group_size * NR];
        let cols = group.first().map_or(0, |(_, band)| band.len());
        for j0 in (0..cols).step_by(NR) {
            let pj = (col0 + j0) / NR;
            let panel = Panel {
                codes: &p.codes[pj * p.panel_bytes()..][..p.panel_bytes()],
                scales: &p.scales[pj * groups * NR..][..groups * NR],
                group_size: p.group_size,
            };
            if gemv {
                for (r, out_row) in out.iter_mut().enumerate() {
                    let aq = &q.aq[r * k_pad..(r + 1) * k_pad];
                    let sums = &q.sums[r * groups..(r + 1) * groups];
                    *out_row = lut_panel_row::<BITS>(&panel, aq, sums, q.scales[r]);
                }
            } else {
                lut_panel_tiles::<BITS>(&panel, &q, k_pad, &mut out, &mut scratch);
            }
            for ((_, band), out_row) in group.iter_mut().zip(&out) {
                for (dst, &v) in band[j0..].iter_mut().zip(out_row) {
                    *dst = v;
                }
            }
        }
    });
}

/// The scalar LUT **reference**: materializes every `2^BITS`-entry
/// partial-sum table (counted by [`lut_tables_built`]) and resolves each
/// stored code with an actual lookup. Single-threaded, simple, and the
/// ground truth [`gemm_lut`] is pinned against bit-for-bit.
///
/// # Panics
///
/// Panics if a slice length disagrees with the packed dimensions.
pub fn gemm_lut_reference<const BITS: usize>(
    m: usize,
    a: &[f32],
    p: &PackedLut<BITS>,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * p.k, "lhs shape mismatch");
    assert_eq!(c.len(), m * p.n, "output shape mismatch");
    let q = quantize_rows(a, m, p, 1);
    let groups = p.groups();
    let tl = 1usize << BITS;
    for r in 0..m {
        let aq_row = &q.aq[r * p.k_pad..(r + 1) * p.k_pad];
        // Materialize the per-position partial-sum tables for this
        // activation row: table[p][v] = aq[p] · (v − bias).
        let mut table = vec![0i32; p.k_pad * tl];
        for (pos, &av) in aq_row.iter().enumerate() {
            for v in 0..tl {
                table[pos * tl + v] = i32::from(av) * (v as i32 - PackedLut::<BITS>::BIAS);
            }
        }
        note_table_build();
        for j in 0..p.n {
            let mut out = 0.0f32;
            for g in 0..groups {
                let g0 = g * p.group_size;
                let mut acc = 0i32;
                for pos in g0..g0 + p.group_len(g) {
                    acc += table[pos * tl + usize::from(p.code_at(pos, j))];
                }
                out += acc as f32 * (q.scales[r] * p.scale_at(j, g));
            }
            c[r * p.n + j] = out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(len: usize, mul: usize, add: usize) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * mul + add) % 173) as f32 / 173.0 - 0.5)
            .collect()
    }

    #[test]
    fn pack_round_trips_codes_within_half_a_scale() {
        for (k, n, gs) in [(16usize, 8usize, 4usize), (30, 5, 8), (7, 3, 12)] {
            let b = ramp(k * n, 31, 7);
            let p4 = PackedMatrixI4::quantize_pack(&b, k, n, gs);
            let back = p4.dequantize();
            for pos in 0..k {
                for j in 0..n {
                    let scale = p4.scale_at(j, pos / gs);
                    let err = (back[pos * n + j] - b[pos * n + j]).abs();
                    assert!(
                        err <= scale * 0.5 + 1e-6,
                        "({pos},{j}): err {err} vs scale {scale}"
                    );
                }
            }
        }
    }

    #[test]
    fn padded_positions_decode_to_zero() {
        // k = 7 pads to 8 (int4) / 8 (int2): every padded code must be
        // the bias, i.e. decode to exactly zero.
        let (k, n, gs) = (7usize, 4usize, 4usize);
        let b = ramp(k * n, 13, 5);
        let p4 = PackedMatrixI4::quantize_pack(&b, k, n, gs);
        let p2 = PackedMatrixI2::quantize_pack(&b, k, n, gs);
        for j in 0..n {
            assert_eq!(p4.code_at(7, j), 8);
            assert_eq!(p2.code_at(7, j), 2);
        }
    }

    #[test]
    fn optimized_matches_reference_on_ragged_shapes() {
        for (m, k, n, gs) in [
            (1usize, 12usize, 5usize, 4usize),
            (2, 30, 17, 8),
            (5, 26, 9, 12),
        ] {
            let a = ramp(m * k, 17, 3);
            let b = ramp(k * n, 29, 11);
            let p4 = PackedMatrixI4::quantize_pack(&b, k, n, gs);
            let mut got = vec![0.0f32; m * n];
            let mut want = vec![0.0f32; m * n];
            gemm_lut(m, &a, &p4, &mut got, 3);
            gemm_lut_reference(m, &a, &p4, &mut want);
            assert_eq!(got, want, "i4 m={m} k={k} n={n} gs={gs}");

            let p2 = PackedMatrixI2::quantize_pack(&b, k, n, gs);
            gemm_lut(m, &a, &p2, &mut got, 3);
            gemm_lut_reference(m, &a, &p2, &mut want);
            assert_eq!(got, want, "i2 m={m} k={k} n={n} gs={gs}");
        }
    }

    #[test]
    fn optimized_driver_materializes_no_tables() {
        let (m, k, n, gs) = (2usize, 32usize, 8usize, 8usize);
        let a = ramp(m * k, 7, 1);
        let b = ramp(k * n, 19, 2);
        let p4 = PackedMatrixI4::quantize_pack(&b, k, n, gs);
        let mut c = vec![0.0f32; m * n];
        let before = lut_tables_built();
        gemm_lut(m, &a, &p4, &mut c, 1);
        assert_eq!(lut_tables_built(), before, "hot path must not build tables");
        gemm_lut_reference(m, &a, &p4, &mut c);
        assert_eq!(
            lut_tables_built(),
            before + m as u64,
            "reference builds one table set per row"
        );
    }

    #[test]
    fn int4_beats_int2_on_accuracy_and_int2_on_bytes() {
        let (k, n, gs) = (64usize, 32usize, 16usize);
        let b = ramp(k * n, 23, 9);
        let p4 = PackedMatrixI4::quantize_pack(&b, k, n, gs);
        let p2 = PackedMatrixI2::quantize_pack(&b, k, n, gs);
        let mse = |back: &[f32]| -> f32 {
            back.iter()
                .zip(&b)
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f32>()
                / b.len() as f32
        };
        assert!(mse(&p4.dequantize()) < mse(&p2.dequantize()));
        assert!(p2.packed_bytes() < p4.packed_bytes());
        // And both are far below the 1-byte-per-element i8 stream.
        assert!(p4.packed_bytes() < k * n);
    }

    #[test]
    #[should_panic(expected = "group size")]
    fn rejects_unaligned_group_size() {
        let b = ramp(8 * 4, 3, 1);
        let _ = PackedMatrixI4::quantize_pack(&b, 8, 4, 6);
    }
}
