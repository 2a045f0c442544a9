//! Operand packing for the blocked GEMM kernels.
//!
//! The microkernel consumes both operands from *panels* — small,
//! contiguous, cache-resident buffers laid out exactly in the order the
//! inner loop reads them:
//!
//! * an **A panel** holds an `MR`-row band of the left operand,
//!   K-major: for each k step, the `MR` column entries are adjacent, so
//!   the microkernel broadcasts them with stride-1 loads;
//! * a **B panel** holds an `NR`-column band of the right operand,
//!   K-major: for each k step, the `NR` row entries are adjacent, so the
//!   microkernel loads them as full SIMD vectors.
//!
//! Ragged edges are zero-padded to the full `MR`/`NR` width, which keeps
//! the microkernel branch-free; the writeback step simply ignores the
//! padded lanes. Integer **A** panels stay `i8` and go K-major by
//! *quads*, `[k / 4][MR][4]` ([`pack_a_i8`]): a row's four consecutive K
//! values are one 32-bit broadcast for the four-products-per-lane
//! integer tile, and K is zero-padded to a multiple of 4 so a padded
//! step contributes nothing; integer **B** panels are one unsigned byte
//! per weight (below).
//!
//! # Persistent packing: [`PackedMatrixF32`] / [`PackedMatrixI8`]
//!
//! The per-call packer above copies a B block on **every** driver
//! invocation. For weights — which never change between forward passes —
//! that work can be done exactly once. A [`PackedMatrixF32`] owns the
//! complete panel-ordered slab sequence the blocked driver would
//! otherwise rebuild per call (keyed by the driver's `KC`/`NC` blocking
//! so the slab contents are byte-identical to the per-call path). A
//! [`PackedMatrixI8`] owns full-K `NR`-column panels of `b + 128` as
//! `u8` — one byte per weight, one layout for the tile loop and the
//! decode GEMV alike (the `BITS = 8`, one-group case of the
//! [`super::lut`] column-panel format). The `*_prepacked` drivers in
//! [`super`] consume these and never pack B. The packed matrix is the
//! weight's only resident copy: [`PackedMatrixI8::copy_row`] reads a row
//! back for the callers that need one, and nothing outside this module
//! knows the offset or the panel order.
//!
//! For observability (and the "weights pack once" regression tests), every
//! B-side pack — per-call or constructor — bumps a thread-local counter
//! readable via [`pack_b_calls`]. A-side (activation) packing is
//! intentionally not counted: activations change every call, so packing
//! them per call is correct.
//!
//! # A-panel scratch arenas
//!
//! Packing activations per call is correct — *allocating* for them per
//! call is not. Each worker thread owns a persistent scratch arena
//! ([`with_a_scratch_f32`] / [`with_a_scratch_i8`]) that the tiled
//! drivers pack A panels into; after the first forward pass has sized it
//! (warmup), every later pack reuses the capacity and the allocator is
//! never touched again. Growth events are counted in a process-global
//! [`a_scratch_grows`] counter (global, unlike [`pack_b_calls`], because
//! growth happens on pool worker threads while the observing test runs
//! on its own thread; growths are rare enough that a relaxed atomic
//! costs nothing).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

use super::microkernel::{MR, NR};
use super::{KC, NC};

thread_local! {
    /// B-operand pack invocations on this thread (weights-side packing).
    static PACK_B_CALLS: Cell<u64> = const { Cell::new(0) };
    /// Persistent per-thread A-panel buffers for the tiled drivers.
    static A_SCRATCH_F32: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static A_SCRATCH_I8: RefCell<Vec<i8>> = const { RefCell::new(Vec::new()) };
}

/// A-panel scratch-arena growth events across all threads (each is one
/// heap allocation that a warm arena would have avoided).
static A_SCRATCH_GROWS: AtomicU64 = AtomicU64::new(0);

/// B-operand pack invocations across **all** threads. The thread-local
/// [`pack_b_calls`] cannot see packs performed on pool worker threads,
/// so steady-state tests that drive the pooled executor pin this one
/// instead (serializing themselves, since it is process-global).
static PACK_B_CALLS_GLOBAL: AtomicU64 = AtomicU64::new(0);

/// Number of B-operand pack operations performed by any thread so far —
/// the cross-thread counterpart of [`pack_b_calls`], for observing
/// forwards whose GEMM bands run on pool workers.
#[must_use]
pub fn pack_b_calls_global() -> u64 {
    PACK_B_CALLS_GLOBAL.load(Ordering::Relaxed)
}

/// Number of times any thread's A-panel scratch arena had to grow (i.e.
/// allocate). After one warmup forward pass per worker, a steady-state
/// workload holds this constant — the "zero activation-panel allocations
/// per forward" invariant the prefill tests pin.
#[must_use]
pub fn a_scratch_grows() -> u64 {
    A_SCRATCH_GROWS.load(Ordering::Relaxed)
}

fn with_a_scratch<T: Copy + Default + 'static, R>(
    slot: &'static std::thread::LocalKey<RefCell<Vec<T>>>,
    f: impl FnOnce(&mut Vec<T>) -> R,
) -> R {
    slot.with(|cell| match cell.try_borrow_mut() {
        Ok(mut buf) => {
            let cap = buf.capacity();
            let r = f(&mut buf);
            if buf.capacity() > cap {
                A_SCRATCH_GROWS.fetch_add(1, Ordering::Relaxed);
            }
            r
        }
        // Re-entrant use (a nested driver on the same thread): fall back
        // to a throwaway buffer rather than panicking the kernel.
        Err(_) => {
            A_SCRATCH_GROWS.fetch_add(1, Ordering::Relaxed);
            f(&mut Vec::new())
        }
    })
}

/// Hands `f` this thread's persistent f32 A-panel buffer.
pub fn with_a_scratch_f32<R>(f: impl FnOnce(&mut Vec<f32>) -> R) -> R {
    with_a_scratch(&A_SCRATCH_F32, f)
}

/// Hands `f` this thread's persistent i8 A-panel buffer.
pub fn with_a_scratch_i8<R>(f: impl FnOnce(&mut Vec<i8>) -> R) -> R {
    with_a_scratch(&A_SCRATCH_I8, f)
}

/// Number of B-operand pack operations performed by this thread so far
/// (both the per-call packers and `PackedMatrix` constructors count).
///
/// The counter is thread-local so concurrent tests cannot perturb each
/// other; the blocked drivers pack B on the calling thread, so a
/// snapshot-before / snapshot-after pair around a forward pass observes
/// exactly that pass's weight packing.
#[must_use]
pub fn pack_b_calls() -> u64 {
    PACK_B_CALLS.with(Cell::get)
}

/// Packs an `mc × kc` block of `a` (row-major, leading dimension `lda`)
/// starting at (`row0`, `col0`) into `MR`-row panels.
///
/// Output length is `ceil(mc / MR) * kc * MR`; rows past `row0 + mc` are
/// zero-padded.
pub fn pack_a_f32(
    a: &[f32],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<f32>,
) {
    out.clear();
    let panels = mc.div_ceil(MR);
    out.reserve(panels * kc * MR);
    for pi in 0..panels {
        let r0 = row0 + pi * MR;
        let rows = (row0 + mc - r0).min(MR);
        for p in 0..kc {
            let col = col0 + p;
            for r in 0..MR {
                out.push(if r < rows {
                    a[(r0 + r) * lda + col]
                } else {
                    0.0
                });
            }
        }
    }
}

/// Packs an `mc × kc` block of an `i8` matrix into `MR`-row panels in
/// the integer tile's `[kc / 4][MR][4]` order: element `(r, p)` of panel
/// `pi` is `out[pi · kq · MR · 4 + (p / 4 · MR + r) · 4 + p % 4]` with
/// `kq = ⌈kc / 4⌉`. Output length is `⌈mc / MR⌉ · 4 · kq · MR`; rows past
/// `row0 + mc` and K steps past `kc` are zero.
pub fn pack_a_i8(
    a: &[i8],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<i8>,
) {
    let panel_len = kc.next_multiple_of(4) * MR;
    out.clear();
    out.resize(mc.div_ceil(MR) * panel_len, 0);
    for pi in 0..mc.div_ceil(MR) {
        let panel = &mut out[pi * panel_len..][..panel_len];
        for r in 0..(mc - pi * MR).min(MR) {
            let row = &a[(row0 + pi * MR + r) * lda + col0..][..kc];
            for (q, quad) in row.chunks(4).enumerate() {
                panel[(q * MR + r) * 4..][..quad.len()].copy_from_slice(quad);
            }
        }
    }
}

/// Packs a `kc × nc` block of `b` (row-major, leading dimension `ldb`)
/// starting at (`row0`, `col0`) into `NR`-column panels.
///
/// Output length is `ceil(nc / NR) * kc * NR`; columns past `col0 + nc`
/// are zero-padded.
pub fn pack_b_f32(
    b: &[f32],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<f32>,
) {
    note_pack_b();
    out.clear();
    let panels = nc.div_ceil(NR);
    out.reserve(panels * kc * NR);
    for pj in 0..panels {
        let c0 = col0 + pj * NR;
        let cols = (col0 + nc - c0).min(NR);
        for p in 0..kc {
            let base = (row0 + p) * ldb + c0;
            out.extend_from_slice(&b[base..base + cols]);
            out.extend(std::iter::repeat_n(0.0, NR - cols));
        }
    }
}

/// Records one B-side (weights) pack in the thread-local and global
/// counters. Shared by the f32/i8 packers here and the LUT quantize-pack
/// in [`super::lut`], so `pack_b_calls` covers every weight layout.
pub(super) fn note_pack_b() {
    PACK_B_CALLS.with(|c| c.set(c.get() + 1));
    PACK_B_CALLS_GLOBAL.fetch_add(1, Ordering::Relaxed);
}

/// A `k × n` right-hand operand as row-major `[k, n_i]` column blocks
/// laid side by side — one block for a plain matrix, several for the
/// fused weight of sibling projections — read in place, so the packers
/// never need the `[k, Σ n_i]` matrix built first.
pub(crate) struct ColumnBlocks<'a, T> {
    /// Each block's elements and width.
    blocks: Vec<(&'a [T], usize)>,
    pub(crate) k: usize,
    pub(crate) n: usize,
}

impl<'a, T: Copy> ColumnBlocks<'a, T> {
    /// One row-major `k × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub(crate) fn whole(b: &'a [T], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs shape mismatch");
        ColumnBlocks {
            blocks: vec![(b, n)],
            k,
            n,
        }
    }

    /// The matrix views of `blocks`, side by side.
    pub(crate) fn side_by_side(blocks: &[&'a crate::Tensor<T>]) -> crate::Result<Self> {
        let k = blocks.first().map_or(0, |b| b.matrix_dims().0);
        let mut parts = Vec::with_capacity(blocks.len());
        for b in blocks {
            let (rows, cols) = b.matrix_dims();
            if rows != k {
                return Err(crate::Error::ShapeMismatch {
                    op: "side_by_side",
                    lhs: vec![k, parts.iter().map(|&(_, w)| w).sum()],
                    rhs: vec![rows, cols],
                });
            }
            parts.push((b.as_slice(), cols));
        }
        let n = parts.iter().map(|&(_, w)| w).sum();
        Ok(ColumnBlocks {
            blocks: parts,
            k,
            n,
        })
    }

    /// Copies columns `c0..c0 + out.len()` of row `p` into `out`.
    pub(crate) fn read_row(&self, p: usize, mut c0: usize, mut out: &mut [T]) {
        for &(b, w) in &self.blocks {
            if out.is_empty() {
                return;
            }
            if c0 >= w {
                c0 -= w;
                continue;
            }
            let take = (w - c0).min(out.len());
            let (head, tail) = std::mem::take(&mut out).split_at_mut(take);
            head.copy_from_slice(&b[p * w + c0..][..take]);
            out = tail;
            c0 = 0;
        }
    }
}

/// A `k × n` f32 right-hand operand packed **once** for repeated use.
///
/// Holds the exact `KC × NC` slab sequence `super::gemm_f32` would build
/// per call — same blocking, same panel order, same zero padding, so the
/// prepacked driver is bit-identical to the per-call path. The decode
/// GEMV reads these same slabs (each `NR`-column panel already gives the
/// K loop unit-stride, SIMD-width column access, so a separate
/// transposed copy would add memory without adding speed). Built once at
/// weight load/quantization time; `forward()`-style callers then never
/// pack.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrixF32 {
    k: usize,
    n: usize,
    /// Per-`(p0, j0)` block slabs in the driver's traversal order
    /// (`p0` outer, `j0` inner).
    slabs: Vec<Vec<f32>>,
}

impl PackedMatrixF32 {
    /// Packs a row-major `k × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn pack(b: &[f32], k: usize, n: usize) -> Self {
        Self::from_columns(&ColumnBlocks::whole(b, k, n))
    }

    /// Packs the matrix view of a tensor.
    #[must_use]
    pub fn from_tensor(b: &crate::Tensor<f32>) -> Self {
        let (k, n) = b.matrix_dims();
        Self::pack(b.as_slice(), k, n)
    }

    /// Packs the matrix views of `blocks` laid side by side — the
    /// `[k, Σ n_i]` weight of several projections of one activation —
    /// without building that matrix: the slabs are byte-identical to
    /// packing it.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`](crate::Error::ShapeMismatch) if
    /// the blocks disagree on `k`.
    pub fn from_blocks(blocks: &[&crate::Tensor<f32>]) -> crate::Result<Self> {
        Ok(Self::from_columns(&ColumnBlocks::side_by_side(blocks)?))
    }

    fn from_columns(b: &ColumnBlocks<'_, f32>) -> Self {
        Self::from_rows(b.k, b.n, |p, row| b.read_row(p, 0, row))
    }

    /// Packs a `k × n` matrix handed over one row at a time: `row(p, out)`
    /// writes row `p` into `out` (`n` long) and is called once per row,
    /// in ascending `p`. A weight generated row by row therefore never
    /// exists row-major; only one row buffer does.
    ///
    /// This is the one packing loop behind every constructor: the slab
    /// sequence [`pack_b_f32`] builds per call is allocated first, then
    /// each row is scattered into its K-slab's `NR`-column panels, so
    /// the result equals [`Self::pack`] of the same rows.
    #[must_use]
    pub fn from_rows(k: usize, n: usize, mut row: impl FnMut(usize, &mut [f32])) -> Self {
        let col_blocks = n.div_ceil(NC);
        let mut slabs = Vec::with_capacity(k.div_ceil(KC) * col_blocks);
        for p0 in (0..k).step_by(KC) {
            let kc = KC.min(k - p0);
            for j0 in (0..n).step_by(NC) {
                note_pack_b();
                slabs.push(vec![0.0; NC.min(n - j0).div_ceil(NR) * kc * NR]);
            }
        }
        let mut buf = vec![0.0; n];
        for p in 0..k {
            row(p, &mut buf);
            let (kb, step) = (p / KC, p % KC);
            let kc = KC.min(k - kb * KC);
            let k_slabs = &mut slabs[kb * col_blocks..][..col_blocks];
            for (slab, block) in k_slabs.iter_mut().zip(buf.chunks(NC)) {
                for (panel, cols) in slab.chunks_exact_mut(kc * NR).zip(block.chunks(NR)) {
                    panel[step * NR..][..cols.len()].copy_from_slice(cols);
                }
            }
        }
        PackedMatrixF32 { k, n, slabs }
    }

    /// Reduction-dimension length (`k`).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column count (`n`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Slab `idx` in `(p0 outer, j0 inner)` traversal order.
    pub(crate) fn slab(&self, idx: usize) -> &[f32] {
        &self.slabs[idx]
    }
}

/// Added to every stored weight of a [`PackedMatrixI8`] so the panel
/// bytes are unsigned: the stored byte is `b + 128`, and a dot product
/// over stored bytes exceeds the signed one by `128 · Σ a` — which the
/// drivers subtract once per output row (the `bias · Σ aq` identity of
/// the [`super::lut`] epilogue, at `BITS = 8`).
const I8_OFFSET: i32 = 128;

/// What a dot product of activation row `a_row` over stored panel bytes
/// exceeds the signed one by: `128 · Σ a`. Fits `i32` for any
/// `K ≤ 2^16`.
pub(super) fn i8_offset_correction(a_row: &[i8]) -> i32 {
    I8_OFFSET * a_row.iter().map(|&v| i32::from(v)).sum::<i32>()
}

/// A `k × n` i8 right-hand operand packed **once** for repeated use, at
/// one byte per weight.
///
/// One layout serves both shape classes: `ceil(n / NR)` column panels,
/// each the full K deep (the integer path never blocks K — see the
/// [`super`] docs) and `NR` bytes wide, holding `b + 128` as `u8`. The
/// tile loop hands a panel to the microkernel as is; the decode GEMV
/// dots it in place. K is padded to a multiple of 4 (the GEMV walks four
/// positions per step, so it needs no tail) and N to a whole panel;
/// every padding byte is the offset zero, 128, so equal matrices pack to
/// equal values and a padded position contributes `0 · 128`.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrixI8 {
    k: usize,
    n: usize,
    /// `panels[pj * k_pad * NR ..]` is column panel `pj`, K-major.
    panels: Vec<u8>,
}

impl PackedMatrixI8 {
    /// Packs a row-major `k × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn pack(b: &[i8], k: usize, n: usize) -> Self {
        Self::pack_blocks(&ColumnBlocks::whole(b, k, n))
    }

    /// Packs the matrix view of a tensor.
    #[must_use]
    pub fn from_tensor(b: &crate::Tensor<i8>) -> Self {
        let (k, n) = b.matrix_dims();
        Self::pack(b.as_slice(), k, n)
    }

    /// Packs the matrix views of `blocks` laid side by side without
    /// building the `[k, Σ n_i]` matrix; see
    /// [`PackedMatrixF32::from_blocks`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`](crate::Error::ShapeMismatch) if
    /// the blocks disagree on `k`.
    pub fn from_blocks(blocks: &[&crate::Tensor<i8>]) -> crate::Result<Self> {
        Ok(Self::pack_blocks(&ColumnBlocks::side_by_side(blocks)?))
    }

    fn pack_blocks(b: &ColumnBlocks<'_, i8>) -> Self {
        let (k, n) = (b.k, b.n);
        note_pack_b();
        let k_pad = k.next_multiple_of(4);
        let mut panels = Vec::with_capacity(n.div_ceil(NR) * k_pad * NR);
        let mut row = [0i8; NR];
        for c0 in (0..n).step_by(NR) {
            let cols = NR.min(n - c0);
            for p in 0..k {
                b.read_row(p, c0, &mut row[..cols]);
                panels.extend(
                    row[..cols]
                        .iter()
                        .map(|&x| (i32::from(x) + I8_OFFSET) as u8),
                );
                panels.extend(std::iter::repeat_n(I8_OFFSET as u8, NR - cols));
            }
            panels.extend(std::iter::repeat_n(I8_OFFSET as u8, (k_pad - k) * NR));
        }
        PackedMatrixI8 { k, n, panels }
    }

    /// Reduction-dimension length (`k`).
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output-column count (`n`).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Bytes of weight storage held: `ceil4(k) · ceil16(n)`, one per
    /// (padded) weight and nothing else.
    #[must_use]
    pub fn resident_bytes(&self) -> usize {
        self.panels.len()
    }

    /// Copies weight row `r` (all `n` columns of reduction position `r`)
    /// out of the panels, undoing the offset: the one reader of the
    /// stored bytes besides the kernels, and the i8 twin of
    /// [`super::lut::PackedLut::code_at`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= k` or `out.len() != n`.
    pub fn copy_row(&self, r: usize, out: &mut [i8]) {
        assert!(r < self.k, "row {r} out of range for k = {}", self.k);
        assert_eq!(out.len(), self.n, "row buffer length mismatch");
        let panel_len = self.k_pad() * NR;
        for (pj, dst) in out.chunks_mut(NR).enumerate() {
            let src = &self.panels[pj * panel_len + r * NR..][..dst.len()];
            for (d, &byte) in dst.iter_mut().zip(src) {
                *d = (i32::from(byte) - I8_OFFSET) as i8;
            }
        }
    }

    /// `k` rounded up to the GEMV walker's step of 4: the depth of every
    /// panel.
    pub(crate) fn k_pad(&self) -> usize {
        self.k.next_multiple_of(4)
    }

    /// Column panel `pj`: `k_pad × NR` offset bytes, K-major.
    pub(crate) fn panel(&self, pj: usize) -> &[u8] {
        let len = self.k_pad() * NR;
        &self.panels[pj * len..(pj + 1) * len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_panels_are_k_major_with_padding() {
        // 3x2 block of a 4x4 matrix starting at (1, 1): rows 1..4, cols 1..3.
        let a: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let mut out = Vec::new();
        pack_a_f32(&a, 4, 1, 1, 3, 2, &mut out);
        assert_eq!(out.len(), MR * 2);
        // k step 0 holds column 1 of rows 1..4 then zero padding.
        assert_eq!(&out[0..4], &[5.0, 9.0, 13.0, 0.0]);
        assert!(out[3..MR].iter().all(|&x| x == 0.0));
        // k step 1 holds column 2.
        assert_eq!(&out[MR..MR + 3], &[6.0, 10.0, 14.0]);
    }

    #[test]
    fn b_panels_are_k_major_with_padding() {
        // 2x3 block of a 4x4 matrix starting at (1, 1).
        let b: Vec<f32> = (0..16).map(|x| x as f32).collect();
        let mut out = Vec::new();
        pack_b_f32(&b, 4, 1, 1, 2, 3, &mut out);
        assert_eq!(out.len(), NR * 2);
        assert_eq!(&out[0..3], &[5.0, 6.0, 7.0]);
        assert!(out[3..NR].iter().all(|&x| x == 0.0));
        assert_eq!(&out[NR..NR + 3], &[9.0, 10.0, 11.0]);
    }

    #[test]
    fn i8_a_panels_are_k_quads_with_padding() {
        // 2x5 block of a 3x6 matrix starting at (1, 1): K pads to 8.
        let a: Vec<i8> = (0..18).map(|x| x as i8 - 9).collect();
        let mut out = Vec::new();
        pack_a_i8(&a, 6, 1, 1, 2, 5, &mut out);
        assert_eq!(out.len(), 8 * MR);
        // Quad 0: row 0 = a[1][1..5], row 1 = a[2][1..5], then zero rows.
        assert_eq!(&out[0..8], &[-2, -1, 0, 1, 4, 5, 6, 7]);
        assert!(out[8..4 * MR].iter().all(|&x| x == 0));
        // Quad 1: column 5 of each row, then K padding.
        assert_eq!(&out[4 * MR..4 * MR + 8], &[2, 0, 0, 0, 8, 0, 0, 0]);
        assert!(out[4 * MR + 8..].iter().all(|&x| x == 0));
        // The extremes survive unchanged.
        pack_a_i8(&[-128, 127], 2, 0, 0, 1, 2, &mut out);
        assert_eq!(&out[..4], &[-128, 127, 0, 0]);
    }

    #[test]
    fn pack_buffer_reuse_across_shrinking_slabs_leaves_no_stale_data() {
        // Regression guard: packing a *smaller* block into a buffer that
        // previously held a larger one must produce exactly what a fresh
        // buffer would — same length, same contents, no stale tail.
        let a: Vec<f32> = (0..64 * 64).map(|x| x as f32).collect();
        let mut reused = Vec::new();
        pack_a_f32(&a, 64, 0, 0, 40, 60, &mut reused); // large first
        pack_a_f32(&a, 64, 3, 5, 7, 9, &mut reused); // then small
        let mut fresh = Vec::new();
        pack_a_f32(&a, 64, 3, 5, 7, 9, &mut fresh);
        assert_eq!(reused, fresh);

        let mut reused_b = Vec::new();
        pack_b_f32(&a, 64, 0, 0, 60, 40, &mut reused_b);
        pack_b_f32(&a, 64, 2, 1, 5, 11, &mut reused_b);
        let mut fresh_b = Vec::new();
        pack_b_f32(&a, 64, 2, 1, 5, 11, &mut fresh_b);
        assert_eq!(reused_b, fresh_b);

        let ai: Vec<i8> = (0..32 * 32).map(|x| (x % 251) as i8).collect();
        let mut reused_ai = Vec::new();
        pack_a_i8(&ai, 32, 0, 0, 30, 30, &mut reused_ai);
        pack_a_i8(&ai, 32, 4, 1, 2, 6, &mut reused_ai);
        let mut fresh_ai = Vec::new();
        pack_a_i8(&ai, 32, 4, 1, 2, 6, &mut fresh_ai);
        assert_eq!(reused_ai, fresh_ai);
    }

    #[test]
    fn packed_matrix_slabs_match_per_call_packing() {
        // Ragged in both K and N relative to KC/NC and NR.
        let k = KC + 37;
        let n = NC + 21;
        let b: Vec<f32> = (0..k * n).map(|x| ((x * 7 + 3) % 101) as f32).collect();
        let pm = PackedMatrixF32::pack(&b, k, n);
        assert_eq!(pm.k(), k);
        assert_eq!(pm.n(), n);
        // Slab order: p0 outer, j0 inner.
        let mut idx = 0;
        let mut want = Vec::new();
        for p0 in [0, KC] {
            let kc = KC.min(k - p0);
            for j0 in [0, NC] {
                let nc = NC.min(n - j0);
                pack_b_f32(&b, n, p0, j0, kc, nc, &mut want);
                assert_eq!(pm.slab(idx), &want[..], "slab {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn row_source_packing_matches_packing_the_row_major_matrix() {
        // K and N on both sides of KC = 512, NC = 1024 and NR = 16,
        // up to the LM head's 4096 columns.
        let value = |p: usize, j: usize| ((p * 131 + j * 7) % 251) as f32 - 125.0;
        for k in [1, 511, 512, 513, 1376] {
            for n in [1, 15, 16, 17, 1023, 1025, 4096] {
                let mut order = Vec::new();
                let streamed = PackedMatrixF32::from_rows(k, n, |p, row| {
                    order.push(p);
                    for (j, x) in row.iter_mut().enumerate() {
                        *x = value(p, j);
                    }
                });
                assert!(order.iter().copied().eq(0..k), "rows once, in order");
                let b: Vec<f32> = (0..k * n).map(|i| value(i / n, i % n)).collect();
                assert_eq!(streamed, PackedMatrixF32::pack(&b, k, n), "{k} × {n}");
                // And slab by slab against the per-call packer.
                let mut want = Vec::new();
                let mut idx = 0;
                for p0 in (0..k).step_by(KC) {
                    for j0 in (0..n).step_by(NC) {
                        pack_b_f32(&b, n, p0, j0, KC.min(k - p0), NC.min(n - j0), &mut want);
                        assert_eq!(streamed.slab(idx), &want[..], "{k} × {n} slab {idx}");
                        idx += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn packed_i8_panels_are_full_k_offset_bytes() {
        let k = 5; // pads to 8
        let n = NR + 3; // one ragged panel
        let mut b: Vec<i8> = (0..k * n)
            .map(|x| ((x * 11 + 1) % 256) as u8 as i8)
            .collect();
        (b[3], b[n + 1]) = (-128, 127);
        let pm = PackedMatrixI8::pack(&b, k, n);
        assert_eq!(pm.k_pad(), 8);
        assert_eq!(pm.resident_bytes(), 8 * 2 * NR);
        for pj in 0..2 {
            let panel = pm.panel(pj);
            assert_eq!(panel.len(), 8 * NR);
            for (p, row) in panel.chunks_exact(NR).enumerate() {
                for (l, &byte) in row.iter().enumerate() {
                    let col = pj * NR + l;
                    let want = if p < k && col < n {
                        (i32::from(b[p * n + col]) + 128) as u8
                    } else {
                        128
                    };
                    assert_eq!(byte, want, "panel {pj} row {p} lane {l}");
                }
            }
        }
        assert_eq!(pm, PackedMatrixI8::pack(&b, k, n));
    }

    #[test]
    fn pack_b_counter_counts_b_side_packs_only() {
        let before = pack_b_calls();
        let b: Vec<f32> = vec![1.0; 12];
        let mut out = Vec::new();
        pack_b_f32(&b, 4, 0, 0, 3, 4, &mut out);
        let mut a_out = Vec::new();
        pack_a_f32(&b, 4, 0, 0, 3, 3, &mut a_out);
        assert_eq!(pack_b_calls(), before + 1);
        let _pm = PackedMatrixF32::pack(&b, 3, 4);
        assert_eq!(pack_b_calls(), before + 2);
    }
}
