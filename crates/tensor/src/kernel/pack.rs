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
//! padded lanes. Integer operands are widened to `i16` during packing so
//! the microkernel multiplies without per-element conversions (every
//! `i8` value is exactly representable in `i16`, so this loses nothing).
//!
//! # Persistent packing: [`PackedMatrixF32`] / [`PackedMatrixI8`]
//!
//! The per-call packers above copy a B block on **every** driver
//! invocation. For weights — which never change between forward passes —
//! that work can be done exactly once: a `PackedMatrix` owns the complete
//! panel-ordered slab sequence the blocked driver would otherwise rebuild
//! per call (keyed by the driver's `KC`/`NC` blocking so the slab contents
//! are byte-identical to the per-call path), plus a transposed copy of B
//! for the decode GEMV, whose per-output-column dot products want the K
//! dimension contiguous. The `*_prepacked` drivers in [`super`] consume
//! these and never touch the per-call packers.
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
//! ([`with_a_scratch_f32`] / [`with_a_scratch_i16`]) that the tiled
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
    static A_SCRATCH_I16: RefCell<Vec<i16>> = const { RefCell::new(Vec::new()) };
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

/// Hands `f` this thread's persistent i16 A-panel buffer.
pub fn with_a_scratch_i16<R>(f: impl FnOnce(&mut Vec<i16>) -> R) -> R {
    with_a_scratch(&A_SCRATCH_I16, f)
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
    pack_a_with(a, lda, row0, col0, mc, kc, |x| x, out);
}

/// Packs an `mc × kc` block of an `i8` matrix into `MR`-row panels,
/// widening to `i16`.
pub fn pack_a_i8(
    a: &[i8],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    out: &mut Vec<i16>,
) {
    pack_a_with(a, lda, row0, col0, mc, kc, i16::from, out);
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
    pack_b_with(b, ldb, row0, col0, kc, nc, |x| x, out);
}

/// Packs a `kc × nc` block of an `i8` matrix into `NR`-column panels,
/// widening to `i16`.
pub fn pack_b_i8(
    b: &[i8],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    out: &mut Vec<i16>,
) {
    pack_b_with(b, ldb, row0, col0, kc, nc, i16::from, out);
}

#[allow(clippy::too_many_arguments)] // BLAS-style packing signature
fn pack_a_with<TI: Copy, TO: Copy + Default>(
    a: &[TI],
    lda: usize,
    row0: usize,
    col0: usize,
    mc: usize,
    kc: usize,
    widen: impl Fn(TI) -> TO,
    out: &mut Vec<TO>,
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
                    widen(a[(r0 + r) * lda + col])
                } else {
                    TO::default()
                });
            }
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

#[allow(clippy::too_many_arguments)] // BLAS-style packing signature
fn pack_b_with<TI: Copy, TO: Copy + Default>(
    b: &[TI],
    ldb: usize,
    row0: usize,
    col0: usize,
    kc: usize,
    nc: usize,
    widen: impl Fn(TI) -> TO,
    out: &mut Vec<TO>,
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
            out.extend(b[base..base + cols].iter().map(|&x| widen(x)));
            out.extend(std::iter::repeat_n(TO::default(), NR - cols));
        }
    }
}

/// Transposes a row-major `k × n` matrix into a dense `n × k` buffer
/// (each output column of the product becomes one contiguous run).
fn transpose<T: Copy + Default>(b: &[T], k: usize, n: usize) -> Vec<T> {
    let mut bt = vec![T::default(); n * k];
    for p in 0..k {
        let row = &b[p * n..(p + 1) * n];
        for (j, &v) in row.iter().enumerate() {
            bt[j * k + p] = v;
        }
    }
    bt
}

/// A `k × n` f32 right-hand operand packed **once** for repeated use.
///
/// Holds the exact `KC × NC` slab sequence `super::gemm_f32` would build
/// per call — same blocking, same panel order, same zero padding, so the
/// prepacked driver is bit-identical to the per-call path. The decode
/// GEMV reads these same slabs (each `NR`-column panel already gives the
/// K loop unit-stride, SIMD-width column access, so a separate
/// transposed copy would add memory without adding speed — unlike the
/// integer case, where the panels are i16-widened and a 1-byte
/// transposed copy halves decode traffic). Built once at weight
/// load/quantization time; `forward()`-style callers then never pack.
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
        assert_eq!(b.len(), k * n, "rhs shape mismatch");
        let mut slabs = Vec::new();
        let mut p0 = 0;
        while p0 < k {
            let kc = KC.min(k - p0);
            let mut j0 = 0;
            while j0 < n {
                let nc = NC.min(n - j0);
                let mut slab = Vec::new();
                pack_b_f32(b, n, p0, j0, kc, nc, &mut slab);
                slabs.push(slab);
                j0 += nc;
            }
            p0 += kc;
        }
        PackedMatrixF32 { k, n, slabs }
    }

    /// Packs the matrix view of a tensor.
    #[must_use]
    pub fn from_tensor(b: &crate::Tensor<f32>) -> Self {
        let (k, n) = b.matrix_dims();
        Self::pack(b.as_slice(), k, n)
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

/// A `k × n` i8 right-hand operand packed **once** for repeated use.
///
/// Holds the full-K, i16-widened `NC`-column slab sequence the integer
/// tile loop walks (the integer path never blocks K — see the [`super`]
/// docs), plus a transposed (`n × k`) `i8` copy for
/// the decode GEMV. The transposed layout stays 1 byte per element
/// because decode is memory-bound: the GEMV widens in registers, unlike
/// the microkernel, which wants its operands pre-widened.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedMatrixI8 {
    k: usize,
    n: usize,
    /// Per-`j0` block slabs (full K, widened to `i16`), in `j0` order.
    slabs: Vec<Vec<i16>>,
    /// Transposed `n × k` copy for the column-partitioned GEMV.
    bt: Vec<i8>,
}

impl PackedMatrixI8 {
    /// Packs a row-major `k × n` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    #[must_use]
    pub fn pack(b: &[i8], k: usize, n: usize) -> Self {
        assert_eq!(b.len(), k * n, "rhs shape mismatch");
        let mut slabs = Vec::new();
        let mut j0 = 0;
        while j0 < n {
            let nc = NC.min(n - j0);
            let mut slab = Vec::new();
            pack_b_i8(b, n, 0, j0, k, nc, &mut slab);
            slabs.push(slab);
            j0 += nc;
        }
        PackedMatrixI8 {
            k,
            n,
            slabs,
            bt: transpose(b, k, n),
        }
    }

    /// Packs the matrix view of a tensor.
    #[must_use]
    pub fn from_tensor(b: &crate::Tensor<i8>) -> Self {
        let (k, n) = b.matrix_dims();
        Self::pack(b.as_slice(), k, n)
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

    /// Slab for the `idx`-th `NC`-column block.
    pub(crate) fn slab(&self, idx: usize) -> &[i16] {
        &self.slabs[idx]
    }

    /// The transposed `n × k` decode layout.
    pub(crate) fn bt(&self) -> &[i8] {
        &self.bt
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
    fn i8_packing_widens_exactly() {
        let a: Vec<i8> = vec![-128, 127, -1, 0];
        let mut out = Vec::new();
        pack_a_i8(&a, 2, 0, 0, 2, 2, &mut out);
        assert_eq!(out[0], -128i16);
        assert_eq!(out[1], -1i16);
        assert_eq!(out[MR], 127i16);
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
        let mut reused_i = Vec::new();
        pack_b_i8(&ai, 32, 0, 0, 30, 30, &mut reused_i);
        pack_b_i8(&ai, 32, 1, 2, 3, 4, &mut reused_i);
        let mut fresh_i = Vec::new();
        pack_b_i8(&ai, 32, 1, 2, 3, 4, &mut fresh_i);
        assert_eq!(reused_i, fresh_i);

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
    fn packed_i8_slabs_are_full_k_and_widened() {
        let k = 5;
        let n = NR + 3; // one ragged panel
        let b: Vec<i8> = (0..k * n).map(|x| ((x * 11 + 1) % 255) as i8).collect();
        let pm = PackedMatrixI8::pack(&b, k, n);
        let mut want = Vec::new();
        pack_b_i8(&b, n, 0, 0, k, n, &mut want);
        assert_eq!(pm.slab(0), &want[..]);
        assert_eq!(pm.bt()[2 * k], b[2]); // column 2, p = 0
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
