//! Matrix multiplication entry points.
//!
//! Eleven functions over the three data paths of the paper's Figure 5
//! (the third, after T-MAN, is this repo's sub-8-bit extension):
//!
//! * **float** (FP16 in the paper, f32 here; the extra precision only
//!   tightens the reference) — [`matmul_f32`] against a row-major
//!   right-hand side packed per call (dynamic operands: the
//!   dequantized-weight yardsticks), [`matmul_f32_prepacked`] against
//!   weights packed once (every float weight, the LM head included),
//!   [`matmul_f32_rows_prepacked`] for a batch of scattered decode rows,
//!   and the scalar [`matmul_f32_reference`];
//! * **W8A8 integer** (the NPU's native MatMul, §2.2 / Table 3) —
//!   [`matmul_i8_prepacked`] (raw `i32` accumulators),
//!   [`matmul_i8_fused_prepacked`] (the `MatMul → Dequantize` node pair
//!   in one pass, for every [`Epilogue`]), and the scalar
//!   [`matmul_i8_reference`]. Quantized weights are packed at
//!   construction, so there is no per-call integer path;
//! * **table lookup** (int4 / int2 group-quantized codes) —
//!   [`matmul_i4_prepacked`], [`matmul_i4_rows_prepacked`],
//!   [`matmul_i2_prepacked`], and the scalar [`matmul_lut_reference`]
//!   for either width.
//!
//! Every entry but the three references runs on the blocked, packed,
//! register-tiled kernels in [`crate::kernel`] and reports to the kernel
//! probe ([`kernel::probe`]) under its own site. The integer and LUT
//! kernels are **bit-exact** against their references (integer
//! accumulation is order-independent), and the f32 kernels are
//! reference-parity-tested to tight ULP bounds (blocking and FMA
//! contraction legitimately reorder float sums). Any thread count
//! produces bit-identical results (see [`crate::kernel`] on
//! determinism); `threads` only trades wall-clock for cores.
//!
//! All entries interpret tensors through their matrix view (leading dims
//! folded into rows), matching how linear layers consume `[batch, seq,
//! hid]` activations, and name themselves in the `op` field of the
//! errors they return.

use crate::kernel::lut::{PackedLut, PackedMatrixI2, PackedMatrixI4};
use crate::kernel::pack::{PackedMatrixF32, PackedMatrixI8};
use crate::kernel::{self, Epilogue};
use crate::{Error, Result, Tensor};

fn check_matmul(op: &'static str, lhs: (usize, usize), rhs: (usize, usize)) -> Result<()> {
    if lhs.1 != rhs.0 {
        return Err(Error::ShapeMismatch {
            op,
            lhs: vec![lhs.0, lhs.1],
            rhs: vec![rhs.0, rhs.1],
        });
    }
    Ok(())
}

/// The path every kernel-backed entry takes: check the inner dimension,
/// allocate the `[m, n]` output, and run `driver(out, threads)` under
/// the kernel probe at `site` — so no entry can skip the probe, the
/// host-aware thread cap, or the shape check.
fn run<T: Copy + Default>(
    op: &'static str,
    site: &'static str,
    lhs: (usize, usize),
    rhs: (usize, usize),
    threads: usize,
    driver: impl FnOnce(&mut [T], usize),
) -> Result<Tensor<T>> {
    check_matmul(op, lhs, rhs)?;
    let (m, k, n) = (lhs.0, lhs.1, rhs.1);
    let mut out = Tensor::zeros([m, n]);
    let threads = kernel::parallel::effective_threads(threads);
    kernel::probe::profiled(site, m, n, k, || driver(out.as_mut_slice(), threads));
    Ok(out)
}

/// Validates a decode batch (non-empty, every row `k` long) and stacks
/// its scattered rows into one `[B, k]` operand.
fn stack_rows(op: &'static str, rows: &[&[f32]], k: usize, n: usize) -> Result<Vec<f32>> {
    if rows.is_empty() {
        return Err(Error::InvalidDimension {
            op,
            what: "empty decode batch".to_owned(),
        });
    }
    if let Some(bad) = rows.iter().find(|r| r.len() != k) {
        return Err(Error::ShapeMismatch {
            op,
            lhs: vec![1, bad.len()],
            rhs: vec![k, n],
        });
    }
    Ok(rows.concat())
}

/// `C = A × B` over `f32` against a row-major B packed per call, on the
/// blocked kernel (single-threaded). A weight multiplied more than once
/// belongs in [`matmul_f32_prepacked`] instead.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use llmnpu_tensor::{Tensor, gemm};
///
/// # fn main() -> Result<(), llmnpu_tensor::Error> {
/// let a = Tensor::from_vec(vec![1.0_f32, 2.0], [1, 2])?;
/// let b = Tensor::from_vec(vec![3.0_f32, 4.0], [2, 1])?;
/// let c = gemm::matmul_f32(&a, &b)?;
/// assert_eq!(c.as_slice(), &[11.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul_f32(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    let (m, k) = a.matrix_dims();
    let (k2, n) = b.matrix_dims();
    run("matmul_f32", "gemm.f32", (m, k), (k2, n), 1, |c, t| {
        kernel::gemm_f32(m, k, n, a.as_slice(), b.as_slice(), c, t);
    })
}

/// Scalar reference for [`matmul_f32`]: the plain triple loop, kept for
/// parity tests and benchmark baselines.
///
/// Unlike the seed implementation, this no longer skips `a[i][p] == 0.0`
/// terms: the skip silently suppressed NaN/Inf propagation from the B
/// operand (`0.0 * inf` is NaN, not zero) and made benchmarks on sparse
/// activations measure a different amount of work than dense ones.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_f32_reference(a: &Tensor<f32>, b: &Tensor<f32>) -> Result<Tensor<f32>> {
    let (m, k) = a.matrix_dims();
    let (k2, n) = b.matrix_dims();
    check_matmul("matmul_f32_reference", (m, k), (k2, n))?;
    let mut out = Tensor::zeros([m, n]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate() {
            let b_row = &b_data[p * n..(p + 1) * n];
            for (j, &b_pj) in b_row.iter().enumerate() {
                out_row[j] += a_ip * b_pj;
            }
        }
    }
    Ok(out)
}

/// `C = A × B` over `f32` against a weight matrix packed **once** in a
/// [`PackedMatrixF32`] (see `kernel::pack`): the per-call weight packing
/// of [`matmul_f32`] disappears, and `m ≤ 2` decode inputs run the
/// N-partitioned panel-walking GEMV. Bit-identical to [`matmul_f32`]
/// for any thread count.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k`.
pub fn matmul_f32_prepacked(
    a: &Tensor<f32>,
    b: &PackedMatrixF32,
    threads: usize,
) -> Result<Tensor<f32>> {
    const OP: &str = "matmul_f32_prepacked";
    let (lhs, rhs) = (a.matrix_dims(), (b.k(), b.n()));
    run(OP, "gemm.f32.prepacked", lhs, rhs, threads, |c, t| {
        kernel::gemm_f32_prepacked(lhs.0, a.as_slice(), b, c, t);
    })
}

/// The **batched-decode driver**: stacks B scattered activation rows
/// (one per concurrently decoding request — they live in per-request
/// state, not one contiguous tensor) into a single `[B, k]` operand and
/// runs **one** `m = B` GEMM against the prepacked weights, instead of B
/// separate `m = 1` GEMVs that each stream the whole weight matrix.
///
/// Row `i` of the result is bit-identical to
/// `matmul_f32_prepacked(rows[i], b)` run alone: output rows of the
/// blocked kernel are independent, and the accumulation order within a
/// row is fixed by the K blocking, not by `m`. Decode throughput is
/// where the win lives — the weights stream through memory once per
/// *batch* rather than once per *request* (`BENCH_kernels.json`'s
/// `batched_decode` section tracks the ratio).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if any row's length differs from the
/// packed matrix's `k`, or [`Error::InvalidDimension`] on an empty
/// batch.
pub fn matmul_f32_rows_prepacked(
    rows: &[&[f32]],
    b: &PackedMatrixF32,
    threads: usize,
) -> Result<Tensor<f32>> {
    const OP: &str = "matmul_f32_rows_prepacked";
    let (m, k, n) = (rows.len(), b.k(), b.n());
    let stacked = stack_rows(OP, rows, k, n)?;
    if m == 1 {
        // A batch of one is just a decode GEMV — keep its latency path.
        return matmul_f32_prepacked(&Tensor::from_vec(stacked, [1, k])?, b, threads);
    }
    // Force the tiled path even at B = 2: the point of stacking is one
    // weight stream per batch, which the m ≤ 2 GEMV fallback of
    // `matmul_f32_prepacked` (row-at-a-time slab walk) would forfeit.
    run(OP, "gemv.f32.rows", (m, k), (k, n), threads, |c, t| {
        kernel::gemm_f32_prepacked_batched(m, &stacked, b, c, t);
    })
}

/// Integer `C = A × B` with `i8` inputs and `i32` accumulation, against
/// a weight matrix packed **once** in a [`PackedMatrixI8`] (one byte
/// per weight, one layout for prefill and decode).
///
/// This is the per-tensor W8A8 MatMul the mobile NPU executes natively
/// (paper §2.2, Table 3). No saturation occurs: `i32` accumulation is
/// exact for any `K ≤ 2^16` with `i8` operands (the bound the kernel's
/// offset operand needs — see [`crate::kernel`]), which also makes the
/// blocked kernel bit-exact against [`matmul_i8_reference`].
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k`.
pub fn matmul_i8_prepacked(
    a: &Tensor<i8>,
    b: &PackedMatrixI8,
    threads: usize,
) -> Result<Tensor<i32>> {
    const OP: &str = "matmul_i8_prepacked";
    let (lhs, rhs) = (a.matrix_dims(), (b.k(), b.n()));
    run(OP, "gemm.i8.prepacked", lhs, rhs, threads, |c, t| {
        kernel::gemm_i8_prepacked(lhs.0, a.as_slice(), b, c, t);
    })
}

/// Scalar reference for [`matmul_i8_prepacked`] over the unpacked
/// row-major weight: the plain triple loop, kept for bit-exactness tests
/// and benchmark baselines.
///
/// The `a[i][p] == 0` skip survives *here* (and only here): for integers
/// a zero term contributes exactly nothing, so skipping is a pure
/// shortcut with no observable effect — unlike the float case.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if the inner dimensions disagree.
pub fn matmul_i8_reference(a: &Tensor<i8>, b: &Tensor<i8>) -> Result<Tensor<i32>> {
    let (m, k) = a.matrix_dims();
    let (k2, n) = b.matrix_dims();
    check_matmul("matmul_i8_reference", (m, k), (k2, n))?;
    let mut out = Tensor::zeros([m, n]);
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    for i in 0..m {
        let a_row = &a_data[i * k..(i + 1) * k];
        let out_row = out.row_mut(i);
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0 {
                continue;
            }
            let a_ip = i32::from(a_ip);
            let b_row = &b_data[p * n..(p + 1) * n];
            for (j, &b_pj) in b_row.iter().enumerate() {
                out_row[j] += a_ip * i32::from(b_pj);
            }
        }
    }
    Ok(out)
}

/// Integer matmul with the dequantization fused into the kernel
/// epilogue, written into `out`: the `MatMul → Dequantize` pair of
/// Figure 5 in a single pass, the rescale running while each `i32` tile
/// is still in registers, with no intermediate `i32` tensor.
///
/// `epilogue` selects the rescale — per-tensor (`PerTensor`, the W8A8
/// and SmoothQuant layers), per-tensor accumulating into `out`'s
/// existing values (`PerTensorAcc`, the per-group reduction),
/// per-output-channel (`PerChannel`, the shadow-outlier main path) or
/// vector-wise (`PerRow`, LLM.int8()); the other three overwrite `out`.
/// Each is bit-identical to its float expression (see [`Epilogue`])
/// applied to [`matmul_i8_prepacked`]'s output, for any thread count.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k` or `out` is not `[m, n]`, and
/// [`Error::InvalidDimension`] if an epilogue scale vector has the wrong
/// length (`n` weight scales, `m` row scales).
pub fn matmul_i8_fused_prepacked(
    out: &mut Tensor<f32>,
    a: &Tensor<i8>,
    b: &PackedMatrixI8,
    epilogue: Epilogue<'_>,
    threads: usize,
) -> Result<()> {
    const OP: &str = "matmul_i8_fused_prepacked";
    let (m, k) = a.matrix_dims();
    let n = b.n();
    check_matmul(OP, (m, k), (b.k(), n))?;
    if out.matrix_dims() != (m, n) {
        return Err(Error::ShapeMismatch {
            op: OP,
            lhs: vec![m, n],
            rhs: out.shape().dims().to_vec(),
        });
    }
    let wrong = |what: &str, got: usize, want: usize| Error::InvalidDimension {
        op: OP,
        what: format!("expected {want} {what} scales, got {got}"),
    };
    match epilogue {
        Epilogue::PerChannel { w_scales, .. } | Epilogue::PerRow { w_scales, .. }
            if w_scales.len() != n =>
        {
            return Err(wrong("weight", w_scales.len(), n));
        }
        Epilogue::PerRow { row_scales, .. } if row_scales.len() != m => {
            return Err(wrong("row", row_scales.len(), m));
        }
        _ => {}
    }
    let threads = kernel::parallel::effective_threads(threads);
    kernel::probe::profiled("gemm.i8.fused.prepacked", m, n, k, || {
        kernel::gemm_i8_fused_prepacked(m, a.as_slice(), b, out.as_mut_slice(), epilogue, threads);
    });
    Ok(())
}

/// `C = dequant(A × B)` against a weight matrix quantized and packed
/// **once** in a [`PackedMatrixI4`] (4-bit table-lookup codes). `a` is
/// f32; the driver quantizes each activation row with one dynamic
/// max-min scale, runs the in-register LUT kernels, and dequantizes
/// through the fused per-group epilogue. Bit-exact vs
/// [`matmul_lut_reference`] for any thread count.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k`.
pub fn matmul_i4_prepacked(
    a: &Tensor<f32>,
    b: &PackedMatrixI4,
    threads: usize,
) -> Result<Tensor<f32>> {
    const OP: &str = "matmul_i4_prepacked";
    let (lhs, rhs) = (a.matrix_dims(), (b.k(), b.n()));
    run(OP, "lut.i4.prepacked", lhs, rhs, threads, |c, t| {
        kernel::lut::gemm_lut(lhs.0, a.as_slice(), b, c, t);
    })
}

/// The **batched-decode driver** over 4-bit LUT weights: stacks B
/// scattered activation rows into one `[B, k]` operand and runs a single
/// cohort GEMM, so the packed codes stream through memory once per
/// *batch*. Row `i` is bit-identical to [`matmul_i4_prepacked`] on that
/// row alone (the LUT driver's accumulation order per row is independent
/// of the cohort size).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if any row's length differs from the
/// packed matrix's `k`, or [`Error::InvalidDimension`] on an empty
/// batch.
pub fn matmul_i4_rows_prepacked(
    rows: &[&[f32]],
    b: &PackedMatrixI4,
    threads: usize,
) -> Result<Tensor<f32>> {
    const OP: &str = "matmul_i4_rows_prepacked";
    let (m, k, n) = (rows.len(), b.k(), b.n());
    let stacked = stack_rows(OP, rows, k, n)?;
    run(OP, "lut.i4.rows", (m, k), (k, n), threads, |c, t| {
        kernel::lut::gemm_lut(m, &stacked, b, c, t);
    })
}

/// [`matmul_i4_prepacked`] over 2-bit codes ([`PackedMatrixI2`]): a
/// quarter of the i8 decode bytes, ternary weights.
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k`.
pub fn matmul_i2_prepacked(
    a: &Tensor<f32>,
    b: &PackedMatrixI2,
    threads: usize,
) -> Result<Tensor<f32>> {
    const OP: &str = "matmul_i2_prepacked";
    let (lhs, rhs) = (a.matrix_dims(), (b.k(), b.n()));
    run(OP, "lut.i2.prepacked", lhs, rhs, threads, |c, t| {
        kernel::lut::gemm_lut(lhs.0, a.as_slice(), b, c, t);
    })
}

/// The scalar LUT **reference** for either code width (`BITS` is
/// inferred from the packed operand): materializes every partial-sum
/// table and resolves codes by actual lookup. Ground truth for
/// [`matmul_i4_prepacked`] and [`matmul_i2_prepacked`].
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if `a`'s inner dimension differs
/// from the packed matrix's `k`.
pub fn matmul_lut_reference<const BITS: usize>(
    a: &Tensor<f32>,
    b: &PackedLut<BITS>,
) -> Result<Tensor<f32>> {
    let (m, k) = a.matrix_dims();
    check_matmul("matmul_lut_reference", (m, k), (b.k(), b.n()))?;
    let mut out = Tensor::zeros([m, b.n()]);
    kernel::lut::gemm_lut_reference(m, a.as_slice(), b, out.as_mut_slice());
    Ok(out)
}

/// Adds `delta` into `acc` elementwise (the merge step of shadow outlier
/// execution, Equation 1: NPU partial result + CPU outlier partial
/// result).
///
/// # Errors
///
/// Returns [`Error::ShapeMismatch`] if shapes differ.
pub fn accumulate(acc: &mut Tensor<f32>, delta: &Tensor<f32>) -> Result<()> {
    if acc.shape() != delta.shape() {
        return Err(Error::ShapeMismatch {
            op: "accumulate",
            lhs: acc.shape().dims().to_vec(),
            rhs: delta.shape().dims().to_vec(),
        });
    }
    for (a, &d) in acc.as_mut_slice().iter_mut().zip(delta.as_slice()) {
        *a += d;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_f32(data: &[f32], shape: [usize; 2]) -> Tensor<f32> {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    fn tensor_i8(data: &[i8], shape: [usize; 2]) -> Tensor<i8> {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    fn packed_i8(data: &[i8], shape: [usize; 2]) -> PackedMatrixI8 {
        PackedMatrixI8::from_tensor(&tensor_i8(data, shape))
    }

    /// The fused entry into a fresh zero tensor.
    fn fused(a: &Tensor<i8>, b: &PackedMatrixI8, epilogue: Epilogue<'_>) -> Result<Tensor<f32>> {
        let mut out = Tensor::zeros([a.matrix_dims().0, b.n()]);
        matmul_i8_fused_prepacked(&mut out, a, b, epilogue, 1)?;
        Ok(out)
    }

    #[test]
    fn f32_identity() {
        let a = tensor_f32(&[1.0, 2.0, 3.0, 4.0], [2, 2]);
        let c = matmul_f32(&a, &Tensor::eye(2)).unwrap();
        assert_eq!(c.as_slice(), a.as_slice());
    }

    #[test]
    fn f32_known_product() {
        let a = tensor_f32(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let b = tensor_f32(&[7.0, 8.0, 9.0, 10.0, 11.0, 12.0], [3, 2]);
        let c = matmul_f32(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn every_entry_names_itself_in_its_errors() {
        // Every left-hand side has k = 3, every right-hand side k = 4.
        let a = Tensor::<f32>::zeros([2, 3]);
        let ai = Tensor::<i8>::zeros([2, 3]);
        let b = Tensor::<f32>::zeros([4, 2]);
        let bi = Tensor::<i8>::zeros([4, 2]);
        let pf = PackedMatrixF32::from_tensor(&b);
        let pi = PackedMatrixI8::from_tensor(&bi);
        let p4 = PackedMatrixI4::from_tensor(&b, 4);
        let p2 = PackedMatrixI2::from_tensor(&b, 4);
        let row = [0.0f32; 3];
        let rows = [&row[..], &row[..]];
        let mut out = Tensor::zeros([2, 2]);
        let per_tensor = Epilogue::PerTensor { scale: 1.0 };
        let cases = [
            ("matmul_f32", matmul_f32(&a, &b).unwrap_err()),
            (
                "matmul_f32_reference",
                matmul_f32_reference(&a, &b).unwrap_err(),
            ),
            (
                "matmul_f32_prepacked",
                matmul_f32_prepacked(&a, &pf, 1).unwrap_err(),
            ),
            (
                "matmul_f32_prepacked",
                matmul_f32_prepacked(&a, &pf, 2).unwrap_err(),
            ),
            (
                "matmul_f32_rows_prepacked",
                matmul_f32_rows_prepacked(&rows, &pf, 1).unwrap_err(),
            ),
            (
                "matmul_f32_rows_prepacked",
                matmul_f32_rows_prepacked(&[], &pf, 1).unwrap_err(),
            ),
            (
                "matmul_i8_prepacked",
                matmul_i8_prepacked(&ai, &pi, 1).unwrap_err(),
            ),
            (
                "matmul_i8_reference",
                matmul_i8_reference(&ai, &bi).unwrap_err(),
            ),
            (
                "matmul_i8_fused_prepacked",
                matmul_i8_fused_prepacked(&mut out, &ai, &pi, per_tensor, 1).unwrap_err(),
            ),
            (
                "matmul_i4_prepacked",
                matmul_i4_prepacked(&a, &p4, 1).unwrap_err(),
            ),
            (
                "matmul_i4_rows_prepacked",
                matmul_i4_rows_prepacked(&rows, &p4, 1).unwrap_err(),
            ),
            (
                "matmul_i4_rows_prepacked",
                matmul_i4_rows_prepacked(&[], &p4, 1).unwrap_err(),
            ),
            (
                "matmul_i2_prepacked",
                matmul_i2_prepacked(&a, &p2, 1).unwrap_err(),
            ),
            (
                "matmul_lut_reference",
                matmul_lut_reference(&a, &p4).unwrap_err(),
            ),
            (
                "matmul_lut_reference",
                matmul_lut_reference(&a, &p2).unwrap_err(),
            ),
        ];
        for (entry, err) in cases {
            let (Error::ShapeMismatch { op, .. } | Error::InvalidDimension { op, .. }) = err else {
                panic!("{entry}: unexpected error {err:?}");
            };
            assert_eq!(op, entry);
        }
    }

    #[test]
    fn f32_propagates_nan_from_b_through_zero_activations() {
        // The seed's zero-skip used to hide this: 0.0 * inf must be NaN.
        let a = tensor_f32(&[0.0, 0.0], [1, 2]);
        let b = tensor_f32(&[f32::INFINITY, 1.0], [2, 1]);
        let c = matmul_f32_reference(&a, &b).unwrap();
        assert!(c.as_slice()[0].is_nan());
        let c_blocked = matmul_f32(&a, &b).unwrap();
        assert!(c_blocked.as_slice()[0].is_nan());
    }

    #[test]
    fn i8_matches_f32_on_small_values() {
        let a_i = tensor_i8(&[1, -2, 3, 4, 5, -6], [2, 3]);
        let b_i = tensor_i8(&[7, 8, -9, 10, 11, 12], [3, 2]);
        let c_i = matmul_i8_prepacked(&a_i, &PackedMatrixI8::from_tensor(&b_i), 1).unwrap();

        let a_f = a_i.map(f32::from);
        let b_f = b_i.map(f32::from);
        let c_f = matmul_f32(&a_f, &b_f).unwrap();
        for (ci, cf) in c_i.as_slice().iter().zip(c_f.as_slice()) {
            assert_eq!(*ci as f32, *cf);
        }
    }

    #[test]
    fn i8_extreme_values_do_not_overflow() {
        // K=1024 of -128*-128 = 16.7M per element; i32 holds it easily.
        let a = Tensor::full(-128i8, [1, 1024]);
        let b = Tensor::full(-128i8, [1024, 1]);
        let c = matmul_i8_prepacked(&a, &PackedMatrixI8::from_tensor(&b), 1).unwrap();
        assert_eq!(c.as_slice(), &[128 * 128 * 1024]);
        let c_ref = matmul_i8_reference(&a, &b).unwrap();
        assert_eq!(c.as_slice(), c_ref.as_slice());
    }

    #[test]
    fn fused_per_tensor_dequantizes() {
        let a = tensor_i8(&[2, 4], [1, 2]);
        let b = packed_i8(&[3, 5], [2, 1]);
        let c = fused(&a, &b, Epilogue::PerTensor { scale: 0.5 * 0.1 }).unwrap();
        assert!((c.as_slice()[0] - (26.0 * 0.05)).abs() < 1e-6);
    }

    #[test]
    fn fused_per_tensor_acc_accumulates_like_two_pass() {
        let a = tensor_i8(&[2, 4, -1, 7], [2, 2]);
        let b = packed_i8(&[3, 5, 1, -2], [2, 2]);
        let scale = 0.5 * 0.1;
        let mut acc = tensor_f32(&[1.0, -2.0, 0.5, 3.0], [2, 2]);
        matmul_i8_fused_prepacked(&mut acc, &a, &b, Epilogue::PerTensorAcc { scale }, 1).unwrap();

        let mut two_pass = tensor_f32(&[1.0, -2.0, 0.5, 3.0], [2, 2]);
        let partial = fused(&a, &b, Epilogue::PerTensor { scale }).unwrap();
        accumulate(&mut two_pass, &partial).unwrap();
        assert_eq!(acc.as_slice(), two_pass.as_slice());

        // The overwriting epilogues ignore what `out` held.
        matmul_i8_fused_prepacked(&mut acc, &a, &b, Epilogue::PerTensor { scale }, 1).unwrap();
        assert_eq!(acc.as_slice(), partial.as_slice());

        let mut wrong_shape = Tensor::zeros([1, 2]);
        let err =
            matmul_i8_fused_prepacked(&mut wrong_shape, &a, &b, Epilogue::PerTensor { scale }, 1);
        assert!(matches!(err, Err(Error::ShapeMismatch { .. })));
    }

    #[test]
    fn fused_per_channel_scales_apply_by_column() {
        let a = tensor_i8(&[1, 1], [1, 2]);
        let b = packed_i8(&[1, 2, 3, 4], [2, 2]);
        let per_channel = |w_scales| Epilogue::PerChannel {
            a_scale: 1.0,
            w_scales,
        };
        let c = fused(&a, &b, per_channel(&[10.0, 100.0])).unwrap();
        assert_eq!(c.as_slice(), &[40.0, 600.0]);
        assert!(matches!(
            fused(&a, &b, per_channel(&[1.0])),
            Err(Error::InvalidDimension { .. })
        ));
    }

    #[test]
    fn fused_per_row_scales_apply_by_row_and_column() {
        let a = tensor_i8(&[1, 0, 0, 1], [2, 2]);
        let b = packed_i8(&[1, 2, 3, 4], [2, 2]);
        let per_row = |row_scales, w_scales| Epilogue::PerRow {
            row_scales,
            w_scales,
        };
        let c = fused(&a, &b, per_row(&[1.0, 10.0], &[1.0, 0.5])).unwrap();
        assert_eq!(c.as_slice(), &[1.0, 1.0, 30.0, 20.0]);
        for bad in [per_row(&[1.0], &[1.0, 1.0]), per_row(&[1.0, 1.0], &[1.0])] {
            assert!(matches!(
                fused(&a, &b, bad),
                Err(Error::InvalidDimension { .. })
            ));
        }
    }

    #[test]
    fn accumulate_adds_elementwise() {
        let mut acc = tensor_f32(&[1.0, 2.0], [1, 2]);
        let delta = tensor_f32(&[0.5, -1.0], [1, 2]);
        accumulate(&mut acc, &delta).unwrap();
        assert_eq!(acc.as_slice(), &[1.5, 1.0]);
        assert!(accumulate(&mut acc, &Tensor::zeros([2, 1])).is_err());
    }

    #[test]
    fn batched_lhs_folds_rows() {
        // [2, 2, 3] activations × [3, 2] weights = [4, 2] output.
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), [2, 2, 3]).unwrap();
        let b = tensor_f32(&[1.0, 0.0, 0.0, 1.0, 0.0, 0.0], [3, 2]);
        let c = matmul_f32(&a, &b).unwrap();
        assert_eq!(c.shape().dims(), &[4, 2]);
        assert_eq!(c.row(0), &[0.0, 1.0]);
        assert_eq!(c.row(3), &[9.0, 10.0]);
    }

    #[test]
    fn batched_decode_rows_match_solo_gemvs_bitwise() {
        // The batched-decode driver: one m=B GEMM over scattered rows
        // must reproduce each row's solo GEMV exactly.
        let b = Tensor::from_vec(
            (0..64 * 24)
                .map(|x| ((x % 23) as f32 - 11.0) * 0.17)
                .collect(),
            [64, 24],
        )
        .unwrap();
        let packed = PackedMatrixF32::from_tensor(&b);
        let rows: Vec<Vec<f32>> = (0..5)
            .map(|i| (0..64).map(|j| ((i * 64 + j) % 19) as f32 - 9.0).collect())
            .collect();
        // B = 2 matters: the driver forces the tiled path there, where
        // the generic prepacked entry would fall back to the GEMV.
        for width in [1usize, 2, 5] {
            let row_refs: Vec<&[f32]> = rows[..width].iter().map(Vec::as_slice).collect();
            for threads in [1usize, 4] {
                let batched = matmul_f32_rows_prepacked(&row_refs, &packed, threads).unwrap();
                assert_eq!(batched.shape().dims(), &[width, 24]);
                for (i, row) in rows[..width].iter().enumerate() {
                    let a = Tensor::from_vec(row.clone(), [1, 64]).unwrap();
                    let solo = matmul_f32_prepacked(&a, &packed, threads).unwrap();
                    assert_eq!(
                        batched.row(i),
                        solo.row(0),
                        "row {i} of B={width} at {threads} threads"
                    );
                }
            }
        }
        // Validation.
        assert!(matmul_f32_rows_prepacked(&[], &packed, 1).is_err());
        let short = vec![0.0f32; 63];
        assert!(matmul_f32_rows_prepacked(&[short.as_slice()], &packed, 1).is_err());
    }

    #[test]
    fn threaded_variants_match_single_threaded() {
        // The tile drivers split the output into NR-aligned column bands:
        // at every tile height around the GEMV switch and the 8-row tile,
        // over n short of, at and past a panel and an NC block, any band
        // count is the one-band output bit for bit.
        for m in [3usize, 7, 8, 9, 16, 32, 33] {
            for (k, n) in [(40usize, 9usize), (40, 16), (70, 37), (40, 1041)] {
                let a = Tensor::from_vec(
                    (0..m * k).map(|x| ((x * 7) % 17) as f32 - 8.0).collect(),
                    [m, k],
                )
                .unwrap();
                let b = Tensor::from_vec(
                    (0..k * n).map(|x| ((x * 5) % 13) as f32 - 6.0).collect(),
                    [k, n],
                )
                .unwrap();
                let single = matmul_f32(&a, &b).unwrap();
                let packed = PackedMatrixF32::from_tensor(&b);
                let ai = a.map(|x| x as i8);
                let bi = PackedMatrixI8::from_tensor(&b.map(|x| x as i8));
                let mut si = vec![0i32; m * n];
                kernel::gemm_i8_prepacked(m, ai.as_slice(), &bi, &mut si, 1);
                for bands in 1..=4 {
                    let at = format!("m={m} k={k} n={n} bands={bands}");
                    let mut c = vec![0.0f32; m * n];
                    kernel::gemm_f32_prepacked(m, a.as_slice(), &packed, &mut c, bands);
                    assert_eq!(single.as_slice(), &c[..], "prepacked {at}");
                    let mut c = vec![0.0f32; m * n];
                    kernel::gemm_f32_prepacked_batched(m, a.as_slice(), &packed, &mut c, bands);
                    assert_eq!(single.as_slice(), &c[..], "batched {at}");
                    let mut c = vec![0.0f32; m * n];
                    kernel::gemm_f32(m, k, n, a.as_slice(), b.as_slice(), &mut c, bands);
                    assert_eq!(single.as_slice(), &c[..], "per-call {at}");
                    let mut ti = vec![0i32; m * n];
                    kernel::gemm_i8_prepacked(m, ai.as_slice(), &bi, &mut ti, bands);
                    assert_eq!(si, ti, "i8 {at}");
                }
            }
        }
    }
}
