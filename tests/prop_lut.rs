//! Property tests for the sub-8-bit LUT weight formats: for *any*
//! weights, activations, and shape — including every ragged case the
//! packed layout has to pad around — the optimized in-register drivers
//! must reproduce the scalar materialized-table reference bit for bit,
//! at any thread count, with zero steady-state table builds.

use proptest::prelude::*;

use llmnpu::quant::lut::LutLinear;
use llmnpu::tensor::kernel::lut::{gemm_lut, lut_tables_built, PackedLut};
use llmnpu::tensor::kernel::microkernel::{microkernel_int_portable, MR, NR};
use llmnpu::tensor::kernel::pack;
use llmnpu::tensor::{gemm, PackedMatrixI2, PackedMatrixI4, Tensor};

fn finite_vec(len: usize, mag: f32) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-mag..mag, len)
}

fn ramp(rows: usize, cols: usize, amp: f32) -> Tensor<f32> {
    Tensor::from_vec(
        (0..rows * cols)
            .map(|i| amp * (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5))
            .collect(),
        [rows, cols],
    )
    .unwrap()
}

/// The deterministic acceptance matrix from the issue: k not divisible
/// by the group size (including odd k, which also exercises the byte
/// padding), n not divisible by the kernel's column tile, m covering
/// solo decode, the widest GEMV cohort, and a batched-decode cohort.
#[test]
fn ragged_shape_matrix_is_bit_exact() {
    for &(k, gs) in &[(31usize, 8usize), (40, 16), (37, 4), (8, 8), (65, 16)] {
        for &n in &[17usize, 7, 32] {
            let b = ramp(k, n, 0.8);
            let p4 = PackedMatrixI4::from_tensor(&b, gs);
            let p2 = PackedMatrixI2::from_tensor(&b, gs);
            for &m in &[1usize, 2, 5] {
                let a = ramp(m, k, 1.3);
                let r4 = gemm::matmul_lut_reference(&a, &p4).unwrap();
                let r2 = gemm::matmul_lut_reference(&a, &p2).unwrap();
                for threads in [1, 2, 4] {
                    let f4 = gemm::matmul_i4_prepacked(&a, &p4, threads).unwrap();
                    let f2 = gemm::matmul_i2_prepacked(&a, &p2, threads).unwrap();
                    assert_eq!(
                        f4.as_slice(),
                        r4.as_slice(),
                        "i4 m={m} k={k} n={n} gs={gs} threads={threads}"
                    );
                    assert_eq!(
                        f2.as_slice(),
                        r2.as_slice(),
                        "i2 m={m} k={k} n={n} gs={gs} threads={threads}"
                    );
                }
            }
        }
    }
}

/// The packed accessors against an independent naive quantizer: one
/// max-abs scale per (column, group), round, clamp, bias — written here
/// without reference to the panel layout. `n` sits below, at and across
/// the 16-column panel width; `k` is ragged in the group and (for both
/// code widths) in the byte.
#[test]
fn packed_accessors_match_a_naive_per_column_quantizer() {
    fn check<const BITS: usize>(b: &Tensor<f32>, gs: usize, qmax: i32, bias: i32) {
        let (k, n) = b.matrix_dims();
        let (w, packed) = (b.as_slice(), PackedLut::<BITS>::from_tensor(b, gs));
        let dequantized = packed.dequantize();
        assert_eq!(packed.groups(), k.div_ceil(gs));
        for j in 0..n {
            for g in 0..k.div_ceil(gs) {
                let group = g * gs..((g + 1) * gs).min(k);
                let amax = group
                    .clone()
                    .map(|p| w[p * n + j].abs())
                    .fold(0.0f32, f32::max);
                let scale = if amax > 0.0 { amax / qmax as f32 } else { 0.0 };
                let at = format!("i{BITS} k={k} n={n} gs={gs} col {j} group {g}");
                assert_eq!(
                    packed.scale_at(j, g).to_bits(),
                    scale.to_bits(),
                    "scale, {at}"
                );
                for p in group {
                    let q = if scale > 0.0 {
                        ((w[p * n + j] / scale).round() as i32).clamp(-qmax, qmax)
                    } else {
                        0
                    };
                    assert_eq!(i32::from(packed.code_at(p, j)), q + bias, "code {p}, {at}");
                    assert_eq!(
                        dequantized[p * n + j].to_bits(),
                        (q as f32 * scale).to_bits(),
                        "dequantized {p}, {at}"
                    );
                }
            }
            // The reduction dimension is padded to a multiple of 4 with
            // codes that decode to zero.
            for p in k..k.next_multiple_of(4) {
                assert_eq!(
                    i32::from(packed.code_at(p, j)),
                    bias,
                    "i{BITS} pad {p} col {j}"
                );
            }
        }
    }
    for &(k, gs) in &[(37usize, 8usize), (37, 12), (64, 32), (6, 4)] {
        for &n in &[1usize, 7, 16, 17, 33] {
            let b = ramp(k, n, 0.9);
            check::<4>(&b, gs, 7, 8);
            check::<2>(&b, gs, 1, 2);
        }
    }
}

/// Optimized ≡ reference, bit for bit, on both sides of the GEMV/tile
/// switch and of every row-tile edge, for group sizes from one byte-row
/// to wider than a panel is tall, at every thread count — and row `r`
/// of every such batch ≡ the solo `m = 1` call on that row, which is
/// the property batched decode and chunked prefill serve streams on.
#[test]
fn every_shape_class_is_bit_exact_and_row_transparent() {
    // k = 70: every group size below leaves a ragged tail, padded to
    // 72; n = 37: two full panels and a ragged third, so 2..4 threads
    // split whole panels unevenly.
    let (k, n) = (70usize, 37usize);
    let b = ramp(k, n, 0.8);
    let a = ramp(33, k, 1.3);
    let rows = |m: usize| Tensor::from_vec(a.as_slice()[..m * k].to_vec(), [m, k]).unwrap();
    for gs in [4usize, 8, 12, 32, 64] {
        let p4 = PackedMatrixI4::from_tensor(&b, gs);
        let p2 = PackedMatrixI2::from_tensor(&b, gs);
        let solo: Vec<[Tensor<f32>; 2]> = (0..33)
            .map(|r| {
                let row = Tensor::from_vec(a.row(r).to_vec(), [1, k]).unwrap();
                [
                    gemm::matmul_i4_prepacked(&row, &p4, 1).unwrap(),
                    gemm::matmul_i2_prepacked(&row, &p2, 1).unwrap(),
                ]
            })
            .collect();
        for m in [1usize, 2, 3, 7, 8, 9, 17, 33] {
            let am = rows(m);
            let r4 = gemm::matmul_lut_reference(&am, &p4).unwrap();
            let r2 = gemm::matmul_lut_reference(&am, &p2).unwrap();
            for threads in 1..=4 {
                let f4 = gemm::matmul_i4_prepacked(&am, &p4, threads).unwrap();
                let f2 = gemm::matmul_i2_prepacked(&am, &p2, threads).unwrap();
                let at = format!("m={m} gs={gs} threads={threads}");
                assert_eq!(f4.as_slice(), r4.as_slice(), "i4 vs reference, {at}");
                assert_eq!(f2.as_slice(), r2.as_slice(), "i2 vs reference, {at}");
                for (r, [s4, s2]) in solo.iter().enumerate().take(m) {
                    assert_eq!(f4.row(r), s4.row(0), "i4 row {r} vs solo, {at}");
                    assert_eq!(f2.row(r), s2.row(0), "i2 row {r} vs solo, {at}");
                }
            }
        }
    }
}

/// A NaN (or an infinity) anywhere in an activation row poisons that
/// row's every output — as the float drivers do — in the optimized
/// drivers and the reference alike, and never its batch-mates.
#[test]
fn non_finite_activation_rows_come_back_all_nan_and_stay_row_local() {
    let (k, n) = (24usize, 19usize);
    let b = ramp(k, n, 0.7);
    let p4 = PackedMatrixI4::from_tensor(&b, 8);
    let p2 = PackedMatrixI2::from_tensor(&b, 8);
    for poison in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
        let mut x = ramp(3, k, 1.1).into_vec();
        x[k + 5] = poison;
        let a = Tensor::from_vec(x, [3, k]).unwrap();
        let outs = [
            gemm::matmul_i4_prepacked(&a, &p4, 2).unwrap(),
            gemm::matmul_lut_reference(&a, &p4).unwrap(),
            gemm::matmul_i2_prepacked(&a, &p2, 2).unwrap(),
            gemm::matmul_lut_reference(&a, &p2).unwrap(),
        ];
        for (which, out) in outs.iter().enumerate() {
            assert!(
                out.row(1).iter().all(|v| v.is_nan()),
                "driver {which}, poison {poison}: row 1 = {:?}",
                out.row(1)
            );
            for r in [0usize, 2] {
                let row = Tensor::from_vec(a.row(r).to_vec(), [1, k]).unwrap();
                let solo = if which < 2 {
                    gemm::matmul_i4_prepacked(&row, &p4, 1).unwrap()
                } else {
                    gemm::matmul_i2_prepacked(&row, &p2, 1).unwrap()
                };
                let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(out.row(r)),
                    bits(solo.row(0)),
                    "driver {which} row {r}"
                );
            }
        }
    }
}

/// `C = dequant(A · B)` through the **portable** integer tile body called
/// directly, from the documented semantics alone: activation rows
/// quantized with one max-abs scale each, every group's stored codes
/// (`code_at`) as a `[len][NR]` B panel, `pack::pack_a_i8` A panels, the
/// `bias · Σ aq` correction and the `a_scale · w_scale` epilogue added in
/// ascending group order — the dispatch-free twin of the LUT tile walker.
fn portable_gemm_lut<const BITS: usize>(a: &[f32], m: usize, p: &PackedLut<BITS>) -> Vec<f32> {
    let (k, n, gs) = (p.k(), p.n(), p.group_size());
    let k_pad = k.next_multiple_of(4);
    let bias = 1i32 << (BITS - 1);
    let mut aq = vec![0i8; m * k_pad];
    let mut a_scales = vec![0.0f32; m];
    for (r, row) in a.chunks(k).enumerate() {
        let amax = row.iter().fold(0.0f32, |x, v| x.max(v.abs()));
        a_scales[r] = amax / 127.0;
        for (q, &v) in aq[r * k_pad..].iter_mut().zip(row) {
            *q = (v / a_scales[r]).round().clamp(-127.0, 127.0) as i8;
        }
    }
    let mut c = vec![0.0f32; m * n];
    for j0 in (0..n).step_by(NR) {
        let cols = j0..n.min(j0 + NR);
        for (g, g0) in (0..k).step_by(gs).enumerate() {
            let len = gs.min(k_pad - g0);
            let mut b_panel = vec![0u8; len * NR];
            for pos in 0..len {
                for (l, col) in cols.clone().enumerate() {
                    b_panel[pos * NR + l] = p.code_at(g0 + pos, col);
                }
            }
            let mut a_pack = Vec::new();
            pack::pack_a_i8(&aq, k_pad, 0, g0, m, len, &mut a_pack);
            for (pi, a_panel) in a_pack.chunks(len * MR).enumerate() {
                let mut acc = [[0i32; NR]; MR];
                microkernel_int_portable(len, a_panel, &b_panel, &mut acc);
                for (r, acc_row) in acc.iter().enumerate().take(m - pi * MR) {
                    let i = pi * MR + r;
                    let sum: i32 = aq[i * k_pad + g0..][..len]
                        .iter()
                        .map(|&x| i32::from(x))
                        .sum();
                    for (l, col) in cols.clone().enumerate() {
                        let w = a_scales[i] * p.scale_at(col, g);
                        c[i * n + col] += (acc_row[l] - bias * sum) as f32 * w;
                    }
                }
            }
        }
    }
    c
}

/// Portable tile body ≡ dispatched driver (`gemm_lut`, which honours
/// `threads` exactly) ≡ scalar LUT reference, bit for bit.
fn check_lut_bodies<const BITS: usize>(a: &Tensor<f32>, p: &PackedLut<BITS>, threads: &[usize]) {
    let (m, n) = (a.matrix_dims().0, p.n());
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let at = format!("i{BITS} m={m} k={} gs={}", p.k(), p.group_size());
    let reference = gemm::matmul_lut_reference(a, p).unwrap();
    let portable = portable_gemm_lut(a.as_slice(), m, p);
    assert_eq!(
        bits(&portable),
        bits(reference.as_slice()),
        "portable, {at}"
    );
    for &t in threads {
        let mut dispatched = vec![f32::NAN; m * n];
        gemm_lut(m, a.as_slice(), p, &mut dispatched, t);
        assert_eq!(
            bits(&dispatched),
            bits(&portable),
            "dispatched, {at} threads={t}"
        );
    }
}

/// The two integer tile bodies under the LUT tile walker: int4 and int2
/// at group sizes from one quad to wider than a cohort, every `k` leaving
/// a ragged last group (14 → 4 + 4 + 4 + 2, 70 → 32 + 32 + 6,
/// 300 → 128 + 128 + 44), every tile-shaped `m` around the 8-row tile,
/// at 1 and 4 threads.
#[test]
fn portable_and_dispatched_lut_tiles_are_bit_identical() {
    let n = 37;
    for (gs, k) in [(4usize, 14usize), (32, 70), (128, 300)] {
        let b = ramp(k, n, 0.8);
        let p4 = PackedMatrixI4::from_tensor(&b, gs);
        let p2 = PackedMatrixI2::from_tensor(&b, gs);
        for m in [3usize, 8, 9, 33] {
            let a = ramp(m, k, 1.3);
            check_lut_bodies(&a, &p4, &[1, 4]);
            check_lut_bodies(&a, &p2, &[1, 4]);
        }
    }
}

/// Steady-state decode must never materialize a lookup table: the
/// reference builds them (that is its definition), the optimized
/// drivers evaluate the same entries in registers.
#[test]
fn warm_decode_builds_zero_tables() {
    let b = ramp(64, 24, 0.6);
    let p4 = PackedMatrixI4::from_tensor(&b, 16);
    let p2 = PackedMatrixI2::from_tensor(&b, 16);
    let a = ramp(1, 64, 1.0);
    // Warm-up, then a counted decode window on this thread.
    gemm::matmul_i4_prepacked(&a, &p4, 1).unwrap();
    gemm::matmul_i2_prepacked(&a, &p2, 1).unwrap();
    let before = lut_tables_built();
    for _ in 0..8 {
        gemm::matmul_i4_prepacked(&a, &p4, 1).unwrap();
        gemm::matmul_i2_prepacked(&a, &p2, 1).unwrap();
    }
    assert_eq!(
        lut_tables_built(),
        before,
        "steady-state decode materialized a table"
    );
    // The reference, by contrast, really does build tables.
    gemm::matmul_lut_reference(&a, &p4).unwrap();
    assert!(lut_tables_built() > before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Optimized int4 GEMM == scalar LUT reference, bit for bit, for
    /// arbitrary weights/activations on a ragged shape.
    #[test]
    fn i4_prepacked_matches_reference(
        w in finite_vec(31 * 9, 4.0),
        x in finite_vec(2 * 31, 8.0),
        threads in 1usize..5,
    ) {
        let b = Tensor::from_vec(w, [31, 9]).unwrap();
        let a = Tensor::from_vec(x, [2, 31]).unwrap();
        let p = PackedMatrixI4::from_tensor(&b, 8);
        let fast = gemm::matmul_i4_prepacked(&a, &p, threads).unwrap();
        let reference = gemm::matmul_lut_reference(&a, &p).unwrap();
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    /// Same pin for the int2 (ternary) format.
    #[test]
    fn i2_prepacked_matches_reference(
        w in finite_vec(27 * 7, 3.0),
        x in finite_vec(3 * 27, 6.0),
        threads in 1usize..5,
    ) {
        let b = Tensor::from_vec(w, [27, 7]).unwrap();
        let a = Tensor::from_vec(x, [3, 27]).unwrap();
        let p = PackedMatrixI2::from_tensor(&b, 4);
        let fast = gemm::matmul_i2_prepacked(&a, &p, threads).unwrap();
        let reference = gemm::matmul_lut_reference(&a, &p).unwrap();
        prop_assert_eq!(fast.as_slice(), reference.as_slice());
    }

    /// Packing is a pure function of (weights, group size): repacking
    /// yields a byte-identical matrix, so results never depend on
    /// *when* a weight was packed.
    #[test]
    fn repacking_is_identical(w in finite_vec(24 * 6, 5.0)) {
        let b = Tensor::from_vec(w, [24, 6]).unwrap();
        prop_assert_eq!(
            PackedMatrixI4::from_tensor(&b, 8),
            PackedMatrixI4::from_tensor(&b, 8)
        );
        prop_assert_eq!(
            PackedMatrixI2::from_tensor(&b, 8),
            PackedMatrixI2::from_tensor(&b, 8)
        );
    }

    /// The batched-decode driver is row-transparent: row i of a stacked
    /// cohort equals a solo call on row i, bit for bit.
    #[test]
    fn batched_rows_match_solo(w in finite_vec(16 * 5, 4.0), x in finite_vec(4 * 16, 7.0)) {
        let b = Tensor::from_vec(w, [16, 5]).unwrap();
        let p = PackedMatrixI4::from_tensor(&b, 8);
        let rows: Vec<&[f32]> = x.chunks(16).collect();
        let stacked = gemm::matmul_i4_rows_prepacked(&rows, &p, 2).unwrap();
        for (i, row) in rows.iter().enumerate() {
            let a = Tensor::from_vec(row.to_vec(), [1, 16]).unwrap();
            let solo = gemm::matmul_i4_prepacked(&a, &p, 1).unwrap();
            prop_assert_eq!(solo.row(0), stacked.row(i));
        }
    }

    /// Quant-plane wrapper inherits the kernel pin: LutLinear::forward
    /// == its reference for both bit widths.
    #[test]
    fn lut_linear_matches_reference(w in finite_vec(20 * 11, 2.0), x in finite_vec(2 * 20, 5.0)) {
        let b = Tensor::from_vec(w, [20, 11]).unwrap();
        let a = Tensor::from_vec(x, [2, 20]).unwrap();
        for lin in [LutLinear::int4(&b, 8).unwrap(), LutLinear::int2(&b, 8).unwrap()] {
            let fast = lin.forward(&a, 3).unwrap();
            let reference = lin.forward_reference(&a).unwrap();
            prop_assert_eq!(fast.as_slice(), reference.as_slice());
        }
    }

    /// Dequantization error is bounded by half an ulp of each group's
    /// scale — the contract that makes the formats usable for weights.
    #[test]
    fn i4_round_trip_bounded(w in finite_vec(32 * 4, 10.0)) {
        let b = Tensor::from_vec(w.clone(), [32, 4]).unwrap();
        let p = PackedMatrixI4::from_tensor(&b, 8);
        let back = p.dequantize();
        // One scale per (column, group of 8 rows).
        for (idx, (&orig, &deq)) in w.iter().zip(&back).enumerate() {
            let (row, col) = (idx / 4, idx % 4);
            let scale = p.scale_at(col, row / 8);
            prop_assert!((orig - deq).abs() <= scale * 0.5 + 1e-6);
        }
    }
}
