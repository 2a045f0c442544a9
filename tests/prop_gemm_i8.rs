//! Property tests for the i8 GEMM plane: weights stored once as
//! offset-`u8` column panels, the register tile and the panel GEMV both
//! computing `Σ a · (b + 128) − 128 · Σ a`. For *any* operands and shape
//! the raw driver must equal the scalar reference bit for bit, the fused
//! driver must equal its epilogue's float expression over the raw
//! output, and neither may depend on the thread count or on which shape
//! class (`m ≤ 2` GEMV / tile loop) a row happens to be served by.
//!
//! The suite is meant to run in the debug profile too (CI's
//! `cargo test -q`): there the overflow checks are armed, so the
//! extreme-operand cases also prove that no intermediate sum relies on
//! wrapping.
//!
//! The integer tile has two bodies behind one runtime dispatch
//! (`kernel::microkernel` docs). The drivers run whichever this host
//! selects; (f) and (g) also run the portable body directly, so both are
//! pinned to the reference and to each other on every host that has the
//! fast one, and (h) names the body the drivers ran.

use proptest::prelude::*;

use llmnpu::tensor::kernel::microkernel::{microkernel_int_portable, MR, NR};
use llmnpu::tensor::kernel::{self, pack, Epilogue};
use llmnpu::tensor::{gemm, PackedMatrixI8, Tensor};

/// Full-range `i8` data (both `-128` and `127` occur) from a seed.
fn data(len: usize, mut seed: u64) -> Vec<i8> {
    (0..len)
        .map(|_| {
            // splitmix64
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z >> 56) as u8 as i8
        })
        .collect()
}

/// The epilogue's documented float expression, applied in a second pass
/// over the raw `i32` output — written here without reference to the
/// kernel's row segments.
fn two_pass(epilogue: Epilogue<'_>, acc: &[i32], n: usize, init: f32) -> Vec<f32> {
    acc.iter()
        .enumerate()
        .map(|(idx, &s)| {
            let (i, j) = (idx / n, idx % n);
            let x = s as f32;
            match epilogue {
                Epilogue::PerTensor { scale } => x * scale,
                Epilogue::PerTensorAcc { scale } => init + x * scale,
                Epilogue::PerChannel { a_scale, w_scales } => x * a_scale * w_scales[j],
                Epilogue::PerRow {
                    row_scales,
                    w_scales,
                } => x * row_scales[i] * w_scales[j],
            }
        })
        .collect()
}

/// One `(m, k, n)` problem through the slice-level drivers (which honour
/// `threads` exactly, unlike the host-capped `gemm::` entries): raw ≡
/// reference, and every epilogue ≡ its float expression over raw, with
/// `PerTensorAcc` accumulating into a non-zero output.
fn check_problem(a: &[i8], b: &[i8], (m, k, n): (usize, usize, usize), threads: usize) {
    let at = format!("m={m} k={k} n={n} threads={threads}");
    let packed = PackedMatrixI8::pack(b, k, n);
    let reference = gemm::matmul_i8_reference(
        &Tensor::from_vec(a.to_vec(), [m, k]).unwrap(),
        &Tensor::from_vec(b.to_vec(), [k, n]).unwrap(),
    )
    .unwrap();
    let mut raw = vec![i32::MIN; m * n];
    kernel::gemm_i8_prepacked(m, a, &packed, &mut raw, threads);
    assert_eq!(raw, reference.as_slice(), "raw vs reference, {at}");

    let (scale, a_scale, init) = (0.0173f32, 0.11f32, -1.25f32);
    let w_scales: Vec<f32> = (0..n).map(|j| 0.01 + 0.0007 * j as f32).collect();
    let row_scales: Vec<f32> = (0..m).map(|i| 0.05 + 0.004 * i as f32).collect();
    for epilogue in [
        Epilogue::PerTensor { scale },
        Epilogue::PerTensorAcc { scale },
        Epilogue::PerChannel {
            a_scale,
            w_scales: &w_scales,
        },
        Epilogue::PerRow {
            row_scales: &row_scales,
            w_scales: &w_scales,
        },
    ] {
        let mut fused = vec![init; m * n];
        kernel::gemm_i8_fused_prepacked(m, a, &packed, &mut fused, epilogue, threads);
        let want = two_pass(epilogue, &raw, n, init);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused), bits(&want), "{epilogue:?}, {at}");
    }
}

/// (a) The offset algebra at its extremes. With `a ≡ −128` and
/// `b ≡ +127` the kernel's running sum reaches `−128 · 255 · 2^16`, the
/// largest magnitude the offset operand can produce at the documented
/// depth bound — 8 388 608 short of `i32::MIN`; the correction
/// `128 · Σ a = −2^30` then brings it back to the true product. Every
/// sign pairing, and alternating signs (where partial sums swing), must
/// come out exact with overflow checks armed.
#[test]
fn extreme_operands_at_the_depth_bound_are_exact() {
    let (k, n) = (1usize << 16, 17usize);
    // Even K positions hold `lo`, odd ones `hi`, in either operand.
    let pick = |p: usize, lo: i8, hi: i8| if p.is_multiple_of(2) { lo } else { hi };
    for (a_lo, a_hi, b_lo, b_hi) in [
        (-128i8, -128i8, -128i8, -128i8),
        (-128, -128, 127, 127),
        (127, 127, -128, -128),
        (127, 127, 127, 127),
        (-128, 127, 127, -128), // alternating along K, every product negative
        (-128, 127, -128, 127), // alternating along K, every product positive
    ] {
        let b: Vec<i8> = (0..k * n).map(|i| pick(i / n, b_lo, b_hi)).collect();
        let packed = PackedMatrixI8::pack(&b, k, n);
        let bt = Tensor::from_vec(b, [k, n]).unwrap();
        for m in [1usize, 3] {
            let a: Vec<i8> = (0..m * k).map(|i| pick(i % k, a_lo, a_hi)).collect();
            let a = Tensor::from_vec(a, [m, k]).unwrap();
            let want = gemm::matmul_i8_reference(&a, &bt).unwrap();
            let got = gemm::matmul_i8_prepacked(&a, &packed, 1).unwrap();
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "a in {{{a_lo},{a_hi}}} b in {{{b_lo},{b_hi}}} m={m}"
            );
        }
    }
    // The bound itself: the two same-sign extremes are ±2^30-scale.
    let a = Tensor::from_vec(vec![-128i8; k], [1, k]).unwrap();
    let b = vec![-128i8; k * n];
    let c = gemm::matmul_i8_prepacked(&a, &PackedMatrixI8::pack(&b, k, n), 1).unwrap();
    assert!(c.as_slice().iter().all(|&x| x == 1 << 30));
}

/// (b) Ragged everything: every `k` below, at and across the GEMV's
/// 4-position step and the `KC` depth, every `n` around the 16-column
/// panel and past one `NC` block, every `m` on both sides of the
/// GEMV/tile switch and of the 8-row tile, at 1, 3 and 4 threads.
#[test]
fn ragged_shape_matrix_is_bit_exact_raw_and_fused() {
    for k in [0usize, 1, 3, 5, 37, 513] {
        for n in [1usize, 15, 16, 17, 1025] {
            let b = data(k * n, (k * 4099 + n) as u64);
            for m in [1usize, 2, 3, 9, 33] {
                let a = data(m * k, (m * 131 + k) as u64);
                for threads in [1usize, 3, 4] {
                    check_problem(&a, &b, (m, k, n), threads);
                }
            }
        }
    }
}

/// (c) GEMV ≡ tile: row `r` of an `m = 9` call is the `m = 1` call on
/// that row — raw, and through a fused epilogue — which is the identity
/// batched ≡ solo decode and chunked ≡ whole prefill rest on.
#[test]
fn tile_rows_match_their_solo_gemv() {
    for (k, n) in [(37usize, 17usize), (130, 40), (513, 16)] {
        let b = data(k * n, 7);
        let packed = PackedMatrixI8::pack(&b, k, n);
        let a = data(9 * k, 11);
        let w_scales: Vec<f32> = (0..n).map(|j| 0.02 + 0.001 * j as f32).collect();
        let epilogue = Epilogue::PerChannel {
            a_scale: 0.07,
            w_scales: &w_scales,
        };
        for threads in [1usize, 3] {
            let mut raw = vec![0i32; 9 * n];
            kernel::gemm_i8_prepacked(9, &a, &packed, &mut raw, threads);
            let mut fused = vec![0.0f32; 9 * n];
            kernel::gemm_i8_fused_prepacked(9, &a, &packed, &mut fused, epilogue, threads);
            for r in 0..9 {
                let row = &a[r * k..(r + 1) * k];
                let mut solo = vec![0i32; n];
                kernel::gemm_i8_prepacked(1, row, &packed, &mut solo, threads);
                assert_eq!(
                    &raw[r * n..(r + 1) * n],
                    &solo[..],
                    "raw row {r} k={k} n={n}"
                );
                let mut solo_f = vec![0.0f32; n];
                kernel::gemm_i8_fused_prepacked(1, row, &packed, &mut solo_f, epilogue, threads);
                assert_eq!(
                    &fused[r * n..(r + 1) * n],
                    &solo_f[..],
                    "fused row {r} k={k} n={n}"
                );
            }
            // And the widest GEMV cohort: both rows of an m = 2 call.
            let mut pair = vec![0i32; 2 * n];
            kernel::gemm_i8_prepacked(2, &a[..2 * k], &packed, &mut pair, threads);
            assert_eq!(&pair[..], &raw[..2 * n], "m = 2 k={k} n={n}");
        }
    }
}

/// (d) One byte per (padded) weight and nothing else; packing is a pure
/// function of the matrix.
#[test]
fn packed_matrix_holds_one_byte_per_weight() {
    for (k, n) in [
        (0usize, 5usize),
        (1, 1),
        (4, 16),
        (5, 17),
        (513, 1025),
        (4096, 64),
    ] {
        let b = data(k * n, 3);
        let packed = PackedMatrixI8::pack(&b, k, n);
        assert_eq!(
            packed.resident_bytes(),
            k.next_multiple_of(4) * n.next_multiple_of(16),
            "k={k} n={n}"
        );
        assert_eq!((packed.k(), packed.n()), (k, n));
        assert_eq!(packed, PackedMatrixI8::pack(&b, k, n), "repack k={k} n={n}");
        if let Some(last) = b.len().checked_sub(1) {
            let mut other = b.clone();
            other[last] = other[last].wrapping_add(1);
            assert_ne!(packed, PackedMatrixI8::pack(&other, k, n), "k={k} n={n}");
        }
    }
    // Same bytes, different shape: still different matrices.
    let b = data(64, 5);
    assert_ne!(
        PackedMatrixI8::pack(&b, 4, 16),
        PackedMatrixI8::pack(&b, 16, 4)
    );
}

/// The reader is the pack's inverse: `pack(b).copy_row(r) == b[r]` for
/// every row over the ragged grid (a lone column, one short of / exactly
/// / one past a panel, past one `NC` block; K on both sides of the pad to
/// 4), with both extremes of the range placed in every matrix that has
/// two elements.
#[test]
fn copy_row_round_trips_every_row() {
    for k in [1usize, 3, 5, 37, 513] {
        for n in [1usize, 15, 16, 17, 1025] {
            let mut b = data(k * n, (k * 4099 + n) as u64);
            b[0] = -128;
            b[k * n - 1] = 127;
            let packed = PackedMatrixI8::pack(&b, k, n);
            let mut row = vec![0i8; n];
            for r in 0..k {
                packed.copy_row(r, &mut row);
                assert_eq!(&row[..], &b[r * n..(r + 1) * n], "row {r} k={k} n={n}");
            }
        }
    }
}

#[test]
#[should_panic(expected = "out of range")]
fn copy_row_rejects_a_row_past_k() {
    // Row 5 exists in the panel (k pads to 8) but not in the matrix.
    PackedMatrixI8::pack(&data(5 * 17, 1), 5, 17).copy_row(5, &mut [0; 17]);
}

#[test]
#[should_panic(expected = "length mismatch")]
fn copy_row_rejects_a_wrong_length_buffer() {
    PackedMatrixI8::pack(&data(5 * 17, 1), 5, 17).copy_row(0, &mut [0; 16]);
}

/// `A · B` through the **portable** tile body called directly, with the
/// operands laid out as the kernel documents them — A panels from
/// `pack::pack_a_i8`, B as `[k_pad][NR]` panels of `b + 128` — and the
/// `128 · Σ a` correction taken here: the dispatch-free twin of the i8
/// tile loop.
fn portable_gemm_i8(a: &[i8], b: &[i8], (m, k, n): (usize, usize, usize)) -> Vec<i32> {
    let k_pad = k.next_multiple_of(4);
    let mut a_pack = Vec::new();
    pack::pack_a_i8(a, k, 0, 0, m, k, &mut a_pack);
    let mut c = vec![0i32; m * n];
    for j0 in (0..n).step_by(NR) {
        let mut b_panel = vec![128u8; k_pad * NR];
        for p in 0..k {
            for (l, col) in (j0..n.min(j0 + NR)).enumerate() {
                b_panel[p * NR + l] = (i32::from(b[p * n + col]) + 128) as u8;
            }
        }
        for (pi, a_panel) in a_pack.chunks(k_pad * MR).enumerate() {
            let mut acc = [[0i32; NR]; MR];
            microkernel_int_portable(k_pad, a_panel, &b_panel, &mut acc);
            for (r, acc_row) in acc.iter().enumerate().take(m - pi * MR) {
                let i = pi * MR + r;
                let corr: i32 = a[i * k..(i + 1) * k]
                    .iter()
                    .map(|&x| 128 * i32::from(x))
                    .sum();
                for (l, col) in (j0..n.min(j0 + NR)).enumerate() {
                    c[i * n + col] = acc_row[l] - corr;
                }
            }
        }
    }
    c
}

/// Portable body ≡ dispatched driver ≡ scalar reference, raw, for one
/// tile-shaped problem at each thread count.
fn check_bodies(a: &[i8], b: &[i8], (m, k, n): (usize, usize, usize), threads: &[usize]) {
    let reference = gemm::matmul_i8_reference(
        &Tensor::from_vec(a.to_vec(), [m, k]).unwrap(),
        &Tensor::from_vec(b.to_vec(), [k, n]).unwrap(),
    )
    .unwrap();
    let portable = portable_gemm_i8(a, b, (m, k, n));
    assert_eq!(
        portable,
        reference.as_slice(),
        "portable, m={m} k={k} n={n}"
    );
    let packed = PackedMatrixI8::pack(b, k, n);
    for &t in threads {
        let mut dispatched = vec![i32::MIN; m * n];
        kernel::gemm_i8_prepacked(m, a, &packed, &mut dispatched, t);
        assert_eq!(
            dispatched, portable,
            "dispatched, m={m} k={k} n={n} threads={t}"
        );
    }
}

/// (f) The two tile bodies at the depth bound: (a)'s extreme operands
/// with the portable body called directly, so in the debug profile its
/// overflow checks see the `−128 · 255 · 2^16` partial sums too, not
/// only whichever body the drivers dispatch to.
#[test]
fn both_int_bodies_are_exact_at_the_depth_bound() {
    let (k, n) = (1usize << 16, 17usize);
    let pick = |p: usize, lo: i8, hi: i8| if p.is_multiple_of(2) { lo } else { hi };
    for (a_lo, a_hi, b_lo, b_hi) in [
        (-128i8, -128i8, 127i8, 127i8),
        (127, 127, -128, -128),
        (-128, 127, 127, -128),
        (-128, 127, -128, 127),
    ] {
        let b: Vec<i8> = (0..k * n).map(|i| pick(i / n, b_lo, b_hi)).collect();
        let a: Vec<i8> = (0..3 * k).map(|i| pick(i % k, a_lo, a_hi)).collect();
        check_bodies(&a, &b, (3, k, n), &[1]);
    }
}

/// (g) The two tile bodies over ragged K (inside one quad, across quads,
/// across `KC`) and every tile-shaped `m` around the 8-row tile, at 1
/// and 4 threads.
#[test]
fn portable_and_dispatched_int_bodies_are_bit_identical() {
    for k in [1usize, 3, 5, 17, 513] {
        for n in [17usize, 40] {
            let b = data(k * n, (k * 31 + n) as u64);
            for m in [3usize, 8, 9, 33] {
                let a = data(m * k, (m * 7 + k) as u64);
                check_bodies(&a, &b, (m, k, n), &[1, 4]);
            }
        }
    }
}

/// (h) Which body the drivers ran above, by the kernel's own feature
/// test, printed for the CI log (`-- --nocapture`) — and one more
/// identity check under that name.
#[test]
fn names_the_dispatched_int_body() {
    #[cfg(target_arch = "x86_64")]
    let vnni = is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512bw")
        && is_x86_feature_detected!("avx512vnni")
        && is_x86_feature_detected!("avx512vbmi");
    #[cfg(not(target_arch = "x86_64"))]
    let vnni = false;
    let body = if vnni { "avx512-vnni" } else { "portable" };
    println!("microkernel_int dispatches to the {body} body on this host");
    let (m, k, n) = (9usize, 130usize, 33usize);
    check_bodies(&data(m * k, 1), &data(k * n, 2), (m, k, n), &[1]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (e) Random operands over (b)'s shape space.
    #[test]
    fn random_problems_are_bit_exact_raw_and_fused(
        k in prop::sample::select(vec![0usize, 1, 3, 5, 37, 513]),
        n in prop::sample::select(vec![1usize, 15, 16, 17, 1025]),
        m in prop::sample::select(vec![1usize, 2, 3, 9, 33]),
        threads in prop::sample::select(vec![1usize, 3, 4]),
        seed in any::<u64>(),
    ) {
        let a = data(m * k, seed);
        let b = data(k * n, !seed);
        check_problem(&a, &b, (m, k, n), threads);
    }
}
