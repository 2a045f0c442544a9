//! Property-based tests for the tensor kernels.

use proptest::prelude::*;

use llmnpu_tensor::kernel::Epilogue;
use llmnpu_tensor::{gemm, kernel, norm, ops, rope, PackedMatrixI8, Tensor};

fn matrix(rows: usize, cols: usize, mag: f32) -> impl Strategy<Value = Tensor<f32>> {
    prop::collection::vec(-mag..mag, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, [rows, cols]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Matrix multiplication distributes over addition:
    /// (A + B) · C == A·C + B·C (within float tolerance).
    #[test]
    fn matmul_distributes_over_addition(
        a in matrix(3, 4, 2.0),
        b in matrix(3, 4, 2.0),
        c in matrix(4, 5, 2.0),
    ) {
        let sum_first = gemm::matmul_f32(&ops::add(&a, &b).unwrap(), &c).unwrap();
        let ac = gemm::matmul_f32(&a, &c).unwrap();
        let bc = gemm::matmul_f32(&b, &c).unwrap();
        let sum_after = ops::add(&ac, &bc).unwrap();
        prop_assert!(sum_first.mse(&sum_after).unwrap() < 1e-8);
    }

    /// Multiplying by the identity changes nothing.
    #[test]
    fn matmul_identity(a in matrix(4, 6, 5.0)) {
        let out = gemm::matmul_f32(&a, &Tensor::eye(6)).unwrap();
        prop_assert!(out.mse(&a.clone().reshape([4, 6]).unwrap()).unwrap() < 1e-12);
    }

    /// Transposition is an involution and (A·B)ᵀ == Bᵀ·Aᵀ.
    #[test]
    fn transpose_properties(a in matrix(3, 4, 2.0), b in matrix(4, 2, 2.0)) {
        let tt = a.transposed().transposed();
        prop_assert_eq!(tt.as_slice(), a.as_slice());
        let ab_t = gemm::matmul_f32(&a, &b).unwrap().transposed();
        let bt_at = gemm::matmul_f32(&b.transposed(), &a.transposed()).unwrap();
        prop_assert!(ab_t.mse(&bt_at).unwrap() < 1e-8);
    }

    /// Softmax rows are probability distributions, and softmax is
    /// invariant to per-row shifts.
    #[test]
    fn softmax_properties(x in matrix(3, 5, 10.0), shift in -20.0f32..20.0) {
        let s = ops::softmax(&x);
        for r in 0..3 {
            let sum: f32 = s.row(r).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(r).iter().all(|&p| (0.0..=1.0 + 1e-6).contains(&p)));
        }
        let shifted = x.map(|v| v + shift);
        let s2 = ops::softmax(&shifted);
        prop_assert!(s.mse(&s2).unwrap() < 1e-8);
    }

    /// RMSNorm output has (approximately) unit RMS for unit gains.
    #[test]
    fn rms_norm_unit_output(x in matrix(2, 8, 10.0)) {
        // Skip all-zero rows (degenerate input).
        prop_assume!(x.as_slice().iter().any(|&v| v.abs() > 1e-3));
        let y = norm::rms_norm(&x, &[1.0; 8], 0.0).unwrap();
        for r in 0..2 {
            let ms: f32 = y.row(r).iter().map(|&v| v * v).sum::<f32>() / 8.0;
            if x.row(r).iter().any(|&v| v.abs() > 1e-3) {
                prop_assert!((ms - 1.0).abs() < 1e-2, "row {r} ms {ms}");
            }
        }
    }

    /// LayerNorm output has zero mean for zero beta.
    #[test]
    fn layer_norm_zero_mean(x in matrix(2, 8, 10.0)) {
        let y = norm::layer_norm(&x, &[1.0; 8], &[0.0; 8], 1e-6).unwrap();
        for r in 0..2 {
            let mean: f32 = y.row(r).iter().sum::<f32>() / 8.0;
            prop_assert!(mean.abs() < 1e-4);
        }
    }

    /// RoPE preserves vector norms (it is a rotation).
    #[test]
    fn rope_preserves_norm(x in matrix(3, 8, 5.0), pos in 0usize..512) {
        let y = rope::apply_rope(&x, pos, rope::DEFAULT_THETA).unwrap();
        for r in 0..3 {
            let n_in: f32 = x.row(r).iter().map(|&v| v * v).sum();
            let n_out: f32 = y.row(r).iter().map(|&v| v * v).sum();
            prop_assert!((n_in - n_out).abs() < 1e-2 * n_in.max(1.0));
        }
    }

    /// The causal mask only writes -inf strictly above the diagonal band.
    #[test]
    fn causal_mask_only_masks_future(rows in 1usize..6, offset in 0usize..4) {
        let cols = rows + offset;
        let mut scores = Tensor::full(1.0_f32, [rows, cols]);
        ops::causal_mask_inplace(&mut scores, offset);
        for r in 0..rows {
            for c in 0..cols {
                let visible = c <= r + offset;
                let v = scores.row(r)[c];
                if visible {
                    prop_assert_eq!(v, 1.0);
                } else {
                    prop_assert_eq!(v, f32::NEG_INFINITY);
                }
            }
        }
    }

    /// accumulate is elementwise addition.
    #[test]
    fn accumulate_matches_add(a in matrix(2, 3, 4.0), b in matrix(2, 3, 4.0)) {
        let mut acc = a.clone();
        gemm::accumulate(&mut acc, &b).unwrap();
        let sum = ops::add(&a, &b).unwrap();
        prop_assert_eq!(acc.as_slice(), sum.as_slice());
    }
}

// ---------------------------------------------------------------------------
// Blocked/parallel kernel vs. scalar reference properties.
//
// Shapes deliberately include M=1 decode rows, K that is not a multiple of
// any blocking constant, dimensions straddling the MR=8 / NR=16 tile
// edges, and empty dims.
// ---------------------------------------------------------------------------

fn any_matrix(
    rows: impl Strategy<Value = usize>,
    cols: impl Strategy<Value = usize>,
    mag: f32,
) -> impl Strategy<Value = Tensor<f32>> {
    (rows, cols).prop_map(move |(r, c)| {
        let data: Vec<f32> = (0..r * c)
            .map(|i| mag * (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5))
            .collect();
        Tensor::from_vec(data, [r, c]).unwrap()
    })
}

fn i8_matrix(
    rows: impl Strategy<Value = usize>,
    cols: impl Strategy<Value = usize>,
) -> impl Strategy<Value = Tensor<i8>> {
    (rows, cols).prop_map(|(r, c)| {
        let data: Vec<i8> = (0..r * c)
            .map(|i| (((i * 61 + 13) % 255) as i32 - 127) as i8)
            .collect();
        Tensor::from_vec(data, [r, c]).unwrap()
    })
}

/// Per-element bound for comparing a blocked (possibly FMA-contracted)
/// float sum of `k` products against the scalar reference.
fn f32_tolerance(k: usize, a_max: f32, b_max: f32) -> f32 {
    // Each of the k products is bounded by a_max*b_max; summation error
    // grows with k. 2^-23 is one f32 ULP at magnitude 1; the factor 8
    // covers the worst tree-vs-serial reassociation gap seen in practice
    // (this is ~k·ε relative — a tight ULP-scale bound, not a loose one).
    8.0 * (k as f32) * f32::EPSILON * a_max.max(1e-30) * b_max.max(1e-30) + 1e-30
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The blocked f32 kernel stays within tight ULP-scale bounds of the
    /// scalar reference across random shapes, including M=1 decode rows
    /// and K not a multiple of the block size.
    #[test]
    fn blocked_f32_matches_reference(
        m in prop::sample::select(vec![1usize, 2, 3, 7, 8, 9, 17]),
        k in prop::sample::select(vec![1usize, 5, 16, 31, 64, 129, 300, 513]),
        n in prop::sample::select(vec![1usize, 2, 15, 16, 17, 33, 40]),
        mag in 0.1f32..4.0,
    ) {
        let a_data: Vec<f32> = (0..m * k)
            .map(|i| mag * (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5))
            .collect();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| mag * (((i * 29 + 7) % 113) as f32 / 113.0 - 0.5))
            .collect();
        let a = Tensor::from_vec(a_data, [m, k]).unwrap();
        let b = Tensor::from_vec(b_data, [k, n]).unwrap();
        let blocked = gemm::matmul_f32(&a, &b).unwrap();
        let reference = gemm::matmul_f32_reference(&a, &b).unwrap();
        let tol = f32_tolerance(k, a.abs_max(), b.abs_max());
        for (x, y) in blocked.as_slice().iter().zip(reference.as_slice()) {
            prop_assert!((x - y).abs() <= tol, "{x} vs {y} (tol {tol})");
        }
    }

    /// Thread count is bit-invisible for f32 and i8 kernels.
    #[test]
    fn parallel_kernels_bit_match_single_thread(
        a in any_matrix(1usize..20, 1usize..70, 3.0),
        n in 1usize..40,
        threads in 2usize..8,
    ) {
        let (_, k) = a.matrix_dims();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| (((i * 29 + 7) % 113) as f32 / 113.0 - 0.5) * 2.0)
            .collect();
        let b = Tensor::from_vec(b_data, [k, n]).unwrap();
        let single = gemm::matmul_f32(&a, &b).unwrap();
        let packed = llmnpu_tensor::PackedMatrixF32::from_tensor(&b);
        let multi = gemm::matmul_f32_prepacked(&a, &packed, threads).unwrap();
        prop_assert_eq!(single.as_slice(), multi.as_slice());

        // Also drive the slice-level driver with the *uncapped* worker
        // count: the public wrappers clamp to the host's cores, so on a
        // small CI machine only this path actually spawns multiple bands.
        let (m, _) = a.matrix_dims();
        let mut c_multi = vec![0.0f32; m * n];
        kernel::gemm_f32(m, k, n, a.as_slice(), b.as_slice(), &mut c_multi, threads);
        prop_assert_eq!(single.as_slice(), &c_multi[..]);

        let ai = a.map(|x| (x * 30.0) as i8);
        let bi = PackedMatrixI8::from_tensor(&b.map(|x| (x * 50.0) as i8));
        let si = gemm::matmul_i8_prepacked(&ai, &bi, 1).unwrap();
        let mi = gemm::matmul_i8_prepacked(&ai, &bi, threads).unwrap();
        prop_assert_eq!(si.as_slice(), mi.as_slice());

        let mut ci_multi = vec![0i32; m * n];
        kernel::gemm_i8_prepacked(m, ai.as_slice(), &bi, &mut ci_multi, threads);
        prop_assert_eq!(si.as_slice(), &ci_multi[..]);
    }

    /// The blocked i8 kernel is bit-exact against the scalar reference
    /// for any shape and thread count.
    #[test]
    fn blocked_i8_bit_exact_vs_reference(
        a in i8_matrix(1usize..20, 1usize..80),
        n in 1usize..40,
        threads in 1usize..6,
    ) {
        let (_, k) = a.matrix_dims();
        let b_data: Vec<i8> = (0..k * n)
            .map(|i| (((i * 43 + 5) % 255) as i32 - 127) as i8)
            .collect();
        let b = Tensor::from_vec(b_data, [k, n]).unwrap();
        let packed = PackedMatrixI8::from_tensor(&b);
        let blocked = gemm::matmul_i8_prepacked(&a, &packed, threads).unwrap();
        let reference = gemm::matmul_i8_reference(&a, &b).unwrap();
        prop_assert_eq!(blocked.as_slice(), reference.as_slice());
    }

    /// Empty dimensions are well-defined no-ops for every kernel entry.
    #[test]
    fn empty_dims_are_sound(m in 0usize..3, k in 0usize..3, n in 0usize..3) {
        prop_assume!(m == 0 || k == 0 || n == 0);
        let a = Tensor::<f32>::zeros([m, k]);
        let b = Tensor::<f32>::zeros([k, n]);
        let c = gemm::matmul_f32(&a, &b).unwrap();
        prop_assert_eq!(c.shape().dims(), &[m, n]);
        prop_assert!(c.as_slice().iter().all(|&x| x == 0.0));

        let ai = Tensor::<i8>::zeros([m, k]);
        let bi = Tensor::<i8>::zeros([k, n]);
        let ci = gemm::matmul_i8_prepacked(&ai, &PackedMatrixI8::from_tensor(&bi), 1).unwrap();
        prop_assert_eq!(ci.shape().dims(), &[m, n]);
        prop_assert!(ci.as_slice().iter().all(|&x| x == 0));
        let reference = gemm::matmul_i8_reference(&ai, &bi).unwrap();
        prop_assert_eq!(ci.as_slice(), reference.as_slice());
    }
}

// ---------------------------------------------------------------------------
// Prepacked (pack-once) drivers: f32 vs. its per-call-packing driver, the
// integer path (which has no per-call driver) vs. the scalar reference and
// the two-pass dequantization it fuses.
//
// The PackedMatrix layouts must be bit-invisible: same slab bytes for the
// tiled path, same per-element operation sequence for the decode GEMV.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The prepacked f32 driver is bit-identical to the per-call-packing
    /// driver across ragged shapes — including the m ≤ 2 decode GEMV,
    /// which switches to the transposed layout — for any thread count.
    #[test]
    fn prepacked_f32_bit_matches_per_call(
        m in prop::sample::select(vec![1usize, 2, 3, 8, 9, 17]),
        k in prop::sample::select(vec![1usize, 5, 31, 129, 300, 513, 600]),
        n in prop::sample::select(vec![1usize, 2, 15, 17, 33, 40]),
        threads in 1usize..6,
    ) {
        let a_data: Vec<f32> = (0..m * k)
            .map(|i| (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5) * 2.0)
            .collect();
        let b_data: Vec<f32> = (0..k * n)
            .map(|i| (((i * 29 + 7) % 113) as f32 / 113.0 - 0.5) * 2.0)
            .collect();
        let a = Tensor::from_vec(a_data, [m, k]).unwrap();
        let b = Tensor::from_vec(b_data, [k, n]).unwrap();
        let per_call = gemm::matmul_f32(&a, &b).unwrap();
        let packed = llmnpu_tensor::PackedMatrixF32::from_tensor(&b);
        let prepacked = gemm::matmul_f32_prepacked(&a, &packed, threads).unwrap();
        prop_assert_eq!(per_call.as_slice(), prepacked.as_slice());

        // Drive the uncapped slice-level driver too: on a small CI host
        // the wrappers clamp to 1 core, so only this path actually
        // exercises multi-band column partitioning.
        let mut c_driver = vec![0.0f32; m * n];
        kernel::gemm_f32_prepacked(m, a.as_slice(), &packed, &mut c_driver, threads);
        prop_assert_eq!(per_call.as_slice(), &c_driver[..]);
        let mut c_per_call = vec![0.0f32; m * n];
        kernel::gemm_f32(m, k, n, a.as_slice(), b.as_slice(), &mut c_per_call, threads);
        prop_assert_eq!(per_call.as_slice(), &c_per_call[..]);
    }
}

/// The float expression a fused [`Epilogue`] stands for, applied to the
/// raw `i32` accumulators in a second pass over an output that held
/// `init` everywhere — written out here independently of the kernel.
fn two_pass(epilogue: Epilogue<'_>, acc: &Tensor<i32>, init: f32) -> Vec<f32> {
    let (_, n) = acc.matrix_dims();
    acc.as_slice()
        .iter()
        .enumerate()
        .map(|(idx, &x)| {
            let (i, j, x) = (idx / n, idx % n, x as f32);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The served integer path, whole: the raw prepacked entry is
    /// bit-exact vs the scalar reference, and the fused entry is — for
    /// **every** epilogue, on both sides of the GEMV/tile switch, at any
    /// thread count — bit-identical to the epilogue's float expression
    /// applied in a second pass over the raw entry's `i32` output.
    #[test]
    fn prepacked_i8_bit_exact_and_fused_matches(
        k in prop::sample::select(vec![1usize, 7, 40, 129, 513]),
        n in prop::sample::select(vec![1usize, 2, 16, 17, 33]),
        a_scale in 0.001f32..0.5,
        w_scale in 0.001f32..0.5,
        init in -2.0f32..2.0,
    ) {
        let b_data: Vec<i8> = (0..k * n)
            .map(|i| (((i * 43 + 5) % 255) as i32 - 127) as i8)
            .collect();
        let b = Tensor::from_vec(b_data, [k, n]).unwrap();
        let packed = PackedMatrixI8::from_tensor(&b);
        let w_scales: Vec<f32> = (0..n).map(|j| 0.01 + 0.002 * j as f32).collect();

        for m in [1usize, 2, 3, 9, 33] {
            let a_data: Vec<i8> = (0..m * k)
                .map(|i| (((i * 61 + 13) % 255) as i32 - 127) as i8)
                .collect();
            let a = Tensor::from_vec(a_data, [m, k]).unwrap();
            let row_scales: Vec<f32> = (0..m).map(|i| a_scale + 0.003 * i as f32).collect();
            let reference = gemm::matmul_i8_reference(&a, &b).unwrap();
            let epilogues = [
                Epilogue::PerTensor { scale: a_scale * w_scale },
                Epilogue::PerTensorAcc { scale: a_scale * w_scale },
                Epilogue::PerChannel { a_scale, w_scales: &w_scales },
                Epilogue::PerRow { row_scales: &row_scales, w_scales: &w_scales },
            ];
            for threads in 1usize..=4 {
                let acc = gemm::matmul_i8_prepacked(&a, &packed, threads).unwrap();
                prop_assert_eq!(reference.as_slice(), acc.as_slice());
                // The entries cap `threads` at the host's cores; the
                // slice-level drivers honour it, so on a small CI host
                // only they run several bands.
                let mut c_driver = vec![0i32; m * n];
                kernel::gemm_i8_prepacked(m, a.as_slice(), &packed, &mut c_driver, threads);
                prop_assert_eq!(reference.as_slice(), &c_driver[..]);

                for epilogue in epilogues {
                    let want = two_pass(epilogue, &acc, init);
                    let mut fused = Tensor::full(init, [m, n]);
                    gemm::matmul_i8_fused_prepacked(&mut fused, &a, &packed, epilogue, threads)
                        .unwrap();
                    prop_assert_eq!(
                        fused.as_slice(), &want[..],
                        "{:?} m={} threads={}", epilogue, m, threads
                    );
                    let mut c_fused = vec![init; m * n];
                    kernel::gemm_i8_fused_prepacked(
                        m, a.as_slice(), &packed, &mut c_fused, epilogue, threads,
                    );
                    prop_assert_eq!(&c_fused[..], &want[..]);
                }
            }
        }
    }
}
