//! Property-based tests over the quantization schemes' algebraic
//! invariants.

use proptest::prelude::*;

use llmnpu_quant::mixed::MixedLinear;
use llmnpu_quant::outlier::{calibrate_scale, extract_outliers, HotChannelPolicy, ShadowLinear};
use llmnpu_quant::per_tensor::{max_min_scale, QuantizedMatrix, QMAX};
use llmnpu_quant::smooth::{channel_abs_max, smoothing_factors};
use llmnpu_tensor::Tensor;

fn matrix(rows: usize, cols: usize, mag: f32) -> impl Strategy<Value = Tensor<f32>> {
    prop::collection::vec(-mag..mag, rows * cols)
        .prop_map(move |v| Tensor::from_vec(v, [rows, cols]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The max-min scale always maps the extreme element to exactly ±127.
    #[test]
    fn max_min_scale_saturates_extreme(values in prop::collection::vec(-100.0f32..100.0, 1..64)) {
        prop_assume!(values.iter().any(|&v| v.abs() > 1e-3));
        let s = max_min_scale(&values);
        let extreme = values.iter().fold(0.0f32, |m, &v| if v.abs() > m.abs() { v } else { m });
        let q = (extreme / s).round();
        prop_assert!((q.abs() - QMAX).abs() < 1.0, "extreme maps to {q}");
    }

    /// Quantization is sign-preserving and monotone (up to rounding ties).
    #[test]
    fn quantization_preserves_order(a in -50.0f32..50.0, b in -50.0f32..50.0, s in 0.01f32..2.0) {
        use llmnpu_quant::per_tensor::quantize_value;
        if a < b {
            prop_assert!(quantize_value(a, s) <= quantize_value(b, s));
        }
        // Sign preserved whenever the value doesn't round to zero.
        if a.abs() > 0.6 * s {
            prop_assert_eq!(quantize_value(a, s).signum() as f32, a.signum());
        }
    }

    /// Dequantize∘quantize is idempotent: re-quantizing the dequantized
    /// tensor with the same scale reproduces the same integers.
    #[test]
    fn quantize_idempotent(x in matrix(4, 4, 30.0)) {
        let q1 = QuantizedMatrix::quantize(&x);
        let q2 = QuantizedMatrix::quantize_with_scale(&q1.dequantize(), q1.scale());
        prop_assert_eq!(q1.data().as_slice(), q2.data().as_slice());
    }

    /// Extraction is complete: after subtracting residuals, every channel
    /// of the activation is within the clipping range.
    #[test]
    fn extraction_is_complete(x in matrix(3, 8, 60.0), scale in 0.02f32..0.3) {
        let out = extract_outliers(&x, scale);
        let limit = QMAX * scale;
        let mut corrected = x.clone();
        for (j, &c) in out.channels.iter().enumerate() {
            for r in 0..3 {
                let v = corrected.row(r)[c] - out.residuals.row(r)[j];
                corrected.row_mut(r)[c] = v;
            }
        }
        for r in 0..3 {
            for c in 0..8 {
                prop_assert!(corrected.row(r)[c].abs() <= limit + 1e-4);
            }
        }
    }

    /// Shadow forward with shadow disabled equals the clipped NPU path:
    /// disabling never *adds* anything.
    #[test]
    fn disabled_shadow_is_subset(w in matrix(6, 4, 1.0), x in matrix(2, 6, 3.0)) {
        let scale = 0.01f32;
        let full = ShadowLinear::new(&w, scale);
        let pruned = ShadowLinear::new(&w, scale).with_shadow_disabled();
        let y_full = full.forward(&x).unwrap();
        let y_pruned = pruned.forward(&x).unwrap();
        prop_assert!(y_pruned.extracted_channels.is_empty());
        // If nothing was extracted in the full run, outputs are identical.
        if y_full.extracted_channels.is_empty() {
            prop_assert_eq!(y_full.output.as_slice(), y_pruned.output.as_slice());
        }
    }

    /// calibrate_scale is monotone in the quantile: a higher quantile can
    /// only widen the clipping range.
    #[test]
    fn calibration_monotone_in_quantile(x in matrix(4, 8, 20.0), q1 in 0.5f64..0.9) {
        let corpus = vec![x];
        let q2 = q1 + 0.09;
        let s1 = calibrate_scale(&corpus, q1).unwrap();
        let s2 = calibrate_scale(&corpus, q2).unwrap();
        prop_assert!(s2 + 1e-12 >= s1, "scale shrank: {s1} -> {s2}");
    }

    /// Hot-channel policies cover at least the requested fraction of
    /// outlier events with their resident set.
    #[test]
    fn hot_policy_covers_target(
        counts in prop::collection::vec(0u64..500, 4..64),
        coverage in 0.05f64..1.0,
    ) {
        prop_assume!(counts.iter().sum::<u64>() > 0);
        let policy = HotChannelPolicy::from_counts(&counts, coverage).unwrap();
        let covered: u64 = (0..counts.len())
            .filter(|&c| policy.residency(c) == llmnpu_quant::outlier::WeightResidency::Memory)
            .map(|c| counts[c])
            .sum();
        let total: u64 = counts.iter().sum();
        prop_assert!(covered as f64 + 1e-9 >= total as f64 * coverage);
    }

    /// Smoothing factors are positive and scale-covariant: doubling the
    /// activation maxima scales factors by 2^alpha.
    #[test]
    fn smoothing_factors_covariant(
        act in prop::collection::vec(0.1f32..50.0, 1..16),
        wmax in prop::collection::vec(0.1f32..5.0, 1..16),
        alpha in 0.1f32..0.9,
    ) {
        prop_assume!(act.len() == wmax.len());
        let f1 = smoothing_factors(&act, &wmax, alpha).unwrap();
        prop_assert!(f1.iter().all(|&f| f > 0.0));
        let act2: Vec<f32> = act.iter().map(|&a| a * 2.0).collect();
        let f2 = smoothing_factors(&act2, &wmax, alpha).unwrap();
        let expect = 2.0f32.powf(alpha);
        for (a, b) in f1.iter().zip(&f2) {
            prop_assert!((b / a - expect).abs() < 1e-3);
        }
    }

    /// channel_abs_max is invariant to row permutation.
    #[test]
    fn channel_abs_max_permutation_invariant(x in matrix(4, 6, 10.0)) {
        let m1 = channel_abs_max(&x);
        // Reverse the rows.
        let mut data = Vec::new();
        for r in (0..4).rev() {
            data.extend_from_slice(x.row(r));
        }
        let reversed = Tensor::from_vec(data, [4, 6]).unwrap();
        let m2 = channel_abs_max(&reversed);
        prop_assert_eq!(m1, m2);
    }

    /// MixedLinear detects exactly the columns that exceed the threshold.
    #[test]
    fn mixed_outlier_detection_exact(
        x in matrix(2, 6, 4.0),
        threshold in 4.5f32..8.0,
        spike in 10.0f32..50.0,
        col in 0usize..6,
    ) {
        let w = Tensor::full(0.1f32, [6, 3]);
        let layer = MixedLinear::new(&w, threshold);
        prop_assert!(layer.outlier_columns(&x).is_empty());
        let mut spiked = x.clone();
        spiked.row_mut(1)[col] = spike;
        let cols = layer.outlier_columns(&spiked);
        prop_assert_eq!(cols, vec![col]);
    }
}

// ---------------------------------------------------------------------------
// Zero-repack invariant: after construction, no linear layer's forward
// pass performs any B-operand (weight) packing. The counter is
// thread-local and the kernels pack B on the calling thread, so this
// observes exactly the packing done by the calls below.
// ---------------------------------------------------------------------------

#[test]
fn forward_passes_never_repack_weights() {
    use llmnpu_quant::per_group::GroupedLinear;
    use llmnpu_quant::per_tensor::QuantizedLinear;
    use llmnpu_quant::smooth::SmoothedLinear;
    use llmnpu_tensor::kernel::pack::pack_b_calls;

    let w = Tensor::from_vec(
        (0..64 * 48)
            .map(|i| (((i * 31 + 7) % 101) as f32 / 101.0 - 0.5) * 0.8)
            .collect::<Vec<f32>>(),
        [64, 48],
    )
    .unwrap();
    let cal = Tensor::from_vec(
        (0..2 * 64)
            .map(|i| ((i % 13) as f32 - 6.0) / 6.0)
            .collect::<Vec<f32>>(),
        [2, 64],
    )
    .unwrap();
    let scale = max_min_scale(cal.as_slice());

    // Construction is allowed (and expected) to pack, exactly once per
    // weight slab set.
    let per_tensor = QuantizedLinear::new(&w, scale);
    let shadow = ShadowLinear::new(&w, scale);
    let grouped = GroupedLinear::new(&w, 16).unwrap();
    let mixed = MixedLinear::new(&w, 6.0);
    let smoothed = SmoothedLinear::new(&w, &cal, 0.5).unwrap();

    // Decode-shaped (m = 1) and prefill-shaped (m = 8) activations: both
    // the GEMV and the tiled prepacked paths must stay pack-free.
    for rows in [1usize, 8] {
        let x = Tensor::from_vec(
            (0..rows * 64)
                .map(|i| ((i % 17) as f32 - 8.0) / 9.0)
                .collect::<Vec<f32>>(),
            [rows, 64],
        )
        .unwrap();
        let before = pack_b_calls();
        per_tensor.forward(&x).unwrap();
        shadow.forward(&x).unwrap();
        grouped.forward(&x).unwrap();
        mixed.forward(&x).unwrap();
        smoothed.forward(&x).unwrap();
        assert_eq!(
            pack_b_calls(),
            before,
            "a forward pass packed weights (rows = {rows})"
        );
    }
}

// ---------------------------------------------------------------------------
// The fused forward reproduces the two-pass pipeline bit-for-bit.
// ---------------------------------------------------------------------------

#[test]
fn fused_forward_bit_matches_two_pass_pipeline() {
    use llmnpu_quant::per_tensor::QuantizedLinear;
    use llmnpu_tensor::gemm;

    let w = Tensor::from_vec(
        (0..40 * 24)
            .map(|i| (((i * 13 + 5) % 89) as f32 / 89.0 - 0.5) * 0.6)
            .collect::<Vec<f32>>(),
        [40, 24],
    )
    .unwrap();
    for rows in [1usize, 2, 7] {
        let x = Tensor::from_vec(
            (0..rows * 40)
                .map(|i| ((i % 19) as f32 - 9.0) / 10.0)
                .collect::<Vec<f32>>(),
            [rows, 40],
        )
        .unwrap();
        let scale = max_min_scale(x.as_slice());
        let layer = QuantizedLinear::new(&w, scale);
        let y = layer.forward(&x).unwrap();
        // MatMul, then Dequantize, on the same quantized operands against
        // a fresh pack of the weight quantized here, independently of the
        // layer.
        let xq = QuantizedMatrix::quantize_with_scale(&x, scale);
        let wq = QuantizedMatrix::quantize(&w);
        let packed = llmnpu_tensor::PackedMatrixI8::from_tensor(wq.data());
        let acc = gemm::matmul_i8_prepacked(xq.data(), &packed, 1).unwrap();
        let rescale = scale * wq.scale();
        let want = acc.map(|v| v as f32 * rescale);
        assert_eq!(y.as_slice(), want.as_slice(), "rows = {rows}");
    }
}
