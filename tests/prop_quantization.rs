//! Property-based tests for the quantization stack: invariants that must
//! hold for *any* input, not just the curated unit-test cases.

use proptest::prelude::*;

use llmnpu::quant::outlier::{extract_outliers, prune_layers, ShadowLinear};
use llmnpu::quant::per_group::GroupQuantizedMatrix;
use llmnpu::quant::per_tensor::{
    max_min_scale, quantize_value, ChannelQuantizedMatrix, QuantizedMatrix, QMAX,
};
use llmnpu::tensor::{gemm, Tensor};

fn finite_vec(len: usize, mag: f32) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-mag..mag, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round-trip error of per-tensor quantization is bounded by half the
    /// scale for every in-range element.
    #[test]
    fn per_tensor_round_trip_bounded(values in finite_vec(64, 50.0)) {
        let t = Tensor::from_vec(values.clone(), [8, 8]).unwrap();
        let q = QuantizedMatrix::quantize(&t);
        let back = q.dequantize();
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            prop_assert!((a - b).abs() <= q.scale() * 0.5 + 1e-5);
        }
    }

    /// Per-channel weight quantization bounds the error per column by half
    /// that column's scale.
    #[test]
    fn per_channel_round_trip_bounded(values in finite_vec(48, 20.0)) {
        let t = Tensor::from_vec(values, [6, 8]).unwrap();
        let q = ChannelQuantizedMatrix::quantize(&t);
        let back = q.dequantize();
        for r in 0..6 {
            for c in 0..8 {
                let err = (t.row(r)[c] - back.row(r)[c]).abs();
                prop_assert!(err <= q.scales()[c] * 0.5 + 1e-5);
            }
        }
    }

    /// quantize_value never leaves the i8 symmetric range.
    #[test]
    fn quantize_value_in_range(x in -1e6_f32..1e6, scale in 1e-4_f32..1e3) {
        let q = quantize_value(x, scale);
        prop_assert!((-127..=127).contains(&i32::from(q)));
    }

    /// The shadow decomposition is *exact* on extracted channels: the
    /// clipped part plus the residual reconstructs the original value.
    #[test]
    fn extraction_residuals_reconstruct(values in finite_vec(32, 30.0), scale in 0.01_f32..0.2) {
        let x = Tensor::from_vec(values, [4, 8]).unwrap();
        let out = extract_outliers(&x, scale);
        let limit = QMAX * scale;
        for (j, &c) in out.channels.iter().enumerate() {
            for r in 0..4 {
                let v = x.row(r)[c];
                let clipped = v.clamp(-limit, limit);
                let residual = out.residuals.row(r)[j];
                prop_assert!((clipped + residual - v).abs() < 1e-5);
            }
        }
        // And non-extracted channels are genuinely in range.
        let extracted: std::collections::HashSet<usize> =
            out.channels.iter().copied().collect();
        for c in 0..8 {
            if !extracted.contains(&c) {
                for r in 0..4 {
                    prop_assert!(x.row(r)[c].abs() <= limit + 1e-5);
                }
            }
        }
    }

    /// Shadow forward ≈ float reference against the same quantized
    /// weights, regardless of how extreme the activations are (outliers
    /// are corrected, inliers only carry bounded rounding error).
    #[test]
    fn shadow_forward_tracks_reference(
        weights in finite_vec(64, 1.0),
        acts in finite_vec(16, 2.0),
        spike in 5.0_f32..80.0,
        spike_pos in 0usize..8,
    ) {
        let w = Tensor::from_vec(weights, [8, 8]).unwrap();
        let mut a = acts;
        a[spike_pos] = spike; // plant an outlier in row 0
        let x = Tensor::from_vec(a, [2, 8]).unwrap();
        // Scale calibrated on the non-spiked range.
        let scale = max_min_scale(&[2.0, -2.0]);
        let layer = ShadowLinear::new(&w, scale);
        let out = layer.forward(&x).unwrap();
        let reference = layer.forward_float(&x).unwrap();
        let denom = reference.abs_max().max(1.0);
        let rel = out.output.mse(&reference).unwrap().sqrt() / denom;
        prop_assert!(rel < 0.05, "rel err {rel}");
    }

    /// Per-group quantization with any valid group size tracks the float
    /// reference.
    #[test]
    fn per_group_round_trip(values in finite_vec(64, 10.0), group_pow in 0u32..4) {
        let group = 1usize << group_pow; // 1, 2, 4, 8
        let t = Tensor::from_vec(values, [8, 8]).unwrap();
        let q = GroupQuantizedMatrix::quantize(&t, group).unwrap();
        prop_assert_eq!(q.group_count(), 8 / group);
        let back = q.dequantize();
        for g in 0..q.group_count() {
            let scale = q.scales()[g];
            for r in g * group..(g + 1) * group {
                for c in 0..8 {
                    prop_assert!((t.row(r)[c] - back.row(r)[c]).abs() <= scale * 0.5 + 1e-5);
                }
            }
        }
    }

    /// prune_layers always keeps exactly the requested fraction and keeps
    /// the highest-importance entries.
    #[test]
    fn prune_keeps_top_importance(
        importances in prop::collection::vec(0.0_f32..100.0, 1..40),
        rate in 0.0_f64..1.0,
    ) {
        let mask = prune_layers(&importances, rate).unwrap();
        let expected_keep =
            importances.len() - (importances.len() as f64 * rate).round() as usize;
        prop_assert_eq!(mask.iter().filter(|&&k| k).count(), expected_keep);
        // No pruned entry is strictly more important than a kept entry.
        let kept_min = mask
            .iter()
            .zip(&importances)
            .filter(|(k, _)| **k)
            .map(|(_, &v)| v)
            .fold(f32::INFINITY, f32::min);
        for (k, &v) in mask.iter().zip(&importances) {
            if !k {
                prop_assert!(v <= kept_min + 1e-6);
            }
        }
    }

    /// Integer GEMM agrees with float GEMM exactly for i8 operands.
    #[test]
    fn i8_gemm_matches_f32(
        a in prop::collection::vec(-128i32..=127, 12),
        b in prop::collection::vec(-128i32..=127, 12),
    ) {
        let ai: Vec<i8> = a.iter().map(|&v| v as i8).collect();
        let bi: Vec<i8> = b.iter().map(|&v| v as i8).collect();
        let ta = Tensor::from_vec(ai.clone(), [3, 4]).unwrap();
        let tb = Tensor::from_vec(bi.clone(), [4, 3]).unwrap();
        let packed = llmnpu::tensor::PackedMatrixI8::from_tensor(&tb);
        let ci = gemm::matmul_i8_prepacked(&ta, &packed, 1).unwrap();
        let fa = ta.map(f32::from);
        let fb = tb.map(f32::from);
        let cf = gemm::matmul_f32(&fa, &fb).unwrap();
        for (i, f) in ci.as_slice().iter().zip(cf.as_slice()) {
            prop_assert_eq!(*i as f32, *f);
        }
    }
}
