//! LLM.int8()-style mixed-precision decomposition.
//!
//! The state-of-the-art float-outlier baseline the paper compares against
//! in Table 6. Activation columns whose magnitude exceeds a threshold are
//! computed in floating point against float weight rows; the remaining
//! columns go through vector-wise (per-row activation scale × per-column
//! weight scale) INT8 MatMul. Accuracy is near-FP16, but the decomposition
//! is *not* NPU-native: the integer part needs per-row/per-column rescales
//! and the float part runs on every layer, which is why llm.npu keeps the
//! same accuracy idea but restructures it as shadow execution (§3.3).
//!
//! The integer part executes as a single blocked W8A8 MatMul with the
//! vector-wise rescale fused into the kernel epilogue
//! (`Epilogue::PerRow`), replacing the seed's scalar per-product
//! dequantization loop.

use llmnpu_tensor::kernel::Epilogue;
use llmnpu_tensor::{gemm, PackedMatrixI8, Tensor};

use crate::per_tensor::{matmul_dequant, quantize_value, ChannelQuantizedMatrix};
use crate::Result;

/// A linear layer with LLM.int8()-style execution.
#[derive(Debug, Clone)]
pub struct MixedLinear {
    /// Float weights `[in, out]`: LLM.int8() multiplies its outlier
    /// columns by these, so this layer alone holds a weight twice.
    // lint: allow(one-copy) — the float outlier rows are the method
    weight_f: Tensor<f32>,
    /// Per-column (output channel) weight scales.
    w_scales: Vec<f32>,
    /// The per-channel quantized weights, in the kernel's packed layout.
    packed: PackedMatrixI8,
    /// Activation magnitude above which a column is treated as an outlier.
    threshold: f32,
}

impl MixedLinear {
    /// Builds a mixed-precision linear layer from float weights `[in, out]`.
    ///
    /// `threshold` is the outlier detection cut-off on activation magnitude
    /// (6.0 in the LLM.int8() paper; callers calibrate it per model).
    #[must_use]
    pub fn new(weight: &Tensor<f32>, threshold: f32) -> Self {
        let weight_q = ChannelQuantizedMatrix::quantize(weight);
        MixedLinear {
            weight_f: weight.clone(),
            w_scales: weight_q.scales().to_vec(),
            packed: PackedMatrixI8::from_tensor(weight_q.data()),
            threshold,
        }
    }

    /// The outlier threshold.
    #[must_use]
    pub fn threshold(&self) -> f32 {
        self.threshold
    }

    /// Identifies outlier columns of `x`: any column containing a value of
    /// magnitude ≥ threshold.
    #[must_use]
    pub fn outlier_columns(&self, x: &Tensor<f32>) -> Vec<usize> {
        let (rows, cols) = x.matrix_dims();
        let mut is_outlier = vec![false; cols];
        for r in 0..rows {
            for (c, &v) in x.row(r).iter().enumerate() {
                if v.abs() >= self.threshold {
                    is_outlier[c] = true;
                }
            }
        }
        is_outlier
            .iter()
            .enumerate()
            .filter_map(|(c, &o)| o.then_some(c))
            .collect()
    }

    /// Forward pass with the mixed decomposition. Returns the output and the
    /// number of outlier columns handled in float.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<(Tensor<f32>, usize)> {
        let (m, k) = x.matrix_dims();
        let outliers = self.outlier_columns(x);
        let outlier_set: std::collections::HashSet<usize> = outliers.iter().copied().collect();

        // Integer part: zero out outlier columns, per-row activation
        // scales, then one vector-wise W8A8 MatMul with the
        // `acc · row_scale · w_scale[j]` dequantization fused into the
        // kernel epilogue. Accumulating the full dot product in i32 before
        // the single rescale is exact, where the seed's per-product float
        // adds rounded at every step.
        let mut xq = Tensor::zeros([m, k]);
        let mut row_scales = vec![1.0_f32; m];
        for (r, rs) in row_scales.iter_mut().enumerate() {
            let row = x.row(r);
            let mut abs_max = 0.0_f32;
            for (c, &v) in row.iter().enumerate() {
                if !outlier_set.contains(&c) {
                    abs_max = abs_max.max(v.abs());
                }
            }
            let a_scale = if abs_max == 0.0 { 1.0 } else { abs_max / 127.0 };
            *rs = a_scale;
            let dst = xq.row_mut(r);
            for (c, &v) in row.iter().enumerate() {
                dst[c] = if outlier_set.contains(&c) {
                    0
                } else {
                    quantize_value(v, a_scale)
                };
            }
        }
        let mut y = matmul_dequant(
            &xq,
            &self.packed,
            Epilogue::PerRow {
                row_scales: &row_scales,
                w_scales: &self.w_scales,
            },
        )?;

        // Float part: outlier columns against float weight rows.
        for &c in &outliers {
            if c >= k {
                break;
            }
            let w_row = self.weight_f.row(c);
            for r in 0..m {
                let xv = x.row(r)[c];
                if xv == 0.0 {
                    continue;
                }
                let out_row = y.row_mut(r);
                for (j, &wv) in w_row.iter().enumerate() {
                    out_row[j] += xv * wv;
                }
            }
        }
        Ok((y, outliers.len()))
    }

    /// Float reference `y = x W`.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_float(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(gemm::matmul_f32(x, &self.weight_f)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(k: usize, n: usize, amp: f32) -> Tensor<f32> {
        Tensor::from_vec(
            (0..k * n)
                .map(|i| amp * (((i * 13 + 5) % 89) as f32 / 89.0 - 0.5))
                .collect(),
            [k, n],
        )
        .unwrap()
    }

    #[test]
    fn detects_outlier_columns() {
        let w = ramp(4, 2, 1.0);
        let layer = MixedLinear::new(&w, 6.0);
        let x = Tensor::from_vec(vec![0.1_f32, 7.0, -0.2, 0.3], [1, 4]).unwrap();
        assert_eq!(layer.outlier_columns(&x), vec![1]);
    }

    #[test]
    fn integer_half_matches_the_column_major_quantization_loop() {
        // What `new` computed before it went through
        // `ChannelQuantizedMatrix`: per-column abs-max one column at a
        // time, then `quantize_value` per element.
        let (k, n) = (21, 19);
        let mut w = ramp(k, n, 1.0);
        w.row_mut(3)[4] = f32::NAN; // ignored by `max`, quantizes to 0
        w.row_mut(0)[7] = -9.5; // a negative extreme sets its column's scale
        for r in 0..k {
            w.row_mut(r)[11] = 0.0; // all-zero column: unit scale
        }
        let mut w_scales = vec![1.0_f32; n];
        for (c, ws) in w_scales.iter_mut().enumerate() {
            let abs_max = (0..k).fold(0.0_f32, |m, r| m.max(w.row(r)[c].abs()));
            *ws = if abs_max == 0.0 { 1.0 } else { abs_max / 127.0 };
        }
        let mut weight_q = Tensor::zeros([k, n]);
        for r in 0..k {
            for (c, &ws) in w_scales.iter().enumerate() {
                weight_q.row_mut(r)[c] = quantize_value(w.row(r)[c], ws);
            }
        }
        let layer = MixedLinear::new(&w, 6.0);
        assert_eq!(layer.w_scales, w_scales);
        assert_eq!(layer.packed, PackedMatrixI8::from_tensor(&weight_q));
        assert_eq!((w_scales[11], weight_q.row(0)[7]), (1.0, -127));
    }

    #[test]
    fn no_outliers_means_pure_integer_path() {
        let w = ramp(8, 4, 1.0);
        let layer = MixedLinear::new(&w, 6.0);
        let x = ramp(2, 8, 1.0);
        let (y, n_out) = layer.forward(&x).unwrap();
        assert_eq!(n_out, 0);
        assert!(y.mse(&layer.forward_float(&x).unwrap()).unwrap() < 1e-3);
    }

    #[test]
    fn outliers_handled_in_float_stay_accurate() {
        let w = ramp(16, 8, 0.5);
        let layer = MixedLinear::new(&w, 6.0);
        let mut xv = vec![0.04_f32; 16];
        xv[3] = 55.0;
        let x = Tensor::from_vec(xv, [1, 16]).unwrap();
        let (y, n_out) = layer.forward(&x).unwrap();
        assert_eq!(n_out, 1);
        let y_ref = layer.forward_float(&x).unwrap();
        let rel = y.mse(&y_ref).unwrap().sqrt() / y_ref.abs_max().max(1e-6);
        assert!(rel < 0.01, "rel err {rel} too large");
    }

    #[test]
    fn mixed_beats_per_tensor_on_outliers() {
        use crate::per_tensor::{max_min_scale, QuantizedLinear};
        let w = ramp(16, 8, 0.5);
        let mut xv = vec![0.04_f32; 16];
        xv[3] = 55.0;
        let x = Tensor::from_vec(xv.clone(), [1, 16]).unwrap();

        let mixed = MixedLinear::new(&w, 6.0);
        let (y_m, _) = mixed.forward(&x).unwrap();
        let y_ref = mixed.forward_float(&x).unwrap();
        let err_mixed = y_m.mse(&y_ref).unwrap();

        let naive = QuantizedLinear::new(&w, max_min_scale(&xv));
        let err_naive = naive.forward(&x).unwrap().mse(&y_ref).unwrap();
        assert!(err_mixed < err_naive / 10.0);
    }

    #[test]
    fn multi_row_batches_detect_union_of_outliers() {
        let w = ramp(4, 2, 1.0);
        let layer = MixedLinear::new(&w, 6.0);
        let x = Tensor::from_vec(vec![0.1_f32, 7.0, 0.0, 0.0, 8.0, 0.1, 0.0, 0.0], [2, 4]).unwrap();
        assert_eq!(layer.outlier_columns(&x), vec![0, 1]);
    }
}
