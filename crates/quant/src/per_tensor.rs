//! Symmetric per-tensor W8A8 quantization.
//!
//! One scale for an entire tensor is the only granularity mobile NPUs
//! execute as a single INT8 MatMul (paper Figure 3(a), Table 2). llm.npu's
//! enhanced algorithm starts from exactly this scheme — "simple max-min
//! symmetry quantization" (§3.3) — and recovers accuracy through shadow
//! outlier execution rather than finer granularity.

use llmnpu_tensor::kernel::Epilogue;
use llmnpu_tensor::{gemm, PackedMatrixI8, Tensor};

use crate::Result;

/// The quantized integer range: symmetric `[-127, 127]`.
pub const QMAX: f32 = 127.0;

/// Derives the symmetric max-min scale for a float slice.
///
/// Returns a scale `s` such that `x / s` maps the largest-magnitude element
/// to ±127. Empty or all-zero inputs produce `s = 1.0` so that quantization
/// stays well-defined.
#[must_use]
pub fn max_min_scale(values: &[f32]) -> f32 {
    let abs_max = values.iter().fold(0.0_f32, |m, &v| m.max(v.abs()));
    if abs_max == 0.0 {
        1.0
    } else {
        abs_max / QMAX
    }
}

/// One fused W8A8 `MatMul → Dequantize` pass (Figure 5) into a fresh
/// `[m, n]` tensor on the default thread count: the integer half of every
/// quantized forward in this crate whose epilogue overwrites.
pub(crate) fn matmul_dequant(
    xq: &Tensor<i8>,
    packed: &PackedMatrixI8,
    epilogue: Epilogue<'_>,
) -> Result<Tensor<f32>> {
    let mut y = Tensor::zeros([xq.matrix_dims().0, packed.n()]);
    let threads = llmnpu_tensor::kernel::parallel::default_threads();
    gemm::matmul_i8_fused_prepacked(&mut y, xq, packed, epilogue, threads)?;
    Ok(y)
}

/// Reads packed weights back as the float matrix they stand for: the
/// `groups` stack along K (a whole-matrix layer passes one), and element
/// `(r, c)` of group `g` is `f32::from(w[r][c]) · scale(g, c)` — the
/// right-hand side of every `forward_float` yardstick in this crate,
/// read through [`PackedMatrixI8::copy_row`] because the layers keep no
/// row-major copy.
pub(crate) fn dequantize_packed(
    groups: &[PackedMatrixI8],
    scale: impl Fn(usize, usize) -> f32,
) -> Tensor<f32> {
    let n = groups.first().map_or(0, PackedMatrixI8::n);
    let k: usize = groups.iter().map(PackedMatrixI8::k).sum();
    let mut out = Tensor::zeros([k, n]);
    let mut wq = vec![0_i8; n];
    let mut row = 0;
    for (g, packed) in groups.iter().enumerate() {
        for r in 0..packed.k() {
            packed.copy_row(r, &mut wq);
            for (c, (dst, &q)) in out.row_mut(row).iter_mut().zip(&wq).enumerate() {
                *dst = f32::from(q) * scale(g, c);
            }
            row += 1;
        }
    }
    out
}

/// Quantizes one float to `i8` with the given scale (round half away
/// from zero, saturating at ±[`QMAX`], NaN to 0) — the tensor plane's
/// branch-free [`llmnpu_tensor::ops::quantize_i8`], so every quantizer in
/// the workspace rounds the same way.
#[must_use]
#[inline]
pub fn quantize_value(x: f32, scale: f32) -> i8 {
    llmnpu_tensor::ops::quantize_i8(x, scale)
}

/// A per-tensor quantized matrix: `i8` payload plus one float scale.
///
/// # Example
///
/// ```
/// use llmnpu_quant::per_tensor::QuantizedMatrix;
/// use llmnpu_tensor::Tensor;
///
/// # fn main() -> Result<(), llmnpu_quant::Error> {
/// let w = Tensor::from_vec(vec![1.0_f32, -2.0, 0.5, 0.25], [2, 2])?;
/// let q = QuantizedMatrix::quantize(&w);
/// assert!(q.scale() > 0.0);
/// assert!((w.mse(&q.dequantize())? as f64) < 1e-4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    data: Tensor<i8>,
    scale: f32,
}

impl QuantizedMatrix {
    /// Quantizes a float tensor with its own max-min scale.
    #[must_use]
    pub fn quantize(x: &Tensor<f32>) -> Self {
        let scale = max_min_scale(x.as_slice());
        Self::quantize_with_scale(x, scale)
    }

    /// Quantizes a float tensor with an externally chosen scale (used by
    /// calibrated activation quantization, where the scale comes from
    /// offline profiling rather than the current tensor).
    #[must_use]
    pub fn quantize_with_scale(x: &Tensor<f32>, scale: f32) -> Self {
        QuantizedMatrix {
            data: x.map(|v| quantize_value(v, scale)),
            scale,
        }
    }

    /// The integer payload.
    #[must_use]
    pub fn data(&self) -> &Tensor<i8> {
        &self.data
    }

    /// The quantization scale.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Reconstructs the float tensor.
    #[must_use]
    pub fn dequantize(&self) -> Tensor<f32> {
        let scale = self.scale;
        self.data.map(|v| f32::from(v) * scale)
    }
}

/// A weight matrix quantized with one scale per **output channel**
/// (column). Per-column weight scales are NPU-compatible: they fold into
/// the post-MatMul rescale, so the integer MatMul stays a single
/// per-tensor operation (unlike per-*group* scales along the reduction
/// dimension, which split the MatMul — §2.3). "Per-tensor quantization"
/// in the paper refers to the *activation* granularity.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuantizedMatrix {
    data: Tensor<i8>,
    scales: Vec<f32>,
}

impl ChannelQuantizedMatrix {
    /// Quantizes a `[k, n]` float matrix with per-column scales.
    #[must_use]
    pub fn quantize(w: &Tensor<f32>) -> Self {
        let (k, n) = w.matrix_dims();
        // One row-major pass: `f32::max` ignores NaN and is otherwise
        // order-independent, so walking rows (the storage order) gives
        // the same per-column maxima as walking each column.
        let mut scales = vec![0.0_f32; n];
        for r in 0..k {
            for (abs_max, &v) in scales.iter_mut().zip(w.row(r)) {
                *abs_max = abs_max.max(v.abs());
            }
        }
        for sc in &mut scales {
            *sc = if *sc == 0.0 { 1.0 } else { *sc / QMAX };
        }
        let mut data = Tensor::zeros([k, n]);
        for r in 0..k {
            let src = w.row(r);
            let dst = data.row_mut(r);
            for c in 0..n {
                dst[c] = quantize_value(src[c], scales[c]);
            }
        }
        ChannelQuantizedMatrix { data, scales }
    }

    /// The integer payload, for the layers that pack it and drop the
    /// value.
    pub(crate) fn data(&self) -> &Tensor<i8> {
        &self.data
    }

    /// Per-output-channel scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Reconstructs the float matrix.
    #[must_use]
    pub fn dequantize(&self) -> Tensor<f32> {
        let (k, n) = self.data.matrix_dims();
        let mut out = Tensor::zeros([k, n]);
        for r in 0..k {
            let src = self.data.row(r);
            let dst = out.row_mut(r);
            for c in 0..n {
                dst[c] = f32::from(src[c]) * self.scales[c];
            }
        }
        out
    }
}

/// A quantized linear layer `y = x W` with per-tensor W8A8 execution.
///
/// This is the exact dataflow of Figure 5's blue path: quantize the
/// activation, integer MatMul, dequantize.
#[derive(Debug, Clone)]
pub struct QuantizedLinear {
    /// The quantized weight, held once: packed at construction into the
    /// kernel's persistent layout; forward passes never repack.
    packed: PackedMatrixI8,
    /// The weight's per-tensor scale.
    w_scale: f32,
    /// Activation scale fixed at calibration time (`s` in Equation 1).
    act_scale: f32,
}

impl QuantizedLinear {
    /// Builds a quantized linear layer from float weights `[in, out]` and a
    /// calibrated activation scale. The quantized weight is packed into the
    /// kernel's persistent layout here, exactly once.
    #[must_use]
    pub fn new(weight: &Tensor<f32>, act_scale: f32) -> Self {
        let weight = QuantizedMatrix::quantize(weight);
        QuantizedLinear {
            packed: PackedMatrixI8::from_tensor(weight.data()),
            w_scale: weight.scale(),
            act_scale,
        }
    }

    /// The persistent kernel layout of the weight.
    #[must_use]
    pub fn packed(&self) -> &PackedMatrixI8 {
        &self.packed
    }

    /// The calibrated activation scale.
    #[must_use]
    pub fn act_scale(&self) -> f32 {
        self.act_scale
    }

    /// Runs the W8A8 forward pass: quantize `x`, then one blocked integer
    /// MatMul against the prepacked weight with the dequantization fused
    /// into the kernel epilogue (the `MatMul → Dequantize` pair of
    /// Figure 5 in a single pass). No weight packing happens here.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s inner dimension does not match the weight.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let xq = QuantizedMatrix::quantize_with_scale(x, self.act_scale);
        matmul_dequant(
            xq.data(),
            &self.packed,
            Epilogue::PerTensor {
                scale: self.act_scale * self.w_scale,
            },
        )
    }

    /// The float reference `y = x W_dequant` (what an FP16 engine computes
    /// with the same quantized weights).
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s inner dimension does not match the weight.
    pub fn forward_float(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let w = dequantize_packed(std::slice::from_ref(&self.packed), |_, _| self.w_scale);
        Ok(gemm::matmul_f32(x, &w)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_maps_abs_max_to_127() {
        let s = max_min_scale(&[0.5, -2.54, 1.0]);
        assert!((s - 2.54 / 127.0).abs() < 1e-7);
        assert_eq!(quantize_value(-2.54, s), -127);
    }

    #[test]
    fn zero_tensor_has_unit_scale() {
        assert_eq!(max_min_scale(&[0.0, 0.0]), 1.0);
        assert_eq!(max_min_scale(&[]), 1.0);
    }

    #[test]
    fn quantize_value_saturates() {
        assert_eq!(quantize_value(100.0, 0.1), 127);
        assert_eq!(quantize_value(-100.0, 0.1), -127);
    }

    #[test]
    fn round_trip_error_bounded_by_half_scale() {
        let x = Tensor::from_vec(
            (0..64)
                .map(|i| ((i * 37 % 29) as f32 - 14.0) / 3.0)
                .collect(),
            [8, 8],
        )
        .unwrap();
        let q = QuantizedMatrix::quantize(&x);
        let back = q.dequantize();
        for (a, b) in x.as_slice().iter().zip(back.as_slice()) {
            assert!((a - b).abs() <= q.scale() * 0.5 + 1e-6);
        }
    }

    #[test]
    fn linear_forward_close_to_float_reference() {
        let w =
            Tensor::from_vec((0..16).map(|i| ((i as f32) - 8.0) / 10.0).collect(), [4, 4]).unwrap();
        let x =
            Tensor::from_vec((0..8).map(|i| ((i as f32) - 4.0) / 5.0).collect(), [2, 4]).unwrap();
        let act_scale = max_min_scale(x.as_slice());
        let layer = QuantizedLinear::new(&w, act_scale);
        let y_q = layer.forward(&x).unwrap();
        let y_f = layer.forward_float(&x).unwrap();
        // Without outliers, per-tensor W8A8 should track the float reference
        // to within a few quantization steps.
        let mse = y_q.mse(&y_f).unwrap();
        assert!(mse < 1e-4, "mse = {mse}");
    }

    #[test]
    fn float_yardstick_multiplies_by_the_dequantized_value() {
        // Ragged against the panel layout: n spans two panels, k pads.
        let w = Tensor::from_vec(
            (0..21 * 19)
                .map(|i| ((i * 29 + 3) % 113) as f32 / 113.0 - 0.5)
                .collect(),
            [21, 19],
        )
        .unwrap();
        let x =
            Tensor::from_vec((0..42).map(|i| (i as f32 - 20.0) / 9.0).collect(), [2, 21]).unwrap();
        let layer = QuantizedLinear::new(&w, 0.02);
        let want = gemm::matmul_f32(&x, &QuantizedMatrix::quantize(&w).dequantize()).unwrap();
        assert_eq!(layer.forward_float(&x).unwrap().as_slice(), want.as_slice());
    }

    #[test]
    fn linear_suffers_from_outliers() {
        // Inject a single huge activation channel: the per-tensor scale
        // explodes and the normal channels lose all precision. This is the
        // failure mode that motivates §3.3.
        let w = Tensor::from_vec(vec![0.1_f32; 16], [4, 4]).unwrap();
        let mut xv = vec![0.01_f32; 4];
        xv[2] = 50.0; // outlier channel
        let x = Tensor::from_vec(xv, [1, 4]).unwrap();
        let act_scale = max_min_scale(x.as_slice());
        let layer = QuantizedLinear::new(&w, act_scale);
        let y_q = layer.forward(&x).unwrap();
        let y_f = layer.forward_float(&x).unwrap();
        // The three normal channels each contribute 0.001 to every output;
        // quantized, they contribute 0 (they round to zero at scale ~0.39).
        let err = (y_q.as_slice()[0] - y_f.as_slice()[0]).abs();
        assert!(err > 1e-4, "expected visible outlier-induced error");
    }

    #[test]
    fn channel_scales_match_the_column_major_scan() {
        // The per-column abs-max, one column at a time — what `quantize`
        // computed before it became a single row-major pass.
        let (k, n) = (37, 19);
        let mut w = Tensor::from_vec(
            (0..k * n)
                .map(|i| ((i * 53 + 5) % 211) as f32 / 211.0 - 0.5)
                .collect(),
            [k, n],
        )
        .unwrap();
        w.row_mut(3)[4] = f32::NAN; // ignored by `max`, in either order
        w.row_mut(0)[7] = -9.5;
        for r in 0..k {
            w.row_mut(r)[11] = 0.0; // all-zero column: unit scale
        }
        let want: Vec<f32> = (0..n)
            .map(|c| {
                let abs_max = (0..k).fold(0.0_f32, |m, r| m.max(w.row(r)[c].abs()));
                if abs_max == 0.0 {
                    1.0
                } else {
                    abs_max / QMAX
                }
            })
            .collect();
        let q = ChannelQuantizedMatrix::quantize(&w);
        assert_eq!(q.scales(), &want[..]);
        assert_eq!(q.scales()[11], 1.0);
    }
}
