//! Per-group quantization (K-Quant / AWQ granularity).
//!
//! Activations and weights are partitioned into groups along the reduction
//! dimension, each with an independent scale (paper Figure 3(b)). On an NPU
//! this forces the MatMul to be split into `G` group-sized sub-MatMuls whose
//! `i32` partial results must be dequantized and summed in floating point —
//! the extra float work and lost utilization behind Figure 4's 8.1–10.7×
//! slowdown. The [`GroupedLinear::forward`] here performs exactly that
//! decomposition (real sub-MatMuls, real float reductions), and reports how
//! many sub-MatMuls / float adds the NPU would have to schedule.

use llmnpu_tensor::kernel::Epilogue;
use llmnpu_tensor::{gemm, PackedMatrixI8, Tensor};

use crate::per_tensor::{dequantize_packed, max_min_scale, quantize_value};
use crate::{Error, Result};

/// A matrix quantized with an independent scale per `group_size`-wide slice
/// of the reduction (row) dimension.
#[derive(Debug, Clone)]
pub struct GroupQuantizedMatrix {
    /// `i8` payload, same layout as the float original `[k, n]`.
    data: Tensor<i8>,
    /// One scale per group (group `g` covers rows `g*group_size..(g+1)*group_size`).
    scales: Vec<f32>,
    group_size: usize,
}

impl GroupQuantizedMatrix {
    /// Quantizes `w` (`[k, n]` matrix view) with per-group scales along `k`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGranularity`] if `group_size` is zero or does
    /// not divide `k`.
    pub fn quantize(w: &Tensor<f32>, group_size: usize) -> Result<Self> {
        let (k, n) = w.matrix_dims();
        check_group("GroupQuantizedMatrix::quantize", k, group_size)?;
        let groups = k / group_size;
        let mut data = Tensor::zeros([k, n]);
        let mut scales = Vec::with_capacity(groups);
        for g in 0..groups {
            let rows = g * group_size..(g + 1) * group_size;
            let flat: Vec<f32> = rows
                .clone()
                .flat_map(|r| w.row(r).iter().copied())
                .collect();
            let scale = max_min_scale(&flat);
            scales.push(scale);
            for r in rows {
                let src = w.row(r);
                let dst = data.row_mut(r);
                for c in 0..n {
                    dst[c] = quantize_value(src[c], scale);
                }
            }
        }
        Ok(GroupQuantizedMatrix {
            data,
            scales,
            group_size,
        })
    }

    /// Number of groups.
    #[must_use]
    pub fn group_count(&self) -> usize {
        self.scales.len()
    }

    /// Group width along the reduction dimension.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Per-group scales.
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
            let scale = self.scales[r / self.group_size];
            let src = self.data.row(r);
            let dst = out.row_mut(r);
            for c in 0..n {
                dst[c] = f32::from(src[c]) * scale;
            }
        }
        out
    }
}

/// Execution statistics for one grouped forward pass — the quantities that
/// determine NPU overhead in §2.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GroupExecStats {
    /// Number of group-sized integer sub-MatMuls executed.
    pub sub_matmuls: usize,
    /// Number of float additions performed to reduce partial results.
    pub float_adds: usize,
}

/// A linear layer with per-group W8A8 quantization of both operands.
#[derive(Debug, Clone)]
pub struct GroupedLinear {
    /// The quantized weight, held once: one persistent kernel layout per
    /// weight group (`[group_size, n]`), sliced and packed at
    /// construction.
    group_packed: Vec<PackedMatrixI8>,
    /// One scale per group.
    scales: Vec<f32>,
}

impl GroupedLinear {
    /// Builds a grouped linear layer from float weights `[in, out]`,
    /// pre-slicing and pre-packing every weight group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGranularity`] if the group size is invalid.
    pub fn new(weight: &Tensor<f32>, group_size: usize) -> Result<Self> {
        let weight = GroupQuantizedMatrix::quantize(weight, group_size)?;
        let (_, n) = weight.data.matrix_dims();
        let gs = weight.group_size;
        // A group's rows are contiguous in the row-major payload, so each
        // [gs, n] slice packs directly.
        let group_packed = weight
            .data
            .as_slice()
            .chunks_exact(gs * n)
            .map(|group| PackedMatrixI8::pack(group, gs, n))
            .collect();
        Ok(GroupedLinear {
            group_packed,
            scales: weight.scales,
        })
    }

    /// Runs the grouped forward pass, returning the output and the
    /// sub-MatMul / float-reduction counts an NPU would incur.
    ///
    /// Each activation group is quantized with its own max-min scale
    /// (dynamic activation quantization, as K-Quant does), multiplied
    /// against the matching weight group in `i8`, dequantized, and summed in
    /// float.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s inner dimension does not match the weight's
    /// reduction dimension.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<(Tensor<f32>, GroupExecStats)> {
        let (m, k) = x.matrix_dims();
        let (gs, n) = self.group_packed.first().map_or((0, 0), |p| (p.k(), p.n()));
        let wk = gs * self.group_packed.len();
        if k != wk {
            return Err(Error::Tensor(llmnpu_tensor::Error::ShapeMismatch {
                op: "grouped_forward",
                lhs: vec![m, k],
                rhs: vec![wk, n],
            }));
        }
        let mut out = Tensor::zeros([m, n]);
        let mut stats = GroupExecStats::default();

        for (g, packed) in self.group_packed.iter().enumerate() {
            let cols = g * gs..(g + 1) * gs;
            // Slice the activation group [m, gs] (activations change per
            // call — only the weight side is pre-sliced and pre-packed).
            let mut xg = Tensor::zeros([m, gs]);
            for r in 0..m {
                let src = &x.row(r)[cols.clone()];
                xg.row_mut(r).copy_from_slice(src);
            }
            let a_scale = max_min_scale(xg.as_slice());
            let xq = xg.map(|v| quantize_value(v, a_scale));

            // Fused dequantize-and-accumulate epilogue against the
            // group's prepacked weight slice: the i32 partial sums fold
            // straight into the float total without materializing a
            // per-group tensor, and no weight bytes are copied or packed
            // here. Results are identical to the two-pass per-tensor
            // dequantize + `accumulate` pipeline.
            gemm::matmul_i8_fused_prepacked(
                &mut out,
                &xq,
                packed,
                Epilogue::PerTensorAcc {
                    scale: a_scale * self.scales[g],
                },
                1,
            )?;
            stats.sub_matmuls += 1;
            stats.float_adds += out.len();
        }
        Ok((out, stats))
    }

    /// Float reference using dequantized weights.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_float(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let w = dequantize_packed(&self.group_packed, |g, _| self.scales[g]);
        Ok(gemm::matmul_f32(x, &w)?)
    }
}

fn check_group(op: &'static str, k: usize, group_size: usize) -> Result<()> {
    if group_size == 0 || !k.is_multiple_of(group_size) {
        return Err(Error::InvalidGranularity {
            what: format!("{op}: group size {group_size} must divide reduction dim {k}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(k: usize, n: usize, amp: f32) -> Tensor<f32> {
        Tensor::from_vec(
            (0..k * n)
                .map(|i| amp * (((i * 31 + 7) % 101) as f32 / 101.0 - 0.5))
                .collect(),
            [k, n],
        )
        .unwrap()
    }

    #[test]
    fn rejects_bad_group_size() {
        let w = ramp(8, 4, 1.0);
        assert!(GroupQuantizedMatrix::quantize(&w, 0).is_err());
        assert!(GroupQuantizedMatrix::quantize(&w, 3).is_err());
        assert!(GroupQuantizedMatrix::quantize(&w, 4).is_ok());
    }

    #[test]
    fn group_count_and_scales() {
        let w = ramp(8, 4, 1.0);
        let q = GroupQuantizedMatrix::quantize(&w, 2).unwrap();
        assert_eq!(q.group_count(), 4);
        assert_eq!(q.scales().len(), 4);
        assert_eq!(q.group_size(), 2);
    }

    #[test]
    fn forward_counts_sub_matmuls() {
        let w = ramp(8, 4, 1.0);
        let x = ramp(2, 8, 1.0);
        let layer = GroupedLinear::new(&w, 2).unwrap();
        let (_, stats) = layer.forward(&x).unwrap();
        assert_eq!(stats.sub_matmuls, 4);
        assert_eq!(stats.float_adds, 4 * 2 * 4);
    }

    #[test]
    fn grouped_tracks_float_reference() {
        let w = ramp(16, 8, 0.8);
        let x = ramp(3, 16, 1.2);
        let layer = GroupedLinear::new(&w, 4).unwrap();
        let (y, _) = layer.forward(&x).unwrap();
        let y_f = layer.forward_float(&x).unwrap();
        assert!(y.mse(&y_f).unwrap() < 1e-3);
    }

    #[test]
    fn float_yardstick_multiplies_by_the_dequantized_value() {
        // Groups of 5 rows pad inside their panels; n spans two panels.
        let w = ramp(20, 19, 0.8);
        let x = ramp(3, 20, 1.2);
        let layer = GroupedLinear::new(&w, 5).unwrap();
        let q = GroupQuantizedMatrix::quantize(&w, 5).unwrap();
        let want = gemm::matmul_f32(&x, &q.dequantize()).unwrap();
        assert_eq!(layer.forward_float(&x).unwrap().as_slice(), want.as_slice());
    }

    #[test]
    fn grouped_beats_per_tensor_on_outliers() {
        use crate::per_tensor::QuantizedLinear;
        // One group carries a huge outlier; per-group confines the damage to
        // that group while per-tensor destroys every channel's precision.
        let w = ramp(16, 8, 0.5);
        let mut xv = vec![0.02_f32; 16];
        xv[1] = 40.0;
        let x = Tensor::from_vec(xv, [1, 16]).unwrap();

        let grouped = GroupedLinear::new(&w, 4).unwrap();
        let (y_g, _) = grouped.forward(&x).unwrap();
        let reference = grouped.forward_float(&x).unwrap();
        let err_grouped = y_g.mse(&reference).unwrap();

        let per_tensor = QuantizedLinear::new(&w, max_min_scale(x.as_slice()));
        let y_t = per_tensor.forward(&x).unwrap();
        let reference_t = per_tensor.forward_float(&x).unwrap();
        let err_tensor = y_t.mse(&reference_t).unwrap();

        assert!(
            err_grouped < err_tensor,
            "grouped {err_grouped} should beat per-tensor {err_tensor}"
        );
    }

    #[test]
    fn dequantize_round_trip_bounded() {
        let w = ramp(8, 8, 2.0);
        let q = GroupQuantizedMatrix::quantize(&w, 4).unwrap();
        let back = q.dequantize();
        for (g, chunk) in back.as_slice().chunks(4 * 8).enumerate() {
            let scale = q.scales()[g];
            for (a, b) in chunk.iter().zip(&w.as_slice()[g * 32..(g + 1) * 32]) {
                assert!((a - b).abs() <= scale * 0.5 + 1e-6);
            }
        }
    }
}
