//! Sub-8-bit weight quantization through the tensor plane's
//! table-lookup formats: int4 / int2 codes with per-group f32 scales.
//!
//! Where [`per_group`](crate::per_group) splits one MatMul into `G`
//! NPU sub-MatMuls (the 8.1–10.7× slowdown of Figure 4), the LUT
//! formats keep the whole reduction in one kernel pass: weights are
//! quantized to 4- or 2-bit codes at construction, packed once into
//! the column-panel split-plane layout of
//! [`PackedMatrixI4`] / [`PackedMatrixI2`], and every forward runs the
//! in-register table-lookup drivers against the same packed bytes —
//! one-half (int4) or one-quarter (int2) the weight traffic of the i8
//! path, which is what a bandwidth-bound decode step actually pays
//! for. Activations stay f32 at the API boundary; the driver
//! quantizes each row with its own dynamic max-min scale, so batched
//! rows are bit-identical to solo rows.

use llmnpu_tensor::{gemm, PackedMatrixI2, PackedMatrixI4, Tensor};

use crate::{Error, Result};

/// Packed sub-8-bit weights behind one dispatch point.
#[derive(Debug, Clone)]
enum LutWeights {
    I4(PackedMatrixI4),
    I2(PackedMatrixI2),
}

/// A linear layer whose weights live permanently in a packed LUT
/// format — quantize-and-pack once at construction, stream the packed
/// codes on every call (the pack-once discipline of
/// [`GroupedLinear`](crate::per_group::GroupedLinear), at a quarter to
/// an eighth of its weight bytes).
#[derive(Debug, Clone)]
pub struct LutLinear {
    weights: LutWeights,
    group_size: usize,
}

impl LutLinear {
    /// Quantizes float weights `[in, out]` to int4 codes with one f32
    /// scale per `group_size` reduction elements, packing them once.
    /// `weights` lie side by side — the projections of one activation,
    /// `weights[i]` filling the next `n_i` output columns; scales are per
    /// column, so each one packs exactly as it would alone. A single
    /// projection passes one.
    ///
    /// Unlike the per-group i8 scheme, the reduction dim does **not**
    /// have to be a multiple of `group_size` — the packed format
    /// carries a ragged tail group.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGranularity`] if `group_size` is not a
    /// positive multiple of 4 (the packed planes split a group into
    /// quarters), or an error if the weights disagree on `k`.
    pub fn int4(weights: &[&Tensor<f32>], group_size: usize) -> Result<Self> {
        check_lut_group("lut_int4", group_size)?;
        Ok(LutLinear {
            weights: LutWeights::I4(PackedMatrixI4::from_blocks(weights, group_size)?),
            group_size,
        })
    }

    /// Quantizes float weights `[in, out]` to int2 (ternary) codes;
    /// otherwise identical to [`LutLinear::int4`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidGranularity`] if `group_size` is not a
    /// positive multiple of 4, or an error if the weights disagree on `k`.
    pub fn int2(weights: &[&Tensor<f32>], group_size: usize) -> Result<Self> {
        check_lut_group("lut_int2", group_size)?;
        Ok(LutLinear {
            weights: LutWeights::I2(PackedMatrixI2::from_blocks(weights, group_size)?),
            group_size,
        })
    }

    /// Weight bits per element (4 or 2).
    #[must_use]
    pub fn bits(&self) -> u32 {
        match &self.weights {
            LutWeights::I4(_) => 4,
            LutWeights::I2(_) => 2,
        }
    }

    /// Quantization group width along the reduction dim.
    #[must_use]
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Reduction dimension of the packed weight.
    #[must_use]
    pub fn k(&self) -> usize {
        match &self.weights {
            LutWeights::I4(p) => p.k(),
            LutWeights::I2(p) => p.k(),
        }
    }

    /// Output dimension of the packed weight.
    #[must_use]
    pub fn n(&self) -> usize {
        match &self.weights {
            LutWeights::I4(p) => p.n(),
            LutWeights::I2(p) => p.n(),
        }
    }

    /// Bytes the forward pass streams per call: packed codes plus
    /// per-group scales. The weight-memory column of the experiment
    /// tables.
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        match &self.weights {
            LutWeights::I4(p) => p.packed_bytes(),
            LutWeights::I2(p) => p.packed_bytes(),
        }
    }

    /// Runs `x · W` through the optimized in-register LUT drivers.
    /// Bit-exact vs [`LutLinear::forward_reference`] for any thread
    /// count, and row-wise: each output row depends only on its own
    /// input row.
    ///
    /// # Errors
    ///
    /// Returns an error if `x`'s inner dimension differs from the
    /// weight's reduction dim.
    pub fn forward(&self, x: &Tensor<f32>, threads: usize) -> Result<Tensor<f32>> {
        match &self.weights {
            LutWeights::I4(p) => Ok(gemm::matmul_i4_prepacked(x, p, threads)?),
            LutWeights::I2(p) => Ok(gemm::matmul_i2_prepacked(x, p, threads)?),
        }
    }

    /// The scalar materialized-table reference (builds real lookup
    /// tables per activation row; the semantic definition the
    /// optimized drivers are pinned against).
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_reference(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        match &self.weights {
            LutWeights::I4(p) => Ok(gemm::matmul_lut_reference(x, p)?),
            LutWeights::I2(p) => Ok(gemm::matmul_lut_reference(x, p)?),
        }
    }

    /// Float matmul against the dequantized weights — the accuracy
    /// yardstick (quantization error only, no activation rounding).
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_float(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(gemm::matmul_f32(x, &self.dequantize())?)
    }

    /// Dequantizes the packed codes back to a float `[k, n]` tensor.
    #[must_use]
    pub fn dequantize(&self) -> Tensor<f32> {
        let (k, n, data) = match &self.weights {
            LutWeights::I4(p) => (p.k(), p.n(), p.dequantize()),
            LutWeights::I2(p) => (p.k(), p.n(), p.dequantize()),
        };
        // lint: allow(panic) — dequantize always yields exactly k·n elements
        Tensor::from_vec(data, [k, n]).expect("packed dims are consistent")
    }
}

/// Mirrors the tensor plane's group constraint as a recoverable error
/// (the kernel layer asserts; the quant API reports).
fn check_lut_group(op: &'static str, group_size: usize) -> Result<()> {
    if group_size == 0 || !group_size.is_multiple_of(4) {
        return Err(Error::InvalidGranularity {
            what: format!("{op}: LUT group size {group_size} must be a positive multiple of 4"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(rows: usize, cols: usize, amp: f32) -> Tensor<f32> {
        Tensor::from_vec(
            (0..rows * cols)
                .map(|i| amp * (((i * 37 + 11) % 127) as f32 / 127.0 - 0.5))
                .collect(),
            [rows, cols],
        )
        .unwrap()
    }

    #[test]
    fn int4_forward_matches_reference_bit_exact() {
        let w = ramp(40, 17, 0.8); // ragged k and n
        let lin = LutLinear::int4(&[&w], 16).unwrap();
        let x = ramp(3, 40, 1.0);
        for threads in [1, 2, 4] {
            let fast = lin.forward(&x, threads).unwrap();
            let reference = lin.forward_reference(&x).unwrap();
            assert_eq!(fast.as_slice(), reference.as_slice());
        }
    }

    #[test]
    fn int2_forward_matches_reference_bit_exact() {
        let w = ramp(40, 17, 0.8);
        let lin = LutLinear::int2(&[&w], 8).unwrap();
        let x = ramp(2, 40, 1.0);
        let fast = lin.forward(&x, 2).unwrap();
        let reference = lin.forward_reference(&x).unwrap();
        assert_eq!(fast.as_slice(), reference.as_slice());
    }

    #[test]
    fn quantization_error_is_bounded() {
        let w = ramp(64, 24, 1.0);
        let i4 = LutLinear::int4(&[&w], 16).unwrap();
        let i2 = LutLinear::int2(&[&w], 16).unwrap();
        let mse4 = w.mse(&i4.dequantize()).unwrap();
        let mse2 = w.mse(&i2.dequantize()).unwrap();
        assert!(mse4 < 5e-3, "int4 mse {mse4}");
        // Ternary codes are coarse but must still track the signal.
        assert!(mse2 < 5e-2, "int2 mse {mse2}");
        assert!(mse4 < mse2, "more bits must not hurt");
    }

    #[test]
    fn weight_bytes_shrink_with_bits() {
        let w = ramp(128, 32, 0.5);
        let i4 = LutLinear::int4(&[&w], 32).unwrap();
        let i2 = LutLinear::int2(&[&w], 32).unwrap();
        let f32_bytes = 128 * 32 * 4;
        assert!(i4.weight_bytes() * 6 < f32_bytes, "int4 ≈ f32/8 + scales");
        assert!(i2.weight_bytes() < i4.weight_bytes());
        assert_eq!((i4.bits(), i2.bits()), (4, 2));
        assert_eq!((i4.k(), i4.n()), (128, 32));
    }

    #[test]
    fn invalid_group_sizes_are_rejected() {
        let w = ramp(16, 4, 0.5);
        for gs in [0, 2, 6] {
            assert!(matches!(
                LutLinear::int4(&[&w], gs),
                Err(Error::InvalidGranularity { .. })
            ));
            assert!(matches!(
                LutLinear::int2(&[&w], gs),
                Err(Error::InvalidGranularity { .. })
            ));
        }
    }
}
