//! Quantization algorithms and outlier machinery for the llm.npu
//! reproduction.
//!
//! The paper's central tension (§2.3) is that mobile NPUs only run
//! *per-tensor* INT8 MatMul at full speed, while accurate LLM quantization
//! needs finer granularity because of activation outliers. This crate
//! implements every scheme the paper evaluates, with real arithmetic:
//!
//! * [`per_tensor`] — symmetric max-min per-tensor W8A8 (the NPU-native
//!   scheme, and the base of llm.npu's enhanced algorithm),
//! * [`per_group`] — per-group quantization in the style of K-Quant / AWQ
//!   (accurate, but splits one MatMul into `G` sub-MatMuls plus float
//!   reductions — the 8.1–10.7× NPU slowdown of Figure 4),
//! * [`smooth`] — SmoothQuant-style difficulty migration (per-tensor
//!   friendly, but loses accuracy on hard outliers),
//! * [`mixed`] — LLM.int8()-style mixed-precision decomposition (float
//!   outlier columns; the accuracy gold-standard among INT8 schemes),
//! * [`outlier`] — llm.npu's **shadow outlier execution** (§3.3,
//!   Equation 1): per-tensor NPU MatMul within scale, plus a compact float
//!   MatMul over extracted outlier channels on the CPU, plus the
//!   hot-channel and importance-pruning analyses of Figures 10–12,
//! * [`lut`] — sub-8-bit (int4/int2) grouped weights through the tensor
//!   plane's table-lookup kernels: pack once at construction, stream
//!   half/quarter the weight bytes per decode step.
//!
//! # Value types and layer types
//!
//! Two kinds of type live here. The *value* types
//! ([`per_tensor::QuantizedMatrix`],
//! [`per_tensor::ChannelQuantizedMatrix`],
//! [`per_group::GroupQuantizedMatrix`]) are row-major algebra: quantize,
//! inspect scales, dequantize. The *layer* types (`*Linear`) multiply,
//! and hold their weight **once**, in the kernel's packed layout
//! (`PackedMatrixI8`, or the LUT formats) plus its scales — the value
//! type lives for the duration of `new`, then drops, and whatever a
//! layer reads back (shadow-outlier rows, the `forward_float`
//! yardsticks) comes out of the packed panels. The one exception is
//! [`mixed::MixedLinear`]: LLM.int8() multiplies its outlier columns by
//! the *float* weights, so the float matrix beside the i8 one is the
//! method, not a twin.
//!
//! # Example
//!
//! ```
//! use llmnpu_quant::per_tensor::QuantizedMatrix;
//! use llmnpu_tensor::Tensor;
//!
//! # fn main() -> Result<(), llmnpu_quant::Error> {
//! let w = Tensor::from_vec(vec![0.5_f32, -1.0, 0.25, 0.75], [2, 2])?;
//! let q = QuantizedMatrix::quantize(&w);
//! let back = q.dequantize();
//! assert!(w.mse(&back)? < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod lut;
pub mod mixed;
pub mod outlier;
pub mod per_group;
pub mod per_tensor;
pub mod smooth;

pub use error::Error;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// The quantization scheme taxonomy used across experiments (Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Scheme {
    /// FP16/FP32 reference (no quantization).
    Float,
    /// Symmetric per-tensor W8A8 without outlier handling.
    PerTensor,
    /// Per-group W8A8 (K-Quant / AWQ granularity).
    PerGroup {
        /// Number of elements per quantization group along the reduction dim.
        group_size: usize,
    },
    /// SmoothQuant: per-tensor after offline difficulty migration.
    SmoothQuant,
    /// LLM.int8(): per-row/per-column scales with float outlier columns.
    LlmInt8,
    /// llm.npu: per-tensor with shadow outlier execution (§3.3).
    ShadowOutlier,
    /// 4-bit grouped weights through the table-lookup kernels
    /// ([`lut::LutLinear`]): half the i8 weight bytes, CPU LUT MatMul.
    Int4Lut {
        /// Number of reduction elements per quantization group.
        group_size: usize,
    },
    /// 2-bit (ternary) grouped weights through the table-lookup kernels.
    Int2Lut {
        /// Number of reduction elements per quantization group.
        group_size: usize,
    },
}

impl Scheme {
    /// Short identifier used in experiment output tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Scheme::Float => "FP16",
            Scheme::PerTensor => "PerTensor",
            Scheme::PerGroup { .. } => "K-Quant",
            Scheme::SmoothQuant => "SmoothQuant",
            Scheme::LlmInt8 => "LLM.int8()",
            Scheme::ShadowOutlier => "Ours",
            Scheme::Int4Lut { .. } => "W4-LUT",
            Scheme::Int2Lut { .. } => "W2-LUT",
        }
    }

    /// Whether a mobile NPU can execute this scheme's MatMul as a single
    /// per-tensor INT8 operation (Table 2 / §2.3). The LUT schemes are
    /// deliberately **not** NPU-native: their win is weight bandwidth on
    /// the CPU lane, not integer MatMul shape.
    #[must_use]
    pub fn npu_native(&self) -> bool {
        matches!(
            self,
            Scheme::PerTensor | Scheme::SmoothQuant | Scheme::ShadowOutlier
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let schemes = [
            Scheme::Float,
            Scheme::PerTensor,
            Scheme::PerGroup { group_size: 64 },
            Scheme::SmoothQuant,
            Scheme::LlmInt8,
            Scheme::ShadowOutlier,
            Scheme::Int4Lut { group_size: 128 },
            Scheme::Int2Lut { group_size: 128 },
        ];
        let mut labels: Vec<_> = schemes.iter().map(Scheme::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), schemes.len());
    }

    #[test]
    fn npu_native_matches_paper_table2() {
        assert!(Scheme::PerTensor.npu_native());
        assert!(Scheme::SmoothQuant.npu_native());
        assert!(Scheme::ShadowOutlier.npu_native());
        assert!(!Scheme::PerGroup { group_size: 32 }.npu_native());
        assert!(!Scheme::LlmInt8.npu_native());
        assert!(!Scheme::Float.npu_native());
        assert!(!Scheme::Int4Lut { group_size: 128 }.npu_native());
        assert!(!Scheme::Int2Lut { group_size: 128 }.npu_native());
    }
}
