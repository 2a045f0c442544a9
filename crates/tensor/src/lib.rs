//! Dense tensor numerics for the `llmnpu` workspace.
//!
//! This crate is the "numeric plane" foundation of the llm.npu reproduction:
//! a small, dependency-free tensor library with exactly the kernels a
//! quantized decoder-only transformer needs.
//!
//! * row-major [`Tensor`] storage over `f32`, `i8`, and `i32`,
//! * [`gemm`] — floating-point and integer (`i8 × i8 → i32`) matrix multiply,
//!   including fused `MatMul → Dequantize` variants,
//! * [`kernel`] — the blocked, packed, register-tiled, multi-threaded GEMM
//!   subsystem the `gemm` wrappers execute on, including persistent
//!   [`PackedMatrixF32`]/[`PackedMatrixI8`] weight layouts, sub-8-bit
//!   [`PackedMatrixI4`]/[`PackedMatrixI2`] table-lookup (LUT) formats,
//!   and `*_prepacked` drivers that never repack weights per call,
//! * [`norm`] — LayerNorm and RMSNorm,
//! * [`ops`] — softmax, SiLU/GELU, elementwise arithmetic, causal masking,
//! * [`rope`] — rotary position embeddings.
//!
//! The matmul hot path is **no longer scalar**: [`kernel`] implements
//! cache-blocked GEMM with panel packing, an `MR × NR` register-tiled
//! microkernel (auto-vectorized, with hardware FMA when the build target
//! has it), fused dequantization epilogues, and deterministic
//! row-partitioned threading — all in safe Rust with zero dependencies
//! but for one audited `unsafe` block: the runtime dispatch of the
//! integer tile to its AVX-512 VNNI body (`kernel::microkernel`, the one
//! module allowed `unsafe_code` under this crate's
//! `#![deny(unsafe_code)]`). The original scalar triple loops survive as
//! `gemm::matmul_*_reference` for parity testing: integer kernels are
//! bit-exact against them, float kernels are held to tight ULP bounds.
//! Determinism guarantee: for a fixed build, results do not depend on the
//! blocking constants, the thread count, or which integer tile body the
//! host CPU selects (see [`kernel`] docs).
//! The "timing plane" (how fast a mobile NPU would run these shapes) lives
//! in `llmnpu-soc`.
//!
//! # Example
//!
//! ```
//! use llmnpu_tensor::{Tensor, gemm};
//!
//! # fn main() -> Result<(), llmnpu_tensor::Error> {
//! let a = Tensor::from_vec(vec![1.0_f32, 2.0, 3.0, 4.0], [2, 2])?;
//! let b = Tensor::eye(2);
//! let c = gemm::matmul_f32(&a, &b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

pub mod gemm;
pub mod kernel;
pub mod norm;
pub mod ops;
pub mod rope;

pub use error::Error;
pub use kernel::lut::{PackedMatrixI2, PackedMatrixI4};
pub use kernel::pack::{PackedMatrixF32, PackedMatrixI8};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
