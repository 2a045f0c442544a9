//! Mobile LLM architectures, synthetic models, and the reference forward
//! pass for the llm.npu reproduction.
//!
//! Two roles:
//!
//! 1. **Timing plane** — [`config::ModelConfig`] describes the exact
//!    architectures of the five models the paper evaluates (Qwen1.5-1.8B,
//!    Gemma-2B, Phi-2-2.7B, LLaMA-2-7B, Mistral-7B): layer shapes, head
//!    layouts, FFN widths. Latency/energy/memory experiments need only
//!    these shapes.
//! 2. **Numeric plane** — [`weights`] synthesizes *small* transformers with
//!    realistic activation-outlier structure (seeded, reproducible), and
//!    [`forward::Transformer`] runs a real FP32 decoder forward pass over
//!    them. The linear layers are routed through a pluggable
//!    [`backend::LinearBackend`], so the same transformer can execute in
//!    FP32, naive per-tensor INT8, SmoothQuant, int4/int2 LUT weights, or
//!    llm.npu's shadow-outlier mode — every one row-wise, so every one
//!    serves — and, through the same trait, the batch-coupled per-group
//!    and LLM.int8() baselines the figure harness defines; this is how
//!    the accuracy experiments (Table 6, Figures 4/12/16) are run.
//!    [`sample`] supplies the seeded decoding strategies (greedy /
//!    temperature / top-k / top-p) that [`forward::Transformer::generate`]
//!    and the continuous-batching serving loop in `llmnpu-core` drive
//!    token generation with.
//!
//! # Example
//!
//! ```
//! use llmnpu_model::config::ModelConfig;
//!
//! let qwen = ModelConfig::qwen15_18b();
//! assert_eq!(qwen.hidden, 2048);
//! assert_eq!(qwen.layers, 24);
//! // ~1.8 B parameters (embedding included).
//! assert!(qwen.param_count() > 1_500_000_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod backend;
pub mod config;
pub mod forward;
pub mod kv;
pub mod sample;
pub mod weights;

pub use error::Error;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
