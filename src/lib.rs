//! `llmnpu` — a Rust reproduction of *Fast On-device LLM Inference with
//! NPUs* (llm.npu, ASPLOS '25).
//!
//! llm.npu is the first LLM inference engine that offloads the prefill
//! stage to commodity mobile NPUs. It reaches >1,000 tokens/s of prefill
//! for billion-parameter models by re-constructing the prompt and model at
//! three levels:
//!
//! * **prompt level** — fixed-size chunks over pre-built *chunk-sharing
//!   graphs* ([`graph`]),
//! * **tensor level** — *shadow outlier execution*: NPU-native per-tensor
//!   INT8 MatMul plus a compact float outlier MatMul on the CPU
//!   ([`quant::outlier`]),
//! * **block level** — *out-of-order subgraph scheduling* across CPU/GPU
//!   and NPU ([`sched`]).
//!
//! The original system requires Qualcomm Hexagon silicon and the
//! closed-source QNN SDK; this reproduction substitutes a calibrated
//! mobile-SoC simulator ([`soc`]) for the hardware while keeping every
//! algorithm as real, tested Rust (the README's architecture map says
//! which crate stands in for what; the `llmnpu-bench` figure and table
//! binaries print paper-vs-measured results).
//!
//! # Quickstart
//!
//! ```
//! use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
//! use llmnpu::model::config::ModelConfig;
//! use llmnpu::soc::spec::SocSpec;
//!
//! # fn main() -> Result<(), llmnpu::core::Error> {
//! let engine = LlmNpuEngine::new(EngineConfig::llmnpu(
//!     ModelConfig::qwen15_18b(),
//!     SocSpec::snapdragon_8gen3(),
//! ))?;
//! let report = engine.prefill(1024)?;
//! assert!(report.tokens_per_s > 1000.0); // the paper's headline
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use llmnpu_core as core;
pub use llmnpu_graph as graph;
pub use llmnpu_kv as kv;
pub use llmnpu_model as model;
pub use llmnpu_obs as obs;
pub use llmnpu_quant as quant;
pub use llmnpu_sched as sched;
pub use llmnpu_soc as soc;
pub use llmnpu_tensor as tensor;
pub use llmnpu_verify as verify;
pub use llmnpu_workloads as workloads;
