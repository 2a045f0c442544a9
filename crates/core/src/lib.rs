//! The llm.npu engine and its baselines.
//!
//! This crate is the paper's primary contribution assembled from the
//! substrates:
//!
//! * [`engine`] — [`engine::LlmNpuEngine`]: preparation (chunk-sharing
//!   graph build/optimize, chunk-length selection, outlier-layer pruning)
//!   and execution (chunk split → shadow outliers → out-of-order subgraph
//!   scheduling → decode), with latency, energy, and memory reporting,
//! * [`baselines`] — the five comparison engines of §4.1 (llama.cpp-CPU,
//!   MNN-CPU, TFLite-GPU, MLC-LLM-GPU, PowerInfer-v2-NPU) plus the naive
//!   direct-NPU port of §2.3, all behind one [`baselines::Engine`] trait,
//! * [`ablation`] — the Figure 19 ladder (CPU → Naive → +Chunk →
//!   +Outlier → +OOE),
//! * [`memory`] — the Figure 17 footprint comparison,
//! * [`serve`] — the continuous-batching serving layer over the paged
//!   KV pool (`llmnpu-kv`): [`engine::LlmNpuEngine::serve`] plans
//!   admission by **free KV pages** (plus a concurrency cap),
//!   ref-count-shares block-aligned prompt prefixes, evicts the
//!   youngest request under memory pressure (requeued with recompute —
//!   the preemption witness lives in the unified timeline), stacks
//!   same-position decode steps into `m = B` batched GEMMs, streams
//!   tokens through [`serve::ServeOptions::on_token`], and pins zero
//!   leaked pages after every run — with every stream bit-identical to
//!   its solo generation. Serving is *fault-contained*: a panic in one
//!   request's stage fails only that request ([`serve::RequestStatus`]),
//!   transient failures retry with exponential backoff, cancellation
//!   ([`serve::CancelToken`]) and per-request deadlines are honored at
//!   dispatch, and pages are released on every terminal path,
//! * [`faults`] — seeded deterministic fault injection
//!   ([`faults::FaultPlan`]): panics/errors at chosen prefill or decode
//!   sites, transient vs permanent, modeled-duration spikes, and
//!   pool-pressure squeezes — the chaos harness behind
//!   `examples/chaos.rs` and the chaos soak test.
//!
//! Latency/energy numbers come from the calibrated SoC simulator
//! (`llmnpu-soc`); accuracy numbers come from the numeric plane
//! (`llmnpu-model` + `llmnpu-workloads`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod ablation;
pub mod baselines;
pub mod decode;
pub mod engine;
pub mod faults;
pub mod frontend;
pub mod memory;
pub mod report;
pub mod serve;

pub use error::Error;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
