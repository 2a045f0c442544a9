//! Paged KV-cache subsystem (the vLLM-style block pool, grown for the
//! llm.npu serving layer).
//!
//! On-device memory budgets are the binding constraint on concurrent
//! serving: the paper's chunked prefill and continuous decode both live
//! or die on how KV-cache bytes are managed. Giving every request a
//! private, contiguous, eagerly-sized cache makes admission control a
//! guess (a request *count*) and forbids both prefix sharing and
//! preemption. This crate replaces that with a real memory model — and
//! it is the *only* K/V store: `llmnpu-model` keeps no contiguous cache
//! beside it. A solo run (`generate`, calibration, a single-request
//! executed prefill) opens a private pool of exactly one page sized to
//! the run (`PagedKvCache::solo`), so it reads and writes through the
//! same block table the served requests do:
//!
//! * [`BlockPool`] — one fixed-size slab of KV **pages** per layer. A
//!   page (block) holds `block_tokens × kv_dim` f32 keys plus the same
//!   of values, contiguous per `(layer, block)`, so attention can walk
//!   whole pages with a unit-stride inner loop (gather-free). Block ids
//!   are shared across layers: allocating block `b` materializes its
//!   slab in every layer, exactly like PagedAttention's block tables.
//! * [`BlockTable`] — a request's ordered list of block ids covering its
//!   token positions. Tables are forked for **prefix sharing** (the
//!   shared system-prompt blocks are allocated once and ref-counted)
//!   and diverge with **copy-on-write**: writing into a block whose
//!   refcount exceeds one first copies it (all layers) into a fresh
//!   block owned solely by the writer.
//! * [`PrefixCache`] — a **global radix/trie prefix cache** over the
//!   pool, keyed on token-id prefixes at block granularity: any request
//!   whose prompt starts with an already-computed prefix reuses those
//!   pages, however long ago their producing request released them.
//!   The cache holds its own reference on every cached block and evicts
//!   cold prefixes leaf-first under pressure, refusing blocks that are
//!   mid-reuse (refcount) or claimed by the current planning round.
//! * Accounting — the pool tracks free/used/peak block counts and total
//!   bytes, so a serving scheduler can admit by *free pages* instead of
//!   request count, evict under pressure, and pin "zero pages leaked"
//!   after a run. `llmnpu-core` wires these numbers into its engine
//!   memory reports and the SoC memory-space model.
//!
//! # Layout (quantized-page-ready)
//!
//! Pages are plain `f32` today, but the layout is deliberately
//! dtype-agnostic: a block is an opaque `block_tokens × kv_dim`-element
//! slab addressed by `(layer, block, slot)`, and nothing in the pool or
//! table API assumes element width beyond [`BlockPool::bytes`]. An i8
//! KV pool is a second element type behind the same block table, not a
//! redesign.
//!
//! # Concurrency and determinism
//!
//! Page *data* lives behind one `RwLock` per layer (many concurrent
//! attention readers, brief row writers); page *ownership* (free list,
//! refcounts, watermarks) lives behind one mutex. Writers address
//! absolute token positions, so out-of-order chunk completion cannot
//! reorder the cache — the same position-addressing invariant the DAG
//! executor relies on. Lock timing never changes a float: readers only
//! read positions their dependency edges guarantee are written.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod pool;
pub mod prefix;

pub use error::Error;
pub use pool::{BlockId, BlockPool, BlockTable, PoolConfig, PoolStats};
pub use prefix::{CachedPrefix, PrefixCache, PrefixCacheMetrics};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
