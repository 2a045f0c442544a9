//! Dependency-aware subgraph schedulers (§3.4).
//!
//! Given a prefill DAG from `llmnpu-graph`, this crate produces execution
//! timelines on the simulated SoC under four policies:
//!
//! * [`Policy::Serial`] — no heterogeneous overlap at all: every task
//!   waits for everything before it (the fully sequential lower baseline),
//! * [`Policy::FifoQueues`] — *naive overlapping* (Figure 13a): each
//!   processor consumes its own FIFO queue in chunk-sequence order and
//!   stalls whenever the head task's dependencies are unmet — the design
//!   with a 37% NPU bubble rate in the paper,
//! * [`Policy::OutOfOrder`] — llm.npu's online heuristic (Figure 13b):
//!   any input-ready subgraph may run, chosen by the C-value of
//!   Equation 5 (prioritize work that most reduces NPU stalls),
//! * [`optimal_makespan`] — exhaustive search over dispatch orders, viable
//!   only for small DAGs, used to validate that the heuristic is close to
//!   optimal (the scheduling problem itself is NP-hard, §3.4).
//!
//! The scheduling constraint is Equation 4: one task per processor at any
//! time; the simulator in `llmnpu-soc` enforces it.
//!
//! The three policies — including Equation 5's C-value — have **one**
//! implementation (the private `policy` module): a clock-agnostic core
//! over a [`LaneGraph`] and boolean per-task progress. [`schedule`]
//! drives it with a virtual clock (a task is done when its modeled end
//! has passed), the numeric executor below with the wall clock, so the
//! simulated and the executed plane cannot rank the same ready set
//! differently. Both record the same [`Timeline`] type, and
//! [`validate_timeline`] checks either against the graph it was
//! scheduled from.
//!
//! Since the timing/numeric unification, this crate also owns the *real*
//! execution resources:
//!
//! * [`pool`] — the persistent, deterministically-partitioned
//!   [`WorkerPool`] that replaces per-call `std::thread::scope` spawning
//!   in `llmnpu_tensor::kernel::parallel` (created once per engine,
//!   installable as the kernel layer's parallel backend),
//! * [`runner`] — the numeric out-of-order task executor: a generic
//!   lane-graph dispatcher ([`execute_lane_graph`]) over tasks with
//!   processor lanes, modeled durations, release times (request
//!   arrivals), and dependency edges. [`execute_chunked_prefill`] is the
//!   prefill instantiation — the same [`PrefillDag`] the policies above
//!   price analytically, executed for real against a `Transformer`,
//!   with shadow-outlier tasks genuinely overlapping the quantized main
//!   path and an [`ExecutedTimeline`] measured for cross-checking
//!   against the simulated one (same type, same validator). The
//!   continuous-batching serving loop in
//!   `llmnpu-core` feeds the same dispatcher a combined graph of many
//!   requests' prefill chunks and decode steps.
//!
//! [`PrefillDag`]: llmnpu_graph::dag::PrefillDag
//! [`Timeline`]: llmnpu_soc::des::Timeline

// The pool performs one narrowly-scoped lifetime erasure (see
// `pool`'s module docs); everything else stays compiler-checked.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod exec;
mod optimal;
mod policy;
pub mod pool;
pub mod runner;

pub use error::Error;
pub use exec::{schedule, ScheduleOutcome};
pub use optimal::{optimal_makespan, OPTIMAL_LIMIT};
pub use pool::WorkerPool;
pub use runner::{
    execute_chunked_prefill, execute_lane_graph, execute_lane_graph_contained, validate_timeline,
    ExecutedTask, ExecutedTimeline, GateFn, LaneGraph, LaneTask, NumericPrefill, PrefillProgram,
    SkipReason, TaskFn, TaskOutcome,
};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Fully sequential execution (no CPU/NPU overlap).
    Serial,
    /// Per-processor FIFO queues in chunk-sequence order (naive overlap).
    FifoQueues,
    /// Out-of-order dispatch with the Equation 5 C-value heuristic.
    OutOfOrder,
}

impl Policy {
    /// All policies, cheapest-to-best expected makespan.
    pub const ALL: [Policy; 3] = [Policy::Serial, Policy::FifoQueues, Policy::OutOfOrder];

    /// Label for experiment tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Policy::Serial => "serial",
            Policy::FifoQueues => "naive-overlap",
            Policy::OutOfOrder => "out-of-order",
        }
    }
}
