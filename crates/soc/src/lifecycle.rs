//! The QNN-like NPU graph lifecycle cost model (Figure 2).
//!
//! Executing a DNN on a mobile NPU requires: setting up the NPU
//! environment (~500 ms, once per process), building the compute graph
//! (translating to the NPU IR + memory allocation, 300–500 ms), optimizing
//! it (memory layout, execution order, operator fusion — many seconds),
//! executing, and freeing it. Build and optimize must be redone whenever
//! the input *shape* changes, which is why naive NPU offloading of
//! variable-length prompts loses to the CPU (§2.3) and why llm.npu
//! pre-builds fixed-shape chunk graphs (§3.2).

use crate::Millis;

/// Cost parameters of the graph lifecycle, calibrated to Figure 2.
///
/// * Qwen1.5-1.8B: build 450 ms, optimize 3.30 s (≈216 weight ops, modest
///   per-op weight sizes);
/// * Gemma-2B: build 360 ms, optimize 11.54 s (fewer ops but enormous FFN
///   weights — optimization cost scales superlinearly with tensor size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleParams {
    /// One-time NPU environment setup in ms.
    pub setup_ms: Millis,
    /// Fixed component of graph building in ms.
    pub build_base_ms: Millis,
    /// Per-operator build cost in ms.
    pub build_per_op_ms: Millis,
    /// Scale factor of the superlinear optimize cost.
    pub optimize_coeff: f64,
    /// Exponent applied to each operator's weight size in MB.
    pub optimize_exponent: f64,
    /// Fraction of build time needed to free the graph.
    pub free_fraction: f64,
}

impl Default for LifecycleParams {
    fn default() -> Self {
        LifecycleParams {
            setup_ms: 500.0,
            build_base_ms: 90.0,
            build_per_op_ms: 1.67,
            optimize_coeff: 0.94,
            optimize_exponent: 1.5,
            free_fraction: 0.3,
        }
    }
}

/// Latency breakdown of preparing and running one NPU graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LifecycleCost {
    /// NPU environment setup (once per process).
    pub setup_ms: Millis,
    /// Graph build time.
    pub build_ms: Millis,
    /// Graph optimization time.
    pub optimize_ms: Millis,
    /// Graph free time.
    pub free_ms: Millis,
}

impl LifecycleCost {
    /// Total preparation time excluding environment setup (what must be
    /// re-paid per shape for a naive engine).
    #[must_use]
    pub fn prepare_ms(&self) -> Millis {
        self.build_ms + self.optimize_ms
    }

    /// Total including setup and free.
    #[must_use]
    pub fn total_ms(&self) -> Millis {
        self.setup_ms + self.build_ms + self.optimize_ms + self.free_ms
    }
}

/// Summary of a graph for lifecycle costing: how many operators it has and
/// the weight payload of each (in bytes).
#[derive(Debug, Clone, Default)]
pub struct GraphProfile {
    /// Number of operator nodes in the graph.
    pub op_count: usize,
    /// Weight bytes of each weighted operator.
    pub weight_bytes: Vec<u64>,
}

/// Computes the lifecycle cost of one graph.
#[must_use]
pub fn lifecycle_cost(params: &LifecycleParams, profile: &GraphProfile) -> LifecycleCost {
    let build_ms = params.build_base_ms + params.build_per_op_ms * profile.op_count as f64;
    let optimize_ms: f64 = params.optimize_coeff
        * profile
            .weight_bytes
            .iter()
            .map(|&b| (b as f64 / 1e6).powf(params.optimize_exponent))
            .sum::<f64>();
    LifecycleCost {
        setup_ms: params.setup_ms,
        build_ms,
        optimize_ms,
        free_ms: params.free_fraction * build_ms + 20.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A Qwen1.5-1.8B-like profile: 24 layers × (4 attention projections of
    /// 2048×2048 + 3 FFN matrices of 2048×5504), INT8 weights.
    fn qwen_like() -> GraphProfile {
        let mut weights = Vec::new();
        for _ in 0..24 {
            for _ in 0..4 {
                weights.push(2048 * 2048);
            }
            for _ in 0..3 {
                weights.push(2048 * 5504);
            }
        }
        GraphProfile {
            op_count: 24 * 9,
            weight_bytes: weights,
        }
    }

    /// A Gemma-2B-like profile: 18 layers with multi-query attention (small
    /// K/V projections) and a huge 2048×16384 FFN.
    fn gemma_like() -> GraphProfile {
        let mut weights = Vec::new();
        for _ in 0..18 {
            weights.push(2048 * 2048); // q
            weights.push(2048 * 256); // k (MQA)
            weights.push(2048 * 256); // v (MQA)
            weights.push(2048 * 2048); // o
            for _ in 0..3 {
                weights.push(2048 * 16384);
            }
        }
        GraphProfile {
            op_count: 18 * 9,
            weight_bytes: weights,
        }
    }

    #[test]
    fn qwen_build_and_optimize_match_figure2() {
        let cost = lifecycle_cost(&LifecycleParams::default(), &qwen_like());
        // Figure 2: Qwen build 450 ms, optimize 3.30 s.
        assert!(
            (cost.build_ms - 450.0).abs() < 100.0,
            "build = {}",
            cost.build_ms
        );
        assert!(
            (cost.optimize_ms - 3300.0).abs() < 900.0,
            "optimize = {}",
            cost.optimize_ms
        );
    }

    #[test]
    fn gemma_optimize_is_much_larger_despite_fewer_ops() {
        // Figure 2's surprising datum: Gemma has a *cheaper* build (fewer
        // ops) but a ~3.5× more expensive optimize (bigger tensors).
        let p = LifecycleParams::default();
        let qwen = lifecycle_cost(&p, &qwen_like());
        let gemma = lifecycle_cost(&p, &gemma_like());
        assert!(gemma.build_ms < qwen.build_ms);
        assert!(gemma.optimize_ms > 2.5 * qwen.optimize_ms);
        // Figure 2: Gemma optimize 11.54 s.
        assert!(
            (gemma.optimize_ms - 11540.0).abs() < 3500.0,
            "optimize = {}",
            gemma.optimize_ms
        );
    }

    #[test]
    fn setup_is_paid_once_and_defaults_to_500ms() {
        let cost = lifecycle_cost(&LifecycleParams::default(), &GraphProfile::default());
        assert_eq!(cost.setup_ms, 500.0);
        assert!(cost.prepare_ms() < cost.total_ms());
    }

    #[test]
    fn empty_graph_costs_only_bases() {
        let cost = lifecycle_cost(&LifecycleParams::default(), &GraphProfile::default());
        assert_eq!(cost.optimize_ms, 0.0);
        assert_eq!(cost.build_ms, 90.0);
    }

    #[test]
    fn prepare_dwarfs_execution_for_llm_graphs() {
        // §2.3: preparation takes *seconds*; a naive engine repaying it per
        // prompt shape cannot win.
        let cost = lifecycle_cost(&LifecycleParams::default(), &qwen_like());
        assert!(cost.prepare_ms() > 3000.0);
    }
}
