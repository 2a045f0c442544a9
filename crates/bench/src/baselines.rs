//! The batch-coupled accuracy baselines: K-Quant and LLM.int8().
//!
//! Both algorithms derive something from the whole batch — a per-group
//! activation scale over the batch's slice of each group, or the outlier
//! columns over every row — so an output row depends on its batchmates.
//! That breaks [`LinearBackend`]'s row-wise contract, which serving
//! relies on to stack requests into one GEMM. They are accuracy
//! baselines for the figures (Figure 4, Table 6) and are never served.

use std::collections::HashMap;

use llmnpu_model::backend::{
    model_sites, per_site, site_weight, LinearBackend, LinearInput, LinearSite,
};
use llmnpu_model::weights::ModelWeights;
use llmnpu_model::Result;
use llmnpu_quant::mixed::MixedLinear;
use llmnpu_quant::per_group::GroupedLinear;
use llmnpu_tensor::Tensor;

/// Per-group backend (K-Quant/AWQ-style): each group's activation scale
/// is taken from the batch's slice of that group.
pub struct PerGroupBackend {
    layers: HashMap<LinearSite, GroupedLinear>,
}

impl PerGroupBackend {
    /// Quantizes every projection with per-group scales.
    ///
    /// # Errors
    ///
    /// Returns an error if `group_size` does not divide every reduction dim.
    pub fn new(weights: &ModelWeights, group_size: usize) -> Result<Self> {
        let mut layers = HashMap::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1)?;
            layers.insert(site, GroupedLinear::new(w, group_size)?);
        }
        Ok(PerGroupBackend { layers })
    }
}

impl LinearBackend for PerGroupBackend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "grouped", layer, input, |lin| {
            Ok(lin.forward(x)?.0)
        })
    }

    fn name(&self) -> &'static str {
        "K-Quant"
    }
}

/// LLM.int8() backend: the columns with any value above the threshold,
/// over the whole batch, run in float.
pub struct LlmInt8Backend {
    layers: HashMap<LinearSite, MixedLinear>,
}

impl LlmInt8Backend {
    /// Builds mixed-precision layers with a fixed outlier threshold.
    ///
    /// # Errors
    ///
    /// Returns an error if the model weights are malformed.
    pub fn new(weights: &ModelWeights, threshold: f32) -> Result<Self> {
        let mut layers = HashMap::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1)?;
            layers.insert(site, MixedLinear::new(w, threshold));
        }
        Ok(LlmInt8Backend { layers })
    }
}

impl LinearBackend for LlmInt8Backend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "mixed", layer, input, |lin| {
            Ok(lin.forward(x)?.0)
        })
    }

    fn name(&self) -> &'static str {
        "LLM.int8()"
    }
}
