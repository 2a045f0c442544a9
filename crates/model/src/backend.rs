//! Pluggable linear-layer execution backends.
//!
//! The transformer forward pass in [`crate::forward`] routes every weighted
//! projection through a [`LinearBackend`]. Swapping the backend swaps the
//! quantization scheme without touching the rest of the model — the same
//! factoring the paper uses when it compares FP16, SmoothQuant, LLM.int8(),
//! K-Quant, and llm.npu on identical checkpoints (Table 6).

use std::collections::HashMap;

use llmnpu_quant::lut::LutLinear;
use llmnpu_quant::mixed::MixedLinear;
use llmnpu_quant::outlier::{calibrate_scale, prune_layers, ShadowLinear};
use llmnpu_quant::per_group::GroupedLinear;
use llmnpu_quant::per_tensor::QuantizedLinear;
use llmnpu_quant::smooth::SmoothedLinear;
use llmnpu_tensor::{gemm, PackedMatrixF32, Tensor};

use crate::weights::ModelWeights;
use crate::{Error, Result};

/// Which projection a linear call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinearKind {
    /// Query projection.
    Q,
    /// Key projection.
    K,
    /// Value projection.
    V,
    /// Attention output projection.
    O,
    /// FFN gate projection.
    Gate,
    /// FFN up projection.
    Up,
    /// FFN down projection.
    Down,
}

impl LinearKind {
    /// All kinds in layer order.
    pub const ALL: [LinearKind; 7] = [
        LinearKind::Q,
        LinearKind::K,
        LinearKind::V,
        LinearKind::O,
        LinearKind::Gate,
        LinearKind::Up,
        LinearKind::Down,
    ];

    /// Short label (matches the paper's `q_proj` / `o_proj` / `up_proj` /
    /// `down_proj` naming in Figures 10–11).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            LinearKind::Q => "q_proj",
            LinearKind::K => "k_proj",
            LinearKind::V => "v_proj",
            LinearKind::O => "o_proj",
            LinearKind::Gate => "gate_proj",
            LinearKind::Up => "up_proj",
            LinearKind::Down => "down_proj",
        }
    }
}

/// A layer/projection address.
pub type LinearSite = (usize, LinearKind);

/// Worker count for float projections on the host: the blocked GEMM
/// kernel's partitioned threading is bit-invisible (see
/// `llmnpu_tensor::kernel`), so this only trades wall-clock for cores.
/// When a persistent pool is installed on the calling thread
/// (`llmnpu_tensor::kernel::parallel::install_backend`), its worker
/// count is used — this is how backends "take the pool handle": the
/// engine installs the pool once, and every projection of every layer
/// dispatches its bands to it with zero thread spawns.
pub(crate) fn host_threads() -> usize {
    llmnpu_tensor::kernel::parallel::default_threads()
}

/// Executes one linear projection for a given layer.
///
/// `Send + Sync` because the prefill executor runs projections from
/// pool worker threads; every implementation owns immutable quantized
/// weights, so sharing is free.
///
/// Backends with a genuinely separable correction path (the
/// shadow-outlier scheme, §3.3) additionally expose it through
/// [`LinearBackend::linear_main`] / [`LinearBackend::linear_shadow`]:
/// the contract is that `linear(x)` is **bit-identical** to
/// `linear_main(x)` followed by [`merge_linear`] with
/// `linear_shadow(x)` — the invariant that lets the out-of-order
/// executor run the two halves on different lanes and merge.
pub trait LinearBackend: Send + Sync {
    /// Computes `x · W(layer, kind)`.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or missing projections.
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>>;

    /// The main (quantized/NPU-lane) half of a projection. Defaults to
    /// the full [`LinearBackend::linear`] for backends without a
    /// separable correction path.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or missing projections.
    fn linear_main(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        self.linear(layer, kind, x)
    }

    /// The additive shadow (float-lane) half of a projection, or `None`
    /// when this site has nothing to overlap (no shadow path, pruned
    /// layer, or no outliers in `x`).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    fn linear_shadow(
        &self,
        layer: usize,
        kind: LinearKind,
        x: &Tensor<f32>,
    ) -> Result<Option<Tensor<f32>>> {
        let _ = (layer, kind, x);
        Ok(None)
    }

    /// Whether this site's shadow path is active (used to decide whether
    /// a split execution can ever produce a correction here).
    fn has_shadow(&self, layer: usize, kind: LinearKind) -> bool {
        let _ = (layer, kind);
        false
    }

    /// Whether every output row depends **only** on its own input row —
    /// i.e. `linear` applied to a stacked `[B, hidden]` batch produces,
    /// row for row, the exact bits of B separate single-row calls.
    ///
    /// True for static-weight float paths; false for backends that
    /// derive activation quantization parameters from the whole batch
    /// (per-tensor dynamic scales, LLM.int8() row-max decomposition over
    /// a shared threshold pass, …), where batch composition legitimately
    /// perturbs the last bits. Batched decode GEMMs and paged prefix
    /// sharing are bit-transparent only when this holds, so the serving
    /// scheduler consults it before stacking rows across requests.
    fn row_wise(&self) -> bool {
        false
    }

    /// Human-readable backend name for experiment tables.
    fn name(&self) -> &'static str;
}

/// Merges a shadow half into a main half (elementwise accumulate — the
/// CPU→NPU shared-buffer merge of §3.3). The same op, in the same
/// order, that the fused `linear` paths use internally.
///
/// # Errors
///
/// Returns an error on shape mismatch.
pub fn merge_linear(main: &mut Tensor<f32>, shadow: &Tensor<f32>) -> Result<()> {
    gemm::accumulate(main, shadow)?;
    Ok(())
}

fn no_gate_projection() -> Error {
    Error::InvalidConfig {
        what: "model has no gate projection".to_owned(),
    }
}

fn site_weight(weights: &ModelWeights, layer: usize, kind: LinearKind) -> Result<&Tensor<f32>> {
    let l = weights.layers.get(layer).ok_or(Error::LayerOutOfRange {
        layer,
        layers: weights.layers.len(),
    })?;
    let w = match kind {
        LinearKind::Q => &l.wq,
        LinearKind::K => &l.wk,
        LinearKind::V => &l.wv,
        LinearKind::O => &l.wo,
        LinearKind::Gate => l.w_gate.as_ref().ok_or_else(no_gate_projection)?,
        LinearKind::Up => &l.w_up,
        LinearKind::Down => &l.w_down,
    };
    Ok(w)
}

/// Sites present in a model (skips `Gate` for ungated FFNs).
#[must_use]
pub fn model_sites(weights: &ModelWeights) -> Vec<LinearSite> {
    let mut sites = Vec::new();
    for layer in 0..weights.layers.len() {
        for kind in LinearKind::ALL {
            if kind == LinearKind::Gate && weights.layers[layer].w_gate.is_none() {
                continue;
            }
            sites.push((layer, kind));
        }
    }
    sites
}

/// FP32 reference backend (the paper's FP16 row, with extra precision).
///
/// Every projection weight is packed **once** at construction into the
/// kernel's persistent layout ([`PackedMatrixF32`]), and the packed
/// panels are the only copy kept; `linear` calls then run the prepacked
/// driver — bit-identical to the per-call-packing path, with zero weight
/// packing per call.
#[derive(Debug, Clone)]
pub struct FloatBackend {
    packed: HashMap<LinearSite, PackedMatrixF32>,
    /// Layer count of the consumed model, for `LayerOutOfRange`.
    layers: usize,
}

impl FloatBackend {
    /// Consumes model weights: each projection is moved out, packed and
    /// dropped in turn.
    #[must_use]
    pub fn new(weights: ModelWeights) -> Self {
        let layers = weights.layers.len();
        let mut packed = HashMap::new();
        for (layer, l) in weights.layers.into_iter().enumerate() {
            let sites = [
                (LinearKind::Q, Some(l.wq)),
                (LinearKind::K, Some(l.wk)),
                (LinearKind::V, Some(l.wv)),
                (LinearKind::O, Some(l.wo)),
                (LinearKind::Gate, l.w_gate),
                (LinearKind::Up, Some(l.w_up)),
                (LinearKind::Down, Some(l.w_down)),
            ];
            for (kind, w) in sites {
                if let Some(w) = w {
                    packed.insert((layer, kind), PackedMatrixF32::from_tensor(&w));
                }
            }
        }
        FloatBackend { packed, layers }
    }
}

impl LinearBackend for FloatBackend {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let Some(packed) = self.packed.get(&(layer, kind)) else {
            // Every projection but the optional gate is packed for every
            // layer, so a miss is an out-of-range layer or an ungated FFN.
            return Err(if layer >= self.layers {
                Error::LayerOutOfRange {
                    layer,
                    layers: self.layers,
                }
            } else {
                no_gate_projection()
            });
        };
        Ok(gemm::matmul_f32_prepacked(x, packed, host_threads())?)
    }

    fn row_wise(&self) -> bool {
        // Static float weights, row-partitioned GEMM: each output row is
        // a function of its input row alone, bit-for-bit.
        true
    }

    fn name(&self) -> &'static str {
        "FP16"
    }
}

/// Per-(layer, kind) calibration activations recorded from a float run.
pub type CalibrationSet = HashMap<LinearSite, Vec<Tensor<f32>>>;

/// Builds per-site activation scales from a calibration set using the
/// clipping quantile (llm.npu profiles thresholds offline, §3.3).
///
/// # Errors
///
/// Returns an error if a site has no calibration data.
pub fn site_scales(
    weights: &ModelWeights,
    calibration: &CalibrationSet,
    quantile: f64,
) -> Result<HashMap<LinearSite, f32>> {
    let mut scales = HashMap::new();
    for site in model_sites(weights) {
        let acts = calibration.get(&site).ok_or(Error::InvalidConfig {
            what: format!("no calibration activations for site {site:?}"),
        })?;
        let scale = calibrate_scale(acts, quantile)?;
        scales.insert(site, scale);
    }
    Ok(scales)
}

/// Naive per-tensor W8A8 backend (max-min scales, no outlier handling).
pub struct PerTensorBackend {
    layers: HashMap<LinearSite, QuantizedLinear>,
}

impl PerTensorBackend {
    /// Quantizes every projection with per-tensor scales calibrated at
    /// quantile 1.0 (max-min over the corpus).
    ///
    /// # Errors
    ///
    /// Returns an error if calibration data is missing.
    pub fn new(weights: &ModelWeights, calibration: &CalibrationSet) -> Result<Self> {
        let scales = site_scales(weights, calibration, 1.0)?;
        let mut layers = HashMap::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1)?;
            layers.insert(site, QuantizedLinear::new(w, scales[&site]));
        }
        Ok(PerTensorBackend { layers })
    }
}

impl LinearBackend for PerTensorBackend {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lin = self
            .layers
            .get(&(layer, kind))
            .ok_or(Error::InvalidConfig {
                what: format!("no quantized site ({layer}, {kind:?})"),
            })?;
        Ok(lin.forward(x)?)
    }

    fn name(&self) -> &'static str {
        "PerTensor"
    }
}

/// Per-group backend (K-Quant/AWQ-style).
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
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lin = self
            .layers
            .get(&(layer, kind))
            .ok_or(Error::InvalidConfig {
                what: format!("no grouped site ({layer}, {kind:?})"),
            })?;
        Ok(lin.forward(x)?.0)
    }

    fn name(&self) -> &'static str {
        "K-Quant"
    }
}

/// SmoothQuant backend.
pub struct SmoothQuantBackend {
    layers: HashMap<LinearSite, SmoothedLinear>,
}

impl SmoothQuantBackend {
    /// Builds smoothed layers from calibration activations.
    ///
    /// # Errors
    ///
    /// Returns an error if calibration data is missing for any site.
    pub fn new(weights: &ModelWeights, calibration: &CalibrationSet, alpha: f32) -> Result<Self> {
        let mut layers = HashMap::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1)?;
            let acts = calibration.get(&site).ok_or(Error::InvalidConfig {
                what: format!("no calibration activations for site {site:?}"),
            })?;
            let cal = concat_rows(acts)?;
            layers.insert(site, SmoothedLinear::new(w, &cal, alpha)?);
        }
        Ok(SmoothQuantBackend { layers })
    }
}

impl LinearBackend for SmoothQuantBackend {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lin = self
            .layers
            .get(&(layer, kind))
            .ok_or(Error::InvalidConfig {
                what: format!("no smoothed site ({layer}, {kind:?})"),
            })?;
        Ok(lin.forward(x)?)
    }

    fn name(&self) -> &'static str {
        "SmoothQuant"
    }
}

/// LLM.int8() backend.
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
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lin = self
            .layers
            .get(&(layer, kind))
            .ok_or(Error::InvalidConfig {
                what: format!("no mixed site ({layer}, {kind:?})"),
            })?;
        Ok(lin.forward(x)?.0)
    }

    fn name(&self) -> &'static str {
        "LLM.int8()"
    }
}

/// llm.npu shadow-outlier backend (§3.3), with optional layer-level
/// outlier pruning.
pub struct ShadowBackend {
    layers: HashMap<LinearSite, ShadowLinear>,
    /// Sites whose shadow path survived pruning.
    kept_sites: Vec<LinearSite>,
}

impl ShadowBackend {
    /// Builds shadow layers with clipping scales at `quantile` and prunes
    /// the outlier paths of the `pruning_rate` least-important sites
    /// (importance = max observed outlier ratio per site, Figure 12).
    ///
    /// # Errors
    ///
    /// Returns an error if calibration data is missing.
    pub fn new(
        weights: &ModelWeights,
        calibration: &CalibrationSet,
        quantile: f64,
        pruning_rate: f64,
    ) -> Result<Self> {
        let scales = site_scales(weights, calibration, quantile)?;
        let sites = model_sites(weights);

        // Importance per site: largest |x| / clipping-range ratio over the
        // calibration corpus.
        let mut importances = Vec::with_capacity(sites.len());
        for site in &sites {
            let acts = &calibration[site];
            let limit = scales[site] * llmnpu_quant::per_tensor::QMAX;
            let max_abs = acts.iter().map(Tensor::abs_max).fold(0.0_f32, f32::max);
            importances.push(max_abs / limit.max(1e-9));
        }
        let keep_mask = prune_layers(&importances, pruning_rate)?;

        let mut layers = HashMap::new();
        let mut kept_sites = Vec::new();
        for (i, site) in sites.iter().enumerate() {
            let w = site_weight(weights, site.0, site.1)?;
            let mut lin = ShadowLinear::new(w, scales[site]);
            if keep_mask[i] {
                kept_sites.push(*site);
            } else {
                lin = lin.with_shadow_disabled();
            }
            layers.insert(*site, lin);
        }
        Ok(ShadowBackend { layers, kept_sites })
    }

    /// Sites whose shadow path is still active.
    #[must_use]
    pub fn kept_sites(&self) -> &[LinearSite] {
        &self.kept_sites
    }
}

impl ShadowBackend {
    fn site(&self, layer: usize, kind: LinearKind) -> Result<&ShadowLinear> {
        self.layers.get(&(layer, kind)).ok_or(Error::InvalidConfig {
            what: format!("no shadow site ({layer}, {kind:?})"),
        })
    }
}

impl LinearBackend for ShadowBackend {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(self.site(layer, kind)?.forward(x)?.output)
    }

    fn linear_main(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(self.site(layer, kind)?.forward_main(x)?)
    }

    fn linear_shadow(
        &self,
        layer: usize,
        kind: LinearKind,
        x: &Tensor<f32>,
    ) -> Result<Option<Tensor<f32>>> {
        Ok(self
            .site(layer, kind)?
            .forward_shadow(x)?
            .map(|(shadow, _channels)| shadow))
    }

    fn has_shadow(&self, layer: usize, kind: LinearKind) -> bool {
        self.layers
            .get(&(layer, kind))
            .is_some_and(ShadowLinear::shadow_enabled)
    }

    fn name(&self) -> &'static str {
        "Ours"
    }
}

/// Sub-8-bit backend: every projection's weights live in a packed
/// table-lookup format ([`LutLinear`]), quantized and packed **once**
/// at construction. `linear` calls stream one-half (int4) or
/// one-quarter (int2) of the i8 weight bytes through the in-register
/// LUT drivers — the whole point of the format for bandwidth-bound
/// decode.
pub struct LutBackend {
    layers: HashMap<LinearSite, LutLinear>,
    name: &'static str,
}

impl LutBackend {
    /// Quantizes every projection to int4 codes with `group_size`-wide
    /// per-group scales.
    ///
    /// # Errors
    ///
    /// Returns an error if `group_size` is rejected by the LUT format.
    pub fn int4(weights: &ModelWeights, group_size: usize) -> Result<Self> {
        Self::build(weights, group_size, LutLinear::int4, "W4-LUT")
    }

    /// Quantizes every projection to int2 (ternary) codes.
    ///
    /// # Errors
    ///
    /// Returns an error if `group_size` is rejected by the LUT format.
    pub fn int2(weights: &ModelWeights, group_size: usize) -> Result<Self> {
        Self::build(weights, group_size, LutLinear::int2, "W2-LUT")
    }

    fn build(
        weights: &ModelWeights,
        group_size: usize,
        quantize: impl Fn(&Tensor<f32>, usize) -> llmnpu_quant::Result<LutLinear>,
        name: &'static str,
    ) -> Result<Self> {
        let mut layers = HashMap::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1)?;
            layers.insert(site, quantize(w, group_size)?);
        }
        Ok(LutBackend { layers, name })
    }

    /// Total packed weight bytes a decode step streams (codes plus
    /// group scales across every site).
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.layers.values().map(LutLinear::weight_bytes).sum()
    }
}

impl LinearBackend for LutBackend {
    fn linear(&self, layer: usize, kind: LinearKind, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let lin = self
            .layers
            .get(&(layer, kind))
            .ok_or(Error::InvalidConfig {
                what: format!("no LUT site ({layer}, {kind:?})"),
            })?;
        Ok(lin.forward(x, host_threads())?)
    }

    fn row_wise(&self) -> bool {
        // The LUT drivers quantize each activation row with its own
        // max-min scale and accumulate per row in a fixed order, so a
        // stacked [B, hidden] call reproduces B solo calls bit-for-bit
        // — batched decode and prefix sharing stay stream-transparent.
        true
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

fn concat_rows(tensors: &[Tensor<f32>]) -> Result<Tensor<f32>> {
    let mut width = 0usize;
    let mut rows = 0usize;
    for t in tensors {
        let (r, c) = t.matrix_dims();
        rows += r;
        width = c;
    }
    if rows == 0 {
        return Err(Error::InvalidConfig {
            what: "empty calibration set".to_owned(),
        });
    }
    let mut data = Vec::with_capacity(rows * width);
    for t in tensors {
        data.extend_from_slice(t.as_slice());
    }
    Ok(Tensor::from_vec(data, [rows, width])?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::weights::{synthesize, OutlierSpec};

    fn tiny_weights() -> ModelWeights {
        synthesize(&ModelConfig::tiny(), 42, OutlierSpec::default()).unwrap()
    }

    fn fake_calibration(weights: &ModelWeights) -> CalibrationSet {
        let mut cal = CalibrationSet::new();
        for site in model_sites(weights) {
            let w = site_weight(weights, site.0, site.1).unwrap();
            let (k, _) = w.matrix_dims();
            let acts = vec![Tensor::from_vec(
                (0..2 * k).map(|i| ((i % 13) as f32 - 6.0) / 6.0).collect(),
                [2, k],
            )
            .unwrap()];
            cal.insert(site, acts);
        }
        cal
    }

    #[test]
    fn float_backend_matches_direct_matmul() {
        let w = tiny_weights();
        let be = FloatBackend::new(w.clone());
        let x = Tensor::from_vec(vec![0.1_f32; 32], [1, 32]).unwrap();
        let y = be.linear(0, LinearKind::Q, &x).unwrap();
        let direct = gemm::matmul_f32(&x, &w.layers[0].wq).unwrap();
        assert_eq!(y.as_slice(), direct.as_slice());
        assert_eq!(be.name(), "FP16");
    }

    #[test]
    fn sites_skip_missing_gate() {
        let cfg = ModelConfig::phi2_27b().scaled_down(40, 2, 64).unwrap();
        let w = synthesize(&cfg, 1, OutlierSpec::default()).unwrap();
        let sites = model_sites(&w);
        assert!(sites.iter().all(|(_, k)| *k != LinearKind::Gate));
        assert_eq!(sites.len(), 2 * 6);
        // The float backend kept no weights to look the gate up in; it
        // still names the absent projection, not the layer.
        let x = Tensor::from_vec(vec![0.0_f32; 40], [1, 40]).unwrap();
        let err = FloatBackend::new(w).linear(1, LinearKind::Gate, &x);
        assert!(
            matches!(&err, Err(Error::InvalidConfig { what }) if what.contains("no gate projection")),
            "{err:?}"
        );
    }

    #[test]
    fn quantized_backends_construct_and_run() {
        let w = tiny_weights();
        let cal = fake_calibration(&w);
        let x = Tensor::from_vec(vec![0.05_f32; 32], [1, 32]).unwrap();

        let pt = PerTensorBackend::new(&w, &cal).unwrap();
        let pg = PerGroupBackend::new(&w, 8).unwrap();
        let sq = SmoothQuantBackend::new(&w, &cal, 0.5).unwrap();
        let mx = LlmInt8Backend::new(&w, 6.0).unwrap();
        let sh = ShadowBackend::new(&w, &cal, 0.999, 0.0).unwrap();
        let l4 = LutBackend::int4(&w, 8).unwrap();
        let l2 = LutBackend::int2(&w, 8).unwrap();

        let reference = FloatBackend::new(w.clone())
            .linear(0, LinearKind::Q, &x)
            .unwrap();
        for be in [&pt as &dyn LinearBackend, &pg, &sq, &mx, &sh, &l4, &l2] {
            let y = be.linear(0, LinearKind::Q, &x).unwrap();
            let mse = y.mse(&reference).unwrap();
            assert!(mse < 0.5, "{}: mse {mse}", be.name());
        }
        assert!(l4.weight_bytes() > l2.weight_bytes());
        assert!(l4.row_wise() && l2.row_wise());
    }

    #[test]
    fn shadow_pruning_controls_kept_sites() {
        let w = tiny_weights();
        let cal = fake_calibration(&w);
        let all = ShadowBackend::new(&w, &cal, 0.999, 0.0).unwrap();
        let none = ShadowBackend::new(&w, &cal, 0.999, 1.0).unwrap();
        let half = ShadowBackend::new(&w, &cal, 0.999, 0.5).unwrap();
        let total = model_sites(&w).len();
        assert_eq!(all.kept_sites().len(), total);
        assert_eq!(none.kept_sites().len(), 0);
        assert_eq!(half.kept_sites().len(), total - total / 2);
    }

    #[test]
    fn split_execution_bit_matches_fused_linear() {
        // The executor's overlap invariant: linear == linear_main ⊕
        // linear_shadow, bit-for-bit, for every backend.
        let w = tiny_weights();
        let cal = fake_calibration(&w);
        let sh = ShadowBackend::new(&w, &cal, 0.9, 0.0).unwrap();
        let float = FloatBackend::new(w.clone());
        // A spiky activation so the shadow half actually fires.
        let mut xv = vec![0.02_f32; 2 * 32];
        xv[7] = 9.0;
        xv[32 + 19] = -11.0;
        let x = Tensor::from_vec(xv, [2, 32]).unwrap();

        let mut shadow_fired = false;
        for be in [&sh as &dyn LinearBackend, &float] {
            // Hidden-width sites (Down takes ffn_hidden-width inputs).
            for kind in [LinearKind::Q, LinearKind::V, LinearKind::Up] {
                let fused = be.linear(1, kind, &x).unwrap();
                let mut merged = be.linear_main(1, kind, &x).unwrap();
                if let Some(shadow) = be.linear_shadow(1, kind, &x).unwrap() {
                    assert!(be.has_shadow(1, kind));
                    merge_linear(&mut merged, &shadow).unwrap();
                    shadow_fired = true;
                }
                assert_eq!(
                    fused.as_slice(),
                    merged.as_slice(),
                    "{} {kind:?}",
                    be.name()
                );
            }
        }
        assert!(shadow_fired, "spiky input must exercise a shadow path");
        assert!(!float.has_shadow(1, LinearKind::Q));

        // Fully pruned backends never produce a shadow half.
        let pruned = ShadowBackend::new(&w, &cal, 0.9, 1.0).unwrap();
        assert!(!pruned.has_shadow(1, LinearKind::Q));
        assert!(pruned
            .linear_shadow(1, LinearKind::Q, &x)
            .unwrap()
            .is_none());
    }

    #[test]
    fn missing_layer_is_reported() {
        let w = tiny_weights();
        let be = FloatBackend::new(w);
        let x = Tensor::from_vec(vec![0.0_f32; 32], [1, 32]).unwrap();
        let layers = ModelConfig::tiny().layers;
        assert!(matches!(
            be.linear(99, LinearKind::Q, &x),
            Err(Error::LayerOutOfRange { layer: 99, layers: l }) if l == layers
        ));
    }

    #[test]
    fn linear_kind_labels_match_paper_naming() {
        assert_eq!(LinearKind::Q.label(), "q_proj");
        assert_eq!(LinearKind::O.label(), "o_proj");
        assert_eq!(LinearKind::Up.label(), "up_proj");
        assert_eq!(LinearKind::Down.label(), "down_proj");
    }
}
