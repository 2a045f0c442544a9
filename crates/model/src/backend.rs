//! Pluggable linear-layer execution backends.
//!
//! The transformer forward pass in [`crate::forward`] routes every weighted
//! projection through a [`LinearBackend`]. Swapping the backend swaps the
//! quantization scheme without touching the rest of the model — the same
//! factoring the paper uses when it compares FP16, SmoothQuant, LLM.int8(),
//! K-Quant, and llm.npu on identical checkpoints (Table 6).
//!
//! A backend sees a layer's four activations ([`LinearInput`]), not its
//! seven projections ([`LinearKind`]): the sibling sites that read one
//! activation — Q | K | V, and Gate | Up — answer as one output,
//! concatenated by column in `LinearKind` order, the `QkvLinear` stage the
//! graph plane has always modelled. The backends whose scales are per
//! output column (or per group and column) — [`FloatBackend`],
//! [`LutBackend`], [`ShadowBackend`] — concatenate the sibling weights
//! once, at construction, and run one GEMM per activation; no output
//! column depends on another, so every column is bit-identical to its own
//! site's. The baselines whose quantization ties a site's columns
//! together — per-site weight scales or smoothing ([`PerTensorBackend`],
//! [`SmoothQuantBackend`]), batch-coupled activation scales
//! ([`PerGroupBackend`], [`LlmInt8Backend`]) — keep per-site layers and
//! fill the output's column blocks. `LinearKind` still names a site for
//! calibration, pruning and the figures.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

use llmnpu_quant::lut::LutLinear;
use llmnpu_quant::mixed::MixedLinear;
use llmnpu_quant::outlier::{calibrate_scale, prune_layers, ShadowLinear};
use llmnpu_quant::per_group::GroupedLinear;
use llmnpu_quant::per_tensor::QuantizedLinear;
use llmnpu_quant::smooth::SmoothedLinear;
use llmnpu_tensor::{gemm, PackedMatrixF32, Tensor};

use crate::weights::{LayerWeights, ModelWeights};
use crate::{Error, Result};

/// Which projection a linear site belongs to.
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

    /// The activation this projection reads.
    #[must_use]
    pub fn input(self) -> LinearInput {
        match self {
            LinearKind::Q | LinearKind::K | LinearKind::V => LinearInput::Attn,
            LinearKind::O => LinearInput::AttnOut,
            LinearKind::Gate | LinearKind::Up => LinearInput::Ffn,
            LinearKind::Down => LinearInput::FfnOut,
        }
    }
}

/// One of the four activations a decoder layer projects — the unit a
/// [`LinearBackend`] is called on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LinearInput {
    /// The normed hidden state entering attention: Q | K | V.
    Attn,
    /// The attention output: O.
    AttnOut,
    /// The normed hidden state entering the FFN: Gate | Up (Up alone in
    /// an ungated FFN).
    Ffn,
    /// The FFN's activated mid section: Down.
    FfnOut,
}

impl LinearInput {
    /// All inputs in layer order.
    pub const ALL: [LinearInput; 4] = [
        LinearInput::Attn,
        LinearInput::AttnOut,
        LinearInput::Ffn,
        LinearInput::FfnOut,
    ];

    /// The sites reading this input, in output-column order.
    #[must_use]
    pub fn kinds(self) -> &'static [LinearKind] {
        match self {
            LinearInput::Attn => &[LinearKind::Q, LinearKind::K, LinearKind::V],
            LinearInput::AttnOut => &[LinearKind::O],
            LinearInput::Ffn => &[LinearKind::Gate, LinearKind::Up],
            LinearInput::FfnOut => &[LinearKind::Down],
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

/// Executes the projections of one activation of a given layer.
///
/// Every method takes `(layer, input)` and answers for all the sites
/// that read `input` ([`LinearInput::kinds`], less an ungated FFN's
/// gate), their outputs concatenated by column in that order.
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
    /// Computes `x · W(layer, input)`, the sibling sites side by side.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or missing projections.
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>>;

    /// The main (quantized/NPU-lane) half. Defaults to the full
    /// [`LinearBackend::linear`] for backends without a separable
    /// correction path.
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch or missing projections.
    fn linear_main(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>> {
        self.linear(layer, input, x)
    }

    /// The additive shadow (float-lane) half, full output width, or
    /// `None` when there is nothing to overlap (no shadow path, every
    /// site pruned, or no outliers in `x`).
    ///
    /// # Errors
    ///
    /// Returns an error on shape mismatch.
    fn linear_shadow(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Option<Tensor<f32>>> {
        let _ = (layer, input, x);
        Ok(None)
    }

    /// Whether any site of this input keeps a shadow path (used to decide
    /// whether a split execution can ever produce a correction here).
    fn has_shadow(&self, layer: usize, input: LinearInput) -> bool {
        let _ = (layer, input);
        false
    }

    /// Whether every output row depends **only** on its own input row —
    /// i.e. `linear` applied to a stacked `[B, hidden]` batch produces,
    /// row for row, the exact bits of B separate single-row calls.
    /// Batched decode GEMMs and paged prefix sharing are bit-transparent
    /// only when this holds, so the serving scheduler consults it before
    /// stacking rows across requests.
    ///
    /// True for the static-weight float path and the LUT path (each row
    /// is quantized with its own scale). The default is `false`, and it
    /// stays `false` for every i8 backend until a stacked ≡ solo property
    /// test pins it (ROADMAP item 14): `PerTensorBackend`,
    /// `SmoothQuantBackend` and `ShadowBackend` quantize activations with
    /// a static calibrated scale, so only the shadow half's outlier
    /// extraction could couple rows (a row's NaN is scattered only when
    /// another row made its channel an outlier); `PerGroupBackend` takes
    /// each group's activation scale from the whole batch and
    /// `LlmInt8Backend` picks outlier columns over the whole batch, so
    /// batch composition does perturb their last bits.
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

/// The weight of `kind` in one layer (`None` for an ungated FFN's gate).
fn layer_weight(l: &LayerWeights, kind: LinearKind) -> Option<&Tensor<f32>> {
    match kind {
        LinearKind::Q => Some(&l.wq),
        LinearKind::K => Some(&l.wk),
        LinearKind::V => Some(&l.wv),
        LinearKind::O => Some(&l.wo),
        LinearKind::Gate => l.w_gate.as_ref(),
        LinearKind::Up => Some(&l.w_up),
        LinearKind::Down => Some(&l.w_down),
    }
}

fn site_weight(weights: &ModelWeights, layer: usize, kind: LinearKind) -> Result<&Tensor<f32>> {
    let l = weights.layers.get(layer).ok_or(Error::LayerOutOfRange {
        layer,
        layers: weights.layers.len(),
    })?;
    layer_weight(l, kind).ok_or_else(|| Error::InvalidConfig {
        what: "model has no gate projection".to_owned(),
    })
}

/// The sites reading `input` in one layer, in output-column order: each
/// one's kind, weight, and the output columns it fills.
fn sibling_weights(
    l: &LayerWeights,
    input: LinearInput,
) -> Vec<(LinearKind, &Tensor<f32>, Range<usize>)> {
    let mut col = 0;
    let mut out = Vec::new();
    for &kind in input.kinds() {
        if let Some(w) = layer_weight(l, kind) {
            let n = w.matrix_dims().1;
            out.push((kind, w, col..col + n));
            col += n;
        }
    }
    out
}

/// Just the weights of [`sibling_weights`].
fn input_blocks(l: &LayerWeights, input: LinearInput) -> Vec<&Tensor<f32>> {
    sibling_weights(l, input)
        .into_iter()
        .map(|(_, w, _)| w)
        .collect()
}

/// `parts` side by side: row `r` of the result is row `r` of every part,
/// in order.
///
/// # Errors
///
/// Returns an error if the parts' row counts differ.
fn concat_cols(parts: &[Tensor<f32>]) -> Result<Tensor<f32>> {
    let rows = parts.first().map_or(0, |p| p.matrix_dims().0);
    if let Some(bad) = parts.iter().find(|p| p.matrix_dims().0 != rows) {
        return Err(Error::Tensor(llmnpu_tensor::Error::ShapeMismatch {
            op: "concat_cols",
            lhs: vec![rows],
            rhs: bad.shape().dims().to_vec(),
        }));
    }
    let width: usize = parts.iter().map(|p| p.matrix_dims().1).sum();
    let mut data = Vec::with_capacity(rows * width);
    for r in 0..rows {
        for p in parts {
            data.extend_from_slice(p.row(r));
        }
    }
    Ok(Tensor::from_vec(data, [rows, width])?)
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

/// The `linear` of the per-site backends: runs each site of `input`
/// that `sites` holds and lays the outputs side by side.
fn per_site<L>(
    sites: &HashMap<LinearSite, L>,
    backend: &str,
    layer: usize,
    input: LinearInput,
    forward: impl Fn(&L) -> Result<Tensor<f32>>,
) -> Result<Tensor<f32>> {
    let mut outs = input
        .kinds()
        .iter()
        .filter_map(|&kind| sites.get(&(layer, kind)))
        .map(forward)
        .collect::<Result<Vec<_>>>()?;
    match outs.len() {
        0 => Err(Error::InvalidConfig {
            what: format!("no {backend} site for ({layer}, {input:?})"),
        }),
        1 => Ok(outs.remove(0)),
        _ => concat_cols(&outs),
    }
}

/// One fused layer per `(layer, input)`, looked up with the error a
/// missing one deserves.
fn fused<'a, L>(
    layers: &'a HashMap<(usize, LinearInput), L>,
    backend: &str,
    layer: usize,
    input: LinearInput,
) -> Result<&'a L> {
    layers.get(&(layer, input)).ok_or(Error::InvalidConfig {
        what: format!("no {backend} layer for ({layer}, {input:?})"),
    })
}

/// FP32 reference backend (the paper's FP16 row, with extra precision).
///
/// Each input's sibling weights are packed side by side **once** at
/// construction into the kernel's persistent layout
/// ([`PackedMatrixF32::from_blocks`]), and the packed panels are the only
/// copy kept; `linear` calls then run the prepacked driver — one GEMM per
/// activation, each output column bit-identical to its site's own
/// product, with zero weight packing per call.
#[derive(Debug, Clone)]
pub struct FloatBackend {
    packed: HashMap<(usize, LinearInput), PackedMatrixF32>,
    /// Layer count of the consumed model, for `LayerOutOfRange`.
    layers: usize,
}

impl FloatBackend {
    /// Consumes model weights layer by layer: a layer's projections are
    /// packed per input, then dropped.
    ///
    /// # Panics
    ///
    /// Panics if sibling projections disagree on their input width — a
    /// malformed `ModelWeights`, which `synthesize` never builds.
    #[must_use]
    pub fn new(weights: ModelWeights) -> Self {
        let layers = weights.layers.len();
        let mut packed = HashMap::new();
        for (layer, l) in weights.layers.into_iter().enumerate() {
            for input in LinearInput::ALL {
                let w = PackedMatrixF32::from_blocks(&input_blocks(&l, input))
                    .expect("sibling projections share their input width");
                packed.insert((layer, input), w);
            }
        }
        FloatBackend { packed, layers }
    }
}

impl LinearBackend for FloatBackend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        // Every input is packed for every layer, so a miss is an
        // out-of-range layer.
        let packed = self
            .packed
            .get(&(layer, input))
            .ok_or(Error::LayerOutOfRange {
                layer,
                layers: self.layers,
            })?;
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

/// The activations recorded for `site`.
fn site_corpus(calibration: &CalibrationSet, site: LinearSite) -> Result<&[Tensor<f32>]> {
    calibration
        .get(&site)
        .map(Vec::as_slice)
        .ok_or(Error::InvalidConfig {
            what: format!("no calibration activations for site {site:?}"),
        })
}

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
        let scale = calibrate_scale(site_corpus(calibration, site)?, quantile)?;
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
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "quantized", layer, input, |lin| {
            Ok(lin.forward(x)?)
        })
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
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "grouped", layer, input, |lin| {
            Ok(lin.forward(x)?.0)
        })
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
            let cal = concat_rows(site_corpus(calibration, site)?)?;
            layers.insert(site, SmoothedLinear::new(w, &cal, alpha)?);
        }
        Ok(SmoothQuantBackend { layers })
    }
}

impl LinearBackend for SmoothQuantBackend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "smoothed", layer, input, |lin| {
            Ok(lin.forward(x)?)
        })
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
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        per_site(&self.layers, "mixed", layer, input, |lin| {
            Ok(lin.forward(x)?.0)
        })
    }

    fn name(&self) -> &'static str {
        "LLM.int8()"
    }
}

/// llm.npu shadow-outlier backend (§3.3), with optional layer-level
/// outlier pruning.
///
/// One [`ShadowLinear`] per `(layer, input)`: the siblings' weights side
/// by side, one activation scale, one `extract_outliers` pass, and a
/// shadow MatMul that touches only the columns of the sites that kept
/// their outliers.
pub struct ShadowBackend {
    layers: HashMap<(usize, LinearInput), ShadowLinear>,
    /// Sites whose shadow path survived pruning.
    kept_sites: Vec<LinearSite>,
}

/// What [`ShadowBackend::new`] derives once per input from the corpus its
/// sites share: the clipping scale, and the importance — the largest
/// `|x|` over the clipping range `±127·scale`.
struct InputCalibration<'a> {
    corpus: &'a [Tensor<f32>],
    scale: f32,
    importance: f32,
}

/// Whether two calibration corpora hold the same activations, bit for bit.
fn same_corpus(a: &[Tensor<f32>], b: &[Tensor<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.shape() == y.shape()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

impl ShadowBackend {
    /// Builds shadow layers with clipping scales at `quantile` and prunes
    /// the outlier paths of the `pruning_rate` least-important sites
    /// (importance = max observed outlier ratio per site, Figure 12).
    ///
    /// Each input is quantized with one activation scale, so the sites
    /// reading it must have been calibrated on the same activations
    /// ([`crate::forward::Transformer::calibrate`] records the same tensor
    /// for each). They then also share an importance, and `prune_layers`
    /// breaks the tie by site order: pruning may keep Q and drop K and V.
    ///
    /// # Errors
    ///
    /// Returns an error if calibration data is missing, or if two sites
    /// that read the same activation were calibrated on different ones.
    pub fn new(
        weights: &ModelWeights,
        calibration: &CalibrationSet,
        quantile: f64,
        pruning_rate: f64,
    ) -> Result<Self> {
        let sites = model_sites(weights);
        let mut inputs: BTreeMap<(usize, LinearInput), InputCalibration<'_>> = BTreeMap::new();
        for &site in &sites {
            let key = (site.0, site.1.input());
            let corpus = site_corpus(calibration, site)?;
            match inputs.get(&key) {
                Some(first) if !same_corpus(first.corpus, corpus) => {
                    return Err(Error::InvalidConfig {
                        what: format!(
                            "site {site:?} was calibrated on other activations than its siblings \
                             on input {:?}",
                            key.1
                        ),
                    });
                }
                Some(_) => {}
                None => {
                    let scale = calibrate_scale(corpus, quantile)?;
                    let limit = scale * llmnpu_quant::per_tensor::QMAX;
                    let max_abs = corpus.iter().map(Tensor::abs_max).fold(0.0_f32, f32::max);
                    let importance = max_abs / limit.max(1e-9);
                    inputs.insert(
                        key,
                        InputCalibration {
                            corpus,
                            scale,
                            importance,
                        },
                    );
                }
            }
        }
        let importances: Vec<f32> = sites
            .iter()
            .map(|&(layer, kind)| inputs[&(layer, kind.input())].importance)
            .collect();
        let keep_mask = prune_layers(&importances, pruning_rate)?;
        let kept_sites: Vec<LinearSite> = sites
            .iter()
            .zip(&keep_mask)
            .filter_map(|(&site, &keep)| keep.then_some(site))
            .collect();

        let mut layers = HashMap::new();
        for (&(layer, input), cal) in &inputs {
            let l = &weights.layers[layer];
            let kept = sibling_weights(l, input)
                .into_iter()
                .filter_map(|(kind, _, cols)| kept_sites.contains(&(layer, kind)).then_some(cols))
                .collect();
            let lin = ShadowLinear::side_by_side(&input_blocks(l, input), cal.scale)?
                .with_shadow_columns(kept);
            layers.insert((layer, input), lin);
        }
        Ok(ShadowBackend { layers, kept_sites })
    }

    /// Sites whose shadow path is still active.
    #[must_use]
    pub fn kept_sites(&self) -> &[LinearSite] {
        &self.kept_sites
    }
}

impl LinearBackend for ShadowBackend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(fused(&self.layers, "shadow", layer, input)?
            .forward(x)?
            .output)
    }

    fn linear_main(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Tensor<f32>> {
        Ok(fused(&self.layers, "shadow", layer, input)?.forward_main(x)?)
    }

    fn linear_shadow(
        &self,
        layer: usize,
        input: LinearInput,
        x: &Tensor<f32>,
    ) -> Result<Option<Tensor<f32>>> {
        Ok(fused(&self.layers, "shadow", layer, input)?
            .forward_shadow(x)?
            .map(|(shadow, _channels)| shadow))
    }

    fn has_shadow(&self, layer: usize, input: LinearInput) -> bool {
        self.layers
            .get(&(layer, input))
            .is_some_and(ShadowLinear::shadow_enabled)
    }

    fn name(&self) -> &'static str {
        "Ours"
    }
}

/// Sub-8-bit backend: every input's sibling weights live, side by side,
/// in a packed table-lookup format ([`LutLinear`]), quantized and packed
/// **once** at construction. `linear` calls stream one-half (int4) or
/// one-quarter (int2) of the i8 weight bytes through the in-register
/// LUT drivers — the whole point of the format for bandwidth-bound
/// decode. Scales are per (group, column) and activations are quantized
/// per row, so each column is bit-identical to its site's own layer.
pub struct LutBackend {
    layers: HashMap<(usize, LinearInput), LutLinear>,
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
        quantize: impl Fn(&[&Tensor<f32>], usize) -> llmnpu_quant::Result<LutLinear>,
        name: &'static str,
    ) -> Result<Self> {
        let mut layers = HashMap::new();
        for (layer, l) in weights.layers.iter().enumerate() {
            for input in LinearInput::ALL {
                let lin = quantize(&input_blocks(l, input), group_size)?;
                layers.insert((layer, input), lin);
            }
        }
        Ok(LutBackend { layers, name })
    }

    /// Total packed weight bytes a decode step streams (codes plus
    /// group scales across every input).
    #[must_use]
    pub fn weight_bytes(&self) -> usize {
        self.layers.values().map(LutLinear::weight_bytes).sum()
    }
}

impl LinearBackend for LutBackend {
    fn linear(&self, layer: usize, input: LinearInput, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        Ok(fused(&self.layers, "LUT", layer, input)?.forward(x, host_threads())?)
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

    /// The same ramp for every site, a function of its input width only:
    /// siblings share their corpus, as `Transformer::calibrate` records.
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

    /// Columns `cols` of `t`.
    fn columns(t: &Tensor<f32>, cols: Range<usize>) -> Vec<f32> {
        let (rows, _) = t.matrix_dims();
        (0..rows)
            .flat_map(|r| t.row(r)[cols.clone()].to_vec())
            .collect()
    }

    #[test]
    fn float_backend_matches_direct_matmul() {
        let w = tiny_weights();
        let be = FloatBackend::new(w.clone());
        let x = Tensor::from_vec(vec![0.1_f32; 32], [1, 32]).unwrap();
        let y = be.linear(0, LinearInput::Attn, &x).unwrap();
        for (_, site_w, cols) in sibling_weights(&w.layers[0], LinearInput::Attn) {
            let direct = gemm::matmul_f32(&x, site_w).unwrap();
            assert_eq!(columns(&y, cols), direct.as_slice());
        }
        assert_eq!(be.name(), "FP16");
    }

    #[test]
    fn sites_skip_missing_gate() {
        let cfg = ModelConfig::phi2_27b().scaled_down(40, 2, 64).unwrap();
        let w = synthesize(&cfg, 1, OutlierSpec::default()).unwrap();
        let sites = model_sites(&w);
        assert!(sites.iter().all(|(_, k)| *k != LinearKind::Gate));
        assert_eq!(sites.len(), 2 * 6);
        // An ungated FFN's input is read by Up alone.
        let x = Tensor::from_vec(vec![0.25_f32; 40], [1, 40]).unwrap();
        let direct = gemm::matmul_f32(&x, &w.layers[1].w_up).unwrap();
        let y = FloatBackend::new(w)
            .linear(1, LinearInput::Ffn, &x)
            .unwrap();
        assert_eq!(y.as_slice(), direct.as_slice());
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
            .linear(0, LinearInput::Attn, &x)
            .unwrap();
        for be in [&pt as &dyn LinearBackend, &pg, &sq, &mx, &sh, &l4, &l2] {
            let y = be.linear(0, LinearInput::Attn, &x).unwrap();
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
            // Hidden-width inputs (FfnOut takes ffn_hidden-width inputs).
            for input in [LinearInput::Attn, LinearInput::AttnOut, LinearInput::Ffn] {
                let fused = be.linear(1, input, &x).unwrap();
                let mut merged = be.linear_main(1, input, &x).unwrap();
                if let Some(shadow) = be.linear_shadow(1, input, &x).unwrap() {
                    assert!(be.has_shadow(1, input));
                    merge_linear(&mut merged, &shadow).unwrap();
                    shadow_fired = true;
                }
                assert_eq!(
                    fused.as_slice(),
                    merged.as_slice(),
                    "{} {input:?}",
                    be.name()
                );
            }
        }
        assert!(shadow_fired, "spiky input must exercise a shadow path");
        assert!(!float.has_shadow(1, LinearInput::Attn));

        // Fully pruned backends never produce a shadow half.
        let pruned = ShadowBackend::new(&w, &cal, 0.9, 1.0).unwrap();
        assert!(!pruned.has_shadow(1, LinearInput::Attn));
        assert!(pruned
            .linear_shadow(1, LinearInput::Attn, &x)
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
            be.linear(99, LinearInput::Attn, &x),
            Err(Error::LayerOutOfRange { layer: 99, layers: l }) if l == layers
        ));
    }

    #[test]
    fn linear_kind_labels_match_paper_naming() {
        assert_eq!(LinearKind::Q.label(), "q_proj");
        assert_eq!(LinearKind::O.label(), "o_proj");
        assert_eq!(LinearKind::Up.label(), "up_proj");
        assert_eq!(LinearKind::Down.label(), "down_proj");
        for input in LinearInput::ALL {
            assert!(input.kinds().iter().all(|k| k.input() == input));
        }
    }
}
