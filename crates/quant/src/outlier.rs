//! Shadow outlier execution (§3.3) and the outlier analyses of
//! Figures 10–12.
//!
//! llm.npu keeps the NPU on a plain per-tensor W8A8 MatMul and recovers the
//! accuracy lost to activation outliers by splitting the product according
//! to Equation 1:
//!
//! ```text
//! (x/s) ⊙ w =  clip(x/s, -127, 127) ⊙ w        — dense INT8, on the NPU
//!            + extract(residual(x/s)) ⊙ w       — compact float, on the CPU
//! ```
//!
//! The residual is non-zero only on *outlier channels* (columns of the
//! activation whose magnitude exceeds the calibrated clipping range), so the
//! CPU-side MatMul is tiny (0.1–0.3% of channels, Figure 10) and its latency
//! hides behind the NPU's dense MatMul.
//!
//! This module provides:
//!
//! * [`ShadowLinear`] — the decomposed linear layer (real arithmetic on
//!   both halves, bit-identical merge),
//! * [`OutlierProfiler`] — corpus-level channel statistics: outlier counts
//!   per layer (Figure 10), per-channel frequency skew / hot channels
//!   (Figure 11),
//! * [`layer_importance`] — the max-outlier/scale importance score used to
//!   prune the top-85% least important layers' outliers (Figure 12),
//! * [`HotChannelPolicy`] — the memory policy that keeps only hot-channel
//!   float weights resident (34.3% shadow-memory saving, §3.3).

use llmnpu_tensor::kernel::Epilogue;
use llmnpu_tensor::{gemm, PackedMatrixI8, Tensor};

use crate::per_tensor::{
    dequantize_packed, matmul_dequant, ChannelQuantizedMatrix, QuantizedMatrix, QMAX,
};
use crate::{Error, Result};

/// Outlier channels of one activation batch, compacted into a dense tensor
/// (the `extract`/`compress` step of Figure 9).
#[derive(Debug, Clone, PartialEq)]
pub struct CompactOutliers {
    /// Indices of the extracted channels (columns of the activation).
    pub channels: Vec<usize>,
    /// Residual values `[rows, channels.len()]`, in the *float* domain
    /// (already multiplied by nothing — these are `x - clip(x)` values).
    pub residuals: Tensor<f32>,
}

impl CompactOutliers {
    /// An empty extraction (no outliers).
    #[must_use]
    pub fn empty(rows: usize) -> Self {
        CompactOutliers {
            channels: Vec::new(),
            residuals: Tensor::zeros([rows, 0]),
        }
    }

    /// Number of extracted channels.
    #[must_use]
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Whether nothing was extracted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }
}

/// Splits an activation into its clipped (NPU) part and compact outlier
/// residuals (CPU part), per Equation 1.
///
/// A channel is extracted when any of its values exceeds the clipping range
/// `±(QMAX · scale)`. The residual carried to the CPU is `x - clip(x)` so
/// that `clip(x) ⊙ w + residual ⊙ w = x ⊙ w` exactly on outlier channels.
///
/// Detection and residual extraction happen in **one row-major pass**
/// over `x` (the tensor's storage order): out-of-range values are
/// recorded as sparse `(row, channel, residual)` hits as they stream by,
/// then scattered into the compact `[rows, |channels|]` tensor. The seed
/// walked the row-major storage column-major for detection and then
/// re-read every row a second time; for in-range values the residual
/// `v - clamp(v)` is exactly `0.0`, so the sparse scatter reproduces the
/// dense two-pass output bit-for-bit.
#[must_use]
pub fn extract_outliers(x: &Tensor<f32>, scale: f32) -> CompactOutliers {
    let (rows, cols) = x.matrix_dims();
    let limit = QMAX * scale;
    let mut is_outlier = vec![false; cols];
    let mut hits: Vec<(usize, usize, f32)> = Vec::new();
    // NaN values don't trigger extraction (`NaN > limit` is false, as in
    // the seed), but if their channel is extracted anyway, their residual
    // is `NaN - clamp(NaN) = NaN` and must propagate; they are collected
    // separately (as the raw NaN — clamping against a possibly-NaN limit
    // would panic, and `NaN - anything` is NaN regardless) and scattered
    // only for channels that turn out to be outliers.
    let mut nan_hits: Vec<(usize, usize, f32)> = Vec::new();
    for r in 0..rows {
        for (c, &v) in x.row(r).iter().enumerate() {
            if v.abs() > limit {
                is_outlier[c] = true;
                hits.push((r, c, v - v.clamp(-limit, limit)));
            } else if v.is_nan() {
                nan_hits.push((r, c, v));
            }
        }
    }
    if hits.is_empty() {
        return CompactOutliers::empty(rows);
    }
    let channels: Vec<usize> = is_outlier
        .iter()
        .enumerate()
        .filter_map(|(c, &o)| o.then_some(c))
        .collect();
    // Channel -> compact column index (only valid for outlier channels).
    let mut compact_col = vec![0usize; cols];
    for (j, &c) in channels.iter().enumerate() {
        compact_col[c] = j;
    }
    let mut residuals = Tensor::zeros([rows, channels.len()]);
    for (r, c, resid) in hits {
        residuals.row_mut(r)[compact_col[c]] = resid;
    }
    for (r, c, resid) in nan_hits {
        if is_outlier[c] {
            residuals.row_mut(r)[compact_col[c]] = resid;
        }
    }
    CompactOutliers {
        channels,
        residuals,
    }
}

/// Where the float weights needed for a shadow MatMul currently live —
/// the unified-memory/disk hierarchy of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WeightResidency {
    /// Hot channel: float weight row resident in CPU memory.
    Memory,
    /// Cold channel: must be fetched from disk (overlapped with NPU work).
    Disk,
}

/// Memory policy for shadow-execution weights: keep only the rows of the
/// weight matrix belonging to *hot* outlier channels resident, fetch the
/// rest from disk on demand (§3.3).
#[derive(Debug, Clone)]
pub struct HotChannelPolicy {
    hot: std::collections::HashSet<usize>,
    total_channels: usize,
}

impl HotChannelPolicy {
    /// Builds a policy from profiled per-channel outlier counts, keeping the
    /// smallest set of channels that covers `coverage` (e.g. 0.8 = 80%) of
    /// all observed outliers — the "<3% of channels produce >80% of
    /// outliers" skew of Figure 11.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidCalibration`] if `coverage` is outside
    /// `(0, 1]` or `counts` is empty.
    pub fn from_counts(counts: &[u64], coverage: f64) -> Result<Self> {
        if counts.is_empty() {
            return Err(Error::InvalidCalibration {
                what: "empty channel counts".to_owned(),
            });
        }
        if !(coverage > 0.0 && coverage <= 1.0) {
            return Err(Error::InvalidCalibration {
                what: format!("coverage {coverage} must be in (0, 1]"),
            });
        }
        let total: u64 = counts.iter().sum();
        let mut order: Vec<usize> = (0..counts.len()).collect();
        order.sort_by(|&a, &b| counts[b].cmp(&counts[a]).then(a.cmp(&b)));
        let mut hot = std::collections::HashSet::new();
        let mut covered = 0u64;
        let target = (total as f64 * coverage).ceil() as u64;
        for c in order {
            if covered >= target || counts[c] == 0 {
                break;
            }
            covered += counts[c];
            hot.insert(c);
        }
        Ok(HotChannelPolicy {
            hot,
            total_channels: counts.len(),
        })
    }

    /// Residency of a channel's float weights.
    #[must_use]
    pub fn residency(&self, channel: usize) -> WeightResidency {
        if self.hot.contains(&channel) {
            WeightResidency::Memory
        } else {
            WeightResidency::Disk
        }
    }

    /// Number of hot channels kept in memory.
    #[must_use]
    pub fn hot_count(&self) -> usize {
        self.hot.len()
    }

    /// Fraction of channels resident in memory.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        if self.total_channels == 0 {
            0.0
        } else {
            self.hot.len() as f64 / self.total_channels as f64
        }
    }
}

/// A linear layer executing the shadow outlier decomposition.
///
/// # Example
///
/// ```
/// use llmnpu_quant::outlier::ShadowLinear;
/// use llmnpu_tensor::Tensor;
///
/// # fn main() -> Result<(), llmnpu_quant::Error> {
/// let w = Tensor::from_vec(vec![0.2_f32; 16], [4, 4])?;
/// // Calibrated scale covers |x| <= 1.27; anything larger is an outlier.
/// let layer = ShadowLinear::new(&w, 0.01);
/// let x = Tensor::from_vec(vec![0.5_f32, 9.0, -0.3, 0.1], [1, 4])?;
/// let out = layer.forward(&x)?;
/// assert_eq!(out.extracted_channels, vec![1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShadowLinear {
    /// The per-channel quantized weight, held once, in the kernel's
    /// packed layout: the dense half multiplies by it and the shadow
    /// half reads its outlier channels' rows back out of it.
    packed: PackedMatrixI8,
    /// Per-output-channel weight scales.
    w_scales: Vec<f32>,
    /// Calibrated activation scale (`s` in Equation 1) from offline
    /// profiling; outliers are values beyond `±127·s`.
    act_scale: f32,
    /// When `false`, the CPU shadow path is skipped entirely (the layer was
    /// pruned as unimportant, Figure 12 right).
    shadow_enabled: bool,
}

/// Output of a shadow forward pass, with the bookkeeping the scheduler and
/// the memory model need.
#[derive(Debug, Clone)]
pub struct ShadowOutput {
    /// The merged result (NPU dense part + CPU shadow part).
    pub output: Tensor<f32>,
    /// Channels that were extracted and shadow-executed.
    pub extracted_channels: Vec<usize>,
}

impl ShadowLinear {
    /// Builds a shadow linear layer from float weights `[in, out]` and a
    /// calibrated activation scale.
    #[must_use]
    pub fn new(weight: &Tensor<f32>, act_scale: f32) -> Self {
        let weight = ChannelQuantizedMatrix::quantize(weight);
        ShadowLinear {
            packed: PackedMatrixI8::from_tensor(weight.data()),
            w_scales: weight.scales().to_vec(),
            act_scale,
            shadow_enabled: true,
        }
    }

    /// Disables the shadow path (outlier pruning for unimportant layers).
    #[must_use]
    pub fn with_shadow_disabled(mut self) -> Self {
        self.shadow_enabled = false;
        self
    }

    /// Whether the shadow path is active.
    #[must_use]
    pub fn shadow_enabled(&self) -> bool {
        self.shadow_enabled
    }

    /// The calibrated activation scale.
    #[must_use]
    pub fn act_scale(&self) -> f32 {
        self.act_scale
    }

    /// Runs the decomposed forward pass of Equation 1.
    ///
    /// Composed of [`ShadowLinear::forward_main`] and
    /// [`ShadowLinear::forward_shadow`] plus the accumulate merge, so the
    /// fused call is bit-identical to executing the two halves on
    /// separate threads and merging — the invariant that lets the prefill
    /// executor genuinely overlap the shadow MatMul with the quantized
    /// main path.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward(&self, x: &Tensor<f32>) -> Result<ShadowOutput> {
        let mut y = self.forward_main(x)?;
        let mut extracted = Vec::new();
        if let Some((shadow, channels)) = self.forward_shadow(x)? {
            gemm::accumulate(&mut y, &shadow)?;
            extracted = channels;
        }
        Ok(ShadowOutput {
            output: y,
            extracted_channels: extracted,
        })
    }

    /// The NPU half alone: clip to the calibrated range and run dense
    /// W8A8 with the per-channel dequantization fused into the kernel
    /// epilogue. The full result is `main + forward_shadow` (elementwise
    /// accumulate), in that order.
    ///
    /// The clip of Equation 1 *is* the quantizer's saturation:
    /// `quantize_value` rounds `v / s` and clamps to ±127, which for
    /// `|v| > 127·s` lands on ±127 exactly as quantizing the pre-clipped
    /// `±127·s` does, so `x` is quantized directly — one pass, no
    /// clipped `[m, k]` copy.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_main(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let xq = QuantizedMatrix::quantize_with_scale(x, self.act_scale);
        matmul_dequant(
            xq.data(),
            &self.packed,
            Epilogue::PerChannel {
                a_scale: self.act_scale,
                w_scales: &self.w_scales,
            },
        )
    }

    /// The CPU shadow half alone: compact outlier residuals × the same
    /// weights, in float. Returns `None` when the shadow path is pruned
    /// or the input has no outliers (the merge is then a no-op, exactly
    /// as in the fused [`ShadowLinear::forward`]).
    ///
    /// # Errors
    ///
    /// Returns an error if an extracted channel is out of range.
    pub fn forward_shadow(&self, x: &Tensor<f32>) -> Result<Option<(Tensor<f32>, Vec<usize>)>> {
        if !self.shadow_enabled {
            return Ok(None);
        }
        let outliers = extract_outliers(x, self.act_scale);
        if outliers.is_empty() {
            return Ok(None);
        }
        let shadow = self.shadow_matmul(&outliers)?;
        Ok(Some((shadow, outliers.channels)))
    }

    /// The compact CPU-side MatMul: residuals `[m, |C|]` × the selected
    /// dequantized weight rows `[|C|, n]`, each gathered out of the
    /// packed panels into one `n`-byte scratch.
    ///
    /// # Errors
    ///
    /// Returns an error if an extracted channel is out of range for the
    /// weight matrix.
    pub fn shadow_matmul(&self, outliers: &CompactOutliers) -> Result<Tensor<f32>> {
        let (k, n) = (self.packed.k(), self.packed.n());
        let (m, _) = outliers.residuals.matrix_dims();
        let mut out = Tensor::zeros([m, n]);
        let w_scales = &self.w_scales;
        let mut w_row = vec![0_i8; n];
        for (j, &c) in outliers.channels.iter().enumerate() {
            if c >= k {
                return Err(Error::InvalidCalibration {
                    what: format!("outlier channel {c} out of range for weight rows {k}"),
                });
            }
            self.packed.copy_row(c, &mut w_row);
            for r in 0..m {
                let v = outliers.residuals.row(r)[j];
                if v == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(r);
                for (col, &wq) in w_row.iter().enumerate() {
                    out_row[col] += v * f32::from(wq) * w_scales[col];
                }
            }
        }
        Ok(out)
    }

    /// Float reference against the dequantized weights.
    ///
    /// # Errors
    ///
    /// Returns an error on inner-dimension mismatch.
    pub fn forward_float(&self, x: &Tensor<f32>) -> Result<Tensor<f32>> {
        let w = dequantize_packed(std::slice::from_ref(&self.packed), |_, c| self.w_scales[c]);
        Ok(gemm::matmul_f32(x, &w)?)
    }
}

/// Corpus-level outlier statistics for one linear layer (Figures 10–12).
#[derive(Debug, Clone)]
pub struct OutlierProfile {
    /// Per-channel outlier occurrence counts across the corpus.
    pub channel_counts: Vec<u64>,
    /// Number of inference batches profiled.
    pub batches: u64,
    /// Total outlier events observed.
    pub total_outliers: u64,
    /// Largest `|x| / (127·s)` ratio seen (the importance numerator).
    pub max_ratio: f32,
}

impl OutlierProfile {
    /// Average number of distinct outlier channels per batch (Figure 10 left).
    #[must_use]
    pub fn mean_outliers_per_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.total_outliers as f64 / self.batches as f64
        }
    }

    /// Fraction of channels that ever produced an outlier.
    #[must_use]
    pub fn active_channel_fraction(&self) -> f64 {
        if self.channel_counts.is_empty() {
            return 0.0;
        }
        let active = self.channel_counts.iter().filter(|&&c| c > 0).count();
        active as f64 / self.channel_counts.len() as f64
    }

    /// Smallest fraction of channels that covers `coverage` of all outlier
    /// events (Figure 11's skew metric).
    #[must_use]
    pub fn channel_fraction_for_coverage(&self, coverage: f64) -> f64 {
        let total: u64 = self.channel_counts.iter().sum();
        if total == 0 || self.channel_counts.is_empty() {
            return 0.0;
        }
        let mut sorted: Vec<u64> = self.channel_counts.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let target = (total as f64 * coverage).ceil() as u64;
        let mut covered = 0u64;
        let mut used = 0usize;
        for c in sorted {
            if covered >= target {
                break;
            }
            covered += c;
            used += 1;
        }
        used as f64 / self.channel_counts.len() as f64
    }
}

/// Streaming profiler that accumulates [`OutlierProfile`]s over a corpus.
#[derive(Debug, Clone)]
pub struct OutlierProfiler {
    scale: f32,
    profile: OutlierProfile,
}

impl OutlierProfiler {
    /// Creates a profiler for a layer with `channels` input channels and a
    /// calibrated activation scale.
    #[must_use]
    pub fn new(channels: usize, scale: f32) -> Self {
        OutlierProfiler {
            scale,
            profile: OutlierProfile {
                channel_counts: vec![0; channels],
                batches: 0,
                total_outliers: 0,
                max_ratio: 0.0,
            },
        }
    }

    /// Records one activation batch.
    pub fn record(&mut self, x: &Tensor<f32>) {
        let limit = QMAX * self.scale;
        let (rows, cols) = x.matrix_dims();
        let cols = cols.min(self.profile.channel_counts.len());
        self.profile.batches += 1;
        for c in 0..cols {
            let mut hit = false;
            for r in 0..rows {
                let v = x.row(r)[c].abs();
                if v > limit {
                    hit = true;
                    let ratio = v / limit;
                    if ratio > self.profile.max_ratio {
                        self.profile.max_ratio = ratio;
                    }
                }
            }
            if hit {
                self.profile.channel_counts[c] += 1;
                self.profile.total_outliers += 1;
            }
        }
    }

    /// Finishes profiling and returns the accumulated statistics.
    #[must_use]
    pub fn finish(self) -> OutlierProfile {
        self.profile
    }
}

/// Importance of a layer's outliers: the ratio between the largest observed
/// outlier magnitude and the quantization clipping range (§3.3 — "the ratio
/// between the largest outlier and the quantization scale"). Layers with
/// ratios near 1 lose almost nothing when their outliers are pruned.
#[must_use]
pub fn layer_importance(profile: &OutlierProfile) -> f32 {
    profile.max_ratio
}

/// Selects which layers keep their shadow path given a pruning rate:
/// the `(1 - pruning_rate)` most important layers survive.
///
/// Returns a boolean mask aligned with `importances` (true = keep shadow).
///
/// # Errors
///
/// Returns [`Error::InvalidCalibration`] if `pruning_rate` is outside
/// `[0, 1]`.
pub fn prune_layers(importances: &[f32], pruning_rate: f64) -> Result<Vec<bool>> {
    if !(0.0..=1.0).contains(&pruning_rate) {
        return Err(Error::InvalidCalibration {
            what: format!("pruning rate {pruning_rate} must be in [0, 1]"),
        });
    }
    let n = importances.len();
    let keep = n - (n as f64 * pruning_rate).round() as usize;
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        importances[b]
            .partial_cmp(&importances[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut mask = vec![false; n];
    for &idx in order.iter().take(keep) {
        mask[idx] = true;
    }
    Ok(mask)
}

/// Picks a clipping scale from a calibration corpus so that roughly
/// `quantile` of all activation magnitudes fall inside `±127·s`
/// (the offline threshold profiling of §3.3).
///
/// # Errors
///
/// Returns [`Error::InvalidCalibration`] if the corpus is empty or the
/// quantile is outside `(0, 1]`.
pub fn calibrate_scale(corpus: &[Tensor<f32>], quantile: f64) -> Result<f32> {
    if corpus.is_empty() || corpus.iter().all(|t| t.is_empty()) {
        return Err(Error::InvalidCalibration {
            what: "empty calibration corpus".to_owned(),
        });
    }
    if !(quantile > 0.0 && quantile <= 1.0) {
        return Err(Error::InvalidCalibration {
            what: format!("quantile {quantile} must be in (0, 1]"),
        });
    }
    let mut magnitudes: Vec<f32> = corpus
        .iter()
        .flat_map(|t| t.as_slice().iter().map(|v| v.abs()))
        .collect();
    magnitudes.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let idx = ((magnitudes.len() as f64 * quantile).ceil() as usize).clamp(1, magnitudes.len()) - 1;
    let bound = magnitudes[idx].max(1e-8);
    Ok(bound / QMAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::per_tensor::max_min_scale;

    fn ramp(k: usize, n: usize, amp: f32) -> Tensor<f32> {
        Tensor::from_vec(
            (0..k * n)
                .map(|i| amp * (((i * 23 + 11) % 83) as f32 / 83.0 - 0.5))
                .collect(),
            [k, n],
        )
        .unwrap()
    }

    #[test]
    fn extract_finds_only_out_of_range_channels() {
        // scale 0.01 → limit 1.27
        let x = Tensor::from_vec(vec![0.5_f32, 2.0, -3.0, 1.0], [1, 4]).unwrap();
        let out = extract_outliers(&x, 0.01);
        assert_eq!(out.channels, vec![1, 2]);
        assert!((out.residuals.row(0)[0] - (2.0 - 1.27)).abs() < 1e-6);
        assert!((out.residuals.row(0)[1] - (-3.0 + 1.27)).abs() < 1e-6);
    }

    #[test]
    fn extract_empty_when_all_in_range() {
        let x = ramp(2, 4, 0.5);
        let out = extract_outliers(&x, 1.0);
        assert!(out.is_empty());
        assert_eq!(out.channel_count(), 0);
    }

    #[test]
    fn extract_with_nan_scale_returns_empty() {
        // A NaN calibration scale means no value compares above the
        // limit, so nothing is extracted — and nothing panics (the seed
        // behaved the same way).
        let x = Tensor::from_vec(vec![f32::NAN, 0.5, 100.0, -3.0], [1, 4]).unwrap();
        let out = extract_outliers(&x, f32::NAN);
        assert!(out.is_empty());
    }

    #[test]
    fn extract_propagates_nan_in_outlier_channels_only() {
        // scale 0.01 → limit 1.27. Channel 1 is an outlier (row 0) and
        // also carries a NaN (row 1): the NaN residual must propagate.
        // Channel 3 carries a NaN but no over-limit value: NaN alone
        // does not trigger extraction (NaN > limit is false), matching
        // the seed's detection behavior.
        let x = Tensor::from_vec(
            vec![0.5_f32, 2.0, 0.1, 0.2, 0.3, f32::NAN, 0.1, f32::NAN],
            [2, 4],
        )
        .unwrap();
        let out = extract_outliers(&x, 0.01);
        assert_eq!(out.channels, vec![1]);
        assert!((out.residuals.row(0)[0] - (2.0 - 1.27)).abs() < 1e-6);
        assert!(out.residuals.row(1)[0].is_nan());
    }

    #[test]
    fn shadow_decomposition_recovers_outlier_contribution() {
        let w = ramp(16, 8, 0.5);
        let mut xv = vec![0.04_f32; 16];
        xv[5] = 45.0;
        let x = Tensor::from_vec(xv, [1, 16]).unwrap();
        // Calibrate scale on outlier-free data: big value becomes an outlier.
        let scale = 0.08 / QMAX;
        let layer = ShadowLinear::new(&w, scale);
        let out = layer.forward(&x).unwrap();
        assert_eq!(out.extracted_channels, vec![5]);
        let y_ref = layer.forward_float(&x).unwrap();
        let rel = out.output.mse(&y_ref).unwrap().sqrt() / y_ref.abs_max().max(1e-6);
        assert!(rel < 0.02, "rel err {rel}");
    }

    #[test]
    fn split_halves_bit_match_fused_forward() {
        // The overlap invariant: running main and shadow separately and
        // merging must equal the fused forward bit-for-bit (the executor
        // runs the halves on different lanes).
        let w = ramp(16, 8, 0.5);
        let mut xv = vec![0.04_f32; 32];
        xv[5] = 45.0;
        xv[16 + 9] = -30.0;
        let x = Tensor::from_vec(xv, [2, 16]).unwrap();
        let scale = 0.08 / QMAX;
        let layer = ShadowLinear::new(&w, scale);

        let fused = layer.forward(&x).unwrap();
        let mut merged = layer.forward_main(&x).unwrap();
        let (shadow, channels) = layer.forward_shadow(&x).unwrap().expect("outliers present");
        gemm::accumulate(&mut merged, &shadow).unwrap();
        assert_eq!(fused.output.as_slice(), merged.as_slice());
        assert_eq!(fused.extracted_channels, channels);

        // Pruned/clean inputs report no shadow half at all.
        let clean = Tensor::from_vec(vec![0.01_f32; 16], [1, 16]).unwrap();
        assert!(layer.forward_shadow(&clean).unwrap().is_none());
        let pruned = ShadowLinear::new(&w, scale).with_shadow_disabled();
        assert!(pruned.forward_shadow(&x).unwrap().is_none());
        assert_eq!(
            pruned.forward(&x).unwrap().output.as_slice(),
            pruned.forward_main(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn pruned_shadow_loses_outlier_contribution() {
        let w = ramp(16, 8, 0.5);
        let mut xv = vec![0.04_f32; 16];
        xv[5] = 45.0;
        let x = Tensor::from_vec(xv, [1, 16]).unwrap();
        let scale = 0.08 / QMAX;
        let kept = ShadowLinear::new(&w, scale);
        let pruned = ShadowLinear::new(&w, scale).with_shadow_disabled();
        assert!(!pruned.shadow_enabled());
        let y_ref = kept.forward_float(&x).unwrap();
        let err_kept = kept.forward(&x).unwrap().output.mse(&y_ref).unwrap();
        let err_pruned = pruned.forward(&x).unwrap().output.mse(&y_ref).unwrap();
        assert!(err_pruned > err_kept * 10.0);
    }

    #[test]
    fn shadow_without_outliers_is_pure_integer_path() {
        use crate::per_tensor::QuantizedLinear;
        let w = ramp(8, 4, 1.0);
        let x = ramp(2, 8, 1.0);
        let scale = max_min_scale(x.as_slice());
        let shadow = ShadowLinear::new(&w, scale);
        let y_s = shadow.forward(&x).unwrap();
        // Nothing extracted: the whole result came from the NPU path.
        assert!(y_s.extracted_channels.is_empty());
        // Per-channel weight scales track the float reference at least as
        // well as the per-tensor-weight baseline.
        let y_ref = shadow.forward_float(&x).unwrap();
        let err_shadow = y_s.output.mse(&y_ref).unwrap();
        let plain = QuantizedLinear::new(&w, scale);
        let err_plain = plain
            .forward(&x)
            .unwrap()
            .mse(&plain.forward_float(&x).unwrap())
            .unwrap();
        assert!(err_shadow <= err_plain * 1.5 + 1e-9);
    }

    #[test]
    fn saturating_quantizer_subsumes_the_pre_clip() {
        // `forward_main` quantizes `x` directly; the old pre-clip to
        // `±127·s` must have been invisible for every input class.
        use crate::per_tensor::quantize_value;
        // Subnormal, tiny, ordinary, huge, and one whose limit overflows.
        for scale in [1e-40_f32, 1e-30, 0.01, 1.0, 1e30, 3e36] {
            let limit = QMAX * scale;
            let mut values = vec![
                0.0,
                f32::NAN,
                f32::INFINITY,
                f32::from_bits(1),
                f32::MIN_POSITIVE / 2.0,
                f32::MAX,
                0.5 * scale,
                126.5 * scale,
                limit,
                limit.next_down(),
                limit.next_up(),
                limit * (1.0 - 1e-3),
                limit * (1.0 + 1e-3),
                2.0 * limit,
            ];
            values.extend(values.clone().iter().map(|v| -v));
            for v in values {
                let clipped = v.clamp(-limit, limit);
                assert_eq!(
                    quantize_value(v, scale),
                    quantize_value(clipped, scale),
                    "v = {v:e}, scale = {scale:e}"
                );
            }
        }
        assert_eq!(quantize_value(f32::NAN, 0.01), 0);
        assert_eq!(quantize_value(f32::NEG_INFINITY, 0.01), -127);
    }

    #[test]
    fn per_channel_weights_improve_on_per_tensor_weights() {
        // A weight matrix whose columns have wildly different magnitudes:
        // per-column scales preserve the small columns that a single
        // tensor-wide scale would crush.
        let mut w = ramp(8, 4, 1.0);
        for r in 0..8 {
            w.row_mut(r)[0] *= 100.0; // column 0 dominates
            w.row_mut(r)[3] *= 0.01; // column 3 is tiny
        }
        let x = ramp(2, 8, 1.0);
        let scale = max_min_scale(x.as_slice());
        let shadow = ShadowLinear::new(&w, scale);
        let y_s = shadow.forward(&x).unwrap();

        use crate::per_tensor::QuantizedLinear;
        let plain = QuantizedLinear::new(&w, scale);
        let y_p = plain.forward(&x).unwrap();

        // Both schemes judged against the *true* float weights.
        let y_true = gemm::matmul_f32(&x, &w).unwrap();
        let col_err = |y: &Tensor<f32>| -> f32 {
            let mut e = 0.0;
            for row in 0..2 {
                e += (y.row(row)[3] - y_true.row(row)[3]).abs();
            }
            e
        };
        let e_channel = col_err(&y_s.output);
        let e_tensor = col_err(&y_p);
        assert!(
            e_channel < e_tensor,
            "per-channel {e_channel} should beat per-tensor {e_tensor} on small columns"
        );
    }

    #[test]
    fn profiler_counts_channels_and_batches() {
        let mut prof = OutlierProfiler::new(4, 0.01); // limit 1.27
        let a = Tensor::from_vec(vec![0.5_f32, 2.0, 0.3, 0.1], [1, 4]).unwrap();
        let b = Tensor::from_vec(vec![0.5_f32, 3.0, 0.3, 5.0], [1, 4]).unwrap();
        prof.record(&a);
        prof.record(&b);
        let p = prof.finish();
        assert_eq!(p.batches, 2);
        assert_eq!(p.channel_counts, vec![0, 2, 0, 1]);
        assert_eq!(p.total_outliers, 3);
        assert!((p.mean_outliers_per_batch() - 1.5).abs() < 1e-9);
        assert!((p.active_channel_fraction() - 0.5).abs() < 1e-9);
        assert!(p.max_ratio > 1.0);
    }

    #[test]
    fn coverage_fraction_reflects_skew() {
        let p = OutlierProfile {
            channel_counts: vec![80, 10, 5, 3, 1, 1, 0, 0, 0, 0],
            batches: 100,
            total_outliers: 100,
            max_ratio: 2.0,
        };
        // One channel (10% of 10) already covers 80%.
        assert!((p.channel_fraction_for_coverage(0.8) - 0.1).abs() < 1e-9);
        // All six active channels needed for 100%.
        assert!((p.channel_fraction_for_coverage(1.0) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn hot_channel_policy_keeps_heavy_hitters() {
        let counts = vec![80u64, 10, 5, 3, 1, 1, 0, 0];
        let policy = HotChannelPolicy::from_counts(&counts, 0.8).unwrap();
        assert_eq!(policy.residency(0), WeightResidency::Memory);
        assert_eq!(policy.residency(7), WeightResidency::Disk);
        assert_eq!(policy.hot_count(), 1);
        assert!((policy.memory_fraction() - 1.0 / 8.0).abs() < 1e-9);
        assert!(HotChannelPolicy::from_counts(&[], 0.8).is_err());
        assert!(HotChannelPolicy::from_counts(&counts, 1.5).is_err());
    }

    #[test]
    fn prune_layers_keeps_most_important() {
        let imp = vec![1.0_f32, 9.0, 2.0, 8.0];
        let mask = prune_layers(&imp, 0.5).unwrap();
        assert_eq!(mask, vec![false, true, false, true]);
        assert_eq!(prune_layers(&imp, 0.0).unwrap(), vec![true; 4]);
        assert_eq!(prune_layers(&imp, 1.0).unwrap(), vec![false; 4]);
        assert!(prune_layers(&imp, 1.2).is_err());
    }

    #[test]
    fn calibrate_scale_quantile() {
        let corpus = vec![Tensor::from_vec(vec![0.1_f32, 0.2, 0.3, 100.0], [1, 4]).unwrap()];
        // At the 75th percentile the bound excludes the 100.0 outlier.
        let s = calibrate_scale(&corpus, 0.75).unwrap();
        assert!(s < 1.0 / QMAX);
        // At quantile 1.0 everything is inlier.
        let s_full = calibrate_scale(&corpus, 1.0).unwrap();
        assert!((s_full - 100.0 / QMAX).abs() < 1e-5);
        assert!(calibrate_scale(&[], 0.9).is_err());
        assert!(calibrate_scale(&corpus, 0.0).is_err());
    }

    #[test]
    fn shadow_rows_and_float_yardstick_read_the_quantized_rows_back() {
        // Ragged against the panel layout: n spans two panels, k pads.
        let (k, n, m) = (21, 19, 3);
        let w = ramp(k, n, 0.7);
        let layer = ShadowLinear::new(&w, 0.01);
        // The row-major payload the layer no longer keeps.
        let q = ChannelQuantizedMatrix::quantize(&w);

        // First row, last row, and one channel listed twice; a zero
        // residual is skipped.
        let channels = vec![0, k - 1, 7, 7];
        let mut residuals = ramp(m, channels.len(), 9.0);
        residuals.row_mut(1)[2] = 0.0;
        let mut want = Tensor::zeros([m, n]);
        for (j, &c) in channels.iter().enumerate() {
            for r in 0..m {
                let v = residuals.row(r)[j];
                if v == 0.0 {
                    continue;
                }
                for (col, &wq) in q.data().row(c).iter().enumerate() {
                    want.row_mut(r)[col] += v * f32::from(wq) * q.scales()[col];
                }
            }
        }
        let got = layer
            .shadow_matmul(&CompactOutliers {
                channels,
                residuals,
            })
            .unwrap();
        assert_eq!(got.as_slice(), want.as_slice());

        let x = ramp(m, k, 1.0);
        assert_eq!(
            layer.forward_float(&x).unwrap().as_slice(),
            gemm::matmul_f32(&x, &q.dequantize()).unwrap().as_slice()
        );
    }

    #[test]
    fn shadow_matmul_rejects_out_of_range_channel() {
        let w = ramp(4, 2, 1.0);
        let layer = ShadowLinear::new(&w, 0.01);
        let bad = CompactOutliers {
            channels: vec![9],
            residuals: Tensor::zeros([1, 1]),
        };
        assert!(layer.shadow_matmul(&bad).is_err());
    }
}
