//! Seeded synthetic weight generation with realistic activation-outlier
//! structure.
//!
//! Real LLM weights are unavailable here, so the numeric plane synthesizes
//! small transformers whose *activation statistics* match what the paper
//! measured (Figures 10–12):
//!
//! * a small set of **hot channels** (~2–3% of the hidden width) whose
//!   normalization gain is boosted by a heavy-tailed factor, so they
//!   produce the bulk of activation outliers,
//! * layer-position-dependent outlier magnitude — "layers near the inputs
//!   and outputs have a higher importance" (§3.3) — implemented as a
//!   U-shaped boost profile over depth,
//! * everything else i.i.d. Gaussian with standard 1/√fan-in scaling.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use llmnpu_tensor::Tensor;

use crate::config::{ActKind, ModelConfig};
use crate::Result;

/// Weights of one decoder layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection `[hidden, q_dim]`.
    pub wq: Tensor<f32>,
    /// Key projection `[hidden, kv_dim]`.
    pub wk: Tensor<f32>,
    /// Value projection `[hidden, kv_dim]`.
    pub wv: Tensor<f32>,
    /// Output projection `[q_dim, hidden]`.
    pub wo: Tensor<f32>,
    /// FFN gate projection `[hidden, ffn]` (gated architectures only).
    pub w_gate: Option<Tensor<f32>>,
    /// FFN up projection `[hidden, ffn]`.
    pub w_up: Tensor<f32>,
    /// FFN down projection `[ffn, hidden]`.
    pub w_down: Tensor<f32>,
    /// Attention-block norm gain.
    pub attn_norm_gamma: Vec<f32>,
    /// Attention-block norm bias (LayerNorm only; zeros for RMSNorm).
    pub attn_norm_beta: Vec<f32>,
    /// FFN-block norm gain.
    pub ffn_norm_gamma: Vec<f32>,
    /// FFN-block norm bias.
    pub ffn_norm_beta: Vec<f32>,
}

/// A complete synthetic model.
#[derive(Debug, Clone)]
pub struct ModelWeights {
    /// The architecture these weights realize.
    pub config: ModelConfig,
    /// Per-layer weights.
    pub layers: Vec<LayerWeights>,
    /// Token embedding table `[vocab, hidden]`.
    pub embedding: Tensor<f32>,
    /// Final norm gain.
    pub final_norm_gamma: Vec<f32>,
    /// LM head `[hidden, vocab]`.
    pub head: Tensor<f32>,
    /// The hot outlier channels chosen at generation time (for test
    /// introspection; real systems discover these by profiling).
    pub hot_channels: Vec<usize>,
}

/// Controls for the synthetic outlier structure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutlierSpec {
    /// Fraction of hidden channels designated hot (Figure 11: <3%).
    pub hot_fraction: f64,
    /// Norm-gain multiplier applied to hot channels at the model's edge
    /// layers (first/last).
    pub hot_gain: f32,
    /// Ratio between edge-layer and middle-layer hot gain. Importance is
    /// U-shaped over depth (Figure 12 left): edge layers produce severe
    /// outliers, middle layers' outliers barely exceed the clipping range
    /// — which is exactly why pruning 85% of layers' outliers is nearly
    /// free (§3.3).
    pub edge_boost: f32,
}

impl Default for OutlierSpec {
    fn default() -> Self {
        OutlierSpec {
            hot_fraction: 0.025,
            hot_gain: 12.0,
            edge_boost: 6.0,
        }
    }
}

/// Generates a seeded synthetic model.
///
/// # Errors
///
/// Returns an error if the config is invalid.
pub fn synthesize(config: &ModelConfig, seed: u64, outliers: OutlierSpec) -> Result<ModelWeights> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(seed);
    let h = config.hidden;

    // Pick hot channels once for the whole model: outliers recur at the
    // same positions across layers (Figure 11's skew).
    let hot_count = ((h as f64 * outliers.hot_fraction).ceil() as usize).max(1);
    let mut hot_channels: Vec<usize> = Vec::with_capacity(hot_count);
    while hot_channels.len() < hot_count {
        let c = rng.gen_range(0..h);
        if !hot_channels.contains(&c) {
            hot_channels.push(c);
        }
    }
    hot_channels.sort_unstable();

    let mut layers = Vec::with_capacity(config.layers);
    for layer_idx in 0..config.layers {
        layers.push(synth_layer(
            config,
            &mut rng,
            &hot_channels,
            outliers,
            layer_idx,
        ));
    }

    let embedding = gaussian(&mut rng, config.vocab, h, 1.0);
    let head = gaussian(&mut rng, h, config.vocab, (1.0 / h as f32).sqrt());

    Ok(ModelWeights {
        config: config.clone(),
        layers,
        embedding,
        final_norm_gamma: vec![1.0; h],
        head,
        hot_channels,
    })
}

fn synth_layer(
    config: &ModelConfig,
    rng: &mut StdRng,
    hot: &[usize],
    outliers: OutlierSpec,
    layer_idx: usize,
) -> LayerWeights {
    let h = config.hidden;
    let scale_in = (1.0 / h as f32).sqrt();
    let scale_ffn = (1.0 / config.ffn_hidden as f32).sqrt();

    // U-shaped gain over depth: full strength at the first and last
    // layers, damped by `edge_boost` in the middle (mild middle-layer
    // outliers are what make importance pruning nearly free, §3.3).
    let depth = if config.layers <= 1 {
        0.0
    } else {
        layer_idx as f32 / (config.layers - 1) as f32
    };
    let u = (2.0 * depth - 1.0).powi(2); // 1 at edges, 0 in the middle
    let middle_floor = 1.0 / outliers.edge_boost.max(1.0);
    let gain = outliers.hot_gain * (middle_floor + (1.0 - middle_floor) * u);

    let mut attn_gamma = vec![1.0_f32; h];
    let mut ffn_gamma = vec![1.0_f32; h];
    for &c in hot {
        // Heavy-tailed per-channel gain: some hot channels are much hotter.
        let tail: f32 = rng.gen_range(0.4_f32..1.6).powi(3);
        attn_gamma[c] = gain * tail.max(0.2);
        ffn_gamma[c] = gain * tail.max(0.2) * rng.gen_range(0.6..1.4);
    }

    LayerWeights {
        wq: gaussian(rng, h, config.q_dim(), scale_in),
        wk: gaussian(rng, h, config.kv_dim(), scale_in),
        wv: gaussian(rng, h, config.kv_dim(), scale_in),
        wo: gaussian(rng, config.q_dim(), h, scale_in),
        w_gate: match config.act {
            ActKind::SiluGated | ActKind::GeluGated => {
                Some(gaussian(rng, h, config.ffn_hidden, scale_in))
            }
            ActKind::Gelu => None,
        },
        w_up: gaussian(rng, h, config.ffn_hidden, scale_in),
        w_down: gaussian(rng, config.ffn_hidden, h, scale_ffn),
        attn_norm_gamma: attn_gamma,
        attn_norm_beta: vec![0.0; h],
        ffn_norm_gamma: ffn_gamma,
        ffn_norm_beta: vec![0.0; h],
    }
}

fn gaussian(rng: &mut StdRng, rows: usize, cols: usize, std: f32) -> Tensor<f32> {
    // Box-Muller from uniform samples keeps us dependency-light and seeded.
    let mut data = Vec::with_capacity(rows * cols);
    while data.len() < rows * cols {
        let u1: f32 = rng.gen_range(1e-7_f32..1.0);
        let u2: f32 = rng.gen_range(0.0_f32..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        data.push(r * theta.cos() * std);
        if data.len() < rows * cols {
            data.push(r * theta.sin() * std);
        }
    }
    Tensor::from_vec(data, [rows, cols]).expect("sized by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;

    #[test]
    fn synthesis_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = synthesize(&cfg, 42, OutlierSpec::default()).unwrap();
        let b = synthesize(&cfg, 42, OutlierSpec::default()).unwrap();
        assert_eq!(a.layers[0].wq.as_slice(), b.layers[0].wq.as_slice());
        assert_eq!(a.hot_channels, b.hot_channels);
        let c = synthesize(&cfg, 43, OutlierSpec::default()).unwrap();
        assert_ne!(a.layers[0].wq.as_slice(), c.layers[0].wq.as_slice());
    }

    #[test]
    fn hot_channels_are_sparse_and_boosted() {
        let cfg = ModelConfig::tiny();
        let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
        assert!(!w.hot_channels.is_empty());
        assert!(w.hot_channels.len() <= cfg.hidden / 10);
        let layer = &w.layers[0];
        let hot = w.hot_channels[0];
        // Hot channel gain dominates the typical gain of 1.0.
        assert!(layer.attn_norm_gamma[hot] > 3.0);
        let cold_gamma: f32 = layer
            .attn_norm_gamma
            .iter()
            .enumerate()
            .filter(|(c, _)| !w.hot_channels.contains(c))
            .map(|(_, &g)| g)
            .sum::<f32>()
            / (cfg.hidden - w.hot_channels.len()) as f32;
        assert!((cold_gamma - 1.0).abs() < 1e-6);
    }

    #[test]
    fn edge_layers_have_stronger_outliers() {
        let mut cfg = ModelConfig::tiny();
        cfg.layers = 5;
        let w = synthesize(&cfg, 11, OutlierSpec::default()).unwrap();
        let hot = w.hot_channels[0];
        let first = w.layers[0].attn_norm_gamma[hot];
        let mid = w.layers[2].attn_norm_gamma[hot];
        let last = w.layers[4].attn_norm_gamma[hot];
        // The U-shape multiplier is deterministic per layer; the random
        // tail factor differs per layer, so compare against the mid layer
        // with slack.
        assert!(
            first + last > 1.5 * mid,
            "first {first} mid {mid} last {last}"
        );
    }

    #[test]
    fn gaussian_stats_are_sane() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = gaussian(&mut rng, 64, 64, 0.5);
        let mean: f32 = t.as_slice().iter().sum::<f32>() / t.len() as f32;
        let var: f32 = t
            .as_slice()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / t.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var.sqrt() - 0.5).abs() < 0.05, "std {}", var.sqrt());
    }

    #[test]
    fn ungated_models_have_no_gate() {
        let cfg = ModelConfig::phi2_27b().scaled_down(40, 2, 64).unwrap();
        let w = synthesize(&cfg, 3, OutlierSpec::default()).unwrap();
        assert!(w.layers[0].w_gate.is_none());
        let gated = synthesize(&ModelConfig::tiny(), 3, OutlierSpec::default()).unwrap();
        assert!(gated.layers[0].w_gate.is_some());
    }
}
