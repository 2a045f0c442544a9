//! Fused ≡ per-site: the backends that concatenate sibling weights
//! (Q | K | V, Gate | Up) run one GEMM per activation, and every column
//! block of that output must be bit-identical to a layer built from the
//! block's own site weight alone — at every row count the kernels switch
//! shape on, on inputs carrying outliers, NaN, ±∞ and −0, and (for the
//! shadow backend) at every pruning rate, including the tie that keeps
//! Q and prunes K and V. Also pinned: `linear ≡ linear_main ⊕
//! linear_shadow` per input, and that a calibration set giving siblings
//! different corpora is refused.

use std::collections::HashMap;
use std::ops::Range;

use llmnpu::model::backend::{
    merge_linear, model_sites, CalibrationSet, FloatBackend, LinearBackend, LinearInput,
    LinearKind, LinearSite, LutBackend, ShadowBackend,
};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::weights::{synthesize, ModelWeights, OutlierSpec};
use llmnpu::model::Error;
use llmnpu::quant::lut::LutLinear;
use llmnpu::quant::outlier::{calibrate_scale, ShadowLinear};
use llmnpu::tensor::kernel::parallel::default_threads;
use llmnpu::tensor::{gemm, Tensor};

/// Row counts on both sides of every shape switch: the `m ≤ 2` GEMVs,
/// ragged tiles, one full tile, and one past it.
const ROWS: [usize; 6] = [1, 2, 3, 8, 32, 33];
const QUANTILE: f64 = 0.9;
const GROUP: usize = 8;

/// Gated MHA (site widths not a multiple of the 16-column panel), gated
/// GQA (narrower K / V), and an ungated FFN (Up alone).
fn models() -> Vec<ModelWeights> {
    [
        ModelConfig::qwen15_18b().scaled_down(48, 2, 64),
        ModelConfig::mistral_7b().scaled_down(40, 2, 64),
        ModelConfig::phi2_27b().scaled_down(40, 2, 64),
    ]
    .into_iter()
    .map(|cfg| synthesize(&cfg.unwrap(), 5, OutlierSpec::default()).unwrap())
    .collect()
}

/// Deterministic pseudo-random floats in `(-amp, amp)`.
fn noise(seed: u64, len: usize, amp: f32) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            amp * ((state >> 40) as f32 / (1u64 << 23) as f32 - 1.0)
        })
        .collect()
}

/// Calibration every sibling shares (as `Transformer::calibrate`
/// records), with one spike per input setting its importance. Layer 1's
/// Q | K | V rank just below six other sites, so a 0.5 pruning rate cuts
/// through them and keeps Q alone.
fn calibration(w: &ModelWeights) -> CalibrationSet {
    let spike = |layer: usize, input: LinearInput| match (layer, input) {
        (0, LinearInput::Attn) => 50.0,
        (0, LinearInput::Ffn) => 40.0,
        (1, LinearInput::AttnOut) => 30.0,
        (1, LinearInput::Attn) => 20.0,
        (_, LinearInput::AttnOut) => 5.0,
        (_, LinearInput::FfnOut) => 4.0 - layer as f32,
        _ => 3.0,
    };
    let mut cal = CalibrationSet::new();
    for (layer, kind) in model_sites(w) {
        let input = kind.input();
        let k = input_width(w, input);
        let mut acts = noise(layer as u64 * 10 + input as u64, 4 * k, 1.0);
        acts[k + 1] = spike(layer, input);
        cal.insert((layer, kind), vec![Tensor::from_vec(acts, [4, k]).unwrap()]);
    }
    cal
}

fn input_width(w: &ModelWeights, input: LinearInput) -> usize {
    match input {
        LinearInput::AttnOut => w.config.q_dim(),
        LinearInput::FfnOut => w.config.ffn_hidden,
        LinearInput::Attn | LinearInput::Ffn => w.config.hidden,
    }
}

/// The sites reading `input` in `layer`, each with its weight and the
/// output columns it owns in the fused result.
fn sites(
    w: &ModelWeights,
    layer: usize,
    input: LinearInput,
) -> Vec<(LinearKind, &Tensor<f32>, Range<usize>)> {
    let l = &w.layers[layer];
    let mut col = 0;
    let mut out = Vec::new();
    for &kind in input.kinds() {
        let weight = match kind {
            LinearKind::Q => &l.wq,
            LinearKind::K => &l.wk,
            LinearKind::V => &l.wv,
            LinearKind::O => &l.wo,
            LinearKind::Gate => match &l.w_gate {
                Some(g) => g,
                None => continue,
            },
            LinearKind::Up => &l.w_up,
            LinearKind::Down => &l.w_down,
        };
        let n = weight.matrix_dims().1;
        out.push((kind, weight, col..col + n));
        col += n;
    }
    out
}

/// `m` rows of activation for `input`: noise with outlier channels, and
/// NaN, ±∞ and −0 planted in rows that exist.
fn activation(w: &ModelWeights, input: LinearInput, m: usize, seed: u64) -> Tensor<f32> {
    let k = input_width(w, input);
    let mut x = noise(seed, m * k, 1.0);
    for r in 0..m {
        x[r * k + 3] *= 40.0;
        x[r * k + k / 2] *= -25.0;
    }
    let mut plant = |row: usize, col: usize, v: f32| {
        if row < m {
            x[row * k + col] = v;
        }
    };
    plant(0, 1, -0.0);
    plant(1, 3, f32::NAN);
    plant(1, k - 1, -0.0);
    plant(2, 0, f32::INFINITY);
    plant(2, 5, f32::NEG_INFINITY);
    plant(m - 1, k / 2, f32::NAN);
    Tensor::from_vec(x, [m, k]).unwrap()
}

fn bits(values: impl IntoIterator<Item = f32>) -> Vec<u32> {
    values.into_iter().map(f32::to_bits).collect()
}

/// Columns `cols` of `t`, as bit patterns.
fn column_bits(t: &Tensor<f32>, cols: Range<usize>) -> Vec<u32> {
    let (rows, _) = t.matrix_dims();
    bits((0..rows).flat_map(|r| t.row(r)[cols.clone()].to_vec()))
}

/// Every column block of `backend`'s fused output equals `site_layer`
/// run on that block's own weight; and splitting main from shadow and
/// merging changes no bit.
fn assert_fused_matches_sites(
    w: &ModelWeights,
    backend: &dyn LinearBackend,
    what: &str,
    site_layer: impl Fn(LinearSite, &Tensor<f32>, &Tensor<f32>) -> Tensor<f32>,
) {
    for layer in 0..w.config.layers {
        for input in LinearInput::ALL {
            for m in ROWS {
                let x = activation(w, input, m, (layer * 100 + m) as u64);
                let fused = backend.linear(layer, input, &x).unwrap();
                let blocks = sites(w, layer, input);
                let width = blocks.last().map_or(0, |b| b.2.end);
                assert_eq!(fused.matrix_dims(), (m, width), "{what} {input:?}");
                for (kind, weight, cols) in blocks {
                    let alone = site_layer((layer, kind), weight, &x);
                    assert_eq!(
                        column_bits(&fused, cols),
                        bits(alone.as_slice().iter().copied()),
                        "{what}: layer {layer} {kind:?} at m = {m}"
                    );
                }

                let mut merged = backend.linear_main(layer, input, &x).unwrap();
                if let Some(shadow) = backend.linear_shadow(layer, input, &x).unwrap() {
                    assert!(backend.has_shadow(layer, input), "{what} {input:?}");
                    merge_linear(&mut merged, &shadow).unwrap();
                }
                assert_eq!(
                    bits(merged.as_slice().iter().copied()),
                    bits(fused.as_slice().iter().copied()),
                    "{what}: split ≠ fused, layer {layer} {input:?} at m = {m}"
                );
            }
        }
    }
}

#[test]
fn float_columns_equal_each_sites_own_product() {
    for w in models() {
        let be = FloatBackend::new(w.clone());
        assert_fused_matches_sites(&w, &be, w.config.name, |_, weight, x| {
            gemm::matmul_f32(x, weight).unwrap()
        });
    }
}

#[test]
fn lut_columns_equal_each_sites_own_layer() {
    for w in models() {
        let int4 = LutBackend::int4(&w, GROUP).unwrap();
        assert_fused_matches_sites(&w, &int4, "int4", |_, weight, x| {
            let lin = LutLinear::int4(&[weight], GROUP).unwrap();
            lin.forward(x, default_threads()).unwrap()
        });
        let int2 = LutBackend::int2(&w, GROUP).unwrap();
        assert_fused_matches_sites(&w, &int2, "int2", |_, weight, x| {
            let lin = LutLinear::int2(&[weight], GROUP).unwrap();
            lin.forward(x, default_threads()).unwrap()
        });
    }
}

#[test]
fn shadow_columns_equal_each_sites_own_layer_at_every_pruning_rate() {
    for w in models() {
        let cal = calibration(&w);
        let scales: HashMap<LinearSite, f32> = model_sites(&w)
            .into_iter()
            .map(|site| (site, calibrate_scale(&cal[&site], QUANTILE).unwrap()))
            .collect();
        for rate in [0.0, 0.5, 0.85, 1.0] {
            let be = ShadowBackend::new(&w, &cal, QUANTILE, rate).unwrap();
            let kept = be.kept_sites().to_vec();
            if rate == 0.5 {
                // The importance tie inside layer 1's Q | K | V is cut by
                // site order: Q keeps its shadow path, K and V do not.
                assert!(kept.contains(&(1, LinearKind::Q)), "{kept:?}");
                assert!(!kept.contains(&(1, LinearKind::K)), "{kept:?}");
                assert!(!kept.contains(&(1, LinearKind::V)), "{kept:?}");
            }
            let what = format!("{} shadow at {rate}", w.config.name);
            assert_fused_matches_sites(&w, &be, &what, |site, weight, x| {
                let lin = ShadowLinear::new(weight, scales[&site]);
                let lin = if kept.contains(&site) {
                    lin
                } else {
                    lin.with_shadow_disabled()
                };
                lin.forward(x).unwrap().output
            });
        }
    }
}

#[test]
fn siblings_calibrated_on_different_activations_are_refused() {
    let w = &models()[0];
    let mut cal = calibration(w);
    let k = cal.get_mut(&(1, LinearKind::K)).unwrap();
    k[0].as_mut_slice()[0] += 1.0;
    assert!(matches!(
        ShadowBackend::new(w, &cal, QUANTILE, 0.0),
        Err(Error::InvalidConfig { what }) if what.contains("K")
    ));
    let mut cal = calibration(w);
    cal.get_mut(&(0, LinearKind::Up))
        .unwrap()
        .push(Tensor::zeros([1, w.config.hidden]));
    assert!(matches!(
        ShadowBackend::new(w, &cal, QUANTILE, 0.0),
        Err(Error::InvalidConfig { .. })
    ));
}
