//! Figure 10: the average number and percentage of activation-outlier
//! channels per layer, measured over a synthetic corpus on the numeric
//! plane (the paper profiles Qwen1.5-1.8B on wikitext over 2048
//! inferences).
//!
//! Paper reference: 5–15 outlier channels per inference, i.e. less than
//! 0.3% of channels have outliers during one inference, with q/o/up/down
//! projection inputs all behaving similarly.

use llmnpu_model::backend::{model_sites, FloatBackend, LinearKind};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_quant::outlier::{calibrate_scale, OutlierProfiler};
use llmnpu_workloads::corpus::{CorpusSampler, CorpusSpec};

use crate::{header, Result};

const INFERENCES: usize = 48;

/// Prints Figure 10.
pub fn run(seed: u64) -> Result {
    // A wider small model so channel percentages are meaningful.
    let cfg = ModelConfig::qwen15_18b().scaled_down(128, 4, 128)?;
    let weights = synthesize(&cfg, seed, OutlierSpec::default())?;
    let float_be = FloatBackend::new(weights.clone());
    let model = Transformer::new(&weights, &float_be);

    // Calibration pass: collect per-site activations over the corpus.
    let mut sampler = CorpusSampler::new(
        CorpusSpec {
            vocab: cfg.vocab,
            ..CorpusSpec::default()
        },
        seed ^ 0x77,
    )?;
    let prompts = sampler.corpus(INFERENCES, (20, 28));
    let cal = model.calibrate(&prompts)?;

    header("Figure 10: outlier channels per layer (synthetic wikitext corpus)");
    println!(
        "{:<7} {:<10} {:>22} {:>18}",
        "layer", "site", "outliers/inference", "channel %"
    );
    let watched = [
        LinearKind::Q,
        LinearKind::O,
        LinearKind::Up,
        LinearKind::Down,
    ];
    let mut pcts = Vec::new();
    for (layer, kind) in model_sites(&weights) {
        if !watched.contains(&kind) {
            continue;
        }
        let acts = &cal[&(layer, kind)];
        // The clipping scale from offline profiling (§3.3): a quantile
        // that treats the extreme tail as outliers.
        let scale = calibrate_scale(acts, 0.997)?;
        let channels = acts[0].matrix_dims().1;
        let mut profiler = OutlierProfiler::new(channels, scale);
        for a in acts {
            profiler.record(a);
        }
        let profile = profiler.finish();
        let mean = profile.mean_outliers_per_batch();
        let pct = 100.0 * mean / channels as f64;
        println!(
            "{:<7} {:<10} {:>22.1} {:>17.2}%",
            layer,
            kind.label(),
            mean,
            pct
        );
        pcts.push(pct);
    }
    let overall: f64 = pcts.iter().sum::<f64>() / pcts.len() as f64;
    println!(
        "\nmean outlier-channel share: {overall:.2}% (paper: 0.1%-0.3% of\n\
         channels per inference; sparsity is what makes shadow execution cheap)"
    );
    Ok(())
}
