//! Figure 11: per-channel outlier frequency over the corpus — the skew
//! that justifies the hot-channel memory policy.
//!
//! Paper reference: outliers appear in a wide range of channel positions
//! over a long corpus (~78% of channels are hit at least once), but fewer
//! than 3% of channels produce more than 80% of all outlier events.

use llmnpu_model::backend::{model_sites, FloatBackend, LinearKind};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_quant::outlier::{calibrate_scale, HotChannelPolicy, OutlierProfile, OutlierProfiler};
use llmnpu_workloads::corpus::{CorpusSampler, CorpusSpec};

use crate::{header, Result};

const INFERENCES: usize = 64;

/// Prints Figure 11.
pub fn run(seed: u64) -> Result {
    let cfg = ModelConfig::qwen15_18b().scaled_down(128, 4, 128)?;
    let weights = synthesize(&cfg, seed, OutlierSpec::default())?;
    let float_be = FloatBackend::new(weights.clone());
    let model = Transformer::new(&weights, &float_be);

    let mut sampler = CorpusSampler::new(
        CorpusSpec {
            vocab: cfg.vocab,
            ..CorpusSpec::default()
        },
        seed ^ 0x1234,
    )?;
    let prompts = sampler.corpus(INFERENCES, (20, 28));
    let cal = model.calibrate(&prompts)?;

    header("Figure 11: per-channel outlier skew");
    println!(
        "{:<10} {:>16} {:>20} {:>20}",
        "site", "active channels", "channels for 80%", "hot-memory share"
    );
    let watched = [
        LinearKind::Q,
        LinearKind::O,
        LinearKind::Up,
        LinearKind::Down,
    ];
    // Aggregate each site kind across layers (Figure 11 plots per kind).
    for kind in watched {
        let mut site = OutlierProfile {
            channel_counts: Vec::new(),
            batches: 0,
            total_outliers: 0,
            max_ratio: 0.0,
        };
        for (layer, k) in model_sites(&weights) {
            if k != kind {
                continue;
            }
            let acts = &cal[&(layer, kind)];
            let scale = calibrate_scale(acts, 0.997)?;
            let channels = acts[0].matrix_dims().1;
            if site.channel_counts.is_empty() {
                site.channel_counts = vec![0; channels];
            }
            let mut profiler = OutlierProfiler::new(channels, scale);
            for a in acts {
                profiler.record(a);
            }
            let p = profiler.finish();
            for (acc, c) in site.channel_counts.iter_mut().zip(&p.channel_counts) {
                *acc += c;
            }
            site.batches += p.batches;
            site.total_outliers += p.total_outliers;
            site.max_ratio = site.max_ratio.max(p.max_ratio);
        }
        let policy = HotChannelPolicy::from_counts(&site.channel_counts, 0.8)?;
        println!(
            "{:<10} {:>15.1}% {:>19.1}% {:>19.1}%",
            kind.label(),
            site.active_channel_fraction() * 100.0,
            site.channel_fraction_for_coverage(0.8) * 100.0,
            policy.memory_fraction() * 100.0
        );
    }
    println!(
        "\nPaper: <3% of channels contribute >80% of outliers, so keeping only\n\
         hot-channel float weights in memory cuts shadow memory by 34.3%."
    );
    Ok(())
}
