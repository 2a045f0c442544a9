//! Cross-crate numeric-plane integration tests: the real transformer,
//! calibration, and quantization backends working together.

use llmnpu::model::backend::{
    model_sites, FloatBackend, LinearBackend, LlmInt8Backend, PerGroupBackend, PerTensorBackend,
    ShadowBackend, SmoothQuantBackend,
};
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::kv::PagedKvCache;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::workloads::accuracy::{generate, BenchmarkSpec};
use llmnpu::workloads::random_prompt;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn mini_model() -> (llmnpu::model::weights::ModelWeights, FloatBackend) {
    let cfg = ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap();
    let w = synthesize(&cfg, 7, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    (w, be)
}

fn prompts(w: &llmnpu::model::weights::ModelWeights, n: usize, len: usize) -> Vec<Vec<u32>> {
    let mut rng = StdRng::seed_from_u64(99);
    (0..n)
        .map(|_| random_prompt(&mut rng, len, w.config.vocab))
        .collect()
}

#[test]
fn chunked_prefill_invariant_holds_for_every_architecture() {
    // The §3.2 correctness foundation, across RMSNorm/LayerNorm,
    // gated/ungated FFNs, MHA/GQA/MQA.
    for cfg in ModelConfig::all_evaluated() {
        let mini = cfg.scaled_down(32, 2, 64).unwrap();
        let w = synthesize(&mini, 3, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let toks: Vec<u32> = (0..12u32).map(|i| (i * 5 + 1) % 64).collect();

        let mut whole_cache = PagedKvCache::solo(&mini, toks.len()).unwrap();
        let whole = t.prefill_paged(&toks, 0, &mut whole_cache).unwrap();
        let mut chunk_cache = PagedKvCache::solo(&mini, toks.len()).unwrap();
        let chunked = t.prefill_chunked(&toks, 4, &mut chunk_cache).unwrap();
        let mse = whole.mse(&chunked).unwrap();
        assert!(
            mse < 1e-9,
            "{}: chunked prefill diverged (mse {mse})",
            cfg.name
        );
    }
}

#[test]
fn every_quantized_backend_runs_the_full_model() {
    let (w, float_be) = mini_model();
    let t = Transformer::new(&w, &float_be);
    let cal = t.calibrate(&prompts(&w, 4, 12)).unwrap();

    let backends: Vec<Box<dyn LinearBackend>> = vec![
        Box::new(PerTensorBackend::new(&w, &cal).unwrap()),
        Box::new(PerGroupBackend::new(&w, 16).unwrap()),
        Box::new(SmoothQuantBackend::new(&w, &cal, 0.5).unwrap()),
        Box::new(LlmInt8Backend::new(&w, 6.0).unwrap()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
    ];
    let toks = prompts(&w, 1, 10).pop().unwrap();
    let reference = Transformer::new(&w, &float_be)
        .last_hidden(&toks, None)
        .unwrap();
    for be in &backends {
        let t = Transformer::new(&w, be.as_ref());
        let h = t.last_hidden(&toks, None).unwrap();
        assert_eq!(h.len(), reference.len());
        assert!(
            h.iter().all(|v| v.is_finite()),
            "{} produced non-finite hidden state",
            be.name()
        );
    }
}

#[test]
fn calibration_covers_every_linear_site() {
    let (w, float_be) = mini_model();
    let t = Transformer::new(&w, &float_be);
    let cal = t.calibrate(&prompts(&w, 3, 8)).unwrap();
    for site in model_sites(&w) {
        let acts = cal.get(&site).expect("site recorded");
        assert_eq!(acts.len(), 3, "one recording per prompt at {site:?}");
        // Activation width matches the weight's input dim.
        let (_, width) = acts[0].matrix_dims();
        assert!(width > 0);
    }
}

#[test]
fn accuracy_ordering_matches_table6_direction() {
    // The Table 6 story on one proxy benchmark. Noisy labels make raw
    // accuracy a high-variance metric (a badly perturbed model can agree
    // with the noise by luck), so the fidelity ordering is checked on
    // *agreement with the float model's predictions*, which is monotone
    // in quantization error; the noisy-label accuracy only gets a
    // proximity check.
    let (w, float_be) = mini_model();
    let t = Transformer::new(&w, &float_be);
    let cal = t.calibrate(&prompts(&w, 5, 14)).unwrap();
    let bench = generate(
        &w,
        &float_be,
        BenchmarkSpec {
            name: "proxy",
            choices: 4,
            prompt_len: 14,
        },
        120,
        0.66,
        41,
    )
    .unwrap();

    // Predictions of a backend on every task.
    let predict = |be: &dyn LinearBackend| -> Vec<usize> {
        let tq = Transformer::new(&w, be);
        bench
            .tasks
            .iter()
            .map(|task| {
                let h = tq.last_hidden(&task.tokens, None).unwrap();
                task.candidates
                    .iter()
                    .map(|u| u.iter().zip(&h).map(|(a, b)| a * b).sum::<f32>())
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .map(|(i, _)| i)
                    .unwrap()
            })
            .collect()
    };
    let agreement = |a: &[usize], b: &[usize]| -> f64 {
        a.iter().zip(b).filter(|(x, y)| x == y).count() as f64 / a.len() as f64
    };

    let float_pred = predict(&float_be);
    let int8 = LlmInt8Backend::new(&w, 6.0).unwrap();
    let shadow = ShadowBackend::new(&w, &cal, 0.9995, 0.0).unwrap();
    let naive = PerTensorBackend::new(&w, &cal).unwrap();

    let int8_agree = agreement(&predict(&int8), &float_pred);
    let shadow_agree = agreement(&predict(&shadow), &float_pred);
    let naive_agree = agreement(&predict(&naive), &float_pred);

    assert!(int8_agree > 0.85, "int8 agreement {int8_agree}");
    assert!(shadow_agree > 0.80, "shadow agreement {shadow_agree}");
    // In-distribution prompts keep the margin small (the calibration
    // corpus covers them); tolerate two tasks of noise in the ordering.
    let slack = 2.0 / bench.tasks.len() as f64;
    assert!(
        shadow_agree + slack >= naive_agree,
        "shadow {shadow_agree} should agree with float at least as much as naive {naive_agree}"
    );
    assert!(int8_agree + slack >= naive_agree);

    // Noisy-label accuracies stay in a sane band around the reference.
    let acc_shadow = bench.evaluate(&w, &shadow).unwrap();
    assert!((acc_shadow - bench.reference_accuracy).abs() < 0.10);
}

#[test]
fn outlier_structure_survives_the_full_pipeline() {
    // Hot channels planted by synthesis must be discoverable from real
    // forward-pass activations (the premise of Figures 10–11).
    let cfg = ModelConfig::qwen15_18b().scaled_down(128, 4, 128).unwrap();
    let w = synthesize(&cfg, 11, OutlierSpec::default()).unwrap();
    let be = FloatBackend::new(w.clone());
    let t = Transformer::new(&w, &be);
    let cal = t.calibrate(&prompts(&w, 6, 16)).unwrap();

    // Profile the first layer's Q input.
    let acts = &cal[&(0, llmnpu::model::backend::LinearKind::Q)];
    let scale = llmnpu::quant::outlier::calibrate_scale(acts, 0.997).unwrap();
    let mut profiler = llmnpu::quant::outlier::OutlierProfiler::new(128, scale);
    for a in acts {
        profiler.record(a);
    }
    let profile = profiler.finish();
    assert!(profile.total_outliers > 0, "no outliers detected at all");
    // The heaviest-firing channels should come from the planted hot set.
    // (The calibrated quantile adapts per site, so only the most extreme
    // hot channels clear it — recall is partial, but *precision* of the
    // top channels should be high.)
    let mut top: Vec<usize> = (0..128).collect();
    top.sort_by_key(|&c| std::cmp::Reverse(profile.channel_counts[c]));
    let firing = profile.channel_counts.iter().filter(|&&c| c > 0).count();
    let checked = firing.clamp(1, 2);
    for &c in top.iter().take(checked) {
        assert!(
            w.hot_channels.contains(&c),
            "top firing channel {c} is not a planted hot channel {:?}",
            w.hot_channels
        );
    }
}

#[test]
fn decode_after_chunked_prefill_matches_whole_prefill() {
    let (w, float_be) = mini_model();
    let t = Transformer::new(&w, &float_be);
    let toks = prompts(&w, 1, 9).pop().unwrap();

    let decode_step = |cache: &mut PagedKvCache| {
        let hidden = t.prefill_paged(&[5], toks.len(), cache).unwrap();
        t.logits(&hidden).unwrap()
    };
    let mut cache_a = PagedKvCache::solo(&w.config, toks.len() + 1).unwrap();
    t.prefill_paged(&toks, 0, &mut cache_a).unwrap();
    let logits_a = decode_step(&mut cache_a);

    let mut cache_b = PagedKvCache::solo(&w.config, toks.len() + 1).unwrap();
    t.prefill_chunked(&toks, 3, &mut cache_b).unwrap();
    let logits_b = decode_step(&mut cache_b);

    let mse = logits_a.mse(&logits_b).unwrap();
    assert!(mse < 1e-9, "decode diverged after chunked prefill: {mse}");
}

/// Paging is bit-transparent for **every** backend and worker count: a
/// prefill over 3-token pages produces exactly the floats of the
/// one-page (contiguous) store, hidden states and cached K and V rows —
/// the invariant the paged serving layer stands on. Chunk boundaries
/// are held fixed, so even batch-dynamic quantizers must agree to the
/// bit.
#[test]
fn paged_prefill_bit_identical_for_every_backend_and_worker_count() {
    use llmnpu::kv::{BlockPool, PoolConfig};
    use llmnpu::sched::WorkerPool;
    use std::sync::Arc;

    let (w, float) = mini_model();
    let t_float = Transformer::new(&w, &float);
    let cal = t_float.calibrate(&prompts(&w, 2, 8)).unwrap();
    let backends: Vec<Box<dyn LinearBackend>> = vec![
        Box::new(float.clone()),
        Box::new(PerTensorBackend::new(&w, &cal).unwrap()),
        Box::new(PerGroupBackend::new(&w, 16).unwrap()),
        Box::new(SmoothQuantBackend::new(&w, &cal, 0.5).unwrap()),
        Box::new(LlmInt8Backend::new(&w, 6.0).unwrap()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
    ];
    let toks: Vec<u32> = (0..10u32).map(|i| (i * 5 + 1) % 96).collect();
    let chunk = 4usize;

    for be in &backends {
        let t = Transformer::new(&w, be.as_ref());
        for workers in [1usize, 4] {
            let pool_threads = Arc::new(WorkerPool::new(workers));
            let (contig_hidden, paged_hidden, identical_kv) = pool_threads.install_scope(|| {
                let mut contig = PagedKvCache::solo(t.config(), toks.len()).unwrap();
                let contig_hidden = t.prefill_chunked(&toks, chunk, &mut contig).unwrap();

                let pool = Arc::new(
                    BlockPool::new(PoolConfig {
                        layers: t.config().layers,
                        kv_dim: t.config().kv_dim(),
                        block_tokens: 3,
                        blocks: 8,
                    })
                    .unwrap(),
                );
                let mut paged = PagedKvCache::reserve(&pool, toks.len()).unwrap();
                let mut paged_hidden = Vec::new();
                let mut pos = 0;
                for c in toks.chunks(chunk) {
                    let h = t.prefill_paged(c, pos, &mut paged).unwrap();
                    paged_hidden.extend_from_slice(h.as_slice());
                    pos += c.len();
                }
                let identical_kv = (0..t.config().layers).all(|layer| {
                    paged.rows(layer, toks.len()).unwrap()
                        == contig.rows(layer, toks.len()).unwrap()
                });
                paged.release().unwrap();
                assert_eq!(pool.used_blocks(), 0);
                (contig_hidden, paged_hidden, identical_kv)
            });
            assert_eq!(
                contig_hidden.as_slice(),
                paged_hidden.as_slice(),
                "{} at {workers} workers: paged hidden states diverged",
                be.name()
            );
            assert!(
                identical_kv,
                "{} at {workers} workers: paged K / V rows diverged",
                be.name()
            );
        }
    }
}

/// Solo `generate` (a private one-page store) emits exactly the stream
/// the same prompt, sampler and decode loop emit through 1-, 3- and
/// 16-token pages of a caller-supplied pool — float, shadow-int8 and
/// int4-LUT weights. Page size is not an input of any token.
#[test]
fn generate_stream_is_invariant_to_page_size() {
    use llmnpu::kv::{BlockPool, PoolConfig};
    use llmnpu::model::backend::LutBackend;
    use llmnpu::model::sample::{Sampler, SamplerConfig};
    use std::sync::Arc;

    let (w, float) = mini_model();
    let cal = Transformer::new(&w, &float)
        .calibrate(&prompts(&w, 2, 8))
        .unwrap();
    let backends: Vec<Box<dyn LinearBackend>> = vec![
        Box::new(float.clone()),
        Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
        Box::new(LutBackend::int4(&w, 16).unwrap()),
    ];
    let prompt = prompts(&w, 1, 7).pop().unwrap();
    let max_new = 6usize;
    let sampler_cfg = SamplerConfig::top_k(8, 0.9, 1234);

    for be in &backends {
        let t = Transformer::new(&w, be.as_ref());
        let solo = t.generate(&prompt, None, max_new, &sampler_cfg).unwrap();
        assert_eq!(solo.len(), max_new);

        for block_tokens in [1usize, 3, 16] {
            let capacity = prompt.len() + max_new - 1;
            let pool = Arc::new(
                BlockPool::new(PoolConfig {
                    layers: t.config().layers,
                    kv_dim: t.config().kv_dim(),
                    block_tokens,
                    blocks: capacity.div_ceil(block_tokens),
                })
                .unwrap(),
            );
            let mut kv = PagedKvCache::reserve(&pool, capacity).unwrap();
            let mut sampler = Sampler::new(&sampler_cfg).unwrap();
            let mut hidden = t.prefill_paged(&prompt, 0, &mut kv).unwrap();
            let mut stream = Vec::new();
            for step in 0..max_new {
                let (rows, _) = hidden.matrix_dims();
                let last = hidden.row(rows - 1).to_vec();
                let width = last.len();
                let last = llmnpu::tensor::Tensor::from_vec(last, [1, width]).unwrap();
                let logits = t.logits(&last).unwrap();
                let token = sampler.sample(logits.row(0)).unwrap();
                stream.push(token);
                if step + 1 < max_new {
                    hidden = t
                        .prefill_paged(&[token], prompt.len() + step, &mut kv)
                        .unwrap();
                }
            }
            assert_eq!(
                stream,
                solo,
                "{}: {block_tokens}-token pages diverged from solo generate",
                be.name()
            );
            assert_eq!(kv.release().unwrap(), capacity.div_ceil(block_tokens));
            assert_eq!(pool.used_blocks(), 0);
        }
    }
}
