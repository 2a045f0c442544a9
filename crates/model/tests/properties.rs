//! Property-based tests for the model crate: the chunk-equivalence
//! invariant and architectural consistency across random configurations.

use proptest::prelude::*;

use llmnpu_model::backend::FloatBackend;
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::Transformer;
use llmnpu_model::kv::PagedKvCache;
use llmnpu_model::weights::{synthesize, OutlierSpec};

fn arbitrary_mini() -> impl Strategy<Value = (ModelConfig, u64)> {
    (0usize..5, 1usize..3, any::<u64>()).prop_map(|(which, layers, seed)| {
        let base = match which {
            0 => ModelConfig::qwen15_18b(),
            1 => ModelConfig::gemma_2b(),
            2 => ModelConfig::phi2_27b(),
            3 => ModelConfig::llama2_7b(),
            _ => ModelConfig::mistral_7b(),
        };
        let cfg = base.scaled_down(32, layers, 64).unwrap();
        (cfg, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Chunked prefill is numerically identical to whole-prompt prefill
    /// for every architecture, chunk size, and seed — the §3.2 invariant
    /// as a universal property.
    #[test]
    fn chunk_equivalence_universal(
        (cfg, seed) in arbitrary_mini(),
        chunk_len in 1usize..8,
        prompt_len in 2usize..14,
    ) {
        let w = synthesize(&cfg, seed, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let toks: Vec<u32> = (0..prompt_len as u32).map(|i| (i * 7 + seed as u32) % 64).collect();

        let mut c1 = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        let whole = t.prefill_paged(&toks, 0, &mut c1).unwrap();
        let mut c2 = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        let chunked = t.prefill_chunked(&toks, chunk_len, &mut c2).unwrap();
        prop_assert!(whole.mse(&chunked).unwrap() < 1e-8);
        // Both passes cached every position, and the same rows.
        for layer in 0..cfg.layers {
            let (k1, v1) = c1.rows(layer, toks.len()).unwrap();
            let (k2, v2) = c2.rows(layer, toks.len()).unwrap();
            for (a, b) in k1.iter().chain(&v1).zip(k2.iter().chain(&v2)) {
                prop_assert!((a - b).abs() < 1e-3, "layer {} row {} vs {}", layer, a, b);
            }
        }
    }

    /// Hidden states stay finite for any seed (no NaN blowups from the
    /// synthetic outlier structure).
    #[test]
    fn forward_is_finite((cfg, seed) in arbitrary_mini()) {
        let w = synthesize(&cfg, seed, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let toks: Vec<u32> = (0..8u32).map(|i| (i * 11 + 3) % 64).collect();
        let h = t.last_hidden(&toks, None).unwrap();
        prop_assert!(h.iter().all(|v| v.is_finite()));
        let logits = {
            let mut cache = PagedKvCache::solo(&cfg, toks.len() + 1).unwrap();
            t.prefill_paged(&toks, 0, &mut cache).unwrap();
            let hidden = t.prefill_paged(&[1], toks.len(), &mut cache).unwrap();
            t.logits(&hidden).unwrap()
        };
        prop_assert!(logits.as_slice().iter().all(|v| v.is_finite()));
    }

    /// Scaled-down configs always validate and preserve the GQA ratio.
    #[test]
    fn scaled_down_always_valid(
        which in 0usize..5,
        hidden_mult in 1usize..5,
        layers in 1usize..6,
    ) {
        let base = match which {
            0 => ModelConfig::qwen15_18b(),
            1 => ModelConfig::gemma_2b(),
            2 => ModelConfig::phi2_27b(),
            3 => ModelConfig::llama2_7b(),
            _ => ModelConfig::mistral_7b(),
        };
        let hidden = 32 * hidden_mult;
        let cfg = base.scaled_down(hidden, layers, 64).unwrap();
        cfg.validate().unwrap();
        prop_assert_eq!(cfg.hidden, hidden);
        prop_assert_eq!(cfg.layers, layers);
        prop_assert_eq!(
            cfg.heads / cfg.kv_heads,
            (base.heads / base.kv_heads).max(1)
        );
        // FFN width divisible by 16 (for per-group quantization).
        prop_assert_eq!(cfg.ffn_hidden % 16, 0);
    }

    /// Parameter counts are consistent: per-token linear FLOPs equal
    /// twice the decoder linear parameters.
    #[test]
    fn flops_match_params(which in 0usize..5) {
        let cfg = match which {
            0 => ModelConfig::qwen15_18b(),
            1 => ModelConfig::gemma_2b(),
            2 => ModelConfig::phi2_27b(),
            3 => ModelConfig::llama2_7b(),
            _ => ModelConfig::mistral_7b(),
        };
        let linear_params: u64 = cfg
            .layer_linear_shapes()
            .iter()
            .map(|&(k, n)| (k * n) as u64)
            .sum::<u64>()
            * cfg.layers as u64;
        prop_assert_eq!(cfg.linear_flops_per_token(), 2 * linear_params);
        // Embeddings + per-layer norms make total params exceed linears.
        prop_assert!(cfg.param_count() > linear_params);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any page size is bit-identical to the one-page (contiguous) store
    /// — hidden states and cached K and V rows — for every architecture,
    /// prompt, and seed: the invariant the paged KV pool's gather-free
    /// read path stands on, as a universal property.
    #[test]
    fn paged_prefill_equals_contiguous_universal(
        (cfg, seed) in arbitrary_mini(),
        block_tokens in 1usize..9,
        prompt_len in 2usize..14,
    ) {
        use llmnpu_kv::{BlockPool, PoolConfig};
        use std::sync::Arc;

        let w = synthesize(&cfg, seed, OutlierSpec::default()).unwrap();
        let be = FloatBackend::new(w.clone());
        let t = Transformer::new(&w, &be);
        let toks: Vec<u32> = (0..prompt_len as u32).map(|i| (i * 11 + seed as u32) % 64).collect();

        let mut contiguous = PagedKvCache::solo(&cfg, toks.len()).unwrap();
        let reference = t.prefill_paged(&toks, 0, &mut contiguous).unwrap();

        let pool = Arc::new(BlockPool::new(PoolConfig {
            layers: cfg.layers,
            kv_dim: cfg.kv_dim(),
            block_tokens,
            blocks: prompt_len.div_ceil(block_tokens) + 1,
        }).unwrap());
        let mut paged = PagedKvCache::reserve(&pool, toks.len()).unwrap();
        let h = t.prefill_paged(&toks, 0, &mut paged).unwrap();

        prop_assert_eq!(h.as_slice(), reference.as_slice());
        for layer in 0..cfg.layers {
            prop_assert_eq!(
                paged.rows(layer, toks.len()).unwrap(),
                contiguous.rows(layer, toks.len()).unwrap()
            );
        }
        paged.release().unwrap();
        prop_assert_eq!(pool.used_blocks(), 0);
    }
}
