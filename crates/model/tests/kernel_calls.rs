//! Structural guard on the per-layer kernel count: with the kernel probe
//! installed, one forward makes exactly four projection GEMMs per layer
//! — one per activation, Q | K | V and Gate | Up each fused into one —
//! plus one attention call per layer and cached segment, on every served
//! backend. Splitting a fused site back into its projections fails here.
//!
//! The probe is process-wide, so this file holds one test.

use std::sync::{Arc, Mutex};

use llmnpu_model::backend::{FloatBackend, LinearBackend, LutBackend, ShadowBackend};
use llmnpu_model::config::ModelConfig;
use llmnpu_model::forward::{PagedDecodeEntry, Transformer};
use llmnpu_model::kv::PagedKvCache;
use llmnpu_model::weights::{synthesize, OutlierSpec};
use llmnpu_tensor::kernel::probe::{self, KernelProbe};

/// Counts calls per site; keeps no clock.
#[derive(Default)]
struct Counter {
    sites: Mutex<Vec<String>>,
}

impl KernelProbe for Counter {
    fn begin(&self) -> u64 {
        0
    }

    fn end(&self, _token: u64, site: &str, _m: usize, _n: usize, _k: usize) {
        self.sites
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(site.to_owned());
    }
}

impl Counter {
    /// Drains the calls recorded so far as `(attention, projections)`,
    /// checking every projection ran on `gemm_site`.
    fn take(&self, gemm_site: &str) -> (usize, usize) {
        let sites = std::mem::take(&mut *self.sites.lock().unwrap());
        let attention = sites.iter().filter(|s| *s == "attention").count();
        let other: Vec<&String> = sites.iter().filter(|s| *s != "attention").collect();
        assert!(
            other.iter().all(|s| *s == gemm_site),
            "projections on {other:?}, expected {gemm_site}"
        );
        (attention, other.len())
    }
}

#[test]
fn every_layer_makes_four_projection_gemms_per_forward() {
    let counter = Arc::new(Counter::default());
    for cfg in [
        ModelConfig::qwen15_18b().scaled_down(48, 3, 96).unwrap(),
        ModelConfig::phi2_27b().scaled_down(40, 2, 64).unwrap(),
    ] {
        let w = synthesize(&cfg, 3, OutlierSpec::default()).unwrap();
        let float = FloatBackend::new(w.clone());
        let prompts: Vec<Vec<u32>> = (0..2u32)
            .map(|p| (0..9u32).map(|i| (i * 7 + p) % 64).collect())
            .collect();
        let cal = Transformer::new(&w, &float).calibrate(&prompts).unwrap();
        let backends: Vec<(Box<dyn LinearBackend>, &str)> = vec![
            (Box::new(float), "gemm.f32.prepacked"),
            (
                Box::new(LutBackend::int4(&w, 8).unwrap()),
                "lut.i4.prepacked",
            ),
            (
                Box::new(ShadowBackend::new(&w, &cal, 0.9, 0.0).unwrap()),
                "gemm.i8.fused.prepacked",
            ),
            (
                Box::new(ShadowBackend::new(&w, &cal, 0.997, 0.85).unwrap()),
                "gemm.i8.fused.prepacked",
            ),
        ];
        let layers = cfg.layers;
        for (be, gemm_site) in &backends {
            let t = Transformer::new(&w, be.as_ref());
            let mut kv = [
                PagedKvCache::solo(&cfg, 12).unwrap(),
                PagedKvCache::solo(&cfg, 12).unwrap(),
            ];
            probe::install(counter.clone());
            let prefill = t.prefill_paged(&prompts[0], 0, &mut kv[0]);
            let counted_prefill = counter.take(gemm_site);
            t.prefill_paged(&prompts[1][..5], 0, &mut kv[1]).unwrap();
            counter.take(gemm_site);
            let [a, b] = &mut kv;
            let mut entries = [
                PagedDecodeEntry {
                    token: 1,
                    pos: 9,
                    kv: a,
                },
                PagedDecodeEntry {
                    token: 2,
                    pos: 5,
                    kv: b,
                },
            ];
            let decode = t.decode_forward_batch(&mut entries);
            let counted_decode = counter.take(gemm_site);
            probe::uninstall();
            prefill.unwrap();
            decode.unwrap();
            let name = format!("{} on {}", be.name(), cfg.name);
            assert_eq!(counted_prefill, (layers, 4 * layers), "prefill, {name}");
            // A decode step of two requests: one stacked GEMM per
            // activation, one attention call per request.
            assert_eq!(counted_decode, (2 * layers, 4 * layers), "decode, {name}");
        }
    }
}
