//! Request-arrival traces for the serving experiments.
//!
//! The latency suites in [`crate::suites`] describe *what* a request
//! looks like (prompt/output lengths); a trace describes *when* requests
//! show up. Four standard shapes cover the serving benchmarks: Poisson
//! arrivals (independent users at a mean rate), uniform pacing (load
//! generators), a burst (everyone at once — the admission-cap stress),
//! and heavy-tail arrivals (Pareto gaps: long quiet stretches broken by
//! tight clusters — the shape that actually exercises memory-pressure
//! eviction in the paged-KV serving layer). All are seeded and
//! reproducible, and arrival times are milliseconds from the start of
//! the serving run — exactly the `GenerationRequest::arrival_ms` release
//! times the continuous-batching scheduler in `llmnpu-core` honors.
//!
//! [`LengthMix::heavy_tail`] is the companion *length* generator: mostly
//! short chat-style prompts with an occasional document-length outlier,
//! so a bounded KV pool sees both many-small and few-huge footprints.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic sequence of request arrival times.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Arrival times in ms from run start, non-decreasing.
    pub arrivals_ms: Vec<f64>,
}

impl ArrivalTrace {
    /// Poisson arrivals: exponentially distributed inter-arrival gaps at
    /// `rate_per_s` mean requests per second (seeded, reproducible).
    #[must_use]
    pub fn poisson(seed: u64, rate_per_s: f64, n: usize) -> Self {
        let rate = rate_per_s.max(1e-9);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let arrivals_ms = (0..n)
            .map(|_| {
                // Inverse-CDF exponential gap; u ∈ [0, 1) so 1 - u > 0.
                let u: f64 = rng.gen();
                t += -(1.0 - u).ln() / rate * 1e3;
                t
            })
            .collect();
        ArrivalTrace { arrivals_ms }
    }

    /// Heavy-tail arrivals: inter-arrival gaps drawn from a Pareto
    /// distribution with shape `alpha` and scale `scale_ms` (gap =
    /// `scale_ms · (1-u)^(-1/alpha)`). Small `alpha` (≤ 2) produces the
    /// bursty long-tail pattern real user traffic shows — many requests
    /// clustered within a few scale units, then occasional gaps an
    /// order of magnitude longer. Clusters are what drive a bounded KV
    /// pool into memory pressure, so this is the eviction-stress trace.
    ///
    /// Seeded and reproducible; `alpha` and `scale_ms` are clamped to
    /// tiny positive floors to keep gaps finite.
    #[must_use]
    pub fn heavy_tail(seed: u64, scale_ms: f64, alpha: f64, n: usize) -> Self {
        let scale = scale_ms.max(1e-9);
        let alpha = alpha.max(1e-3);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = 0.0;
        let arrivals_ms = (0..n)
            .map(|_| {
                // Inverse-CDF Pareto gap; u ∈ [0, 1) so 1 - u > 0.
                let u: f64 = rng.gen();
                t += scale * (1.0 - u).powf(-1.0 / alpha);
                t
            })
            .collect();
        ArrivalTrace { arrivals_ms }
    }

    /// Uniformly paced arrivals: one request every `gap_ms`, starting at
    /// time zero.
    #[must_use]
    pub fn uniform(gap_ms: f64, n: usize) -> Self {
        ArrivalTrace {
            arrivals_ms: (0..n).map(|i| i as f64 * gap_ms).collect(),
        }
    }

    /// A burst: all `n` requests arrive at time zero (the admission-cap
    /// stress shape).
    #[must_use]
    pub fn burst(n: usize) -> Self {
        ArrivalTrace {
            arrivals_ms: vec![0.0; n],
        }
    }

    /// Number of arrivals.
    #[must_use]
    pub fn len(&self) -> usize {
        self.arrivals_ms.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.arrivals_ms.is_empty()
    }

    /// Mean inter-arrival gap in ms (0 for traces shorter than 2).
    #[must_use]
    pub fn mean_gap_ms(&self) -> f64 {
        if self.arrivals_ms.len() < 2 {
            return 0.0;
        }
        let span = self.arrivals_ms.last().unwrap() - self.arrivals_ms.first().unwrap();
        span / (self.arrivals_ms.len() - 1) as f64
    }
}

/// A seeded request-shape mix: `(prompt_len, max_new_tokens)` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LengthMix {
    /// One `(prompt_len, max_new_tokens)` pair per request.
    pub shapes: Vec<(usize, usize)>,
}

impl LengthMix {
    /// A heavy-tail long-prompt mix: most prompts are chat-sized (a few
    /// × `base_prompt`), but a Pareto tail occasionally emits prompts
    /// up to `max_prompt` — the document-summarization outliers whose
    /// KV footprint dwarfs their neighbors'. Decode budgets stay modest
    /// (chat replies), so the *prompt* KV dominates, which is exactly
    /// the regime where paged admission and eviction earn their keep.
    #[must_use]
    pub fn heavy_tail(seed: u64, n: usize, base_prompt: usize, max_prompt: usize) -> Self {
        let base = base_prompt.max(1);
        let cap = max_prompt.max(base);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let shapes = (0..n)
            .map(|_| {
                let u: f64 = rng.gen();
                // Pareto(α = 1.1): ~70% land within 2× base.
                let prompt = ((base as f64) * (1.0 - u).powf(-1.0 / 1.1)) as usize;
                let prompt = prompt.clamp(base, cap);
                let v: f64 = rng.gen();
                let max_new = 2 + (v * 6.0) as usize;
                (prompt, max_new)
            })
            .collect();
        LengthMix { shapes }
    }

    /// Number of request shapes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the mix is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Total worst-case token footprint (prompt + decode budget).
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.shapes.iter().map(|&(p, n)| p + n).sum()
    }
}

/// One request in a [`ChatTrace`]: a full token-id prompt (shared
/// system prefix + private suffix) plus its decode budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChatPrompt {
    /// The complete prompt: `system_prompts[system]` followed by a
    /// request-private suffix.
    pub tokens: Vec<u32>,
    /// Index of the shared system prompt this request opens with.
    pub system: usize,
    /// Decode budget (chat-reply sized).
    pub max_new_tokens: usize,
}

/// A seeded multi-tenant chat workload: every request opens with one
/// of a small pool of **shared system prompts** and continues with a
/// private heavy-tail suffix, arriving in bursty clusters.
///
/// This is the trace shape that exercises a *global* prefix cache: the
/// system prompts repeat across thousands of requests whose producers
/// are long finished, so reuse comes from cached pages surviving in
/// the pool. Popularity is
/// Zipf-like (system 0 is the assistant default almost everyone uses;
/// later ones are niche personas), matching how real deployments skew.
#[derive(Debug, Clone, PartialEq)]
pub struct ChatTrace {
    /// The shared system prompts, as token ids.
    pub system_prompts: Vec<Vec<u32>>,
    /// One prompt per request.
    pub prompts: Vec<ChatPrompt>,
    /// Arrival time of each request (ms from run start, non-decreasing;
    /// heavy-tail gaps, so requests cluster into bursts).
    pub arrivals_ms: Vec<f64>,
}

impl ChatTrace {
    /// Generates `n` requests over `systems` shared system prompts of
    /// `system_tokens` tokens each, with private suffix lengths drawn
    /// heavy-tail in `[base_suffix, max_suffix]`, token ids in
    /// `[0, vocab)`, and heavy-tail (bursty) arrivals at `scale_ms`
    /// mean-gap scale. Fully seeded and reproducible.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // a trace recipe, not an API to thread through
    pub fn shared_system_prompts(
        seed: u64,
        n: usize,
        systems: usize,
        system_tokens: usize,
        base_suffix: usize,
        max_suffix: usize,
        vocab: u32,
        scale_ms: f64,
    ) -> Self {
        let systems = systems.max(1);
        let vocab = vocab.max(2);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5bd1_e995);
        let system_prompts: Vec<Vec<u32>> = (0..systems)
            .map(|_| {
                (0..system_tokens)
                    .map(|_| rng.gen_range(0..vocab))
                    .collect()
            })
            .collect();
        // Zipf-like popularity: weight 1/(i+1) for system i.
        let weights: Vec<f64> = (0..systems).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let total_w: f64 = weights.iter().sum();
        let mix = LengthMix::heavy_tail(seed ^ 0x27d4_eb2f, n, base_suffix.max(1), max_suffix);
        let prompts = mix
            .shapes
            .iter()
            .map(|&(suffix_len, max_new)| {
                let mut pick: f64 = rng.gen_range(0.0..total_w);
                let mut system = systems - 1;
                for (i, w) in weights.iter().enumerate() {
                    if pick < *w {
                        system = i;
                        break;
                    }
                    pick -= w;
                }
                let mut tokens = system_prompts[system].clone();
                tokens.extend((0..suffix_len).map(|_| rng.gen_range(0..vocab)));
                ChatPrompt {
                    tokens,
                    system,
                    max_new_tokens: max_new,
                }
            })
            .collect();
        let arrivals_ms =
            ArrivalTrace::heavy_tail(seed ^ 0x85eb_ca6b, scale_ms, 1.1, n).arrivals_ms;
        ChatTrace {
            system_prompts,
            prompts,
            arrivals_ms,
        }
    }

    /// Number of requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prompts.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prompts.is_empty()
    }

    /// Total worst-case token footprint (prompts + decode budgets).
    #[must_use]
    pub fn total_tokens(&self) -> usize {
        self.prompts
            .iter()
            .map(|p| p.tokens.len() + p.max_new_tokens)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_seeded_and_monotone() {
        let a = ArrivalTrace::poisson(3, 10.0, 64);
        let b = ArrivalTrace::poisson(3, 10.0, 64);
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for w in a.arrivals_ms.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(a.arrivals_ms.iter().all(|&t| t.is_finite() && t >= 0.0));
        let c = ArrivalTrace::poisson(4, 10.0, 64);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_mean_gap_tracks_rate() {
        // 10 req/s → mean gap 100 ms; a 512-sample estimate lands well
        // within a factor of 1.5.
        let t = ArrivalTrace::poisson(7, 10.0, 512);
        let gap = t.mean_gap_ms();
        assert!((66.0..150.0).contains(&gap), "mean gap {gap:.1} ms");
    }

    #[test]
    fn heavy_tail_is_seeded_bursty_and_monotone() {
        let a = ArrivalTrace::heavy_tail(5, 10.0, 1.1, 256);
        let b = ArrivalTrace::heavy_tail(5, 10.0, 1.1, 256);
        assert_eq!(a, b, "seeded reproducibility");
        assert_ne!(a, ArrivalTrace::heavy_tail(6, 10.0, 1.1, 256));
        for w in a.arrivals_ms.windows(2) {
            assert!(w[1] >= w[0]);
        }
        assert!(a.arrivals_ms.iter().all(|&t| t.is_finite() && t >= 0.0));
        // The tail: the largest gap dwarfs the median gap (burstiness a
        // Poisson trace of the same mean would almost never show).
        let mut gaps: Vec<f64> = a.arrivals_ms.windows(2).map(|w| w[1] - w[0]).collect();
        gaps.sort_by(|x, y| x.partial_cmp(y).unwrap());
        let median = gaps[gaps.len() / 2];
        let max = gaps[gaps.len() - 1];
        assert!(
            max > 10.0 * median,
            "max gap {max:.1} vs median {median:.1}: not heavy-tailed"
        );
        // Every gap respects the Pareto scale floor.
        assert!(gaps[0] >= 10.0 - 1e-9);
    }

    #[test]
    fn heavy_tail_length_mix_spans_the_range() {
        let m = LengthMix::heavy_tail(9, 128, 8, 256);
        assert_eq!(m, LengthMix::heavy_tail(9, 128, 8, 256));
        assert_eq!(m.len(), 128);
        assert!(!m.is_empty());
        assert!(m
            .shapes
            .iter()
            .all(|&(p, n)| (8..=256).contains(&p) && n >= 2));
        // Mostly short...
        let short = m.shapes.iter().filter(|&&(p, _)| p <= 16).count();
        assert!(short * 2 > m.len(), "{short}/128 short prompts");
        // ...with a real long tail.
        let long = m.shapes.iter().filter(|&&(p, _)| p >= 64).count();
        assert!(long >= 3, "only {long} long-prompt outliers");
        assert!(m.total_tokens() > 0);
    }

    #[test]
    fn chat_trace_shares_system_prompts_reproducibly() {
        let t = ChatTrace::shared_system_prompts(11, 200, 3, 12, 4, 64, 96, 10.0);
        assert_eq!(
            t,
            ChatTrace::shared_system_prompts(11, 200, 3, 12, 4, 64, 96, 10.0),
            "seeded reproducibility"
        );
        assert_ne!(
            t,
            ChatTrace::shared_system_prompts(12, 200, 3, 12, 4, 64, 96, 10.0)
        );
        assert_eq!(t.len(), 200);
        assert_eq!(t.arrivals_ms.len(), 200);
        assert_eq!(t.system_prompts.len(), 3);
        for p in &t.prompts {
            // Every prompt literally opens with its system prompt.
            let sys = &t.system_prompts[p.system];
            assert_eq!(&p.tokens[..sys.len()], &sys[..]);
            assert!(p.tokens.len() > sys.len(), "suffix must be non-empty");
            assert!(p.tokens.iter().all(|&tok| tok < 96));
            assert!(p.max_new_tokens >= 2);
        }
        // Zipf skew: the default persona dominates, but every system
        // prompt gets some traffic.
        let counts: Vec<usize> = (0..3)
            .map(|s| t.prompts.iter().filter(|p| p.system == s).count())
            .collect();
        assert!(counts[0] > counts[2], "popularity skew: {counts:?}");
        assert!(counts.iter().all(|&c| c > 0), "dead persona: {counts:?}");
        for w in t.arrivals_ms.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn uniform_and_burst_shapes() {
        let u = ArrivalTrace::uniform(50.0, 4);
        assert_eq!(u.arrivals_ms, vec![0.0, 50.0, 100.0, 150.0]);
        assert!((u.mean_gap_ms() - 50.0).abs() < 1e-12);
        let b = ArrivalTrace::burst(3);
        assert_eq!(b.arrivals_ms, vec![0.0, 0.0, 0.0]);
        assert_eq!(b.mean_gap_ms(), 0.0);
        assert!(ArrivalTrace::burst(0).is_empty());
    }
}
