//! Seeded input generation. The program under test receives only the
//! requests built here; `--seed` touches nothing else.
//!
//! Inputs come in *blocks*: the unit a throughput sample is taken
//! over. Block 0 warms the program up and is discarded.
//!
//! Every block of a workload has the same *shape* — each request's
//! prompt length, decode budget and, on the chat trace, which system
//! prompt it opens with — drawn once from [`SHAPE_SEED`]; `--seed`
//! draws the token ids, afresh for every block. Rounds are therefore
//! replicas of one another, so their median does not depend on how
//! many of them a run got through, and two seeds ask for the same
//! amount of work on different content: a difference between two runs
//! is the program or the host, not a heavier draw from a heavy-tailed
//! length mix (which alone moved `req_s` by 30 % between seeds).

use std::time::Instant;

use llmnpu::core::serve::GenerationRequest;
use llmnpu::workloads::random_prompt;
use llmnpu::workloads::suites::Suite;
use llmnpu::workloads::traces::ChatTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::spec;
use crate::stack::model_scale;

/// More measured blocks than a run of `RUN_SECONDS` can consume on a
/// host several times faster than the one the bounds were set on.
const MEASURED_BLOCKS: usize = 24;
const SHAPE_SEED: u64 = 29;

const DECODE_NEW_TOKENS: usize = 96;
const LATE_LONG_TOKENS: usize = 512;
const LATE_PROBE_TOKENS: usize = 32;
const CHAT_SYSTEMS: usize = 4;
const CHAT_SYSTEM_TOKENS: usize = 128;

pub struct Inputs {
    /// `blocks[0]` is the warm-up block.
    pub blocks: Vec<Vec<GenerationRequest>>,
    /// FNV-1a over every prompt token and decode budget.
    pub hash: u64,
    pub gen_ms: f64,
}

/// One request of a block, before its token ids are drawn.
struct Shape {
    /// The shared system prompt the request opens with, if any.
    system: Option<usize>,
    prompt_len: usize,
    max_new_tokens: usize,
}

fn plain(prompt_len: usize, max_new_tokens: usize) -> Shape {
    Shape {
        system: None,
        prompt_len,
        max_new_tokens,
    }
}

/// The shape every block of `workload` has.
fn block_shape(workload: &str, vocab: usize) -> Vec<Shape> {
    let mut rng = StdRng::seed_from_u64(SHAPE_SEED);
    match workload {
        spec::PREFILL_LONG => {
            // One length from `droidtask_clock` and one from each half
            // of `droidtask_long`'s range: a stratified draw over
            // 505-827 tokens.
            let (clock, long) = (Suite::droidtask_clock(), Suite::droidtask_long());
            let (lo, hi) = long.prompt_range;
            let mid = (lo + hi) / 2;
            [
                (clock.prompt_range, clock.output_range),
                ((lo, mid), long.output_range),
                ((mid + 1, hi), long.output_range),
            ]
            .into_iter()
            .map(|(prompt, output)| {
                plain(
                    rng.gen_range(prompt.0..=prompt.1),
                    rng.gen_range(output.0..=output.1),
                )
            })
            .collect()
        }
        spec::DECODE_BATCH => (0..8).map(|_| plain(16, DECODE_NEW_TOKENS)).collect(),
        spec::CHAT_SHARED_PREFIX => ChatTrace::shared_system_prompts(
            SHAPE_SEED,
            24,
            CHAT_SYSTEMS,
            CHAT_SYSTEM_TOKENS,
            16,
            256,
            vocab as u32,
            1.0,
        )
        .prompts
        .iter()
        .map(|p| Shape {
            system: Some(p.system),
            prompt_len: p.tokens.len(),
            max_new_tokens: p.max_new_tokens.max(8),
        })
        .collect(),
        // Four trials: a long request, then its probe.
        _ => (0..4)
            .flat_map(|_| [plain(LATE_LONG_TOKENS, 4), plain(LATE_PROBE_TOKENS, 4)])
            .collect(),
    }
}

/// Whether request `index` of a block counts towards the latency
/// metrics: on `late_arrival` only the probes (odd positions) do.
pub fn counts_for_latency(workload: &str, index: usize) -> bool {
    workload != spec::LATE_ARRIVAL || index % 2 == 1
}

pub fn generate(workload: &str, seed: u64, smoke: bool) -> Inputs {
    let start = Instant::now();
    let vocab = model_scale(smoke).2;
    let n_blocks = 1 + if smoke { 2 } else { MEASURED_BLOCKS };
    let shape = block_shape(workload, vocab);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6c6c_6d6e_7075);
    let systems: Vec<Vec<u32>> = (0..CHAT_SYSTEMS)
        .map(|_| random_prompt(&mut rng, CHAT_SYSTEM_TOKENS, vocab))
        .collect();
    let blocks: Vec<Vec<GenerationRequest>> = (0..n_blocks)
        .map(|_| {
            shape
                .iter()
                .map(|s| {
                    let mut prompt = s.system.map_or_else(Vec::new, |i| systems[i].clone());
                    prompt.extend(random_prompt(&mut rng, s.prompt_len - prompt.len(), vocab));
                    GenerationRequest::new(prompt, s.max_new_tokens)
                })
                .collect()
        })
        .collect();
    let hash = hash_blocks(&blocks);
    Inputs {
        blocks,
        hash,
        gen_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn hash_blocks(blocks: &[Vec<GenerationRequest>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for request in blocks.iter().flatten() {
        eat(request.prompt.len() as u64);
        for &token in &request.prompt {
            eat(u64::from(token));
        }
        eat(request.max_new_tokens as u64);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        for w in &spec::WORKLOADS {
            let a = generate(w.name, 29, true);
            let b = generate(w.name, 29, true);
            let c = generate(w.name, 30, true);
            assert_eq!(a.hash, b.hash, "{}", w.name);
            assert_ne!(a.hash, c.hash, "{}", w.name);
            assert_eq!(a.blocks.len(), 3);
        }
    }

    #[test]
    fn seeds_and_blocks_change_token_ids_but_not_shapes() {
        let shape = |block: &[GenerationRequest]| -> Vec<(usize, usize)> {
            block
                .iter()
                .map(|r| (r.prompt.len(), r.max_new_tokens))
                .collect()
        };
        for w in &spec::WORKLOADS {
            let (a, b) = (generate(w.name, 1, true), generate(w.name, 2, true));
            for block in a.blocks.iter().chain(&b.blocks) {
                assert_eq!(shape(block), shape(&a.blocks[0]), "{}", w.name);
            }
            assert_ne!(a.blocks[0][0].prompt, a.blocks[1][0].prompt, "{}", w.name);
        }
        // The chat trace keeps its sharing structure: requests that
        // open with the same system prompt under one seed do under
        // another.
        let opens_alike = |inputs: &Inputs| -> Vec<bool> {
            let all: Vec<&GenerationRequest> = inputs.blocks.iter().flatten().collect();
            all.iter()
                .map(|r| r.prompt[..128] == all[0].prompt[..128])
                .collect()
        };
        let (a, b) = (
            generate(spec::CHAT_SHARED_PREFIX, 1, true),
            generate(spec::CHAT_SHARED_PREFIX, 2, true),
        );
        assert_eq!(opens_alike(&a), opens_alike(&b));
        assert!(opens_alike(&a).iter().filter(|same| **same).count() > 1);
    }

    #[test]
    fn prefill_long_lengths_stay_in_the_suites_ranges() {
        let inputs = generate(spec::PREFILL_LONG, 3, true);
        let block = &inputs.blocks[1];
        let lens: Vec<usize> = block.iter().map(|r| r.prompt.len()).collect();
        assert!((505..=645).contains(&lens[0]), "{lens:?}");
        assert!((656..=741).contains(&lens[1]), "{lens:?}");
        assert!((742..=827).contains(&lens[2]), "{lens:?}");
        assert!(block.iter().all(|r| (1..=5).contains(&r.max_new_tokens)));
    }

    #[test]
    fn late_arrival_alternates_long_request_and_probe() {
        let inputs = generate(spec::LATE_ARRIVAL, 1, true);
        for (i, r) in inputs.blocks[1].iter().enumerate() {
            let want = if i % 2 == 0 {
                LATE_LONG_TOKENS
            } else {
                LATE_PROBE_TOKENS
            };
            assert_eq!(r.prompt.len(), want);
            assert_eq!(counts_for_latency(spec::LATE_ARRIVAL, i), i % 2 == 1);
        }
    }
}
