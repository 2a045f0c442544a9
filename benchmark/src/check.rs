//! The correctness gate, run outside the timed window: every request
//! `Completed`, every client-side stream equal to the outcome the
//! program reported, and a sample of streams equal to a solo
//! `Transformer::generate` run of the same request.

use llmnpu::core::serve::GenerationRequest;

use crate::drive::Sample;
use crate::inputs::{counts_for_latency, Inputs};
use crate::spec;
use crate::stack::{Stack, CHUNK_LEN};
use crate::Res;

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Streams compared against a solo run.
    pub solo_checked: usize,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn merge(self, other: Verdict) -> Verdict {
        Verdict {
            attempted: self.attempted + other.attempted,
            failed: self.failed + other.failed,
            solo_checked: self.solo_checked + other.solo_checked,
        }
    }
}

/// Whether sample number `ordinal` is compared against a solo run: one
/// stream in 16, one in 4 of `prefill_long`'s few requests, and every
/// `late_arrival` probe (a solo run of a long prompt costs as much as
/// serving it, so the run's time cap rules out checking them all).
fn solo_checked(workload: &str, ordinal: usize, sample: &Sample) -> bool {
    match workload {
        spec::PREFILL_LONG => ordinal.is_multiple_of(4),
        spec::LATE_ARRIVAL if counts_for_latency(workload, sample.index) => true,
        _ => ordinal.is_multiple_of(16),
    }
}

/// The single-stream reference, as `tests/integration_frontend.rs`
/// computes it.
fn solo(stack: &Stack, request: &GenerationRequest) -> Res<Vec<u32>> {
    let t = stack.transformer();
    Ok(stack.engine.pool().install_scope(|| {
        t.generate(
            &request.prompt,
            Some(CHUNK_LEN),
            request.max_new_tokens,
            &request.sampler,
        )
    })?)
}

/// Judges one request: `expected` is its solo stream when it was
/// sampled for that comparison.
pub fn passes(sample: &Sample, request: &GenerationRequest, expected: Option<&[u32]>) -> bool {
    let Some(outcome) = &sample.outcome else {
        return false;
    };
    outcome.status.is_completed()
        && outcome.tokens == sample.stream
        && sample.stream.len() == request.max_new_tokens
        && expected.is_none_or(|want| want == sample.stream)
}

/// Judges every sample; with `solo`, the sampled ones also against
/// their solo run.
pub fn check(
    stack: &Stack,
    workload: &str,
    inputs: &Inputs,
    samples: &[Sample],
    solo_runs: bool,
) -> Res<Verdict> {
    let mut verdict = Verdict::default();
    for (ordinal, sample) in samples.iter().enumerate() {
        let request = &inputs.blocks[sample.block][sample.index];
        let expected = if solo_runs && solo_checked(workload, ordinal, sample) {
            verdict.solo_checked += 1;
            Some(solo(stack, request)?)
        } else {
            None
        };
        verdict.attempted += 1;
        if !passes(sample, request, expected.as_deref()) {
            verdict.failed += 1;
        }
    }
    Ok(verdict)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu::core::serve::{RequestOutcome, RequestStatus};

    fn sample(stream: Vec<u32>, status: RequestStatus) -> Sample {
        Sample {
            block: 1,
            index: 0,
            prompt_tokens: 3,
            submit_s: 0.0,
            token_s: vec![0.1; stream.len()],
            done_s: 0.2,
            stream: stream.clone(),
            outcome: Some(RequestOutcome {
                request: 0,
                tokens: stream,
                token_times_ms: Vec::new(),
                arrival_ms: 0.0,
                first_dispatch_ms: 0.0,
                prefill_done_ms: 0.0,
                finish_ms: 0.0,
                attempts: 1,
                status,
            }),
        }
    }

    #[test]
    fn a_matching_completed_stream_passes() {
        let request = GenerationRequest::new(vec![1, 2, 3], 2);
        let s = sample(vec![5, 6], RequestStatus::Completed);
        assert!(passes(&s, &request, None));
        assert!(passes(&s, &request, Some(&[5, 6])));
    }

    /// A corrupted expected stream fails the request, which makes the
    /// run incorrect, which is what `main` turns into a non-zero exit.
    #[test]
    fn a_corrupted_expected_stream_fails_the_run() {
        let request = GenerationRequest::new(vec![1, 2, 3], 2);
        let s = sample(vec![5, 6], RequestStatus::Completed);
        assert!(!passes(&s, &request, Some(&[5, 7])));
        let verdict = Verdict {
            attempted: 1,
            failed: 1,
            solo_checked: 1,
        };
        assert!(!verdict.correct());
        assert_ne!(crate::exit_code(&verdict), std::process::ExitCode::SUCCESS);
    }

    #[test]
    fn unfinished_short_or_diverging_streams_fail() {
        let request = GenerationRequest::new(vec![1, 2, 3], 2);
        assert!(!passes(
            &sample(vec![5, 6], RequestStatus::Cancelled),
            &request,
            None
        ));
        assert!(!passes(
            &sample(vec![5], RequestStatus::Completed),
            &request,
            None
        ));
        let mut diverged = sample(vec![5, 6], RequestStatus::Completed);
        diverged.stream = vec![5, 9];
        assert!(!passes(&diverged, &request, None));
        let mut dead = sample(vec![], RequestStatus::Completed);
        dead.outcome = None;
        assert!(!passes(&dead, &request, None));
        assert!(
            !Verdict::default().correct(),
            "nothing attempted is not a pass"
        );
    }
}
