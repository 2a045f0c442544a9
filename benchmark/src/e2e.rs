//! End-to-end metrics, from what the client observed in the measured
//! rounds of a tracing-off phase.

use crate::drive::{Phase, Round, Sample};
use crate::inputs::counts_for_latency;
use crate::stats::median;

/// The completed requests of one measured round.
fn completed<'a>(phase: &'a Phase, round: &'a Round) -> impl Iterator<Item = &'a Sample> {
    round
        .samples
        .iter()
        .map(|&i| &phase.samples[i])
        .filter(|s| s.completed())
}

/// Median over rounds of `amount(sample)` summed over the round's
/// completed requests, per wall second.
fn rate(phase: &Phase, amount: impl Fn(&Sample) -> f64) -> f64 {
    let per_round: Vec<f64> = phase
        .rounds
        .iter()
        .map(|r| completed(phase, r).map(&amount).sum::<f64>() / (r.end_s - r.start_s))
        .collect();
    median(&per_round).unwrap_or(0.0)
}

/// Median over rounds of each round's median `latency(sample)`. A
/// block mixes request sizes (three prompt lengths on `prefill_long`),
/// so the pooled median hops between size classes when a few samples
/// shift; every round's median is the same class.
fn latency_p50(workload: &str, phase: &Phase, latency: impl Fn(&Sample) -> Option<f64>) -> f64 {
    let per_round: Vec<f64> = phase
        .rounds
        .iter()
        .filter_map(|r| {
            let in_round: Vec<f64> = completed(phase, r)
                .filter(|s| counts_for_latency(workload, s.index))
                .filter_map(&latency)
                .collect();
            median(&in_round)
        })
        .collect();
    median(&per_round).unwrap_or(0.0)
}

/// The samples latency statistics are over: completed requests of the
/// measured rounds, probes only on `late_arrival`.
pub fn latency_samples<'a>(
    workload: &'a str,
    phase: &'a Phase,
) -> impl Iterator<Item = &'a Sample> {
    phase
        .rounds
        .iter()
        .flat_map(|r| completed(phase, r))
        .filter(move |s| counts_for_latency(workload, s.index))
}

pub fn ttfts_ms(workload: &str, phase: &Phase) -> Vec<f64> {
    latency_samples(workload, phase)
        .filter_map(Sample::ttft_ms)
        .collect()
}

pub fn gaps_ms(workload: &str, phase: &Phase) -> Vec<f64> {
    latency_samples(workload, phase)
        .flat_map(Sample::gaps_ms)
        .collect()
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Every end-to-end metric except `setup_s`, in `spec::END_TO_END`
/// order.
pub fn metrics(workload: &str, phase: &Phase) -> Vec<(&'static str, f64)> {
    vec![
        ("req_s", rate(phase, |_| 1.0)),
        ("prompt_tok_s", rate(phase, |s| s.prompt_tokens as f64)),
        ("gen_tok_s", rate(phase, |s| s.stream.len() as f64)),
        ("ttft_ms_p50", latency_p50(workload, phase, Sample::ttft_ms)),
        (
            "e2e_ms_p50",
            latency_p50(workload, phase, |s| Some(s.e2e_ms())),
        ),
        ("peak_rss_mb", peak_rss_mb()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::Agg;
    use crate::spec;
    use llmnpu::core::serve::{RequestOutcome, RequestStatus};

    fn sample(index: usize, submit_s: f64, token_s: Vec<f64>, done_s: f64) -> Sample {
        let stream = vec![1; token_s.len()];
        Sample {
            block: 1,
            index,
            prompt_tokens: 100,
            submit_s,
            token_s,
            done_s,
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
                status: RequestStatus::Completed,
            }),
        }
    }

    fn phase() -> Phase {
        Phase {
            samples: vec![
                sample(0, 0.0, vec![0.5, 0.6], 1.0),
                sample(1, 1.0, vec![1.1, 1.3, 1.6], 2.0),
            ],
            rounds: vec![
                Round {
                    start_s: 0.0,
                    end_s: 1.0,
                    samples: vec![0],
                },
                Round {
                    start_s: 1.0,
                    end_s: 2.0,
                    samples: vec![1],
                },
            ],
            wall_s: 2.0,
            agg: Agg::default(),
        }
    }

    #[test]
    fn rates_are_medians_over_rounds_and_latencies_pool() {
        let m: std::collections::BTreeMap<_, _> =
            metrics(spec::PREFILL_LONG, &phase()).into_iter().collect();
        assert_eq!(m["req_s"], 1.0);
        assert_eq!(m["prompt_tok_s"], 100.0);
        assert_eq!(m["gen_tok_s"], 2.5);
        assert!((m["ttft_ms_p50"] - 300.0).abs() < 1e-9);
        let tpot = median(&gaps_ms(spec::PREFILL_LONG, &phase())).unwrap();
        assert!((tpot - 200.0).abs() < 1e-9);
        assert!((m["e2e_ms_p50"] - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn late_arrival_latencies_are_over_probes_only() {
        let ttft = ttfts_ms(spec::LATE_ARRIVAL, &phase());
        assert_eq!(ttft.len(), 1);
        assert!((ttft[0] - 100.0).abs() < 1e-9);
    }
}
