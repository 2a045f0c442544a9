//! The load generator: one driver thread that submits requests and
//! observes their tokens from the client's side, through public entry
//! points only (`LlmNpuEngine::serve` and `core::frontend`).
//!
//! A *round* is the interval one block of requests completes in; the
//! throughput metrics are medians over rounds, so one hiccup moves one
//! sample instead of the mean.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llmnpu::core::frontend::{frontend, FrontendClient, FrontendReport, StreamEvent, StreamHandle};
use llmnpu::core::serve::{
    GenerationRequest, RequestOutcome, ServeOptions, ServeReport, TokenEvent,
};

use crate::inputs::Inputs;
use crate::stack::{Stack, MAX_ACTIVE};
use crate::Res;

/// How long the driver sleeps when a poll sweep found nothing.
const IDLE: Duration = Duration::from_micros(200);
/// `late_arrival`: the probe is submitted this long after the long
/// request, while the long request's batch is still prefilling.
const LATE_DELAY: Duration = Duration::from_millis(50);

/// One request as its client saw it. Times are seconds since the
/// phase began.
#[derive(Debug, Clone)]
pub struct Sample {
    pub block: usize,
    pub index: usize,
    pub prompt_tokens: usize,
    pub submit_s: f64,
    pub token_s: Vec<f64>,
    pub done_s: f64,
    /// The tokens the client received, in order.
    pub stream: Vec<u32>,
    /// `None` if the front-end died before answering.
    pub outcome: Option<RequestOutcome>,
}

impl Sample {
    pub fn completed(&self) -> bool {
        self.outcome
            .as_ref()
            .is_some_and(|o| o.status.is_completed())
    }

    /// Submit (or `serve` call start) to first token seen.
    pub fn ttft_ms(&self) -> Option<f64> {
        self.token_s.first().map(|t| (t - self.submit_s) * 1e3)
    }

    /// Gaps between successive tokens of this stream.
    pub fn gaps_ms(&self) -> impl Iterator<Item = f64> + '_ {
        self.token_s.windows(2).map(|w| (w[1] - w[0]) * 1e3)
    }

    pub fn e2e_ms(&self) -> f64 {
        (self.done_s - self.submit_s) * 1e3
    }
}

/// The interval one block's worth of requests completed in.
#[derive(Debug, Clone)]
pub struct Round {
    pub start_s: f64,
    pub end_s: f64,
    /// Indices into [`Phase::samples`].
    pub samples: Vec<usize>,
}

/// Counts the program reports about itself, summed over a phase.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    pub batches: usize,
    pub requests: usize,
    /// Sum of per-batch makespans: time the engine spent serving.
    pub serve_ms: f64,
    pub hit_tokens: u64,
    pub evicted_blocks: u64,
    pub peak_used_blocks: usize,
    pub pool_blocks: usize,
    pub cow_copies: u64,
    pub leaked_blocks: usize,
    pub retries: u64,
    pub preemptions: u64,
}

impl Agg {
    fn add_serve(&mut self, r: &ServeReport) {
        self.batches += 1;
        self.requests += r.requests.len();
        self.serve_ms += r.makespan_ms();
        self.hit_tokens += r.kv.prefix_cache_hit_tokens;
        self.evicted_blocks += r.kv.prefix_cache_evictions;
        self.peak_used_blocks = self.peak_used_blocks.max(r.kv.peak_used_blocks);
        self.pool_blocks = r.kv.pool_blocks;
        self.cow_copies += r.kv.cow_copies;
        self.leaked_blocks += r.kv.leaked_blocks;
        self.preemptions += r.kv.evictions as u64;
        let reruns: usize = r
            .requests
            .iter()
            .map(|o| o.attempts.saturating_sub(1))
            .sum();
        self.retries += reruns.saturating_sub(r.kv.evictions) as u64;
    }

    fn add_frontend(&mut self, r: &FrontendReport) {
        self.batches += r.batches;
        self.requests += r.requests;
        self.serve_ms += r.serve_ms;
        self.hit_tokens += r.cache.hit_tokens;
        self.evicted_blocks += r.cache.evicted_blocks;
        self.peak_used_blocks = self.peak_used_blocks.max(r.peak_used_blocks);
        self.pool_blocks = r.pool_blocks;
        // `Frontend::run` returns an error if its final flush finds a
        // page still held, so a report in hand means none leaked. The
        // remaining counts exist only when the session carries a
        // metrics registry (the traced pass).
        self.cow_copies += r.metrics.gauges.get("kv.cow_copies").copied().unwrap_or(0) as u64;
        self.retries += r.metrics.counter("serve.retries");
        self.preemptions += r.metrics.counter("serve.evictions");
    }
}

pub struct Phase {
    /// Every request the phase submitted, warm-up included.
    pub samples: Vec<Sample>,
    /// Measured rounds only.
    pub rounds: Vec<Round>,
    pub wall_s: f64,
    pub agg: Agg,
}

fn secs(epoch: Instant) -> f64 {
    epoch.elapsed().as_secs_f64()
}

/// Whether the window that opened at `measure_start` is used up.
/// Block 1 always runs, so a run has at least one measured round.
fn window_over(block: usize, epoch: Instant, measure_start: f64, seconds: f64) -> bool {
    block > 1 && secs(epoch) - measure_start >= seconds
}

/// Closed loop over `LlmNpuEngine::serve`: each block is served as one
/// call, or one call per request when `one_at_a_time`. Tokens are
/// timestamped in the `on_token` callback.
pub fn drive_serve(
    stack: &Stack,
    opts: &ServeOptions,
    inputs: &Inputs,
    seconds: f64,
    one_at_a_time: bool,
) -> Res<Phase> {
    let t = stack.transformer();
    let seen: Arc<Mutex<Vec<(usize, u32, Instant)>>> = Arc::default();
    let mut opts = opts.clone();
    let sink = Arc::clone(&seen);
    opts.on_token = Some(Arc::new(move |ev: &TokenEvent| {
        let at = Instant::now();
        if let Ok(mut log) = sink.lock() {
            log.push((ev.request, ev.token, at));
        }
    }));

    let epoch = Instant::now();
    let mut phase = Phase {
        samples: Vec::new(),
        rounds: Vec::new(),
        wall_s: 0.0,
        agg: Agg::default(),
    };
    let mut measure_start = 0.0;
    for (b, block) in inputs.blocks.iter().enumerate() {
        if b == 1 {
            measure_start = secs(epoch);
        }
        if window_over(b, epoch, measure_start, seconds) {
            break;
        }
        let round_start = secs(epoch);
        let first_sample = phase.samples.len();
        let call_len = if one_at_a_time { 1 } else { block.len() };
        for (c, call) in block.chunks(call_len).enumerate() {
            seen.lock().map_err(|_| "token log poisoned")?.clear();
            let submit_s = secs(epoch);
            let report = stack.engine.serve(&t, call, &opts)?;
            let done_s = secs(epoch);
            phase.agg.add_serve(&report);
            let log = std::mem::take(&mut *seen.lock().map_err(|_| "token log poisoned")?);
            for outcome in report.requests {
                let mine = log.iter().filter(|(r, _, _)| *r == outcome.request);
                phase.samples.push(Sample {
                    block: b,
                    index: c * call_len + outcome.request,
                    prompt_tokens: call[outcome.request].prompt.len(),
                    submit_s,
                    token_s: mine
                        .clone()
                        .map(|(_, _, at)| at.duration_since(epoch).as_secs_f64())
                        .collect(),
                    done_s,
                    stream: mine.map(|(_, token, _)| *token).collect(),
                    outcome: Some(outcome),
                });
            }
        }
        if b >= 1 {
            phase.rounds.push(Round {
                start_s: round_start,
                end_s: secs(epoch),
                samples: (first_sample..phase.samples.len()).collect(),
            });
        }
    }
    phase.wall_s = secs(epoch);
    Ok(phase)
}

/// What a closed loop drives: something that accepts request `idx` and
/// later reports it finished.
pub trait Service {
    type Done;
    fn submit(&mut self, idx: usize);
    /// Finished requests since the last poll, in completion order.
    fn poll(&mut self) -> Vec<Self::Done>;
}

/// Keeps `cap` requests outstanding: a finished request is replaced at
/// once, for as long as `more(finished, submitted)` allows and
/// requests remain; then drains. Returns requests in completion order.
pub fn closed_loop<S: Service>(
    svc: &mut S,
    total: usize,
    cap: usize,
    mut more: impl FnMut(&[S::Done], usize) -> bool,
) -> Vec<S::Done> {
    let mut done = Vec::new();
    let mut next = 0;
    let mut outstanding = 0;
    loop {
        while outstanding < cap && next < total && more(&done, next) {
            svc.submit(next);
            next += 1;
            outstanding += 1;
        }
        if outstanding == 0 {
            return done;
        }
        let finished = svc.poll();
        if finished.is_empty() {
            thread::sleep(IDLE);
        }
        outstanding -= finished.len();
        done.extend(finished);
    }
}

struct InFlight {
    idx: usize,
    handle: Option<StreamHandle>,
    submit_s: f64,
    token_s: Vec<f64>,
    stream: Vec<u32>,
}

/// The client side of a running front-end: submits by flat request
/// index, polls every open stream with `try_recv`.
struct FrontendService<'a> {
    client: &'a FrontendClient,
    requests: &'a [GenerationRequest],
    per_block: usize,
    epoch: Instant,
    alive: &'a dyn Fn() -> bool,
    inflight: Vec<InFlight>,
}

impl FrontendService<'_> {
    fn finish(&self, f: InFlight, outcome: Option<RequestOutcome>) -> Sample {
        Sample {
            block: f.idx / self.per_block,
            index: f.idx % self.per_block,
            prompt_tokens: self.requests[f.idx].prompt.len(),
            submit_s: f.submit_s,
            token_s: f.token_s,
            done_s: secs(self.epoch),
            stream: f.stream,
            outcome,
        }
    }
}

impl Service for FrontendService<'_> {
    type Done = Sample;

    fn submit(&mut self, idx: usize) {
        let submit_s = secs(self.epoch);
        self.inflight.push(InFlight {
            idx,
            // A dead front-end answers nothing: the request fails.
            handle: self.client.submit(self.requests[idx].clone()).ok(),
            submit_s,
            token_s: Vec::new(),
            stream: Vec::new(),
        });
    }

    fn poll(&mut self) -> Vec<Sample> {
        let alive = (self.alive)();
        let mut finished = Vec::new();
        let mut i = 0;
        while i < self.inflight.len() {
            let f = &mut self.inflight[i];
            let mut outcome = None;
            while let Some(ev) = f.handle.as_ref().and_then(StreamHandle::try_recv) {
                match ev {
                    StreamEvent::Token { token, .. } => {
                        f.token_s.push(secs(self.epoch));
                        f.stream.push(token);
                    }
                    StreamEvent::Finished { outcome: o } => {
                        outcome = Some(o);
                        break;
                    }
                }
            }
            if outcome.is_some() || !alive {
                let f = self.inflight.remove(i);
                finished.push(self.finish(f, outcome));
            } else {
                i += 1;
            }
        }
        finished
    }
}

/// Runs `script` — the client side of a workload, which returns the
/// samples it collected and the rounds it measured — against a live
/// front-end whose serving loop runs on a second thread, then shuts
/// the front-end down and folds its report into the phase.
fn frontend_phase(
    stack: &Stack,
    opts: &ServeOptions,
    inputs: &Inputs,
    script: impl FnOnce(&mut FrontendService<'_>) -> (Vec<Sample>, Vec<Round>),
) -> Res<Phase> {
    let t = stack.transformer();
    let requests: Vec<GenerationRequest> = inputs.blocks.concat();
    let (client, fe) = frontend(opts.clone());
    let epoch = Instant::now();
    let ((samples, rounds), report) = thread::scope(|s| -> Res<_> {
        let serving = s.spawn(|| fe.run(&stack.engine, &t));
        let out = script(&mut FrontendService {
            client: &client,
            requests: &requests,
            per_block: inputs.blocks[0].len(),
            epoch,
            alive: &|| !serving.is_finished(),
            inflight: Vec::new(),
        });
        client.shutdown();
        let report = serving.join().map_err(|_| "front-end thread panicked")??;
        Ok((out, report))
    })?;
    let mut agg = Agg::default();
    agg.add_frontend(&report);
    Ok(Phase {
        samples,
        rounds,
        wall_s: secs(epoch),
        agg,
    })
}

/// Closed loop through `core::frontend` with [`MAX_ACTIVE`] requests
/// outstanding. The first block's completions are warm-up; each later
/// group of one block's worth of completions is a round.
pub fn drive_chat(stack: &Stack, opts: &ServeOptions, inputs: &Inputs, seconds: f64) -> Res<Phase> {
    frontend_phase(stack, opts, inputs, |svc| {
        let (per_block, epoch, total) = (svc.per_block, svc.epoch, svc.requests.len());
        let mut measure_start = None;
        let samples = closed_loop(svc, total, MAX_ACTIVE, |done, submitted| {
            if measure_start.is_none() && done.len() >= per_block {
                measure_start = Some(done[per_block - 1].done_s);
            }
            // Always submit enough for one whole measured round.
            submitted < 2 * per_block + MAX_ACTIVE
                || measure_start.is_none_or(|t0| secs(epoch) - t0 < seconds)
        });

        // Completions after the last submission drain a shrinking
        // queue; they are not steady state and close no round.
        let last_submit = samples.iter().map(|s| s.submit_s).fold(0.0, f64::max);
        let mut rounds = Vec::new();
        for hi in (2 * per_block..=samples.len()).step_by(per_block) {
            let (start_s, end_s) = (samples[hi - per_block - 1].done_s, samples[hi - 1].done_s);
            if end_s > last_submit {
                break;
            }
            rounds.push(Round {
                start_s,
                end_s,
                samples: (hi - per_block..hi).collect(),
            });
        }
        (samples, rounds)
    })
}

/// `late_arrival`: each trial submits a long request, waits
/// [`LATE_DELAY`], submits a short probe, and waits for both — no
/// backlog carries from one trial to the next.
pub fn drive_late(stack: &Stack, opts: &ServeOptions, inputs: &Inputs, seconds: f64) -> Res<Phase> {
    frontend_phase(stack, opts, inputs, |svc| {
        let (per_block, epoch) = (svc.per_block, svc.epoch);
        let mut samples: Vec<Sample> = Vec::new();
        let mut rounds = Vec::new();
        let mut measure_start = 0.0;
        for b in 0..inputs.blocks.len() {
            if b == 1 {
                measure_start = secs(epoch);
            }
            if window_over(b, epoch, measure_start, seconds) {
                break;
            }
            let round_start = secs(epoch);
            let first_sample = samples.len();
            for trial in 0..per_block / 2 {
                let long = b * per_block + 2 * trial;
                svc.submit(long);
                thread::sleep(LATE_DELAY);
                svc.submit(long + 1);
                while samples.len() < first_sample + 2 * (trial + 1) {
                    let finished = svc.poll();
                    if finished.is_empty() {
                        thread::sleep(IDLE);
                    }
                    samples.extend(finished);
                }
            }
            if b >= 1 {
                rounds.push(Round {
                    start_s: round_start,
                    end_s: secs(epoch),
                    samples: (first_sample..samples.len()).collect(),
                });
            }
        }
        (samples, rounds)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A service that finishes requests a few polls after they were
    /// submitted and records how many it ever held at once.
    struct Fake {
        pending: Vec<(usize, u32)>,
        most_outstanding: usize,
        tick: u32,
    }

    impl Service for Fake {
        type Done = usize;

        fn submit(&mut self, idx: usize) {
            // Deterministic but irregular service times.
            let polls = 1 + (idx as u32 * 7 + self.tick) % 5;
            self.pending.push((idx, polls));
            self.most_outstanding = self.most_outstanding.max(self.pending.len());
        }

        fn poll(&mut self) -> Vec<usize> {
            self.tick += 1;
            for p in &mut self.pending {
                p.1 = p.1.saturating_sub(1);
            }
            let (done, rest) = self.pending.iter().partition(|p| p.1 == 0);
            self.pending = rest;
            done.into_iter().map(|(idx, _)| idx).collect()
        }
    }

    #[test]
    fn closed_loop_never_exceeds_its_cap_and_serves_everything() {
        for cap in [1, 3, 8] {
            let mut fake = Fake {
                pending: Vec::new(),
                most_outstanding: 0,
                tick: 0,
            };
            let done = closed_loop(&mut fake, 100, cap, |_, _| true);
            assert_eq!(fake.most_outstanding, cap);
            let mut sorted = done.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn closed_loop_stops_submitting_when_told_and_drains() {
        let mut fake = Fake {
            pending: Vec::new(),
            most_outstanding: 0,
            tick: 0,
        };
        let done = closed_loop(&mut fake, 100, 4, |done, _| done.len() < 10);
        assert!(fake.pending.is_empty());
        assert!((10..14).contains(&done.len()), "{}", done.len());
    }
}
