//! Trace-viewer demo: the chaos-harness workload (seeded faults, live
//! cancellation, a dead-on-arrival deadline, real memory pressure) run
//! with the full observability plane switched on — span/event tracing,
//! the metrics registry, and the wall-clock kernel probes — then every
//! export rendered to disk:
//!
//! * `target/trace_viewer/trace.json` — Chrome trace-event JSON; open
//!   it in <https://ui.perfetto.dev> or `chrome://tracing` to see one
//!   track per pool lane, per-request async envelopes, and flow arrows.
//! * `target/trace_viewer/flight.txt` — the plain-text flight recorder
//!   (most recent requests, spans + events merged).
//! * `target/trace_viewer/calibration.json` — per-(site, shape) kernel
//!   latency percentiles from the GEMM/GEMV/LUT probes.
//!
//! The demo validates the trace's shape with the same checker CI uses
//! and asserts every request in the serve report shows up in the trace.
//!
//! ```sh
//! cargo run --example trace_viewer
//! ```

use llmnpu::core::engine::{EngineConfig, LlmNpuEngine};
use llmnpu::core::faults::{FaultMode, FaultPlan, FaultSite, FaultSpec};
use llmnpu::core::serve::{GenerationRequest, PressurePolicy, ServeOptions};
use llmnpu::model::backend::FloatBackend;
use llmnpu::model::config::ModelConfig;
use llmnpu::model::forward::Transformer;
use llmnpu::model::weights::{synthesize, OutlierSpec};
use llmnpu::obs::chrome::{chrome_trace_json, validate_chrome_trace};
use llmnpu::obs::flight::flight_recorder;
use llmnpu::obs::Observability;
use llmnpu::soc::spec::SocSpec;
use llmnpu::tensor::kernel::probe;
use llmnpu::workloads::traces::{ArrivalTrace, LengthMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Injected panics are part of the script — keep their backtraces
    // out of the demo output (same hook as the chaos example).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let scripted = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("injected"));
        if !scripted {
            default_hook(info);
        }
    }));

    let numeric_cfg = ModelConfig::qwen15_18b().scaled_down(48, 2, 96)?;
    let weights = synthesize(&numeric_cfg, 7, OutlierSpec::default())?;
    let float = FloatBackend::new(weights.clone());
    let t = Transformer::new(&weights, &float);

    let mut cfg = EngineConfig::llmnpu(ModelConfig::qwen15_18b(), SocSpec::snapdragon_8gen3());
    cfg.chunk_len = 6;
    let engine = LlmNpuEngine::new(cfg)?;

    // The chaos workload: heavy-tail arrivals, seeded fault plan plus a
    // scripted transient panic and a scripted permanent error, one
    // pre-cancelled request and one impossible deadline.
    let mix = LengthMix::heavy_tail(11, 24, 5, 24);
    let trace = ArrivalTrace::heavy_tail(11, 1.5, 1.1, mix.len());
    let (cancelled_up_front, dead_on_arrival) = (3usize, 7usize);
    let requests: Vec<GenerationRequest> = mix
        .shapes
        .iter()
        .zip(&trace.arrivals_ms)
        .enumerate()
        .map(|(i, (&(prompt_len, max_new), &arrival))| {
            let mut r = GenerationRequest::synthetic(i, prompt_len, max_new, numeric_cfg.vocab)
                .with_arrival_ms(arrival);
            if i == cancelled_up_front {
                r.cancel.cancel();
            }
            if i == dead_on_arrival {
                r = r.with_arrival_ms(0.0).with_deadline_ms(0.0);
            }
            r
        })
        .collect();
    let plan = FaultPlan::seeded(2025, requests.len(), 0.7)
        .with_fault(FaultSpec {
            request: 0,
            attempt: 1,
            site: FaultSite::Prefill { chunk: 0, layer: 0 },
            mode: FaultMode::Panic,
            permanent: false,
        })
        .with_fault(FaultSpec {
            request: 1,
            attempt: 1,
            site: FaultSite::Decode { step: 0 },
            mode: FaultMode::Error,
            permanent: true,
        });

    let block_tokens = 4usize;
    let needs: Vec<usize> = requests
        .iter()
        .map(|r| r.total_tokens().div_ceil(block_tokens))
        .collect();
    let pool_blocks = (needs.iter().sum::<usize>() / 5).max(*needs.iter().max().unwrap());

    // The full observability bundle: tracing on, kernel probes feeding
    // the calibration table.
    let obs = Observability::enabled();
    probe::install(obs.kernel_probe());

    let opts = ServeOptions {
        max_active: 6,
        block_tokens,
        kv_pool_blocks: Some(pool_blocks),
        pressure: PressurePolicy::EvictYoungest,
        decode_batch: 2,
        share_prefixes: true,
        max_retries: 2,
        retry_backoff_ms: 1.0,
        faults: Some(plan),
        obs: Some(obs.clone()),
        ..ServeOptions::default()
    };
    let report = engine.serve(&t, &requests, &opts)?;
    probe::uninstall();

    println!(
        "served {} requests under chaos: {} completed, makespan {:.1} ms",
        report.requests.len(),
        report
            .requests
            .iter()
            .filter(|o| o.status.is_completed())
            .count(),
        report.makespan_ms(),
    );

    // Export everything the run recorded.
    let out_dir = std::path::Path::new("target/trace_viewer");
    std::fs::create_dir_all(out_dir)?;
    let log = obs.sink.snapshot();

    let chrome = chrome_trace_json(&log);
    let check = validate_chrome_trace(&chrome).map_err(|e| format!("invalid trace: {e}"))?;
    std::fs::write(out_dir.join("trace.json"), &chrome)?;
    println!(
        "trace.json: {} records ({} slices on {} tracks, {} request envelopes) — load it in ui.perfetto.dev",
        check.records, check.slices, check.tracks, check.async_pairs
    );

    let flight = flight_recorder(&log, 4);
    std::fs::write(out_dir.join("flight.txt"), &flight)?;
    println!(
        "flight.txt: {} lines (4 most recent requests)",
        flight.lines().count()
    );

    assert!(
        !obs.calibration.is_empty(),
        "kernel probes recorded nothing"
    );
    assert!(
        obs.calibration.rows().iter().any(|r| r.site == "attention"),
        "the CPU lane's largest operator is missing from the calibration table"
    );
    std::fs::write(out_dir.join("calibration.json"), obs.calibration.to_json())?;
    println!(
        "calibration.json: {} (site, shape) rows",
        obs.calibration.len()
    );

    // Every request the report knows about must appear in the trace —
    // as spans for requests that ran, or at least as admission /
    // cancel / deadline events for the ones that never dispatched.
    for outcome in &report.requests {
        let r = outcome.request;
        let traced = log.spans.iter().any(|s| s.request == Some(r))
            || log.events.iter().any(|e| e.request == Some(r));
        assert!(
            traced,
            "request {r} ({:?}) missing from trace",
            outcome.status
        );
    }
    println!(
        "asserts passed: trace validates, every request appears, calibration has attention rows."
    );

    println!("\n--- metrics registry ---");
    print!("{}", report.metrics.render());
    Ok(())
}
