//! `llmnpu-benchmark`: the repository's serving benchmark.
//!
//! ```text
//! llmnpu-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! llmnpu-benchmark spec [--markdown]    # print BENCHMARK.json, or README's metric tables
//! llmnpu-benchmark compare SET_A SET_B  # two result sets against the bounds
//! llmnpu-benchmark validate DIR         # check emitted result and trace files
//! ```
//!
//! One invocation runs one workload in one mode: `--trace 0` measures
//! the end-to-end metrics with tracing off; `--trace 1` serves the
//! same inputs untraced and traced, then replays them layer by layer
//! for the per-layer metrics and writes a Chrome trace. The last line
//! of standard output is the result as one JSON object.

mod check;
mod compare;
mod drive;
mod e2e;
mod inputs;
mod json;
mod layers;
mod spans;
mod spec;
mod stack;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use llmnpu::core::serve::ServeOptions;
use llmnpu::obs::Observability;
use llmnpu::tensor::kernel::probe;

use check::Verdict;
use drive::Phase;
use inputs::Inputs;
use json::{Obj, Val};
use stack::Stack;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Metric values by name, in the spec's order.
type Metrics = Vec<(&'static str, f64)>;

/// What one run produced: its verdict, its metrics, and details for the
/// result file.
type Outcome = (Verdict, Metrics, Obj);

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        workload: String::new(),
        seed: 29,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse()?,
            "--seconds" => args.seconds = value()?.parse()?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}").into()),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}").into()),
        }
    }
    if !spec::is_workload(&args.workload) {
        let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}").into());
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

fn drive_workload(
    workload: &str,
    stack: &Stack,
    opts: &ServeOptions,
    inputs: &Inputs,
    seconds: f64,
) -> Res<Phase> {
    match workload {
        spec::PREFILL_LONG => drive::drive_serve(stack, opts, inputs, seconds, true),
        spec::DECODE_BATCH => drive::drive_serve(stack, opts, inputs, seconds, false),
        spec::CHAT_SHARED_PREFIX => drive::drive_chat(stack, opts, inputs, seconds),
        _ => drive::drive_late(stack, opts, inputs, seconds),
    }
}

/// A run that failed its correctness gate exits non-zero.
pub fn exit_code(verdict: &Verdict) -> ExitCode {
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Tracing off: set up, serve for `--seconds`, check; then set up
/// again for the remaining `setup_s` samples. The repeats come last so
/// that `peak_rss_mb` is the footprint of one set-up, not of what the
/// allocator kept from earlier ones.
fn run_end_to_end(args: &Args) -> Res<Outcome> {
    let timed_setup = || -> Res<(Stack, f64)> {
        let start = Instant::now();
        let stack = Stack::build(&args.workload, args.smoke)?;
        Ok((stack, start.elapsed().as_secs_f64()))
    };
    let (stack, first_setup_s) = timed_setup()?;
    let inputs = inputs::generate(&args.workload, args.seed, args.smoke);
    let phase = drive_workload(
        &args.workload,
        &stack,
        &stack::serve_options(),
        &inputs,
        args.seconds,
    )?;
    let verdict = check::check(&stack, &args.workload, &inputs, &phase.samples, true)?;
    let served = e2e::metrics(&args.workload, &phase);
    drop(stack);

    let mut setup_s = vec![first_setup_s];
    for _ in 1..if args.smoke { 1 } else { SETUPS } {
        setup_s.push(timed_setup()?.1);
    }
    let mut metrics = vec![("setup_s", stats::median(&setup_s).unwrap_or(0.0))];
    metrics.extend(served);
    let mut info = Obj::new();
    let round_s = phase.rounds.iter().map(|r| Val::Num(r.end_s - r.start_s));
    info.put("round_s", Val::Arr(round_s.collect()));
    info.put(
        "setup_s",
        Val::Arr(setup_s.into_iter().map(Val::Num).collect()),
    );
    info.num(
        "latency_samples",
        e2e::latency_samples(&args.workload, &phase).count() as f64,
    );
    info.num(
        "tpot_samples",
        e2e::gaps_ms(&args.workload, &phase).len() as f64,
    );
    info.num("solo_checked", verdict.solo_checked as f64);
    Ok((verdict, metrics, info))
}

/// The traced pass: the same blocks served with tracing off and on,
/// then replayed layer by layer.
fn run_traced(args: &Args) -> Res<Outcome> {
    let stack = Stack::build(&args.workload, args.smoke)?;
    let inputs = inputs::generate(&args.workload, args.seed, args.smoke);
    // A third of the window each for the two serving phases; the replay
    // takes what it takes (a few seconds).
    let serve_seconds = args.seconds / 3.0;
    let untraced = drive_workload(
        &args.workload,
        &stack,
        &stack::serve_options(),
        &inputs,
        serve_seconds,
    )?;

    let obs = Observability::enabled();
    probe::install(obs.kernel_probe());
    let opts = ServeOptions {
        obs: Some(obs.clone()),
        ..stack::serve_options()
    };
    let traced = drive_workload(&args.workload, &stack, &opts, &inputs, serve_seconds);
    probe::uninstall();
    let traced = traced?;

    // The tracing-off path is held to its solo runs by every
    // `--trace 0` run; here that scrutiny goes to the traced streams.
    let verdict = check::check(&stack, &args.workload, &inputs, &untraced.samples, false)?.merge(
        check::check(&stack, &args.workload, &inputs, &traced.samples, true)?,
    );
    let mut trace = spans::Trace::new();
    let values = layers::per_layer(
        &layers::Pass {
            workload: &args.workload,
            stack: &stack,
            inputs: &inputs,
            untraced: &untraced,
            traced: &traced,
            log: &obs.sink.snapshot(),
            kernels: &obs.calibration.rows(),
            verdict,
            iters: if args.smoke { 2 } else { 5 },
        },
        &mut trace,
    )?;
    std::fs::create_dir_all(&args.out)?;
    let trace_path = args.out.join(format!("{}.trace.json", args.workload));
    std::fs::write(&trace_path, trace.chrome_json())?;

    let metrics = spec::PER_LAYER
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied();
            (
                m.name,
                value.unwrap_or_else(|| panic!("{} was not measured", m.name)),
            )
        })
        .collect();
    let mut info = Obj::new();
    for (key, phase) in [("untraced_round_s", &untraced), ("traced_round_s", &traced)] {
        let walls = phase.rounds.iter().map(|r| Val::Num(r.end_s - r.start_s));
        info.put(key, Val::Arr(walls.collect()));
    }
    for (key, phase) in [
        ("untraced_ttft_ms_p50", &untraced),
        ("traced_ttft_ms_p50", &traced),
    ] {
        let ttft = e2e::ttfts_ms(&args.workload, phase);
        info.num(key, stats::median(&ttft).unwrap_or(0.0));
    }
    info.num("harness_spans", trace.spans.len() as f64);
    info.str("trace_file", &trace_path.display().to_string());
    info.num("solo_checked", verdict.solo_checked as f64);
    Ok((verdict, metrics, info))
}

fn unit_of(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(spec::PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, unit)| unit)
}

/// The human-readable table: every metric by name, with its unit.
pub fn render_table(metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::new();
    for (name, value) in metrics {
        out.push_str(&format!("{name:<36} {value:>16.4} {}\n", unit_of(name)));
    }
    out
}

/// The result object: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(verdict: &Verdict, metrics: &[(&'static str, f64)]) -> Obj {
    let mut table = Obj::new();
    for (name, value) in metrics {
        let mut m = Obj::new();
        // A metric that could not be computed reads as 0, never as a
        // non-number.
        m.num("value", if value.is_finite() { *value } else { 0.0 });
        m.str("unit", unit_of(name));
        table.obj(name, m);
    }
    let mut root = Obj::new();
    root.bool("correct", verdict.correct());
    root.num("attempted", verdict.attempted as f64);
    root.num("failed", verdict.failed as f64);
    root.obj("metrics", table);
    root
}

fn write_result_file(args: &Args, result: Obj, info: Obj) -> Res<PathBuf> {
    let mut file = Obj::new();
    file.str("workload", &args.workload);
    file.num("seed", args.seed as f64);
    file.num("seconds", args.seconds);
    file.bool("smoke", args.smoke);
    let mut host = Obj::new();
    host.num(
        "nproc",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    host.num("pool_lanes", stack::POOL_WORKERS as f64);
    host.num("kernel_threads_per_lane", 1.0);
    host.bool("fma", cfg!(target_feature = "fma"));
    file.obj("host", host);
    file.obj("info", info);
    file.obj("result", result);
    std::fs::create_dir_all(&args.out)?;
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{}.{kind}.json", args.workload));
    std::fs::write(&path, file.render_pretty())?;
    Ok(path)
}

fn run(argv: &[String]) -> Res<ExitCode> {
    match argv.first().map(String::as_str) {
        Some("spec") => {
            let markdown = argv.get(1).is_some_and(|a| a == "--markdown");
            print!(
                "{}",
                if markdown {
                    spec::markdown()
                } else {
                    spec::benchmark_json()
                }
            );
            return Ok(ExitCode::SUCCESS);
        }
        Some("compare") => {
            let [_, a, b] = argv else {
                return Err("usage: compare SET_A SET_B".into());
            };
            return compare::compare(Path::new(a), Path::new(b));
        }
        Some("validate") => {
            let [_, dir] = argv else {
                return Err("usage: validate DIR".into());
            };
            return compare::validate(Path::new(dir));
        }
        _ => {}
    }
    let args = parse_args(argv)?;
    let (verdict, metrics, info) = if args.trace {
        run_traced(&args)?
    } else {
        run_end_to_end(&args)?
    };
    let result = result_json(&verdict, &metrics);
    let line = result.render_compact();
    let path = write_result_file(&args, result, info)?;
    println!(
        "# {} seed={} seconds={} trace={} -> {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        path.display()
    );
    print!("{}", render_table(&metrics));
    println!(
        "# attempted={} failed={} solo_checked={}",
        verdict.attempted, verdict.failed, verdict.solo_checked
    );
    println!("{line}");
    Ok(exit_code(&verdict))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("llmnpu-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every metric of the contract appears, by name and with its
    /// unit, in the table a run prints.
    #[test]
    fn every_metric_is_in_the_printed_table() {
        let e2e: Vec<(&'static str, f64)> =
            spec::END_TO_END.iter().map(|m| (m.name, 1.5)).collect();
        let layers: Vec<(&'static str, f64)> =
            spec::PER_LAYER.iter().map(|m| (m.name, 2.5)).collect();
        let (e2e_table, layer_table) = (render_table(&e2e), render_table(&layers));
        for m in &spec::END_TO_END {
            let row = e2e_table.lines().find(|l| l.starts_with(m.name)).unwrap();
            assert!(row.trim_end().ends_with(m.unit), "{row}");
        }
        for m in &spec::PER_LAYER {
            let row = layer_table
                .lines()
                .find(|l| l.split_whitespace().next() == Some(m.name))
                .unwrap();
            assert!(row.trim_end().ends_with(m.unit), "{row}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&argv(
            "--workload late_arrival --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--workload late_arrival --trace 2")).is_err());
        assert!(parse_args(&argv("--workload late_arrival --seconds 0")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
    }
}
