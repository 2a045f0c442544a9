//! Regenerates the paper's evaluation: every figure and table, or the
//! ones named with `--fig`, at `--seed N` (default 42).
//!
//! ```text
//! cargo run --release -q -p llmnpu-bench --bin paper [-- --fig NAME ... --seed N]
//! ```
//!
//! The default output is the committed `BENCH_paper.txt`; it reads no
//! clock, so any difference from that file is a change to a figure.

use std::process::ExitCode;

use llmnpu_bench::figures::{
    fig01_breakdown, fig02_graph_workflow, fig04_quant_methods, fig07_graph_designs,
    fig08_chunk_length, fig10_outlier_stats, fig11_outlier_channels, fig12_outlier_importance,
    fig13_bubbles, fig14_prefill_speed, fig15_energy, fig16_pruning_tradeoff, fig17_memory,
    fig18_gpu_npu, fig19_ablation, sec5_future_hw, table03_matmul, table05_e2e, table06_accuracy,
};

/// Prints one figure at a seed (figures without randomness ignore it).
type Figure = fn(u64) -> llmnpu_bench::Result;

/// Every figure and table, in file-name order — the order of the default run.
const FIGURES: &[(&str, Figure)] = &[
    ("fig01_breakdown", |_| fig01_breakdown::run()),
    ("fig02_graph_workflow", |_| fig02_graph_workflow::run()),
    ("fig04_quant_methods", fig04_quant_methods::run),
    ("fig07_graph_designs", |_| fig07_graph_designs::run()),
    ("fig08_chunk_length", |_| fig08_chunk_length::run()),
    ("fig10_outlier_stats", fig10_outlier_stats::run),
    ("fig11_outlier_channels", fig11_outlier_channels::run),
    ("fig12_outlier_importance", fig12_outlier_importance::run),
    ("fig13_bubbles", |_| fig13_bubbles::run()),
    ("fig14_prefill_speed", |_| fig14_prefill_speed::run()),
    ("fig15_energy", |_| fig15_energy::run()),
    ("fig16_pruning_tradeoff", fig16_pruning_tradeoff::run),
    ("fig17_memory", |_| fig17_memory::run()),
    ("fig18_gpu_npu", |_| fig18_gpu_npu::run()),
    ("fig19_ablation", |_| fig19_ablation::run()),
    ("sec5_future_hw", |_| sec5_future_hw::run()),
    ("table03_matmul", |_| table03_matmul::run()),
    ("table05_e2e", |_| table05_e2e::run()),
    ("table06_accuracy", table06_accuracy::run),
];

/// What one invocation runs.
struct Args {
    figures: Vec<&'static (&'static str, Figure)>,
    seed: u64,
}

/// Parses `--fig NAME` (repeatable) and `--seed N`; anything else, a
/// missing value, an unknown figure or a non-numeric seed is an error.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut seed = 42;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fig" => {
                let name = args.next().ok_or("--fig needs a figure name")?;
                let figure = FIGURES
                    .iter()
                    .find(|(n, _)| *n == name)
                    .ok_or_else(|| format!("unknown figure `{name}`"))?;
                figures.push(figure);
            }
            "--seed" => {
                let value = args.next().ok_or("--seed needs a number")?;
                seed = value
                    .parse()
                    .map_err(|_| format!("--seed `{value}` is not a number"))?;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if figures.is_empty() {
        figures = FIGURES.iter().collect();
    }
    Ok(Args { figures, seed })
}

fn usage() -> String {
    let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    format!(
        "usage: paper [--fig NAME]... [--seed N]\nfigures: {}",
        names.join(" ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paper: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for (name, run) in args.figures {
        if let Err(e) = run(args.seed) {
            eprintln!("paper: {name}: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| (*a).to_owned()))
    }

    fn names(args: &Args) -> Vec<&'static str> {
        args.figures.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn defaults_to_every_figure_in_file_name_order_at_seed_42() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.seed, 42);
        let all = names(&args);
        assert_eq!(all.len(), 19);
        assert!(all.windows(2).all(|w| w[0] < w[1]), "{all:?}");
    }

    #[test]
    fn fig_and_seed_select_in_the_given_order() {
        let args = parse(&[
            "--fig",
            "table03_matmul",
            "--seed",
            "7",
            "--fig",
            "fig01_breakdown",
        ]);
        let args = args.unwrap();
        assert_eq!(names(&args), ["table03_matmul", "fig01_breakdown"]);
        assert_eq!(args.seed, 7);
    }

    #[test]
    fn rejects_bad_seeds_unknown_figures_and_unknown_arguments() {
        for bad in [
            &["--seed", "4x2"][..],
            &["--seed"],
            &["--fig", "fig99_missing"],
            &["--fig"],
            &["--verbose"],
            &["fig01_breakdown"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
        let usage = usage();
        assert!(FIGURES.iter().all(|(name, _)| usage.contains(name)));
    }
}
