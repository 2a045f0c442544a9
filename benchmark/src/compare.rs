//! Reading result files back: `compare` judges two result sets
//! against the bounds in the spec, `validate` checks that a directory
//! of emitted files is complete and loadable.
//!
//! A result set is a directory of the `*.e2e.json` / `*.layers.json`
//! files runs write, any number per workload (one per seed).

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use llmnpu::obs::json::Json;

use crate::spec::{self, Better};
use crate::stats::median;
use crate::Res;

/// Counts that must repeat exactly between two runs of one seed.
const EXACT: [&str; 5] = [
    "workloads.inputs_hash",
    "kv.leaked_blocks",
    "client.fail_frac",
    "soc.sim_prefill_tok_s",
    "soc.sim_prefill_energy_j",
];

struct ResultFile {
    workload: String,
    seed: u64,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn read_result(path: &Path) -> Res<ResultFile> {
    let text = std::fs::read_to_string(path)?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let field = |j: &Json, key: &str| -> Res<Json> {
        Ok(j.get(key)
            .ok_or(format!("{}: no `{key}`", path.display()))?
            .clone())
    };
    let result = field(&json, "result")?;
    let Json::Obj(table) = field(&result, "metrics")? else {
        return Err(format!("{}: `metrics` is not an object", path.display()).into());
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in table {
        let value = field(&m, "value")?.as_f64();
        metrics.insert(
            name,
            value.ok_or(format!("{}: non-numeric value", path.display()))?,
        );
    }
    let attempted = field(&result, "attempted")?.as_f64().unwrap_or(0.0);
    if attempted < 1.0 || field(&result, "failed")?.as_f64().is_none() {
        return Err(format!("{}: bad attempted/failed", path.display()).into());
    }
    Ok(ResultFile {
        workload: field(&json, "workload")?
            .as_str()
            .unwrap_or_default()
            .to_owned(),
        seed: field(&json, "seed")?.as_f64().unwrap_or(0.0) as u64,
        correct: field(&result, "correct")? == Json::Bool(true),
        metrics,
    })
}

/// Every result file of `dir` whose name ends in `suffix`, sorted.
fn read_set(dir: &Path, suffix: &str) -> Res<Vec<ResultFile>> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.to_string_lossy().ends_with(suffix))
        .collect();
    paths.sort();
    paths.iter().map(|p| read_result(p)).collect()
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them, as a share of the
/// median; `None` for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / median(&v)?)
}

/// How much worse `b` is than `a`, as a share of `a` (negative when
/// better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// The verdict for one metric on one workload.
pub fn judge(worse: f64, spread: Option<f64>, bound: f64) -> &'static str {
    if spread.is_some_and(|s| s > bound) {
        "unresolved"
    } else if worse > bound {
        "WORSE"
    } else {
        "ok"
    }
}

pub fn compare(a_dir: &Path, b_dir: &Path) -> Res<ExitCode> {
    let (a, b) = (read_set(a_dir, ".e2e.json")?, read_set(b_dir, ".e2e.json")?);
    let mut bad = 0;
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "worse", "spread A", "spread B", "bound"
    );
    for w in &spec::WORKLOADS {
        let of = |set: &[ResultFile], name: &str| -> Vec<f64> {
            set.iter()
                .filter(|r| r.workload == w.name)
                .filter_map(|r| r.metrics.get(name).copied())
                .collect()
        };
        for m in &spec::END_TO_END {
            let (va, vb) = (of(&a, m.name), of(&b, m.name));
            let (Some(ma), Some(mb)) = (median(&va), median(&vb)) else {
                println!("{:<20} {:<14} missing in one set", w.name, m.name);
                bad += 1;
                continue;
            };
            let (sa, sb) = (quartile_spread(&va), quartile_spread(&vb));
            let worse = worsening(m.better, ma, mb);
            // Set-up time is held to its bound on the medians only.
            let spread = if m.name == "setup_s" {
                None
            } else {
                sa.into_iter().chain(sb).reduce(f64::max)
            };
            let verdict = judge(worse, spread, m.bound);
            bad += usize::from(verdict != "ok");
            let pct = |x: Option<f64>| x.map_or("-".to_owned(), |x| format!("{:.1}%", x * 100.0));
            println!(
                "{:<20} {:<14} {:>12.4} {:>12.4} {:>8} {:>8} {:>8} {:>6}  {verdict}",
                w.name,
                m.name,
                ma,
                mb,
                pct(Some(worse)),
                pct(sa),
                pct(sb),
                pct(Some(m.bound)),
            );
        }
    }
    for r in a.iter().chain(&b).filter(|r| !r.correct) {
        println!("{} seed {}: run was not correct", r.workload, r.seed);
        bad += 1;
    }

    // Counts that repeat exactly for a seed, where both sets traced it.
    let (la, lb) = (
        read_set(a_dir, ".layers.json")?,
        read_set(b_dir, ".layers.json")?,
    );
    for ra in &la {
        let Some(rb) = lb
            .iter()
            .find(|r| r.workload == ra.workload && r.seed == ra.seed)
        else {
            continue;
        };
        for name in EXACT {
            let same = ra.metrics.get(name) == rb.metrics.get(name);
            bad += usize::from(!same);
            println!(
                "{:<20} seed {:<4} {:<28} {}",
                ra.workload,
                ra.seed,
                name,
                if same { "exact" } else { "DIFFERS" }
            );
        }
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// Checks that `dir` holds, for every workload, a correct end-to-end
/// result with every end-to-end metric, a per-layer result with every
/// per-layer metric, and a Chrome trace that parses and has slices.
pub fn validate(dir: &Path) -> Res<ExitCode> {
    let (e2e, layers) = (read_set(dir, ".e2e.json")?, read_set(dir, ".layers.json")?);
    let mut problems = Vec::new();
    for w in &spec::WORKLOADS {
        let end_to_end: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
        let per_layer: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
        for (kind, set, names) in [("e2e", &e2e, end_to_end), ("layers", &layers, per_layer)] {
            let Some(r) = set.iter().find(|r| r.workload == w.name) else {
                problems.push(format!("{}: no {kind} result", w.name));
                continue;
            };
            if !r.correct {
                problems.push(format!("{}: {kind} run not correct", w.name));
            }
            let got: Vec<&str> = r.metrics.keys().map(String::as_str).collect();
            let mut want = names.clone();
            want.sort_unstable();
            if got != want {
                problems.push(format!(
                    "{}: {kind} metric names differ from the spec",
                    w.name
                ));
            }
            if kind == "e2e" {
                for (name, value) in &r.metrics {
                    if *value <= 0.0 {
                        problems.push(format!("{}: {name} is {value}", w.name));
                    }
                }
            }
        }
        let trace = dir.join(format!("{}.trace.json", w.name));
        let slices = std::fs::read_to_string(&trace)
            .map_err(|e| e.to_string())
            .and_then(|text| Json::parse(&text))
            .map(|json| {
                json.get("traceEvents")
                    .and_then(Json::as_arr)
                    .map_or(0, |events| {
                        events
                            .iter()
                            .filter(|e| {
                                e.get("ph").and_then(Json::as_str) == Some("X")
                                    && e.get("ts").and_then(Json::as_f64).is_some()
                                    && e.get("dur").and_then(Json::as_f64).is_some()
                            })
                            .count()
                    })
            });
        match slices {
            Ok(n) if n > 0 => println!("{}: trace has {n} slices", w.name),
            Ok(_) => problems.push(format!("{}: trace has no slices", w.name)),
            Err(e) => problems.push(format!("{}: {e}", trace.display())),
        }
    }
    for p in &problems {
        println!("INVALID {p}");
    }
    if problems.is_empty() {
        println!(
            "valid: {} workloads, end-to-end + per-layer + trace",
            spec::WORKLOADS.len()
        );
    }
    Ok(if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v).unwrap() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let v = [16.0, 1.0, 4.0, 2.0, 8.0];
        assert!((quartile_spread(&v).unwrap() - (12.0 - 1.5) / 4.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
    }

    #[test]
    fn worse_is_signed_by_direction() {
        assert!((worsening(Better::Lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_ok() {
        assert_eq!(judge(0.02, Some(0.03), 0.08), "ok");
        assert_eq!(judge(0.12, Some(0.03), 0.08), "WORSE");
        assert_eq!(judge(0.02, Some(0.09), 0.08), "unresolved");
        assert_eq!(judge(0.12, Some(0.09), 0.08), "unresolved");
        assert_eq!(judge(-0.5, None, 0.08), "ok");
    }
}
