//! The benchmark's contract: workload names, every metric with its
//! unit, direction and (end-to-end only) regression bound, and what
//! each per-layer metric is expected to move. `BENCHMARK.json` at the
//! repository root is rendered from these tables (`spec` subcommand)
//! and a unit test keeps the two in step.

use crate::json::Obj;

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 16;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const PREFILL_LONG: &str = "prefill_long";
pub const DECODE_BATCH: &str = "decode_batch";
pub const CHAT_SHARED_PREFIX: &str = "chat_shared_prefix";
pub const LATE_ARRIVAL: &str = "late_arrival";

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: PREFILL_LONG,
        why: "505-827-token UI-automation prompts, one at a time, shadow-int8 backend: the paper's headline; m=32 chunk GEMMs, chunked DAG and OOO executor dominate, prefix cache only inserts",
    },
    Workload {
        name: DECODE_BATCH,
        why: "waves of 8 short prompts decoding 96 tokens each on int4 LUT weights: m=1..8 decode steps, per-step dispatch, paged attention over a growing history and the token sink dominate; prefill is minor",
    },
    Workload {
        name: CHAT_SHARED_PREFIX,
        why: "8 outstanding chat requests over 4 shared system prompts through the front-end, 256-page pool: the only workload where prefix-cache hits, LRU eviction and multi-request batches carry load",
    },
    Workload {
        name: LATE_ARRIVAL,
        why: "a 32-token probe submitted 50 ms into a 512-token prefill through the front-end: isolates the batch-at-a-time wait; latencies are over the probes only",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Metrics a client of the serving stack sees; measured with tracing
/// off, defined (and non-zero) on every workload.
///
/// The timing bounds sit at the contract's cap. The host the bounds
/// were set on is a shared 2-vCPU VM whose speed drifts by up to 30 %
/// over tens of seconds (FMA rate 123-163 GFLOP/s, a cold f32 GEMV
/// 9-23 GB/s between back-to-back runs); ten runs of one workload
/// spread over 6-7 % of their median in a quiet quarter of an hour and
/// over 12-23 % in a noisy one (`README.md`, "Steadiness"). A tighter
/// bound would reject innocent changes; claims are settled by the
/// alternating-pairs procedure, not by this gate.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "req_s",
        unit: "req/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "prompt_tok_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "gen_tok_s",
        unit: "tok/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "ttft_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "e2e_ms_p50",
        unit: "ms",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Lower,
        bound: 0.05,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Which end-to-end metric, on which workload, it should move.
    pub moves: &'static str,
}

impl PerLayer {
    /// The layer is the crate name: the part before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const PREFILL_MOVES: &str = "prompt_tok_s, ttft_ms_p50 on prefill_long; no move on decode_batch";
const F32_DECODE_MOVES: &str = "tpot_ms_p50, gen_tok_s on chat_shared_prefix";
const LUT_MOVES: &str = "gen_tok_s, tpot_ms_p50 on decode_batch only";
const ROOFLINE: &str = "context, not a target";
const KERNEL_MOVES: &str = "the throughput metric the workload headlines";
const SHADOW_MOVES: &str = "prompt_tok_s on prefill_long only";
const CHUNK_MOVES: &str = "ttft_ms_p50 on prefill_long, late_arrival";
const STEP_MOVES: &str = "tpot_ms_p50, gen_tok_s on decode_batch, chat_shared_prefix";
const GRAPH_MOVES: &str =
    "ttft_ms_p50 on late_arrival (short probe); nothing measurable on decode_batch";
const VERIFY_MOVES: &str =
    "req_s on chat_shared_prefix (many small batches); ~0 share on prefill_long";
const DISPATCH_MOVES: &str =
    "tpot_ms_p50 on decode_batch (one dispatch per step), ttft_ms_p50 on prefill_long";
const LANE_MOVES: &str = "prompt_tok_s on prefill_long";
const KV_OP_MOVES: &str = "req_s on chat_shared_prefix; insert is also paid, with no hit to repay it, on prefill_long and late_arrival";
const KV_COUNT_MOVES: &str = "prompt_tok_s, ttft_ms_p50 on chat_shared_prefix";
const CORE_MOVES: &str =
    "ttft_ms_p50 on late_arrival, req_s on chat_shared_prefix; 0 on serve-driven workloads";
const SOC_MOVES: &str = "the paper's simulated-SoC numbers over the workload's prompt lengths; move only when the timing plane changes";
const OBS_MOVES: &str =
    "should stay small on every workload; the bound a later obs change is held to";
const CLIENT_MOVES: &str =
    "tail of the end-to-end latency; 0 where fewer than ten samples lie beyond it";

/// Per-layer metrics, from the traced/replay pass. 0 means "not
/// defined on this workload" for latencies and percentiles.
pub const PER_LAYER: [PerLayer; 69] = [
    pl("tensor.gemm_f32_m32_gflops", "GFLOP/s", Higher, PREFILL_MOVES),
    pl("tensor.gemm_i8_m32_gops", "Gop/s", Higher, PREFILL_MOVES),
    pl("tensor.gemv_f32_m1_gbs", "GB/s", Higher, F32_DECODE_MOVES),
    pl("tensor.gemm_f32_m8_gflops", "GFLOP/s", Higher, F32_DECODE_MOVES),
    pl("tensor.lut_i4_m1_gbs", "GB/s", Higher, LUT_MOVES),
    pl("tensor.lut_i4_m8_gops", "Gop/s", Higher, LUT_MOVES),
    pl("tensor.roofline_stream_gbs", "GB/s", Higher, ROOFLINE),
    pl("tensor.roofline_fma_gflops", "GFLOP/s", Higher, ROOFLINE),
    pl("tensor.gemm_f32_m32_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.gemm_i8_m32_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.gemv_f32_m1_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.gemm_f32_m8_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.lut_i4_m1_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.lut_i4_m8_roofline_frac", "frac", Higher, ROOFLINE),
    pl("tensor.kernel_calls", "count", Lower, KERNEL_MOVES),
    pl("tensor.kernel_busy_frac", "frac", Higher, KERNEL_MOVES),
    pl("quant.shadow_overhead_frac", "frac", Lower, SHADOW_MOVES),
    pl("quant.outlier_extract_us", "us", Lower, SHADOW_MOVES),
    pl("model.prefill_chunk_ms_h0", "ms", Lower, CHUNK_MOVES),
    pl("model.prefill_chunk_ms_h320", "ms", Lower, CHUNK_MOVES),
    pl("model.prefill_chunk_ms_h640", "ms", Lower, CHUNK_MOVES),
    pl("model.attn_paged_us_kv64", "us", Lower, CHUNK_MOVES),
    pl("model.attn_paged_us_kv640", "us", Lower, CHUNK_MOVES),
    pl("model.decode_step_ms_b1", "ms", Lower, STEP_MOVES),
    pl("model.decode_step_ms_b8", "ms", Lower, STEP_MOVES),
    pl("model.batch8_speedup", "x", Higher, "gen_tok_s up, tpot_ms_p50 up with larger batches on decode_batch, chat_shared_prefix"),
    pl("graph.dag_build_us_per_req", "us", Lower, GRAPH_MOVES),
    pl("graph.tasks_per_req", "count", Lower, GRAPH_MOVES),
    pl("graph.padding_frac", "frac", Lower, GRAPH_MOVES),
    pl("verify.verify_us_per_task", "us", Lower, VERIFY_MOVES),
    pl("verify.tasks_per_batch", "count", Lower, VERIFY_MOVES),
    pl("core.plan_verify_ms_per_batch", "ms", Lower, VERIFY_MOVES),
    pl("core.plan_verify_frac", "frac", Lower, VERIFY_MOVES),
    pl("sched.dispatch_us_per_task", "us", Lower, DISPATCH_MOVES),
    pl("sched.pool_roundtrip_us", "us", Lower, DISPATCH_MOVES),
    pl("sched.tasks_per_req", "count", Lower, DISPATCH_MOVES),
    pl("sched.lane_busy_frac_npu", "frac", Higher, LANE_MOVES),
    pl("sched.lane_busy_frac_cpu", "frac", Higher, LANE_MOVES),
    pl("sched.lane_idle_frac", "frac", Lower, LANE_MOVES),
    pl("sched.decode_busy_frac", "frac", Higher, "share of lane busy time in decode steps: >0.8 on decode_batch, <0.05 on prefill_long"),
    pl("kv.reserve_release_us", "us", Lower, KV_OP_MOVES),
    pl("kv.prefix_lookup_us", "us", Lower, KV_OP_MOVES),
    pl("kv.prefix_insert_us", "us", Lower, KV_OP_MOVES),
    pl("kv.evict_lru_us_per_block", "us", Lower, KV_OP_MOVES),
    pl("kv.prefix_hit_token_frac", "frac", Higher, KV_COUNT_MOVES),
    pl("kv.evicted_blocks", "count", Lower, KV_COUNT_MOVES),
    pl("kv.peak_used_frac", "frac", Lower, KV_COUNT_MOVES),
    pl("kv.cow_copies", "count", Lower, KV_COUNT_MOVES),
    pl("kv.leaked_blocks", "count", Lower, "must be 0 on every workload"),
    pl("core.batches", "count", Lower, CORE_MOVES),
    pl("core.batch_size_mean", "count", Higher, CORE_MOVES),
    pl("core.frontend_wait_ms_p50", "ms", Lower, "ttft_ms_p50 on late_arrival: the number iteration-level admission must collapse"),
    pl("core.serve_busy_frac", "frac", Higher, CORE_MOVES),
    pl("core.retries", "count", Lower, CORE_MOVES),
    pl("core.preemptions", "count", Lower, CORE_MOVES),
    pl("core.unattributed_frac", "frac", Lower, "the residual no replayed call explains (planner, locks, idle, channel); negative when lanes overlap work the serial replay runs back to back"),
    pl("soc.sim_prefill_tok_s", "tok/s", Higher, SOC_MOVES),
    pl("soc.sim_prefill_energy_j", "J", Lower, SOC_MOVES),
    pl("soc.sim_npu_bubble_rate", "frac", Lower, SOC_MOVES),
    pl("soc.sim_host_us_per_task", "us", Lower, "host cost of the simulator itself"),
    pl("obs.trace_overhead_frac", "frac", Lower, OBS_MOVES),
    pl("obs.spans_per_req", "count", Lower, OBS_MOVES),
    pl("workloads.gen_ms", "ms", Lower, "setup_s: input generation cost"),
    pl("workloads.inputs_hash", "hash", Lower, "low 32 bits of a hash of the generated requests: same seed, same value"),
    pl("client.ttft_ms_p90", "ms", Lower, CLIENT_MOVES),
    pl("client.tpot_ms_p50", "ms", Lower, "client-observed gap between successive tokens of one stream, tracing off; 8 / gen_tok_s on decode_batch"),
    pl("client.tpot_ms_p95", "ms", Lower, CLIENT_MOVES),
    pl("client.latency_samples", "count", Higher, "how many requests the latency percentiles pool"),
    pl("client.fail_frac", "frac", Lower, "must be 0: requests not Completed or streams differing from solo generate, over attempted"),
];

pub fn is_workload(name: &str) -> bool {
    WORKLOADS.iter().any(|w| w.name == name)
}

/// Renders `BENCHMARK.json` (exactly the keys the driver accepts).
pub fn benchmark_json() -> String {
    let mut root = Obj::new();
    root.strs("command", &["bash", "benchmark/run.sh"]);
    root.strs("paths", &["benchmark"]);
    root.num("run_seconds", f64::from(RUN_SECONDS));
    root.objs(
        "workloads",
        WORKLOADS.iter().map(|w| {
            let mut o = Obj::new();
            o.str("name", w.name);
            o.str("why", w.why);
            o
        }),
    );
    root.objs(
        "end_to_end",
        END_TO_END.iter().map(|m| {
            let mut o = Obj::new();
            o.str("name", m.name);
            o.str("unit", m.unit);
            o.str("better", m.better.as_str());
            o.num("bound", m.bound);
            o
        }),
    );
    root.objs(
        "per_layer",
        PER_LAYER.iter().map(|m| {
            let mut o = Obj::new();
            o.str("name", m.name);
            o.str("unit", m.unit);
            o.str("better", m.better.as_str());
            o
        }),
    );
    root.render_pretty()
}

/// The metric tables of `benchmark/README.md`, so the prose cannot
/// drift from what the run prints.
pub fn markdown() -> String {
    let mut out = String::from("| workload | why |\n|---|---|\n");
    for w in &WORKLOADS {
        out.push_str(&format!("| `{}` | {} |\n", w.name, w.why));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound |\n|---|---|---|---|\n");
    for m in &END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        ));
    }
    out.push_str("\n| layer | per-layer metric | unit | should move |\n|---|---|---|---|\n");
    for m in &PER_LAYER {
        out.push_str(&format!(
            "| {} | `{}` | {} | {} |\n",
            m.layer(),
            m.name,
            m.unit,
            m.moves
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu::obs::json::Json;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for m in &PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.name.contains('.'), "{} names no layer", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` is the rendered spec, byte for byte: every
    /// metric the run prints is in the file and the other way round.
    #[test]
    fn benchmark_json_is_the_rendered_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk.trim_end(), benchmark_json().trim_end());
        assert!(on_disk.len() <= 64 * 1024);
        let parsed = Json::parse(&on_disk).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            parsed
                .get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("end_to_end").len(), END_TO_END.len());
        assert_eq!(names("per_layer").len(), PER_LAYER.len());
        assert_eq!(names("workloads").len(), WORKLOADS.len());
    }
}
