//! The simulated plane: [`schedule`] runs a DAG on the modeled SoC under
//! a virtual clock, asking the shared [`policy`](crate::policy) core —
//! the same one the wall-clock dispatcher asks — what each free
//! processor takes next.

use llmnpu_graph::dag::PrefillDag;
use llmnpu_soc::des::{Simulator, Timeline};
use llmnpu_soc::{Millis, Processor};

use crate::policy::{Progress, Scheduler, EPS};
use crate::runner::LaneGraph;
use crate::{Error, Policy, Result};

/// Result of scheduling one DAG.
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// The executed trace.
    pub timeline: Timeline,
    /// Completion time of the last task.
    pub makespan_ms: Millis,
    /// NPU stall fraction measured over the whole makespan (Figure 13's
    /// "bubble rate in critical path").
    pub npu_bubble_rate: f64,
}

/// Schedules a DAG under a policy and returns the executed timeline.
///
/// # Errors
///
/// Returns [`Error::Exec`] for a DAG that is not topologically ordered
/// and [`Error::Deadlock`] if it cannot make progress (both should be
/// impossible for DAGs built by `llmnpu-graph`, whose validation
/// enforces topological order).
pub fn schedule(dag: &PrefillDag, policy: Policy) -> Result<ScheduleOutcome> {
    let timeline = simulate(&LaneGraph::from_prefill_dag(dag)?, policy)?;
    let makespan_ms = timeline.makespan();
    let npu_bubble_rate = timeline.bubble_rate_vs_makespan(Processor::Npu);
    Ok(ScheduleOutcome {
        timeline,
        makespan_ms,
        npu_bubble_rate,
    })
}

/// The virtual-clock event loop: every task runs for exactly its modeled
/// duration, and a task is `done` once the clock has reached its modeled
/// end.
fn simulate(graph: &LaneGraph, policy: Policy) -> Result<Timeline> {
    let tasks = graph.tasks();
    let core = Scheduler::new(graph, policy);
    let mut st = Progress::new(graph.len());
    let mut sim = Simulator::new();
    // Dispatched, not yet complete: `(modeled end, task)`, at most one per
    // processor (Equation 4).
    let mut running: Vec<(Millis, usize)> = Vec::new();
    let mut remaining = graph.len();
    let mut time = 0.0_f64;

    while remaining > 0 {
        // NPU first: it is the critical-path processor (§3.4).
        for p in [Processor::Npu, Processor::Cpu, Processor::Gpu] {
            if sim.free_at(p) > time + EPS {
                continue;
            }
            // Whatever the clock has caught up with is done (a zero-length
            // task at once), before this processor looks at what is ready.
            running.retain(|&(end, t)| {
                let live = end > time + EPS;
                if !live {
                    st.complete(t);
                }
                live
            });
            // At most one pick per processor per step: it is busy afterwards.
            if let Some(t) = core.pick(&st, p, time) {
                let end = sim.run(tasks[t].label.clone(), p, time, tasks[t].duration_ms)?;
                st.dispatch(t);
                running.push((end, t));
                remaining -= 1;
            }
        }
        if remaining == 0 {
            break;
        }
        // Advance to the next event strictly after `time`: the earliest
        // completion (which is also when its processor frees up) or
        // pending release.
        let next = running
            .iter()
            .map(|&(end, _)| end)
            .chain(tasks.iter().map(|t| t.release_ms))
            .filter(|&at| at > time + EPS)
            .fold(f64::INFINITY, f64::min);
        if !next.is_finite() {
            return Err(Error::Deadlock { remaining });
        }
        time = next;
    }
    Ok(sim.into_timeline())
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu_graph::dag::{build_prefill_dag, DagConfig};
    use llmnpu_model::config::ModelConfig;
    use llmnpu_soc::latency::LatencyModel;
    use llmnpu_soc::spec::SocSpec;

    fn qwen_dag(prompt: usize, chunk: usize) -> PrefillDag {
        let cfg = ModelConfig::qwen15_18b();
        let lat = LatencyModel::new(&SocSpec::snapdragon_8gen3());
        let dc = DagConfig::llmnpu_default(prompt, chunk).unwrap();
        build_prefill_dag(&cfg, &dc, &lat).unwrap()
    }

    #[test]
    fn all_policies_produce_valid_schedules() {
        let dag = qwen_dag(512, 256);
        for policy in Policy::ALL {
            let outcome = schedule(&dag, policy).unwrap();
            let graph = LaneGraph::from_prefill_dag(&dag).unwrap();
            crate::validate_timeline(&outcome.timeline, &graph).unwrap();
        }
    }

    /// The simulated plane did not move when `schedule` was rebuilt on the
    /// shared policy core: makespan and NPU bubble rate of Qwen1.5-1.8B on
    /// the Snapdragon 8 Gen 3 model, exactly as the per-plane pickers
    /// produced them.
    #[test]
    fn qwen_schedules_keep_their_pinned_makespan_and_bubble_rate() {
        let dag = qwen_dag(1024, 256);
        let pinned = [
            (Policy::Serial, 1377.1134155056502, 0.3382465659271389),
            (Policy::FifoQueues, 1368.2851697456501, 0.33397689899096555),
            (Policy::OutOfOrder, 1009.8814163678451, 0.09760738533410983),
        ];
        for (policy, makespan_ms, npu_bubble_rate) in pinned {
            let outcome = schedule(&dag, policy).unwrap();
            assert_eq!(outcome.makespan_ms, makespan_ms, "{policy:?} makespan");
            assert_eq!(
                outcome.npu_bubble_rate, npu_bubble_rate,
                "{policy:?} bubbles"
            );
        }
    }

    #[test]
    fn overlap_beats_serial_and_ooo_beats_fifo() {
        let dag = qwen_dag(1024, 256);
        let serial = schedule(&dag, Policy::Serial).unwrap().makespan_ms;
        let fifo = schedule(&dag, Policy::FifoQueues).unwrap().makespan_ms;
        let ooo = schedule(&dag, Policy::OutOfOrder).unwrap().makespan_ms;
        assert!(fifo < serial, "fifo {fifo} < serial {serial}");
        assert!(ooo <= fifo + 1e-6, "ooo {ooo} <= fifo {fifo}");
    }

    #[test]
    fn ooo_cuts_npu_bubbles() {
        // Figure 13: naive overlapping leaves large NPU bubbles; OOO
        // reduces them dramatically (37% → 0.7% in the paper; we check
        // "multi-chunk prompts more than halve the stall fraction").
        let dag = qwen_dag(1024, 256);
        let fifo = schedule(&dag, Policy::FifoQueues).unwrap();
        let ooo = schedule(&dag, Policy::OutOfOrder).unwrap();
        assert!(
            ooo.npu_bubble_rate < fifo.npu_bubble_rate,
            "ooo {} vs fifo {}",
            ooo.npu_bubble_rate,
            fifo.npu_bubble_rate
        );
        assert!(
            ooo.npu_bubble_rate < 0.25,
            "ooo bubble rate {} should be small",
            ooo.npu_bubble_rate
        );
    }

    #[test]
    fn makespan_at_least_critical_path_and_npu_work() {
        let dag = qwen_dag(512, 256);
        let ooo = schedule(&dag, Policy::OutOfOrder).unwrap();
        assert!(ooo.makespan_ms + 1e-6 >= dag.critical_path_ms());
        assert!(ooo.makespan_ms + 1e-6 >= dag.total_work_ms(Processor::Npu));
    }

    #[test]
    fn serial_makespan_equals_total_work() {
        let dag = qwen_dag(256, 256);
        let serial = schedule(&dag, Policy::Serial).unwrap();
        let total: f64 = dag.tasks().iter().map(|t| t.duration_ms).sum();
        assert!((serial.makespan_ms - total).abs() < 1e-6);
    }

    #[test]
    fn single_chunk_fifo_equals_ooo() {
        // With one chunk there is nothing to reorder: both policies follow
        // the intra-chunk chain.
        let dag = qwen_dag(128, 256);
        let fifo = schedule(&dag, Policy::FifoQueues).unwrap().makespan_ms;
        let ooo = schedule(&dag, Policy::OutOfOrder).unwrap().makespan_ms;
        assert!((fifo - ooo).abs() < 1e-6);
    }

    #[test]
    fn policy_labels() {
        assert_eq!(Policy::OutOfOrder.label(), "out-of-order");
        assert_eq!(Policy::ALL.len(), 3);
    }
}
