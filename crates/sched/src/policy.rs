//! The scheduling policy core (§3.4): *which* ready task a free lane
//! takes next. One implementation, shared by both planes — the
//! virtual-clock simulator behind [`crate::schedule`] and the wall-clock
//! [`Dispatcher`](crate::runner) that executes graphs for real — so the
//! two cannot rank the same ready set differently.
//!
//! The core is clock-agnostic: it sees a [`LaneGraph`], boolean
//! per-task [`Progress`], and a `now` in ms that is only ever compared
//! against release times. Whoever drives it owns the clock and decides
//! when a task counts as `done`.

use llmnpu_soc::Processor;

use crate::runner::LaneGraph;
use crate::Policy;

pub(crate) const EPS: f64 = 1e-9;

/// Where every task of a graph stands. `scheduled` is set at dispatch
/// (or when a task is retired without running), `done` once its result
/// exists; `in_flight` counts tasks between the two.
pub(crate) struct Progress {
    pub scheduled: Vec<bool>,
    pub done: Vec<bool>,
    pub in_flight: usize,
}

impl Progress {
    pub fn new(n: usize) -> Self {
        Progress {
            scheduled: vec![false; n],
            done: vec![false; n],
            in_flight: 0,
        }
    }

    /// `t` was handed to its lane.
    pub fn dispatch(&mut self, t: usize) {
        self.scheduled[t] = true;
        self.in_flight += 1;
    }

    /// A dispatched `t` finished (or failed): its dependents may go.
    pub fn complete(&mut self, t: usize) {
        self.done[t] = true;
        self.in_flight -= 1;
    }

    /// `t` will never run (gated or poisoned): settled without a
    /// dispatch.
    pub fn retire(&mut self, t: usize) {
        self.scheduled[t] = true;
        self.done[t] = true;
    }
}

/// A graph, its reverse adjacency, and the policy to rank it with.
pub(crate) struct Scheduler<'g> {
    pub graph: &'g LaneGraph,
    pub successors: Vec<Vec<usize>>,
    policy: Policy,
}

impl<'g> Scheduler<'g> {
    pub fn new(graph: &'g LaneGraph, policy: Policy) -> Self {
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); graph.len()];
        for t in 0..graph.len() {
            for &d in graph.deps(t) {
                successors[d].push(t);
            }
        }
        Scheduler {
            graph,
            successors,
            policy,
        }
    }

    /// Dependency-readiness (release times not considered).
    pub fn deps_done(&self, st: &Progress, t: usize) -> bool {
        self.graph.deps(t).iter().all(|&d| st.done[d])
    }

    /// Dispatchability at `now`: deps done *and* released.
    pub fn ready(&self, st: &Progress, t: usize, now: f64) -> bool {
        self.graph.tasks()[t].release_ms <= now + EPS && self.deps_done(st, t)
    }

    /// Equation 5: let `S` be the successors of `g` that become ready once
    /// `g` completes (all their other dependencies already scheduled),
    /// weighted by their *modeled* duration — the executor prioritizes
    /// with the timing plane's predictions, exactly as the paper's online
    /// scheduler does. If `g` runs on the CPU/GPU, C = Σ duration of `S`
    /// (it unlocks NPU work — bigger is better); if `g` runs on the NPU,
    /// C = −Σ duration of `S` (prefer NPU subgraphs whose float follow-up
    /// is short, keeping the CPU from becoming the bottleneck).
    pub fn c_value(&self, st: &Progress, g: usize) -> f64 {
        let tasks = self.graph.tasks();
        let unlocked = |s: usize| {
            !st.scheduled[s]
                && self
                    .graph
                    .deps(s)
                    .iter()
                    .all(|&d| d == g || st.scheduled[d])
        };
        let total = self.successors[g]
            .iter()
            .filter(|&&s| unlocked(s))
            .fold(0.0, |sum, &s| sum + tasks[s].duration_ms);
        if tasks[g].processor == Processor::Npu {
            -total
        } else {
            total
        }
    }

    /// Picks the next task for lane `p` under the policy, or `None`.
    pub fn pick(&self, st: &Progress, p: Processor, now: f64) -> Option<usize> {
        let tasks = self.graph.tasks();
        let mut unscheduled = (0..tasks.len()).filter(|&t| !st.scheduled[t]);
        match self.policy {
            // Serial: the lowest-id unscheduled task, and only once
            // everything before it has completed (no overlap across
            // processors).
            Policy::Serial => {
                let next = unscheduled.next()?;
                (tasks[next].processor == p && st.in_flight == 0 && self.ready(st, next, now))
                    .then_some(next)
            }
            // FIFO queues: each processor only ever considers the head of
            // its own queue (construction, i.e. chunk-sequence, order); if
            // the head's dependencies are unmet, the processor stalls —
            // Figure 13(a)'s bubbles.
            Policy::FifoQueues => {
                let head = unscheduled.find(|&t| tasks[t].processor == p)?;
                self.ready(st, head, now).then_some(head)
            }
            // Out-of-order: any ready task for `p`, ranked by the
            // Equation 5 C-value; ties broken by chunk-sequence order
            // (lowest id).
            Policy::OutOfOrder => {
                let mut best: Option<(f64, usize)> = None;
                for t in unscheduled.filter(|&t| tasks[t].processor == p) {
                    if !self.ready(st, t, now) {
                        continue;
                    }
                    let c = self.c_value(st, t);
                    if best.is_none_or(|(bc, _)| c > bc + EPS) {
                        best = Some((c, t));
                    }
                }
                best.map(|(_, t)| t)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::LaneTask;

    fn task(label: &str, processor: Processor, duration_ms: f64) -> LaneTask {
        LaneTask {
            label: label.to_owned(),
            processor,
            duration_ms,
            release_ms: 0.0,
            barrier: false,
        }
    }

    /// The state that used to separate the two planes' copies of
    /// Equation 5: a ready NPU task whose successor's *other* dependency
    /// has been dispatched but has not finished. The single reading is
    /// "already scheduled": the successor counts toward C.
    #[test]
    fn a_successor_counts_once_its_other_deps_are_scheduled() {
        let mut g = LaneGraph::new();
        let main = g.push(task("main", Processor::Npu, 1.0), vec![]).unwrap();
        let shadow = g.push(task("shadow", Processor::Cpu, 1.0), vec![]).unwrap();
        g.push(task("merge", Processor::Cpu, 5.0), vec![main, shadow])
            .unwrap();
        let other = g.push(task("other", Processor::Npu, 1.0), vec![]).unwrap();
        g.push(task("follow-up", Processor::Cpu, 2.0), vec![other])
            .unwrap();

        let core = Scheduler::new(&g, Policy::OutOfOrder);
        let mut st = Progress::new(g.len());
        assert_eq!(core.c_value(&st, main), 0.0, "shadow not even dispatched");
        st.dispatch(shadow);
        assert_eq!(
            core.c_value(&st, main),
            -5.0,
            "shadow in flight: merge counts"
        );
        // So the NPU prefers `other`, whose float follow-up is shorter.
        assert_eq!(core.c_value(&st, other), -2.0);
        assert_eq!(core.pick(&st, Processor::Npu, 0.0), Some(other));
        st.complete(shadow);
        assert_eq!(core.c_value(&st, main), -5.0);
        assert_eq!(core.pick(&st, Processor::Npu, 0.0), Some(other));
    }
}
