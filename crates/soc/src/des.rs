//! Discrete-event simulation core: processors as serial resources, a
//! recorded [`Timeline`], and the busy/bubble/energy metrics that the
//! paper's scheduling sections (§3.4, Figure 13) reason about.
//!
//! The constraint encoded here is Equation 4: *a processor executes only
//! one subgraph at any given time* ("mobile processors are weak at
//! parallelism and preemption"). Schedulers decide *which* ready task to
//! place next; the simulator answers *when* it runs and what that does to
//! makespan, stalls, and energy.

use std::collections::BTreeMap;

use crate::spec::SocSpec;
use crate::{Error, Joules, Millis, Processor, Result};

/// One task's interval on a timeline: "`label` held `processor` from
/// `start` to `end`". `M` is whatever else the recording plane knows
/// about the task — nothing for the simulator, the DAG task for the
/// numeric executor, request/attempt/kind for the serving plane — so
/// every plane's timeline is this one type with these metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEntry<M = ()> {
    /// Human-readable label (e.g. `"C2-G3"` for chunk 2, subgraph 3).
    pub label: String,
    /// Processor that ran the task.
    pub processor: Processor,
    /// Start time in ms.
    pub start: Millis,
    /// End time in ms.
    pub end: Millis,
    /// Plane-specific payload.
    pub meta: M,
}

impl<M> TimelineEntry<M> {
    /// Task duration in ms.
    #[must_use]
    pub fn duration(&self) -> Millis {
        self.end - self.start
    }
}

/// A completed execution trace, simulated or measured.
#[derive(Debug, Clone)]
pub struct Timeline<M = ()> {
    entries: Vec<TimelineEntry<M>>,
}

impl<M> Default for Timeline<M> {
    fn default() -> Self {
        Timeline {
            entries: Vec::new(),
        }
    }
}

impl<M> Timeline<M> {
    /// Creates an empty timeline.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// All entries in recording order (submission order for the
    /// simulator, completion order for the executed planes).
    #[must_use]
    pub fn entries(&self) -> &[TimelineEntry<M>] {
        &self.entries
    }

    /// The entries, for reordering or rebasing a recorded trace (no
    /// metric depends on entry order).
    pub fn entries_mut(&mut self) -> &mut Vec<TimelineEntry<M>> {
        &mut self.entries
    }

    /// Records an entry (used by [`Simulator`]; exposed for tests and
    /// synthetic traces).
    pub fn record(&mut self, entry: TimelineEntry<M>) {
        self.entries.push(entry);
    }

    /// Completion time of the last task, or 0 for an empty timeline.
    #[must_use]
    pub fn makespan(&self) -> Millis {
        self.entries.iter().map(|e| e.end).fold(0.0, f64::max)
    }

    /// Total busy time of one processor.
    #[must_use]
    pub fn busy_time(&self, p: Processor) -> Millis {
        self.entries
            .iter()
            .filter(|e| e.processor == p)
            .map(TimelineEntry::duration)
            .sum()
    }

    /// Total overlap between entries selected by `a` and entries
    /// selected by `b` — the direct measurement of "these really ran
    /// concurrently" (e.g. shadow-outlier tasks vs NPU main tasks).
    #[must_use]
    pub fn overlap(
        &self,
        a: impl Fn(&TimelineEntry<M>) -> bool,
        b: impl Fn(&TimelineEntry<M>) -> bool,
    ) -> Millis {
        let mut total = 0.0;
        for x in self.entries.iter().filter(|e| a(e)) {
            for y in self.entries.iter().filter(|e| b(e)) {
                if !std::ptr::eq(x, y) {
                    total += (x.end.min(y.end) - x.start.max(y.start)).max(0.0);
                }
            }
        }
        total
    }

    /// Bubble (stall) rate of a processor over the window from its first
    /// task start to its last task end — Figure 13's metric. Returns 0 for
    /// processors with no tasks.
    #[must_use]
    pub fn bubble_rate(&self, p: Processor) -> f64 {
        let mut first = f64::INFINITY;
        let mut last: f64 = 0.0;
        let mut busy = 0.0;
        for e in self.entries.iter().filter(|e| e.processor == p) {
            first = first.min(e.start);
            last = last.max(e.end);
            busy += e.duration();
        }
        if !first.is_finite() || last <= first {
            return 0.0;
        }
        let window = last - first;
        ((window - busy) / window).max(0.0)
    }

    /// Bubble rate of a processor measured against the *whole makespan*
    /// (useful when the critical-path processor should have been busy from
    /// time zero).
    #[must_use]
    pub fn bubble_rate_vs_makespan(&self, p: Processor) -> f64 {
        let span = self.makespan();
        if span <= 0.0 {
            return 0.0;
        }
        ((span - self.busy_time(p)) / span).max(0.0)
    }

    /// Per-processor entry counts.
    #[must_use]
    pub fn task_counts(&self) -> BTreeMap<Processor, usize> {
        let mut counts = BTreeMap::new();
        for e in &self.entries {
            *counts.entry(e.processor).or_insert(0) += 1;
        }
        counts
    }

    /// Energy consumed over this timeline on a device: active power during
    /// busy intervals plus idle power for the remainder of the makespan,
    /// per processor.
    #[must_use]
    pub fn energy(&self, spec: &SocSpec) -> Joules {
        let span_s = self.makespan() / 1e3;
        let mut joules = 0.0;
        for p in Processor::ALL {
            let ps = spec.proc(p);
            let busy_s = self.busy_time(p) / 1e3;
            let idle_s = (span_s - busy_s).max(0.0);
            joules += busy_s * ps.active_power_w + idle_s * ps.idle_power_w;
        }
        joules
    }
}

/// A list-scheduling simulator over the SoC's three serial processors.
///
/// # Example
///
/// ```
/// use llmnpu_soc::des::Simulator;
/// use llmnpu_soc::Processor;
///
/// # fn main() -> Result<(), llmnpu_soc::Error> {
/// let mut sim = Simulator::new();
/// // Two independent tasks on different processors overlap.
/// let a = sim.run("npu-task", Processor::Npu, 0.0, 10.0)?;
/// let b = sim.run("cpu-task", Processor::Cpu, 0.0, 4.0)?;
/// assert_eq!(a, 10.0);
/// assert_eq!(b, 4.0);
/// assert_eq!(sim.timeline().makespan(), 10.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Simulator {
    free_at: BTreeMap<Processor, Millis>,
    timeline: Timeline,
}

impl Simulator {
    /// Creates a simulator with all processors free at time 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Earliest time processor `p` can start a new task.
    #[must_use]
    pub fn free_at(&self, p: Processor) -> Millis {
        self.free_at.get(&p).copied().unwrap_or(0.0)
    }

    /// Runs a task on `p`: it starts at `max(ready, free_at(p))` and
    /// occupies the processor for `duration` ms. Returns the completion
    /// time.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArgument`] for negative or non-finite
    /// durations or ready times.
    pub fn run(
        &mut self,
        label: impl Into<String>,
        p: Processor,
        ready: Millis,
        duration: Millis,
    ) -> Result<Millis> {
        if !duration.is_finite() || duration < 0.0 {
            return Err(Error::InvalidArgument {
                what: format!("duration {duration} must be finite and non-negative"),
            });
        }
        if !ready.is_finite() || ready < 0.0 {
            return Err(Error::InvalidArgument {
                what: format!("ready time {ready} must be finite and non-negative"),
            });
        }
        let start = self.free_at(p).max(ready);
        let end = start + duration;
        self.free_at.insert(p, end);
        self.timeline.record(TimelineEntry {
            label: label.into(),
            processor: p,
            start,
            end,
            meta: (),
        });
        Ok(end)
    }

    /// The trace recorded so far.
    #[must_use]
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consumes the simulator and returns the trace.
    #[must_use]
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tasks_on_one_processor_serialize() {
        let mut sim = Simulator::new();
        let a = sim.run("a", Processor::Npu, 0.0, 5.0).unwrap();
        let b = sim.run("b", Processor::Npu, 0.0, 5.0).unwrap();
        assert_eq!(a, 5.0);
        assert_eq!(b, 10.0, "equation 4: one task at a time per processor");
    }

    #[test]
    fn ready_time_delays_start() {
        let mut sim = Simulator::new();
        let end = sim.run("late", Processor::Cpu, 7.0, 2.0).unwrap();
        assert_eq!(end, 9.0);
        let e = &sim.timeline().entries()[0];
        assert_eq!(e.start, 7.0);
    }

    #[test]
    fn rejects_invalid_durations() {
        let mut sim = Simulator::new();
        assert!(sim.run("x", Processor::Cpu, 0.0, -1.0).is_err());
        assert!(sim.run("x", Processor::Cpu, 0.0, f64::NAN).is_err());
        assert!(sim.run("x", Processor::Cpu, -3.0, 1.0).is_err());
    }

    #[test]
    fn bubble_rate_measures_gaps() {
        let mut tl = Timeline::new();
        tl.record(TimelineEntry {
            label: "a".into(),
            processor: Processor::Npu,
            start: 0.0,
            end: 4.0,
            meta: (),
        });
        tl.record(TimelineEntry {
            label: "b".into(),
            processor: Processor::Npu,
            start: 6.0,
            end: 10.0,
            meta: (),
        });
        // Window 0..10, busy 8 → bubble 20%.
        assert!((tl.bubble_rate(Processor::Npu) - 0.2).abs() < 1e-9);
        assert_eq!(tl.bubble_rate(Processor::Gpu), 0.0);
    }

    #[test]
    fn bubble_vs_makespan_counts_leading_idle() {
        let mut tl = Timeline::new();
        tl.record(TimelineEntry {
            label: "cpu-first".into(),
            processor: Processor::Cpu,
            start: 0.0,
            end: 5.0,
            meta: (),
        });
        tl.record(TimelineEntry {
            label: "npu-after".into(),
            processor: Processor::Npu,
            start: 5.0,
            end: 10.0,
            meta: (),
        });
        // NPU window is 5..10 → no internal bubbles, but it idled half the
        // makespan.
        assert_eq!(tl.bubble_rate(Processor::Npu), 0.0);
        assert!((tl.bubble_rate_vs_makespan(Processor::Npu) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn overlap_sums_pairwise_intersections() {
        let mut tl = Timeline::new();
        for (p, start, end) in [
            (Processor::Npu, 0.0, 4.0),
            (Processor::Cpu, 1.0, 3.0),
            (Processor::Cpu, 3.5, 6.0),
        ] {
            tl.record(TimelineEntry {
                label: "t".into(),
                processor: p,
                start,
                end,
                meta: (),
            });
        }
        let npu = |e: &TimelineEntry| e.processor == Processor::Npu;
        let cpu = |e: &TimelineEntry| e.processor == Processor::Cpu;
        // [1,3] and [3.5,4] of the CPU entries fall inside the NPU entry.
        assert!((tl.overlap(npu, cpu) - 2.5).abs() < 1e-12);
        // An entry never overlaps itself.
        assert_eq!(tl.overlap(npu, npu), 0.0);
    }

    #[test]
    fn energy_prefers_npu_heavy_schedules() {
        // Same 100 ms of work: on the CPU it costs ~8 W, on the NPU ~1.5 W.
        let spec = SocSpec::snapdragon_8gen3();
        let mut cpu_tl = Timeline::new();
        cpu_tl.record(TimelineEntry {
            label: "w".into(),
            processor: Processor::Cpu,
            start: 0.0,
            end: 100.0,
            meta: (),
        });
        let mut npu_tl = Timeline::new();
        npu_tl.record(TimelineEntry {
            label: "w".into(),
            processor: Processor::Npu,
            start: 0.0,
            end: 100.0,
            meta: (),
        });
        let e_cpu = cpu_tl.energy(&spec);
        let e_npu = npu_tl.energy(&spec);
        assert!(e_cpu > 3.0 * e_npu, "cpu {e_cpu} vs npu {e_npu}");
    }

    #[test]
    fn task_counts_by_processor() {
        let mut sim = Simulator::new();
        sim.run("a", Processor::Npu, 0.0, 1.0).unwrap();
        sim.run("b", Processor::Npu, 0.0, 1.0).unwrap();
        sim.run("c", Processor::Cpu, 0.0, 1.0).unwrap();
        let counts = sim.timeline().task_counts();
        assert_eq!(counts[&Processor::Npu], 2);
        assert_eq!(counts[&Processor::Cpu], 1);
    }

    #[test]
    fn empty_timeline_metrics_are_zero() {
        let tl: Timeline = Timeline::new();
        assert_eq!(tl.makespan(), 0.0);
        assert_eq!(tl.busy_time(Processor::Npu), 0.0);
        assert_eq!(tl.bubble_rate(Processor::Npu), 0.0);
        assert_eq!(tl.bubble_rate_vs_makespan(Processor::Npu), 0.0);
    }
}
