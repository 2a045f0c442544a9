//! Energy accounting helpers.
//!
//! The core integration (active power × busy time + idle power × idle
//! time, per processor) lives on [`crate::des::Timeline::energy`]; this
//! module adds the per-processor breakdown.

use std::collections::BTreeMap;

use crate::des::Timeline;
use crate::spec::SocSpec;
use crate::{Joules, Processor};

/// Energy broken down by processor.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EnergyBreakdown {
    /// Active joules per processor.
    pub active: BTreeMap<Processor, Joules>,
    /// Idle joules per processor.
    pub idle: BTreeMap<Processor, Joules>,
}

impl EnergyBreakdown {
    /// Total joules.
    #[must_use]
    pub fn total(&self) -> Joules {
        self.active.values().sum::<f64>() + self.idle.values().sum::<f64>()
    }

    /// Total active joules of one processor.
    #[must_use]
    pub fn active_of(&self, p: Processor) -> Joules {
        self.active.get(&p).copied().unwrap_or(0.0)
    }
}

/// Computes the per-processor energy breakdown of a timeline on a device.
#[must_use]
pub fn breakdown(timeline: &Timeline, spec: &SocSpec) -> EnergyBreakdown {
    let span_s = timeline.makespan() / 1e3;
    let mut out = EnergyBreakdown::default();
    for p in Processor::ALL {
        let ps = spec.proc(p);
        let busy_s = timeline.busy_time(p) / 1e3;
        let idle_s = (span_s - busy_s).max(0.0);
        out.active.insert(p, busy_s * ps.active_power_w);
        out.idle.insert(p, idle_s * ps.idle_power_w);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Timeline, TimelineEntry};

    fn busy(p: Processor, start: f64, end: f64) -> TimelineEntry {
        TimelineEntry {
            label: "t".into(),
            processor: p,
            start,
            end,
            meta: (),
        }
    }

    #[test]
    fn breakdown_sums_to_timeline_energy() {
        let spec = SocSpec::snapdragon_8gen3();
        let mut tl = Timeline::new();
        tl.record(busy(Processor::Npu, 0.0, 800.0));
        tl.record(busy(Processor::Cpu, 0.0, 300.0));
        let b = breakdown(&tl, &spec);
        assert!((b.total() - tl.energy(&spec)).abs() < 1e-9);
    }

    #[test]
    fn npu_active_energy_is_small() {
        let spec = SocSpec::snapdragon_8gen3();
        let mut tl = Timeline::new();
        tl.record(busy(Processor::Npu, 0.0, 1000.0));
        tl.record(busy(Processor::Cpu, 0.0, 1000.0));
        let b = breakdown(&tl, &spec);
        assert!(b.active_of(Processor::Cpu) > 4.0 * b.active_of(Processor::Npu));
    }
}
