//! Timeline export: CSV and a utilization summary.
//!
//! The paper's Figure 13 visualizes CPU/NPU occupancy over time; these
//! exporters let any simulated [`Timeline`] be inspected the same way.
//! (The Chrome / Perfetto form of a timeline is `llmnpu-obs`'s
//! `chrome_trace_json` over its entries' export spans — one JSON writer
//! for every plane.)

use std::fmt::Write as _;

use crate::des::Timeline;
use crate::Processor;

/// Serializes a timeline as CSV (`label,processor,start_ms,end_ms`).
#[must_use]
pub fn to_csv(timeline: &Timeline) -> String {
    let mut out = String::from("label,processor,start_ms,end_ms\n");
    for e in timeline.entries() {
        let _ = writeln!(
            out,
            "{},{},{:.4},{:.4}",
            e.label.replace(',', ";"),
            e.processor,
            e.start,
            e.end
        );
    }
    out
}

/// Per-processor utilization summary over the makespan.
#[must_use]
pub fn utilization_summary(timeline: &Timeline) -> Vec<(Processor, f64)> {
    let span = timeline.makespan();
    Processor::ALL
        .iter()
        .map(|&p| {
            let busy = timeline.busy_time(p);
            (p, if span > 0.0 { busy / span } else { 0.0 })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::{Timeline, TimelineEntry};

    fn sample() -> Timeline {
        let mut tl = Timeline::new();
        tl.record(TimelineEntry {
            label: "C0-L0-QkvLinear".into(),
            processor: Processor::Npu,
            start: 0.0,
            end: 2.5,
            meta: (),
        });
        tl.record(TimelineEntry {
            label: "C0-L0-Attention".into(),
            processor: Processor::Cpu,
            start: 2.5,
            end: 4.0,
            meta: (),
        });
        tl
    }

    #[test]
    fn csv_has_header_and_rows() {
        let csv = to_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,"));
        assert!(lines[1].contains("NPU"));
        assert!(lines[2].contains("CPU"));
    }

    #[test]
    fn utilization_sums_busy_over_span() {
        let util = utilization_summary(&sample());
        let npu = util.iter().find(|(p, _)| *p == Processor::Npu).unwrap().1;
        let cpu = util.iter().find(|(p, _)| *p == Processor::Cpu).unwrap().1;
        assert!((npu - 2.5 / 4.0).abs() < 1e-9);
        assert!((cpu - 1.5 / 4.0).abs() < 1e-9);
        let empty = utilization_summary(&Timeline::new());
        assert!(empty.iter().all(|(_, u)| *u == 0.0));
    }

    #[test]
    fn labels_are_escaped() {
        let mut tl = Timeline::new();
        tl.record(TimelineEntry {
            label: "has\"quote,and,commas".into(),
            processor: Processor::Cpu,
            start: 0.0,
            end: 1.0,
            meta: (),
        });
        let csv = to_csv(&tl);
        assert!(csv.contains("has'quote;and;commas") || csv.contains(";and;"));
    }
}
