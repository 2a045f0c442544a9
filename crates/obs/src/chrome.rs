//! Chrome trace-event JSON export + shape validation, and the
//! canonical deterministic "modeled" export.
//!
//! The wall export ([`chrome_trace_json`]) targets the [trace-event
//! format] consumed by Perfetto and `chrome://tracing`: one process,
//! one thread (track) per lane, complete `X` slices for every span
//! with wall timestamps, per-request async `b`/`e` envelopes, flow
//! arrows (`s`/`t`/`f`) stitching each request's spans across lanes,
//! and instant `i` events for the discrete event stream.
//!
//! The modeled export ([`modeled_trace_json`]) is a different artifact
//! with a different contract: it contains only plan-determined fields
//! (no wall timestamps, no Exec-plane events), spans are canonically
//! sorted, and numbers are fixed-width formatted — so two runs of the
//! same seeded workload emit byte-identical files regardless of worker
//! count or scheduling jitter. The determinism proptests pin this.
//!
//! [trace-event format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::trace::{Plane, TraceLog, LENT_CLASS};

const US_PER_MS: f64 = 1000.0;

/// One record in the emitted trace, pre-rendered; kept so records can
/// be sorted by timestamp before serialization.
struct Record {
    ts_us: f64,
    order: usize,
    body: String,
}

fn push(records: &mut Vec<Record>, ts_us: f64, body: String) {
    let order = records.len();
    records.push(Record { ts_us, order, body });
}

/// Render the full wall-clock trace as a Chrome trace-event JSON array.
///
/// Spans without wall timestamps (numeric-plane emissions) are skipped;
/// events without wall timestamps are pinned at ts 0.
#[must_use]
pub fn chrome_trace_json(log: &TraceLog) -> String {
    // Lane -> tid, sorted for stable numbering. tid 0 is the event /
    // request-envelope track.
    let mut lanes: Vec<&str> = log
        .spans
        .iter()
        .filter(|s| s.wall_start_ms.is_some())
        .map(|s| s.lane.as_str())
        .collect();
    lanes.sort_unstable();
    lanes.dedup();
    let tid_of: BTreeMap<&str, usize> =
        lanes.iter().enumerate().map(|(i, &l)| (l, i + 1)).collect();

    let mut records: Vec<Record> = Vec::new();

    // Metadata: process + per-track names. Always first (ts sorts at
    // -inf via the metadata flag below).
    let mut meta = String::new();
    let _ = write!(
        meta,
        r#"{{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{{"name":"llmnpu"}}}}"#
    );
    push(&mut records, f64::NEG_INFINITY, meta);
    let mut ev_track = String::new();
    let _ = write!(
        ev_track,
        r#"{{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{{"name":"events"}}}}"#
    );
    push(&mut records, f64::NEG_INFINITY, ev_track);
    for (&lane, &tid) in &tid_of {
        let mut m = String::new();
        let _ = write!(
            m,
            r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{tid},"args":{{"name":"#
        );
        json::write_str(&mut m, &format!("lane {lane}"));
        m.push_str("}}");
        push(&mut records, f64::NEG_INFINITY, m);
    }

    // Complete X slices per span, plus request envelope bookkeeping.
    struct ReqSpan {
        start_us: f64,
        end_us: f64,
        tid: usize,
    }
    let mut per_request: BTreeMap<usize, Vec<ReqSpan>> = BTreeMap::new();
    for span in &log.spans {
        let (Some(w0), Some(w1)) = (span.wall_start_ms, span.wall_end_ms) else {
            continue;
        };
        let tid = tid_of[span.lane.as_str()];
        let ts = w0 * US_PER_MS;
        let dur = ((w1 - w0) * US_PER_MS).max(0.0);
        let mut body = String::new();
        body.push_str("{\"name\":");
        json::write_str(&mut body, &span.name);
        body.push_str(",\"cat\":");
        json::write_str(&mut body, &span.class);
        let _ = write!(
            body,
            ",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{"
        );
        if let Some(r) = span.request {
            let _ = write!(body, "\"request\":{r},");
        }
        let _ = write!(
            body,
            "\"attempt\":{},\"modeled_ms\":{:.3},\"run_start_ms\":{:.3},\"run_end_ms\":{:.3}}}}}",
            span.attempt, span.modeled_ms, span.start_ms, span.end_ms
        );
        push(&mut records, ts, body);
        if let Some(r) = span.request {
            per_request.entry(r).or_default().push(ReqSpan {
                start_us: ts,
                end_us: ts + dur,
                tid,
            });
        }
    }

    // Per-request async envelope (b/e on the event track) and flow
    // arrows stitching the request's slices in wall order.
    for (&req, spans) in &mut per_request {
        let first = spans
            .iter()
            .map(|s| s.start_us)
            .fold(f64::INFINITY, f64::min);
        let last = spans.iter().map(|s| s.end_us).fold(0.0f64, f64::max);
        let mut b = String::new();
        let _ = write!(
            b,
            r#"{{"name":"R{req}","cat":"request","ph":"b","id":{req},"pid":1,"tid":0,"ts":{first:.3}}}"#
        );
        push(&mut records, first, b);
        let mut e = String::new();
        let _ = write!(
            e,
            r#"{{"name":"R{req}","cat":"request","ph":"e","id":{req},"pid":1,"tid":0,"ts":{last:.3}}}"#
        );
        push(&mut records, last, e);

        spans.sort_by(|a, b| {
            a.start_us
                .partial_cmp(&b.start_us)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        for (i, s) in spans.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i + 1 == spans.len() {
                "f"
            } else {
                "t"
            };
            if spans.len() < 2 {
                break; // a single-slice request needs no arrow
            }
            let mut body = String::new();
            let _ = write!(
                body,
                r#"{{"name":"R{req}-flow","cat":"flow","ph":"{ph}","id":{req},"pid":1,"tid":{},"ts":{:.3}"#,
                s.tid, s.start_us
            );
            if ph == "f" {
                body.push_str(r#","bp":"e""#);
            }
            body.push('}');
            push(&mut records, s.start_us, body);
        }
    }

    // Discrete events as instants on the event track.
    for ev in &log.events {
        let ts = ev.wall_ms.unwrap_or(0.0) * US_PER_MS;
        let mut body = String::new();
        body.push_str("{\"name\":");
        json::write_str(&mut body, ev.kind.name());
        let _ = write!(
            body,
            r#","cat":"event","ph":"i","s":"g","pid":1,"tid":0,"ts":{ts:.3},"args":{{"#
        );
        if let Some(r) = ev.request {
            let _ = write!(body, "\"request\":{r},");
        }
        body.push_str("\"detail\":");
        json::write_str(&mut body, &ev.detail);
        body.push_str("}}");
        push(&mut records, ts, body);
    }

    // Chrome tolerates any order, but monotonic-per-track files are
    // kinder to viewers and lets the validator check ts sanity.
    records.sort_by(|a, b| {
        a.ts_us
            .partial_cmp(&b.ts_us)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.order.cmp(&b.order))
    });

    let mut out = String::with_capacity(records.len() * 96 + 2);
    out.push_str("[\n");
    for (i, r) in records.iter().enumerate() {
        out.push_str(&r.body);
        if i + 1 != records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push(']');
    out
}

/// Render the canonical deterministic export: spans with modeled
/// fields only — `start_ms`/`end_ms` are *measured* executor times and
/// are deliberately absent, and so are the measured-only
/// [`LENT_CLASS`] spans — sorted on plan-determined keys, plus
/// Plan-plane events in recorded order. Byte-identical across runs and
/// worker counts for the same seeded workload.
#[must_use]
pub fn modeled_trace_json(log: &TraceLog) -> String {
    let mut spans: Vec<_> = log.spans.iter().filter(|s| s.class != LENT_CLASS).collect();
    spans.sort_by(|a, b| {
        // None-request (infrastructure) spans sort last; ties broken
        // on plan-determined fields only (task labels are unique per
        // attempt), never on measured timestamps.
        let ka = (a.request.is_none(), a.request, a.attempt, &a.name, &a.lane);
        let kb = (b.request.is_none(), b.request, b.attempt, &b.name, &b.lane);
        ka.cmp(&kb)
    });

    let mut out = String::new();
    out.push_str("{\"schema\":\"llmnpu-modeled-trace/v1\",\"spans\":[\n");
    for (i, s) in spans.iter().enumerate() {
        out.push_str("{\"request\":");
        match s.request {
            Some(r) => {
                let _ = write!(out, "{r}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ",\"attempt\":{},\"lane\":", s.attempt);
        json::write_str(&mut out, &s.lane);
        out.push_str(",\"name\":");
        json::write_str(&mut out, &s.name);
        out.push_str(",\"class\":");
        json::write_str(&mut out, &s.class);
        out.push_str(",\"modeled_ms\":");
        json::write_ms(&mut out, s.modeled_ms);
        out.push('}');
        if i + 1 != spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("],\"events\":[\n");
    let plan_events: Vec<_> = log
        .events
        .iter()
        .filter(|e| e.plane == Plane::Plan)
        .collect();
    for (i, e) in plan_events.iter().enumerate() {
        out.push_str("{\"kind\":");
        json::write_str(&mut out, e.kind.name());
        out.push_str(",\"request\":");
        match e.request {
            Some(r) => {
                let _ = write!(out, "{r}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"detail\":");
        json::write_str(&mut out, &e.detail);
        out.push('}');
        if i + 1 != plan_events.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}");
    out
}

/// Summary returned by [`validate_chrome_trace`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCheck {
    /// Total records in the array.
    pub records: usize,
    /// Complete `X` slices.
    pub slices: usize,
    /// Distinct `(pid, tid)` tracks carrying slices.
    pub tracks: usize,
    /// Async `b`/`e` envelope pairs.
    pub async_pairs: usize,
}

/// Parse `text` as a trace-event array and check the shape guarantees
/// the exporter promises: every record has `name`/`ph`/`pid`/`tid`,
/// `B`/`E` pairs balance per track, `X` slices carry non-negative
/// `dur`, `b`/`e` async pairs balance per id, and `ts` is
/// non-decreasing per track in file order.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceCheck, String> {
    let doc = Json::parse(text)?;
    let records = doc.as_arr().ok_or("top level is not an array")?;
    let mut check = TraceCheck {
        records: records.len(),
        ..TraceCheck::default()
    };
    let mut last_ts: BTreeMap<(i64, i64), f64> = BTreeMap::new();
    let mut slice_tracks: BTreeMap<(i64, i64), usize> = BTreeMap::new();
    let mut be_depth: BTreeMap<(i64, i64), i64> = BTreeMap::new();
    let mut async_open: BTreeMap<i64, i64> = BTreeMap::new();

    for (i, rec) in records.iter().enumerate() {
        let ph = rec
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing ph"))?;
        rec.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("record {i}: missing name"))?;
        let pid = rec
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing pid"))? as i64;
        let tid = rec
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing tid"))? as i64;
        if ph == "M" {
            continue; // metadata carries no ts
        }
        let ts = rec
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("record {i}: missing ts"))?;
        let track = (pid, tid);
        if let Some(&prev) = last_ts.get(&track) {
            if ts < prev {
                return Err(format!(
                    "record {i}: ts {ts} < {prev} on track {track:?} (non-monotonic)"
                ));
            }
        }
        last_ts.insert(track, ts);
        match ph {
            "X" => {
                let dur = rec
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("record {i}: X without dur"))?;
                if dur < 0.0 {
                    return Err(format!("record {i}: negative dur {dur}"));
                }
                check.slices += 1;
                *slice_tracks.entry(track).or_insert(0) += 1;
            }
            "B" => *be_depth.entry(track).or_insert(0) += 1,
            "E" => {
                let d = be_depth.entry(track).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("record {i}: E without matching B on {track:?}"));
                }
            }
            "b" => {
                let id = rec
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("record {i}: async b without id"))?
                    as i64;
                *async_open.entry(id).or_insert(0) += 1;
            }
            "e" => {
                let id = rec
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("record {i}: async e without id"))?
                    as i64;
                let d = async_open.entry(id).or_insert(0);
                *d -= 1;
                if *d < 0 {
                    return Err(format!("record {i}: async e without b for id {id}"));
                }
                check.async_pairs += 1;
            }
            "i" | "s" | "t" | "f" => {}
            other => return Err(format!("record {i}: unknown ph '{other}'")),
        }
    }
    if let Some((track, depth)) = be_depth.iter().find(|(_, &d)| d != 0) {
        return Err(format!("unbalanced B/E on track {track:?} (depth {depth})"));
    }
    if let Some((id, depth)) = async_open.iter().find(|(_, &d)| d != 0) {
        return Err(format!("unbalanced async b/e for id {id} (depth {depth})"));
    }
    check.tracks = slice_tracks.len();
    Ok(check)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{EventKind, TraceSink, TraceSpan};

    fn sample_log() -> TraceLog {
        let sink = TraceSink::enabled();
        for (req, lane, name, w0) in [
            (0usize, "Npu", "R0-C0", 0.0f64),
            (0, "Cpu", "R0-D0", 2.0),
            (1, "Npu", "R1-C0", 1.0),
        ] {
            sink.span(|| TraceSpan {
                request: Some(req),
                attempt: 0,
                lane: lane.to_owned(),
                name: name.to_owned(),
                class: "prefill".to_owned(),
                start_ms: w0,
                end_ms: w0 + 1.0,
                modeled_ms: 1.0,
                wall_start_ms: Some(w0),
                wall_end_ms: Some(w0 + 1.5),
            });
        }
        sink.event_at(Plane::Exec, EventKind::Dispatch, Some(0), 0.1, || {
            "R0-C0 on Npu".to_owned()
        });
        sink.event(Plane::Plan, EventKind::Admission, Some(1), || {
            "attempt 0".to_owned()
        });
        sink.snapshot()
    }

    #[test]
    fn chrome_export_validates() {
        let text = chrome_trace_json(&sample_log());
        let check = validate_chrome_trace(&text).unwrap();
        assert_eq!(check.slices, 3);
        assert_eq!(check.tracks, 2); // Npu + Cpu
        assert_eq!(check.async_pairs, 2); // R0, R1 envelopes
    }

    #[test]
    fn modeled_export_is_stable_under_reordering() {
        let log = sample_log();
        let mut shuffled = log.clone();
        shuffled.spans.reverse();
        // Exec events are excluded, so dropping them changes nothing.
        shuffled.events.retain(|e| e.plane == Plane::Plan);
        assert_eq!(modeled_trace_json(&log), modeled_trace_json(&shuffled));
        assert!(modeled_trace_json(&log).contains("llmnpu-modeled-trace/v1"));
    }

    #[test]
    fn modeled_export_excludes_wall_and_measured_fields() {
        let text = modeled_trace_json(&sample_log());
        assert!(!text.contains("wall"));
        assert!(!text.contains("start_ms"), "measured times leaked");
        Json::parse(&text).unwrap();
    }

    #[test]
    fn validator_rejects_bad_shapes() {
        assert!(validate_chrome_trace("{}").is_err());
        let neg = r#"[{"name":"a","ph":"X","pid":1,"tid":1,"ts":0,"dur":-1}]"#;
        assert!(validate_chrome_trace(neg).unwrap_err().contains("negative"));
        let unbalanced = r#"[{"name":"a","ph":"B","pid":1,"tid":1,"ts":0}]"#;
        assert!(validate_chrome_trace(unbalanced)
            .unwrap_err()
            .contains("unbalanced"));
        let backwards = r#"[{"name":"a","ph":"i","s":"g","pid":1,"tid":1,"ts":5},
                            {"name":"b","ph":"i","s":"g","pid":1,"tid":1,"ts":1}]"#;
        assert!(validate_chrome_trace(backwards)
            .unwrap_err()
            .contains("non-monotonic"));
    }
}
