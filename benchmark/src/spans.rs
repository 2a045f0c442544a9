//! The harness's own spans: one around each public call it makes into
//! a layer, kept in memory and written as a Chrome trace when the run
//! ends. Spans inside the program are `llmnpu-obs`'s job; these sit at
//! the layer boundaries, on the caller's side.

use std::hint::black_box;
use std::time::Instant;

use crate::json::{Obj, Val};
use crate::stats::median;

pub struct Span {
    pub name: String,
    /// Crate the call goes into (`"client"` for the load generator's
    /// own request envelopes).
    pub layer: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Request the span belongs to, where there is one.
    pub request: Option<usize>,
}

pub struct Trace {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Records a span observed elsewhere (times in µs on any one clock)
    /// and returns its id.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        (start_us, end_us): (f64, f64),
        parent: Option<usize>,
        request: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_us,
            end_us,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that covers everything until [`Trace::close`].
    pub fn open(&mut self, name: &str, layer: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_us();
        self.add(name, layer, (now, now), parent, None)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Calls `f` once, with a span around it; returns its result and
    /// the call time in seconds.
    pub fn once<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = self.now_us();
        let out = f();
        let end = self.now_us();
        self.add(name, layer, (start, end), parent, None);
        (out, (end - start) / 1e6)
    }

    /// Calls `f` once untimed, then `iters` times with a span around
    /// each call; returns the median call time in seconds.
    pub fn time<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        iters: usize,
        f: impl FnMut() -> R,
    ) -> f64 {
        self.time_after(name, layer, parent, iters, || {}, f)
    }

    /// [`Trace::time`], with `prepare` run (untimed) before each call.
    pub fn time_after<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        parent: Option<usize>,
        iters: usize,
        mut prepare: impl FnMut(),
        mut f: impl FnMut() -> R,
    ) -> f64 {
        black_box(f());
        let mut secs = Vec::with_capacity(iters);
        for _ in 0..iters {
            prepare();
            let start = self.now_us();
            black_box(f());
            let end = self.now_us();
            self.add(name, layer, (start, end), parent, None);
            secs.push((end - start) / 1e6);
        }
        median(&secs).unwrap_or(0.0)
    }

    /// Chrome trace-event JSON (load in ui.perfetto.dev or
    /// chrome://tracing): one track per layer, request envelopes on
    /// one track per request so overlapping requests do not stack.
    pub fn chrome_json(&self) -> String {
        let mut layers: Vec<&'static str> = Vec::new();
        let mut events = Vec::new();
        for (id, span) in self.spans.iter().enumerate() {
            let layer_idx = layers
                .iter()
                .position(|l| *l == span.layer)
                .unwrap_or_else(|| {
                    layers.push(span.layer);
                    layers.len() - 1
                });
            let tid = match span.request {
                Some(r) if span.layer == "client" => 1000 + r,
                _ => layer_idx,
            };
            let mut args = Obj::new();
            args.num("id", id as f64);
            if let Some(p) = span.parent {
                args.num("parent", p as f64);
            }
            if let Some(r) = span.request {
                args.num("request", r as f64);
            }
            let mut ev = Obj::new();
            ev.str("name", &span.name);
            ev.str("cat", span.layer);
            ev.str("ph", "X");
            ev.num("ts", span.start_us);
            ev.num("dur", (span.end_us - span.start_us).max(0.0));
            ev.num("pid", 1.0);
            ev.num("tid", tid as f64);
            ev.obj("args", args);
            events.push(Val::Obj(ev));
        }
        for (idx, layer) in layers.iter().enumerate() {
            let mut args = Obj::new();
            args.str("name", layer);
            let mut ev = Obj::new();
            ev.str("name", "thread_name");
            ev.str("ph", "M");
            ev.num("pid", 1.0);
            ev.num("tid", idx as f64);
            ev.obj("args", args);
            events.push(Val::Obj(ev));
        }
        let mut root = Obj::new();
        root.put("traceEvents", Val::Arr(events));
        root.str("displayTimeUnit", "ms");
        root.render_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llmnpu::obs::json::Json;

    #[test]
    fn chrome_trace_parses_and_keeps_parent_and_request() {
        let mut trace = Trace::new();
        let root = trace.open("replay", "harness", None);
        let secs = trace.time("gemm", "tensor", Some(root), 3, || 1 + 1);
        trace.add("request", "client", (0.0, 5.0), None, Some(7));
        trace.close(root);
        assert!(secs >= 0.0);
        let parsed = Json::parse(&trace.chrome_json()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        let slices: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(slices.len(), 5);
        let gemm = slices
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("gemm"))
            .unwrap();
        assert_eq!(gemm.get("cat").and_then(Json::as_str), Some("tensor"));
        assert_eq!(
            gemm.get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_f64),
            Some(root as f64)
        );
        let req = slices
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("client"));
        assert_eq!(
            req.unwrap()
                .get("args")
                .unwrap()
                .get("request")
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }
}
