//! Wall-clock spans recorded from the benchmark's side of each layer call.
//!
//! Every op is one root span, timed by the same clock reads as the op's
//! end-to-end latency; each call into a layer's public function is a child
//! span of it. Calls run one after another on the client thread, so the
//! spans of an op are flat and in order. With tracing off the tracer only
//! runs the closures, so the untraced run measures the program alone. Spans
//! stay in memory and are written once, at the end, as Chrome trace JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded interval. `op` is the op it belongs to; `None` for calls
/// made outside every op (the traced run's `NoProbe` baselines).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when `on`; otherwise a pass-through.
pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    open_op: Option<u64>,
}

/// Name of the root span every op opens.
pub const OP: &str = "op";

/// Name under which op time outside every layer span is reported.
pub const GLUE: &str = "bench.glue";

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).expect("run shorter than 584 years")
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open_op: None }
    }

    /// Opens the root span of op `op`, which started at `t0`.
    pub fn begin_op(&mut self, op: u64, t0: Instant) {
        if self.on {
            let start_ns = ns(t0.saturating_duration_since(self.epoch));
            self.spans.push(Span { name: OP, op: Some(op), start_ns, end_ns: start_ns });
            self.open_op = Some(op);
        }
    }

    /// Closes the open op span after `dt`, the op's measured latency.
    pub fn end_op(&mut self, dt: Duration) {
        if self.open_op.take().is_some() {
            let root = self.spans.iter_mut().rev().find(|s| s.name == OP).expect("op span");
            root.end_ns = root.start_ns + ns(dt);
        }
    }

    /// Runs `f` inside a span named `name`, a child of the open op if any.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            op: self.open_op,
            start_ns: ns(start.saturating_duration_since(self.epoch)),
            end_ns: ns(end.saturating_duration_since(self.epoch)),
        });
        out
    }

    /// Per-name totals of self time and call counts. A layer span has no
    /// children, so its self time is its duration; an op's self time is
    /// its duration minus that of its layer spans, reported as `GLUE`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut inside: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name != OP) {
            let e = out.entry(s.name).or_default();
            e.0 += s.dur_ns();
            e.1 += 1;
            if let Some(op) = s.op {
                *inside.entry(op).or_default() += s.dur_ns();
            }
        }
        for s in self.spans.iter().filter(|s| s.name == OP) {
            let layers = s.op.and_then(|op| inside.get(&op)).copied().unwrap_or(0);
            let e = out.entry(GLUE).or_default();
            e.0 += s.dur_ns().saturating_sub(layers);
            e.1 += 1;
        }
        out
    }

    /// The ids of ops whose layer spans do not fit inside the op's
    /// measured latency: a span starts before the op, ends after it, or
    /// overlaps the span before it. Spans that fit leave the op's glue at
    /// 0 or more.
    pub fn misfit_ops(&self) -> Vec<u64> {
        let mut bad = Vec::new();
        for (i, root) in self.spans.iter().enumerate().filter(|(_, s)| s.name == OP) {
            let (mut reach, mut fits) = (root.start_ns, true);
            for s in self.spans[i + 1..].iter().take_while(|s| s.name != OP) {
                if s.op.is_some() {
                    fits &= s.op == root.op && s.start_ns >= reach && s.end_ns <= root.end_ns;
                    reach = s.end_ns;
                }
            }
            if !fits {
                bad.extend(root.op);
            }
        }
        bad
    }

    /// The spans as Chrome trace JSON (complete `X` events, microseconds),
    /// loadable in Perfetto; `meta` lands in the top-level `metadata`.
    pub fn to_chrome(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"metadata\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(out, "{sep}{}:{}", json_str(k), json_str(v)).expect("write to String");
        }
        out.push_str("},\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.name == OP || s.op.is_none() { "" } else { OP };
            let op = s.op.map_or_else(|| "null".to_string(), |op| op.to_string());
            write!(
                out,
                "{sep}\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{op},\"parent\":{}}}}}",
                json_str(s.name),
                json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                json_str(parent),
            )
            .expect("write to String");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, op: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: Some(op), start_ns, end_ns }
    }

    fn traced(spans: Vec<Span>) -> Tracer {
        let mut t = Tracer::new(true);
        t.spans = spans;
        t
    }

    #[test]
    fn glue_is_op_time_outside_layer_spans() {
        let t = traced(vec![
            span(OP, 0, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 50, 60),
            Span { name: "base", op: None, start_ns: 100, end_ns: 130 },
            span(OP, 1, 130, 150),
        ]);
        assert!(t.misfit_ops().is_empty());
        let totals = t.self_times();
        assert_eq!(totals[GLUE], (80, 2));
        assert_eq!(totals["a"], (30, 1));
        assert_eq!(totals["base"], (30, 1));
    }

    #[test]
    fn spans_outside_the_op_or_overlapping_are_misfits() {
        let late = traced(vec![span(OP, 0, 0, 100), span("a", 0, 90, 110)]);
        assert_eq!(late.misfit_ops(), vec![0]);
        let early = traced(vec![span(OP, 3, 10, 100), span("a", 3, 5, 20)]);
        assert_eq!(early.misfit_ops(), vec![3]);
        let overlap = traced(vec![
            span(OP, 0, 0, 100),
            span("a", 0, 10, 40),
            span("b", 0, 30, 60),
            span(OP, 1, 100, 200),
        ]);
        assert_eq!(overlap.misfit_ops(), vec![0]);
    }

    #[test]
    fn op_span_takes_the_measured_latency() {
        let mut t = Tracer::new(true);
        let t0 = Instant::now();
        t.begin_op(7, t0);
        t.span("a", || ());
        t.end_op(Duration::from_secs(1));
        assert_eq!(t.spans[0].dur_ns(), 1_000_000_000);
        assert!(t.misfit_ops().is_empty());
    }
}
