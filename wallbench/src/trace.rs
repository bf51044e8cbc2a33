//! Spans recorded from outside the program: one around every call the
//! client thread makes into a layer's public queue. Spans are kept in
//! memory and written out when the run ends. Spans inside the program
//! are ROADMAP item A and a later change.

use crate::json::{obj, Value};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// What ran: `segment`, `submit`, `wait` or `verify`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The op the span belongs to (its completion id); spans of one
    /// request share it. `None` for spans that serve many ops.
    pub op: Option<u64>,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where the closed loop reports the calls it makes. The untraced
/// implementation compiles to nothing, so the end-to-end metrics are
/// measured with tracing off by the same loop the traced run uses.
pub trait Recorder {
    /// Whether spans are kept: lets the loop skip clock reads that
    /// only a span would need.
    const ON: bool;
    /// Opens the segment span every later span is a child of.
    fn open_segment(&mut self, start: Instant);
    /// Closes the segment span.
    fn close_segment(&mut self, end: Instant);
    /// Records one child of the open segment.
    fn span(&mut self, name: &'static str, start: Instant, end: Instant, op: Option<u64>);
}

/// Tracing off.
#[derive(Debug, Default)]
pub struct NoTrace;

impl Recorder for NoTrace {
    const ON: bool = false;
    fn open_segment(&mut self, _: Instant) {}
    fn close_segment(&mut self, _: Instant) {}
    fn span(&mut self, _: &'static str, _: Instant, _: Instant, _: Option<u64>) {}
}

/// Tracing on: spans in memory.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span recorded so far, parents before children.
    pub spans: Vec<Span>,
    segment: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            segment: None,
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }
}

impl Recorder for Tracer {
    const ON: bool = true;

    fn open_segment(&mut self, start: Instant) {
        let start_ns = self.ns(start);
        self.segment = Some(self.spans.len());
        self.spans.push(Span {
            name: "segment",
            start_ns,
            end_ns: start_ns,
            op: None,
            parent: None,
        });
    }

    fn close_segment(&mut self, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(i) = self.segment.take() {
            self.spans[i].end_ns = end_ns;
        }
    }

    fn span(&mut self, name: &'static str, start: Instant, end: Instant, op: Option<u64>) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            op,
            parent: self.segment,
        };
        self.spans.push(span);
    }
}

/// Self time of span `index`: its duration minus the part of its
/// interval that its direct children cover (overlapping children are
/// counted once; a child reaching outside the parent is clipped).
#[must_use]
pub fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (start, end) in children {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    parent.duration_ns() - covered
}

/// Total duration of the spans called `name` under `parent`.
#[must_use]
pub fn total_ns(spans: &[Span], parent: usize, name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(Span::duration_ns)
        .sum()
}

/// Durations in microseconds of the spans called `name`.
#[must_use]
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e3)
        .collect()
}

/// The trace file: at most `limit` spans in full (a raw-path window
/// records a million) under the total count.
#[must_use]
pub fn to_json(spans: &[Span], limit: usize) -> Value {
    obj([
        ("spans_recorded", Value::from(spans.len())),
        ("spans_written", Value::from(spans.len().min(limit))),
        (
            "spans",
            Value::Arr(
                spans
                    .iter()
                    .take(limit)
                    .map(|s| {
                        obj([
                            ("name", Value::from(s.name)),
                            ("start_ns", Value::from(s.start_ns)),
                            ("end_ns", Value::from(s.end_ns)),
                            ("op", s.op.map_or(Value::Null, Value::from)),
                            ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            op: None,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_direct_children() {
        let spans = vec![
            span("segment", 100, 1100, None),
            span("submit", 100, 300, Some(0)),
            // Overlaps the first child by 100: counted once.
            span("wait", 200, 500, Some(0)),
            // A grandchild covers nothing of the segment directly.
            span("inner", 210, 490, Some(2)),
            // Reaches past the parent's end: clipped to 1000..1100.
            span("verify", 1000, 1300, Some(0)),
            // Another root: not a child at all.
            span("segment", 0, 5000, None),
        ];
        // Covered: [100,500) and [1000,1100) = 500 of 1000.
        assert_eq!(self_time_ns(&spans, 0), 500);
        assert_eq!(self_time_ns(&spans, 2), 300 - 280);
        assert_eq!(self_time_ns(&spans, 3), 280);
        assert_eq!(total_ns(&spans, 0, "submit"), 200);
        assert_eq!(durations_us(&spans, "wait"), vec![0.3]);
    }

    #[test]
    fn tracer_parents_children_to_the_open_segment() {
        let mut t = Tracer::default();
        let a = Instant::now();
        t.open_segment(a);
        t.span("submit", a, a, Some(7));
        t.close_segment(Instant::now());
        t.open_segment(Instant::now());
        t.span("wait", a, a, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].op, Some(7));
        assert_eq!(t.spans[3].parent, Some(2));
        let text = to_json(&t.spans, 2).encode();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back.get("spans_recorded").unwrap().as_f64(), Some(4.0));
        assert_eq!(back.get("spans_written").unwrap().as_f64(), Some(2.0));
    }
}
