//! Chrome-trace-viewable span export for the metrics layer.
//!
//! [`TraceSink`] collects closed `(component, node, start, end)` spans as
//! the machine charges cycles, then renders them as JSONL — one compact
//! JSON object per line in the Chrome trace event format, emitted through
//! the deterministic serializer in [`crate::json`]:
//!
//! * each span becomes an async begin/end pair (`"ph":"b"` / `"ph":"e"`)
//!   sharing a unique `"id"` — async events rather than sync `B`/`E`
//!   because NI-residency spans of different fragments overlap on one
//!   track, which would break sync nesting,
//! * `"name"` is the [`Component::key`] (the track), `"pid"` is the node,
//!   `"ts"` is the simulated time in integer nanoseconds (the simulator's
//!   native unit; viewers that assume microseconds show a 1000× stretched
//!   but shape-identical timeline — wrap with `jq -s .` to load the file
//!   as a JSON array in Perfetto),
//! * lines are globally sorted by timestamp (ties broken by span id,
//!   begin before end), so timestamps are non-decreasing over the file.
//!
//! The sink is purely observational and deterministic: span ids are
//! allocated in charge order, which the simulation fixes.

use crate::metrics::Component;
use crate::{Json, Time};

/// One closed span on a component track.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSpan {
    /// The track this span belongs to.
    pub track: Component,
    /// The node (Chrome trace `pid`) the span is attributed to.
    pub node: u32,
    /// Unique span id, allocated in charge order.
    pub id: u64,
    /// Span start, ns.
    pub start_ns: u64,
    /// Span end, ns (≥ start).
    pub end_ns: u64,
}

/// Collects spans and renders them as Chrome-trace JSONL.
///
/// # Example
///
/// ```
/// use nisim_engine::metrics::Component;
/// use nisim_engine::trace::TraceSink;
/// use nisim_engine::Time;
/// let mut sink = TraceSink::new();
/// sink.span(Component::ProcSend, 0, Time::from_ns(10), Time::from_ns(40));
/// let jsonl = sink.to_chrome_jsonl();
/// assert_eq!(jsonl.lines().count(), 2); // one begin + one end
/// ```
#[derive(Clone, Debug, Default)]
pub struct TraceSink {
    spans: Vec<TraceSpan>,
}

impl TraceSink {
    /// Creates an empty sink.
    pub fn new() -> TraceSink {
        TraceSink::default()
    }

    /// Records one closed span. `end` is clamped up to `start` so a
    /// zero-length span is representable but a backwards one is not.
    pub fn span(&mut self, track: Component, node: u32, start: Time, end: Time) {
        let start_ns = start.as_ns();
        let end_ns = end.as_ns().max(start_ns);
        let id = self.spans.len() as u64;
        self.spans.push(TraceSpan {
            track,
            node,
            id,
            start_ns,
            end_ns,
        });
    }

    /// Number of spans collected.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The collected spans, in charge order.
    pub fn spans(&self) -> &[TraceSpan] {
        &self.spans
    }

    /// Merges another sink's spans (re-identified to stay unique).
    pub fn merge(&mut self, other: &TraceSink) {
        for s in &other.spans {
            let id = self.spans.len() as u64;
            self.spans.push(TraceSpan { id, ..*s });
        }
    }

    fn event(span: &TraceSpan, begin: bool) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::Str(span.track.key().to_string())),
            ("cat".into(), Json::Str("nisim".to_string())),
            (
                "ph".into(),
                Json::Str(if begin { "b" } else { "e" }.to_string()),
            ),
            ("id".into(), Json::Num(span.id as f64)),
            ("pid".into(), Json::Num(span.node as f64)),
            ("tid".into(), Json::Num(span.track.index() as f64)),
            (
                "ts".into(),
                Json::Num(if begin { span.start_ns } else { span.end_ns } as f64),
            ),
        ])
    }

    /// Renders all spans as Chrome-trace JSONL: one compact JSON object
    /// per line, timestamps non-decreasing, each span's begin before its
    /// end.
    pub fn to_chrome_jsonl(&self) -> String {
        // (ts, id, end-flag) orders begins before ends at equal stamps
        // and keeps the tie-break deterministic.
        let mut events: Vec<(u64, u64, bool)> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            events.push((s.start_ns, s.id, false));
            events.push((s.end_ns, s.id, true));
        }
        events.sort();
        let mut out = String::new();
        for (_, id, is_end) in events {
            let span = &self.spans[id as usize];
            out.push_str(&Self::event(span, !is_end).to_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn spans_render_sorted_and_paired() {
        let mut sink = TraceSink::new();
        sink.span(Component::ProcSend, 0, Time::from_ns(50), Time::from_ns(90));
        sink.span(
            Component::NiResidency,
            1,
            Time::from_ns(10),
            Time::from_ns(60),
        );
        let out = sink.to_chrome_jsonl();
        let events: Vec<Json> = out
            .lines()
            .map(|l| json::parse(l).expect("each line parses"))
            .collect();
        assert_eq!(events.len(), 4);
        let stamps: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").unwrap().as_u64().unwrap())
            .collect();
        let mut sorted = stamps.clone();
        sorted.sort();
        assert_eq!(stamps, sorted, "timestamps must be non-decreasing");
        assert_eq!(
            events[0].get("name").unwrap().as_str(),
            Some("ni_residency")
        );
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("b"));
    }

    #[test]
    fn backwards_span_is_clamped() {
        let mut sink = TraceSink::new();
        sink.span(Component::ProcRecv, 2, Time::from_ns(30), Time::from_ns(10));
        assert_eq!(sink.spans()[0].end_ns, 30);
    }

    #[test]
    fn merge_reassigns_ids() {
        let mut a = TraceSink::new();
        a.span(Component::ProcSend, 0, Time::ZERO, Time::from_ns(1));
        let mut b = TraceSink::new();
        b.span(Component::ProcRecv, 1, Time::ZERO, Time::from_ns(2));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.spans()[1].id, 1);
        assert!(!a.is_empty());
    }
}
