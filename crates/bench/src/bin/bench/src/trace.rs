//! Span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! simulator crates. Each holds its name, start, end, parent, workload,
//! rep and thread, plus the allocator calls its thread made inside it and
//! an optional work count (events fired, bytes written). Sweep threads
//! record into their own [`Recorder`] and hand the spans back as closure
//! return values, so nothing is shared between threads but two id
//! counters.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use nisim_engine::Json;

use crate::alloc;

// Id counters: statistics-grade atomics that publish no other data.
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_NO: Cell<Option<u64>> = const { Cell::new(None) };
}

/// A small stable number for the current thread (0 is the first thread
/// that recorded a span).
fn thread_no() -> u64 {
    THREAD_NO.with(|t| match t.get() {
        Some(n) => n,
        None => {
            let n = NEXT_THREAD.fetch_add(1, Relaxed);
            t.set(Some(n));
            n
        }
    })
}

/// One closed span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// What ran (`machine.run`, `point`, ...).
    pub name: &'static str,
    /// Start, ns since the run's origin.
    pub start_ns: u64,
    /// End, ns since the run's origin.
    pub end_ns: u64,
    /// The recording thread's number.
    pub thread: u64,
    /// The workload it belongs to.
    pub workload: &'static str,
    /// The rep it belongs to (0 is set-up).
    pub rep: u32,
    /// Allocator calls the span's thread made inside it.
    pub allocs: u64,
    /// Work done inside it, when the caller counted any (events, bytes).
    pub count: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where a recorder files its spans. `Copy`, so each sweep thread starts
/// its own [`Recorder`] from the same context.
#[derive(Clone, Copy)]
pub struct Ctx {
    /// False records nothing and costs one branch per span.
    pub on: bool,
    /// Time zero of every span's timestamps.
    pub origin: Instant,
    /// Workload name stamped on each span.
    pub workload: &'static str,
    /// Rep number stamped on each span.
    pub rep: u32,
}

/// Collects closed spans in memory.
pub struct Recorder {
    ctx: Ctx,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder filing into `ctx`.
    pub fn new(ctx: Ctx) -> Recorder {
        Recorder {
            ctx,
            spans: Vec::new(),
        }
    }

    /// The context, for starting recorders on other threads.
    pub fn ctx(&self) -> Ctx {
        self.ctx
    }

    /// Runs `f` inside a span; `f` receives the span's id (`None` when
    /// recording is off) to parent child spans on.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Recorder, Option<u64>) -> R,
    ) -> R {
        self.counted(name, parent, |r, id| (f(r, id), 0))
    }

    /// [`Recorder::span`] for work that reports a count alongside its
    /// result.
    pub fn counted<R>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(&mut Recorder, Option<u64>) -> (R, u64),
    ) -> R {
        if !self.ctx.on {
            return f(self, None).0;
        }
        let id = NEXT_SPAN.fetch_add(1, Relaxed);
        let allocs0 = alloc::thread_calls();
        let start_ns = self.ctx.origin.elapsed().as_nanos() as u64;
        let (result, count) = f(self, Some(id));
        let end_ns = self.ctx.origin.elapsed().as_nanos() as u64;
        let allocs = alloc::thread_calls() - allocs0;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            thread: thread_no(),
            workload: self.ctx.workload,
            rep: self.ctx.rep,
            allocs,
            count,
        });
        result
    }

    /// Adds spans another thread recorded.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Each span's self time: its duration minus the union of its direct
/// children's intervals (clipped to the span). Children of one parent may
/// overlap — parallel `point` spans under a `section` do — so their
/// durations are not simply subtracted.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Renders spans as Chrome-trace JSONL in the format `nisim --trace`
/// writes: each span is an async begin/end pair sharing its id, `ts` in
/// integer nanoseconds, lines sorted by timestamp (begins first on ties).
/// The process id is the workload (in order of first appearance), the
/// thread id the recording thread; the begin event carries the parent,
/// workload, rep, allocation count and work count as `args`.
pub fn to_chrome_jsonl(spans: &[Span]) -> String {
    let mut workloads: Vec<&str> = Vec::new();
    for s in spans {
        if !workloads.contains(&s.workload) {
            workloads.push(s.workload);
        }
    }
    let mut events: Vec<(u64, u64, bool, usize)> = Vec::with_capacity(spans.len() * 2);
    for (i, s) in spans.iter().enumerate() {
        events.push((s.start_ns, s.id, false, i));
        events.push((s.end_ns, s.id, true, i));
    }
    events.sort_unstable();
    let mut out = String::new();
    for (ts, id, is_end, i) in events {
        let s = &spans[i];
        let pid = workloads.iter().position(|w| *w == s.workload).unwrap_or(0);
        let mut e = Json::obj()
            .set("name", s.name)
            .set("cat", "bench")
            .set("ph", if is_end { "e" } else { "b" })
            .set("id", id)
            .set("pid", pid)
            .set("tid", s.thread)
            .set("ts", ts);
        if !is_end {
            e = e.set(
                "args",
                Json::obj()
                    .set("parent", s.parent.map_or(Json::Null, Json::from))
                    .set("workload", s.workload)
                    .set("rep", s.rep)
                    .set("allocs", s.allocs)
                    .set("count", s.count),
            );
        }
        out.push_str(&e.to_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            thread: 0,
            workload: "w",
            rep: 1,
            allocs: 0,
            count: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // parent [0,100] > child [10,40] > grandchild [20,30]
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Two parallel points overlap on [20,30]; a third sits apart; a
        // fourth runs past the parent's end and is clipped.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            span(5, Some(1), 90, 130),
        ];
        // covered: [10,50] + [60,70] + [90,100] = 60
        assert_eq!(self_times(&spans)[0], 40);
        // Fully overlapping children cover the parent once, not twice.
        let twins = [
            span(1, None, 0, 10),
            span(2, Some(1), 0, 10),
            span(3, Some(1), 0, 10),
        ];
        assert_eq!(self_times(&twins)[0], 0);
    }

    #[test]
    fn recorder_links_parents_and_records_nothing_when_off() {
        let ctx = Ctx {
            on: true,
            origin: Instant::now(),
            workload: "w",
            rep: 3,
        };
        let mut rec = Recorder::new(ctx);
        rec.span("outer", None, |r, outer| {
            r.counted("inner", outer, |_, _| ((), 42));
        });
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.name, outer.name), ("inner", "outer"));
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.count, 42);
        assert_eq!(inner.rep, 3);
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);

        let mut off = Recorder::new(Ctx { on: false, ..ctx });
        let got = off.span("outer", None, |r, id| {
            assert_eq!(id, None);
            r.span("inner", id, |_, _| 7)
        });
        assert_eq!(got, 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_jsonl_pairs_every_span_in_time_order() {
        let spans = [span(1, None, 0, 100), span(2, Some(1), 10, 40)];
        let text = to_chrome_jsonl(&spans);
        let events: Vec<Json> = text
            .lines()
            .map(|l| nisim_engine::json::parse(l).expect("each line parses"))
            .collect();
        assert_eq!(events.len(), 4);
        let ts: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").and_then(Json::as_u64).expect("ts"))
            .collect();
        assert_eq!(ts, vec![0, 10, 40, 100]);
        let phases: Vec<&str> = events
            .iter()
            .map(|e| e.get("ph").and_then(Json::as_str).expect("ph"))
            .collect();
        assert_eq!(phases, vec!["b", "b", "e", "e"]);
        let child = &events[1];
        assert_eq!(
            child
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }
}
