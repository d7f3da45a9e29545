//! In-memory spans around the benchmark's calls into each layer.
//!
//! Tracing is off unless [`enable`] is called. A span is recorded when
//! its [`Open`] guard is closed; the open guards of a thread form a
//! stack, so a span opened inside another (for instance the compile
//! memo called from inside a pool checkout) records the outer one as
//! its parent. Spans stay in memory until [`take`] hands them to the
//! caller, which writes them when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within the run.
    pub id: u64,
    /// Layer call the span covers (`checkout`, `run`, `compile`, ...).
    pub name: &'static str,
    /// Qualifier: warm/cold checkout, request outcome, kernel name.
    pub detail: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the trace epoch.
    pub end_ns: u64,
    /// The span this one ran inside of, when any.
    pub parent: Option<u64>,
    /// Request the span belongs to, when it belongs to one.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Nanoseconds since the trace epoch (the first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Starts recording spans.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// True while spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

/// A fresh span id, for spans built after the fact with [`record`].
pub fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// Stores a finished span (no-op while tracing is off).
pub fn record(span: Span) {
    if enabled() {
        SPANS.lock().expect("span store unpoisoned").push(span);
    }
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store unpoisoned"))
}

/// An open span. Its clock always runs, so callers time a layer with
/// the same guard whether or not tracing is on.
#[must_use = "a span is recorded when it is closed"]
pub struct Open {
    id: u64,
    name: &'static str,
    detail: String,
    start_ns: u64,
    parent: Option<u64>,
    request: Option<u64>,
}

/// True when this thread has a span open.
pub fn nested() -> bool {
    OPEN.with(|open| !open.borrow().is_empty())
}

/// Opens a span named `name`, nested in the innermost span this thread
/// has open.
pub fn open(name: &'static str) -> Open {
    let id = next_id();
    let parent = if enabled() {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        })
    } else {
        None
    };
    Open {
        id,
        name,
        detail: String::new(),
        start_ns: now_ns(),
        parent,
        request: None,
    }
}

impl Open {
    /// Tags the span with the request it serves.
    pub fn request(mut self, request: u64) -> Self {
        self.request = Some(request);
        self
    }

    /// Sets the span's qualifier.
    pub fn set_detail(&mut self, detail: impl Into<String>) {
        self.detail = detail.into();
    }

    /// Ends the span, records it when tracing is on, and returns its
    /// duration in nanoseconds.
    pub fn close(self) -> u64 {
        let end_ns = now_ns();
        if enabled() {
            OPEN.with(|open| {
                let mut open = open.borrow_mut();
                if let Some(at) = open.iter().rposition(|id| *id == self.id) {
                    open.truncate(at);
                }
            });
            record(Span {
                id: self.id,
                name: self.name,
                detail: self.detail,
                start_ns: self.start_ns,
                end_ns,
                parent: self.parent,
                request: self.request,
            });
        }
        end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval its children cover, summed by name (nanoseconds).
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut totals: BTreeMap<&'static str, u64> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
        *totals.entry(span.name).or_default() += span.ns().saturating_sub(covered);
    }
    totals
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// One span as a JSON line.
pub fn to_json(span: &Span) -> String {
    let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
    format!(
        "{{\"id\":{},\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
        span.id,
        span.name,
        span.detail.replace(['"', '\\'], "_"),
        span.start_ns,
        span.end_ns,
        opt(span.parent),
        opt(span.request)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            detail: String::new(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, "request", 0, 100, None),
            span(2, "queue", 0, 30, Some(1)),
            // Overlapping children count once.
            span(3, "checkout", 20, 50, Some(1)),
            span(4, "run", 60, 120, Some(1)), // clipped at the parent's end
            span(5, "compile", 25, 35, Some(3)),
        ];
        let totals = self_time_ns(&spans);
        assert_eq!(totals["request"], 100 - 50 - 40);
        assert_eq!(totals["queue"], 30);
        assert_eq!(totals["checkout"], 30 - 10);
        assert_eq!(totals["run"], 60);
        assert_eq!(totals["compile"], 10);
    }

    #[test]
    fn spans_render_as_json_lines() {
        let mut s = span(7, "run", 5, 9, Some(3));
        s.request = Some(11);
        s.detail = "warm".into();
        assert_eq!(
            to_json(&s),
            "{\"id\":7,\"name\":\"run\",\"detail\":\"warm\",\"start_ns\":5,\"end_ns\":9,\"parent\":3,\"request\":11}"
        );
    }
}
