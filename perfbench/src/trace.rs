//! In-memory spans around the benchmark's calls into each crate.
//!
//! A span has a name, a start and an end (ns since the tracer's epoch),
//! the span that caused it, the request it belongs to, and the client
//! thread that made the call. Spans stay in memory until the run ends and
//! are then written out with per-name totals and self times. An untraced
//! run passes `None` for the tracer and records nothing.

use crate::metrics::json_string;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request (app or serve request) the span belongs to.
    pub req: u64,
    /// Client thread that made the call.
    pub thread: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of client threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking client thread")
    }

    /// Record a span and return its index.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.lock();
        spans.push(span);
        spans.len() - 1
    }

    fn close(&self, id: usize) {
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    open: Option<(&'a Tracer, usize)>,
}

impl SpanGuard<'_> {
    /// Index of the span, to name it as a parent (`None` when untraced).
    pub fn id(&self) -> Option<usize> {
        self.open.map(|(_, id)| id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((tracer, id)) = self.open {
            tracer.close(id);
        }
    }
}

/// Open a span on `tracer` (a no-op guard when `tracer` is `None`).
pub fn span<'a>(
    tracer: Option<&'a Tracer>,
    name: &'static str,
    parent: Option<usize>,
    req: u64,
    thread: u32,
) -> SpanGuard<'a> {
    SpanGuard {
        open: tracer.map(|t| {
            let start_ns = t.now_ns();
            let id = t.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
                req,
                thread,
            });
            (t, id)
        }),
    }
}

/// Total length of the union of `intervals`.
fn union_ns(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        total += ce - cs;
    }
    total
}

/// Share of the window `[from_ns, to_ns)` that root spans (no parent)
/// cover, averaged over `threads` client threads.
pub fn coverage(spans: &[Span], from_ns: u64, to_ns: u64, threads: u32) -> f64 {
    let window = to_ns.saturating_sub(from_ns);
    if window == 0 || threads == 0 {
        return 0.0;
    }
    let covered: u64 = (0..threads)
        .map(|t| {
            union_ns(
                spans
                    .iter()
                    .filter(|s| s.parent.is_none() && s.thread == t)
                    .map(|s| (s.start_ns.max(from_ns), s.end_ns.min(to_ns)))
                    .filter(|(s, e)| s < e)
                    .collect(),
            )
        })
        .sum();
    covered as f64 / (window as f64 * threads as f64)
}

/// Per span name: (count, total ns, self ns). Self time is a span's
/// duration minus the part of it its child spans cover.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children) {
        let kids: Vec<(u64, u64)> = kids
            .into_iter()
            .map(|(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        let own = s.duration_ns().saturating_sub(union_ns(kids));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.duration_ns();
        e.2 += own;
    }
    out
}

/// Spans plus their per-name totals as a JSON document.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("{\n  \"totals\": {");
    for (i, (name, (count, total, own))) in totals(spans).iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        write!(
            out,
            "{sep}\n    {}: {{\"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}",
            json_string(name)
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n  },\n  \"spans\": [");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        write!(
            out,
            "{sep}\n    {{\"id\": {i}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
             \"parent\": {parent}, \"req\": {}, \"thread\": {}}}",
            json_string(s.name),
            s.start_ns,
            s.end_ns,
            s.req,
            s.thread
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: Option<usize>, thread: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            thread,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            sp("app", 0, 100, None, 0),
            sp("run", 10, 40, Some(0), 0),
            sp("run", 50, 90, Some(0), 0),
        ];
        let t = totals(&spans);
        assert_eq!(t["app"], (1, 100, 30));
        assert_eq!(t["run"], (2, 70, 70));
    }

    #[test]
    fn coverage_unions_root_spans_per_thread() {
        let spans = vec![
            sp("req", 0, 50, None, 0),
            sp("req", 40, 80, None, 0),
            sp("child", 0, 100, Some(0), 0),
            sp("req", 0, 100, None, 1),
        ];
        // Thread 0 covers [0, 80) of 100, thread 1 all of it.
        assert!((coverage(&spans, 0, 100, 2) - 0.9).abs() < 1e-12);
        assert!((coverage(&spans, 0, 100, 1) - 0.8).abs() < 1e-12);
        assert_eq!(coverage(&spans, 5, 5, 1), 0.0);
    }

    #[test]
    fn guards_record_nested_spans() {
        let tracer = Tracer::new();
        {
            let outer = span(Some(&tracer), "outer", None, 7, 0);
            let _inner = span(Some(&tracer), "inner", outer.id(), 7, 0);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json(&spans).contains("\"name\": \"inner\""));
        assert_eq!(span(None, "off", None, 0, 0).id(), None);
    }
}
