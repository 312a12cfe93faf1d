//! Span-style tracing for one logical request.
//!
//! A [`SpanRecorder`] is created per traced request and carried down
//! the stack (in `irs-net` it rides in the `CallCtx`). Each layer
//! wraps its work in a [`SpanGuard`] — enter on creation, exit on
//! drop — and stamps a *verdict* (`"ok"`, `"cached"`, `"stale"`,
//! `"exhausted"`, …) describing how that layer disposed of the call.
//! Because layers nest strictly (a layer's inner call returns before
//! the layer itself does), the recorded spans form a proper tree:
//! enter order is stack order, and a span's *self time* is its
//! duration minus its direct children's — which is what the E18
//! attribution table prints and why per-layer self-times sum to the
//! outermost span's wall time.
//!
//! Cost model: recording a span is one `Mutex` lock (per-request, so
//! effectively uncontended) and a `Vec` push; a request with no
//! recorder pays one `Option` check per layer ([`MaybeSpan::none`]).
//! Span names and verdicts are `&'static str` — no allocation on the
//! hot path beyond the spans vector itself.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Process-unique id for one traced request.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// The next id from a process-wide sequence (starts at 1).
    pub fn next() -> TraceId {
        static NEXT: AtomicU64 = AtomicU64::new(1);
        TraceId(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

/// One completed (or still-open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (`"cache"`, `"retry"`, `"transport"`, …).
    pub name: &'static str,
    /// Nesting depth at enter time; the outermost span is 0.
    pub depth: u16,
    /// Enter time, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Exit time; equals `start_ns` while the span is still open.
    pub end_ns: u64,
    /// How the layer disposed of the call; `""` until set.
    pub verdict: &'static str,
}

impl Span {
    /// Duration in nanoseconds (0 while open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct RecorderInner {
    spans: Vec<Span>,
    depth: u16,
}

/// Collects the spans of one logical request.
///
/// Intended for a single chain of nested calls; it is thread-safe
/// (the batch layer's leader may complete a follower's span on another
/// thread), but depths are only meaningful for properly nested use.
/// Self-time accounting ([`breakdown`](SpanRecorder::breakdown)) is
/// defined for one call: a traced group's per-shard chains overlap in
/// time (every shard is started before any is waited on), so their
/// spans all fall inside the router's but do not nest in one another.
pub struct SpanRecorder {
    id: TraceId,
    epoch: Instant,
    inner: Mutex<RecorderInner>,
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("id", &self.id)
            .finish()
    }
}

impl SpanRecorder {
    /// A fresh recorder with a new [`TraceId`].
    pub fn new() -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder {
            id: TraceId::next(),
            epoch: Instant::now(),
            inner: Mutex::new(RecorderInner {
                spans: Vec::with_capacity(16),
                depth: 0,
            }),
        })
    }

    /// This request's trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Open a span; it closes (records its exit time) when the guard
    /// drops.
    pub fn enter(self: &Arc<Self>, name: &'static str) -> SpanGuard {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("trace lock poisoned");
        let idx = inner.spans.len();
        let depth = inner.depth;
        inner.spans.push(Span {
            name,
            depth,
            start_ns: now_ns,
            end_ns: now_ns,
            verdict: "",
        });
        inner.depth += 1;
        SpanGuard {
            rec: Arc::clone(self),
            idx,
            verdict: Cell::new(None),
        }
    }

    /// Open a span if `rec` is present, else a no-op guard — the shape
    /// every layer uses so untraced requests stay free.
    pub fn maybe(rec: Option<&Arc<SpanRecorder>>, name: &'static str) -> MaybeSpan {
        MaybeSpan {
            guard: rec.map(|r| r.enter(name)),
        }
    }

    fn exit(&self, idx: usize, verdict: Option<&'static str>) {
        let now_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut inner = self.inner.lock().expect("trace lock poisoned");
        inner.depth = inner.depth.saturating_sub(1);
        if let Some(span) = inner.spans.get_mut(idx) {
            span.end_ns = now_ns;
            if let Some(v) = verdict {
                span.verdict = v;
            }
        }
    }

    /// The spans recorded so far, in enter (stack) order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .lock()
            .expect("trace lock poisoned")
            .spans
            .clone()
    }

    /// Per-layer aggregation with self-times (duration minus direct
    /// children), in first-enter order. Self-times of all layers sum
    /// to the duration of the outermost span(s) exactly.
    pub fn breakdown(&self) -> Vec<LayerBreakdown> {
        let spans = self.spans();
        // child_ns[i] = total duration of i's *direct* children. With
        // spans in enter order and proper nesting, a span's parent is
        // the most recent span one level shallower.
        let mut child_ns = vec![0u64; spans.len()];
        let mut last_at_depth: Vec<usize> = Vec::new();
        for (i, span) in spans.iter().enumerate() {
            let d = span.depth as usize;
            last_at_depth.truncate(d);
            if d > 0 {
                if let Some(&parent) = last_at_depth.get(d - 1) {
                    child_ns[parent] += span.duration_ns();
                }
            }
            last_at_depth.push(i);
        }
        let mut order: Vec<&'static str> = Vec::new();
        let mut agg: std::collections::HashMap<&'static str, LayerBreakdown> =
            std::collections::HashMap::new();
        for (i, span) in spans.iter().enumerate() {
            let entry = agg.entry(span.name).or_insert_with(|| {
                order.push(span.name);
                LayerBreakdown {
                    name: span.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                }
            });
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(child_ns[i]);
        }
        order.into_iter().filter_map(|n| agg.remove(n)).collect()
    }

    /// The attribution table as text — one row per layer, self-time
    /// percentages against the outermost span's wall time.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let rows = self.breakdown();
        let wall_ns: u64 = rows
            .iter()
            .map(|r| r.self_ns)
            .fold(0u64, u64::saturating_add)
            .max(1);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<12} {:>6} {:>12} {:>12} {:>7}",
            "layer", "calls", "total_us", "self_us", "self%"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<12} {:>6} {:>12.1} {:>12.1} {:>6.1}%",
                r.name,
                r.count,
                r.total_ns as f64 / 1_000.0,
                r.self_ns as f64 / 1_000.0,
                100.0 * r.self_ns as f64 / wall_ns as f64,
            );
        }
        out
    }
}

/// Aggregated timing for one layer name.
#[derive(Clone, Debug)]
pub struct LayerBreakdown {
    /// Layer name.
    pub name: &'static str,
    /// Spans recorded under this name.
    pub count: u64,
    /// Total wall time inside the layer (including inner layers).
    pub total_ns: u64,
    /// Time attributable to the layer itself (total minus direct
    /// children).
    pub self_ns: u64,
}

/// Closes its span on drop. Set a verdict with [`SpanGuard::verdict`]
/// any time before then.
pub struct SpanGuard {
    rec: Arc<SpanRecorder>,
    idx: usize,
    verdict: Cell<Option<&'static str>>,
}

impl SpanGuard {
    /// Stamp how this layer disposed of the call.
    pub fn verdict(&self, v: &'static str) {
        self.verdict.set(Some(v));
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.rec.exit(self.idx, self.verdict.get());
    }
}

/// A possibly-absent span: the no-recorder case costs one `Option`
/// check. This is what `CallCtx::span` hands to layers.
#[derive(Default)]
pub struct MaybeSpan {
    guard: Option<SpanGuard>,
}

impl MaybeSpan {
    /// The no-op span.
    pub fn none() -> MaybeSpan {
        MaybeSpan::default()
    }

    /// Stamp a verdict (no-op when absent).
    pub fn verdict(&self, v: &'static str) {
        if let Some(g) = &self.guard {
            g.verdict(v);
        }
    }

    /// Stamp `ok` on success, the error's verdict otherwise — sugar for
    /// the common tail call pattern.
    pub fn verdict_result<T, E>(&self, result: &Result<T, E>, err_verdict: &'static str) {
        self.verdict(if result.is_ok() { "ok" } else { err_verdict });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn trace_ids_are_unique() {
        let a = TraceId::next();
        let b = TraceId::next();
        assert_ne!(a, b);
        assert_ne!(SpanRecorder::new().id(), SpanRecorder::new().id());
    }

    #[test]
    fn span_nesting_order_and_depths() {
        let rec = SpanRecorder::new();
        {
            let outer = rec.enter("cache");
            outer.verdict("miss");
            {
                let mid = rec.enter("retry");
                {
                    let inner = rec.enter("transport");
                    inner.verdict("ok");
                }
                mid.verdict("ok");
            }
            // A sibling after the nested pair closed.
            let _again = rec.enter("writeback");
        }
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["cache", "retry", "transport", "writeback"]);
        let depths: Vec<_> = spans.iter().map(|s| s.depth).collect();
        assert_eq!(depths, [0, 1, 2, 1]);
        let verdicts: Vec<_> = spans.iter().map(|s| s.verdict).collect();
        assert_eq!(verdicts, ["miss", "ok", "ok", ""]);
        // Nesting: children start no earlier and end no later.
        assert!(spans[1].start_ns >= spans[0].start_ns);
        assert!(spans[2].end_ns <= spans[1].end_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn breakdown_self_times_sum_to_outer_wall() {
        let rec = SpanRecorder::new();
        {
            let _outer = rec.enter("outer");
            std::thread::sleep(Duration::from_millis(2));
            {
                let _inner = rec.enter("inner");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let spans = rec.spans();
        let outer_ns = spans[0].duration_ns();
        let rows = rec.breakdown();
        assert_eq!(rows.len(), 2);
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(
            total_self, outer_ns,
            "self-times must account for exactly the outer wall time"
        );
        let outer = &rows[0];
        assert_eq!(outer.name, "outer");
        assert!(outer.self_ns < outer.total_ns);
        let table = rec.render_table();
        assert!(table.contains("outer") && table.contains("inner"));
    }

    #[test]
    fn maybe_span_is_free_when_absent() {
        let none = SpanRecorder::maybe(None, "cache");
        none.verdict("ignored");
        let rec = SpanRecorder::new();
        {
            let some = SpanRecorder::maybe(Some(&rec), "cache");
            some.verdict("hit");
        }
        assert_eq!(rec.spans()[0].verdict, "hit");
    }
}
