//! The lock-free metrics registry.
//!
//! Three metric kinds, all `&self`, all safe to hammer from any number
//! of threads:
//!
//! * [`Counter`] — a monotone count, sharded across [`SHARDS`]
//!   cache-line-padded cells; a thread picks its cell once (thread
//!   local) and increments with one relaxed `fetch_add`, so contended
//!   counters scale instead of serializing on a single line.
//! * [`Gauge`] — a point-in-time value (records held, filter version,
//!   consecutive failures); plain relaxed store/add.
//! * [`Histogram`] — log₂-bucketed latency distribution: bucket *i*
//!   holds values in `[2^(i-1), 2^i)`, so 65 buckets cover all of
//!   `u64` with one `leading_zeros` and one relaxed `fetch_add` per
//!   observation. Quantiles read out as the upper bound of the bucket
//!   the rank lands in — exact enough for p50/p95/p99 dashboards at a
//!   fraction of the cost of exact reservoirs.
//!
//! Handles are cheap clones (an `Arc` apiece): look a metric up once,
//! keep the handle in a struct field, and the hot path never touches
//! the registry map again. [`Registry::render`] emits Prometheus-style
//! text exposition; [`parse_exposition`] reads it back (tests, the E18
//! gate, and the wire round-trip use it).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};

/// Number of per-counter cells. A power of two ≥ the typical worker
/// thread count; more shards buys less contention at the cost of a
/// longer sum on read (reads are rare).
pub const SHARDS: usize = 16;

/// One cache line per cell so two shards never share a line.
#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Stable small id per thread, used to pick a counter shard. Ids are
/// handed out once per thread and reused for every counter.
fn shard_index() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % SHARDS;
    }
    SHARD.with(|s| *s)
}

/// A monotone, shardable counter. Clones share the same cells.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<[PaddedU64; SHARDS]>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Counter {
        Counter {
            cells: Arc::new(std::array::from_fn(|_| PaddedU64::default())),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`. One relaxed `fetch_add` on this thread's cell.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cells[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum across all cells. A point-in-time reading: concurrent
    /// increments may or may not be included.
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .fold(0u64, u64::wrapping_add)
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A settable point-in-time value.
#[derive(Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtract `n`, saturating at zero.
    #[inline]
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds `[2^(i-1), 2^i)`, bucket 64 tops out at `u64::MAX`.
pub const BUCKETS: usize = 65;

/// Log₂-bucketed distribution with total count, sum, and exact max.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// Which bucket a value lands in.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

/// Inclusive upper bound of bucket `i` — what quantile readout reports.
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }

    /// Record one observation (typically microseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        let inner = &*self.inner;
        inner.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(v, Ordering::Relaxed);
        inner.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Record the elapsed time since `start`, in microseconds.
    #[inline]
    pub fn record_since(&self, start: std::time::Instant) {
        self.record(start.elapsed().as_micros() as u64);
    }

    /// Record `n` observations that sum to the time elapsed since
    /// `start`, in microseconds — one per frame of a burst that was
    /// handled in one go. Observations are whole, so all get the even
    /// share and one also gets the remainder: `_count` keeps meaning
    /// frames and `_sum` wall time.
    pub fn record_spread_since(&self, start: std::time::Instant, n: u64) {
        if n == 0 {
            return;
        }
        let total = start.elapsed().as_micros() as u64;
        for _ in 1..n {
            self.record(total / n);
        }
        self.record(total / n + total % n);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &*self.inner;
        let buckets: [u64; BUCKETS] =
            std::array::from_fn(|i| inner.buckets[i].load(Ordering::Relaxed));
        HistogramSnapshot {
            count: buckets.iter().sum(),
            sum: inner.sum.load(Ordering::Relaxed),
            max: inner.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// A frozen [`Histogram`] reading with quantile lookup.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// Observation count per log₂ bucket.
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]`: the inclusive upper bound of
    /// the bucket the rank lands in, clamped to the exact max. Zero
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Arithmetic mean, zero when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

/// A registered metric of any kind.
#[derive(Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Counter),
    /// A [`Gauge`].
    Gauge(Gauge),
    /// A [`Histogram`].
    Histogram(Histogram),
}

/// A named collection of metrics. Registration takes a brief write
/// lock; the hot path holds handles and never comes back here. Reads
/// (rendering) take the read lock and see a point-in-time view.
#[derive(Default)]
pub struct Registry {
    metrics: RwLock<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or register the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.metrics.write().expect("metrics lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the gauge `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.metrics.write().expect("metrics lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register the histogram `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.metrics.write().expect("metrics lock poisoned");
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Look up a metric without registering.
    pub fn get(&self, name: &str) -> Option<Metric> {
        self.metrics
            .read()
            .expect("metrics lock poisoned")
            .get(name)
            .cloned()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.read().expect("metrics lock poisoned").len()
    }

    /// Whether nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Prometheus-style text exposition, metrics in name order.
    /// Counters and gauges emit one sample; histograms emit a summary
    /// (`{quantile="…"}` samples plus `_count`/`_sum`/`_max`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let map = self.metrics.read().expect("metrics lock poisoned");
        let mut out = String::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter\n{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge\n{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let s = h.snapshot();
                    let _ = writeln!(out, "# TYPE {name} summary");
                    for (q, v) in [(0.5, s.p50()), (0.95, s.p95()), (0.99, s.p99())] {
                        let _ = writeln!(out, "{name}{{quantile=\"{q}\"}} {v}");
                    }
                    let _ = writeln!(out, "{name}_count {}", s.count);
                    let _ = writeln!(out, "{name}_sum {}", s.sum);
                    let _ = writeln!(out, "{name}_max {}", s.max);
                }
            }
        }
        out
    }
}

/// Parse text exposition back into `sample name → value`. Keys keep
/// their label set verbatim (`latency_us{quantile="0.99"}`); `#`
/// comment lines and malformed lines are skipped.
pub fn parse_exposition(text: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Split on the last space so label values containing spaces
        // would still parse.
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(name.to_string(), v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn histogram_bucket_boundaries() {
        // Exactly the powers of two are where buckets roll over.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every boundary value lands in a bucket whose bounds contain it.
        for shift in 0..64u32 {
            let v = 1u64 << shift;
            let b = bucket_of(v);
            assert!(v <= bucket_upper(b), "{v} above its bucket {b}");
            assert!(b == 0 || v > bucket_upper(b - 1), "{v} below bucket {b}");
        }
    }

    #[test]
    fn histogram_quantiles_and_max() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 5050);
        assert_eq!(s.max, 100);
        // Rank 50 of 1..=100 lands in bucket [32,64); readout is its
        // upper bound.
        assert_eq!(s.p50(), 63);
        // p99 and p100 land in the top bucket, clamped to the exact max.
        assert_eq!(s.p99(), 100);
        assert_eq!(s.quantile(1.0), 100);
        assert_eq!(s.mean(), 50);
        // Empty histogram reads zeros.
        let empty = Histogram::new().snapshot();
        assert_eq!(
            (empty.p50(), empty.p99(), empty.max, empty.mean()),
            (0, 0, 0, 0)
        );
    }

    #[test]
    fn concurrent_counter_increments_from_8_threads() {
        let c = Counter::new();
        let barrier = Barrier::new(8);
        thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    barrier.wait();
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_set_add_sub_saturates() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(20);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        g.set(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn registry_handles_share_state_and_render_parses_back() {
        let reg = Registry::new();
        let a = reg.counter("irs_requests_total");
        let b = reg.counter("irs_requests_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("irs_requests_total").get(), 3);
        reg.gauge("irs_records").set(7);
        let h = reg.histogram("irs_latency_us");
        h.record(100);
        h.record(200);

        let text = reg.render();
        let parsed = parse_exposition(&text);
        assert_eq!(parsed["irs_requests_total"], 3.0);
        assert_eq!(parsed["irs_records"], 7.0);
        assert_eq!(parsed["irs_latency_us_count"], 2.0);
        assert_eq!(parsed["irs_latency_us_sum"], 300.0);
        assert_eq!(parsed["irs_latency_us_max"], 200.0);
        assert!(parsed.contains_key("irs_latency_us{quantile=\"0.99\"}"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn registry_rejects_kind_mismatch() {
        let reg = Registry::new();
        reg.counter("x");
        reg.gauge("x");
    }
}
