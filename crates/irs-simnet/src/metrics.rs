//! Measurement helpers: histograms and percentile summaries.
//!
//! Every experiment reports latency/load distributions; this keeps the
//! arithmetic in one audited place.

/// A simple exact histogram: stores all samples, sorts on demand.
/// Experiments here collect at most a few million samples, so exactness is
/// affordable and avoids bucket-resolution arguments.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Record one observation.
    pub fn record(&mut self, value: u64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// The q-quantile (0.0–1.0), nearest-rank. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let q = q.clamp(0.0, 1.0);
        let rank = ((self.samples.len() as f64 * q).ceil() as usize).clamp(1, self.samples.len());
        Some(self.samples[rank - 1])
    }

    /// Arithmetic mean. `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            return None;
        }
        Some(self.samples.iter().map(|&v| v as f64).sum::<f64>() / self.samples.len() as f64)
    }

    /// Maximum. `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().copied().max()
    }

    /// Produce the standard summary (p50/p90/p99/mean/max/count).
    pub fn summary(&mut self) -> Summary {
        Summary {
            count: self.count(),
            mean: self.mean().unwrap_or(0.0),
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            max: self.max().unwrap_or(0),
        }
    }

    /// Merge another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

/// Percentile summary of a histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50={} p90={} p99={} max={}",
            self.count, self.mean, self.p50, self.p90, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_nearest_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.50), Some(50));
        assert_eq!(h.quantile(0.90), Some(90));
        assert_eq!(h.quantile(0.99), Some(99));
        assert_eq!(h.quantile(1.0), Some(100));
        assert_eq!(h.quantile(0.0), Some(1)); // clamped to rank 1
    }

    #[test]
    fn empty_histogram() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.max(), None);
        let s = h.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn summary_fields() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 25.0);
        assert_eq!(s.p50, 20);
        assert_eq!(s.max, 40);
    }

    #[test]
    fn unsorted_insertion_order_is_fine() {
        let mut h = Histogram::new();
        for v in [5u64, 1, 9, 3, 7] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), Some(5));
        h.record(0);
        assert_eq!(h.quantile(0.0), Some(0));
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        a.record(1);
        let mut b = Histogram::new();
        b.record(3);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean(), Some(2.0));
    }

    #[test]
    fn display_format() {
        let mut h = Histogram::new();
        h.record(7);
        let s = h.summary().to_string();
        assert!(s.contains("n=1"));
        assert!(s.contains("p50=7"));
    }
}
