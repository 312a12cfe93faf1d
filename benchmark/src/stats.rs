//! The arithmetic every reported number goes through: percentiles that
//! refuse thin tails, medians and quartiles, and span self-times.

/// The `pct`-th percentile (nearest rank) of `sorted`, or `None` when
/// fewer than ten samples lie beyond it — a tail that thin is noise, and
/// reporting it would let one scheduler hiccup set the number.
pub fn percentile(sorted: &[u64], pct: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((pct / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n - rank.min(n);
    if beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), so that the spread this program
/// prints is the spread the driver computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Python: j = k*(n+1)//4 clamped to [1, n-1], delta = k*(n+1) - 4j,
        // result = (v[j-1]*(4-delta) + v[j]*delta) / 4.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// `(q3 - q1) / median`: the run-to-run spread the acceptance rule uses.
pub fn iqr_share(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Rate per second in each of `counts.len()` equal slices of a window
/// `window_s` long, and their median — one slow slice (a refresh, a
/// publish, a neighbour on the host) does not set the reported rate.
pub fn segment_rates(counts: &[u64], window_s: f64) -> (Vec<f64>, f64) {
    let slice_s = window_s / counts.len() as f64;
    let rates: Vec<f64> = counts.iter().map(|&c| c as f64 / slice_s).collect();
    let mid = median(&rates);
    (rates, mid)
}

/// A span as the harness records it: a name, an interval, and the index
/// of the span that caused it.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children may overlap each other; the
/// union is what counts).
pub fn self_times(spans: &[SpanRow]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_ns.max(parent.start_ns);
            let end = span.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond_it() {
        let thousand: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&thousand, 99.0), Some(990));
        assert_eq!(percentile(&thousand, 50.0), Some(500));
        let short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&short, 99.0), None, "9 beyond rank 990");
        assert_eq!(percentile(&short, 50.0), Some(500));
        assert_eq!(percentile(&thousand, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
        let twenty: Vec<u64> = (1..=20).collect();
        assert_eq!(percentile(&twenty, 50.0), Some(10));
        assert_eq!(percentile(&twenty[..19], 50.0), None);
    }

    #[test]
    fn segment_median_ignores_one_slow_slice() {
        let (rates, mid) = segment_rates(&[1000, 1000, 10, 1000, 1200], 5.0);
        assert_eq!(rates, vec![1000.0, 1000.0, 10.0, 1000.0, 1200.0]);
        assert_eq!(mid, 1000.0);
        let (_, mid) = segment_rates(&[50, 150], 1.0);
        assert_eq!(mid, 200.0, "two half-second slices: 100/s and 300/s");
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let (q1, q3) = quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            SpanRow {
                name: "page",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            SpanRow {
                name: "write",
                start_ns: 10,
                end_ns: 30,
                parent: Some(0),
            },
            // Overlaps `write` by 10 ns: the union covers 10..60.
            SpanRow {
                name: "wait",
                start_ns: 20,
                end_ns: 60,
                parent: Some(0),
            },
            SpanRow {
                name: "decode",
                start_ns: 25,
                end_ns: 35,
                parent: Some(2),
            },
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30, 10]);
        // A child that outlives its parent is clipped to it.
        let spans = [
            SpanRow {
                name: "a",
                start_ns: 0,
                end_ns: 10,
                parent: None,
            },
            SpanRow {
                name: "b",
                start_ns: 5,
                end_ns: 50,
                parent: Some(0),
            },
        ];
        assert_eq!(self_times(&spans), vec![5, 45]);
    }
}
