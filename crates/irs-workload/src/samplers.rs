//! Random samplers used by workload generators.

use rand::rngs::StdRng;
use rand::Rng;

/// Zipf-distributed sampler over ranks `0..n` with skew `theta`.
///
/// Uses an explicit CDF table with binary search: exact, O(log n) per
/// sample, and memory-bounded (8 bytes per rank). Experiment populations
/// stay ≤ ~4M ranks, so the table is at most a few tens of MB.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build for `n` ranks with exponent `theta` (0 = uniform; 0.8–1.2 is
    /// typical for content popularity).
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(
            n <= 1 << 23,
            "table-based Zipf capped at 8M ranks; shard larger populations"
        );
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in cdf.iter_mut() {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }

    /// Sample a rank in `0..n` (0 is the most popular).
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        // First index whose CDF ≥ u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("no NaN"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// The probability mass of rank `k`.
    pub fn pmf(&self, k: usize) -> f64 {
        if k >= self.cdf.len() {
            return 0.0;
        }
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }
}

/// Exponential inter-arrival sample with the given mean (ms).
pub fn exponential_ms(rng: &mut StdRng, mean_ms: f64) -> u64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    (-u.ln() * mean_ms).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn zipf_rank0_most_popular() {
        let z = Zipf::new(1000, 1.0);
        let mut r = rng();
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10]);
        assert!(counts[10] > counts[500]);
        // Rank 0 should get roughly 1/H(1000) ≈ 13% of traffic at θ=1.
        let frac = counts[0] as f64 / 50_000.0;
        assert!((0.09..0.18).contains(&frac), "rank-0 fraction {frac}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut r = rng();
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for &c in &counts {
            assert!((600..1400).contains(&c), "count {c} not uniform");
        }
    }

    #[test]
    fn zipf_pmf_sums_to_one() {
        let z = Zipf::new(500, 0.9);
        let total: f64 = (0..500).map(|k| z.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(500), 0.0);
        assert!(z.pmf(0) > z.pmf(1));
    }

    #[test]
    fn zipf_single_rank() {
        let z = Zipf::new(1, 1.0);
        let mut r = rng();
        assert_eq!(z.sample(&mut r), 0);
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = rng();
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| exponential_ms(&mut r, 100.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((90.0..110.0).contains(&mean), "mean {mean}");
    }

    #[test]
    fn deterministic_under_seed() {
        let z = Zipf::new(100, 1.0);
        let a: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..20).map(|_| z.sample(&mut r)).collect()
        };
        let b: Vec<usize> = {
            let mut r = StdRng::seed_from_u64(5);
            (0..20).map(|_| z.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
