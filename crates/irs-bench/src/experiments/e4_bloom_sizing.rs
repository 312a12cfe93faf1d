//! E4 — the §4.4 Bloom sizing law.
//!
//! "Using a standard Bloom filter …, a 1 GB filter would provide a 2 %
//! false-hit rate with a population of 1 billion photos, thereby lessening
//! the load on ledgers by a factor of fifty. Similarly, a 100 GB Bloom
//! filter would provide a similar error rate for a population of 100
//! billion photos."
//!
//! We validate the law at laptop-scale populations by *measuring* FPR at
//! the paper's bits-per-key ratio, then extrapolate the analytic rows to
//! the 1 B and 100 B populations, and finally measure the end-to-end load
//! reduction with a real proxy run.

use crate::rig::{install_revoked_filter, validate};
use crate::table::{bytes_h, f, pct, Table};
use irs_core::time::TimeMs;
use irs_filters::analysis;
use irs_filters::{BloomFilter, Filter};
use irs_proxy::{ProxyConfig, SharedProxy};
use irs_workload::population::{PhotoPopulation, PopulationConfig};
use irs_workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The paper's ratio: 1 GiB per 1e9 keys = 8.59 bits/key (k = 6 optimal).
const BITS_PER_KEY: f64 = (1u64 << 33) as f64 / 1.0e9;

/// Run E4.
pub fn run(quick: bool) -> String {
    let mut table = Table::new(
        "E4 — Bloom filter sizing at the paper's 1 GiB / 1 B-photo ratio",
        &[
            "population",
            "filter size",
            "k",
            "analytic FPR",
            "measured FPR",
            "load reduction",
        ],
    );
    let scales: &[u64] = if quick {
        &[1 << 16, 1 << 18]
    } else {
        &[1 << 16, 1 << 18, 1 << 20, 1 << 22]
    };
    for &n in scales {
        let m_bits = (n as f64 * BITS_PER_KEY) as u64;
        let k = analysis::optimal_k(m_bits, n);
        let mut filter = BloomFilter::with_params(m_bits, k, 0).expect("filter");
        for key in 0..n {
            filter.insert(irs_filters::hash::mix64(key));
        }
        // Measure FPR over non-member probes.
        let trials = if quick { 100_000u64 } else { 400_000 };
        let fp = (0..trials)
            .map(|i| irs_filters::hash::mix64(n + i))
            .filter(|&key| filter.contains(key))
            .count();
        let measured = fp as f64 / trials as f64;
        let analytic = analysis::bloom_fpr(m_bits, n, k);
        table.row(vec![
            format!("{n}"),
            bytes_h(m_bits / 8),
            format!("{k}"),
            pct(analytic),
            pct(measured),
            format!("{}×", f(analysis::load_reduction_factor(measured, 0.0), 0)),
        ]);
    }
    // The paper's headline rows (analytic; measured column marked —).
    for (n, size_bytes) in [(1_000_000_000u64, 1u64 << 30), (100_000_000_000, 100 << 30)] {
        let row = analysis::sizing_row(n, size_bytes);
        table.row(vec![
            format!("{n}"),
            bytes_h(size_bytes),
            format!("{}", row.k),
            pct(row.fpr),
            "—".into(),
            format!("{}×", f(row.load_reduction, 0)),
        ]);
    }
    table.note("paper: 1 GB @ 1 B photos ⇒ 2% FPR ⇒ 50× ledger-load reduction");

    // End-to-end: a proxy with the revoked-set filter under a Zipf view
    // trace.
    let population = PhotoPopulation::new(PopulationConfig {
        total: if quick { 50_000 } else { 400_000 },
        ..PopulationConfig::default()
    });
    let revoked = population.iter().filter(|m| m.revoked).count() as u64;
    let m_bits = ((revoked as f64) * BITS_PER_KEY) as u64;
    let k = analysis::optimal_k(m_bits, revoked);
    let filter = BloomFilter::with_params(m_bits.max(64), k, 0).expect("filter");
    let proxy = SharedProxy::with_shards(
        ProxyConfig {
            cache_capacity: 10_000,
            cache_ttl_ms: 3_600_000,
        },
        1,
    );
    install_revoked_filter(&proxy, filter, &population);
    let zipf = Zipf::new(population.public_count() as usize, 0.9);
    let mut rng = StdRng::seed_from_u64(0xE4);
    let views = if quick { 20_000 } else { 100_000 };
    for i in 0..views {
        let meta = population.public_photo_by_rank(zipf.sample(&mut rng) as u64);
        validate(&proxy, meta.id, meta.revoked, TimeMs(i));
    }
    let s = proxy.stats();
    table.note(format!(
        "end-to-end proxy run: {} views → {} ledger queries = {}× reduction \
         (filter answered {}, cache {})",
        s.lookups,
        s.ledger_queries,
        f(s.load_reduction(), 0),
        s.filter_negative,
        s.cache_hits
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn measured_fpr_near_two_percent_and_reduction_near_fifty() {
        let out = super::run(true);
        assert!(out.contains("E4"));
        // End-to-end reduction appears and is substantial.
        let note = out
            .lines()
            .find(|l| l.contains("end-to-end proxy run"))
            .unwrap();
        let reduction: f64 = note
            .split("= ")
            .nth(1)
            .unwrap()
            .split('×')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            reduction > 20.0,
            "end-to-end reduction {reduction} should approach the paper's ~50×"
        );
    }
}
