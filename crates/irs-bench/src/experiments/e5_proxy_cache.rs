//! E5 — proxy caching ameliorates ledger load.
//!
//! §4.4: "the proxies described above can ameliorate this issue by caching
//! lookups (which would also further reduce viewing latency)."
//!
//! We isolate the cache's contribution by running a Zipf view trace
//! through a proxy *without* a filter (all lookups would otherwise reach
//! the ledger), sweeping cache size and popularity skew, and then show the
//! combined filter+cache configuration.

use crate::rig::{install_revoked_filter, validate};
use crate::table::{f, pct, Table};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{ProxyConfig, SharedProxy};
use irs_workload::population::{PhotoPopulation, PopulationConfig};
use irs_workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A never-expiring cache of `capacity` entries on one stripe: an exact
/// LRU, which is what the table sweeps (a striped LRU evicts differently).
fn lru_proxy(capacity: usize) -> SharedProxy {
    SharedProxy::with_shards(
        ProxyConfig {
            cache_capacity: capacity,
            cache_ttl_ms: u64::MAX / 4,
        },
        1,
    )
}

fn run_trace(
    proxy: &SharedProxy,
    population: &PhotoPopulation,
    zipf: &Zipf,
    views: u64,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..views {
        let meta = population.public_photo_by_rank(zipf.sample(&mut rng) as u64);
        validate(proxy, meta.id, meta.revoked, TimeMs(i));
    }
}

/// Run E5.
pub fn run(quick: bool) -> String {
    let population = PhotoPopulation::new(PopulationConfig {
        total: if quick { 40_000 } else { 200_000 },
        ..PopulationConfig::default()
    });
    let public = population.public_count();
    let views = if quick { 30_000 } else { 150_000 };

    let mut table = Table::new(
        "E5 — proxy cache: fraction of views reaching the ledger (no filter)",
        &[
            "zipf θ",
            "cache 0.1%",
            "cache 1%",
            "cache 10%",
            "cache 100%",
        ],
    );
    for &theta in &[0.6f64, 0.9, 1.1] {
        let zipf = Zipf::new(public as usize, theta);
        let mut cells = vec![format!("{theta}")];
        for frac in [0.001f64, 0.01, 0.1, 1.0] {
            let capacity = ((public as f64 * frac) as usize).max(1);
            let proxy = lru_proxy(capacity);
            run_trace(&proxy, &population, &zipf, views, 0xE5);
            cells.push(pct(proxy.stats().ledger_query_fraction()));
        }
        table.row(cells);
    }
    table.note("higher skew ⇒ hotter head ⇒ small caches already absorb most views");

    // Combined: filter + 1% cache at θ=0.9.
    let zipf = Zipf::new(public as usize, 0.9);
    let proxy = lru_proxy((public / 100).max(1) as usize);
    let filter = BloomFilter::for_capacity(population.total(), 0.02).expect("filter");
    install_revoked_filter(&proxy, filter, &population);
    run_trace(&proxy, &population, &zipf, views, 0xE5);
    let s = proxy.stats();
    table.note(format!(
        "filter + 1% cache @ θ=0.9: {} of views reach the ledger ({}× reduction)",
        pct(s.ledger_query_fraction()),
        f(s.load_reduction(), 0)
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn bigger_cache_fewer_queries() {
        let out = super::run(true);
        // Parse the θ=0.9 row: fractions must be non-increasing across
        // cache sizes.
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with("0.9"))
            .expect("θ=0.9 row");
        let fracs: Vec<f64> = row
            .split_whitespace()
            .skip(1)
            .map(|c| c.trim_end_matches('%').parse::<f64>().unwrap())
            .collect();
        assert_eq!(fracs.len(), 4);
        for w in fracs.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "cache growth must not add load: {fracs:?}"
            );
        }
    }
}
