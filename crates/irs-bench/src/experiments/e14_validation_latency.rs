//! E14 — end-to-end validation latency under the three designs.
//!
//! Goal #4 ("opting in should be low-overhead") plus the §4.4 load goals:
//! compare the per-check latency distribution of (a) OCSP-style direct
//! ledger queries, (b) proxied queries, (c) proxied queries with the
//! revoked-set filter, using the discrete-event simulator's calibrated
//! latency profiles and a real proxy instance making the decisions.

use crate::rig::{install_revoked_filter, validate};
use crate::table::{f, Table};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{LookupOutcome, ProxyConfig, SharedProxy};
use irs_simnet::latency::profiles;
use irs_simnet::Histogram;
use irs_workload::population::{PhotoPopulation, PopulationConfig};
use irs_workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run E14.
pub fn run(quick: bool) -> String {
    let population = PhotoPopulation::new(PopulationConfig {
        total: if quick { 30_000 } else { 150_000 },
        ..PopulationConfig::default()
    });
    let zipf = Zipf::new(population.public_count() as usize, 0.9);
    let checks = if quick { 20_000u64 } else { 80_000 };

    let mut rng = StdRng::seed_from_u64(0xE14);
    let direct_link = profiles::browser_to_ledger();
    let to_proxy = profiles::browser_to_proxy();
    let proxy_ledger = profiles::proxy_to_ledger();

    // (a) direct.
    let mut direct = Histogram::new();
    for _ in 0..checks {
        direct.record(direct_link.rtt(&mut rng));
    }

    // (b) and (c): every check pays browser→proxy; the ones the proxy
    // cannot answer locally also pay proxy→ledger.
    let mut proxied_run = |proxy: &SharedProxy| {
        let mut latencies = Histogram::new();
        for i in 0..checks {
            let meta = population.public_photo_by_rank(zipf.sample(&mut rng) as u64);
            let base = to_proxy.rtt(&mut rng);
            latencies.record(match validate(proxy, meta.id, meta.revoked, TimeMs(i)) {
                LookupOutcome::NeedsLedgerQuery => base + proxy_ledger.rtt(&mut rng),
                _ => base,
            });
        }
        latencies
    };

    // (b) proxied, no filter (cache only).
    let mut proxied = proxied_run(&SharedProxy::with_shards(ProxyConfig::default(), 1));

    // (c) proxied + revoked-set filter.
    let proxy = SharedProxy::with_shards(ProxyConfig::default(), 1);
    let filter = BloomFilter::for_capacity(population.total(), 0.02).unwrap();
    install_revoked_filter(&proxy, filter, &population);
    let mut filtered = proxied_run(&proxy);
    let filtered_stats = proxy.stats();

    let mut table = Table::new(
        "E14 — per-check validation latency (simulated WAN profiles)",
        &["design", "p50", "p90", "p99", "mean"],
    );
    for (name, h) in [
        ("direct (OCSP-style)", &mut direct),
        ("proxied (cache only)", &mut proxied),
        ("proxied + filter", &mut filtered),
    ] {
        let s = h.summary();
        table.row(vec![
            name.to_string(),
            format!("{} ms", s.p50),
            format!("{} ms", s.p90),
            format!("{} ms", s.p99),
            format!("{} ms", f(s.mean, 1)),
        ]);
    }
    table.note(format!(
        "filtered design: {} of {} checks reached a ledger ({}× load reduction)",
        filtered_stats.ledger_queries,
        filtered_stats.lookups,
        f(filtered_stats.load_reduction(), 0)
    ));
    table.note(
        "profiles: browser→proxy ~10 ms, proxy→ledger ~25 ms, browser→ledger ~35 ms \
         medians (DNSPerf/ODoH-calibrated, one-way, log-normal)",
    );
    let mut out = table.render();
    out.push('\n');
    out.push_str(&run_load_coupling(quick));
    out
}

/// Second table: couple ledger *load* to latency with a queueing server.
/// §4.4: "the load on ledgers could easily become enormous" — at high
/// aggregate check rates the direct design saturates the ledger's service
/// capacity and queueing delay explodes; the filtered design admits ~2 %
/// of the traffic and stays flat at the same offered load.
fn run_load_coupling(quick: bool) -> String {
    use irs_simnet::{LatencyModel, QueueingServer};
    let servers = 8usize;
    let service = LatencyModel::LogNormal {
        median_ms: 5.0,
        sigma: 0.3,
    };
    let checks = if quick { 30_000u64 } else { 120_000 };
    let mut table = Table::new(
        "E14b — ledger queueing under aggregate check load (8 workers, ~5 ms service)",
        &[
            "arrival rate",
            "direct ρ",
            "direct p99 wait",
            "filtered ρ",
            "filtered p99 wait",
        ],
    );
    for &rate_per_ms in &[0.5f64, 1.0, 1.4, 1.6] {
        let mut row = vec![format!("{rate_per_ms}/ms")];
        for filter_pass in [1.0f64, 0.02] {
            let mut queue = QueueingServer::new(servers, service.clone());
            let mut rng = StdRng::seed_from_u64(0xE14B);
            let mut waits = Histogram::new();
            let mut t = 0.0f64;
            let mut admitted = 0u64;
            for i in 0..checks {
                t += 1.0 / rate_per_ms;
                // The filter drops (1 − pass) of arrivals before the queue.
                if (i as f64 * 0.618_033_988_75).fract() < filter_pass {
                    let timing = queue.admit(TimeMs(t as u64), &mut rng);
                    waits.record(timing.wait_ms);
                    admitted += 1;
                }
            }
            let rho = queue.utilization(rate_per_ms * filter_pass);
            row.push(format!("{:.2}", rho));
            row.push(format!("{} ms", waits.summary().p99));
            let _ = admitted;
        }
        table.row(row);
    }
    table.note(
        "past ρ≈1 the direct design's queueing delay grows without bound; the 50× \
         filter cut keeps the same ledger hardware uncongested",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn filter_design_is_fastest() {
        let out = super::run(true);
        let p50_of = |name: &str| -> u64 {
            let row = out.lines().find(|l| l.contains(name)).unwrap();
            row.split_whitespace()
                .rev()
                .nth(7) // "...  X ms  Y ms  Z ms  W ms" → p50 is 8th from end
                .unwrap()
                .parse()
                .unwrap()
        };
        let direct = p50_of("direct");
        let filtered = p50_of("proxied + filter");
        assert!(
            filtered < direct,
            "filter path p50 {filtered} must beat direct {direct}"
        );
    }
}
