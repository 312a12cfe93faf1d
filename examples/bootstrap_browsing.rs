//! The bootstrap phase end to end (§4): an IRS-enabled browser loads
//! photo-heavy pages through an anonymizing proxy holding the OR of all
//! ledger Bloom filters, and the run reports what the paper's design
//! cares about — added latency, ledger load reduction, and what a curious
//! ledger could learn.
//!
//! ```sh
//! cargo run --example bootstrap_browsing
//! ```

use irs::browser::pipeline::{CheckService, CheckTiming, NetworkParams, NoChecks, PageLoader};
use irs::filters::BloomFilter;
use irs::protocol::claim::RevocationStatus;
use irs::protocol::ids::LedgerId;
use irs::protocol::time::TimeMs;
use irs::proxy::{FilterUpdate, LookupOutcome, ProxyConfig, SharedProxy};
use irs::simnet::{Histogram, Link};
use irs::workload::pages::PageModel;
use irs::workload::population::{PhotoPopulation, PopulationConfig};
use irs::workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A check service that drives the real proxy pipeline: filter → cache →
/// (simulated) ledger round trip.
struct ProxiedChecks {
    proxy: SharedProxy,
    population: PhotoPopulation,
    browser_proxy: Link,
    proxy_ledger: Link,
    rng: StdRng,
    now: TimeMs,
}

impl CheckService for ProxiedChecks {
    fn check_ms(&mut self, photo: &irs::workload::population::PhotoMeta) -> u64 {
        self.now = self.now.plus(1);
        let to_proxy = self.browser_proxy.rtt(&mut self.rng);
        match self.proxy.lookup(photo.id, self.now) {
            LookupOutcome::NotRevokedByFilter | LookupOutcome::Cached(_) => to_proxy,
            LookupOutcome::NeedsLedgerQuery => {
                let status = if self.population.photo(photo.id.serial).revoked {
                    RevocationStatus::Revoked
                } else {
                    RevocationStatus::NotRevoked
                };
                self.proxy.complete(photo.id, status, self.now);
                to_proxy + self.proxy_ledger.rtt(&mut self.rng)
            }
        }
    }
}

fn main() {
    // A 200k-photo ecosystem across 4 ledgers.
    let population = PhotoPopulation::new(PopulationConfig {
        total: 200_000,
        ..PopulationConfig::default()
    });
    let zipf = Zipf::new(population.public_count() as usize, 0.9);

    // Each ledger publishes a Bloom filter of its *revoked* records; the
    // proxy ORs them. (One shared geometry, per ecosystem convention.)
    // "If the photo does not hit in the filter, it is definitely not
    // revoked" — and since most viewed photos are not revoked, most
    // lookups never reach a ledger.
    let proxy = SharedProxy::new(ProxyConfig::default());
    let revoked_total = population.iter().filter(|m| m.revoked).count() as u64;
    let mut per_ledger: Vec<BloomFilter> = (0..4)
        .map(|_| BloomFilter::for_capacity(revoked_total, 0.02).expect("filter"))
        .collect();
    for meta in population.iter() {
        if meta.revoked {
            per_ledger[meta.id.ledger.0 as usize].insert(meta.id.filter_key());
        }
    }
    for (i, filter) in per_ledger.into_iter().enumerate() {
        let update = FilterUpdate::full(1, filter.to_bytes());
        proxy
            .update_filters(|fs| fs.apply(LedgerId(i as u16), update))
            .expect("install");
    }
    let filters = proxy.filters_snapshot();
    println!(
        "proxy holds {} ledger filters, merged FPR ≈ {:.3}%",
        filters.ledger_count(),
        filters.merged_fpr().unwrap_or(0.0) * 100.0
    );

    // Browse 40 pinterest-like pages with and without IRS.
    let mut checks = ProxiedChecks {
        proxy,
        population,
        browser_proxy: irs::simnet::latency::profiles::browser_to_proxy(),
        proxy_ledger: irs::simnet::latency::profiles::proxy_to_ledger(),
        rng: StdRng::seed_from_u64(2),
        now: TimeMs(0),
    };
    let mut page_rng = StdRng::seed_from_u64(3);
    let mut baseline_complete = Histogram::new();
    let mut irs_complete = Histogram::new();
    let mut irs_delay = Histogram::new();

    for _ in 0..40 {
        let page = PageModel::pinterest_like(30, 0.8, &population, &zipf, &mut page_rng);
        let mut loader = PageLoader::new(
            NetworkParams::default(),
            CheckTiming::MetadataFirst,
            StdRng::seed_from_u64(4),
        );
        let without = loader.load(&page, &mut NoChecks);
        let mut loader = PageLoader::new(
            NetworkParams::default(),
            CheckTiming::MetadataFirst,
            StdRng::seed_from_u64(4),
        );
        let with = loader.load(&page, &mut checks);
        baseline_complete.record(without.page_complete_ms);
        irs_complete.record(with.page_complete_ms);
        irs_delay.record(with.page_delay());
    }

    println!(
        "page completion without IRS: {}",
        baseline_complete.summary()
    );
    println!("page completion with IRS:    {}", irs_complete.summary());
    println!("added page delay:            {}", irs_delay.summary());

    let stats = checks.proxy.stats();
    println!(
        "proxy: {} lookups → {} ledger queries ({}× load reduction; {} filter-answered, {} cached)",
        stats.lookups,
        stats.ledger_queries,
        stats.load_reduction().round(),
        stats.filter_negative,
        stats.cache_hits,
    );
    println!(
        "privacy: the ledgers saw {} queries, all from the proxy's address — \
         0 of {} views attributable to a viewer",
        stats.ledger_queries, stats.lookups
    );
}
