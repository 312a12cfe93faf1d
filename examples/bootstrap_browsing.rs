//! The bootstrap phase end to end (§4): an IRS-enabled browser loads
//! photo-heavy pages through an anonymizing proxy holding every ledger's
//! Bloom filter, and the run reports what the paper's design
//! cares about — added latency, ledger load reduction, and what a curious
//! ledger could learn.
//!
//! ```sh
//! cargo run --example bootstrap_browsing
//! ```

use irs::browser::pipeline::{CheckService, CheckTiming, NetworkParams, NoChecks, PageLoader};
use irs::browser::{BrowserValidator, RemoteValidator};
use irs::filters::{BloomFilter, Publication};
use irs::net::service::{service_fn, BoxService, CacheLayer, CallCtx, ServiceExt};
use irs::protocol::claim::RevocationStatus;
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::photo::LabelReading;
use irs::protocol::policy::{ValidationOutcome, ViewerPolicy};
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response};
use irs::proxy::{ProxyConfig, SharedProxy};
use irs::simnet::{Histogram, Link};
use irs::workload::pages::{PageModel, ResourceKind};
use irs::workload::population::{PhotoPopulation, PopulationConfig};
use irs::workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A check service that drives the real pipeline: the browser validates
/// a page's photos together ([`RemoteValidator::validate_page`]) through
/// the proxy's filter → cache front, and what those cannot settle takes a
/// (simulated) ledger round trip.
struct ProxiedChecks {
    browser: RemoteValidator<BoxService>,
    /// The ids of the page being loaded that reached a ledger.
    reached_ledger: Arc<Mutex<HashSet<RecordId>>>,
    /// Photos a page showed a placeholder for.
    hidden: usize,
    browser_proxy: Link,
    proxy_ledger: Link,
    rng: StdRng,
    now: TimeMs,
}

impl ProxiedChecks {
    /// Issue the page's checks as one group, as the browser does once the
    /// preload scanner has the image list.
    fn validate(&mut self, page: &PageModel) {
        let labels = page.resources.iter().filter_map(|res| match res.kind {
            ResourceKind::ClaimedImage(meta) => Some(LabelReading {
                metadata_id: Some(meta.id),
                watermark_id: Some(meta.id),
            }),
            _ => None,
        });
        self.now = self.now.plus(1);
        self.reached_ledger.lock().expect("no panics").clear();
        let outcomes = self
            .browser
            .validate_page(&labels.collect::<Vec<_>>(), self.now);
        let hidden = |o: &&ValidationOutcome| matches!(o, ValidationOutcome::Revoked(_));
        self.hidden += outcomes.iter().filter(hidden).count();
    }
}

impl CheckService for ProxiedChecks {
    fn check_ms(&mut self, photo: &irs::workload::population::PhotoMeta) -> u64 {
        let to_proxy = self.browser_proxy.rtt(&mut self.rng);
        let reached = self.reached_ledger.lock().expect("no panics");
        match reached.contains(&photo.id) {
            true => to_proxy + self.proxy_ledger.rtt(&mut self.rng),
            false => to_proxy,
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
    // proxy probes the one of the ledger a record id names. "If the photo
    // does not hit in the filter, it is definitely not revoked" — and
    // since most viewed photos are not revoked, most lookups never reach
    // a ledger.
    // The ecosystem's budget is one 2 % Bloom over every revoked record;
    // each of the four ledgers gets a quarter of its bits, same k.
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let revoked_total = population.iter().filter(|m| m.revoked).count() as u64;
    let budget = BloomFilter::for_capacity(revoked_total, 0.02).expect("filter");
    let share = BloomFilter::with_params(budget.m_bits().div_ceil(4), budget.k(), budget.seed())
        .expect("filter");
    let mut per_ledger = vec![share; 4];
    for meta in population.iter() {
        if meta.revoked {
            per_ledger[meta.id.ledger.0 as usize].insert(meta.id.filter_key());
        }
    }
    // The paper's OR of all four, by hand, for the false-positive rate it
    // would answer at over quarter-budget filters.
    let mut or = per_ledger[0].clone();
    let mut own_fpr = 0.0;
    for (i, filter) in per_ledger.into_iter().enumerate() {
        or.union_with(&filter).expect("one geometry");
        own_fpr += filter.estimated_fpr() / 4.0;
        let update = Publication::full(1, filter.to_bytes());
        proxy
            .update_filters(|fs| fs.apply(LedgerId(i as u16), update))
            .expect("install");
    }
    println!(
        "proxy holds {} ledger filters of a quarter budget each, own-ledger FPR ≈ {:.3}% \
         (their OR's ≈ {:.3}%)",
        proxy.filters_snapshot().ledger_count(),
        own_fpr * 100.0,
        or.estimated_fpr() * 100.0
    );

    // The ledgers, in process: ground truth from the population, and a
    // note of every id that got this far.
    let reached_ledger = Arc::new(Mutex::new(HashSet::new()));
    let reached = reached_ledger.clone();
    let ledgers = service_fn(move |req, _ctx: &CallCtx| {
        let Request::Query { id } = req else {
            panic!("the browser only sends queries");
        };
        reached.lock().expect("no panics").insert(id);
        let status = match population.photo(id.serial).revoked {
            true => RevocationStatus::Revoked,
            false => RevocationStatus::NotRevoked,
        };
        let epoch = 1;
        Ok(Response::Status { id, status, epoch })
    });
    let stack = ledgers.layered(CacheLayer::new(proxy.clone())).boxed();
    let validator = BrowserValidator::new(ViewerPolicy::default(), 512, 600_000);

    // Browse 40 pinterest-like pages with and without IRS.
    let mut checks = ProxiedChecks {
        browser: RemoteValidator::new(validator, stack, 60_000),
        reached_ledger,
        hidden: 0,
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
        checks.validate(&page);
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

    let browser = checks.browser.validator.stats;
    println!(
        "browser: {} photos examined, {} answered by its own cache, {} asked of the proxy \
         (one group per page), {} shown as placeholders",
        browser.examined, browser.local_cache, browser.proxy_queries, checks.hidden
    );
    let stats = proxy.stats();
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
