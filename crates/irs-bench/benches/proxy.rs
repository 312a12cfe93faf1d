//! Criterion micro-benches for the proxy decision pipeline (E4/E14): the
//! per-lookup cost that bounds bootstrap-proxy throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{FilterUpdate, IrsProxy, LookupOutcome, ProxyConfig};

fn proxy_with(revoked: u64, population: u64) -> IrsProxy {
    let mut filter = BloomFilter::for_capacity(population, 0.02).unwrap();
    for i in 0..revoked {
        filter.insert(RecordId::new(LedgerId(0), i).filter_key());
    }
    let mut proxy = IrsProxy::new(ProxyConfig::default());
    proxy
        .filters
        .apply(LedgerId(0), FilterUpdate::full(1, filter.to_bytes()))
        .unwrap();
    proxy
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_lookup");
    group.throughput(Throughput::Elements(1));

    // Filter-negative path (the common case).
    let mut proxy = proxy_with(10_000, 1_000_000);
    let mut serial = 1_000_000u64;
    group.bench_function("filter_negative", |b| {
        b.iter(|| {
            serial += 1;
            proxy.lookup(RecordId::new(LedgerId(0), serial), TimeMs(0))
        })
    });

    // Cache-hit path.
    let mut proxy = proxy_with(10_000, 1_000_000);
    let hot = RecordId::new(LedgerId(0), 5);
    proxy.lookup(hot, TimeMs(0));
    proxy.complete(hot, RevocationStatus::NotRevoked, TimeMs(0));
    group.bench_function("cache_hit", |b| {
        b.iter(|| {
            let out = proxy.lookup(hot, TimeMs(1));
            debug_assert!(matches!(out, LookupOutcome::Cached(_)));
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_lookup);
criterion_main!(benches);
