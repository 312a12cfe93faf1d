//! Criterion micro-benches for the proxy decision pipeline (E4/E14): the
//! per-lookup cost that bounds bootstrap-proxy throughput.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use irs_bench::rig::{install_revoked_filter, validate};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{LookupOutcome, ProxyConfig, SharedProxy};

fn proxy_with(revoked: u64, population: u64) -> SharedProxy {
    let proxy = SharedProxy::with_shards(ProxyConfig::default(), 1);
    let filter = BloomFilter::for_capacity(population, 0.02).unwrap();
    let keys = (0..revoked).map(|i| RecordId::new(LedgerId(0), i).filter_key());
    install_revoked_filter(&proxy, filter, keys);
    proxy
}

fn bench_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("proxy_lookup");
    group.throughput(Throughput::Elements(1));

    // Filter-negative path (the common case).
    let proxy = proxy_with(10_000, 1_000_000);
    let mut serial = 1_000_000u64;
    group.bench_function("filter_negative", |b| {
        b.iter(|| {
            serial += 1;
            proxy.lookup(RecordId::new(LedgerId(0), serial), TimeMs(0))
        })
    });

    // Cache-hit path.
    let proxy = proxy_with(10_000, 1_000_000);
    let hot = RecordId::new(LedgerId(0), 5);
    validate(&proxy, hot, false, TimeMs(0));
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
