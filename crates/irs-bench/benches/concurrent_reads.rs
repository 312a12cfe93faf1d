//! Criterion micro-benches for the concurrent validate path (E15): the
//! same status-query workload driven through the whole-service-mutex
//! baseline and the sharded `&self` designs, single- and multi-threaded.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use irs_core::claim::{ClaimRequest, RevocationStatus};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};
use irs_ledger::{Ledger, LedgerConfig};
use irs_proxy::{ProxyConfig, SharedProxy};
use parking_lot::Mutex;
use std::sync::Barrier;

const RECORDS: u64 = 10_000;
const QUERIES_PER_THREAD: u64 = 2_000;
const THREADS: usize = 4;

/// The "global mutex" column is a local fixture: a `Mutex` around a
/// one-stripe ledger, next to the default striped one shared by `&self`.
fn preloaded_pair() -> (Mutex<Ledger>, Ledger) {
    let preloaded = |stripes| {
        let config = LedgerConfig::new(LedgerId(1));
        let ledger = Ledger::with_shards(config, TimestampAuthority::from_seed(7), stripes);
        let keypair = Keypair::from_seed(&[7; 32]);
        for i in 0..RECORDS {
            let req = ClaimRequest::create(&keypair, &Digest::of(&i.to_le_bytes()));
            ledger.handle(Request::Claim(req), TimeMs(i));
        }
        ledger
    };
    (
        Mutex::new(preloaded(1)),
        preloaded(irs_ledger::store::DEFAULT_SHARDS),
    )
}

/// One batch: `THREADS` threads each issue `QUERIES_PER_THREAD` queries.
fn query_storm(handler: &(impl Fn(Request) -> Response + Sync)) -> u64 {
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut state = 0x1234_5678u64.wrapping_add(t as u64);
                    barrier.wait();
                    let mut ok = 0u64;
                    for _ in 0..QUERIES_PER_THREAD {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let id = RecordId::new(LedgerId(1), (state >> 16) % RECORDS);
                        if matches!(handler(Request::Query { id }), Response::Status { .. }) {
                            ok += 1;
                        }
                    }
                    ok
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).sum()
    })
}

fn bench_ledger_reads(c: &mut Criterion) {
    let (seq, conc) = preloaded_pair();
    let mut group = c.benchmark_group("ledger_concurrent_reads");
    group.throughput(Throughput::Elements(THREADS as u64 * QUERIES_PER_THREAD));
    group.bench_function("global_mutex_4threads", |b| {
        b.iter(|| black_box(query_storm(&|req| seq.lock().handle(req, TimeMs(0)))))
    });
    group.bench_function("sharded_4threads", |b| {
        b.iter(|| black_box(query_storm(&|req| conc.handle(req, TimeMs(0)))))
    });
    group.finish();

    // Single-threaded floor: the per-op cost without any contention.
    let mut group = c.benchmark_group("ledger_single_reader");
    group.throughput(Throughput::Elements(1));
    let mut serial = 0u64;
    group.bench_function("global_mutex", |b| {
        b.iter(|| {
            serial = (serial + 1) % RECORDS;
            let id = RecordId::new(LedgerId(1), serial);
            seq.lock().handle(Request::Query { id }, TimeMs(0))
        })
    });
    group.bench_function("sharded", |b| {
        b.iter(|| {
            serial = (serial + 1) % RECORDS;
            let id = RecordId::new(LedgerId(1), serial);
            conc.handle(Request::Query { id }, TimeMs(0))
        })
    });
    group.finish();
}

fn bench_proxy_lookup(c: &mut Criterion) {
    // SharedProxy cached-lookup path under 4 reader threads.
    let proxy = SharedProxy::new(ProxyConfig::default());
    for i in 0..RECORDS {
        proxy.complete(
            RecordId::new(LedgerId(1), i),
            RevocationStatus::NotRevoked,
            TimeMs(0),
        );
    }
    let mut group = c.benchmark_group("proxy_concurrent_lookup");
    group.throughput(Throughput::Elements(THREADS as u64 * QUERIES_PER_THREAD));
    group.bench_function("striped_cache_4threads", |b| {
        b.iter(|| {
            let barrier = Barrier::new(THREADS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let proxy = &proxy;
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut state = 0xABCDu64.wrapping_add(t as u64);
                        barrier.wait();
                        for _ in 0..QUERIES_PER_THREAD {
                            state = state
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add(1442695040888963407);
                            let id = RecordId::new(LedgerId(1), (state >> 16) % RECORDS);
                            black_box(proxy.lookup(id, TimeMs(1)));
                        }
                    });
                }
            })
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ledger_reads, bench_proxy_lookup);
criterion_main!(benches);
