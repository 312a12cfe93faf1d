//! Multi-threaded hammer against the live TCP prototype: concurrent
//! claims, revokes, and validations through both servers, asserting
//! (a) per-record linearizability — every status a client reads is one
//! it was acknowledged, and the final status equals the last ack —
//! and (b) clean shutdown with no leaked connection threads.

use irs::crypto::{Digest, Keypair};
use irs::filters::{BloomFilter, Publication};
use irs::ledger::{Ledger, LedgerConfig};
use irs::net::service::{CallCtx, Service, TcpTransport};
use irs::net::{LedgerServer, ProxyServer};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::wire::{Request, Response};
use irs::protocol::{ClaimRequest, RevocationStatus, RevokeRequest, TimestampAuthority};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;

/// A client of `addr` and the one-exchange call the tests make on it.
fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(addr, std::time::Duration::from_secs(5))
}

fn call(client: &TcpTransport, request: Request) -> Response {
    client.call(request, &CallCtx::wall()).unwrap()
}

const WRITERS: u64 = 4;
const RECORDS_PER_WRITER: u64 = 10;

/// Live thread count of this process (Linux); `None` elsewhere, which
/// skips the leak assertion but still exercises the join-on-shutdown
/// path.
fn os_thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// One writer's story for one record: claim it, flip its revocation
/// several times, and return the status the ledger last acknowledged.
fn hammer_record(
    client: &TcpTransport,
    keypair: &Keypair,
    payload: &[u8],
    flips: u64,
) -> (RecordId, RevocationStatus) {
    let claim = ClaimRequest::create(keypair, &Digest::of(payload));
    let Response::Claimed { id, .. } = call(client, Request::Claim(claim)) else {
        panic!("claim failed");
    };
    let mut epoch = 0u64;
    let mut acked = RevocationStatus::NotRevoked;
    for flip in 0..flips {
        let revoke = flip % 2 == 0;
        let rv = RevokeRequest::create(keypair, id, revoke, epoch);
        let Response::RevokeAck {
            status,
            epoch: new_epoch,
            ..
        } = call(client, Request::Revoke(rv))
        else {
            panic!("revoke failed");
        };
        epoch = new_epoch;
        acked = status;
        // Linearizability, single-writer case: a query issued after our
        // own ack must observe exactly the acked status — no other
        // thread holds this record's key, so no later write can race it.
        let Response::Status { status: seen, .. } = call(client, Request::Query { id }) else {
            panic!("query failed");
        };
        assert_eq!(seen, acked, "read after own ack must see the acked status");
    }
    (id, acked)
}

#[test]
fn hammer_ledger_and_proxy_under_concurrency() {
    let threads_before = os_thread_count();

    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(42),
    );
    let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
    let ledger_addr = ledger_server.addr();

    // Phase 1: writers claim and flip while readers hammer queries on
    // whatever ids have been claimed so far.
    let stop_readers = std::sync::atomic::AtomicBool::new(false);
    let finals: Vec<(RecordId, RevocationStatus)> = std::thread::scope(|scope| {
        let stop = &stop_readers;
        // Readers: serials are allocated densely from 0, so probing the
        // low serial range hits records in every revocation state. Any
        // response must be a committed status or unknown-record — never
        // an error or a torn value.
        let readers: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(move || {
                    let client = connect(ledger_addr);
                    let mut probes = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let id =
                            RecordId::new(LedgerId(1), probes % (WRITERS * RECORDS_PER_WRITER));
                        match call(&client, Request::Query { id }) {
                            Response::Status { .. } | Response::Error { .. } => {}
                            other => panic!("unexpected response {other:?}"),
                        }
                        probes += 1;
                    }
                    probes
                })
            })
            .collect();
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                scope.spawn(move || {
                    let client = connect(ledger_addr);
                    let keypair = Keypair::from_seed(&[w as u8 + 1; 32]);
                    (0..RECORDS_PER_WRITER)
                        .map(|i| {
                            // Odd flip counts end Revoked, even end
                            // NotRevoked — phase 2 sees both outcomes.
                            hammer_record(
                                &client,
                                &keypair,
                                &(w * RECORDS_PER_WRITER + i).to_le_bytes(),
                                5 + (i % 2),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let finals: Vec<_> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0, "readers must have run");
        }
        finals
    });
    assert_eq!(finals.len() as u64, WRITERS * RECORDS_PER_WRITER);

    // Phase 2: a proxy in front, its filter covering every claimed id so
    // each first lookup is forwarded upstream; concurrent browsers must
    // all see the final acknowledged status for every record.
    let mut filter = BloomFilter::for_capacity(1_000, 0.01).unwrap();
    for (id, _) in &finals {
        filter.insert(id.filter_key());
    }
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let install = Publication::full(1, filter.to_bytes());
    proxy
        .update_filters(|f| f.apply(LedgerId(1), install))
        .unwrap();
    let proxy_server = ProxyServer::start_shared(proxy, "127.0.0.1:0", ledger_addr).unwrap();
    let proxy_addr = proxy_server.addr();

    // Warm pass: one browser visits every record serially, forwarding
    // each upstream exactly once and filling the striped cache.
    {
        let browser = connect(proxy_addr);
        for (id, expected) in &finals {
            let Response::Status { status, .. } = call(&browser, Request::Query { id: *id }) else {
                panic!("proxy query failed");
            };
            assert_eq!(status, *expected, "record {id:?}: first proxy answer");
        }
    }
    let records = WRITERS * RECORDS_PER_WRITER;
    assert_eq!(proxy_server.proxy().stats().ledger_queries, records);

    // Concurrent pass: four browsers re-validate everything at once —
    // answers must still match the last ack, and must all come from the
    // cache (no new upstream traffic).
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let finals = &finals;
            scope.spawn(move || {
                let browser = connect(proxy_addr);
                for (id, expected) in finals {
                    let Response::Status { status, .. } =
                        call(&browser, Request::Query { id: *id })
                    else {
                        panic!("proxy query failed");
                    };
                    assert_eq!(
                        status, *expected,
                        "record {id:?}: proxy answer must match the last ack"
                    );
                }
            });
        }
    });
    let stats = proxy_server.proxy().stats();
    assert_eq!(stats.lookups, 5 * records);
    assert_eq!(
        stats.ledger_queries, records,
        "the concurrent pass must be answered entirely from the striped cache"
    );
    assert_eq!(stats.cache_hits, 4 * records);

    // Phase 3: clean shutdown — joins every connection thread.
    proxy_server.shutdown();
    ledger_server.shutdown();
    if let (Some(before), Some(after)) = (threads_before, os_thread_count()) {
        assert!(
            after <= before,
            "connection threads leaked: {before} before, {after} after shutdown"
        );
    }
}
