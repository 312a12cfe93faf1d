//! The §4.3 prototype as an integration test: real TCP ledger + proxy on
//! loopback, exercised with the revoked-set filter and measured for the
//! properties the paper reports.

use irs::filters::{BloomFilter, Publication};
use irs::ledger::{Ledger, LedgerConfig};
use irs::net::service::{CallCtx, Service, TcpTransport};
use irs::net::{LedgerServer, ProxyServer};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevocationStatus, RevokeRequest, TimestampAuthority};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;

/// A client of `addr` and the one-exchange call the tests make on it.
fn connect(addr: std::net::SocketAddr) -> TcpTransport {
    TcpTransport::new(addr, std::time::Duration::from_secs(5))
}

fn call(client: &TcpTransport, request: Request) -> Response {
    client.call(request, &CallCtx::wall()).unwrap()
}

#[test]
fn tcp_chain_blocks_revoked_and_reduces_load() {
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(5),
    );
    let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();

    // Claim 30 photos, revoke 3.
    let owner = connect(ledger_server.addr());
    let mut cam = Camera::new(4, 96, 96);
    let mut claimed = Vec::new();
    let mut revoked = Vec::new();
    for i in 0..30u64 {
        let shot = cam.capture(i);
        let Response::Claimed { id, .. } = call(&owner, Request::Claim(shot.claim)) else {
            panic!("claim failed");
        };
        if i % 10 == 0 {
            let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
            call(&owner, Request::Revoke(rv));
            revoked.push(id);
        }
        claimed.push(id);
    }

    // Proxy with the revoked-set filter.
    let mut filter = BloomFilter::for_capacity(1_000, 0.02).unwrap();
    for id in &revoked {
        filter.insert(id.filter_key());
    }
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    proxy
        .update_filters(|fs| fs.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
        .unwrap();
    let proxy_server =
        ProxyServer::start_shared(proxy, "127.0.0.1:0", ledger_server.addr()).unwrap();

    // Browse all photos through the proxy.
    let browser = connect(proxy_server.addr());
    let mut blocked = 0;
    for id in &claimed {
        let Response::Status { status, .. } = call(&browser, Request::Query { id: *id }) else {
            panic!("query failed");
        };
        if !status.allows_viewing() {
            blocked += 1;
        }
    }
    assert_eq!(blocked, 3, "exactly the revoked photos are blocked");

    // Unclaimed photos answered locally too.
    for n in 0..20u64 {
        let ghost = RecordId::new(LedgerId(1), 10_000 + n);
        let Response::Status { status, .. } = call(&browser, Request::Query { id: ghost }) else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);
    }

    // Load accounting: ≥ 50 lookups, only ~3 reached the ledger.
    {
        let stats = proxy_server.proxy().stats();
        assert_eq!(stats.lookups, 50);
        assert!(
            stats.ledger_queries <= 5,
            "{} ledger queries",
            stats.ledger_queries
        );
        assert!(stats.load_reduction() >= 10.0);
    }

    proxy_server.shutdown();
    ledger_server.shutdown();
}

#[test]
fn filter_fetch_over_wire() {
    // A proxy bootstraps its filter via the wire protocol.
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(6),
    );
    // One revoked record.
    let mut cam = Camera::new(8, 96, 96);
    let shot = cam.capture(0);
    let Response::Claimed { id, .. } =
        ledger.handle(Request::Claim(shot.claim), irs::protocol::time::TimeMs(0))
    else {
        panic!()
    };
    let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
    ledger.handle(Request::Revoke(rv), irs::protocol::time::TimeMs(1));
    ledger.publish_filter();

    let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
    let client = connect(server.addr());
    let proxy = SharedProxy::new(ProxyConfig::default());
    let outcome = irs::net::refresh::refresh(&proxy, &client, LedgerId(1)).unwrap();
    assert!(
        matches!(outcome, Some(Publication::Tiered { .. })),
        "{outcome:?}"
    );
    // The revoked id hits; a fresh id misses.
    use irs::proxy::LookupOutcome;
    assert_eq!(
        proxy.lookup(id, irs::protocol::time::TimeMs(10)),
        LookupOutcome::NeedsLedgerQuery
    );
    assert_eq!(
        proxy.lookup(
            RecordId::new(LedgerId(1), 999),
            irs::protocol::time::TimeMs(10)
        ),
        LookupOutcome::NotRevokedByFilter
    );
    server.shutdown();
}
