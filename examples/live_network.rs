//! The §4.3 prototype, live on loopback TCP: a real ledger server, a real
//! anonymizing proxy in front of it, and a "browser" client validating
//! photos through the chain. Measures actual wall-clock check latency.
//!
//! ```sh
//! cargo run --example live_network
//! ```

use irs::ledger::{Ledger, LedgerConfig};
use irs::net::refresh::refresh;
use irs::net::service::{CallCtx, Service, TcpTransport};
use irs::net::{LedgerServer, ProxyServer};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevokeRequest, TimestampAuthority};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One request/response exchange over a transport (which dials on first
/// use and redials if the connection dies).
fn call(to: &TcpTransport, request: Request) -> Response {
    to.call(request, &CallCtx::wall()).expect("exchange")
}

fn main() {
    // Start the ledger server.
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(1),
    );
    let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").expect("ledger server");
    println!("ledger listening on {}", ledger_server.addr());

    // Owner claims 100 photos directly with the ledger; revokes 5.
    let owner = TcpTransport::new(ledger_server.addr(), Duration::from_secs(5));
    let mut camera = Camera::new(9, 128, 128);
    let mut claimed: Vec<RecordId> = Vec::new();
    let mut revoked: Vec<RecordId> = Vec::new();
    for i in 0..100u64 {
        let shot = camera.capture(i);
        let Response::Claimed { id, .. } = call(&owner, Request::Claim(shot.claim)) else {
            panic!("claim failed");
        };
        if i % 20 == 0 {
            let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
            call(&owner, Request::Revoke(rv));
            revoked.push(id);
        }
        claimed.push(id);
    }
    println!(
        "claimed {} photos, revoked {}",
        claimed.len(),
        revoked.len()
    );

    // The ledger publishes its revoked-set filter (§4.4's hourly job);
    // the proxy in front pulls it over the wire. Photos whose id misses
    // the filter are then answered locally as not-revoked.
    ledger_server.ledger().publish_filter();
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let outcome = refresh(&proxy, &owner, LedgerId(1)).expect("filter refresh");
    println!("proxy pulled the ledger's filter: {outcome:?}");
    let proxy_server = ProxyServer::start_shared(proxy, "127.0.0.1:0", ledger_server.addr())
        .expect("proxy server");
    println!("proxy listening on {}", proxy_server.addr());

    // The "browser": validate a mix of claimed, revoked, and unclaimed
    // photos through the proxy, timing every check.
    let browser = TcpTransport::new(proxy_server.addr(), Duration::from_secs(5));
    let mut latencies_us: Vec<u128> = Vec::new();
    let mut blocked = 0u32;
    for round in 0..3 {
        for (i, &id) in claimed.iter().enumerate() {
            let start = Instant::now();
            let Response::Status { status, .. } = call(&browser, Request::Query { id }) else {
                panic!("unexpected response");
            };
            latencies_us.push(start.elapsed().as_micros());
            if round == 0 && !status.allows_viewing() {
                blocked += 1;
            }
            // Sprinkle in unclaimed ids (filter answers these locally).
            if i % 3 == 0 {
                let ghost = RecordId::new(LedgerId(1), 1_000_000 + i as u64);
                let start = Instant::now();
                call(&browser, Request::Query { id: ghost });
                latencies_us.push(start.elapsed().as_micros());
            }
        }
    }
    latencies_us.sort_unstable();
    let p = |q: f64| latencies_us[(latencies_us.len() as f64 * q) as usize];
    println!(
        "validated {} photos ({} blocked as revoked on first pass)",
        latencies_us.len(),
        blocked
    );
    println!(
        "check latency over loopback: p50={}µs p90={}µs p99={}µs",
        p(0.50),
        p(0.90),
        p(0.99)
    );
    {
        let stats = proxy_server.proxy().stats();
        println!(
            "proxy stats: {} lookups, {} ledger queries ({:.1}× load reduction)",
            stats.lookups,
            stats.ledger_queries,
            stats.load_reduction()
        );
    }

    proxy_server.shutdown();
    ledger_server.shutdown();
    println!("servers shut down cleanly");
}
