//! The proxy server: answers what it can locally (the record's ledger's
//! filter, cache),
//! forwards the rest to the upstream ledger — the §4.2/§4.4 component, on
//! a real socket.
//!
//! Browsers connect to the proxy with the same wire protocol they would
//! use against a ledger; the ledger only ever sees the proxy's address,
//! which is the privacy property (§4.2). The server runs on the
//! [`reactor`](crate::reactor) engine, which hands the handler a *burst*
//! — every frame one readiness event delivered — and each run of `Query`
//! frames in it goes down the stack as one [`Service::call_all`], so a
//! page's misses overlap into one upstream exchange per shard, every
//! shard's in flight at once. Because a handler may *block* on that
//! bounded upstream call (the stack's transport waits for the ledger's
//! answers), the worker pool is sized several times the core count — a
//! blocked handler parks its worker once per burst, and the pool must
//! keep enough event loops live to serve cache hits meanwhile (DESIGN.md
//! §12 has the sizing rule). Handler state is shared, `&self`,
//! lock-striped:
//! one [`SharedProxy`] and one composed [`Service`] stack behind plain
//! `Arc`s, so a filter refresh or a slow upstream call on one connection
//! never blocks lookups on another.
//!
//! The upstream path is whatever stack the caller composes — from the
//! plain single-attempt rung up to the full degradation ladder
//! (`Cache(StaleServe(Breaker(Retry(Failover(Tcp)))))`); the canonical
//! rungs live in [`crate::service::stacks`] and the ordering rules in
//! DESIGN.md §10.

use crate::codec::serve_burst;
use crate::reactor::{ConnCtx, Reactor, ReactorConfig, ReactorHandle};
use crate::service::{stacks, BoxService, CallCtx, Service};
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_proxy::SharedProxy;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// A running TCP proxy.
pub struct ProxyServer {
    proxy: Arc<SharedProxy>,
    handle: ReactorHandle,
}

/// Worker pool for a proxy reactor: handlers can block on upstream
/// calls, so give the pool headroom beyond the core count (bounded so
/// 10 000 connections still never means 10 000 threads).
fn proxy_workers() -> usize {
    (4 * crate::reactor::default_workers()).clamp(4, 32)
}

/// One run of `Query` frames down the stack — a group, or a plain call
/// for a run of one — each answer appended in its wire form.
fn answer_queries(
    stack: &BoxService,
    mut run: Vec<Request>,
    ctx: &CallCtx,
    out: &mut Vec<Response>,
) {
    let on_wire = |answer| match answer {
        Ok(response) => response,
        // Shed load keeps its admission shape on the wire: the browser's
        // retry layer backs off by the hint instead of treating a live
        // but protecting server as dead.
        Err(NetError::Overloaded { retry_after_ms }) => Response::Overloaded { retry_after_ms },
        // A stack without the stale-serve rung lets failures surface; the
        // browser gets an honest error, never a bogus status.
        Err(_) => Response::Error {
            code: irs_ledger::codes::UNAVAILABLE,
            message: "upstream unavailable".to_string(),
        },
    };
    match run.len() {
        0 => {}
        1 => out.push(on_wire(stack.call(run.remove(0), ctx))),
        _ => out.extend(stack.call_all(run, ctx).into_iter().map(on_wire)),
    }
}

impl ProxyServer {
    /// Start a proxy on `addr`, forwarding filter misses to the ledger at
    /// `upstream` with the plain single-attempt stack. The proxy is
    /// shared: callers refresh its filters from outside the server while
    /// it runs.
    pub fn start_shared(
        proxy: Arc<SharedProxy>,
        addr: &str,
        upstream: SocketAddr,
    ) -> std::io::Result<ProxyServer> {
        let stack = stacks::plain_upstream(proxy.clone(), upstream);
        ProxyServer::start_with_stack(proxy, addr, stack)
    }

    /// Start serving with an explicit upstream stack — the entry point
    /// for resilient deployments (and experiment E16). The stack already
    /// embeds the local answer path when built by
    /// [`crate::service::stacks`], so the handler just calls it.
    pub fn start_with_stack(
        proxy: Arc<SharedProxy>,
        addr: &str,
        stack: BoxService,
    ) -> std::io::Result<ProxyServer> {
        ProxyServer::start_with_stack_workers(proxy, addr, stack, proxy_workers())
    }

    /// [`start_with_stack`](ProxyServer::start_with_stack) with an
    /// explicit reactor worker count. Overload experiments size the pool
    /// directly: each worker is one concurrent upstream lane while a
    /// handler blocks, so the worker count bounds how many duplicate
    /// misses can be in flight at once.
    pub fn start_with_stack_workers(
        proxy: Arc<SharedProxy>,
        addr: &str,
        stack: BoxService,
        workers: usize,
    ) -> std::io::Result<ProxyServer> {
        let stack: Arc<BoxService> = Arc::new(stack);
        let request_us = proxy.metrics().histogram("irs_proxy_request_us");
        let shared = proxy.clone();
        let config = ReactorConfig {
            workers: workers.max(1),
            registry: Some(proxy.metrics().clone()),
            ..ReactorConfig::default()
        };
        let handle = Reactor::bind(
            addr,
            config,
            Arc::new(move |frames, conn: &ConnCtx| {
                let burst = frames.len() as u64;
                // `irs_proxy_request_us` keeps one sample per frame: how
                // many are recorded so far, and since when the rest run.
                let (mut recorded, mut mark) = (0u64, Instant::now());
                let out = serve_burst(frames, |requests| {
                    // One clock reading per burst: every layer sees the
                    // same instant. The connection id rides along so
                    // admission layers in the stack can meter per-client.
                    let ctx = CallCtx::wall().with_client(conn.id());
                    let mut responses = Vec::with_capacity(requests.len());
                    // Each maximal run of consecutive `Query` frames goes
                    // down the stack as one group; anything else is
                    // answered in place, so order holds.
                    let mut run = Vec::with_capacity(requests.len());
                    for request in requests {
                        if matches!(request, Request::Query { .. }) {
                            run.push(request);
                            continue;
                        }
                        answer_queries(&stack, std::mem::take(&mut run), &ctx, &mut responses);
                        responses.push(match request {
                            Request::Ping => Response::Pong,
                            Request::Metrics => {
                                // A scrape counts everything before it.
                                let done = responses.len() as u64;
                                request_us.record_spread_since(mark, done - recorded);
                                (recorded, mark) = (done, Instant::now());
                                Response::MetricsText(shared.render_metrics())
                            }
                            _ => Response::Error {
                                code: irs_ledger::codes::BAD_REQUEST,
                                message: "proxy only serves Query/Ping/Metrics".to_string(),
                            },
                        });
                    }
                    answer_queries(&stack, run, &ctx, &mut responses);
                    responses
                });
                request_us.record_spread_since(mark, burst - recorded);
                out
            }),
        )?;
        Ok(ProxyServer { proxy, handle })
    }

    /// The proxy's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shared proxy state (to refresh filters or read stats; every
    /// operation is `&self`).
    pub fn proxy(&self) -> Arc<SharedProxy> {
        self.proxy.clone()
    }

    /// Open browser connections right now.
    pub fn live_connections(&self) -> usize {
        self.handle.live_connections()
    }

    /// Stop and join.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::LedgerServer;
    use crate::service::transport::testing::{call, connect};
    use crate::service::RetryPolicy;
    use irs_core::claim::{ClaimRequest, RevocationStatus};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response};
    use irs_crypto::{Digest, Keypair};
    use irs_filters::{BloomFilter, Publication};
    use irs_ledger::{Ledger, LedgerConfig};
    use irs_proxy::ProxyConfig;

    /// A shared proxy holding `filter` as ledger 1's revoked set.
    fn proxy_with(filter: &BloomFilter) -> Arc<SharedProxy> {
        let shared = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let update = Publication::full(1, filter.to_bytes());
        shared
            .update_filters(|f| f.apply(LedgerId(1), update))
            .unwrap();
        shared
    }

    /// Full bootstrap chain over loopback: browser → proxy → ledger.
    #[test]
    fn proxy_chain_end_to_end() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        );
        let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();

        // Owner claims a photo directly at the ledger.
        let owner = connect(ledger_server.addr());
        let kp = Keypair::from_seed(&[9u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"pic"));
        let Response::Claimed { id, .. } = call(&owner, Request::Claim(claim)) else {
            panic!("claim failed");
        };

        // Proxy holds the ledger's revoked-set filter. The claimed id is
        // deliberately inserted (as if recently revoked-then-unrevoked and
        // the hourly snapshot not yet refreshed), so its lookup exercises
        // the upstream-forwarding path; unclaimed ids miss and are
        // answered locally.
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(id.filter_key());
        let proxy = proxy_with(&filter);
        let proxy_server =
            ProxyServer::start_shared(proxy, "127.0.0.1:0", ledger_server.addr()).unwrap();

        // Browser queries through the proxy.
        let browser = connect(proxy_server.addr());
        // Filter-hit id: forwarded upstream.
        let Response::Status { status, .. } = call(&browser, Request::Query { id }) else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);
        // Filter-miss id: definitely not revoked → answered locally.
        let unknown = irs_core::ids::RecordId::new(LedgerId(1), 424_242);
        let Response::Status { status, .. } = call(&browser, Request::Query { id: unknown }) else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);

        // Stats: exactly one lookup reached the ledger.
        {
            let stats = proxy_server.proxy().stats();
            assert_eq!(stats.lookups, 2);
            assert_eq!(stats.ledger_queries, 1);
            assert_eq!(stats.filter_negative, 1);
        }
        // Second query for the claimed id is served from the proxy cache.
        call(&browser, Request::Query { id });
        {
            let stats = proxy_server.proxy().stats();
            assert_eq!(stats.cache_hits, 1);
            assert_eq!(stats.ledger_queries, 1, "no extra upstream traffic");
        }

        proxy_server.shutdown();
        ledger_server.shutdown();
    }

    #[test]
    fn proxy_rejects_non_query_requests() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(2),
        );
        let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let proxy_server = ProxyServer::start_shared(
            Arc::new(SharedProxy::new(ProxyConfig::default())),
            "127.0.0.1:0",
            ledger_server.addr(),
        )
        .unwrap();
        let client = connect(proxy_server.addr());
        let kp = Keypair::from_seed(&[3u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"x"));
        let resp = call(&client, Request::Claim(claim));
        assert!(matches!(resp, Response::Error { .. }));
        assert_eq!(call(&client, Request::Ping), Response::Pong);
        proxy_server.shutdown();
        ledger_server.shutdown();
    }

    /// A metrics scrape over the wire: the proxy answers `Metrics` with
    /// its registry's exposition, reflecting the requests served so far.
    #[test]
    fn metrics_over_tcp_returns_parseable_exposition() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        // An installed (empty) filter lets a miss resolve locally — no
        // live ledger needed for this scrape.
        let proxy = proxy_with(&BloomFilter::with_params(1 << 10, 4, 0).unwrap());
        let proxy_server = ProxyServer::start_shared(proxy, "127.0.0.1:0", dead).unwrap();
        let client = connect(proxy_server.addr());
        let miss = RecordId::new(LedgerId(1), 424_242);
        assert!(matches!(
            call(&client, Request::Query { id: miss }),
            Response::Status { .. }
        ));
        let Response::MetricsText(text) = call(&client, Request::Metrics) else {
            panic!("expected metrics text");
        };
        let parsed = irs_obs::parse_exposition(&text);
        assert_eq!(parsed["irs_proxy_lookups_total"], 1.0);
        assert_eq!(parsed["irs_proxy_filter_negative_total"], 1.0);
        // The scrape itself records its latency only after rendering, so
        // the returned text counts exactly the one query before it.
        assert_eq!(parsed["irs_proxy_request_us_count"], 1.0);
        // Reactor gauges land in the same exposition (this connection).
        assert_eq!(parsed["irs_net_live_connections"], 1.0);
        proxy_server.shutdown();
    }

    /// A mixed burst — `Query, Metrics, Query, Ping` in one `write` — is
    /// answered in order, and the scrape in the middle counts exactly
    /// what preceded it.
    #[test]
    fn mixed_burst_keeps_order_and_the_scrape_counts_what_preceded_it() {
        use crate::codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME};
        use irs_core::wire::Wire;
        use std::io::Write;
        let dead = "127.0.0.1:1".parse().unwrap();
        let proxy = proxy_with(&BloomFilter::with_params(1 << 10, 4, 0).unwrap());
        let server = ProxyServer::start_shared(proxy, "127.0.0.1:0", dead).unwrap();
        let id = RecordId::new(LedgerId(1), 424_242);
        let mut wire = BytesBuf::new();
        for request in [
            Request::Query { id },
            Request::Metrics,
            Request::Query { id },
            Request::Ping,
        ] {
            let codec = FrameCodec::new(MAX_FRAME);
            codec
                .encode(&request.to_bytes().unwrap(), &mut wire)
                .unwrap();
        }
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut browser = Framed::new(stream, MAX_FRAME);
        browser.get_mut().write_all(wire.as_slice()).unwrap();
        let mut next = || Response::from_bytes(browser.read_frame().unwrap()).unwrap();
        assert!(matches!(next(), Response::Status { .. }));
        let Response::MetricsText(text) = next() else {
            panic!("expected metrics text");
        };
        assert!(matches!(next(), Response::Status { .. }));
        assert_eq!(next(), Response::Pong);
        let scrape = irs_obs::parse_exposition(&text);
        assert_eq!(scrape["irs_proxy_lookups_total"], 1.0);
        assert_eq!(scrape["irs_proxy_request_us_count"], 1.0);
        // Once the burst is done every frame has its sample.
        let after = irs_obs::parse_exposition(&server.proxy().render_metrics());
        assert_eq!(after["irs_proxy_request_us_count"], 4.0);
        assert_eq!(
            after["irs_net_request_us_count"],
            after["irs_net_frames_total"]
        );
        server.shutdown();
    }

    /// The full ladder over real sockets: cache a status, kill the
    /// ledger, and the proxy serves it stale with an honest age; an
    /// uncached id comes back `Unavailable`, never a bogus status.
    #[test]
    fn dead_upstream_serves_stale_then_unavailable() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(3),
        );
        let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let upstream_addr = ledger_server.addr();

        // A real claimed record (so the upstream query has an answer) and
        // a never-claimed id; both sit in the filter so lookups for them
        // go upstream.
        let owner = connect(upstream_addr);
        let kp = Keypair::from_seed(&[4u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"stale-pic"));
        let Response::Claimed { id: cached, .. } = call(&owner, Request::Claim(claim)) else {
            panic!("claim failed");
        };
        let uncached = RecordId::new(LedgerId(1), cached.serial + 1_000);
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(cached.filter_key());
        filter.insert(uncached.filter_key());
        let shared = proxy_with(&filter);

        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::fast(1)
        };
        let stack = stacks::full_upstream(shared.clone(), vec![upstream_addr], retry);
        let proxy_server =
            ProxyServer::start_with_stack(shared.clone(), "127.0.0.1:0", stack).unwrap();
        let browser = connect(proxy_server.addr());

        // Warm the cache for `cached` while the ledger is up. (The ledger
        // has no such record, so the status is NotRevoked.)
        let Response::Status { status, .. } = call(&browser, Request::Query { id: cached }) else {
            panic!("warmup failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);

        // Kill the ledger. TTL default is long, but lookup() hits the
        // cache live anyway — force the degraded path by invalidating
        // nothing and querying past the breaker instead: use a fresh id
        // for Unavailable and rely on TTL-live cache for `cached`, so
        // exercise stale-serve by expiring the cache entry first.
        ledger_server.shutdown();
        shared.invalidate(&cached); // drop the live copy …
        shared.complete(cached, RevocationStatus::NotRevoked, TimeMs(0)); // … reinsert far in the past → expired now

        let resp = call(&browser, Request::Query { id: cached });
        let Response::StatusStale { id, status, age_ms } = resp else {
            panic!("expected stale answer, got {resp:?}");
        };
        assert_eq!(id, cached);
        assert_eq!(status, RevocationStatus::NotRevoked);
        assert!(age_ms > 0);

        let resp = call(&browser, Request::Query { id: uncached });
        let Response::Unavailable { id, .. } = resp else {
            panic!("expected unavailable, got {resp:?}");
        };
        assert_eq!(id, uncached);

        let counter = |name| shared.metrics().counter(name).get();
        assert_eq!(counter("irs_proxy_stale_served_total"), 1);
        assert!(counter("irs_proxy_unavailable_total") >= 1);
        assert!(counter("irs_proxy_upstream_failures_total") >= 1);
        proxy_server.shutdown();
    }

    /// A proxy running the storm rung (`stacks::storm_over`) under
    /// `governor` on one reactor worker, in front of a live ledger.
    fn storm_proxy(governor: crate::service::GovernorPolicy) -> (LedgerServer, ProxyServer) {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        );
        let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let shared = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let retry = RetryPolicy::fast(1);
        let upstream = stacks::transports(&[ledger_server.addr()], retry.io_timeout);
        let shed = crate::service::ShedPolicy::default();
        let stack = stacks::storm_over(shared.clone(), upstream, retry, governor, shed);
        let proxy_server =
            ProxyServer::start_with_stack_workers(shared, "127.0.0.1:0", stack, 1).unwrap();
        (ledger_server, proxy_server)
    }

    /// `Response::Overloaded` end to end over a real socket: a governed
    /// proxy refuses over-rate queries with the typed admission answer
    /// (tag 16 survives the wire), while low-priority requests are never
    /// metered.
    #[test]
    fn governed_proxy_sheds_over_rate_load_on_a_live_socket() {
        let (ledger_server, proxy_server) = storm_proxy(crate::service::GovernorPolicy {
            rate_per_sec: 1.0,
            burst: 2.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 40,
        });
        let client = connect(proxy_server.addr());
        let id = RecordId::new(LedgerId(1), 9);
        let (mut served, mut shed) = (0, 0);
        for _ in 0..10 {
            match call(&client, Request::Query { id }) {
                Response::Overloaded { retry_after_ms } => {
                    assert!(retry_after_ms >= 1, "hint must be actionable");
                    shed += 1;
                }
                _ => served += 1,
            }
        }
        assert!(served >= 1, "the burst allowance must be served");
        assert!(
            shed >= 1,
            "over-rate load must be shed, got {served} served"
        );
        // Low priority is never metered — even an exhausted bucket
        // still answers pings (health checks must not die first).
        assert_eq!(call(&client, Request::Ping), Response::Pong);
        proxy_server.shutdown();
        ledger_server.shutdown();
    }

    /// Shed load crossing a real socket surfaces as the *typed*
    /// [`NetError::Overloaded`] after retry exhaustion — never
    /// `ConnectionLost` — and the client-side breaker does not count it
    /// as upstream failure.
    #[test]
    fn live_shed_load_is_typed_and_does_not_trip_client_breakers() {
        use crate::service::{BreakerLayer, Failover, RetryLayer, ServiceExt, TcpTransport};
        use irs_proxy::health::{BreakerConfig, BreakerState};
        use std::time::Duration;

        // A governor that refuses every metered request. Rate zero means
        // the hint falls back to the configured `retry_after_ms` instead
        // of the (infinite) time-to-one-token.
        let (ledger_server, proxy_server) = storm_proxy(crate::service::GovernorPolicy {
            rate_per_sec: 0.0,
            burst: 0.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 5,
        });
        let client_proxy = Arc::new(
            SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
                failure_threshold: 2,
                open_cooldown_ms: 1_000,
            }),
        );
        let retry = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            call_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            jitter_seed: 7,
        };
        let svc = Failover::new(vec![TcpTransport::new(
            proxy_server.addr(),
            retry.io_timeout,
        )])
        .layered(RetryLayer::new(retry))
        .layered(BreakerLayer::new(client_proxy.clone()));
        let id = RecordId::new(LedgerId(1), 9);
        let ctx = CallCtx::wall();
        for _ in 0..4 {
            match svc.call(Request::Query { id }, &ctx) {
                Err(NetError::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 1),
                other => panic!("expected typed overload through the stack, got {other:?}"),
            }
        }
        assert_eq!(
            client_proxy.breaker(LedgerId(1)).state(),
            BreakerState::Closed,
            "shed load over a live socket must not open the breaker"
        );
        proxy_server.shutdown();
        ledger_server.shutdown();
    }
}
