//! A ledger behind the wire protocol — the §4.3 "prototype ledger".
//!
//! The server runs on the [`reactor`](crate::reactor): a fixed pool of
//! worker threads runs readiness loops over non-blocking sockets, so
//! connection count is bounded by memory rather than by thread count,
//! and pipelined clients ([`crate::mux::MuxClient`]) multiplex many
//! requests per connection.
//!
//! Connections share one [`Ledger`] behind a plain `Arc` and call its
//! `&self` request path directly: no whole-service mutex is held across
//! request handling, so independent connections proceed in parallel.

use crate::codec::{serve_burst, MAX_REQUEST_FRAME};
use crate::reactor::{Reactor, ReactorConfig, ReactorHandle};
use crate::service::{
    service_fn, CallCtx, GovernorLayer, GovernorPolicy, Service, ServiceExt, ShedLayer, ShedPolicy,
};
use irs_core::wire::Response;
use irs_ledger::store::DEFAULT_SHARDS;
use irs_ledger::Ledger;
use std::net::SocketAddr;
use std::sync::Arc;

/// The ledger's `&self` request path as the innermost [`Service`].
fn ledger_service(ledger: Arc<Ledger>) -> impl Service {
    service_fn(move |req, ctx: &CallCtx| Ok(ledger.handle(req, ctx.now)))
}

/// A running TCP ledger server.
pub struct LedgerServer {
    ledger: Arc<Ledger>,
    handle: ReactorHandle,
}

impl LedgerServer {
    /// Start serving `ledger` on `addr` ("127.0.0.1:0" for ephemeral)
    /// with default reactor tuning. Pass an `Arc<Ledger>` to keep driving
    /// the same instance from outside the server.
    pub fn start(ledger: impl Into<Arc<Ledger>>, addr: &str) -> std::io::Result<LedgerServer> {
        let ledger = ledger.into();
        let admitted = ledger_service(ledger.clone());
        LedgerServer::serve(ledger, addr, ReactorConfig::default(), admitted)
    }

    /// Start a *durable* ledger server: recover any state the disk holds
    /// (snapshot + WAL tail, tolerating a torn final record) **before**
    /// the listening socket accepts its first connection, then serve
    /// with every mutation write-ahead logged under `durability`'s fsync
    /// policy. A restart on the same disk therefore answers queries for
    /// every write it acknowledged before the crash. Recovery failures
    /// (mid-log corruption, generation mismatch) refuse to start — a
    /// ledger must never serve state it cannot vouch for.
    pub fn start_durable(
        config: irs_ledger::LedgerConfig,
        tsa: irs_core::tsa::TimestampAuthority,
        durability: irs_ledger::DurabilityConfig,
        addr: &str,
    ) -> std::io::Result<LedgerServer> {
        let ledger = Ledger::recover(config, tsa, DEFAULT_SHARDS, durability)
            .map_err(|e| std::io::Error::other(format!("ledger recovery failed: {e}")))?;
        LedgerServer::start(ledger, addr)
    }

    /// Start serving one **shard** of a sharded deployment: attaches
    /// `dir` (the shard's identity plus its placement view) to the
    /// ledger, then serves it. The attached directory makes the ledger
    /// answer `GetShardMap` from `dir` and refuse keyed requests it does
    /// not own with `Response::WrongShard { epoch }` — the server half of
    /// the DESIGN.md §15 self-healing protocol. Fails if the ledger
    /// already has a directory or `dir` names a different shard than the
    /// ledger's id.
    pub fn start_sharded(
        ledger: Arc<Ledger>,
        addr: &str,
        dir: Arc<irs_ledger::ShardDirectory>,
    ) -> std::io::Result<LedgerServer> {
        if dir.own() != Some(ledger.id()) {
            return Err(std::io::Error::other(
                "shard directory does not name this ledger as its own shard",
            ));
        }
        if !ledger.set_shard_directory(dir) {
            return Err(std::io::Error::other(
                "ledger already has a shard directory",
            ));
        }
        LedgerServer::start(ledger, addr)
    }

    /// Start with **priority admission control** in front of the
    /// ledger: every decoded request passes a per-connection
    /// token-bucket [`Governor`](crate::service::Governor) and a
    /// [`Shed`](crate::service::Shed) inflight gate *before* touching
    /// ledger state. Over-rate or over-capacity load is answered with
    /// `Response::Overloaded { retry_after_ms }` — an admission verdict,
    /// not a failure: retry layers back off by the hint and breakers do
    /// not count it against upstream health. The governor keys buckets
    /// on the reactor's per-connection id, so one abusive connection
    /// exhausts its own bucket while its neighbours keep their full rate.
    pub fn start_governed(
        ledger: Arc<Ledger>,
        addr: &str,
        config: ReactorConfig,
        governor: GovernorPolicy,
        shed: ShedPolicy,
    ) -> std::io::Result<LedgerServer> {
        let registry = ledger.metrics().clone();
        let admitted = ledger_service(ledger.clone())
            .layered(ShedLayer::new(shed).with_registry(registry.clone()))
            .layered(GovernorLayer::new(governor).with_registry(registry));
        LedgerServer::serve(ledger, addr, config, admitted)
    }

    /// Bind the reactor: every burst is decoded by [`serve_burst`] and
    /// answered by `admitted` — the ledger itself, or the ledger behind
    /// its admission layers. The config's `registry` is replaced by the
    /// ledger's own, so reactor gauges and histograms land in the same
    /// exposition as the ledger's counters, and its `max_frame` by
    /// [`MAX_REQUEST_FRAME`].
    fn serve(
        ledger: Arc<Ledger>,
        addr: &str,
        mut config: ReactorConfig,
        admitted: impl Service + 'static,
    ) -> std::io::Result<LedgerServer> {
        config.registry = Some(ledger.metrics().clone());
        config.max_frame = MAX_REQUEST_FRAME;
        let handle = Reactor::bind(
            addr,
            config,
            Arc::new(move |frames, conn| {
                serve_burst(frames, |requests| {
                    let ctx = CallCtx::wall().with_client(conn);
                    // Neither the ledger nor its admission layers error
                    // today (sheds are Ok answers), but keep the wire
                    // honest if a future layer does.
                    let answers = admitted.call_all(requests, &ctx).into_iter();
                    let on_wire = answers.map(|answer| {
                        answer.unwrap_or_else(|e| Response::Error {
                            code: irs_ledger::codes::UNAVAILABLE,
                            message: format!("admission: {e}"),
                        })
                    });
                    on_wire.collect()
                })
            }),
        )?;
        Ok(LedgerServer { ledger, handle })
    }

    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Shared access to the ledger (e.g. to publish filters or apply
    /// revocations while serving — every operation is `&self`).
    pub fn ledger(&self) -> Arc<Ledger> {
        self.ledger.clone()
    }

    /// Open connections right now.
    pub fn live_connections(&self) -> usize {
        self.handle.live_connections()
    }

    /// Serving threads: the reactor's worker pool, whatever the
    /// connection count.
    pub fn serving_threads(&self) -> usize {
        self.handle.workers()
    }

    /// Stop the server and join all threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Framed, MAX_FRAME};
    use bytes::{BufMut, BytesMut};
    use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Wire};
    use irs_crypto::{Digest, Keypair};
    use irs_ledger::LedgerConfig;

    use crate::service::transport::testing::{call, connect};

    fn server() -> LedgerServer {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        );
        LedgerServer::start(ledger, "127.0.0.1:0").unwrap()
    }

    #[test]
    fn claim_query_revoke_over_tcp() {
        let server = server();
        let client = connect(server.addr());
        let kp = Keypair::from_seed(&[1u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"photo"));
        let Response::Claimed { id, .. } = call(&client, Request::Claim(claim)) else {
            panic!("claim failed");
        };
        let Response::Status { status, epoch, .. } = call(&client, Request::Query { id }) else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::NotRevoked);
        let rv = RevokeRequest::create(&kp, id, true, epoch);
        let Response::RevokeAck { status, .. } = call(&client, Request::Revoke(rv)) else {
            panic!("revoke failed");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
    }

    /// One raw exchange: `payload` as a request frame, the decoded answer.
    fn raw_exchange(stream: &mut Framed<std::net::TcpStream>, payload: &[u8]) -> Response {
        stream.write_frame(payload).unwrap();
        Response::from_bytes(stream.read_frame().unwrap()).unwrap()
    }

    #[test]
    fn malformed_request_gets_error_response() {
        let server = server();
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut stream = Framed::new(stream, MAX_FRAME);
        let Response::Error { code, .. } = raw_exchange(&mut stream, b"\xff\xffgarbage") else {
            panic!("expected error response");
        };
        assert_eq!(code, irs_ledger::codes::BAD_REQUEST);
        server.shutdown();
    }

    /// A well-framed request carrying a tag this build doesn't know
    /// (a newer peer) gets a structured `Unsupported` answer — and the
    /// connection survives to serve the next, known request. The same
    /// from a proxy as from a ledger: a newer browser must be able to
    /// degrade per operation against either (the rolling-upgrade rule).
    #[test]
    fn unknown_request_tag_answered_not_fatal() {
        let server = server();
        let proxy = crate::proxy_server::ProxyServer::start_shared(
            Arc::new(irs_proxy::SharedProxy::new(Default::default())),
            "127.0.0.1:0",
            server.addr(),
        )
        .unwrap();
        for (who, addr) in [("ledger", server.addr()), ("proxy", proxy.addr())] {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let mut stream = Framed::new(stream, MAX_FRAME);
            // Protocol version 1, then a tag far beyond anything assigned —
            // and the retired whole-Bloom filter fetch (tag 4 + the
            // `have_version` an old proxy would send) and batched query
            // (tag 6, count 1, one record id), never reassigned.
            let mut batch = BytesMut::new();
            batch.put_slice(&[1, 6, 0, 0, 0, 1]);
            RecordId::new(LedgerId(1), 3).encode(&mut batch).unwrap();
            let retired = [&[1u8, 0xee][..], &[1, 4, 0, 0, 0, 0, 0, 0, 0, 7], &batch];
            for frame in retired {
                let answer = raw_exchange(&mut stream, frame);
                assert_eq!(answer, Response::Unsupported { tag: frame[1] }, "{who}");
            }
            // Same socket, known request: the decode failure must not
            // have poisoned the connection.
            let ping = Request::Ping.to_bytes().unwrap();
            assert_eq!(raw_exchange(&mut stream, &ping), Response::Pong, "{who}");
        }
        proxy.shutdown();
        server.shutdown();
    }

    /// Responses are not bound by the request cap: a shard far past the
    /// ~7 000 records whose snapshot fits 2 MiB still ships it over TCP,
    /// and a follower bootstraps from what arrives.
    #[test]
    fn follower_bootstraps_from_a_snapshot_larger_than_the_request_cap() {
        use irs_ledger::{ChaosDisk, ChaosDiskConfig, DurabilityConfig, Follower, FsyncPolicy};
        const RECORDS: u64 = 10_000;
        let config = LedgerConfig::new(LedgerId(1));
        let tsa = TimestampAuthority::from_seed(20);
        let durable = |seed| {
            let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
            DurabilityConfig::new(disk, FsyncPolicy::OsDefault)
        };
        let ledger = Ledger::recover(config.clone(), tsa.clone(), 4, durable(1)).unwrap();
        let kp = Keypair::from_seed(&[0x20; 32]);
        for i in 0..RECORDS {
            let claim = ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()));
            ledger.handle(Request::Claim(claim), irs_core::time::TimeMs(i));
        }
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();

        let Response::Snapshot { seq, data } =
            call(&connect(server.addr()), Request::FetchSnapshot)
        else {
            panic!("expected snapshot response");
        };
        assert!(
            data.len() > MAX_REQUEST_FRAME as usize,
            "{} bytes no longer exceeds the request cap; grow RECORDS",
            data.len()
        );
        let follower = Follower::bootstrap(config, tsa, 4, durable(2), seq, &data).unwrap();
        assert_eq!(follower.ledger().store().len() as u64, RECORDS);
        server.shutdown();
    }

    #[test]
    fn ping_latency_sane() {
        let server = server();
        let client = connect(server.addr());
        let start = std::time::Instant::now();
        for _ in 0..50 {
            assert_eq!(call(&client, Request::Ping), Response::Pong);
        }
        let per_call = start.elapsed().as_micros() / 50;
        // Loopback round trips should be well under 10 ms each.
        assert!(per_call < 10_000, "{per_call}µs per call");
        server.shutdown();
    }

    /// `Request::Metrics` over the wire returns a parseable exposition
    /// whose counters reflect the requests the server actually handled —
    /// now including the reactor's own gauges in the same registry.
    #[test]
    fn metrics_over_tcp_returns_parseable_exposition() {
        let server = server();
        let client = connect(server.addr());
        let kp = Keypair::from_seed(&[6u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"scraped"));
        let Response::Claimed { id, .. } = call(&client, Request::Claim(claim)) else {
            panic!("claim failed");
        };
        call(&client, Request::Query { id });
        let Response::MetricsText(text) = call(&client, Request::Metrics) else {
            panic!("expected metrics text");
        };
        let parsed = irs_obs::parse_exposition(&text);
        assert_eq!(parsed["irs_ledger_claims_total"], 1.0);
        assert_eq!(parsed["irs_ledger_queries_total"], 1.0);
        assert_eq!(parsed["irs_ledger_records"], 1.0);
        // Reactor metrics share the exposition: this very connection is
        // live, served by a bounded worker pool.
        assert_eq!(parsed["irs_net_live_connections"], 1.0);
        assert!(parsed["irs_net_reactor_workers"] >= 2.0);
        assert!(parsed["irs_net_frames_total"] >= 3.0);
        server.shutdown();
    }

    #[test]
    fn parallel_clients() {
        let server = server();
        let addr = server.addr();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                std::thread::spawn(move || {
                    let client = connect(addr);
                    let kp = Keypair::from_seed(&[i as u8 + 10; 32]);
                    let claim = ClaimRequest::create(&kp, &Digest::of(&[i as u8]));
                    let resp = call(&client, Request::Claim(claim));
                    assert!(matches!(resp, Response::Claimed { .. }));
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(server.ledger().store().len(), 4);
        server.shutdown();
    }

    #[test]
    fn mux_client_pipelines_against_default_server() {
        let server = server();
        let mux = Arc::new(crate::mux::MuxClient::connect(server.addr()).unwrap());
        let far = std::time::Instant::now() + std::time::Duration::from_secs(10);
        std::thread::scope(|scope| {
            for t in 0..4u8 {
                let mux = mux.clone();
                scope.spawn(move || {
                    let kp = Keypair::from_seed(&[t + 40; 32]);
                    let claim = ClaimRequest::create(&kp, &Digest::of(&[t]));
                    let Response::Claimed { id, .. } =
                        mux.call(&Request::Claim(claim), far).unwrap()
                    else {
                        panic!("claim failed");
                    };
                    let Response::Status { status, .. } =
                        mux.call(&Request::Query { id }, far).unwrap()
                    else {
                        panic!("query failed");
                    };
                    assert_eq!(status, RevocationStatus::NotRevoked);
                });
            }
        });
        // All eight exchanges shared one connection.
        assert_eq!(server.live_connections(), 1);
        assert_eq!(server.ledger().store().len(), 4);
        drop(mux);
        server.shutdown();
    }

    #[test]
    fn durable_server_recovers_acked_writes_across_restart() {
        use irs_ledger::{DurabilityConfig, FsyncPolicy, StdDisk};

        let dir = std::env::temp_dir().join(format!(
            "irs-net-durable-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let durability = || {
            DurabilityConfig::new(
                Arc::new(StdDisk::new(&dir).unwrap()) as Arc<dyn irs_ledger::Disk>,
                FsyncPolicy::Always,
            )
        };
        let config = irs_ledger::LedgerConfig::new(LedgerId(1));
        let tsa = TimestampAuthority::from_seed(9);

        // First life: claim + revoke over TCP, both acknowledged.
        let server =
            LedgerServer::start_durable(config.clone(), tsa.clone(), durability(), "127.0.0.1:0")
                .unwrap();
        let client = connect(server.addr());
        let kp = Keypair::from_seed(&[3u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"durable"));
        let Response::Claimed { id, .. } = call(&client, Request::Claim(claim)) else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&kp, id, true, 0);
        assert!(matches!(
            call(&client, Request::Revoke(rv)),
            Response::RevokeAck { .. }
        ));
        server.shutdown();

        // Second life on the same disk: the revocation must be visible
        // before the first connection is accepted.
        let server = LedgerServer::start_durable(config, tsa, durability(), "127.0.0.1:0").unwrap();
        let client = connect(server.addr());
        let Response::Status { status, .. } = call(&client, Request::Query { id }) else {
            panic!("query failed after restart");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn live_mutation_while_serving() {
        // `&self` ledger handle: external code can claim/revoke/publish
        // on the same instance the connection threads are serving.
        let server = server();
        let ledger = server.ledger();
        let kp = Keypair::from_seed(&[7u8; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(b"side"));
        let (id, _) = ledger.store().claim(
            req,
            irs_ledger::store::ClaimOrigin::Owner,
            true,
            irs_core::time::TimeMs(1),
        );
        ledger.publish_filter();
        let client = connect(server.addr());
        let Response::Status { status, .. } = call(&client, Request::Query { id }) else {
            panic!("query failed");
        };
        assert_eq!(status, RevocationStatus::Revoked);
        server.shutdown();
    }

    fn governed(governor: GovernorPolicy) -> LedgerServer {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        );
        LedgerServer::start_governed(
            Arc::new(ledger),
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
            governor,
            ShedPolicy::default(),
        )
        .unwrap()
    }

    /// `Response::Overloaded` end to end over a real socket: a governed
    /// server refuses over-rate queries with the typed admission answer
    /// (tag 16 survives the wire), while low-priority requests are never
    /// metered.
    #[test]
    fn governed_server_sheds_over_rate_load_on_a_live_socket() {
        let server = governed(GovernorPolicy {
            rate_per_sec: 1.0,
            burst: 2.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 40,
        });
        let client = connect(server.addr());
        let id = irs_core::ids::RecordId::new(LedgerId(1), 9);
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
        server.shutdown();
    }

    /// Shed load crossing a real socket surfaces as the *typed*
    /// [`NetError::Overloaded`] after retry exhaustion — never
    /// `ConnectionLost` — and the client-side breaker does not count it
    /// as upstream failure.
    #[test]
    fn live_shed_load_is_typed_and_does_not_trip_client_breakers() {
        use crate::service::{
            BreakerLayer, Failover, RetryLayer, Service, ServiceExt, TcpTransport,
        };
        use crate::NetError;
        use irs_proxy::health::{BreakerConfig, BreakerState};
        use irs_proxy::{ProxyConfig, SharedProxy};
        use std::time::Duration;

        // A governor that refuses every metered request. Rate zero means
        // the hint falls back to the configured `retry_after_ms` instead
        // of the (infinite) time-to-one-token.
        let server = governed(GovernorPolicy {
            rate_per_sec: 0.0,
            burst: 0.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 5,
        });
        let proxy = Arc::new(
            SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
                failure_threshold: 2,
                open_cooldown_ms: 1_000,
            }),
        );
        let retry = crate::service::RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            call_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            jitter_seed: 7,
        };
        let svc = Failover::new(vec![TcpTransport::new(server.addr(), retry.io_timeout)])
            .layered(RetryLayer::new(retry))
            .layered(BreakerLayer::new(proxy.clone()));
        let id = irs_core::ids::RecordId::new(LedgerId(1), 9);
        let ctx = crate::service::CallCtx::wall();
        for _ in 0..4 {
            match svc.call(Request::Query { id }, &ctx) {
                Err(NetError::Overloaded { retry_after_ms }) => assert!(retry_after_ms >= 1),
                other => panic!("expected typed overload through the stack, got {other:?}"),
            }
        }
        assert_eq!(
            proxy.breaker(LedgerId(1)).state(),
            BreakerState::Closed,
            "shed load over a live socket must not open the breaker"
        );
        server.shutdown();
    }
}
