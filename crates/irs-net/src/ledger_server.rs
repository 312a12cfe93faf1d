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
//!
//! Nothing here waits on replication. A reply the ledger holds — a
//! write under `WaitForFollower` until its follower ack, a follower's
//! poll until there is something to ship — becomes a reactor held slot
//! that the replication log completes, so a worker is never parked and
//! a follower's poll can land on the same worker as the write it acks.
//!
//! No admission control sits here: a ledger only ever hears from
//! proxies (§4.2), so priority shedding is deployed at the proxy, in
//! front of its cache (DESIGN.md §14).

use crate::codec::{response_bytes, serve_burst};
use crate::reactor::{ConnCtx, Reactor, ReactorConfig, ReactorHandle, Reply};
use irs_core::time::{Clock, SystemClock, TimeMs};
use irs_core::wire::Request;
use irs_ledger::store::DEFAULT_SHARDS;
use irs_ledger::{Ledger, Served};
use std::net::SocketAddr;
use std::sync::Arc;

/// One request through the ledger, as the reactor's reply on `conn`:
/// ready, or held in a reactor slot the replication log completes.
fn reply(ledger: &Ledger, request: Request, now: TimeMs, conn: &ConnCtx) -> Reply {
    let held = match ledger.serve(request, now) {
        Served::Ready(answer) => return answer.into(),
        Served::Held(held) => held,
    };
    let (slot, completion) = conn.hold(held.deadline(), response_bytes(held.fallback()));
    match held.park(move |answer| completion.complete(response_bytes(&answer))) {
        Some(answer) => answer.into(),
        None => slot,
    }
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
        serve(ledger.into(), addr, ReactorConfig::default())
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

/// Bind the reactor on `addr`: every burst is decoded by [`serve_burst`]
/// and answered by the ledger, one request after another, at one clock
/// reading. The config's `registry` is replaced by the ledger's own, so
/// reactor gauges and histograms land in the same exposition as the
/// ledger's counters.
fn serve(
    ledger: Arc<Ledger>,
    addr: &str,
    mut config: ReactorConfig,
) -> std::io::Result<LedgerServer> {
    config.registry = Some(ledger.metrics().clone());
    let serving = ledger.clone();
    let handle = Reactor::bind(
        addr,
        config,
        Arc::new(move |frames, conn: &ConnCtx| {
            serve_burst(frames, |requests| {
                let now = SystemClock.now();
                let replies = requests.into_iter();
                replies.map(|r| reply(&serving, r, now, conn)).collect()
            })
        }),
    )?;
    Ok(LedgerServer { ledger, handle })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Framed, MAX_FRAME, MAX_REQUEST_FRAME};
    use bytes::{BufMut, BytesMut};
    use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response, Wire};
    use irs_crypto::{Digest, Keypair};
    use irs_ledger::LedgerConfig;

    use crate::server::poll_until;
    use crate::service::transport::testing::{call, connect};
    use crate::service::{CallCtx, Service};

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

    /// A durable ledger on a `ChaosDisk` that never faults, under `policy`.
    fn durable_ledger(seed: u64, policy: irs_ledger::ReplicationPolicy) -> Arc<Ledger> {
        use irs_ledger::{ChaosDisk, ChaosDiskConfig, DurabilityConfig, FsyncPolicy};
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
        let mut durability = DurabilityConfig::new(disk, FsyncPolicy::Always);
        durability.replication = policy;
        let config = LedgerConfig::new(LedgerId(1));
        let tsa = TimestampAuthority::from_seed(seed);
        Arc::new(Ledger::recover(config, tsa, 4, durability).unwrap())
    }

    /// `ledger` served by one reactor worker.
    fn on_one_worker(ledger: Arc<Ledger>) -> LedgerServer {
        let one = ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        };
        serve(ledger, "127.0.0.1:0", one).unwrap()
    }

    fn claim_request(i: u64) -> ClaimRequest {
        let kp = Keypair::from_seed(&[0x27; 32]);
        ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()))
    }

    /// A raw connection to `addr` whose reads give up after `timeout`.
    fn raw(addr: SocketAddr, timeout: std::time::Duration) -> Framed<std::net::TcpStream> {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(timeout)).unwrap();
        Framed::new(stream, MAX_FRAME)
    }

    fn subscribe(from_seq: u64) -> Vec<u8> {
        let max_frames = 64;
        let poll = Request::WalSubscribe {
            from_seq,
            max_frames,
        };
        poll.to_bytes().unwrap().to_vec()
    }

    fn segment(stream: &mut Framed<std::net::TcpStream>) -> irs_ledger::SegmentData {
        let answer = Response::from_bytes(stream.read_frame().unwrap()).unwrap();
        irs_ledger::SegmentData::try_from(answer).expect("a WAL segment")
    }

    /// Replies `server`'s reactor holds right now.
    fn held_replies(server: &LedgerServer) -> f64 {
        let text = server.ledger().metrics().render();
        irs_obs::parse_exposition(&text)["irs_net_held_replies"]
    }

    /// On one worker: a poll with nothing to ship is held, a `Ping`
    /// pipelined behind it is answered after the poll's segment and
    /// never before it, and the commit that gives the poll a frame
    /// completes it; a poll nothing completes is answered empty at its
    /// deadline.
    #[test]
    fn a_ping_behind_a_held_poll_waits_for_its_segment() {
        use std::time::{Duration, Instant};
        let ledger = durable_ledger(0x31, irs_ledger::ReplicationPolicy::LocalOnly);
        let server = on_one_worker(ledger.clone());
        let mut tail = raw(server.addr(), Duration::from_secs(5));
        let mut wire = crate::codec::BytesBuf::new();
        let codec = crate::codec::FrameCodec::new(MAX_FRAME);
        for frame in [subscribe(1), Request::Ping.to_bytes().unwrap().to_vec()] {
            codec.encode(&frame, &mut wire).unwrap();
        }
        std::io::Write::write_all(tail.get_mut(), wire.as_slice()).unwrap();
        assert!(poll_until(Duration::from_secs(5), || held_replies(&server) == 1.0));
        ledger
            .claim_custodial(claim_request(0), irs_core::time::TimeMs(0))
            .unwrap();
        let seg = segment(&mut tail);
        assert_eq!((seg.first_seq, seg.durable_seq), (1, 1));
        assert!(!seg.frames.is_empty(), "the commit ships its frame");
        let pong = Response::from_bytes(tail.read_frame().unwrap()).unwrap();
        assert_eq!(pong, Response::Pong);

        let polled = Instant::now();
        tail.write_frame(&subscribe(2)).unwrap();
        let seg = segment(&mut tail);
        let held = polled.elapsed();
        assert!(seg.frames.is_empty() && seg.durable_seq == 1, "{seg:?}");
        assert!(held >= Duration::from_millis(90), "{held:?}");
        assert_eq!(held_replies(&server), 0.0);
        server.shutdown();
    }

    /// On one worker: while a write waits, held, for its follower ack, a
    /// `Ping` on another connection is answered at once; the ack then
    /// completes the write.
    #[test]
    fn a_held_write_leaves_its_worker_free() {
        use std::time::{Duration, Instant};
        let wait = irs_ledger::ReplicationPolicy::WaitForFollower { timeout_ms: 10_000 };
        let ledger = durable_ledger(0x35, wait);
        let server = on_one_worker(ledger.clone());
        let mut owner = raw(server.addr(), Duration::from_secs(5));
        let claim = Request::Claim(claim_request(0)).to_bytes().unwrap();
        owner.write_frame(&claim).unwrap();
        assert!(poll_until(Duration::from_secs(5), || held_replies(&server) == 1.0));

        let mut other = raw(server.addr(), Duration::from_secs(5));
        let asked = Instant::now();
        let ping = Request::Ping.to_bytes().unwrap();
        assert_eq!(raw_exchange(&mut other, &ping), Response::Pong);
        let answered = asked.elapsed();
        assert!(answered < Duration::from_secs(1), "{answered:?}");
        assert_eq!(held_replies(&server), 1.0, "the write is still held");

        ledger.durability().unwrap().replication().record_ack(1);
        let answer = Response::from_bytes(owner.read_frame().unwrap()).unwrap();
        assert!(matches!(answer, Response::Claimed { .. }), "{answer:?}");
        assert_eq!(held_replies(&server), 0.0);
        server.shutdown();
    }

    /// The stray `WalSubscribe { from_seq: u64::MAX }` over TCP: held
    /// like any empty poll, answered with an empty segment, and it acks
    /// nothing — the frame the real follower needs is still served.
    #[test]
    fn a_stray_poll_past_the_mark_is_held_and_acks_nothing() {
        use std::time::{Duration, Instant};
        let ledger = durable_ledger(0x32, irs_ledger::ReplicationPolicy::LocalOnly);
        ledger
            .claim_custodial(claim_request(0), irs_core::time::TimeMs(0))
            .unwrap();
        let server = on_one_worker(ledger.clone());
        let mut stream = raw(server.addr(), Duration::from_secs(5));
        let sent = Instant::now();
        stream.write_frame(&subscribe(u64::MAX)).unwrap();
        let seg = segment(&mut stream);
        assert!(sent.elapsed() >= Duration::from_millis(90), "not held");
        assert!(seg.frames.is_empty());
        let log = ledger.durability().unwrap().replication();
        assert_eq!(log.acked_seq(), 0);
        stream.write_frame(&subscribe(1)).unwrap();
        assert!(!segment(&mut stream).frames.is_empty());
        server.shutdown();
    }

    /// The wedge: one reactor worker under `WaitForFollower`, the
    /// follower's tail (`Follower::run` over TCP) and the owner's writes
    /// on that same worker. A write parked on its ack would keep the
    /// worker from ever reading the poll that carries the ack; a held
    /// reply leaves it free, so every write is acked at once.
    #[test]
    fn acked_writes_share_one_worker_with_their_follower() {
        use irs_ledger::{ChaosDisk, ChaosDiskConfig, DurabilityConfig, Follower, FsyncPolicy};
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::time::{Duration, Instant};
        let wait = irs_ledger::ReplicationPolicy::WaitForFollower { timeout_ms: 5_000 };
        let primary = durable_ledger(0x33, wait);
        let (seq, snapshot) = primary.replication_snapshot().unwrap();
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(0x34)));
        let mut follower = Follower::bootstrap(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(0x33),
            4,
            DurabilityConfig::new(disk, FsyncPolicy::Always),
            seq,
            &snapshot,
        )
        .unwrap();
        let replica = follower.ledger();
        let server = on_one_worker(primary);
        assert_eq!(server.serving_threads(), 1);
        let stop = AtomicBool::new(false);
        let acked = std::thread::scope(|s| {
            let tail = s.spawn(|| {
                let primary = connect(server.addr());
                follower.run(|req| primary.call(req, &CallCtx::wall()).ok(), &stop)
            });
            let owner = connect(server.addr());
            let acked = (0..100).try_for_each(|i| {
                let started = Instant::now();
                match owner.call(Request::Claim(claim_request(i)), &CallCtx::wall()) {
                    Ok(Response::Claimed { .. }) if started.elapsed() < Duration::from_secs(2) => {
                        Ok(())
                    }
                    answer => Err(format!(
                        "claim {i}: {answer:?} after {:?}",
                        started.elapsed()
                    )),
                }
            });
            stop.store(true, Ordering::SeqCst);
            tail.join().unwrap().unwrap();
            acked
        });
        acked.unwrap();
        assert_eq!(replica.store().len(), 100);
        server.shutdown();
    }
}
