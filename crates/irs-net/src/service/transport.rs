//! The bottom of every stack: a multiplexed TCP transport.
//!
//! [`TcpTransport`] owns one [`MuxClient`] — a single connection
//! carrying pipelined requests with correlation ids — so any number of
//! concurrent callers share one socket without serializing behind each
//! other's exchanges (the reactor answers frames in order; the mux
//! matches responses back to callers). This replaces the old 8-slot
//! `try_lock` pool: where the pool's concurrency ceiling was its slot
//! count, the mux's is the server's pipeline depth.
//!
//! A connection that dies is poisoned wholesale (every in-flight call
//! fails with [`NetError::ConnectionLost`]) and re-established lazily on
//! the next call — the reconnect rung of the ladder. An encode error
//! leaves the connection healthy: an unrepresentable request is the
//! caller's bug, not the stream's.

use super::{CallCtx, Pending, Service};
use crate::mux::MuxClient;
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_obs::MaybeSpan;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A [`Service`] speaking the wire protocol to one address.
pub struct TcpTransport {
    addr: SocketAddr,
    io_timeout: Duration,
    mux: Mutex<Option<Arc<MuxClient>>>,
    connects: AtomicU64,
}

impl TcpTransport {
    /// A transport for `addr`. No connection is made until the first
    /// call (a down replica costs nothing at construction time).
    pub fn new(addr: SocketAddr, io_timeout: Duration) -> TcpTransport {
        TcpTransport {
            addr,
            io_timeout,
            mux: Mutex::new(None),
            connects: AtomicU64::new(0),
        }
    }

    /// The address this transport dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections established after the first (streams that died and
    /// were re-dialed).
    pub fn reconnects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed).saturating_sub(1)
    }

    /// The live shared connection, dialing a fresh one if none exists
    /// or the previous one was poisoned.
    fn live_mux(&self) -> Result<Arc<MuxClient>, NetError> {
        let mut slot = self.mux.lock();
        if let Some(mux) = slot.as_ref() {
            if !mux.is_dead() {
                return Ok(mux.clone());
            }
        }
        let mux = Arc::new(MuxClient::connect_with_timeout(self.addr, self.io_timeout)?);
        self.connects.fetch_add(1, Ordering::Relaxed);
        *slot = Some(mux.clone());
        Ok(mux)
    }

    /// The connection an exchange starting now rides, and its deadline:
    /// the caller's if set, tightened by the transport's own I/O budget
    /// — every exchange is bounded. Fails when the caller's budget is
    /// spent or the dial fails.
    fn dial(&self, ctx: &CallCtx, span: &MaybeSpan) -> Result<(Arc<MuxClient>, Instant), NetError> {
        if ctx.expired() {
            span.verdict("deadline");
            return Err(NetError::DeadlineExceeded);
        }
        let mux = self.live_mux().map_err(|e| {
            span.verdict("err");
            e
        })?;
        let budget = Instant::now() + self.io_timeout;
        Ok((mux, ctx.deadline.map_or(budget, |d| d.min(budget))))
    }
}

/// A per-address pool of [`TcpTransport`]s, shared by every shard
/// stack a router builds.
///
/// Isolation is the point: each address owns its own transport (and
/// thus its own [`MuxClient`]), so a poisoned connection to one shard
/// never evicts or stalls the healthy connections to the others — and
/// two stacks dialing the same replica (a shard's primary, say, and the
/// refresh worker) still share one socket.
pub struct TransportPool {
    io_timeout: Duration,
    transports: Mutex<HashMap<SocketAddr, Arc<TcpTransport>>>,
}

impl TransportPool {
    /// A pool whose transports all use `io_timeout` per exchange.
    pub fn new(io_timeout: Duration) -> TransportPool {
        TransportPool {
            io_timeout,
            transports: Mutex::new(HashMap::new()),
        }
    }

    /// The pooled transport for `addr`, created (unconnected) on first
    /// use. Callers holding the returned `Arc` keep sharing the same
    /// underlying connection.
    pub fn transport(&self, addr: SocketAddr) -> Arc<TcpTransport> {
        self.transports
            .lock()
            .entry(addr)
            .or_insert_with(|| Arc::new(TcpTransport::new(addr, self.io_timeout)))
            .clone()
    }

    /// Transports for a whole replica set, in the given failover order.
    pub fn transports(&self, addrs: &[SocketAddr]) -> Vec<Arc<TcpTransport>> {
        addrs.iter().map(|&a| self.transport(a)).collect()
    }

    /// Number of distinct addresses pooled so far.
    pub fn len(&self) -> usize {
        self.transports.lock().len()
    }

    /// Whether the pool has dialed out at all yet.
    pub fn is_empty(&self) -> bool {
        self.transports.lock().is_empty()
    }
}

impl Service for TcpTransport {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("transport");
        let (mux, deadline) = self.dial(ctx, &span)?;
        let answer = mux.call(&req, deadline);
        span.verdict_result(&answer, "err");
        answer
    }

    /// The whole group rides one [`MuxClient::send_all`]: one `write`,
    /// one exchange, each answer failing on its own, collected in `wait`.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        if reqs.is_empty() {
            return Pending::Ready(Vec::new()); // nothing to say is no reason to dial
        }
        let span = ctx.span("transport");
        let (mux, deadline) = match self.dial(ctx, &span) {
            Ok(dialed) => dialed,
            Err(e) => return Pending::Ready(reqs.iter().map(|_| Err(e.replicate())).collect()),
        };
        let sent = mux.send_all(&reqs, deadline);
        Pending::Later(Box::new(move || {
            let answers = sent.wait();
            let ok = answers.iter().all(Result::is_ok);
            span.verdict(if ok { "ok" } else { "err" });
            answers
        }))
    }
}

/// What the crate's socket tests do over and over: dial a server, make
/// one exchange.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    pub(crate) fn connect(addr: SocketAddr) -> TcpTransport {
        TcpTransport::new(addr, Duration::from_secs(5))
    }

    pub(crate) fn call(client: &TcpTransport, request: Request) -> Response {
        client.call(request, &CallCtx::wall()).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::LedgerServer;
    use irs_core::ids::LedgerId;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_ledger::{Ledger, LedgerConfig};

    fn ledger_server() -> LedgerServer {
        ledger_server_at("127.0.0.1:0")
    }

    fn ledger_server_at(addr: &str) -> LedgerServer {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(0x7C9),
        );
        LedgerServer::start(ledger, addr).unwrap()
    }

    #[test]
    fn pings_over_a_pooled_connection() {
        let server = ledger_server();
        let t = TcpTransport::new(server.addr(), Duration::from_millis(500));
        let ctx = CallCtx::at(TimeMs(0));
        for _ in 0..5 {
            assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        }
        assert_eq!(t.reconnects(), 0, "one stream must serve repeat calls");
        server.shutdown();
    }

    #[test]
    fn dead_stream_reconnects_on_next_call() {
        let server = ledger_server();
        let addr = server.addr();
        let t = TcpTransport::new(addr, Duration::from_millis(500));
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        server.shutdown();
        assert!(t.call(Request::Ping, &ctx).is_err());
        let server = {
            let ledger = Ledger::new(
                LedgerConfig::new(LedgerId(1)),
                TimestampAuthority::from_seed(0x7C9),
            );
            LedgerServer::start(ledger, &addr.to_string()).unwrap()
        };
        assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert!(t.reconnects() >= 1);
        server.shutdown();
    }

    /// A server that closes an idle connection is noticed before the
    /// next write: that call redials and succeeds on its first attempt.
    #[test]
    fn an_idle_connection_the_server_closed_redials_transparently() {
        let server = ledger_server();
        let addr = server.addr();
        let t = TcpTransport::new(addr, Duration::from_millis(500));
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        server.shutdown();
        let server = ledger_server_at(&addr.to_string());
        assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert_eq!(t.reconnects(), 1);
        server.shutdown();
    }

    /// A peer that stops reading stalls a write for the transport's I/O
    /// budget, not for seconds: the stalled group fails, the client is
    /// poisoned, and nobody queued behind the writer lock waits longer.
    #[test]
    fn a_peer_that_stops_reading_fails_the_write_within_the_io_budget() {
        use irs_core::claim::ClaimRequest;
        use irs_crypto::{Digest, Keypair};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accepts, keeps the connection open, never reads.
        let peer = std::thread::spawn(move || listener.accept().unwrap());
        let io_timeout = Duration::from_millis(100);
        let t = TcpTransport::new(addr, io_timeout);
        let claim = ClaimRequest::create(&Keypair::from_seed(&[7; 32]), &Digest::of(b"photo"));
        let group = vec![Request::Claim(claim); 4096];
        let ctx = CallCtx::wall();
        let dead = || t.mux.lock().as_ref().is_some_and(|mux| mux.is_dead());
        // Send until a write finds no room: that group fails.
        let stalled = (0..64).find_map(|_| {
            let started = Instant::now();
            let sent = t.start_all(group.clone(), &ctx);
            let took = started.elapsed();
            dead().then_some((sent, took))
        });
        let (sent, took) = stalled.expect("the peer's buffers never filled");
        // One timeout to fill the last of the buffers, one to find no room.
        assert!(
            took < io_timeout * 3,
            "a stalled write held the writer {took:?}"
        );
        let lost = |a: &Result<Response, NetError>| matches!(a, Err(NetError::ConnectionLost));
        assert!(sent.wait().iter().all(lost));
        drop(peer.join());
    }

    #[test]
    fn expired_deadline_fails_before_dialing() {
        // Nothing listens on the address; an expired context must fail
        // fast without attempting the (slow) connect.
        let t = TcpTransport::new("127.0.0.1:1".parse().unwrap(), Duration::from_secs(5));
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() - Duration::from_millis(1));
        let start = Instant::now();
        assert!(matches!(
            t.call(Request::Ping, &ctx),
            Err(NetError::DeadlineExceeded)
        ));
        assert!(start.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn concurrent_callers_share_the_pool() {
        let server = ledger_server();
        let t = std::sync::Arc::new(TcpTransport::new(server.addr(), Duration::from_millis(500)));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let t = t.clone();
                std::thread::spawn(move || {
                    let ctx = CallCtx::at(TimeMs(0));
                    for _ in 0..10 {
                        assert_eq!(t.call(Request::Ping, &ctx).unwrap(), Response::Pong);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        // Multiplexing: all 80 exchanges rode one connection.
        assert_eq!(t.reconnects(), 0);
        server.shutdown();
    }

    #[test]
    fn pool_returns_one_transport_per_address() {
        let server = ledger_server();
        let pool = TransportPool::new(Duration::from_millis(500));
        let a = pool.transport(server.addr());
        let b = pool.transport(server.addr());
        assert!(Arc::ptr_eq(&a, &b), "same address must share a transport");
        assert_eq!(pool.len(), 1);
        let other = pool.transport("127.0.0.1:1".parse().unwrap());
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_empty());
        server.shutdown();
    }

    #[test]
    fn killing_one_shards_socket_leaves_other_shards_transports_live() {
        // Two "shards" (independent servers) behind one pool. Killing
        // shard A mid-run poisons only A's mux: B keeps answering on
        // its original connection with zero reconnects.
        let server_a = ledger_server();
        let server_b = ledger_server();
        let pool = Arc::new(TransportPool::new(Duration::from_millis(500)));
        let ta = pool.transport(server_a.addr());
        let tb = pool.transport(server_b.addr());
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(ta.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert_eq!(tb.call(Request::Ping, &ctx).unwrap(), Response::Pong);

        // Kill shard A's socket mid-run.
        server_a.shutdown();
        assert!(ta.call(Request::Ping, &ctx).is_err(), "A must be dead");

        // B is untouched: still live, still on its first connection.
        for _ in 0..10 {
            assert_eq!(tb.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        }
        assert_eq!(
            tb.reconnects(),
            0,
            "a poisoned mux to one shard must not evict another shard's connection"
        );
        server_b.shutdown();
    }
}
