//! The real-network prototype (§4.3: "we built a prototype ledger and
//! browser extension that performed revocation checks").
//!
//! One wire path, one implementation of each piece on it:
//!
//! * [`codec`] — the frame format (u32-BE length prefix), its caps per
//!   direction, the encoder/decoder over reusable buffers, and the
//!   small adapter that drives it over a blocking stream. Nothing else
//!   in the workspace parses a frame header;
//! * [`reactor`] — the network engine: an epoll-based event loop.
//!   N worker threads run readiness loops over non-blocking sockets, so
//!   connection count is bounded by memory, not by thread count.
//!   [`LedgerServer`] and [`ProxyServer`] both run on it (DESIGN.md §12);
//! * [`mux`] — the client: pipelined requests with correlation slots
//!   over one shared connection;
//! * [`service`] — the tower-style middleware stack (transport, retry,
//!   failover, breaker, stale-serve, cache, single-flight, shed,
//!   governor and route as composable layers) every caller reaches a
//!   server through;
//!   [`service::TcpTransport`] is the bottom of every stack and
//!   [`service::stacks`] holds the canonical compositions;
//! * [`ledger_server`] — a [`irs_ledger::Ledger`] behind the
//!   wire protocol;
//! * [`proxy_server`] — an [`irs_proxy::SharedProxy`] that answers
//!   locally when it can and forwards filter misses upstream;
//! * [`mod@refresh`] — the proxy's hourly filter pull over the wire (one
//!   `GetFilterTiered` a round);
//! * [`chaos`] — the fault-injecting interposer the failure drills run
//!   through. It relays on a crate-private thread-per-connection accept
//!   loop: a relay that sleeps, stalls and blackholes on purpose wants a
//!   thread it may park.
//!
//! Shutdown is explicit and joins every worker/connection thread
//! (structured concurrency: no task outlives its component).

pub mod chaos;
pub mod codec;
pub mod ledger_server;
pub mod mux;
pub mod proxy_server;
pub mod reactor;
pub mod refresh;
mod server;
pub mod service;

pub use chaos::{ChaosConfig, ChaosProxy, ChaosStats, FaultMode};
pub use codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME, MAX_REQUEST_FRAME};
pub use ledger_server::LedgerServer;
pub use mux::MuxClient;
pub use proxy_server::ProxyServer;
pub use reactor::{Reactor, ReactorConfig, ReactorHandle};
pub use refresh::RefreshWorker;
pub use service::{BoxService, CallCtx, Layer, RetryPolicy, Service, ServiceExt};

/// Errors from the network layer.
#[derive(Debug)]
pub enum NetError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Frame exceeded the size cap or was malformed.
    Frame(&'static str),
    /// Peer closed the connection.
    Closed,
    /// Wire-codec failure on a received payload.
    Wire(irs_core::wire::WireError),
    /// The stream died mid-exchange (write failed or the peer vanished).
    /// The [`MuxClient`] holding it is poisoned — after a failed exchange
    /// the request/response correlation can no longer be trusted — and
    /// [`service::TcpTransport`] dials a fresh one on the next call.
    ConnectionLost,
    /// A [`service::RetryLayer`] ran out of retry budget: every attempt
    /// failed and/or the per-call deadline elapsed.
    Exhausted {
        /// Attempts made (including the first).
        attempts: u32,
    },
    /// A [`service::BreakerLayer`] refused the call: the target ledger's
    /// circuit breaker is open.
    BreakerOpen,
    /// The call's wall-clock deadline elapsed before work could start
    /// (see [`service::CallCtx::with_deadline`] and
    /// [`service::RetryPolicy`]).
    DeadlineExceeded,
    /// The server (or a local [`service::ShedLayer`] / governor) refused
    /// the call under overload. Distinct from [`NetError::ConnectionLost`]
    /// on purpose: the exchange path is healthy, so breakers must not
    /// count shed load as failure — the right reaction is backoff.
    Overloaded {
        /// Suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// A [`service::Route`] could not converge on an owner for a keyed
    /// request: the target shard refused it with `WrongShard` even
    /// after the router refetched the directory. `epoch` is the
    /// router's map version at the final attempt.
    WrongShard {
        /// The router's shard-map epoch when it gave up.
        epoch: u64,
    },
}

impl NetError {
    /// Whether this is a socket read/write timeout (`SO_RCVTIMEO`
    /// surfaces as `WouldBlock` on Linux, `TimedOut` elsewhere) — the one
    /// I/O error after which a [`Framed`] stream is still in sync.
    pub fn is_timeout(&self) -> bool {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        matches!(self, NetError::Io(e) if matches!(e.kind(), WouldBlock | TimedOut))
    }

    /// A best-effort structural copy, for fanning one upstream error out
    /// to many waiters (single-flight followers).
    /// `NetError` is not `Clone` because `std::io::Error` is not; the
    /// replica of an [`NetError::Io`] preserves the kind and message.
    pub fn replicate(&self) -> NetError {
        match self {
            NetError::Io(e) => NetError::Io(std::io::Error::new(e.kind(), e.to_string())),
            NetError::Frame(what) => NetError::Frame(what),
            NetError::Closed => NetError::Closed,
            NetError::Wire(e) => NetError::Wire(e.clone()),
            NetError::ConnectionLost => NetError::ConnectionLost,
            NetError::Exhausted { attempts } => NetError::Exhausted {
                attempts: *attempts,
            },
            NetError::BreakerOpen => NetError::BreakerOpen,
            NetError::DeadlineExceeded => NetError::DeadlineExceeded,
            NetError::Overloaded { retry_after_ms } => NetError::Overloaded {
                retry_after_ms: *retry_after_ms,
            },
            NetError::WrongShard { epoch } => NetError::WrongShard { epoch: *epoch },
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Frame(what) => write!(f, "framing error: {what}"),
            NetError::Closed => write!(f, "connection closed"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::ConnectionLost => write!(f, "connection lost mid-exchange"),
            NetError::Exhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempt(s)")
            }
            NetError::BreakerOpen => write!(f, "circuit breaker open"),
            NetError::DeadlineExceeded => write!(f, "call deadline exceeded"),
            NetError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded, retry after {retry_after_ms} ms")
            }
            NetError::WrongShard { epoch } => {
                write!(f, "shard routing did not converge at map epoch {epoch}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<irs_core::wire::WireError> for NetError {
    fn from(e: irs_core::wire::WireError) -> Self {
        NetError::Wire(e)
    }
}
