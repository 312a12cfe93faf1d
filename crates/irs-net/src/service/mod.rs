//! A synchronous tower-style middleware stack for the validate path.
//!
//! One abstraction, [`Service`], expresses "take a wire [`Request`],
//! produce a wire [`Response`] or a [`NetError`]" — and every
//! cross-cutting concern on the browser → proxy → ledger path is an
//! independent [`Layer`] that wraps one service in another:
//!
//! * [`TcpTransport`] — the bottom: one multiplexed connection per
//!   address, redialed when it dies;
//! * [`RetryLayer`] — bounded retries with seeded jittered backoff;
//! * [`Failover`] — a replica set with cursor rotation;
//! * [`BreakerLayer`] — the per-ledger lock-free circuit breaker;
//! * [`StaleServeLayer`] — honest last-good answers when all else fails;
//! * [`CacheLayer`] — the proxy's filter + striped TTL cache front;
//! * [`SingleFlightLayer`] — concurrent misses on one record collapse
//!   into a single upstream call whose verdict fans out to all waiters;
//! * [`ShedLayer`] — priority load shedding by queue-depth and
//!   deadline-headroom watermarks, answering `Response::Overloaded`;
//! * [`GovernorLayer`] — per-client token-bucket admission with a
//!   shared spillover pool;
//! * [`Route`] — the shard router over per-shard stacks.
//!
//! The degradation ladder from DESIGN.md ("Failure model & degradation
//! ladder") is then literally a composition —
//! `Cache(StaleServe(Breaker(Retry(Failover(Tcp)))))` — instead of the
//! bespoke `UpstreamConfig` plumbing it replaces; see [`stacks`] for the
//! canonical rungs and DESIGN.md §10 for the ordering rules.
//!
//! Everything is synchronous and `&self`: a stack is shared across
//! connection threads behind an `Arc` and never locks around I/O.

use crate::NetError;
use irs_core::time::{Clock, SystemClock, TimeMs};
use irs_core::wire::{Request, Response};
use irs_obs::{MaybeSpan, SpanRecorder};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub mod breaker;
pub mod cache;
pub mod failover;
pub mod governor;
pub mod retry;
pub mod route;
pub mod shed;
pub mod singleflight;
pub mod stacks;
pub mod stale;
pub mod transport;

pub use breaker::{Breaker, BreakerLayer};
pub use cache::{Cache, CacheLayer};
pub use failover::Failover;
pub use governor::{Admission, Governor, GovernorLayer, GovernorPolicy, TokenGovernor};
pub use retry::{jittered_backoff, Retry, RetryCounters, RetryLayer, RetryPolicy};
pub use route::Route;
pub use shed::{Priority, Shed, ShedLayer, ShedPolicy};
pub use singleflight::{SingleFlight, SingleFlightLayer};
pub use stale::{StaleServe, StaleServeLayer};
pub use transport::{TcpTransport, TransportPool};

/// Per-call context threaded through a stack: the logical timestamp the
/// caller observed (feeds caches, breakers, and staleness accounting),
/// an optional wall-clock deadline (feeds retries and transports), and
/// an optional [`SpanRecorder`] (feeds the per-layer trace).
#[derive(Clone, Debug)]
pub struct CallCtx {
    /// The caller's logical "now" — one reading per request, so every
    /// layer in the stack sees the same instant (cache TTL checks,
    /// breaker gates, and stale ages stay mutually consistent).
    pub now: TimeMs,
    /// Wall-clock point after which no further work should start.
    pub deadline: Option<Instant>,
    /// Trace recorder for this request; layers record enter/exit +
    /// verdict spans into it. `None` (the default) makes every span a
    /// no-op — one `Option` check per layer.
    pub trace: Option<Arc<SpanRecorder>>,
    /// The client this call is made on behalf of — servers stamp the
    /// reactor's connection id here so admission control
    /// ([`GovernorLayer`]) can meter per client. `None` means unknown
    /// (in-process callers, tests): governed stacks meter those under
    /// one shared anonymous bucket.
    pub client: Option<u64>,
}

impl CallCtx {
    /// A context at an explicit logical time, with no deadline.
    pub fn at(now: TimeMs) -> CallCtx {
        CallCtx {
            now,
            deadline: None,
            trace: None,
            client: None,
        }
    }

    /// A context at the system clock's current time.
    pub fn wall() -> CallCtx {
        CallCtx::at(SystemClock.now())
    }

    /// Tighten the deadline: the result carries the *earlier* of the
    /// existing deadline and `deadline` (a layer can only shrink the
    /// budget its caller granted, never extend it).
    pub fn with_deadline(&self, deadline: Instant) -> CallCtx {
        CallCtx {
            now: self.now,
            deadline: Some(match self.deadline {
                Some(existing) => existing.min(deadline),
                None => deadline,
            }),
            trace: self.trace.clone(),
            client: self.client,
        }
    }

    /// Attribute this call to `client` (see [`CallCtx::client`]).
    pub fn with_client(mut self, client: u64) -> CallCtx {
        self.client = Some(client);
        self
    }

    /// Attach a trace recorder: every layer below records spans.
    pub fn with_trace(mut self, recorder: Arc<SpanRecorder>) -> CallCtx {
        self.trace = Some(recorder);
        self
    }

    /// The trace recorder, when one is attached.
    pub fn recorder(&self) -> Option<&Arc<SpanRecorder>> {
        self.trace.as_ref()
    }

    /// Open a span named after the layer; a no-op guard when the
    /// request is untraced. Closes when the guard drops.
    pub fn span(&self, name: &'static str) -> MaybeSpan {
        SpanRecorder::maybe(self.trace.as_ref(), name)
    }

    /// Wall-clock budget left, `None` when no deadline is set.
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        matches!(self.remaining(), Some(r) if r.is_zero())
    }
}

/// One request/response hop. Implementations are shared across threads
/// (`&self`, `Send + Sync`); anything mutable inside is atomics or locks.
pub trait Service: Send + Sync {
    /// Process one request.
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError>;

    /// Start a group — a page's worth of requests issued together —
    /// under one `ctx` (one clock reading, one deadline: what the caller
    /// waits for is the group); [`Pending::wait`] yields one answer per
    /// request, in request order. The default is eager: one
    /// [`call`](Service::call) after another. The ladder's layers
    /// override it so the misses overlap on the wire (DESIGN.md §10),
    /// and build `call` from the same steps, straight down: one frame
    /// defers nothing.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        Pending::Ready(reqs.into_iter().map(|req| self.call(req, ctx)).collect())
    }

    /// Process a group: [`start_all`](Service::start_all), then wait.
    /// Never overridden — a layer's group semantics live in `start_all`.
    fn call_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Vec<Result<Response, NetError>> {
        self.start_all(reqs, ctx).wait()
    }
}

/// A started group: its answers, or the step that collects them. It
/// borrows only the service that started it, and must be waited: the
/// bookkeeping (verdicts, write-back, spans) happens in
/// [`wait`](Pending::wait). Dropped unwaited it loses that, but never
/// desynchronises a connection — late responses are discarded.
#[must_use = "a started group must be waited"]
pub enum Pending<'a> {
    /// Answered already.
    Ready(Vec<Result<Response, NetError>>),
    /// On its way; the closure collects the answers.
    Later(Box<dyn FnOnce() -> Vec<Result<Response, NetError>> + 'a>),
}

impl<'a> Pending<'a> {
    /// The answers, one per request, in request order.
    pub fn wait(self) -> Vec<Result<Response, NetError>> {
        match self {
            Pending::Ready(answers) => answers,
            Pending::Later(collect) => collect(),
        }
    }

    /// A layer's second phase: `finish` runs on the answers when the
    /// group is waited, never at start.
    fn then<F>(self, finish: F) -> Pending<'a>
    where
        F: FnOnce(Vec<Result<Response, NetError>>) -> Vec<Result<Response, NetError>> + 'a,
    {
        Pending::Later(Box::new(move || finish(self.wait())))
    }
}

/// A group's answers while a layer gathers them out of order (local
/// answers first, forwarded ones as they come back): slot *i* belongs to
/// request *i* and is filled exactly once.
struct Answers(Vec<Option<Result<Response, NetError>>>);

impl Answers {
    fn new(len: usize) -> Answers {
        Answers((0..len).map(|_| None).collect())
    }

    fn set(&mut self, i: usize, answer: Result<Response, NetError>) {
        debug_assert!(self.0[i].is_none(), "request {i} answered twice");
        self.0[i] = Some(answer);
    }

    fn finish(self) -> Vec<Result<Response, NetError>> {
        let answers = self.0.into_iter();
        answers
            .map(|a| a.expect("every request answered"))
            .collect()
    }
}

/// A service combinator: wraps an inner service into a new service.
pub trait Layer<S> {
    /// The wrapped service type.
    type Out: Service;
    /// Wrap `inner`.
    fn wrap(&self, inner: S) -> Self::Out;
}

/// A heap-allocated, type-erased service — what stack builders return
/// so callers don't carry the full composed type in their signatures.
pub type BoxService = Box<dyn Service>;

impl<S: Service + ?Sized> Service for Box<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        (**self).call(req, ctx)
    }
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        (**self).start_all(reqs, ctx)
    }
}

impl<S: Service + ?Sized> Service for Arc<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        (**self).call(req, ctx)
    }
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        (**self).start_all(reqs, ctx)
    }
}

impl<S: Service + ?Sized> Service for &S {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        (**self).call(req, ctx)
    }
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        (**self).start_all(reqs, ctx)
    }
}

/// Composition sugar: `transport.layered(RetryLayer::new(p)).boxed()`.
pub trait ServiceExt: Service + Sized {
    /// Wrap `self` in `layer`.
    fn layered<L: Layer<Self>>(self, layer: L) -> L::Out {
        layer.wrap(self)
    }

    /// Erase the concrete type.
    fn boxed(self) -> BoxService
    where
        Self: 'static,
    {
        Box::new(self)
    }
}

impl<S: Service + Sized> ServiceExt for S {}

/// A service from a closure — the unit-test workhorse (and the hook for
/// in-process transports: a closure over a `Ledger` is a
/// transport with no socket under it).
pub struct ServiceFn<F> {
    f: F,
}

/// Build a [`ServiceFn`].
pub fn service_fn<F>(f: F) -> ServiceFn<F>
where
    F: Fn(Request, &CallCtx) -> Result<Response, NetError> + Send + Sync,
{
    ServiceFn { f }
}

impl<F> Service for ServiceFn<F>
where
    F: Fn(Request, &CallCtx) -> Result<Response, NetError> + Send + Sync,
{
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        (self.f)(req, ctx)
    }
}

#[cfg(test)]
mod group_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn service_fn_and_boxing_compose() {
        let svc = service_fn(|req, _ctx| match req {
            Request::Ping => Ok(Response::Pong),
            _ => Err(NetError::Frame("only ping")),
        });
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(svc.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        let boxed: BoxService = svc.boxed();
        assert_eq!(boxed.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        // Arc'd and borrowed services still satisfy the trait — the
        // shapes connection threads and tests actually use. Taking `S`
        // by value forces the `Arc<S>` / `&S` blanket impls to resolve.
        fn assert_pongs<S: Service>(svc: S, ctx: &CallCtx) {
            assert_eq!(svc.call(Request::Ping, ctx).unwrap(), Response::Pong);
        }
        let shared = Arc::new(service_fn(|_req, _ctx| Ok(Response::Pong)));
        assert_pongs(shared.clone(), &ctx);
        assert_pongs(&*shared, &ctx);
    }

    #[test]
    fn with_deadline_only_tightens() {
        let near = Instant::now() + Duration::from_millis(10);
        let far = Instant::now() + Duration::from_secs(60);
        let ctx = CallCtx::at(TimeMs(5))
            .with_deadline(near)
            .with_deadline(far);
        assert_eq!(ctx.deadline, Some(near), "a later deadline must not win");
        assert_eq!(ctx.now, TimeMs(5));
        assert!(!ctx.expired());
        let expired =
            CallCtx::at(TimeMs(5)).with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(expired.expired());
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn wall_ctx_has_no_deadline() {
        let ctx = CallCtx::wall();
        assert!(ctx.deadline.is_none());
        assert!(!ctx.expired());
        assert!(ctx.remaining().is_none());
    }
}
