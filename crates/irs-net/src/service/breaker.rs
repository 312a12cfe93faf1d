//! The per-ledger circuit breaker as a layer.
//!
//! [`Breaker`] consults the [`SharedProxy`]'s lock-free
//! [`CircuitBreaker`](irs_proxy::health::CircuitBreaker) for the ledger a
//! request targets: an open breaker short-circuits the call with
//! [`NetError::BreakerOpen`] (don't hammer a known-dead ledger), and
//! every completed inner call records one health verdict — per item
//! when a group passes through. The layer sits *outside* retries on
//! purpose — one logical call is one verdict, no matter how many
//! attempts the retry layer burned (DESIGN.md §10).

use super::{Answers, CallCtx, Layer, Pending, Service};
use crate::NetError;
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_obs::MaybeSpan;
use irs_proxy::SharedProxy;
use std::sync::Arc;

/// Wraps a service in the shared proxy's per-ledger breaker.
#[derive(Clone)]
pub struct BreakerLayer {
    proxy: Arc<SharedProxy>,
    fallback: LedgerId,
}

impl BreakerLayer {
    /// A layer gating on `proxy`'s breakers. Requests that don't name a
    /// record (e.g. `GetFilterTiered`, `Ping`) are attributed to ledger 0.
    pub fn new(proxy: Arc<SharedProxy>) -> BreakerLayer {
        BreakerLayer {
            proxy,
            fallback: LedgerId(0),
        }
    }

    /// Attribute record-less requests to `fallback` instead of ledger 0
    /// (a proxy whose whole upstream is one ledger).
    pub fn with_fallback(mut self, fallback: LedgerId) -> BreakerLayer {
        self.fallback = fallback;
        self
    }
}

impl<S: Service> Layer<S> for BreakerLayer {
    type Out = Breaker<S>;
    fn wrap(&self, inner: S) -> Breaker<S> {
        Breaker {
            inner,
            proxy: self.proxy.clone(),
            fallback: self.fallback,
        }
    }
}

/// The [`BreakerLayer`] service.
pub struct Breaker<S> {
    inner: S,
    proxy: Arc<SharedProxy>,
    fallback: LedgerId,
}

impl<S> Breaker<S> {
    /// Which ledger's breaker governs `req`.
    fn ledger_of(&self, req: &Request) -> LedgerId {
        match req {
            Request::Query { id } | Request::GetProof { id } => id.ledger,
            Request::Revoke(r) => r.id.ledger,
            Request::Claim(_)
            | Request::GetFilterTiered { .. }
            | Request::Ping
            | Request::Metrics
            | Request::WalSubscribe { .. }
            | Request::FetchSnapshot
            | Request::GetShardMap => self.fallback,
        }
    }

    /// `req`'s ledger when its breaker admits it. An open one fails fast
    /// and records nothing — probes are admitted by `allow` itself once
    /// the cooldown elapses.
    fn admit(&self, req: &Request, now: TimeMs, span: &MaybeSpan) -> Option<LedgerId> {
        let ledger = self.ledger_of(req);
        let admitted = self.proxy.breaker(ledger).allow(now);
        if !admitted {
            span.verdict("open");
        }
        admitted.then_some(ledger)
    }

    /// One verdict for one answer. Any answer counts as healthy — an
    /// application-level error still proves the exchange path works.
    /// That includes shed load: an `Overloaded` answer (or the typed
    /// error retries reduce it to) is backpressure from a live server,
    /// and tripping the breaker on it would turn an overload into a
    /// self-inflicted outage.
    fn record(
        &self,
        ledger: LedgerId,
        result: &Result<Response, NetError>,
        now: TimeMs,
        span: &MaybeSpan,
    ) {
        let healthy = matches!(result, Ok(_) | Err(NetError::Overloaded { .. }));
        self.proxy.record_upstream(ledger, healthy, now);
        span.verdict_result(result, "err");
    }
}

impl<S: Service> Service for Breaker<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("breaker");
        let ledger = self
            .admit(&req, ctx.now, &span)
            .ok_or(NetError::BreakerOpen)?;
        let result = self.inner.call(req, ctx);
        self.record(ledger, &result, ctx.now, &span);
        result
    }

    /// Gates each item on its own ledger's breaker, forwards the
    /// admitted ones as one group and records one verdict per item. The
    /// group is admitted before its first verdict lands — a closed
    /// breaker lets a whole page through to a shard that just died — but
    /// a half-open one admits exactly one probe; the rest fail fast.
    /// Verdicts are recorded when the group is waited.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("breaker");
        let mut answers = Answers::new(reqs.len());
        let (mut admitted, mut forward) = (Vec::new(), Vec::new());
        for (i, req) in reqs.into_iter().enumerate() {
            match self.admit(&req, ctx.now, &span) {
                Some(ledger) => {
                    admitted.push((i, ledger));
                    forward.push(req);
                }
                None => answers.set(i, Err(NetError::BreakerOpen)),
            }
        }
        if forward.is_empty() {
            return Pending::Ready(answers.finish());
        }
        let now = ctx.now;
        self.inner.start_all(forward, ctx).then(move |results| {
            for ((i, ledger), result) in admitted.into_iter().zip(results) {
                self.record(ledger, &result, now, &span);
                answers.set(i, result);
            }
            answers.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::RecordId;
    use irs_core::time::TimeMs;
    use irs_proxy::health::{BreakerConfig, BreakerState};
    use irs_proxy::ProxyConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn proxy() -> Arc<SharedProxy> {
        Arc::new(
            SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
                failure_threshold: 2,
                open_cooldown_ms: 1_000,
            }),
        )
    }

    #[test]
    fn failures_open_the_breaker_and_gate_calls() {
        let proxy = proxy();
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            calls_in.fetch_add(1, Ordering::SeqCst);
            Err(NetError::ConnectionLost)
        })
        .layered(BreakerLayer::new(proxy.clone()));
        let id = RecordId::new(LedgerId(1), 7);
        let ctx = CallCtx::at(TimeMs(10));
        assert!(svc.call(Request::Query { id }, &ctx).is_err());
        assert!(svc.call(Request::Query { id }, &ctx).is_err());
        assert_eq!(proxy.breaker(LedgerId(1)).state(), BreakerState::Open);
        // Third call is gated: typed error, inner never runs.
        match svc.call(Request::Query { id }, &ctx) {
            Err(NetError::BreakerOpen) => {}
            other => panic!("expected BreakerOpen, got {other:?}"),
        }
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn success_closes_after_cooldown_probe() {
        let proxy = proxy();
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong))
            .layered(BreakerLayer::new(proxy.clone()).with_fallback(LedgerId(3)));
        // Open ledger 3's breaker by hand.
        proxy.record_upstream(LedgerId(3), false, TimeMs(0));
        proxy.record_upstream(LedgerId(3), false, TimeMs(0));
        assert!(matches!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(1))),
            Err(NetError::BreakerOpen)
        ));
        // Past the cooldown the half-open probe is admitted and its
        // success closes the breaker.
        let later = CallCtx::at(TimeMs(2_000));
        assert_eq!(svc.call(Request::Ping, &later).unwrap(), Response::Pong);
        assert_eq!(proxy.breaker(LedgerId(3)).state(), BreakerState::Closed);
    }

    #[test]
    fn shed_load_does_not_trip_the_breaker() {
        // A server under admission control keeps answering Overloaded
        // (or retries reduce it to the typed error). Two of either —
        // enough "failures" to open this breaker — must leave it closed.
        let proxy = proxy();
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            Err(NetError::Overloaded { retry_after_ms: 50 })
        })
        .layered(BreakerLayer::new(proxy.clone()));
        let id = RecordId::new(LedgerId(1), 7);
        let ctx = CallCtx::at(TimeMs(10));
        for _ in 0..4 {
            assert!(matches!(
                svc.call(Request::Query { id }, &ctx),
                Err(NetError::Overloaded { .. })
            ));
        }
        assert_eq!(
            proxy.breaker(LedgerId(1)).state(),
            BreakerState::Closed,
            "backpressure must not open the breaker"
        );
        let shedding =
            service_fn(|_req, _ctx: &CallCtx| Ok(Response::Overloaded { retry_after_ms: 50 }))
                .layered(BreakerLayer::new(proxy.clone()));
        for _ in 0..4 {
            assert!(shedding.call(Request::Query { id }, &ctx).is_ok());
        }
        assert_eq!(proxy.breaker(LedgerId(1)).state(), BreakerState::Closed);
    }

    #[test]
    fn breakers_are_per_ledger() {
        let proxy = proxy();
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong))
            .layered(BreakerLayer::new(proxy.clone()));
        proxy.record_upstream(LedgerId(1), false, TimeMs(0));
        proxy.record_upstream(LedgerId(1), false, TimeMs(0));
        let ctx = CallCtx::at(TimeMs(1));
        let blocked = RecordId::new(LedgerId(1), 1);
        let healthy = RecordId::new(LedgerId(2), 1);
        assert!(matches!(
            svc.call(Request::Query { id: blocked }, &ctx),
            Err(NetError::BreakerOpen)
        ));
        assert!(svc.call(Request::Query { id: healthy }, &ctx).is_ok());
    }
}
