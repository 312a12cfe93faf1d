//! Honest last-good answers — the bottom rung of the ladder.
//!
//! When everything below ([`super::BreakerLayer`], retries, the wire)
//! has failed a `Query`, [`StaleServe`] answers from the proxy's TTL
//! cache *ignoring expiry*: [`Response::StatusStale`] with the answer's
//! true age, or [`Response::Unavailable`] when there is nothing cached —
//! a bounded-stale answer beats no answer (DESIGN.md Nongoal #4), and an
//! honest `Unavailable` beats a lie. Non-`Query` failures pass through
//! untouched: there is no such thing as a stale filter delta.

use super::{CallCtx, Layer, Pending, Service};
use crate::NetError;
use irs_core::ids::RecordId;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_obs::MaybeSpan;
use irs_proxy::SharedProxy;
use std::sync::Arc;

/// Wraps a service with degraded-mode answers from `proxy`'s cache.
#[derive(Clone)]
pub struct StaleServeLayer {
    proxy: Arc<SharedProxy>,
}

impl StaleServeLayer {
    /// A layer answering failures from `proxy`'s last-good cache.
    pub fn new(proxy: Arc<SharedProxy>) -> StaleServeLayer {
        StaleServeLayer { proxy }
    }
}

impl<S: Service> Layer<S> for StaleServeLayer {
    type Out = StaleServe<S>;
    fn wrap(&self, inner: S) -> StaleServe<S> {
        StaleServe {
            inner,
            proxy: self.proxy.clone(),
        }
    }
}

/// The [`StaleServeLayer`] service.
pub struct StaleServe<S> {
    inner: S,
    proxy: Arc<SharedProxy>,
}

impl<S> StaleServe<S> {
    /// One answer for the request that asked `query_id`, if it was a
    /// `Query`: a failed one degrades to the last-good status or an
    /// honest `Unavailable`.
    fn degrade(
        &self,
        answer: Result<Response, NetError>,
        query_id: Option<RecordId>,
        now: TimeMs,
        span: &MaybeSpan,
    ) -> Result<Response, NetError> {
        match (answer, query_id) {
            (Ok(response), _) => {
                span.verdict("ok");
                Ok(response)
            }
            (Err(e), None) => {
                span.verdict("err");
                Err(e)
            }
            (Err(_), Some(id)) => Ok(match self.proxy.lookup_stale(id, now) {
                Some((status, age_ms)) => {
                    span.verdict("stale");
                    Response::StatusStale { id, status, age_ms }
                }
                None => {
                    span.verdict("unavailable");
                    let breaker = self.proxy.breaker(id.ledger);
                    Response::Unavailable {
                        id,
                        age_ms: breaker.staleness_ms(now).unwrap_or(u64::MAX),
                    }
                }
            }),
        }
    }
}

fn query_id(req: &Request) -> Option<RecordId> {
    match req {
        Request::Query { id } => Some(*id),
        _ => None,
    }
}

impl<S: Service> Service for StaleServe<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("stale");
        let query_id = query_id(&req);
        self.degrade(self.inner.call(req, ctx), query_id, ctx.now, &span)
    }

    /// Forwards the group whole and degrades item by item when it is
    /// waited.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("stale");
        let query_ids: Vec<Option<RecordId>> = reqs.iter().map(query_id).collect();
        let now = ctx.now;
        self.inner.start_all(reqs, ctx).then(move |answers| {
            let degrade = |(answer, id)| self.degrade(answer, id, now, &span);
            answers.into_iter().zip(query_ids).map(degrade).collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::claim::RevocationStatus;
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::time::TimeMs;
    use irs_proxy::ProxyConfig;

    fn down() -> impl Service {
        service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            Err(NetError::ConnectionLost)
        })
    }

    #[test]
    fn cached_answer_served_stale_with_age() {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig {
            cache_capacity: 16,
            cache_ttl_ms: 1,
        }));
        let id = RecordId::new(LedgerId(1), 5);
        proxy.complete(id, RevocationStatus::Revoked, TimeMs(100));
        let svc = down().layered(StaleServeLayer::new(proxy.clone()));
        // Well past the 1 ms TTL: a plain lookup would miss, the stale
        // path still answers, honestly aged.
        let resp = svc
            .call(Request::Query { id }, &CallCtx::at(TimeMs(600)))
            .unwrap();
        assert_eq!(
            resp,
            Response::StatusStale {
                id,
                status: RevocationStatus::Revoked,
                age_ms: 500
            }
        );
        let stale = proxy.metrics().counter("irs_proxy_stale_served_total");
        assert_eq!(stale.get(), 1);
    }

    #[test]
    fn uncached_failure_is_honest_unavailable() {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let id = RecordId::new(LedgerId(1), 9);
        let svc = down().layered(StaleServeLayer::new(proxy.clone()));
        let resp = svc
            .call(Request::Query { id }, &CallCtx::at(TimeMs(50)))
            .unwrap();
        assert!(matches!(resp, Response::Unavailable { id: got, .. } if got == id));
        let unavailable = proxy.metrics().counter("irs_proxy_unavailable_total");
        assert_eq!(unavailable.get(), 1);
    }

    #[test]
    fn non_query_failures_pass_through() {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let svc = down().layered(StaleServeLayer::new(proxy));
        assert!(matches!(
            svc.call(Request::FetchSnapshot, &CallCtx::at(TimeMs(0))),
            Err(NetError::ConnectionLost)
        ));
    }

    #[test]
    fn healthy_inner_is_untouched() {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong))
            .layered(StaleServeLayer::new(proxy));
        assert_eq!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap(),
            Response::Pong
        );
    }
}
