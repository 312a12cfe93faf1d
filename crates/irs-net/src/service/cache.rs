//! The proxy's local answer path — merged filter, then striped TTL
//! cache — as the outermost layer of an upstream stack.
//!
//! [`Cache`] answers a `Query` without touching the layers below when
//! the merged filter proves the record unrevoked or the cache stripe
//! holds a live entry; only genuine misses flow inward. An inner answer
//! of [`Response::Status`] is written back to the stripe on the way out
//! (populating the last-good store [`super::StaleServeLayer`] later
//! reads). Non-`Query` requests pass straight through.

use super::{CallCtx, Layer, Service};
use crate::NetError;
use irs_core::claim::RevocationStatus;
use irs_core::wire::{Request, Response};
use irs_proxy::{LookupOutcome, SharedProxy};
use std::sync::Arc;

/// Wraps a service behind `proxy`'s filter + cache front.
#[derive(Clone)]
pub struct CacheLayer {
    proxy: Arc<SharedProxy>,
}

impl CacheLayer {
    /// A layer answering locally from `proxy` when it can.
    pub fn new(proxy: Arc<SharedProxy>) -> CacheLayer {
        CacheLayer { proxy }
    }
}

impl<S: Service> Layer<S> for CacheLayer {
    type Out = Cache<S>;
    fn wrap(&self, inner: S) -> Cache<S> {
        Cache {
            inner,
            proxy: self.proxy.clone(),
        }
    }
}

/// The [`CacheLayer`] service.
pub struct Cache<S> {
    inner: S,
    proxy: Arc<SharedProxy>,
}

impl<S: Service> Service for Cache<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("cache");
        let Request::Query { id } = req else {
            span.verdict("passthrough");
            return self.inner.call(req, ctx);
        };
        match self.proxy.lookup_traced(id, ctx.now, ctx.recorder()) {
            // Local answers carry epoch 0: the proxy attests liveness,
            // not the ledger's status-change counter.
            LookupOutcome::NotRevokedByFilter => {
                span.verdict("filter-negative");
                Ok(Response::Status {
                    id,
                    status: RevocationStatus::NotRevoked,
                    epoch: 0,
                })
            }
            LookupOutcome::Cached(status) => {
                span.verdict("cached");
                Ok(Response::Status {
                    id,
                    status,
                    epoch: 0,
                })
            }
            LookupOutcome::NeedsLedgerQuery => {
                let result = self.inner.call(Request::Query { id }, ctx);
                if let Ok(Response::Status { id, status, .. }) = &result {
                    self.proxy.complete(*id, *status, ctx.now);
                }
                span.verdict_result(&result, "err");
                result
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::time::TimeMs;
    use irs_filters::BloomFilter;
    use irs_proxy::{FilterUpdate, ProxyConfig};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A proxy whose filter contains exactly `hot`: lookups for it go
    /// upstream, everything else is answered by the filter.
    fn proxy_with_filter(hot: RecordId) -> Arc<SharedProxy> {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(hot.filter_key());
        proxy
            .update_filters(|f| f.apply(LedgerId(1), FilterUpdate::full(1, filter.to_bytes())))
            .unwrap();
        proxy
    }

    #[test]
    fn filter_negative_never_reaches_inner() {
        let hot = RecordId::new(LedgerId(1), 1);
        let proxy = proxy_with_filter(hot);
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            panic!("filter-negative lookups must stay local")
        })
        .layered(CacheLayer::new(proxy));
        let cold = RecordId::new(LedgerId(1), 999_999);
        let resp = svc
            .call(Request::Query { id: cold }, &CallCtx::at(TimeMs(0)))
            .unwrap();
        assert_eq!(
            resp,
            Response::Status {
                id: cold,
                status: RevocationStatus::NotRevoked,
                epoch: 0
            }
        );
    }

    #[test]
    fn miss_goes_upstream_then_serves_cached() {
        let hot = RecordId::new(LedgerId(1), 1);
        let proxy = proxy_with_filter(hot);
        let upstream_calls = Arc::new(AtomicU64::new(0));
        let calls_in = upstream_calls.clone();
        let svc = service_fn(move |req, _ctx: &CallCtx| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            let Request::Query { id } = req else {
                panic!("unexpected request")
            };
            Ok(Response::Status {
                id,
                status: RevocationStatus::Revoked,
                epoch: 4,
            })
        })
        .layered(CacheLayer::new(proxy.clone()));
        let ctx = CallCtx::at(TimeMs(5));
        // First query: filter hit, cache miss → upstream (epoch intact).
        let resp = svc.call(Request::Query { id: hot }, &ctx).unwrap();
        assert_eq!(
            resp,
            Response::Status {
                id: hot,
                status: RevocationStatus::Revoked,
                epoch: 4
            }
        );
        // Second query: the completed entry answers locally.
        let resp = svc.call(Request::Query { id: hot }, &ctx).unwrap();
        assert_eq!(
            resp,
            Response::Status {
                id: hot,
                status: RevocationStatus::Revoked,
                epoch: 0
            }
        );
        assert_eq!(upstream_calls.load(Ordering::SeqCst), 1);
        assert_eq!(proxy.stats().cache_hits, 1);
        assert_eq!(proxy.stats().ledger_queries, 1);
    }

    #[test]
    fn stale_answers_are_not_written_back() {
        let hot = RecordId::new(LedgerId(1), 1);
        let proxy = proxy_with_filter(hot);
        let svc = service_fn(move |req, _ctx: &CallCtx| {
            let Request::Query { id } = req else {
                panic!("unexpected request")
            };
            Ok(Response::StatusStale {
                id,
                status: RevocationStatus::Revoked,
                age_ms: 7,
            })
        })
        .layered(CacheLayer::new(proxy.clone()));
        let resp = svc
            .call(Request::Query { id: hot }, &CallCtx::at(TimeMs(5)))
            .unwrap();
        assert!(matches!(resp, Response::StatusStale { .. }));
        assert_eq!(proxy.cache_len(), 0, "a stale answer must not look fresh");
    }

    #[test]
    fn non_query_requests_pass_through() {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let svc =
            service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong)).layered(CacheLayer::new(proxy));
        assert_eq!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap(),
            Response::Pong
        );
    }
}
