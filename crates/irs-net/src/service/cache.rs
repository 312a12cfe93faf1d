//! The proxy's local answer path — the record's ledger's filter, then
//! striped TTL cache — as the outermost layer of an upstream stack.
//!
//! [`Cache`] answers a `Query` without touching the layers below when
//! that filter proves the record unrevoked or the cache stripe
//! holds a live entry; only genuine misses flow inward — a group's
//! misses together. An inner answer of [`Response::Status`] *for the id
//! that was asked* is written back to the stripe on the way out
//! (populating the last-good store [`super::StaleServeLayer`] later
//! reads); an answer naming another record is a [`NetError::Frame`] and
//! bumps `irs_proxy_mismatched_answers_total`. Non-`Query` requests pass
//! straight through.

use super::{Answers, CallCtx, Layer, Pending, Service};
use crate::NetError;
use irs_core::claim::RevocationStatus;
use irs_core::ids::RecordId;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, MaybeSpan};
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
            mismatched: self
                .proxy
                .metrics()
                .counter("irs_proxy_mismatched_answers_total"),
            proxy: self.proxy.clone(),
        }
    }
}

/// The [`CacheLayer`] service.
pub struct Cache<S> {
    inner: S,
    proxy: Arc<SharedProxy>,
    /// Upstream answers about a record other than the one asked for.
    mismatched: Counter,
}

impl<S: Service> Cache<S> {
    /// The filter's or the cache's answer for `id`; `None` is a miss.
    fn answer_locally(&self, id: RecordId, ctx: &CallCtx, span: &MaybeSpan) -> Option<Response> {
        let status = match self.proxy.lookup_traced(id, ctx.now, ctx.recorder()) {
            LookupOutcome::NotRevokedByFilter => {
                span.verdict("filter-negative");
                RevocationStatus::NotRevoked
            }
            LookupOutcome::Cached(status) => {
                span.verdict("cached");
                status
            }
            LookupOutcome::NeedsLedgerQuery => return None,
        };
        // Local answers carry epoch 0: the proxy attests liveness, not
        // the ledger's status-change counter.
        let epoch = 0;
        Some(Response::Status { id, status, epoch })
    }

    /// The inner answer to a miss on `asked`, on its way out: a fresh
    /// `Status` is written back. An answer about another record — a
    /// misbehaving ledger, a desynchronised stream — is nobody's status:
    /// never cached, never relayed.
    fn settle(
        &self,
        asked: RecordId,
        result: Result<Response, NetError>,
        now: TimeMs,
        span: &MaybeSpan,
    ) -> Result<Response, NetError> {
        span.verdict_result(&result, "err");
        let response = result?;
        if response
            .query_id()
            .is_some_and(|answered| answered != asked)
        {
            self.mismatched.inc();
            span.verdict("err");
            return Err(NetError::Frame("answer names a different record"));
        }
        if let Response::Status { status, .. } = response {
            self.proxy.complete(asked, status, now);
        }
        Ok(response)
    }
}

impl<S: Service> Service for Cache<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("cache");
        let Request::Query { id } = req else {
            span.verdict("passthrough");
            return self.inner.call(req, ctx);
        };
        match self.answer_locally(id, ctx, &span) {
            Some(local) => Ok(local),
            None => self.settle(id, self.inner.call(req, ctx), ctx.now, &span),
        }
    }

    /// Looks every `Query` up first, then starts only the misses (and
    /// any non-`Query` request) as one group, and writes fresh answers
    /// back when it is waited. Built from the steps `call` is built
    /// from; a one-frame validate that the cache answers is the latency
    /// floor and should not pay for a group's vectors.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("cache");
        let mut answers = Answers::new(reqs.len());
        // What goes inward: the slot it answers and, for a miss, the id
        // that was asked.
        let (mut asked, mut forward) = (Vec::new(), Vec::new());
        for (i, req) in reqs.into_iter().enumerate() {
            let query_id = match req {
                Request::Query { id } => Some(id),
                _ => None,
            };
            match query_id.and_then(|id| self.answer_locally(id, ctx, &span)) {
                Some(local) => answers.set(i, Ok(local)),
                None => {
                    asked.push((i, query_id));
                    forward.push(req);
                }
            }
        }
        if forward.is_empty() {
            return Pending::Ready(answers.finish());
        }
        let now = ctx.now;
        self.inner.start_all(forward, ctx).then(move |results| {
            for ((i, asked), result) in asked.into_iter().zip(results) {
                answers.set(
                    i,
                    match asked {
                        Some(id) => self.settle(id, result, now, &span),
                        None => result,
                    },
                );
            }
            answers.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::time::TimeMs;
    use irs_filters::{BloomFilter, Publication};
    use irs_proxy::ProxyConfig;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A proxy whose filter contains exactly `hot`: lookups for those go
    /// upstream, everything else is answered by the filter.
    fn proxy_with_filter(hot: &[RecordId]) -> Arc<SharedProxy> {
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        hot.iter().for_each(|id| filter.insert(id.filter_key()));
        proxy
            .update_filters(|f| f.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
            .unwrap();
        proxy
    }

    #[test]
    fn filter_negative_never_reaches_inner() {
        let hot = RecordId::new(LedgerId(1), 1);
        let proxy = proxy_with_filter(&[hot]);
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
        let proxy = proxy_with_filter(&[hot]);
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
        let proxy = proxy_with_filter(&[hot]);
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

    /// A ledger (or a desynchronised stream) answering about *another*
    /// record must not plant that record's status: here the reply to
    /// every query says "1:77 is not revoked", and 1:77 is revoked.
    #[test]
    fn answer_about_another_record_is_refused_and_never_cached() {
        let rid = |n| RecordId::new(LedgerId(1), n);
        let (asked, also_asked, victim) = (rid(1), rid(2), rid(77));
        let proxy = proxy_with_filter(&[asked, also_asked, victim]);
        let liar = service_fn(move |_req, _ctx: &CallCtx| {
            Ok(Response::Status {
                id: victim,
                status: RevocationStatus::NotRevoked,
                epoch: 9,
            })
        })
        .layered(CacheLayer::new(proxy.clone()));
        let ctx = CallCtx::at(TimeMs(5));
        let query = |id| Request::Query { id };
        let single = liar.call(query(asked), &ctx);
        assert!(matches!(single, Err(NetError::Frame(_))), "{single:?}");
        // Positional correlation across a group makes the check matter
        // more: the honest slot is relayed, the others refused.
        let group = liar.call_all(vec![query(asked), query(victim), query(also_asked)], &ctx);
        assert!(matches!(group[0], Err(NetError::Frame(_))), "{group:?}");
        assert!(matches!(group[1], Ok(Response::Status { id, .. }) if id == victim));
        assert!(matches!(group[2], Err(NetError::Frame(_))), "{group:?}");
        assert_eq!(proxy.cache_len(), 1, "only the answer that was asked for");
        assert_eq!(
            proxy.lookup(asked, TimeMs(6)),
            LookupOutcome::NeedsLedgerQuery
        );
        let scrape = irs_obs::parse_exposition(&proxy.render_metrics());
        assert_eq!(scrape["irs_proxy_mismatched_answers_total"], 3.0);
    }
}
