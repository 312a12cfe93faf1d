//! The browser's remote validation path: a [`BrowserValidator`] driven
//! over a composed [`Service`] stack.
//!
//! [`BrowserValidator`] is sans-io — [`plan`](BrowserValidator::plan)
//! classifies, the embedder performs I/O, then feeds the answer back.
//! [`RemoteValidator`] is that embedder: it owns the validator plus any
//! service stack (a bare [`TcpTransport`], the full resilience ladder
//! from `irs_net::service::stacks`, or a `service_fn` mock in tests) and
//! maps each wire response — checked to be about the id that was asked —
//! onto the right completion:
//!
//! * `Status` → [`complete`](BrowserValidator::complete) (fresh, cached);
//! * `StatusStale` → [`complete_stale`](BrowserValidator::complete_stale)
//!   (honored within the staleness budget, never cached as fresh);
//! * anything else, including transport errors →
//!   [`complete_unreachable`](BrowserValidator::complete_unreachable)
//!   (the viewer policy decides).
//!
//! [`TcpTransport`]: irs_net::service::TcpTransport

use crate::validator::{BrowserValidator, ValidationPlan};
use irs_core::ids::RecordId;
use irs_core::photo::LabelReading;
use irs_core::policy::ValidationOutcome;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_net::service::CallCtx;
use irs_net::{NetError, Service};
use irs_obs::SpanRecorder;
use std::sync::Arc;

/// A [`BrowserValidator`] wired to a proxy through a service stack.
pub struct RemoteValidator<S> {
    /// The sans-io validation engine (exposed for stats and policy).
    pub validator: BrowserValidator,
    service: S,
    /// How old a stale `NotRevoked` may be before it degrades to
    /// `Unknown` (see [`BrowserValidator::complete_stale`]).
    pub max_stale_ms: u64,
}

impl<S: Service> RemoteValidator<S> {
    /// Wrap `validator` around `service`. `max_stale_ms` bounds trust in
    /// stale not-revoked answers.
    pub fn new(validator: BrowserValidator, service: S, max_stale_ms: u64) -> Self {
        RemoteValidator {
            validator,
            service,
            max_stale_ms,
        }
    }

    /// Validate one photo end to end: plan locally, query the stack if
    /// needed, and map the reply to a final outcome.
    pub fn validate(&mut self, reading: &LabelReading, now: TimeMs) -> ValidationOutcome {
        self.validate_ctx(reading, now, &CallCtx::at(now))
    }

    /// [`validate`](Self::validate) with tracing attached: every service
    /// layer the query traverses records a span into `recorder`, so one
    /// call yields the per-layer latency breakdown
    /// ([`SpanRecorder::breakdown`]). Local plans (cache hits, unlabeled
    /// photos) never reach the stack and record nothing.
    pub fn validate_traced(
        &mut self,
        reading: &LabelReading,
        now: TimeMs,
        recorder: &Arc<SpanRecorder>,
    ) -> ValidationOutcome {
        let ctx = CallCtx::at(now).with_trace(recorder.clone());
        self.validate_ctx(reading, now, &ctx)
    }

    fn validate_ctx(
        &mut self,
        reading: &LabelReading,
        now: TimeMs,
        ctx: &CallCtx,
    ) -> ValidationOutcome {
        match self.validator.plan(reading, now) {
            ValidationPlan::Local(outcome) => outcome,
            ValidationPlan::AskProxy(id) => {
                let reply = self.service.call(Request::Query { id }, ctx);
                self.complete(id, reply, now)
            }
        }
    }

    /// Validate a page's photos together, as a browser issues them
    /// (§4.3: only the slowest check can hold up render): plan all
    /// locally, send every id that needs the proxy in **one**
    /// [`Service::call_all`] — over a [`TcpTransport`] that is one
    /// pipelined `write` — and complete each exactly as
    /// [`validate`](Self::validate) would. Outcomes in page order.
    ///
    /// [`TcpTransport`]: irs_net::service::TcpTransport
    pub fn validate_page(
        &mut self,
        readings: &[LabelReading],
        now: TimeMs,
    ) -> Vec<ValidationOutcome> {
        let plan = |reading| self.validator.plan(reading, now);
        let plans: Vec<_> = readings.iter().map(plan).collect();
        let asked = plans.iter().filter_map(|plan| match plan {
            ValidationPlan::AskProxy(id) => Some(Request::Query { id: *id }),
            ValidationPlan::Local(_) => None,
        });
        let replies = self.service.call_all(asked.collect(), &CallCtx::at(now));
        let mut replies = replies.into_iter();
        let outcomes = plans.into_iter().map(|plan| match plan {
            ValidationPlan::Local(outcome) => outcome,
            ValidationPlan::AskProxy(id) => {
                let reply = replies.next().expect("one reply per asked id");
                self.complete(id, reply, now)
            }
        });
        outcomes.collect()
    }

    /// Map the stack's reply to the query for `asked` onto a completion.
    /// A reply that names another record answers nothing that was asked:
    /// it completes as unreachable and is never cached.
    fn complete(
        &mut self,
        asked: RecordId,
        reply: Result<Response, NetError>,
        now: TimeMs,
    ) -> ValidationOutcome {
        match reply {
            Ok(Response::Status { id, status, .. }) if id == asked => {
                self.validator.complete(id, status, now)
            }
            Ok(Response::StatusStale { id, status, age_ms }) if id == asked => {
                let max_stale_ms = self.max_stale_ms;
                self.validator
                    .complete_stale(id, status, age_ms, max_stale_ms)
            }
            // Unavailable, unexpected replies, or transport failure: the
            // proxy could not answer; the viewer policy decides.
            Ok(_) | Err(_) => self.validator.complete_unreachable(asked),
        }
    }

    /// The underlying service stack.
    pub fn get_ref(&self) -> &S {
        &self.service
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::claim::RevocationStatus;
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::policy::ViewerPolicy;
    use irs_net::service::{service_fn, stacks, Pending};
    use irs_net::NetError;

    fn rid(n: u64) -> RecordId {
        RecordId::new(LedgerId(1), n)
    }

    fn labeled(id: RecordId) -> LabelReading {
        LabelReading {
            metadata_id: Some(id),
            watermark_id: Some(id),
        }
    }

    fn validator() -> BrowserValidator {
        BrowserValidator::new(ViewerPolicy::default(), 64, 10_000)
    }

    #[test]
    fn fresh_answers_complete_and_cache() {
        let service = service_fn(|req, _ctx| match req {
            Request::Query { id } => Ok(Response::Status {
                id,
                status: RevocationStatus::Revoked,
                epoch: 1,
            }),
            _ => panic!("validator must only send queries"),
        });
        let mut remote = RemoteValidator::new(validator(), service, 1_000);
        assert_eq!(
            remote.validate(&labeled(rid(1)), TimeMs(0)),
            ValidationOutcome::Revoked(rid(1))
        );
        // Second look is a local cache hit: the service is not consulted.
        assert_eq!(
            remote.validate(&labeled(rid(1)), TimeMs(10)),
            ValidationOutcome::Revoked(rid(1))
        );
        assert_eq!(remote.validator.stats.proxy_queries, 1);
        assert_eq!(remote.validator.stats.local_cache, 1);
    }

    #[test]
    fn stale_answers_respect_the_staleness_budget() {
        let service = service_fn(|req, _ctx| match req {
            Request::Query { id } => Ok(Response::StatusStale {
                id,
                status: RevocationStatus::NotRevoked,
                age_ms: if id.serial == 1 { 500 } else { 5_000 },
            }),
            _ => panic!("validator must only send queries"),
        });
        let mut remote = RemoteValidator::new(validator(), service, 1_000);
        assert_eq!(
            remote.validate(&labeled(rid(1)), TimeMs(0)),
            ValidationOutcome::Valid(rid(1))
        );
        assert_eq!(
            remote.validate(&labeled(rid(2)), TimeMs(0)),
            ValidationOutcome::Unknown(rid(2))
        );
        // Stale answers are never cached as fresh: asking again re-queries.
        assert_eq!(
            remote.validate(&labeled(rid(1)), TimeMs(1)),
            ValidationOutcome::Valid(rid(1))
        );
        assert_eq!(remote.validator.stats.proxy_queries, 3);
    }

    #[test]
    fn failures_and_unavailable_fall_back_to_policy() {
        let service = service_fn(|req, _ctx| match req {
            Request::Query { id } if id.serial == 1 => Err(NetError::ConnectionLost),
            Request::Query { id } => Ok(Response::Unavailable {
                id,
                age_ms: u64::MAX,
            }),
            _ => panic!("validator must only send queries"),
        });
        let mut remote = RemoteValidator::new(validator(), service, 1_000);
        let outcome = remote.validate(&labeled(rid(1)), TimeMs(0));
        assert_eq!(outcome, ValidationOutcome::Unknown(rid(1)));
        let outcome = remote.validate(&labeled(rid(2)), TimeMs(0));
        assert_eq!(outcome, ValidationOutcome::Unknown(rid(2)));
    }

    /// A reply naming another record answers nothing that was asked:
    /// unreachable for the asked id, and the named id is not cached.
    #[test]
    fn reply_about_another_record_completes_nothing() {
        let service = service_fn(|_req, _ctx| {
            Ok(Response::Status {
                id: rid(2),
                status: RevocationStatus::NotRevoked,
                epoch: 1,
            })
        });
        let mut remote = RemoteValidator::new(validator(), service, 1_000);
        assert_eq!(
            remote.validate(&labeled(rid(1)), TimeMs(0)),
            ValidationOutcome::Unknown(rid(1))
        );
        assert_eq!(
            remote.validate_page(&[labeled(rid(1))], TimeMs(0)),
            [ValidationOutcome::Unknown(rid(1))]
        );
        assert_eq!(
            remote.validator.plan(&labeled(rid(2)), TimeMs(1)),
            ValidationPlan::AskProxy(rid(2)),
            "the mismatched status must not have been cached"
        );
    }

    /// A page goes down the stack as one group holding only the ids the
    /// browser could not settle itself, and completes like `validate`.
    #[test]
    fn a_page_is_planned_locally_and_asked_as_one_group() {
        struct Pages(std::sync::Mutex<Vec<usize>>);
        impl Service for Pages {
            fn call(&self, _req: Request, _ctx: &CallCtx) -> Result<Response, NetError> {
                panic!("a page must go down as one group")
            }
            // Like the wire: answers decided when the group is sent,
            // collected when it is waited.
            fn start_all(&self, r: Vec<Request>, _c: &CallCtx) -> Pending<'_> {
                self.0.lock().unwrap().push(r.len());
                let answer = |req| match req {
                    Request::Query { id } if id.serial == 3 => Err(NetError::ConnectionLost),
                    Request::Query { id } if id.serial == 4 => Ok(Response::StatusStale {
                        id,
                        status: RevocationStatus::NotRevoked,
                        age_ms: 5,
                    }),
                    Request::Query { id } => Ok(Response::Status {
                        id,
                        status: RevocationStatus::Revoked,
                        epoch: 1,
                    }),
                    _ => panic!("validator must only send queries"),
                };
                let answers: Vec<_> = r.into_iter().map(answer).collect();
                Pending::Later(Box::new(move || answers))
            }
        }
        let unlabeled = LabelReading {
            metadata_id: None,
            watermark_id: None,
        };
        let page = [1, 2, 3, 4].map(|n| labeled(rid(n)));
        let page = [&page[..2], &[unlabeled], &page[2..]].concat();
        let mut remote = RemoteValidator::new(validator(), Pages(Default::default()), 1_000);
        let expected = [
            ValidationOutcome::Revoked(rid(1)),
            ValidationOutcome::Revoked(rid(2)),
            ValidationOutcome::NotClaimed,
            ValidationOutcome::Unknown(rid(3)),
            ValidationOutcome::Valid(rid(4)),
        ];
        assert_eq!(remote.validate_page(&page, TimeMs(0)), expected);
        // Fresh answers were cached: the reload asks only for the failed
        // and the stale id.
        assert_eq!(remote.validate_page(&page, TimeMs(1)), expected);
        assert_eq!(*remote.get_ref().0.lock().unwrap(), [4, 2]);
    }

    #[test]
    fn traced_validate_records_stack_spans_and_local_hits_record_none() {
        let service = service_fn(|req, ctx: &CallCtx| {
            let span = ctx.span("transport");
            match req {
                Request::Query { id } => {
                    span.verdict("ok");
                    Ok(Response::Status {
                        id,
                        status: RevocationStatus::NotRevoked,
                        epoch: 1,
                    })
                }
                _ => panic!("validator must only send queries"),
            }
        });
        let mut remote = RemoteValidator::new(validator(), service, 1_000);
        let rec = irs_obs::SpanRecorder::new();
        assert_eq!(
            remote.validate_traced(&labeled(rid(9)), TimeMs(0), &rec),
            ValidationOutcome::Valid(rid(9))
        );
        let spans = rec.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].name, spans[0].verdict), ("transport", "ok"));
        // The second look resolves from the validator's local cache: the
        // stack is never consulted, so no new span appears.
        assert_eq!(
            remote.validate_traced(&labeled(rid(9)), TimeMs(10), &rec),
            ValidationOutcome::Valid(rid(9))
        );
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn validates_over_a_real_proxy_stack() {
        use irs_core::claim::{ClaimRequest, RevokeRequest};
        use irs_core::tsa::TimestampAuthority;
        use irs_crypto::{Digest, Keypair};
        use irs_filters::{BloomFilter, Publication};
        use irs_ledger::{Ledger, LedgerConfig};
        use irs_net::service::TcpTransport;
        use irs_net::{LedgerServer, RetryPolicy};
        use irs_proxy::{ProxyConfig, SharedProxy};
        use std::sync::Arc;

        // A live ledger with one revoked record, fronted by the same
        // retrying upstream stack the proxy composes.
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(0xB10),
        );
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let owner = TcpTransport::new(server.addr(), std::time::Duration::from_secs(5));
        let kp = Keypair::from_seed(&[5u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"browser-pic"));
        let Ok(Response::Claimed { id: revoked, .. }) =
            owner.call(Request::Claim(claim), &CallCtx::wall())
        else {
            panic!("claim failed");
        };
        let revoke = RevokeRequest::create(&kp, revoked, true, 0);
        assert!(matches!(
            owner.call(Request::Revoke(revoke), &CallCtx::wall()),
            Ok(Response::RevokeAck { .. })
        ));

        // The proxy's filter for ledger 1 holds the revoked id; everything else
        // misses and resolves locally through the cache layer.
        let shared = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(revoked.filter_key());
        shared
            .update_filters(|f| f.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
            .unwrap();
        let stack = stacks::retrying_upstream(
            shared.clone(),
            vec![server.addr()],
            RetryPolicy::fast(0xB10),
        );
        let mut remote = RemoteValidator::new(validator(), stack, 1_000);
        assert_eq!(
            remote.validate(&labeled(revoked), TimeMs(5)),
            ValidationOutcome::Revoked(revoked)
        );
        // A filter-miss id never leaves the proxy stack: definitely not
        // revoked, answered by the filter rung.
        assert_eq!(
            remote.validate(&labeled(rid(424_242)), TimeMs(5)),
            ValidationOutcome::Valid(rid(424_242))
        );
        assert_eq!(shared.stats().filter_negative, 1);
        assert_eq!(shared.stats().ledger_queries, 1);
        server.shutdown();
    }
}
