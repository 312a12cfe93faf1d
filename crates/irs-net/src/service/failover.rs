//! Replica rotation.
//!
//! [`Failover`] holds one inner service per replica and a shared cursor.
//! Each call (or group) goes to the cursor's replica; a failure rotates
//! the cursor so the *next* attempt (usually driven by [`super::RetryLayer`] above)
//! lands on the next replica in line. The failure itself still surfaces
//! — retrying is the retry layer's job, not this one's.

use super::{CallCtx, Pending, Service};
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_obs::MaybeSpan;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One rotating service over a `Vec` of per-replica services.
pub struct Failover<S> {
    replicas: Vec<S>,
    cursor: AtomicUsize,
    failovers: AtomicU64,
}

impl<S> Failover<S> {
    /// A rotating service over `replicas` (at least one).
    pub fn new(replicas: Vec<S>) -> Failover<S> {
        assert!(!replicas.is_empty(), "need at least one replica");
        Failover {
            replicas,
            cursor: AtomicUsize::new(0),
            failovers: AtomicU64::new(0),
        }
    }

    /// Index of the replica the next call will use.
    pub fn current_index(&self) -> usize {
        self.cursor.load(Ordering::Relaxed) % self.replicas.len()
    }

    /// Rotations performed after failed calls.
    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    /// The end of an attempt on replica `index`: a failure rotates the
    /// cursor once.
    fn settle(&self, index: usize, all_ok: bool, span: &MaybeSpan) {
        let len = self.replicas.len();
        if all_ok {
            span.verdict("ok");
            return;
        }
        span.verdict(if len > 1 { "rotated" } else { "err" });
        if len > 1 {
            // Racing failures both try to advance from `index`;
            // only one rotation happens per observed position.
            let _ = self.cursor.compare_exchange(
                index,
                (index + 1) % len,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            self.failovers.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl<S: Service> Service for Failover<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("failover");
        let index = self.current_index();
        let answer = self.replicas[index].call(req, ctx);
        self.settle(index, answer.is_ok(), &span);
        answer
    }

    /// The whole group goes to the cursor's replica; any failure in it
    /// is one failed attempt — one rotation, however many items failed.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("failover");
        let index = self.current_index();
        let started = self.replicas[index].start_all(reqs, ctx);
        started.then(move |answers| {
            self.settle(index, answers.iter().all(Result::is_ok), &span);
            answers
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, CallCtx, ServiceExt};
    use irs_core::time::TimeMs;

    fn flaky(ok: bool) -> impl Service {
        service_fn(move |_req, _ctx: &CallCtx| {
            if ok {
                Ok(Response::Pong)
            } else {
                Err(NetError::ConnectionLost)
            }
        })
    }

    #[test]
    fn rotates_past_a_dead_replica() {
        let svc = Failover::new(vec![flaky(false).boxed(), flaky(true).boxed()]);
        let ctx = CallCtx::at(TimeMs(0));
        // First call hits the dead replica and fails (the retry layer
        // above would re-drive it); the rotation means the second lands.
        assert!(svc.call(Request::Ping, &ctx).is_err());
        assert_eq!(svc.current_index(), 1);
        assert_eq!(svc.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert_eq!(svc.failovers(), 1);
    }

    #[test]
    fn single_replica_never_rotates() {
        let svc = Failover::new(vec![flaky(false)]);
        let ctx = CallCtx::at(TimeMs(0));
        assert!(svc.call(Request::Ping, &ctx).is_err());
        assert!(svc.call(Request::Ping, &ctx).is_err());
        assert_eq!(svc.failovers(), 0, "nothing to rotate to");
        assert_eq!(svc.current_index(), 0);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_replica_set_panics() {
        let _ = Failover::<
            crate::service::ServiceFn<fn(Request, &CallCtx) -> Result<Response, NetError>>,
        >::new(vec![]);
    }
}
