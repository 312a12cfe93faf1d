//! Priority load shedding — answer *something* fast when the stack is
//! saturated, instead of queueing everything into timeout.
//!
//! [`Shed`] tracks how many calls are inside the wrapped subtree and
//! refuses admission by watermark: low-priority work (filter refreshes,
//! metrics scrapes) is shed once `low_watermark` calls are in flight,
//! high-priority work (validates) may briefly queue for a free slot and
//! is shed only at `max_inflight`. A call whose deadline headroom is
//! already below `min_headroom` is shed outright — burning a saturated
//! stack's capacity on a request whose caller has given up helps nobody.
//! Shed calls are answered `Response::Overloaded { retry_after_ms }`,
//! which [`RetryLayer`](super::RetryLayer) honors with backoff and
//! breakers do not count as failure.
//!
//! Metrics (with a registry): `irs_net_shed_total`,
//! `irs_net_shed_low_total`, `irs_net_shed_inflight`,
//! `irs_net_shed_queue_wait_us`.

use super::{CallCtx, Layer, Service};
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Gauge, Histogram, Registry};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Admission class of a request, in shed order: `Low` goes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Background traffic a degraded system can do without for a while:
    /// filter refreshes, metrics scrapes, replication catch-up.
    Low,
    /// The product: validate queries (and the writes that feed them).
    High,
}

/// Classify a request for admission (the DESIGN.md §14 priority table).
pub fn priority_of(req: &Request) -> Priority {
    match req {
        // Validates and proofs are why the system exists; claims and
        // revocations are rare and user-facing.
        Request::Query { .. }
        | Request::GetProof { .. }
        | Request::Claim(_)
        | Request::Revoke(_) => Priority::High,
        // Refreshes retry on their own schedule; scrapes and pings are
        // diagnostics; replication pulls re-poll. All can wait out a storm.
        // Shard-map fetches ride the same lane: a router self-healing
        // from `WrongShard` retries on its own schedule.
        Request::GetFilterTiered { .. }
        | Request::Metrics
        | Request::Ping
        | Request::WalSubscribe { .. }
        | Request::FetchSnapshot
        | Request::GetShardMap => Priority::Low,
    }
}

/// Watermark knobs for [`ShedLayer`].
#[derive(Clone, Copy, Debug)]
pub struct ShedPolicy {
    /// In-flight count at and above which `Priority::Low` is shed.
    pub low_watermark: usize,
    /// In-flight count at and above which *everything* is shed (after
    /// high-priority work has waited out `max_queue_wait`).
    pub max_inflight: usize,
    /// How long a high-priority call may wait for a slot before being
    /// shed. This bounded queue is what turns "everything times out"
    /// into "excess is refused fast".
    pub max_queue_wait: Duration,
    /// Shed any call whose deadline headroom is below this — it cannot
    /// finish in time, so don't spend a slot on it.
    pub min_headroom: Duration,
    /// Backoff hint stamped into `Response::Overloaded`.
    pub retry_after_ms: u64,
}

impl Default for ShedPolicy {
    fn default() -> ShedPolicy {
        ShedPolicy {
            low_watermark: 16,
            max_inflight: 64,
            max_queue_wait: Duration::from_millis(20),
            min_headroom: Duration::from_millis(2),
            retry_after_ms: 50,
        }
    }
}

/// Wraps a service in watermark admission control.
#[derive(Clone, Default)]
pub struct ShedLayer {
    policy: ShedPolicy,
    registry: Option<Arc<Registry>>,
}

impl ShedLayer {
    /// A layer shedding under `policy`, unmetered.
    pub fn new(policy: ShedPolicy) -> ShedLayer {
        ShedLayer {
            policy,
            registry: None,
        }
    }

    /// Meter sheds, in-flight depth, and queue waits into `registry`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> ShedLayer {
        self.registry = Some(registry);
        self
    }
}

impl<S: Service> Layer<S> for ShedLayer {
    type Out = Shed<S>;
    fn wrap(&self, inner: S) -> Shed<S> {
        let (shed, shed_low, inflight_gauge, queue_wait_us) = match &self.registry {
            Some(r) => (
                r.counter("irs_net_shed_total"),
                r.counter("irs_net_shed_low_total"),
                r.gauge("irs_net_shed_inflight"),
                r.histogram("irs_net_shed_queue_wait_us"),
            ),
            None => (
                Counter::default(),
                Counter::default(),
                Gauge::new(),
                Histogram::new(),
            ),
        };
        Shed {
            inner,
            policy: self.policy,
            inflight: Mutex::new(0),
            freed: Condvar::new(),
            shed,
            shed_low,
            inflight_gauge,
            queue_wait_us,
        }
    }
}

/// The [`ShedLayer`] service.
pub struct Shed<S> {
    inner: S,
    policy: ShedPolicy,
    inflight: Mutex<usize>,
    freed: Condvar,
    shed: Counter,
    shed_low: Counter,
    inflight_gauge: Gauge,
    queue_wait_us: Histogram,
}

impl<S> Shed<S> {
    /// Calls refused so far (all priorities).
    pub fn shed_count(&self) -> u64 {
        self.shed.get()
    }

    fn overloaded(&self, priority: Priority) -> Result<Response, NetError> {
        self.shed.inc();
        if priority == Priority::Low {
            self.shed_low.inc();
        }
        Ok(Response::Overloaded {
            retry_after_ms: self.policy.retry_after_ms,
        })
    }
}

impl<S: Service> Service for Shed<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("shed");
        let priority = priority_of(&req);

        // Deadline headroom: a call that cannot finish is shed before it
        // costs anything.
        if let Some(remaining) = ctx.remaining() {
            if remaining < self.policy.min_headroom {
                span.verdict("shed-headroom");
                return self.overloaded(priority);
            }
        }

        let entered = Instant::now();
        let mut inflight = self.inflight.lock().expect("shed state poisoned");
        let admitted = loop {
            let depth = *inflight;
            match priority {
                Priority::Low => {
                    // Low never queues: either there's headroom now or
                    // the storm can have its refresh later.
                    break depth < self.policy.low_watermark;
                }
                Priority::High => {
                    if depth < self.policy.max_inflight {
                        break true;
                    }
                    // Bounded queue: wait for a slot, but never past the
                    // queue-wait budget or the caller's deadline.
                    let waited = entered.elapsed();
                    let budget = self.policy.max_queue_wait.min(
                        ctx.remaining().map_or(self.policy.max_queue_wait, |r| {
                            r.saturating_sub(self.policy.min_headroom)
                        }),
                    );
                    if waited >= budget {
                        break false;
                    }
                    let (next, _timeout) = self
                        .freed
                        .wait_timeout(inflight, budget - waited)
                        .expect("shed state poisoned");
                    inflight = next;
                }
            }
        };
        if !admitted {
            drop(inflight);
            span.verdict("shed");
            self.queue_wait_us.record_since(entered);
            return self.overloaded(priority);
        }
        *inflight += 1;
        drop(inflight);
        self.inflight_gauge.add(1);
        self.queue_wait_us.record_since(entered);
        span.verdict("admitted");

        let result = self.inner.call(req, ctx);

        let mut inflight = self.inflight.lock().expect("shed state poisoned");
        *inflight -= 1;
        drop(inflight);
        self.inflight_gauge.sub(1);
        self.freed.notify_all();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::{LedgerId, RecordId};
    use irs_core::time::TimeMs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    fn query(i: u64) -> Request {
        Request::Query {
            id: RecordId::new(LedgerId(1), i),
        }
    }

    fn parked_upstream(hold: Duration) -> impl Service {
        service_fn(move |_req, _ctx: &CallCtx| {
            std::thread::sleep(hold);
            Ok(Response::Pong)
        })
    }

    #[test]
    fn under_watermarks_everything_is_admitted() {
        let svc = parked_upstream(Duration::ZERO).layered(ShedLayer::new(ShedPolicy::default()));
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(svc.call(query(1), &ctx).unwrap(), Response::Pong);
        assert_eq!(
            svc.call(Request::Metrics, &ctx).unwrap(),
            Response::Pong,
            "low priority flows when the stack is idle"
        );
        assert_eq!(svc.shed_count(), 0);
    }

    #[test]
    fn low_priority_sheds_before_high() {
        // 2 slots for low, 4 total. Park 2 high-priority calls inside,
        // then probe: low must be refused, high must still be admitted.
        let svc = Arc::new(
            parked_upstream(Duration::from_millis(300)).layered(ShedLayer::new(ShedPolicy {
                low_watermark: 2,
                max_inflight: 4,
                max_queue_wait: Duration::from_millis(10),
                min_headroom: Duration::ZERO,
                retry_after_ms: 25,
            })),
        );
        let gate = Arc::new(Barrier::new(3));
        let parked: Vec<_> = (0..2u64)
            .map(|i| {
                let svc = svc.clone();
                let gate = gate.clone();
                std::thread::spawn(move || {
                    gate.wait();
                    svc.call(query(i), &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        gate.wait();
        std::thread::sleep(Duration::from_millis(50)); // both are inside now
        let ctx = CallCtx::at(TimeMs(0));
        match svc.call(Request::Metrics, &ctx).unwrap() {
            Response::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 25),
            other => panic!("low priority must shed at its watermark, got {other:?}"),
        }
        assert_eq!(
            svc.call(query(9), &ctx).unwrap(),
            Response::Pong,
            "high priority rides the remaining headroom"
        );
        for t in parked {
            t.join().unwrap().unwrap();
        }
    }

    #[test]
    fn saturated_high_priority_sheds_after_bounded_wait() {
        let svc = Arc::new(
            parked_upstream(Duration::from_millis(400)).layered(ShedLayer::new(ShedPolicy {
                low_watermark: 1,
                max_inflight: 1,
                max_queue_wait: Duration::from_millis(30),
                min_headroom: Duration::ZERO,
                retry_after_ms: 40,
            })),
        );
        let inner = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.call(query(1), &CallCtx::at(TimeMs(0))))
        };
        std::thread::sleep(Duration::from_millis(50));
        let started = Instant::now();
        match svc.call(query(2), &CallCtx::at(TimeMs(0))).unwrap() {
            Response::Overloaded { retry_after_ms } => assert_eq!(retry_after_ms, 40),
            other => panic!("expected Overloaded, got {other:?}"),
        }
        let waited = started.elapsed();
        assert!(
            waited >= Duration::from_millis(25) && waited < Duration::from_millis(200),
            "the queue wait is bounded, not zero and not the upstream hold ({waited:?})"
        );
        assert_eq!(svc.shed_count(), 1);
        inner.join().unwrap().unwrap();
    }

    #[test]
    fn queued_high_priority_gets_the_freed_slot() {
        let svc = Arc::new(
            parked_upstream(Duration::from_millis(60)).layered(ShedLayer::new(ShedPolicy {
                low_watermark: 1,
                max_inflight: 1,
                max_queue_wait: Duration::from_millis(500),
                min_headroom: Duration::ZERO,
                retry_after_ms: 40,
            })),
        );
        let inner = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.call(query(1), &CallCtx::at(TimeMs(0))))
        };
        std::thread::sleep(Duration::from_millis(20));
        // The slot frees ~40 ms in; the queued call must be admitted.
        assert_eq!(
            svc.call(query(2), &CallCtx::at(TimeMs(0))).unwrap(),
            Response::Pong
        );
        assert_eq!(svc.shed_count(), 0);
        inner.join().unwrap().unwrap();
    }

    #[test]
    fn exhausted_deadline_headroom_is_shed_outright() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            Ok(Response::Pong)
        })
        .layered(ShedLayer::new(ShedPolicy {
            min_headroom: Duration::from_millis(10),
            ..ShedPolicy::default()
        }));
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() + Duration::from_millis(1));
        assert!(matches!(
            svc.call(query(1), &ctx).unwrap(),
            Response::Overloaded { .. }
        ));
        assert_eq!(calls.load(Ordering::SeqCst), 0, "inner must not run");
    }
}
