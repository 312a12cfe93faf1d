//! Single-flight miss coalescing — the revocation-storm defense.
//!
//! [`SingleFlight`] is the stampede defense, and it adds **no hold at
//! all**: the first `Query` for a record id becomes the leader and goes
//! upstream immediately; every
//! concurrent `Query` for the *same* id becomes a follower that waits on
//! its own channel until the leader, landing, hands it a copy of the
//! verdict (success or typed error, via [`NetError::replicate`]). A
//! landing wakes only its own id's followers, and distinct ids never
//! wait on each other. A group's repeats of one id (a connection's
//! pipelined burst) are concurrent misses too, and share one answer.
//!
//! Composed *inside* [`CacheLayer`](super::CacheLayer) (DESIGN.md §14),
//! only genuine cache misses reach it, so a viral photo whose cached
//! verdict was just invalidated costs one upstream call per flight
//! instead of one per viewer — the ≥10× upstream reduction E21 records.
//!
//! Metrics (when built with a registry): `irs_net_sf_leader_total`,
//! `irs_net_sf_coalesced_total`, `irs_net_sf_wait_us`.

use super::{CallCtx, Layer, Pending, Service};
use crate::NetError;
use irs_core::ids::RecordId;
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Histogram, Registry};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How long a follower waits for its leader: at most 5 s, or until its
/// caller's deadline if that comes sooner (a leader that died mid-flight
/// never answers).
const FOLLOWER_HARD_CAP: Duration = Duration::from_secs(5);

/// Wraps a service in per-record single-flight coalescing.
#[derive(Clone, Default)]
pub struct SingleFlightLayer {
    registry: Option<Arc<Registry>>,
}

impl SingleFlightLayer {
    /// A layer with no metrics.
    pub fn new() -> SingleFlightLayer {
        SingleFlightLayer::default()
    }

    /// Record leader/coalesced counters and the follower wait histogram
    /// into `registry`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> SingleFlightLayer {
        self.registry = Some(registry);
        self
    }
}

impl<S: Service> Layer<S> for SingleFlightLayer {
    type Out = SingleFlight<S>;
    fn wrap(&self, inner: S) -> SingleFlight<S> {
        let (leaders, coalesced, wait_us) = match &self.registry {
            Some(r) => (
                r.counter("irs_net_sf_leader_total"),
                r.counter("irs_net_sf_coalesced_total"),
                r.histogram("irs_net_sf_wait_us"),
            ),
            None => (Counter::default(), Counter::default(), Histogram::new()),
        };
        SingleFlight {
            inner,
            flights: Mutex::new(HashMap::new()),
            leaders,
            coalesced,
            wait_us,
        }
    }
}

/// Where a follower is handed its leader's outcome.
type Follower = SyncSender<Result<Response, NetError>>;

/// The [`SingleFlightLayer`] service.
pub struct SingleFlight<S> {
    inner: S,
    /// The ids in flight, each with the followers its leader will hand
    /// the outcome to. The leader removes the entry when it lands, so a
    /// later miss flies fresh.
    flights: Mutex<HashMap<RecordId, Vec<Follower>>>,
    leaders: Counter,
    coalesced: Counter,
    wait_us: Histogram,
}

impl<S> SingleFlight<S> {
    /// Upstream calls actually made (leaders).
    pub fn leaders(&self) -> u64 {
        self.leaders.get()
    }

    /// Calls that shared another call's flight (followers).
    pub fn coalesced(&self) -> u64 {
        self.coalesced.get()
    }
}

/// A copy of a flight's outcome for one more caller.
fn replicate(outcome: &Result<Response, NetError>) -> Result<Response, NetError> {
    match outcome {
        Ok(response) => Ok(response.clone()),
        Err(e) => Err(e.replicate()),
    }
}

impl<S: Service> Service for SingleFlight<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("singleflight");
        let Request::Query { id } = req else {
            span.verdict("passthrough");
            return self.inner.call(req, ctx);
        };

        let joined = match self
            .flights
            .lock()
            .expect("singleflight state poisoned")
            .entry(id)
        {
            Entry::Occupied(mut followers) => {
                let (tx, rx) = mpsc::sync_channel(1);
                followers.get_mut().push(tx);
                Some(rx)
            }
            Entry::Vacant(flight) => {
                flight.insert(Vec::new());
                None
            }
        };
        if let Some(outcome) = joined {
            // Follower: the id is already in flight. Wait for the leader
            // to hand over its outcome, bounded by the call deadline (a
            // wedged leader must not hold a follower past its caller's
            // patience).
            span.verdict("coalesced");
            self.coalesced.inc();
            let started = Instant::now();
            let give_up = ctx.deadline.map_or(started + FOLLOWER_HARD_CAP, |d| {
                d.min(started + FOLLOWER_HARD_CAP)
            });
            let result = outcome
                .recv_timeout(give_up.saturating_duration_since(started))
                .unwrap_or_else(|_| {
                    Err(if ctx.expired() {
                        NetError::DeadlineExceeded
                    } else {
                        NetError::Frame("single-flight leader timed out")
                    })
                });
            self.wait_us.record_since(started);
            return result;
        }

        // Leader: the flight is registered; go upstream without the lock,
        // then retire the flight and hand each follower a copy after
        // unlocking (one that gave up is gone; the send finds no one).
        span.verdict("leader");
        self.leaders.inc();
        let result = self.inner.call(Request::Query { id }, ctx);
        let followers = self
            .flights
            .lock()
            .expect("singleflight state poisoned")
            .remove(&id)
            .expect("leader owns a flight");
        for follower in followers {
            let _ = follower.send(replicate(&result));
        }
        result
    }

    /// A group's repeats of one id are concurrent misses too: the first
    /// goes through [`call`](Service::call) (a flight of its own or
    /// someone else's), and each repeat is handed a copy of its answer.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let mut first: HashMap<RecordId, Result<Response, NetError>> = HashMap::new();
        let answers = reqs.into_iter().map(|req| match req {
            Request::Query { id } => match first.get(&id) {
                Some(answer) => {
                    ctx.span("singleflight").verdict("coalesced");
                    self.coalesced.inc();
                    replicate(answer)
                }
                None => {
                    let answer = self.call(req, ctx);
                    first.insert(id, replicate(&answer));
                    answer
                }
            },
            _ => self.call(req, ctx),
        });
        Pending::Ready(answers.collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::claim::RevocationStatus;
    use irs_core::ids::LedgerId;
    use irs_core::time::TimeMs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Barrier;

    /// An upstream that parks every call on `hold`, then answers.
    fn slow_upstream(calls: Arc<AtomicU64>, hold: Duration) -> impl Service {
        service_fn(move |req, _ctx: &CallCtx| match req {
            Request::Query { id } => {
                calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(hold);
                Ok(Response::Status {
                    id,
                    status: RevocationStatus::Revoked,
                    epoch: 7,
                })
            }
            _ => panic!("single-flight must forward queries as queries"),
        })
    }

    #[test]
    fn concurrent_same_id_misses_share_one_upstream_call() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(
            slow_upstream(calls.clone(), Duration::from_millis(80))
                .layered(SingleFlightLayer::new()),
        );
        let id = RecordId::new(LedgerId(1), 5);
        let barrier = Arc::new(Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let svc = svc.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            let resp = t.join().unwrap().unwrap();
            assert!(
                matches!(resp, Response::Status { status, epoch: 7, .. }
                    if status == RevocationStatus::Revoked),
                "every waiter gets the shared verdict, got {resp:?}"
            );
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "8 concurrent misses on one id must collapse to one flight"
        );
        assert_eq!(svc.leaders(), 1);
        assert_eq!(svc.coalesced(), 7);
    }

    #[test]
    fn distinct_ids_do_not_wait_on_each_other() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(
            slow_upstream(calls.clone(), Duration::from_millis(30))
                .layered(SingleFlightLayer::new()),
        );
        let barrier = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let svc = svc.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    let id = RecordId::new(LedgerId(1), i);
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap().is_ok());
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            4,
            "distinct ids each fly their own call"
        );
        assert_eq!(svc.coalesced(), 0);
    }

    #[test]
    fn sequential_misses_fly_fresh() {
        // No concurrency: the flight must be retired after each call, so
        // the next TTL-expired miss re-validates upstream.
        let calls = Arc::new(AtomicU64::new(0));
        let svc = slow_upstream(calls.clone(), Duration::ZERO).layered(SingleFlightLayer::new());
        let id = RecordId::new(LedgerId(1), 9);
        for _ in 0..3 {
            svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                .unwrap();
        }
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn leader_error_fans_out_typed_to_every_follower() {
        let svc = Arc::new(
            service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
                std::thread::sleep(Duration::from_millis(60));
                Err(NetError::Exhausted { attempts: 3 })
            })
            .layered(SingleFlightLayer::new()),
        );
        let id = RecordId::new(LedgerId(2), 1);
        let barrier = Arc::new(Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let svc = svc.clone();
                let barrier = barrier.clone();
                std::thread::spawn(move || {
                    barrier.wait();
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            match t.join().unwrap() {
                Err(NetError::Exhausted { attempts: 3 }) => {}
                other => panic!("expected the leader's typed error, got {other:?}"),
            }
        }
    }

    #[test]
    fn follower_wait_is_bounded_by_the_call_deadline() {
        let svc = Arc::new(
            slow_upstream(Arc::new(AtomicU64::new(0)), Duration::from_millis(1_500))
                .layered(SingleFlightLayer::new()),
        );
        let id = RecordId::new(LedgerId(1), 4);
        let leader = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0))))
        };
        std::thread::sleep(Duration::from_millis(50)); // let the leader take off
        let started = Instant::now();
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() + Duration::from_millis(100));
        let result = svc.call(Request::Query { id }, &ctx);
        assert!(
            matches!(result, Err(NetError::DeadlineExceeded)),
            "expired follower must fail typed, got {result:?}"
        );
        assert!(
            started.elapsed() < Duration::from_millis(700),
            "follower must give up at its deadline"
        );
        assert!(leader.join().unwrap().is_ok());
    }

    #[test]
    fn a_group_repeating_an_id_flies_it_once() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = slow_upstream(calls.clone(), Duration::ZERO).layered(SingleFlightLayer::new());
        let (a, b) = (RecordId::new(LedgerId(1), 1), RecordId::new(LedgerId(1), 2));
        let group = [a, b, a, a].map(|id| Request::Query { id }).to_vec();
        let answered: Vec<_> = svc
            .call_all(group, &CallCtx::at(TimeMs(0)))
            .into_iter()
            .map(|answer| match answer {
                Ok(Response::Status { id, .. }) => id,
                other => panic!("expected a status, got {other:?}"),
            })
            .collect();
        assert_eq!(answered, [a, b, a, a]);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!((svc.leaders(), svc.coalesced()), (2, 2));
    }

    #[test]
    fn a_follower_that_gives_up_leaves_the_flight_to_its_leader() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(
            slow_upstream(calls.clone(), Duration::from_millis(200))
                .layered(SingleFlightLayer::new()),
        );
        let id = RecordId::new(LedgerId(1), 6);
        let leader = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0))))
        };
        std::thread::sleep(Duration::from_millis(50)); // let the leader take off
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() + Duration::from_millis(20));
        let result = svc.call(Request::Query { id }, &ctx);
        assert!(
            matches!(result, Err(NetError::DeadlineExceeded)),
            "the follower gives up typed, got {result:?}"
        );
        assert!(matches!(
            leader.join().unwrap(),
            Ok(Response::Status { epoch: 7, .. })
        ));
        // The landed flight is retired: the next miss is a fresh leader.
        svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
            .unwrap();
        assert_eq!(svc.leaders(), 2);
        assert_eq!(calls.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn non_query_requests_pass_through() {
        let svc = service_fn(|req, _ctx: &CallCtx| match req {
            Request::Ping => Ok(Response::Pong),
            _ => panic!("unexpected request"),
        })
        .layered(SingleFlightLayer::new());
        assert_eq!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap(),
            Response::Pong
        );
        assert_eq!(svc.leaders(), 0);
    }
}
