//! Query aggregation — the §4.2 mixing window as a layer.
//!
//! [`Batched`] holds concurrent `Query` calls for a bounded window and
//! flushes them upstream as one [`Request::Batch`], so the ledger sees
//! one request from the proxy where many viewers asked — the only
//! batching implementation in the workspace (E13b sweeps the same dial
//! over a view trace in virtual time). The first caller into an
//! empty window becomes the *leader*: it waits out the window (or until
//! the batch fills), performs the one upstream call, and publishes the
//! answers; followers block on a condvar and pick their answer up.
//!
//! The layer is deliberately not part of the default proxy stacks — it
//! trades added latency (the hold window) for privacy, a knob E13
//! quantifies — but any stack can opt in by composing it above a
//! transport.

use super::{CallCtx, Layer, Service};
use crate::NetError;
use irs_core::claim::RevocationStatus;
use irs_core::ids::RecordId;
use irs_core::wire::{Request, Response};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Aggregation-window knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Flush as soon as this many queries are pending.
    pub max_batch: usize,
    /// Flush a smaller batch after this long — the revocation-latency
    /// cost of mixing.
    pub max_hold: Duration,
}

impl Default for BatchPolicy {
    fn default() -> BatchPolicy {
        BatchPolicy {
            max_batch: 64,
            max_hold: Duration::from_millis(200),
        }
    }
}

/// Wraps a service in a query-aggregation window.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchLayer {
    policy: BatchPolicy,
}

impl BatchLayer {
    /// A layer batching under `policy`.
    pub fn new(policy: BatchPolicy) -> BatchLayer {
        BatchLayer { policy }
    }
}

impl<S: Service> Layer<S> for BatchLayer {
    type Out = Batched<S>;
    fn wrap(&self, inner: S) -> Batched<S> {
        Batched {
            inner,
            policy: self.policy,
            state: Mutex::new(State {
                generation: 1,
                pending: Vec::new(),
                done: HashMap::new(),
            }),
            flushed: Condvar::new(),
            flushes: AtomicU64::new(0),
            batched: AtomicU64::new(0),
        }
    }
}

struct State {
    /// Generation currently accumulating.
    generation: u64,
    pending: Vec<RecordId>,
    /// Published generations: a window is done exactly when it has an
    /// entry here, whatever order the upstream calls return in. A
    /// failure keeps the leader's upstream error with its kind, so every
    /// waiter sees what actually failed (a breaker rejection must not
    /// come out the other side dressed as a lost connection).
    done: HashMap<u64, Result<HashMap<RecordId, RevocationStatus>, NetError>>,
}

/// The [`BatchLayer`] service. Counters: [`flushes`](Batched::flushes)
/// and [`batched`](Batched::batched).
pub struct Batched<S> {
    inner: S,
    policy: BatchPolicy,
    state: Mutex<State>,
    flushed: Condvar,
    flushes: AtomicU64,
    batched: AtomicU64,
}

impl<S> Batched<S> {
    /// Upstream batches sent.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Queries that rode a batch (duplicates included).
    pub fn batched(&self) -> u64 {
        self.batched.load(Ordering::Relaxed)
    }

    /// Read a waiter's answer out of a published generation.
    fn extract(
        outcome: &Result<HashMap<RecordId, RevocationStatus>, NetError>,
        id: RecordId,
    ) -> Result<Response, NetError> {
        let statuses = outcome.as_ref().map_err(NetError::replicate)?;
        let &status = statuses
            .get(&id)
            .ok_or(NetError::Frame("batch reply missing id"))?;
        Ok(Response::Status {
            id,
            status,
            epoch: 0,
        })
    }
}

impl<S: Service> Service for Batched<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("batch");
        let Request::Query { id } = req else {
            span.verdict("passthrough");
            return self.inner.call(req, ctx);
        };
        let mut state = self.state.lock().expect("batch state poisoned");
        let leader = state.pending.is_empty();
        let generation = state.generation;
        state.pending.push(id);
        // Wake the leader in case this push filled the batch.
        self.flushed.notify_all();

        if leader {
            span.verdict("leader");
            // Hold the window open until it fills or times out.
            let window_end = Instant::now() + self.policy.max_hold;
            while state.pending.len() < self.policy.max_batch {
                let remaining = window_end.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (next, _timeout) = self
                    .flushed
                    .wait_timeout(state, remaining)
                    .expect("batch state poisoned");
                state = next;
            }
            // Take the window and advance the generation before the
            // upstream call, so new arrivals start the next batch.
            let taken = std::mem::take(&mut state.pending);
            state.generation += 1;
            drop(state);

            // One upstream exchange for the whole window, duplicates
            // collapsed (the reply is keyed by id anyway).
            let mut unique: Vec<RecordId> = Vec::with_capacity(taken.len());
            for id in &taken {
                if !unique.contains(id) {
                    unique.push(*id);
                }
            }
            self.flushes.fetch_add(1, Ordering::Relaxed);
            self.batched
                .fetch_add(taken.len() as u64, Ordering::Relaxed);
            let result = self.inner.call(Request::Batch(unique), ctx);

            let outcome = match result {
                Ok(Response::BatchStatus(items)) => Ok(items.into_iter().collect()),
                // An error fails the whole window *typed*: every waiter
                // gets a replica of the actual upstream error, never a
                // silent empty verdict or a flattened ConnectionLost.
                Err(error) => Err(error),
                // An unexpected reply shape is a protocol bug; say so.
                Ok(_) => Err(NetError::Frame("batch reply had unexpected shape")),
            };
            let answer = Self::extract(&outcome, id);
            let mut state = self.state.lock().expect("batch state poisoned");
            // Drop generations every waiter has had ample time to read.
            state.done.retain(|g, _| g + 2 > generation);
            state.done.insert(generation, outcome);
            self.flushed.notify_all();
            return answer;
        }

        span.verdict("follower");
        // Follower: wait for the leader to publish this generation —
        // bounded by the *call deadline*, not just the hard cap. A slow
        // or wedged leader must not hold a follower past the moment its
        // own caller has given up (the old unbounded wait is exactly how
        // a lost notify or a stalled upstream wedged coalesced callers).
        // The hard cap still guards deadline-less contexts against a
        // leader that died mid-flush.
        let hard_cap = Instant::now() + self.policy.max_hold + Duration::from_secs(5);
        let give_up = ctx.deadline.map_or(hard_cap, |d| d.min(hard_cap));
        while !state.done.contains_key(&generation) {
            let now = Instant::now();
            if now >= give_up {
                return Err(if ctx.expired() {
                    NetError::DeadlineExceeded
                } else {
                    NetError::Frame("batch flush timed out")
                });
            }
            // Sleep no longer than the budget allows (and re-check every
            // 50 ms so a published generation is picked up promptly even
            // if this waiter misses a notify).
            let wait = (give_up - now).min(Duration::from_millis(50));
            let (next, _timeout) = self
                .flushed
                .wait_timeout(state, wait)
                .expect("batch state poisoned");
            state = next;
        }
        Self::extract(&state.done[&generation], id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::LedgerId;
    use irs_core::time::TimeMs;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Every id of a batch answered `status`.
    fn answer(ids: Vec<RecordId>, status: RevocationStatus) -> Result<Response, NetError> {
        Ok(Response::BatchStatus(
            ids.into_iter().map(|id| (id, status)).collect(),
        ))
    }

    /// An upstream answering batches and counting how many it saw.
    fn batch_upstream(calls: Arc<AtomicU64>) -> impl Service {
        service_fn(move |req, _ctx: &CallCtx| match req {
            Request::Batch(ids) => {
                calls.fetch_add(1, Ordering::SeqCst);
                answer(ids, RevocationStatus::Revoked)
            }
            _ => panic!("batched layer must only send Batch upstream"),
        })
    }

    #[test]
    fn concurrent_queries_share_one_flush() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(
            batch_upstream(calls.clone()).layered(BatchLayer::new(BatchPolicy {
                max_batch: 8,
                max_hold: Duration::from_millis(300),
            })),
        );
        let threads: Vec<_> = (0..8u64)
            .map(|i| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let id = RecordId::new(LedgerId(1), i);
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            let resp = t.join().unwrap().unwrap();
            assert!(matches!(
                resp,
                Response::Status {
                    status: RevocationStatus::Revoked,
                    ..
                }
            ));
        }
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "8 concurrent queries must ride one upstream batch"
        );
    }

    #[test]
    fn lone_query_flushes_after_the_hold_window() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = batch_upstream(calls.clone()).layered(BatchLayer::new(BatchPolicy {
            max_batch: 64,
            max_hold: Duration::from_millis(30),
        }));
        let start = Instant::now();
        let id = RecordId::new(LedgerId(1), 1);
        let resp = svc
            .call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
            .unwrap();
        assert!(matches!(resp, Response::Status { .. }));
        assert!(
            start.elapsed() >= Duration::from_millis(30),
            "the mixing window is a real hold"
        );
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn duplicate_ids_collapse_upstream_but_both_answer() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen_in = seen.clone();
        let svc = Arc::new(
            service_fn(move |req, _ctx: &CallCtx| match req {
                Request::Batch(ids) => {
                    seen_in.lock().unwrap().push(ids.clone());
                    answer(ids, RevocationStatus::NotRevoked)
                }
                _ => panic!("unexpected request"),
            })
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 2,
                max_hold: Duration::from_millis(300),
            })),
        );
        let id = RecordId::new(LedgerId(1), 9);
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let svc = svc.clone();
                std::thread::spawn(move || svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0))))
            })
            .collect();
        for t in threads {
            assert!(t.join().unwrap().is_ok());
        }
        let batches = seen.lock().unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0], vec![id], "duplicates collapse to one entry");
    }

    #[test]
    fn upstream_failure_reaches_every_waiter() {
        let svc = Arc::new(
            service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
                Err(NetError::ConnectionLost)
            })
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 4,
                max_hold: Duration::from_millis(200),
            })),
        );
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let id = RecordId::new(LedgerId(1), i);
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            assert!(matches!(t.join().unwrap(), Err(NetError::ConnectionLost)));
        }
    }

    /// Regression: the leader's upstream error reaches every waiter with
    /// its *kind* intact. Chaos-backed: a full-fault-rate in-process
    /// chaos layer corrupts the flush, and all four coalesced callers
    /// must see the wire error it maps to — not a flattened
    /// `ConnectionLost`, and never a silent empty verdict.
    #[test]
    fn chaos_failure_kind_reaches_every_waiter_typed() {
        use crate::chaos::{ChaosConfig, FaultMode};
        use crate::service::ChaosLayer;
        let seed = std::env::var("CHAOS_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7);
        let config = ChaosConfig {
            delay: Duration::from_millis(1),
            ..ChaosConfig::new(seed, 1.0)
        }
        .with_modes(&[FaultMode::CorruptResponse]);
        let svc = Arc::new(
            service_fn(|req, _ctx: &CallCtx| match req {
                Request::Batch(ids) => answer(ids, RevocationStatus::NotRevoked),
                _ => panic!("unexpected request"),
            })
            .layered(ChaosLayer::new(config))
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 4,
                max_hold: Duration::from_millis(200),
            })),
        );
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let id = RecordId::new(LedgerId(1), i);
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            match t.join().unwrap() {
                Err(NetError::Wire(_)) => {}
                other => panic!("every waiter must see the typed wire error, got {other:?}"),
            }
        }
    }

    /// A breaker rejection keeps its identity through the window too —
    /// followers must be able to tell "upstream is gated" from "the
    /// connection died".
    #[test]
    fn breaker_rejection_is_not_flattened_to_connection_lost() {
        let svc = Arc::new(
            service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
                Err(NetError::BreakerOpen)
            })
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 2,
                max_hold: Duration::from_millis(200),
            })),
        );
        let threads: Vec<_> = (0..2u64)
            .map(|i| {
                let svc = svc.clone();
                std::thread::spawn(move || {
                    let id = RecordId::new(LedgerId(1), i);
                    svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
                })
            })
            .collect();
        for t in threads {
            assert!(matches!(t.join().unwrap(), Err(NetError::BreakerOpen)));
        }
    }

    /// Regression: a follower's wait is bounded by its own call
    /// deadline. With a leader wedged in a slow upstream flush, a
    /// follower whose deadline expires must return `DeadlineExceeded`
    /// promptly instead of waiting out the multi-second hard cap.
    #[test]
    fn follower_wait_is_bounded_by_the_call_deadline() {
        let svc = Arc::new(
            service_fn(|req, _ctx: &CallCtx| match req {
                Request::Batch(ids) => {
                    // The leader stalls here, holding the generation
                    // unpublished well past the follower's deadline.
                    std::thread::sleep(Duration::from_millis(1_500));
                    answer(ids, RevocationStatus::Revoked)
                }
                _ => panic!("unexpected request"),
            })
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 64,
                max_hold: Duration::from_millis(50),
            })),
        );

        // Leader: no deadline; rides out the slow flush.
        let leader = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let id = RecordId::new(LedgerId(1), 1);
                svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0)))
            })
        };
        // Let the leader claim the window before the follower joins it.
        std::thread::sleep(Duration::from_millis(10));

        let follower_started = Instant::now();
        let follower = {
            let svc = svc.clone();
            std::thread::spawn(move || {
                let id = RecordId::new(LedgerId(1), 2);
                let ctx = CallCtx::at(TimeMs(0))
                    .with_deadline(Instant::now() + Duration::from_millis(150));
                svc.call(Request::Query { id }, &ctx)
            })
        };
        let follower_result = follower.join().unwrap();
        let follower_waited = follower_started.elapsed();
        assert!(
            matches!(follower_result, Err(NetError::DeadlineExceeded)),
            "expired follower must see DeadlineExceeded, got {follower_result:?}"
        );
        assert!(
            follower_waited < Duration::from_millis(700),
            "follower must give up at its deadline, not the hard cap (waited {follower_waited:?})"
        );
        // The leader still completes its flush normally.
        assert!(matches!(
            leader.join().unwrap(),
            Ok(Response::Status { .. })
        ));
    }

    /// Regression: a window is done when *its* flush returns, not when
    /// any later one does. Window 1's upstream call is slow, window 2's
    /// fast; window 1's follower used to wake on window 2's completion,
    /// find no answer under its own generation and fail with "batch
    /// reply missing id".
    #[test]
    fn generations_may_complete_out_of_order() {
        let calls = Arc::new(AtomicU64::new(0));
        let svc = Arc::new(
            service_fn(move |req, _ctx: &CallCtx| match req {
                Request::Batch(ids) => {
                    if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                        std::thread::sleep(Duration::from_millis(400));
                    }
                    answer(ids, RevocationStatus::Revoked)
                }
                _ => panic!("unexpected request"),
            })
            .layered(BatchLayer::new(BatchPolicy {
                max_batch: 2,
                max_hold: Duration::from_millis(50),
            })),
        );
        // Two full windows, the second opened while the first is still
        // upstream.
        let threads: Vec<_> = (0..4u64)
            .map(|i| {
                let svc = svc.clone();
                let t = std::thread::spawn(move || {
                    let id = RecordId::new(LedgerId(1), i);
                    (id, svc.call(Request::Query { id }, &CallCtx::at(TimeMs(0))))
                });
                std::thread::sleep(Duration::from_millis(if i == 1 { 100 } else { 10 }));
                t
            })
            .collect();
        for t in threads {
            let (asked, resp) = t.join().unwrap();
            assert!(
                matches!(resp, Ok(Response::Status { id, .. }) if id == asked),
                "{asked:?}: {resp:?}"
            );
        }
        assert_eq!(svc.flushes(), 2);
    }

    #[test]
    fn non_query_requests_bypass_the_window() {
        let svc = service_fn(|req, _ctx: &CallCtx| match req {
            Request::Ping => Ok(Response::Pong),
            _ => panic!("unexpected request"),
        })
        .layered(BatchLayer::default());
        let start = Instant::now();
        assert_eq!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap(),
            Response::Pong
        );
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "pass-through must not pay the hold window"
        );
    }
}
