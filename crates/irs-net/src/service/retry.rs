//! Bounded retries with seeded, jittered exponential backoff.
//!
//! [`Retry`] re-runs its inner service — for a group, only the requests
//! still unanswered — until it succeeds, the attempt budget runs out, or
//! the per-call deadline (the policy's
//! `call_deadline`, tightened against anything the caller already set)
//! elapses. Backoff jitter is drawn from a seeded SplitMix64 stream, so
//! two replayed runs back off identically. Over
//! `Failover(`[`TcpTransport`](super::TcpTransport)`)` this is the first
//! rung of the degradation ladder: reconnect, bounded retries, replica
//! rotation, all inside one deadline.

use super::{Answers, CallCtx, Layer, Pending, Service};
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_filters::hash::mix64;
use irs_obs::MaybeSpan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry/backoff/deadline knobs.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Maximum attempts per call, including the first.
    pub max_attempts: u32,
    /// First backoff sleep; doubles per retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Total wall-clock budget for one call (connects, exchanges, and
    /// backoff sleeps all count against it).
    pub call_deadline: Duration,
    /// Socket timeout for each connect/exchange attempt.
    pub io_timeout: Duration,
    /// Seed for backoff jitter (determinism for tests and E16).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            call_deadline: Duration::from_secs(2),
            io_timeout: Duration::from_millis(500),
            jitter_seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// A policy tuned for fast tests: short timeouts, small backoffs.
    pub fn fast(jitter_seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 5,
            base_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(40),
            call_deadline: Duration::from_millis(800),
            io_timeout: Duration::from_millis(150),
            jitter_seed,
        }
    }
}

/// Deterministic decorrelating jitter: `base * 2^(attempt-1)` capped at
/// `max_backoff`, scaled by a factor in `[0.5, 1.0]` derived from
/// `jitter` (one SplitMix64 draw per sleep).
pub fn jittered_backoff(policy: &RetryPolicy, attempt: u32, jitter: u64) -> Duration {
    let exp = policy
        .base_backoff
        .saturating_mul(1u32 << (attempt - 1).min(16))
        .min(policy.max_backoff);
    let frac = 0.5 + 0.5 * ((jitter >> 11) as f64 / (1u64 << 53) as f64);
    exp.mul_f64(frac)
}

/// Work counters from a [`Retry`] service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetryCounters {
    /// Attempts made (first tries + retries).
    pub attempts: u64,
    /// Attempts beyond the first for some call.
    pub retries: u64,
    /// Calls that exhausted every retry.
    pub exhausted: u64,
}

struct Shared {
    attempts: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
    jitter: AtomicU64,
}

/// Wraps a service in the retry/backoff/deadline loop of a
/// [`RetryPolicy`].
#[derive(Clone, Copy, Debug)]
pub struct RetryLayer {
    policy: RetryPolicy,
}

impl RetryLayer {
    /// A layer applying `policy` to each call.
    pub fn new(policy: RetryPolicy) -> RetryLayer {
        RetryLayer { policy }
    }
}

impl<S: Service> Layer<S> for RetryLayer {
    type Out = Retry<S>;
    fn wrap(&self, inner: S) -> Retry<S> {
        Retry {
            inner,
            policy: self.policy,
            shared: Arc::new(Shared {
                attempts: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                exhausted: AtomicU64::new(0),
                jitter: AtomicU64::new(self.policy.jitter_seed),
            }),
        }
    }
}

/// The [`RetryLayer`] service.
pub struct Retry<S> {
    inner: S,
    policy: RetryPolicy,
    shared: Arc<Shared>,
}

impl<S> Retry<S> {
    /// The wrapped service.
    pub fn get_ref(&self) -> &S {
        &self.inner
    }

    /// Counters so far.
    pub fn counters(&self) -> RetryCounters {
        RetryCounters {
            attempts: self.shared.attempts.load(Ordering::Relaxed),
            retries: self.shared.retries.load(Ordering::Relaxed),
            exhausted: self.shared.exhausted.load(Ordering::Relaxed),
        }
    }

    /// Advance the jitter stream one step and return the new state.
    fn next_jitter(&self) -> u64 {
        let prev = self
            .shared
            .jitter
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| Some(mix64(s)))
            .expect("fetch_update closure never returns None");
        mix64(prev)
    }
}

impl<S: Service> Retry<S> {
    /// Count the first attempt of `len` requests and return its ctx and
    /// deadline, `min(caller's deadline, now + call_deadline)`:
    /// `with_deadline` keeps the earlier instant and the deadline is
    /// read back *from the tightened ctx* — a caller that granted less
    /// than the policy's allowance wins (§10: layers only ever shrink the
    /// budget). `None` when the caller arrived with nothing left: refuse
    /// rather than burn an attempt that cannot finish inside the budget.
    fn first_attempt(
        &self,
        len: usize,
        ctx: &CallCtx,
        span: &MaybeSpan,
    ) -> Option<(CallCtx, Instant)> {
        let ctx = ctx.with_deadline(Instant::now() + self.policy.call_deadline);
        let deadline = ctx.deadline.expect("with_deadline always sets one");
        if Instant::now() >= deadline {
            span.verdict("deadline");
            return None;
        }
        self.shared
            .attempts
            .fetch_add(len as u64, Ordering::Relaxed);
        Some((ctx, deadline))
    }

    /// Everything after the first attempt: each attempt resends only the
    /// requests still unanswered, and one backoff separates attempts.
    /// Counters count per request, as if each had been retried alone.
    fn resend(
        &self,
        reqs: Vec<Request>,
        mut answered: Vec<Result<Response, NetError>>,
        ctx: &CallCtx,
        deadline: Instant,
        span: &MaybeSpan,
    ) -> Vec<Result<Response, NetError>> {
        let mut answers = Answers::new(reqs.len());
        let mut pending: Vec<usize> = (0..reqs.len()).collect();
        let mut attempts = 1u32;
        loop {
            // A shed answer (`Response::Overloaded`) is retryable like an
            // error, but its backoff honors the server's hint: sleep at
            // least `retry_after_ms` — hammering a shedding server with
            // the normal (often shorter) backoff would feed the storm.
            let mut unanswered: Vec<(usize, Option<u64>)> = Vec::new();
            for (i, answer) in pending.drain(..).zip(answered) {
                match answer {
                    Ok(Response::Overloaded { retry_after_ms }) => {
                        unanswered.push((i, Some(retry_after_ms)))
                    }
                    Ok(response) => answers.set(i, Ok(response)),
                    Err(_) => unanswered.push((i, None)),
                }
            }
            if unanswered.is_empty() {
                span.verdict("ok");
                break;
            }
            let mut spent = attempts >= self.policy.max_attempts || Instant::now() >= deadline;
            if !spent {
                let hint = unanswered.iter().filter_map(|(_, hint)| *hint).max();
                let backoff = jittered_backoff(&self.policy, attempts, self.next_jitter())
                    .max(Duration::from_millis(hint.unwrap_or(0)));
                let remaining = deadline.saturating_duration_since(Instant::now());
                spent = remaining.is_zero();
                std::thread::sleep(backoff.min(remaining));
            }
            if spent {
                let exhausted = unanswered.len() as u64;
                self.shared
                    .exhausted
                    .fetch_add(exhausted, Ordering::Relaxed);
                span.verdict("exhausted");
                for (i, shed_hint) in unanswered {
                    let gave_up = match shed_hint {
                        // Typed, so breakers and callers see
                        // backpressure, not failure.
                        Some(retry_after_ms) => NetError::Overloaded { retry_after_ms },
                        None => NetError::Exhausted { attempts },
                    };
                    answers.set(i, Err(gave_up));
                }
                break;
            }
            pending = unanswered.into_iter().map(|(i, _)| i).collect();
            attempts += 1;
            let sent = pending.len() as u64;
            self.shared.attempts.fetch_add(sent, Ordering::Relaxed);
            self.shared.retries.fetch_add(sent, Ordering::Relaxed);
            let resend = pending.iter().map(|&i| reqs[i].clone()).collect();
            answered = self.inner.call_all(resend, ctx);
        }
        answers.finish()
    }
}

impl<S: Service> Service for Retry<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("retry");
        let (ctx, deadline) = self
            .first_attempt(1, ctx, &span)
            .ok_or(NetError::DeadlineExceeded)?;
        let first = self.inner.call(req.clone(), &ctx);
        let mut answers = self.resend(vec![req], vec![first], &ctx, deadline, &span);
        answers.pop().expect("one answer per request")
    }

    /// One loop for the whole group. Only the first attempt is started
    /// here; resends, backoffs and the verdict happen when the group is
    /// waited.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("retry");
        let Some((ctx, deadline)) = self.first_attempt(reqs.len(), ctx, &span) else {
            let refused = reqs.iter().map(|_| Err(NetError::DeadlineExceeded));
            return Pending::Ready(refused.collect());
        };
        let first = self.inner.start_all(reqs.clone(), &ctx);
        first.then(move |answered| self.resend(reqs, answered, &ctx, deadline, &span))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::time::TimeMs;

    #[test]
    fn succeeds_after_transient_failures() {
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(NetError::ConnectionLost)
            } else {
                Ok(Response::Pong)
            }
        })
        .layered(RetryLayer::new(RetryPolicy::fast(7)));
        let ctx = CallCtx::at(TimeMs(0));
        assert_eq!(svc.call(Request::Ping, &ctx).unwrap(), Response::Pong);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        let c = svc.counters();
        assert_eq!(c.attempts, 3);
        assert_eq!(c.retries, 2);
        assert_eq!(c.exhausted, 0);
    }

    #[test]
    fn exhaustion_is_typed_and_counts_attempts() {
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            Err(NetError::ConnectionLost)
        })
        .layered(RetryLayer::new(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::fast(8)
        }));
        let ctx = CallCtx::at(TimeMs(0));
        match svc.call(Request::Ping, &ctx) {
            Err(NetError::Exhausted { attempts }) => assert_eq!(attempts, 3),
            other => panic!("expected exhaustion, got {other:?}"),
        }
        assert_eq!(svc.counters().exhausted, 1);
    }

    #[test]
    fn deadline_bounds_the_whole_call() {
        let policy = RetryPolicy {
            max_attempts: 1_000,
            call_deadline: Duration::from_millis(150),
            ..RetryPolicy::fast(9)
        };
        let svc = service_fn(|_req, _ctx: &CallCtx| -> Result<Response, NetError> {
            std::thread::sleep(Duration::from_millis(10));
            Err(NetError::ConnectionLost)
        })
        .layered(RetryLayer::new(policy));
        let start = Instant::now();
        assert!(matches!(
            svc.call(Request::Ping, &CallCtx::at(TimeMs(0))),
            Err(NetError::Exhausted { .. })
        ));
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "deadline must bound the call"
        );
    }

    #[test]
    fn inner_sees_the_retry_deadline() {
        let svc = service_fn(|_req, ctx: &CallCtx| {
            assert!(
                ctx.remaining().unwrap() <= Duration::from_millis(800),
                "fast policy grants at most 800ms"
            );
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(10)));
        svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap();
    }

    #[test]
    fn outer_deadline_tighter_than_policy_wins() {
        // The caller grants 20 ms; the retry policy would grant itself
        // 800 ms. The inner service must see the caller's budget —
        // retries must never extend a deadline the caller already
        // tightened.
        let tight = Duration::from_millis(20);
        let svc = service_fn(move |_req, ctx: &CallCtx| {
            let remaining = ctx.remaining().expect("deadline must be set");
            assert!(
                remaining <= tight,
                "retry extended the caller's {tight:?} budget to {remaining:?}"
            );
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(11)));
        let ctx = CallCtx::at(TimeMs(0)).with_deadline(Instant::now() + tight);
        svc.call(Request::Ping, &ctx).unwrap();
    }

    #[test]
    fn expired_caller_deadline_fails_fast() {
        // No budget left on arrival: the loop must not burn an attempt.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            calls_in.fetch_add(1, Ordering::SeqCst);
            Ok(Response::Pong)
        })
        .layered(RetryLayer::new(RetryPolicy::fast(12)));
        let expired =
            CallCtx::at(TimeMs(0)).with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(matches!(
            svc.call(Request::Ping, &expired),
            Err(NetError::DeadlineExceeded)
        ));
        assert_eq!(calls.load(Ordering::SeqCst), 0);
        assert_eq!(svc.counters().attempts, 0);
    }

    #[test]
    fn overloaded_answers_are_retried_with_the_server_hint() {
        // Shed twice with a 30 ms hint, then answer: the call succeeds,
        // and the two backoffs each waited at least the hint.
        let calls = Arc::new(AtomicU64::new(0));
        let calls_in = calls.clone();
        let svc = service_fn(move |_req, _ctx: &CallCtx| {
            if calls_in.fetch_add(1, Ordering::SeqCst) < 2 {
                Ok(Response::Overloaded { retry_after_ms: 30 })
            } else {
                Ok(Response::Pong)
            }
        })
        .layered(RetryLayer::new(RetryPolicy::fast(13)));
        let start = Instant::now();
        let resp = svc.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap();
        assert_eq!(resp, Response::Pong);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        assert!(
            start.elapsed() >= Duration::from_millis(60),
            "each of the two backoffs must honor the 30 ms hint"
        );
    }

    #[test]
    fn persistent_shedding_surfaces_typed_overload_not_exhaustion() {
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Overloaded { retry_after_ms: 5 }))
            .layered(RetryLayer::new(RetryPolicy {
                max_attempts: 3,
                ..RetryPolicy::fast(14)
            }));
        match svc.call(Request::Ping, &CallCtx::at(TimeMs(0))) {
            Err(NetError::Overloaded { retry_after_ms: 5 }) => {}
            other => panic!("expected typed overload, got {other:?}"),
        }
        assert_eq!(svc.counters().attempts, 3);
        assert_eq!(svc.counters().exhausted, 1);
    }

    #[test]
    fn backoff_sequence_is_deterministic_and_capped() {
        let policy = RetryPolicy::fast(77);
        let draw = |_: ()| -> Vec<Duration> {
            let mut state = policy.jitter_seed;
            (1..6)
                .map(|n| {
                    state = mix64(state);
                    jittered_backoff(&policy, n, state)
                })
                .collect()
        };
        let a = draw(());
        let b = draw(());
        assert_eq!(a, b);
        assert!(a.iter().all(|d| *d <= policy.max_backoff));
        assert!(a.iter().all(|d| *d >= policy.base_backoff / 2));
    }
}
