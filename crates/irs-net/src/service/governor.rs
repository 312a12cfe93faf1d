//! Per-client fair admission — token buckets with a shared spillover
//! pool, as a layer.
//!
//! A revocation storm is rarely uniform: a scraper or a single broken
//! integrator can account for most of the herd. [`Governor`] meters
//! high-priority requests (see [`priority_of`]) per client id (the
//! reactor stamps the connection id into [`CallCtx::client`]): each
//! client refills its own bucket at `rate_per_sec`, and when a bucket
//! runs dry the call may draw from one *shared* spillover pool — so a
//! burst from one client is tolerated while capacity is idle, but under
//! contention every client converges to its fair share and the abuser
//! is the one answered `Response::Overloaded`.
//!
//! Time is the caller's logical `ctx.now`, so the refill math is exact
//! and replayable in tests (the proptests in this module rely on it).
//!
//! Metrics (with a registry): `irs_net_governor_admitted_total`,
//! `irs_net_governor_shed_total`, `irs_net_governor_spill_total`.

use super::shed::priority_of;
use super::{CallCtx, Layer, Priority, Service};
use crate::NetError;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Bucket key for calls with no client identity (in-process callers).
const ANONYMOUS: u64 = u64::MAX;

/// Keep at most this many per-client buckets; beyond it, the oldest
/// untouched buckets are pruned (a full bucket and a fresh bucket admit
/// identically, so pruning is behavior-neutral for idle clients).
const MAX_BUCKETS: usize = 65_536;

/// Refill knobs for [`GovernorLayer`].
#[derive(Clone, Copy, Debug)]
pub struct GovernorPolicy {
    /// Sustained per-client admission rate, tokens (requests) per second.
    pub rate_per_sec: f64,
    /// Per-client bucket capacity — the burst one client may spend.
    pub burst: f64,
    /// Shared spillover refill rate, tokens per second across *all*
    /// clients. Zero disables the pool.
    pub spill_rate_per_sec: f64,
    /// Spillover pool capacity.
    pub spill_burst: f64,
    /// Backoff hint stamped into `Response::Overloaded`.
    pub retry_after_ms: u64,
}

impl Default for GovernorPolicy {
    fn default() -> GovernorPolicy {
        GovernorPolicy {
            rate_per_sec: 100.0,
            burst: 50.0,
            spill_rate_per_sec: 100.0,
            spill_burst: 100.0,
            retry_after_ms: 100,
        }
    }
}

#[derive(Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: TimeMs,
}

impl Bucket {
    fn full(cap: f64, now: TimeMs) -> Bucket {
        Bucket {
            tokens: cap,
            last: now,
        }
    }

    /// Advance to `now`, refilling at `rate` tokens/sec up to `cap`.
    fn refill(&mut self, rate: f64, cap: f64, now: TimeMs) {
        let dt_ms = now.0.saturating_sub(self.last.0);
        if dt_ms > 0 {
            self.tokens = (self.tokens + rate * dt_ms as f64 / 1_000.0).min(cap);
            self.last = now;
        }
    }

    fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The admission engine behind [`Governor`] — usable (and property-
/// tested) on its own, without a service stack around it.
pub struct TokenGovernor {
    policy: GovernorPolicy,
    state: Mutex<GovernorState>,
}

struct GovernorState {
    buckets: HashMap<u64, Bucket>,
    spill: Bucket,
}

/// What [`TokenGovernor::admit`] decided.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Admitted from the client's own bucket.
    Own,
    /// Admitted from the shared spillover pool.
    Spill,
    /// Refused; retry after the carried hint (milliseconds).
    Refused {
        /// Milliseconds until the client's bucket holds a whole token.
        retry_after_ms: u64,
    },
}

impl TokenGovernor {
    /// A governor admitting under `policy`.
    pub fn new(policy: GovernorPolicy) -> TokenGovernor {
        TokenGovernor {
            policy,
            state: Mutex::new(GovernorState {
                buckets: HashMap::new(),
                spill: Bucket {
                    tokens: policy.spill_burst,
                    last: TimeMs(0),
                },
            }),
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> &GovernorPolicy {
        &self.policy
    }

    /// Decide one request from `client` at logical time `now`.
    pub fn admit(&self, client: u64, now: TimeMs) -> Admission {
        let p = &self.policy;
        let mut guard = self.state.lock().expect("governor state poisoned");
        let state = &mut *guard;
        if state.buckets.len() >= MAX_BUCKETS && !state.buckets.contains_key(&client) {
            // Prune the least recently touched half rather than growing
            // without bound — one storm of spoofed client ids must not
            // become a memory leak.
            let mut lasts: Vec<u64> = state.buckets.values().map(|b| b.last.0).collect();
            lasts.sort_unstable();
            let cutoff = lasts[lasts.len() / 2];
            state.buckets.retain(|_, b| b.last.0 > cutoff);
        }
        let bucket = state
            .buckets
            .entry(client)
            .or_insert_with(|| Bucket::full(p.burst, now));
        bucket.refill(p.rate_per_sec, p.burst, now);
        if bucket.try_take() {
            return Admission::Own;
        }
        let deficit = 1.0 - bucket.tokens;
        state.spill.refill(p.spill_rate_per_sec, p.spill_burst, now);
        if state.spill.try_take() {
            return Admission::Spill;
        }
        // Neither bucket has a token: tell the client when its *own*
        // bucket will — the spill pool is contended and not promisable.
        let retry_after_ms = if p.rate_per_sec > 0.0 {
            (deficit * 1_000.0 / p.rate_per_sec).ceil() as u64
        } else {
            p.retry_after_ms
        };
        Admission::Refused {
            retry_after_ms: retry_after_ms.clamp(1, 60_000),
        }
    }
}

/// Wraps a service in per-client fair admission.
#[derive(Clone)]
pub struct GovernorLayer {
    policy: GovernorPolicy,
    registry: Option<Arc<Registry>>,
}

impl GovernorLayer {
    /// A layer governing under `policy`, unmetered.
    pub fn new(policy: GovernorPolicy) -> GovernorLayer {
        GovernorLayer {
            policy,
            registry: None,
        }
    }

    /// Meter admissions, sheds, and spill draws into `registry`.
    pub fn with_registry(mut self, registry: Arc<Registry>) -> GovernorLayer {
        self.registry = Some(registry);
        self
    }
}

impl<S: Service> Layer<S> for GovernorLayer {
    type Out = Governor<S>;
    fn wrap(&self, inner: S) -> Governor<S> {
        let (admitted, shed, spilled) = match &self.registry {
            Some(r) => (
                r.counter("irs_net_governor_admitted_total"),
                r.counter("irs_net_governor_shed_total"),
                r.counter("irs_net_governor_spill_total"),
            ),
            None => (Counter::default(), Counter::default(), Counter::default()),
        };
        Governor {
            inner,
            governor: TokenGovernor::new(self.policy),
            admitted,
            shed,
            spilled,
        }
    }
}

/// The [`GovernorLayer`] service.
pub struct Governor<S> {
    inner: S,
    governor: TokenGovernor,
    admitted: Counter,
    shed: Counter,
    spilled: Counter,
}

impl<S> Governor<S> {
    /// Calls refused so far.
    pub fn shed_count(&self) -> u64 {
        self.shed.get()
    }
}

impl<S: Service> Service for Governor<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("governor");
        // Only the product traffic is metered per client; background
        // classes are admission-controlled by the shed watermarks.
        if priority_of(&req) == Priority::Low {
            span.verdict("unmetered");
            return self.inner.call(req, ctx);
        }
        let client = ctx.client.unwrap_or(ANONYMOUS);
        match self.governor.admit(client, ctx.now) {
            Admission::Own => {
                span.verdict("admitted");
                self.admitted.inc();
                self.inner.call(req, ctx)
            }
            Admission::Spill => {
                span.verdict("spill");
                self.admitted.inc();
                self.spilled.inc();
                self.inner.call(req, ctx)
            }
            Admission::Refused { retry_after_ms } => {
                span.verdict("shed");
                self.shed.inc();
                Ok(Response::Overloaded { retry_after_ms })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::ids::{LedgerId, RecordId};

    fn query(i: u64) -> Request {
        Request::Query {
            id: RecordId::new(LedgerId(1), i),
        }
    }

    fn tight_policy() -> GovernorPolicy {
        GovernorPolicy {
            rate_per_sec: 10.0,
            burst: 5.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 0.0,
            retry_after_ms: 100,
        }
    }

    #[test]
    fn burst_is_admitted_then_rate_limited() {
        let gov = TokenGovernor::new(tight_policy());
        let now = TimeMs(1_000);
        for _ in 0..5 {
            assert_eq!(gov.admit(1, now), Admission::Own);
        }
        assert!(matches!(gov.admit(1, now), Admission::Refused { .. }));
        // 100 ms later one token (10/s) has dripped back in.
        assert_eq!(gov.admit(1, TimeMs(1_100)), Admission::Own);
        assert!(matches!(
            gov.admit(1, TimeMs(1_100)),
            Admission::Refused { .. }
        ));
    }

    #[test]
    fn refusal_carries_a_usable_retry_hint() {
        let gov = TokenGovernor::new(tight_policy());
        let now = TimeMs(0);
        for _ in 0..5 {
            gov.admit(1, now);
        }
        match gov.admit(1, now) {
            Admission::Refused { retry_after_ms } => {
                // An empty bucket at 10/s holds a whole token in 100 ms.
                assert!((1..=100).contains(&retry_after_ms), "{retry_after_ms}");
                assert_eq!(gov.admit(1, TimeMs(retry_after_ms)), Admission::Own);
            }
            other => panic!("expected refusal, got {other:?}"),
        }
    }

    #[test]
    fn spillover_tolerates_a_burst_but_is_shared() {
        let gov = TokenGovernor::new(GovernorPolicy {
            rate_per_sec: 1.0,
            burst: 1.0,
            spill_rate_per_sec: 0.0,
            spill_burst: 3.0,
            retry_after_ms: 100,
        });
        let now = TimeMs(10);
        assert_eq!(gov.admit(1, now), Admission::Own);
        // Own bucket empty: the next draws come from the shared pool...
        assert_eq!(gov.admit(1, now), Admission::Spill);
        assert_eq!(gov.admit(1, now), Admission::Spill);
        // ...which client 2's own bucket does not need yet...
        assert_eq!(gov.admit(2, now), Admission::Own);
        // ...but once 2 is also dry, the pool 1 drained is nearly gone.
        assert_eq!(gov.admit(2, now), Admission::Spill);
        assert!(matches!(gov.admit(2, now), Admission::Refused { .. }));
    }

    #[test]
    fn governed_service_answers_overloaded_and_meters_per_client() {
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong)).layered(
            GovernorLayer::new(GovernorPolicy {
                rate_per_sec: 10.0,
                burst: 2.0,
                spill_rate_per_sec: 0.0,
                spill_burst: 0.0,
                retry_after_ms: 100,
            }),
        );
        let abuser = CallCtx::at(TimeMs(0)).with_client(1);
        let organic = CallCtx::at(TimeMs(0)).with_client(2);
        assert_eq!(svc.call(query(1), &abuser).unwrap(), Response::Pong);
        assert_eq!(svc.call(query(2), &abuser).unwrap(), Response::Pong);
        assert!(matches!(
            svc.call(query(3), &abuser).unwrap(),
            Response::Overloaded { .. }
        ));
        // The abuser's empty bucket is not the organic client's problem.
        assert_eq!(svc.call(query(4), &organic).unwrap(), Response::Pong);
        assert_eq!(svc.shed_count(), 1);
    }

    #[test]
    fn low_priority_is_not_metered() {
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong)).layered(
            GovernorLayer::new(GovernorPolicy {
                rate_per_sec: 0.0,
                burst: 0.0,
                spill_rate_per_sec: 0.0,
                spill_burst: 0.0,
                retry_after_ms: 100,
            }),
        );
        let ctx = CallCtx::at(TimeMs(0)).with_client(1);
        // Zero capacity for validates...
        assert!(matches!(
            svc.call(query(1), &ctx).unwrap(),
            Response::Overloaded { .. }
        ));
        // ...but a metrics scrape still flows (the shed layer owns it).
        assert_eq!(svc.call(Request::Metrics, &ctx).unwrap(), Response::Pong);
    }

    #[test]
    fn bucket_pruning_does_not_punish_idle_clients() {
        // A fresh bucket is a full bucket: a pruned idle client re-enters
        // with its burst intact.
        let gov = TokenGovernor::new(tight_policy());
        assert_eq!(gov.admit(42, TimeMs(0)), Admission::Own);
        // (Pruning itself is exercised via MAX_BUCKETS in production; the
        // invariant that matters is re-entry at full burst.)
        assert_eq!(gov.admit(42, TimeMs(1_000_000)), Admission::Own);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Safety: over any call schedule, one client is never admitted
        /// more than `burst + rate × elapsed` from its own bucket plus
        /// the whole spillover allowance — the bucket can't be tricked
        /// into over-admitting by bursty or adversarial timing.
        #[test]
        fn never_admits_above_rate(
            offsets in prop::collection::vec(0u64..200, 1..300),
            rate in 1u32..50,
            burst in 1u32..20,
        ) {
            let policy = GovernorPolicy {
                rate_per_sec: rate as f64,
                burst: burst as f64,
                spill_rate_per_sec: 0.0,
                spill_burst: 0.0,
                retry_after_ms: 100,
            };
            let gov = TokenGovernor::new(policy);
            let mut now = 0u64;
            let mut admitted = 0u64;
            for dt in &offsets {
                now += dt;
                if !matches!(gov.admit(7, TimeMs(now)), Admission::Refused { .. }) {
                    admitted += 1;
                }
            }
            let ceiling = burst as f64 + rate as f64 * now as f64 / 1_000.0;
            prop_assert!(
                (admitted as f64) <= ceiling + 1.0,
                "admitted {admitted} > ceiling {ceiling} over {now} ms"
            );
        }

        /// Fairness: two clients hammering far above capacity converge to
        /// equal shares — neither can starve the other, with or without
        /// a spillover pool in play.
        #[test]
        fn greedy_clients_converge_to_fair_share(
            seed in 0u64..u64::MAX,
            spill in 0u32..20,
        ) {
            let policy = GovernorPolicy {
                rate_per_sec: 20.0,
                burst: 5.0,
                spill_rate_per_sec: spill as f64,
                spill_burst: spill as f64,
                retry_after_ms: 100,
            };
            let gov = TokenGovernor::new(policy);
            let mut counts = [0u64; 2];
            let mut rng = seed;
            // 10 s of both clients arriving every millisecond, in an
            // order shuffled by the seed — 1000/s offered against 20/s
            // (+spill) capacity each.
            for ms in 0..10_000u64 {
                rng = irs_filters::hash::mix64(rng);
                let first = (rng & 1) as usize;
                for who in [first, 1 - first] {
                    if !matches!(
                        gov.admit(who as u64, TimeMs(ms)),
                        Admission::Refused { .. }
                    ) {
                        counts[who] += 1;
                    }
                }
            }
            let total = counts[0] + counts[1];
            prop_assert!(total > 0);
            let share = counts[0] as f64 / total as f64;
            prop_assert!(
                (0.45..=0.55).contains(&share),
                "client 0 got {share:.3} of {total} admissions"
            );
        }
    }
}
