//! Wire-level filter refresh: how a proxy keeps its revoked-set filters
//! current over the network (§4.4's hourly publication, on real sockets).
//!
//! One entry point, [`refresh`]: one round for one ledger over whatever
//! [`Service`] reaches it. The ledger answers a [`Response::Filter`]
//! carrying the [`Publication`] its serve matrix picked (an empty
//! same-version delta when the proxy is current), and that same
//! `Publication` is what [`FilterSet::apply`] installs and what the
//! round returns. The wire calls happen outside any lock; the
//! held-state re-check and the apply run inside one `update_filters`
//! transaction, so concurrent lookups keep reading the old snapshot
//! until the new one swaps in, and two racing refreshes cannot
//! interleave their version reads and writes.
//!
//! [`RefreshWorker`] runs it on a background thread per shard and is
//! built to survive a hostile network: a down ledger costs a failure
//! counter and a backed-off retry, never a teardown — lookups keep
//! serving the last-good snapshot throughout (the degradation ladder's
//! "stale filters beat no filters" rung).
//!
//! [`FilterSet::apply`]: irs_proxy::FilterSet::apply

use crate::service::{
    CallCtx, Failover, RetryLayer, RetryPolicy, Service, ServiceExt, TransportPool,
};
use crate::NetError;
use irs_core::ids::LedgerId;
use irs_core::time::{Clock, SystemClock};
use irs_core::wire::{Request, Response};
use irs_filters::Publication;
use irs_obs::{Counter, Gauge};
use irs_proxy::SharedProxy;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One refresh round: pull `ledger`'s current publication through
/// `service` (usually `Retry(Failover(Tcp))`, so the fetch itself has
/// whatever resilience the stack provides) and install it in `proxy`.
///
/// One request a round: [`Request::GetFilterTiered`] with the held
/// `(epoch, version)` (DESIGN.md §16). The wire result is recorded into
/// the proxy's per-ledger circuit breaker, so the query path shares one
/// view of upstream health. A peer predating the pipeline answers
/// [`Response::Unsupported`]: it answered, so its breaker stays closed,
/// but the round fails and nothing is installed — the proxy holds no
/// filter for that ledger and its ids go to the ledger (fail-safe).
///
/// Returns the publication installed, or `None` when the proxy was
/// already current (the ledger answered an empty delta, or a racing
/// refresh advanced the set first).
pub fn refresh<S: Service + ?Sized>(
    proxy: &SharedProxy,
    service: &S,
    ledger: LedgerId,
) -> Result<Option<Publication>, NetError> {
    let have @ (have_epoch, have_version) = proxy.filters_snapshot().tiered_state(ledger);
    let fetched = service.call(
        Request::GetFilterTiered {
            have_epoch,
            have_version,
        },
        &CallCtx::wall(),
    );
    proxy.record_upstream(ledger, fetched.is_ok(), SystemClock.now());
    let publication = match fetched? {
        Response::Filter(publication) if publication.is_up_to_date() => return Ok(None),
        Response::Filter(publication) => publication,
        Response::Error { .. } => return Err(NetError::Frame("ledger has no published filter")),
        Response::Unsupported { .. } => {
            return Err(NetError::Frame("peer predates the filter pipeline"))
        }
        _ => return Err(NetError::Frame("unexpected response to a filter request")),
    };
    proxy.update_filters(|filters| {
        // Another refresher may have advanced the set between our
        // snapshot read and this transaction; re-check inside it.
        if filters.tiered_state(ledger) != have {
            return Ok(None);
        }
        filters
            .apply(ledger, publication.clone())
            .map_err(|_| NetError::Frame("filter update rejected"))?;
        Ok(Some(publication))
    })
}

/// Point-in-time counters from a [`RefreshWorker`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefreshWorkerStats {
    /// Refresh rounds attempted.
    pub rounds: u64,
    /// Rounds that failed (wire error or rejected payload).
    pub failures: u64,
    /// Current run of failed rounds; 0 after any success.
    pub consecutive_failures: u32,
    /// Rounds that installed or advanced a filter.
    pub installs: u64,
}

/// One shard's refresh state: its own counters (also exposed in the
/// registry as `irs_refresh_shard_<id>_*`) and its own failure run —
/// backoff is **per shard**, so a dead shard backing off never delays a
/// healthy shard's refresh.
struct ShardRefresh {
    ledger: LedgerId,
    replicas: Vec<SocketAddr>,
    rounds: Counter,
    failures: Counter,
    consecutive_failures: Gauge,
    installs: Counter,
    filter_version: Gauge,
    /// Base epoch held for this shard (0 until the first install).
    filter_epoch: Gauge,
}

/// The worker's counters live in the proxy's metrics [`Registry`]
/// (`irs_refresh_*` aggregates plus `irs_refresh_shard_<id>_*` per
/// shard), so a scrape of the proxy shows filter freshness alongside
/// the request path.
///
/// [`Registry`]: irs_obs::Registry
struct WorkerShared {
    stop: AtomicBool,
    rounds: Counter,
    failures: Counter,
    consecutive_failures: Gauge,
    installs: Counter,
    shards: Vec<ShardRefresh>,
}

impl WorkerShared {
    /// Lift the worst per-shard failure run into the aggregate gauge.
    fn update_consecutive(&self) {
        let max = self
            .shards
            .iter()
            .map(|s| s.consecutive_failures.get())
            .max()
            .unwrap_or(0);
        self.consecutive_failures.set(max);
    }
}

/// Background threads that keep a served [`SharedProxy`]'s filters
/// current, riding through ledger outages instead of dying with them.
///
/// One thread per shard: each shard's filter version, failure counters,
/// and backoff schedule are independent, so a down shard retries on its
/// own shrinking-then-doubling schedule (starting at 1/8 of the
/// interval, capped at the full interval) while every healthy shard
/// keeps its steady-state cadence. The proxy's `FilterSet` holds each
/// shard's filter as it arrives and probes a record's own — filters are
/// per-ledger already, so shard-awareness is purely a scheduling
/// concern. Threads only exit on [`stop`].
///
/// [`stop`]: RefreshWorker::stop
pub struct RefreshWorker {
    shared: Arc<WorkerShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl RefreshWorker {
    /// Spawn one refresh thread per shard. Each entry is a shard's
    /// ledger id plus its replica addresses (primary first — the
    /// failover order); `interval` is the steady-state refresh period
    /// (§4.4's "hourly", shrunk for tests); `policy` bounds each fetch.
    /// The threads draw connections from one [`TransportPool`] of the
    /// worker's own, so refreshes of shards on the same replica share a
    /// socket (a query stack dials through its own pool), and a poisoned
    /// connection to one shard stays that shard's problem.
    pub fn spawn_sharded(
        proxy: Arc<SharedProxy>,
        shards: Vec<(LedgerId, Vec<SocketAddr>)>,
        interval: Duration,
        policy: RetryPolicy,
    ) -> RefreshWorker {
        let registry = proxy.metrics();
        let shard_states: Vec<ShardRefresh> = shards
            .into_iter()
            .map(|(ledger, replicas)| {
                let p = format!("irs_refresh_shard_{}", ledger.0);
                ShardRefresh {
                    ledger,
                    replicas,
                    rounds: registry.counter(&format!("{p}_rounds_total")),
                    failures: registry.counter(&format!("{p}_failures_total")),
                    consecutive_failures: registry.gauge(&format!("{p}_consecutive_failures")),
                    installs: registry.counter(&format!("{p}_installs_total")),
                    filter_version: registry.gauge(&format!("{p}_filter_version")),
                    filter_epoch: registry.gauge(&format!("{p}_filter_epoch")),
                }
            })
            .collect();
        let shared = Arc::new(WorkerShared {
            stop: AtomicBool::new(false),
            rounds: registry.counter("irs_refresh_rounds_total"),
            failures: registry.counter("irs_refresh_failures_total"),
            consecutive_failures: registry.gauge("irs_refresh_consecutive_failures"),
            installs: registry.counter("irs_refresh_installs_total"),
            shards: shard_states,
        });
        let pool = Arc::new(TransportPool::new(policy.io_timeout));
        let handles = (0..shared.shards.len())
            .map(|i| {
                let proxy = proxy.clone();
                let shared = shared.clone();
                let pool = pool.clone();
                std::thread::spawn(move || run_shard(&proxy, &shared, i, &pool, interval, policy))
            })
            .collect();
        RefreshWorker { shared, handles }
    }

    /// Aggregate counters across shards (`consecutive_failures` is the
    /// worst shard's current run).
    pub fn stats(&self) -> RefreshWorkerStats {
        RefreshWorkerStats {
            rounds: self.shared.rounds.get(),
            failures: self.shared.failures.get(),
            consecutive_failures: self.shared.consecutive_failures.get() as u32,
            installs: self.shared.installs.get(),
        }
    }

    /// Per-shard counters, in spawn order.
    pub fn shard_stats(&self) -> Vec<(LedgerId, RefreshWorkerStats)> {
        self.shared
            .shards
            .iter()
            .map(|s| {
                (
                    s.ledger,
                    RefreshWorkerStats {
                        rounds: s.rounds.get(),
                        failures: s.failures.get(),
                        consecutive_failures: s.consecutive_failures.get() as u32,
                        installs: s.installs.get(),
                    },
                )
            })
            .collect()
    }

    /// Signal every shard thread and join them all.
    pub fn stop(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// One shard's refresh loop (one thread).
fn run_shard(
    proxy: &SharedProxy,
    shared: &WorkerShared,
    index: usize,
    pool: &Arc<TransportPool>,
    interval: Duration,
    policy: RetryPolicy,
) {
    let st = &shared.shards[index];
    let transports: Vec<_> = st.replicas.iter().map(|&a| pool.transport(a)).collect();
    let fetch = Failover::new(transports).layered(RetryLayer::new(policy));
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        st.rounds.inc();
        shared.rounds.inc();
        let delay = match refresh(proxy, &fetch, st.ledger) {
            Ok(installed) => {
                if installed.is_some() {
                    st.installs.inc();
                    shared.installs.inc();
                }
                st.consecutive_failures.set(0);
                let (epoch, version) = proxy.filters_snapshot().tiered_state(st.ledger);
                st.filter_epoch.set(epoch);
                st.filter_version.set(version);
                interval
            }
            Err(_) => {
                st.failures.inc();
                shared.failures.inc();
                st.consecutive_failures.add(1);
                let run = st.consecutive_failures.get() as u32;
                // Backed-off retry, capped at the normal period.
                (interval / 8)
                    .max(Duration::from_millis(10))
                    .saturating_mul(1u32 << run.min(3))
                    .min(interval)
            }
        };
        shared.update_consecutive();
        // Sleep in slices so stop() is prompt.
        let mut slept = Duration::ZERO;
        while slept < delay {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            let slice = Duration::from_millis(10).min(delay - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::LedgerServer;
    use crate::service::service_fn;
    use irs_core::camera::Camera;
    use irs_core::claim::RevokeRequest;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_ledger::{Ledger, LedgerConfig};
    use irs_proxy::{LookupOutcome, ProxyConfig};

    fn connect(server: &LedgerServer) -> impl Service {
        crate::service::transport::testing::connect(server.addr())
    }

    /// `upstream` as a peer from before the filter pipeline would answer:
    /// its tag is `Unsupported`, everything else passes through.
    fn pre_tiered(upstream: impl Service) -> impl Service {
        service_fn(move |req, ctx: &CallCtx| match req {
            Request::GetFilterTiered { .. } => Ok(Response::Unsupported { tag: 12 }),
            other => upstream.call(other, ctx),
        })
    }

    #[test]
    fn worker_survives_down_ledger_then_recovers() {
        use irs_core::claim::RevokeRequest;
        // Reserve a port, keep it dead for now.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let policy = RetryPolicy {
            max_attempts: 1,
            call_deadline: std::time::Duration::from_millis(200),
            io_timeout: std::time::Duration::from_millis(100),
            ..RetryPolicy::fast(5)
        };
        let worker = RefreshWorker::spawn_sharded(
            proxy.clone(),
            vec![(LedgerId(1), vec![addr])],
            Duration::from_millis(40),
            policy,
        );
        // Let it fail a few rounds against the dead port.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while worker.stats().failures < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let mid = worker.stats();
        assert!(mid.failures >= 2, "worker kept retrying: {mid:?}");
        assert!(mid.consecutive_failures >= 2);
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (0, 0));

        // Bring the ledger up on that same port with a published filter.
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(15),
        );
        let mut cam = Camera::new(15, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start(ledger, &addr.to_string()).unwrap();

        // The worker must recover on its own: tiered filter installed,
        // failure run reset.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.filters_snapshot().tiered_state(LedgerId(1)) == (0, 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (1, 1));
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "recovered filter is live on the lookup path"
        );
        let end = worker.stats();
        assert_eq!(end.consecutive_failures, 0);
        assert!(end.installs >= 1);
        worker.stop();
        server.shutdown();
    }

    #[test]
    fn one_down_shard_does_not_delay_the_healthy_shards_refresh() {
        use irs_core::claim::RevokeRequest;
        // Shard 1 is live with a published filter; shard 2 is a reserved
        // but unbound port — every fetch against it times out.
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(21),
        );
        let mut cam = Camera::new(21, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let live = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let dead_addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };

        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let policy = RetryPolicy {
            max_attempts: 1,
            call_deadline: std::time::Duration::from_millis(200),
            io_timeout: std::time::Duration::from_millis(100),
            ..RetryPolicy::fast(5)
        };
        let worker = RefreshWorker::spawn_sharded(
            proxy.clone(),
            vec![
                (LedgerId(1), vec![live.addr()]),
                (LedgerId(2), vec![dead_addr]),
            ],
            Duration::from_millis(40),
            policy,
        );

        // The healthy shard's filter must land promptly — well inside the
        // window where the dead shard is still burning its first timeouts.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while proxy.filters_snapshot().tiered_state(LedgerId(1)) == (0, 0)
            && std::time::Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            proxy.filters_snapshot().tiered_state(LedgerId(1)),
            (1, 1),
            "healthy shard's filter blocked behind the dead shard"
        );
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "healthy shard's revocation is live on the lookup path"
        );
        // The healthy shard's filter speaks for its own ids only: nothing
        // is known about the down shard, so its ids must reach it.
        let on_shard = |ledger| irs_core::ids::RecordId::new(LedgerId(ledger), 999);
        assert_eq!(
            proxy.lookup(on_shard(1), TimeMs(10)),
            LookupOutcome::NotRevokedByFilter
        );
        assert_eq!(
            proxy.lookup(on_shard(2), TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "a miss in shard 1's filter answered for the down shard"
        );

        // Let the dead shard accumulate a visible failure run, then check
        // the two shards' counters stayed independent.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let by_shard = worker.shard_stats();
            let dead = &by_shard[1].1;
            if dead.failures >= 2 || std::time::Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let by_shard = worker.shard_stats();
        let (healthy, dead) = (&by_shard[0].1, &by_shard[1].1);
        assert!(dead.failures >= 2, "dead shard kept retrying: {dead:?}");
        assert!(dead.consecutive_failures >= 2);
        assert_eq!(dead.installs, 0);
        assert_eq!(
            healthy.failures, 0,
            "dead shard's outage leaked into the healthy shard: {healthy:?}"
        );
        assert_eq!(healthy.consecutive_failures, 0);
        assert!(healthy.installs >= 1);
        // Aggregate gauge reports the worst shard, not the average.
        assert!(worker.stats().consecutive_failures >= 2);

        worker.stop();
        live.shutdown();
    }

    #[test]
    fn unpublished_filter_is_an_error() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(10),
        );
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let proxy = SharedProxy::new(ProxyConfig::default());
        // An answered "nothing published" is not an upstream failure.
        assert!(matches!(
            refresh(&proxy, &connect(&server), LedgerId(1)),
            Err(NetError::Frame("ledger has no published filter"))
        ));
        let failures = proxy.metrics().counter("irs_proxy_upstream_failures_total");
        assert_eq!(failures.get(), 0);
        server.shutdown();
    }

    #[test]
    fn tiered_refresh_full_then_delta_then_epoch_roll() {
        use irs_filters::TieredConfig;
        // Tiny compaction threshold so the test can drive an epoch roll
        // through the wire flow.
        let mut config = LedgerConfig::new(LedgerId(1));
        config.tiered = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 4,
        };
        let ledger = Ledger::new(config, TimestampAuthority::from_seed(31));
        let mut cam = Camera::new(31, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let client = connect(&server);

        // Bootstrap: full tiered install (no epoch sealed yet).
        let proxy = SharedProxy::new(ProxyConfig::default());
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(
            matches!(
                outcome,
                Some(Publication::Tiered {
                    epoch: 1,
                    delta_version: 1,
                    ..
                })
            ),
            "{outcome:?}"
        );
        assert_eq!(
            proxy.lookup(id, TimeMs(5)),
            LookupOutcome::NeedsLedgerQuery,
            "revoked id hits the tiered filter"
        );

        // One more revocation: same epoch, delta-tier update.
        let l = server.ledger();
        let shot_b = cam.capture(1);
        let (b, _) = l.claim_revoked(shot_b.claim, TimeMs(6)).unwrap();
        l.publish_filter();
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, Some(Publication::Delta { to_version: 2, .. })),
            "{outcome:?}"
        );
        assert_eq!(proxy.lookup(b, TimeMs(7)), LookupOutcome::NeedsLedgerQuery);

        // Enough churn to cross compact_at: the publish seals epoch 2 and
        // the refresh arrives as a base-only roll.
        let mut more = Vec::new();
        for i in 2..7 {
            let shot = cam.capture(i);
            let (id, _) = l.claim_revoked(shot.claim, TimeMs(8 + i)).unwrap();
            more.push(id);
        }
        l.publish_filter();
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, Some(Publication::Base { epoch: 2, .. })),
            "{outcome:?}"
        );
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (2, 0));
        for id in [id, b].into_iter().chain(more) {
            assert_eq!(
                proxy.lookup(id, TimeMs(40)),
                LookupOutcome::NeedsLedgerQuery,
                "revocation lost across the epoch roll"
            );
        }
        // No churn: already current.
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert_eq!(outcome, None);
        server.shutdown();
    }

    /// A peer from before the filter pipeline answers `Unsupported`:
    /// the round fails, nothing is installed (so the ledger's ids keep
    /// going to the ledger), and — the peer did answer — its breaker
    /// stays closed. A worker pointed at such a peer counts failures and
    /// backs off like against any other failing shard.
    #[test]
    fn unsupported_peer_fails_the_round_and_installs_nothing() {
        use crate::codec::serve_burst;
        use crate::reactor::{ConnCtx, Reactor, ReactorConfig};
        use irs_proxy::BreakerState;
        let id = irs_core::ids::RecordId::new(LedgerId(1), 7);
        let svc = pre_tiered(service_fn(|req, _ctx: &CallCtx| {
            panic!("one request a round, got a second: {req:?}")
        }));
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        for _ in 0..3 {
            assert!(matches!(
                refresh(&proxy, &svc, LedgerId(1)),
                Err(NetError::Frame("peer predates the filter pipeline"))
            ));
        }
        let held = |proxy: &SharedProxy| {
            assert_eq!(proxy.filters_snapshot().ledger_count(), 0);
            assert_eq!(proxy.lookup(id, TimeMs(5)), LookupOutcome::NeedsLedgerQuery);
            let failures = proxy.metrics().counter("irs_proxy_upstream_failures_total");
            assert_eq!(failures.get(), 0);
            assert_eq!(proxy.breaker(LedgerId(1)).state(), BreakerState::Closed);
        };
        held(&proxy);

        // The same over a socket, through the worker.
        let old_peer = Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig::default(),
            Arc::new(|frames, _conn: &ConnCtx| {
                serve_burst(frames, |requests| {
                    vec![Response::Unsupported { tag: 12 }; requests.len()]
                })
            }),
        )
        .unwrap();
        let worker = RefreshWorker::spawn_sharded(
            proxy.clone(),
            vec![(LedgerId(1), vec![old_peer.addr()])],
            Duration::from_millis(40),
            RetryPolicy::fast(5),
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while worker.stats().consecutive_failures < 2 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = worker.stats();
        worker.stop();
        old_peer.shutdown();
        assert!(
            stats.failures >= 2 && stats.consecutive_failures >= 2 && stats.installs == 0,
            "{stats:?}"
        );
        held(&proxy);
    }
}
