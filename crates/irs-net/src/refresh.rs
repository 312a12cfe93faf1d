//! Wire-level filter refresh: how a proxy keeps its revoked-set filters
//! current over the network (§4.4's hourly publication, on real sockets).
//!
//! One entry point, [`refresh`]: one round for one ledger over whatever
//! [`Service`] reaches it. The wire calls happen outside any lock; the
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

use crate::service::{
    CallCtx, Failover, RetryLayer, RetryPolicy, Service, ServiceExt, TransportPool,
};
use crate::NetError;
use irs_core::ids::LedgerId;
use irs_core::time::{Clock, SystemClock};
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Gauge};
use irs_proxy::{FilterSet, FilterUpdate, SharedProxy};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What a refresh round did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshOutcome {
    /// Installed a full snapshot (first contact or version gap).
    InstalledFull {
        /// New version held.
        version: u64,
        /// Snapshot bytes transferred.
        bytes: usize,
    },
    /// Applied a delta (legacy filter version or tiered delta tier).
    AppliedDelta {
        /// New version held.
        version: u64,
        /// Delta bytes transferred.
        bytes: usize,
    },
    /// Installed a full tiered state (bootstrap or multi-epoch resync).
    InstalledTiered {
        /// Epoch held after the install.
        epoch: u64,
        /// Delta version held within that epoch.
        version: u64,
        /// Base + delta bytes transferred.
        bytes: usize,
    },
    /// Rolled onto a freshly sealed base tier (single-epoch advance; the
    /// delta tier was cleared locally, no delta bytes shipped).
    RolledEpoch {
        /// The newly sealed epoch.
        epoch: u64,
        /// Base bytes transferred.
        bytes: usize,
    },
    /// Already current (ledger sent an empty delta).
    AlreadyCurrent,
}

/// One refresh round: pull `ledger`'s current publication through
/// `service` (usually `Retry(Failover(Tcp))`, so the fetch itself has
/// whatever resilience the stack provides) and install it in `proxy`.
///
/// The tiered pipeline is asked first ([`Request::GetFilterTiered`] with
/// the held `(epoch, version)`; DESIGN.md §16). A server predating it
/// answers [`Response::Unsupported`], and the round degrades to the
/// legacy [`Request::GetFilter`] flow — same round, same outcome
/// accounting: the round's final wire result is recorded **once** into
/// the proxy's per-ledger circuit breaker, so the query path shares one
/// view of upstream health and an old peer's polite `Unsupported` never
/// masks a failing fetch behind it.
pub fn refresh<S: Service + ?Sized>(
    proxy: &SharedProxy,
    service: &S,
    ledger: LedgerId,
) -> Result<RefreshOutcome, NetError> {
    let held = |filters: &FilterSet| (filters.tiered_state(ledger), filters.version(ledger));
    let have = held(&proxy.filters_snapshot());
    let ((have_epoch, have_version), have_legacy) = have;
    let ctx = CallCtx::wall();
    let mut fetched = service.call(
        Request::GetFilterTiered {
            have_epoch,
            have_version,
        },
        &ctx,
    );
    if matches!(fetched, Ok(Response::Unsupported { .. })) {
        let legacy = Request::GetFilter {
            have_version: have_legacy,
        };
        fetched = service.call(legacy, &ctx);
    }
    proxy.record_upstream(ledger, fetched.is_ok(), SystemClock.now());
    let Some(update) = publication(fetched?)? else {
        return Ok(RefreshOutcome::AlreadyCurrent);
    };
    let outcome = RefreshOutcome::of(&update);
    proxy.update_filters(|filters| {
        // Another refresher may have advanced the set between our
        // snapshot read and this transaction; re-check inside it.
        if held(filters) != have {
            return Ok(RefreshOutcome::AlreadyCurrent);
        }
        filters
            .apply(ledger, update)
            .map_err(|_| NetError::Frame("filter update rejected"))?;
        Ok(outcome)
    })
}

/// The update a filter response carries; `None` when the ledger says the
/// proxy is current (an empty delta).
fn publication(response: Response) -> Result<Option<FilterUpdate>, NetError> {
    Ok(Some(match response {
        Response::FilterFull { version, data } => FilterUpdate::full(version, data),
        Response::FilterDelta {
            from_version,
            to_version,
            data,
        } if from_version != to_version => FilterUpdate::Delta {
            from_version,
            to_version,
            data,
        },
        Response::FilterDelta { .. } => return Ok(None),
        Response::FilterTiered {
            epoch,
            base,
            delta_version,
            delta,
        } => FilterUpdate::Tiered {
            epoch,
            base,
            delta_version,
            delta,
        },
        Response::FilterBase { epoch, data } => FilterUpdate::Base { epoch, data },
        Response::Error { .. } => return Err(NetError::Frame("ledger has no published filter")),
        _ => return Err(NetError::Frame("unexpected response to a filter request")),
    }))
}

impl RefreshOutcome {
    /// What installing `update` amounts to.
    fn of(update: &FilterUpdate) -> RefreshOutcome {
        let bytes = update.payload_len() as usize;
        match *update {
            FilterUpdate::Full { version, .. } => RefreshOutcome::InstalledFull { version, bytes },
            FilterUpdate::Delta { to_version, .. } => RefreshOutcome::AppliedDelta {
                version: to_version,
                bytes,
            },
            FilterUpdate::Tiered {
                epoch,
                delta_version,
                ..
            } => RefreshOutcome::InstalledTiered {
                epoch,
                version: delta_version,
                bytes,
            },
            FilterUpdate::Base { epoch, .. } => RefreshOutcome::RolledEpoch { epoch, bytes },
        }
    }
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
    /// Tiered base epoch held for this shard (0 until the shard's ledger
    /// seals one or the proxy bootstraps tiered state).
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
/// keeps its steady-state cadence. The proxy's `FilterSet` ORs the
/// per-shard filters into one view as each arrives — filters are
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
    /// All threads draw connections from one shared [`TransportPool`],
    /// so a refresh and a query stack dialing the same replica share a
    /// socket — and a poisoned connection to one shard stays that
    /// shard's problem.
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
            Ok(outcome) => {
                if !matches!(outcome, RefreshOutcome::AlreadyCurrent) {
                    st.installs.inc();
                    shared.installs.inc();
                }
                st.consecutive_failures.set(0);
                // Gauge whichever pipeline the shard is on: tiered state
                // when installed, else the legacy filter version.
                let snap = proxy.filters_snapshot();
                let (epoch, version) = snap.tiered_state(st.ledger);
                st.filter_epoch.set(epoch);
                st.filter_version.set(if (epoch, version) == (0, 0) {
                    snap.version(st.ledger)
                } else {
                    version
                });
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

    /// `upstream` as a peer from before the tiered pipeline would answer:
    /// the new tag is `Unsupported`, everything else passes through.
    fn pre_tiered(upstream: impl Service) -> impl Service {
        service_fn(move |req, ctx: &CallCtx| match req {
            Request::GetFilterTiered { .. } => Ok(Response::Unsupported { tag: 12 }),
            other => upstream.call(other, ctx),
        })
    }

    #[test]
    fn full_then_current_over_wire() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(9),
        );
        // One revoked record, then publish.
        let mut cam = Camera::new(9, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let client = pre_tiered(connect(&server));

        let proxy = SharedProxy::new(ProxyConfig::default());
        // First refresh: full.
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(matches!(
            outcome,
            RefreshOutcome::InstalledFull { version: 1, .. }
        ));
        assert_eq!(
            proxy.lookup(id, TimeMs(10)),
            LookupOutcome::NeedsLedgerQuery,
            "revoked id hits the freshly pulled filter"
        );
        // Second refresh with no churn: already current.
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert_eq!(outcome, RefreshOutcome::AlreadyCurrent);
        server.shutdown();
    }

    #[test]
    fn delta_served_when_one_version_behind() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(11),
        );
        let mut cam = Camera::new(11, 96, 96);
        // Two claims; revoke the first, publish v1.
        let shot_a = cam.capture(0);
        let Response::Claimed { id: a, .. } =
            ledger.handle(Request::Claim(shot_a.claim), TimeMs(0))
        else {
            panic!()
        };
        let shot_b = cam.capture(1);
        let Response::Claimed { id: b, .. } =
            ledger.handle(Request::Claim(shot_b.claim), TimeMs(1))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot_a.keypair, a, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(2));
        ledger.publish_filter();

        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let client = pre_tiered(connect(&server));
        let proxy = SharedProxy::new(ProxyConfig::default());
        refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert_eq!(proxy.filters_snapshot().version(LedgerId(1)), 1);

        // Churn: revoke b, publish v2 while the server is live — all
        // `&self` on the shared concurrent ledger.
        {
            let l = server.ledger();
            let rv = RevokeRequest::create(&shot_b.keypair, b, true, 0);
            l.handle(Request::Revoke(rv), TimeMs(3));
            l.publish_filter();
        }
        // Refresh again: must arrive as a delta, and b must now hit.
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::AppliedDelta { version: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.lookup(b, TimeMs(10)), LookupOutcome::NeedsLedgerQuery);
        server.shutdown();
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
        // Neither pipeline has anything to serve, and an answered
        // "nothing published" is not an upstream failure.
        for client in [
            connect(&server).boxed(),
            pre_tiered(connect(&server)).boxed(),
        ] {
            assert!(matches!(
                refresh(&proxy, &client, LedgerId(1)),
                Err(NetError::Frame("ledger has no published filter"))
            ));
        }
        assert_eq!(proxy.degraded_stats().upstream_failures, 0);
        server.shutdown();
    }

    #[test]
    fn shared_refresh_full_then_delta() {
        // The whole legacy life cycle against one served proxy: full,
        // delta, then current.
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(12),
        );
        let mut cam = Camera::new(12, 96, 96);
        let shot = cam.capture(0);
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0))
        else {
            panic!()
        };
        let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
        ledger.handle(Request::Revoke(rv), TimeMs(1));
        ledger.publish_filter();
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let client = pre_tiered(connect(&server));

        let proxy = SharedProxy::new(ProxyConfig::default());
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(matches!(
            outcome,
            RefreshOutcome::InstalledFull { version: 1, .. }
        ));
        assert_eq!(
            proxy.lookup(id, TimeMs(5)),
            LookupOutcome::NeedsLedgerQuery,
            "revoked id hits the pulled filter"
        );

        // Churn on the live ledger, then a delta refresh.
        let shot_b = cam.capture(1);
        let l = server.ledger();
        let (b, _) = l
            .claim_revoked(shot_b.claim, TimeMs(6))
            .expect("in-memory ledger cannot fail a claim");
        l.publish_filter();
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::AppliedDelta { version: 2, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.lookup(b, TimeMs(7)), LookupOutcome::NeedsLedgerQuery);
        // No churn: already current.
        let outcome = refresh(&proxy, &client, LedgerId(1)).unwrap();
        assert_eq!(outcome, RefreshOutcome::AlreadyCurrent);
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
                RefreshOutcome::InstalledTiered {
                    epoch: 1,
                    version: 1,
                    ..
                }
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
            matches!(outcome, RefreshOutcome::AppliedDelta { version: 2, .. }),
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
            matches!(outcome, RefreshOutcome::RolledEpoch { epoch: 2, .. }),
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
        assert_eq!(outcome, RefreshOutcome::AlreadyCurrent);
        server.shutdown();
    }

    #[test]
    fn tiered_refresh_falls_back_to_legacy_on_unsupported() {
        use irs_filters::BloomFilter;
        use irs_proxy::{BreakerConfig, BreakerState};
        // A pre-tiered server: answers Unsupported for the new tag,
        // serves the legacy full filter.
        let mut f = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        let id = irs_core::ids::RecordId::new(LedgerId(1), 7);
        f.insert(id.filter_key());
        let data = f.to_bytes();
        let svc = pre_tiered(service_fn(move |req, _ctx: &CallCtx| match req {
            Request::GetFilter { .. } => Ok(Response::FilterFull {
                version: 3,
                data: data.clone(),
            }),
            other => panic!("unexpected request {other:?}"),
        }));
        let proxy = SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
            failure_threshold: 2,
            open_cooldown_ms: 60_000,
        });
        let outcome = refresh(&proxy, &svc, LedgerId(1)).unwrap();
        assert!(
            matches!(outcome, RefreshOutcome::InstalledFull { version: 3, .. }),
            "{outcome:?}"
        );
        assert_eq!(proxy.filters_snapshot().version(LedgerId(1)), 3);
        assert_eq!(proxy.filters_snapshot().tiered_state(LedgerId(1)), (0, 0));
        let breaker = proxy.breaker(LedgerId(1));
        assert_eq!(proxy.degraded_stats().upstream_failures, 0);
        assert_eq!(breaker.state(), BreakerState::Closed);

        // The breaker sees one outcome a round — the round's last wire
        // result. When the legacy leg behind the polite `Unsupported`
        // fails, the `Unsupported` must not count as a success that
        // resets the failure run: two such rounds open the breaker.
        let dying = pre_tiered(service_fn(|_req, _ctx: &CallCtx| {
            Err::<Response, _>(NetError::ConnectionLost)
        }));
        for round in 1..=2 {
            assert!(refresh(&proxy, &dying, LedgerId(1)).is_err());
            assert_eq!(breaker.consecutive_failures(), round);
            assert_eq!(proxy.degraded_stats().upstream_failures, u64::from(round));
        }
        assert_eq!(breaker.state(), BreakerState::Open);
    }
}
