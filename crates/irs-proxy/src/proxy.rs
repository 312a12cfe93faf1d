//! The proxy: the §4.4 decision pipeline (filter → cache → ledger) with
//! a fully `&self` lookup path, safe to share across connection threads
//! behind a plain `Arc`.
//!
//! Sans-io: [`SharedProxy::lookup`] classifies a validation request into
//! a local answer or a required ledger query, and
//! [`SharedProxy::complete`] feeds the ledger's answer back. The caller
//! (simulator event handler, experiment rig or TCP server) owns all
//! actual I/O, so one implementation serves every deployment.
//!
//! Three pieces of state, each synchronized to its access pattern:
//!
//! * **Filters** — read on every lookup, replaced only on refresh. An
//!   `RwLock<Arc<FilterSet>>` snapshot pointer: lookups hold the read
//!   lock just long enough to clone the `Arc`; a refresh deep-clones
//!   the set *off* the lock, mutates the copy, and swaps the pointer
//!   under a brief write lock. A refresh therefore never blocks
//!   in-flight lookups for longer than one pointer assignment.
//! * **Status cache** — mutated on every hit (LRU recency), so it is
//!   striped: `N` independent [`LruTtlCache`]s, each behind its own
//!   `Mutex`, picked by the record's filter key, the same 64-bit mix
//!   the filter probe uses. Lookups on different stripes never contend.
//!   The stripe count is a constructor argument
//!   ([`SharedProxy::with_shards`]); one stripe is an exact LRU, which
//!   is what the single-threaded experiment rigs use.
//! * **Counters** — sharded lock-free [`Counter`]s in an
//!   [`irs_obs::Registry`], snapshotted into [`ProxyStats`] and rendered
//!   as text exposition for the `Request::Metrics` wire message.

use crate::filterset::FilterSet;
use crate::health::{BreakerConfig, CircuitBreaker};
use crate::lru::LruTtlCache;
use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_filters::hash::reduce;
use irs_obs::{Counter, Gauge, Registry, SpanRecorder};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// Proxy configuration.
#[derive(Clone, Copy, Debug)]
pub struct ProxyConfig {
    /// Status-cache capacity (entries).
    pub cache_capacity: usize,
    /// Status-cache TTL (ms) — the staleness bound on the proxy path.
    pub cache_ttl_ms: u64,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            cache_capacity: 100_000,
            cache_ttl_ms: 3_600_000,
        }
    }
}

/// What the proxy decides for one lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LookupOutcome {
    /// Answered locally: the record's ledger's filter is held and
    /// misses, so the record is not revoked.
    NotRevokedByFilter,
    /// Answered locally from the status cache.
    Cached(RevocationStatus),
    /// The caller must query the record's home ledger and then call
    /// [`SharedProxy::complete`].
    NeedsLedgerQuery,
}

/// Load/behavior counters (read by experiments E4/E5/E13/E14).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups short-circuited by the record's ledger's filter.
    pub filter_negative: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that required a real ledger query.
    pub ledger_queries: u64,
}

impl ProxyStats {
    /// Fraction of lookups that reached a ledger.
    pub fn ledger_query_fraction(&self) -> f64 {
        if self.lookups == 0 {
            return 0.0;
        }
        self.ledger_queries as f64 / self.lookups as f64
    }

    /// The §4.4 "load reduction factor": lookups per ledger query.
    pub fn load_reduction(&self) -> f64 {
        if self.ledger_queries == 0 {
            return f64::INFINITY;
        }
        self.lookups as f64 / self.ledger_queries as f64
    }
}

/// Default cache stripe count.
pub const DEFAULT_CACHE_SHARDS: usize = 16;

/// The proxy's metric handles: registered once at construction, so the
/// lookup path touches only lock-free counters, never the registry map.
struct ProxyObs {
    registry: Arc<Registry>,
    lookups: Counter,
    filter_negative: Counter,
    cache_hits: Counter,
    ledger_queries: Counter,
    // Degradation counters: how often the proxy fell back past a live
    // upstream answer.
    stale_served: Counter,
    unavailable: Counter,
    upstream_failures: Counter,
    // Point-in-time gauges, refreshed on render.
    breaker_opens: Gauge,
    cache_entries: Gauge,
    // Filter-pipeline gauges, mirrored from the current FilterSet
    // snapshot (which owns the authoritative counts).
    filter_rejected: Gauge,
    filter_resident_bytes: Gauge,
}

impl ProxyObs {
    fn new() -> ProxyObs {
        let registry = Arc::new(Registry::new());
        ProxyObs {
            lookups: registry.counter("irs_proxy_lookups_total"),
            filter_negative: registry.counter("irs_proxy_filter_negative_total"),
            cache_hits: registry.counter("irs_proxy_cache_hits_total"),
            ledger_queries: registry.counter("irs_proxy_ledger_queries_total"),
            stale_served: registry.counter("irs_proxy_stale_served_total"),
            unavailable: registry.counter("irs_proxy_unavailable_total"),
            upstream_failures: registry.counter("irs_proxy_upstream_failures_total"),
            breaker_opens: registry.gauge("irs_proxy_breaker_opens"),
            cache_entries: registry.gauge("irs_proxy_cache_entries"),
            filter_rejected: registry.gauge("irs_proxy_filter_rejected_updates"),
            filter_resident_bytes: registry.gauge("irs_proxy_filter_resident_bytes"),
            registry,
        }
    }
}

/// The IRS proxy. Its whole lookup path is `&self`.
///
/// ```
/// use irs_proxy::{LookupOutcome, ProxyConfig, SharedProxy};
/// use irs_core::claim::RevocationStatus;
/// use irs_core::ids::{LedgerId, RecordId};
/// use irs_core::time::TimeMs;
/// use irs_filters::{BloomFilter, Publication};
///
/// let proxy = SharedProxy::new(ProxyConfig::default());
/// // Install a ledger's revoked-set filter containing one record.
/// let revoked = RecordId::new(LedgerId(1), 7);
/// let mut f = BloomFilter::for_capacity(1_000, 0.02).unwrap();
/// f.insert(revoked.filter_key());
/// let update = Publication::full(1, f.to_bytes());
/// proxy
///     .update_filters(|fs| fs.apply(LedgerId(1), update))
///     .unwrap();
///
/// // A photo outside the revoked set is answered locally…
/// let clean = RecordId::new(LedgerId(1), 1_000);
/// assert_eq!(proxy.lookup(clean, TimeMs(0)), LookupOutcome::NotRevokedByFilter);
/// // …the revoked one needs a real query, whose answer is then cached.
/// assert_eq!(proxy.lookup(revoked, TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
/// proxy.complete(revoked, RevocationStatus::Revoked, TimeMs(0));
/// assert_eq!(
///     proxy.lookup(revoked, TimeMs(1)),
///     LookupOutcome::Cached(RevocationStatus::Revoked)
/// );
/// ```
pub struct SharedProxy {
    filters: RwLock<Arc<FilterSet>>,
    /// Serializes refreshes so two concurrent `update_filters` calls
    /// cannot lose each other's updates in the clone-swap.
    refresh_lock: Mutex<()>,
    cache_shards: Box<[Mutex<LruTtlCache<RecordId, RevocationStatus>>]>,
    obs: ProxyObs,
    /// Per-ledger circuit breakers, created on first contact. The map is
    /// read-mostly (a ledger is registered once, consulted on every
    /// degraded-path decision); breaker state itself is all atomics.
    health: RwLock<HashMap<LedgerId, Arc<CircuitBreaker>>>,
    breaker_config: BreakerConfig,
}

impl SharedProxy {
    /// Create a proxy with [`DEFAULT_CACHE_SHARDS`] cache stripes.
    pub fn new(config: ProxyConfig) -> SharedProxy {
        SharedProxy::with_shards(config, DEFAULT_CACHE_SHARDS)
    }

    /// Create with an explicit cache stripe count. `cache_capacity` is
    /// split across `min(num_shards, cache_capacity)` stripes, the
    /// remainder spread one entry each over the first stripes, so the
    /// stripes' capacities sum to exactly `cache_capacity`.
    pub fn with_shards(config: ProxyConfig, num_shards: usize) -> SharedProxy {
        assert!(num_shards > 0, "need at least one cache shard");
        let stripes = num_shards.min(config.cache_capacity).max(1);
        let (base, extra) = (
            config.cache_capacity / stripes,
            config.cache_capacity % stripes,
        );
        let cache_shards = (0..stripes)
            .map(|i| {
                let capacity = base + usize::from(i < extra);
                Mutex::new(LruTtlCache::new(capacity, config.cache_ttl_ms))
            })
            .collect();
        SharedProxy {
            filters: RwLock::new(Arc::new(FilterSet::new())),
            refresh_lock: Mutex::new(()),
            cache_shards,
            obs: ProxyObs::new(),
            health: RwLock::new(HashMap::new()),
            breaker_config: BreakerConfig::default(),
        }
    }

    /// Override the circuit-breaker tuning (call before the proxy is
    /// shared; breakers created afterwards use the new config).
    pub fn with_breaker_config(mut self, config: BreakerConfig) -> SharedProxy {
        self.breaker_config = config;
        self
    }

    /// The cache stripe of a record with filter key `key`
    /// ([`RecordId::filter_key`]): `reduce(key, N)`, so a lookup mixes
    /// the id once for both the filter probe and the stripe.
    fn shard_of(&self, key: u64) -> usize {
        reduce(key, self.cache_shards.len() as u64) as usize
    }

    /// Classify a lookup. Order: the record's ledger's revoked-set
    /// filter (cheapest, answers the common "viewed photo is not revoked"
    /// case), then cache stripe, then ledger.
    pub fn lookup(&self, id: RecordId, now: TimeMs) -> LookupOutcome {
        self.lookup_traced(id, now, None)
    }

    /// [`lookup`](Self::lookup) with per-stage tracing: the filter
    /// probe and the cache-stripe probe each record a span with their
    /// verdict, so a traced validate can attribute time to the filter
    /// versus the LRU versus the ledger round-trip.
    pub fn lookup_traced(
        &self,
        id: RecordId,
        now: TimeMs,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> LookupOutcome {
        self.obs.lookups.inc();
        let key = id.filter_key();
        {
            let span = SpanRecorder::maybe(trace, "proxy:filter");
            let filters = self.filters_snapshot();
            if filters.might_be_revoked(id.ledger, key) == Some(false) {
                self.obs.filter_negative.inc();
                span.verdict("negative");
                return LookupOutcome::NotRevokedByFilter;
            }
            span.verdict("maybe");
        }
        {
            let span = SpanRecorder::maybe(trace, "proxy:cache");
            if let Some(status) = self.cache_shards[self.shard_of(key)].lock().get(&id, now) {
                self.obs.cache_hits.inc();
                span.verdict("hit");
                return LookupOutcome::Cached(status);
            }
            span.verdict("miss");
        }
        self.obs.ledger_queries.inc();
        LookupOutcome::NeedsLedgerQuery
    }

    /// Record a ledger answer (populates the cache stripe).
    pub fn complete(&self, id: RecordId, status: RevocationStatus, now: TimeMs) {
        self.cache_shards[self.shard_of(id.filter_key())]
            .lock()
            .insert(id, status, now);
    }

    /// Last-resort read for a degraded upstream: the cached status for
    /// `id` regardless of TTL, with its age in milliseconds. Counts into
    /// `irs_proxy_stale_served_total` when it produces an answer and into
    /// `irs_proxy_unavailable_total` when it does not.
    pub fn lookup_stale(&self, id: RecordId, now: TimeMs) -> Option<(RevocationStatus, u64)> {
        let found = self.cache_shards[self.shard_of(id.filter_key())]
            .lock()
            .peek_stale(&id, now);
        match found {
            Some(hit) => {
                self.obs.stale_served.inc();
                Some(hit)
            }
            None => {
                self.obs.unavailable.inc();
                None
            }
        }
    }

    /// The circuit breaker for `ledger`, created closed on first use.
    pub fn breaker(&self, ledger: LedgerId) -> Arc<CircuitBreaker> {
        if let Some(b) = self.health.read().get(&ledger) {
            return b.clone();
        }
        let mut map = self.health.write();
        map.entry(ledger)
            .or_insert_with(|| Arc::new(CircuitBreaker::new(self.breaker_config)))
            .clone()
    }

    /// Record an upstream exchange outcome for `ledger` into its breaker
    /// (and the degradation counters).
    pub fn record_upstream(&self, ledger: LedgerId, ok: bool, now: TimeMs) {
        let breaker = self.breaker(ledger);
        if ok {
            breaker.on_success(now);
        } else {
            self.obs.upstream_failures.inc();
            breaker.on_failure(now);
        }
    }

    /// Drop a cached status (revocation push / probe finding).
    pub fn invalidate(&self, id: &RecordId) {
        self.cache_shards[self.shard_of(id.filter_key())]
            .lock()
            .invalidate(id);
    }

    /// The current filter snapshot (cheap `Arc` clone; never blocks on
    /// a refresh in progress beyond its pointer swap).
    pub fn filters_snapshot(&self) -> Arc<FilterSet> {
        self.filters.read().clone()
    }

    /// Refresh the filters: `f` runs against a private copy of the
    /// current set, which then replaces the snapshot atomically.
    /// In-flight lookups keep reading the old snapshot until the swap;
    /// concurrent refreshes are serialized.
    pub fn update_filters<R>(&self, f: impl FnOnce(&mut FilterSet) -> R) -> R {
        let _serialize = self.refresh_lock.lock();
        let current = self.filters_snapshot();
        let mut working = (*current).clone();
        let result = f(&mut working);
        *self.filters.write() = Arc::new(working);
        result
    }

    /// Cache occupancy (sum over stripes).
    pub fn cache_len(&self) -> usize {
        self.cache_shards.iter().map(|s| s.lock().len()).sum()
    }

    /// A point-in-time copy of the counters.
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            lookups: self.obs.lookups.get(),
            filter_negative: self.obs.filter_negative.get(),
            cache_hits: self.obs.cache_hits.get(),
            ledger_queries: self.obs.ledger_queries.get(),
        }
    }

    /// The proxy's metrics registry (servers attach request-path
    /// histograms here; tests read it directly).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Text exposition of every proxy metric — the payload behind the
    /// `Request::Metrics` wire message. Refreshes the point-in-time
    /// gauges (breaker trips, cache occupancy) before rendering.
    pub fn render_metrics(&self) -> String {
        self.obs
            .breaker_opens
            .set(self.health.read().values().map(|b| b.opens()).sum());
        self.obs.cache_entries.set(self.cache_len() as u64);
        let filters = self.filters_snapshot();
        self.obs.filter_rejected.set(filters.rejected);
        self.obs
            .filter_resident_bytes
            .set(filters.resident_filter_bytes());
        self.obs.registry.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::ids::LedgerId;
    use irs_filters::{BloomFilter, FilterError, Publication};
    use std::sync::atomic::Ordering;
    use std::thread;

    fn rid(n: u64) -> RecordId {
        RecordId::new(LedgerId(1), n)
    }

    fn install_filter(p: &SharedProxy, revoked: &[RecordId]) {
        let mut f = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        for id in revoked {
            f.insert(id.filter_key());
        }
        p.update_filters(|fs| fs.apply(LedgerId(1), Publication::full(1, f.to_bytes())))
            .unwrap();
    }

    /// 16 entries, 1 s TTL, `revoked` in ledger 1's filter.
    fn small_proxy(revoked: &[RecordId]) -> SharedProxy {
        let p = SharedProxy::new(ProxyConfig {
            cache_capacity: 16,
            cache_ttl_ms: 1_000,
        });
        install_filter(&p, revoked);
        p
    }

    #[test]
    fn filter_then_ledger_then_cache_until_ttl_or_invalidate() {
        let p = small_proxy(&[rid(1)]);
        // Filter miss: local. Filter hit: ledger, then cached, then TTL.
        assert_eq!(
            p.lookup(rid(777_777), TimeMs(0)),
            LookupOutcome::NotRevokedByFilter
        );
        assert_eq!(p.lookup(rid(1), TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
        p.complete(rid(1), RevocationStatus::Revoked, TimeMs(0));
        assert_eq!(
            p.lookup(rid(1), TimeMs(100)),
            LookupOutcome::Cached(RevocationStatus::Revoked)
        );
        assert_eq!(
            p.lookup(rid(1), TimeMs(2_000)),
            LookupOutcome::NeedsLedgerQuery,
            "cache entry expired"
        );
        p.complete(rid(1), RevocationStatus::Revoked, TimeMs(2_000));
        p.invalidate(&rid(1));
        assert_eq!(
            p.lookup(rid(1), TimeMs(2_001)),
            LookupOutcome::NeedsLedgerQuery,
            "invalidate purges"
        );
        let stats = p.stats();
        assert_eq!(stats.lookups, 5);
        assert_eq!(stats.filter_negative, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.ledger_queries, 3);
    }

    #[test]
    fn filter_short_circuits_unrevoked() {
        let p = small_proxy(&[rid(1), rid(2)]);
        // Ids outside the revoked set overwhelmingly answered locally.
        let local = (1_000..2_000u64)
            .filter(|&n| p.lookup(rid(n), TimeMs(0)) == LookupOutcome::NotRevokedByFilter)
            .count();
        assert!(local > 950, "local {local}");
        assert_eq!(p.stats().lookups, 1_000);
    }

    #[test]
    fn no_filter_means_query() {
        let p = SharedProxy::new(ProxyConfig::default());
        assert_eq!(p.lookup(rid(5), TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
    }

    /// Regression: a miss used to be "not revoked on any ledger" as soon
    /// as *one* ledger's filter was installed, so while another shard's
    /// first refresh was still outstanding (down, unpublished, second to
    /// arrive) its revoked photos validated as fresh with no staleness
    /// bound.
    #[test]
    fn a_filter_miss_is_authoritative_only_for_ledgers_whose_filter_is_held() {
        let p = small_proxy(&[rid(1)]);
        let foreign = RecordId::new(LedgerId(2), 7);
        assert_eq!(
            p.filters_snapshot()
                .might_be_revoked(LedgerId(2), foreign.filter_key()),
            None
        );
        assert_eq!(
            p.lookup(foreign, TimeMs(0)),
            LookupOutcome::NeedsLedgerQuery
        );
        assert_eq!(
            p.lookup(rid(7), TimeMs(0)),
            LookupOutcome::NotRevokedByFilter
        );
        // Once ledger 2's own filter arrives its misses count too, and
        // only its own: ledger 1's revoked key under ledger 2's name is a
        // different record, which ledger 2's filter clears.
        let empty = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        p.update_filters(|fs| fs.apply(LedgerId(2), Publication::full(1, empty.to_bytes())))
            .unwrap();
        assert_eq!(
            p.lookup(foreign, TimeMs(0)),
            LookupOutcome::NotRevokedByFilter
        );
        assert_eq!(
            p.filters_snapshot()
                .might_be_revoked(LedgerId(2), rid(1).filter_key()),
            Some(false)
        );
        assert_eq!(
            p.filters_snapshot()
                .might_be_revoked(LedgerId(1), rid(1).filter_key()),
            Some(true)
        );
    }

    /// A tier encoded under a retired scheme — the SHA-256 key, or the
    /// fuse slot function whose offsets followed the window — is refused,
    /// so its ledger stays filterless: every lookup goes to the ledger,
    /// none is answered "not revoked" by slots the filter never held.
    #[test]
    fn an_old_scheme_tier_is_refused_and_its_ledger_is_queried() {
        let p = SharedProxy::new(ProxyConfig::default());
        let retag = |bytes: bytes::Bytes, magic: &[u8; 4]| {
            let mut v = bytes.to_vec();
            v[..4].copy_from_slice(magic);
            bytes::Bytes::from(v)
        };
        let bloom = BloomFilter::with_params(1 << 14, 6, 0).unwrap().to_bytes();
        let base = irs_filters::Fuse8::build(&[rid(1).filter_key()])
            .unwrap()
            .to_bytes();
        let old_delta = Publication::full(1, retag(bloom.clone(), b"IRSB"));
        let old_base = |magic| Publication::Tiered {
            epoch: 2,
            base: retag(base.clone(), magic),
            delta_version: 0,
            delta: bloom.clone(),
        };
        for update in [old_delta, old_base(b"IRSU"), old_base(b"IRU2")] {
            let refused = p.update_filters(|fs| fs.apply(LedgerId(1), update));
            assert!(
                matches!(refused, Err(FilterError::Malformed(_))),
                "{refused:?}"
            );
        }
        assert_eq!(p.filters_snapshot().rejected, 3);
        assert_eq!(p.filters_snapshot().tiered_state(LedgerId(1)), (0, 0));
        for n in 0..1_000 {
            assert_eq!(p.lookup(rid(n), TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
        }
        assert_eq!(p.stats().filter_negative, 0);
    }

    /// The stripe is `reduce(mix_seeded(serial, ledger), N)`: the filter
    /// key reduced, so one mix serves the filter probe and the stripe.
    #[test]
    fn the_stripe_is_the_reduced_filter_key() {
        let p = SharedProxy::new(ProxyConfig::default());
        let n = p.cache_shards.len() as u64;
        assert_eq!(n, DEFAULT_CACHE_SHARDS as u64);
        for ledger in [0, 1, 7, u16::MAX] {
            for serial in (0..500).chain([1 << 40, u64::MAX]) {
                let id = RecordId::new(LedgerId(ledger), serial);
                let mixed = irs_filters::hash::mix_seeded(serial, u64::from(ledger));
                assert_eq!(p.shard_of(id.filter_key()), reduce(mixed, n) as usize);
            }
        }
    }

    #[test]
    fn stats_load_reduction() {
        let p = small_proxy(&[rid(1)]);
        for n in 100..200u64 {
            let _ = p.lookup(rid(n), TimeMs(0));
        }
        let s = p.stats();
        assert!(
            s.load_reduction() > 10.0,
            "reduction {}",
            s.load_reduction()
        );
        assert!(s.ledger_query_fraction() < 0.1);
        let empty = ProxyStats::default();
        assert_eq!(empty.ledger_query_fraction(), 0.0);
        assert_eq!(empty.load_reduction(), f64::INFINITY);
    }

    /// Striping changes which entry an overfull cache evicts, nothing
    /// else: on a trace that never evicts, one stripe (the exact LRU the
    /// experiment rigs run) and sixteen answer every lookup alike.
    #[test]
    fn one_stripe_and_sixteen_agree_on_a_non_evicting_trace() {
        let config = ProxyConfig {
            cache_capacity: 4_096,
            cache_ttl_ms: 1_000,
        };
        let revoked: Vec<RecordId> = (0..64).map(rid).collect();
        let one = SharedProxy::with_shards(config, 1);
        let sixteen = SharedProxy::with_shards(config, 16);
        install_filter(&one, &revoked);
        install_filter(&sixteen, &revoked);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for step in 0..4_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // 128 ids, half of them in the filter; 25 ms a step, so
            // entries also expire mid-trace.
            let (id, now) = (rid(x % 128), TimeMs(step * 25));
            let outcome = one.lookup(id, now);
            assert_eq!(outcome, sixteen.lookup(id, now), "step {step}");
            if outcome == LookupOutcome::NeedsLedgerQuery {
                one.complete(id, RevocationStatus::Revoked, now);
                sixteen.complete(id, RevocationStatus::Revoked, now);
            } else if x % 7 == 0 {
                one.invalidate(&id);
                sixteen.invalidate(&id);
            }
        }
        assert_eq!(one.stats(), sixteen.stats());
        let s = one.stats();
        assert!(s.filter_negative > 0 && s.cache_hits > 0 && s.ledger_queries > 64);
    }

    /// Regression: stripe capacities sum to `cache_capacity`. They used
    /// to be `(capacity / stripes).max(1)` each, so a 4-entry proxy held
    /// 16 and a 100-entry one 96.
    #[test]
    fn cache_capacity_is_a_bound() {
        for capacity in [1usize, 4, 16, 100, 1_024] {
            let p = SharedProxy::new(ProxyConfig {
                cache_capacity: capacity,
                cache_ttl_ms: 1_000,
            });
            for n in 0..20 * capacity as u64 + 1_000 {
                p.complete(rid(n), RevocationStatus::Revoked, TimeMs(0));
                assert!(p.cache_len() <= capacity, "capacity {capacity}");
            }
            assert_eq!(p.cache_len(), capacity, "full after overfilling");
        }
    }

    #[test]
    fn refresh_does_not_block_lookups() {
        // Readers hammer lookups while a refresher swaps snapshots with
        // an artificially slow rebuild closure. Under the old design
        // (one mutex around everything) the readers would stall for the
        // whole rebuild; here they only ever wait for a pointer swap.
        let p = Arc::new(SharedProxy::new(ProxyConfig::default()));
        install_filter(&p, &[rid(1)]);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let p = Arc::clone(&p);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let _ = p.lookup(rid(n % 10_000), TimeMs(n));
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for version in 2..20u64 {
            p.update_filters(|fs| {
                let mut f = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
                f.insert(rid(version).filter_key());
                // Simulate a slow refresh (network decode, union rebuild).
                std::thread::sleep(std::time::Duration::from_millis(2));
                fs.apply(LedgerId(1), Publication::full(version, f.to_bytes()))
            })
            .unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert_eq!(p.filters_snapshot().tiered_state(LedgerId(1)), (1, 19));
        assert_eq!(p.stats().lookups, total);
        assert!(total > 0);
    }

    #[test]
    fn stale_lookup_survives_ttl_expiry_and_counts() {
        let p = SharedProxy::new(ProxyConfig {
            cache_capacity: 16,
            cache_ttl_ms: 100,
        });
        p.complete(rid(5), RevocationStatus::Revoked, TimeMs(0));
        // Past TTL: the live path misses, the stale path still answers
        // with an honest age.
        assert_eq!(
            p.lookup(rid(5), TimeMs(500)),
            LookupOutcome::NeedsLedgerQuery
        );
        assert_eq!(
            p.lookup_stale(rid(5), TimeMs(500)),
            Some((RevocationStatus::Revoked, 500))
        );
        assert_eq!(p.lookup_stale(rid(6), TimeMs(500)), None);
        let counter = |name| p.metrics().counter(name).get();
        assert_eq!(counter("irs_proxy_stale_served_total"), 1);
        assert_eq!(counter("irs_proxy_unavailable_total"), 1);
        // Invalidation kills the stale copy too.
        p.invalidate(&rid(5));
        assert_eq!(p.lookup_stale(rid(5), TimeMs(501)), None);
    }

    #[test]
    fn per_ledger_breakers_trip_independently() {
        use crate::health::{BreakerConfig, BreakerState};
        let p = SharedProxy::new(ProxyConfig::default()).with_breaker_config(BreakerConfig {
            failure_threshold: 2,
            open_cooldown_ms: 100,
        });
        for t in 0..2 {
            p.record_upstream(LedgerId(1), false, TimeMs(t));
        }
        p.record_upstream(LedgerId(2), true, TimeMs(1));
        assert_eq!(p.breaker(LedgerId(1)).state(), BreakerState::Open);
        assert_eq!(p.breaker(LedgerId(2)).state(), BreakerState::Closed);
        let opens = p.breaker(LedgerId(1)).opens() + p.breaker(LedgerId(2)).opens();
        assert_eq!(opens, 1);
        let failures = p.metrics().counter("irs_proxy_upstream_failures_total");
        assert_eq!(failures.get(), 2);
        // Ledger 2's staleness is bounded by its last success.
        assert_eq!(p.breaker(LedgerId(2)).staleness_ms(TimeMs(11)), Some(10));
    }

    #[test]
    fn metrics_exposition_and_traced_lookup_spans() {
        let p = SharedProxy::new(ProxyConfig {
            cache_capacity: 16,
            cache_ttl_ms: 1_000,
        });
        install_filter(&p, &[rid(1)]);
        // A traced miss records both pipeline stages with verdicts.
        let rec = SpanRecorder::new();
        assert_eq!(
            p.lookup_traced(rid(1), TimeMs(0), Some(&rec)),
            LookupOutcome::NeedsLedgerQuery
        );
        let spans = rec.spans();
        let named: Vec<_> = spans.iter().map(|s| (s.name, s.verdict)).collect();
        assert_eq!(
            named,
            [("proxy:filter", "maybe"), ("proxy:cache", "miss")],
            "filter then cache, each with its verdict"
        );
        // A filter-negative trace stops at the filter stage.
        let rec = SpanRecorder::new();
        p.lookup_traced(rid(999_999), TimeMs(0), Some(&rec));
        assert_eq!(rec.spans().len(), 1);
        assert_eq!(rec.spans()[0].verdict, "negative");
        // The same counters back stats() and the text exposition.
        p.complete(rid(1), RevocationStatus::Revoked, TimeMs(0));
        p.lookup(rid(1), TimeMs(1));
        let parsed = irs_obs::parse_exposition(&p.render_metrics());
        assert_eq!(parsed["irs_proxy_lookups_total"], 3.0);
        assert_eq!(parsed["irs_proxy_filter_negative_total"], 1.0);
        assert_eq!(parsed["irs_proxy_cache_hits_total"], 1.0);
        assert_eq!(parsed["irs_proxy_cache_entries"], 1.0);
        assert_eq!(parsed["irs_proxy_filter_rejected_updates"], 0.0);
        assert!(parsed["irs_proxy_filter_resident_bytes"] > 0.0);
        // A rejected update (ledger 2's malformed install) surfaces in the
        // exposition.
        let junk = bytes::Bytes::from_static(b"not a filter");
        assert!(p
            .update_filters(|fs| fs.apply(LedgerId(2), Publication::full(1, junk)))
            .is_err());
        let parsed = irs_obs::parse_exposition(&p.render_metrics());
        assert_eq!(parsed["irs_proxy_filter_rejected_updates"], 1.0);
    }

    #[test]
    fn striped_cache_is_coherent_under_concurrency() {
        let p = Arc::new(SharedProxy::with_shards(
            ProxyConfig {
                cache_capacity: 4_096,
                cache_ttl_ms: 1_000_000,
            },
            8,
        ));
        // No filters installed: every uncached lookup says NeedsLedgerQuery.
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let p = Arc::clone(&p);
                thread::spawn(move || {
                    for i in 0..500u64 {
                        let id = rid(t * 500 + i);
                        p.complete(id, RevocationStatus::Revoked, TimeMs(0));
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        assert_eq!(p.cache_len(), 2_000);
        for n in 0..2_000u64 {
            assert_eq!(
                p.lookup(rid(n), TimeMs(1)),
                LookupOutcome::Cached(RevocationStatus::Revoked),
                "id {n}"
            );
        }
    }
}
