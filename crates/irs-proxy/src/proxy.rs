//! The proxy decision pipeline.
//!
//! Sans-io: [`IrsProxy::lookup`] classifies a validation request into a
//! local answer or a required ledger query, and [`IrsProxy::complete`]
//! feeds the ledger's answer back. The caller (simulator event handler or
//! TCP connection thread) owns all actual I/O, so one implementation
//! serves both deployments — the structured-concurrency-friendly shape
//! the networking guides recommend.

use crate::filterset::FilterSet;
use crate::lru::LruTtlCache;
use irs_core::claim::RevocationStatus;
use irs_core::ids::RecordId;
use irs_core::time::TimeMs;

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
    /// Answered locally: the merged revoked-set filter misses, so no
    /// ledger has this record revoked.
    NotRevokedByFilter,
    /// Answered locally from the status cache.
    Cached(RevocationStatus),
    /// The caller must query the record's home ledger and then call
    /// [`IrsProxy::complete`].
    NeedsLedgerQuery,
}

/// Load/behavior counters (read by experiments E4/E5/E13/E14).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Total lookups served.
    pub lookups: u64,
    /// Lookups short-circuited by the merged filter.
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

/// The IRS proxy.
///
/// ```
/// use irs_proxy::{FilterUpdate, IrsProxy, LookupOutcome, ProxyConfig};
/// use irs_core::claim::RevocationStatus;
/// use irs_core::ids::{LedgerId, RecordId};
/// use irs_core::time::TimeMs;
/// use irs_filters::BloomFilter;
///
/// let mut proxy = IrsProxy::new(ProxyConfig::default());
/// // Install a ledger's revoked-set filter containing one record.
/// let revoked = RecordId::new(LedgerId(1), 7);
/// let mut f = BloomFilter::for_capacity(1_000, 0.02).unwrap();
/// f.insert(revoked.filter_key());
/// let update = FilterUpdate::full(1, f.to_bytes());
/// proxy.filters.apply(LedgerId(1), update).unwrap();
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
pub struct IrsProxy {
    /// Per-ledger filters and their OR.
    pub filters: FilterSet,
    cache: LruTtlCache<RecordId, RevocationStatus>,
    /// Counters.
    pub stats: ProxyStats,
    config: ProxyConfig,
}

impl IrsProxy {
    /// Create a proxy.
    pub fn new(config: ProxyConfig) -> IrsProxy {
        IrsProxy {
            filters: FilterSet::new(),
            cache: LruTtlCache::new(config.cache_capacity, config.cache_ttl_ms),
            stats: ProxyStats::default(),
            config,
        }
    }

    /// The configuration this proxy was built with.
    pub fn config(&self) -> ProxyConfig {
        self.config
    }

    /// Classify a lookup. Order: merged revoked-set filter (cheapest,
    /// answers the common "viewed photo is not revoked" case), then
    /// cache, then ledger.
    pub fn lookup(&mut self, id: RecordId, now: TimeMs) -> LookupOutcome {
        self.stats.lookups += 1;
        if self.filters.might_be_revoked(id.filter_key()) == Some(false) {
            self.stats.filter_negative += 1;
            return LookupOutcome::NotRevokedByFilter;
        }
        if let Some(status) = self.cache.get(&id, now) {
            self.stats.cache_hits += 1;
            return LookupOutcome::Cached(status);
        }
        self.stats.ledger_queries += 1;
        LookupOutcome::NeedsLedgerQuery
    }

    /// Record a ledger answer (populates the cache).
    pub fn complete(&mut self, id: RecordId, status: RevocationStatus, now: TimeMs) {
        self.cache.insert(id, status, now);
    }

    /// Drop a cached status (revocation push / probe finding).
    pub fn invalidate(&mut self, id: &RecordId) {
        self.cache.invalidate(id);
    }

    /// Cache occupancy.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filterset::FilterUpdate;
    use irs_core::ids::LedgerId;
    use irs_filters::BloomFilter;

    fn rid(n: u64) -> RecordId {
        RecordId::new(LedgerId(1), n)
    }

    fn proxy_with_filter(revoked: &[RecordId]) -> IrsProxy {
        let mut p = IrsProxy::new(ProxyConfig {
            cache_capacity: 16,
            cache_ttl_ms: 1_000,
        });
        let mut f = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        for id in revoked {
            f.insert(id.filter_key());
        }
        p.filters
            .apply(LedgerId(1), FilterUpdate::full(1, f.to_bytes()))
            .unwrap();
        p
    }

    #[test]
    fn filter_short_circuits_unrevoked() {
        let mut p = proxy_with_filter(&[rid(1), rid(2)]);
        // Ids outside the revoked set overwhelmingly answered locally.
        let mut local = 0;
        for n in 1_000..2_000u64 {
            if p.lookup(rid(n), TimeMs(0)) == LookupOutcome::NotRevokedByFilter {
                local += 1;
            }
        }
        assert!(local > 950, "local {local}");
        assert_eq!(p.stats.lookups, 1_000);
    }

    #[test]
    fn filter_hit_goes_to_ledger_then_cache() {
        let mut p = proxy_with_filter(&[rid(1)]);
        assert_eq!(p.lookup(rid(1), TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
        p.complete(rid(1), RevocationStatus::Revoked, TimeMs(0));
        assert_eq!(
            p.lookup(rid(1), TimeMs(100)),
            LookupOutcome::Cached(RevocationStatus::Revoked)
        );
        assert_eq!(p.stats.ledger_queries, 1);
        assert_eq!(p.stats.cache_hits, 1);
    }

    #[test]
    fn cache_expiry_forces_requery() {
        let mut p = proxy_with_filter(&[rid(1)]);
        p.lookup(rid(1), TimeMs(0));
        p.complete(rid(1), RevocationStatus::NotRevoked, TimeMs(0));
        assert!(matches!(
            p.lookup(rid(1), TimeMs(500)),
            LookupOutcome::Cached(_)
        ));
        // Past the 1s TTL.
        assert_eq!(
            p.lookup(rid(1), TimeMs(1_500)),
            LookupOutcome::NeedsLedgerQuery
        );
    }

    #[test]
    fn no_filter_means_query() {
        let mut p = IrsProxy::new(ProxyConfig::default());
        assert_eq!(p.lookup(rid(5), TimeMs(0)), LookupOutcome::NeedsLedgerQuery);
    }

    #[test]
    fn invalidate_purges_cache() {
        let mut p = proxy_with_filter(&[rid(1)]);
        p.lookup(rid(1), TimeMs(0));
        p.complete(rid(1), RevocationStatus::NotRevoked, TimeMs(0));
        p.invalidate(&rid(1));
        assert_eq!(p.lookup(rid(1), TimeMs(1)), LookupOutcome::NeedsLedgerQuery);
    }

    #[test]
    fn stats_load_reduction() {
        let mut p = proxy_with_filter(&[rid(1)]);
        for n in 100..200u64 {
            let _ = p.lookup(rid(n), TimeMs(0));
        }
        let s = p.stats;
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
}
