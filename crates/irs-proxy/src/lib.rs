//! The IRS proxy (§4.2–§4.4).
//!
//! Browsers never talk to ledgers directly; they query a proxy that
//! (a) hides the viewer's identity behind aggregation (§4.2, modeled on
//! Trusted Recursive Resolver / Oblivious DNS / Private Relay), (b) caches
//! lookups ("which would also further reduce viewing latency"), and
//! (c) holds every ledger's revoked-set filter so that a photo that misses
//! its own ledger's filter is answered locally with *definitely not
//! revoked* (§4.4, which ORs the filters; the id names its ledger, so one
//! probe of that ledger's suffices).
//!
//! * [`lru`] — the TTL'd LRU lookup cache;
//! * [`filterset`] — the one filter pipeline's proxy half: per-ledger
//!   tiers (fuse base + Bloom delta; before the first seal just the
//!   paper's Bloom), the one validated `apply`, the probe of the record's
//!   own ledger's tier, and the rule that a miss speaks only for ledgers
//!   whose filter is held;
//! * [`proxy`] — [`SharedProxy`], the one proxy: the decision pipeline
//!   (filter → cache → ledger) as a sans-io, fully `&self` state machine
//!   (snapshot-swapped filters, striped cache, atomic counters) that the
//!   simulator, the experiment rigs and the TCP server all drive;
//! * [`health`] — per-ledger circuit breakers driving the degradation
//!   ladder (retry → failover → stale-serve → fail-open);
//! * [`privacy`] — attribution accounting for experiment E13.
//!
//! The §4.2 aggregation is the proxy standing in for every viewer; there
//! is no mixing window. Upstream, a page's misses go out as pipelined
//! `Query` frames through the `irs_net::service` stack (DESIGN.md §10).

pub mod filterset;
pub mod health;
pub mod lru;
pub mod privacy;
pub mod proxy;

pub use filterset::FilterSet;
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use lru::LruTtlCache;
pub use proxy::{LookupOutcome, ProxyConfig, ProxyStats, SharedProxy};
