//! The IRS proxy (§4.2–§4.4).
//!
//! Browsers never talk to ledgers directly; they query a proxy that
//! (a) hides the viewer's identity behind aggregation (§4.2, modeled on
//! Trusted Recursive Resolver / Oblivious DNS / Private Relay), (b) caches
//! lookups ("which would also further reduce viewing latency"), and
//! (c) holds the OR of every ledger's Bloom filter so that photos that hit
//! no filter are answered locally with *definitely not revoked* (§4.4).
//!
//! * [`lru`] — the TTL'd LRU lookup cache;
//! * [`filterset`] — per-ledger filter versions, delta refresh, and the
//!   merged OR filter;
//! * [`proxy`] — [`IrsProxy`]: the decision pipeline (filter → cache →
//!   ledger) as a sans-io state machine usable from both the simulator and
//!   the TCP server;
//! * [`batch`] — upstream query batching with a k-anonymity floor (the
//!   aggregation that §4.2's privacy argument rests on);
//! * [`privacy`] — attribution accounting for experiment E13.

//! * [`shared`] — [`SharedProxy`]: the same pipeline with a fully
//!   `&self` lookup path (snapshot-swapped filters, striped cache,
//!   atomic counters) for multi-threaded servers;
//! * [`health`] — per-ledger circuit breakers driving the degradation
//!   ladder (retry → failover → stale-serve → fail-open).

pub mod batch;
pub mod filterset;
pub mod health;
pub mod lru;
pub mod privacy;
pub mod proxy;
pub mod shared;

pub use batch::{Batch, BatchConfig, Batcher};
pub use filterset::{FilterSet, FilterUpdate};
pub use health::{BreakerConfig, BreakerState, CircuitBreaker};
pub use lru::LruTtlCache;
pub use proxy::{IrsProxy, LookupOutcome, ProxyConfig, ProxyStats};
pub use shared::{DegradedStats, SharedProxy};
