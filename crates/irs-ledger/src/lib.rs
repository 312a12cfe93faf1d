//! The IRS ledger service.
//!
//! §3.1: ledgers are "essentially timestamped databases of photos" backing
//! the four IRS operations. This crate implements a complete ledger:
//!
//! * [`store`] — [`LedgerStore`], the append-only claim store: dense
//!   serials from one atomic allocator, records striped per shard, every
//!   operation `&self` (the stripe count is a constructor argument; one
//!   stripe is the single-lock layout). [`LedgerStore::apply_logged`] is
//!   the one step from a logged [`WalRecord`] to store state, shared by
//!   the primary, the follower and recovery;
//! * [`service`] — [`Ledger`]: wire-protocol request handling, freshness
//!   proofs, the revoked-set filter publication (§4.4; fuse base +
//!   Bloom delta re-covered from the exact revoked set at each publish),
//!   and ledger policies (standard vs the §5 censorship-resistant
//!   "non-revocable" ledgers run by nonprofits). Its request path is
//!   entirely `&self`, so connection threads share it behind a plain
//!   `Arc` and every §5 drill below exercises the code a server runs;
//! * [`appeals`] — the §3.2 appeals process: timestamp-ordered ownership
//!   evidence plus robust-hash comparison, ending in permanent revocation
//!   of re-claimed copies;
//! * [`adversarial`] — §5 "Malicious Ledgers": fault-injection wrappers
//!   that lie, drop revocations, or serve stale state;
//! * [`probe`] — the countermeasure: "automated software that claims
//!   photos on behalf of owners could periodically send probes to ledgers
//!   to ensure that they are being answered correctly".
//!
//! Durability tier (DESIGN.md, "Durability & recovery"): [`wal`] is the
//! checksummed write-ahead log every mutation hits before it is
//! acknowledged — claims, revokes and appeal pins all take the
//! [`Ledger`]'s one durable-write step (apply and log under the stripe
//! lock, commit, time, snapshot trigger, the follower ack it owes) —
//! [`snapshot`] the periodic checkpoint that bounds replay, [`recovery`]
//! the open-time replay that seeds the store from the snapshot and
//! replays the WAL tail through `apply_logged` (failing closed on
//! anything tearing cannot explain), [`disk`] the narrow storage trait
//! they share, and [`chaosdisk`] its seeded fault-injecting double for
//! crash experiments (E17).
//!
//! Replication tier (DESIGN.md, "Replication & failover"): [`replication`]
//! ships the WAL to a [`Follower`] on another disk — every durable record
//! carries a dense sequence number, followers catch up from a seq-stamped
//! snapshot plus the live stream (each record a signature check plus the
//! same store step, logged to the follower's own WAL), and the
//! [`ReplicationPolicy`] decides whether client acks
//! wait for the replica (E20's zero-acked-loss guarantee) or only the
//! local fsync.
//!
//! Placement tier (DESIGN.md §15): [`placement`] splits the claim
//! keyspace across N such replica sets — an epoch-versioned
//! [`ShardMap`] routes claims by rendezvous hashing and record-keyed
//! requests exactly by `RecordId::ledger`; servers hold their view in a
//! [`ShardDirectory`] and reject misrouted keys with `WrongShard`.

pub mod adversarial;
pub mod appeals;
pub mod chaosdisk;
pub mod disk;
pub mod placement;
pub mod probe;
pub mod recovery;
pub mod replication;
pub mod service;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use appeals::{AppealOutcome, AppealsJudge};
pub use chaosdisk::{ChaosDisk, ChaosDiskConfig, DiskFault};
pub use disk::{Disk, StdDisk};
pub use placement::{PlacementError, ShardDirectory, ShardMap, ShardSpec};
pub use recovery::{RecoveryError, RecoveryReport};
pub use replication::{
    ApplyError, Follower, FollowerError, Held, ReplicationLog, ReplicationPolicy, SegmentData,
    Served,
};
pub use service::{Durability, DurabilityConfig, Ledger, LedgerConfig, LedgerPolicy, LedgerStats};
pub use store::{LedgerStore, StoreError};
pub use wal::{AppendReceipt, FsyncPolicy, WalError, WalRecord, WalWriter};

/// The name `benchmark/` knows the ledger by.
pub type ConcurrentLedger = Ledger;

/// Error codes carried in `Response::Error`.
pub mod codes {
    /// Record does not exist.
    pub const UNKNOWN_RECORD: u16 = 1;
    /// Ownership signature failed.
    pub const BAD_SIGNATURE: u16 = 2;
    /// Operation refused by ledger policy.
    pub const POLICY: u16 = 3;
    /// Malformed or unsupported request.
    pub const BAD_REQUEST: u16 = 4;
    /// Stale epoch in a revoke request.
    pub const STALE_EPOCH: u16 = 5;
    /// Upstream ledger unreachable and no degraded answer available
    /// (returned by proxies, never by a ledger itself).
    pub const UNAVAILABLE: u16 = 6;
    /// Durable storage failed; the operation was not acknowledged and
    /// must be retried (the in-memory state may already reflect it, but
    /// nothing un-logged is promised across a restart).
    pub const STORAGE: u16 = 7;
}
