//! The ledger service: protocol handling, filter publication, proofs,
//! durability.
//!
//! [`Ledger`] wraps a [`LedgerStore`] with the wire protocol, a signing
//! key for freshness proofs, versioned revoked-set filter snapshots with
//! delta publication (§4.4: "updated regularly (perhaps hourly), and
//! transferred with a delta encoding"), the ledger policy knob that
//! models the §5 censorship-resistant ledgers, and — when opened with
//! [`Ledger::recover`] — a write-ahead log every mutation hits before
//! it is acknowledged.
//!
//! The whole request path is `&self`: connection threads call
//! [`Ledger::handle`] directly behind a plain `Arc`, no whole-service
//! mutex. Striped record state lives in the store; service-level state
//! is either immutable (keys, config), atomic (request counters), or a
//! read-mostly snapshot behind a brief `RwLock` (the published filter:
//! serves clone an `Arc` out and diff off the lock).

use crate::codes;
use crate::disk::Disk;
use crate::placement::ShardDirectory;
use crate::recovery::{recover_store, RecoveryError, RecoveryReport};
use crate::replication::{
    ApplyError, Held, ReplicationLog, ReplicationPolicy, Served, DEFAULT_RETAIN_FRAMES,
};
use crate::snapshot::encode_snapshot;
use crate::store::{ClaimOrigin, LedgerStore, StoreError, DEFAULT_SHARDS, FRESH_SERIAL};
use crate::wal::{AppendReceipt, FsyncPolicy, WalError, WalRecord, WalStats, WalWriter};
use irs_core::claim::{ClaimRequest, RevocationStatus};
use irs_core::freshness::FreshnessProof;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::{TimestampAuthority, TimestampToken};
use irs_core::wire::{Request, Response};
use irs_crypto::{Keypair, PublicKey};
use irs_filters::{Publication, TieredConfig, TieredPublisher, TieredSnapshot};
use irs_obs::{Counter, Gauge, Histogram, Registry, SpanRecorder};
use parking_lot::{Mutex, RwLock};
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Ledger behavioral policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LedgerPolicy {
    /// Normal commercial ledger: owners may revoke and unrevoke.
    Standard,
    /// §5 "Enabling Censorship?": a nonprofit ledger for e.g. human-rights
    /// documentation that "could register photos and not allow their
    /// revocation".
    NonRevocable,
}

/// Configuration for a ledger instance.
#[derive(Clone, Debug)]
pub struct LedgerConfig {
    /// This ledger's ecosystem identifier.
    pub id: LedgerId,
    /// Behavioral policy.
    pub policy: LedgerPolicy,
    /// Validity window for freshness proofs (ms). §3.2's "recently
    /// verified"; also the aggregator recheck period.
    pub proof_validity_ms: u64,
    /// Seeds the ledger's Ed25519 signing key, the key its freshness
    /// proofs are signed with ([`LedgerConfig::new`] uses the ledger id).
    pub seed: u64,
    /// Sizing of the published filter (fuse base + Bloom delta): delta
    /// capacity/FPR and the compaction threshold (DESIGN.md §16).
    pub tiered: TieredConfig,
}

impl LedgerConfig {
    /// Reasonable defaults for simulations.
    pub fn new(id: LedgerId) -> LedgerConfig {
        LedgerConfig {
            id,
            policy: LedgerPolicy::Standard,
            proof_validity_ms: 3_600_000, // 1 hour
            seed: id.0 as u64,
            tiered: TieredConfig::default(),
        }
    }
}

/// Request counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Single status queries served.
    pub queries: u64,
    /// Claims recorded.
    pub claims: u64,
    /// Revocations processed (including unrevokes).
    pub revokes: u64,
    /// Filter deltas served.
    pub filters_delta: u64,
    /// Sealed fuse bases served (epoch roll).
    pub filters_base: u64,
    /// Full tiered installs served (bootstrap or multi-epoch lag).
    pub filters_tiered: u64,
    /// Freshness proofs issued.
    pub proofs: u64,
}

/// File name of the write-ahead log inside the [`Disk`] namespace.
pub const WAL_PATH: &str = "ledger.wal";
/// File name of the snapshot inside the [`Disk`] namespace.
pub const SNAPSHOT_PATH: &str = "ledger.snap";

/// The ledger's observability surface: the [`LedgerStats`] counters as
/// sharded [`Counter`]s in a [`Registry`], plus durability gauges and
/// latency histograms for the persistence path. The handles are cached
/// here so the request path never takes the registry's name lock.
struct LedgerObs {
    registry: Arc<Registry>,
    /// Misrouted keyed requests refused with `WrongShard`.
    wrong_shard: Counter,
    queries: Counter,
    claims: Counter,
    revokes: Counter,
    filters_delta: Counter,
    /// Sealed fuse bases served (epoch roll).
    filters_base: Counter,
    /// Full tiered installs served (bootstrap or multi-epoch lag).
    filters_tiered: Counter,
    proofs: Counter,
    /// Committed records (refreshed on scrape).
    records: Gauge,
    /// Published filter version (refreshed on scrape).
    filter_version: Gauge,
    /// Tiered epoch (refreshed on scrape).
    tiered_epoch: Gauge,
    /// 1 when a WAL is attached, 0 for a memory-only ledger.
    durable: Gauge,
    /// Wall time of one durable apply (shard write + WAL append + commit).
    durable_apply_us: Histogram,
    /// Wall time of one full checkpoint.
    snapshot_us: Histogram,
}

impl LedgerObs {
    fn new() -> LedgerObs {
        let registry = Arc::new(Registry::new());
        LedgerObs {
            wrong_shard: registry.counter("irs_ledger_wrong_shard_total"),
            queries: registry.counter("irs_ledger_queries_total"),
            claims: registry.counter("irs_ledger_claims_total"),
            revokes: registry.counter("irs_ledger_revokes_total"),
            filters_delta: registry.counter("irs_ledger_filters_delta_total"),
            filters_base: registry.counter("irs_ledger_filters_base_total"),
            filters_tiered: registry.counter("irs_ledger_filters_tiered_total"),
            proofs: registry.counter("irs_ledger_proofs_total"),
            records: registry.gauge("irs_ledger_records"),
            filter_version: registry.gauge("irs_ledger_filter_version"),
            tiered_epoch: registry.gauge("irs_ledger_tiered_epoch"),
            durable: registry.gauge("irs_ledger_durable"),
            durable_apply_us: registry.histogram("irs_ledger_durable_apply_us"),
            snapshot_us: registry.histogram("irs_ledger_snapshot_us"),
            registry,
        }
    }

    fn stats_snapshot(&self) -> LedgerStats {
        LedgerStats {
            queries: self.queries.get(),
            claims: self.claims.get(),
            revokes: self.revokes.get(),
            filters_delta: self.filters_delta.get(),
            filters_base: self.filters_base.get(),
            filters_tiered: self.filters_tiered.get(),
            proofs: self.proofs.get(),
        }
    }
}

/// How a durable ledger persists: where, how eagerly, and how often it
/// checkpoints.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Storage backend ([`crate::StdDisk`] in production,
    /// [`crate::ChaosDisk`] in crash experiments).
    pub disk: Arc<dyn Disk>,
    /// When acknowledgements imply an fsync.
    pub fsync: FsyncPolicy,
    /// Snapshot (and truncate the log) after this many logged operations;
    /// `None` disables automatic snapshots ([`Ledger::snapshot_now`]
    /// still works).
    pub snapshot_every: Option<u64>,
    /// When acknowledgements additionally wait on follower replication
    /// (see [`ReplicationPolicy`]).
    pub replication: ReplicationPolicy,
}

impl DurabilityConfig {
    /// Durability on `disk` with the given fsync policy, no automatic
    /// snapshots, and local-only replication.
    pub fn new(disk: Arc<dyn Disk>, fsync: FsyncPolicy) -> DurabilityConfig {
        DurabilityConfig {
            disk,
            fsync,
            snapshot_every: None,
            replication: ReplicationPolicy::LocalOnly,
        }
    }
}

/// The live durability state of a [`Ledger`].
pub struct Durability {
    wal: WalWriter,
    disk: Arc<dyn Disk>,
    snapshot_every: Option<u64>,
    ops_since_snapshot: AtomicU64,
    /// Guards against concurrent automatic snapshots; requests that lose
    /// the race skip (the winner's snapshot covers their operations).
    snapshotting: AtomicBool,
    /// Shipped-frame retention, follower acks and the replies held on them.
    replication: Arc<ReplicationLog>,
    replication_policy: ReplicationPolicy,
}

impl Durability {
    /// WAL activity counters (appends, fsyncs, piggybacked commits).
    pub fn wal_stats(&self) -> WalStats {
        self.wal.stats()
    }

    /// Current WAL `(generation, byte length)`.
    pub fn wal_position(&self) -> (u64, u64) {
        self.wal.position()
    }

    /// The replication log followers tail (tests observe acks through it).
    pub fn replication(&self) -> &Arc<ReplicationLog> {
        &self.replication
    }

    /// Highest sequence number safe to ship to a follower.
    pub fn replicable_seq(&self) -> u64 {
        self.wal.replicable_seq()
    }

    /// How long a write waits for its follower ack (`WaitForFollower`'s
    /// `timeout_ms`; zero under `LocalOnly`, which owes none).
    fn ack_timeout(&self) -> Duration {
        match self.replication_policy {
            ReplicationPolicy::WaitForFollower { timeout_ms } => Duration::from_millis(timeout_ms),
            ReplicationPolicy::LocalOnly => Duration::ZERO,
        }
    }

    /// Append `rec` to the WAL and retain its frame for followers (a
    /// follower retains frames too, so that once promoted it can serve
    /// followers of its own). Called under the shard lock that made the
    /// mutation, so log order is the order mutations took effect.
    fn log(&self, rec: &WalRecord) -> Result<AppendReceipt, WalError> {
        let receipt = self.wal.append(rec)?;
        self.replication.publish(receipt.seq, rec.encode_framed());
        Ok(receipt)
    }
}

/// A complete IRS ledger. Its entire request path is `&self`: safe to
/// share across connection threads behind a plain `Arc`.
pub struct Ledger {
    config: LedgerConfig,
    store: LedgerStore,
    signing_key: Keypair,
    tsa_key: PublicKey,
    /// Publications so far (0 = never published; serves refuse until
    /// the first one). Bumped under the `tiered` mutex, after the
    /// snapshot rotation (Release): a serve that reads n ≥ 1 (Acquire)
    /// finds at least the n-th publication behind `tiered_snap`.
    publications: AtomicU64,
    /// The publication state machine. A publish holds this mutex from
    /// the revoked-key cut to the pointer rotation below (so publishers
    /// serialize, fuse construction at compaction included); serving
    /// never takes it.
    tiered: Mutex<TieredPublisher>,
    /// The publication serves read: an `Arc` rotated under a brief write
    /// lock after each publish, cloned out under a brief read lock.
    tiered_snap: RwLock<Arc<TieredSnapshot>>,
    obs: LedgerObs,
    durability: Option<Durability>,
    recovery_report: Option<RecoveryReport>,
    /// The shard this ledger serves plus its view of the placement
    /// (DESIGN.md §15). Unset on unsharded deployments — every guard
    /// below is then a no-op, so single-shard behavior is unchanged.
    shard_dir: OnceLock<Arc<ShardDirectory>>,
}

impl Ledger {
    /// Create a fresh memory-only ledger with [`DEFAULT_SHARDS`] stripes.
    /// The TSA is shared ecosystem infrastructure; the signing key is
    /// derived from the config seed (deterministic for experiments).
    pub fn new(config: LedgerConfig, tsa: TimestampAuthority) -> Ledger {
        Ledger::with_shards(config, tsa, DEFAULT_SHARDS)
    }

    /// Create with an explicit stripe count (one stripe is the
    /// single-lock layout).
    pub fn with_shards(config: LedgerConfig, tsa: TimestampAuthority, num_shards: usize) -> Ledger {
        let tsa_key = tsa.public_key();
        let store = LedgerStore::new(config.id, tsa, num_shards);
        Ledger::assemble(config, tsa_key, store, None)
    }

    /// Open a durable ledger: recover whatever state the disk holds
    /// (snapshot + WAL tail replay, see [`crate::recovery`]), then attach
    /// a write-ahead log so every further mutation is persisted before it
    /// is acknowledged. A fresh disk recovers to an empty ledger; a
    /// corrupt one refuses to start (fail closed).
    pub fn recover(
        config: LedgerConfig,
        tsa: TimestampAuthority,
        num_shards: usize,
        durability: DurabilityConfig,
    ) -> Result<Ledger, RecoveryError> {
        let tsa_key = tsa.public_key();
        let (store, report) = recover_store(
            &durability.disk,
            WAL_PATH,
            SNAPSHOT_PATH,
            config.id,
            tsa,
            num_shards,
        )?;
        let wal = WalWriter::open(
            durability.disk.clone(),
            WAL_PATH,
            config.id,
            durability.fsync,
        )?;
        Ok(Ledger::assemble(
            config,
            tsa_key,
            store,
            Some((report, wal, durability)),
        ))
    }

    /// The one place a ledger is put together: keys, store, publication
    /// state, and — given a recovery report and an open log — durability.
    fn assemble(
        config: LedgerConfig,
        tsa_key: PublicKey,
        store: LedgerStore,
        durable: Option<(RecoveryReport, WalWriter, DurabilityConfig)>,
    ) -> Ledger {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&config.seed.to_le_bytes());
        seed[8..16].copy_from_slice(b"IRSLEDGR");
        let obs = LedgerObs::new();
        let (recovery_report, durability) = match durable {
            None => (None, None),
            Some((report, wal, cfg)) => {
                let replication = Arc::new(ReplicationLog::new(
                    wal.last_seq() + 1,
                    DEFAULT_RETAIN_FRAMES,
                    &obs.registry,
                ));
                let durability = Durability {
                    wal,
                    disk: cfg.disk,
                    snapshot_every: cfg.snapshot_every,
                    ops_since_snapshot: AtomicU64::new(0),
                    snapshotting: AtomicBool::new(false),
                    replication,
                    replication_policy: cfg.replication,
                };
                (Some(report), Some(durability))
            }
        };
        let tiered = TieredPublisher::new(config.tiered).expect("valid tiered filter config");
        Ledger {
            store,
            signing_key: Keypair::from_seed(&seed),
            tsa_key,
            publications: AtomicU64::new(0),
            tiered_snap: RwLock::new(tiered.snapshot()),
            tiered: Mutex::new(tiered),
            obs,
            config,
            durability,
            recovery_report,
            shard_dir: OnceLock::new(),
        }
    }

    /// This ledger's identifier.
    pub fn id(&self) -> LedgerId {
        self.config.id
    }

    /// The key proofs are signed with.
    pub fn public_key(&self) -> PublicKey {
        self.signing_key.public
    }

    /// The timestamp authority key claims are stamped with.
    pub fn tsa_key(&self) -> PublicKey {
        self.tsa_key
    }

    /// The striped store (experiments, appeals, probes).
    pub fn store(&self) -> &LedgerStore {
        &self.store
    }

    /// A point-in-time copy of the request counters.
    pub fn stats(&self) -> LedgerStats {
        self.obs.stats_snapshot()
    }

    /// The metrics registry (counters, durability gauges, histograms).
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// Render the metrics exposition, refreshing the point-in-time
    /// gauges (record count, published filter version, durability flag)
    /// first. This is what [`Request::Metrics`] answers with.
    pub fn metrics_text(&self) -> String {
        self.obs.records.set(self.store.len() as u64);
        self.obs.filter_version.set(self.filter_version());
        self.obs.tiered_epoch.set(self.tiered_epoch());
        self.obs.durable.set(self.durability.is_some() as u64);
        self.obs.registry.render()
    }

    /// Handle one wire request at the given time. `&self`: any number of
    /// connection threads may call this concurrently. A reply the
    /// request path holds on replication is resolved in place: a write
    /// waits (bounded) for its follower ack, a poll with nothing to ship
    /// is answered empty at once.
    pub fn handle(&self, request: Request, now: TimeMs) -> Response {
        self.handle_traced(request, now, None)
    }

    /// [`handle`](Self::handle) with an optional span recorder: the
    /// durable apply and checkpoint paths record `ledger:wal` /
    /// `ledger:snapshot` spans into it.
    pub fn handle_traced(
        &self,
        request: Request,
        now: TimeMs,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> Response {
        match self.serve_traced(request, now, trace) {
            Served::Ready(response) => response,
            Served::Held(held) => held.wait(),
        }
    }

    /// The request path without waiting on replication: a committed write
    /// under `WaitForFollower`, and a `WalSubscribe` with nothing to ship,
    /// come back [`Held`] for the caller to park (a server) or block on
    /// ([`handle`](Self::handle)).
    pub fn serve(&self, request: Request, now: TimeMs) -> Served {
        self.serve_traced(request, now, None)
    }

    fn serve_traced(
        &self,
        request: Request,
        now: TimeMs,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> Served {
        if let Some(refusal) = self.shard_guard(&request) {
            return refusal.into();
        }
        match request {
            Request::Claim(req) => {
                match self.claim_logged(req, ClaimOrigin::Owner, false, now, trace) {
                    Ok((id, timestamp, owed)) => {
                        self.when_acked(owed, Response::Claimed { id, timestamp })
                    }
                    Err(_) => err(codes::STORAGE, "durable log write failed").into(),
                }
            }
            Request::Query { id } => {
                self.obs.queries.inc();
                match self.store.status(&id) {
                    Some((status, epoch)) => Response::Status { id, status, epoch },
                    None => err(codes::UNKNOWN_RECORD, "unknown record"),
                }
                .into()
            }
            Request::Revoke(req) => {
                if self.config.policy == LedgerPolicy::NonRevocable && req.revoke {
                    return err(codes::POLICY, "this ledger does not allow revocation").into();
                }
                self.obs.revokes.inc();
                let (verdict, owed) = match self.durable_write(&WalRecord::Revoke(req), trace) {
                    Ok(written) => written,
                    Err(_) => return err(codes::STORAGE, "durable log write failed").into(),
                };
                let refusal = match verdict {
                    Ok((status, epoch)) => {
                        let ack = Response::RevokeAck {
                            id: req.id,
                            status,
                            epoch,
                        };
                        return self.when_acked(owed, ack);
                    }
                    Err(StoreError::UnknownRecord) => err(codes::UNKNOWN_RECORD, "unknown record"),
                    Err(StoreError::BadSignature) => err(codes::BAD_SIGNATURE, "bad signature"),
                    Err(StoreError::StaleEpoch) => err(codes::STALE_EPOCH, "stale epoch"),
                    // Only the follower apply path can produce this.
                    Err(StoreError::DuplicateSerial) => err(codes::STORAGE, "duplicate serial"),
                    Err(StoreError::Permanent) => err(codes::POLICY, "permanently revoked"),
                };
                refusal.into()
            }
            Request::GetFilterTiered {
                have_epoch,
                have_version,
            } => self.serve_filter_tiered(have_epoch, have_version).into(),
            Request::GetProof { id } => {
                self.obs.proofs.inc();
                match self.store.status(&id) {
                    Some((status, _)) => Response::Proof(self.issue_proof(id, status, now)),
                    None => err(codes::UNKNOWN_RECORD, "unknown record"),
                }
                .into()
            }
            Request::Metrics => Response::MetricsText(self.metrics_text()).into(),
            Request::Ping => Response::Pong.into(),
            Request::WalSubscribe {
                from_seq,
                max_frames,
            } => self.serve_wal_subscribe(from_seq, max_frames),
            Request::FetchSnapshot => self.serve_replication_snapshot().into(),
            // Reached only without a directory: the guard above serves
            // the map whenever one is attached.
            Request::GetShardMap => {
                err(codes::UNAVAILABLE, "this ledger has no shard directory").into()
            }
        }
    }

    /// `reply` to a logged write: at once, or [`Held`] until a follower
    /// acks `owed` (the write's sequence number under `WaitForFollower`).
    fn when_acked(&self, owed: Option<u64>, reply: Response) -> Served {
        match (owed, &self.durability) {
            (Some(seq), Some(d)) => {
                let log = d.replication.clone();
                let timeout = d.ack_timeout();
                Served::Held(Held::ack(log, seq, reply, timeout, ack_timeout_error()))
            }
            _ => reply.into(),
        }
    }

    /// Attach this server's shard identity + placement view. Callable
    /// once, before serving; returns `false` (and changes nothing) if a
    /// directory is already attached. Subsequent epoch bumps go through
    /// [`ShardDirectory::install`] on the shared handle.
    pub fn set_shard_directory(&self, dir: Arc<ShardDirectory>) -> bool {
        self.shard_dir.set(dir).is_ok()
    }

    /// The placement guard (DESIGN.md §15): with a directory attached,
    /// answer `GetShardMap` from it and refuse keyed requests this
    /// shard does not own with `WrongShard { epoch }` — claims by
    /// rendezvous over the claim digest, record-keyed requests exactly
    /// by `RecordId::ledger`. Unkeyed requests (filters, metrics,
    /// replication, ping) always serve locally.
    fn shard_guard(&self, request: &Request) -> Option<Response> {
        let dir = self.shard_dir.get()?;
        if matches!(request, Request::GetShardMap) {
            let map = dir.current();
            return Some(Response::ShardMap {
                epoch: map.epoch(),
                data: map.to_bytes().into(),
            });
        }
        let own = dir.own()?;
        let misrouted = match request {
            Request::Claim(c) => dir.current().shard_for_claim(c).ledger != own,
            Request::Query { id } | Request::GetProof { id } => id.ledger != own,
            Request::Revoke(r) => r.id.ledger != own,
            _ => false,
        };
        if misrouted {
            self.obs.wrong_shard.inc();
            Some(Response::WrongShard { epoch: dir.epoch() })
        } else {
            None
        }
    }

    /// Serve one bounded batch of durable WAL frames to a polling
    /// follower. Polling `from_seq = n` doubles as the follower's
    /// acknowledgement of every sequence number below `n`, up to the
    /// replicable mark no follower of ours can have passed; the ack is
    /// recorded first, so a poll that then finds nothing to ship is
    /// [`Held`] until a commit gives it a frame.
    fn serve_wal_subscribe(&self, from_seq: u64, max_frames: u32) -> Served {
        let Some(d) = &self.durability else {
            return err(codes::UNAVAILABLE, "this ledger has no durable log").into();
        };
        let replicable = d.wal.replicable_seq();
        let acked = from_seq.saturating_sub(1);
        if acked <= replicable {
            d.replication.record_ack(acked);
        }
        let seg = d.replication.segment(from_seq, max_frames, replicable);
        if seg.frames.is_empty() && seg.log_start_seq <= from_seq {
            return Served::Held(Held::ship(d.replication.clone(), max_frames, seg));
        }
        Response::from(seg).into()
    }

    /// Serve a full state snapshot plus the sequence number it covers,
    /// for follower bootstrap.
    fn serve_replication_snapshot(&self) -> Response {
        match self.replication_snapshot() {
            Ok((seq, data)) => Response::Snapshot {
                seq,
                data: data.into(),
            },
            Err(_) => err(codes::UNAVAILABLE, "this ledger has no durable log"),
        }
    }

    /// Claim custodially (aggregator ingestion path).
    pub fn claim_custodial(
        &self,
        req: ClaimRequest,
        now: TimeMs,
    ) -> Result<(RecordId, TimestampToken), WalError> {
        self.claim_as(req, ClaimOrigin::Custodial, false, now, None)
    }

    /// Claim with the "auto-register revoked" default.
    pub fn claim_revoked(
        &self,
        req: ClaimRequest,
        now: TimeMs,
    ) -> Result<(RecordId, TimestampToken), WalError> {
        self.claim_as(req, ClaimOrigin::Owner, true, now, None)
    }

    /// Permanently revoke (appeals outcome), durably when a WAL is
    /// attached. The outer error is storage, the inner the store verdict.
    pub fn permanently_revoke(&self, id: &RecordId) -> Result<Result<(), StoreError>, WalError> {
        let pin = WalRecord::AppealPin { id: *id };
        let (verdict, owed) = self.durable_write(&pin, None)?;
        // The pin has no wire reply; any stands in for "acked".
        acked(self.when_acked(owed, Response::Pong))?;
        Ok(verdict.map(drop))
    }

    /// Apply one record shipped from a primary (the follower apply
    /// path): the record's signature is checked at this trust boundary,
    /// then it goes through the store step recovery replays with, so the
    /// primary's serial, origin, timestamp, status and epoch are kept
    /// exactly — a follower's state is byte-identical to the stream it
    /// applied — and the record is appended to the *local* WAL under the
    /// stripe lock that mutates the store, as on the primary. The append
    /// is not committed here; callers batch one commit per segment via
    /// [`commit_replicated`](Self::commit_replicated).
    pub(crate) fn apply_replicated(&self, record: &WalRecord) -> Result<AppendReceipt, ApplyError> {
        let Some(d) = &self.durability else {
            return Err(ApplyError::Wal(WalError::Io(io::Error::other(
                "follower has no durable log",
            ))));
        };
        let mut logged = None;
        self.store
            .apply_verified(record, || logged = Some(d.log(record)))?;
        Ok(logged.expect("an applied record is logged")?)
    }

    /// Commit the local WAL through `lsn` (follower batch commit).
    pub(crate) fn commit_replicated(&self, lsn: u64) -> Result<(), WalError> {
        match &self.durability {
            Some(d) => d.wal.commit(lsn),
            None => Ok(()),
        }
    }

    /// Cut a follower-bootstrap snapshot: the full record set plus the
    /// sequence number it covers, captured under every shard lock so
    /// both describe the same instant (appends assign seqs under shard
    /// locks, so no in-flight record can fall between them). The
    /// encoding is anchored at `(generation 0, header offset)` — the
    /// follower re-anchors it to its own fresh WAL anyway.
    pub fn replication_snapshot(&self) -> Result<(u64, Vec<u8>), WalError> {
        let Some(d) = &self.durability else {
            return Err(WalError::Io(io::Error::other(
                "this ledger has no durable log",
            )));
        };
        let (records, seq) = self.store.frozen_copy(|| d.wal.last_seq());
        let header_end = crate::wal::WAL_HEADER_LEN as u64;
        Ok((
            seq,
            encode_snapshot(self.config.id, 0, header_end, &records),
        ))
    }

    /// Stamp a new claim at the next serial, write it durably and wait
    /// for the replication policy.
    fn claim_as(
        &self,
        req: ClaimRequest,
        origin: ClaimOrigin,
        initially_revoked: bool,
        now: TimeMs,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> Result<(RecordId, TimestampToken), WalError> {
        let (id, timestamp, owed) =
            self.claim_logged(req, origin, initially_revoked, now, trace)?;
        acked(self.when_acked(owed, Response::Claimed { id, timestamp }))?;
        Ok((id, timestamp))
    }

    /// Stamp a new claim at the next serial and write it durably; the
    /// sequence number a follower must still ack comes back with it.
    fn claim_logged(
        &self,
        req: ClaimRequest,
        origin: ClaimOrigin,
        initially_revoked: bool,
        now: TimeMs,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> Result<(RecordId, TimestampToken, Option<u64>), WalError> {
        self.obs.claims.inc();
        let (id, timestamp, record) = self.store.new_claim(req, origin, initially_revoked, now);
        let (verdict, owed) = self.durable_write(&record, trace)?;
        verdict.expect(FRESH_SERIAL);
        Ok((id, timestamp, owed))
    }

    /// The one durable-write step every acknowledged mutation takes —
    /// claim, revoke, appeal pin:
    ///
    /// 1. apply `record` under its stripe lock (a `Revoke`'s signature
    ///    verified), appending it to the WAL from inside that lock;
    /// 2. commit per the fsync policy, and tell the replication log what
    ///    is now safe to ship (completing the polls held for it);
    /// 3. time it (`irs_ledger_durable_apply_us`, span `ledger:wal`);
    /// 4. count it toward the snapshot trigger;
    /// 5. under `WaitForFollower`, return the record's sequence number:
    ///    the ack the caller still owes before acknowledging, which
    ///    [`when_acked`](Self::when_acked) turns into a [`Held`] reply
    ///    (parked in a reactor slot on the wire, blocked on in process).
    ///
    /// Only applied records are logged, committed and owed; a refused
    /// one returns its store verdict. If the log write fails the mutation
    /// stays in memory but is *not* acknowledged — exactly the promise
    /// recovery makes ("nothing acknowledged is lost"), from the other
    /// side. A memory-only ledger stops after step 1. The outer error is
    /// storage, the inner the store verdict.
    fn durable_write(
        &self,
        record: &WalRecord,
        trace: Option<&Arc<SpanRecorder>>,
    ) -> Result<Written, WalError> {
        let Some(d) = &self.durability else {
            return Ok((self.store.apply_verified(record, || {}), None));
        };
        let span = SpanRecorder::maybe(trace, "ledger:wal");
        let start = Instant::now();
        let mut logged = None;
        let out = self
            .store
            .apply_verified(record, || logged = Some(d.log(record)));
        let commit = logged
            .map(|receipt| receipt.and_then(|r| d.wal.commit(r.lsn).map(|()| r.seq)))
            .transpose();
        self.obs.durable_apply_us.record_since(start);
        span.verdict_result(&commit, "err");
        drop(span);
        let owed = match commit? {
            Some(seq) => {
                d.replication.shipped(d.wal.replicable_seq());
                self.maybe_snapshot(trace);
                matches!(
                    d.replication_policy,
                    ReplicationPolicy::WaitForFollower { .. }
                )
                .then_some(seq)
            }
            None => None,
        };
        Ok((out, owed))
    }

    /// Count an operation toward the automatic-snapshot threshold and
    /// checkpoint when it trips. Best-effort: a failed snapshot leaves
    /// the WAL intact, so durability is unaffected (replay just stays
    /// longer).
    fn maybe_snapshot(&self, trace: Option<&Arc<SpanRecorder>>) {
        let Some(d) = &self.durability else { return };
        let Some(every) = d.snapshot_every else {
            return;
        };
        let n = d.ops_since_snapshot.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= every && !d.snapshotting.swap(true, Ordering::AcqRel) {
            d.ops_since_snapshot.store(0, Ordering::Relaxed);
            let span = SpanRecorder::maybe(trace, "ledger:snapshot");
            let result = self.snapshot_now();
            span.verdict_result(&result, "err");
            d.snapshotting.store(false, Ordering::Release);
        }
    }

    /// Write a checksummed snapshot of the full store atomically, then
    /// truncate the WAL to the frames after the cut. No-op without
    /// durability.
    pub fn snapshot_now(&self) -> Result<(), WalError> {
        let Some(d) = &self.durability else {
            return Ok(());
        };
        let start = Instant::now();
        // The cut: record copy and WAL position taken under every shard
        // lock, so they describe the same instant.
        let (records, (generation, offset)) = self.store.frozen_copy(|| d.wal.position());
        let bytes = encode_snapshot(self.config.id, generation, offset, &records);
        d.disk.write_atomic(SNAPSHOT_PATH, &bytes)?;
        d.wal.rotate_at(offset)?;
        self.obs.snapshot_us.record_since(start);
        Ok(())
    }

    /// The durability subsystem, when attached.
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// What the last [`recover`](Self::recover) found (None for ledgers
    /// created fresh).
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery_report
    }

    /// Issue a signed freshness proof.
    pub fn issue_proof(
        &self,
        id: RecordId,
        status: RevocationStatus,
        now: TimeMs,
    ) -> FreshnessProof {
        FreshnessProof::issue(
            &self.signing_key,
            id,
            status,
            now,
            self.config.proof_validity_ms,
        )
    }

    /// Publish the revoked-set filter; returns how many publications
    /// there have been. Called on the publication cadence (e.g. hourly)
    /// by the surrounding system. One all-stripe cut of the revoked keys
    /// feeds the publisher: the delta tier re-covers `revoked \ base`,
    /// and a delta past the compaction threshold seals a new fuse base
    /// (epoch roll).
    ///
    /// The publisher mutex is held from the cut to the pointer rotation,
    /// so concurrent publishers serialize: a later publication always
    /// carries a later cut, and the served snapshot never trails the
    /// publisher's own state. Serves never take that mutex — they clone
    /// an `Arc` out under a brief read lock — so no fetch waits behind a
    /// cut or a fuse construction.
    pub fn publish_filter(&self) -> u64 {
        let mut tiered = self.tiered.lock();
        tiered
            .publish(&self.store.revoked_filter_keys())
            .expect("tiered config validated at construction");
        *self.tiered_snap.write() = tiered.snapshot();
        self.publications.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Current tiered epoch (1 until the first compaction seals a base).
    pub fn tiered_epoch(&self) -> u64 {
        self.tiered_snap.read().epoch()
    }

    /// The current tiered publication (in-process consumers; the wire
    /// path uses [`Request::GetFilterTiered`]).
    pub fn tiered_snapshot(&self) -> Arc<TieredSnapshot> {
        Arc::clone(&self.tiered_snap.read())
    }

    /// Publications so far (0 = never published).
    pub fn filter_version(&self) -> u64 {
        self.publications.load(Ordering::Acquire)
    }

    fn serve_filter_tiered(&self, have_epoch: u64, have_version: u64) -> Response {
        // Publication cadence gates serving: a proxy must not take the
        // constructor's empty tiers for "nothing is revoked here".
        if self.filter_version() == 0 {
            return err(codes::BAD_REQUEST, "no filter published yet");
        }
        // Clone the Arc under the read lock; diff and serialize off-lock.
        // An up-to-date requester gets an empty delta.
        let snap = self.tiered_snapshot();
        let publication = snap
            .serve(have_epoch, have_version)
            .unwrap_or_else(|| snap.up_to_date());
        match publication {
            Publication::Delta { .. } => self.obs.filters_delta.inc(),
            Publication::Base { .. } => self.obs.filters_base.inc(),
            Publication::Tiered { .. } => self.obs.filters_tiered.inc(),
        }
        Response::Filter(publication)
    }
}

fn err(code: u16, message: &str) -> Response {
    Response::Error {
        code,
        message: message.to_string(),
    }
}

/// A durable write's outcome: the store verdict, and the sequence number
/// a follower must still ack before the write may be acknowledged (only
/// under `WaitForFollower`, only for a logged record).
type Written = (Result<(RevocationStatus, u64), StoreError>, Option<u64>);

/// What a write whose follower ack never came answers.
const ACK_TIMEOUT: &str = "replication ack timeout: durable locally, unconfirmed on the follower";

/// The wire answer for [`ACK_TIMEOUT`].
fn ack_timeout_error() -> Response {
    err(codes::STORAGE, ACK_TIMEOUT)
}

/// A typed write's wait on its follower ack: `Ok` once the reply is
/// ready, [`ACK_TIMEOUT`] as a storage error if the hold answers its
/// fallback. Called after the local commit, *outside* every shard
/// lock (the follower's poll must reach the replication log meanwhile).
/// A timeout means the write is durable locally but was never
/// acknowledged, so the client retries — the at-least-once edge the
/// guarantee matrix documents.
fn acked(served: Served) -> Result<(), WalError> {
    if let Served::Held(held) = served {
        if held.wait() == ack_timeout_error() {
            return Err(WalError::Io(io::Error::other(ACK_TIMEOUT)));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::claim::RevokeRequest;
    use irs_crypto::Digest;
    use irs_filters::delta::BloomDelta;
    use irs_filters::{Filter, Fuse8, TieredFilter};
    use std::sync::Barrier;
    use std::thread;

    fn ledger() -> Ledger {
        Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        )
    }

    fn small_tiers(id: u16) -> LedgerConfig {
        let mut cfg = LedgerConfig::new(LedgerId(id));
        cfg.tiered = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 4,
        };
        cfg
    }

    fn claim_one(l: &Ledger, seed: u8) -> (RecordId, Keypair) {
        let keypair = Keypair::from_seed(&[seed; 32]);
        let req = ClaimRequest::create(&keypair, &Digest::of(&[seed]));
        match l.handle(Request::Claim(req), TimeMs(10)) {
            Response::Claimed { id, .. } => (id, keypair),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn revoke(l: &Ledger, id: RecordId, keypair: &Keypair) {
        let rv = RevokeRequest::create(keypair, id, true, 0);
        match l.handle(Request::Revoke(rv), TimeMs(20)) {
            Response::RevokeAck { status, epoch, .. } => {
                assert_eq!((status, epoch), (RevocationStatus::Revoked, 1));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn claim_revoked(l: &Ledger, seed: u8) -> RecordId {
        let (id, keypair) = claim_one(l, seed);
        revoke(l, id, &keypair);
        id
    }

    const BOOTSTRAP: Request = Request::GetFilterTiered {
        have_epoch: 0,
        have_version: 0,
    };

    /// The tier a bootstrapping client would install right now.
    fn fetch_tier(l: &Ledger) -> TieredFilter {
        match l.handle(BOOTSTRAP, TimeMs(5)) {
            Response::Filter(Publication::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            }) => TieredFilter::from_wire(epoch, &base, delta_version, delta).unwrap(),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn assert_error(response: Response, expected: u16) {
        match response {
            Response::Error { code, .. } => assert_eq!(code, expected),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn claim_query_revoke_flow() {
        let l = ledger();
        let (id, keypair) = claim_one(&l, 1);
        match l.handle(Request::Query { id }, TimeMs(20)) {
            Response::Status { status, epoch, .. } => {
                assert_eq!((status, epoch), (RevocationStatus::NotRevoked, 0));
            }
            other => panic!("unexpected {other:?}"),
        }
        revoke(&l, id, &keypair);
        let stats = l.stats();
        assert_eq!((stats.claims, stats.queries, stats.revokes), (1, 1, 1));
        assert_eq!(l.handle(Request::Ping, TimeMs(0)), Response::Pong);
        let ghost = RecordId::new(LedgerId(1), 404);
        assert_error(
            l.handle(Request::Query { id: ghost }, TimeMs(1)),
            codes::UNKNOWN_RECORD,
        );
    }

    #[test]
    fn non_revocable_policy_refuses_revocation() {
        let mut cfg = LedgerConfig::new(LedgerId(2));
        cfg.policy = LedgerPolicy::NonRevocable;
        let l = Ledger::new(cfg, TimestampAuthority::from_seed(2));
        let keypair = Keypair::from_seed(&[9; 32]);
        let req = ClaimRequest::create(&keypair, &Digest::of(b"evidence"));
        let Response::Claimed { id, .. } = l.handle(Request::Claim(req), TimeMs(1)) else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&keypair, id, true, 0);
        assert_error(l.handle(Request::Revoke(rv), TimeMs(2)), codes::POLICY);
    }

    #[test]
    fn proof_issuance_and_verification() {
        let l = ledger();
        let (id, _) = claim_one(&l, 3);
        match l.handle(Request::GetProof { id }, TimeMs(1_000)) {
            Response::Proof(p) => {
                assert!(p.verify(&l.public_key(), TimeMs(2_000)));
                assert_eq!(p.status, RevocationStatus::NotRevoked);
                assert_eq!(p.id, id);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.stats().proofs, 1);
    }

    #[test]
    fn custodial_and_revoked_claims() {
        let l = ledger();
        let req = ClaimRequest::create(&Keypair::from_seed(&[11; 32]), &Digest::of(b"upload"));
        let (id, _) = l.claim_custodial(req, TimeMs(1)).unwrap();
        assert_eq!(l.store().get(&id).unwrap().origin, ClaimOrigin::Custodial);
        let req2 = ClaimRequest::create(&Keypair::from_seed(&[12; 32]), &Digest::of(b"auto"));
        let (id2, _) = l.claim_revoked(req2, TimeMs(2)).unwrap();
        assert_eq!(l.store().status(&id2), Some((RevocationStatus::Revoked, 0)));
    }

    /// The §4.4 publication pipeline over the wire: nothing before the
    /// first publish, then a full install, an empty delta for a requester
    /// already current, and a real delta (much smaller than the filter
    /// it patches) for one a version behind.
    #[test]
    fn wire_tiered_filter_flow() {
        let l = ledger();
        let id = claim_revoked(&l, 20);
        assert_error(l.handle(BOOTSTRAP, TimeMs(1)), codes::BAD_REQUEST);
        assert_eq!(l.publish_filter(), 1);
        // Bootstrap requester: full tiered install (no epoch sealed yet,
        // so there is no base and the delta answers the key).
        let mut tier = fetch_tier(&l);
        assert_eq!(tier.epoch(), 1, "no compaction has sealed a base yet");
        assert!(tier.base().is_none());
        assert!(tier.contains(id.filter_key()));
        // Up-to-date requester: empty delta, version unchanged.
        match l.handle(
            Request::GetFilterTiered {
                have_epoch: tier.epoch(),
                have_version: tier.delta_version(),
            },
            TimeMs(3),
        ) {
            Response::Filter(Publication::Delta {
                from_version,
                to_version,
                ..
            }) => assert_eq!(from_version, to_version),
            other => panic!("unexpected {other:?}"),
        }
        // One publication later the same requester is a version behind.
        let id2 = claim_revoked(&l, 21);
        assert_eq!(l.publish_filter(), 2);
        assert_eq!(l.filter_version(), 2);
        match l.handle(
            Request::GetFilterTiered {
                have_epoch: tier.epoch(),
                have_version: tier.delta_version(),
            },
            TimeMs(4),
        ) {
            Response::Filter(Publication::Delta {
                from_version,
                to_version,
                data,
            }) => {
                assert_eq!((from_version, to_version), (1, 2));
                assert!(data.len() < tier.delta().to_bytes().len() / 10);
                let delta = BloomDelta::from_bytes(data).unwrap();
                tier.advance_delta(&delta, to_version).unwrap();
                assert!(tier.contains(id2.filter_key()));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.stats().filters_tiered, 1);
        assert_eq!(l.stats().filters_delta, 2);
    }

    #[test]
    fn tiered_compaction_rolls_epoch_through_publication() {
        let l = Ledger::new(small_tiers(3), TimestampAuthority::from_seed(3));
        let keys: Vec<u64> = (30..38u8)
            .map(|seed| claim_revoked(&l, seed).filter_key())
            .collect();
        // 8 delta keys ≥ compact_at=4: the publish seals epoch 2.
        l.publish_filter();
        assert_eq!(l.tiered_epoch(), 2);
        // A client that followed epoch 1 gets just the sealed base…
        match l.handle(
            Request::GetFilterTiered {
                have_epoch: 1,
                have_version: 0,
            },
            TimeMs(3),
        ) {
            Response::Filter(Publication::Base { epoch, data }) => {
                assert_eq!(epoch, 2);
                let base = Fuse8::from_bytes(data).unwrap();
                for &k in &keys {
                    assert!(base.contains(k), "sealed base lost a revoked key");
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(l.stats().filters_base, 1);
    }

    #[test]
    fn tiered_wire_serving_under_concurrent_publication() {
        let l = Ledger::with_shards(small_tiers(1), TimestampAuthority::from_seed(1), 4);
        let keys: Vec<u64> = (0..8u8)
            .map(|seed| claim_revoked(&l, seed).filter_key())
            .collect();
        l.publish_filter();
        assert_eq!(l.tiered_epoch(), 2, "8 keys past compact_at=4 must seal");
        // Readers hammer the bootstrap path while more publications roll
        // epochs underneath them; every response must decode into a tier
        // that answers all keys revoked before the first publish.
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    while !stop.load(Ordering::Acquire) {
                        let tier = fetch_tier(&l);
                        for &k in &keys {
                            assert!(tier.contains(k), "tier lost a revoked key");
                        }
                    }
                });
            }
            for round in 0..4u8 {
                for seed in 0..6u8 {
                    claim_revoked(&l, 16 + round * 6 + seed);
                }
                l.publish_filter();
            }
            stop.store(true, Ordering::Release);
        });
        assert!(l.tiered_epoch() >= 3, "publication rounds never compacted");
        assert!(l.stats().filters_tiered >= 2);
    }

    /// Publishers race each other and a stream of revocations. With
    /// revoke-only traffic, in order, a publication's revoked set is a
    /// prefix of `owned` that only grows, so a reader must never see the
    /// `(epoch, delta version)` move backwards, nor a tier that misses a
    /// key some already-completed publication had cut — a proxy one
    /// version behind would otherwise apply a delta that *clears* a
    /// revoked key. (Counting covered keys instead is not monotone: a
    /// filter's false positives come and go between publications.)
    #[test]
    fn racing_publishers_never_move_the_filter_backwards() {
        const PUBLISHERS: usize = 2;
        let l = Ledger::with_shards(small_tiers(1), TimestampAuthority::from_seed(1), 4);
        let owned: Vec<(RecordId, Keypair)> = (0..120u8).map(|seed| claim_one(&l, seed)).collect();
        let keys: Vec<u64> = owned.iter().map(|(id, _)| id.filter_key()).collect();
        let covered = |f: &dyn Filter| keys.iter().filter(|&&k| f.contains(k)).count();
        let revoking = AtomicBool::new(true);
        // Revocations completed so far, and for each publication number
        // a count its cut is known to include (read before it began).
        let revoked = AtomicU64::new(0);
        let floors = Mutex::new(vec![0u64]);
        let start = Barrier::new(PUBLISHERS + 2);
        thread::scope(|scope| {
            for _ in 0..PUBLISHERS {
                scope.spawn(|| {
                    start.wait();
                    loop {
                        let last = !revoking.load(Ordering::Acquire);
                        let floor = revoked.load(Ordering::Acquire);
                        let version = l.publish_filter() as usize;
                        let mut floors = floors.lock();
                        if floors.len() <= version {
                            floors.resize(version + 1, 0);
                        }
                        floors[version] = floor;
                        if last {
                            break; // this publish started after the last revocation
                        }
                    }
                });
            }
            scope.spawn(|| {
                start.wait();
                let mut tiered = (0, 0);
                while revoking.load(Ordering::Acquire) {
                    // Every publication up to `done` had finished before
                    // this fetch, so the fetched tier's cut includes theirs.
                    let done = l.filter_version() as usize;
                    if done == 0 {
                        continue; // nothing published yet
                    }
                    let floor = floors.lock().iter().take(done + 1).copied().max();
                    let floor = floor.unwrap_or(0) as usize;
                    let tier = fetch_tier(&l);
                    let seen = (tier.epoch(), tier.delta_version());
                    assert!(seen >= tiered, "tier went from {tiered:?} to {seen:?}");
                    let missing = keys[..floor].iter().position(|&k| !tier.contains(k));
                    assert_eq!(
                        missing, None,
                        "tier {seen:?} lost a key of a {floor}-key cut"
                    );
                    tiered = seen;
                }
            });
            start.wait();
            for (id, keypair) in &owned {
                revoke(&l, *id, keypair);
                revoked.fetch_add(1, Ordering::Release);
            }
            revoking.store(false, Ordering::Release);
        });
        assert_eq!(covered(&fetch_tier(&l)), keys.len());
        // The served tiered snapshot is the publisher's own latest state.
        let (served, own) = (l.tiered_snapshot(), l.tiered.lock().snapshot());
        assert_eq!(
            (served.epoch(), served.delta_version()),
            (own.epoch(), own.delta_version())
        );
    }

    #[test]
    fn parallel_claims_and_queries() {
        let l = ledger();
        let all_ids: Vec<RecordId> = thread::scope(|scope| {
            let writers: Vec<_> = (0..4u8)
                .map(|t| {
                    let l = &l;
                    scope.spawn(move || (0..25u8).map(|i| claim_one(l, t * 25 + i).0).collect())
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| -> Vec<RecordId> { w.join().unwrap() })
                .collect()
        });
        assert_eq!(all_ids.len(), 100);
        thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for id in &all_ids {
                        match l.handle(Request::Query { id: *id }, TimeMs(50)) {
                            Response::Status { .. } => {}
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(l.stats().queries, 400);
        assert_eq!(l.store().len(), 100);
    }

    /// An appeal pin is a durable write like any other: it takes the
    /// same step as a claim or a revoke, so it is timed once, and a
    /// recovery of the disk finds it.
    #[test]
    fn durable_appeal_pin_records_one_apply_sample() {
        let disk: Arc<dyn Disk> = Arc::new(crate::ChaosDisk::new(crate::ChaosDiskConfig::off(2)));
        let open = || {
            let durability = DurabilityConfig::new(disk.clone(), FsyncPolicy::Always);
            let tsa = TimestampAuthority::from_seed(1);
            Ledger::recover(LedgerConfig::new(LedgerId(1)), tsa, 4, durability).unwrap()
        };
        let l = open();
        let (id, _) = claim_one(&l, 4);
        let samples = || l.obs.durable_apply_us.snapshot().count;
        let before = samples();
        assert_eq!(l.permanently_revoke(&id).unwrap(), Ok(()));
        assert_eq!(samples(), before + 1);
        drop(l);
        assert_eq!(
            open().store().status(&id),
            Some((RevocationStatus::PermanentlyRevoked, 1))
        );
    }

    /// Under `WaitForFollower` every in-process write — the wire path's
    /// `handle` and the typed calls — returns once a follower on another
    /// thread acks it, and the storage error once the timeout passes with
    /// no ack; an in-process poll with nothing to ship is answered at once.
    #[test]
    fn in_process_writes_wait_for_their_follower_ack() {
        use crate::replication::{Follower, SegmentData};
        let disk = |seed| -> Arc<dyn Disk> {
            Arc::new(crate::ChaosDisk::new(crate::ChaosDiskConfig::off(seed)))
        };
        let durable = |disk: &Arc<dyn Disk>, timeout_ms| {
            let mut durability = DurabilityConfig::new(disk.clone(), FsyncPolicy::Always);
            durability.replication = ReplicationPolicy::WaitForFollower { timeout_ms };
            durability
        };
        let config = LedgerConfig::new(LedgerId(1));
        let tsa = TimestampAuthority::from_seed(1);
        let open = |durability| Ledger::recover(config.clone(), tsa.clone(), 4, durability);
        let claim =
            |seed: u8| ClaimRequest::create(&Keypair::from_seed(&[seed; 32]), &Digest::of(&[seed]));

        let primary_disk = disk(1);
        let primary = open(durable(&primary_disk, 2_000)).unwrap();
        let (seq, snap) = primary.replication_snapshot().unwrap();
        let replica = durable(&disk(2), 0);
        let mut follower =
            Follower::bootstrap(config.clone(), tsa.clone(), 4, replica, seq, &snap).unwrap();
        let stop = AtomicBool::new(false);
        let custodial = thread::scope(|s| {
            let tail = s.spawn(|| follower.run(|req| Some(primary.handle(req, TimeMs(0))), &stop));
            let started = Instant::now();
            let (id, _) = claim_one(&primary, 1);
            let (custodial, _) = primary.claim_custodial(claim(2), TimeMs(2)).unwrap();
            assert_eq!(primary.permanently_revoke(&id).unwrap(), Ok(()));
            assert!(started.elapsed() < Duration::from_millis(1_000));
            stop.store(true, Ordering::SeqCst);
            tail.join().unwrap().unwrap();
            custodial
        });
        drop(primary);

        // The same disk, no follower: every write answers the timeout.
        let primary = open(durable(&primary_disk, 50)).unwrap();
        let timed_out = |e: WalError| assert!(e.to_string().contains(ACK_TIMEOUT), "{e}");
        let claimed = primary.handle(Request::Claim(claim(3)), TimeMs(3));
        assert_eq!(claimed, ack_timeout_error());
        timed_out(primary.claim_custodial(claim(4), TimeMs(4)).unwrap_err());
        timed_out(primary.permanently_revoke(&custodial).unwrap_err());

        let from_seq = primary.durability().unwrap().replicable_seq() + 1;
        let started = Instant::now();
        let poll = primary.handle(
            Request::WalSubscribe {
                from_seq,
                max_frames: 64,
            },
            TimeMs(5),
        );
        assert!(SegmentData::try_from(poll).unwrap().frames.is_empty());
        assert!(started.elapsed() < Duration::from_millis(20));
    }

    /// One exposition, durable or not: a memory-only ledger answers
    /// `Request::Metrics` with every series a durable one does (bar the
    /// replication log's own gauges), from the same registry.
    #[test]
    fn memory_only_ledger_exposes_the_durable_series_set() {
        let disk: Arc<dyn Disk> = Arc::new(crate::ChaosDisk::new(crate::ChaosDiskConfig::off(1)));
        let durable = Ledger::recover(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
            4,
            DurabilityConfig::new(disk, FsyncPolicy::Always),
        )
        .unwrap();
        let scrape = |l: &Ledger| {
            let (id, _) = claim_one(l, 1);
            l.handle(Request::Query { id }, TimeMs(20));
            let Response::MetricsText(text) = l.handle(Request::Metrics, TimeMs(30)) else {
                panic!("expected metrics text");
            };
            irs_obs::parse_exposition(&text)
        };
        let (memory, durable) = (scrape(&ledger()), scrape(&durable));
        assert_eq!(
            memory.keys().collect::<Vec<_>>(),
            durable
                .keys()
                .filter(|name| !name.starts_with("irs_ledger_repl_"))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            (memory["irs_ledger_durable"], durable["irs_ledger_durable"]),
            (0.0, 1.0)
        );
        for name in [
            "irs_ledger_records",
            "irs_ledger_queries_total",
            "irs_ledger_claims_total",
        ] {
            assert_eq!((memory[name], durable[name]), (1.0, 1.0), "{name}");
        }
        assert_eq!(memory["irs_ledger_tiered_epoch"], 1.0);
    }
}
