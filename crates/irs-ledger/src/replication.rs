//! WAL-shipping primary→follower replication.
//!
//! The CRC-framed WAL (see [`crate::wal`]) *is* the replication stream:
//! every durable record carries a dense, monotone sequence number
//! assigned at append time, and a follower tails the stream by polling
//! `Request::WalSubscribe { from_seq }` — each poll returns one bounded
//! `Response::WalSegment` batch, and polling `from_seq = n` doubles as
//! the follower's acknowledgement that everything below `n` is durably
//! applied on its side (no separate ack op threads through the mux).
//!
//! Three invariants carry the zero-acked-write-loss guarantee:
//!
//! 1. **The primary never ships a frame it could still lose.** The
//!    [`ReplicationLog`] serves only sequence numbers at or below the
//!    WAL's synced high-water mark, so a follower can never hold a
//!    record the primary's crash would erase — promotion cannot
//!    *invent* unacked writes.
//! 2. **The follower never acks a frame it could still lose.** A
//!    segment is applied into the follower's own store *and* local WAL
//!    (committed per its fsync policy) before the next poll advances
//!    `from_seq`.
//! 3. **Under [`ReplicationPolicy::WaitForFollower`], the primary never
//!    acks a write the follower has not.** The write's reply is [`Held`]
//!    (bounded) until the follower's ack covers the record's sequence
//!    number, so a kill-the-primary failover loses nothing acknowledged.
//!
//! A poll with nothing to ship is held the same way, until the next
//! commit gives it a frame (or 100 ms pass and it is answered empty),
//! so a write reaches the follower one round trip after its fsync
//! instead of one poll sleep later. The [`ReplicationLog`] owns both
//! kinds of hold: each is parked under the mutex that moves the mark it
//! waits on, so no wakeup is lost, and handed its answer after unlock.
//! How the answer travels is the holder's: a server's reactor slot, or
//! the channel an in-process caller blocks on (which answers a poll at
//! once instead of holding it).
//!
//! Sequence numbers are scoped to one primary *process instance*: a
//! restarted primary restarts them after whatever its log holds, so a
//! follower must re-bootstrap from a snapshot whenever its connection to
//! the primary is re-established rather than trust seq continuity
//! across the gap. The [`Follower`] does exactly that, and treats any
//! hole, overlap, or corruption in a shipped segment as a signal to
//! stop and re-sync — never to apply around it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use irs_core::ids::LedgerId;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_obs::{Gauge, Histogram, Registry};

use crate::disk::Disk;
use crate::recovery::RecoveryError;
use crate::service::{DurabilityConfig, Ledger, SNAPSHOT_PATH, WAL_PATH};
use crate::snapshot::{decode_snapshot, encode_snapshot, SnapshotError};
use crate::store::StoreError;
use crate::wal::{crc32, decode_frames, encode_header, WalError, WAL_HEADER_LEN};
use crate::LedgerConfig;

/// How many shipped frames the primary retains in memory for followers
/// that fall behind. A follower further behind than this re-bootstraps
/// from a snapshot instead of tailing the log.
pub const DEFAULT_RETAIN_FRAMES: usize = 8192;

/// Sidecar file on the follower's disk recording the sequence number its
/// bootstrap snapshot covered: `[seq u64][crc32 u32]`. On reopen, the
/// follower's replication cursor is this base plus the records in its
/// local WAL.
pub const REPLICA_SEQ_PATH: &str = "replica.seq";

/// WAL frames a follower asks for per poll.
const POLL_FRAMES: u32 = 64;
/// How long a primary holds a poll with nothing to ship before
/// answering it empty: well under the I/O timeout of any poller (seconds).
const POLL_HOLD: Duration = Duration::from_millis(100);
/// [`Follower::run`]'s backoff after empty polls (see there).
const BACKOFF_MIN: Duration = Duration::from_micros(50);
const BACKOFF_ACTIVE: Duration = Duration::from_micros(200);
const BACKOFF_IDLE: Duration = Duration::from_millis(10);
const ACTIVE_POLLS: u32 = 100;

/// When the primary acknowledges a durable write, relative to follower
/// replication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReplicationPolicy {
    /// Ack after the local fsync policy is satisfied (replication is
    /// asynchronous; a failover can lose writes acked after the
    /// follower's last poll).
    LocalOnly,
    /// Ack only after a follower's poll cursor covers the record, or
    /// fail the write with a storage error after `timeout_ms` — the
    /// write may still be present locally (at-least-once), but nothing
    /// is promised to the client that the follower does not hold.
    WaitForFollower {
        /// Upper bound on the ack wait before the write errors.
        timeout_ms: u64,
    },
}

impl ReplicationPolicy {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            ReplicationPolicy::LocalOnly => "local-only",
            ReplicationPolicy::WaitForFollower { .. } => "wait-follower",
        }
    }
}

/// One shipped batch of WAL frames (the payload of `Response::WalSegment`).
#[derive(Clone, Debug, PartialEq)]
pub struct SegmentData {
    /// Sequence number of the first frame in `frames` (equals the
    /// requested `from_seq` when `frames` is empty).
    pub first_seq: u64,
    /// Highest durable sequence number on the primary at serve time.
    pub durable_seq: u64,
    /// Oldest sequence number the primary still retains.
    pub log_start_seq: u64,
    /// Concatenated CRC-framed WAL records.
    pub frames: Bytes,
}

impl From<SegmentData> for Response {
    fn from(seg: SegmentData) -> Response {
        Response::WalSegment {
            first_seq: seg.first_seq,
            durable_seq: seg.durable_seq,
            log_start_seq: seg.log_start_seq,
            frames: seg.frames,
        }
    }
}

impl TryFrom<Response> for SegmentData {
    type Error = Response;
    fn try_from(response: Response) -> Result<SegmentData, Response> {
        match response {
            Response::WalSegment {
                first_seq,
                durable_seq,
                log_start_seq,
                frames,
            } => Ok(SegmentData {
                first_seq,
                durable_seq,
                log_start_seq,
                frames,
            }),
            other => Err(other),
        }
    }
}

struct LogInner {
    /// Retained frames keyed by sequence number. A `BTreeMap` rather
    /// than a deque because concurrent writers publish out of order
    /// (each under its own shard lock); `segment` only ever serves a
    /// contiguous run, so holes are never shipped.
    frames: BTreeMap<u64, Vec<u8>>,
    /// Oldest sequence number still retained (== next publish seq when
    /// `frames` is empty).
    start_seq: u64,
    /// Highest sequence number a follower poll has acknowledged.
    acked_seq: u64,
    /// Highest replicable sequence number the log has been told of.
    replicable_seq: u64,
    /// Held replies waiting on `acked_seq` or `replicable_seq`.
    parked: Vec<Parked>,
}

impl LogInner {
    /// The answer `wait` gets now, if its condition holds: a write's
    /// reply once the follower acked it; a poll's segment once it holds
    /// a frame, or once retention has passed its cursor (the follower
    /// must re-bootstrap, and holding would not change that).
    fn answer(&self, wait: &Wait) -> Option<Response> {
        match wait {
            Wait::Ack { seq, reply } => (self.acked_seq >= *seq).then(|| reply.clone()),
            &Wait::Ship {
                from_seq,
                max_frames,
            } => {
                let seg = self.segment(from_seq, max_frames, self.replicable_seq);
                (!seg.frames.is_empty() || seg.log_start_seq > from_seq).then(|| seg.into())
            }
        }
    }

    /// One bounded contiguous batch from `from_seq`, never past
    /// `durable_seq` (see [`ReplicationLog::segment`]).
    fn segment(&self, from_seq: u64, max_frames: u32, durable_seq: u64) -> SegmentData {
        let mut frames = Vec::new();
        if from_seq >= self.start_seq {
            let mut seq = from_seq;
            let mut count = 0u32;
            while count < max_frames && seq <= durable_seq {
                match self.frames.get(&seq) {
                    Some(frame) => {
                        frames.extend_from_slice(frame);
                        seq += 1;
                        count += 1;
                    }
                    None => break,
                }
            }
        }
        SegmentData {
            first_seq: from_seq,
            durable_seq,
            log_start_seq: self.start_seq,
            frames: frames.into(),
        }
    }

    /// Take every parked reply whose condition now holds, with its
    /// answer, and forget those past their deadline (whoever held them
    /// has answered the fallback). The caller delivers after unlocking.
    fn take_answered(&mut self) -> Vec<(Deliver, Response)> {
        let mut answered = Vec::new();
        if self.parked.is_empty() {
            return answered;
        }
        let now = Instant::now();
        let mut i = 0;
        while i < self.parked.len() {
            if self.parked[i].deadline <= now {
                self.parked.swap_remove(i);
            } else if let Some(answer) = self.answer(&self.parked[i].wait) {
                answered.push((self.parked.swap_remove(i).deliver, answer));
            } else {
                i += 1;
            }
        }
        answered
    }
}

/// Hands a held reply its answer (from the thread that completes it).
type Deliver = Box<dyn FnOnce(Response) + Send>;

/// A reply parked in the log until its condition holds.
struct Parked {
    wait: Wait,
    deadline: Instant,
    deliver: Deliver,
}

/// What a held reply waits for.
enum Wait {
    /// A committed write under `WaitForFollower`: `reply` once a follower
    /// ack covers `seq`.
    Ack { seq: u64, reply: Response },
    /// A poll with nothing to ship: the segment from `from_seq` once a
    /// commit gives it a frame.
    Ship { from_seq: u64, max_frames: u32 },
}

/// A reply the request path cannot give yet because it waits on
/// replication: a committed write under
/// [`ReplicationPolicy::WaitForFollower`] waits for the follower's ack,
/// and a `WalSubscribe` with nothing to ship waits for the next commit.
/// Whoever holds it [`park`](Held::park)s it in the replication log and
/// answers [`fallback`](Held::fallback) if the
/// [`deadline`](Held::deadline) passes first: the storage error for a
/// write, an empty segment carrying the marks at hold time for a poll. A
/// server parks it in a reactor slot; an in-process caller
/// ([`Ledger::handle`] and the typed writes) parks it on a channel it
/// blocks on, and answers a poll its fallback at once.
pub struct Held {
    log: Arc<ReplicationLog>,
    wait: Wait,
    deadline: Instant,
    fallback: Response,
}

impl Held {
    /// Hold `reply` until a follower acks `seq`, at most `timeout`.
    pub(crate) fn ack(
        log: Arc<ReplicationLog>,
        seq: u64,
        reply: Response,
        timeout: Duration,
        fallback: Response,
    ) -> Held {
        Held {
            log,
            wait: Wait::Ack { seq, reply },
            deadline: Instant::now() + timeout,
            fallback,
        }
    }

    /// Hold a poll whose segment came out `empty` until there is
    /// something to ship, at most [`POLL_HOLD`].
    pub(crate) fn ship(log: Arc<ReplicationLog>, max_frames: u32, empty: SegmentData) -> Held {
        Held {
            log,
            wait: Wait::Ship {
                from_seq: empty.first_seq,
                max_frames,
            },
            deadline: Instant::now() + POLL_HOLD,
            fallback: empty.into(),
        }
    }

    /// When whoever holds the reply stops waiting.
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// The answer at the deadline.
    pub fn fallback(&self) -> &Response {
        &self.fallback
    }

    /// Park the reply in the replication log: `deliver` gets its answer
    /// when the log completes it — on the thread whose ack or commit
    /// made the condition true, outside the log's lock. If the condition
    /// holds already, the answer is returned instead and `deliver` is
    /// dropped. A parked reply past its deadline is forgotten.
    pub fn park(self, deliver: impl FnOnce(Response) + Send + 'static) -> Option<Response> {
        let mut inner = self.log.inner.lock().expect("replication log poisoned");
        if let Some(answer) = inner.answer(&self.wait) {
            return Some(answer);
        }
        let now = Instant::now();
        inner.parked.retain(|p| p.deadline > now);
        inner.parked.push(Parked {
            wait: self.wait,
            deadline: self.deadline,
            deliver: Box::new(deliver),
        });
        None
    }

    /// Block the calling thread on the reply — the in-process caller's
    /// park: a write's answer once its follower ack arrives, the fallback
    /// once the deadline passes first. A poll gets its fallback at once:
    /// holding it would only stall an in-process tail.
    pub(crate) fn wait(self) -> Response {
        if let Wait::Ship { .. } = self.wait {
            return self.fallback;
        }
        let (deadline, fallback) = (self.deadline, self.fallback.clone());
        let (tx, rx) = mpsc::sync_channel(1);
        // A send after the receiver gave up finds no one; that is fine.
        let parked = self.park(move |answer| {
            let _ = tx.send(answer);
        });
        parked.unwrap_or_else(|| {
            rx.recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .unwrap_or(fallback)
        })
    }
}

/// What the ledger's request path answers: a response now, or a reply
/// [`Held`] on replication.
pub enum Served {
    /// The answer.
    Ready(Response),
    /// The answer once replication catches up (or the fallback).
    Held(Held),
}

impl From<Response> for Served {
    fn from(response: Response) -> Served {
        Served::Ready(response)
    }
}

/// The primary's in-memory tail of shipped-frame history, the
/// follower-ack high-water mark [`ReplicationPolicy::WaitForFollower`]
/// writes wait on, and the replies [`Held`] on either. Single-follower: an
/// ack prunes everything it covers.
pub struct ReplicationLog {
    inner: Mutex<LogInner>,
    retain: usize,
    /// Highest sequence number shipped as durable (scrape-time view).
    durable_gauge: Gauge,
    /// Highest follower-acknowledged sequence number.
    acked_gauge: Gauge,
    /// `replicable - acked` at the last serve or ack: the follower's
    /// replication lag.
    lag_gauge: Gauge,
}

impl ReplicationLog {
    /// Create a log whose first published frame will carry `next_seq`,
    /// registering the replication gauges in `registry`.
    pub fn new(next_seq: u64, retain: usize, registry: &Registry) -> ReplicationLog {
        ReplicationLog {
            inner: Mutex::new(LogInner {
                frames: BTreeMap::new(),
                start_seq: next_seq,
                acked_seq: 0,
                replicable_seq: next_seq.saturating_sub(1),
                parked: Vec::new(),
            }),
            retain: retain.max(1),
            durable_gauge: registry.gauge("irs_ledger_repl_durable_seq"),
            acked_gauge: registry.gauge("irs_ledger_repl_acked_seq"),
            lag_gauge: registry.gauge("irs_ledger_repl_lag"),
        }
    }

    /// Retain one appended frame for shipping. Called from the WAL
    /// append hook (under a shard lock — this mutex is a leaf). Frames
    /// above the retention cap evict the oldest retained frame; a
    /// follower that needed it will observe `log_start_seq` moving past
    /// its cursor and re-bootstrap.
    pub fn publish(&self, seq: u64, frame: Vec<u8>) {
        let mut inner = self.inner.lock().expect("replication log poisoned");
        inner.frames.insert(seq, frame);
        while inner.frames.len() > self.retain {
            let (&oldest, _) = inner.frames.first_key_value().expect("non-empty");
            inner.frames.remove(&oldest);
            inner.start_seq = inner.start_seq.max(oldest + 1);
        }
    }

    /// Record a follower acknowledgement of every sequence number at or
    /// below `seq`: completes the writes [`Held`] on it (delivered after
    /// unlocking), prunes covered frames and updates the lag gauge.
    pub fn record_ack(&self, seq: u64) {
        let mut inner = self.inner.lock().expect("replication log poisoned");
        if seq <= inner.acked_seq {
            return;
        }
        inner.acked_seq = seq;
        self.acked_gauge.set(seq);
        self.lag_gauge.set(inner.replicable_seq.saturating_sub(seq));
        while let Some((&oldest, _)) = inner.frames.first_key_value() {
            if oldest > seq {
                break;
            }
            inner.frames.remove(&oldest);
            inner.start_seq = inner.start_seq.max(oldest + 1);
        }
        let answered = inner.take_answered();
        drop(inner);
        deliver(answered);
    }

    /// The commit step's notice that `replicable_seq` is now safe to
    /// ship: completes the polls [`Held`] for a frame it gives them.
    /// Called after the WAL commit, outside every shard lock.
    pub(crate) fn shipped(&self, replicable_seq: u64) {
        let mut inner = self.inner.lock().expect("replication log poisoned");
        inner.replicable_seq = inner.replicable_seq.max(replicable_seq);
        let answered = inner.take_answered();
        drop(inner);
        deliver(answered);
    }

    /// Highest follower-acknowledged sequence number.
    pub fn acked_seq(&self) -> u64 {
        self.inner
            .lock()
            .expect("replication log poisoned")
            .acked_seq
    }

    /// Serve one bounded contiguous batch starting at `from_seq`, never
    /// shipping past `durable_seq` (the caller passes the WAL's
    /// replicable high-water mark — a follower must not receive a frame
    /// the primary could still lose). If `from_seq` predates retention,
    /// the reply is empty with `log_start_seq > from_seq`, which the
    /// follower reads as "re-bootstrap".
    pub fn segment(&self, from_seq: u64, max_frames: u32, durable_seq: u64) -> SegmentData {
        let mut inner = self.inner.lock().expect("replication log poisoned");
        inner.replicable_seq = inner.replicable_seq.max(durable_seq);
        self.durable_gauge.set(durable_seq);
        self.lag_gauge
            .set(durable_seq.saturating_sub(inner.acked_seq));
        inner.segment(from_seq, max_frames, durable_seq)
    }
}

/// Hand each completed held reply its answer.
fn deliver(answered: Vec<(Deliver, Response)>) {
    for (deliver, answer) in answered {
        deliver(answer);
    }
}

/// Why a shipped segment was rejected (or the apply path failed).
#[derive(Debug)]
pub enum ApplyError {
    /// The segment starts past the follower's cursor, or the primary no
    /// longer retains the cursor: records are missing in between. The
    /// follower must re-bootstrap from a snapshot, never apply a hole.
    Gap {
        /// The sequence number the follower needs next.
        expected: u64,
        /// The first sequence number the segment (or retention) offers.
        got: u64,
    },
    /// Every frame in the segment is below the follower's cursor — a
    /// reordered or replayed delivery, rejected outright.
    Duplicate {
        /// The segment's last sequence number.
        through: u64,
    },
    /// Framing, checksum or payload decode failed, or a poll got no segment.
    Corrupt(&'static str),
    /// The follower's local WAL rejected the write.
    Wal(WalError),
    /// The record contradicts the follower's state (broken stream).
    Store(StoreError),
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Gap { expected, got } => {
                write!(f, "sequence gap: expected {expected}, segment offers {got}")
            }
            ApplyError::Duplicate { through } => {
                write!(f, "duplicate segment (through seq {through})")
            }
            ApplyError::Corrupt(what) => write!(f, "corrupt segment: {what}"),
            ApplyError::Wal(e) => write!(f, "follower wal: {e}"),
            ApplyError::Store(e) => write!(f, "follower store: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ApplyError::Wal(e) => Some(e),
            ApplyError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WalError> for ApplyError {
    fn from(e: WalError) -> ApplyError {
        ApplyError::Wal(e)
    }
}

impl From<StoreError> for ApplyError {
    fn from(e: StoreError) -> ApplyError {
        ApplyError::Store(e)
    }
}

/// Errors constructing (or reopening) a follower.
#[derive(Debug)]
pub enum FollowerError {
    /// The bootstrap snapshot failed validation.
    Snapshot(SnapshotError),
    /// Local durable state failed to materialize or recover.
    Recovery(RecoveryError),
    /// Local disk i/o failed.
    Io(std::io::Error),
    /// The sidecar recording the bootstrap base seq is damaged.
    SidecarCorrupt,
}

impl std::fmt::Display for FollowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FollowerError::Snapshot(e) => write!(f, "follower bootstrap: {e}"),
            FollowerError::Recovery(e) => write!(f, "follower recovery: {e}"),
            FollowerError::Io(e) => write!(f, "follower i/o: {e}"),
            FollowerError::SidecarCorrupt => write!(f, "replica.seq sidecar corrupt"),
        }
    }
}

impl std::error::Error for FollowerError {}

impl From<SnapshotError> for FollowerError {
    fn from(e: SnapshotError) -> FollowerError {
        FollowerError::Snapshot(e)
    }
}

impl From<RecoveryError> for FollowerError {
    fn from(e: RecoveryError) -> FollowerError {
        FollowerError::Recovery(e)
    }
}

impl From<std::io::Error> for FollowerError {
    fn from(e: std::io::Error) -> FollowerError {
        FollowerError::Io(e)
    }
}

fn encode_sidecar(seq: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(12);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&crc32(&seq.to_be_bytes()).to_be_bytes());
    out
}

fn decode_sidecar(bytes: &[u8]) -> Result<u64, FollowerError> {
    if bytes.len() != 12 {
        return Err(FollowerError::SidecarCorrupt);
    }
    let (seq_bytes, crc_bytes) = bytes.split_at(8);
    let stored = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(seq_bytes) != stored {
        return Err(FollowerError::SidecarCorrupt);
    }
    Ok(u64::from_be_bytes([
        seq_bytes[0],
        seq_bytes[1],
        seq_bytes[2],
        seq_bytes[3],
        seq_bytes[4],
        seq_bytes[5],
        seq_bytes[6],
        seq_bytes[7],
    ]))
}

/// A replica that catches up from a primary snapshot and then applies
/// the shipped WAL stream into its own [`Ledger`] + local WAL.
///
/// Transport-agnostic: the caller fetches the snapshot for
/// [`bootstrap`](Self::bootstrap), and [`poll`](Self::poll) and
/// [`run`](Self::run) take a closure that carries a request to the
/// primary and returns its answer (a `TcpTransport` call, say).
pub struct Follower {
    ledger: Arc<Ledger>,
    disk: Arc<dyn Disk>,
    /// Sequence number the bootstrap snapshot covered.
    base_seq: u64,
    /// Next sequence number this follower needs (== the `from_seq` its
    /// next poll should carry; everything below is durably applied).
    next_seq: u64,
    /// Mirror of `next_seq - 1` for scrapes.
    applied_gauge: Gauge,
    /// Primary's durable seq as of the last applied segment.
    source_durable_gauge: Gauge,
    /// Wall time of one segment apply (decode + store + local WAL).
    apply_us: Histogram,
}

impl Follower {
    /// Materialize a follower from a primary snapshot (`Response::Snapshot`
    /// payload): validate it, persist it locally under a fresh local WAL
    /// (generation 0), record the covered seq in the sidecar, and recover
    /// a serving ledger from the lot. `durability.snapshot_every` is
    /// forced off — the follower's local WAL must not rotate, because its
    /// record count is what locates the replication cursor on reopen.
    pub fn bootstrap(
        config: LedgerConfig,
        tsa: TimestampAuthority,
        num_shards: usize,
        mut durability: DurabilityConfig,
        snapshot_seq: u64,
        snapshot_data: &[u8],
    ) -> Result<Follower, FollowerError> {
        let snap = decode_snapshot(snapshot_data)?;
        if snap.ledger != config.id {
            return Err(FollowerError::Snapshot(SnapshotError::Corrupt(
                "snapshot belongs to a different ledger",
            )));
        }
        // Re-anchor the snapshot to the follower's fresh local WAL:
        // generation 0, replay resuming right after the header.
        let local = encode_snapshot(snap.ledger, 0, WAL_HEADER_LEN as u64, &snap.records);
        let disk = durability.disk.clone();
        disk.write_atomic(WAL_PATH, &encode_header(config.id, 0))?;
        disk.write_atomic(SNAPSHOT_PATH, &local)?;
        disk.write_atomic(REPLICA_SEQ_PATH, &encode_sidecar(snapshot_seq))?;
        durability.snapshot_every = None;
        let ledger = Ledger::recover(config, tsa, num_shards, durability)?;
        Ok(Follower::assemble(
            ledger,
            disk,
            snapshot_seq,
            snapshot_seq + 1,
        ))
    }

    /// Reopen a follower from its own disk after a crash: recover the
    /// local snapshot + WAL, then recompute the replication cursor as
    /// the sidecar base plus the local WAL's record count (valid because
    /// the local WAL never rotates).
    pub fn reopen(
        config: LedgerConfig,
        tsa: TimestampAuthority,
        num_shards: usize,
        mut durability: DurabilityConfig,
    ) -> Result<Follower, FollowerError> {
        let disk = durability.disk.clone();
        let base_seq = decode_sidecar(&disk.read(REPLICA_SEQ_PATH)?)?;
        durability.snapshot_every = None;
        let ledger = Ledger::recover(config, tsa, num_shards, durability)?;
        let replayed = ledger
            .recovery_report()
            .map(|r| r.wal_records as u64)
            .unwrap_or(0);
        Ok(Follower::assemble(
            ledger,
            disk,
            base_seq,
            base_seq + replayed + 1,
        ))
    }

    fn assemble(ledger: Ledger, disk: Arc<dyn Disk>, base_seq: u64, next_seq: u64) -> Follower {
        let registry = ledger.metrics().clone();
        let applied_gauge = registry.gauge("irs_ledger_repl_applied_seq");
        let source_durable_gauge = registry.gauge("irs_ledger_repl_source_durable_seq");
        let apply_us = registry.histogram("irs_ledger_repl_apply_us");
        applied_gauge.set(next_seq - 1);
        Follower {
            ledger: Arc::new(ledger),
            disk,
            base_seq,
            next_seq,
            applied_gauge,
            source_durable_gauge,
            apply_us,
        }
    }

    /// The ledger this follower applies into. Promotion is handing this
    /// handle to a server: the follower's state is already durable and
    /// byte-identical to everything it acked, so it serves immediately.
    pub fn ledger(&self) -> Arc<Ledger> {
        self.ledger.clone()
    }

    /// This ledger's identifier.
    pub fn id(&self) -> LedgerId {
        self.ledger.id()
    }

    /// The sequence number the bootstrap snapshot covered.
    pub fn base_seq(&self) -> u64 {
        self.base_seq
    }

    /// The `from_seq` the next poll should carry: everything below it is
    /// durably applied here (polling it is the ack).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Replication lag against the last segment's view of the primary:
    /// `durable_seq - (next_seq - 1)`.
    pub fn lag(&self) -> u64 {
        self.source_durable_gauge
            .get()
            .saturating_sub(self.next_seq - 1)
    }

    /// Apply one shipped segment, strictly in order:
    ///
    /// * retention moved past our cursor, or the segment starts beyond
    ///   it → [`ApplyError::Gap`] (re-bootstrap; never apply a hole);
    /// * every frame below our cursor → [`ApplyError::Duplicate`];
    /// * framing/CRC/payload damage → [`ApplyError::Corrupt`];
    /// * partial overlap → the already-applied prefix is skipped.
    ///
    /// Records are inserted with the primary's serials, timestamps, and
    /// epochs (byte-identical state), appended to the local WAL under
    /// the same shard locks, and committed before return — only then is
    /// advancing the poll cursor (the ack) sound. Returns the number of
    /// records applied.
    pub fn apply_segment(&mut self, seg: &SegmentData) -> Result<usize, ApplyError> {
        let started = Instant::now();
        self.source_durable_gauge.set(seg.durable_seq);
        if seg.log_start_seq > self.next_seq {
            return Err(ApplyError::Gap {
                expected: self.next_seq,
                got: seg.log_start_seq,
            });
        }
        let records = decode_frames(&seg.frames).map_err(ApplyError::Corrupt)?;
        if records.is_empty() {
            return Ok(0);
        }
        let end_seq = seg.first_seq + records.len() as u64 - 1;
        if seg.first_seq > self.next_seq {
            return Err(ApplyError::Gap {
                expected: self.next_seq,
                got: seg.first_seq,
            });
        }
        if end_seq < self.next_seq {
            return Err(ApplyError::Duplicate { through: end_seq });
        }
        let skip = (self.next_seq - seg.first_seq) as usize;
        let mut applied = 0usize;
        let mut last_lsn = None;
        for record in &records[skip..] {
            let receipt = self.ledger.apply_replicated(record)?;
            last_lsn = Some(receipt.lsn);
            self.next_seq += 1;
            applied += 1;
        }
        // Durable before acked: commit the batch once, then advance the
        // cursor the next poll exposes.
        if let Some(lsn) = last_lsn {
            self.ledger.commit_replicated(lsn)?;
        }
        self.applied_gauge.set(self.next_seq - 1);
        self.apply_us.record_since(started);
        Ok(applied)
    }

    /// One step of the tail: `fetch` carries `WalSubscribe` from our
    /// cursor (the ack) to the primary, and its segment goes through
    /// [`apply_segment`](Self::apply_segment); no answer, or not a
    /// segment, is [`ApplyError::Corrupt`] and changes nothing.
    pub fn poll(
        &mut self,
        fetch: impl FnOnce(Request) -> Option<Response>,
    ) -> Result<usize, ApplyError> {
        let seg = fetch(Request::WalSubscribe {
            from_seq: self.next_seq,
            max_frames: POLL_FRAMES,
        })
        .and_then(|r| SegmentData::try_from(r).ok())
        .ok_or(ApplyError::Corrupt("the WAL poll got no segment back"))?;
        self.apply_segment(&seg)
    }

    /// Tail the primary through `fetch` until `stop` is set (`Ok`) or a
    /// poll fails (its error). An empty poll sleeps 50 µs, doubling up to
    /// 200 µs, or 10 ms once 100 polls in a row came back empty. A fresh
    /// tail starts idle; any applied record resets the schedule. A
    /// primary served by `LedgerServer` holds an empty poll until the
    /// next commit, so there the sleep follows only a poll that waited
    /// out a whole hold; it is what keeps the tail from spinning against
    /// a primary that answers at once (an in-process `Ledger::handle`).
    pub fn run(
        &mut self,
        mut fetch: impl FnMut(Request) -> Option<Response>,
        stop: &AtomicBool,
    ) -> Result<(), ApplyError> {
        let mut backoff = BACKOFF_MIN;
        let mut empty_polls = ACTIVE_POLLS;
        while !stop.load(Ordering::SeqCst) {
            if self.poll(&mut fetch)? > 0 {
                backoff = BACKOFF_MIN;
                empty_polls = 0;
                continue;
            }
            std::thread::sleep(backoff);
            empty_polls = empty_polls.saturating_add(1);
            let idle = empty_polls >= ACTIVE_POLLS;
            backoff = (backoff * 2).min(if idle { BACKOFF_IDLE } else { BACKOFF_ACTIVE });
        }
        Ok(())
    }

    /// The follower's local disk (tests inject faults through it).
    pub fn disk(&self) -> &Arc<dyn Disk> {
        &self.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::time::TimeMs;

    #[test]
    fn sidecar_roundtrips_and_rejects_damage() {
        let bytes = encode_sidecar(123_456);
        assert_eq!(decode_sidecar(&bytes).unwrap(), 123_456);
        let mut flipped = bytes.clone();
        flipped[3] ^= 0x10;
        assert!(matches!(
            decode_sidecar(&flipped),
            Err(FollowerError::SidecarCorrupt)
        ));
        assert!(matches!(
            decode_sidecar(&bytes[..7]),
            Err(FollowerError::SidecarCorrupt)
        ));
    }

    #[test]
    fn log_serves_only_contiguous_durable_runs() {
        let registry = Registry::new();
        let log = ReplicationLog::new(1, 64, &registry);
        log.publish(1, vec![0xa1]);
        log.publish(3, vec![0xa3]); // hole at 2: concurrent shard won the race
        let seg = log.segment(1, 16, 3);
        assert_eq!(seg.first_seq, 1);
        assert_eq!(seg.frames.as_ref(), &[0xa1]); // stops at the hole
        log.publish(2, vec![0xa2]);
        let seg = log.segment(1, 16, 3);
        assert_eq!(seg.frames.as_ref(), &[0xa1, 0xa2, 0xa3]);
        // Durability bound: seq 3 not shipped when durable_seq = 2.
        let seg = log.segment(1, 16, 2);
        assert_eq!(seg.frames.as_ref(), &[0xa1, 0xa2]);
        // max_frames bound.
        let seg = log.segment(1, 2, 3);
        assert_eq!(seg.frames.as_ref(), &[0xa1, 0xa2]);
    }

    #[test]
    fn log_retention_moves_start_seq() {
        let registry = Registry::new();
        let log = ReplicationLog::new(1, 4, &registry);
        for seq in 1..=10u64 {
            log.publish(seq, vec![seq as u8]);
        }
        let seg = log.segment(1, 16, 10);
        assert!(seg.frames.is_empty());
        assert_eq!(seg.log_start_seq, 7); // 8 retained → 4 kept: 7..=10
        let seg = log.segment(7, 16, 10);
        assert_eq!(seg.frames.as_ref(), &[7, 8, 9, 10]);
    }

    #[test]
    fn acks_prune_and_release_waiters() {
        let registry = Registry::new();
        let log = Arc::new(ReplicationLog::new(1, 64, &registry));
        log.publish(1, vec![1]);
        log.publish(2, vec![2]);
        let timed_out = Response::MetricsText("timed out".into());
        let write = |timeout| Held::ack(log.clone(), 2, Response::Pong, timeout, timed_out.clone());
        assert_eq!(write(Duration::from_millis(10)).wait(), timed_out);
        let waiter = {
            let write = write(Duration::from_secs(5));
            std::thread::spawn(move || write.wait())
        };
        let parked = || log.inner.lock().unwrap().parked.len();
        while parked() == 0 {
            std::thread::yield_now();
        }
        log.record_ack(2);
        assert_eq!(waiter.join().unwrap(), Response::Pong);
        assert_eq!(log.acked_seq(), 2);
        // Pruned: a poll below the ack sees retention moved past it.
        let seg = log.segment(1, 16, 2);
        assert!(seg.frames.is_empty());
        assert_eq!(seg.log_start_seq, 3);
        // Stale ack never regresses the high-water mark.
        log.record_ack(1);
        assert_eq!(log.acked_seq(), 2);
    }

    /// The lag gauge follows the ack itself: once the follower's final
    /// ack is in, it reads zero before any further segment is served.
    #[test]
    fn the_final_ack_zeroes_the_lag_gauge() {
        let registry = Registry::new();
        let log = ReplicationLog::new(1, 64, &registry);
        let lag = || irs_obs::parse_exposition(&registry.render())["irs_ledger_repl_lag"];
        log.publish(1, vec![1]);
        log.publish(2, vec![2]);
        log.shipped(2);
        assert_eq!(log.segment(1, 16, 2).frames.as_ref(), &[1, 2]);
        assert_eq!(lag(), 2.0);
        log.record_ack(1);
        assert_eq!(lag(), 1.0);
        log.record_ack(2);
        assert_eq!(lag(), 0.0);
    }

    /// Held replies complete when their mark moves — from the thread
    /// that moved it — and never twice; a reply whose condition already
    /// holds is answered at once.
    #[test]
    fn held_replies_complete_when_their_mark_moves() {
        let registry = Registry::new();
        let log = Arc::new(ReplicationLog::new(1, 64, &registry));
        let answers = Arc::new(Mutex::new(Vec::new()));
        let park = |held: Held| {
            let answers = answers.clone();
            held.park(move |answer| answers.lock().unwrap().push(answer))
        };
        let empty = log.segment(1, 16, 0);
        let poll = Held::ship(log.clone(), 16, empty.clone());
        assert_eq!(poll.fallback(), &Response::from(empty));
        assert!(park(poll).is_none());
        let write = Held::ack(
            log.clone(),
            1,
            Response::Pong,
            Duration::from_secs(5),
            Response::Pong,
        );
        assert!(park(write).is_none());

        // A commit gives the poll its frame; the write still waits.
        log.publish(1, vec![0xa1]);
        log.shipped(1);
        let shipped = std::mem::take(&mut *answers.lock().unwrap());
        let [Response::WalSegment { frames, .. }] = &shipped[..] else {
            panic!("expected the poll's segment, got {shipped:?}");
        };
        assert_eq!(frames.as_ref(), &[0xa1]);
        // The ack completes the write, once.
        log.record_ack(1);
        log.record_ack(1);
        assert_eq!(*answers.lock().unwrap(), [Response::Pong]);
        // Already true at park time: answered in place.
        let acked = Held::ack(
            log.clone(),
            1,
            Response::Pong,
            Duration::ZERO,
            Response::Pong,
        );
        assert_eq!(park(acked), Some(Response::Pong));
    }

    /// A durable primary and a follower bootstrapped from it, empty.
    fn pair() -> (Ledger, Follower) {
        use crate::{ChaosDisk, ChaosDiskConfig, FsyncPolicy};
        let durable = |seed| {
            let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
            DurabilityConfig::new(disk as Arc<dyn Disk>, FsyncPolicy::Always)
        };
        let config = || LedgerConfig::new(LedgerId(1));
        let tsa = || TimestampAuthority::from_seed(0x26);
        let primary = Ledger::recover(config(), tsa(), 4, durable(1)).unwrap();
        let (seq, snap) = primary.replication_snapshot().unwrap();
        let follower = Follower::bootstrap(config(), tsa(), 4, durable(2), seq, &snap).unwrap();
        (primary, follower)
    }

    fn claim(primary: &Ledger, i: u64) {
        use irs_core::claim::ClaimRequest;
        let kp = irs_crypto::Keypair::from_seed(&[0x26; 32]);
        let req = ClaimRequest::create(&kp, &irs_crypto::Digest::of(&i.to_le_bytes()));
        primary.claim_custodial(req, TimeMs(i)).unwrap();
    }

    #[test]
    fn a_poll_answered_without_a_segment_changes_nothing() {
        let (primary, mut follower) = pair();
        claim(&primary, 0);
        let state = |f: &Follower| {
            let wal_len = f.ledger().durability().unwrap().wal_position().1;
            (f.next_seq(), f.ledger().store().len(), wal_len)
        };
        let before = state(&follower);
        for answer in [None, Some(Response::Pong)] {
            let err = follower.poll(|_| answer).unwrap_err();
            assert!(matches!(err, ApplyError::Corrupt(_)), "{err:?}");
            assert_eq!(state(&follower), before);
        }
        let applied = follower.poll(|req| Some(primary.handle(req, TimeMs(0))));
        assert_eq!(applied.unwrap(), 1);
    }

    #[test]
    fn run_tails_a_live_primary_and_returns_promptly_on_stop() {
        let (primary, mut follower) = pair();
        let replica = follower.ledger();
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            let tail = s.spawn(|| follower.run(|req| Some(primary.handle(req, TimeMs(0))), &stop));
            s.spawn(|| (0..200).for_each(|i| claim(&primary, i)))
                .join()
                .unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while replica.store().len() < 200 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let stopped = Instant::now();
            stop.store(true, Ordering::SeqCst);
            tail.join().unwrap().unwrap();
            assert!(stopped.elapsed() < Duration::from_millis(50));
        });
        let bytes = |ledger: &Ledger| ledger.replication_snapshot().unwrap().1;
        assert!(bytes(&replica) == bytes(&primary), "follower diverged");
    }

    #[test]
    fn run_fails_once_the_primary_stops_answering() {
        let (primary, mut follower) = pair();
        claim(&primary, 0);
        let mut answers = 2;
        let fetch = |req| {
            answers -= 1;
            (answers >= 0).then(|| primary.handle(req, TimeMs(0)))
        };
        let err = follower.run(fetch, &AtomicBool::new(false)).unwrap_err();
        assert!(matches!(err, ApplyError::Corrupt(_)), "{err:?}");
        assert_eq!(follower.next_seq(), 2);
    }
}
