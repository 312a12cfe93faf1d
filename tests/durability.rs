//! End-to-end crash-safety: acknowledged writes survive power loss at
//! every injected crash point, torn final records never prevent startup,
//! and mid-log corruption of a revocation fails closed. Drives the whole
//! durable stack — [`Ledger`] over a seeded [`ChaosDisk`] —
//! the in-process equivalent of E17's crash-point sweep.

use std::sync::Arc;

use irs::crypto::{Digest, Keypair};
use irs::ledger::service::{SNAPSHOT_PATH, WAL_PATH};
use irs::ledger::wal::{encode_header, WAL_HEADER_LEN};
use irs::ledger::{
    ChaosDisk, ChaosDiskConfig, Disk, DurabilityConfig, FsyncPolicy, Ledger, LedgerConfig,
    WalRecord,
};
use irs::protocol::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::time::TimeMs;
use irs::protocol::tsa::TimestampAuthority;
use irs::protocol::wire::{Request, Response};

const LEDGER: LedgerId = LedgerId(1);
const CLAIMS: u64 = 12;

/// Base seed for the torn-write universes below; override with
/// `CHAOS_SEED=<n>` to replay a different one (CI runs two). Every
/// assertion must hold for any seed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

fn config() -> LedgerConfig {
    LedgerConfig::new(LEDGER)
}

fn durability(disk: &Arc<ChaosDisk>, fsync: FsyncPolicy) -> DurabilityConfig {
    DurabilityConfig::new(disk.clone() as Arc<dyn Disk>, fsync)
}

fn recover(disk: &Arc<ChaosDisk>, fsync: FsyncPolicy) -> Ledger {
    Ledger::recover(
        config(),
        TimestampAuthority::from_seed(17),
        4,
        durability(disk, fsync),
    )
    .expect("recovery must succeed on a disarmed disk")
}

/// The deterministic workload the crash sweep replays: `CLAIMS` claims,
/// then a revoke of every even serial. Precomputed so each crash point
/// re-signs nothing.
struct Workload {
    claims: Vec<ClaimRequest>,
    revokes: Vec<RevokeRequest>,
}

impl Workload {
    fn new() -> Workload {
        let kp = Keypair::from_seed(&[0xD1; 32]);
        let claims: Vec<ClaimRequest> = (0..CLAIMS)
            .map(|i| ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes())))
            .collect();
        let revokes = (0..CLAIMS)
            .step_by(2)
            .map(|serial| RevokeRequest::create(&kp, RecordId::new(LEDGER, serial), true, 0))
            .collect();
        Workload { claims, revokes }
    }

    /// Run against `ledger`, returning the acknowledged operations:
    /// claimed record ids and the serials whose revocation was acked.
    /// Stops at the first storage failure (the simulated power loss).
    fn run(&self, ledger: &Ledger) -> (Vec<RecordId>, Vec<u64>) {
        let mut acked_claims = Vec::new();
        let mut acked_revokes = Vec::new();
        for (i, req) in self.claims.iter().enumerate() {
            match ledger.claim_custodial(*req, TimeMs(i as u64)) {
                Ok((id, _)) => acked_claims.push(id),
                Err(_) => return (acked_claims, acked_revokes),
            }
        }
        for rv in &self.revokes {
            match ledger.handle(Request::Revoke(*rv), TimeMs(100)) {
                Response::RevokeAck { .. } => acked_revokes.push(rv.id.serial),
                Response::Error { code, .. } => {
                    assert_eq!(
                        code,
                        irs::ledger::codes::STORAGE,
                        "only storage failures may reject this workload"
                    );
                    return (acked_claims, acked_revokes);
                }
                other => panic!("unexpected revoke response: {other:?}"),
            }
        }
        (acked_claims, acked_revokes)
    }
}

/// Assert that a recovered ledger still holds every acknowledged write.
fn assert_acked_recovered(ledger: &Ledger, acked: &(Vec<RecordId>, Vec<u64>)) {
    for id in &acked.0 {
        let resp = ledger.handle(Request::Query { id: *id }, TimeMs(1_000));
        assert!(
            matches!(resp, Response::Status { .. }),
            "acked claim {id:?} lost after crash: {resp:?}"
        );
    }
    for &serial in &acked.1 {
        let id = RecordId::new(LEDGER, serial);
        let Response::Status { status, .. } = ledger.handle(Request::Query { id }, TimeMs(1_000))
        else {
            panic!("acked revoke target {serial} lost after crash");
        };
        assert_eq!(
            status,
            RevocationStatus::Revoked,
            "acked revocation of serial {serial} lost after crash"
        );
    }
}

/// The tentpole guarantee: with fsync `Always`, a crash at *any* byte
/// offset in the WAL's life loses nothing that was acknowledged. Sweeps
/// power-loss points across the whole log and recovers at each one.
#[test]
fn acked_writes_survive_crash_at_every_point_under_fsync_always() {
    let workload = Workload::new();

    // Dry run on a fault-free disk to learn the log's total extent.
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(1)));
    let ledger = recover(&calm, FsyncPolicy::Always);
    let acked = workload.run(&ledger);
    assert_eq!(acked.0.len() as u64, CLAIMS, "dry run must ack everything");
    let total_bytes = calm.total_appended();

    // ~48 crash points spread over the log, plus the exact end.
    let stride = (total_bytes / 48).max(1);
    let mut crash_points: Vec<u64> = (1..total_bytes).step_by(stride as usize).collect();
    crash_points.push(total_bytes - 1);
    for cap in crash_points {
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::crash_at(chaos_seed(), cap)));
        // Power loss during the initial header write: nothing was ever
        // acknowledged, so there is nothing to check — but the *next*
        // boot must still come up clean.
        let acked = match Ledger::recover(
            config(),
            TimestampAuthority::from_seed(17),
            4,
            durability(&disk, FsyncPolicy::Always),
        ) {
            Ok(ledger) => workload.run(&ledger),
            Err(_) => (Vec::new(), Vec::new()),
        };
        let recovered = recover(&disk, FsyncPolicy::Always);
        assert_acked_recovered(&recovered, &acked);
        // The recovered ledger accepts new writes on the same disk.
        let kp = Keypair::from_seed(&[0xAF; 32]);
        recovered
            .claim_custodial(
                ClaimRequest::create(&kp, &Digest::of(b"post")),
                TimeMs(2_000),
            )
            .expect("recovered ledger must accept writes (crash point {cap})");
    }
}

/// Crash with an *unsynced* tail (fsync left to the OS): recovery must
/// still start — whatever tears off the tail is unacknowledged by
/// definition — and every record the torn log retains is intact.
#[test]
fn torn_unsynced_tail_recovers_to_a_prefix() {
    let workload = Workload::new();
    for seed in [chaos_seed(), 3, 5, 8, 13] {
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
        let ledger = recover(&disk, FsyncPolicy::OsDefault);
        workload.run(&ledger);
        disk.crash();
        let recovered = recover(&disk, FsyncPolicy::OsDefault);
        // Recovered claims are a prefix of the workload (appends persist
        // in order), each with its original content.
        let n = recovered.store().len();
        assert!(n as u64 <= CLAIMS, "seed {seed}: more records than written");
        for serial in 0..n as u64 {
            let resp = recovered.handle(
                Request::Query {
                    id: RecordId::new(LEDGER, serial),
                },
                TimeMs(1_000),
            );
            assert!(
                matches!(resp, Response::Status { .. }),
                "seed {seed}: {resp:?}"
            );
        }
    }
}

/// Satellite of the tentpole: every possible truncation of the final WAL
/// record is a torn tail, and a torn tail never prevents startup.
#[test]
fn torn_final_record_never_prevents_startup() {
    // A claim followed by an appeal pin on it; the sweep truncates the
    // pin's frame at every byte.
    let kp = Keypair::from_seed(&[0x70; 32]);
    let digest = Digest::of(b"pinned");
    let mut bytes = encode_header(LEDGER, 0);
    bytes.extend_from_slice(
        &WalRecord::Claim {
            serial: 0,
            origin: irs::ledger::store::ClaimOrigin::Owner,
            initially_revoked: false,
            request: ClaimRequest::create(&kp, &digest),
            timestamp: TimestampAuthority::from_seed(17).stamp(digest, TimeMs(0)),
        }
        .encode_framed(),
    );
    let keep_full = bytes.len();
    bytes.extend_from_slice(
        &WalRecord::AppealPin {
            id: RecordId::new(LEDGER, 0),
        }
        .encode_framed(),
    );

    for cut in keep_full..bytes.len() {
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(4)));
        disk.write_atomic(WAL_PATH, &bytes[..cut]).unwrap();
        let ledger = recover(&disk, FsyncPolicy::Always);
        let report = ledger.recovery_report().unwrap();
        assert_eq!(
            report.recovered_records, 1,
            "cut at {cut}: only the intact claim replays"
        );
        assert_eq!(
            report.torn_bytes_dropped as usize,
            cut - keep_full,
            "cut at {cut}: the partial frame is dropped as torn"
        );
    }
}

/// Fail-closed satellite: a flipped bit inside a *revocation* record with
/// records after it is not tearing — it is corruption, and a ledger that
/// cannot trust its revocations must refuse to start.
#[test]
fn mid_log_corrupted_revocation_fails_closed() {
    let kp = Keypair::from_seed(&[0x5E; 32]);
    let claim = ClaimRequest::create(&kp, &Digest::of(b"target"));
    let revoke = RevokeRequest::create(&kp, RecordId::new(LEDGER, 0), true, 0);

    // Build the log through the real stack so frames are authentic.
    let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(6)));
    let ledger = recover(&disk, FsyncPolicy::Always);
    ledger.claim_custodial(claim, TimeMs(0)).unwrap();
    let revoke_frame_start = disk.read(WAL_PATH).unwrap().len();
    assert!(matches!(
        ledger.handle(Request::Revoke(revoke), TimeMs(1)),
        Response::RevokeAck { .. }
    ));
    ledger
        .claim_custodial(ClaimRequest::create(&kp, &Digest::of(b"after")), TimeMs(2))
        .unwrap();
    let good = disk.read(WAL_PATH).unwrap();

    // Flip one bit in the middle of the revoke frame's payload.
    let mut corrupt = good.clone();
    corrupt[revoke_frame_start + 12] ^= 0x10;
    let broken = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(6)));
    broken.write_atomic(WAL_PATH, &corrupt).unwrap();
    let result = Ledger::recover(
        config(),
        TimestampAuthority::from_seed(17),
        4,
        durability(&broken, FsyncPolicy::Always),
    );
    let Err(err) = result else {
        panic!("mid-log corruption of a revocation must refuse startup");
    };
    let _ = err.to_string();

    // Control: the uncorrupted bytes recover all three records.
    let fine = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(6)));
    fine.write_atomic(WAL_PATH, &good).unwrap();
    let recovered = recover(&fine, FsyncPolicy::Always);
    assert_eq!(recovered.store().len(), 2);
    let Response::Status { status, .. } = recovered.handle(
        Request::Query {
            id: RecordId::new(LEDGER, 0),
        },
        TimeMs(10),
    ) else {
        panic!("query failed");
    };
    assert_eq!(status, RevocationStatus::Revoked);
}

/// Snapshots bound replay: after a checkpoint the WAL rotates to a new
/// generation and shrinks, and a crash right after still recovers the
/// full acknowledged state from snapshot + short tail.
#[test]
fn snapshot_truncates_wal_and_preserves_state_across_crash() {
    let workload = Workload::new();
    let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(chaos_seed() ^ 10)));
    let mut dcfg = durability(&disk, FsyncPolicy::Always);
    dcfg.snapshot_every = Some(8);
    let ledger = Ledger::recover(config(), TimestampAuthority::from_seed(17), 4, dcfg).unwrap();
    let acked = workload.run(&ledger);
    assert_eq!(acked.0.len() as u64, CLAIMS);

    let (generation, wal_len) = ledger.durability().unwrap().wal_position();
    assert!(generation >= 1, "18 logged ops at every-8 must checkpoint");
    assert!(
        disk.exists(SNAPSHOT_PATH),
        "checkpoint must write a snapshot"
    );
    assert!(
        (wal_len as usize) < WAL_HEADER_LEN + 18 * 60,
        "rotated WAL must be far shorter than the full history ({wal_len} bytes)"
    );

    disk.crash();
    let recovered = recover(&disk, FsyncPolicy::Always);
    assert_acked_recovered(&recovered, &acked);
    let report = recovered.recovery_report().unwrap();
    assert!(
        report.snapshot_records > 0,
        "recovery must load from the snapshot, not just the log"
    );
}

/// Group-commit smoke: concurrent writers under fsync `Always` all get
/// durable acknowledgements (every one survives a crash), while commits
/// piggyback on each other's fsyncs rather than each paying their own.
#[test]
fn concurrent_writers_all_durable_with_group_commit() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 24;

    let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(chaos_seed() ^ 11)));
    let ledger = Arc::new(recover(&disk, FsyncPolicy::Always));
    let ids = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let ledger = ledger.clone();
                scope.spawn(move || {
                    let kp = Keypair::from_seed(&[t as u8 + 1; 32]);
                    (0..PER_THREAD)
                        .map(|i| {
                            let digest = Digest::of(&(t * PER_THREAD + i).to_le_bytes());
                            let (id, _) = ledger
                                .claim_custodial(ClaimRequest::create(&kp, &digest), TimeMs(i))
                                .expect("no faults configured: every claim must ack");
                            id
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(ids.len() as u64, THREADS * PER_THREAD);

    let stats = ledger.durability().unwrap().wal_stats();
    assert_eq!(stats.appends, THREADS * PER_THREAD);
    assert!(
        stats.syncs <= stats.appends,
        "group commit never syncs more than once per append"
    );

    disk.crash();
    let recovered = recover(&disk, FsyncPolicy::Always);
    assert_acked_recovered(&recovered, &(ids, Vec::new()));
}
