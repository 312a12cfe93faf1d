//! Replication robustness: the WAL's sequence numbering at the exact
//! group-commit boundary, a lying fsync during a live tail-follow, gap
//! detection on the follower apply path, and follower crash-reopen —
//! the in-process counterparts of E20's kill-the-primary sweep.

use std::sync::Arc;

use irs::crypto::{Digest, Keypair};
use irs::ledger::wal::WalWriter;
use irs::ledger::{
    ChaosDisk, ChaosDiskConfig, Disk, DiskFault, DurabilityConfig, Follower, FsyncPolicy, Ledger,
    LedgerConfig, SegmentData,
};
use irs::protocol::claim::ClaimRequest;
use irs::protocol::ids::LedgerId;
use irs::protocol::time::TimeMs;
use irs::protocol::tsa::TimestampAuthority;
use irs::protocol::wire::{Request, Response};

const LEDGER: LedgerId = LedgerId(1);

fn config() -> LedgerConfig {
    LedgerConfig::new(LEDGER)
}

fn tsa() -> TimestampAuthority {
    TimestampAuthority::from_seed(0x51)
}

fn durability(disk: &Arc<ChaosDisk>, fsync: FsyncPolicy) -> DurabilityConfig {
    DurabilityConfig::new(disk.clone() as Arc<dyn Disk>, fsync)
}

fn claim(i: u64) -> ClaimRequest {
    let kp = Keypair::from_seed(&[0x52; 32]);
    ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()))
}

/// One in-process follower poll against the primary's request path.
fn poll_once(primary: &Ledger, follower: &mut Follower) -> usize {
    let Response::WalSegment {
        first_seq,
        durable_seq,
        log_start_seq,
        frames,
    } = primary.handle(
        Request::WalSubscribe {
            from_seq: follower.next_seq(),
            max_frames: 64,
        },
        TimeMs(0),
    )
    else {
        panic!("expected WalSegment");
    };
    follower
        .apply_segment(&SegmentData {
            first_seq,
            durable_seq,
            log_start_seq,
            frames,
        })
        .expect("clean stream must apply")
}

fn bootstrap_from(primary: &Ledger, disk: &Arc<ChaosDisk>) -> Follower {
    let (seq, data) = primary.replication_snapshot().unwrap();
    Follower::bootstrap(
        config(),
        tsa(),
        4,
        durability(disk, FsyncPolicy::Always),
        seq,
        &data,
    )
    .unwrap()
}

fn state_bytes(ledger: &Ledger) -> Vec<u8> {
    ledger.replication_snapshot().unwrap().1
}

/// `FsyncPolicy::EveryN` at the exact group-commit boundary: the Nth
/// append trips the sync (record N is replicable), the N+1th does not
/// (record N+1 is not) — off-by-one here either ships a losable frame
/// or withholds a durable one.
#[test]
fn every_n_boundary_gates_replicable_seq() {
    let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(1)));
    let wal = WalWriter::open(
        disk.clone() as Arc<dyn Disk>,
        "wal",
        LEDGER,
        FsyncPolicy::EveryN(4),
    )
    .unwrap();
    let record = irs::ledger::WalRecord::AppealPin {
        id: irs::protocol::ids::RecordId::new(LEDGER, 0),
    };
    for expected_seq in 1..=4u64 {
        let receipt = wal.append(&record).unwrap();
        assert_eq!(receipt.seq, expected_seq);
    }
    // Exactly N appends: the group commit fired, everything is durable.
    assert_eq!(wal.synced_seq(), 4);
    assert_eq!(wal.replicable_seq(), 4);

    // The N+1th append starts the next group: appended, sequenced, but
    // NOT replicable — shipping it would hand a follower a frame the
    // primary could still lose.
    let receipt = wal.append(&record).unwrap();
    assert_eq!(receipt.seq, 5);
    assert_eq!(wal.last_seq(), 5);
    assert_eq!(wal.synced_seq(), 4);
    assert_eq!(wal.replicable_seq(), 4);

    // Three more complete the next group of N.
    for _ in 0..3 {
        wal.append(&record).unwrap();
    }
    assert_eq!(wal.replicable_seq(), 8);
}

/// A segment whose retention window moved past the follower's cursor is
/// a gap, and the follower re-syncs (fresh bootstrap) rather than
/// applying around the hole.
#[test]
fn follower_rejects_gap_and_resyncs() {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(2)));
    let primary =
        Ledger::recover(config(), tsa(), 4, durability(&calm, FsyncPolicy::Always)).unwrap();
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(3)));
    let mut follower = bootstrap_from(&primary, &follower_disk);

    for i in 0..6 {
        primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
    }
    // Deliver a segment claiming retention starts beyond the cursor —
    // what a fallen-behind follower sees after eviction.
    let err = follower
        .apply_segment(&SegmentData {
            first_seq: 4,
            durable_seq: 6,
            log_start_seq: 4,
            frames: bytes::Bytes::new(),
        })
        .unwrap_err();
    assert!(matches!(
        err,
        irs::ledger::ApplyError::Gap {
            expected: 1,
            got: 4
        }
    ));
    // Nothing was applied around the hole.
    assert_eq!(follower.next_seq(), 1);
    assert_eq!(follower.ledger().store().len(), 0);

    // The re-sync: a fresh bootstrap from the primary's current state.
    let resync_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(4)));
    let resynced = bootstrap_from(&primary, &resync_disk);
    assert_eq!(resynced.next_seq(), 7);
    assert_eq!(
        state_bytes(&resynced.ledger()),
        state_bytes(&primary),
        "re-synced follower must be byte-identical"
    );
}

/// A lying fsync during tail-follow: the primary believes its tail is
/// durable and ships it; power loss then erases what the drive never
/// wrote. The restarted primary's stream no longer lines up with the
/// follower's cursor — the follower detects the divergence (stale
/// cursor ahead of the reborn primary's durable seq) and re-syncs from
/// a snapshot rather than trusting seq continuity across the restart.
#[test]
fn fsync_lie_during_tail_follow_forces_resync() {
    const CLAIMS: u64 = 10;
    // Find a seed whose torn-tail roll actually destroys records — the
    // schedule is deterministic, so the scan is too. (A lie with a
    // merciful tear loses nothing; the test needs the cruel universe.)
    let lying_disk = |seed| {
        Arc::new(ChaosDisk::new(ChaosDiskConfig {
            seed,
            fault_rate: 1.0,
            modes: vec![DiskFault::FsyncLie],
            crash_at_bytes: None,
        }))
    };
    let (seed, survivors) = (0..64)
        .find_map(|seed| {
            let disk = lying_disk(seed);
            let primary =
                Ledger::recover(config(), tsa(), 4, durability(&disk, FsyncPolicy::Always))
                    .unwrap();
            for i in 0..CLAIMS {
                primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
            }
            drop(primary);
            disk.crash(); // the lied-about tail evaporates
            let reborn =
                Ledger::recover(config(), tsa(), 4, durability(&disk, FsyncPolicy::Always))
                    .unwrap();
            let survivors = reborn.store().len() as u64;
            (survivors < CLAIMS).then_some((seed, survivors))
        })
        .expect("some seed must tear the lied-about tail");

    // Replay the doomed first life, this time with a live follower
    // tailing it. Polls read the in-memory replication log, not the
    // disk, so the primary's fault schedule replays identically.
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(5)));
    let disk = lying_disk(seed);
    let primary =
        Ledger::recover(config(), tsa(), 4, durability(&disk, FsyncPolicy::Always)).unwrap();
    let mut follower = bootstrap_from(&primary, &follower_disk);
    for i in 0..CLAIMS {
        primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
        poll_once(&primary, &mut follower);
    }
    // The lie let the primary ship everything; the follower applied and
    // durably holds all of it.
    assert_eq!(follower.next_seq(), CLAIMS + 1);
    drop(primary);
    disk.crash();

    // The reborn primary lost records the follower already holds: its
    // durable seq sits *below* the follower's cursor.
    let reborn =
        Ledger::recover(config(), tsa(), 4, durability(&disk, FsyncPolicy::Always)).unwrap();
    assert_eq!(reborn.store().len() as u64, survivors);
    let Response::WalSegment {
        durable_seq,
        frames,
        ..
    } = reborn.handle(
        Request::WalSubscribe {
            from_seq: follower.next_seq(),
            max_frames: 64,
        },
        TimeMs(0),
    )
    else {
        panic!("expected WalSegment");
    };
    assert!(frames.is_empty(), "nothing past the cursor may be shipped");
    assert!(
        durable_seq < follower.next_seq() - 1,
        "restart must be detectable: primary durable seq {durable_seq} \
         below follower cursor {}",
        follower.next_seq() - 1
    );

    // The rule on any reconnect: never trust seq continuity — re-sync.
    // (The follower is *ahead* of the reborn primary here; blindly
    // tailing would permanently diverge the replicas instead of
    // converging them.)
    let resync_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(6)));
    let resynced = bootstrap_from(&reborn, &resync_disk);
    assert_eq!(
        state_bytes(&resynced.ledger()),
        state_bytes(&reborn),
        "post-resync replica must be byte-identical to the reborn primary"
    );
}

/// A follower crash mid-tail: reopen recovers its local WAL and the
/// sidecar relocates the replication cursor exactly — no frame is
/// re-requested that was durable, none is skipped that was not.
#[test]
fn follower_reopen_relocates_cursor() {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(7)));
    let primary =
        Ledger::recover(config(), tsa(), 4, durability(&calm, FsyncPolicy::Always)).unwrap();
    for i in 0..3 {
        primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
    }
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(8)));
    let mut follower = bootstrap_from(&primary, &follower_disk);
    assert_eq!(follower.base_seq(), 3);
    for i in 3..7 {
        primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
    }
    poll_once(&primary, &mut follower);
    assert_eq!(follower.next_seq(), 8);
    drop(follower);

    // Crash + reopen on the follower's own disk: cursor = sidecar base
    // + local WAL records (its WAL never rotates, by construction).
    let reopened = Follower::reopen(
        config(),
        tsa(),
        4,
        durability(&follower_disk, FsyncPolicy::Always),
    )
    .unwrap();
    assert_eq!(reopened.base_seq(), 3);
    assert_eq!(reopened.next_seq(), 8);
    assert_eq!(
        state_bytes(&reopened.ledger()),
        state_bytes(&primary),
        "reopened follower must hold exactly what it acked"
    );
}

/// Promotion readiness: a caught-up follower's ledger serves reads and
/// accepts new durable writes (it is a primary now, with its own
/// replication log starting where its stream left off).
#[test]
fn promoted_follower_accepts_writes() {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(9)));
    let primary =
        Ledger::recover(config(), tsa(), 4, durability(&calm, FsyncPolicy::Always)).unwrap();
    for i in 0..4 {
        primary.claim_custodial(claim(i), TimeMs(i)).unwrap();
    }
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(10)));
    let mut follower = bootstrap_from(&primary, &follower_disk);
    poll_once(&primary, &mut follower);
    let promoted = follower.ledger();
    assert_eq!(promoted.store().len(), 4);

    // New writes land with fresh serials after the replicated ones.
    let (id, _) = promoted.claim_custodial(claim(100), TimeMs(100)).unwrap();
    assert_eq!(id.serial, 4);
    // And they are durable: the promoted follower's own disk holds them.
    drop(promoted);
    drop(follower);
    let reopened = Follower::reopen(
        config(),
        tsa(),
        4,
        durability(&follower_disk, FsyncPolicy::Always),
    )
    .unwrap();
    assert_eq!(reopened.ledger().store().len(), 5);
}
