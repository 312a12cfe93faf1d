//! Replication robustness: the WAL's sequence numbering at the exact
//! group-commit boundary, a lying fsync during a live tail-follow, gap
//! detection and signature checks on the follower apply path, follower
//! crash-reopen, and a seeded history that the primary, its recovery,
//! the follower and the follower's reopen must all end up holding —
//! the in-process counterparts of E20's kill-the-primary sweep.

use std::sync::Arc;

use irs::crypto::{Digest, Keypair};
use irs::ledger::store::StoredClaim;
use irs::ledger::wal::WalWriter;
use irs::ledger::{
    codes, ApplyError, ChaosDisk, ChaosDiskConfig, Disk, DiskFault, DurabilityConfig, Follower,
    FsyncPolicy, Ledger, LedgerConfig, ReplicationPolicy, SegmentData, StoreError, WalError,
    WalRecord,
};
use irs::protocol::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::time::TimeMs;
use irs::protocol::tsa::TimestampAuthority;
use irs::protocol::wire::{Request, Response};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const LEDGER: LedgerId = LedgerId(1);

/// Seed for the history below; override with `CHAOS_SEED=<n>` to replay
/// a different one (CI runs two). Every assertion must hold for any seed.
fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42)
}

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
    follower
        .poll(|req| Some(primary.handle(req, TimeMs(0))))
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

/// `WalSubscribe` is served on the client port, so anyone can send one.
/// A `from_seq` past the replicable mark is no follower's ack: it must
/// neither release a `WaitForFollower` write nor prune the frames the
/// real follower still needs.
#[test]
fn stray_subscribe_past_the_replicable_mark_acks_nothing() {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(13)));
    let mut wait = durability(&calm, FsyncPolicy::Always);
    wait.replication = ReplicationPolicy::WaitForFollower { timeout_ms: 200 };
    let primary = Ledger::recover(config(), tsa(), 4, wait).unwrap();
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(14)));
    let mut follower = bootstrap_from(&primary, &follower_disk);
    let timed_out = |err: WalError| err.to_string().contains("replication ack timeout");

    // A write the follower has not polled for: unacked, its frame retained.
    assert!(timed_out(
        primary.claim_custodial(claim(0), TimeMs(0)).unwrap_err()
    ));
    let stray = Request::WalSubscribe {
        from_seq: u64::MAX,
        max_frames: 64,
    };
    assert!(SegmentData::try_from(primary.handle(stray, TimeMs(1))).is_ok());
    assert!(timed_out(
        primary.claim_custodial(claim(1), TimeMs(2)).unwrap_err()
    ));
    // Nothing was pruned: the follower's next poll applies both, no gap.
    assert_eq!(poll_once(&primary, &mut follower), 2);
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
    let SegmentData {
        durable_seq,
        frames,
        ..
    } = SegmentData::try_from(reborn.handle(
        Request::WalSubscribe {
            from_seq: follower.next_seq(),
            max_frames: 64,
        },
        TimeMs(0),
    ))
    .expect("expected WalSegment");
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

/// The shipped stream is signed input the follower did not produce: a
/// well-framed `Revoke` whose signature does not verify is refused, and
/// nothing of it reaches the follower's store, cursor or local WAL.
#[test]
fn follower_refuses_a_revoke_whose_signature_does_not_verify() {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(11)));
    let primary =
        Ledger::recover(config(), tsa(), 4, durability(&calm, FsyncPolicy::Always)).unwrap();
    let (id, _) = primary.claim_custodial(claim(0), TimeMs(0)).unwrap();
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(12)));
    let mut follower = bootstrap_from(&primary, &follower_disk);
    let wal_len = |f: &Follower| f.ledger().durability().unwrap().wal_position().1;
    let (cursor, logged) = (follower.next_seq(), wal_len(&follower));

    // Right record, right epoch, wrong signer.
    let forged = RevokeRequest::create(&Keypair::from_seed(&[0x53; 32]), id, true, 0);
    let err = follower
        .apply_segment(&SegmentData {
            first_seq: cursor,
            durable_seq: cursor,
            log_start_seq: cursor,
            frames: WalRecord::Revoke(forged).encode_framed().into(),
        })
        .unwrap_err();
    assert!(
        matches!(err, ApplyError::Store(StoreError::BadSignature)),
        "{err:?}"
    );
    assert_eq!(follower.next_seq(), cursor);
    assert_eq!(wal_len(&follower), logged);
    assert_eq!(
        follower.ledger().store().status(&id),
        Some((RevocationStatus::NotRevoked, 0))
    );
}

/// Every record a ledger holds, in serial order.
fn records(ledger: &Ledger) -> Vec<StoredClaim> {
    ledger.store().frozen_copy(|| ()).0
}

/// What the seeded history does at one step.
#[derive(Clone, Copy)]
enum Op {
    Claim,
    Revoke,
    StaleRevoke,
    ForgedRevoke,
    Pin,
    Snapshot,
}

/// One seeded history through the primary's durable write path — owner,
/// custodial and born-revoked claims; accepted revokes and unrevokes;
/// stale-epoch and wrong-key revokes it refuses; appeal pins; checkpoints
/// at random points — while a follower polls `WalSubscribe` through
/// `Ledger::handle`. Afterwards the live primary, a recovery of its disk,
/// the follower and a reopen of the follower's disk hold the same records.
#[test]
fn seeded_history_reads_the_same_from_primary_recovery_follower_and_reopen() {
    use rand::seq::SliceRandom;
    let seed = chaos_seed();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ops: Vec<Op> = [
        (Op::Claim, 40),
        (Op::Revoke, 60),
        (Op::StaleRevoke, 15),
        (Op::ForgedRevoke, 15),
        (Op::Pin, 8),
        (Op::Snapshot, 6),
    ]
    .iter()
    .flat_map(|&(op, n)| std::iter::repeat(op).take(n))
    .collect();
    ops.shuffle(&mut rng);

    let primary_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed ^ 1)));
    let primary = Ledger::recover(
        config(),
        tsa(),
        4,
        durability(&primary_disk, FsyncPolicy::Always),
    )
    .unwrap();
    let mut follower = bootstrap_from(&primary, &follower_disk);
    let owners: Vec<Keypair> = (0..4u8)
        .map(|i| Keypair::from_seed(&[0x60 + i; 32]))
        .collect();
    let intruder = Keypair::from_seed(&[0x6f; 32]);
    let mut claimed: Vec<(RecordId, usize)> = Vec::new();
    for (step, &op) in ops.iter().enumerate() {
        let now = TimeMs(step as u64);
        let op = if claimed.is_empty() { Op::Claim } else { op };
        let &(id, owner) = claimed
            .choose(&mut rng)
            .unwrap_or(&(RecordId::new(LEDGER, 0), 0));
        match op {
            Op::Claim => {
                let owner = rng.gen_range(0..owners.len());
                let req = ClaimRequest::create(&owners[owner], &Digest::of(&step.to_le_bytes()));
                let id = match rng.gen_range(0..3u32) {
                    0 => match primary.handle(Request::Claim(req), now) {
                        Response::Claimed { id, .. } => id,
                        other => panic!("claim refused: {other:?}"),
                    },
                    1 => primary.claim_custodial(req, now).unwrap().0,
                    _ => primary.claim_revoked(req, now).unwrap().0,
                };
                claimed.push((id, owner));
            }
            Op::Revoke | Op::StaleRevoke | Op::ForgedRevoke => {
                let (status, epoch) = primary.store().status(&id).unwrap();
                let revoke = status == RevocationStatus::NotRevoked;
                let (signer, at, refusal) = match op {
                    Op::StaleRevoke => (&owners[owner], epoch + 1, Some(codes::STALE_EPOCH)),
                    Op::ForgedRevoke => (&intruder, epoch, Some(codes::BAD_SIGNATURE)),
                    _ => (&owners[owner], epoch, None),
                };
                let request = RevokeRequest::create(signer, id, revoke, at);
                let refusal = match status {
                    RevocationStatus::PermanentlyRevoked => Some(codes::POLICY),
                    _ => refusal,
                };
                match (primary.handle(Request::Revoke(request), now), refusal) {
                    (Response::RevokeAck { epoch: after, .. }, None) => {
                        assert_eq!(after, epoch + 1)
                    }
                    (Response::Error { code, .. }, Some(expected)) => assert_eq!(code, expected),
                    (other, expected) => panic!("step {step}: {other:?}, expected {expected:?}"),
                }
            }
            Op::Pin => assert_eq!(primary.permanently_revoke(&id).unwrap(), Ok(())),
            Op::Snapshot => primary.snapshot_now().unwrap(),
        }
        if rng.gen_bool(0.3) {
            poll_once(&primary, &mut follower);
        }
    }
    while poll_once(&primary, &mut follower) > 0 {}

    let history = records(&primary);
    assert_eq!(history.len(), claimed.len());
    assert_eq!(records(&follower.ledger()), history, "follower");
    drop(primary);
    let recovered = Ledger::recover(
        config(),
        tsa(),
        4,
        durability(&primary_disk, FsyncPolicy::Always),
    )
    .unwrap();
    assert_eq!(
        records(&recovered),
        history,
        "recovery of the primary's disk"
    );
    drop(follower);
    let reopened = Follower::reopen(
        config(),
        tsa(),
        4,
        durability(&follower_disk, FsyncPolicy::Always),
    )
    .unwrap();
    assert_eq!(
        records(&reopened.ledger()),
        history,
        "reopen of the follower's disk"
    );
}
