//! Open-time recovery: snapshot + WAL tail replay.
//!
//! The recovery ladder, applied in order:
//!
//! 1. **Snapshot** (if present): decode under its CRC. Any damage is
//!    fatal — snapshots are written atomically, so a corrupt one means
//!    the media lied, and serving guesses about revocation state is the
//!    one thing this system must never do (*fail closed*). Its records
//!    seed the store.
//! 2. **Resume point**: the snapshot records the WAL `(generation,
//!    offset)` it was cut at. If the log still carries that generation,
//!    replay starts at the offset (the covered prefix is skipped
//!    unparsed). If the log is one generation ahead, the post-snapshot
//!    rotation completed and replay starts at the header. Anything else
//!    means files from different histories are mixed — fail closed.
//! 3. **Replay**: apply each logged record to the store through
//!    [`LedgerStore::apply_logged`], the step the primary and the
//!    follower apply records with. A record that does not apply (revoke
//!    of an unknown record, broken epoch chain, duplicate serial) can
//!    only come from a wrong log or snapshot — fail closed. Signatures
//!    are not re-verified: the log is CRC-checked and only ever holds
//!    records that were verified before they were logged.
//! 4. **Torn tail**: an incomplete or checksum-failed *final* frame is
//!    the signature of a cut append. Nothing acknowledged under fsync
//!    `Always` can live there, so the tail is dropped and the log is
//!    rewritten to its good prefix (atomically) so the next writer
//!    appends after valid bytes.
//!
//! Claims that were allocated a serial but never reached the durable log
//! leave *holes* in the serial space after recovery; the store tolerates
//! them and continues allocation above the highest recovered serial.

use std::io;
use std::sync::Arc;

use irs_core::ids::LedgerId;
use irs_core::tsa::TimestampAuthority;

use crate::disk::Disk;
use crate::snapshot::{decode_snapshot, SnapshotError};
use crate::store::{LedgerStore, StoreError};
use crate::wal::{read_header, read_wal, WalError, WAL_HEADER_LEN};

/// Errors from recovery. All variants except `Io` mean the on-disk state
/// cannot be trusted and the ledger must not start (fail closed).
#[derive(Debug)]
pub enum RecoveryError {
    /// Underlying storage failed.
    Io(io::Error),
    /// The snapshot file fails validation.
    Snapshot(SnapshotError),
    /// The WAL fails validation mid-log.
    Wal(WalError),
    /// The snapshot and the log do not belong together (another ledger,
    /// another generation, a log the snapshot references gone).
    Replay(&'static str),
    /// A logged record does not apply to the state before it.
    Store(StoreError),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "recovery i/o error: {e}"),
            RecoveryError::Snapshot(e) => write!(f, "recovery: {e}"),
            RecoveryError::Wal(e) => write!(f, "recovery: {e}"),
            RecoveryError::Replay(what) => write!(f, "recovery replay failed: {what}"),
            RecoveryError::Store(e) => write!(f, "recovery replay failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RecoveryError::Io(e) => Some(e),
            RecoveryError::Snapshot(e) => Some(e),
            RecoveryError::Wal(e) => Some(e),
            RecoveryError::Replay(_) => None,
            RecoveryError::Store(e) => Some(e),
        }
    }
}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> RecoveryError {
        RecoveryError::Io(e)
    }
}

impl From<SnapshotError> for RecoveryError {
    fn from(e: SnapshotError) -> RecoveryError {
        RecoveryError::Snapshot(e)
    }
}

impl From<WalError> for RecoveryError {
    fn from(e: WalError) -> RecoveryError {
        match e {
            WalError::Io(io) => RecoveryError::Io(io),
            other => RecoveryError::Wal(other),
        }
    }
}

/// What recovery found, for logs and experiment tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryReport {
    /// Records seeded from the snapshot.
    pub snapshot_records: usize,
    /// WAL operations replayed on top.
    pub wal_records: usize,
    /// Bytes dropped from a torn final WAL record.
    pub torn_bytes_dropped: u64,
    /// Records in the recovered state.
    pub recovered_records: usize,
}

/// Rebuild a ledger's store from `snapshot_path` + `wal_path` on `disk`:
/// the snapshot's records seed a store of `num_shards` stripes stamped by
/// `tsa`, and the WAL tail replays into it.
///
/// Also repairs a torn WAL tail in place (rewriting the good prefix
/// atomically), so a subsequent [`crate::wal::WalWriter::open`] on the
/// same path succeeds and appends after valid bytes.
pub(crate) fn recover_store(
    disk: &Arc<dyn Disk>,
    wal_path: &str,
    snapshot_path: &str,
    ledger: LedgerId,
    tsa: TimestampAuthority,
    num_shards: usize,
) -> Result<(LedgerStore, RecoveryReport), RecoveryError> {
    // 1. Snapshot.
    let mut report = RecoveryReport::default();
    let (records, resume) = if disk.exists(snapshot_path) {
        let snap = decode_snapshot(&disk.read(snapshot_path)?)?;
        if snap.ledger != ledger {
            return Err(RecoveryError::Replay(
                "snapshot belongs to a different ledger",
            ));
        }
        report.snapshot_records = snap.records.len();
        (snap.records, Some((snap.wal_generation, snap.wal_offset)))
    } else {
        (Vec::new(), None)
    };
    let store = LedgerStore::from_parts(ledger, tsa, records, num_shards);

    // 2. WAL + resume point.
    if disk.exists(wal_path) {
        let bytes = disk.read(wal_path)?;
        let (wal_ledger, generation) = read_header(&bytes)?;
        if wal_ledger != ledger {
            return Err(RecoveryError::Replay("wal belongs to a different ledger"));
        }
        let start = match resume {
            None => WAL_HEADER_LEN,
            // Crash before (or without) rotation: the snapshot covers the
            // prefix up to its recorded offset.
            Some((cut, offset)) if cut == generation => offset as usize,
            // Rotation completed: the whole log is post-snapshot.
            Some((cut, _)) if cut + 1 == generation => WAL_HEADER_LEN,
            Some(_) => {
                return Err(RecoveryError::Replay(
                    "wal generation does not match snapshot",
                ))
            }
        };
        // 3. Replay.
        let contents = read_wal(&bytes, start)?;
        for (_, record) in &contents.records {
            store
                .apply_logged(record, || {})
                .map_err(RecoveryError::Store)?;
        }
        report.wal_records = contents.records.len();
        if contents.torn_bytes > 0 {
            // 4. Drop the torn tail durably so the next append starts clean.
            disk.write_atomic(wal_path, &bytes[..contents.good_len as usize])?;
            report.torn_bytes_dropped = contents.torn_bytes;
        }
    } else if resume.is_some_and(|(_, offset)| offset > WAL_HEADER_LEN as u64) {
        // The snapshot says a log with committed frames existed.
        return Err(RecoveryError::Replay(
            "wal missing but snapshot references it",
        ));
    }

    let (live, revoked, pinned) = store.status_counts();
    report.recovered_records = live + revoked + pinned;
    Ok((store, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaosdisk::{ChaosDisk, ChaosDiskConfig};
    use crate::snapshot::encode_snapshot;
    use crate::store::{ClaimOrigin, StoredClaim};
    use crate::wal::{encode_header, FsyncPolicy, WalRecord, WalWriter};
    use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
    use irs_core::ids::RecordId;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_crypto::{Digest, Keypair};

    const LEDGER: LedgerId = LedgerId(1);

    /// What a disk recovers to, as records.
    #[derive(Debug)]
    struct RecoveredState {
        records: Vec<StoredClaim>,
        report: RecoveryReport,
    }

    /// [`recover_store`] into one stripe, its records copied out.
    fn recover(
        disk: &Arc<dyn Disk>,
        wal_path: &str,
        snapshot_path: &str,
        ledger: LedgerId,
    ) -> Result<RecoveredState, RecoveryError> {
        // Replay inserts logged tokens; this authority never stamps.
        let tsa = TimestampAuthority::from_seed(0);
        let (store, report) = recover_store(disk, wal_path, snapshot_path, ledger, tsa, 1)?;
        let (records, ()) = store.frozen_copy(|| ());
        Ok(RecoveredState { records, report })
    }

    fn disk() -> Arc<dyn Disk> {
        Arc::new(ChaosDisk::new(ChaosDiskConfig::off(9)))
    }

    fn claim_record(serial: u64, seed: u8, revoked: bool) -> (WalRecord, Keypair) {
        let kp = Keypair::from_seed(&[seed; 32]);
        let tsa = TimestampAuthority::from_seed(1);
        let request = ClaimRequest::create(&kp, &Digest::of(&[seed]));
        (
            WalRecord::Claim {
                serial,
                origin: ClaimOrigin::Owner,
                initially_revoked: revoked,
                request,
                timestamp: tsa.stamp(request.digest(), TimeMs(10 + serial)),
            },
            kp,
        )
    }

    #[test]
    fn wal_only_replay_rebuilds_epochs_and_serials() {
        let disk = disk();
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c0, kp0) = claim_record(0, 1, false);
        let (c1, _) = claim_record(1, 2, true);
        let id0 = RecordId::new(LEDGER, 0);
        for rec in [
            c0,
            c1,
            WalRecord::Revoke(RevokeRequest::create(&kp0, id0, true, 0)),
            WalRecord::Revoke(RevokeRequest::create(&kp0, id0, false, 1)),
        ] {
            let lsn = wal.append(&rec).unwrap().lsn;
            wal.commit(lsn).unwrap();
        }
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.report.wal_records, 4);
        assert_eq!(state.records[0].claim.status, RevocationStatus::NotRevoked);
        assert_eq!(state.records[0].claim.status_epoch, 2);
        assert_eq!(state.records[1].claim.status, RevocationStatus::Revoked);
    }

    #[test]
    fn snapshot_plus_tail_and_generation_rules() {
        let disk = disk();
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c0, _) = claim_record(0, 1, false);
        let lsn = wal.append(&c0).unwrap().lsn;
        wal.commit(lsn).unwrap();
        let (generation, offset) = wal.position();
        // Snapshot covering the claim, then one more op after the cut.
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        let snap = encode_snapshot(LEDGER, generation, offset, &state.records);
        disk.write_atomic("snap", &snap).unwrap();
        let (c1, _) = claim_record(1, 2, true);
        let lsn = wal.append(&c1).unwrap().lsn;
        wal.commit(lsn).unwrap();

        // Pre-rotation: replay resumes at the snapshot offset.
        let recovered = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(recovered.report.snapshot_records, 1);
        assert_eq!(recovered.report.wal_records, 1);
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.records[1].claim.status, RevocationStatus::Revoked);

        // Post-rotation: generation bumps, whole log replays.
        wal.rotate_at(offset).unwrap();
        let recovered = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(recovered.report.snapshot_records, 1);
        assert_eq!(recovered.report.wal_records, 1);
        assert_eq!(recovered.records.len(), 2);
    }

    #[test]
    fn torn_tail_is_dropped_and_repaired() {
        let disk = disk();
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c0, _) = claim_record(0, 1, false);
        let lsn = wal.append(&c0).unwrap().lsn;
        wal.commit(lsn).unwrap();
        drop(wal);
        // Simulate a cut append: half a frame of garbage at the tail.
        disk.append("wal", &[0x00, 0x00, 0x00, 0x10, 0xde, 0xad])
            .unwrap();
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(state.records.len(), 1);
        assert_eq!(state.report.torn_bytes_dropped, 6);
        // The repair rewrote the log: a writer can open it again.
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c1, _) = claim_record(1, 2, false);
        let lsn = wal.append(&c1).unwrap().lsn;
        wal.commit(lsn).unwrap();
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(state.records.len(), 2);
        assert_eq!(state.report.torn_bytes_dropped, 0);
    }

    #[test]
    fn mid_log_corruption_of_a_revocation_fails_closed() {
        let disk = disk();
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c0, kp0) = claim_record(0, 1, false);
        let id0 = RecordId::new(LEDGER, 0);
        let revoke = WalRecord::Revoke(RevokeRequest::create(&kp0, id0, true, 0));
        let (c1, _) = claim_record(1, 2, false);
        for rec in [&c0, &revoke, &c1] {
            let lsn = wal.append(rec).unwrap().lsn;
            wal.commit(lsn).unwrap();
        }
        drop(wal);
        // Flip one bit inside the revoke frame (it has a frame after it,
        // so this cannot read as a torn tail).
        let mut bytes = disk.read("wal").unwrap();
        let revoke_frame_at = WAL_HEADER_LEN + c0.encode_framed().len();
        bytes[revoke_frame_at + 12] ^= 0x04;
        disk.write_atomic("wal", &bytes).unwrap();
        match recover(&disk, "wal", "snap", LEDGER) {
            Err(RecoveryError::Wal(WalError::Corrupt { offset, .. })) => {
                assert_eq!(offset, revoke_frame_at as u64);
            }
            other => panic!("expected fail-closed corruption error, got {other:?}"),
        }
    }

    #[test]
    fn serial_holes_are_tolerated() {
        // A claim whose WAL append never made it leaves a hole; later
        // records replay fine and the hole stays a hole.
        let disk = disk();
        let wal = WalWriter::open(disk.clone(), "wal", LEDGER, FsyncPolicy::Always).unwrap();
        let (c0, _) = claim_record(0, 1, false);
        let (c2, _) = claim_record(2, 3, true);
        for rec in [&c0, &c2] {
            let lsn = wal.append(rec).unwrap().lsn;
            wal.commit(lsn).unwrap();
        }
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert_eq!(state.records.len(), 2);
        let serials: Vec<u64> = state.records.iter().map(|r| r.claim.id.serial).collect();
        assert_eq!(serials, vec![0, 2]);
    }

    #[test]
    fn mixed_generation_files_fail_closed() {
        let disk = disk();
        // Snapshot claims generation 5; log is generation 0.
        let snap = encode_snapshot(LEDGER, 5, WAL_HEADER_LEN as u64, &[]);
        disk.write_atomic("snap", &snap).unwrap();
        disk.write_atomic("wal", &encode_header(LEDGER, 0)).unwrap();
        assert!(matches!(
            recover(&disk, "wal", "snap", LEDGER),
            Err(RecoveryError::Replay(_))
        ));
    }

    #[test]
    fn fresh_directory_recovers_empty() {
        let disk = disk();
        let state = recover(&disk, "wal", "snap", LEDGER).unwrap();
        assert!(state.records.is_empty());
        assert_eq!(state.report.recovered_records, 0);
    }
}
