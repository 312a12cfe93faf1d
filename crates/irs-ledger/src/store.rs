//! The claim store.
//!
//! Append-only: claims are never deleted (revocation flips status, appeals
//! pin it). Serials are allocated from a single atomic counter, so they
//! stay dense; the records themselves are striped across `N` shards
//! (`shard = serial % N`, within-shard slot `serial / N`), each behind
//! its own `parking_lot::RwLock`, and every operation takes `&self`.
//! Every mutation touches exactly one shard, so writers on different
//! shards never contend and there is no lock ordering hazard; the
//! multi-shard operations — the revoked-key cut, the snapshot cut — take
//! all shard read locks in index order, which cannot deadlock against
//! single-shard writers. A one-stripe store is the plain monolithic
//! layout: one lock, slot = serial.
//!
//! The store keeps no filter of its own. §4.4's arithmetic ("if the
//! photo does not hit in the filter, it is definitely not revoked"; 2 %
//! FPR ⇒ 50× load reduction) requires the published filter to cover the
//! **revoked** set — a filter of all claims would be hit by every
//! labeled photo and save nothing — and revocation toggles, so each
//! publish re-reads the exact set ([`LedgerStore::revoked_filter_keys`])
//! and the tiered publisher re-covers it: an unrevoked key drops out of
//! the next delta tier without any per-key removal bookkeeping here.

use irs_core::claim::{Claim, ClaimRequest, RevocationStatus};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::{TimestampAuthority, TimestampToken};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::wal::WalRecord;

/// Why applying a [`LedgerStore::new_claim`] record cannot fail.
pub(crate) const FRESH_SERIAL: &str = "a freshly allocated serial is free";

/// Errors from store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreError {
    /// No record with that serial.
    UnknownRecord,
    /// Revocation signature invalid or epoch stale.
    BadSignature,
    /// Epoch mismatch (concurrent update or replay).
    StaleEpoch,
    /// Permanently revoked records cannot change status.
    Permanent,
    /// A logged claim names a serial that is already occupied (broken
    /// replication stream or log; never returned on the primary path).
    DuplicateSerial,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownRecord => write!(f, "unknown record"),
            StoreError::BadSignature => write!(f, "bad ownership signature"),
            StoreError::StaleEpoch => write!(f, "stale status epoch"),
            StoreError::Permanent => write!(f, "record permanently revoked"),
            StoreError::DuplicateSerial => write!(f, "duplicate claim serial"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Whether a claim was made by the owner or custodially by an aggregator
/// (§3.2: "the aggregator can either reject the photo or claim it … in a
/// custodial role so that it can later be revoked").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClaimOrigin {
    /// Claimed by owner software.
    Owner,
    /// Claimed custodially by an aggregator.
    Custodial,
}

/// One stored record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoredClaim {
    /// The protocol-visible claim.
    pub claim: Claim,
    /// Who claimed it.
    pub origin: ClaimOrigin,
}

/// Default stripe count for servers (a few× typical core counts, so
/// concurrent requests rarely meet on one stripe lock).
pub const DEFAULT_SHARDS: usize = 16;

struct Shard {
    /// Slots indexed by `serial / num_shards`. `None` marks a serial
    /// that has been allocated by `claim` but whose record has not been
    /// committed yet (the window between the atomic fetch-add and the
    /// shard write-lock acquisition on another thread). Records are
    /// boxed so that growing the vector moves pointers, not ~300-byte
    /// records: an inline vector doubling past 2 048 slots copies
    /// ~600 KiB under the stripe's write lock, every stripe does so at
    /// nearly the same serial, and each copy adds to peak memory.
    slots: Vec<Option<Box<StoredClaim>>>,
}

/// A sharded, internally synchronized claim store; all operations take
/// `&self`.
pub struct LedgerStore {
    id: LedgerId,
    tsa: TimestampAuthority,
    next_serial: AtomicU64,
    shards: Box<[RwLock<Shard>]>,
}

impl LedgerStore {
    /// Create an empty store with `num_shards` stripes.
    pub fn new(id: LedgerId, tsa: TimestampAuthority, num_shards: usize) -> LedgerStore {
        assert!(num_shards > 0, "need at least one shard");
        let shards = (0..num_shards)
            .map(|_| RwLock::new(Shard { slots: Vec::new() }))
            .collect();
        LedgerStore {
            id,
            tsa,
            next_serial: AtomicU64::new(0),
            shards,
        }
    }

    /// Rebuild from a recovered record set. Serials may have holes —
    /// recovery drops claims that were allocated but never durably
    /// committed — so the next serial is one past the highest record
    /// present, not the record count.
    pub(crate) fn from_parts(
        id: LedgerId,
        tsa: TimestampAuthority,
        records: Vec<StoredClaim>,
        num_shards: usize,
    ) -> LedgerStore {
        let store = LedgerStore::new(id, tsa, num_shards);
        let next = records
            .iter()
            .map(|r| r.claim.id.serial + 1)
            .max()
            .unwrap_or(0);
        store.next_serial.store(next, Ordering::Relaxed);
        for stored in records {
            let serial = stored.claim.id.serial;
            let mut shard = store.shards[store.shard_of(serial)].write();
            let slot = store.slot_of(serial);
            if shard.slots.len() <= slot {
                shard.slots.resize(slot + 1, None);
            }
            shard.slots[slot] = Some(Box::new(stored));
        }
        store
    }

    fn shard_of(&self, serial: u64) -> usize {
        (serial % self.shards.len() as u64) as usize
    }

    fn slot_of(&self, serial: u64) -> usize {
        (serial / self.shards.len() as u64) as usize
    }

    /// This ledger's identifier.
    pub fn id(&self) -> LedgerId {
        self.id
    }

    /// Number of stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of allocated serials (committed records may briefly lag by
    /// the few in flight between allocation and shard insertion).
    pub fn len(&self) -> usize {
        self.next_serial.load(Ordering::Acquire) as usize
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a claim; returns the new identifier and timestamp token.
    pub fn claim(
        &self,
        request: ClaimRequest,
        origin: ClaimOrigin,
        initially_revoked: bool,
        now: TimeMs,
    ) -> (RecordId, TimestampToken) {
        let (id, timestamp, record) = self.new_claim(request, origin, initially_revoked, now);
        self.apply_logged(&record, || {}).expect(FRESH_SERIAL);
        (id, timestamp)
    }

    /// Allocate the next serial and stamp `request`: the record a new
    /// claim is applied (and logged) as. Serial allocation is a single
    /// fetch-add, so serials stay dense under any interleaving; the
    /// timestamp signature, the expensive part, is made before any lock.
    pub(crate) fn new_claim(
        &self,
        request: ClaimRequest,
        origin: ClaimOrigin,
        initially_revoked: bool,
        now: TimeMs,
    ) -> (RecordId, TimestampToken, WalRecord) {
        let serial = self.next_serial.fetch_add(1, Ordering::AcqRel);
        let timestamp = self.tsa.stamp(request.digest(), now);
        let record = WalRecord::Claim {
            serial,
            origin,
            initially_revoked,
            request,
            timestamp,
        };
        (RecordId::new(self.id, serial), timestamp, record)
    }

    /// Apply one logged record — the only step from a WAL record to store
    /// state, shared by the primary, the follower and recovery:
    ///
    /// * `Claim` is inserted at its serial (`DuplicateSerial` if taken),
    ///   and the allocator is kept one past it, so a promoted follower or
    ///   a recovered primary never hands out a serial twice;
    /// * `Revoke` is refused for an unknown record, a permanent pin or a
    ///   broken epoch chain, then flips the status and bumps the epoch;
    /// * `AppealPin` pins the record permanently revoked.
    ///
    /// `log` runs under the record's stripe write lock, and only if the
    /// record applied. Every mutation of a record happens under its stripe
    /// lock, so WAL appends made from these hooks land in the log in
    /// exactly the order the mutations took effect — the invariant replay
    /// depends on. No signature is checked: the record comes from a log
    /// that checked it. Returns the record's status and epoch afterwards.
    pub fn apply_logged(
        &self,
        record: &WalRecord,
        log: impl FnOnce(),
    ) -> Result<(RevocationStatus, u64), StoreError> {
        self.apply(record, false, log)
    }

    /// [`apply_logged`](Self::apply_logged) for a record that arrives
    /// signed from outside — a client's revoke, a shipped segment: a
    /// `Revoke`'s owner signature is verified too, under the same lock,
    /// after the epoch check.
    pub(crate) fn apply_verified(
        &self,
        record: &WalRecord,
        log: impl FnOnce(),
    ) -> Result<(RevocationStatus, u64), StoreError> {
        self.apply(record, true, log)
    }

    fn apply(
        &self,
        record: &WalRecord,
        verify: bool,
        log: impl FnOnce(),
    ) -> Result<(RevocationStatus, u64), StoreError> {
        let id = match record {
            WalRecord::Claim { serial, .. } => {
                self.next_serial.fetch_max(serial + 1, Ordering::AcqRel);
                RecordId::new(self.id, *serial)
            }
            WalRecord::Revoke(request) => request.id,
            WalRecord::AppealPin { id } => *id,
        };
        if id.ledger != self.id {
            return Err(StoreError::UnknownRecord);
        }
        let slot = self.slot_of(id.serial);
        let mut shard = self.shards[self.shard_of(id.serial)].write();
        let applied = match (record, shard.slots.get_mut(slot).and_then(Option::as_mut)) {
            (WalRecord::Claim { .. }, Some(_)) => return Err(StoreError::DuplicateSerial),
            (
                WalRecord::Claim {
                    origin,
                    initially_revoked,
                    request,
                    timestamp,
                    ..
                },
                None,
            ) => {
                let status = if *initially_revoked {
                    RevocationStatus::Revoked
                } else {
                    RevocationStatus::NotRevoked
                };
                if shard.slots.len() <= slot {
                    shard.slots.resize(slot + 1, None);
                }
                shard.slots[slot] = Some(Box::new(StoredClaim {
                    claim: Claim {
                        id,
                        request: *request,
                        timestamp: *timestamp,
                        status,
                        status_epoch: 0,
                    },
                    origin: *origin,
                }));
                (status, 0)
            }
            (_, None) => return Err(StoreError::UnknownRecord),
            (WalRecord::Revoke(request), Some(rec)) => {
                if rec.claim.status == RevocationStatus::PermanentlyRevoked {
                    return Err(StoreError::Permanent);
                }
                if request.epoch != rec.claim.status_epoch {
                    return Err(StoreError::StaleEpoch);
                }
                if verify && !request.verify(&rec.claim.request.pubkey, rec.claim.status_epoch) {
                    return Err(StoreError::BadSignature);
                }
                rec.claim.status = if request.revoke {
                    RevocationStatus::Revoked
                } else {
                    RevocationStatus::NotRevoked
                };
                rec.claim.status_epoch += 1;
                (rec.claim.status, rec.claim.status_epoch)
            }
            (WalRecord::AppealPin { .. }, Some(rec)) => {
                rec.claim.status = RevocationStatus::PermanentlyRevoked;
                rec.claim.status_epoch += 1;
                (rec.claim.status, rec.claim.status_epoch)
            }
        };
        log();
        Ok(applied)
    }

    /// Look up a record (cloned out of the shard).
    pub fn get(&self, id: &RecordId) -> Option<StoredClaim> {
        if id.ledger != self.id {
            return None;
        }
        let shard = self.shards[self.shard_of(id.serial)].read();
        shard
            .slots
            .get(self.slot_of(id.serial))?
            .as_deref()
            .cloned()
    }

    /// Current status and epoch.
    pub fn status(&self, id: &RecordId) -> Option<(RevocationStatus, u64)> {
        if id.ledger != self.id {
            return None;
        }
        let shard = self.shards[self.shard_of(id.serial)].read();
        let stored = shard.slots.get(self.slot_of(id.serial))?.as_ref()?;
        Some((stored.claim.status, stored.claim.status_epoch))
    }

    /// Permanently revoke (appeals outcome); administrative, unsigned.
    pub fn permanently_revoke(&self, id: &RecordId) -> Result<(), StoreError> {
        self.apply_logged(&WalRecord::AppealPin { id: *id }, || {})
            .map(drop)
    }

    /// Copy every committed record (ascending serial order) while *all*
    /// shard locks are held, and call `f` inside the same critical
    /// section. This is the snapshot cut: `f` captures the WAL position,
    /// and because every mutation both holds a shard lock and logs from
    /// inside it, the copy and the position describe the same instant.
    pub fn frozen_copy<T>(&self, f: impl FnOnce() -> T) -> (Vec<StoredClaim>, T) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let extra = f();
        let mut records: Vec<StoredClaim> = guards
            .iter()
            .flat_map(|g| g.slots.iter().flatten().map(|r| StoredClaim::clone(r)))
            .collect();
        drop(guards);
        records.sort_by_key(|r| r.claim.id.serial);
        (records, extra)
    }

    /// The exact `filter_key` set of currently revoked records, captured
    /// under every shard read lock (taken in index order, so single-shard
    /// writers cannot deadlock against it) so the set is a consistent
    /// snapshot: no revocation is half-applied in it. This is what a
    /// publish hands the tiered publisher.
    pub fn revoked_filter_keys(&self) -> std::collections::HashSet<u64> {
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        guards
            .iter()
            .flat_map(|g| g.slots.iter().flatten())
            .filter(|r| r.claim.status != RevocationStatus::NotRevoked)
            .map(|r| r.claim.id.filter_key())
            .collect()
    }

    /// Count records by status: (not revoked, revoked, permanent).
    /// Shards are visited one at a time; concurrent writers may be
    /// counted in either state, as with any live statistic.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for shard in self.shards.iter() {
            let shard = shard.read();
            for stored in shard.slots.iter().flatten() {
                match stored.claim.status {
                    RevocationStatus::NotRevoked => counts.0 += 1,
                    RevocationStatus::Revoked => counts.1 += 1,
                    RevocationStatus::PermanentlyRevoked => counts.2 += 1,
                }
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::claim::RevokeRequest;
    use irs_crypto::{Digest, Keypair};
    use std::sync::Arc;

    /// A signed revoke (or unrevoke) through the verifying apply path.
    fn revoke(s: &LedgerStore, req: RevokeRequest) -> Result<(RevocationStatus, u64), StoreError> {
        s.apply_verified(&WalRecord::Revoke(req), || {})
    }

    fn store(shards: usize) -> LedgerStore {
        LedgerStore::new(LedgerId(1), TimestampAuthority::from_seed(1), shards)
    }

    fn kp(seed: u8) -> Keypair {
        Keypair::from_seed(&[seed; 32])
    }

    fn make_claim(s: &LedgerStore, seed: u8, revoked: bool) -> (RecordId, Keypair) {
        let keypair = kp(seed);
        let req = ClaimRequest::create(&keypair, &Digest::of(&[seed]));
        let (id, _tok) = s.claim(req, ClaimOrigin::Owner, revoked, TimeMs(100));
        (id, keypair)
    }

    #[test]
    fn serials_stay_dense_across_shards() {
        let s = store(4);
        let ids: Vec<u64> = (0..20)
            .map(|i| make_claim(&s, i as u8, false).0.serial)
            .collect();
        assert_eq!(ids, (0..20).collect::<Vec<u64>>());
        assert_eq!(s.len(), 20);
        for serial in 0..20 {
            assert!(s.status(&RecordId::new(LedgerId(1), serial)).is_some());
        }
    }

    #[test]
    fn status_lifecycle_and_rejections() {
        let s = store(3);
        let (id, keypair) = make_claim(&s, 3, false);
        assert_eq!(s.status(&id), Some((RevocationStatus::NotRevoked, 0)));
        let req = RevokeRequest::create(&keypair, id, true, 0);
        assert_eq!(revoke(&s, req), Ok((RevocationStatus::Revoked, 1)));
        // Replay rejected, wrong key rejected, unrevoke at the new epoch
        // accepted, permanent is final.
        assert_eq!(revoke(&s, req), Err(StoreError::StaleEpoch));
        let intruder = RevokeRequest::create(&kp(99), id, false, 1);
        assert_eq!(revoke(&s, intruder), Err(StoreError::BadSignature));
        let unrevoke = RevokeRequest::create(&keypair, id, false, 1);
        assert_eq!(revoke(&s, unrevoke), Ok((RevocationStatus::NotRevoked, 2)));
        s.permanently_revoke(&id).unwrap();
        assert_eq!(
            s.status(&id),
            Some((RevocationStatus::PermanentlyRevoked, 3))
        );
        let late = RevokeRequest::create(&keypair, id, false, 3);
        assert_eq!(revoke(&s, late), Err(StoreError::Permanent));
        assert_eq!(s.status_counts(), (0, 0, 1));
    }

    #[test]
    fn foreign_and_missing_records() {
        let s = store(2);
        assert_eq!(s.status(&RecordId::new(LedgerId(9), 0)), None);
        assert_eq!(s.status(&RecordId::new(LedgerId(1), 7)), None);
        assert_eq!(
            s.permanently_revoke(&RecordId::new(LedgerId(1), 7)),
            Err(StoreError::UnknownRecord)
        );
        assert_eq!(
            s.permanently_revoke(&RecordId::new(LedgerId(9), 0)),
            Err(StoreError::UnknownRecord)
        );
    }

    #[test]
    fn filter_tracks_revocations_not_claims() {
        let s = store(4);
        let hit = |id: RecordId| s.revoked_filter_keys().contains(&id.filter_key());
        // Unrevoked claim: NOT in the filter ("miss ⇒ definitely not
        // revoked" must hold for all shared photos).
        let (id, keypair) = make_claim(&s, 8, false);
        assert!(!hit(id));
        revoke(&s, RevokeRequest::create(&keypair, id, true, 0)).unwrap();
        assert!(hit(id));
        revoke(&s, RevokeRequest::create(&keypair, id, false, 1)).unwrap();
        assert!(!hit(id));
        // §4.4: "many photos will be automatically registered and
        // revoked" — those are in from the start; so are appeal pins.
        let (id2, _) = make_claim(&s, 9, true);
        assert_eq!(s.status(&id2), Some((RevocationStatus::Revoked, 0)));
        assert!(hit(id2));
        let (id3, _) = make_claim(&s, 10, false);
        s.permanently_revoke(&id3).unwrap();
        assert!(hit(id3));
    }

    #[test]
    fn timestamp_tokens_verify() {
        let tsa = TimestampAuthority::from_seed(9);
        let tsa_key = tsa.public_key();
        let s = LedgerStore::new(LedgerId(3), tsa, 2);
        let req = ClaimRequest::create(&kp(10), &Digest::of(b"p"));
        let (_, tok) = s.claim(req, ClaimOrigin::Owner, false, TimeMs(55));
        assert!(tok.verify(&tsa_key));
        assert_eq!(tok.time, TimeMs(55));
        assert_eq!(tok.stamped, req.digest());
    }

    /// 40 claims (every third born revoked), then every fifth of the
    /// rest revoked: the op sequence both differentials below replay.
    fn run_ops(s: &LedgerStore) {
        for seed in 0..40u8 {
            let (id, keypair) = make_claim(s, seed, seed % 3 == 0);
            if seed % 3 != 0 && id.serial % 5 == 0 {
                revoke(s, RevokeRequest::create(&keypair, id, true, 0)).unwrap();
            }
        }
    }

    fn assert_same_state(a: &LedgerStore, b: &LedgerStore) {
        assert_eq!(a.len(), b.len());
        for serial in 0..a.len() as u64 + 1 {
            let id = RecordId::new(LedgerId(1), serial);
            assert_eq!(a.status(&id), b.status(&id), "serial {serial}");
        }
        assert_eq!(a.revoked_filter_keys(), b.revoked_filter_keys());
    }

    #[test]
    fn projection_is_independent_of_stripe_count() {
        // The one-stripe store is the monolithic reference layout: the
        // same operations against 7 stripes must leave every status
        // and the revoked key set equal.
        let (mono, striped) = (store(1), store(7));
        run_ops(&mono);
        run_ops(&striped);
        assert_same_state(&mono, &striped);
    }

    #[test]
    fn from_parts_preserves_records_and_filter() {
        let mono = store(1);
        run_ops(&mono);
        let (records, ()) = mono.frozen_copy(|| ());
        let striped =
            LedgerStore::from_parts(LedgerId(1), TimestampAuthority::from_seed(1), records, 5);
        assert_same_state(&mono, &striped);
        // New serials continue densely after the migrated ones.
        let (id, _) = make_claim(&striped, 200, false);
        assert_eq!(id.serial, 40);
    }

    #[test]
    fn concurrent_claims_keep_invariants() {
        let s = Arc::new(store(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..50u8 {
                        make_claim(&s, t * 50 + i, i % 2 == 0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.len(), 200);
        assert_eq!(s.status_counts(), (100, 100, 0));
        // Every serial is committed and queryable.
        for serial in 0..200 {
            let id = RecordId::new(LedgerId(1), serial);
            assert!(s.status(&id).is_some(), "serial {serial} missing");
        }
        // The key cut covers exactly the revoked records.
        let keys = s.revoked_filter_keys();
        assert_eq!(keys.len(), 100);
        for stored in s.frozen_copy(|| ()).0 {
            assert_eq!(
                keys.contains(&stored.claim.id.filter_key()),
                stored.claim.status != RevocationStatus::NotRevoked
            );
        }
    }
}
