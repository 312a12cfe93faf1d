//! Per-ledger filter management.
//!
//! §4.4: each ledger publishes a filter over its **revoked** set, "which
//! the proxies would download and then take the OR of all ledger Bloom
//! filters. … if the photo does not hit in the filter, it is definitely
//! not revoked". There is one publication pipeline (DESIGN.md §16): per
//! ledger, a frozen fuse8 base sealed per epoch plus a small Bloom delta
//! for churn since the seal. A ledger that has not sealed an epoch yet
//! has no base: its tier is one Bloom filter, the paper's per-ledger
//! Bloom.
//!
//! **Only the record's own ledger answers.** The record id names its
//! ledger (§3.1) and its filter key mixes that ledger in, so a record can
//! be revoked only in its own ledger's tier. [`FilterSet::might_be_revoked`]
//! therefore probes that one tier — one delta probe and one base probe,
//! however many ledgers are held — instead of the paper's OR, whose other
//! tiers add only their false positives (a recorded deviation, DESIGN.md
//! §16). Each ledger's tier keeps its own geometry. A ledger with no tier
//! installed answers `None` (must query).
//!
//! Every [`Publication`] — the type the ledger's serve matrix returns and
//! the wire carries — enters through the one validated
//! [`FilterSet::apply`]. A ledger answers an up-to-date requester with an
//! empty delta from its version to itself; the refresh reads that as
//! "current" and applies nothing. Update accounting is accept-only:
//! `bytes_received` and the update counters move only when an update
//! validates and applies; a rejected update counts into `rejected` and
//! changes nothing else.

use irs_core::ids::LedgerId;
use irs_filters::delta::BloomDelta;
use irs_filters::{Filter, FilterError, Publication, TieredFilter};
use std::collections::BTreeMap;

/// Per-ledger filters. `Clone` supports the shared proxy's copy-on-write
/// refresh: build the next snapshot off-lock, then swap it in atomically.
#[derive(Clone, Default)]
pub struct FilterSet {
    /// Per-ledger state (fuse base + Bloom delta), keyed by the ledger a
    /// record id names. Reads never mutate (the set is copy-on-write
    /// behind `SharedProxy`), and applies are refresh-cadence rare.
    tiered: BTreeMap<LedgerId, TieredFilter>,
    /// Bytes received across all *accepted* updates.
    pub bytes_received: u64,
    /// Accepted updates applied (full installs, base rolls, delta
    /// applies).
    pub tiered_updates: (u64, u64, u64),
    /// Updates rejected (malformed payload, geometry or version
    /// mismatch). Rejected updates contribute nothing to the byte or
    /// update counters.
    pub rejected: u64,
}

impl FilterSet {
    /// Empty set.
    pub fn new() -> FilterSet {
        FilterSet::default()
    }

    /// Validate and apply one publication for `ledger` — the only way
    /// filter state changes. Atomic: every variant parses and checks its
    /// payload (geometry, held version, epoch step) before touching the
    /// set, so a rejected update leaves it bit-identical and counts only
    /// into `rejected`; an accepted one accounts its payload bytes.
    pub fn apply(&mut self, ledger: LedgerId, update: Publication) -> Result<(), FilterError> {
        let bytes = update.payload_len();
        let out = match update {
            Publication::Delta {
                from_version,
                to_version,
                data,
            } => self.advance_delta(ledger, from_version, to_version, data),
            Publication::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            } => TieredFilter::from_wire(epoch, &base, delta_version, delta).map(|tier| {
                self.tiered.insert(ledger, tier);
                self.tiered_updates.0 += 1;
            }),
            Publication::Base { epoch, data } => self.roll_base(ledger, epoch, data),
        };
        match out {
            Ok(()) => self.bytes_received += bytes,
            Err(_) => self.rejected += 1,
        }
        out
    }

    fn advance_delta(
        &mut self,
        ledger: LedgerId,
        from_version: u64,
        to_version: u64,
        data: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let delta = BloomDelta::from_bytes(data)?;
        let Some(tier) = self.tiered.get_mut(&ledger) else {
            return Err(FilterError::BadParams("delta for unknown ledger"));
        };
        if tier.delta_version() != from_version {
            return Err(FilterError::BadParams("delta from_version mismatch"));
        }
        tier.advance_delta(&delta, to_version)?;
        self.tiered_updates.2 += 1;
        Ok(())
    }

    fn roll_base(
        &mut self,
        ledger: LedgerId,
        epoch: u64,
        data: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let Some(tier) = self.tiered.get_mut(&ledger) else {
            return Err(FilterError::BadParams("base roll for unknown ledger"));
        };
        tier.roll_epoch(epoch, &data)?;
        self.tiered_updates.1 += 1;
        Ok(())
    }

    /// The `(epoch, delta_version)` held for a ledger (`(0, 0)` = no
    /// filter held).
    pub fn tiered_state(&self, ledger: LedgerId) -> (u64, u64) {
        self.tiered
            .get(&ledger)
            .map_or((0, 0), |t| (t.epoch(), t.delta_version()))
    }

    /// Number of ledgers with installed filters.
    pub fn ledger_count(&self) -> usize {
        self.tiered.len()
    }

    /// Query the installed filters for a record of `ledger`:
    /// `Some(false)` = definitely not revoked (answer locally),
    /// `Some(true)` = might be revoked (must query), `None` = `ledger`'s
    /// filter is not held, so no miss can speak for it (must query).
    /// Only `ledger`'s own tier is probed: its delta (skipped while
    /// empty), then its fuse base.
    pub fn might_be_revoked(&self, ledger: LedgerId, key: u64) -> Option<bool> {
        self.tiered.get(&ledger).map(|tier| tier.contains(key))
    }

    /// Total proxy-resident filter bytes, the sum of the per-ledger
    /// tiers (the E23 memory metric).
    pub fn resident_filter_bytes(&self) -> u64 {
        self.tiered.values().map(|t| t.resident_bits() / 8).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::ids::RecordId;
    use irs_filters::delta::BloomDelta;
    use irs_filters::hash::mix64;
    use irs_filters::{BloomFilter, Fuse8, PublishOutcome, TieredConfig, TieredPublisher};
    use std::collections::HashSet;

    fn filter_with(keys: std::ops::Range<u64>) -> BloomFilter {
        let mut f = BloomFilter::with_params(1 << 14, 6, 7).unwrap();
        for k in keys {
            f.insert(k);
        }
        f
    }

    fn full(version: u64, filter: &BloomFilter) -> Publication {
        Publication::full(version, filter.to_bytes())
    }

    fn delta(from_version: u64, to_version: u64, data: bytes::Bytes) -> Publication {
        Publication::Delta {
            from_version,
            to_version,
            data,
        }
    }

    /// Everything observable about a set: held versions, counters, and
    /// the answer for a spread of keys (any flipped bit shows up in one).
    fn fingerprint(fs: &FilterSet) -> impl PartialEq + std::fmt::Debug {
        (
            (fs.tiered_state(LedgerId(1)), fs.tiered_state(LedgerId(2))),
            (fs.ledger_count(), fs.resident_filter_bytes()),
            (fs.bytes_received, fs.tiered_updates),
            [LedgerId(1), LedgerId(2)].map(|ledger| {
                (0..4_000u64)
                    .map(|k| fs.might_be_revoked(ledger, k))
                    .collect::<Vec<_>>()
            }),
        )
    }

    /// The unsealed tier *is* the paper's per-ledger filter: a set fed
    /// whole Blooms and `BloomDelta`s answers every key, under each
    /// ledger's name, exactly as that ledger's plain Bloom does, and
    /// holds exactly those Blooms.
    #[test]
    fn unsealed_tiers_are_the_papers_per_ledger_blooms() {
        let ledgers = [LedgerId(1), LedgerId(2), LedgerId(3)];
        let keys = |ledger: u64, round: u64| {
            let start = ledger * 1_000_000 + round * 150;
            (start..start + 150).map(mix64)
        };
        let mut fs = FilterSet::new();
        let mut plain: Vec<BloomFilter> = Vec::new();
        for (i, &ledger) in ledgers.iter().enumerate() {
            let mut f = filter_with(0..0);
            keys(i as u64, 0).for_each(|k| f.insert(k));
            fs.apply(ledger, full(1, &f)).unwrap();
            plain.push(f);
        }
        for round in 1..4u64 {
            for (i, &ledger) in ledgers.iter().enumerate() {
                let mut next = plain[i].clone();
                keys(i as u64, round).for_each(|k| next.insert(k));
                let d = BloomDelta::diff(&plain[i], &next).unwrap();
                fs.apply(ledger, delta(round, round + 1, d.to_bytes()))
                    .unwrap();
                plain[i] = next;
            }
            let probes = (0..3u64)
                .flat_map(|i| keys(i, round))
                .chain((0..5_000u64).map(|k| mix64(k + (1 << 40))));
            for key in probes {
                for (i, &ledger) in ledgers.iter().enumerate() {
                    assert_eq!(
                        fs.might_be_revoked(ledger, key),
                        Some(plain[i].contains(key))
                    );
                }
            }
        }
        assert_eq!(fs.ledger_count(), 3);
        assert_eq!(fs.tiered_state(LedgerId(2)), (1, 4));
        assert_eq!(fs.tiered_updates, (3, 0, 9));
        assert_eq!(fs.resident_filter_bytes(), 3 * plain[0].bits() / 8);
    }

    #[test]
    fn empty_set_answers_none() {
        let fs = FilterSet::new();
        assert_eq!(fs.might_be_revoked(LedgerId(1), 1), None);
        assert_eq!(fs.resident_filter_bytes(), 0);
    }

    #[test]
    fn delta_version_mismatch_rejected() {
        let mut fs = FilterSet::new();
        let old = filter_with(0..10);
        fs.apply(LedgerId(1), full(5, &old)).unwrap();
        let d = BloomDelta::diff(&old, &old).unwrap().to_bytes();
        assert!(fs.apply(LedgerId(1), delta(4, 6, d.clone())).is_err());
        assert!(fs.apply(LedgerId(9), delta(5, 6, d)).is_err());
        assert_eq!(fs.rejected, 2);
    }

    /// Each ledger's tier keeps its own geometry, so two ledgers whose
    /// deltas differ in size both install, each answers for its own keys,
    /// and a ledger may re-size its own delta tier between publications.
    #[test]
    fn ledgers_with_different_geometries_each_answer_for_their_own() {
        let cfg = |delta_capacity| TieredConfig {
            delta_capacity,
            delta_fpr: 1e-3,
            compact_at: u64::MAX,
        };
        let (small_keys, large_keys): (HashSet<u64>, HashSet<u64>) = (
            (0..20u64).map(mix64).collect(),
            (100..130u64).map(mix64).collect(),
        );
        let mut small = TieredPublisher::new(cfg(64)).unwrap();
        small.publish(&small_keys).unwrap();
        let mut large = TieredPublisher::new(cfg(4_096)).unwrap();
        large.publish(&large_keys).unwrap();
        let mut fs = FilterSet::new();
        sync_tiered(&mut fs, LedgerId(1), &small.snapshot());
        sync_tiered(&mut fs, LedgerId(2), &large.snapshot());
        assert_eq!(fs.ledger_count(), 2);
        for &key in &small_keys {
            assert_eq!(fs.might_be_revoked(LedgerId(1), key), Some(true));
        }
        for &key in &large_keys {
            assert_eq!(fs.might_be_revoked(LedgerId(2), key), Some(true));
        }
        // Ledger 1 restarts with the larger delta tier and ten more keys.
        let mut resized = TieredPublisher::new(cfg(4_096)).unwrap();
        resized.publish(&(0..30u64).map(mix64).collect()).unwrap();
        fs.apply(LedgerId(1), resized.snapshot().serve(0, 0).unwrap())
            .unwrap();
        for key in (0..30u64).map(mix64) {
            assert_eq!(fs.might_be_revoked(LedgerId(1), key), Some(true));
        }
        assert_eq!(fs.rejected, 0);
        assert_eq!(fs.tiered_updates, (3, 0, 0));
    }

    /// The false-positive rate a record sees is its own ledger's: with 64
    /// ledgers held it stays within ×1.25 of one ledger's, where an OR of
    /// every ledger's tiers grows it with the ledger count.
    #[test]
    fn fpr_does_not_grow_with_ledgers() {
        let tier = |ledger: u16| {
            let id = |serial| RecordId::new(LedgerId(ledger), serial).filter_key();
            let base = Fuse8::build(&(0..5_000).map(id).collect::<Vec<_>>()).unwrap();
            let mut delta = BloomFilter::with_params(1 << 14, 6, 7).unwrap();
            (5_000..5_100).for_each(|serial| delta.insert(id(serial)));
            Publication::Tiered {
                epoch: 2,
                base: base.to_bytes(),
                delta_version: 1,
                delta: delta.to_bytes(),
            }
        };
        let fpr = |ledgers: u16| {
            let mut fs = FilterSet::new();
            for ledger in 0..ledgers {
                fs.apply(LedgerId(ledger), tier(ledger)).unwrap();
            }
            let trials = 100_000;
            let hits = (0..trials)
                .map(|i| RecordId::new(LedgerId(0), (1 << 40) + i).filter_key())
                .filter(|&key| fs.might_be_revoked(LedgerId(0), key) == Some(true))
                .count();
            hits as f64 / trials as f64
        };
        let (one, many) = (fpr(1), fpr(64));
        assert!(one > 0.0 && one < 0.01, "one ledger: {one}");
        assert!(
            many <= one * 1.25,
            "64 ledgers: {many} vs one ledger: {one}"
        );
    }

    #[test]
    fn bytes_accounted_only_for_accepted_updates() {
        let mut fs = FilterSet::new();
        let accepted = full(1, &filter_with(0..10));
        let n = accepted.payload_len();
        fs.apply(LedgerId(1), accepted).unwrap();
        assert_eq!(fs.bytes_received, n);
        // A rejected update (a malformed install) moves neither bytes nor
        // the update counters — only the rejection counter.
        let junk = bytes::Bytes::from_static(b"junk");
        assert!(fs
            .apply(LedgerId(2), Publication::full(1, junk.clone()))
            .is_err());
        assert_eq!(fs.bytes_received, n);
        assert_eq!(fs.tiered_updates, (1, 0, 0));
        assert_eq!(fs.rejected, 1);
        // Same for a garbage delta.
        assert!(fs.apply(LedgerId(1), delta(1, 2, junk)).is_err());
        assert_eq!(fs.bytes_received, n);
        assert_eq!(fs.rejected, 2);
    }

    /// Drive a server-side publisher and mirror its publications through
    /// the FilterSet exactly as the refresh worker would.
    fn sync_tiered(fs: &mut FilterSet, ledger: LedgerId, snap: &irs_filters::TieredSnapshot) {
        let (have_epoch, have_version) = fs.tiered_state(ledger);
        if let Some(update) = snap.serve(have_epoch, have_version) {
            fs.apply(ledger, update).unwrap();
        }
    }

    #[test]
    fn tiered_pipeline_tracks_publisher_without_false_negatives() {
        let cfg = TieredConfig {
            delta_capacity: 512,
            delta_fpr: 1e-3,
            compact_at: 128,
        };
        let mut pub_a = TieredPublisher::new(cfg).unwrap();
        let mut pub_b = TieredPublisher::new(cfg).unwrap();
        let mut fs = FilterSet::new();
        let mut revoked_a: HashSet<u64> = HashSet::new();
        let mut revoked_b: HashSet<u64> = HashSet::new();
        let mut compactions = 0;
        for round in 0..20u64 {
            for i in (round * 20)..((round + 1) * 20) {
                revoked_a.insert(mix64(i));
                revoked_b.insert(mix64(i + 1_000_000));
            }
            if matches!(
                pub_a.publish(&revoked_a).unwrap(),
                PublishOutcome::Compacted(_)
            ) {
                compactions += 1;
            }
            pub_b.publish(&revoked_b).unwrap();
            sync_tiered(&mut fs, LedgerId(1), &pub_a.snapshot());
            sync_tiered(&mut fs, LedgerId(2), &pub_b.snapshot());
            for (ledger, revoked) in [(LedgerId(1), &revoked_a), (LedgerId(2), &revoked_b)] {
                for &k in revoked {
                    assert_eq!(fs.might_be_revoked(ledger, k), Some(true), "lost {k}");
                }
            }
        }
        assert!(compactions >= 2, "sweep never compacted");
        assert_eq!(fs.ledger_count(), 2);
    }

    #[test]
    fn tiered_version_and_epoch_mismatches_rejected() {
        let mut publisher = TieredPublisher::new(TieredConfig::default()).unwrap();
        publisher.publish(&(0..50u64).collect()).unwrap();
        let mut fs = FilterSet::new();
        sync_tiered(&mut fs, LedgerId(1), &publisher.snapshot());
        let snap = publisher.snapshot();
        // Base roll for a ledger we don't hold tiered state for.
        let roll = Publication::Base {
            epoch: 2,
            data: snap.base_bytes().clone(),
        };
        assert!(fs.apply(LedgerId(9), roll).is_err());
        // Delta against the wrong from_version.
        let empty = BloomDelta::diff(snap.delta(), snap.delta()).unwrap();
        assert!(fs
            .apply(LedgerId(1), delta(77, 78, empty.to_bytes()))
            .is_err());
        assert_eq!(fs.rejected, 2);
    }

    /// Validate-before-mutate, for every variant, on an unsealed set (whole
    /// Blooms) and on one mid-epoch with a sealed base and a live delta:
    /// a rejected update leaves the set bit-identical (same versions,
    /// same counters, same answer for every probed key) and moves only
    /// `rejected`. Both sets hold a second ledger, which no rejected
    /// update of ledger 1 may touch either.
    #[test]
    fn rejected_update_leaves_the_set_bit_identical() {
        let junk = || bytes::Bytes::from_static(b"not a filter");
        let stale_delta = {
            let f = filter_with(0..10);
            BloomDelta::diff(&f, &filter_with(0..20))
                .unwrap()
                .to_bytes()
        };

        let mut unsealed = FilterSet::new();
        unsealed
            .apply(LedgerId(1), full(3, &filter_with(0..100)))
            .unwrap();
        unsealed
            .apply(LedgerId(2), full(1, &filter_with(100..200)))
            .unwrap();
        let cfg = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 16,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        publisher.publish(&(0..40u64).collect()).unwrap();
        let mut sealed = FilterSet::new();
        sync_tiered(&mut sealed, LedgerId(1), &publisher.snapshot());
        publisher.publish(&(0..44u64).collect()).unwrap();
        sync_tiered(&mut sealed, LedgerId(1), &publisher.snapshot());
        sync_tiered(&mut sealed, LedgerId(2), &publisher.snapshot());
        let snap = publisher.snapshot();

        for (name, fs) in [("unsealed", &mut unsealed), ("sealed", &mut sealed)] {
            // The state held for ledger 1, so the step errors are exact.
            let (epoch, version) = fs.tiered_state(LedgerId(1));
            let updates = [
                ("full: garbage", Publication::full(9, junk())),
                ("delta: garbage", delta(version, version + 1, junk())),
                (
                    "delta: wrong from_version",
                    delta(version + 5, version + 6, stale_delta.clone()),
                ),
                (
                    "tiered: garbage base",
                    Publication::Tiered {
                        epoch: epoch + 1,
                        base: junk(),
                        delta_version: 0,
                        delta: snap.delta().to_bytes(),
                    },
                ),
                (
                    "tiered: garbage delta",
                    Publication::Tiered {
                        epoch: epoch + 1,
                        base: snap.base_bytes().clone(),
                        delta_version: 0,
                        delta: junk(),
                    },
                ),
                (
                    "base: garbage",
                    Publication::Base {
                        epoch: epoch + 1,
                        data: junk(),
                    },
                ),
                (
                    "base: skips an epoch",
                    Publication::Base {
                        epoch: epoch + 2,
                        data: snap.base_bytes().clone(),
                    },
                ),
            ];
            let before = fingerprint(fs);
            let n = updates.len() as u64;
            for (what, update) in updates {
                assert!(
                    fs.apply(LedgerId(1), update).is_err(),
                    "{name}: accepted {what}"
                );
                assert!(before == fingerprint(fs), "{name}: mutated by {what}");
            }
            assert_eq!(fs.rejected, n, "{name}: every rejection counted once");
        }
    }
}
