//! Per-ledger filter management and the merged OR view.
//!
//! §4.4: each ledger publishes a filter over its **revoked** set, "which
//! the proxies would download and then take the OR of all ledger Bloom
//! filters. … if the photo does not hit in the filter, it is definitely
//! not revoked". There is one publication pipeline (DESIGN.md §16): per
//! ledger, a frozen fuse8 base sealed per epoch plus a small Bloom delta
//! for churn since the seal. The delta tiers share one geometry and are
//! ORed into a single merged view maintained *incrementally* — a delta
//! update touches O(flipped bits), never O(ledgers × m); the fuse bases
//! cannot be ORed (each has its own layout), so they are probed
//! individually at lookup — cheap, since a fuse probe is three cache
//! lines. A ledger that has not sealed an epoch yet has no base: its
//! tier is one Bloom filter, and a set of such tiers *is* the paper's
//! "OR of all ledger Bloom filters".
//!
//! A miss speaks only for ledgers whose filter is held: the record id
//! names its ledger, and [`FilterSet::might_be_revoked`] answers `None`
//! (must query) for a ledger with no tier installed, however many other
//! ledgers' filters miss.
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
use irs_filters::{BloomFilter, Filter, FilterError, Publication, TieredFilter};

/// Per-ledger filters plus their merged view. `Clone` supports the
/// shared proxy's copy-on-write refresh: build the next snapshot
/// off-lock, then swap it in atomically.
#[derive(Clone, Default)]
pub struct FilterSet {
    /// Per-ledger state (fuse base + Bloom delta). A `Vec`, not a map:
    /// the hot lookup path walks every entry anyway (fuse bases are
    /// probed individually), reads never mutate (the set is copy-on-write
    /// behind `SharedProxy`), and applies are refresh-cadence rare.
    tiered: Vec<(LedgerId, TieredFilter)>,
    /// OR of every ledger's delta tier (shared delta geometry).
    merged_delta: Option<BloomFilter>,
    /// Whether `merged_delta` has any bit set — right after a compaction
    /// it usually does not, and the lookup path skips its probe entirely.
    merged_delta_live: bool,
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
            } => self.install_tiered(ledger, epoch, base, delta_version, delta),
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
        let Some((_, tier)) = self.tiered.iter_mut().find(|(l, _)| *l == ledger) else {
            return Err(FilterError::BadParams("delta for unknown ledger"));
        };
        if tier.delta_version() != from_version {
            return Err(FilterError::BadParams("delta from_version mismatch"));
        }
        tier.advance_delta(&delta, to_version)?;
        self.tiered_updates.2 += 1;
        // Incremental merged-view maintenance: only the flipped
        // positions can have changed, and a position is set in the
        // merged delta iff it is set in *some* ledger's delta tier.
        // O(flips × ledgers), never a full O(ledgers × m) clone-and-OR.
        if let Some(merged) = self.merged_delta.as_mut() {
            for &pos in delta.positions() {
                if self.tiered.iter().any(|(_, t)| t.delta().bit(pos)) {
                    merged.set_bit(pos);
                } else {
                    merged.clear_bit(pos);
                }
            }
            self.merged_delta_live = !merged.is_empty();
        }
        Ok(())
    }

    fn install_tiered(
        &mut self,
        ledger: LedgerId,
        epoch: u64,
        base: bytes::Bytes,
        delta_version: u64,
        delta: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let tier = TieredFilter::from_wire(epoch, &base, delta_version, delta)?;
        // The delta tiers are ORed, so they share one geometry — checked
        // against the *other* ledgers: the tier being replaced is free to
        // change its own.
        if let Some((_, other)) = self.tiered.iter().find(|(l, _)| *l != ledger) {
            let (held, new) = (other.delta(), tier.delta());
            if held.m_bits() != new.m_bits() || held.k() != new.k() || held.seed() != new.seed() {
                return Err(FilterError::BadParams(
                    "tiered delta geometry differs from ecosystem convention",
                ));
            }
        }
        match self.tiered.iter_mut().find(|(l, _)| *l == ledger) {
            Some(entry) => entry.1 = tier,
            None => self.tiered.push((ledger, tier)),
        }
        self.tiered_updates.0 += 1;
        self.rebuild_merged_delta();
        Ok(())
    }

    fn roll_base(
        &mut self,
        ledger: LedgerId,
        epoch: u64,
        data: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let Some((_, tier)) = self.tiered.iter_mut().find(|(l, _)| *l == ledger) else {
            return Err(FilterError::BadParams("base roll for unknown ledger"));
        };
        tier.roll_epoch(epoch, &data)?;
        self.tiered_updates.1 += 1;
        // The roll cleared this ledger's delta tier; rebuilding the small
        // merged delta removes its contribution (epoch rolls are rare and
        // the delta tier is tiny, so this is not a hot path).
        self.rebuild_merged_delta();
        Ok(())
    }

    /// The `(epoch, delta_version)` held for a ledger (`(0, 0)` = no
    /// filter held).
    pub fn tiered_state(&self, ledger: LedgerId) -> (u64, u64) {
        self.tiered
            .iter()
            .find(|(l, _)| *l == ledger)
            .map(|(_, t)| (t.epoch(), t.delta_version()))
            .unwrap_or((0, 0))
    }

    /// Number of ledgers with installed filters.
    pub fn ledger_count(&self) -> usize {
        self.tiered.len()
    }

    fn rebuild_merged_delta(&mut self) {
        let mut iter = self.tiered.iter().map(|(_, t)| t);
        let Some(first) = iter.next() else {
            self.merged_delta = None;
            self.merged_delta_live = false;
            return;
        };
        let mut merged = first.delta().clone();
        for t in iter {
            merged
                .union_with(t.delta())
                .expect("geometry validated at install time");
        }
        self.merged_delta_live = !merged.is_empty();
        self.merged_delta = Some(merged);
    }

    /// Query the installed filters for a record of `ledger`:
    /// `Some(false)` = definitely not revoked (answer locally),
    /// `Some(true)` = might be revoked (must query), `None` = `ledger`'s
    /// filter is not held, so no miss can speak for it (must query).
    /// Probe order: the merged delta first (one Bloom probe), then the
    /// per-ledger fuse bases (three cache lines each).
    pub fn might_be_revoked(&self, ledger: LedgerId, key: u64) -> Option<bool> {
        if !self.tiered.iter().any(|(l, _)| *l == ledger) {
            return None;
        }
        if self.merged_delta_live {
            if let Some(d) = &self.merged_delta {
                if d.contains(key) {
                    return Some(true);
                }
            }
        }
        Some(
            self.tiered
                .iter()
                .any(|(_, t)| t.base().is_some_and(|b| b.contains(key))),
        )
    }

    /// Total proxy-resident filter bytes: the per-ledger tiers plus the
    /// merged delta view (the E23 memory metric).
    pub fn resident_filter_bytes(&self) -> u64 {
        let tiered: u64 = self.tiered.iter().map(|(_, t)| t.resident_bits() / 8).sum();
        let merged_delta = self.merged_delta.as_ref().map_or(0, |f| f.bits() / 8);
        tiered + merged_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_filters::delta::BloomDelta;
    use irs_filters::hash::mix64;
    use irs_filters::{PublishOutcome, TieredConfig, TieredPublisher};
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
            (0..4_000u64)
                .map(|k| fs.might_be_revoked(LedgerId(1), k))
                .collect::<Vec<_>>(),
        )
    }

    /// The unsealed tier *is* the paper's filter: a set fed whole Blooms
    /// and `BloomDelta`s answers every key exactly as the per-ledger
    /// Blooms OR-ed by hand, and holds those Blooms plus one merged clone.
    #[test]
    fn unsealed_tiers_are_the_papers_bloom_or() {
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
            let mut or = plain[0].clone();
            or.union_with(&plain[1]).unwrap();
            or.union_with(&plain[2]).unwrap();
            let probes = (0..3u64)
                .flat_map(|i| keys(i, round))
                .chain((0..5_000u64).map(|k| mix64(k + (1 << 40))));
            for key in probes {
                for &ledger in &ledgers {
                    assert_eq!(fs.might_be_revoked(ledger, key), Some(or.contains(key)));
                }
            }
        }
        assert_eq!(fs.ledger_count(), 3);
        assert_eq!(fs.tiered_state(LedgerId(2)), (1, 4));
        assert_eq!(fs.tiered_updates, (3, 0, 9));
        assert_eq!(fs.resident_filter_bytes(), 4 * plain[0].bits() / 8);
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

    #[test]
    fn geometry_mismatch_rejected() {
        let mut fs = FilterSet::new();
        fs.apply(LedgerId(1), full(1, &filter_with(0..10))).unwrap();
        let odd = BloomFilter::with_params(1 << 12, 6, 7).unwrap();
        assert!(fs.apply(LedgerId(2), full(1, &odd)).is_err());
        assert_eq!(fs.rejected, 1);
    }

    /// Regression: the geometry check used to compare against the first
    /// held tier — possibly the one being replaced — so a lone ledger
    /// that re-sized its delta tier was rejected on every round and the
    /// proxy kept answering from the old publication.
    #[test]
    fn a_lone_ledger_may_change_its_delta_geometry() {
        let cfg = |delta_capacity| TieredConfig {
            delta_capacity,
            delta_fpr: 1e-3,
            compact_at: u64::MAX,
        };
        let mut fs = FilterSet::new();
        let mut small = TieredPublisher::new(cfg(64)).unwrap();
        small.publish(&(0..20u64).map(mix64).collect()).unwrap();
        sync_tiered(&mut fs, LedgerId(1), &small.snapshot());
        // The ledger restarts with a larger delta tier and ten more keys.
        let mut large = TieredPublisher::new(cfg(4_096)).unwrap();
        large.publish(&(0..30u64).map(mix64).collect()).unwrap();
        let bootstrap = large.snapshot().serve(0, 0).unwrap();
        fs.apply(LedgerId(1), bootstrap.clone()).unwrap();
        for key in (0..30u64).map(mix64) {
            assert_eq!(fs.might_be_revoked(LedgerId(1), key), Some(true));
        }
        // Against *another* ledger's tier the convention still binds.
        fs.apply(LedgerId(2), bootstrap).unwrap();
        let back = small.snapshot().serve(0, 0).unwrap();
        assert!(fs.apply(LedgerId(1), back).is_err());
        assert_eq!(fs.rejected, 1);
    }

    #[test]
    fn bytes_accounted_only_for_accepted_updates() {
        let mut fs = FilterSet::new();
        let accepted = full(1, &filter_with(0..10));
        let n = accepted.payload_len();
        fs.apply(LedgerId(1), accepted).unwrap();
        assert_eq!(fs.bytes_received, n);
        // A rejected update (wrong geometry) moves neither bytes nor the
        // update counters — only the rejection counter.
        let odd = BloomFilter::with_params(1 << 12, 6, 7).unwrap();
        assert!(fs.apply(LedgerId(2), full(1, &odd)).is_err());
        assert_eq!(fs.bytes_received, n);
        assert_eq!(fs.tiered_updates, (1, 0, 0));
        assert_eq!(fs.rejected, 1);
        // Same for a garbage delta.
        let junk = bytes::Bytes::from_static(b"junk");
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
            for &k in revoked_a.iter().chain(revoked_b.iter()) {
                for ledger in [LedgerId(1), LedgerId(2)] {
                    assert_eq!(fs.might_be_revoked(ledger, k), Some(true), "lost {k}");
                }
            }
        }
        assert!(compactions >= 2, "sweep never compacted");
        assert_eq!(fs.ledger_count(), 2);
        // The incremental merged delta is bit-identical to a from-scratch
        // rebuild (only bit state matters; the merged view's insert
        // counter is not maintained and not used).
        let mut rebuilt = fs.clone();
        rebuilt.rebuild_merged_delta();
        let incremental = fs.merged_delta.as_ref().unwrap();
        let ground_truth = rebuilt.merged_delta.as_ref().unwrap();
        for pos in 0..incremental.m_bits() {
            assert_eq!(
                incremental.bit(pos),
                ground_truth.bit(pos),
                "incremental merged-delta maintenance drifted at bit {pos}"
            );
        }
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
    /// `rejected`. Both sets hold a second ledger, which is what binds
    /// ledger 1 to the shared delta geometry.
    #[test]
    fn rejected_update_leaves_the_set_bit_identical() {
        let junk = || bytes::Bytes::from_static(b"not a filter");
        let odd = BloomFilter::with_params(1 << 12, 6, 7).unwrap();
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
                    "tiered: delta geometry differs from ledger 2's",
                    Publication::Tiered {
                        epoch: epoch + 1,
                        base: snap.base_bytes().clone(),
                        delta_version: 0,
                        delta: odd.to_bytes(),
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
