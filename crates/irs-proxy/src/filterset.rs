//! Per-ledger filter management and the merged OR view.
//!
//! §4.4: each ledger publishes a filter over its **revoked** set, "which
//! the proxies would download and then take the OR of all ledger Bloom
//! filters. … if the photo does not hit in the filter, it is definitely
//! not revoked". Two publication pipelines coexist:
//!
//! * **Legacy**: one Bloom filter per ledger, identical geometry across
//!   the ecosystem, ORed into a single merged Bloom. Updates arrive as
//!   full snapshots (first contact) or deltas (steady state).
//! * **Tiered** (DESIGN.md §16): per ledger, a frozen fuse8 base sealed
//!   per epoch plus a small Bloom delta for churn since the seal. The
//!   fuse bases cannot be ORed (each has its own layout), so they are
//!   probed individually at lookup — cheap, since a fuse probe is three
//!   cache lines — while the small delta tiers share one geometry and
//!   are merged into a single delta view maintained *incrementally*:
//!   a delta update touches O(flipped bits), never O(ledgers × m).
//!
//! A ledger that upgrades to the tiered pipeline replaces its legacy
//! Bloom: the proxy drops the old per-ledger filter (and its share of the
//! big merged clone), which is where the tiered memory win comes from.
//!
//! Every publication, of either pipeline, enters through the one
//! validated [`FilterSet::apply`]. Update accounting is accept-only:
//! `bytes_received` and the update counters move only when an update
//! validates and applies; a rejected update counts into `rejected` and
//! changes nothing else.

use irs_core::ids::LedgerId;
use irs_filters::delta::BloomDelta;
use irs_filters::{BloomFilter, Filter, FilterError, TieredFilter, TieredServe};
use std::collections::HashMap;

/// One filter publication as a ledger serves it — the four shapes of
/// the serve matrix (DESIGN.md §16), mirroring the wire's
/// `FilterFull` / `FilterDelta` / `FilterTiered` / `FilterBase`.
#[derive(Clone, Debug)]
pub enum FilterUpdate {
    /// A full legacy Bloom snapshot (first contact or version gap).
    Full {
        /// Version the snapshot carries.
        version: u64,
        /// Serialized [`BloomFilter`].
        data: bytes::Bytes,
    },
    /// A delta against whichever pipeline the ledger is on.
    Delta {
        /// Version the delta was cut against; must equal the held one.
        from_version: u64,
        /// Version held after the apply.
        to_version: u64,
        /// Serialized [`BloomDelta`].
        data: bytes::Bytes,
    },
    /// A full tiered state (bootstrap or multi-epoch resync).
    Tiered {
        /// Epoch of the sealed base.
        epoch: u64,
        /// Serialized fuse8 base (empty before the first seal).
        base: bytes::Bytes,
        /// Version of the delta tier within `epoch`.
        delta_version: u64,
        /// Serialized delta-tier Bloom.
        delta: bytes::Bytes,
    },
    /// A freshly sealed base: single-epoch advance onto an empty delta.
    Base {
        /// The newly sealed epoch; must be the held epoch + 1.
        epoch: u64,
        /// Serialized fuse8 base.
        data: bytes::Bytes,
    },
}

impl FilterUpdate {
    /// A full legacy snapshot — what a test or an experiment installs
    /// when it hands a proxy a Bloom filter it built itself.
    pub fn full(version: u64, data: bytes::Bytes) -> FilterUpdate {
        FilterUpdate::Full { version, data }
    }

    /// The update a tiered serve-matrix answer asks for (`None` when the
    /// client is already current) — the in-process counterpart of
    /// decoding a filter response off the wire.
    pub fn from_serve(serve: TieredServe) -> Option<FilterUpdate> {
        Some(match serve {
            TieredServe::Current => return None,
            TieredServe::Delta {
                from_version,
                to_version,
                delta,
            } => FilterUpdate::Delta {
                from_version,
                to_version,
                data: delta.to_bytes(),
            },
            TieredServe::Base { epoch, base } => FilterUpdate::Base { epoch, data: base },
            TieredServe::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            } => FilterUpdate::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            },
        })
    }

    /// Payload bytes the update carried over the wire.
    pub fn payload_len(&self) -> u64 {
        (match self {
            FilterUpdate::Full { data, .. }
            | FilterUpdate::Delta { data, .. }
            | FilterUpdate::Base { data, .. } => data.len(),
            FilterUpdate::Tiered { base, delta, .. } => base.len() + delta.len(),
        }) as u64
    }
}

/// Per-ledger filters plus their merged views. `Clone` supports the
/// shared proxy's copy-on-write refresh: build the next snapshot
/// off-lock, then swap it in atomically.
#[derive(Clone)]
pub struct FilterSet {
    per_ledger: HashMap<LedgerId, (u64, BloomFilter)>,
    merged: Option<BloomFilter>,
    /// Tiered per-ledger state (fuse base + Bloom delta). A `Vec`, not a
    /// map: the hot lookup path walks every entry anyway (fuse bases are
    /// probed individually), reads never mutate (the set is copy-on-write
    /// behind `SharedProxy`), and applies are refresh-cadence rare.
    tiered: Vec<(LedgerId, TieredFilter)>,
    /// OR of every tiered ledger's delta tier (shared delta geometry).
    merged_delta: Option<BloomFilter>,
    /// Whether `merged_delta` has any bit set — right after a compaction
    /// it usually does not, and the lookup path skips its probe entirely.
    merged_delta_live: bool,
    /// Bytes received across all *accepted* updates (experiment E6).
    pub bytes_received: u64,
    /// Accepted legacy updates applied (full, delta).
    pub updates: (u64, u64),
    /// Accepted tiered updates applied (full installs, base rolls,
    /// delta applies).
    pub tiered_updates: (u64, u64, u64),
    /// Updates rejected (malformed payload, geometry or version
    /// mismatch). Rejected updates contribute nothing to the byte or
    /// update counters.
    pub rejected: u64,
}

impl Default for FilterSet {
    fn default() -> Self {
        Self::new()
    }
}

impl FilterSet {
    /// Empty set.
    pub fn new() -> FilterSet {
        FilterSet {
            per_ledger: HashMap::new(),
            merged: None,
            tiered: Vec::new(),
            merged_delta: None,
            merged_delta_live: false,
            bytes_received: 0,
            updates: (0, 0),
            tiered_updates: (0, 0, 0),
            rejected: 0,
        }
    }

    /// Validate and apply one publication for `ledger` — the only way
    /// filter state changes. Atomic: every variant parses and checks its
    /// payload (geometry, held version, epoch step) before touching the
    /// set, so a rejected update leaves it bit-identical and counts only
    /// into `rejected`; an accepted one accounts its payload bytes.
    pub fn apply(&mut self, ledger: LedgerId, update: FilterUpdate) -> Result<(), FilterError> {
        let bytes = update.payload_len();
        let out = match update {
            FilterUpdate::Full { version, data } => self.install_full(ledger, version, data),
            FilterUpdate::Delta {
                from_version,
                to_version,
                data,
            } => self.advance_delta(ledger, from_version, to_version, data),
            FilterUpdate::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            } => self.install_tiered(ledger, epoch, base, delta_version, delta),
            FilterUpdate::Base { epoch, data } => self.roll_base(ledger, epoch, data),
        };
        match out {
            Ok(()) => self.bytes_received += bytes,
            Err(_) => self.rejected += 1,
        }
        out
    }

    fn install_full(
        &mut self,
        ledger: LedgerId,
        version: u64,
        data: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let filter = BloomFilter::from_bytes(data)?;
        if let Some(existing) = self.any_filter() {
            if existing.m_bits() != filter.m_bits()
                || existing.k() != filter.k()
                || existing.seed() != filter.seed()
            {
                return Err(FilterError::BadParams(
                    "ledger filter geometry differs from ecosystem convention",
                ));
            }
        }
        self.per_ledger.insert(ledger, (version, filter));
        self.updates.0 += 1;
        self.rebuild();
        Ok(())
    }

    /// A delta lands on whichever pipeline the ledger is on: its legacy
    /// Bloom, or (epoch-aware) the delta *tier* of its tiered state. The
    /// held version must equal `from_version` either way.
    fn advance_delta(
        &mut self,
        ledger: LedgerId,
        from_version: u64,
        to_version: u64,
        data: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let delta = BloomDelta::from_bytes(data)?;
        if let Some((_, tier)) = self.tiered.iter_mut().find(|(l, _)| *l == ledger) {
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
            return Ok(());
        }
        let Some((version, filter)) = self.per_ledger.get_mut(&ledger) else {
            return Err(FilterError::BadParams("delta for unknown ledger"));
        };
        if *version != from_version {
            return Err(FilterError::BadParams("delta from_version mismatch"));
        }
        delta.apply(filter)?;
        *version = to_version;
        self.updates.1 += 1;
        self.rebuild();
        Ok(())
    }

    /// Replaces any legacy Bloom held for the same ledger.
    fn install_tiered(
        &mut self,
        ledger: LedgerId,
        epoch: u64,
        base: bytes::Bytes,
        delta_version: u64,
        delta: bytes::Bytes,
    ) -> Result<(), FilterError> {
        let tier = TieredFilter::from_wire(epoch, &base, delta_version, delta)?;
        if let Some(existing) = self.any_tiered_delta() {
            let d = tier.delta();
            if existing.m_bits() != d.m_bits()
                || existing.k() != d.k()
                || existing.seed() != d.seed()
            {
                return Err(FilterError::BadParams(
                    "tiered delta geometry differs from ecosystem convention",
                ));
            }
        }
        // The tiered pipeline supersedes the ledger's legacy Bloom.
        if self.per_ledger.remove(&ledger).is_some() {
            self.rebuild();
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

    /// The legacy version held for a ledger (0 = none).
    pub fn version(&self, ledger: LedgerId) -> u64 {
        self.per_ledger.get(&ledger).map(|(v, _)| *v).unwrap_or(0)
    }

    /// The tiered `(epoch, delta_version)` held for a ledger
    /// (`(0, 0)` = not on the tiered pipeline).
    pub fn tiered_state(&self, ledger: LedgerId) -> (u64, u64) {
        self.tiered
            .iter()
            .find(|(l, _)| *l == ledger)
            .map(|(_, t)| (t.epoch(), t.delta_version()))
            .unwrap_or((0, 0))
    }

    /// Number of ledgers with installed filters (either pipeline).
    pub fn ledger_count(&self) -> usize {
        self.per_ledger.len() + self.tiered.len()
    }

    fn any_filter(&self) -> Option<&BloomFilter> {
        self.per_ledger.values().map(|(_, f)| f).next()
    }

    fn any_tiered_delta(&self) -> Option<&BloomFilter> {
        self.tiered.first().map(|(_, t)| t.delta())
    }

    fn rebuild(&mut self) {
        let mut iter = self.per_ledger.values();
        let Some((_, first)) = iter.next() else {
            self.merged = None;
            return;
        };
        let mut merged = first.clone();
        for (_, f) in iter {
            merged
                .union_with(f)
                .expect("geometry validated at install time");
        }
        self.merged = Some(merged);
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

    /// Query the installed filters: `Some(false)` = definitely not
    /// revoked on any ledger (answer locally), `Some(true)` = might be
    /// revoked (must query), `None` = no filters installed yet (must
    /// query). Probe order: the merged views first (one Bloom probe
    /// each), then the per-ledger fuse bases (three cache lines each).
    pub fn might_be_revoked(&self, key: u64) -> Option<bool> {
        if self.merged.is_none() && self.tiered.is_empty() {
            return None;
        }
        if let Some(m) = &self.merged {
            if m.contains(key) {
                return Some(true);
            }
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

    /// Estimated FPR of the legacy merged filter at its current fill.
    pub fn merged_fpr(&self) -> Option<f64> {
        self.merged.as_ref().map(|f| f.estimated_fpr())
    }

    /// Total proxy-resident filter bytes: per-ledger filters of both
    /// pipelines plus the merged views (the E23 memory metric).
    pub fn resident_filter_bytes(&self) -> u64 {
        let legacy: u64 = self.per_ledger.values().map(|(_, f)| f.bits() / 8).sum();
        let merged = self.merged.as_ref().map_or(0, |f| f.bits() / 8);
        let tiered: u64 = self.tiered.iter().map(|(_, t)| t.resident_bits() / 8).sum();
        let merged_delta = self.merged_delta.as_ref().map_or(0, |f| f.bits() / 8);
        legacy + merged + tiered + merged_delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_filters::delta::BloomDelta;
    use irs_filters::{PublishOutcome, TieredConfig, TieredPublisher};
    use std::collections::HashSet;

    fn filter_with(keys: std::ops::Range<u64>) -> BloomFilter {
        let mut f = BloomFilter::with_params(1 << 14, 6, 7).unwrap();
        for k in keys {
            f.insert(k);
        }
        f
    }

    fn full(version: u64, filter: &BloomFilter) -> FilterUpdate {
        FilterUpdate::Full {
            version,
            data: filter.to_bytes(),
        }
    }

    fn delta(from_version: u64, to_version: u64, data: bytes::Bytes) -> FilterUpdate {
        FilterUpdate::Delta {
            from_version,
            to_version,
            data,
        }
    }

    /// Everything observable about a set: held versions, counters, and
    /// the answer for a spread of keys (any flipped bit shows up in one).
    fn fingerprint(fs: &FilterSet) -> impl PartialEq + std::fmt::Debug {
        (
            (fs.version(LedgerId(1)), fs.tiered_state(LedgerId(1))),
            (fs.ledger_count(), fs.resident_filter_bytes()),
            (fs.bytes_received, fs.updates, fs.tiered_updates),
            (0..4_000u64)
                .map(|k| fs.might_be_revoked(k))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn or_of_two_ledgers() {
        let mut fs = FilterSet::new();
        fs.apply(LedgerId(1), full(1, &filter_with(0..100)))
            .unwrap();
        fs.apply(LedgerId(2), full(1, &filter_with(100..200)))
            .unwrap();
        assert_eq!(fs.ledger_count(), 2);
        for k in 0..200u64 {
            assert_eq!(fs.might_be_revoked(k), Some(true), "key {k}");
        }
        // A far-away key should (almost surely) miss.
        let misses = (10_000..11_000u64)
            .filter(|&k| fs.might_be_revoked(k) == Some(false))
            .count();
        assert!(misses > 950, "misses {misses}");
    }

    #[test]
    fn empty_set_answers_none() {
        let fs = FilterSet::new();
        assert_eq!(fs.might_be_revoked(1), None);
        assert_eq!(fs.merged_fpr(), None);
    }

    #[test]
    fn delta_refresh() {
        let mut fs = FilterSet::new();
        let old = filter_with(0..100);
        fs.apply(LedgerId(1), full(1, &old)).unwrap();
        let new = filter_with(0..150);
        let d = BloomDelta::diff(&old, &new).unwrap();
        fs.apply(LedgerId(1), delta(1, 2, d.to_bytes())).unwrap();
        assert_eq!(fs.version(LedgerId(1)), 2);
        for k in 100..150u64 {
            assert_eq!(fs.might_be_revoked(k), Some(true));
        }
        assert_eq!(fs.updates, (1, 1));
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
        assert_eq!(fs.updates, (1, 0));
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
        if let Some(update) = FilterUpdate::from_serve(snap.serve(have_epoch, have_version)) {
            fs.apply(ledger, update).unwrap();
        }
    }

    #[test]
    fn tiered_install_supersedes_legacy_bloom() {
        let mut fs = FilterSet::new();
        fs.apply(LedgerId(1), full(3, &filter_with(0..50))).unwrap();
        let legacy_bytes = fs.resident_filter_bytes();
        // Size the delta tier to the workload, as production would; the
        // 50 keys cross compact_at, so the install carries a sealed base.
        let cfg = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 16,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        publisher.publish(&(0..50u64).collect()).unwrap();
        sync_tiered(&mut fs, LedgerId(1), &publisher.snapshot());
        // Legacy filter dropped, tiered state installed.
        assert_eq!(fs.version(LedgerId(1)), 0);
        assert_ne!(fs.tiered_state(LedgerId(1)), (0, 0));
        assert_eq!(fs.ledger_count(), 1);
        for k in 0..50u64 {
            assert_eq!(fs.might_be_revoked(k), Some(true), "key {k}");
        }
        assert!(
            fs.resident_filter_bytes() < legacy_bytes,
            "tiered {} should undercut legacy {} resident bytes",
            fs.resident_filter_bytes(),
            legacy_bytes
        );
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
                revoked_a.insert(irs_filters::hash::mix64(i));
                revoked_b.insert(irs_filters::hash::mix64(i + 1_000_000));
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
                assert_eq!(fs.might_be_revoked(k), Some(true), "lost key {k}");
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
        let roll = FilterUpdate::Base {
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

    /// Validate-before-mutate, for every variant on both pipelines: a
    /// rejected update leaves the set bit-identical (same versions, same
    /// counters, same answer for every probed key) and moves only
    /// `rejected`.
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

        // Legacy pipeline.
        let mut legacy = FilterSet::new();
        legacy
            .apply(LedgerId(1), full(3, &filter_with(0..100)))
            .unwrap();
        // Tiered pipeline, mid-epoch with a sealed base and a live delta.
        let cfg = TieredConfig {
            delta_capacity: 64,
            delta_fpr: 1e-3,
            compact_at: 16,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        publisher.publish(&(0..40u64).collect()).unwrap();
        let mut tiered = FilterSet::new();
        sync_tiered(&mut tiered, LedgerId(1), &publisher.snapshot());
        publisher.publish(&(0..44u64).collect()).unwrap();
        sync_tiered(&mut tiered, LedgerId(1), &publisher.snapshot());
        let (epoch, version) = tiered.tiered_state(LedgerId(1));
        let snap = publisher.snapshot();

        // (what is wrong with it, the update) — `held` is the version the
        // set holds on its pipeline, so the version errors are exact.
        let bad_updates = |held: u64| {
            vec![
                (
                    "full: garbage",
                    FilterUpdate::Full {
                        version: 9,
                        data: junk(),
                    },
                ),
                ("delta: garbage", delta(held, held + 1, junk())),
                (
                    "delta: wrong from_version",
                    delta(held + 5, held + 6, stale_delta.clone()),
                ),
                (
                    "tiered: garbage base",
                    FilterUpdate::Tiered {
                        epoch: epoch + 1,
                        base: junk(),
                        delta_version: 0,
                        delta: snap.delta().to_bytes(),
                    },
                ),
                (
                    "base: garbage",
                    FilterUpdate::Base {
                        epoch: epoch + 1,
                        data: junk(),
                    },
                ),
                (
                    "base: skips an epoch",
                    FilterUpdate::Base {
                        epoch: epoch + 2,
                        data: snap.base_bytes().clone(),
                    },
                ),
            ]
        };
        let mut tiered_bad = bad_updates(version);
        tiered_bad.push((
            "tiered: foreign delta geometry",
            FilterUpdate::Tiered {
                epoch: epoch + 1,
                base: snap.base_bytes().clone(),
                delta_version: 0,
                delta: odd.to_bytes(),
            },
        ));
        // Geometry is checked against what the same pipeline already holds.
        let mut legacy_bad = bad_updates(3);
        legacy_bad.push(("full: foreign geometry", full(9, &odd)));
        for (name, fs, updates) in [
            ("legacy", &mut legacy, legacy_bad),
            ("tiered", &mut tiered, tiered_bad),
        ] {
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
