//! Tiered revoked-set filters: a frozen [`Fuse8`] base sealed per *epoch*
//! plus a small mutable Bloom delta covering revocations since the seal.
//!
//! §4.4 sizes the proxy filter as the thing that makes global revocation
//! affordable, and E12 shows static fuse filters beat FPR-matched Blooms
//! on both space (9.04 vs 11.54 bits/key at 10⁶ keys) and query time —
//! but they cannot absorb churn. The tiering resolves that tension:
//!
//! * the **base** tier is a fuse8 filter over every key revoked up to the
//!   epoch seal — immutable, near-optimal space, shipped once per epoch;
//! * the **delta** tier is a small Bloom filter over keys revoked *since*
//!   the seal — mutable, cache-resident, kept fresh by the existing
//!   [`BloomDelta`] update channel;
//! * [`TieredFilter::contains`] ORs both tiers, so a miss still means
//!   "definitely not revoked" (no false negatives, ever);
//! * background **compaction** ([`TieredPublisher::publish`]) rebuilds the
//!   base over the full revoked set and resets the delta when the delta's
//!   key count crosses a threshold, bumping the epoch.
//!
//! Keys *unrevoked* after the seal simply remain in the frozen base as
//! harmless false positives until the next compaction sweeps them out —
//! soundness only requires the filter to over-approximate the revoked set.

use crate::bloom::BloomFilter;
use crate::delta::BloomDelta;
use crate::fuse::Fuse8;
use crate::{Filter, FilterError};
use bytes::Bytes;
use std::collections::HashSet;
use std::sync::Arc;

/// Sizing knobs for the delta tier and the compaction trigger.
#[derive(Clone, Copy, Debug)]
pub struct TieredConfig {
    /// Keys the delta Bloom is sized for. Small by design: the delta only
    /// covers churn since the last epoch seal, so it stays cache-resident.
    pub delta_capacity: u64,
    /// Delta tier's FPR budget. The effective tiered FPR is the base's
    /// ≈1/256 plus this, so keep it well below 1/256's order.
    pub delta_fpr: f64,
    /// Delta key count that triggers an epoch roll on the next publish.
    pub compact_at: u64,
}

impl Default for TieredConfig {
    fn default() -> Self {
        TieredConfig {
            delta_capacity: 8_192,
            delta_fpr: 1e-3,
            compact_at: 4_096,
        }
    }
}

impl TieredConfig {
    fn empty_delta(&self) -> Result<BloomFilter, FilterError> {
        BloomFilter::for_capacity(self.delta_capacity, self.delta_fpr)
    }
}

/// The client-side (proxy) view of one ledger's tiered filter.
#[derive(Clone, Debug)]
pub struct TieredFilter {
    epoch: u64,
    base: Option<Fuse8>,
    delta: BloomFilter,
    delta_version: u64,
    /// Whether the delta tier has a bit set. Right after a seal it has
    /// none, and [`TieredFilter::contains`] skips its probe.
    delta_live: bool,
}

impl TieredFilter {
    /// Decode a tier from wire payloads (an empty `base` blob means the
    /// ledger has not sealed an epoch yet).
    pub fn from_wire(
        epoch: u64,
        base: &Bytes,
        delta_version: u64,
        delta: Bytes,
    ) -> Result<TieredFilter, FilterError> {
        let base = if base.is_empty() {
            None
        } else {
            Some(Fuse8::from_bytes(base.clone())?)
        };
        let delta = BloomFilter::from_bytes(delta)?;
        Ok(TieredFilter {
            epoch,
            base,
            delta_live: !delta.is_empty(),
            delta,
            delta_version,
        })
    }

    /// Epoch of the sealed base tier.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Version of the delta tier within the current epoch.
    pub fn delta_version(&self) -> u64 {
        self.delta_version
    }

    /// The frozen base tier, if an epoch has been sealed.
    pub fn base(&self) -> Option<&Fuse8> {
        self.base.as_ref()
    }

    /// The mutable delta tier.
    pub fn delta(&self) -> &BloomFilter {
        &self.delta
    }

    /// Apply a same-epoch delta update. Atomic: a rejected delta leaves
    /// the tier untouched (see [`BloomDelta::apply`]).
    pub fn advance_delta(
        &mut self,
        delta: &BloomDelta,
        to_version: u64,
    ) -> Result<(), FilterError> {
        delta.apply(&mut self.delta)?;
        self.delta_version = to_version;
        self.delta_live = !self.delta.is_empty();
        Ok(())
    }

    /// Install a freshly sealed base for `epoch` and reset the delta tier
    /// (the server resets its delta at the seal, and delta geometry is
    /// fixed per config, so clearing our copy reproduces it exactly).
    /// Only a single-epoch advance is accepted — anything else means this
    /// client missed state and must resync with a full tiered install.
    pub fn roll_epoch(&mut self, epoch: u64, base: &Bytes) -> Result<(), FilterError> {
        if epoch != self.epoch.wrapping_add(1) {
            return Err(FilterError::BadParams("epoch roll is not single-step"));
        }
        let base = Fuse8::from_bytes(base.clone())?;
        for w in self.delta.words_mut() {
            *w = 0;
        }
        self.delta.set_inserted(0);
        self.delta_live = false;
        self.base = Some(base);
        self.epoch = epoch;
        self.delta_version = 0;
        Ok(())
    }

    /// Resident size of both tiers in bits (proxy memory accounting).
    pub fn resident_bits(&self) -> u64 {
        self.base.as_ref().map_or(0, |b| b.bits()) + self.delta.bits()
    }
}

impl Filter for TieredFilter {
    /// `true` if either tier may contain `key`; `false` is authoritative.
    fn contains(&self, key: u64) -> bool {
        (self.delta_live && self.delta.contains(key))
            || self.base.as_ref().is_some_and(|b| b.contains(key))
    }

    fn bits(&self) -> u64 {
        self.resident_bits()
    }
}

/// What one publish pass did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// Nothing changed since the last publish.
    Unchanged,
    /// The delta tier advanced to this version.
    DeltaAdvanced(u64),
    /// The base was rebuilt over the full revoked set and the delta reset;
    /// this is the new epoch.
    Compacted(u64),
}

/// One ledger's filter publication: the one type for a filter answer,
/// from the serve matrix ([`TieredSnapshot::serve`]) through the wire
/// (`Response::Filter`, tags 5, 19 and 20) to the proxy's and the
/// browser's `FilterSet::apply`. Every payload is encoded, exactly as the
/// wire carries it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Publication {
    /// Same epoch, one delta version on: the bit-flip diff between the
    /// two delta snapshots. An empty diff with `from_version ==
    /// to_version` is the answer to a requester that is already current
    /// ([`TieredSnapshot::up_to_date`]).
    Delta {
        /// Version the diff was cut against; must equal the held one.
        from_version: u64,
        /// Version held after the apply.
        to_version: u64,
        /// [`BloomDelta::to_bytes`] payload.
        data: Bytes,
    },
    /// The epoch rolled by exactly one and the new delta is still empty:
    /// only the sealed base ships, and the requester clears its delta
    /// tier locally (delta geometry is fixed per ledger config, so the
    /// cleared copy matches the ledger's reset one bit for bit).
    Base {
        /// The newly sealed epoch; must be the held epoch + 1.
        epoch: u64,
        /// [`Fuse8::to_bytes`] payload.
        data: Bytes,
    },
    /// Full install: base + delta (bootstrap, multi-epoch lag, or any
    /// delta version the ledger can no longer diff against).
    Tiered {
        /// Current epoch.
        epoch: u64,
        /// [`Fuse8::to_bytes`] payload; empty before the first seal.
        base: Bytes,
        /// Current delta version within `epoch`.
        delta_version: u64,
        /// [`BloomFilter::to_bytes`] payload for the delta tier.
        delta: Bytes,
    },
}

impl Publication {
    /// A whole Bloom filter as one ledger's unsealed tier (epoch 1, no
    /// base, `data` as the delta at `version`): what a test or an
    /// experiment installs when it hands a proxy a Bloom it built itself.
    pub fn full(version: u64, data: Bytes) -> Publication {
        Publication::Tiered {
            epoch: 1,
            base: Bytes::new(),
            delta_version: version,
            delta: data,
        }
    }

    /// Whether this is a ledger's answer to a requester that is already
    /// current ([`TieredSnapshot::up_to_date`]): a delta from a version
    /// to itself, which installs nothing.
    pub fn is_up_to_date(&self) -> bool {
        matches!(
            self,
            Publication::Delta { from_version, to_version, .. } if from_version == to_version
        )
    }

    /// Payload bytes the publication carries over the wire.
    pub fn payload_len(&self) -> u64 {
        (match self {
            Publication::Delta { data, .. } | Publication::Base { data, .. } => data.len(),
            Publication::Tiered { base, delta, .. } => base.len() + delta.len(),
        }) as u64
    }
}

/// An immutable, cheaply clonable publication of the tiered state —
/// concurrent ledgers keep `Arc<TieredSnapshot>` behind a lock and serve
/// requests entirely off-lock.
#[derive(Clone, Debug)]
pub struct TieredSnapshot {
    epoch: u64,
    base_bytes: Bytes,
    delta: BloomFilter,
    delta_bytes: Bytes,
    delta_version: u64,
    prev_delta: Option<(u64, BloomFilter)>,
}

impl TieredSnapshot {
    /// A publication of these tiers, the delta encoded once for the wire.
    fn new(
        epoch: u64,
        base_bytes: Bytes,
        delta: BloomFilter,
        delta_version: u64,
        prev_delta: Option<(u64, BloomFilter)>,
    ) -> Arc<TieredSnapshot> {
        Arc::new(TieredSnapshot {
            epoch,
            base_bytes,
            delta_bytes: delta.to_bytes(),
            delta,
            delta_version,
            prev_delta,
        })
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current delta version.
    pub fn delta_version(&self) -> u64 {
        self.delta_version
    }

    /// Encoded base tier (empty until the first epoch seals).
    pub fn base_bytes(&self) -> &Bytes {
        &self.base_bytes
    }

    /// The published delta tier.
    pub fn delta(&self) -> &BloomFilter {
        &self.delta
    }

    /// What a requester holding `(have_epoch, have_version)` must install
    /// to be current, or `None` when it already is.
    ///
    /// The serve matrix (also in DESIGN.md §16): same epoch one version
    /// behind → [`Publication::Delta`]; single-epoch lag onto a
    /// still-empty delta → [`Publication::Base`]; everything else → full
    /// [`Publication::Tiered`].
    pub fn serve(&self, have_epoch: u64, have_version: u64) -> Option<Publication> {
        if have_epoch == self.epoch {
            if have_version == self.delta_version {
                return None;
            }
            if let Some((prev_version, prev)) = &self.prev_delta {
                if *prev_version == have_version {
                    if let Ok(delta) = BloomDelta::diff(prev, &self.delta) {
                        return Some(Publication::Delta {
                            from_version: have_version,
                            to_version: self.delta_version,
                            data: delta.to_bytes(),
                        });
                    }
                }
            }
        } else if have_epoch.wrapping_add(1) == self.epoch
            && have_epoch >= 1
            && self.delta_version == 0
            && self.delta.inserted() == 0
        {
            return Some(Publication::Base {
                epoch: self.epoch,
                data: self.base_bytes.clone(),
            });
        }
        Some(Publication::Tiered {
            epoch: self.epoch,
            base: self.base_bytes.clone(),
            delta_version: self.delta_version,
            delta: self.delta_bytes.clone(),
        })
    }

    /// The answer a ledger sends a requester that is already current: an
    /// empty delta from the current version to itself.
    pub fn up_to_date(&self) -> Publication {
        Publication::Delta {
            from_version: self.delta_version,
            to_version: self.delta_version,
            data: BloomDelta::diff(&self.delta, &self.delta)
                .expect("a filter has its own geometry")
                .to_bytes(),
        }
    }
}

/// The ledger-side tiered state machine: tracks the sealed base key set,
/// rebuilds the delta tier from the live revoked set on each publish, and
/// compacts (seals a new epoch) when the delta outgrows its budget. The
/// published tiers live once, in the current [`TieredSnapshot`].
#[derive(Debug)]
pub struct TieredPublisher {
    cfg: TieredConfig,
    base_keys: HashSet<u64>,
    delta_keys: HashSet<u64>,
    snap: Arc<TieredSnapshot>,
}

impl TieredPublisher {
    /// Create a publisher with no sealed epoch (epoch 1, empty tiers).
    pub fn new(cfg: TieredConfig) -> Result<TieredPublisher, FilterError> {
        Ok(TieredPublisher {
            cfg,
            base_keys: HashSet::new(),
            delta_keys: HashSet::new(),
            snap: TieredSnapshot::new(1, Bytes::new(), cfg.empty_delta()?, 0, None),
        })
    }

    /// Current epoch.
    pub fn epoch(&self) -> u64 {
        self.snap.epoch
    }

    /// Current delta version.
    pub fn delta_version(&self) -> u64 {
        self.snap.delta_version
    }

    /// The current publication, cheap to clone and safe to serve off-lock.
    pub fn snapshot(&self) -> Arc<TieredSnapshot> {
        Arc::clone(&self.snap)
    }

    /// Reconcile the tiers with the ledger's live revoked key set.
    ///
    /// Delta keys are `revoked \ base`; if they exceed the compaction
    /// threshold the base is rebuilt over the *entire* revoked set (also
    /// sweeping out keys unrevoked since the last seal), the epoch
    /// advances, and the delta resets. A failed fuse construction is not
    /// fatal: the delta keeps absorbing churn and compaction retries on
    /// the next publish.
    pub fn publish(&mut self, revoked: &HashSet<u64>) -> Result<PublishOutcome, FilterError> {
        let delta_keys: HashSet<u64> = revoked.difference(&self.base_keys).copied().collect();
        if delta_keys.len() as u64 >= self.cfg.compact_at {
            let keys: Vec<u64> = revoked.iter().copied().collect();
            if let Ok(base) = Fuse8::build(&keys) {
                let epoch = self.snap.epoch + 1;
                self.base_keys = revoked.clone();
                self.delta_keys = HashSet::new();
                self.snap =
                    TieredSnapshot::new(epoch, base.to_bytes(), self.cfg.empty_delta()?, 0, None);
                return Ok(PublishOutcome::Compacted(epoch));
            }
        }
        if delta_keys == self.delta_keys {
            return Ok(PublishOutcome::Unchanged);
        }
        let mut next = self.cfg.empty_delta()?;
        for &k in &delta_keys {
            next.insert(k);
        }
        let version = self.snap.delta_version + 1;
        self.delta_keys = delta_keys;
        self.snap = TieredSnapshot::new(
            self.snap.epoch,
            self.snap.base_bytes.clone(),
            next,
            version,
            Some((self.snap.delta_version, self.snap.delta.clone())),
        );
        Ok(PublishOutcome::DeltaAdvanced(version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::mix64;

    fn keyset(range: std::ops::Range<u64>) -> HashSet<u64> {
        range.map(mix64).collect()
    }

    /// Drive a publisher and mirror its publications into a client-side
    /// `TieredFilter` exactly as the proxy refresh path would.
    pub(super) fn sync(client: &mut Option<TieredFilter>, snap: &TieredSnapshot) {
        let (have_epoch, have_version) = client
            .as_ref()
            .map_or((0, 0), |t| (t.epoch(), t.delta_version()));
        match snap.serve(have_epoch, have_version) {
            None => {}
            Some(Publication::Delta {
                to_version, data, ..
            }) => {
                let delta = BloomDelta::from_bytes(data).unwrap();
                client
                    .as_mut()
                    .unwrap()
                    .advance_delta(&delta, to_version)
                    .unwrap();
            }
            Some(Publication::Base { epoch, data }) => {
                client.as_mut().unwrap().roll_epoch(epoch, &data).unwrap();
            }
            Some(Publication::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            }) => {
                *client =
                    Some(TieredFilter::from_wire(epoch, &base, delta_version, delta).unwrap());
            }
        }
    }

    #[test]
    fn tiers_or_together_without_false_negatives() {
        let cfg = TieredConfig {
            delta_capacity: 512,
            delta_fpr: 1e-3,
            compact_at: 256,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        let mut client: Option<TieredFilter> = None;

        // Enough keys to seal an epoch, then churn into the delta.
        let sealed = keyset(0..1000);
        assert_eq!(
            publisher.publish(&sealed).unwrap(),
            PublishOutcome::Compacted(2)
        );
        sync(&mut client, &publisher.snapshot());
        let t = client.as_ref().unwrap();
        assert_eq!(t.epoch(), 2);
        assert!(t.base().is_some());

        let mut revoked = sealed.clone();
        revoked.extend(keyset(1000..1100));
        assert_eq!(
            publisher.publish(&revoked).unwrap(),
            PublishOutcome::DeltaAdvanced(1)
        );
        sync(&mut client, &publisher.snapshot());
        let t = client.as_ref().unwrap();
        for k in keyset(0..1100) {
            assert!(t.contains(k), "tiered filter lost a revoked key");
        }
    }

    #[test]
    fn compaction_resets_delta_and_sweeps_unrevoked() {
        let cfg = TieredConfig {
            delta_capacity: 256,
            delta_fpr: 1e-3,
            compact_at: 64,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        let mut revoked = keyset(0..100);
        publisher.publish(&revoked).unwrap();
        assert_eq!(publisher.epoch(), 2);

        // Unrevoke one key: it stays in the frozen base (harmless FP)…
        let gone = mix64(0);
        revoked.remove(&gone);
        publisher.publish(&revoked).unwrap();
        let mut client = None;
        sync(&mut client, &publisher.snapshot());
        assert!(client.as_ref().unwrap().contains(gone));

        // …until the next compaction sweeps it out.
        revoked.extend(keyset(100..200));
        assert!(matches!(
            publisher.publish(&revoked).unwrap(),
            PublishOutcome::Compacted(3)
        ));
        sync(&mut client, &publisher.snapshot());
        let t = client.as_ref().unwrap();
        assert_eq!(t.epoch(), 3);
        assert_eq!(t.delta_version(), 0);
        assert!(t.delta().inserted() == 0);
        for &k in &revoked {
            assert!(t.contains(k));
        }
        // The swept key is now subject only to the base's design FPR, so
        // it is *allowed* to hit, but the full revoked set must.
    }

    #[test]
    fn serve_matrix_covers_all_lags() {
        let cfg = TieredConfig {
            delta_capacity: 512,
            delta_fpr: 1e-3,
            compact_at: 128,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        let mut revoked = keyset(0..200);
        publisher.publish(&revoked).unwrap(); // epoch 2, v0

        // Bootstrap client → full tiered install.
        assert!(matches!(
            publisher.snapshot().serve(0, 0),
            Some(Publication::Tiered { epoch: 2, .. })
        ));
        // Single-epoch lag onto empty delta → base-only.
        assert!(matches!(
            publisher.snapshot().serve(1, 0),
            Some(Publication::Base { epoch: 2, .. })
        ));
        // Current → nothing to install…
        assert_eq!(publisher.snapshot().serve(2, 0), None);
        // …which a ledger answers with an empty delta at the held version.
        let Publication::Delta {
            from_version: 0,
            to_version: 0,
            data,
        } = publisher.snapshot().up_to_date()
        else {
            panic!("up-to-date answer is not a same-version delta");
        };
        assert_eq!(BloomDelta::from_bytes(data).unwrap().flips(), 0);
        assert!(publisher.snapshot().up_to_date().is_up_to_date());

        revoked.extend(keyset(200..210));
        publisher.publish(&revoked).unwrap(); // epoch 2, v1
        assert!(matches!(
            publisher.snapshot().serve(2, 0),
            Some(Publication::Delta {
                from_version: 0,
                to_version: 1,
                ..
            })
        ));
        // Two versions behind → full resync.
        revoked.extend(keyset(210..220));
        publisher.publish(&revoked).unwrap(); // epoch 2, v2
        assert!(matches!(
            publisher.snapshot().serve(2, 0),
            Some(Publication::Tiered { .. })
        ));
        // Epoch lag with a non-empty delta → full resync, not base-only.
        let mut big = revoked.clone();
        big.extend(keyset(220..500));
        publisher.publish(&big).unwrap(); // epoch 3, v0
        big.extend(keyset(500..510));
        publisher.publish(&big).unwrap(); // epoch 3, v1
        assert!(matches!(
            publisher.snapshot().serve(2, 2),
            Some(Publication::Tiered { epoch: 3, .. })
        ));
    }

    #[test]
    fn unchanged_publish_is_detected() {
        let mut publisher = TieredPublisher::new(TieredConfig::default()).unwrap();
        let revoked = keyset(0..50);
        assert!(matches!(
            publisher.publish(&revoked).unwrap(),
            PublishOutcome::DeltaAdvanced(1)
        ));
        assert_eq!(
            publisher.publish(&revoked).unwrap(),
            PublishOutcome::Unchanged
        );
        assert_eq!(publisher.delta_version(), 1);
    }

    #[test]
    fn epoch_roll_must_be_single_step() {
        let cfg = TieredConfig {
            delta_capacity: 256,
            delta_fpr: 1e-3,
            compact_at: 32,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        publisher.publish(&keyset(0..40)).unwrap(); // epoch 2
        let mut client = None;
        sync(&mut client, &publisher.snapshot());
        publisher.publish(&keyset(0..80)).unwrap(); // epoch 3
        publisher.publish(&keyset(0..120)).unwrap(); // epoch 4
        let snap = publisher.snapshot();
        if let Some(Publication::Base { epoch, data }) = snap.serve(3, 0) {
            // A client at epoch 2 must refuse this single-step payload…
            assert!(client.as_mut().unwrap().roll_epoch(epoch, &data).is_err());
        }
        // …and the serve matrix hands the epoch-2 client a full resync.
        assert!(matches!(snap.serve(2, 0), Some(Publication::Tiered { .. })));
    }

    /// Queries racing an epoch compaction never see a false negative: the
    /// snapshot-swap pattern (publish → new snapshot → client install)
    /// always presents a complete tier pair.
    #[test]
    fn concurrent_compaction_has_zero_false_negatives() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::RwLock;

        let cfg = TieredConfig {
            delta_capacity: 2_048,
            delta_fpr: 1e-3,
            compact_at: 512,
        };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        let total: u64 = 20_000;

        // Shared client-side tier, swapped whole like SharedProxy does.
        let mut seed_client = None;
        sync(&mut seed_client, &publisher.snapshot());
        let shared: Arc<RwLock<TieredFilter>> = Arc::new(RwLock::new(seed_client.unwrap()));
        // Readers only assert keys published *and installed* so far.
        let visible = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for r in 0..4u64 {
            let shared = Arc::clone(&shared);
            let visible = Arc::clone(&visible);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut probes = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let upto = visible.load(Ordering::Acquire);
                    if upto == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    let tier = shared.read().unwrap().clone();
                    // Probe a spread sample of the keys known to be
                    // installed; any miss is a soundness violation.
                    for j in 0..256u64 {
                        let i = (j.wrapping_mul(0x9e37_79b9).wrapping_add(r)) % upto;
                        assert!(tier.contains(mix64(i)), "false negative for key index {i}");
                        probes += 1;
                    }
                }
                probes
            }));
        }

        let mut revoked = HashSet::new();
        let mut client: Option<TieredFilter> = Some(shared.read().unwrap().clone());
        let mut compactions = 0u32;
        for chunk in 0..(total / 500) {
            for i in (chunk * 500)..((chunk + 1) * 500) {
                revoked.insert(mix64(i));
            }
            if matches!(
                publisher.publish(&revoked).unwrap(),
                PublishOutcome::Compacted(_)
            ) {
                compactions += 1;
            }
            sync(&mut client, &publisher.snapshot());
            *shared.write().unwrap() = client.clone().unwrap();
            visible.store((chunk + 1) * 500, Ordering::Release);
        }
        stop.store(true, Ordering::Release);
        let probes: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(compactions >= 2, "sweep never compacted ({compactions})");
        assert!(probes > 0, "readers never probed");
        // Final state: every revoked key answered by the tier pair.
        let tier = shared.read().unwrap().clone();
        for &k in &revoked {
            assert!(tier.contains(k));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// For any key set split across base epoch and delta, the tiered
        /// filter has zero false negatives, and compaction preserves that
        /// across an epoch roll.
        #[test]
        fn tiered_invariant_across_epoch_roll(
            base_n in 1u64..400,
            churn in prop::collection::vec(any::<u64>(), 0..200),
            compact_at in 16u64..64,
        ) {
            let cfg = TieredConfig {
                delta_capacity: 1024,
                delta_fpr: 1e-3,
                compact_at,
            };
            let mut publisher = TieredPublisher::new(cfg).unwrap();
            let mut revoked: HashSet<u64> =
                (0..base_n).map(crate::hash::mix64).collect();
            publisher.publish(&revoked).unwrap();
            let mut client = None;
            tests::sync(&mut client, &publisher.snapshot());
            for &k in &revoked {
                prop_assert!(client.as_ref().unwrap().contains(k));
            }
            // Arbitrary churn, publishing (and possibly compacting) every
            // few keys; the client follows via the serve matrix.
            for (i, &k) in churn.iter().enumerate() {
                revoked.insert(k);
                if i % 8 == 0 {
                    publisher.publish(&revoked).unwrap();
                    tests::sync(&mut client, &publisher.snapshot());
                }
            }
            publisher.publish(&revoked).unwrap();
            tests::sync(&mut client, &publisher.snapshot());
            let tier = client.unwrap();
            for &k in &revoked {
                prop_assert!(tier.contains(k), "false negative after churn");
            }
        }
    }
}
