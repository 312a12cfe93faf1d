//! The upload pipeline, rechecker, and derivative database.

use crate::directory::LedgerDirectory;
use irs_core::claim::ClaimRequest;
use irs_core::freshness::FreshnessProof;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::photo::{LabelState, PhotoFile};
use irs_core::policy::UploadDecision;
use irs_core::time::TimeMs;
use irs_crypto::Keypair;
use irs_imaging::phash::{dct_hash_256, Hash256, MatchVerdict, RobustMatcher};
use irs_imaging::watermark::WatermarkConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Aggregator behavior knobs.
#[derive(Clone, Debug)]
pub struct AggregatorConfig {
    /// Claim unlabeled uploads custodially (vs rejecting them).
    pub custodial_claiming: bool,
    /// Which ledger custodial claims go to.
    pub home_ledger: LedgerId,
    /// Re-validate hosted photos at this interval.
    pub recheck_interval_ms: u64,
    /// Check uploads against the robust-hash DB of hosted content.
    pub derivative_check: bool,
    /// Watermark parameters (label reading and custodial labeling).
    pub watermark: WatermarkConfig,
    /// Keygen seed for custodial claims.
    pub seed: u64,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            custodial_claiming: true,
            home_ledger: LedgerId(0),
            recheck_interval_ms: 3_600_000,
            derivative_check: true,
            watermark: WatermarkConfig::default(),
            seed: 0,
        }
    }
}

/// A photo the aggregator hosts.
#[derive(Clone, Debug)]
pub struct HostedPhoto {
    /// The photo as stored.
    pub photo: PhotoFile,
    /// Its governing record, if claimed.
    pub record: Option<RecordId>,
    /// Last successful revocation check.
    pub last_checked: TimeMs,
    /// Whether it is currently served.
    pub visible: bool,
    /// Latest freshness proof (stapled into responses).
    pub proof: Option<FreshnessProof>,
}

/// Ingest/serving counters, split into baseline work and IRS-added work so
/// E10 can report the overhead fraction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggregatorStats {
    /// Uploads attempted.
    pub uploads: u64,
    /// Uploads accepted.
    pub accepted: u64,
    /// Uploads denied (any reason).
    pub denied: u64,
    /// Ledger status queries issued (ingest + recheck).
    pub ledger_queries: u64,
    /// Custodial claims made.
    pub custodial_claims: u64,
    /// Watermark extractions performed.
    pub watermark_reads: u64,
    /// Robust-hash computations performed.
    pub hash_computations: u64,
    /// Photos taken down by rechecks.
    pub takedowns: u64,
    /// Freshness proofs fetched.
    pub proofs_fetched: u64,
}

/// Result of one recheck sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecheckReport {
    /// Photos examined this sweep.
    pub checked: u64,
    /// Newly hidden because their record became revoked.
    pub taken_down: u64,
    /// Restored because their record was unrevoked.
    pub restored: u64,
}

/// A content aggregator.
pub struct Aggregator {
    config: AggregatorConfig,
    hosted: HashMap<u64, HostedPhoto>,
    next_key: u64,
    /// Robust hashes of hosted content (key → hash), linear-scanned; real
    /// deployments index this, but our corpora are small.
    hash_db: Vec<(u64, Hash256)>,
    matcher: RobustMatcher,
    keygen: StdRng,
    /// Counters.
    pub stats: AggregatorStats,
}

impl Aggregator {
    /// Create an aggregator.
    pub fn new(config: AggregatorConfig) -> Aggregator {
        let keygen = StdRng::seed_from_u64(config.seed ^ 0x4147_4752_4547_4154);
        Aggregator {
            config,
            hosted: HashMap::new(),
            next_key: 0,
            hash_db: Vec::new(),
            matcher: RobustMatcher::default(),
            keygen,
            stats: AggregatorStats::default(),
        }
    }

    /// Borrow a hosted photo.
    pub fn get(&self, key: u64) -> Option<&HostedPhoto> {
        self.hosted.get(&key)
    }

    /// The §3.2 upload pipeline. Returns the decision and, on acceptance,
    /// the hosting key.
    pub fn upload(
        &mut self,
        photo: PhotoFile,
        ledgers: &mut dyn LedgerDirectory,
        now: TimeMs,
    ) -> (UploadDecision, Option<u64>) {
        self.stats.uploads += 1;
        self.stats.watermark_reads += 1;
        let reading = photo.read_label(&self.config.watermark);
        let decision = match reading.state() {
            LabelState::Labeled(id) => {
                self.stats.ledger_queries += 1;
                match ledgers.query(id, now) {
                    Some((status, _)) if status.allows_viewing() => {
                        // Derivative check: does this content match hosted
                        // content claimed under a *different* record?
                        if let Some(existing) = self.find_derivative(&photo, Some(id)) {
                            UploadDecision::DeniedDerivedFromClaimed(existing)
                        } else {
                            UploadDecision::Accepted(None)
                        }
                    }
                    Some(_) => UploadDecision::DeniedRevoked(id),
                    None => UploadDecision::DeniedUnverifiable,
                }
            }
            LabelState::Inconsistent => UploadDecision::DeniedInconsistentLabel,
            LabelState::Unlabeled => {
                if let Some(existing) = self.find_derivative(&photo, None) {
                    UploadDecision::DeniedDerivedFromClaimed(existing)
                } else if self.config.custodial_claiming {
                    UploadDecision::Accepted(None) // custodial id filled below
                } else {
                    UploadDecision::DeniedUnlabeled
                }
            }
        };

        match decision {
            UploadDecision::Accepted(_) => {
                let (record, photo) = match reading.state() {
                    LabelState::Labeled(id) => (Some(id), photo),
                    LabelState::Unlabeled if self.config.custodial_claiming => {
                        match self.claim_custodially(photo, ledgers, now) {
                            Ok((id, labeled)) => (Some(id), labeled),
                            Err(original) => {
                                // Ledger unreachable or photo too small to
                                // watermark: host untracked.
                                (None, original)
                            }
                        }
                    }
                    _ => (None, photo),
                };
                let key = self.host(photo, record, now);
                let decision = UploadDecision::Accepted(
                    record.filter(|_| matches!(reading.state(), LabelState::Unlabeled)),
                );
                self.stats.accepted += 1;
                (decision, Some(key))
            }
            denied => {
                self.stats.denied += 1;
                (denied, None)
            }
        }
    }

    fn claim_custodially(
        &mut self,
        mut photo: PhotoFile,
        ledgers: &mut dyn LedgerDirectory,
        now: TimeMs,
    ) -> Result<(RecordId, PhotoFile), PhotoFile> {
        let mut seed = [0u8; 32];
        self.keygen.fill(&mut seed);
        let keypair = Keypair::from_seed(&seed);
        let request = ClaimRequest::create(&keypair, &photo.digest());
        let Some((id, _tok)) = ledgers.claim_custodial(self.config.home_ledger, request, now)
        else {
            return Err(photo);
        };
        self.stats.custodial_claims += 1;
        if photo.label(id, &self.config.watermark).is_err() {
            // Too small to watermark; keep metadata-only label.
            photo
                .metadata
                .set(irs_imaging::MetadataKey::IrsRecordId, id.to_string());
        }
        Ok((id, photo))
    }

    fn host(&mut self, photo: PhotoFile, record: Option<RecordId>, now: TimeMs) -> u64 {
        let key = self.next_key;
        self.next_key += 1;
        self.stats.hash_computations += 1;
        let hash = dct_hash_256(&photo.image);
        self.hash_db.push((key, hash));
        self.hosted.insert(
            key,
            HostedPhoto {
                photo,
                record,
                last_checked: now,
                visible: true,
                proof: None,
            },
        );
        key
    }

    /// Upload accompanied by a C2PA-style provenance chain (§3.2's
    /// derivative path: "the intention is to encourage those making
    /// derivative images to transfer the metadata to the modified
    /// version"). A chain that (a) verifies, (b) terminates in exactly
    /// this content, and (c) roots at a claimed capture lets a legitimate
    /// edit be governed by the *original's* record even when the edit
    /// destroyed the watermark — so revoking the original also removes the
    /// derivative. An invalid or unrooted chain falls back to the plain
    /// §3.2 pipeline.
    pub fn upload_with_provenance(
        &mut self,
        photo: PhotoFile,
        chain: &irs_core::provenance::ProvenanceChain,
        ledgers: &mut dyn LedgerDirectory,
        now: TimeMs,
    ) -> (UploadDecision, Option<u64>) {
        let verified = chain.verify(&photo.digest()).is_ok();
        let Some(record) = chain.irs_record().filter(|_| verified) else {
            return self.upload(photo, ledgers, now);
        };
        self.stats.uploads += 1;
        self.stats.ledger_queries += 1;
        match ledgers.query(record, now) {
            Some((status, _)) if status.allows_viewing() => {
                // Host under the original's record: the derivative is now
                // revocable through it.
                let key = self.host(photo, Some(record), now);
                self.stats.accepted += 1;
                (UploadDecision::Accepted(Some(record)), Some(key))
            }
            Some(_) => {
                self.stats.denied += 1;
                (UploadDecision::DeniedRevoked(record), None)
            }
            None => {
                self.stats.denied += 1;
                (UploadDecision::DeniedUnverifiable, None)
            }
        }
    }

    /// Robust-hash scan: hosted content matching this photo whose record
    /// differs from `claimed_as`.
    fn find_derivative(
        &mut self,
        photo: &PhotoFile,
        claimed_as: Option<RecordId>,
    ) -> Option<RecordId> {
        if !self.config.derivative_check {
            return None;
        }
        self.stats.hash_computations += 1;
        let hash = dct_hash_256(&photo.image);
        for (key, existing_hash) in &self.hash_db {
            if self
                .matcher
                .verdict(irs_imaging::phash::hamming256(&hash, existing_hash))
                == MatchVerdict::Derived
            {
                if let Some(hosted) = self.hosted.get(key) {
                    if let Some(record) = hosted.record {
                        if claimed_as != Some(record) {
                            return Some(record);
                        }
                    }
                }
            }
        }
        None
    }

    /// Periodic revalidation (§3.2 "periodically rechecks"). Only photos
    /// whose `last_checked` is older than the configured interval are
    /// queried; fresh proofs are stapled for serving.
    pub fn recheck(&mut self, ledgers: &mut dyn LedgerDirectory, now: TimeMs) -> RecheckReport {
        let mut report = RecheckReport::default();
        for hosted in self.hosted.values_mut() {
            let Some(record) = hosted.record else {
                continue;
            };
            if now.since(hosted.last_checked) < self.config.recheck_interval_ms {
                continue;
            }
            report.checked += 1;
            self.stats.ledger_queries += 1;
            let Some((status, _)) = ledgers.query(record, now) else {
                continue; // unreachable: keep prior state, retry next sweep
            };
            hosted.last_checked = now;
            let should_be_visible = status.allows_viewing();
            if hosted.visible && !should_be_visible {
                hosted.visible = false;
                report.taken_down += 1;
                self.stats.takedowns += 1;
            } else if !hosted.visible && should_be_visible {
                hosted.visible = true;
                report.restored += 1;
            }
            if should_be_visible {
                if let Some(proof) = ledgers.proof(record, now) {
                    self.stats.proofs_fetched += 1;
                    hosted.proof = Some(proof);
                }
            }
        }
        report
    }

    /// Serve a photo: `None` if hidden. Includes the stapled freshness
    /// proof when held (§3.2: responses include "cryptographic proof that
    /// it has recently verified the non-revoked status").
    pub fn serve(&self, key: u64) -> Option<(&PhotoFile, Option<&FreshnessProof>)> {
        let hosted = self.hosted.get(&key)?;
        if !hosted.visible {
            return None;
        }
        Some((&hosted.photo, hosted.proof.as_ref()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::LocalLedgers;
    use irs_core::camera::Camera;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response};
    use irs_imaging::manipulate::Manipulation;
    use irs_ledger::{Ledger, LedgerConfig};

    fn setup() -> (Aggregator, LocalLedgers) {
        let tsa = TimestampAuthority::from_seed(1);
        let mut ledgers = LocalLedgers::new();
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
        (Aggregator::new(AggregatorConfig::default()), ledgers)
    }

    /// Owner claims + labels a photo on ledger 1.
    fn owner_photo(
        ledgers: &LocalLedgers,
        cam_seed: u64,
        revoke: bool,
    ) -> (PhotoFile, RecordId, Keypair) {
        let mut cam = Camera::new(cam_seed, 256, 256);
        let shot = cam.capture(100);
        let ledger = ledgers.get(LedgerId(1)).unwrap();
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(100))
        else {
            panic!("claim failed");
        };
        let mut photo = shot.photo;
        photo.label(id, &WatermarkConfig::default()).unwrap();
        if revoke {
            let rv = irs_core::claim::RevokeRequest::create(&shot.keypair, id, true, 0);
            ledger.handle(Request::Revoke(rv), TimeMs(200));
        }
        (photo, id, shot.keypair)
    }

    #[test]
    fn valid_labeled_upload_accepted() {
        let (mut agg, mut ledgers) = setup();
        let (photo, _id, _) = owner_photo(&ledgers, 1, false);
        let (decision, key) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        assert!(decision.accepted());
        assert!(agg.serve(key.unwrap()).is_some());
        assert_eq!(agg.stats.ledger_queries, 1);
    }

    #[test]
    fn revoked_upload_denied() {
        let (mut agg, mut ledgers) = setup();
        let (photo, id, _) = owner_photo(&ledgers, 2, true);
        let (decision, key) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        assert_eq!(decision, UploadDecision::DeniedRevoked(id));
        assert!(key.is_none());
        assert_eq!(agg.stats.denied, 1);
    }

    #[test]
    fn stripped_metadata_denied() {
        let (mut agg, mut ledgers) = setup();
        let (mut photo, _, _) = owner_photo(&ledgers, 3, false);
        photo.metadata.strip_all();
        let (decision, _) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        assert_eq!(decision, UploadDecision::DeniedInconsistentLabel);
    }

    #[test]
    fn unlabeled_upload_custodially_claimed() {
        let (mut agg, mut ledgers) = setup();
        let photo = PhotoFile::new(irs_imaging::PhotoGenerator::new(50).generate(0, 256, 256));
        let (decision, key) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        let UploadDecision::Accepted(Some(custodial_id)) = decision else {
            panic!("expected custodial acceptance, got {decision:?}");
        };
        assert_eq!(custodial_id.ledger, LedgerId(0));
        assert_eq!(agg.stats.custodial_claims, 1);
        // Hosted copy now carries the custodial label.
        let hosted = agg.get(key.unwrap()).unwrap();
        assert_eq!(hosted.record, Some(custodial_id));
        let reading = hosted.photo.read_label(&WatermarkConfig::default());
        assert_eq!(reading.metadata_id, Some(custodial_id));
    }

    #[test]
    fn unlabeled_rejected_when_policy_says_so() {
        let (_, mut ledgers) = setup();
        let mut agg = Aggregator::new(AggregatorConfig {
            custodial_claiming: false,
            ..AggregatorConfig::default()
        });
        let photo = PhotoFile::new(irs_imaging::PhotoGenerator::new(51).generate(0, 128, 128));
        let (decision, _) = agg.upload(photo, &mut ledgers, TimeMs(1));
        assert_eq!(decision, UploadDecision::DeniedUnlabeled);
    }

    #[test]
    fn recheck_takes_down_newly_revoked() {
        let (mut agg, mut ledgers) = setup();
        let (photo, id, keypair) = owner_photo(&ledgers, 4, false);
        let (_, key) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        let key = key.unwrap();
        assert!(agg.serve(key).is_some());
        // Owner revokes after upload.
        let (_, epoch) = ledgers
            .get(LedgerId(1))
            .unwrap()
            .store()
            .status(&id)
            .unwrap();
        let rv = irs_core::claim::RevokeRequest::create(&keypair, id, true, epoch);
        ledgers
            .get(LedgerId(1))
            .unwrap()
            .handle(Request::Revoke(rv), TimeMs(2_000));
        // Too early: interval not elapsed.
        let r0 = agg.recheck(&mut ledgers, TimeMs(2_000));
        assert_eq!(r0.checked, 0);
        // After the interval the sweep takes it down.
        let r1 = agg.recheck(&mut ledgers, TimeMs(1_000 + 3_600_000));
        assert_eq!(r1.taken_down, 1);
        assert!(agg.serve(key).is_none());
        // Owner unrevokes; next sweep restores.
        let (_, epoch) = ledgers
            .get(LedgerId(1))
            .unwrap()
            .store()
            .status(&id)
            .unwrap();
        let unrv = irs_core::claim::RevokeRequest::create(&keypair, id, false, epoch);
        ledgers
            .get(LedgerId(1))
            .unwrap()
            .handle(Request::Revoke(unrv), TimeMs(3_000));
        let r2 = agg.recheck(&mut ledgers, TimeMs(1_000 + 2 * 3_600_000));
        assert_eq!(r2.restored, 1);
        assert!(agg.serve(key).is_some());
    }

    #[test]
    fn recheck_staples_freshness_proof() {
        let (mut agg, mut ledgers) = setup();
        let (photo, _, _) = owner_photo(&ledgers, 5, false);
        let (_, key) = agg.upload(photo, &mut ledgers, TimeMs(0));
        agg.recheck(&mut ledgers, TimeMs(3_600_000));
        let (_, proof) = agg.serve(key.unwrap()).unwrap();
        let proof = proof.expect("proof stapled");
        let ledger_key = ledgers.get(LedgerId(1)).unwrap().public_key();
        assert!(proof.verify(&ledger_key, TimeMs(3_700_000)));
    }

    #[test]
    fn derivative_upload_with_different_claim_denied() {
        let (mut agg, mut ledgers) = setup();
        let (photo, id, _) = owner_photo(&ledgers, 6, false);
        let original_image = photo.image.clone();
        let (d1, _) = agg.upload(photo, &mut ledgers, TimeMs(1_000));
        assert!(d1.accepted());
        // Attacker transcodes the image, strips the label, and re-claims
        // under their own key on ledger 1.
        let attacker_image = Manipulation::Jpeg(60).apply(&original_image);
        let mut attacker_photo = PhotoFile::new(attacker_image);
        let attacker_kp = Keypair::from_seed(&[77u8; 32]);
        let claim = ClaimRequest::create(&attacker_kp, &attacker_photo.digest());
        let ledger = ledgers.get(LedgerId(1)).unwrap();
        let Response::Claimed {
            id: attacker_id, ..
        } = ledger.handle(Request::Claim(claim), TimeMs(2_000))
        else {
            panic!("claim failed");
        };
        attacker_photo
            .label(attacker_id, &WatermarkConfig::default())
            .unwrap();
        let (d2, _) = agg.upload(attacker_photo, &mut ledgers, TimeMs(3_000));
        assert_eq!(d2, UploadDecision::DeniedDerivedFromClaimed(id));
    }

    #[test]
    fn provenance_chain_governs_watermarkless_derivative() {
        use irs_core::provenance::{Action, ProvenanceChain};
        let (mut agg, mut ledgers) = setup();
        // Owner captures + claims; an editor crops hard enough that the
        // derivative carries no readable label.
        let mut cam = Camera::new(60, 256, 256);
        let shot = cam.capture(100);
        let camera_kp = shot.keypair.clone();
        let ledger = ledgers.get(LedgerId(1)).unwrap();
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(100))
        else {
            panic!("claim failed");
        };
        let derivative = PhotoFile::new(
            shot.photo.image.resize(96, 96).unwrap(), // label-destroying edit
        );
        let mut chain =
            ProvenanceChain::capture(&camera_kp, shot.photo.digest(), Some(id), TimeMs(100));
        let editor_kp = Keypair::from_seed(&[61u8; 32]);
        chain.append(
            &editor_kp,
            derivative.digest(),
            Action::Edited("thumbnail".into()),
            TimeMs(200),
        );
        // With the chain: accepted under the ORIGINAL record.
        let (decision, key) =
            agg.upload_with_provenance(derivative.clone(), &chain, &mut ledgers, TimeMs(300));
        assert_eq!(decision, UploadDecision::Accepted(Some(id)));
        assert_eq!(agg.get(key.unwrap()).unwrap().record, Some(id));
        // Revoking the original takes the derivative down at recheck.
        let (_, epoch) = ledgers.query(id, TimeMs(301)).unwrap();
        let rv = irs_core::claim::RevokeRequest::create(&camera_kp, id, true, epoch);
        ledgers
            .get(LedgerId(1))
            .unwrap()
            .handle(Request::Revoke(rv), TimeMs(400));
        let report = agg.recheck(&mut ledgers, TimeMs(300 + 3_600_000));
        assert_eq!(report.taken_down, 1);
    }

    #[test]
    fn revoked_provenance_root_denies_upload() {
        use irs_core::provenance::{Action, ProvenanceChain};
        let (mut agg, mut ledgers) = setup();
        let (_, id, keypair) = {
            let (photo, id, kp) = owner_photo(&ledgers, 62, true); // revoked
            (photo, id, kp)
        };
        let derivative = PhotoFile::new(irs_imaging::PhotoGenerator::new(62).generate(9, 128, 128));
        let mut chain = ProvenanceChain::capture(
            &keypair,
            irs_crypto::Digest::of(b"orig"),
            Some(id),
            TimeMs(1),
        );
        chain.append(
            &keypair,
            derivative.digest(),
            Action::Edited("edit".into()),
            TimeMs(2),
        );
        let (decision, _) =
            agg.upload_with_provenance(derivative, &chain, &mut ledgers, TimeMs(10));
        assert_eq!(decision, UploadDecision::DeniedRevoked(id));
    }

    #[test]
    fn tampered_chain_falls_back_to_plain_pipeline() {
        use irs_core::provenance::{Action, ProvenanceChain};
        let (mut agg, mut ledgers) = setup();
        let (_, id, keypair) = {
            let (photo, id, kp) = owner_photo(&ledgers, 63, false);
            (photo, id, kp)
        };
        // Chain whose final content does NOT match the upload.
        let unrelated = PhotoFile::new(irs_imaging::PhotoGenerator::new(63).generate(3, 160, 160));
        let mut chain =
            ProvenanceChain::capture(&keypair, irs_crypto::Digest::of(b"x"), Some(id), TimeMs(1));
        chain.append(
            &keypair,
            irs_crypto::Digest::of(b"not the upload"),
            Action::Edited("e".into()),
            TimeMs(2),
        );
        // Falls back to plain rules: unlabeled → custodial claim.
        let (decision, _) = agg.upload_with_provenance(unrelated, &chain, &mut ledgers, TimeMs(10));
        assert!(matches!(decision, UploadDecision::Accepted(Some(custodial)) if custodial != id));
    }

    #[test]
    fn stats_accumulate() {
        let (mut agg, mut ledgers) = setup();
        let (photo, _, _) = owner_photo(&ledgers, 7, false);
        agg.upload(photo, &mut ledgers, TimeMs(0));
        let s = agg.stats;
        assert_eq!(s.uploads, 1);
        assert_eq!(s.accepted, 1);
        assert_eq!(s.watermark_reads, 1);
        assert!(s.hash_computations >= 1);
    }
}
