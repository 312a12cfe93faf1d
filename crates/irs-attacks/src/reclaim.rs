//! The sophisticated attack and its remedy, end to end (§5).
//!
//! "To distribute a photo that is currently revoked, a more sophisticated
//! attacker could claim the picture, mark it as not revoked, insert new
//! metadata and a matching watermark (erasing the old one), and then start
//! sharing it. IRS cannot prevent or detect this automatically … but must
//! rely on the aforementioned appeals process."

use irs_aggregator::{Aggregator, LedgerDirectory, LocalLedgers};
use irs_core::camera::Camera;
use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::photo::PhotoFile;
use irs_core::policy::UploadDecision;
use irs_core::time::TimeMs;
use irs_core::wallet::OwnerWallet;
use irs_core::wire::{Request, Response};
use irs_crypto::Keypair;
use irs_imaging::manipulate::Manipulation;
use irs_imaging::watermark::WatermarkConfig;
use irs_ledger::{AppealOutcome, AppealsJudge};

/// Everything that happened in one run of the scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct ReclaimOutcome {
    /// The owner's original record.
    pub original_id: RecordId,
    /// The attacker's re-claimed record.
    pub attacker_id: RecordId,
    /// Did the attacker's upload get past the aggregator *before* any
    /// appeal (with derivative checking disabled, per the paper this
    /// succeeds — IRS "cannot prevent or detect this automatically")?
    pub attack_upload_accepted: bool,
    /// With derivative checking enabled, was a second aggregator able to
    /// stop it automatically?
    pub derivative_check_caught_it: bool,
    /// Outcome of the owner's appeal.
    pub appeal: AppealOutcome,
    /// Status of the attacker's record after the appeal.
    pub attacker_record_final: RevocationStatus,
    /// Whether re-uploading the attacker's copy after the appeal is denied.
    pub post_appeal_upload_denied: bool,
}

/// Configuration for the scenario.
#[derive(Clone, Debug)]
pub struct ReclaimConfig {
    /// Manipulation the attacker applies before re-claiming (e.g. a
    /// transcode to dodge exact-hash matching).
    pub attacker_op: Option<Manipulation>,
    /// Watermark parameters.
    pub watermark: WatermarkConfig,
}

impl Default for ReclaimConfig {
    fn default() -> Self {
        ReclaimConfig {
            attacker_op: Some(Manipulation::Jpeg(65)),
            watermark: WatermarkConfig::default(),
        }
    }
}

/// Run the full scenario: claim → revoke → attacker re-claims → upload →
/// appeal → permanent revocation → re-upload denied.
pub fn run_reclaim_scenario(config: &ReclaimConfig) -> ReclaimOutcome {
    let tsa = irs_core::tsa::TimestampAuthority::from_seed(11);
    let tsa_key = tsa.public_key();
    let mut ledgers = LocalLedgers::new();
    ledgers.add(irs_ledger::Ledger::new(
        irs_ledger::LedgerConfig::new(LedgerId(0)),
        tsa.clone(),
    ));
    ledgers.add(irs_ledger::Ledger::new(
        irs_ledger::LedgerConfig::new(LedgerId(1)),
        tsa,
    ));

    // t=100: owner captures, claims, labels, and stores.
    let mut cam = Camera::new(31, 256, 256);
    let shot = cam.capture(100);
    let owner_keypair = shot.keypair.clone();
    let original_image = shot.photo.image.clone();
    let ledger = ledgers.get(LedgerId(1)).unwrap();
    let Response::Claimed {
        id: original_id,
        timestamp,
    } = ledger.handle(Request::Claim(shot.claim), TimeMs(100))
    else {
        panic!("owner claim failed");
    };
    let mut wallet = OwnerWallet::new();
    wallet.store(shot, original_id, timestamp);

    // t=200: owner revokes.
    let rv = RevokeRequest::create(&owner_keypair, original_id, true, 0);
    ledger.handle(Request::Revoke(rv), TimeMs(200));

    // t=5000: the attacker has a copy (from before revocation), distorts
    // it, claims it under a fresh key, and labels it.
    let attacker_image = match &config.attacker_op {
        Some(op) => op.apply(&original_image),
        None => original_image.clone(),
    };
    let mut attacker_photo = PhotoFile::new(attacker_image);
    let attacker_kp = Keypair::from_seed(&[200u8; 32]);
    let attacker_claim = ClaimRequest::create(&attacker_kp, &attacker_photo.digest());
    let ledger = ledgers.get(LedgerId(1)).unwrap();
    let Response::Claimed {
        id: attacker_id, ..
    } = ledger.handle(Request::Claim(attacker_claim), TimeMs(5_000))
    else {
        panic!("attacker claim failed");
    };
    attacker_photo
        .label(attacker_id, &config.watermark)
        .expect("attacker labels the copy");

    // t=6000: upload to a naive aggregator (no derivative DB): accepted —
    // the copy looks like a validly shared picture.
    let mut naive_agg = Aggregator::new(irs_aggregator::AggregatorConfig {
        derivative_check: false,
        ..Default::default()
    });
    let (naive_decision, _) = naive_agg.upload(attacker_photo.clone(), &mut ledgers, TimeMs(6_000));
    let attack_upload_accepted = naive_decision.accepted();

    // A second aggregator that hosts the original *and* runs the
    // derivative DB catches it automatically (§3.2's optional hardening).
    let mut hardened_agg = Aggregator::new(irs_aggregator::AggregatorConfig {
        derivative_check: true,
        ..Default::default()
    });
    // It hosted the original back when it was shareable (pre-revocation
    // hosting is modeled by inserting with its label).
    let mut hosted_original = wallet.get(&original_id).unwrap().original.clone();
    hosted_original
        .label(original_id, &config.watermark)
        .expect("label original");
    // Temporarily unrevoke for hosting realism is unnecessary: insert
    // directly through upload with a not-revoked snapshot is complex, so
    // host the original photo via the public API while it was unrevoked —
    // here we simply accept that the hardened aggregator has the original
    // in its hash DB from before revocation.
    {
        // Unrevoke at the current epoch, upload, re-revoke.
        let (_, epoch) = ledgers.query(original_id, TimeMs(6_100)).unwrap();
        let unrv = RevokeRequest::create(&owner_keypair, original_id, false, epoch);
        ledgers
            .get(LedgerId(1))
            .unwrap()
            .handle(Request::Revoke(unrv), TimeMs(6_100));
        let (d, _) = hardened_agg.upload(hosted_original, &mut ledgers, TimeMs(6_150));
        debug_assert!(d.accepted());
        let (_, epoch) = ledgers.query(original_id, TimeMs(6_200)).unwrap();
        let rv = RevokeRequest::create(&owner_keypair, original_id, true, epoch);
        ledgers
            .get(LedgerId(1))
            .unwrap()
            .handle(Request::Revoke(rv), TimeMs(6_200));
    }
    let (hardened_decision, _) =
        hardened_agg.upload(attacker_photo.clone(), &mut ledgers, TimeMs(6_300));
    let derivative_check_caught_it = matches!(
        hardened_decision,
        UploadDecision::DeniedDerivedFromClaimed(_)
    );

    // t=10000: the owner notices the copy and appeals to the ledger.
    let evidence = wallet.appeal_evidence(&original_id).expect("evidence");
    let mut judge = AppealsJudge::default();
    let appeal = judge
        .adjudicate(
            ledgers.get(LedgerId(1)).unwrap(),
            &evidence,
            attacker_id,
            &attacker_photo,
            &tsa_key,
            TimeMs(10_000),
        )
        .expect("a memory-only ledger has no storage to fail");

    let attacker_record_final = ledgers
        .query(attacker_id, TimeMs(10_001))
        .map(|(s, _)| s)
        .unwrap_or(RevocationStatus::NotRevoked);

    // t=11000: re-uploading the attacker's copy is now denied everywhere.
    let (post_decision, _) = naive_agg.upload(attacker_photo, &mut ledgers, TimeMs(11_000));
    let post_appeal_upload_denied = !post_decision.accepted();

    ReclaimOutcome {
        original_id,
        attacker_id,
        attack_upload_accepted,
        derivative_check_caught_it,
        appeal,
        attacker_record_final,
        post_appeal_upload_denied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_narrative_holds_with_transcoded_copy() {
        let outcome = run_reclaim_scenario(&ReclaimConfig::default());
        // "IRS cannot prevent or detect this automatically" (naive agg):
        assert!(outcome.attack_upload_accepted);
        // …though the optional robust-hash DB does catch it:
        assert!(outcome.derivative_check_caught_it);
        // The appeal resolves it:
        assert_eq!(outcome.appeal, AppealOutcome::Upheld);
        assert_eq!(
            outcome.attacker_record_final,
            RevocationStatus::PermanentlyRevoked
        );
        assert!(outcome.post_appeal_upload_denied);
    }

    #[test]
    fn exact_copy_variant() {
        let outcome = run_reclaim_scenario(&ReclaimConfig {
            attacker_op: None,
            ..Default::default()
        });
        assert!(outcome.attack_upload_accepted);
        assert_eq!(outcome.appeal, AppealOutcome::Upheld);
        assert!(outcome.post_appeal_upload_denied);
    }

    #[test]
    fn records_are_distinct() {
        let outcome = run_reclaim_scenario(&ReclaimConfig::default());
        assert_ne!(outcome.original_id, outcome.attacker_id);
    }
}
