//! The appeals process (§3.2, and the §5 re-claiming attack's remedy).
//!
//! "The original owner presents the ledger with the original photo and a
//! signed timestamp of the original claim, along with the copied version
//! of the photo. The ledger then compares the original with the copy,
//! using robust hashing (as in PhotoDNA) and/or human inspection. If they
//! believe that the copy is derived from the original photo, they then
//! mark it as permanently revoked."

use crate::service::Ledger;
use crate::wal::WalError;
use irs_core::ids::RecordId;
use irs_core::photo::PhotoFile;
use irs_core::time::TimeMs;
use irs_core::wallet::AppealEvidence;
use irs_crypto::PublicKey;
use irs_imaging::phash::{MatchVerdict, RobustMatcher};

/// Outcome of adjudicating one appeal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppealOutcome {
    /// Copy is derived from the appellant's earlier original: the accused
    /// record was permanently revoked.
    Upheld,
    /// The images are not derived: appeal rejected.
    RejectedNotDerived,
    /// Evidence did not hold up (bad signature, timestamp, or ordering).
    RejectedBadEvidence(EvidenceDefect),
    /// Robust-hash distance fell in the gray zone: queue for the human
    /// inspection the paper allows.
    EscalateToHuman,
}

/// Why evidence was rejected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvidenceDefect {
    /// Appellant's claim signature does not cover the presented photo.
    OwnershipSignature,
    /// Timestamp token failed verification.
    Timestamp,
    /// The appellant's claim is not older than the accused claim — first
    /// to claim wins, by authenticated timestamp.
    NotEarlier,
    /// Accused record does not exist on this ledger.
    UnknownAccused,
}

/// Adjudicates appeals against records held by one ledger.
pub struct AppealsJudge {
    matcher: RobustMatcher,
    /// Appeals resolved, by outcome kind (ops metrics).
    pub upheld: u64,
    /// Appeals rejected (either rejection kind).
    pub rejected: u64,
    /// Appeals escalated to human review.
    pub escalated: u64,
}

impl Default for AppealsJudge {
    fn default() -> Self {
        Self::new(RobustMatcher::default())
    }
}

impl AppealsJudge {
    /// Create a judge with a configured matcher.
    pub fn new(matcher: RobustMatcher) -> AppealsJudge {
        AppealsJudge {
            matcher,
            upheld: 0,
            rejected: 0,
            escalated: 0,
        }
    }

    /// Adjudicate: `evidence` is the appellant's package; `accused` is the
    /// re-claimed record on `ledger`; `accused_photo` is the published
    /// photo carrying the accused label; `trusted_tsa` verifies timestamp
    /// tokens. On `Upheld` the accused record is permanently revoked in
    /// the ledger — through [`Ledger::permanently_revoke`], so on a
    /// durable ledger the pin is logged (and replicated) before the
    /// appeal counts as upheld. A storage failure is returned, not
    /// counted: the appellant retries.
    pub fn adjudicate(
        &mut self,
        ledger: &Ledger,
        evidence: &AppealEvidence,
        accused: RecordId,
        accused_photo: &PhotoFile,
        trusted_tsa: &PublicKey,
        _now: TimeMs,
    ) -> Result<AppealOutcome, WalError> {
        // 1. Evidence integrity: the claim must prove ownership of the
        //    presented original.
        if !evidence
            .claim
            .proves_ownership_of(&evidence.original_photo.digest())
        {
            self.rejected += 1;
            return Ok(AppealOutcome::RejectedBadEvidence(
                EvidenceDefect::OwnershipSignature,
            ));
        }
        // 2. The timestamp must cover this claim and verify.
        if evidence.timestamp.stamped != evidence.claim.digest()
            || !evidence.timestamp.verify(trusted_tsa)
        {
            self.rejected += 1;
            return Ok(AppealOutcome::RejectedBadEvidence(
                EvidenceDefect::Timestamp,
            ));
        }
        // 3. The accused record must exist, and must be *younger* than the
        //    appellant's claim (first claim wins).
        let Some(accused_rec) = ledger.store().get(&accused) else {
            self.rejected += 1;
            return Ok(AppealOutcome::RejectedBadEvidence(
                EvidenceDefect::UnknownAccused,
            ));
        };
        if accused_rec.claim.timestamp.time <= evidence.timestamp.time {
            self.rejected += 1;
            return Ok(AppealOutcome::RejectedBadEvidence(
                EvidenceDefect::NotEarlier,
            ));
        }
        // 4. Robust-hash comparison of the two photos. The judge has the
        //    original in hand, so it can afford the crop-search variant —
        //    without it, a cropped re-claim (the cheapest §5 evasion)
        //    sails through.
        Ok(
            match self
                .matcher
                .compare_with_crop_search(&evidence.original_photo.image, &accused_photo.image)
            {
                MatchVerdict::Derived => {
                    ledger
                        .permanently_revoke(&accused)?
                        .expect("accused exists");
                    self.upheld += 1;
                    AppealOutcome::Upheld
                }
                MatchVerdict::Uncertain => {
                    self.escalated += 1;
                    AppealOutcome::EscalateToHuman
                }
                MatchVerdict::Distinct => {
                    self.rejected += 1;
                    AppealOutcome::RejectedNotDerived
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Ledger, LedgerConfig};
    use irs_core::camera::Camera;
    use irs_core::claim::{ClaimRequest, RevocationStatus};
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wallet::OwnerWallet;
    use irs_core::wire::{Request, Response};
    use irs_imaging::manipulate::Manipulation;

    struct Scenario {
        ledger: Ledger,
        wallet: OwnerWallet,
        original_id: RecordId,
        tsa_key: PublicKey,
    }

    fn tsa() -> TimestampAuthority {
        TimestampAuthority::from_seed(7)
    }

    fn setup(attacker_image_op: Option<Manipulation>) -> (Scenario, RecordId, PhotoFile) {
        let ledger = Ledger::new(LedgerConfig::new(LedgerId(1)), tsa());
        setup_on(ledger, attacker_image_op)
    }

    /// Owner claims at t=100; attacker re-claims a transcoded copy at
    /// t=5000.
    fn setup_on(
        ledger: Ledger,
        attacker_image_op: Option<Manipulation>,
    ) -> (Scenario, RecordId, PhotoFile) {
        let tsa_key = ledger.tsa_key();
        let mut cam = Camera::new(5, 256, 256);
        let shot = cam.capture(100);
        let original_photo = shot.photo.clone();
        let Response::Claimed { id, timestamp } =
            ledger.handle(Request::Claim(shot.claim), TimeMs(100))
        else {
            panic!("claim failed");
        };
        let mut wallet = OwnerWallet::new();
        wallet.store(shot, id, timestamp);

        // Attacker takes the published photo (possibly manipulated) and
        // re-claims it under their own key.
        let attacker_image = match attacker_image_op {
            Some(op) => op.apply(&original_photo.image),
            None => original_photo.image.clone(),
        };
        let attacker_photo = PhotoFile::new(attacker_image);
        let attacker_kp = irs_crypto::Keypair::from_seed(&[66u8; 32]);
        let attacker_claim = ClaimRequest::create(&attacker_kp, &attacker_photo.digest());
        let Response::Claimed { id: accused, .. } =
            ledger.handle(Request::Claim(attacker_claim), TimeMs(5_000))
        else {
            panic!("attacker claim failed");
        };
        (
            Scenario {
                ledger,
                wallet,
                original_id: id,
                tsa_key,
            },
            accused,
            attacker_photo,
        )
    }

    #[test]
    fn exact_copy_appeal_upheld() {
        let (s, accused, accused_photo) = setup(None);
        let ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &ev,
            accused,
            &accused_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(outcome, AppealOutcome::Upheld);
        assert_eq!(
            s.ledger.store().status(&accused).unwrap().0,
            RevocationStatus::PermanentlyRevoked
        );
        assert_eq!(judge.upheld, 1);
    }

    /// §3.2's revocation is *permanent*: the pin goes through the WAL,
    /// so it is still there when the same disk is reopened, and a
    /// follower tailing the log applies it too.
    #[test]
    fn upheld_appeal_survives_restart_and_reaches_a_follower() {
        use crate::{ChaosDisk, ChaosDiskConfig, Disk, DurabilityConfig, Follower, FsyncPolicy};
        use std::sync::Arc;
        let durable = |disk: &Arc<ChaosDisk>| {
            DurabilityConfig::new(disk.clone() as Arc<dyn Disk>, FsyncPolicy::Always)
        };
        let config = || LedgerConfig::new(LedgerId(1));
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(3)));
        let open = || Ledger::recover(config(), tsa(), 4, durable(&disk)).unwrap();
        let (s, accused, accused_photo) = setup_on(open(), None);
        let (seq, data) = s.ledger.replication_snapshot().unwrap();
        let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(4)));
        let mut follower =
            Follower::bootstrap(config(), tsa(), 4, durable(&follower_disk), seq, &data).unwrap();

        let ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        let outcome = AppealsJudge::default()
            .adjudicate(
                &s.ledger,
                &ev,
                accused,
                &accused_photo,
                &s.tsa_key,
                TimeMs(10_000),
            )
            .unwrap();
        assert_eq!(outcome, AppealOutcome::Upheld);

        let applied = follower.poll(|req| Some(s.ledger.handle(req, TimeMs(10_001))));
        assert_eq!(applied.unwrap(), 1);
        drop(s);
        for ledger in [follower.ledger(), Arc::new(open())] {
            assert_eq!(
                ledger.store().status(&accused).unwrap().0,
                RevocationStatus::PermanentlyRevoked
            );
        }
    }

    #[test]
    fn transcoded_copy_appeal_upheld() {
        let (s, accused, accused_photo) = setup(Some(Manipulation::Jpeg(50)));
        let ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &ev,
            accused,
            &accused_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(outcome, AppealOutcome::Upheld);
    }

    #[test]
    fn unrelated_photo_appeal_rejected() {
        let (s, _accused, _) = setup(None);
        // Accuse a record whose photo is unrelated to the original.
        let mut cam2 = Camera::new(99, 256, 256);
        let other_shot = cam2.capture(4_000);
        let other_photo = other_shot.photo.clone();
        let Response::Claimed { id: innocent, .. } = s
            .ledger
            .handle(Request::Claim(other_shot.claim), TimeMs(4_500))
        else {
            panic!("claim failed");
        };
        let ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &ev,
            innocent,
            &other_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(outcome, AppealOutcome::RejectedNotDerived);
        assert_eq!(
            s.ledger.store().status(&innocent).unwrap().0,
            RevocationStatus::NotRevoked,
            "innocent record must be untouched"
        );
    }

    #[test]
    fn later_claimant_cannot_appeal_against_earlier() {
        // The *attacker* (later claim) appeals against the owner — must be
        // rejected on timestamp ordering.
        let (s, accused, accused_photo) = setup(None);
        let attacker_kp = irs_crypto::Keypair::from_seed(&[66u8; 32]);
        let attacker_claim = ClaimRequest::create(&attacker_kp, &accused_photo.digest());
        let accused_rec = s.ledger.store().get(&accused).unwrap().claim.clone();
        let fake_ev = irs_core::wallet::AppealEvidence {
            original_id: accused,
            original_photo: accused_photo.clone(),
            claim: attacker_claim,
            timestamp: accused_rec.timestamp,
        };
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &fake_ev,
            s.original_id,
            &accused_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(
            outcome,
            AppealOutcome::RejectedBadEvidence(EvidenceDefect::NotEarlier)
        );
    }

    #[test]
    fn forged_ownership_rejected() {
        let (s, accused, accused_photo) = setup(None);
        let mut ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        // Present a different photo than the claim covers.
        ev.original_photo = accused_photo.clone();
        ev.original_photo.image = Manipulation::Brightness(40).apply(&ev.original_photo.image);
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &ev,
            accused,
            &accused_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(
            outcome,
            AppealOutcome::RejectedBadEvidence(EvidenceDefect::OwnershipSignature)
        );
    }

    #[test]
    fn unknown_accused_rejected() {
        let (s, _, accused_photo) = setup(None);
        let ev = s.wallet.appeal_evidence(&s.original_id).unwrap();
        let ghost = RecordId::new(LedgerId(1), 999);
        let mut judge = AppealsJudge::default();
        let outcome = judge.adjudicate(
            &s.ledger,
            &ev,
            ghost,
            &accused_photo,
            &s.tsa_key,
            TimeMs(10_000),
        );
        let outcome = outcome.unwrap();
        assert_eq!(
            outcome,
            AppealOutcome::RejectedBadEvidence(EvidenceDefect::UnknownAccused)
        );
    }
}
