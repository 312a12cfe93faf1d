//! Censorship coercion and the non-revocable ledger defense (§5).
//!
//! "One might worry that government authorities could use their influence
//! on owners or ledgers to force photos to be revoked. … nonprofit groups
//! could create ledgers for specific types of photos … that document
//! human-rights violations … These ledgers could register photos and not
//! allow their revocation (and would deny the appeals process if it
//! appeared the appeal was done under duress)."

#[cfg(test)]
use irs_core::claim::ClaimRequest;
use irs_core::claim::{RevocationStatus, RevokeRequest};
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
#[cfg(test)]
use irs_crypto::Digest;
use irs_crypto::Keypair;
use irs_ledger::{codes, Ledger, LedgerConfig, LedgerPolicy};

/// Outcome of a coercion attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoercionOutcome {
    /// The content was revoked — coercion succeeded.
    Revoked,
    /// The ledger refused on policy grounds — the evidence stays up.
    RefusedByPolicy,
}

/// Attempt to coerce revocation of a record: the authority has compelled
/// the owner to produce a validly signed revoke request. A standard ledger
/// complies; a non-revocable ledger refuses.
pub fn coerce_revocation(
    ledger: &Ledger,
    owner: &Keypair,
    id: irs_core::ids::RecordId,
    now: TimeMs,
) -> CoercionOutcome {
    let (_, epoch) = ledger.store().status(&id).expect("record exists");
    let rv = RevokeRequest::create(owner, id, true, epoch);
    match ledger.handle(Request::Revoke(rv), now) {
        Response::RevokeAck {
            status: RevocationStatus::Revoked,
            ..
        } => CoercionOutcome::Revoked,
        Response::Error { code, .. } if code == codes::POLICY => CoercionOutcome::RefusedByPolicy,
        other => panic!("unexpected response {other:?}"),
    }
}

/// Build the standard/nonprofit pair used by tests and the example.
pub fn evidence_ledger_pair(seed: u64) -> (Ledger, Ledger) {
    let tsa = TimestampAuthority::from_seed(seed);
    let standard = Ledger::new(LedgerConfig::new(LedgerId(10)), tsa.clone());
    let mut cfg = LedgerConfig::new(LedgerId(11));
    cfg.policy = LedgerPolicy::NonRevocable;
    let nonprofit = Ledger::new(cfg, tsa);
    (standard, nonprofit)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn claim(ledger: &Ledger, seed: u8) -> (irs_core::ids::RecordId, Keypair) {
        let kp = Keypair::from_seed(&[seed; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(&[seed]));
        match ledger.handle(Request::Claim(req), TimeMs(10)) {
            Response::Claimed { id, .. } => (id, kp),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn standard_ledger_is_coercible() {
        let (standard, _) = evidence_ledger_pair(1);
        let (id, kp) = claim(&standard, 1);
        assert_eq!(
            coerce_revocation(&standard, &kp, id, TimeMs(100)),
            CoercionOutcome::Revoked
        );
        assert_eq!(
            standard.store().status(&id).unwrap().0,
            RevocationStatus::Revoked
        );
    }

    #[test]
    fn nonprofit_ledger_resists_coercion() {
        let (_, nonprofit) = evidence_ledger_pair(2);
        let (id, kp) = claim(&nonprofit, 2);
        assert_eq!(
            coerce_revocation(&nonprofit, &kp, id, TimeMs(100)),
            CoercionOutcome::RefusedByPolicy
        );
        // Evidence stays viewable.
        assert_eq!(
            nonprofit.store().status(&id).unwrap().0,
            RevocationStatus::NotRevoked
        );
    }

    #[test]
    fn nonprofit_still_answers_queries_normally() {
        let (_, nonprofit) = evidence_ledger_pair(3);
        let (id, _) = claim(&nonprofit, 3);
        match nonprofit.handle(Request::Query { id }, TimeMs(50)) {
            Response::Status { status, .. } => {
                assert_eq!(status, RevocationStatus::NotRevoked)
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
