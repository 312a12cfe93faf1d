//! How aggregators (and other components) reach the ecosystem's ledgers.
//!
//! The trait keeps the ingest pipeline sans-io: simulations pass
//! [`LocalLedgers`] (in-process ledger instances); the TCP prototype
//! implements the same trait over the wire.

use irs_core::claim::{ClaimRequest, RevocationStatus};
use irs_core::freshness::FreshnessProof;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampToken;
use irs_ledger::Ledger;
use std::collections::HashMap;

/// Access to the ledger ecosystem.
pub trait LedgerDirectory {
    /// Query a record's status. `None` = ledger unknown/unreachable.
    fn query(&mut self, id: RecordId, now: TimeMs) -> Option<(RevocationStatus, u64)>;

    /// Claim custodially on the given ledger.
    fn claim_custodial(
        &mut self,
        ledger: LedgerId,
        request: ClaimRequest,
        now: TimeMs,
    ) -> Option<(RecordId, TimestampToken)>;

    /// Request a freshness proof for a record.
    fn proof(&mut self, id: RecordId, now: TimeMs) -> Option<FreshnessProof>;
}

/// In-process directory over owned [`Ledger`] instances.
#[derive(Default)]
pub struct LocalLedgers {
    ledgers: HashMap<LedgerId, Ledger>,
}

impl LocalLedgers {
    /// Empty directory.
    pub fn new() -> LocalLedgers {
        LocalLedgers::default()
    }

    /// Add a ledger.
    pub fn add(&mut self, ledger: Ledger) {
        self.ledgers.insert(ledger.id(), ledger);
    }

    /// Borrow a ledger (its whole request path is `&self`).
    pub fn get(&self, id: LedgerId) -> Option<&Ledger> {
        self.ledgers.get(&id)
    }
}

impl LedgerDirectory for LocalLedgers {
    fn query(&mut self, id: RecordId, _now: TimeMs) -> Option<(RevocationStatus, u64)> {
        self.ledgers.get(&id.ledger)?.store().status(&id)
    }

    fn claim_custodial(
        &mut self,
        ledger: LedgerId,
        request: ClaimRequest,
        now: TimeMs,
    ) -> Option<(RecordId, TimestampToken)> {
        self.ledgers
            .get(&ledger)?
            .claim_custodial(request, now)
            .ok()
    }

    fn proof(&mut self, id: RecordId, now: TimeMs) -> Option<FreshnessProof> {
        let ledger = self.ledgers.get(&id.ledger)?;
        let (status, _) = ledger.store().status(&id)?;
        Some(ledger.issue_proof(id, status, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::tsa::TimestampAuthority;
    use irs_crypto::{Digest, Keypair};
    use irs_ledger::LedgerConfig;

    fn directory() -> LocalLedgers {
        let tsa = TimestampAuthority::from_seed(1);
        let mut d = LocalLedgers::new();
        d.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa.clone()));
        d.add(Ledger::new(LedgerConfig::new(LedgerId(2)), tsa));
        d
    }

    #[test]
    fn query_routes_by_ledger() {
        let mut d = directory();
        let kp = Keypair::from_seed(&[1u8; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(b"x"));
        let (id, _) = d.claim_custodial(LedgerId(2), req, TimeMs(5)).unwrap();
        assert_eq!(id.ledger, LedgerId(2));
        assert_eq!(
            d.query(id, TimeMs(6)),
            Some((RevocationStatus::NotRevoked, 0))
        );
        // Unknown ledger.
        let ghost = RecordId::new(LedgerId(9), 0);
        assert_eq!(d.query(ghost, TimeMs(6)), None);
    }

    #[test]
    fn proof_issuance() {
        let mut d = directory();
        let kp = Keypair::from_seed(&[2u8; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(b"y"));
        let (id, _) = d.claim_custodial(LedgerId(1), req, TimeMs(5)).unwrap();
        let proof = d.proof(id, TimeMs(10)).unwrap();
        let ledger_key = d.get(LedgerId(1)).unwrap().public_key();
        assert!(proof.verify(&ledger_key, TimeMs(20)));
    }
}
