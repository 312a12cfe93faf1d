//! Owner-side ledger probing (§5).
//!
//! "The automated software that claims photos on behalf of owners could
//! periodically send probes to ledgers to ensure that they are being
//! answered correctly." The [`Prober`] claims canary records, toggles
//! their revocation state, and checks that public queries reflect the
//! change; discrepancies feed a reputation score that a browser vendor or
//! rating service would publish ("one counts on reputational effects").

use crate::adversarial::AdversarialLedger;
use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs_core::ids::RecordId;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};

/// One probe's result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeResult {
    /// Ledger answered consistently with the probe's expectations.
    Consistent,
    /// Ledger reported a status that contradicts the probe state.
    WrongStatus {
        /// What the prober expected.
        expected: RevocationStatus,
        /// What the ledger answered.
        got: RevocationStatus,
    },
    /// Ledger did not answer (or errored).
    NoAnswer,
}

/// Probes a ledger with canary records and accumulates a reputation score.
pub struct Prober {
    canary_seed: u64,
    canaries: Vec<(RecordId, Keypair, RevocationStatus, u64)>,
    /// Probes that came back consistent.
    pub consistent: u64,
    /// Probes that revealed misbehavior.
    pub inconsistent: u64,
    /// Probes that got no answer.
    pub unanswered: u64,
}

impl Prober {
    /// Create a prober; `seed` derives canary keys deterministically.
    pub fn new(seed: u64) -> Prober {
        Prober {
            canary_seed: seed,
            canaries: Vec::new(),
            consistent: 0,
            inconsistent: 0,
            unanswered: 0,
        }
    }

    /// Plant a canary: claim a synthetic record the prober controls.
    pub fn plant_canary(&mut self, ledger: &mut AdversarialLedger, now: TimeMs) -> bool {
        let mut seed = [0u8; 32];
        seed[..8].copy_from_slice(&self.canary_seed.to_le_bytes());
        seed[8..16].copy_from_slice(&(self.canaries.len() as u64).to_le_bytes());
        seed[16..24].copy_from_slice(b"CANARY!!");
        let kp = Keypair::from_seed(&seed);
        let digest = Digest::of(&seed); // synthetic "photo"
        let req = ClaimRequest::create(&kp, &digest);
        match ledger.handle(Request::Claim(req), now) {
            Some(Response::Claimed { id, .. }) => {
                self.canaries
                    .push((id, kp, RevocationStatus::NotRevoked, 0));
                true
            }
            _ => {
                self.unanswered += 1;
                false
            }
        }
    }

    /// Run one probe round: toggle each canary's revocation and verify the
    /// public answer reflects it. Returns per-canary results.
    pub fn probe_round(&mut self, ledger: &mut AdversarialLedger, now: TimeMs) -> Vec<ProbeResult> {
        let mut results = Vec::with_capacity(self.canaries.len());
        for (id, kp, expected, epoch) in self.canaries.iter_mut() {
            // Toggle.
            let target = !matches!(*expected, RevocationStatus::Revoked);
            let rv = RevokeRequest::create(kp, *id, target, *epoch);
            match ledger.handle(Request::Revoke(rv), now) {
                Some(Response::RevokeAck {
                    epoch: new_epoch, ..
                }) => {
                    *epoch = new_epoch;
                    *expected = if target {
                        RevocationStatus::Revoked
                    } else {
                        RevocationStatus::NotRevoked
                    };
                }
                _ => {
                    results.push(ProbeResult::NoAnswer);
                    self.unanswered += 1;
                    continue;
                }
            }
            // Verify through the public query path.
            match ledger.handle(Request::Query { id: *id }, now) {
                Some(Response::Status { status, .. }) => {
                    if status == *expected {
                        results.push(ProbeResult::Consistent);
                        self.consistent += 1;
                    } else {
                        results.push(ProbeResult::WrongStatus {
                            expected: *expected,
                            got: status,
                        });
                        self.inconsistent += 1;
                    }
                }
                _ => {
                    results.push(ProbeResult::NoAnswer);
                    self.unanswered += 1;
                }
            }
        }
        results
    }

    /// Reputation in [0, 1]: fraction of answered probes that were
    /// consistent (1.0 when nothing observed yet).
    pub fn reputation(&self) -> f64 {
        let total = self.consistent + self.inconsistent + self.unanswered;
        if total == 0 {
            return 1.0;
        }
        self.consistent as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversarial::Misbehavior;
    use crate::service::{Ledger, LedgerConfig};
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;

    fn wrapped(m: Misbehavior) -> AdversarialLedger {
        AdversarialLedger::new(
            Ledger::new(
                LedgerConfig::new(LedgerId(1)),
                TimestampAuthority::from_seed(1),
            ),
            m,
        )
    }

    #[test]
    fn honest_ledger_scores_high() {
        let mut ledger = wrapped(Misbehavior::None);
        let mut prober = Prober::new(1);
        for _ in 0..3 {
            assert!(prober.plant_canary(&mut ledger, TimeMs(10)));
        }
        for round in 0..5u64 {
            let results = prober.probe_round(&mut ledger, TimeMs(100 + round * 100));
            assert!(results.iter().all(|r| *r == ProbeResult::Consistent));
        }
        assert_eq!(prober.reputation(), 1.0);
    }

    #[test]
    fn lying_ledger_detected() {
        let mut ledger = wrapped(Misbehavior::LieNotRevoked);
        let mut prober = Prober::new(2);
        prober.plant_canary(&mut ledger, TimeMs(10));
        let results = prober.probe_round(&mut ledger, TimeMs(100));
        // First toggle revokes; liar answers NotRevoked → caught.
        assert!(matches!(
            results[0],
            ProbeResult::WrongStatus {
                expected: RevocationStatus::Revoked,
                got: RevocationStatus::NotRevoked
            }
        ));
        assert!(prober.reputation() < 1.0);
    }

    #[test]
    fn revocation_dropper_detected() {
        let mut ledger = wrapped(Misbehavior::DropRevocations);
        let mut prober = Prober::new(3);
        prober.plant_canary(&mut ledger, TimeMs(10));
        let results = prober.probe_round(&mut ledger, TimeMs(100));
        assert!(matches!(results[0], ProbeResult::WrongStatus { .. }));
    }

    #[test]
    fn unresponsive_ledger_counted() {
        let mut ledger = wrapped(Misbehavior::DropEvery { n: 1 }); // drop all
        let mut prober = Prober::new(4);
        assert!(!prober.plant_canary(&mut ledger, TimeMs(10)));
        assert_eq!(prober.unanswered, 1);
        assert!(prober.reputation() < 1.0);
    }

    #[test]
    fn reputation_degrades_with_misbehavior_rate() {
        // A ledger that drops every 5th request scores between the honest
        // one and the always-lying one (the liar alternates caught/uncaught
        // as the probe toggles, landing at reputation ≈ 0.5).
        let mut honest_p = Prober::new(5);
        let mut ledger = wrapped(Misbehavior::None);
        honest_p.plant_canary(&mut ledger, TimeMs(1));
        for r in 0..10u64 {
            honest_p.probe_round(&mut ledger, TimeMs(10 + r));
        }

        let mut flaky_p = Prober::new(6);
        let mut flaky = wrapped(Misbehavior::DropEvery { n: 5 });
        flaky_p.plant_canary(&mut flaky, TimeMs(1));
        for r in 0..10u64 {
            flaky_p.probe_round(&mut flaky, TimeMs(10 + r));
        }

        let mut liar_p = Prober::new(7);
        let mut liar = wrapped(Misbehavior::LieNotRevoked);
        liar_p.plant_canary(&mut liar, TimeMs(1));
        for r in 0..10u64 {
            liar_p.probe_round(&mut liar, TimeMs(10 + r));
        }

        assert!(honest_p.reputation() > flaky_p.reputation());
        assert!(flaky_p.reputation() > liar_p.reputation());
    }
}
