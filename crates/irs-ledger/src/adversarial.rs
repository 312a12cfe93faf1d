//! Malicious-ledger fault injection (§5 "Malicious Ledgers?").
//!
//! "Ledgers could misbehave in various ways (e.g., answering queries
//! incorrectly, not responding to an owner's request to revoke or unrevoke
//! a photo, etc.)". [`AdversarialLedger`] wraps an honest ledger with a
//! fault policy; [`crate::probe::Prober`] is the detection countermeasure.

use crate::service::Ledger;
use irs_core::claim::RevocationStatus;
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};

/// How the ledger misbehaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Misbehavior {
    /// Honest (control case).
    None,
    /// Answers every status query "NotRevoked" regardless of truth —
    /// keeps revoked photos visible.
    LieNotRevoked,
    /// Acknowledges revocations but silently drops them.
    DropRevocations,
    /// Serves answers as of `lag_ms` in the past (stale replication,
    /// or deliberate foot-dragging).
    Stale {
        /// How far behind truth the answers are.
        lag_ms: u64,
    },
    /// Ignores a fraction of requests entirely (per-request deterministic
    /// by a counter, `1/n` dropped).
    DropEvery {
        /// Every n-th request is dropped.
        n: u64,
    },
}

/// An honest ledger wrapped with a misbehavior policy.
pub struct AdversarialLedger {
    inner: Ledger,
    misbehavior: Misbehavior,
    /// (record serial → (status, effective_at)) history for Stale mode.
    history: Vec<(u64, RevocationStatus, TimeMs)>,
    request_counter: u64,
}

impl AdversarialLedger {
    /// Wrap a ledger.
    pub fn new(inner: Ledger, misbehavior: Misbehavior) -> AdversarialLedger {
        AdversarialLedger {
            inner,
            misbehavior,
            history: Vec::new(),
            request_counter: 0,
        }
    }

    /// The wrapped honest ledger.
    pub fn inner(&self) -> &Ledger {
        &self.inner
    }

    /// Handle a request through the fault policy. `None` models a dropped
    /// request (timeout at the caller).
    pub fn handle(&mut self, request: Request, now: TimeMs) -> Option<Response> {
        self.request_counter += 1;
        if let Misbehavior::DropEvery { n } = self.misbehavior {
            if n > 0 && self.request_counter % n == 0 {
                return None;
            }
        }
        match (&self.misbehavior, &request) {
            (Misbehavior::LieNotRevoked, Request::Query { id }) => {
                let id = *id;
                // Consult truth only for existence.
                match self.inner.handle(Request::Query { id }, now) {
                    Response::Status { id, epoch, .. } => Some(Response::Status {
                        id,
                        status: RevocationStatus::NotRevoked,
                        epoch,
                    }),
                    other => Some(other),
                }
            }
            (Misbehavior::DropRevocations, Request::Revoke(rv)) => {
                // Acknowledge with plausible data but change nothing.
                let (status, epoch) = self
                    .inner
                    .store()
                    .status(&rv.id)
                    .unwrap_or((RevocationStatus::NotRevoked, 0));
                let _ = status;
                Some(Response::RevokeAck {
                    id: rv.id,
                    status: if rv.revoke {
                        RevocationStatus::Revoked
                    } else {
                        RevocationStatus::NotRevoked
                    },
                    epoch: epoch + 1,
                })
            }
            (Misbehavior::Stale { lag_ms }, Request::Query { id }) => {
                let lag = *lag_ms;
                let id = *id;
                let cutoff = TimeMs(now.0.saturating_sub(lag));
                // Status as of `cutoff`: the last transition at or before
                // the cutoff, or the record's initial state if every
                // transition is newer than the cutoff.
                let stale = self
                    .history
                    .iter()
                    .rev()
                    .find(|(serial, _, at)| *serial == id.serial && *at <= cutoff)
                    .or_else(|| {
                        self.history
                            .iter()
                            .find(|(serial, _, _)| *serial == id.serial)
                    })
                    .map(|(_, st, _)| *st);
                match self.inner.handle(Request::Query { id }, now) {
                    Response::Status { id, epoch, status } => Some(Response::Status {
                        id,
                        status: stale.unwrap_or(status),
                        epoch,
                    }),
                    other => Some(other),
                }
            }
            _ => {
                let response = self.inner.handle(request.clone(), now);
                // Maintain status history for Stale mode.
                if let Response::RevokeAck { id, status, .. } = &response {
                    self.history.push((id.serial, *status, now));
                }
                if let Response::Claimed { id, .. } = &response {
                    self.history
                        .push((id.serial, RevocationStatus::NotRevoked, now));
                }
                Some(response)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::LedgerConfig;
    use irs_core::claim::{ClaimRequest, RevokeRequest};
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_crypto::{Digest, Keypair};

    fn honest() -> Ledger {
        Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(1),
        )
    }

    fn claim_and_revoke(l: &mut AdversarialLedger) -> irs_core::ids::RecordId {
        let kp = Keypair::from_seed(&[1u8; 32]);
        let req = ClaimRequest::create(&kp, &Digest::of(b"p"));
        let Some(Response::Claimed { id, .. }) = l.handle(Request::Claim(req), TimeMs(10)) else {
            panic!("claim failed");
        };
        let rv = RevokeRequest::create(&kp, id, true, 0);
        l.handle(Request::Revoke(rv), TimeMs(20));
        id
    }

    #[test]
    fn honest_control() {
        let mut l = AdversarialLedger::new(honest(), Misbehavior::None);
        let id = claim_and_revoke(&mut l);
        match l.handle(Request::Query { id }, TimeMs(30)) {
            Some(Response::Status { status, .. }) => {
                assert_eq!(status, RevocationStatus::Revoked)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn liar_reports_not_revoked() {
        let mut l = AdversarialLedger::new(honest(), Misbehavior::LieNotRevoked);
        let id = claim_and_revoke(&mut l);
        match l.handle(Request::Query { id }, TimeMs(30)) {
            Some(Response::Status { status, .. }) => {
                assert_eq!(status, RevocationStatus::NotRevoked)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Truth inside is revoked.
        assert_eq!(
            l.inner().store().status(&id).unwrap().0,
            RevocationStatus::Revoked
        );
    }

    #[test]
    fn revocation_dropper_acks_but_ignores() {
        let mut l = AdversarialLedger::new(honest(), Misbehavior::DropRevocations);
        let id = claim_and_revoke(&mut l);
        // The ack looked fine but truth is unchanged.
        assert_eq!(
            l.inner().store().status(&id).unwrap().0,
            RevocationStatus::NotRevoked
        );
    }

    #[test]
    fn stale_ledger_serves_old_status() {
        let mut l = AdversarialLedger::new(honest(), Misbehavior::Stale { lag_ms: 1_000 });
        let id = claim_and_revoke(&mut l); // revoked at t=20
                                           // At t=500 the cutoff (t=-500 → claim-time state) still shows the
                                           // pre-revocation state.
        match l.handle(Request::Query { id }, TimeMs(500)) {
            Some(Response::Status { status, .. }) => {
                assert_eq!(status, RevocationStatus::NotRevoked)
            }
            other => panic!("unexpected {other:?}"),
        }
        // Once the lag window passes the revocation becomes visible.
        match l.handle(Request::Query { id }, TimeMs(5_000)) {
            Some(Response::Status { status, .. }) => {
                assert_eq!(status, RevocationStatus::Revoked)
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dropper_drops_every_nth() {
        let mut l = AdversarialLedger::new(honest(), Misbehavior::DropEvery { n: 3 });
        let mut dropped = 0;
        for _ in 0..9 {
            if l.handle(Request::Ping, TimeMs(1)).is_none() {
                dropped += 1;
            }
        }
        assert_eq!(dropped, 3);
    }
}
