//! E6 — hourly delta-encoded filter updates are cheap.
//!
//! §4.4: filters are "updated regularly (perhaps hourly), and transferred
//! with a delta encoding such that the update traffic will be low."
//!
//! A ledger accumulates revocation churn for an hour, publishes, and we
//! compare the delta bytes a proxy one version behind is served
//! (`GetFilterTiered` with the held `(epoch, version)`) against
//! re-shipping the full filter (the bootstrap answer), across churn
//! rates. The ledger never seals a base here (`compact_at: u64::MAX`),
//! so its publication is the paper's single Bloom filter at 2 % FPR.

use crate::table::{bytes_h, f, Table};
use irs_core::claim::{ClaimRequest, RevokeRequest};
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};
use irs_filters::{Publication, TieredConfig};
use irs_ledger::{Ledger, LedgerConfig};

/// What a proxy holding `(have_epoch, have_version)` is served.
fn fetch(ledger: &Ledger, have_epoch: u64, have_version: u64) -> Response {
    let request = Request::GetFilterTiered {
        have_epoch,
        have_version,
    };
    ledger.handle(request, TimeMs(1_000_000))
}

/// Run E6.
pub fn run(quick: bool) -> String {
    let base_population = if quick { 20_000u64 } else { 100_000 };
    let mut table = Table::new(
        "E6 — hourly filter update traffic: delta vs full",
        &[
            "hourly revocations",
            "full filter",
            "delta",
            "ratio",
            "bytes/revocation",
        ],
    );

    for churn in [10u64, 100, 1_000, 10_000] {
        let mut cfg = LedgerConfig::new(LedgerId(1));
        cfg.tiered = TieredConfig {
            delta_capacity: base_population,
            delta_fpr: 0.02,
            compact_at: u64::MAX,
        };
        let ledger = Ledger::new(cfg, TimestampAuthority::from_seed(6));
        // Baseline population: claims with an initial revoked cohort so
        // the filter is realistically loaded.
        let mut keypairs: Vec<(irs_core::ids::RecordId, Keypair)> = Vec::new();
        for i in 0..base_population {
            let kp = Keypair::from_seed(&{
                let mut s = [0u8; 32];
                s[..8].copy_from_slice(&i.to_le_bytes());
                s
            });
            let req = ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()));
            let Response::Claimed { id, .. } = ledger.handle(Request::Claim(req), TimeMs(i)) else {
                panic!("claim failed");
            };
            // 30% of the base population starts revoked.
            if i % 10 < 3 {
                let rv = RevokeRequest::create(&kp, id, true, 0);
                ledger.handle(Request::Revoke(rv), TimeMs(i));
            } else {
                keypairs.push((id, kp));
            }
        }
        ledger.publish_filter();
        let Response::Filter(Publication::Tiered {
            epoch,
            delta_version,
            ..
        }) = fetch(&ledger, 0, 0)
        else {
            panic!("first fetch must be full");
        };
        // One hour of churn: `churn` fresh revocations.
        for (id, kp) in keypairs.iter().take(churn as usize) {
            let (_, epoch) = ledger.store().status(id).unwrap();
            let rv = RevokeRequest::create(kp, *id, true, epoch);
            ledger.handle(Request::Revoke(rv), TimeMs(999_999));
        }
        ledger.publish_filter();
        let Response::Filter(full @ Publication::Tiered { .. }) = fetch(&ledger, 0, 0) else {
            panic!("bootstrap fetch must be full");
        };
        let full_bytes = full.payload_len();
        match fetch(&ledger, epoch, delta_version) {
            Response::Filter(Publication::Delta { data, .. }) => {
                table.row(vec![
                    format!("{churn}"),
                    bytes_h(full_bytes),
                    bytes_h(data.len() as u64),
                    format!("{}×", f(full_bytes as f64 / data.len() as f64, 0)),
                    f(data.len() as f64 / churn as f64, 1),
                ]);
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }
    table.note(format!(
        "base population {base_population} claims (30% revoked at snapshot time)"
    ));
    table.note("k=6 bits set per revocation ⇒ ≈ k·⌈log₂ gap⌉/7 bytes each after gap coding");
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn delta_much_smaller_than_full_at_low_churn() {
        let out = super::run(true);
        let row = out
            .lines()
            .find(|l| l.trim_start().starts_with("10 ") || l.trim_start().starts_with("10\u{a0}"))
            .or_else(|| {
                out.lines()
                    .find(|l| l.split_whitespace().next() == Some("10"))
            })
            .expect("churn-10 row");
        // ratio column like "123×" — extract.
        let ratio: f64 = row
            .split_whitespace()
            .find(|c| c.ends_with('×'))
            .unwrap()
            .trim_end_matches('×')
            .parse()
            .unwrap();
        assert!(ratio > 50.0, "delta should be ≫ smaller: ratio {ratio}");
    }
}
