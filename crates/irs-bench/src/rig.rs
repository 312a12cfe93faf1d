//! What the single-threaded proxy rigs (E4/E5/E13/E14, `benches/proxy.rs`)
//! share. They drive the proxy a server runs, built with
//! `SharedProxy::with_shards(config, 1)`: one cache stripe is an exact
//! LRU, so the recorded tables do not depend on the stripe count.

use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{FilterUpdate, LookupOutcome, SharedProxy};
use irs_workload::population::PhotoPopulation;

/// Filter keys of the population's revoked photos.
pub fn revoked_keys(population: &PhotoPopulation) -> impl Iterator<Item = u64> + '_ {
    population
        .iter()
        .filter(|m| m.revoked)
        .map(|m| m.id.filter_key())
}

/// Insert `revoked` into `filter` and install it on `proxy` as ledger
/// 0's revoked-set filter.
pub fn install_revoked_filter(
    proxy: &SharedProxy,
    mut filter: BloomFilter,
    revoked: impl IntoIterator<Item = u64>,
) {
    for key in revoked {
        filter.insert(key);
    }
    proxy
        .update_filters(|fs| fs.apply(LedgerId(0), FilterUpdate::full(1, filter.to_bytes())))
        .expect("install");
}

/// One validation with ground truth standing in for the ledger: a
/// `NeedsLedgerQuery` is completed with `revoked` on the spot.
pub fn validate(proxy: &SharedProxy, id: RecordId, revoked: bool, now: TimeMs) -> LookupOutcome {
    let outcome = proxy.lookup(id, now);
    if outcome == LookupOutcome::NeedsLedgerQuery {
        let status = if revoked {
            RevocationStatus::Revoked
        } else {
            RevocationStatus::NotRevoked
        };
        proxy.complete(id, status, now);
    }
    outcome
}
