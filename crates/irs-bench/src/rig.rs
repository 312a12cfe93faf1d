//! What the single-threaded proxy rigs (E4/E5/E13/E14) share. They drive
//! the proxy a server runs, built with
//! `SharedProxy::with_shards(config, 1)`: one cache stripe is an exact
//! LRU, so the recorded tables do not depend on the stripe count.

use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::{FilterUpdate, LookupOutcome, SharedProxy};
use irs_workload::population::PhotoPopulation;

/// Install the population's revoked set on `proxy` the way §4.4 has it
/// arrive: one Bloom per ledger, each a copy of the (empty) `geometry`
/// holding that ledger's revoked keys, OR-ed by the proxy. Every ledger
/// of the population gets one, revoked keys or not — a miss only counts
/// for ledgers whose filter is held.
pub fn install_revoked_filter(
    proxy: &SharedProxy,
    geometry: BloomFilter,
    population: &PhotoPopulation,
) {
    let mut per_ledger = vec![geometry; usize::from(population.config().ledgers)];
    for meta in population.iter().filter(|m| m.revoked) {
        per_ledger[usize::from(meta.id.ledger.0)].insert(meta.id.filter_key());
    }
    proxy.update_filters(|fs| {
        for (ledger, filter) in (0u16..).zip(per_ledger) {
            fs.apply(LedgerId(ledger), FilterUpdate::full(1, filter.to_bytes()))
                .expect("install");
        }
    });
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
