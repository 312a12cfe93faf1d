//! What the experiment rigs share.
//!
//! * The single-threaded proxy rigs (E4/E5/E13/E14) drive the proxy a
//!   server runs, built with `SharedProxy::with_shards(config, 1)`: one
//!   cache stripe is an exact LRU, so the recorded tables do not depend
//!   on the stripe count.
//! * The systems drills (E16, E18–E23) take their seed, id stream and
//!   preloaded ledger from here, and record every latency percentile
//!   into [`irs_simnet::Histogram`] — the exact nearest-rank histogram
//!   E1 and E14 use.
//! * The durability drills (E17, E20) drive one claim+revoke
//!   [`Workload`] against one ledger and count the acknowledged writes
//!   that survived.

use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};
use irs_filters::{BloomFilter, Publication};
use irs_ledger::{Ledger, LedgerConfig};
use irs_proxy::{LookupOutcome, SharedProxy};
use irs_workload::population::PhotoPopulation;

/// Install the population's revoked set on `proxy` the way §4.4 has it
/// arrive: one Bloom per ledger, probed for that ledger's records only.
/// `geometry` is the whole ecosystem's (empty) filter budget; each of the
/// population's `L` ledgers gets `m / L` of its bits with the same `k`
/// and seed, so the `L` filters together hold the paper's budget and
/// each answers at its FPR for the ledger's share of the revoked keys.
/// Every ledger of the population gets one, revoked keys or not — a miss
/// only counts for ledgers whose filter is held.
pub fn install_revoked_filter(
    proxy: &SharedProxy,
    geometry: BloomFilter,
    population: &PhotoPopulation,
) {
    let ledgers = usize::from(population.config().ledgers);
    let m_bits = geometry.m_bits().div_ceil(ledgers as u64);
    let share = BloomFilter::with_params(m_bits, geometry.k(), geometry.seed())
        .expect("a share of a valid geometry");
    let mut per_ledger = vec![share; ledgers];
    for meta in population.iter().filter(|m| m.revoked) {
        per_ledger[usize::from(meta.id.ledger.0)].insert(meta.id.filter_key());
    }
    proxy.update_filters(|fs| {
        for (ledger, filter) in (0u16..).zip(per_ledger) {
            fs.apply(LedgerId(ledger), Publication::full(1, filter.to_bytes()))
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

/// A drill's seed: `CHAOS_SEED` when it holds a `u64`, else `default`.
/// CI runs every gate on two seeds, so a gate's bars must hold for any
/// fault universe, id stream or placement, not one lucky draw.
pub fn chaos_seed(default: u64) -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// The seeded sampler the drills draw ids from (Knuth's MMIX LCG, top
/// bits). Lane `k` of a seed is driver thread `k`'s stream, decorrelated
/// from its neighbours'.
pub struct IdStream(u64);

impl IdStream {
    /// Lane `lane` of `seed`.
    pub fn new(seed: u64, lane: u64) -> IdStream {
        IdStream(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane + 1))
    }

    /// The next draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (self.0 >> 16) % n
    }
}

/// The ledger the load drills query: `records` claims on `LedgerId(1)`
/// at the dense serials `0..records`, every 50th revoked (the ~2 %
/// revoked density used elsewhere). Built from the count alone, so a
/// child process serving it (E19's `e19-server`) needs no other input.
pub fn preloaded_ledger(records: u64) -> Ledger {
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(0xE18),
    );
    let keypair = Keypair::from_seed(&[0xE8; 32]);
    for i in 0..records {
        let req = ClaimRequest::create(&keypair, &Digest::of(&i.to_le_bytes()));
        if i % 50 == 0 {
            ledger
                .claim_revoked(req, TimeMs(i))
                .expect("in-memory ledger cannot fail a claim");
        } else {
            ledger.handle(Request::Claim(req), TimeMs(i));
        }
    }
    ledger
}

/// The ledger the durability drills (E17, E20) write to.
pub(crate) const LEDGER: LedgerId = LedgerId(1);

/// The durability drills' ledger configuration.
pub(crate) fn ledger_config() -> LedgerConfig {
    LedgerConfig::new(LEDGER)
}

/// A precomputed claim+revoke workload (signing hoisted out of the
/// durability sweeps).
pub struct Workload {
    claims: Vec<ClaimRequest>,
    revokes: Vec<RevokeRequest>,
}

impl Workload {
    /// Precompute `claims` claims signed by the keypair of `key_seed`,
    /// plus a revoke of every even serial.
    pub fn new(key_seed: u8, claims: u64) -> Workload {
        let kp = Keypair::from_seed(&[key_seed; 32]);
        Workload {
            claims: (0..claims)
                .map(|i| ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes())))
                .collect(),
            revokes: (0..claims)
                .step_by(2)
                .map(|s| RevokeRequest::create(&kp, RecordId::new(LEDGER, s), true, 0))
                .collect(),
        }
    }

    /// Drive the ledger until done or the first storage failure — the
    /// crash or the kill. Returns the acknowledged (claim ids, revoked
    /// serials).
    pub(crate) fn run(&self, ledger: &Ledger) -> (Vec<RecordId>, Vec<u64>) {
        let mut claims = Vec::new();
        let mut revokes = Vec::new();
        for (i, req) in self.claims.iter().enumerate() {
            match ledger.claim_custodial(*req, TimeMs(i as u64)) {
                Ok((id, _)) => claims.push(id),
                Err(_) => return (claims, revokes),
            }
        }
        for rv in &self.revokes {
            match ledger.handle(Request::Revoke(*rv), TimeMs(100)) {
                Response::RevokeAck { .. } => revokes.push(rv.id.serial),
                _ => return (claims, revokes),
            }
        }
        (claims, revokes)
    }
}

/// Count how many of the acknowledged writes are visible on `ledger`
/// (claims answer, revokes answer revoked).
pub(crate) fn count_recovered(ledger: &Ledger, acked: &(Vec<RecordId>, Vec<u64>)) -> u64 {
    let mut recovered = 0;
    for id in &acked.0 {
        if matches!(
            ledger.handle(Request::Query { id: *id }, TimeMs(1_000)),
            Response::Status { .. }
        ) {
            recovered += 1;
        }
    }
    for &serial in &acked.1 {
        let id = RecordId::new(LEDGER, serial);
        if matches!(
            ledger.handle(Request::Query { id }, TimeMs(1_000)),
            Response::Status {
                status: RevocationStatus::Revoked,
                ..
            }
        ) {
            recovered += 1;
        }
    }
    recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preloaded_ledger_answers_every_serial_and_revokes_every_fiftieth() {
        let ledger = preloaded_ledger(120);
        for serial in 0..120 {
            let id = RecordId::new(LedgerId(1), serial);
            let Response::Status { status, .. } =
                ledger.handle(Request::Query { id }, TimeMs(1_000))
            else {
                panic!("serial {serial} not answered with a status");
            };
            let revoked = status == RevocationStatus::Revoked;
            assert_eq!(revoked, serial % 50 == 0, "serial {serial}: {status:?}");
        }
    }

    /// Any value set here is a seed some gate may see (tests share the
    /// process environment), and every gate holds for any seed.
    #[test]
    fn chaos_seed_falls_back_to_its_default() {
        let saved = std::env::var_os("CHAOS_SEED");
        std::env::remove_var("CHAOS_SEED");
        assert_eq!(chaos_seed(0xE16), 0xE16);
        std::env::set_var("CHAOS_SEED", "not-a-seed");
        assert_eq!(chaos_seed(0xE16), 0xE16);
        std::env::set_var("CHAOS_SEED", "13");
        assert_eq!(chaos_seed(0xE16), 13);
        match saved {
            Some(seed) => std::env::set_var("CHAOS_SEED", seed),
            None => std::env::remove_var("CHAOS_SEED"),
        }
    }
}
