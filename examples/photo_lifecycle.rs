//! The full owner story across the eventual-solution ecosystem (§3.2):
//!
//! capture → claim → label → share to an aggregator → photo spreads →
//! owner revokes → periodic recheck takes it down → re-upload denied →
//! owner unrevokes → restored.
//!
//! ```sh
//! cargo run --example photo_lifecycle
//! ```

use irs::aggregator::{Aggregator, AggregatorConfig, LocalLedgers};
use irs::imaging::watermark::WatermarkConfig;
use irs::ledger::{Ledger, LedgerConfig};
use irs::protocol::ids::LedgerId;
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, OwnerWallet, RevokeRequest, TimestampAuthority};

fn main() {
    let tsa = TimestampAuthority::from_seed(7);
    let mut ledgers = LocalLedgers::new();
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
    let mut aggregator = Aggregator::new(AggregatorConfig::default());
    let wm = WatermarkConfig::default();

    // Day 0: capture and claim.
    let mut camera = Camera::new(3, 256, 256);
    let shot = camera.capture(0);
    let keypair = shot.keypair.clone();
    let Response::Claimed { id, timestamp } = ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Claim(shot.claim), TimeMs(0))
    else {
        panic!("claim failed");
    };
    let mut wallet = OwnerWallet::new();
    let mut labeled = shot.photo.clone();
    labeled.label(id, &wm).expect("label");
    wallet.store(shot, id, timestamp);
    println!("day 0: claimed {id} and labeled the photo");

    // Day 1: share to the aggregator — accepted (not revoked).
    let t1 = TimeMs(86_400_000);
    let (decision, key) = aggregator.upload(labeled.clone(), &mut ledgers, t1);
    println!("day 1: upload decision = {decision:?}");
    let key = key.expect("hosted");
    assert!(aggregator.serve(key).is_some(), "photo is being served");

    // Day 30: the owner revokes.
    let t30 = TimeMs(30 * 86_400_000);
    let (_, epoch) = ledgers.query_status(id);
    let rv = RevokeRequest::create(&keypair, id, true, epoch);
    ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Revoke(rv), t30);
    println!("day 30: owner revoked {id}");

    // The aggregator's next periodic recheck takes the photo down — no
    // need to track down every copy (Goal #1(ii)).
    let report = aggregator.recheck(&mut ledgers, TimeMs(31 * 86_400_000));
    println!(
        "day 31: recheck examined {} photos, took down {}",
        report.checked, report.taken_down
    );
    assert!(aggregator.serve(key).is_none(), "photo no longer served");

    // Re-uploading the same labeled photo is denied at the door.
    let (decision, _) = aggregator.upload(labeled.clone(), &mut ledgers, TimeMs(32 * 86_400_000));
    println!("day 32: re-upload decision = {decision:?}");
    assert!(!decision.accepted());

    // Day 60: the owner changes their mind again (unrevoke).
    let t60 = TimeMs(60 * 86_400_000);
    let (_, epoch) = ledgers.query_status(id);
    let unrv = RevokeRequest::create(&keypair, id, false, epoch);
    ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Revoke(unrv), t60);
    let report = aggregator.recheck(&mut ledgers, TimeMs(61 * 86_400_000));
    println!(
        "day 61: recheck restored {} photos; serving again: {}",
        report.restored,
        aggregator.serve(key).is_some()
    );
    assert!(aggregator.serve(key).is_some());
}

/// Small helper: query status+epoch through the directory.
trait QueryStatus {
    fn query_status(
        &mut self,
        id: irs::protocol::ids::RecordId,
    ) -> (irs::protocol::RevocationStatus, u64);
}

impl QueryStatus for LocalLedgers {
    fn query_status(
        &mut self,
        id: irs::protocol::ids::RecordId,
    ) -> (irs::protocol::RevocationStatus, u64) {
        use irs::aggregator::LedgerDirectory;
        self.query(id, TimeMs(0)).expect("record exists")
    }
}
