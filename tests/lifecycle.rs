//! End-to-end lifecycle across the whole system: camera → ledger →
//! labeling → aggregator → browser validation → revocation → takedown.

use irs::aggregator::{Aggregator, AggregatorConfig, LedgerDirectory, LocalLedgers};
use irs::browser::{BrowserValidator, ValidationPlan};
use irs::imaging::watermark::WatermarkConfig;
use irs::ledger::{Ledger, LedgerConfig};
use irs::protocol::ids::LedgerId;
use irs::protocol::policy::{DisplayAction, ValidationOutcome, ViewerPolicy};
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, OwnerWallet, RevocationStatus, RevokeRequest, TimestampAuthority};

struct World {
    ledgers: LocalLedgers,
    aggregator: Aggregator,
    wallet: OwnerWallet,
    wm: WatermarkConfig,
}

fn world() -> World {
    let tsa = TimestampAuthority::from_seed(99);
    let mut ledgers = LocalLedgers::new();
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
    World {
        ledgers,
        aggregator: Aggregator::new(AggregatorConfig::default()),
        wallet: OwnerWallet::new(),
        wm: WatermarkConfig::default(),
    }
}

#[test]
fn full_lifecycle_share_revoke_unrevoke() {
    let mut w = world();

    // Capture and claim.
    let mut cam = Camera::new(1, 256, 256);
    let shot = cam.capture(0);
    let Response::Claimed { id, timestamp } = w
        .ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Claim(shot.claim), TimeMs(0))
    else {
        panic!("claim failed");
    };
    let mut labeled = shot.photo.clone();
    labeled.label(id, &w.wm).unwrap();
    w.wallet.store(shot, id, timestamp);

    // Upload to the aggregator (transcoding happens in real pipelines; the
    // watermark must survive it).
    let mut uploaded = labeled.clone();
    uploaded.image = irs::imaging::jpeg::transcode(&uploaded.image, 80);
    let (decision, key) = w.aggregator.upload(uploaded, &mut w.ledgers, TimeMs(1_000));
    assert!(
        decision.accepted(),
        "transcoded labeled upload: {decision:?}"
    );
    let key = key.unwrap();

    // A browser validates the served photo.
    let (served, _) = w.aggregator.serve(key).expect("served");
    let mut validator = BrowserValidator::new(ViewerPolicy::default(), 64, 60_000);
    let reading = served.read_label(&w.wm);
    let plan = validator.plan(&reading, TimeMs(2_000));
    let outcome = match plan {
        ValidationPlan::AskProxy(qid) => {
            let (status, _) = w.ledgers.query(qid, TimeMs(2_000)).expect("status");
            validator.complete(qid, status, TimeMs(2_000))
        }
        ValidationPlan::Local(outcome) => outcome,
    };
    assert_eq!(outcome, ValidationOutcome::Valid(id));
    assert_eq!(
        validator.policy.display_action(outcome),
        DisplayAction::Show
    );

    // Owner revokes (Goal #1: no per-copy chasing).
    let (_, epoch) = w.ledgers.query(id, TimeMs(3_000)).unwrap();
    let rv = w.wallet.revoke_request(&id, true, epoch).unwrap();
    w.ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Revoke(rv), TimeMs(3_000));

    // Browser cache expires → next validation blocks.
    let plan = validator.plan(&reading, TimeMs(100_000));
    let outcome = match plan {
        ValidationPlan::AskProxy(qid) => {
            let (status, _) = w.ledgers.query(qid, TimeMs(100_000)).expect("status");
            validator.complete(qid, status, TimeMs(100_000))
        }
        ValidationPlan::Local(o) => o,
    };
    assert_eq!(outcome, ValidationOutcome::Revoked(id));
    assert_eq!(
        validator.policy.display_action(outcome),
        DisplayAction::Placeholder
    );

    // Aggregator recheck takes it down; re-upload denied.
    let report = w
        .aggregator
        .recheck(&mut w.ledgers, TimeMs(1_000 + 3_600_000));
    assert_eq!(report.taken_down, 1);
    assert!(w.aggregator.serve(key).is_none());
    let (decision, _) = w
        .aggregator
        .upload(labeled.clone(), &mut w.ledgers, TimeMs(4_000_000));
    assert_eq!(decision, irs::protocol::UploadDecision::DeniedRevoked(id));

    // Unrevoke restores.
    let (_, epoch) = w.ledgers.query(id, TimeMs(4_100_000)).unwrap();
    let unrv = w.wallet.revoke_request(&id, false, epoch).unwrap();
    w.ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Revoke(unrv), TimeMs(4_100_000));
    let report = w
        .aggregator
        .recheck(&mut w.ledgers, TimeMs(1_000 + 2 * 3_600_000 + 1_000_000));
    assert_eq!(report.restored, 1);
    assert!(w.aggregator.serve(key).is_some());
}

#[test]
fn goal1_owner_never_reveals_identity_or_content() {
    // The ledger's stored record contains only the per-photo public key,
    // a signature, a timestamp, and a flag — no photo bytes, no photo
    // hash in the clear, no account identity.
    let w = world();
    let mut cam = Camera::new(2, 128, 128);
    let shot = cam.capture(0);
    let digest = shot.digest;
    let Response::Claimed { id, .. } = w
        .ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Claim(shot.claim), TimeMs(0))
    else {
        panic!("claim failed");
    };
    let record = w
        .ledgers
        .get(LedgerId(1))
        .unwrap()
        .store()
        .get(&id)
        .unwrap()
        .clone();
    // The stored signature does not reveal the digest: verifying requires
    // *knowing* the digest already.
    assert!(record.claim.request.proves_ownership_of(&digest));
    assert!(!record
        .claim
        .request
        .proves_ownership_of(&irs::crypto::Digest::of(b"guess")));
}

#[test]
fn two_photos_same_owner_unlinkable_at_ledger() {
    let w = world();
    let mut cam = Camera::new(3, 128, 128);
    let a = cam.capture(0);
    let b = cam.capture(1);
    let ledger = w.ledgers.get(LedgerId(1)).unwrap();
    let Response::Claimed { id: ida, .. } = ledger.handle(Request::Claim(a.claim), TimeMs(0))
    else {
        panic!()
    };
    let Response::Claimed { id: idb, .. } = ledger.handle(Request::Claim(b.claim), TimeMs(0))
    else {
        panic!()
    };
    let ra = ledger.store().get(&ida).unwrap();
    let rb = ledger.store().get(&idb).unwrap();
    assert_ne!(
        ra.claim.request.pubkey, rb.claim.request.pubkey,
        "per-photo keys: records carry no common owner identifier"
    );
}

#[test]
fn validation_before_save_and_share_apis() {
    // Goal #3 covers display, save, and reshare: the same outcome feeds
    // all three decisions.
    let mut w = world();
    let mut cam = Camera::new(4, 256, 256);
    let shot = cam.capture(0);
    let keypair = shot.keypair.clone();
    let Response::Claimed { id, .. } = w
        .ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Claim(shot.claim), TimeMs(0))
    else {
        panic!()
    };
    let rv = RevokeRequest::create(&keypair, id, true, 0);
    w.ledgers
        .get(LedgerId(1))
        .unwrap()
        .handle(Request::Revoke(rv), TimeMs(10));
    let (status, _) = w.ledgers.query(id, TimeMs(20)).unwrap();
    assert_eq!(status, RevocationStatus::Revoked);
    assert!(!status.allows_viewing());
    // Upload (= reshare) of a photo labeled with this id is denied.
    let mut photo = shot.photo.clone();
    photo.label(id, &w.wm).unwrap();
    let (decision, _) = w.aggregator.upload(photo, &mut w.ledgers, TimeMs(30));
    assert!(!decision.accepted());
}
