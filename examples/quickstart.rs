//! Quickstart: the four IRS operations in ~60 lines.
//!
//! claim → label → validate → revoke → validate again.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use irs::imaging::watermark::WatermarkConfig;
use irs::ledger::{Ledger, LedgerConfig};
use irs::protocol::ids::LedgerId;
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevocationStatus, RevokeRequest, TimestampAuthority};

fn main() {
    // The ecosystem: one ledger, one timestamp authority, one camera.
    let tsa = TimestampAuthority::from_seed(1);
    let ledger = Ledger::new(LedgerConfig::new(LedgerId(1)), tsa);
    let mut camera = Camera::new(42, 256, 256);

    // 1. CLAIM — the camera takes a photo, generates a per-photo keypair,
    //    signs the photo hash, and registers with the ledger. The ledger
    //    never sees the photo or the owner's identity.
    let mut shot = camera.capture(1_000);
    let Response::Claimed { id, timestamp } =
        ledger.handle(Request::Claim(shot.claim), TimeMs(1_000))
    else {
        panic!("claim failed");
    };
    println!("claimed photo as {id} (stamped at {})", timestamp.time);

    // 2. LABEL — the identifier goes into metadata AND a robust watermark.
    let wm = WatermarkConfig::default();
    shot.photo.label(id, &wm).expect("label");
    let reading = shot.photo.read_label(&wm);
    println!(
        "label readback: metadata={:?} watermark={:?}",
        reading.metadata_id, reading.watermark_id
    );

    // 3. VALIDATE — a viewer checks before displaying.
    let Response::Status { status, .. } = ledger.handle(Request::Query { id }, TimeMs(2_000))
    else {
        panic!("query failed");
    };
    println!("status before revocation: {status:?}");
    assert_eq!(status, RevocationStatus::NotRevoked);

    // 4. REVOKE — the owner changes their mind. Only the per-photo key
    //    can do this.
    let revoke = RevokeRequest::create(&shot.keypair, id, true, 0);
    ledger.handle(Request::Revoke(revoke), TimeMs(3_000));
    let Response::Status { status, .. } = ledger.handle(Request::Query { id }, TimeMs(4_000))
    else {
        panic!("query failed");
    };
    println!("status after revocation:  {status:?}");
    assert_eq!(status, RevocationStatus::Revoked);

    // A well-behaved viewer now refuses to display the photo.
    let policy = irs::protocol::policy::ViewerPolicy::default();
    let action = policy.display_action(irs::protocol::policy::ValidationOutcome::Revoked(id));
    println!("viewer action for the revoked photo: {action:?}");
}
