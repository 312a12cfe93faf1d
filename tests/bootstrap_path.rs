//! Integration of the bootstrap phase (§4): ledger filter publication →
//! proxy filter set (full + delta refresh) → browser validation through
//! the proxy, with the load and privacy properties the paper claims.

use irs::browser::{BrowserValidator, ValidationPlan};
use irs::filters::Publication;
use irs::ledger::{Ledger, LedgerConfig};
use irs::protocol::ids::LedgerId;
use irs::protocol::photo::LabelReading;
use irs::protocol::policy::{ValidationOutcome, ViewerPolicy};
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response};
use irs::protocol::{Camera, RevokeRequest, TimestampAuthority};
use irs::proxy::{LookupOutcome, ProxyConfig, SharedProxy};

/// One cadence tick in process: publish, then what a proxy holding
/// `(epoch, version)` is served.
fn publish_and_fetch(ledger: &Ledger, (epoch, version): (u64, u64)) -> Publication {
    ledger.publish_filter();
    ledger
        .tiered_snapshot()
        .serve(epoch, version)
        .expect("the publish moved the filter")
}

/// Claim `n` photos on the ledger; revoke those whose index is in
/// `revoke`. Returns (ids, keypairs).
fn populate(
    ledger: &Ledger,
    n: usize,
    revoke: impl Fn(usize) -> bool,
) -> Vec<(irs::protocol::ids::RecordId, irs::crypto::Keypair)> {
    let mut cam = Camera::new(7, 128, 128);
    let mut out = Vec::new();
    for i in 0..n {
        let shot = cam.capture(i as u64);
        let Response::Claimed { id, .. } =
            ledger.handle(Request::Claim(shot.claim), TimeMs(i as u64))
        else {
            panic!("claim failed");
        };
        if revoke(i) {
            let rv = RevokeRequest::create(&shot.keypair, id, true, 0);
            ledger.handle(Request::Revoke(rv), TimeMs(i as u64 + 1));
        }
        out.push((id, shot.keypair));
    }
    out
}

#[test]
fn filter_pipeline_full_then_delta_roundtrip() {
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(1),
    );
    let records = populate(&ledger, 50, |i| i % 10 == 0); // 5 revoked
    let proxy = SharedProxy::new(ProxyConfig::default());
    let held = || proxy.filters_snapshot().tiered_state(LedgerId(1));

    // Hour 1: full install.
    let first = publish_and_fetch(&ledger, held());
    assert!(matches!(first, Publication::Tiered { .. }), "got {first:?}");
    proxy
        .update_filters(|fs| fs.apply(LedgerId(1), first))
        .unwrap();
    assert_eq!(held(), (1, 1));

    // Revoked records hit the filter; unrevoked ones miss.
    for (i, (id, _)) in records.iter().enumerate() {
        let outcome = proxy.lookup(*id, TimeMs(1_000));
        if i % 10 == 0 {
            assert_eq!(
                outcome,
                LookupOutcome::NeedsLedgerQuery,
                "revoked record {i} must be checked"
            );
        }
        // (Unrevoked records may rarely false-positive; no assertion.)
    }

    // Hour 2: more revocations arrive; the delta carries them.
    for (i, (id, kp)) in records.iter().enumerate() {
        if i % 10 == 5 {
            let (_, epoch) = ledger.store().status(id).unwrap();
            let rv = RevokeRequest::create(kp, *id, true, epoch);
            ledger.handle(Request::Revoke(rv), TimeMs(2_000));
        }
    }
    let second = publish_and_fetch(&ledger, held());
    let Publication::Delta { data, .. } = &second else {
        panic!("expected delta, got {second:?}");
    };
    let full_bytes = ledger.tiered_snapshot().delta().to_bytes().len();
    assert!(
        data.len() < full_bytes / 4,
        "delta {} vs full {full_bytes} bytes",
        data.len(),
    );
    proxy
        .update_filters(|fs| fs.apply(LedgerId(1), second))
        .unwrap();
    assert_eq!(held(), (1, 2));
    // The newly revoked records now hit.
    for (i, (id, _)) in records.iter().enumerate() {
        if i % 10 == 5 {
            assert_eq!(
                proxy.lookup(*id, TimeMs(3_000)),
                LookupOutcome::NeedsLedgerQuery,
                "newly revoked record {i} must hit the refreshed filter"
            );
        }
    }
}

#[test]
fn browser_proxy_ledger_validation_chain() {
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(2),
    );
    let records = populate(&ledger, 30, |i| i == 3);
    let proxy = SharedProxy::new(ProxyConfig::default());
    proxy
        .update_filters(|fs| fs.apply(LedgerId(1), publish_and_fetch(&ledger, (0, 0))))
        .unwrap();

    let mut validator = BrowserValidator::new(ViewerPolicy::default(), 128, 60_000);
    let mut ledger_queries = 0u64;

    // Browse every photo once (well-labeled).
    for (id, _) in &records {
        let reading = LabelReading {
            metadata_id: Some(*id),
            watermark_id: Some(*id),
        };
        let outcome = match validator.plan(&reading, TimeMs(5_000)) {
            ValidationPlan::Local(o) => o,
            ValidationPlan::AskProxy(qid) => match proxy.lookup(qid, TimeMs(5_000)) {
                LookupOutcome::NotRevokedByFilter => ValidationOutcome::Valid(qid),
                LookupOutcome::Cached(st) => validator.complete(qid, st, TimeMs(5_000)),
                LookupOutcome::NeedsLedgerQuery => {
                    ledger_queries += 1;
                    let Response::Status { status, .. } =
                        ledger.handle(Request::Query { id: qid }, TimeMs(5_000))
                    else {
                        panic!("query failed");
                    };
                    proxy.complete(qid, status, TimeMs(5_000));
                    validator.complete(qid, status, TimeMs(5_000))
                }
            },
        };
        if *id == records[3].0 {
            assert_eq!(outcome, ValidationOutcome::Revoked(*id));
        } else {
            assert_eq!(outcome, ValidationOutcome::Valid(*id));
        }
    }
    // Load: only the revoked photo (plus rare false positives) reached
    // the ledger.
    assert!(
        ledger_queries <= 3,
        "{ledger_queries} ledger queries for 30 views"
    );
}

#[test]
fn in_browser_filter_cuts_proxy_traffic() {
    // §4.4's early-adoption variant: the browser itself holds the filter.
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(3),
    );
    let records = populate(&ledger, 40, |i| i == 0);
    let mut with_filter = BrowserValidator::new(ViewerPolicy::default(), 128, 60_000);
    with_filter
        .install_filter(LedgerId(1), publish_and_fetch(&ledger, (0, 0)))
        .unwrap();
    let mut without = BrowserValidator::new(ViewerPolicy::default(), 128, 60_000);

    for (id, _) in &records {
        let reading = LabelReading {
            metadata_id: Some(*id),
            watermark_id: Some(*id),
        };
        let _ = with_filter.plan(&reading, TimeMs(0));
        let _ = without.plan(&reading, TimeMs(0));
    }
    assert!(
        with_filter.stats.proxy_queries <= 2,
        "filtered browser sent {} queries",
        with_filter.stats.proxy_queries
    );
    assert_eq!(without.stats.proxy_queries, 40);
}

/// A browser holding `update` as `LedgerId(1)`'s filter.
fn browser_holding(update: Publication) -> BrowserValidator {
    let mut browser = BrowserValidator::new(ViewerPolicy::default(), 128, 60_000);
    browser.install_filter(LedgerId(1), update).unwrap();
    browser
}

fn labeled(id: irs::protocol::ids::RecordId) -> LabelReading {
    LabelReading {
        metadata_id: Some(id),
        watermark_id: Some(id),
    }
}

/// A filter speaks only for its own ledger: a revoked record of a ledger
/// whose filter the browser does not hold is asked of the proxy, however
/// the held filter answers its key.
#[test]
fn in_browser_filter_asks_for_a_ledger_it_does_not_cover() {
    let covered = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(4),
    );
    populate(&covered, 10, |i| i == 0);
    let other = Ledger::new(
        LedgerConfig::new(LedgerId(2)),
        TimestampAuthority::from_seed(5),
    );
    let (revoked, _) = populate(&other, 1, |_| true).remove(0);
    let mut browser = browser_holding(publish_and_fetch(&covered, (0, 0)));
    assert_eq!(
        browser.plan(&labeled(revoked), TimeMs(0)),
        ValidationPlan::AskProxy(revoked)
    );
}

/// A record sealed into a fuse base (the delta tier emptied by the seal)
/// still hits the in-browser filter and is asked of the proxy.
#[test]
fn in_browser_filter_holds_a_sealed_base() {
    let mut config = LedgerConfig::new(LedgerId(1));
    config.tiered = irs::filters::TieredConfig {
        delta_capacity: 64,
        delta_fpr: 1e-3,
        compact_at: 4,
    };
    let ledger = Ledger::new(config, TimestampAuthority::from_seed(6));
    let records = populate(&ledger, 8, |_| true);
    let mut browser = browser_holding(publish_and_fetch(&ledger, (0, 0)));
    assert_eq!(
        ledger.tiered_epoch(),
        2,
        "8 revocations past compact_at=4 seal"
    );
    for (id, _) in &records {
        assert_eq!(
            browser.plan(&labeled(*id), TimeMs(0)),
            ValidationPlan::AskProxy(*id)
        );
    }
}
