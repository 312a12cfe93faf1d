//! Criterion micro-benches for the aggregator ingest pipeline (E10): the
//! per-upload cost with IRS on vs the baseline workflow.

use criterion::{criterion_group, criterion_main, Criterion};
use irs_aggregator::{Aggregator, AggregatorConfig, LocalLedgers};
use irs_core::camera::Camera;
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_imaging::watermark::WatermarkConfig;
use irs_ledger::{Ledger, LedgerConfig};

fn setup() -> (LocalLedgers, irs_core::photo::PhotoFile) {
    let tsa = TimestampAuthority::from_seed(1);
    let mut ledgers = LocalLedgers::new();
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
    ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
    let mut cam = Camera::new(1, 256, 256);
    let shot = cam.capture(0);
    let ledger = ledgers.get(LedgerId(1)).unwrap();
    let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(0)) else {
        panic!("claim failed");
    };
    let mut photo = shot.photo;
    photo.label(id, &WatermarkConfig::default()).unwrap();
    (ledgers, photo)
}

fn bench_ingest(c: &mut Criterion) {
    let (mut ledgers, photo) = setup();
    c.bench_function("aggregator_upload_labeled", |b| {
        b.iter(|| {
            // Fresh aggregator per iteration so the derivative DB does not
            // grow across iterations.
            let mut agg = Aggregator::new(AggregatorConfig {
                derivative_check: false,
                ..AggregatorConfig::default()
            });
            agg.upload(photo.clone(), &mut ledgers, TimeMs(0))
        })
    });

    c.bench_function("aggregator_baseline_ingest", |b| {
        b.iter(|| {
            // The non-IRS workflow: decode pass + dedupe hash + store.
            let luma = photo.image.luma();
            let hash = irs_imaging::phash::dct_hash_256(&photo.image);
            (luma.len(), hash[0], photo.clone().image.width())
        })
    });

    let (mut ledgers2, _) = setup();
    let mut agg = Aggregator::new(AggregatorConfig::default());
    let (_, _key) = agg.upload(photo.clone(), &mut ledgers2, TimeMs(0));
    c.bench_function("aggregator_recheck_sweep_1photo", |b| {
        let mut t = 3_600_001u64;
        b.iter(|| {
            t += 3_600_001;
            agg.recheck(&mut ledgers2, TimeMs(t))
        })
    });
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
