//! E23 — a sealed tier vs the Bloom-only proxy.
//!
//! The filter pipeline (DESIGN.md §16) holds, per ledger, a frozen fuse8
//! base sealed per epoch plus a small Bloom delta. Before the first seal
//! a tier is only its Bloom — the paper's per-ledger Bloom + merged OR.
//! This experiment quantifies what sealing buys at the proxy, both
//! states *through the same `FilterSet` lookup path*, not a micro-bench
//! of the raw filters (that is E12):
//!
//! * **memory** — total proxy-resident filter bytes
//!   ([`FilterSet::resident_filter_bytes`]). Bloom-only pays for each
//!   per-ledger Bloom *plus* the merged clone; a sealed tier pays one
//!   near-optimal fuse base plus two cache-resident delta Blooms.
//! * **lookup latency** — ns per [`FilterSet::might_be_revoked`] over a
//!   50/50 member/non-member mix, at matched service FPR (the Bloom is
//!   sized at 0.39% ≈ the fuse8 base's ≈1/256).
//! * **soundness under churn** — a publisher/refresh loop rolling epochs
//!   while reader threads hammer the swapped-in `FilterSet`: zero false
//!   negatives across compactions, ever.
//!
//! The CI gate (`--check`, seeds 7 and 13) holds the recorded results:
//! ≥20% memory cut and ≥1.5× lookup speedup at 10⁶ keys, zero false
//! negatives through concurrent epoch compaction.

use crate::rig::chaos_seed;
use crate::table::{f, Table};
use irs_core::ids::LedgerId;
use irs_filters::hash::mix64;
use irs_filters::{BloomFilter, Fuse8, PublishOutcome, TieredConfig, TieredPublisher};
use irs_proxy::{FilterSet, FilterUpdate};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Bloom FPR matched to the fuse8 base's ≈1/256 service FPR, so the two
/// pipelines answer lookups at the same quality.
const BLOOM_FPR: f64 = 0.0039;

const DEFAULT_SEED: u64 = 7;

struct Point {
    n: u64,
    bloom_bytes: u64,
    tiered_bytes: u64,
    bloom_ns: f64,
    tiered_ns: f64,
}

impl Point {
    fn memory_cut(&self) -> f64 {
        1.0 - self.tiered_bytes as f64 / self.bloom_bytes as f64
    }
    fn speedup(&self) -> f64 {
        self.bloom_ns / self.tiered_ns
    }
}

/// The unsealed proxy state: one ledger's whole revoked set in a Bloom
/// at matched FPR, merged clone included.
fn bloom_only_set(keys: &[u64]) -> FilterSet {
    let mut bloom = BloomFilter::for_capacity(keys.len() as u64, BLOOM_FPR).unwrap();
    for &k in keys {
        bloom.insert(k);
    }
    let mut fs = FilterSet::new();
    fs.apply(LedgerId(1), FilterUpdate::full(1, bloom.to_bytes()))
        .unwrap();
    fs
}

/// The sealed proxy state: a fuse8 base over the same keys plus
/// an empty delta tier (the steady state right after a compaction).
fn tiered_set(keys: &[u64]) -> FilterSet {
    let base = Fuse8::build(keys).unwrap();
    let delta = BloomFilter::for_capacity(TieredConfig::default().delta_capacity, 1e-3).unwrap();
    let mut fs = FilterSet::new();
    fs.apply(
        LedgerId(1),
        FilterUpdate::Tiered {
            epoch: 2,
            base: base.to_bytes(),
            delta_version: 0,
            delta: delta.to_bytes(),
        },
    )
    .unwrap();
    fs
}

/// ns per `might_be_revoked` over a 50/50 member/non-member mix:
/// one warmup pass (page-in the filter arrays), then best of three
/// timed passes, so a scheduler hiccup can't fail the gate.
fn lookup_ns(fs: &FilterSet, n: u64, trials: u64) -> f64 {
    let mut best = f64::INFINITY;
    for pass in 0..4 {
        let start = Instant::now();
        let mut hits = 0u64;
        for i in 0..trials {
            let key = if i % 2 == 0 {
                mix64((i / 2) % n)
            } else {
                mix64(u64::MAX / 2 + i)
            };
            if fs.might_be_revoked(LedgerId(1), key) == Some(true) {
                hits += 1;
            }
        }
        std::hint::black_box(hits);
        let ns = start.elapsed().as_nanos() as f64 / trials as f64;
        if pass > 0 {
            best = best.min(ns);
        }
    }
    best
}

fn measure_point(n: u64, trials: u64) -> Point {
    let keys: Vec<u64> = (0..n).map(mix64).collect();
    let bloom = bloom_only_set(&keys);
    let tiered = tiered_set(&keys);
    Point {
        n,
        bloom_bytes: bloom.resident_filter_bytes(),
        tiered_bytes: tiered.resident_filter_bytes(),
        bloom_ns: lookup_ns(&bloom, n, trials),
        tiered_ns: lookup_ns(&tiered, n, trials),
    }
}

struct DrillResult {
    publishes: u64,
    compactions: u64,
    probes: u64,
    false_negatives: u64,
}

/// Epoch-compaction soundness under concurrent queries: a writer drives
/// a [`TieredPublisher`] through the serve matrix into a swapped
/// `Arc<FilterSet>` (the `SharedProxy` pattern) while reader threads
/// probe every key already installed. Any `Some(false)` for an installed
/// key is a false negative.
fn soundness_drill(quick: bool, seed: u64) -> DrillResult {
    let total: u64 = if quick { 20_000 } else { 100_000 };
    let chunk: u64 = 500;
    let cfg = TieredConfig {
        delta_capacity: 2_048,
        delta_fpr: 1e-3,
        compact_at: 512,
    };
    let key = move |i: u64| mix64(i ^ (seed << 32));
    let mut publisher = TieredPublisher::new(cfg).unwrap();
    let shared: Arc<RwLock<Arc<FilterSet>>> = Arc::new(RwLock::new(Arc::new(FilterSet::new())));
    let visible = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..4u64)
        .map(|r| {
            let shared = Arc::clone(&shared);
            let visible = Arc::clone(&visible);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut probes = 0u64;
                let mut misses = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let upto = visible.load(Ordering::Acquire);
                    if upto == 0 {
                        std::hint::spin_loop();
                        continue;
                    }
                    let fs = shared.read().unwrap().clone();
                    for j in 0..256u64 {
                        let i = (j.wrapping_mul(0x9e37_79b9).wrapping_add(r)) % upto;
                        if fs.might_be_revoked(LedgerId(1), key(i)) == Some(false) {
                            misses += 1;
                        }
                        probes += 1;
                    }
                }
                (probes, misses)
            })
        })
        .collect();

    let mut revoked = std::collections::HashSet::new();
    let mut publishes = 0u64;
    let mut compactions = 0u64;
    for c in 0..(total / chunk) {
        for i in (c * chunk)..((c + 1) * chunk) {
            revoked.insert(key(i));
        }
        if matches!(
            publisher.publish(&revoked).unwrap(),
            PublishOutcome::Compacted(_)
        ) {
            compactions += 1;
        }
        publishes += 1;
        // Refresh exactly as the worker would: serve matrix against the
        // held state, applied to a private copy, swapped in whole.
        let snap = publisher.snapshot();
        let mut next = (**shared.read().unwrap()).clone();
        let (have_epoch, have_version) = next.tiered_state(LedgerId(1));
        if let Some(update) = FilterUpdate::from_serve(snap.serve(have_epoch, have_version)) {
            next.apply(LedgerId(1), update).unwrap();
        }
        *shared.write().unwrap() = Arc::new(next);
        visible.store((c + 1) * chunk, Ordering::Release);
    }
    stop.store(true, Ordering::Release);
    let (mut probes, mut false_negatives) = (0, 0);
    for h in readers {
        let (p, m) = h.join().unwrap();
        probes += p;
        false_negatives += m;
    }
    DrillResult {
        publishes,
        compactions,
        probes,
        false_negatives,
    }
}

/// Run E23.
pub fn run(quick: bool) -> String {
    let trials: u64 = if quick { 200_000 } else { 400_000 };
    let ns: &[u64] = if quick {
        &[1_000_000]
    } else {
        &[1_000_000, 10_000_000]
    };

    let mut table = Table::new(
        "E23 — tiered (fuse base + Bloom delta) vs Bloom-only proxy filters",
        &[
            "keys",
            "bloom-only bytes",
            "tiered bytes",
            "memory cut",
            "bloom-only lookup",
            "tiered lookup",
            "speedup",
        ],
    );
    let mut last: Option<Point> = None;
    for &n in ns {
        let p = measure_point(n, trials);
        table.row(vec![
            format!("{:.0e}", n as f64),
            format!("{:.2} MB", p.bloom_bytes as f64 / 1e6),
            format!("{:.2} MB", p.tiered_bytes as f64 / 1e6),
            format!("{:.0}%", p.memory_cut() * 100.0),
            format!("{} ns", f(p.bloom_ns, 0)),
            format!("{} ns", f(p.tiered_ns, 0)),
            format!("{}x", f(p.speedup(), 2)),
        ]);
        last = Some(p);
    }
    // 10⁸ keys (the paper's 1-billion-photo ecosystem, one shard of it)
    // is reported by linear projection from the largest measured point:
    // both pipelines' resident bytes are linear in n, and lookup cost is
    // flat once the filters outgrow cache.
    if let Some(p) = &last {
        let scale = 100_000_000.0 / p.n as f64;
        table.row(vec![
            "1e8*".to_string(),
            format!("{:.0} MB", p.bloom_bytes as f64 * scale / 1e6),
            format!("{:.0} MB", p.tiered_bytes as f64 * scale / 1e6),
            format!("{:.0}%", p.memory_cut() * 100.0),
            format!("~{} ns", f(p.bloom_ns, 0)),
            format!("~{} ns", f(p.tiered_ns, 0)),
            format!("{}x", f(p.speedup(), 2)),
        ]);
    }

    let d = soundness_drill(quick, chaos_seed(DEFAULT_SEED));
    table.note(
        "bytes are FilterSet::resident_filter_bytes() (bloom-only pays the per-ledger \
         Bloom plus the merged clone); lookups via might_be_revoked, 50/50 \
         member mix, matched ~0.39% service FPR; * = linear projection"
            .to_string(),
    );
    table.note(format!(
        "soundness drill: {} publishes, {} epoch compactions under 4 reader \
         threads, {} probes, {} false negatives",
        d.publishes, d.compactions, d.probes, d.false_negatives
    ));
    table.render()
}

/// CI gate (quick-run on seeds 7 and 13): at 10⁶ keys the tiered
/// pipeline must cut proxy-resident filter memory by ≥20% and speed up
/// lookups ≥1.5× vs the Bloom-only pipeline at matched FPR, and the
/// concurrent-compaction drill must observe zero false negatives.
pub fn check(quick: bool) -> Result<String, String> {
    let trials: u64 = if quick { 200_000 } else { 400_000 };
    let p = measure_point(1_000_000, trials);
    if p.memory_cut() < 0.20 {
        return Err(format!(
            "memory cut {:.0}% < 20% (bloom-only {} B, tiered {} B)",
            p.memory_cut() * 100.0,
            p.bloom_bytes,
            p.tiered_bytes
        ));
    }
    if p.speedup() < 1.5 {
        return Err(format!(
            "lookup speedup {:.2}x < 1.5x (bloom-only {:.0} ns, tiered {:.0} ns)",
            p.speedup(),
            p.bloom_ns,
            p.tiered_ns
        ));
    }
    let seed = chaos_seed(DEFAULT_SEED);
    let d = soundness_drill(quick, seed);
    if d.false_negatives != 0 {
        return Err(format!(
            "{} false negatives in {} probes across {} compactions (seed {seed})",
            d.false_negatives, d.probes, d.compactions
        ));
    }
    if d.compactions < 2 {
        return Err(format!(
            "drill under-churned: only {} compactions (seed {seed})",
            d.compactions
        ));
    }
    if d.probes == 0 {
        return Err("drill readers never probed".to_string());
    }
    Ok(format!(
        "e23 ok: memory cut {:.0}%, lookup speedup {:.2}x at 1e6 keys; \
         {} probes across {} compactions, zero false negatives (seed {seed})",
        p.memory_cut() * 100.0,
        p.speedup(),
        d.probes,
        d.compactions
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn soundness_drill_is_clean() {
        let d = super::soundness_drill(true, 5);
        assert_eq!(d.false_negatives, 0);
        assert!(d.compactions >= 2, "{} compactions", d.compactions);
        assert!(d.probes > 0);
    }
}
