//! E12 — Bloom vs xor vs fuse filters.
//!
//! §4.4 points at "more recent advances" — xor filters \[15\] and binary
//! fuse filters \[16\] — as successors to the standard Bloom filter. We
//! compare space, construction time, query time, and measured FPR at a
//! fixed key population. The xor rows are the fuse construction's
//! one-window layout (`build_xor`: three equal segments at 1.23·n + 32
//! slots), the fuse rows its binary-fuse sizing.

use crate::table::{f, pct, Table};
use irs_filters::hash::mix64;
use irs_filters::{BloomFilter, Filter, Fuse16, Fuse8};
use std::time::Instant;

/// A filter built over a key set.
type Build = fn(&[u64]) -> Box<dyn Filter>;

fn bloom(keys: &[u64], fpr: f64) -> Box<dyn Filter> {
    let mut b = BloomFilter::for_capacity(keys.len() as u64, fpr).unwrap();
    keys.iter().for_each(|&k| b.insert(k));
    Box::new(b)
}

/// One table row: the filter `build` makes over `keys`, its bits/key,
/// build time, query time over a member/non-member mix, and FPR over
/// definite non-members.
fn row(name: &str, build: Build, keys: &[u64], trials: u64) -> Vec<String> {
    let start = Instant::now();
    let filter = build(keys);
    let build_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let mut hits = 0u64;
    for i in 0..trials {
        if filter.contains(mix64(i)) {
            hits += 1;
        }
    }
    std::hint::black_box(hits);
    let query_ns = start.elapsed().as_nanos() as f64 / trials as f64;
    let fp = (0..trials)
        .map(|i| mix64(u64::MAX / 2 + i))
        .filter(|&k| filter.contains(k))
        .count();
    vec![
        name.to_string(),
        f(filter.bits() as f64 / keys.len() as f64, 2),
        format!("{} ms", f(build_ms, 1)),
        format!("{} ns", f(query_ns, 0)),
        pct(fp as f64 / trials as f64),
    ]
}

/// Run E12.
pub fn run(quick: bool) -> String {
    let n: u64 = if quick { 100_000 } else { 1_000_000 };
    let trials: u64 = if quick { 100_000 } else { 400_000 };
    let keys: Vec<u64> = (0..n).map(mix64).collect();

    let mut table = Table::new(
        "E12 — membership filters over one key set",
        &["filter", "bits/key", "build", "query", "measured FPR"],
    );
    let filters: [(&str, Build); 6] = [
        // Bloom at 2% (the paper's ratio) and at xor-equivalent 0.39%.
        ("bloom (2%)", |k| bloom(k, 0.02)),
        ("bloom (0.39%)", |k| bloom(k, 0.0039)),
        // The static filters: both layouts of the fuse construction, per
        // fingerprint width.
        ("xor8", |k| Box::new(Fuse8::build_xor(k).unwrap())),
        ("fuse8", |k| Box::new(Fuse8::build(k).unwrap())),
        ("xor16", |k| Box::new(Fuse16::build_xor(k).unwrap())),
        ("fuse16", |k| Box::new(Fuse16::build(k).unwrap())),
    ];
    for (name, build) in filters {
        table.row(row(name, build, &keys, trials));
    }

    table.note(format!("n = {n} keys; query mix 50/50 members/non-members"));
    table.note(
        "shape check (Graf & Lemire): xor8 ≈ 9.84 bits/key < bloom@0.39% ≈ 11.5; \
         fuse8 < xor8; static filters trade away incremental insertion",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn xor_beats_bloom_at_matched_fpr() {
        let out = super::run(true);
        let get_bpk = |name: &str| -> f64 {
            let row = out
                .lines()
                .find(|l| l.trim_start().starts_with(name))
                .unwrap();
            row.split_whitespace()
                .nth(name.split_whitespace().count())
                .unwrap()
                .parse()
                .unwrap()
        };
        let bloom039 = get_bpk("bloom (0.39%)");
        let xor8 = get_bpk("xor8");
        let fuse8 = get_bpk("fuse8");
        assert!(xor8 < bloom039, "xor8 {xor8} vs bloom {bloom039}");
        assert!(fuse8 < xor8, "fuse8 {fuse8} vs xor8 {xor8}");
    }
}
