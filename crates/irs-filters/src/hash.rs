//! 64-bit mixing functions used by every filter in this crate.
//!
//! Filters key on `u64` values. A record id's key is itself
//! [`mix_seeded`]`(serial, ledger)` (`irs_core::RecordId::filter_key`):
//! ids are public, dense serials, so the key need only be distinct and
//! spread out, not one-way. Every filter still re-mixes its keys with a
//! per-filter seed so that (a) two filters built over the same key set
//! have independent false-positive sets and (b) static construction can
//! retry with a fresh seed on peel failure.

/// SplitMix64 finalizer — a full-avalanche 64→64 bit mixer (also the
/// draw behind the seeded fault schedules and retry jitter).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mix a key with a seed.
#[inline]
pub fn mix_seeded(key: u64, seed: u64) -> u64 {
    mix64(key ^ mix64(seed))
}

/// Map a 64-bit hash to `[0, n)` without modulo bias (Lemire's
/// multiply-shift reduction).
#[inline]
pub fn reduce(hash: u64, n: u64) -> u64 {
    ((hash as u128 * n as u128) >> 64) as u64
}

/// Derive `k` indices in `[0, m)` via Kirsch–Mitzenmacher double hashing.
#[inline]
pub fn double_hash_indices(key: u64, seed: u64, k: u32, m: u64) -> impl Iterator<Item = u64> {
    let h = mix_seeded(key, seed);
    let h1 = h;
    // Ensure h2 is odd so successive probes do not collapse.
    let h2 = mix64(h) | 1;
    (0..k).map(move |i| reduce(h1.wrapping_add((i as u64).wrapping_mul(h2)), m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Crude avalanche check: flipping one input bit flips ~half the
        // output bits on average.
        let mut total = 0u32;
        for bit in 0..64 {
            total += (mix64(0xdead_beef) ^ mix64(0xdead_beef ^ (1 << bit))).count_ones();
        }
        let avg = total as f64 / 64.0;
        assert!((20.0..44.0).contains(&avg), "avalanche avg {avg}");
    }

    #[test]
    fn reduce_stays_in_range() {
        for n in [1u64, 2, 3, 1000, u32::MAX as u64] {
            for h in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000] {
                assert!(reduce(h, n) < n);
            }
        }
    }

    #[test]
    fn reduce_is_roughly_uniform() {
        let n = 10u64;
        let mut counts = [0u64; 10];
        for i in 0..10_000u64 {
            counts[reduce(mix64(i), n) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn double_hash_produces_k_indices_in_range() {
        let idx: Vec<u64> = double_hash_indices(42, 7, 6, 1000).collect();
        assert_eq!(idx.len(), 6);
        assert!(idx.iter().all(|&i| i < 1000));
        // Different seeds give different index sets (overwhelmingly).
        let idx2: Vec<u64> = double_hash_indices(42, 8, 6, 1000).collect();
        assert_ne!(idx, idx2);
    }
}
