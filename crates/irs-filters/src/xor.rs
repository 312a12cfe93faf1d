//! Xor filters (Graf & Lemire, *Xor Filters: Faster and Smaller Than Bloom
//! and Cuckoo Filters*, cited by the paper as a "more recent advance" over
//! the standard Bloom filter).
//!
//! Static (build-once) filters: each key maps to three slots across three
//! equal blocks; construction peels the resulting 3-uniform hypergraph and
//! assigns fingerprints so that `fp[h0] ^ fp[h1] ^ fp[h2] == fingerprint(k)`
//! for every inserted key. ~9.84 bits/key at 8-bit fingerprints with an FPR
//! of 2⁻⁸ ≈ 0.39 %.
//!
//! In IRS these model a ledger's *published snapshot* format: a ledger with
//! a stable hourly claimed-set can publish an xor filter that is both
//! smaller and faster to query than the Bloom equivalent at matching FPR
//! (experiment E12).

use crate::hash::{mix_seeded, reduce};
use crate::{Filter, FilterError};

/// Maximum seeds tried before giving up on peeling.
const MAX_ATTEMPTS: u64 = 64;

/// Peel a 3-uniform hypergraph: returns, in peel order, `(key_index, slot)`
/// pairs such that assigning fingerprints in reverse order satisfies every
/// key. `None` if the graph has a 2-core.
pub(crate) fn peel(
    n_slots: usize,
    keys: &[u64],
    slots_of: impl Fn(u64) -> [usize; 3],
) -> Option<Vec<(usize, usize)>> {
    // Per-slot count and xor of incident key indices (index-xor trick: when
    // count reaches 1, the xor IS the remaining key index).
    let mut count = vec![0u32; n_slots];
    let mut kxor = vec![0usize; n_slots];
    for (i, &k) in keys.iter().enumerate() {
        for s in slots_of(k) {
            count[s] += 1;
            kxor[s] ^= i;
        }
    }
    let mut queue: Vec<usize> = (0..n_slots).filter(|&s| count[s] == 1).collect();
    let mut order: Vec<(usize, usize)> = Vec::with_capacity(keys.len());
    while let Some(slot) = queue.pop() {
        if count[slot] != 1 {
            continue;
        }
        let key_idx = kxor[slot];
        order.push((key_idx, slot));
        for s in slots_of(keys[key_idx]) {
            count[s] -= 1;
            kxor[s] ^= key_idx;
            if count[s] == 1 {
                queue.push(s);
            }
        }
    }
    if order.len() == keys.len() {
        Some(order)
    } else {
        None
    }
}

/// Check for duplicate keys (peeling cannot succeed with duplicates).
pub(crate) fn has_duplicates(keys: &[u64]) -> bool {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
}

macro_rules! xor_filter {
    ($name:ident, $fp:ty, $fpbits:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            fingerprints: Vec<$fp>,
            block: usize,
            seed: u64,
        }

        impl $name {
            /// Build the filter over a set of distinct keys.
            pub fn build(keys: &[u64]) -> Result<Self, FilterError> {
                if has_duplicates(keys) {
                    return Err(FilterError::DuplicateKeys);
                }
                let capacity = ((keys.len() as f64 * 1.23).ceil() as usize + 32).max(3);
                let block = capacity.div_ceil(3);
                let n_slots = block * 3;
                for attempt in 0..MAX_ATTEMPTS {
                    let seed = attempt.wrapping_mul(0xc2b2_ae3d_27d4_eb4f).wrapping_add(1);
                    let slots = |k: u64| Self::slots(k, seed, block);
                    if let Some(order) = peel(n_slots, keys, slots) {
                        let mut fingerprints = vec![0 as $fp; n_slots];
                        for &(key_idx, slot) in order.iter().rev() {
                            let k = keys[key_idx];
                            let [a, b, c] = Self::slots(k, seed, block);
                            let mut f = Self::fingerprint(k, seed);
                            for s in [a, b, c] {
                                if s != slot {
                                    f ^= fingerprints[s];
                                }
                            }
                            fingerprints[slot] = f;
                        }
                        return Ok($name {
                            fingerprints,
                            block,
                            seed,
                        });
                    }
                }
                Err(FilterError::ConstructionFailed)
            }

            #[inline]
            fn slots(key: u64, seed: u64, block: usize) -> [usize; 3] {
                let h = mix_seeded(key, seed);
                [
                    reduce(h, block as u64) as usize,
                    block + reduce(h.rotate_left(21), block as u64) as usize,
                    2 * block + reduce(h.rotate_left(42), block as u64) as usize,
                ]
            }

            #[inline]
            fn fingerprint(key: u64, seed: u64) -> $fp {
                (mix_seeded(key, seed ^ 0x5bf0_3635_d1a2_4f27) & (<$fp>::MAX as u64)) as $fp
            }

            /// Bits per key for `n` keys stored.
            pub fn bits_per_key(&self, n: usize) -> f64 {
                (self.fingerprints.len() * $fpbits) as f64 / n.max(1) as f64
            }
        }

        impl Filter for $name {
            fn contains(&self, key: u64) -> bool {
                let [a, b, c] = Self::slots(key, self.seed, self.block);
                let f = Self::fingerprint(key, self.seed);
                self.fingerprints[a] ^ self.fingerprints[b] ^ self.fingerprints[c] == f
            }

            fn bits(&self) -> u64 {
                (self.fingerprints.len() * $fpbits) as u64
            }
        }
    };
}

xor_filter!(
    Xor8,
    u8,
    8,
    "Xor filter with 8-bit fingerprints (FPR ≈ 1/256, ~9.84 bits/key)."
);
xor_filter!(
    Xor16,
    u16,
    16,
    "Xor filter with 16-bit fingerprints (FPR ≈ 1/65536, ~19.7 bits/key)."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n).map(crate::hash::mix64).collect()
    }

    #[test]
    fn no_false_negatives_xor8() {
        let ks = keys(10_000);
        let f = Xor8::build(&ks).unwrap();
        for &k in &ks {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn no_false_negatives_xor16() {
        let ks = keys(5_000);
        let f = Xor16::build(&ks).unwrap();
        for &k in &ks {
            assert!(f.contains(k));
        }
    }

    #[test]
    fn fpr_matches_fingerprint_width() {
        let ks = keys(20_000);
        let f8 = Xor8::build(&ks).unwrap();
        let trials = 200_000u64;
        let fp8 = (0..trials)
            .map(|i| crate::hash::mix64(i + 1_000_000))
            .filter(|&k| f8.contains(k))
            .count() as f64;
        let rate8 = fp8 / trials as f64;
        // Expect ≈ 1/256 ≈ 0.0039.
        assert!(rate8 < 0.008, "xor8 fpr {rate8}");
        assert!(rate8 > 0.001, "xor8 fpr suspiciously low {rate8}");

        let f16 = Xor16::build(&ks).unwrap();
        let fp16 = (0..trials)
            .map(|i| crate::hash::mix64(i + 1_000_000))
            .filter(|&k| f16.contains(k))
            .count();
        // Expect ≈ 1/65536 → about 3 hits in 200k.
        assert!(fp16 < 25, "xor16 false positives {fp16}");
    }

    #[test]
    fn bits_per_key_near_advertised() {
        let ks = keys(100_000);
        let f = Xor8::build(&ks).unwrap();
        let bpk = f.bits_per_key(ks.len());
        assert!((9.5..10.5).contains(&bpk), "bits/key {bpk}");
    }

    #[test]
    fn duplicates_rejected() {
        let mut ks = keys(100);
        ks.push(ks[0]);
        assert!(matches!(Xor8::build(&ks), Err(FilterError::DuplicateKeys)));
    }

    #[test]
    fn empty_and_tiny_sets() {
        let f = Xor8::build(&[]).unwrap();
        // An empty filter may have false positives at the fingerprint rate
        // (all-zero fingerprints match keys whose fingerprint is 0); just
        // check it was built and is queryable.
        let _ = f.contains(1);
        let one = Xor8::build(&[42]).unwrap();
        assert!(one.contains(42));
        let three = Xor16::build(&[1, 2, 3]).unwrap();
        for k in [1u64, 2, 3] {
            assert!(three.contains(k));
        }
    }

    #[test]
    fn peel_detects_unpeelable() {
        // Three keys all mapping to the same three slots form a 2-core.
        let keys = [10u64, 20, 30];
        let res = peel(9, &keys, |_| [0, 1, 2]);
        assert!(res.is_none());
    }

    #[test]
    fn peel_order_covers_all_keys() {
        let ks = keys(1000);
        let block = 500usize;
        let order = peel(block * 3, &ks, |k| {
            let h = mix_seeded(k, 99);
            [
                reduce(h, block as u64) as usize,
                block + reduce(h.rotate_left(21), block as u64) as usize,
                2 * block + reduce(h.rotate_left(42), block as u64) as usize,
            ]
        })
        .expect("peelable at 1.5× capacity");
        let mut seen: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
    }
}
