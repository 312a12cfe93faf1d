//! Fuse filters — the spatially-coupled refinement of xor filters that the
//! paper cites via *Binary Fuse Filters: Fast and Smaller Than Xor Filters*
//! (Graf & Lemire, 2022).
//!
//! **Construction fidelity note (recorded in DESIGN.md):** this module
//! implements the *fuse graph* construction (Dietzfelbinger & Walzer):
//! slots are divided into `w` consecutive segments, each key picks a random
//! window of three consecutive segments and one slot in each. This is the
//! construction binary fuse filters refine; it achieves the same asymptotic
//! ~1.13·n space (vs 1.23·n for xor) and identical query structure (three
//! probes, fingerprint xor), which is what experiment E12 compares.
//! Segments are sized by the binary-fuse paper's formulas (power-of-two
//! segment lengths, `layout`); its construction-time sorting affects
//! build speed, not the space/FPR trade-off reproduced here.

use crate::hash::{mix_seeded, reduce};
use crate::xor::{has_duplicates, peel};
use crate::{Filter, FilterError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serialization magic for fuse filters ("IRU3"), naming the key scheme
/// and the slot function; the epoch-sealed base tier ships over the wire
/// in this format.
const MAGIC: u32 = 0x4952_5533;
/// The retired magic of fuse filters over SHA-256-keyed ids ("IRSU").
const RETIRED_SHA_MAGIC: u32 = 0x4952_5355;
/// The retired magic of fuse filters whose third slot offset shared the
/// window start's top bits ("IRU2").
const RETIRED_SLOTS_MAGIC: u32 = 0x4952_5532;

/// Seeds tried per capacity level.
const SEEDS_PER_LEVEL: u64 = 8;
/// Capacity growth levels tried before giving up.
const MAX_LEVELS: u32 = 8;

/// The first level's `(segment_len, capacity)` for `n` keys: Graf &
/// Lemire's sizing for three-wise binary fuse graphs, `segment_len =
/// 2^⌊ln n / ln 3.33 + 2.25⌋` and `capacity = n · max(1.125, 0.875 +
/// 0.25 · ln 10⁶ / ln n)`. The segment count is `⌈capacity /
/// segment_len⌉`, at least the window's three.
fn layout(n: usize) -> (usize, usize) {
    let ln_n = (n.max(2) as f64).ln();
    let segment_len = 1usize << (ln_n / 3.33f64.ln() + 2.25).floor() as u32;
    let factor = f64::max(1.125, 0.875 + 0.25 * 1e6f64.ln() / ln_n);
    (segment_len, (n as f64 * factor).ceil() as usize)
}

macro_rules! fuse_filter {
    ($name:ident, $fp:ty, $fpbits:expr, $put:ident, $get:ident, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone, Debug)]
        pub struct $name {
            fingerprints: Vec<$fp>,
            segment_len: usize,
            segments: usize,
            seed: u64,
        }

        impl $name {
            /// Build the filter over a set of distinct keys. Retries with
            /// fresh seeds and, if necessary, grows capacity slightly; the
            /// chance of overall failure is negligible.
            pub fn build(keys: &[u64]) -> Result<Self, FilterError> {
                if has_duplicates(keys) {
                    return Err(FilterError::DuplicateKeys);
                }
                let (segment_len, mut capacity) = layout(keys.len());
                for _level in 0..MAX_LEVELS {
                    let segments = capacity.div_ceil(segment_len).max(3);
                    let n_slots = segment_len * segments;
                    for attempt in 0..SEEDS_PER_LEVEL {
                        let seed = attempt
                            .wrapping_mul(0x9e6c_63d0_876a_46bd)
                            .wrapping_add(capacity as u64);
                        let slots = |k: u64| Self::slots(k, seed, segment_len, segments);
                        if let Some(order) = peel(n_slots, keys, slots) {
                            let mut fingerprints = vec![0 as $fp; n_slots];
                            for &(key_idx, slot) in order.iter().rev() {
                                let k = keys[key_idx];
                                let trio = Self::slots(k, seed, segment_len, segments);
                                let mut f = Self::fingerprint(k, seed);
                                for s in trio {
                                    if s != slot {
                                        f ^= fingerprints[s];
                                    }
                                }
                                fingerprints[slot] = f;
                            }
                            return Ok($name {
                                fingerprints,
                                segment_len,
                                segments,
                                seed,
                            });
                        }
                    }
                    capacity = capacity + capacity / 10 + 8;
                }
                Err(FilterError::ConstructionFailed)
            }

            #[inline]
            fn slots(key: u64, seed: u64, segment_len: usize, segments: usize) -> [usize; 3] {
                let h = mix_seeded(key, seed);
                // Window of three consecutive segments; start ∈ [0, w−3].
                let start = if segments > 3 {
                    reduce(h, (segments - 2) as u64) as usize
                } else {
                    0
                };
                // Each offset is the top bits of a rotation of h: for
                // 2^s-slot segments, h's bits [55 − s, 55), [37 − s, 37)
                // and [19 − s, 19) — disjoint from each other and from the
                // start's top bits while s ≤ 18.
                let h1 = h.rotate_left(9);
                let h2 = h.rotate_left(27);
                let h3 = h.rotate_left(45);
                [
                    start * segment_len + reduce(h1, segment_len as u64) as usize,
                    (start + 1) * segment_len + reduce(h2, segment_len as u64) as usize,
                    (start + 2) * segment_len + reduce(h3, segment_len as u64) as usize,
                ]
            }

            #[inline]
            fn fingerprint(key: u64, seed: u64) -> $fp {
                (mix_seeded(key, seed ^ 0x1b87_3593_68df_5cab) & (<$fp>::MAX as u64)) as $fp
            }

            /// Bits per key for `n` keys stored.
            pub fn bits_per_key(&self, n: usize) -> f64 {
                (self.fingerprints.len() * $fpbits) as f64 / n.max(1) as f64
            }

            /// Number of segments in the layout.
            pub fn segments(&self) -> usize {
                self.segments
            }

            /// Serialize: magic, fingerprint width, seed, segment layout,
            /// fingerprint array. Ledgers ship the epoch-sealed base tier
            /// to proxies in this format.
            pub fn to_bytes(&self) -> Bytes {
                let mut buf = BytesMut::with_capacity(37 + self.fingerprints.len() * ($fpbits / 8));
                buf.put_u32(MAGIC);
                buf.put_u8($fpbits as u8);
                buf.put_u64(self.seed);
                buf.put_u64(self.segment_len as u64);
                buf.put_u64(self.segments as u64);
                buf.put_u64(self.fingerprints.len() as u64);
                for &f in &self.fingerprints {
                    buf.$put(f);
                }
                buf.freeze()
            }

            /// Deserialize a filter produced by `to_bytes`, rejecting
            /// structural corruption (bad magic, wrong fingerprint width,
            /// layout/length mismatch).
            pub fn from_bytes(mut data: Bytes) -> Result<Self, FilterError> {
                if data.remaining() < 37 {
                    return Err(FilterError::Malformed("fuse header truncated"));
                }
                match data.get_u32() {
                    MAGIC => {}
                    RETIRED_SHA_MAGIC => {
                        return Err(FilterError::Malformed("retired IRSU (SHA-256 key) fuse"))
                    }
                    RETIRED_SLOTS_MAGIC => {
                        return Err(FilterError::Malformed(
                            "retired IRU2 (correlated slots) fuse",
                        ))
                    }
                    _ => return Err(FilterError::Malformed("bad fuse magic")),
                }
                if data.get_u8() as usize != $fpbits {
                    return Err(FilterError::Malformed("fingerprint width mismatch"));
                }
                let seed = data.get_u64();
                let segment_len = data.get_u64() as usize;
                let segments = data.get_u64() as usize;
                let n_slots = data.get_u64() as usize;
                if segments < 3
                    || segment_len == 0
                    || segment_len.checked_mul(segments) != Some(n_slots)
                {
                    return Err(FilterError::Malformed("fuse layout mismatch"));
                }
                if data.remaining() != n_slots * ($fpbits / 8) {
                    return Err(FilterError::Malformed("fuse payload length mismatch"));
                }
                let mut fingerprints = Vec::with_capacity(n_slots);
                for _ in 0..n_slots {
                    fingerprints.push(data.$get());
                }
                Ok($name {
                    fingerprints,
                    segment_len,
                    segments,
                    seed,
                })
            }
        }

        impl Filter for $name {
            fn contains(&self, key: u64) -> bool {
                let trio = Self::slots(key, self.seed, self.segment_len, self.segments);
                let f = Self::fingerprint(key, self.seed);
                self.fingerprints[trio[0]] ^ self.fingerprints[trio[1]] ^ self.fingerprints[trio[2]]
                    == f
            }

            fn bits(&self) -> u64 {
                (self.fingerprints.len() * $fpbits) as u64
            }
        }
    };
}

fuse_filter!(
    Fuse8,
    u8,
    8,
    put_u8,
    get_u8,
    "Fuse filter with 8-bit fingerprints (FPR ≈ 1/256, approaching ~9 bits/key at scale)."
);
fuse_filter!(
    Fuse16,
    u16,
    16,
    put_u16,
    get_u16,
    "Fuse filter with 16-bit fingerprints (FPR ≈ 1/65536)."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> Vec<u64> {
        (0..n)
            .map(|i| crate::hash::mix64(i ^ 0x517c_c1b7_2722_0a95))
            .collect()
    }

    #[test]
    fn no_false_negatives_small_and_large() {
        for n in [0u64, 1, 10, 500, 5_000, 60_000] {
            let ks = keys(n);
            let f = Fuse8::build(&ks).unwrap_or_else(|e| panic!("build n={n}: {e}"));
            for &k in &ks {
                assert!(f.contains(k), "n={n} lost key");
            }
        }
    }

    #[test]
    fn fpr_close_to_fingerprint_rate() {
        let ks = keys(30_000);
        let f = Fuse8::build(&ks).unwrap();
        let trials = 200_000u64;
        let fp = (0..trials)
            .map(|i| crate::hash::mix64(i + 5_000_000))
            .filter(|&k| f.contains(k))
            .count() as f64;
        let rate = fp / trials as f64;
        assert!(rate < 0.008, "fuse8 fpr {rate}");
    }

    #[test]
    fn space_beats_xor_at_scale() {
        let ks = keys(200_000);
        let fuse = Fuse8::build(&ks).unwrap();
        let xor = crate::Xor8::build(&ks).unwrap();
        assert!(
            fuse.bits() < xor.bits(),
            "fuse {} bits vs xor {} bits",
            fuse.bits(),
            xor.bits()
        );
        let bpk = fuse.bits_per_key(ks.len());
        assert!(bpk < 9.6, "fuse bits/key {bpk}");
    }

    #[test]
    fn fuse16_false_positive_rarity() {
        let ks = keys(20_000);
        let f = Fuse16::build(&ks).unwrap();
        let fp = (0..200_000u64)
            .map(|i| crate::hash::mix64(i + 9_000_000))
            .filter(|&k| f.contains(k))
            .count();
        assert!(fp < 25, "fuse16 fp count {fp}");
    }

    #[test]
    fn serialization_roundtrip() {
        let ks = keys(10_000);
        let f = Fuse8::build(&ks).unwrap();
        let g = Fuse8::from_bytes(f.to_bytes()).unwrap();
        assert_eq!(f.bits(), g.bits());
        for &k in &ks {
            assert!(g.contains(k), "decoded filter lost a key");
        }
        let f16 = Fuse16::build(&ks[..1000]).unwrap();
        let g16 = Fuse16::from_bytes(f16.to_bytes()).unwrap();
        for &k in &ks[..1000] {
            assert!(g16.contains(k));
        }
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(Fuse8::from_bytes(bytes::Bytes::from_static(b"short")).is_err());
        let good = Fuse8::build(&keys(100)).unwrap().to_bytes().to_vec();
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(Fuse8::from_bytes(bytes::Bytes::from(bad_magic)).is_err());
        let mut trunc = good.clone();
        trunc.pop();
        assert!(Fuse8::from_bytes(bytes::Bytes::from(trunc)).is_err());
        // An 8-bit payload is not a 16-bit filter.
        assert!(Fuse16::from_bytes(bytes::Bytes::from(good)).is_err());
    }

    #[test]
    fn irsu_base_is_refused_not_misread() {
        let mut old = Fuse8::build(&keys(100)).unwrap().to_bytes().to_vec();
        old[..4].copy_from_slice(b"IRSU");
        assert_eq!(
            Fuse8::from_bytes(bytes::Bytes::from(old)).unwrap_err(),
            FilterError::Malformed("retired IRSU (SHA-256 key) fuse")
        );
    }

    #[test]
    fn duplicates_rejected() {
        let mut ks = keys(50);
        ks.push(ks[10]);
        assert!(matches!(Fuse8::build(&ks), Err(FilterError::DuplicateKeys)));
    }

    /// `layout(n)` is Graf & Lemire's sizing, pinned at sizes whose
    /// products are not within rounding of an integer.
    #[test]
    fn layout_follows_the_binary_fuse_formulas() {
        assert_eq!(layout(0), (4, 0));
        assert_eq!(layout(10), (16, 24));
        assert_eq!(layout(4_096), (512, 5_285));
        assert_eq!(layout(50_000), (2_048, 59_711));
        assert_eq!(layout(1_000_000), (8_192, 1_125_000));
        assert_eq!(layout(10_000_000), (32_768, 11_250_000));
    }

    /// At these sizes the first seed of the first level peels, so the
    /// filter is exactly the layout's `max(3, ⌈capacity / segment_len⌉)`
    /// segments.
    #[test]
    fn the_first_level_peels() {
        for n in [4_096usize, 100_000] {
            let f = Fuse8::build(&keys(n as u64)).unwrap();
            let (segment_len, capacity) = layout(n);
            assert_eq!(f.segment_len, segment_len, "n={n}");
            assert_eq!(f.segments, capacity.div_ceil(segment_len).max(3), "n={n}");
        }
    }

    /// Regression: the third offset was the top bits of `h.rotate_left(51)`,
    /// whose low bit at 2^14-slot segments is h's top bit — the window
    /// start's top bit — so a key's third slot was odd or even by where
    /// its window starts, and 2·10⁶-key filters stopped peeling at the
    /// first level. Each offset's low bit now agrees with the start's top
    /// bit for about half of the keys.
    #[test]
    fn fuse_offsets_do_not_follow_the_window() {
        let (segment_len, segments) = (1usize << 14, 130);
        let trials = 20_000;
        let mut agree = [0usize; 3];
        for &k in &keys(trials as u64) {
            let trio = Fuse8::slots(k, 7, segment_len, segments);
            let start = trio[0] / segment_len;
            let top = start >= 64;
            for (i, slot) in trio.iter().enumerate() {
                let offset = slot - (start + i) * segment_len;
                agree[i] += usize::from((offset & 1 == 1) == top);
            }
        }
        for (i, &a) in agree.iter().enumerate() {
            let share = a as f64 / trials as f64;
            assert!((0.45..0.55).contains(&share), "offset {i}: {share}");
        }
    }

    #[test]
    fn iru2_base_is_refused_not_misread() {
        let mut old = Fuse8::build(&keys(100)).unwrap().to_bytes().to_vec();
        old[..4].copy_from_slice(b"IRU2");
        assert_eq!(
            Fuse8::from_bytes(bytes::Bytes::from(old)).unwrap_err(),
            FilterError::Malformed("retired IRU2 (correlated slots) fuse")
        );
    }
}
