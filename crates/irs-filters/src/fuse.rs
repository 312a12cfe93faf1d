//! Fuse filters — the spatially-coupled refinement of xor filters that the
//! paper cites via *Binary Fuse Filters: Fast and Smaller Than Xor Filters*
//! (Graf & Lemire, 2022) — and xor filters themselves (\[15\], *Xor
//! Filters: Faster and Smaller Than Bloom and Cuckoo Filters*), which are
//! the one-window layout of the same construction.
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
//! build speed, not the space/FPR trade-off reproduced here. An xor
//! filter is the layout with exactly three segments, so every key's
//! window is the whole filter (`build_xor`).

use crate::hash::{mix_seeded, reduce};
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

/// Peel a 3-uniform hypergraph: returns, in peel order, `(key_index, slot)`
/// pairs such that assigning fingerprints in reverse order satisfies every
/// key. `None` if the graph has a 2-core.
fn peel(
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
    (order.len() == keys.len()).then_some(order)
}

/// Check for duplicate keys (peeling cannot succeed with duplicates).
fn has_duplicates(keys: &[u64]) -> bool {
    let mut sorted = keys.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).any(|w| w[0] == w[1])
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
                let (segment_len, capacity) = layout(keys.len());
                Self::build_shaped(keys, capacity, |c| {
                    (segment_len, c.div_ceil(segment_len).max(3))
                })
            }

            /// Build the xor filter layout over a set of distinct keys:
            /// three segments of `⌈(⌈1.23·n⌉ + 32) / 3⌉` slots, so each
            /// key's window is the whole filter. A retry level lengthens
            /// the three segments.
            pub fn build_xor(keys: &[u64]) -> Result<Self, FilterError> {
                let capacity = (keys.len() as f64 * 1.23).ceil() as usize + 32;
                Self::build_shaped(keys, capacity, |c| (c.div_ceil(3), 3))
            }

            /// Peel at `capacity` slots laid out as `shape(capacity) =
            /// (segment_len, segments)`, growing `capacity` by ~10 % per
            /// level after `SEEDS_PER_LEVEL` failed seeds.
            fn build_shaped(
                keys: &[u64],
                mut capacity: usize,
                shape: impl Fn(usize) -> (usize, usize),
            ) -> Result<Self, FilterError> {
                if has_duplicates(keys) {
                    return Err(FilterError::DuplicateKeys);
                }
                for _level in 0..MAX_LEVELS {
                    let (segment_len, segments) = shape(capacity);
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

    type Build<F> = fn(&[u64]) -> Result<F, FilterError>;

    /// The two layouts of the one construction, per fingerprint width:
    /// Graf & Lemire's fuse sizing and the xor filter's three segments.
    const LAYOUTS8: [(&str, Build<Fuse8>); 2] = [("fuse", Fuse8::build), ("xor", Fuse8::build_xor)];
    const LAYOUTS16: [(&str, Build<Fuse16>); 2] =
        [("fuse", Fuse16::build), ("xor", Fuse16::build_xor)];

    fn holds_its_keys<F: Filter>(layout: &str, build: Build<F>) {
        for n in [0u64, 1, 3, 10, 500, 5_000, 10_000, 60_000] {
            let ks = keys(n);
            let f = build(&ks).unwrap_or_else(|e| panic!("{layout} build n={n}: {e}"));
            for &k in &ks {
                assert!(f.contains(k), "{layout} n={n} lost key");
            }
        }
    }

    /// False positives among 200 000 non-members of a 30 000-key filter.
    fn false_positives<F: Filter>(build: Build<F>) -> usize {
        let f = build(&keys(30_000)).unwrap();
        (0..200_000u64)
            .map(|i| crate::hash::mix64(i + 5_000_000))
            .filter(|&k| f.contains(k))
            .count()
    }

    #[test]
    fn no_false_negatives_small_and_large() {
        for (layout, build) in LAYOUTS8 {
            holds_its_keys(layout, build);
        }
        for (layout, build) in LAYOUTS16 {
            holds_its_keys(layout, build);
        }
    }

    #[test]
    fn fpr_close_to_fingerprint_rate() {
        for (layout, build) in LAYOUTS8 {
            // Expect ≈ 1/256 ≈ 0.0039.
            let rate = false_positives(build) as f64 / 200_000.0;
            assert!((0.001..0.008).contains(&rate), "{layout}8 fpr {rate}");
        }
        for (layout, build) in LAYOUTS16 {
            // Expect ≈ 1/65536 → about 3 hits in 200k.
            let fp = false_positives(build);
            assert!(fp < 25, "{layout}16 false positives {fp}");
        }
    }

    #[test]
    fn space_beats_xor_at_scale() {
        let ks = keys(200_000);
        let fuse = Fuse8::build(&ks).unwrap();
        let xor = Fuse8::build_xor(&ks).unwrap();
        assert!(
            fuse.bits() < xor.bits(),
            "fuse {} bits vs xor {} bits",
            fuse.bits(),
            xor.bits()
        );
        let bpk = fuse.bits() as f64 / ks.len() as f64;
        assert!(bpk < 9.6, "fuse bits/key {bpk}");
    }

    /// `Fuse8::build` and `Fuse16::build` — the sealed base tier — encode
    /// a fixed key set to these bytes: seeds, layout, slot function and
    /// fingerprints are part of the wire format.
    #[test]
    fn fuse_bytes_are_unchanged() {
        let ks: Vec<u64> = (0..64).map(crate::hash::mix64).collect();
        let hex = |b: Bytes| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        let fuse8 = concat!(
            "4952553308000000000000006e0000000000000020000000000000000400000000000000800000590000",
            "004b4500000000000000000000000000009d5aca940000000056002de431ec00c0000044ff066cb81514",
            "00bb000000a6c70000000000007100f100d0f9404745005810004ba4eb4a00cdf1ad000000ed00a70053",
            "bdb06212f500fd0003000000000000b60000d800e300ed1000003d00280000ca549abed98200ff",
        );
        let fuse16 = concat!(
            "4952553310000000000000006e0000000000000020000000000000000400000000000000800000000067",
            "590000000000000c4bfd4500000000000000000000000000000000000000000000000000000000f49d85",
            "5affcade94000000000000000044560000ab2d06e4c431b9eccd0044c000000000b84435ff8b06466cfe",
            "b8c415ac1400003fbb000000000000cea62cc7000000000000000000000000407100006af1000061d00a",
            "f9f140a447a0450000dd58d7100000fb4b4ba4b8eb384a000062cd5ef126ad000000000000d3ed0000a1",
            "a700007453bbbdb7b00c62d3127bf5000069fd00000e0300000000000000000000000074b600000000ce",
            "d8000057e3000029eddc1000000000553d0000ee280000000084cadd54789a74bef4d92a820000d7ff",
        );
        assert_eq!(hex(Fuse8::build(&ks).unwrap().to_bytes()), fuse8);
        assert_eq!(hex(Fuse16::build(&ks).unwrap().to_bytes()), fuse16);
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
    fn retired_bases_are_refused_not_misread() {
        for (magic, why) in [
            (b"IRSU", "retired IRSU (SHA-256 key) fuse"),
            (b"IRU2", "retired IRU2 (correlated slots) fuse"),
        ] {
            let mut old = Fuse8::build(&keys(100)).unwrap().to_bytes().to_vec();
            old[..4].copy_from_slice(magic);
            let refused = Fuse8::from_bytes(Bytes::from(old)).unwrap_err();
            assert_eq!(refused, FilterError::Malformed(why));
        }
    }

    #[test]
    fn duplicates_rejected() {
        let mut ks = keys(50);
        ks.push(ks[10]);
        for (layout, build) in LAYOUTS8 {
            assert!(
                matches!(build(&ks), Err(FilterError::DuplicateKeys)),
                "{layout}"
            );
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
        let order =
            peel(1500, &ks, |k| Fuse8::slots(k, 99, 500, 3)).expect("peelable at 1.5× capacity");
        let mut seen: Vec<usize> = order.iter().map(|&(i, _)| i).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
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
    /// segments, and the xor layout exactly three of `⌈(⌈1.23·n⌉ + 32) /
    /// 3⌉` slots: 9.84 bits/key at 10⁵ keys, as Graf & Lemire's xor8.
    #[test]
    fn the_first_level_peels() {
        for n in [4_096usize, 100_000] {
            let f = Fuse8::build(&keys(n as u64)).unwrap();
            let (segment_len, capacity) = layout(n);
            assert_eq!(f.segment_len, segment_len, "n={n}");
            assert_eq!(f.segments, capacity.div_ceil(segment_len).max(3), "n={n}");
            let x = Fuse8::build_xor(&keys(n as u64)).unwrap();
            let capacity = (n as f64 * 1.23).ceil() as usize + 32;
            assert_eq!(
                (x.segment_len, x.segments),
                (capacity.div_ceil(3), 3),
                "xor n={n}"
            );
        }
        let bpk = Fuse8::build_xor(&keys(100_000)).unwrap().bits() as f64 / 1e5;
        assert!((9.5..10.5).contains(&bpk), "xor bits/key {bpk}");
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
}
