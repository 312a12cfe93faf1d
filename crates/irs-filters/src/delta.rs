//! Delta encoding for Bloom filter updates.
//!
//! §4.4: filters are "updated regularly (perhaps hourly), and transferred
//! with a delta encoding such that the update traffic will be low". A delta
//! is the sorted list of flipped bit positions, gap-compressed with LEB128
//! varints — a fresh claim sets at most `k` bits, so an hour of churn costs
//! ≈ `k · new_claims · ⌈log₂(gap)⌉/7` bytes instead of re-shipping the
//! whole filter (experiment E6 quantifies this).

use crate::bloom::BloomFilter;
use crate::FilterError;
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serialization magic, naming the key scheme like the Bloom filter's.
const MAGIC: u32 = 0x4952_4432; // "IRD2"
/// The retired magic of deltas between SHA-256-keyed filters.
const RETIRED_MAGIC: u32 = 0x4952_5344; // "IRSD"

/// A compact description of the bit flips between two Bloom filters of
/// identical geometry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomDelta {
    m: u64,
    k: u32,
    seed: u64,
    new_inserted: u64,
    /// Sorted positions of bits that differ.
    flipped: Vec<u64>,
}

impl BloomDelta {
    /// Compute the delta that transforms `old` into `new`.
    pub fn diff(old: &BloomFilter, new: &BloomFilter) -> Result<BloomDelta, FilterError> {
        if old.m_bits() != new.m_bits() || old.k() != new.k() || old.seed() != new.seed() {
            return Err(FilterError::BadParams("delta requires identical geometry"));
        }
        let mut flipped = Vec::new();
        for (word_idx, (a, b)) in old.words().iter().zip(new.words().iter()).enumerate() {
            let mut x = a ^ b;
            while x != 0 {
                let bit = x.trailing_zeros() as u64;
                flipped.push(word_idx as u64 * 64 + bit);
                x &= x - 1;
            }
        }
        Ok(BloomDelta {
            m: new.m_bits(),
            k: new.k(),
            seed: new.seed(),
            new_inserted: new.inserted(),
            flipped,
        })
    }

    /// Apply the delta to `filter` in place. The filter must match the
    /// delta's geometry and (by XOR semantics) must be the `old` snapshot
    /// the delta was computed from for the result to equal `new`.
    ///
    /// Atomic: every flip position is validated against `m` before any
    /// word is touched, so a rejected delta leaves `filter` bit-identical
    /// to its pre-apply state. Proxies apply deltas to their *live*
    /// filters; a half-patched filter would silently break the "definitely
    /// not revoked" soundness guarantee.
    pub fn apply(&self, filter: &mut BloomFilter) -> Result<(), FilterError> {
        if filter.m_bits() != self.m || filter.k() != self.k || filter.seed() != self.seed {
            return Err(FilterError::BadParams("delta geometry mismatch"));
        }
        if self.flipped.iter().any(|&pos| pos >= self.m) {
            return Err(FilterError::Malformed("flip position out of range"));
        }
        for &pos in &self.flipped {
            filter.words_mut()[(pos / 64) as usize] ^= 1u64 << (pos % 64);
        }
        filter.set_inserted(self.new_inserted);
        Ok(())
    }

    /// Number of flipped bits.
    pub fn flips(&self) -> usize {
        self.flipped.len()
    }

    /// Bit count of the geometry this delta applies to.
    pub fn m_bits(&self) -> u64 {
        self.m
    }

    /// Hash count of the geometry this delta applies to.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash seed of the geometry this delta applies to.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Encode: header + gap-compressed varint positions.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(44 + self.flipped.len() * 3);
        buf.put_u32(MAGIC);
        buf.put_u64(self.m);
        buf.put_u32(self.k);
        buf.put_u64(self.seed);
        buf.put_u64(self.new_inserted);
        buf.put_u64(self.flipped.len() as u64);
        let mut prev = 0u64;
        for &pos in &self.flipped {
            put_varint(&mut buf, pos - prev);
            prev = pos;
        }
        buf.freeze()
    }

    /// Decode from [`BloomDelta::to_bytes`] output.
    pub fn from_bytes(mut data: Bytes) -> Result<BloomDelta, FilterError> {
        if data.remaining() < 40 {
            return Err(FilterError::Malformed("delta header truncated"));
        }
        match data.get_u32() {
            MAGIC => {}
            RETIRED_MAGIC => {
                return Err(FilterError::Malformed("retired IRSD (SHA-256 key) delta"))
            }
            _ => return Err(FilterError::Malformed("bad delta magic")),
        }
        let m = data.get_u64();
        let k = data.get_u32();
        let seed = data.get_u64();
        let new_inserted = data.get_u64();
        let n = data.get_u64() as usize;
        if n > m as usize {
            return Err(FilterError::Malformed("flip count exceeds filter size"));
        }
        let mut flipped = Vec::with_capacity(n);
        let mut pos = 0u64;
        for i in 0..n {
            let gap = get_varint(&mut data).ok_or(FilterError::Malformed("varint truncated"))?;
            pos = pos
                .checked_add(gap)
                .ok_or(FilterError::Malformed("position overflow"))?;
            if i > 0 && gap == 0 {
                return Err(FilterError::Malformed("duplicate flip position"));
            }
            flipped.push(pos);
        }
        Ok(BloomDelta {
            m,
            k,
            seed,
            new_inserted,
            flipped,
        })
    }
}

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(data: &mut Bytes) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        if !data.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = data.get_u8();
        let payload = (byte & 0x7f) as u64;
        // The tenth byte lands at shift 63, where only one payload bit
        // still fits in a u64. Anything wider would be shifted out
        // silently, decoding a corrupted stream to a *wrong value*
        // instead of an error — reject it.
        if shift == 63 && payload > 1 {
            return None;
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filter_with(keys: impl Iterator<Item = u64>) -> BloomFilter {
        let mut f = BloomFilter::with_params(1 << 16, 6, 42).unwrap();
        for k in keys {
            f.insert(k);
        }
        f
    }

    #[test]
    fn diff_apply_roundtrip() {
        let old = filter_with(0..1000);
        let new = filter_with(0..1100);
        let delta = BloomDelta::diff(&old, &new).unwrap();
        let mut patched = old.clone();
        delta.apply(&mut patched).unwrap();
        assert_eq!(patched, new);
        assert_eq!(patched.inserted(), 1100);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let old = filter_with(0..500);
        let new = filter_with(0..620);
        let delta = BloomDelta::diff(&old, &new).unwrap();
        let decoded = BloomDelta::from_bytes(delta.to_bytes()).unwrap();
        assert_eq!(delta, decoded);
    }

    #[test]
    fn delta_is_much_smaller_than_full_filter() {
        let old = filter_with(0..100_000);
        let new = filter_with(0..100_500); // 0.5% churn
        let delta = BloomDelta::diff(&old, &new).unwrap();
        let full = new.to_bytes().len();
        let d = delta.to_bytes().len();
        assert!(
            d * 2 < full,
            "delta {d} bytes should be far below full {full} bytes"
        );
    }

    #[test]
    fn empty_delta() {
        let f = filter_with(0..100);
        let delta = BloomDelta::diff(&f, &f).unwrap();
        assert_eq!(delta.flips(), 0);
        let decoded = BloomDelta::from_bytes(delta.to_bytes()).unwrap();
        let mut g = f.clone();
        decoded.apply(&mut g).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let a = BloomFilter::with_params(1024, 4, 0).unwrap();
        let b = BloomFilter::with_params(2048, 4, 0).unwrap();
        assert!(BloomDelta::diff(&a, &b).is_err());
        let c = filter_with(0..10);
        let delta = BloomDelta::diff(&c, &c).unwrap();
        let mut wrong = BloomFilter::with_params(128, 2, 9).unwrap();
        assert!(delta.apply(&mut wrong).is_err());
    }

    #[test]
    fn malformed_encodings_rejected() {
        assert!(BloomDelta::from_bytes(Bytes::from_static(b"tiny")).is_err());
        let old = filter_with(0..10);
        let new = filter_with(0..20);
        let good = BloomDelta::diff(&old, &new).unwrap().to_bytes().to_vec();
        // Corrupt magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(BloomDelta::from_bytes(Bytes::from(bad)).is_err());
        // Truncate payload.
        let mut short = good.clone();
        short.truncate(good.len() - 1);
        assert!(BloomDelta::from_bytes(Bytes::from(short)).is_err());
    }

    #[test]
    fn irsd_delta_is_refused_not_misread() {
        let delta = BloomDelta::diff(&filter_with(0..10), &filter_with(0..20)).unwrap();
        let mut old = delta.to_bytes().to_vec();
        old[..4].copy_from_slice(b"IRSD");
        assert_eq!(
            BloomDelta::from_bytes(Bytes::from(old)),
            Err(FilterError::Malformed("retired IRSD (SHA-256 key) delta"))
        );
    }

    #[test]
    fn out_of_range_flip_rejected_on_apply() {
        let delta = BloomDelta {
            m: 64,
            k: 2,
            seed: 0,
            new_inserted: 1,
            flipped: vec![64],
        };
        let mut f = BloomFilter::with_params(64, 2, 0).unwrap();
        assert!(delta.apply(&mut f).is_err());
    }

    #[test]
    fn rejected_delta_leaves_filter_bit_identical() {
        // Regression: `apply` used to validate positions *while* flipping,
        // so a malformed delta returned an error but left the live filter
        // half-patched. The filter must be untouched after a rejection.
        let mut live = filter_with(0..1000);
        let pristine = live.clone();
        let delta = BloomDelta {
            m: live.m_bits(),
            k: live.k(),
            seed: live.seed(),
            new_inserted: 1001,
            // Valid positions first, so the old buggy code would have
            // flipped them before discovering the out-of-range one.
            flipped: vec![1, 2, 3, 4, 5, live.m_bits()],
        };
        assert!(matches!(
            delta.apply(&mut live),
            Err(FilterError::Malformed(_))
        ));
        assert_eq!(live, pristine, "rejected delta mutated the filter");
        assert_eq!(live.inserted(), pristine.inserted());
    }

    #[test]
    fn overlong_varint_rejected_not_truncated() {
        // Ten continuation bytes of 0x80|0x7f followed by a final byte
        // whose payload exceeds the single remaining bit: the old decoder
        // shifted the excess out and returned a wrong value.
        let mut bad = BytesMut::new();
        for _ in 0..9 {
            bad.put_u8(0xff);
        }
        bad.put_u8(0x02); // payload 2 at shift 63 — overflows u64
        assert_eq!(get_varint(&mut bad.freeze()), None);

        // The canonical u64::MAX encoding (final byte 0x01) still decodes.
        let mut max = BytesMut::new();
        put_varint(&mut max, u64::MAX);
        assert_eq!(get_varint(&mut max.freeze()), Some(u64::MAX));

        // An eleventh byte (continuation at shift 63) is also rejected.
        let mut eleven = BytesMut::new();
        for _ in 0..10 {
            eleven.put_u8(0x81);
        }
        eleven.put_u8(0x01);
        assert_eq!(get_varint(&mut eleven.freeze()), None);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = BytesMut::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut bytes = buf.freeze();
        for &v in &values {
            assert_eq!(get_varint(&mut bytes), Some(v));
        }
        assert!(!bytes.has_remaining());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// decode(encode(v)) is exact for every u64, including values that
        /// need the full ten bytes.
        #[test]
        fn varint_exact_roundtrip(v in any::<u64>()) {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut bytes = buf.freeze();
            prop_assert_eq!(get_varint(&mut bytes), Some(v));
            prop_assert!(!bytes.has_remaining());
        }

        /// Corrupting the final byte of a ten-byte encoding so its payload
        /// overflows u64 is rejected, never mis-decoded.
        #[test]
        fn varint_overflowing_tenth_byte_rejected(v in (1u64 << 63)..=u64::MAX, junk in 2u8..0x7f) {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut enc = buf.to_vec();
            prop_assume!(enc.len() == 10);
            *enc.last_mut().unwrap() = junk; // payload ≥ 2 at shift 63
            prop_assert_eq!(get_varint(&mut Bytes::from(enc)), None);
        }

        /// A rejected delta never mutates the target filter, for arbitrary
        /// key churn and an arbitrary out-of-range position.
        #[test]
        fn rejected_delta_is_a_no_op(
            keys in prop::collection::vec(any::<u64>(), 1..200),
            excess in 0u64..1000,
        ) {
            let mut live = BloomFilter::with_params(1 << 12, 5, 7).unwrap();
            for &k in &keys {
                live.insert(k);
            }
            let pristine = live.clone();
            let mut flipped: Vec<u64> = (0..keys.len() as u64 % 64).collect();
            flipped.push(live.m_bits() + excess);
            let delta = BloomDelta {
                m: live.m_bits(),
                k: live.k(),
                seed: live.seed(),
                new_inserted: live.inserted() + 1,
                flipped,
            };
            prop_assert!(delta.apply(&mut live).is_err());
            prop_assert_eq!(&live, &pristine);
        }

        /// diff → encode → decode → apply reproduces the new filter bit for
        /// bit under arbitrary insert churn.
        #[test]
        fn delta_pipeline_roundtrip(
            old_keys in prop::collection::vec(any::<u64>(), 0..300),
            new_keys in prop::collection::vec(any::<u64>(), 0..100),
        ) {
            let mut old = BloomFilter::with_params(1 << 13, 4, 3).unwrap();
            for &k in &old_keys {
                old.insert(k);
            }
            let mut new = old.clone();
            for &k in &new_keys {
                new.insert(k);
            }
            let delta = BloomDelta::diff(&old, &new).unwrap();
            let decoded = BloomDelta::from_bytes(delta.to_bytes()).unwrap();
            let mut patched = old.clone();
            decoded.apply(&mut patched).unwrap();
            prop_assert_eq!(&patched, &new);
        }
    }
}
