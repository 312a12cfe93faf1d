//! The standard Bloom filter, as assumed by the paper's §4.4 sizing
//! argument.
//!
//! Ledgers export a filter of their revoked photo identifiers, and a
//! proxy consults the record's own ledger's filter before issuing a real
//! ledger query. The paper's proxies OR all ledger filters together;
//! [`BloomFilter::union_with`] computes that OR only to report the
//! false-positive rate it would answer at.

use crate::hash::double_hash_indices;
use crate::{Filter, FilterError};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Serialization magic for [`BloomFilter::to_bytes`]. An encoding names
/// its key scheme: filters over `RecordId::filter_key`'s seeded mix are
/// "IRB2".
const MAGIC: u32 = 0x4952_4232; // "IRB2"
/// The retired magic of filters keyed by a SHA-256 prefix of the record
/// id. Probing one with today's keys could miss a revoked record, so it
/// is refused by name.
const RETIRED_MAGIC: u32 = 0x4952_5342; // "IRSB"

/// A classic Bloom filter over `u64` keys.
///
/// ```
/// use irs_filters::{BloomFilter, Filter};
///
/// let mut filter = BloomFilter::for_capacity(1_000, 0.02).unwrap();
/// filter.insert(42);
/// assert!(filter.contains(42));          // no false negatives, ever
/// // A decoded filter keeps its geometry, so it ORs with a sibling:
/// let mut merged = BloomFilter::from_bytes(filter.to_bytes()).unwrap();
/// let other = BloomFilter::with_params(merged.m_bits(), merged.k(), merged.seed()).unwrap();
/// merged.union_with(&other).unwrap();
/// assert!(merged.contains(42));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: u64,
    k: u32,
    seed: u64,
    inserted: u64,
}

impl BloomFilter {
    /// Create a filter with an explicit number of bits and hash functions.
    pub fn with_params(m_bits: u64, k: u32, seed: u64) -> Result<BloomFilter, FilterError> {
        if m_bits == 0 {
            return Err(FilterError::BadParams("m_bits must be > 0"));
        }
        if k == 0 || k > 32 {
            return Err(FilterError::BadParams("k must be in 1..=32"));
        }
        let words = m_bits.div_ceil(64) as usize;
        Ok(BloomFilter {
            bits: vec![0u64; words],
            m: m_bits,
            k,
            seed,
            inserted: 0,
        })
    }

    /// Create a filter sized optimally for `capacity` keys at `target_fpr`.
    pub fn for_capacity(capacity: u64, target_fpr: f64) -> Result<BloomFilter, FilterError> {
        if !(1e-10..1.0).contains(&target_fpr) {
            return Err(FilterError::BadParams("target_fpr must be in (0, 1)"));
        }
        let capacity = capacity.max(1);
        let m = crate::analysis::bits_for(capacity, target_fpr).max(64);
        let k = crate::analysis::optimal_k_clamped(m, capacity);
        BloomFilter::with_params(m, k, 0)
    }

    /// Insert a key.
    pub fn insert(&mut self, key: u64) {
        for idx in double_hash_indices(key, self.seed, self.k, self.m) {
            self.bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
        }
        self.inserted += 1;
    }

    /// Number of `insert` calls so far (duplicates counted).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Number of bits in the filter.
    pub fn m_bits(&self) -> u64 {
        self.m
    }

    /// Number of hash functions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Hash seed (filters can only be unioned if seeds and geometry agree).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fraction of bits set; the analytic FPR is `fill_ratio^k`.
    pub fn fill_ratio(&self) -> f64 {
        let set: u64 = self.bits.iter().map(|w| w.count_ones() as u64).sum();
        set as f64 / self.m as f64
    }

    /// FPR estimated from the current fill ratio.
    pub fn estimated_fpr(&self) -> f64 {
        self.fill_ratio().powi(self.k as i32)
    }

    /// OR another filter into this one. Both filters must have identical
    /// geometry (m, k, seed). This is the paper's merge of per-ledger
    /// filters, kept to print the FPR that merge answers at
    /// (`examples/bootstrap_browsing.rs`); no proxy ORs filters.
    pub fn union_with(&mut self, other: &BloomFilter) -> Result<(), FilterError> {
        if self.m != other.m || self.k != other.k || self.seed != other.seed {
            return Err(FilterError::BadParams("union requires identical geometry"));
        }
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
        self.inserted += other.inserted;
        Ok(())
    }

    /// Raw bit words (used by the delta encoder).
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Mutable bit words (used by the delta applier).
    pub(crate) fn words_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }

    /// Set the insert counter (used when applying deltas, which carry the
    /// new counter value).
    pub(crate) fn set_inserted(&mut self, n: u64) {
        self.inserted = n;
    }

    /// `true` if no bit is set (an empty delta tier never needs probing).
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Serialize: magic, m, k, seed, inserted, bit words. This is the
    /// payload a ledger publishes hourly.
    pub fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(36 + self.bits.len() * 8);
        buf.put_u32(MAGIC);
        buf.put_u64(self.m);
        buf.put_u32(self.k);
        buf.put_u64(self.seed);
        buf.put_u64(self.inserted);
        for w in &self.bits {
            buf.put_u64(*w);
        }
        buf.freeze()
    }

    /// Deserialize a filter from [`BloomFilter::to_bytes`] output.
    pub fn from_bytes(mut data: Bytes) -> Result<BloomFilter, FilterError> {
        if data.remaining() < 32 {
            return Err(FilterError::Malformed("header truncated"));
        }
        match data.get_u32() {
            MAGIC => {}
            RETIRED_MAGIC => {
                return Err(FilterError::Malformed("retired IRSB (SHA-256 key) bloom"))
            }
            _ => return Err(FilterError::Malformed("bad magic")),
        }
        let m = data.get_u64();
        let k = data.get_u32();
        let seed = data.get_u64();
        let inserted = data.get_u64();
        let words = m.div_ceil(64) as usize;
        if data.remaining() != words * 8 {
            return Err(FilterError::Malformed("payload length mismatch"));
        }
        let mut filter = BloomFilter::with_params(m, k, seed)?;
        for w in filter.bits.iter_mut() {
            *w = data.get_u64();
        }
        filter.inserted = inserted;
        Ok(filter)
    }
}

impl Filter for BloomFilter {
    fn contains(&self, key: u64) -> bool {
        double_hash_indices(key, self.seed, self.k, self.m)
            .all(|idx| self.bits[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0)
    }

    fn bits(&self) -> u64 {
        self.m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut f = BloomFilter::for_capacity(1000, 0.01).unwrap();
        for key in 0..1000u64 {
            f.insert(key.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        for key in 0..1000u64 {
            assert!(f.contains(key.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        }
    }

    #[test]
    fn fpr_close_to_target() {
        let n = 20_000u64;
        let target = 0.02;
        let mut f = BloomFilter::for_capacity(n, target).unwrap();
        for key in 0..n {
            f.insert(key);
        }
        let mut fp = 0u64;
        let trials = 100_000u64;
        for key in n..n + trials {
            if f.contains(key) {
                fp += 1;
            }
        }
        let measured = fp as f64 / trials as f64;
        assert!(
            measured < target * 1.6,
            "measured {measured} vs target {target}"
        );
        assert!(measured > target * 0.4, "suspiciously low fpr {measured}");
    }

    #[test]
    fn estimated_fpr_tracks_fill() {
        let mut f = BloomFilter::with_params(1 << 14, 6, 1).unwrap();
        assert_eq!(f.estimated_fpr(), 0.0);
        for key in 0..1500u64 {
            f.insert(key);
        }
        let est = f.estimated_fpr();
        let analytic = crate::analysis::bloom_fpr(1 << 14, 1500, 6);
        assert!(
            (est - analytic).abs() < analytic * 0.5,
            "{est} vs {analytic}"
        );
    }

    #[test]
    fn union_behaves_like_combined_inserts() {
        let mut a = BloomFilter::with_params(4096, 5, 7).unwrap();
        let mut b = BloomFilter::with_params(4096, 5, 7).unwrap();
        for key in 0..100u64 {
            a.insert(key);
        }
        for key in 100..200u64 {
            b.insert(key);
        }
        a.union_with(&b).unwrap();
        for key in 0..200u64 {
            assert!(a.contains(key));
        }
        assert_eq!(a.inserted(), 200);
    }

    #[test]
    fn union_rejects_mismatched_geometry() {
        let mut a = BloomFilter::with_params(4096, 5, 7).unwrap();
        let b = BloomFilter::with_params(4096, 6, 7).unwrap();
        let c = BloomFilter::with_params(8192, 5, 7).unwrap();
        let d = BloomFilter::with_params(4096, 5, 8).unwrap();
        assert!(a.union_with(&b).is_err());
        assert!(a.union_with(&c).is_err());
        assert!(a.union_with(&d).is_err());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::with_params(1 << 12, 4, 99).unwrap();
        for key in 0..500u64 {
            f.insert(key * 3);
        }
        let bytes = f.to_bytes();
        let g = BloomFilter::from_bytes(bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn deserialization_rejects_garbage() {
        assert!(BloomFilter::from_bytes(Bytes::from_static(b"short")).is_err());
        let mut good = BloomFilter::with_params(128, 2, 0)
            .unwrap()
            .to_bytes()
            .to_vec();
        good[0] ^= 0xff; // corrupt magic
        assert!(BloomFilter::from_bytes(Bytes::from(good)).is_err());
        let mut trunc = BloomFilter::with_params(128, 2, 0)
            .unwrap()
            .to_bytes()
            .to_vec();
        trunc.pop();
        assert!(BloomFilter::from_bytes(Bytes::from(trunc)).is_err());
    }

    /// A filter in the retired SHA-256-keyed encoding is refused, never
    /// probed with keys it was not built over.
    #[test]
    fn irsb_filter_is_refused_not_misread() {
        let mut f = BloomFilter::with_params(1 << 10, 4, 7).unwrap();
        f.insert(42);
        let mut old = f.to_bytes().to_vec();
        old[..4].copy_from_slice(b"IRSB");
        assert_eq!(
            BloomFilter::from_bytes(Bytes::from(old)),
            Err(FilterError::Malformed("retired IRSB (SHA-256 key) bloom"))
        );
    }

    #[test]
    fn bad_params_rejected() {
        assert!(BloomFilter::with_params(0, 3, 0).is_err());
        assert!(BloomFilter::with_params(100, 0, 0).is_err());
        assert!(BloomFilter::with_params(100, 33, 0).is_err());
        assert!(BloomFilter::for_capacity(100, 0.0).is_err());
        assert!(BloomFilter::for_capacity(100, 1.0).is_err());
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::with_params(1 << 16, 6, 3).unwrap();
        let hits = (0..10_000u64).filter(|&k| f.contains(k)).count();
        assert_eq!(hits, 0);
    }
}
