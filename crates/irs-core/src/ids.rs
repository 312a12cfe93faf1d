//! Record identifiers.
//!
//! §3.1: claiming "hands back a unique identifier that refers to both the
//! ledger and the specific photo". The identifier must fit in the watermark
//! payload, so it is exactly 96 bits: a 16-bit ledger tag, a 64-bit serial,
//! and a 16-bit checksum that catches corrupted labels before they turn
//! into spurious ledger queries.

use irs_imaging::watermark::PAYLOAD_BYTES;

/// Identifies a ledger within the IRS ecosystem.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LedgerId(pub u16);

impl std::fmt::Display for LedgerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ledger-{}", self.0)
    }
}

/// The 96-bit identifier of a claimed photo: (ledger, serial, checksum).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RecordId {
    /// The ledger holding the record.
    pub ledger: LedgerId,
    /// The ledger-local record serial number.
    pub serial: u64,
    /// CRC-16 over (ledger, serial); validated on parse.
    check: u16,
}

impl std::fmt::Debug for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RecordId({}:{})", self.ledger.0, self.serial)
    }
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "irs:{}:{}:{:04x}",
            self.ledger.0, self.serial, self.check
        )
    }
}

impl RecordId {
    /// Construct an identifier (checksum computed).
    pub fn new(ledger: LedgerId, serial: u64) -> RecordId {
        RecordId {
            ledger,
            serial,
            check: Self::checksum(ledger, serial),
        }
    }

    fn checksum(ledger: LedgerId, serial: u64) -> u16 {
        let mut data = [0u8; 10];
        data[..2].copy_from_slice(&ledger.0.to_be_bytes());
        data[2..].copy_from_slice(&serial.to_be_bytes());
        irs_imaging::ecc::crc16(&data)
    }

    /// Serialize to the 12-byte watermark payload.
    pub fn to_payload(&self) -> [u8; PAYLOAD_BYTES] {
        let mut out = [0u8; PAYLOAD_BYTES];
        out[..2].copy_from_slice(&self.ledger.0.to_be_bytes());
        out[2..10].copy_from_slice(&self.serial.to_be_bytes());
        out[10..].copy_from_slice(&self.check.to_be_bytes());
        out
    }

    /// Parse from a 12-byte payload; `None` if the checksum fails.
    pub fn from_payload(bytes: &[u8; PAYLOAD_BYTES]) -> Option<RecordId> {
        let ledger = LedgerId(u16::from_be_bytes(bytes[..2].try_into().expect("2 bytes")));
        let serial = u64::from_be_bytes(bytes[2..10].try_into().expect("8 bytes"));
        let check = u16::from_be_bytes(bytes[10..].try_into().expect("2 bytes"));
        if check != Self::checksum(ledger, serial) {
            return None;
        }
        Some(RecordId {
            ledger,
            serial,
            check,
        })
    }

    /// Parse the textual `irs:<ledger>:<serial>:<check>` form used in
    /// metadata fields; `None` on any syntactic or checksum failure.
    pub fn parse(s: &str) -> Option<RecordId> {
        let mut parts = s.split(':');
        if parts.next()? != "irs" {
            return None;
        }
        let ledger = LedgerId(parts.next()?.parse().ok()?);
        let serial: u64 = parts.next()?.parse().ok()?;
        let check = u16::from_str_radix(parts.next()?, 16).ok()?;
        if parts.next().is_some() || check != Self::checksum(ledger, serial) {
            return None;
        }
        Some(RecordId {
            ledger,
            serial,
            check,
        })
    }

    /// The 64-bit key every revocation filter and proxy cache stripe
    /// uses for this record: `serial` mixed with the ledger tag as seed.
    ///
    /// Not a digest. Ids are public, densely numbered serials, so a
    /// one-way hash would hide nothing, and each filter re-mixes the key
    /// with its own seed anyway; the key only has to be distinct and
    /// spread out. For one ledger the mix is a bijection on serials, so
    /// two records of a ledger never share a key. Changing this function
    /// changes every filter's encoding: bump the filter magics with it
    /// (DESIGN.md §16).
    #[inline]
    pub fn filter_key(&self) -> u64 {
        irs_filters::hash::mix_seeded(self.serial, u64::from(self.ledger.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn payload_roundtrip() {
        let id = RecordId::new(LedgerId(3), 9_876_543_210);
        let p = id.to_payload();
        assert_eq!(RecordId::from_payload(&p), Some(id));
    }

    #[test]
    fn corrupted_payload_rejected() {
        let id = RecordId::new(LedgerId(1), 42);
        let mut p = id.to_payload();
        p[5] ^= 0x01;
        assert_eq!(RecordId::from_payload(&p), None);
        let mut p2 = id.to_payload();
        p2[11] ^= 0x80; // corrupt the checksum itself
        assert_eq!(RecordId::from_payload(&p2), None);
    }

    #[test]
    fn text_roundtrip() {
        let id = RecordId::new(LedgerId(7), 123_456);
        let s = id.to_string();
        assert!(s.starts_with("irs:7:123456:"));
        assert_eq!(RecordId::parse(&s), Some(id));
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(RecordId::parse("not-an-id"), None);
        assert_eq!(RecordId::parse("irs:1:2"), None);
        assert_eq!(RecordId::parse("irs:1:2:ffff"), None); // bad checksum
        assert_eq!(RecordId::parse("irs:1:2:zzzz"), None);
        let id = RecordId::new(LedgerId(1), 2);
        let extra = format!("{id}:junk");
        assert_eq!(RecordId::parse(&extra), None);
    }

    #[test]
    fn filter_keys_differ() {
        let a = RecordId::new(LedgerId(1), 1).filter_key();
        let b = RecordId::new(LedgerId(1), 2).filter_key();
        let c = RecordId::new(LedgerId(2), 1).filter_key();
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Deterministic.
        assert_eq!(a, RecordId::new(LedgerId(1), 1).filter_key());
    }

    /// The key is a wire-visible format: every filter a ledger publishes
    /// is built over it. These literals change only with a reviewed key
    /// change, which must bump the filter magics too.
    #[test]
    fn filter_key_is_pinned() {
        let golden: [(u16, [u64; 4]); 3] = [
            (
                0,
                [
                    0xa706_dd2f_4d19_7e6f,
                    0x08b4_fda8_c892_b50e,
                    0xc908_3d06_7d0f_de2f,
                    0x2dd8_2c88_fa32_b270,
                ],
            ),
            (
                1,
                [
                    0x5e41_ab08_7439_611e,
                    0xe9fd_6049_d65a_f21e,
                    0x3cfb_bf17_fae2_d225,
                    0xa562_df66_c82c_649a,
                ],
            ),
            (
                u16::MAX,
                [
                    0x2495_1b6e_1d7a_141f,
                    0x6ff0_79e9_be06_c274,
                    0x4966_5da5_9f18_a963,
                    0x3684_eee4_3e7f_e5aa,
                ],
            ),
        ];
        for (ledger, keys) in golden {
            for (serial, key) in [0, 1, 1 << 40, u64::MAX].into_iter().zip(keys) {
                let id = RecordId::new(LedgerId(ledger), serial);
                assert_eq!(id.filter_key(), key, "{id:?}");
            }
        }
    }

    proptest! {
        /// Within a ledger the key is a bijection on serials: two records
        /// of one ledger never share a filter key.
        #[test]
        fn distinct_serials_get_distinct_keys(
            ledger in any::<u16>(),
            a in any::<u64>(),
            b in any::<u64>(),
        ) {
            prop_assume!(a != b);
            prop_assert_ne!(
                RecordId::new(LedgerId(ledger), a).filter_key(),
                RecordId::new(LedgerId(ledger), b).filter_key()
            );
        }
    }

    /// Filters keyed by real record ids keep their analytic false-positive
    /// rate: a Bloom filter at the paper's 8.59 bits/key and a fuse8 over
    /// 2^16 dense serials, probed with 10^5 non-member serials of the same
    /// ledger and of another one. Ledger 0 under filter seed 0 is the case
    /// where the key's mix and the filter's share an input constant.
    #[test]
    fn real_ids_keep_the_analytic_false_positive_rate() {
        use irs_filters::{analysis, BloomFilter, Filter, Fuse8};
        const MEMBERS: u64 = 1 << 16;
        const PROBES: u64 = 100_000;
        let m_bits = (MEMBERS as f64 * (1u64 << 33) as f64 / 1.0e9) as u64;
        let k = analysis::optimal_k(m_bits, MEMBERS);
        let bloom_rate = analysis::bloom_fpr(m_bits, MEMBERS, k);
        assert!(
            (bloom_rate - 0.0161).abs() < 0.0001,
            "analytic {bloom_rate}"
        );
        let within = |what: &str, hits: usize, analytic: f64| {
            let measured = hits as f64 / PROBES as f64;
            assert!(
                (0.8 * analytic..=1.25 * analytic).contains(&measured),
                "{what}: measured {measured}, analytic {analytic}"
            );
        };
        let key = |ledger: u16, serial: u64| RecordId::new(LedgerId(ledger), serial).filter_key();
        for (ledger, other, seed) in [(0, 1, 0), (1, 0, 0), (7, 8, 0x5eed), (u16::MAX, 0, 1)] {
            let members: Vec<u64> = (0..MEMBERS).map(|s| key(ledger, s)).collect();
            let mut bloom = BloomFilter::with_params(m_bits, k, seed).unwrap();
            members.iter().for_each(|&key| bloom.insert(key));
            let fuse = Fuse8::build(&members).unwrap();
            let same: Vec<u64> = (MEMBERS..MEMBERS + PROBES)
                .map(|s| key(ledger, s))
                .collect();
            let foreign: Vec<u64> = (0..PROBES).map(|s| key(other, s)).collect();
            for (probes, from) in [(&same, "same ledger"), (&foreign, "other ledger")] {
                let case = format!("ledger {ledger}, seed {seed}, {from}");
                let bloom_hits = probes.iter().filter(|&&key| bloom.contains(key)).count();
                within(&format!("bloom, {case}"), bloom_hits, bloom_rate);
                let fuse_hits = probes.iter().filter(|&&key| fuse.contains(key)).count();
                within(&format!("fuse8, {case}"), fuse_hits, 1.0 / 256.0);
            }
        }
    }

    #[test]
    fn ordering_is_by_ledger_then_serial() {
        let a = RecordId::new(LedgerId(1), 99);
        let b = RecordId::new(LedgerId(2), 1);
        assert!(a < b);
    }
}
