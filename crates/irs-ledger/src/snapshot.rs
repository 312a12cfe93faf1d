//! Checksummed ledger snapshots.
//!
//! A snapshot is a point-in-time copy of the full record set (filters
//! are not stored: the next publish rebuilds them from the records), written
//! atomically (tmp + fsync + rename via
//! [`crate::disk::Disk::write_atomic`]) and guarded by a trailing CRC-32
//! over the entire body. It also records the WAL
//! `(generation, offset)` it was cut at, which is what lets recovery
//! replay exactly the log suffix the snapshot does not cover — and no
//! more — even if the crash landed between the snapshot commit and the
//! log truncation (see [`crate::wal::WalWriter::rotate_at`]).
//!
//! File layout:
//!
//! ```text
//! [magic "IRSSNAP2" (8)] [ledger id (2)]
//! [wal generation (8)] [wal offset (8)]
//! [record count (8)] [record]*
//! [crc32 over everything above (4)]
//! record := [serial u64] [origin u8] [status u8] [epoch u64]
//!           [ClaimRequest] [TimestampToken]
//! ```
//!
//! `IRSSNAP1` carried a monolithic counting-Bloom blob after the records
//! that nothing read; such a file is refused as
//! [`SnapshotError::UnsupportedVersion`], never parsed.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use irs_core::claim::{Claim, ClaimRequest, RevocationStatus};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::tsa::TimestampToken;
use irs_core::wire::Wire;

use crate::store::{ClaimOrigin, StoredClaim};
use crate::wal::crc32;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"IRSSNAP2";

/// Errors decoding a snapshot file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file fails structural validation or its checksum.
    Corrupt(&'static str),
    /// An intact file in the retired `IRSSNAP1` layout.
    UnsupportedVersion,
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::UnsupportedVersion => {
                write!(f, "snapshot is in the retired IRSSNAP1 format")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded snapshot: the state to seed recovery with.
#[derive(Debug)]
pub struct SnapshotData {
    /// Ledger the snapshot belongs to.
    pub ledger: LedgerId,
    /// WAL rotation generation at the cut point.
    pub wal_generation: u64,
    /// WAL byte offset at the cut point (replay resumes here when the
    /// generation still matches).
    pub wal_offset: u64,
    /// All records, in ascending serial order (serials may have holes
    /// after a recovery that dropped unacknowledged claims).
    pub records: Vec<StoredClaim>,
}

/// Encode a snapshot body. `records` must be in ascending serial order.
pub fn encode_snapshot(
    ledger: LedgerId,
    wal_generation: u64,
    wal_offset: u64,
    records: &[StoredClaim],
) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(64 + records.len() * 256);
    buf.put_slice(SNAPSHOT_MAGIC);
    buf.put_u16(ledger.0);
    buf.put_u64(wal_generation);
    buf.put_u64(wal_offset);
    buf.put_u64(records.len() as u64);
    for rec in records {
        // All fixed-size wire types: encoding cannot fail with BadValue.
        let fixed = "snapshot record fields are fixed-size and always encode";
        rec.claim.id.serial.encode(&mut buf).expect(fixed);
        buf.put_u8(match rec.origin {
            ClaimOrigin::Owner => 0,
            ClaimOrigin::Custodial => 1,
        });
        rec.claim.status.encode(&mut buf).expect(fixed);
        rec.claim.status_epoch.encode(&mut buf).expect(fixed);
        rec.claim.request.encode(&mut buf).expect(fixed);
        rec.claim.timestamp.encode(&mut buf).expect(fixed);
    }
    let crc = crc32(&buf);
    buf.put_u32(crc);
    buf.to_vec()
}

/// Decode and validate a snapshot. Any structural or checksum failure is
/// [`SnapshotError::Corrupt`] — there is no "partial" snapshot; the file
/// was written atomically, so damage means the media lied and the caller
/// must fail closed.
pub fn decode_snapshot(bytes: &[u8]) -> Result<SnapshotData, SnapshotError> {
    if bytes.len() < 8 + 2 + 8 + 8 + 8 + 4 {
        return Err(SnapshotError::Corrupt("file shorter than header"));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let stored_crc = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(body) != stored_crc {
        return Err(SnapshotError::Corrupt("checksum mismatch"));
    }
    let mut buf = Bytes::copy_from_slice(body);
    let mut magic = [0u8; 8];
    buf.copy_to_slice(&mut magic);
    if &magic == b"IRSSNAP1" {
        return Err(SnapshotError::UnsupportedVersion);
    }
    if &magic != SNAPSHOT_MAGIC {
        return Err(SnapshotError::Corrupt("bad magic"));
    }
    let ledger = LedgerId(buf.get_u16());
    let wal_generation = buf.get_u64();
    let wal_offset = buf.get_u64();
    let count = buf.get_u64();
    // Each record is at least 8+1+1+8 bytes; reject absurd counts before
    // allocating.
    if count > (buf.remaining() as u64) / 18 {
        return Err(SnapshotError::Corrupt("record count exceeds payload"));
    }
    let mut records = Vec::with_capacity(count as usize);
    let mut prev_serial: Option<u64> = None;
    for _ in 0..count {
        let serial = u64::decode(&mut buf).map_err(|_| SnapshotError::Corrupt("serial"))?;
        if let Some(p) = prev_serial {
            if serial <= p {
                return Err(SnapshotError::Corrupt("serials not ascending"));
            }
        }
        prev_serial = Some(serial);
        if !buf.has_remaining() {
            return Err(SnapshotError::Corrupt("origin"));
        }
        let origin = match buf.get_u8() {
            0 => ClaimOrigin::Owner,
            1 => ClaimOrigin::Custodial,
            _ => return Err(SnapshotError::Corrupt("origin tag")),
        };
        let status =
            RevocationStatus::decode(&mut buf).map_err(|_| SnapshotError::Corrupt("status"))?;
        let status_epoch =
            u64::decode(&mut buf).map_err(|_| SnapshotError::Corrupt("status epoch"))?;
        let request =
            ClaimRequest::decode(&mut buf).map_err(|_| SnapshotError::Corrupt("claim request"))?;
        let timestamp =
            TimestampToken::decode(&mut buf).map_err(|_| SnapshotError::Corrupt("timestamp"))?;
        records.push(StoredClaim {
            claim: Claim {
                id: RecordId::new(ledger, serial),
                request,
                timestamp,
                status,
                status_epoch,
            },
            origin,
        });
    }
    if buf.has_remaining() {
        return Err(SnapshotError::Corrupt("trailing bytes after records"));
    }
    Ok(SnapshotData {
        ledger,
        wal_generation,
        wal_offset,
        records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_crypto::{Digest, Keypair};

    fn sample() -> Vec<StoredClaim> {
        let tsa = TimestampAuthority::from_seed(1);
        [0u64, 1, 3, 7]
            .iter()
            .enumerate()
            .map(|(i, serial)| {
                let kp = Keypair::from_seed(&[i as u8 + 1; 32]);
                let request = ClaimRequest::create(&kp, &Digest::of(&[i as u8]));
                let (status, origin) = if i % 2 == 1 {
                    (RevocationStatus::Revoked, ClaimOrigin::Custodial)
                } else {
                    (RevocationStatus::NotRevoked, ClaimOrigin::Owner)
                };
                StoredClaim {
                    claim: Claim {
                        id: RecordId::new(LedgerId(5), *serial),
                        request,
                        timestamp: tsa.stamp(request.digest(), TimeMs(100 + i as u64)),
                        status,
                        status_epoch: i as u64,
                    },
                    origin,
                }
            })
            .collect()
    }

    #[test]
    fn roundtrip_including_serial_holes() {
        let records = sample();
        let bytes = encode_snapshot(LedgerId(5), 3, 4242, &records);
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.ledger, LedgerId(5));
        assert_eq!(snap.wal_generation, 3);
        assert_eq!(snap.wal_offset, 4242);
        assert_eq!(snap.records, records);
    }

    #[test]
    fn any_flipped_bit_is_rejected() {
        let bytes = encode_snapshot(LedgerId(5), 0, 22, &sample());
        // Sample bit positions across the file (exhaustive is slow in
        // debug builds; stride covers header, records, and crc).
        for pos in (0..bytes.len() * 8).step_by(41) {
            let mut bad = bytes.clone();
            bad[pos / 8] ^= 1 << (pos % 8);
            assert!(
                decode_snapshot(&bad).is_err(),
                "bit flip at {pos} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_rejected() {
        let bytes = encode_snapshot(LedgerId(5), 0, 22, &sample());
        for cut in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        // Extra payload under a valid checksum is still not a snapshot.
        let mut padded = bytes[..bytes.len() - 4].to_vec();
        padded.extend_from_slice(&[0; 9]);
        let crc = crc32(&padded);
        padded.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_snapshot(&padded).unwrap_err(),
            SnapshotError::Corrupt("trailing bytes after records")
        );
    }

    #[test]
    fn out_of_order_serials_rejected() {
        let mut records = sample();
        records.swap(1, 2);
        let bytes = encode_snapshot(LedgerId(5), 0, 0, &records);
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::Corrupt("serials not ascending"))
        ));
    }

    /// An intact file in the retired layout (records, then a
    /// length-prefixed filter blob, all under a valid CRC) is refused by
    /// name — its blob is never mistaken for anything.
    #[test]
    fn irssnap1_file_is_refused_not_misparsed() {
        let v2 = encode_snapshot(LedgerId(5), 0, 22, &sample());
        let mut v1 = v2[..v2.len() - 4].to_vec();
        v1[..8].copy_from_slice(b"IRSSNAP1");
        v1.extend_from_slice(&3u32.to_be_bytes());
        v1.extend_from_slice(&[0xAA; 3]);
        let crc = crc32(&v1);
        v1.extend_from_slice(&crc.to_be_bytes());
        assert_eq!(
            decode_snapshot(&v1).unwrap_err(),
            SnapshotError::UnsupportedVersion
        );
    }
}
