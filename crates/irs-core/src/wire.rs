//! Wire codec and the ledger protocol message set.
//!
//! A compact, explicitly versioned binary encoding over
//! [`bytes::{Buf, BufMut}`], in the style the Tokio framing guide teaches
//! (length-delimited frames are added by the transport in `irs-net`; this
//! module defines the frame *payloads*). Both the discrete-event simulation
//! and the real TCP prototype speak exactly these messages, so measured
//! byte counts (experiment E6) are the same in both.
//!
//! Encoding is fallible: a value that cannot be represented on the wire
//! (today, a string longer than a `u16` length prefix can carry) is
//! rejected with [`WireError::BadValue`] instead of being silently
//! mangled — a truncated error message that decodes cleanly is worse
//! than an encode-time error, because nobody ever notices it.

use crate::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use crate::freshness::FreshnessProof;
use crate::ids::{LedgerId, RecordId};
use crate::time::TimeMs;
use crate::tsa::TimestampToken;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use irs_crypto::{Digest, PublicKey, Signature};
use irs_filters::Publication;

/// Protocol version carried in every frame.
pub const PROTOCOL_VERSION: u8 = 1;

/// Wire codec errors (encode and decode).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Not enough bytes.
    Truncated,
    /// Unknown message or enum tag.
    BadTag(u8),
    /// Semantically invalid field (failed checksum, over-long string, …).
    BadValue(&'static str),
    /// Frame declared an unsupported protocol version.
    BadVersion(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadTag(t) => write!(f, "unknown tag {t}"),
            WireError::BadValue(what) => write!(f, "invalid field: {what}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Binary encode/decode. Decoding consumes from the front of the buffer.
pub trait Wire: Sized {
    /// Append the encoding of `self` to `buf`. Fails (leaving `buf` in an
    /// unspecified, partially written state) when the value cannot be
    /// represented on the wire; callers that buffer per-message should
    /// use [`Wire::to_bytes`], which never hands out a partial encoding.
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError>;
    /// Decode a value, consuming bytes from `buf`.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Convenience: encode to a fresh buffer.
    fn to_bytes(&self) -> Result<Bytes, WireError> {
        let mut buf = BytesMut::new();
        self.encode(&mut buf)?;
        Ok(buf.freeze())
    }

    /// Convenience: decode, requiring the buffer be fully consumed.
    fn from_bytes(mut data: Bytes) -> Result<Self, WireError> {
        let v = Self::decode(&mut data)?;
        if data.has_remaining() {
            return Err(WireError::BadValue("trailing bytes"));
        }
        Ok(v)
    }
}

fn need(buf: &Bytes, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated)
    } else {
        Ok(())
    }
}

fn get_array<const N: usize>(buf: &mut Bytes) -> Result<[u8; N], WireError> {
    need(buf, N)?;
    let mut out = [0u8; N];
    buf.copy_to_slice(&mut out);
    Ok(out)
}

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u64(*self);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 8)?;
        Ok(buf.get_u64())
    }
}

impl Wire for TimeMs {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u64(self.0);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TimeMs(u64::decode(buf)?))
    }
}

impl Wire for Digest {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_slice(&self.0);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Digest(get_array(buf)?))
    }
}

impl Wire for PublicKey {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_slice(&self.0);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(PublicKey(get_array(buf)?))
    }
}

impl Wire for Signature {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_slice(&self.0);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(Signature(get_array(buf)?))
    }
}

impl Wire for RecordId {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_slice(&self.to_payload());
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let payload = get_array(buf)?;
        RecordId::from_payload(&payload).ok_or(WireError::BadValue("record id checksum"))
    }
}

impl Wire for RevocationStatus {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u8(match self {
            RevocationStatus::NotRevoked => 0,
            RevocationStatus::Revoked => 1,
            RevocationStatus::PermanentlyRevoked => 2,
        });
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(RevocationStatus::NotRevoked),
            1 => Ok(RevocationStatus::Revoked),
            2 => Ok(RevocationStatus::PermanentlyRevoked),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for TimestampToken {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        self.stamped.encode(buf)?;
        self.time.encode(buf)?;
        self.sig.encode(buf)?;
        self.authority.encode(buf)
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(TimestampToken {
            stamped: Digest::decode(buf)?,
            time: TimeMs::decode(buf)?,
            sig: Signature::decode(buf)?,
            authority: PublicKey::decode(buf)?,
        })
    }
}

impl Wire for FreshnessProof {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        self.id.encode(buf)?;
        self.status.encode(buf)?;
        self.issued_at.encode(buf)?;
        self.valid_for_ms.encode(buf)?;
        self.ledger_key.encode(buf)?;
        self.sig.encode(buf)
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(FreshnessProof {
            id: RecordId::decode(buf)?,
            status: RevocationStatus::decode(buf)?,
            issued_at: TimeMs::decode(buf)?,
            valid_for_ms: u64::decode(buf)?,
            ledger_key: PublicKey::decode(buf)?,
            sig: Signature::decode(buf)?,
        })
    }
}

impl Wire for ClaimRequest {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        self.pubkey.encode(buf)?;
        self.hash_sig.encode(buf)
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(ClaimRequest {
            pubkey: PublicKey::decode(buf)?,
            hash_sig: Signature::decode(buf)?,
        })
    }
}

impl Wire for RevokeRequest {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        self.id.encode(buf)?;
        buf.put_u8(self.revoke as u8);
        self.epoch.encode(buf)?;
        self.sig.encode(buf)
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let id = RecordId::decode(buf)?;
        need(buf, 1)?;
        let revoke = match buf.get_u8() {
            0 => false,
            1 => true,
            t => return Err(WireError::BadTag(t)),
        };
        Ok(RevokeRequest {
            id,
            revoke,
            epoch: u64::decode(buf)?,
            sig: Signature::decode(buf)?,
        })
    }
}

/// Maximum accepted length for variable payloads (filters), 256 MiB.
const MAX_BLOB: usize = 256 << 20;

fn put_blob(buf: &mut BytesMut, data: &Bytes) {
    buf.put_u32(data.len() as u32);
    buf.put_slice(data);
}

fn get_blob(buf: &mut Bytes) -> Result<Bytes, WireError> {
    need(buf, 4)?;
    let len = buf.get_u32() as usize;
    if len > MAX_BLOB {
        return Err(WireError::BadValue("blob too large"));
    }
    need(buf, len)?;
    Ok(buf.copy_to_bytes(len))
}

fn put_string(buf: &mut BytesMut, s: &str) -> Result<(), WireError> {
    let bytes = s.as_bytes();
    if bytes.len() > u16::MAX as usize {
        // Refuse rather than truncate: a silently clipped message decodes
        // cleanly and the loss is invisible to every later reader.
        return Err(WireError::BadValue("string exceeds u16 length prefix"));
    }
    buf.put_u16(bytes.len() as u16);
    buf.put_slice(bytes);
    Ok(())
}

fn get_string(buf: &mut Bytes) -> Result<String, WireError> {
    need(buf, 2)?;
    let len = buf.get_u16() as usize;
    need(buf, len)?;
    let raw = buf.copy_to_bytes(len);
    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadValue("non-utf8 string"))
}

/// A request to a ledger.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Claim a photo (§3.1).
    Claim(ClaimRequest),
    /// Query one record's status (the validation path). Request tag 6
    /// (the retired batched query) is never reused: a page's checks are
    /// pipelined `Query` frames, and a peer still sending tag 6 gets
    /// [`Response::Unsupported`].
    Query {
        /// The record to check.
        id: RecordId,
    },
    /// Revoke or unrevoke (§3.1).
    Revoke(RevokeRequest),
    /// Request a signed freshness proof for a record (§3.2).
    GetProof {
        /// The record to attest.
        id: RecordId,
    },
    /// Liveness check (also used by owner probes).
    Ping,
    /// Fetch the server's metrics exposition (operators scrape this).
    Metrics,
    /// Follower poll: ship durable WAL frames starting at `from_seq`.
    /// Polling `from_seq = n` doubles as the follower's acknowledgement
    /// that every record below `n` is durably applied on its side.
    WalSubscribe {
        /// First sequence number the follower still needs.
        from_seq: u64,
        /// Upper bound on frames per reply (flow control).
        max_frames: u32,
    },
    /// Follower bootstrap: fetch a full state snapshot plus the sequence
    /// number it covers, so tailing can start at `seq + 1`.
    FetchSnapshot,
    /// Fetch the server's current shard directory. Any shard answers;
    /// routers call this to bootstrap and to self-heal after a
    /// [`Response::WrongShard`] refusal.
    GetShardMap,
    /// Epoch-aware filter fetch for the tiered (fuse base + Bloom delta)
    /// pipeline. The server answers with a [`Response::Filter`]: the
    /// [`Publication`] the serve matrix picks for the held `(epoch,
    /// version)`, or an empty same-version delta when the requester is
    /// current. Request tag 4 (the retired whole-Bloom fetch) is never
    /// reused: a peer still sending it gets [`Response::Unsupported`].
    GetFilterTiered {
        /// Base epoch the requester holds (0 = none).
        have_epoch: u64,
        /// Delta version the requester holds within that epoch.
        have_version: u64,
    },
}

/// A ledger's response.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// Claim accepted.
    Claimed {
        /// Newly assigned identifier.
        id: RecordId,
        /// Authenticated claim timestamp.
        timestamp: TimestampToken,
    },
    /// Status of a queried record. Response tag 7 (the retired batched
    /// statuses) is never reused.
    Status {
        /// The record queried.
        id: RecordId,
        /// Its revocation status.
        status: RevocationStatus,
        /// Its status epoch (needed to build revoke requests).
        epoch: u64,
    },
    /// Revocation processed.
    RevokeAck {
        /// The record affected.
        id: RecordId,
        /// Status after the operation.
        status: RevocationStatus,
        /// New status epoch.
        epoch: u64,
    },
    /// One ledger's filter publication. Each [`Publication`] variant has
    /// its own tag: `Delta` 5, `Base` 19, `Tiered` 20 (response tag 4,
    /// the retired whole-Bloom snapshot, is never reused).
    Filter(Publication),
    /// Signed freshness proof.
    Proof(FreshnessProof),
    /// Liveness reply.
    Pong,
    /// Error reply.
    Error {
        /// Numeric code (see `irs-ledger`).
        code: u16,
        /// Human-readable detail.
        message: String,
    },
    /// Status served from degraded state: the upstream ledger was
    /// unreachable (or its circuit breaker is open), so the proxy answered
    /// from its last-good filter snapshot / TTL cache. `age_ms` bounds the
    /// staleness of the answer — the quantitative form of Nongoal #4's
    /// "benefits even if [revocation is not] instantaneous".
    StatusStale {
        /// The record queried.
        id: RecordId,
        /// Last known status.
        status: RevocationStatus,
        /// Milliseconds since this answer was last confirmed upstream.
        age_ms: u64,
    },
    /// The upstream ledger is unreachable and the proxy holds no answer,
    /// stale or otherwise. Viewers map this to
    /// [`crate::policy::ValidationOutcome::Unknown`] and let
    /// [`crate::policy::ViewerPolicy::fail_open`] decide.
    Unavailable {
        /// The record queried.
        id: RecordId,
        /// Milliseconds since the proxy last heard from this ledger
        /// (`u64::MAX` when it never has).
        age_ms: u64,
    },
    /// Metrics exposition text (UTF-8, one sample per line). Carried as
    /// a length-prefixed blob — an exposition routinely outgrows the
    /// `u16` string prefix that caps `Error` messages.
    MetricsText(String),
    /// A batch of sequence-numbered WAL frames for a follower. `frames`
    /// is zero or more CRC-framed WAL records laid end to end; the first
    /// carries sequence number `first_seq` and each subsequent frame the
    /// next integer. Only frames the primary considers durable are ever
    /// shipped.
    WalSegment {
        /// Sequence number of the first frame in `frames` (equals the
        /// requested `from_seq` when the segment is empty).
        first_seq: u64,
        /// Highest durable sequence number on the primary — the follower's
        /// lag is `durable_seq - last_applied`.
        durable_seq: u64,
        /// Oldest sequence number the primary still retains. A follower
        /// asking for something older must re-bootstrap from a snapshot.
        log_start_seq: u64,
        /// Concatenated WAL frames (`[len][crc][payload]`*).
        frames: Bytes,
    },
    /// The server decoded the frame but does not speak this request tag
    /// (a newer peer during a rolling upgrade). Structured, so the
    /// connection survives and the client can degrade instead of treating
    /// the reply as a protocol error.
    Unsupported {
        /// The request tag the server did not recognize.
        tag: u8,
    },
    /// Full state snapshot for follower bootstrap: `data` is a
    /// checksummed `irs-ledger` snapshot covering every record up to and
    /// including sequence number `seq`.
    Snapshot {
        /// Replication sequence number the snapshot covers.
        seq: u64,
        /// `encode_snapshot` payload.
        data: Bytes,
    },
    /// The server is shedding load and refused to process this request.
    /// Unlike `Error`, this is an *admission* verdict, not a processing
    /// failure: the connection is healthy, the server answered, and the
    /// client should back off rather than fail over or trip a breaker.
    Overloaded {
        /// Server's suggested wait before retrying, in milliseconds.
        retry_after_ms: u64,
    },
    /// The server's shard directory. `data` is an opaque
    /// `irs-ledger` `ShardMap::to_bytes` blob (the codec stays
    /// placement-agnostic); `epoch` duplicates the map's version so
    /// routers can discard stale replies without decoding.
    ShardMap {
        /// The carried map's epoch.
        epoch: u64,
        /// `ShardMap::to_bytes` payload.
        data: Bytes,
    },
    /// The keyed request landed on a shard that does not own the key
    /// under the server's directory. Like `Overloaded`, this is an
    /// *admission* verdict, not a failure: the connection is healthy
    /// and breakers must not count it. A router holding an epoch older
    /// than `epoch` should refetch the map and retry; one already at
    /// `epoch` is diverging and must not loop.
    WrongShard {
        /// The refusing server's directory epoch.
        epoch: u64,
    },
}

impl Response {
    /// The record a `Query` answer speaks about (`Status`, `StatusStale`,
    /// `Unavailable`): a caller must check it against the id it asked
    /// before caching or relaying the answer.
    pub fn query_id(&self) -> Option<RecordId> {
        match self {
            Response::Status { id, .. }
            | Response::StatusStale { id, .. }
            | Response::Unavailable { id, .. } => Some(*id),
            _ => None,
        }
    }
}

impl Wire for Request {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u8(PROTOCOL_VERSION);
        match self {
            Request::Claim(c) => {
                buf.put_u8(1);
                c.encode(buf)?;
            }
            Request::Query { id } => {
                buf.put_u8(2);
                id.encode(buf)?;
            }
            Request::Revoke(r) => {
                buf.put_u8(3);
                r.encode(buf)?;
            }
            Request::GetProof { id } => {
                buf.put_u8(5);
                id.encode(buf)?;
            }
            Request::Ping => buf.put_u8(7),
            Request::Metrics => buf.put_u8(8),
            Request::WalSubscribe {
                from_seq,
                max_frames,
            } => {
                buf.put_u8(9);
                from_seq.encode(buf)?;
                buf.put_u32(*max_frames);
            }
            Request::FetchSnapshot => buf.put_u8(10),
            Request::GetShardMap => buf.put_u8(11),
            Request::GetFilterTiered {
                have_epoch,
                have_version,
            } => {
                buf.put_u8(12);
                have_epoch.encode(buf)?;
                have_version.encode(buf)?;
            }
        }
        Ok(())
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 2)?;
        let version = buf.get_u8();
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        match buf.get_u8() {
            1 => Ok(Request::Claim(ClaimRequest::decode(buf)?)),
            2 => Ok(Request::Query {
                id: RecordId::decode(buf)?,
            }),
            3 => Ok(Request::Revoke(RevokeRequest::decode(buf)?)),
            5 => Ok(Request::GetProof {
                id: RecordId::decode(buf)?,
            }),
            7 => Ok(Request::Ping),
            8 => Ok(Request::Metrics),
            9 => {
                let from_seq = u64::decode(buf)?;
                need(buf, 4)?;
                let max_frames = buf.get_u32();
                Ok(Request::WalSubscribe {
                    from_seq,
                    max_frames,
                })
            }
            10 => Ok(Request::FetchSnapshot),
            11 => Ok(Request::GetShardMap),
            12 => Ok(Request::GetFilterTiered {
                have_epoch: u64::decode(buf)?,
                have_version: u64::decode(buf)?,
            }),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for Response {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u8(PROTOCOL_VERSION);
        match self {
            Response::Claimed { id, timestamp } => {
                buf.put_u8(1);
                id.encode(buf)?;
                timestamp.encode(buf)?;
            }
            Response::Status { id, status, epoch } => {
                buf.put_u8(2);
                id.encode(buf)?;
                status.encode(buf)?;
                epoch.encode(buf)?;
            }
            Response::RevokeAck { id, status, epoch } => {
                buf.put_u8(3);
                id.encode(buf)?;
                status.encode(buf)?;
                epoch.encode(buf)?;
            }
            Response::Filter(Publication::Delta {
                from_version,
                to_version,
                data,
            }) => {
                buf.put_u8(5);
                from_version.encode(buf)?;
                to_version.encode(buf)?;
                put_blob(buf, data);
            }
            Response::Proof(p) => {
                buf.put_u8(6);
                p.encode(buf)?;
            }
            Response::Pong => buf.put_u8(8),
            Response::Error { code, message } => {
                buf.put_u8(9);
                buf.put_u16(*code);
                put_string(buf, message)?;
            }
            Response::StatusStale { id, status, age_ms } => {
                buf.put_u8(10);
                id.encode(buf)?;
                status.encode(buf)?;
                age_ms.encode(buf)?;
            }
            Response::Unavailable { id, age_ms } => {
                buf.put_u8(11);
                id.encode(buf)?;
                age_ms.encode(buf)?;
            }
            Response::MetricsText(text) => {
                buf.put_u8(12);
                put_blob(buf, &Bytes::copy_from_slice(text.as_bytes()));
            }
            Response::WalSegment {
                first_seq,
                durable_seq,
                log_start_seq,
                frames,
            } => {
                buf.put_u8(13);
                first_seq.encode(buf)?;
                durable_seq.encode(buf)?;
                log_start_seq.encode(buf)?;
                put_blob(buf, frames);
            }
            Response::Unsupported { tag } => {
                buf.put_u8(14);
                buf.put_u8(*tag);
            }
            Response::Snapshot { seq, data } => {
                buf.put_u8(15);
                seq.encode(buf)?;
                put_blob(buf, data);
            }
            Response::Overloaded { retry_after_ms } => {
                buf.put_u8(16);
                retry_after_ms.encode(buf)?;
            }
            Response::ShardMap { epoch, data } => {
                buf.put_u8(17);
                epoch.encode(buf)?;
                put_blob(buf, data);
            }
            Response::WrongShard { epoch } => {
                buf.put_u8(18);
                epoch.encode(buf)?;
            }
            Response::Filter(Publication::Base { epoch, data }) => {
                buf.put_u8(19);
                epoch.encode(buf)?;
                put_blob(buf, data);
            }
            Response::Filter(Publication::Tiered {
                epoch,
                base,
                delta_version,
                delta,
            }) => {
                buf.put_u8(20);
                epoch.encode(buf)?;
                put_blob(buf, base);
                delta_version.encode(buf)?;
                put_blob(buf, delta);
            }
        }
        Ok(())
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 2)?;
        let version = buf.get_u8();
        if version != PROTOCOL_VERSION {
            return Err(WireError::BadVersion(version));
        }
        match buf.get_u8() {
            1 => Ok(Response::Claimed {
                id: RecordId::decode(buf)?,
                timestamp: TimestampToken::decode(buf)?,
            }),
            2 => Ok(Response::Status {
                id: RecordId::decode(buf)?,
                status: RevocationStatus::decode(buf)?,
                epoch: u64::decode(buf)?,
            }),
            3 => Ok(Response::RevokeAck {
                id: RecordId::decode(buf)?,
                status: RevocationStatus::decode(buf)?,
                epoch: u64::decode(buf)?,
            }),
            5 => Ok(Response::Filter(Publication::Delta {
                from_version: u64::decode(buf)?,
                to_version: u64::decode(buf)?,
                data: get_blob(buf)?,
            })),
            6 => Ok(Response::Proof(FreshnessProof::decode(buf)?)),
            8 => Ok(Response::Pong),
            9 => {
                need(buf, 2)?;
                let code = buf.get_u16();
                Ok(Response::Error {
                    code,
                    message: get_string(buf)?,
                })
            }
            10 => Ok(Response::StatusStale {
                id: RecordId::decode(buf)?,
                status: RevocationStatus::decode(buf)?,
                age_ms: u64::decode(buf)?,
            }),
            11 => Ok(Response::Unavailable {
                id: RecordId::decode(buf)?,
                age_ms: u64::decode(buf)?,
            }),
            12 => {
                let raw = get_blob(buf)?;
                let text = String::from_utf8(raw.to_vec())
                    .map_err(|_| WireError::BadValue("non-utf8 metrics text"))?;
                Ok(Response::MetricsText(text))
            }
            13 => Ok(Response::WalSegment {
                first_seq: u64::decode(buf)?,
                durable_seq: u64::decode(buf)?,
                log_start_seq: u64::decode(buf)?,
                frames: get_blob(buf)?,
            }),
            14 => {
                need(buf, 1)?;
                Ok(Response::Unsupported { tag: buf.get_u8() })
            }
            15 => Ok(Response::Snapshot {
                seq: u64::decode(buf)?,
                data: get_blob(buf)?,
            }),
            16 => Ok(Response::Overloaded {
                retry_after_ms: u64::decode(buf)?,
            }),
            17 => Ok(Response::ShardMap {
                epoch: u64::decode(buf)?,
                data: get_blob(buf)?,
            }),
            18 => Ok(Response::WrongShard {
                epoch: u64::decode(buf)?,
            }),
            19 => Ok(Response::Filter(Publication::Base {
                epoch: u64::decode(buf)?,
                data: get_blob(buf)?,
            })),
            20 => Ok(Response::Filter(Publication::Tiered {
                epoch: u64::decode(buf)?,
                base: get_blob(buf)?,
                delta_version: u64::decode(buf)?,
                delta: get_blob(buf)?,
            })),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Expose `LedgerId` encoding for ancillary messages.
impl Wire for LedgerId {
    fn encode(&self, buf: &mut BytesMut) -> Result<(), WireError> {
        buf.put_u16(self.0);
        Ok(())
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 2)?;
        Ok(LedgerId(buf.get_u16()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_crypto::Keypair;

    fn kp() -> Keypair {
        Keypair::from_seed(&[1u8; 32])
    }

    fn rid(n: u64) -> RecordId {
        RecordId::new(LedgerId(1), n)
    }

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes().expect("encode");
        let decoded = T::from_bytes(bytes).expect("decode");
        assert_eq!(&decoded, v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(&42u64);
        roundtrip(&TimeMs(123456));
        roundtrip(&Digest::of(b"x"));
        roundtrip(&kp().public);
        roundtrip(&kp().sign(b"m"));
        roundtrip(&rid(999));
        roundtrip(&LedgerId(77));
        for s in [
            RevocationStatus::NotRevoked,
            RevocationStatus::Revoked,
            RevocationStatus::PermanentlyRevoked,
        ] {
            roundtrip(&s);
        }
    }

    #[test]
    fn request_roundtrips() {
        let claim = ClaimRequest::create(&kp(), &Digest::of(b"photo"));
        roundtrip(&Request::Claim(claim));
        roundtrip(&Request::Query { id: rid(1) });
        roundtrip(&Request::Revoke(RevokeRequest::create(
            &kp(),
            rid(2),
            true,
            5,
        )));
        roundtrip(&Request::GetProof { id: rid(3) });
        roundtrip(&Request::Ping);
        roundtrip(&Request::Metrics);
        roundtrip(&Request::WalSubscribe {
            from_seq: 42,
            max_frames: 256,
        });
        roundtrip(&Request::FetchSnapshot);
        roundtrip(&Request::GetShardMap);
        roundtrip(&Request::GetFilterTiered {
            have_epoch: 3,
            have_version: 12,
        });
        roundtrip(&Request::GetFilterTiered {
            have_epoch: 0,
            have_version: 0,
        });
    }

    #[test]
    fn response_roundtrips() {
        let tsa = crate::tsa::TimestampAuthority::from_seed(1);
        let tok = tsa.stamp(Digest::of(b"c"), TimeMs(9));
        roundtrip(&Response::Claimed {
            id: rid(1),
            timestamp: tok,
        });
        roundtrip(&Response::Status {
            id: rid(2),
            status: RevocationStatus::Revoked,
            epoch: 3,
        });
        roundtrip(&Response::RevokeAck {
            id: rid(2),
            status: RevocationStatus::NotRevoked,
            epoch: 4,
        });
        roundtrip(&Response::Filter(Publication::Delta {
            from_version: 7,
            to_version: 8,
            data: Bytes::from_static(b"delta"),
        }));
        let proof =
            FreshnessProof::issue(&kp(), rid(5), RevocationStatus::NotRevoked, TimeMs(1), 1000);
        roundtrip(&Response::Proof(proof));
        roundtrip(&Response::Pong);
        roundtrip(&Response::Error {
            code: 404,
            message: "unknown record".to_string(),
        });
        roundtrip(&Response::StatusStale {
            id: rid(6),
            status: RevocationStatus::Revoked,
            age_ms: 12_345,
        });
        roundtrip(&Response::Unavailable {
            id: rid(7),
            age_ms: u64::MAX,
        });
        roundtrip(&Response::MetricsText(
            "# TYPE irs_x counter\nirs_x 1\n".to_string(),
        ));
        roundtrip(&Response::WalSegment {
            first_seq: 17,
            durable_seq: 23,
            log_start_seq: 5,
            frames: Bytes::from_static(b"\x01\x02framed-records"),
        });
        roundtrip(&Response::WalSegment {
            first_seq: 1,
            durable_seq: 0,
            log_start_seq: 1,
            frames: Bytes::new(),
        });
        roundtrip(&Response::Unsupported { tag: 0xee });
        roundtrip(&Response::Overloaded {
            retry_after_ms: 250,
        });
        roundtrip(&Response::Snapshot {
            seq: 99,
            data: Bytes::from_static(b"snapshot-bytes"),
        });
        roundtrip(&Response::ShardMap {
            epoch: 12,
            data: Bytes::from_static(b"shard-map-bytes"),
        });
        roundtrip(&Response::ShardMap {
            epoch: 0,
            data: Bytes::new(),
        });
        roundtrip(&Response::WrongShard { epoch: 31 });
        roundtrip(&Response::Filter(Publication::Base {
            epoch: 2,
            data: Bytes::from_static(b"fuse-base-bytes"),
        }));
        roundtrip(&Response::Filter(Publication::Tiered {
            epoch: 5,
            base: Bytes::from_static(b"fuse-base-bytes"),
            delta_version: 9,
            delta: Bytes::from_static(b"delta-bloom-bytes"),
        }));
        // Bootstrap shape: no sealed epoch yet, so the base blob is empty.
        roundtrip(&Response::Filter(Publication::full(
            0,
            Bytes::from_static(b"delta-bloom-bytes"),
        )));
    }

    #[test]
    fn tiered_filter_messages_truncation_rejected() {
        let full = Response::Filter(Publication::Tiered {
            epoch: 5,
            base: Bytes::from_static(b"base"),
            delta_version: 9,
            delta: Bytes::from_static(b"delta"),
        })
        .to_bytes()
        .unwrap();
        for cut in 0..full.len() {
            assert!(
                Response::from_bytes(full.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
        let req = Request::GetFilterTiered {
            have_epoch: 1,
            have_version: 2,
        }
        .to_bytes()
        .unwrap();
        for cut in 0..req.len() {
            assert!(Request::from_bytes(req.slice(..cut)).is_err());
        }
    }

    /// The filter messages' bytes, pinned: the refresh request (tag 12)
    /// and one response per filter tag (5, 19, 20), including the empty
    /// delta an up-to-date requester is answered with. A change to any
    /// literal here is a wire change.
    #[test]
    fn filter_messages_keep_their_bytes() {
        use irs_filters::delta::BloomDelta;
        use irs_filters::BloomFilter;
        let hex = |bytes: Bytes| -> String { bytes.iter().map(|b| format!("{b:02x}")).collect() };
        let bloom = BloomFilter::with_params(64, 3, 9).unwrap();
        let up_to_date = BloomDelta::diff(&bloom, &bloom).unwrap().to_bytes();
        let requests = [
            (
                Request::GetFilterTiered {
                    have_epoch: 0,
                    have_version: 0,
                },
                "010c00000000000000000000000000000000",
            ),
            (
                Request::GetFilterTiered {
                    have_epoch: 3,
                    have_version: 12,
                },
                "010c0000000000000003000000000000000c",
            ),
        ];
        for (request, bytes) in requests {
            assert_eq!(hex(request.to_bytes().unwrap()), bytes, "{request:?}");
            assert_eq!(
                Request::from_bytes(request.to_bytes().unwrap()),
                Ok(request)
            );
        }
        let responses = [
            (
                Response::Filter(Publication::Delta {
                    from_version: 4,
                    to_version: 4,
                    data: up_to_date,
                }),
                "0105000000000000000400000000000000040000002849524432000000000000004000000003000000000000000900000000000000000000000000000000",
            ),
            (
                Response::Filter(Publication::Delta {
                    from_version: 7,
                    to_version: 8,
                    data: Bytes::from_static(b"delta"),
                }),
                "0105000000000000000700000000000000080000000564656c7461",
            ),
            (
                Response::Filter(Publication::Base {
                    epoch: 2,
                    data: Bytes::from_static(b"base"),
                }),
                "011300000000000000020000000462617365",
            ),
            (
                Response::Filter(Publication::Tiered {
                    epoch: 5,
                    base: Bytes::from_static(b"base"),
                    delta_version: 9,
                    delta: Bytes::from_static(b"bloom"),
                }),
                "011400000000000000050000000462617365000000000000000900000005626c6f6f6d",
            ),
            (
                Response::Filter(Publication::Tiered {
                    epoch: 1,
                    base: Bytes::new(),
                    delta_version: 0,
                    delta: Bytes::from_static(b"bloom"),
                }),
                "0114000000000000000100000000000000000000000000000005626c6f6f6d",
            ),
        ];
        for (response, bytes) in responses {
            assert_eq!(hex(response.to_bytes().unwrap()), bytes, "{response:?}");
            assert_eq!(
                Response::from_bytes(response.to_bytes().unwrap()),
                Ok(response)
            );
        }
    }

    #[test]
    fn metrics_text_outgrows_the_string_prefix() {
        // An exposition bigger than u16::MAX bytes must still round-trip:
        // it rides the u32 blob codec, not the capped string codec.
        let big = "irs_metric_with_a_long_name_total 123456789\n".repeat(2_000);
        assert!(big.len() > u16::MAX as usize);
        roundtrip(&Response::MetricsText(big));
    }

    #[test]
    fn non_utf8_metrics_text_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(PROTOCOL_VERSION);
        buf.put_u8(12);
        buf.put_u32(2);
        buf.put_slice(&[0xff, 0xfe]);
        assert_eq!(
            Response::from_bytes(buf.freeze()),
            Err(WireError::BadValue("non-utf8 metrics text"))
        );
    }

    #[test]
    fn truncated_inputs_rejected() {
        let full = Request::Query { id: rid(1) }.to_bytes().unwrap();
        for cut in 0..full.len() {
            let r = Request::from_bytes(full.slice(..cut));
            assert!(r.is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = Request::Ping.to_bytes().unwrap().to_vec();
        bytes.push(0);
        assert_eq!(
            Request::from_bytes(Bytes::from(bytes)),
            Err(WireError::BadValue("trailing bytes"))
        );
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = Request::Ping.to_bytes().unwrap().to_vec();
        bytes[0] = 99;
        assert_eq!(
            Request::from_bytes(Bytes::from(bytes)),
            Err(WireError::BadVersion(99))
        );
    }

    #[test]
    fn bad_tag_rejected() {
        let bytes = Bytes::from(vec![PROTOCOL_VERSION, 0xee]);
        assert_eq!(Request::from_bytes(bytes), Err(WireError::BadTag(0xee)));
        // Tag 4 (whole-Bloom fetch / snapshot) is retired on both sides.
        let mut retired = BytesMut::new();
        retired.put_u8(PROTOCOL_VERSION);
        retired.put_u8(4);
        7u64.encode(&mut retired).unwrap();
        let retired = retired.freeze();
        assert_eq!(
            Request::from_bytes(retired.clone()),
            Err(WireError::BadTag(4))
        );
        assert_eq!(Response::from_bytes(retired), Err(WireError::BadTag(4)));
        // So are request tag 6 (batched query, here with one id) and
        // response tag 7 (batched statuses).
        let mut batch = BytesMut::new();
        batch.put_u8(PROTOCOL_VERSION);
        batch.put_u8(6);
        batch.put_u32(1);
        rid(1).encode(&mut batch).unwrap();
        assert_eq!(
            Request::from_bytes(batch.freeze()),
            Err(WireError::BadTag(6))
        );
        let statuses = Bytes::from(vec![PROTOCOL_VERSION, 7, 0, 0, 0, 0]);
        assert_eq!(Response::from_bytes(statuses), Err(WireError::BadTag(7)));
    }

    #[test]
    fn corrupted_record_id_rejected() {
        let mut bytes = Request::Query { id: rid(1) }.to_bytes().unwrap().to_vec();
        // Flip a bit inside the record id payload (after version + tag).
        bytes[5] ^= 0x40;
        assert!(matches!(
            Request::from_bytes(Bytes::from(bytes)),
            Err(WireError::BadValue(_))
        ));
    }

    #[test]
    fn string_encoding_handles_unicode() {
        roundtrip(&Response::Error {
            code: 1,
            message: "únïcødé ✓".to_string(),
        });
    }

    #[test]
    fn string_at_u16_boundary_encodes_and_one_past_fails() {
        // Exactly u16::MAX bytes: the longest representable message.
        let max = Response::Error {
            code: 1,
            message: "a".repeat(u16::MAX as usize),
        };
        let bytes = max.to_bytes().expect("boundary length must encode");
        let Response::Error { message, .. } = Response::from_bytes(bytes).unwrap() else {
            panic!("wrong variant");
        };
        assert_eq!(message.len(), u16::MAX as usize);

        // One byte past the prefix: refused, never silently truncated.
        let over = Response::Error {
            code: 1,
            message: "a".repeat(u16::MAX as usize + 1),
        };
        assert_eq!(
            over.to_bytes(),
            Err(WireError::BadValue("string exceeds u16 length prefix"))
        );
    }
}
