//! Property-based tests on cross-cutting invariants.

use bytes::Bytes;
use irs::crypto::Keypair;
use irs::filters::delta::BloomDelta;
use irs::filters::{BloomFilter, Filter, Fuse8, TieredConfig, TieredPublisher};
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::time::TimeMs;
use irs::protocol::wire::{Request, Response, Wire};
use irs::proxy::{FilterSet, LruTtlCache};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every filter family: no false negatives, ever.
    #[test]
    fn filters_have_no_false_negatives(keys in prop::collection::hash_set(any::<u64>(), 1..400)) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let mut bloom = BloomFilter::for_capacity(keys.len() as u64, 0.01).unwrap();
        for &k in &keys {
            bloom.insert(k);
        }
        let xor = Fuse8::build_xor(&keys).unwrap();
        let fuse = Fuse8::build(&keys).unwrap();
        for &k in &keys {
            prop_assert!(bloom.contains(k));
            prop_assert!(xor.contains(k));
            prop_assert!(fuse.contains(k));
        }
    }

    /// Un-revocation: a publish after a subset is unrevoked never loses
    /// the rest, sealed base or not, for a proxy following along.
    #[test]
    fn republish_after_unrevocation_preserves_others(
        keys in prop::collection::hash_set(any::<u64>(), 2..200),
        remove_fraction in 0.0f64..0.9,
        seals in any::<bool>(),
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let compact_at = if seals { 16 } else { u64::MAX };
        let cfg = TieredConfig { delta_capacity: 256, delta_fpr: 0.01, compact_at };
        let mut publisher = TieredPublisher::new(cfg).unwrap();
        let mut held = FilterSet::new();
        let cut = ((keys.len() as f64) * remove_fraction) as usize;
        for revoked in [&keys[..], &keys[cut..]] {
            publisher.publish(&revoked.iter().copied().collect()).unwrap();
            let (epoch, version) = held.tiered_state(LedgerId(1));
            if let Some(update) = publisher.snapshot().serve(epoch, version) {
                held.apply(LedgerId(1), update).unwrap();
            }
        }
        for &k in &keys[cut..] {
            prop_assert_eq!(held.might_be_revoked(LedgerId(1), k), Some(true));
        }
    }

    /// Bloom delta: diff-then-apply reproduces the target exactly.
    #[test]
    fn bloom_delta_roundtrip(
        old_keys in prop::collection::vec(any::<u64>(), 0..200),
        new_keys in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let mut old = BloomFilter::with_params(1 << 12, 4, 9).unwrap();
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
        prop_assert_eq!(patched, new);
    }

    /// RecordId: payload and text encodings roundtrip; corruption detected.
    #[test]
    fn record_id_roundtrips(ledger in any::<u16>(), serial in any::<u64>(), flip_bit in 0usize..96) {
        let id = RecordId::new(LedgerId(ledger), serial);
        prop_assert_eq!(RecordId::from_payload(&id.to_payload()), Some(id));
        prop_assert_eq!(RecordId::parse(&id.to_string()), Some(id));
        // Single-bit corruption always caught (CRC-16 catches all 1-bit
        // errors).
        let mut payload = id.to_payload();
        payload[flip_bit / 8] ^= 1 << (flip_bit % 8);
        prop_assert_eq!(RecordId::from_payload(&payload), None);
    }

    /// Wire codec: encode→decode is the identity for arbitrary requests.
    #[test]
    fn wire_request_roundtrip(
        tag in 0u8..5,
        serial in any::<u64>(),
        version in any::<u64>(),
        seed in any::<u8>(),
        revoke in any::<bool>(),
        max_frames in any::<u32>(),
    ) {
        let kp = Keypair::from_seed(&[seed; 32]);
        let id = RecordId::new(LedgerId(1), serial);
        let req = match tag {
            0 => Request::Ping,
            1 => Request::Query { id },
            2 => Request::GetFilterTiered { have_epoch: serial, have_version: version },
            3 => Request::Revoke(irs::protocol::RevokeRequest::create(&kp, id, revoke, version)),
            _ => Request::WalSubscribe { from_seq: serial, max_frames },
        };
        let decoded = Request::from_bytes(req.to_bytes().unwrap()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    /// Wire codec: arbitrary bytes never panic the decoder.
    #[test]
    fn wire_decoder_total(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let _ = Request::from_bytes(Bytes::from(bytes.clone()));
        let _ = Response::from_bytes(Bytes::from(bytes));
    }

    /// LRU cache against a model: a hit always returns the last inserted
    /// value, and size never exceeds capacity.
    #[test]
    fn lru_matches_reference_model(
        ops in prop::collection::vec((any::<u8>(), any::<bool>()), 1..300),
        capacity in 1usize..20,
    ) {
        let mut cache: LruTtlCache<u8, u64> = LruTtlCache::new(capacity, u64::MAX / 2);
        let mut model: std::collections::HashMap<u8, u64> = std::collections::HashMap::new();
        for (step, (key, is_insert)) in ops.into_iter().enumerate() {
            let now = TimeMs(step as u64);
            if is_insert {
                cache.insert(key, step as u64, now);
                model.insert(key, step as u64);
            } else if let Some(v) = cache.get(&key, now) {
                // A cache hit must agree with the model (evictions may
                // drop entries, but never corrupt them).
                prop_assert_eq!(Some(&v), model.get(&key));
            }
            prop_assert!(cache.len() <= capacity);
        }
    }

    /// Ed25519: signatures verify, and any single-byte corruption fails.
    #[test]
    fn signature_soundness(seed in any::<u8>(), msg in prop::collection::vec(any::<u8>(), 0..100), at_byte in 0usize..64) {
        let kp = Keypair::from_seed(&[seed; 32]);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public.verify_ok(&msg, &sig));
        let mut bad = sig;
        bad.0[at_byte] ^= 0x01;
        prop_assert!(!kp.public.verify_ok(&msg, &bad));
    }

    /// Watermark payload coding: decode(encode(x)) == x with up to one bit
    /// flip per codeword.
    #[test]
    fn ecc_corrects_scattered_errors(
        payload in prop::collection::vec(any::<u8>(), 12..13),
        flips in prop::collection::hash_set(0usize..32, 0..6),
    ) {
        let mut bits = irs::imaging::ecc::encode(&payload);
        // Flip at most one bit per 7-bit codeword.
        for cw in flips {
            let idx = cw * 7 + (cw % 7);
            if idx < bits.len() {
                bits[idx] ^= true;
            }
        }
        prop_assert_eq!(irs::imaging::ecc::decode(&bits, 12), Some(payload));
    }
}

/// Build one WAL record of each kind from proptest-drawn material.
fn arbitrary_wal_record(
    kind: u8,
    seed: u8,
    serial: u64,
    custodial: bool,
    revoked: bool,
    epoch: u64,
) -> irs::ledger::WalRecord {
    use irs::ledger::store::ClaimOrigin;
    use irs::ledger::WalRecord;
    use irs::protocol::tsa::TimestampAuthority;
    use irs::protocol::RevokeRequest;

    let kp = Keypair::from_seed(&[seed; 32]);
    let id = RecordId::new(LedgerId(1), serial);
    match kind % 3 {
        0 => {
            let digest = irs::crypto::Digest::of(&serial.to_le_bytes());
            let request = irs::protocol::claim::ClaimRequest::create(&kp, &digest);
            let timestamp = TimestampAuthority::from_seed(seed as u64).stamp(digest, TimeMs(epoch));
            WalRecord::Claim {
                serial,
                origin: if custodial {
                    ClaimOrigin::Custodial
                } else {
                    ClaimOrigin::Owner
                },
                initially_revoked: revoked,
                request,
                timestamp,
            }
        }
        1 => WalRecord::Revoke(RevokeRequest::create(&kp, id, revoked, epoch)),
        _ => WalRecord::AppealPin { id },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WAL frames survive an encode → scan round trip exactly: a log built
    /// from any record sequence replays the same sequence in order.
    #[test]
    fn wal_records_roundtrip(
        specs in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        use irs::ledger::wal::{encode_header, read_wal, WAL_HEADER_LEN};

        // Each u64 packs a record spec: kind, keypair seed, flags, and an
        // epoch, with the whole word reused as the serial.
        let records: Vec<_> = specs
            .iter()
            .map(|&w| {
                arbitrary_wal_record(
                    w as u8,
                    (w >> 8) as u8,
                    w,
                    w & (1 << 16) != 0,
                    w & (1 << 17) != 0,
                    (w >> 18) % 1000,
                )
            })
            .collect();
        let mut bytes = encode_header(LedgerId(1), 0);
        for record in &records {
            bytes.extend_from_slice(&record.encode_framed());
        }
        let contents = read_wal(&bytes, WAL_HEADER_LEN).unwrap();
        prop_assert_eq!(contents.ledger, LedgerId(1));
        prop_assert_eq!(contents.torn_bytes, 0);
        let replayed: Vec<_> = contents.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(replayed, records);
    }

    /// Any single flipped bit in a framed WAL record is caught by the
    /// checksum: with bytes following (mid-log), the reader fails closed;
    /// in no case does a corrupted record decode as valid.
    #[test]
    fn wal_single_bit_flip_never_decodes(
        kind in any::<u8>(),
        seed in any::<u8>(),
        serial in any::<u64>(),
        custodial in any::<bool>(),
        revoked in any::<bool>(),
        epoch in 0u64..1000,
        flip_pos in any::<u32>(),
        flip_bit in 0u32..8,
    ) {
        use irs::ledger::wal::{encode_header, read_wal, WAL_HEADER_LEN};

        let record = arbitrary_wal_record(kind, seed, serial, custodial, revoked, epoch);
        let sentinel = arbitrary_wal_record(2, seed.wrapping_add(1), serial ^ 1, false, false, 0);
        let frame = record.encode_framed();
        let mut bytes = encode_header(LedgerId(1), 0);
        let frame_start = bytes.len();
        bytes.extend_from_slice(&frame);
        bytes.extend_from_slice(&sentinel.encode_framed());

        let at = frame_start + (flip_pos as usize % frame.len());
        bytes[at] ^= 1 << flip_bit;

        match read_wal(&bytes, WAL_HEADER_LEN) {
            // Mid-log corruption detected: fail closed.
            Err(_) => {}
            // The only Ok outcome is a flipped length field stretching the
            // frame past end-of-file — an apparent torn tail. The damaged
            // record (and everything after it) must then be absent, never
            // decoded into something else.
            Ok(contents) => prop_assert!(
                contents.records.is_empty(),
                "corrupted record decoded: {:?}",
                contents.records
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Framing codec (`irs::net::codec`): the reactor's wire discipline.
// ---------------------------------------------------------------------------

use irs::net::{BytesBuf, FrameCodec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Encode a batch of arbitrary frames, then replay the byte stream
    /// into the decoder split at *every* byte boundary (one byte per
    /// feed — the worst fragmentation TCP can produce). Every frame
    /// must come back intact, in order, with nothing left over.
    #[test]
    fn codec_roundtrips_across_every_split_boundary(
        frames in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 1..6),
    ) {
        let codec = FrameCodec::new(1 << 20);
        let mut wire = BytesBuf::new();
        for frame in &frames {
            codec.encode(frame, &mut wire).unwrap();
        }
        let stream = wire.split_to(wire.len());

        let mut rx = BytesBuf::new();
        let mut decoded: Vec<Bytes> = Vec::new();
        for &byte in stream.as_ref() {
            rx.extend_from_slice(&[byte]);
            while let Some(frame) = codec.decode(&mut rx).unwrap() {
                decoded.push(frame);
            }
        }
        prop_assert_eq!(decoded.len(), frames.len());
        for (got, want) in decoded.iter().zip(&frames) {
            prop_assert_eq!(got.as_ref(), want.as_slice());
        }
        prop_assert!(rx.is_empty(), "no bytes may linger after the last frame");
    }

    /// A truncated stream (any strict prefix of an encoded frame) must
    /// stay pending forever — complete preceding frames are delivered,
    /// the torn tail never becomes a frame and never errors.
    #[test]
    fn codec_holds_truncated_frames_pending(
        complete in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..100), 0..4),
        torn in prop::collection::vec(any::<u8>(), 1..100),
        keep_fraction in 0.0f64..1.0,
    ) {
        let codec = FrameCodec::new(1 << 20);
        let mut wire = BytesBuf::new();
        for frame in &complete {
            codec.encode(frame, &mut wire).unwrap();
        }
        let whole = wire.len();
        codec.encode(&torn, &mut wire).unwrap();
        // Keep a strict prefix of the last frame's encoding.
        let torn_len = wire.len() - whole;
        let keep = whole + ((torn_len - 1) as f64 * keep_fraction) as usize;
        let stream = wire.split_to(keep);

        let mut rx = BytesBuf::new();
        rx.extend_from_slice(stream.as_ref());
        let mut decoded = 0usize;
        while let Some(_frame) = codec.decode(&mut rx).unwrap() {
            decoded += 1;
        }
        // Only the complete frames may decode.
        prop_assert_eq!(decoded, complete.len());
        // Re-polling a starved decoder must stay quietly pending.
        prop_assert!(codec.decode(&mut rx).unwrap().is_none());
    }

    /// Arbitrary garbage must never panic the decoder and never yield a
    /// frame larger than the configured cap; a declared length past the
    /// cap is an error, not an allocation.
    #[test]
    fn codec_survives_garbage_without_overallocating(
        garbage in prop::collection::vec(any::<u8>(), 0..600),
        cap in 1u32..512,
    ) {
        let codec = FrameCodec::new(cap);
        let mut rx = BytesBuf::new();
        rx.extend_from_slice(&garbage);
        loop {
            match codec.decode(&mut rx) {
                Ok(Some(frame)) => prop_assert!(frame.len() <= cap as usize),
                Ok(None) => break,     // starved: garbage exhausted
                Err(_) => break,       // oversized declaration: fail closed
            }
        }
    }
}

#[test]
fn codec_rejects_oversized_frames_on_both_sides() {
    let codec = FrameCodec::new(16);

    // Encode side: an oversized payload is refused without touching the
    // output buffer (a half-written header would desync the stream).
    let mut out = BytesBuf::new();
    assert!(codec.encode(&[0u8; 17], &mut out).is_err());
    assert!(out.is_empty(), "rejected encode must not emit bytes");
    codec.encode(&[0u8; 16], &mut out).unwrap();

    // Decode side: a header declaring more than the cap fails closed
    // even before the body arrives.
    let mut rx = BytesBuf::new();
    rx.extend_from_slice(&17u32.to_be_bytes());
    assert!(codec.decode(&mut rx).is_err());
}

// ---------------------------------------------------------------------------
// Replication segments (`irs::ledger::replication`): the shipped WAL stream.
// ---------------------------------------------------------------------------

/// A calm primary with `claims` records, a bootstrapped-empty follower,
/// and the segment the primary would ship for the whole stream.
fn replication_pair(
    claims: u64,
) -> (
    irs::ledger::Ledger,
    irs::ledger::Follower,
    irs::ledger::SegmentData,
) {
    use irs::ledger::{
        ChaosDisk, ChaosDiskConfig, Disk, DurabilityConfig, Follower, FsyncPolicy, Ledger,
        LedgerConfig, SegmentData,
    };
    use irs::protocol::tsa::TimestampAuthority;
    use std::sync::Arc;

    let ledger_id = LedgerId(1);
    let durability = |seed| {
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
        DurabilityConfig::new(disk as Arc<dyn Disk>, FsyncPolicy::Always)
    };
    let primary = Ledger::recover(
        LedgerConfig::new(ledger_id),
        TimestampAuthority::from_seed(0x77),
        4,
        durability(20),
    )
    .unwrap();
    let (snap_seq, snap) = primary.replication_snapshot().unwrap();
    let follower = Follower::bootstrap(
        LedgerConfig::new(ledger_id),
        TimestampAuthority::from_seed(0x77),
        4,
        durability(21),
        snap_seq,
        &snap,
    )
    .unwrap();
    let kp = Keypair::from_seed(&[0x78; 32]);
    for i in 0..claims {
        let req = irs::protocol::claim::ClaimRequest::create(
            &kp,
            &irs::crypto::Digest::of(&i.to_le_bytes()),
        );
        primary.claim_custodial(req, TimeMs(i)).unwrap();
    }
    let subscribe = Request::WalSubscribe {
        from_seq: 1,
        max_frames: 256,
    };
    let seg =
        SegmentData::try_from(primary.handle(subscribe, TimeMs(0))).expect("expected WalSegment");
    (primary, follower, seg)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Segment framing: concatenated seq-numbered frames decode back to
    /// exactly the record sequence that was shipped — the strict-mode
    /// counterpart of `wal_records_roundtrip` (no torn-tail tolerance).
    #[test]
    fn replication_segment_frames_roundtrip(
        specs in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        use irs::ledger::wal::decode_frames;

        let records: Vec<_> = specs
            .iter()
            .map(|&w| {
                arbitrary_wal_record(
                    w as u8,
                    (w >> 8) as u8,
                    w,
                    w & (1 << 16) != 0,
                    w & (1 << 17) != 0,
                    (w >> 18) % 1000,
                )
            })
            .collect();
        let mut blob = Vec::new();
        for record in &records {
            blob.extend_from_slice(&record.encode_framed());
        }
        prop_assert_eq!(decode_frames(&blob).unwrap(), records);

        // Strictness: cut mid-frame and the whole segment is rejected —
        // a segment is a complete message, not a crash-torn file. (A cut
        // exactly on a frame boundary is a shorter valid segment, so the
        // probe point deliberately lands inside the final frame.)
        let last_frame = records.last().unwrap().encode_framed();
        let cut = blob.len() - 1 - (specs[0] as usize % (last_frame.len() - 1));
        prop_assert!(decode_frames(&blob[..cut]).is_err());
    }

    /// The follower apply path refuses every damaged stream — duplicated
    /// segments, reordered (skipped-ahead) segments, and any single
    /// flipped bit — without applying a byte or moving its cursor.
    #[test]
    fn follower_rejects_mutated_segments(
        claims in 1u64..5,
        mutation in 0u8..3,
        gap in 1u64..5,
        flip_pos in any::<u32>(),
        flip_bit in 0u32..8,
    ) {
        use irs::ledger::{ApplyError, SegmentData};

        let (_primary, mut follower, seg) = replication_pair(claims);
        match mutation % 3 {
            0 => {
                // Replay of an already-applied segment.
                prop_assert_eq!(follower.apply_segment(&seg).unwrap(), claims as usize);
                let err = follower.apply_segment(&seg).unwrap_err();
                prop_assert!(matches!(err, ApplyError::Duplicate { through } if through == claims));
                prop_assert_eq!(follower.next_seq(), claims + 1);
                prop_assert_eq!(follower.ledger().store().len() as u64, claims);
            }
            1 => {
                // Reordered delivery: a later segment arrives first.
                let ahead = SegmentData {
                    first_seq: seg.first_seq + gap,
                    log_start_seq: seg.log_start_seq,
                    ..seg.clone()
                };
                let err = follower.apply_segment(&ahead).unwrap_err();
                prop_assert!(
                    matches!(err, ApplyError::Gap { expected: 1, got } if got == 1 + gap)
                );
                prop_assert_eq!(follower.next_seq(), 1);
                prop_assert_eq!(follower.ledger().store().len(), 0);
            }
            _ => {
                // One flipped bit anywhere in the shipped frames.
                let mut blob = seg.frames.to_vec();
                let at = flip_pos as usize % blob.len();
                blob[at] ^= 1 << flip_bit;
                let bad = SegmentData {
                    frames: Bytes::from(blob),
                    ..seg.clone()
                };
                let err = follower.apply_segment(&bad).unwrap_err();
                prop_assert!(matches!(err, ApplyError::Corrupt(_)), "got {err:?}");
                prop_assert_eq!(follower.next_seq(), 1);
                prop_assert_eq!(follower.ledger().store().len(), 0);
            }
        }
    }
}
