//! The frame format, in one place.
//!
//! Every peer in the workspace frames its messages the same way: a
//! u32 big-endian payload length, then the payload. This module is the
//! only code that knows that — an explicit encoder/decoder over a
//! reusable byte buffer, in the shape of the ripple `MessageCodec` /
//! linera `Codec` exemplars (SNIPPETS.md §2–3):
//!
//! * [`BytesBuf`] — a growable buffer with a consume cursor. Reads
//!   append at the tail, the decoder consumes from the head, and the
//!   buffer compacts itself so steady-state traffic never reallocates;
//! * [`FrameCodec`] — the encoder/decoder, tolerant of arbitrary split
//!   points: `decode` returns `Ok(None)` until a whole frame is
//!   buffered and consumes nothing before that, and `encode` only ever
//!   appends — a partially flushed frame just stays in the buffer;
//! * [`Framed`] — the codec driven over a *blocking* stream, for the
//!   peers that read a socket on the calling thread ([`MuxClient`]'s
//!   callers, [`ChaosProxy`]'s relay, tests and bench fixtures). Because
//!   all state lives in its [`BytesBuf`], a read timeout at any byte
//!   boundary loses nothing: the next call resumes the same frame;
//! * [`MAX_REQUEST_FRAME`] / [`MAX_FRAME`] — the declared-length caps,
//!   one per direction;
//! * [`serve_burst`] / [`response_bytes`] — the wire payloads at the
//!   frame boundary: how every server turns a burst of request frames
//!   into response frames, including the answers for requests it cannot
//!   read.
//!
//! The cap is enforced *from the length prefix alone*, before any
//! payload accumulates, so a hostile peer cannot stage a huge
//! allocation by declaring an absurd length.
//!
//! [`MuxClient`]: crate::mux::MuxClient
//! [`ChaosProxy`]: crate::chaos::ChaosProxy

use crate::reactor::Reply;
use crate::NetError;
use bytes::Bytes;
use irs_core::wire::{Request, Response, Wire, WireError};
use std::io::{ErrorKind, Read, Write};

/// Largest frame a *server* accepts (the upload direction). The cap
/// bounds what any client can make a server stage per connection:
/// legitimate requests (a query, a signed claim or revocation) are a
/// few hundred bytes, and nothing a client sends approaches a filter
/// payload, so a malicious client cannot make every connection stage
/// [`MAX_FRAME`] bytes.
pub const MAX_REQUEST_FRAME: u32 = 2 << 20;

/// Largest frame anyone sends or a *client* accepts (the download
/// direction): filter snapshots and follower bootstrap snapshots
/// dominate, so allow 512 MiB. Servers encode responses with this cap.
pub const MAX_FRAME: u32 = 512 << 20;

/// A reusable byte buffer: append at the tail, consume from the head.
///
/// Internally a `Vec<u8>` plus a head cursor. Consumed bytes are not
/// moved immediately; the buffer compacts (shifts the live region to
/// the front) when the dead prefix dominates, amortizing the copy. The
/// capacity reached during a burst is kept for the connection's
/// lifetime — the "reusable buffer" half of the codec contract — up to
/// 1 MiB: one filter download must not pin hundreds of megabytes to an
/// otherwise idle connection.
#[derive(Default)]
pub struct BytesBuf {
    data: Vec<u8>,
    head: usize,
}

/// Capacity an emptied [`BytesBuf`] keeps for reuse.
const RETAINED_CAPACITY: usize = 1 << 20;

impl BytesBuf {
    /// An empty buffer (no allocation until the first append).
    pub fn new() -> BytesBuf {
        BytesBuf::default()
    }

    /// An empty buffer with `capacity` pre-allocated.
    pub fn with_capacity(capacity: usize) -> BytesBuf {
        BytesBuf {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Unconsumed bytes.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Whether everything appended has been consumed.
    pub fn is_empty(&self) -> bool {
        self.head == self.data.len()
    }

    /// The unconsumed region.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.head..]
    }

    /// Append `bytes` at the tail.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact_if_worthwhile();
        self.data.extend_from_slice(bytes);
    }

    /// Append up to `max` bytes with **one** `read` from `reader`;
    /// returns what the read returned (`Ok(0)` = end of stream). A failed
    /// read appends nothing.
    pub fn read_from<R: Read>(&mut self, reader: &mut R, max: usize) -> std::io::Result<usize> {
        self.compact_if_worthwhile();
        let len = self.data.len();
        self.data.resize(len + max, 0);
        let read = reader.read(&mut self.data[len..]);
        self.data.truncate(len + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Consume `n` bytes from the head (they must exist).
    pub fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.head += n;
        if self.is_empty() {
            // Cheap full reset: nothing live to shift.
            self.clear();
        }
    }

    /// Consume and return `n` bytes from the head as an owned [`Bytes`].
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split past end of buffer");
        let out = Bytes::copy_from_slice(&self.data[self.head..self.head + n]);
        self.advance(n);
        out
    }

    /// Drop everything, keeping the allocation (up to 1 MiB of it).
    pub fn clear(&mut self) {
        self.data.clear();
        self.data.shrink_to(RETAINED_CAPACITY);
        self.head = 0;
    }

    /// Shift the live region to the front when the dead prefix is both
    /// sizable and larger than the live region — O(live) copy paid at
    /// most every O(dead) consumed bytes, so appends stay amortized O(1).
    fn compact_if_worthwhile(&mut self) {
        if self.head >= 4096 && self.head > self.len() {
            self.data.copy_within(self.head.., 0);
            let live = self.len();
            self.data.truncate(live);
            self.head = 0;
        }
    }
}

impl std::fmt::Debug for BytesBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BytesBuf")
            .field("len", &self.len())
            .field("capacity", &self.data.capacity())
            .finish()
    }
}

/// u32-BE length prefix, 4 bytes.
pub const FRAME_HEADER: usize = 4;

/// Length-prefixed frame encoder/decoder with a declared-length cap.
///
/// Stateless beyond the cap: all buffering lives in the caller's
/// [`BytesBuf`]s, so one codec value serves every connection.
#[derive(Clone, Copy, Debug)]
pub struct FrameCodec {
    cap: u32,
}

impl FrameCodec {
    /// A codec rejecting frames whose declared length exceeds `cap`
    /// (servers decode with [`MAX_REQUEST_FRAME`]; clients decode, and
    /// everyone encodes, with [`MAX_FRAME`]).
    pub fn new(cap: u32) -> FrameCodec {
        FrameCodec { cap }
    }

    /// Append one frame (header + payload) to `out`. Fails without
    /// touching `out` if `payload` exceeds the cap — an oversized
    /// response is the handler's bug and must not desynchronize the
    /// stream.
    pub fn encode(&self, payload: &[u8], out: &mut BytesBuf) -> Result<(), NetError> {
        if payload.len() as u64 > self.cap as u64 {
            return Err(NetError::Frame("payload exceeds frame cap"));
        }
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        Ok(())
    }

    /// Try to decode one frame from the head of `buf`.
    ///
    /// `Ok(Some(payload))` consumes the frame; `Ok(None)` means more
    /// bytes are needed (nothing consumed — partial reads at any byte
    /// boundary are fine); `Err` means the stream is poisoned (declared
    /// length over the cap) and the connection must be dropped.
    pub fn decode(&self, buf: &mut BytesBuf) -> Result<Option<Bytes>, NetError> {
        let total = self.frame_len(buf.as_slice())?;
        if buf.len() < total {
            return Ok(None);
        }
        buf.advance(FRAME_HEADER);
        Ok(Some(buf.split_to(total - FRAME_HEADER)))
    }

    /// How many bytes `buf` still lacks before [`decode`](Self::decode)
    /// yields a frame (0 = one is ready) — as far as the bytes so far
    /// can tell: before the header is whole, that is the rest of the
    /// header. Same poisoning rule as `decode`.
    pub fn missing(&self, buf: &BytesBuf) -> Result<usize, NetError> {
        Ok(self.frame_len(buf.as_slice())?.saturating_sub(buf.len()))
    }

    /// Header + payload length of the frame at `head`, or just the
    /// header's while it is incomplete. The one place the length prefix
    /// is parsed.
    fn frame_len(&self, head: &[u8]) -> Result<usize, NetError> {
        let Some(prefix) = head.get(..FRAME_HEADER) else {
            return Ok(FRAME_HEADER);
        };
        let len = u32::from_be_bytes(prefix.try_into().expect("header-sized slice"));
        if len > self.cap {
            return Err(NetError::Frame("declared length exceeds frame cap"));
        }
        Ok(FRAME_HEADER + len as usize)
    }
}

/// First read of a frame asks for this much: a page of pipelined
/// status answers arrives in one `read`.
const READ_MIN: usize = 4 << 10;
/// No single read asks for more than this, however long the frame.
const READ_MAX: usize = 256 << 10;

/// [`FrameCodec`] over a blocking stream: whole frames in, whole frames
/// out, one reusable [`BytesBuf`] per direction.
///
/// Reads decode with the cap given to [`new`](Framed::new); writes
/// encode with [`MAX_FRAME`]. A read that fails with a timeout
/// ([`NetError::is_timeout`]) has consumed nothing from the frame in
/// progress — the bytes that did arrive wait in the buffer for the next
/// call.
pub struct Framed<S> {
    stream: S,
    codec: FrameCodec,
    rx: BytesBuf,
    tx: BytesBuf,
}

impl<S> Framed<S> {
    /// Frame `stream`, rejecting inbound frames declared longer than
    /// `read_cap`.
    pub fn new(stream: S, read_cap: u32) -> Framed<S> {
        Framed {
            stream,
            codec: FrameCodec::new(read_cap),
            rx: BytesBuf::new(),
            tx: BytesBuf::new(),
        }
    }

    /// The underlying stream (to set timeouts, shut down, or write raw
    /// bytes a fault injector wants on the wire).
    pub fn get_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

impl<S: Read> Framed<S> {
    /// Block until one whole frame has arrived. [`NetError::Closed`] on
    /// a clean EOF between frames, [`NetError::Frame`] on one inside a
    /// frame or on an over-cap length, [`NetError::Io`] otherwise.
    pub fn read_frame(&mut self) -> Result<Bytes, NetError> {
        loop {
            if let Some(frame) = self.read_step()? {
                return Ok(frame);
            }
        }
    }

    /// One step of [`read_frame`](Framed::read_frame): a frame already
    /// buffered, else at most one `read` — `Ok(None)` when the frame is
    /// still incomplete after it, so a caller with a deadline can look
    /// at the clock between reads of a frame that trickles in.
    pub(crate) fn read_step(&mut self) -> Result<Option<Bytes>, NetError> {
        if let Some(frame) = self.codec.decode(&mut self.rx)? {
            return Ok(Some(frame));
        }
        let want = self.codec.missing(&self.rx)?.clamp(READ_MIN, READ_MAX);
        match self.rx.read_from(&mut self.stream, want) {
            Ok(0) if self.rx.is_empty() => Err(NetError::Closed),
            Ok(0) => Err(NetError::Frame("stream ended mid-frame")),
            Ok(_) => self.codec.decode(&mut self.rx),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(NetError::Io(e)),
        }
    }
}

impl<S: Write> Framed<S> {
    /// Write `payload` as one frame (header and payload in one `write`).
    pub fn write_frame(&mut self, payload: &[u8]) -> Result<(), NetError> {
        self.tx.clear();
        FrameCodec::new(MAX_FRAME).encode(payload, &mut self.tx)?;
        self.stream.write_all(self.tx.as_slice())?;
        Ok(self.stream.flush()?)
    }
}

/// Encode `response` to payload bytes. A response the wire format
/// cannot represent (e.g. an error message longer than its u16 length
/// prefix) is downgraded to a short error reply instead of tearing down
/// the connection — the peer always gets *an* answer.
pub fn response_bytes(response: &Response) -> Bytes {
    match response.to_bytes() {
        Ok(b) => b,
        Err(e) => Response::Error {
            code: irs_ledger::codes::BAD_REQUEST,
            message: format!("unencodable response: {e}"),
        }
        .to_bytes()
        .expect("short error response always encodes"),
    }
}

/// A burst of request frames in, one reply each out, in frame order —
/// the body of every server's burst handler. `handle` sees only the
/// requests that decoded and answers each, in order: with a
/// [`Response`], or with a [`Reply`] when it may hold one.
///
/// A well-framed request whose tag this build has never heard of is a
/// *newer peer*, not a protocol violation: it is answered with a
/// structured [`Response::Unsupported`] so the client can degrade per
/// operation (the rolling-upgrade rule) instead of treating the whole
/// connection as poisoned. Anything else undecodable gets `BAD_REQUEST`.
pub fn serve_burst<A: Into<Reply>>(
    frames: Vec<Bytes>,
    handle: impl FnOnce(Vec<Request>) -> Vec<A>,
) -> Vec<Reply> {
    let mut requests = Vec::with_capacity(frames.len());
    let refused: Vec<Option<Response>> = frames
        .into_iter()
        .map(|frame| match Request::from_bytes(frame) {
            Ok(request) => {
                requests.push(request);
                None
            }
            Err(WireError::BadTag(tag)) => Some(Response::Unsupported { tag }),
            Err(e) => Some(Response::Error {
                code: irs_ledger::codes::BAD_REQUEST,
                message: format!("bad request: {e}"),
            }),
        })
        .collect();
    let mut handled = handle(requests).into_iter();
    let answers = refused.into_iter().map(|refusal| match refusal {
        Some(refusal) => Reply::from(refusal),
        None => handled
            .next()
            .expect("handler answers every request")
            .into(),
    });
    answers.collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn bytes_buf_append_consume_compact() {
        let mut b = BytesBuf::new();
        assert!(b.is_empty());
        b.extend_from_slice(b"hello world");
        assert_eq!(b.len(), 11);
        assert_eq!(b.split_to(6).as_ref(), b"hello ");
        assert_eq!(b.as_slice(), b"world");
        b.advance(5);
        assert!(b.is_empty());
        // Consuming everything resets the cursor without a copy.
        b.extend_from_slice(b"again");
        assert_eq!(b.as_slice(), b"again");

        // Force the compaction path: a large dead prefix must shift the
        // live region forward without corrupting it.
        let mut b = BytesBuf::new();
        b.extend_from_slice(&vec![0xAA; 8192]);
        b.extend_from_slice(b"tail");
        b.advance(8192);
        b.extend_from_slice(b"-more");
        assert_eq!(b.as_slice(), b"tail-more");
    }

    #[test]
    fn roundtrip_across_all_split_points() {
        let codec = FrameCodec::new(MAX_REQUEST_FRAME);
        let mut wire = BytesBuf::new();
        codec.encode(b"alpha", &mut wire).unwrap();
        codec.encode(b"", &mut wire).unwrap();
        codec.encode(&[0x42; 300], &mut wire).unwrap();
        let stream: Vec<u8> = wire.as_slice().to_vec();

        // Feed the stream one byte at a time: every prefix either
        // decodes a completed frame or asks for more — never errors.
        let mut rx = BytesBuf::new();
        let mut frames: Vec<Bytes> = Vec::new();
        for &byte in &stream {
            rx.extend_from_slice(&[byte]);
            while let Some(frame) = codec.decode(&mut rx).unwrap() {
                frames.push(frame);
            }
        }
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].as_ref(), b"alpha");
        assert!(frames[1].is_empty());
        assert_eq!(frames[2].len(), 300);
        assert!(rx.is_empty());
    }

    #[test]
    fn oversized_declared_length_poisons() {
        let codec = FrameCodec::new(1024);
        let mut rx = BytesBuf::new();
        rx.extend_from_slice(&2048u32.to_be_bytes());
        assert!(matches!(codec.decode(&mut rx), Err(NetError::Frame(_))));
    }

    #[test]
    fn oversized_payload_refused_at_encode() {
        let codec = FrameCodec::new(8);
        let mut out = BytesBuf::new();
        assert!(codec.encode(&[0u8; 9], &mut out).is_err());
        assert!(out.is_empty(), "failed encode must not emit partial bytes");
        codec.encode(&[0u8; 8], &mut out).unwrap();
        assert_eq!(out.len(), FRAME_HEADER + 8);
    }

    #[test]
    fn emptied_buffer_releases_burst_capacity() {
        let mut b = BytesBuf::new();
        b.extend_from_slice(&vec![7u8; 4 * RETAINED_CAPACITY]);
        b.advance(4 * RETAINED_CAPACITY);
        assert!(b.data.capacity() <= RETAINED_CAPACITY, "{b:?}");
        // Ordinary traffic keeps its allocation across the reset.
        b.extend_from_slice(&[7u8; 8192]);
        let kept = b.data.capacity();
        b.advance(8192);
        assert_eq!(b.data.capacity(), kept);
    }

    /// A framed byte stream: `payloads`, each behind its header.
    fn framed_bytes(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Framed::new(Vec::new(), MAX_FRAME);
        for p in payloads {
            out.write_frame(p).unwrap();
        }
        out.stream
    }

    #[test]
    fn framed_roundtrip_then_clean_eof() {
        let wire = framed_bytes(&[b"hello", b"", &[0xff; 1000]]);
        let mut rx = Framed::new(Cursor::new(wire), MAX_FRAME);
        assert_eq!(rx.read_frame().unwrap().as_ref(), b"hello");
        assert!(rx.read_frame().unwrap().is_empty());
        assert_eq!(rx.read_frame().unwrap().len(), 1000);
        assert!(matches!(rx.read_frame(), Err(NetError::Closed)));
    }

    #[test]
    fn framed_detects_a_stream_that_ends_mid_frame() {
        // Inside the payload, and inside the header itself.
        let mut cut_payload = 10u32.to_be_bytes().to_vec();
        cut_payload.extend_from_slice(b"only5");
        for wire in [cut_payload, vec![0u8, 0]] {
            let mut rx = Framed::new(Cursor::new(wire), MAX_FRAME);
            assert!(matches!(rx.read_frame(), Err(NetError::Frame(_))));
        }
    }

    #[test]
    fn request_cap_rejects_what_the_payload_cap_accepts() {
        // A declared length between the two caps: fine for a client
        // reading a filter, rejected by a server reading a request —
        // from the header alone, before any payload is staged.
        let header = (MAX_REQUEST_FRAME + 1).to_be_bytes().to_vec();
        let mut server = Framed::new(Cursor::new(header.clone()), MAX_REQUEST_FRAME);
        assert!(matches!(
            server.read_frame(),
            Err(NetError::Frame("declared length exceeds frame cap"))
        ));
        // The same header passes the large cap (then fails on the missing
        // payload, which is the expected path for a truncated stream).
        let mut client = Framed::new(Cursor::new(header), MAX_FRAME);
        assert!(matches!(
            client.read_frame(),
            Err(NetError::Frame("stream ended mid-frame"))
        ));
        // Request-sized frames fit the request cap.
        let wire = framed_bytes(&[&[0u8; 1024]]);
        let mut server = Framed::new(Cursor::new(wire), MAX_REQUEST_FRAME);
        assert_eq!(server.read_frame().unwrap().len(), 1024);
    }

    /// A socket whose read timeout fires before every single byte.
    struct Dribble {
        wire: Vec<u8>,
        at: usize,
        timed_out: bool,
    }

    impl Read for Dribble {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if !std::mem::replace(&mut self.timed_out, true) {
                // Linux reports SO_RCVTIMEO as WouldBlock, others TimedOut.
                let kind = [ErrorKind::WouldBlock, ErrorKind::TimedOut][self.at % 2];
                return Err(kind.into());
            }
            self.timed_out = false;
            let Some(&byte) = self.wire.get(self.at) else {
                return Ok(0);
            };
            buf[0] = byte;
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn timeout_at_every_byte_boundary_loses_nothing() {
        let payloads: [&[u8]; 3] = [b"seventy bytes of status", b"", &[0x42; 300]];
        let wire = framed_bytes(&payloads);
        let bytes = wire.len();
        let mut rx = Framed::new(
            Dribble {
                wire,
                at: 0,
                timed_out: false,
            },
            MAX_FRAME,
        );
        let (mut frames, mut timeouts) = (Vec::new(), 0);
        loop {
            match rx.read_frame() {
                Ok(frame) => frames.push(frame),
                Err(e) if e.is_timeout() => timeouts += 1,
                Err(NetError::Closed) => break,
                Err(e) => panic!("a timeout must not corrupt the stream: {e}"),
            }
        }
        // One timeout before every byte of header and payload (and one
        // before the EOF), and every frame still came out whole.
        assert_eq!(timeouts, bytes + 1);
        assert_eq!(frames.len(), payloads.len());
        for (frame, payload) in frames.iter().zip(payloads) {
            assert_eq!(frame.as_ref(), payload);
        }
    }

    #[test]
    fn serve_burst_answers_what_it_cannot_decode_in_place() {
        let ping = Request::Ping.to_bytes().unwrap();
        // Protocol version 1, then a tag far beyond anything assigned.
        let frames: [&[u8]; 6] = [&ping, &[1, 0xee], b"xx", &ping, &[0xff; 100], b""];
        let frames = frames.iter().map(|f| Bytes::copy_from_slice(f)).collect();
        let out = serve_burst(frames, |requests| {
            // Only decodable requests reach the handler, in order.
            assert_eq!(requests, [Request::Ping, Request::Ping]);
            vec![Response::Pong, Response::Pong]
        });
        let decode = |reply| match reply {
            Reply::Ready(payload) => Response::from_bytes(payload).unwrap(),
            Reply::Held(_) => panic!("nothing here is held"),
        };
        let out: Vec<Response> = out.into_iter().map(decode).collect();
        assert_eq!(out[0], Response::Pong);
        assert_eq!(out[1], Response::Unsupported { tag: 0xee });
        assert_eq!(out[3], Response::Pong);
        for garbage in [&out[2], &out[4], &out[5]] {
            let Response::Error { code, .. } = garbage else {
                panic!("garbage must be refused with an error");
            };
            assert_eq!(*code, irs_ledger::codes::BAD_REQUEST);
        }
    }
}
