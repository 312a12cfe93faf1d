//! The multiplexing client: pipelined requests over one connection.
//!
//! A reactor server answers every frame *in request order* on a
//! connection (the pipelining contract, see [`crate::reactor`]), which
//! lets one socket carry any number of overlapping exchanges:
//! [`MuxClient`] assigns each call a correlation id, appends its frame
//! to the shared stream, and a single reader thread matches arriving
//! responses back to waiting callers by that order — slot *k* in the
//! FIFO of in-flight correlation ids owns the *k*-th response frame. A
//! group ([`MuxClient::send_all`]) takes consecutive slots and puts all
//! its frames on the wire in one `write`, so a page's misses cost one
//! exchange, not one each; the caller collects the answers later
//! ([`Sent::wait`]), so several groups can be in flight at once.
//!
//! Failure semantics: any transport error is fatal to the connection
//! (ordered correlation cannot resynchronize a torn stream), every
//! in-flight and future call fails with [`NetError::ConnectionLost`],
//! and the owner redials. A *slow* response is not an error: the reader
//! wakes on a short read timeout to notice shutdown, and [`Framed`]
//! keeps whatever part of a frame has arrived across those wake-ups. A
//! caller whose deadline expires abandons its slot; the reader still
//! consumes the late response to keep the FIFO aligned, then discards it.

use crate::codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME};
use crate::NetError;
use irs_core::wire::{Request, Response, Wire};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a waiting caller eventually observes in its slot.
enum SlotState {
    /// Response not yet arrived.
    Waiting,
    /// Response payload delivered by the reader.
    Done(bytes::Bytes),
    /// The connection died before the response arrived.
    Failed,
    /// The caller gave up (deadline); the reader will discard the
    /// response when it arrives.
    Abandoned,
}

/// One in-flight call: the rendezvous cell its caller waits on; its
/// place in the pending FIFO is its correlation id. The cell uses std's
/// `Mutex`/`Condvar` pair (the vendored `parking_lot` ships no condvar).
struct Slot {
    state: std::sync::Mutex<SlotState>,
    ready: std::sync::Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: std::sync::Mutex::new(SlotState::Waiting),
            ready: std::sync::Condvar::new(),
        })
    }

    /// Rendezvous with the reader: block until the response lands, the
    /// connection dies, or `deadline` passes.
    fn wait(&self, deadline: Instant) -> Result<Response, NetError> {
        let mut state = self.state.lock().expect("slot lock poisoned");
        loop {
            match &*state {
                SlotState::Done(bytes) => {
                    let bytes = bytes.clone();
                    drop(state);
                    return Ok(Response::from_bytes(bytes)?);
                }
                SlotState::Failed => return Err(NetError::ConnectionLost),
                SlotState::Abandoned => unreachable!("only the caller abandons"),
                SlotState::Waiting => {
                    let now = Instant::now();
                    if now >= deadline {
                        // Leave the slot in the FIFO so correlation
                        // stays aligned; the reader discards the late
                        // response.
                        *state = SlotState::Abandoned;
                        return Err(NetError::DeadlineExceeded);
                    }
                    state = self
                        .ready
                        .wait_timeout(state, deadline - now)
                        .expect("slot lock poisoned")
                        .0;
                }
            }
        }
    }

    fn fill(&self, state: SlotState) {
        let mut s = self.state.lock().expect("slot lock poisoned");
        if matches!(*s, SlotState::Waiting) {
            *s = state;
            self.ready.notify_all();
        }
    }
}

/// State shared between callers and the reader thread.
struct Shared {
    /// In-flight correlation slots, oldest first. The head owns the
    /// next response frame off the wire.
    pending: Mutex<VecDeque<Arc<Slot>>>,
    /// Set on the first transport error; the connection is unusable.
    dead: AtomicBool,
    /// Set by [`MuxClient::drop`] for a clean reader exit.
    stop: AtomicBool,
}

impl Shared {
    /// Mark the connection dead and fail every in-flight slot.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let mut pending = self.pending.lock();
        for slot in pending.drain(..) {
            slot.fill(SlotState::Failed);
        }
    }
}

/// A thread-safe client multiplexing pipelined requests over one TCP
/// connection with FIFO correlation ids. All methods take `&self`;
/// callers on any number of threads share the socket.
pub struct MuxClient {
    addr: SocketAddr,
    /// Write half: the stream plus the codec scratch buffer. Pushing a
    /// slot and writing its frame happen under this one lock, which is
    /// what makes slot order equal wire order.
    writer: Mutex<(TcpStream, BytesBuf)>,
    shared: Arc<Shared>,
    reader: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl MuxClient {
    /// Connect with a 5 s dial timeout.
    pub fn connect(addr: SocketAddr) -> Result<MuxClient, NetError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connect with an explicit dial timeout.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<MuxClient, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let read_half = stream.try_clone()?;
        // Short read timeout: the reader wakes regularly to notice the
        // stop flag even on an idle connection.
        read_half.set_read_timeout(Some(Duration::from_millis(250)))?;

        let shared = Arc::new(Shared {
            pending: Mutex::new(VecDeque::new()),
            dead: AtomicBool::new(false),
            stop: AtomicBool::new(false),
        });
        let reader = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("irs-mux-reader".into())
                .spawn(move || reader_loop(read_half, shared))
                .map_err(NetError::Io)?
        };
        Ok(MuxClient {
            addr,
            writer: Mutex::new((stream, BytesBuf::new())),
            shared,
            reader: Mutex::new(Some(reader)),
        })
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the connection has been poisoned by a transport error.
    pub fn is_dead(&self) -> bool {
        self.shared.dead.load(Ordering::SeqCst)
    }

    /// One pipelined exchange: enqueue the request, wait (until
    /// `deadline`) for its correlated response. Concurrent callers
    /// interleave freely; responses are matched by FIFO correlation.
    ///
    /// [`NetError::ConnectionLost`] poisons the whole client (the owner
    /// must redial); [`NetError::DeadlineExceeded`] abandons only this
    /// call — the connection stays usable.
    pub fn call(&self, request: &Request, deadline: Instant) -> Result<Response, NetError> {
        let sent = self.send_all(std::slice::from_ref(request), deadline);
        let mut answers = sent.wait();
        answers.pop().expect("one answer per request")
    }

    /// Put a group of pipelined exchanges on the wire: every request
    /// takes a slot and all frames go out in **one `write`** under the
    /// writer lock — the server answers such a burst in one turn — and
    /// return without waiting; [`Sent::wait`] collects the answers. One
    /// answer per request, in order, each failing on its own: a request
    /// that cannot be encoded never touches the stream, a deadline
    /// abandons only the slots still empty when they are waited on, and a
    /// dead connection fails exactly the unanswered ones.
    pub fn send_all(&self, requests: &[Request], deadline: Instant) -> Sent {
        // Encode before touching the stream: an unencodable request is
        // the caller's bug and must not poison a healthy connection.
        let payloads: Vec<Result<bytes::Bytes, NetError>> =
            requests.iter().map(|r| Ok(r.to_bytes()?)).collect();
        let payloads = payloads.into_iter();
        let refuse = if self.is_dead() {
            Some(NetError::ConnectionLost)
        } else if Instant::now() >= deadline {
            Some(NetError::DeadlineExceeded)
        } else {
            None
        };
        if let Some(e) = refuse {
            let slots = payloads.map(|p| p.and(Err(e.replicate()))).collect();
            return Sent { slots, deadline };
        }

        let slots: Vec<Result<Arc<Slot>, NetError>> = {
            // Slot pushes and the frame write are one atomic step: wire
            // order is exactly pending-queue order.
            let mut writer = self.writer.lock();
            let (stream, scratch) = &mut *writer;
            scratch.clear();
            let slots: Vec<_> = payloads
                .map(|payload| {
                    FrameCodec::new(MAX_FRAME).encode(&payload?, scratch)?;
                    Ok(Slot::new())
                })
                .collect();
            let mut pending = self.shared.pending.lock();
            pending.extend(slots.iter().flatten().cloned());
            drop(pending);
            if stream.write_all(scratch.as_slice()).is_err() {
                drop(writer);
                // Fails every slot just pushed along with the rest.
                self.shared.poison();
            }
            slots
        };
        Sent { slots, deadline }
    }
}

/// A group [`MuxClient::send_all`] put on the wire, not yet collected.
/// Dropping it unwaited leaves its slots in the FIFO: the reader still
/// consumes their responses, so later calls get their own answers.
#[must_use = "a sent group must be waited"]
pub struct Sent {
    slots: Vec<Result<Arc<Slot>, NetError>>,
    deadline: Instant,
}

impl Sent {
    /// The answers, in request order. A slot already filled answers
    /// whatever the clock says; only one still empty at `deadline`
    /// is abandoned.
    pub fn wait(self) -> Vec<Result<Response, NetError>> {
        // Responses arrive in slot order, so waiting on the last slot
        // first parks this thread once for the whole group.
        let deadline = self.deadline;
        let waited = self.slots.into_iter().rev();
        let mut answers: Vec<_> = waited.map(|s| s?.wait(deadline)).collect();
        answers.reverse();
        answers
    }
}

impl Drop for MuxClient {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.poison();
        // Unblock the reader promptly rather than waiting out its read
        // timeout.
        if let Some((stream, _)) = self.writer.try_lock().as_deref() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        if let Some(reader) = self.reader.lock().take() {
            let _ = reader.join();
        }
    }
}

/// The reader thread: pull response frames off the wire, deliver each
/// to the oldest in-flight slot.
fn reader_loop(stream: TcpStream, shared: Arc<Shared>) {
    let mut frames = Framed::new(stream, MAX_FRAME);
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        match frames.read_frame() {
            Ok(frame) => {
                let slot = shared.pending.lock().pop_front();
                match slot {
                    // An abandoned slot ignores the fill: the frame is
                    // consumed (keeping the FIFO aligned) and dropped.
                    Some(slot) => slot.fill(SlotState::Done(frame)),
                    None => {
                        // A response nobody asked for: the server and
                        // client disagree about the stream state.
                        shared.poison();
                        return;
                    }
                }
            }
            // Idle tick (or a response still trickling in) — loop to
            // re-check the stop flag; nothing read so far is lost.
            Err(e) if e.is_timeout() => {}
            Err(_) => {
                shared.poison();
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reactor::{per_frame, Reactor, ReactorConfig};
    use crate::server::poll_until;
    use irs_core::wire::Wire;
    use std::sync::atomic::AtomicUsize;

    /// A reactor echoing the decoded request back as a `Pong`/`Error`
    /// pair: `Ping` → `Pong`, anything else → an error carrying a
    /// per-connection sequence number, so tests can assert correlation.
    fn pong_reactor() -> crate::reactor::ReactorHandle {
        let seq = Arc::new(AtomicUsize::new(0));
        Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
            per_frame(move |frame| {
                let n = seq.fetch_add(1, Ordering::SeqCst);
                let response = match Request::from_bytes(frame) {
                    Ok(Request::Ping) => Response::Pong,
                    _ => Response::Error {
                        code: 400,
                        message: format!("seq {n}"),
                    },
                };
                crate::codec::response_bytes(&response)
            }),
        )
        .unwrap()
    }

    fn far() -> Instant {
        Instant::now() + Duration::from_secs(10)
    }

    #[test]
    fn single_call_roundtrip() {
        let r = pong_reactor();
        let mux = MuxClient::connect(r.addr()).unwrap();
        assert_eq!(mux.call(&Request::Ping, far()).unwrap(), Response::Pong);
        assert!(!mux.is_dead());
        drop(mux);
        r.shutdown();
    }

    #[test]
    fn concurrent_callers_multiplex_one_connection() {
        let r = pong_reactor();
        let mux = Arc::new(MuxClient::connect(r.addr()).unwrap());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let mux = mux.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(mux.call(&Request::Ping, far()).unwrap(), Response::Pong);
                    }
                });
            }
        });
        // One connection carried all 400 calls.
        assert!(
            poll_until(Duration::from_secs(5), || r.live_connections() == 1),
            "all calls must share the single connection"
        );
        drop(mux);
        r.shutdown();
    }

    #[test]
    fn deadline_abandons_slot_without_poisoning() {
        // A server that answers only after a long stall.
        let r = Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
            per_frame(|_frame| {
                std::thread::sleep(Duration::from_millis(400));
                crate::codec::response_bytes(&Response::Pong)
            }),
        )
        .unwrap();
        let mux = MuxClient::connect(r.addr()).unwrap();
        let started = Instant::now();
        let err = mux
            .call(&Request::Ping, Instant::now() + Duration::from_millis(50))
            .unwrap_err();
        assert!(matches!(err, NetError::DeadlineExceeded), "{err}");
        assert!(started.elapsed() < Duration::from_millis(300));
        // The connection survives: the late response is discarded and a
        // fresh call (after the stall clears) succeeds.
        assert!(!mux.is_dead());
        assert_eq!(mux.call(&Request::Ping, far()).unwrap(), Response::Pong);
        drop(mux);
        r.shutdown();
    }

    #[test]
    fn server_death_fails_all_in_flight() {
        let served = Arc::new(AtomicUsize::new(0));
        let seen = served.clone();
        let r = Reactor::bind(
            "127.0.0.1:0",
            ReactorConfig {
                workers: 1,
                ..ReactorConfig::default()
            },
            per_frame(move |_frame| {
                seen.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(200));
                crate::codec::response_bytes(&Response::Pong)
            }),
        )
        .unwrap();
        let mux = Arc::new(MuxClient::connect(r.addr()).unwrap());
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let mux = mux.clone();
                std::thread::spawn(move || mux.call(&Request::Ping, far()))
            })
            .collect();
        // Once the calls are on the wire, kill the server.
        let on_the_wire = || served.load(Ordering::SeqCst) > 0;
        assert!(poll_until(Duration::from_secs(5), on_the_wire));
        r.shutdown();
        for c in callers {
            let result = c.join().unwrap();
            assert!(
                matches!(result, Err(NetError::ConnectionLost)) || result.is_ok(),
                "in-flight calls must fail with ConnectionLost (or have completed)"
            );
        }
        // The client is poisoned for every further call.
        assert!(poll_until(Duration::from_secs(5), || mux.is_dead()));
        assert!(matches!(
            mux.call(&Request::Ping, far()),
            Err(NetError::ConnectionLost)
        ));
    }

    /// A response that arrives in two pieces with a pause longer than
    /// the reader's 250 ms wake-up between them is *slow*, not broken:
    /// the call completes and the connection stays healthy. (Before the
    /// reader went through [`Framed`], the wake-up dropped the half
    /// frame already read and parsed payload bytes as the next length.)
    #[test]
    fn slow_response_split_across_a_reader_timeout_is_not_fatal() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let slow = Response::Error {
            code: 503,
            message: "x".repeat(64),
        };
        let payload = crate::codec::response_bytes(&slow);
        assert_eq!(payload.len(), 70);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = Framed::new(stream, crate::codec::MAX_REQUEST_FRAME);
            peer.read_frame().unwrap();
            // Header plus half the payload, a 400 ms gap, then the rest.
            let mut wire = BytesBuf::new();
            FrameCodec::new(MAX_FRAME)
                .encode(&payload, &mut wire)
                .unwrap();
            let (head, tail) = wire.as_slice().split_at(4 + payload.len() / 2);
            peer.get_mut().write_all(head).unwrap();
            std::thread::sleep(Duration::from_millis(400));
            peer.get_mut().write_all(tail).unwrap();
            // The same connection then serves an ordinary exchange.
            peer.read_frame().unwrap();
            peer.write_frame(&crate::codec::response_bytes(&Response::Pong))
                .unwrap();
        });
        let mux = MuxClient::connect(addr).unwrap();
        assert_eq!(mux.call(&Request::Ping, far()).unwrap(), slow);
        assert!(!mux.is_dead(), "a slow response must not poison the client");
        assert_eq!(mux.call(&Request::Ping, far()).unwrap(), Response::Pong);
        server.join().unwrap();
    }

    #[test]
    fn expired_deadline_fails_without_touching_the_wire() {
        let r = pong_reactor();
        let mux = MuxClient::connect(r.addr()).unwrap();
        let err = mux
            .call(&Request::Ping, Instant::now() - Duration::from_millis(1))
            .unwrap_err();
        assert!(matches!(err, NetError::DeadlineExceeded));
        // The server's first frame is the next call's, and its answer
        // lands there: nothing went out, and no slot waits ahead of it.
        let next = mux.call(&Request::Metrics, far()).unwrap();
        assert_eq!(
            next,
            Response::Error {
                code: 400,
                message: "seq 0".into()
            }
        );
        drop(mux);
        r.shutdown();
    }

    /// A raw peer for the group tests: reads `reads` request frames,
    /// answers the first `prompt` at once (`seq n`), the rest — if
    /// `late` — after a 300 ms stall, then serves one more exchange.
    fn scripted_peer(reads: usize, prompt: usize, late: bool) -> (SocketAddr, impl FnOnce()) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let seq = |n: usize| {
            crate::codec::response_bytes(&Response::Error {
                code: 400,
                message: format!("seq {n}"),
            })
        };
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = Framed::new(stream, crate::codec::MAX_REQUEST_FRAME);
            (0..reads).for_each(|_| drop(peer.read_frame().unwrap()));
            (0..prompt).for_each(|n| peer.write_frame(&seq(n)).unwrap());
            if late {
                std::thread::sleep(Duration::from_millis(300));
                (prompt..reads).for_each(|n| peer.write_frame(&seq(n)).unwrap());
                peer.read_frame().unwrap();
                peer.write_frame(&seq(reads)).unwrap();
            }
        });
        (addr, move || server.join().unwrap())
    }

    fn seq_of(answer: &Result<Response, NetError>) -> &str {
        match answer {
            Ok(Response::Error { message, .. }) => message,
            other => panic!("expected a seq answer, got {other:?}"),
        }
    }

    /// Slots abandoned at the group's deadline stay in the FIFO: their
    /// late responses are discarded and a later call gets its own.
    #[test]
    fn group_deadline_abandons_only_unanswered_slots_and_keeps_the_fifo_aligned() {
        let (addr, join) = scripted_peer(4, 2, true);
        let mux = MuxClient::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_millis(100);
        let pings = [Request::Ping, Request::Ping, Request::Ping, Request::Ping];
        let answers = mux.send_all(&pings, deadline).wait();
        assert_eq!(
            (seq_of(&answers[0]), seq_of(&answers[1])),
            ("seq 0", "seq 1")
        );
        for late in &answers[2..] {
            assert!(matches!(late, Err(NetError::DeadlineExceeded)), "{late:?}");
        }
        assert!(!mux.is_dead());
        assert_eq!(seq_of(&mux.call(&Request::Ping, far())), "seq 4");
        join();
    }

    /// The server dying mid-group fails exactly the unanswered items.
    #[test]
    fn group_server_death_fails_exactly_the_unanswered_items() {
        let (addr, join) = scripted_peer(4, 2, false);
        let mux = MuxClient::connect(addr).unwrap();
        let pings = [Request::Ping, Request::Ping, Request::Ping, Request::Ping];
        let answers = mux.send_all(&pings, far()).wait();
        join();
        assert_eq!(
            (seq_of(&answers[0]), seq_of(&answers[1])),
            ("seq 0", "seq 1")
        );
        for lost in &answers[2..] {
            assert!(matches!(lost, Err(NetError::ConnectionLost)), "{lost:?}");
        }
        assert!(mux.is_dead());
    }
}
