//! The multiplexing client: pipelined requests over one connection.
//!
//! A reactor server answers every frame *in request order* on a
//! connection (the pipelining contract, see [`crate::reactor`]), which
//! lets one socket carry any number of overlapping exchanges:
//! [`MuxClient`] gives each call a slot at the back of a FIFO of
//! in-flight slots and appends its frame to the shared stream — slot *k*
//! owns the *k*-th response frame, so its place in the FIFO is its
//! correlation id. A group ([`MuxClient::send_all`]) takes consecutive
//! slots and puts all its frames on the wire in one `write`, so a page's
//! misses cost one exchange, not one each; the caller collects the
//! answers later ([`Sent::wait`]), so several groups can be in flight at
//! once.
//!
//! Who reads: the callers, not a thread of the client's own. A caller
//! waiting for an answer that finds the read half free takes it and reads
//! frames, filling the FIFO head's slot with each — its own answer or
//! another caller's — until its own slot is filled or its deadline
//! passes. It then releases the read half and nudges the latest caller
//! still waiting, which takes over reading (the leader/follower
//! hand-off); the nudge sticks to that caller's slot, so one not yet
//! asleep cannot miss it. A caller whose answer someone else reads sleeps
//! on its slot until the reader fills it. An exchange with one caller in
//! flight therefore wakes one thread — the caller, out of its own
//! `read` — and a group's caller, waiting on its last slot first, reads
//! the whole group in one go.
//!
//! Failure semantics: any transport error is fatal to the connection
//! (ordered correlation cannot resynchronize a torn stream): the socket
//! is shut down, waking a caller blocked reading it, every in-flight and
//! future call fails with [`NetError::ConnectionLost`], and the owner
//! redials. A *slow* response is not an error: a reader looks at its
//! deadline between `read`s, even inside a frame that trickles in, and
//! [`Framed`] keeps whatever part of a frame has arrived for whoever
//! reads next. A caller whose deadline
//! passes first drains, without blocking, the whole frames already
//! readable — an answer that arrived in time is kept, however late it is
//! collected — then abandons its slot; the next reader consumes the late
//! response to keep the FIFO aligned and discards it.
//!
//! An idle connection has no reader, so nothing would notice the server
//! closing it: with no answer owed, [`MuxClient::is_dead`] probes the
//! socket without blocking, and the owner redials before it writes.

use crate::codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME};
use crate::NetError;
use bytes::Bytes;
use irs_core::wire::{Request, Response, Wire};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What a slot holds.
enum Answer {
    /// Response not yet arrived.
    Pending,
    /// Response payload, delivered by whoever read it.
    Done(Bytes),
    /// The connection died before the response arrived.
    Failed,
    /// The caller gave up (deadline) or took its answer: a late
    /// response is discarded.
    Abandoned,
}

/// A slot's answer and where its caller stands, under the slot's lock.
struct Cell {
    answer: Answer,
    /// The caller is in [`Sent::wait`] on this slot, so it acts on a nudge.
    waiting: bool,
    /// The caller sleeps on the slot's condvar.
    parked: bool,
    /// The read half was released while the caller waited: it should
    /// try to take it.
    nudged: bool,
}

impl Cell {
    /// The answer, if one has arrived; the caller stops waiting.
    fn take(&mut self) -> Option<Result<Bytes, NetError>> {
        let answer = match std::mem::replace(&mut self.answer, Answer::Abandoned) {
            Answer::Done(bytes) => Ok(bytes),
            Answer::Failed => Err(NetError::ConnectionLost),
            unanswered => {
                self.answer = unanswered;
                return None;
            }
        };
        self.waiting = false;
        Some(answer)
    }
}

/// How a caller's sleep on its slot ended.
enum Woke {
    Answered(Result<Bytes, NetError>),
    /// The read half is free: go and read.
    Nudged,
    Expired,
}

/// One in-flight call: the rendezvous cell its caller waits on; its
/// place in the pending FIFO is its correlation id. The cell uses std's
/// `Mutex`/`Condvar` pair (the vendored `parking_lot` ships no condvar).
struct Slot {
    cell: std::sync::Mutex<Cell>,
    ready: std::sync::Condvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            cell: std::sync::Mutex::new(Cell {
                answer: Answer::Pending,
                waiting: false,
                parked: false,
                nudged: false,
            }),
            ready: std::sync::Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Cell> {
        self.cell.lock().expect("slot lock poisoned")
    }

    /// Deliver `answer`, waking the caller if it sleeps. A slot that
    /// already has one (a failed or abandoned one) ignores it.
    fn fill(&self, answer: Answer) {
        let mut cell = self.lock();
        if matches!(cell.answer, Answer::Pending) {
            cell.answer = answer;
            if cell.parked {
                self.ready.notify_one();
            }
        }
    }

    /// Hand the read half to this slot's caller; `false` when no caller
    /// is waiting on it.
    fn nudge(&self) -> bool {
        let mut cell = self.lock();
        let waiting = cell.waiting && matches!(cell.answer, Answer::Pending);
        if waiting {
            cell.nudged = true;
            if cell.parked {
                self.ready.notify_one();
            }
        }
        waiting
    }

    fn unanswered(&self) -> bool {
        matches!(self.lock().answer, Answer::Pending)
    }

    /// Start waiting: the answer if it is already here, else the caller
    /// counts as waiting from now on, nudges included.
    fn enter(&self) -> Option<Result<Bytes, NetError>> {
        let mut cell = self.lock();
        let answer = cell.take();
        cell.waiting = answer.is_none();
        answer
    }

    /// Sleep until the slot is filled, the caller is nudged, or
    /// `deadline` passes.
    fn park(&self, deadline: Instant) -> Woke {
        let mut cell = self.lock();
        loop {
            if let Some(answer) = cell.take() {
                return Woke::Answered(answer);
            }
            let now = Instant::now();
            if now >= deadline {
                return Woke::Expired;
            }
            if std::mem::take(&mut cell.nudged) {
                return Woke::Nudged;
            }
            cell.parked = true;
            cell = self
                .ready
                .wait_timeout(cell, deadline - now)
                .expect("slot lock poisoned")
                .0;
            cell.parked = false;
        }
    }

    /// Give up at the deadline — unless the answer landed meanwhile. The
    /// slot stays in the FIFO so correlation stays aligned.
    fn abandon(&self) -> Result<Bytes, NetError> {
        let mut cell = self.lock();
        if let Some(answer) = cell.take() {
            return answer;
        }
        cell.answer = Answer::Abandoned;
        cell.waiting = false;
        Err(NetError::DeadlineExceeded)
    }
}

/// A read never waits less than this (std refuses a zero timeout).
const MIN_ARM: Duration = Duration::from_millis(1);
/// How far a read may outlast its reader's deadline before the receive
/// timeout is re-armed: callers with a fixed I/O budget then never pay
/// a `setsockopt` per exchange.
const ARM_SLACK: Duration = Duration::from_millis(1);

/// The read half, and the receive timeout set on it.
struct Reader {
    frames: Framed<TcpStream>,
    /// `SO_RCVTIMEO` as last set.
    armed: Duration,
    /// The last read ran out that timeout: set the next reader's own.
    lapsed: bool,
}

impl Reader {
    /// Bound the next read by `remaining` (to within [`ARM_SLACK`]).
    /// The timeout is lowered for a reader with less time than it
    /// allows, and raised only after a read ran it out.
    fn arm(&mut self, remaining: Duration) -> std::io::Result<()> {
        let want = remaining.max(MIN_ARM);
        if self.lapsed || want + ARM_SLACK < self.armed {
            self.frames.get_mut().set_read_timeout(Some(want))?;
            (self.armed, self.lapsed) = (want, false);
        }
        Ok(())
    }
}

/// One connection: what [`MuxClient`] and its groups still unwaited
/// share.
struct Conn {
    /// Write half. A write holds `writer`; a shutdown needs no lock.
    stream: TcpStream,
    /// The write half's codec scratch buffer. Pushing a slot and writing
    /// its frame happen under this one lock, which is what makes slot
    /// order equal wire order.
    writer: Mutex<BytesBuf>,
    /// Read half, held by whichever caller is reading.
    reader: Mutex<Reader>,
    /// In-flight slots, oldest first. The head owns the next response
    /// frame off the wire.
    pending: Mutex<VecDeque<Arc<Slot>>>,
    /// Set on the first transport error; the connection is unusable.
    dead: AtomicBool,
}

impl Conn {
    fn poisoned(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Mark the connection dead, shut the socket down — a caller blocked
    /// reading it wakes now — and fail every in-flight slot.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let mut pending = self.pending.lock();
        for slot in pending.drain(..) {
            slot.fill(Answer::Failed);
        }
    }

    /// `slot`'s answer, by `deadline`: read it — and whatever precedes it
    /// — whenever the read half is free, else sleep until the reader
    /// fills the slot or hands the read half over.
    fn wait(&self, slot: &Slot, deadline: Instant) -> Result<Response, NetError> {
        let answer = match slot.enter() {
            Some(answer) => answer,
            None => loop {
                self.try_read(Some(slot), |reader| self.read_until(reader, slot, deadline));
                match slot.park(deadline) {
                    Woke::Answered(answer) => break answer,
                    Woke::Nudged => {}
                    Woke::Expired => {
                        self.try_read(Some(slot), |reader| self.drain(reader));
                        break slot.abandon();
                    }
                }
            },
        };
        Ok(Response::from_bytes(answer?)?)
    }

    /// Run `read` holding the read half if nobody else holds it, then
    /// nudge the latest caller still waiting — other than `own`, the
    /// releasing caller's slot — so somebody reads on.
    fn try_read(&self, own: Option<&Slot>, read: impl FnOnce(&mut Reader)) {
        let Some(mut reader) = self.reader.try_lock() else {
            return;
        };
        read(&mut reader);
        drop(reader);
        for slot in self.pending.lock().iter().rev() {
            let mine = own.is_some_and(|own| std::ptr::eq(&**slot, own));
            if !mine && slot.nudge() {
                break;
            }
        }
    }

    /// Read frames, filling slots in FIFO order, until `slot` is
    /// answered or `deadline` passes.
    fn read_until(&self, reader: &mut Reader, slot: &Slot, deadline: Instant) {
        while slot.unanswered() {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return;
            }
            let read = reader.arm(remaining).map_err(NetError::Io);
            match read.and_then(|()| reader.frames.read_step()) {
                Ok(Some(frame)) => self.deliver(frame),
                // Part of a frame: look at the clock before the next read.
                Ok(None) => {}
                // Slow, not broken: what arrived waits in `Framed`.
                Err(e) if e.is_timeout() => reader.lapsed = true,
                Err(_) => self.poison(),
            }
        }
    }

    /// Deliver the whole frames already readable, without blocking. The
    /// two halves share `O_NONBLOCK`, so this needs the write half too; a
    /// write in progress skips it.
    fn drain(&self, reader: &mut Reader) {
        let Some(_writer) = self.writer.try_lock() else {
            return;
        };
        if self.stream.set_nonblocking(true).is_err() {
            return self.poison();
        }
        while !self.poisoned() {
            match reader.frames.read_step() {
                Ok(Some(frame)) => self.deliver(frame),
                Ok(None) => {}
                // Nothing more has arrived.
                Err(e) if e.is_timeout() => break,
                Err(_) => self.poison(),
            }
        }
        if self.stream.set_nonblocking(false).is_err() {
            self.poison();
        }
    }

    /// The next response frame belongs to the oldest in-flight slot.
    fn deliver(&self, frame: Bytes) {
        let head = self.pending.lock().pop_front();
        match head {
            // An abandoned slot ignores the fill: the frame is consumed
            // (keeping the FIFO aligned) and dropped.
            Some(slot) => slot.fill(Answer::Done(frame)),
            // A response nobody asked for: the server and client
            // disagree about the stream state.
            None => self.poison(),
        }
    }
}

/// A thread-safe client multiplexing pipelined requests over one TCP
/// connection with FIFO correlation ids. All methods take `&self`;
/// callers on any number of threads share the socket, and read it
/// themselves (see the module docs).
pub struct MuxClient {
    addr: SocketAddr,
    conn: Arc<Conn>,
}

impl MuxClient {
    /// Connect with a 5 s dial timeout.
    pub fn connect(addr: SocketAddr) -> Result<MuxClient, NetError> {
        Self::connect_with_timeout(addr, Duration::from_secs(5))
    }

    /// Connect with an explicit dial timeout, which also bounds every
    /// `write`: a peer that stops reading fails the write (and poisons
    /// the client) after `timeout`.
    pub fn connect_with_timeout(
        addr: SocketAddr,
        timeout: Duration,
    ) -> Result<MuxClient, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(timeout))?;
        let read_half = stream.try_clone()?;
        read_half.set_read_timeout(Some(timeout))?;
        let reader = Reader {
            frames: Framed::new(read_half, MAX_FRAME),
            armed: timeout,
            lapsed: false,
        };
        let conn = Conn {
            stream,
            writer: Mutex::new(BytesBuf::new()),
            reader: Mutex::new(reader),
            pending: Mutex::new(VecDeque::new()),
            dead: AtomicBool::new(false),
        };
        Ok(MuxClient {
            addr,
            conn: Arc::new(conn),
        })
    }

    /// The address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether the connection is unusable: poisoned by a transport
    /// error, or closed by the server while idle — with no answer owed
    /// and nobody reading, the socket is probed without blocking.
    pub fn is_dead(&self) -> bool {
        let conn = &self.conn;
        if !conn.poisoned() && conn.pending.lock().is_empty() {
            conn.try_read(None, |reader| conn.drain(reader));
        }
        conn.poisoned()
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
        let conn = self.conn.clone();
        // Encode before touching the stream: an unencodable request is
        // the caller's bug and must not poison a healthy connection.
        let payloads: Vec<Result<Bytes, NetError>> =
            requests.iter().map(|r| Ok(r.to_bytes()?)).collect();
        let payloads = payloads.into_iter();
        let refuse = if conn.poisoned() {
            Some(NetError::ConnectionLost)
        } else if Instant::now() >= deadline {
            Some(NetError::DeadlineExceeded)
        } else {
            None
        };
        if let Some(e) = refuse {
            let slots = payloads.map(|p| p.and(Err(e.replicate()))).collect();
            return Sent {
                conn,
                slots,
                deadline,
            };
        }

        let slots: Vec<Result<Arc<Slot>, NetError>> = {
            // Slot pushes and the frame write are one atomic step: wire
            // order is exactly pending-queue order.
            let mut scratch = conn.writer.lock();
            scratch.clear();
            let slots: Vec<_> = payloads
                .map(|payload| {
                    FrameCodec::new(MAX_FRAME).encode(&payload?, &mut scratch)?;
                    Ok(Slot::new())
                })
                .collect();
            let mut pending = conn.pending.lock();
            // Poisoned since the check above: the FIFO is gone, so these
            // slots fail here or nowhere.
            let dead = conn.poisoned();
            for slot in slots.iter().flatten() {
                if dead {
                    slot.fill(Answer::Failed);
                } else {
                    pending.push_back(slot.clone());
                }
            }
            drop(pending);
            if !dead && (&conn.stream).write_all(scratch.as_slice()).is_err() {
                // Fails every slot just pushed along with the rest.
                conn.poison();
            }
            slots
        };
        Sent {
            conn,
            slots,
            deadline,
        }
    }
}

/// A group [`MuxClient::send_all`] put on the wire, not yet collected.
/// Dropping it unwaited leaves its slots in the FIFO: whoever reads next
/// consumes their responses, so later calls get their own answers.
#[must_use = "a sent group must be waited"]
pub struct Sent {
    conn: Arc<Conn>,
    slots: Vec<Result<Arc<Slot>, NetError>>,
    deadline: Instant,
}

impl Sent {
    /// The answers, in request order. A slot already filled answers
    /// whatever the clock says; only one still empty at `deadline` —
    /// after a last look at what has already arrived — is abandoned.
    pub fn wait(self) -> Vec<Result<Response, NetError>> {
        // Responses arrive in slot order, so waiting on the last slot
        // first reads (or sleeps through) the whole group in one go.
        let Sent {
            conn,
            slots,
            deadline,
        } = self;
        let waited = slots.into_iter().rev();
        let mut answers: Vec<_> = waited.map(|s| conn.wait(&*s?, deadline)).collect();
        answers.reverse();
        answers
    }
}

impl Drop for MuxClient {
    /// Groups sent before the drop fail; one being read wakes at once.
    fn drop(&mut self) {
        self.conn.poison();
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

    /// The read role is handed off: A reads for both callers until its
    /// 50 ms deadline, then gives up; B, waiting behind it with 5 s,
    /// takes over and still gets its own answer. A's late answer is
    /// read and discarded, and the connection stays healthy.
    #[test]
    fn a_reader_giving_up_hands_the_read_half_to_a_caller_still_waiting() {
        // Two requests in, a 300 ms stall, `seq 0` and `seq 1` out.
        let (addr, join) = scripted_peer(2, 0, true);
        let mux = MuxClient::connect(addr).unwrap();
        // A's request is on the wire first, so `seq 0` is A's.
        let started = Instant::now();
        let a = mux.send_all(&[Request::Ping], started + Duration::from_millis(50));
        std::thread::scope(|scope| {
            let a = scope.spawn(move || (a.wait().pop().unwrap(), started.elapsed()));
            // Give A, alone, the read half before B arrives. Which caller
            // reads first is not asserted: every check below holds either
            // way, but this order is the one that needs the hand-off.
            std::thread::sleep(Duration::from_millis(20));
            let started = Instant::now();
            let b = mux.call(&Request::Ping, started + Duration::from_secs(5));
            assert_eq!(seq_of(&b), "seq 1");
            // Read as it arrived, not found by a last look at B's deadline.
            let took = started.elapsed();
            assert!(took < Duration::from_secs(2), "B waited {took:?}");
            let (a, took) = a.join().unwrap();
            assert!(matches!(a, Err(NetError::DeadlineExceeded)), "{a:?}");
            assert!(took < Duration::from_millis(200), "A waited {took:?}");
        });
        assert!(!mux.is_dead());
        assert_eq!(seq_of(&mux.call(&Request::Ping, far())), "seq 2");
        join();
    }

    /// A group started on one thread and dropped unwaited leaves its
    /// answers to whoever reads next: a call from another thread reads
    /// past them to its own.
    #[test]
    fn a_group_dropped_unwaited_is_read_past_by_the_next_caller() {
        let r = pong_reactor();
        let mux = MuxClient::connect(r.addr()).unwrap();
        let group = [Request::Metrics, Request::Metrics];
        std::thread::scope(|scope| {
            scope
                .spawn(|| drop(mux.send_all(&group, far())))
                .join()
                .unwrap()
        });
        let own = std::thread::scope(|scope| {
            let caller = scope.spawn(|| mux.call(&Request::Metrics, far()));
            caller.join().unwrap()
        });
        assert_eq!(seq_of(&own), "seq 2");
        assert!(!mux.is_dead());
        drop(mux);
        r.shutdown();
    }

    /// Dropping the client fails a group still waited on another thread
    /// at once, not at its deadline: the caller reading the socket for
    /// it wakes.
    #[test]
    fn dropping_the_client_wakes_a_caller_reading_for_its_group() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let mux = MuxClient::connect(listener.local_addr().unwrap()).unwrap();
        let _silent = listener.accept().unwrap();
        let sent = mux.send_all(&[Request::Ping], far());
        std::thread::scope(|scope| {
            let started = Instant::now();
            let waiter = scope.spawn(move || sent.wait());
            // Let the waiter block in `read`; the checks hold either way.
            std::thread::sleep(Duration::from_millis(20));
            drop(mux);
            let answers = waiter.join().unwrap();
            assert!(matches!(answers[..], [Err(NetError::ConnectionLost)]));
            let took = started.elapsed();
            assert!(took < Duration::from_secs(2), "waited {took:?}");
        });
    }

    /// A response trickling in a byte at a time is read a `read` at a
    /// time: its reader looks at the clock between reads, so a frame
    /// that never completes does not hold the caller past its deadline.
    #[test]
    fn a_frame_trickling_in_does_not_hold_its_reader_past_the_deadline() {
        use std::io::Write;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = Framed::new(stream, crate::codec::MAX_REQUEST_FRAME);
            peer.read_frame().unwrap();
            // A 1 000-byte frame, a byte every 10 ms, until the client
            // hangs up.
            let mut wire = 1000u32.to_be_bytes().to_vec();
            wire.resize(4 + 1000, 0);
            for byte in wire.chunks(1) {
                if peer.get_mut().write_all(byte).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        });
        let mux = MuxClient::connect(addr).unwrap();
        let started = Instant::now();
        let answer = mux.call(&Request::Ping, started + Duration::from_millis(100));
        let took = started.elapsed();
        assert!(
            matches!(answer, Err(NetError::DeadlineExceeded)),
            "{answer:?}"
        );
        assert!(took < Duration::from_millis(300), "held {took:?}");
        assert!(!mux.is_dead(), "a slow frame is not a broken stream");
        drop(mux);
        peer.join().unwrap();
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
