//! The non-blocking event-loop network core.
//!
//! One OS thread per accepted socket is a hard wall at thousands of
//! concurrent browsers (10 000 connections means 10 000 stacks and a
//! scheduler drowning in runnable threads; E19 keeps such a server as
//! its reference column). The reactor serves the wire protocol from a
//! *fixed* pool of worker threads, each running a readiness loop over
//! non-blocking sockets:
//!
//! * [`Poller`] — the readiness source. On Linux this is epoll via
//!   direct `extern "C"` bindings (std already links libc; no new
//!   dependency), elsewhere a portable `poll(2)` fallback with the same
//!   level-triggered semantics.
//! * [`Reactor`] — the accept + dispatch machinery. Worker 0 owns the
//!   listening socket; accepted connections are handed round-robin to
//!   workers through each worker's mailbox + eventfd/pipe wakeup, and
//!   from then on a connection lives entirely on its worker (no
//!   cross-worker locking on the hot path).
//! * Per-connection state machine — a read [`BytesBuf`], a write
//!   [`BytesBuf`], and the [`FrameCodec`]: requests are decoded with
//!   [`MAX_REQUEST_FRAME`], responses encoded with [`MAX_FRAME`] (a
//!   snapshot or filter reply is far larger than anything a client may
//!   send). Readable: drain the socket
//!   (bounded per wakeup for fairness), decode every complete frame,
//!   hand them to the handler as bursts of at most [`MAX_BURST`], append
//!   responses in request order. Writable:
//!   flush; `EPOLLOUT` interest exists only while the write buffer is
//!   non-empty. Responses are written in arrival order, which is what
//!   lets clients pipeline many requests on one connection and match
//!   responses by order (see [`crate::mux`]).
//!
//! Backpressure: a connection whose write buffer grows past the
//! high-water mark stops being *read* (its `EPOLLIN` interest is
//! dropped) until the peer drains it below low-water — a slow reader
//! throttles itself instead of ballooning server memory.
//!
//! Handlers run on the worker thread and must not park it on another
//! connection's traffic. A reply that waits on something else — the
//! ledger's follower ack, or the next write a follower's poll wants —
//! is **held** instead ([`ConnCtx::hold`]): the handler returns at once,
//! and another thread later fills the slot through its [`Completion`],
//! which posts to the owning worker's mailbox and fires its waker. The
//! rules: replies still leave in request order (ready ones behind a
//! held slot wait for it); a slot still held at its deadline is
//! answered with the fallback encoded when it was held (the poll
//! timeout is the sooner of 200 ms and the next deadline); a completion
//! for a closed connection is dropped; and a connection holding
//! [`MAX_BURST`] replies stops being read until one completes, the same
//! rule as high-water. Proxy handlers still block on a bounded upstream
//! call, which is why [`ProxyServer`](crate::proxy_server::ProxyServer)
//! sizes its worker pool larger than the core count. DESIGN.md §12 has
//! the full rules.

#![cfg(unix)]

use crate::codec::{response_bytes, BytesBuf, FrameCodec, MAX_FRAME, MAX_REQUEST_FRAME};
use bytes::Bytes;
use irs_core::wire::Response;
use irs_obs::{Counter, Gauge, Histogram, Registry};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

/// Raw readiness-notification bindings. std links the platform libc on
/// every unix target, so declaring the symbols directly keeps the
/// reactor dependency-free.
pub mod sys {
    use std::io;
    use std::os::fd::RawFd;

    #[cfg(target_os = "linux")]
    pub use linux::*;

    #[cfg(target_os = "linux")]
    mod linux {
        use super::*;

        // The kernel packs epoll_event on x86-64 (EPOLL_PACKED); other
        // architectures use natural alignment. Mirror that exactly.
        #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
        #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
        #[derive(Clone, Copy)]
        pub struct EpollEvent {
            pub events: u32,
            pub data: u64,
        }

        pub const EPOLLIN: u32 = 0x001;
        pub const EPOLLOUT: u32 = 0x004;
        pub const EPOLLERR: u32 = 0x008;
        pub const EPOLLHUP: u32 = 0x010;
        pub const EPOLLRDHUP: u32 = 0x2000;

        pub const EPOLL_CTL_ADD: i32 = 1;
        pub const EPOLL_CTL_DEL: i32 = 2;
        pub const EPOLL_CTL_MOD: i32 = 3;

        const EPOLL_CLOEXEC: i32 = 0x80000;
        const EFD_CLOEXEC: i32 = 0x80000;
        const EFD_NONBLOCK: i32 = 0x800;

        extern "C" {
            fn epoll_create1(flags: i32) -> i32;
            fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
            fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
            fn eventfd(initval: u32, flags: i32) -> i32;
        }

        /// `epoll_create1(EPOLL_CLOEXEC)`.
        pub fn epoll_create() -> io::Result<RawFd> {
            match unsafe { epoll_create1(EPOLL_CLOEXEC) } {
                -1 => Err(io::Error::last_os_error()),
                fd => Ok(fd),
            }
        }

        /// `epoll_ctl` with a (possibly null-event) op.
        pub fn epoll_control(
            epfd: RawFd,
            op: i32,
            fd: RawFd,
            events: u32,
            data: u64,
        ) -> io::Result<()> {
            let mut ev = EpollEvent { events, data };
            let evp = if op == EPOLL_CTL_DEL {
                std::ptr::null_mut()
            } else {
                &mut ev as *mut EpollEvent
            };
            match unsafe { epoll_ctl(epfd, op, fd, evp) } {
                0 => Ok(()),
                _ => Err(io::Error::last_os_error()),
            }
        }

        /// `epoll_wait`, retrying on EINTR.
        pub fn epoll_wait_events(
            epfd: RawFd,
            events: &mut [EpollEvent],
            timeout_ms: i32,
        ) -> io::Result<usize> {
            loop {
                let n = unsafe {
                    epoll_wait(epfd, events.as_mut_ptr(), events.len() as i32, timeout_ms)
                };
                if n >= 0 {
                    return Ok(n as usize);
                }
                let err = io::Error::last_os_error();
                if err.kind() != io::ErrorKind::Interrupted {
                    return Err(err);
                }
            }
        }

        /// A non-blocking close-on-exec eventfd.
        pub fn eventfd_create() -> io::Result<RawFd> {
            match unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) } {
                -1 => Err(io::Error::last_os_error()),
                fd => Ok(fd),
            }
        }
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Rlimit {
        rlim_cur: u64,
        rlim_max: u64,
    }

    #[cfg(target_os = "linux")]
    const RLIMIT_NOFILE: i32 = 7;
    #[cfg(not(target_os = "linux"))]
    const RLIMIT_NOFILE: i32 = 8; // BSD/macOS value

    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
    }

    /// Raise the soft open-file limit to the hard limit and return the
    /// resulting soft limit. Connection-scaling experiments call this
    /// before opening tens of thousands of sockets; failures are
    /// non-fatal (the current soft limit is returned).
    pub fn raise_nofile_limit() -> u64 {
        let mut lim = Rlimit {
            rlim_cur: 0,
            rlim_max: 0,
        };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return 1024;
        }
        if lim.rlim_cur < lim.rlim_max {
            let raised = Rlimit {
                rlim_cur: lim.rlim_max,
                rlim_max: lim.rlim_max,
            };
            if unsafe { setrlimit(RLIMIT_NOFILE, &raised) } == 0 {
                return raised.rlim_cur;
            }
        }
        lim.rlim_cur
    }

    #[cfg(not(target_os = "linux"))]
    pub mod fallback {
        //! `poll(2)` symbols for the portable poller.
        use std::os::fd::RawFd;

        #[repr(C)]
        #[derive(Clone, Copy)]
        pub struct PollFd {
            pub fd: RawFd,
            pub events: i16,
            pub revents: i16,
        }

        pub const POLLIN: i16 = 0x001;
        pub const POLLOUT: i16 = 0x004;
        pub const POLLERR: i16 = 0x008;
        pub const POLLHUP: i16 = 0x010;

        extern "C" {
            pub fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
        }
    }
}

/// What a [`Poller::wait`] reports for one token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Readiness {
    /// Token the fd was registered under.
    pub token: u64,
    /// Readable (or peer-closed — a read will say which).
    pub readable: bool,
    /// Writable.
    pub writable: bool,
    /// Error/hangup condition; the owner should read to collect the
    /// error and close.
    pub error: bool,
}

/// Interest set for a registered fd.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interest {
    /// Wake when readable.
    pub readable: bool,
    /// Wake when writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of an idle connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
}

/// A level-triggered readiness poller: epoll on Linux, `poll(2)`
/// elsewhere. One per worker thread; not `Sync` — cross-thread wakeups
/// go through [`Waker`], never the poller itself.
pub struct Poller {
    #[cfg(target_os = "linux")]
    epfd: std::os::fd::OwnedFd,
    #[cfg(not(target_os = "linux"))]
    registered: std::collections::HashMap<u64, (std::os::fd::RawFd, Interest)>,
}

#[cfg(target_os = "linux")]
impl Poller {
    /// A fresh poller.
    pub fn new() -> std::io::Result<Poller> {
        use std::os::fd::FromRawFd;
        let fd = sys::epoll_create()?;
        Ok(Poller {
            epfd: unsafe { std::os::fd::OwnedFd::from_raw_fd(fd) },
        })
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = sys::EPOLLRDHUP;
        if interest.readable {
            m |= sys::EPOLLIN;
        }
        if interest.writable {
            m |= sys::EPOLLOUT;
        }
        m
    }

    /// Start watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        sys::epoll_control(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_ADD,
            fd.as_raw_fd(),
            Self::mask(interest),
            token,
        )
    }

    /// Change the interest set for a registered fd.
    pub fn modify(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        sys::epoll_control(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_MOD,
            fd.as_raw_fd(),
            Self::mask(interest),
            token,
        )
    }

    /// Stop watching a registered fd.
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> std::io::Result<()> {
        sys::epoll_control(
            self.epfd.as_raw_fd(),
            sys::EPOLL_CTL_DEL,
            fd.as_raw_fd(),
            0,
            0,
        )
    }

    /// Block up to `timeout_ms` for readiness; push events into `out`.
    pub fn wait(&mut self, out: &mut Vec<Readiness>, timeout_ms: i32) -> std::io::Result<()> {
        let mut events = [sys::EpollEvent { events: 0, data: 0 }; 256];
        let n = sys::epoll_wait_events(self.epfd.as_raw_fd(), &mut events, timeout_ms)?;
        for ev in &events[..n] {
            let bits = ev.events;
            out.push(Readiness {
                token: ev.data,
                readable: bits & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0,
                writable: bits & sys::EPOLLOUT != 0,
                error: bits & (sys::EPOLLERR | sys::EPOLLHUP) != 0,
            });
        }
        Ok(())
    }
}

#[cfg(not(target_os = "linux"))]
impl Poller {
    /// A fresh poller.
    pub fn new() -> std::io::Result<Poller> {
        Ok(Poller {
            registered: std::collections::HashMap::new(),
        })
    }

    /// Start watching `fd` under `token`.
    pub fn register(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.registered.insert(token, (fd.as_raw_fd(), interest));
        Ok(())
    }

    /// Change the interest set for a registered fd.
    pub fn modify(
        &mut self,
        fd: &impl AsRawFd,
        token: u64,
        interest: Interest,
    ) -> std::io::Result<()> {
        self.registered.insert(token, (fd.as_raw_fd(), interest));
        Ok(())
    }

    /// Stop watching a registered fd.
    pub fn deregister(&mut self, fd: &impl AsRawFd) -> std::io::Result<()> {
        let raw = fd.as_raw_fd();
        self.registered.retain(|_, (f, _)| *f != raw);
        Ok(())
    }

    /// Block up to `timeout_ms` for readiness; push events into `out`.
    pub fn wait(&mut self, out: &mut Vec<Readiness>, timeout_ms: i32) -> std::io::Result<()> {
        use sys::fallback::*;
        let mut fds: Vec<PollFd> = Vec::with_capacity(self.registered.len());
        let mut tokens: Vec<u64> = Vec::with_capacity(self.registered.len());
        for (&token, &(fd, interest)) in &self.registered {
            let mut events = 0i16;
            if interest.readable {
                events |= POLLIN;
            }
            if interest.writable {
                events |= POLLOUT;
            }
            fds.push(PollFd {
                fd,
                events,
                revents: 0,
            });
            tokens.push(token);
        }
        let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms) };
        if n < 0 {
            let err = std::io::Error::last_os_error();
            if err.kind() == std::io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for (pfd, &token) in fds.iter().zip(&tokens) {
            if pfd.revents != 0 {
                out.push(Readiness {
                    token,
                    readable: pfd.revents & (POLLIN | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & (POLLERR | POLLHUP) != 0,
                });
            }
        }
        Ok(())
    }
}

/// A cross-thread wakeup handle: an eventfd on Linux, a self-pipe
/// elsewhere. The read half is registered in the worker's poller; any
/// thread may [`wake`](Waker::wake).
pub struct Waker {
    write_half: std::fs::File,
    read_half: std::fs::File,
}

impl Waker {
    /// A fresh waker pair.
    pub fn new() -> std::io::Result<Waker> {
        #[cfg(target_os = "linux")]
        {
            use std::os::fd::FromRawFd;
            let fd = sys::eventfd_create()?;
            let read_half = unsafe { std::fs::File::from_raw_fd(fd) };
            let write_half = read_half.try_clone()?;
            Ok(Waker {
                write_half,
                read_half,
            })
        }
        #[cfg(not(target_os = "linux"))]
        {
            // Self-pipe via a loopback socketpair: UnixStream is the
            // portable std way to get one.
            use std::os::unix::net::UnixStream;
            let (r, w) = UnixStream::pair()?;
            r.set_nonblocking(true)?;
            w.set_nonblocking(true)?;
            use std::os::fd::{FromRawFd, IntoRawFd};
            let read_half = unsafe { std::fs::File::from_raw_fd(r.into_raw_fd()) };
            let write_half = unsafe { std::fs::File::from_raw_fd(w.into_raw_fd()) };
            Ok(Waker {
                write_half,
                read_half,
            })
        }
    }

    /// The fd to register for readability in a poller.
    pub fn read_fd(&self) -> &std::fs::File {
        &self.read_half
    }

    /// Wake the owning worker (safe from any thread).
    pub fn wake(&self) {
        let _ = (&self.write_half).write(&1u64.to_ne_bytes());
    }

    /// Drain pending wakeups so level-triggered polling quiesces.
    pub fn drain(&self) {
        let mut buf = [0u8; 64];
        while matches!((&self.read_half).read(&mut buf), Ok(n) if n > 0) {}
    }
}

/// Produce the replies for one burst of request frames — every complete
/// frame one readiness event delivered on a connection, at most
/// [`MAX_BURST`] — one reply per frame, in order. Runs on a reactor
/// worker thread; must be `Send + Sync` and should be fast or
/// deadline-bounded — a reply that waits on another connection is held
/// ([`ConnCtx::hold`]), never waited for (DESIGN.md §12). The second
/// argument is the connection the burst arrived on.
pub type BurstFn = Arc<dyn Fn(Vec<Bytes>, &ConnCtx) -> Vec<Reply> + Send + Sync>;

/// What a [`BurstFn`] answers for one frame.
pub enum Reply {
    /// The response payload, written in request order.
    Ready(Bytes),
    /// A reply another thread completes later (see [`ConnCtx::hold`]).
    /// Boxed, so a burst's replies take no more room than its payloads.
    Held(Box<HeldReply>),
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply::Ready(response_bytes(&response))
    }
}

/// A held frame's place in its connection's reply order, made by
/// [`ConnCtx::hold`] together with the [`Completion`] that fills it.
pub struct HeldReply {
    hold: u64,
    deadline: Instant,
    fallback: Bytes,
}

/// The connection a burst arrived on, as its [`BurstFn`] sees it.
pub struct ConnCtx {
    id: u64,
    slot: usize,
    mailbox: Arc<Mailbox>,
}

impl ConnCtx {
    /// The reactor-wide connection id: a monotone counter stamped at
    /// accept time, stable for the connection's whole life. Servers key
    /// per-client admission (token buckets, fairness) on it — it never
    /// repeats within one reactor, so a reconnecting abuser starts a
    /// fresh bucket rather than inheriting a stranger's.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Hold one frame's reply: return the [`Reply`] in the frame's place
    /// and hand the [`Completion`] to whoever will answer it. Replies
    /// behind it on this connection wait for it; if it is still held at
    /// `deadline` it is answered with `fallback`.
    pub fn hold(&self, deadline: Instant, fallback: Bytes) -> (Reply, Completion) {
        let hold = self.mailbox.holds.fetch_add(1, Ordering::Relaxed);
        let completion = Completion {
            mailbox: self.mailbox.clone(),
            slot: self.slot,
            conn: self.id,
            hold,
        };
        let held = HeldReply {
            hold,
            deadline,
            fallback,
        };
        (Reply::Held(Box::new(held)), completion)
    }
}

/// Fills one held reply, from any thread: the payload goes to the owning
/// worker's mailbox and the worker is woken. A completion is keyed by
/// the reactor-wide connection id, so one for a connection that has
/// closed is dropped, never written to whoever reuses its slot; one that
/// comes after the deadline finds the fallback sent and is dropped too.
/// Dropped unused, it leaves the reply to its fallback.
pub struct Completion {
    mailbox: Arc<Mailbox>,
    slot: usize,
    conn: u64,
    hold: u64,
}

impl Completion {
    /// Answer the held reply with `payload`.
    pub fn complete(self, payload: Bytes) {
        self.mailbox.post(Mail::Done {
            slot: self.slot,
            conn: self.conn,
            hold: self.hold,
            payload,
        });
    }
}

/// One worker's mailbox: sockets the acceptor hands over and held
/// replies other threads complete, plus the waker that tells the worker
/// to look.
struct Mailbox {
    mail: Mutex<VecDeque<Mail>>,
    waker: Waker,
    /// Next hold id minted on this worker.
    holds: AtomicU64,
}

enum Mail {
    Accepted(TcpStream),
    Done {
        slot: usize,
        conn: u64,
        hold: u64,
        payload: Bytes,
    },
}

impl Mailbox {
    fn new() -> std::io::Result<Mailbox> {
        Ok(Mailbox {
            mail: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
            holds: AtomicU64::new(0),
        })
    }

    fn post(&self, mail: Mail) {
        self.mail.lock().push_back(mail);
        self.waker.wake();
    }
}

/// Reactor tuning knobs.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker threads (each one event loop). Defaults to
    /// `max(2, available_parallelism)` — bounded by the machine, not by
    /// the connection count.
    pub workers: usize,
    /// Stop reading a connection whose unflushed responses exceed this
    /// many bytes; resume below half of it.
    pub high_water: usize,
    /// Metrics registry; when set the reactor publishes
    /// `irs_net_live_connections` / `irs_net_reactor_workers` /
    /// `irs_net_write_buffer_bytes` / `irs_net_held_replies` gauges,
    /// `irs_net_accepted_total` / `irs_net_frames_total` /
    /// `irs_net_bursts_total` / `irs_net_frame_errors_total` /
    /// `irs_net_held_expired_total` counters, and an
    /// `irs_net_request_us` handler-latency histogram (one sample per
    /// frame; a burst's samples sum to its handler time) into it.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: default_workers(),
            high_water: 64 << 20,
            registry: None,
        }
    }
}

/// `max(2, available_parallelism)` — the default worker count.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

/// Per-wakeup read budget: at most this many chunks are pulled from one
/// connection before the loop moves on (level-triggered polling re-arms
/// it), so one firehose peer cannot starve its siblings.
const READ_CHUNKS_PER_WAKEUP: usize = 16;
const READ_CHUNK: usize = 64 << 10;

/// Most frames one handler invocation gets. A handler serves a burst
/// under one clock reading and one deadline (DESIGN.md §10), so the cap
/// bounds how far down a backlogged connection's queue that shared
/// budget must stretch; the rest of the backlog forms the next burst.
/// It also caps the replies one connection may hold.
pub const MAX_BURST: usize = 64;

/// The poller's timeout when no held reply is due sooner.
const IDLE_POLL_MS: u128 = 200;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

struct Metrics {
    live: Gauge,
    /// Unflushed response bytes buffered across all connections. The
    /// invariant — gauge equals the sum of every live `write_buf` length
    /// — must hold on *every* teardown path (clean close, error close,
    /// worker shutdown sweep), or a burst of dying slow readers leaves a
    /// phantom backlog on the dashboard forever.
    write_buffer: Gauge,
    /// Replies held across all connections; the same teardown invariant.
    held: Gauge,
    /// Held replies answered with their fallback at the deadline.
    held_expired: Counter,
    accepted: Counter,
    frames: Counter,
    /// Handler invocations: frames ÷ bursts is the overlap a server sees.
    bursts: Counter,
    frame_errors: Counter,
    request_us: Histogram,
}

impl Metrics {
    fn new(registry: Option<&Arc<Registry>>, workers: usize) -> Metrics {
        match registry {
            Some(r) => {
                r.gauge("irs_net_reactor_workers").set(workers as u64);
                Metrics {
                    live: r.gauge("irs_net_live_connections"),
                    write_buffer: r.gauge("irs_net_write_buffer_bytes"),
                    held: r.gauge("irs_net_held_replies"),
                    held_expired: r.counter("irs_net_held_expired_total"),
                    accepted: r.counter("irs_net_accepted_total"),
                    frames: r.counter("irs_net_frames_total"),
                    bursts: r.counter("irs_net_bursts_total"),
                    frame_errors: r.counter("irs_net_frame_errors_total"),
                    request_us: r.histogram("irs_net_request_us"),
                }
            }
            None => Metrics {
                live: Gauge::new(),
                write_buffer: Gauge::new(),
                held: Gauge::new(),
                held_expired: Counter::default(),
                accepted: Counter::default(),
                frames: Counter::default(),
                bursts: Counter::default(),
                frame_errors: Counter::default(),
                request_us: Histogram::new(),
            },
        }
    }
}

struct Conn {
    /// What the handler sees: the reactor-wide id, this slot, the mailbox.
    ctx: ConnCtx,
    stream: TcpStream,
    read_buf: BytesBuf,
    write_buf: BytesBuf,
    interest: Interest,
    /// Replies behind a held one, in request order; empty on the ready
    /// path. Its head is always held: whatever is ready behind it moves
    /// to `write_buf` as soon as it is released.
    queue: VecDeque<Queued>,
    /// Held entries in `queue` (at most [`MAX_BURST`]).
    held: usize,
    /// Payload bytes in `queue`, counted against high-water.
    queued_bytes: usize,
}

/// One reply in a connection's queue: `payload` is written once `hold`
/// is `None` and everything ahead of it has been; while held, `payload`
/// is the fallback.
struct Queued {
    hold: Option<u64>,
    payload: Bytes,
}

impl Conn {
    fn enqueue(&mut self, hold: Option<u64>, payload: Bytes) {
        self.queued_bytes += payload.len();
        self.queue.push_back(Queued { hold, payload });
    }

    /// Move the released replies at the head of the queue to the write
    /// buffer; `false` if one cannot be encoded.
    fn write_released(&mut self) -> bool {
        let codec = FrameCodec::new(MAX_FRAME);
        while self.queue.front().is_some_and(|q| q.hold.is_none()) {
            let released = self.queue.pop_front().expect("non-empty queue");
            self.queued_bytes -= released.payload.len();
            if codec
                .encode(&released.payload, &mut self.write_buf)
                .is_err()
            {
                return false;
            }
        }
        true
    }
}

/// What to do with a connection after handling one readiness event.
enum Verdict {
    Keep,
    Close,
}

/// When a held reply is due: `(deadline, slot, connection id, hold id)`.
type Due = Reverse<(Instant, usize, u64, u64)>;

struct Worker {
    poller: Poller,
    mailbox: Arc<Mailbox>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    /// Decodes requests (the configured request cap).
    codec: FrameCodec,
    high_water: usize,
    handler: BurstFn,
    metrics: Arc<Metrics>,
    live: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    listener: Option<TcpListener>,
    /// The acceptor's assignment table: every worker's mailbox.
    assign: Option<Vec<Arc<Mailbox>>>,
    next_worker: usize,
    /// Shared id well: every install draws the next connection id here.
    conn_seq: Arc<AtomicU64>,
    /// Held replies on this worker's connections.
    held: usize,
    /// Their deadlines, soonest first. An entry whose reply was already
    /// answered is skipped when it comes due; all are dropped once
    /// nothing is held.
    due: BinaryHeap<Due>,
}

impl Worker {
    fn run(mut self) {
        let mut events: Vec<Readiness> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; READ_CHUNK];
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events, self.timeout_ms()).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.mailbox.waker.drain();
                        self.read_mail();
                    }
                    TOKEN_LISTENER => self.accept_burst(),
                    token => {
                        let slot = (token - TOKEN_BASE) as usize;
                        let verdict = self.drive(slot, ev, &mut scratch);
                        if matches!(verdict, Verdict::Close) {
                            self.close(slot);
                        }
                    }
                }
            }
            self.expire_holds();
        }
        // Shutdown: drop every connection this worker owns, returning
        // its live slot, its buffered bytes and its held replies to the
        // gauges.
        let mut open = 0usize;
        let mut buffered = 0u64;
        for conn in self.conns.iter().flatten() {
            open += 1;
            buffered += conn.write_buf.len() as u64;
        }
        self.live.fetch_sub(open, Ordering::SeqCst);
        self.metrics.live.sub(open as u64);
        self.metrics.write_buffer.sub(buffered);
        self.metrics.held.sub(self.held as u64);
    }

    /// Sleep no longer than until the next held reply is due.
    fn timeout_ms(&self) -> i32 {
        let Some(Reverse((deadline, ..))) = self.due.peek() else {
            return IDLE_POLL_MS as i32;
        };
        let left = deadline.saturating_duration_since(Instant::now());
        left.as_micros().div_ceil(1000).min(IDLE_POLL_MS) as i32
    }

    /// Answer every held reply whose deadline has passed with its
    /// fallback.
    fn expire_holds(&mut self) {
        if self.due.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(&Reverse((deadline, slot, conn, hold))) = self.due.peek() {
            if deadline > now {
                break;
            }
            self.due.pop();
            self.release(slot, conn, hold, None);
        }
    }

    /// Act on everything posted to this worker: accepted sockets and
    /// completed held replies.
    fn read_mail(&mut self) {
        let mail = std::mem::take(&mut *self.mailbox.mail.lock());
        for mail in mail {
            match mail {
                Mail::Accepted(stream) => self.install(stream),
                Mail::Done {
                    slot,
                    conn,
                    hold,
                    payload,
                } => self.release(slot, conn, hold, Some(payload)),
            }
        }
    }

    /// Answer held reply `hold` of connection `conn` (at `slot`) with
    /// `payload` — or, when it expired, with its fallback — then move the
    /// connection on. Nothing happens if the connection has closed or the
    /// reply was already answered.
    fn release(&mut self, slot: usize, conn: u64, hold: u64, payload: Option<Bytes>) {
        let Some(c) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        if c.ctx.id != conn {
            return;
        }
        let Some(entry) = c.queue.iter_mut().find(|q| q.hold == Some(hold)) else {
            return;
        };
        entry.hold = None;
        match payload {
            Some(payload) => {
                c.queued_bytes = c.queued_bytes - entry.payload.len() + payload.len();
                entry.payload = payload;
            }
            None => self.metrics.held_expired.inc(),
        }
        c.held -= 1;
        self.unhold(1);
        if matches!(self.pump(slot, false), Verdict::Close) {
            self.close(slot);
        }
    }

    /// `n` replies on this worker stopped being held.
    fn unhold(&mut self, n: usize) {
        self.held -= n;
        self.metrics.held.sub(n as u64);
        if self.held == 0 {
            self.due.clear();
        }
    }

    /// Accept until WouldBlock, handing sockets round-robin across all
    /// workers (including this one).
    fn accept_burst(&mut self) {
        let Some(listener) = &self.listener else {
            return;
        };
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    self.metrics.accepted.inc();
                    let assign = self.assign.as_ref().expect("acceptor has assign table");
                    let target = self.next_worker % assign.len();
                    self.next_worker = self.next_worker.wrapping_add(1);
                    assign[target].post(Mail::Accepted(stream));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Register a newly assigned connection with the poller.
    fn install(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.conns.push(None);
                self.conns.len() - 1
            }
        };
        let token = TOKEN_BASE + slot as u64;
        if self
            .poller
            .register(&stream, token, Interest::READ)
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            ctx: ConnCtx {
                id: self.conn_seq.fetch_add(1, Ordering::Relaxed),
                slot,
                mailbox: self.mailbox.clone(),
            },
            stream,
            read_buf: BytesBuf::new(),
            write_buf: BytesBuf::new(),
            interest: Interest::READ,
            queue: VecDeque::new(),
            held: 0,
            queued_bytes: 0,
        });
        self.live.fetch_add(1, Ordering::SeqCst);
        self.metrics.live.add(1);
    }

    /// Handle one readiness event for connection `slot`.
    fn drive(&mut self, slot: usize, ev: Readiness, scratch: &mut [u8]) -> Verdict {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return Verdict::Keep; // already closed earlier this batch
        };
        if ev.readable || ev.error {
            // Bounded drain: stop after the budget even if more is
            // pending — level-triggered polling re-arms immediately.
            for _ in 0..READ_CHUNKS_PER_WAKEUP {
                match conn.stream.read(scratch) {
                    Ok(0) => return Verdict::Close,
                    Ok(n) => {
                        conn.read_buf.extend_from_slice(&scratch[..n]);
                        if n < scratch.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return Verdict::Close,
                }
            }
        }
        self.pump(slot, ev.writable)
    }

    /// Move connection `slot` on: write its released replies, serve every
    /// complete frame it has buffered while it holds fewer than
    /// [`MAX_BURST`] replies, flush, and re-arm its interest.
    fn pump(&mut self, slot: usize, writable: bool) -> Verdict {
        // Decode and serve every complete frame, a burst at a time,
        // replies appended in request order (the pipelining contract).
        loop {
            let conn = self.conns[slot]
                .as_mut()
                .expect("pumped connection is live");
            if !conn.queue.is_empty() && !conn.write_released() {
                return Verdict::Close;
            }
            let room = MAX_BURST - conn.held;
            let mut burst = Vec::new();
            let mut poisoned = false;
            while burst.len() < room {
                match self.codec.decode(&mut conn.read_buf) {
                    Ok(Some(frame)) => burst.push(frame),
                    Ok(None) => break,
                    // Hostile or corrupt length prefix: the stream can
                    // never resynchronize.
                    Err(_) => {
                        poisoned = true;
                        break;
                    }
                }
            }
            let more = room > 0 && burst.len() == room;
            if !burst.is_empty() && !self.serve(slot, burst) || poisoned {
                self.metrics.frame_errors.inc();
                return Verdict::Close;
            }
            if !more {
                break;
            }
        }

        let conn = self.conns[slot]
            .as_mut()
            .expect("pumped connection is live");
        if writable || !conn.write_buf.is_empty() {
            let before = conn.write_buf.len();
            let flushed = flush(conn);
            // `flush` advances the buffer even when it ends in an error,
            // so subtract the delta on both outcomes; an error close then
            // subtracts only what genuinely remains buffered.
            self.metrics
                .write_buffer
                .sub((before - conn.write_buf.len()) as u64);
            if flushed.is_err() {
                return Verdict::Close;
            }
        }

        // Interest bookkeeping: write interest only while unflushed
        // bytes remain; read interest only while under high-water and
        // the hold cap.
        let want = Interest {
            readable: conn.write_buf.len() + conn.queued_bytes < self.high_water
                && conn.held < MAX_BURST,
            writable: !conn.write_buf.is_empty(),
        };
        if want != conn.interest {
            let token = TOKEN_BASE + slot as u64;
            if self.poller.modify(&conn.stream, token, want).is_err() {
                return Verdict::Close;
            }
            conn.interest = want;
        }
        Verdict::Keep
    }

    /// Run the handler over one burst of connection `slot` and place its
    /// replies; `false` if the stream can no longer stay in sync.
    fn serve(&mut self, slot: usize, burst: Vec<Bytes>) -> bool {
        let conn = self.conns[slot]
            .as_mut()
            .expect("served connection is live");
        let metrics = &self.metrics;
        let frames = burst.len();
        metrics.frames.add(frames as u64);
        metrics.bursts.inc();
        let started = Instant::now();
        let replies = (self.handler)(burst, &conn.ctx);
        metrics
            .request_us
            .record_spread_since(started, frames as u64);
        // A missing reply would desynchronize the stream.
        if replies.len() != frames {
            return false;
        }
        let before = conn.write_buf.len();
        let codec = FrameCodec::new(MAX_FRAME);
        let mut in_sync = true;
        for reply in replies {
            match reply {
                // Nothing held ahead of it: straight to the wire. An
                // unencodable (oversized) one would desynchronize it.
                Reply::Ready(payload) if conn.queue.is_empty() => {
                    in_sync &= codec.encode(&payload, &mut conn.write_buf).is_ok();
                }
                Reply::Ready(payload) => conn.enqueue(None, payload),
                Reply::Held(held) => {
                    conn.enqueue(Some(held.hold), held.fallback);
                    conn.held += 1;
                    self.held += 1;
                    metrics.held.add(1);
                    let due = (held.deadline, slot, conn.ctx.id, held.hold);
                    self.due.push(Reverse(due));
                }
            }
        }
        // Account whatever landed in the buffer even on failure, so the
        // close path's subtraction of the remaining buffer keeps the
        // gauge exact.
        metrics
            .write_buffer
            .add((conn.write_buf.len() - before) as u64);
        in_sync
    }

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(&conn.stream);
            self.free.push(slot);
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.metrics.live.sub(1);
            // Responses the peer never drained: release them from the
            // backlog gauge along with the connection (this is the
            // error-path close too — mid-frame deaths land here). Its
            // held replies go with it; late completions find it gone.
            self.metrics.write_buffer.sub(conn.write_buf.len() as u64);
            self.unhold(conn.held);
        }
    }
}

/// Write as much of the buffered responses as the socket accepts.
fn flush(conn: &mut Conn) -> Result<(), ()> {
    while !conn.write_buf.is_empty() {
        match conn.stream.write(conn.write_buf.as_slice()) {
            Ok(0) => return Err(()),
            Ok(n) => conn.write_buf.advance(n),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// The event-loop server: builder for a [`ReactorHandle`].
pub struct Reactor;

impl Reactor {
    /// Bind `addr` and serve every accepted connection's frames through
    /// `handler` on `config.workers` event-loop threads.
    pub fn bind(
        addr: &str,
        config: ReactorConfig,
        handler: BurstFn,
    ) -> std::io::Result<ReactorHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let workers = config.workers.max(1);
        let metrics = Arc::new(Metrics::new(config.registry.as_ref(), workers));
        let stop = Arc::new(AtomicBool::new(false));
        let live = Arc::new(AtomicUsize::new(0));
        let conn_seq = Arc::new(AtomicU64::new(0));
        let codec = FrameCodec::new(MAX_REQUEST_FRAME);

        // Build every worker's mailbox first so the acceptor (worker 0)
        // can hold the full assignment table.
        let mailboxes = (0..workers)
            .map(|_| Mailbox::new().map(Arc::new))
            .collect::<std::io::Result<Vec<_>>>()?;

        let mut threads = Vec::with_capacity(workers);
        for (w, mailbox) in mailboxes.iter().enumerate() {
            let mut poller = Poller::new()?;
            poller.register(mailbox.waker.read_fd(), TOKEN_WAKER, Interest::READ)?;
            let listener_for_worker = if w == 0 {
                poller.register(&listener, TOKEN_LISTENER, Interest::READ)?;
                Some(listener.try_clone()?)
            } else {
                None
            };
            let worker = Worker {
                poller,
                mailbox: mailbox.clone(),
                conns: Vec::new(),
                free: Vec::new(),
                codec,
                high_water: config.high_water.max(1 << 20),
                handler: handler.clone(),
                metrics: metrics.clone(),
                live: live.clone(),
                stop: stop.clone(),
                listener: listener_for_worker,
                assign: (w == 0).then(|| mailboxes.clone()),
                next_worker: 0,
                conn_seq: conn_seq.clone(),
                held: 0,
                due: BinaryHeap::new(),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("irs-reactor-{w}"))
                    .spawn(move || worker.run())?,
            );
        }

        Ok(ReactorHandle {
            addr: local,
            stop,
            live,
            mailboxes,
            workers,
            threads,
        })
    }
}

/// A running reactor server.
pub struct ReactorHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    live: Arc<AtomicUsize>,
    mailboxes: Vec<Arc<Mailbox>>,
    workers: usize,
    threads: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Event-loop worker threads — the server's *entire* thread budget,
    /// independent of connection count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Connections currently registered across all workers.
    pub fn live_connections(&self) -> usize {
        self.live.load(Ordering::SeqCst)
    }

    /// Stop every worker and join them (connections are dropped).
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for mailbox in &self.mailboxes {
            mailbox.waker.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ReactorHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// A test handler answering each frame of a burst on its own.
#[cfg(test)]
pub(crate) fn per_frame(f: impl Fn(Bytes) -> Bytes + Send + Sync + 'static) -> BurstFn {
    Arc::new(move |frames, _conn: &ConnCtx| {
        frames
            .into_iter()
            .map(|frame| Reply::Ready(f(frame)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::Framed;
    use crate::server::poll_until;
    use std::time::Duration;

    /// A blocking client connection speaking whole frames.
    fn connect(addr: SocketAddr) -> Framed<TcpStream> {
        Framed::new(TcpStream::connect(addr).unwrap(), MAX_FRAME)
    }

    fn echo_reactor(workers: usize) -> ReactorHandle {
        let config = ReactorConfig {
            workers,
            ..ReactorConfig::default()
        };
        Reactor::bind("127.0.0.1:0", config, per_frame(|frame| frame)).unwrap()
    }

    #[test]
    fn frame_echo_roundtrip() {
        let r = echo_reactor(2);
        let mut stream = connect(r.addr());
        stream.write_frame(b"hello reactor").unwrap();
        let frame = stream.read_frame().unwrap();
        assert_eq!(frame.as_ref(), b"hello reactor");
        drop(stream);
        r.shutdown();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let r = echo_reactor(1);
        let mut stream = connect(r.addr());
        // Write 50 frames back-to-back before reading anything: the
        // reactor must answer all of them, in order.
        for i in 0..50u32 {
            stream.write_frame(&i.to_be_bytes()).unwrap();
        }
        for i in 0..50u32 {
            let frame = stream.read_frame().unwrap();
            assert_eq!(frame.as_ref(), i.to_be_bytes());
        }
        r.shutdown();
    }

    #[test]
    fn partial_frames_tolerated_at_any_boundary() {
        let r = echo_reactor(1);
        let mut stream = connect(r.addr());
        let mut wire = BytesBuf::new();
        FrameCodec::new(MAX_FRAME)
            .encode(b"split me", &mut wire)
            .unwrap();
        // Dribble the frame one byte at a time with pauses: the decoder
        // must wait for completion, then answer exactly once.
        for &b in wire.as_slice() {
            stream.get_mut().write_all(&[b]).unwrap();
            std::thread::sleep(Duration::from_millis(1));
        }
        let frame = stream.read_frame().unwrap();
        assert_eq!(frame.as_ref(), b"split me");
        r.shutdown();
    }

    #[test]
    fn oversized_frame_closes_connection() {
        let r = echo_reactor(1);
        let mut stream = TcpStream::connect(r.addr()).unwrap();
        stream
            .write_all(&(MAX_REQUEST_FRAME + 1).to_be_bytes())
            .unwrap();
        // The server must close; the read eventually sees EOF.
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut buf = [0u8; 16];
        let closed = poll_until(Duration::from_secs(5), || {
            matches!(stream.read(&mut buf), Ok(0))
        });
        assert!(closed, "oversized length prefix must close the connection");
        r.shutdown();
    }

    #[test]
    fn many_connections_few_threads() {
        let r = echo_reactor(2);
        assert_eq!(r.workers(), 2);
        let mut streams: Vec<_> = (0..100).map(|_| connect(r.addr())).collect();
        assert!(
            poll_until(Duration::from_secs(10), || r.live_connections() == 100),
            "100 connections must register, saw {}",
            r.live_connections()
        );
        // Every connection stays responsive.
        for (i, s) in streams.iter_mut().enumerate() {
            s.write_frame(&(i as u32).to_be_bytes()).unwrap();
        }
        for (i, s) in streams.iter_mut().enumerate() {
            let frame = s.read_frame().unwrap();
            assert_eq!(frame.as_ref(), (i as u32).to_be_bytes());
        }
        drop(streams);
        assert!(
            poll_until(Duration::from_secs(10), || r.live_connections() == 0),
            "closed connections must be reaped, saw {}",
            r.live_connections()
        );
        r.shutdown();
    }

    #[test]
    fn concurrent_clients_on_distinct_workers() {
        let r = echo_reactor(4);
        let addr = r.addr();
        let threads: Vec<_> = (0..16u32)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut s = connect(addr);
                    for round in 0..20u32 {
                        let msg = (i * 1000 + round).to_be_bytes();
                        s.write_frame(&msg).unwrap();
                        let frame = s.read_frame().unwrap();
                        assert_eq!(frame.as_ref(), msg);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        r.shutdown();
    }

    #[test]
    fn large_response_drains_via_write_interest() {
        // Handler inflates a tiny request into ~8 MiB, far beyond any
        // socket buffer — and beyond the *request* cap, which does not
        // bound responses: the response can only complete through
        // EPOLLOUT-driven incremental flushes.
        let config = ReactorConfig {
            workers: 1,
            ..ReactorConfig::default()
        };
        let r = Reactor::bind(
            "127.0.0.1:0",
            config,
            per_frame(|frame| Bytes::from(vec![frame[0]; 8 << 20])),
        )
        .unwrap();
        let mut stream = connect(r.addr());
        stream.write_frame(&[0x5A]).unwrap();
        let frame = stream.read_frame().unwrap();
        assert_eq!(frame.len(), 8 << 20);
        assert!(frame.iter().all(|&b| b == 0x5A));
        r.shutdown();
    }

    /// A thousand responses flushing toward one slow reader — the
    /// storm-coalescing shape, where a fan-out burst lands on a client
    /// that isn't draining — must stay bounded by high-water: read
    /// interest drops once unflushed bytes cross the mark, so the
    /// per-connection buffer hovers near the watermark instead of
    /// absorbing all 64 MiB, and every byte still arrives intact.
    #[test]
    fn thousand_response_flush_stays_bounded_by_high_water() {
        const N: usize = 1_000;
        const PAYLOAD: usize = 64 << 10;
        const HIGH_WATER: usize = 1 << 20; // the reactor's floor
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 1,
            high_water: HIGH_WATER,
            registry: Some(registry.clone()),
        };
        let r = Reactor::bind(
            "127.0.0.1:0",
            config,
            // Echo: every 64 KiB request becomes a 64 KiB response, so
            // request arrival paces response generation and the only
            // thing between the server and 64 MiB of buffered output is
            // the high-water toggle.
            per_frame(|frame| frame),
        )
        .unwrap();
        let gauge = |name: &str| irs_obs::parse_exposition(&registry.render())[name];

        let stream = TcpStream::connect(r.addr()).unwrap();
        let mut write_half = Framed::new(stream.try_clone().unwrap(), MAX_FRAME);
        let writer = std::thread::spawn(move || {
            let payload = vec![0xA5u8; PAYLOAD];
            for _ in 0..N {
                write_half.write_frame(&payload).unwrap();
            }
        });

        // Stall: nobody reads while the writer blasts. Socket buffers
        // fill, the server buffers to high-water, read interest drops,
        // and the writer blocks on TCP backpressure.
        std::thread::sleep(Duration::from_millis(300));
        let stalled = gauge("irs_net_write_buffer_bytes");
        assert!(
            stalled >= (256 << 10) as f64,
            "backpressure never engaged: only {stalled} bytes buffered"
        );

        // Drain everything, sampling the backlog as we go. The bound is
        // high-water plus one wakeup's worth of decoded frames (the
        // read budget) — far below the 64 MiB total that flowed.
        let mut stream = Framed::new(stream, MAX_FRAME);
        let mut max_seen = stalled;
        for i in 0..N {
            let frame = stream.read_frame().unwrap();
            assert_eq!(frame.len(), PAYLOAD, "response {i} truncated");
            assert!(frame.iter().all(|&b| b == 0xA5), "response {i} corrupted");
            max_seen = max_seen.max(gauge("irs_net_write_buffer_bytes"));
        }
        writer.join().unwrap();
        let bound = (HIGH_WATER + (2 << 20)) as f64;
        assert!(
            max_seen <= bound,
            "write buffer must stay bounded: peak {max_seen} > bound {bound}"
        );
        assert!(
            poll_until(Duration::from_secs(5), || {
                gauge("irs_net_write_buffer_bytes") == 0.0
            }),
            "backlog must return to zero after the drain"
        );
        r.shutdown();
    }

    #[test]
    fn shutdown_joins_workers_and_frees_port() {
        let r = echo_reactor(3);
        let addr = r.addr();
        let _stream = TcpStream::connect(addr).unwrap();
        r.shutdown();
        assert!(
            poll_until(Duration::from_secs(5), || TcpListener::bind(addr).is_ok()),
            "port must be released after shutdown"
        );
    }

    /// Completions of the replies a [`holding`] handler held, in order.
    type Held = Arc<Mutex<Vec<Completion>>>;

    /// A handler that holds every frame starting with `s` (due in 50 ms)
    /// or `l` (due in a minute), with the fallback `fallback`, and
    /// echoes the rest.
    fn holding(held: Held) -> BurstFn {
        Arc::new(move |frames: Vec<Bytes>, conn: &ConnCtx| {
            let hold_for = |frame: &Bytes| match frame.first() {
                Some(b's') => Some(Duration::from_millis(50)),
                Some(b'l') => Some(Duration::from_secs(60)),
                _ => None,
            };
            let reply = |frame: Bytes| match hold_for(&frame) {
                None => Reply::Ready(frame),
                Some(after) => {
                    let fallback = Bytes::from_static(b"fallback");
                    let (reply, completion) = conn.hold(Instant::now() + after, fallback);
                    held.lock().push(completion);
                    reply
                }
            };
            frames.into_iter().map(reply).collect()
        })
    }

    /// A one-worker [`holding`] reactor publishing into a fresh registry.
    fn holding_reactor() -> (ReactorHandle, Held, Arc<Registry>) {
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 1,
            registry: Some(registry.clone()),
            ..ReactorConfig::default()
        };
        let held = Held::default();
        let r = Reactor::bind("127.0.0.1:0", config, holding(held.clone())).unwrap();
        (r, held, registry)
    }

    /// Every gauge returns to zero on every teardown path — a client
    /// that closes, a reply that expires, a worker that shuts down —
    /// held replies included.
    #[test]
    fn registry_gauges_track_connections() {
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 2,
            registry: Some(registry.clone()),
            ..ReactorConfig::default()
        };
        let held = Held::default();
        let r = Reactor::bind("127.0.0.1:0", config, holding(held.clone())).unwrap();
        let gauge = |name: &str| irs_obs::parse_exposition(&registry.render())[name];
        let mut s = connect(r.addr());
        s.write_frame(b"x").unwrap();
        let _ = s.read_frame().unwrap();
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_net_reactor_workers"], 2.0);
        assert_eq!(parsed["irs_net_live_connections"], 1.0);
        assert_eq!(parsed["irs_net_held_replies"], 0.0);
        assert_eq!(parsed["irs_net_held_expired_total"], 0.0);
        assert!(parsed["irs_net_frames_total"] >= 1.0);
        assert_eq!(
            parsed["irs_net_request_us_count"],
            parsed["irs_net_frames_total"]
        );

        // Expiry: the fallback goes out and the reply stops counting.
        s.write_frame(b"s").unwrap();
        assert_eq!(s.read_frame().unwrap().as_ref(), b"fallback");
        assert_eq!(gauge("irs_net_held_expired_total"), 1.0);
        assert_eq!(gauge("irs_net_held_replies"), 0.0);

        // Close: a reply still held leaves with its connection.
        s.write_frame(b"l").unwrap();
        assert!(poll_until(Duration::from_secs(5), || {
            gauge("irs_net_held_replies") == 1.0
        }));
        drop(s);
        assert!(poll_until(Duration::from_secs(5), || {
            gauge("irs_net_live_connections") == 0.0 && gauge("irs_net_held_replies") == 0.0
        }));

        // Shutdown: the worker's sweep returns what it still holds.
        let mut s = connect(r.addr());
        s.write_frame(b"l").unwrap();
        assert!(poll_until(Duration::from_secs(5), || {
            gauge("irs_net_held_replies") == 1.0
        }));
        r.shutdown();
        assert_eq!(gauge("irs_net_held_replies"), 0.0);
        assert_eq!(gauge("irs_net_live_connections"), 0.0);
        assert_eq!(gauge("irs_net_held_expired_total"), 1.0);
    }

    /// The ready path carries a payload and nothing more: a burst's
    /// replies take no more room than its payloads would.
    #[test]
    fn a_reply_is_the_size_of_its_payload() {
        assert_eq!(std::mem::size_of::<Reply>(), std::mem::size_of::<Bytes>());
    }

    /// A reply nobody completes is answered with its fallback at its
    /// deadline, the replies pipelined behind it follow in order, and a
    /// completion that comes too late is dropped.
    #[test]
    fn held_reply_gets_its_fallback_at_its_deadline() {
        let (r, held, registry) = holding_reactor();
        let mut stream = connect(r.addr());
        let mut wire = BytesBuf::new();
        let codec = FrameCodec::new(MAX_FRAME);
        for frame in [&b"s"[..], b"after"] {
            codec.encode(frame, &mut wire).unwrap();
        }
        let sent = Instant::now();
        stream.get_mut().write_all(wire.as_slice()).unwrap();
        assert_eq!(stream.read_frame().unwrap().as_ref(), b"fallback");
        let waited = sent.elapsed();
        assert!(waited >= Duration::from_millis(45), "{waited:?}");
        assert_eq!(stream.read_frame().unwrap().as_ref(), b"after");

        let late = held.lock().pop().expect("the reply was held");
        late.complete(Bytes::from_static(b"late"));
        stream.write_frame(b"next").unwrap();
        assert_eq!(stream.read_frame().unwrap().as_ref(), b"next");
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_net_held_expired_total"], 1.0);
        assert_eq!(parsed["irs_net_held_replies"], 0.0);
        r.shutdown();
    }

    /// A completion for a connection that has closed goes nowhere — not
    /// to the connection that reuses its slot.
    #[test]
    fn completion_for_a_closed_connection_is_dropped() {
        let (r, held, registry) = holding_reactor();
        let mut first = connect(r.addr());
        first.write_frame(b"l").unwrap();
        assert!(poll_until(Duration::from_secs(5), || held.lock().len() == 1));
        drop(first);
        assert!(poll_until(Duration::from_secs(5), || r.live_connections() == 0));

        let mut second = connect(r.addr());
        second.write_frame(b"one").unwrap();
        assert_eq!(second.read_frame().unwrap().as_ref(), b"one");
        let stale = held.lock().pop().expect("the reply was held");
        stale.complete(Bytes::from_static(b"stale"));
        for frame in [&b"two"[..], b"three"] {
            second.write_frame(frame).unwrap();
            assert_eq!(second.read_frame().unwrap().as_ref(), frame);
        }
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_net_held_replies"], 0.0);
        assert_eq!(parsed["irs_net_held_expired_total"], 0.0);
        r.shutdown();
    }

    /// A pipelined backlog is served in order, in bursts of at most
    /// `MAX_BURST`; per-frame metrics stay per-frame and
    /// `irs_net_bursts_total` counts handler invocations.
    #[test]
    fn pipelined_backlog_is_answered_in_order_in_capped_bursts() {
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 1,
            registry: Some(registry.clone()),
            ..ReactorConfig::default()
        };
        let bursts = Arc::new(Mutex::new(Vec::new()));
        let seen = bursts.clone();
        let handler: BurstFn = Arc::new(move |frames: Vec<Bytes>, _conn: &ConnCtx| {
            seen.lock().push(frames.len());
            frames.into_iter().map(Reply::Ready).collect()
        });
        let r = Reactor::bind("127.0.0.1:0", config, handler).unwrap();
        let mut stream = connect(r.addr());
        let mut wire = BytesBuf::new();
        for i in 0..200u32 {
            let codec = FrameCodec::new(MAX_FRAME);
            codec.encode(&i.to_be_bytes(), &mut wire).unwrap();
        }
        stream.get_mut().write_all(wire.as_slice()).unwrap();
        for i in 0..200u32 {
            assert_eq!(stream.read_frame().unwrap().as_ref(), i.to_be_bytes());
        }
        let bursts = bursts.lock().clone();
        assert_eq!(bursts.iter().sum::<usize>(), 200);
        assert!(bursts.iter().all(|&n| n <= MAX_BURST), "{bursts:?}");
        assert!(bursts.len() < 200, "nothing ever overlapped: {bursts:?}");
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_net_frames_total"], 200.0);
        assert_eq!(parsed["irs_net_request_us_count"], 200.0);
        assert_eq!(parsed["irs_net_bursts_total"], bursts.len() as f64);
        r.shutdown();
    }

    /// A client that dies mid-exchange — half a frame written, a large
    /// undrained response still buffered server-side — must not leak
    /// either gauge: the error-path close has to return both the live
    /// slot and the buffered bytes.
    #[test]
    fn gauges_return_to_zero_after_midframe_client_death() {
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 1,
            registry: Some(registry.clone()),
            ..ReactorConfig::default()
        };
        // Handler inflates any request to 8 MiB — far beyond the socket
        // buffers, so unread responses pile up in the write buffer.
        let r = Reactor::bind(
            "127.0.0.1:0",
            config,
            per_frame(|frame| Bytes::from(vec![frame[0]; 8 << 20])),
        )
        .unwrap();
        let gauge = |name: &str| irs_obs::parse_exposition(&registry.render())[name];

        let mut s = connect(r.addr());
        // One complete request the client will never read the answer to…
        s.write_frame(&[0x41]).unwrap();
        // …then half of a second frame: a 64-byte promise, 3 bytes sent.
        s.get_mut().write_all(&64u32.to_be_bytes()).unwrap();
        s.get_mut().write_all(&[1, 2, 3]).unwrap();
        assert!(
            poll_until(Duration::from_secs(5), || {
                gauge("irs_net_write_buffer_bytes") > 0.0
            }),
            "undrained response must show up in the backlog gauge"
        );

        // Kill the client mid-frame. The server sees the close while
        // megabytes are still buffered and a frame is still incomplete.
        drop(s);
        assert!(
            poll_until(Duration::from_secs(5), || {
                gauge("irs_net_live_connections") == 0.0
                    && gauge("irs_net_write_buffer_bytes") == 0.0
            }),
            "teardown must zero both gauges, saw live={} buffered={}",
            gauge("irs_net_live_connections"),
            gauge("irs_net_write_buffer_bytes")
        );
        r.shutdown();
    }
}
