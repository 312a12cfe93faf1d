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
//!   workers over an inbox + eventfd/pipe wakeup, and from then on a
//!   connection lives entirely on its worker (no cross-worker locking
//!   on the hot path).
//! * Per-connection state machine — a read [`BytesBuf`], a write
//!   [`BytesBuf`], and the [`FrameCodec`]: requests are decoded with the
//!   configured request cap, responses encoded with [`MAX_FRAME`] (a
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
//! Handlers run on the worker thread. The ledger's request path is
//! CPU-bound and fast, so this is the right trade; proxy handlers may
//! block on a bounded upstream call, which is why
//! [`ProxyServer`](crate::proxy_server::ProxyServer) sizes its worker
//! pool larger than the core count. DESIGN.md §12 has the full rules.

#![cfg(unix)]

use crate::codec::{BytesBuf, FrameCodec, MAX_FRAME, MAX_REQUEST_FRAME};
use bytes::Bytes;
use irs_obs::{Counter, Gauge, Histogram, Registry};
use std::collections::VecDeque;
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

/// Produce the response payloads for one burst of request frames — every
/// complete frame one readiness event delivered on a connection, at most
/// [`MAX_BURST`] — one response per frame, in order. Runs on a reactor
/// worker thread; must be `Send + Sync` and should be fast or
/// deadline-bounded (DESIGN.md §12). The second argument is the
/// connection id: a reactor-wide monotone counter stamped at accept
/// time, stable for the connection's whole life. Servers key per-client
/// admission (token buckets, fairness) on it — it never repeats within
/// one reactor, so a reconnecting abuser starts a fresh bucket rather
/// than inheriting a stranger's.
pub type BurstFn = Arc<dyn Fn(Vec<Bytes>, u64) -> Vec<Bytes> + Send + Sync>;

/// Reactor tuning knobs.
#[derive(Clone)]
pub struct ReactorConfig {
    /// Worker threads (each one event loop). Defaults to
    /// `max(2, available_parallelism)` — bounded by the machine, not by
    /// the connection count.
    pub workers: usize,
    /// Declared-length cap on inbound request frames.
    pub max_frame: u32,
    /// Stop reading a connection whose unflushed responses exceed this
    /// many bytes; resume below half of it.
    pub high_water: usize,
    /// Metrics registry; when set the reactor publishes
    /// `irs_net_live_connections` / `irs_net_reactor_workers` gauges,
    /// `irs_net_accepted_total` / `irs_net_frames_total` /
    /// `irs_net_bursts_total` / `irs_net_frame_errors_total` counters,
    /// and an `irs_net_request_us` handler-latency histogram (one sample
    /// per frame; a burst's samples sum to its handler time) into it.
    pub registry: Option<Arc<Registry>>,
}

impl Default for ReactorConfig {
    fn default() -> ReactorConfig {
        ReactorConfig {
            workers: default_workers(),
            max_frame: MAX_REQUEST_FRAME,
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
pub const MAX_BURST: usize = 64;

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
    /// Reactor-wide connection id (see [`BurstFn`]).
    id: u64,
    stream: TcpStream,
    read_buf: BytesBuf,
    write_buf: BytesBuf,
    interest: Interest,
}

/// What to do with a connection after handling one readiness event.
enum Verdict {
    Keep,
    Close,
}

struct Worker {
    poller: Poller,
    waker: Arc<Waker>,
    inbox: Arc<Mutex<VecDeque<TcpStream>>>,
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
    assign: Option<Vec<AssignSlot>>,
    next_worker: usize,
    /// Shared id well: every install draws the next connection id here.
    conn_seq: Arc<AtomicU64>,
}

/// One worker's handoff point in the acceptor's assignment table: the
/// inbox newly accepted sockets land in, and the waker that tells the
/// worker to drain it.
type AssignSlot = (Arc<Mutex<VecDeque<TcpStream>>>, Arc<Waker>);

impl Worker {
    fn run(mut self) {
        let mut events: Vec<Readiness> = Vec::with_capacity(256);
        let mut scratch = vec![0u8; READ_CHUNK];
        while !self.stop.load(Ordering::SeqCst) {
            events.clear();
            if self.poller.wait(&mut events, 200).is_err() {
                break;
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.install_inbox();
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
        }
        // Shutdown: drop every connection this worker owns, returning
        // both its live slot and its buffered bytes to the gauges.
        let mut open = 0usize;
        let mut buffered = 0u64;
        for conn in self.conns.iter().flatten() {
            open += 1;
            buffered += conn.write_buf.len() as u64;
        }
        self.live.fetch_sub(open, Ordering::SeqCst);
        self.metrics.live.sub(open as u64);
        self.metrics.write_buffer.sub(buffered);
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
                    let (inbox, waker) = &assign[target];
                    inbox.lock().push_back(stream);
                    waker.wake();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    /// Move newly assigned connections from the inbox into the poller.
    fn install_inbox(&mut self) {
        loop {
            let stream = {
                let mut inbox = self.inbox.lock();
                match inbox.pop_front() {
                    Some(s) => s,
                    None => return,
                }
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
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
                continue;
            }
            self.conns[slot] = Some(Conn {
                id: self.conn_seq.fetch_add(1, Ordering::Relaxed),
                stream,
                read_buf: BytesBuf::new(),
                write_buf: BytesBuf::new(),
                interest: Interest::READ,
            });
            self.live.fetch_add(1, Ordering::SeqCst);
            self.metrics.live.add(1);
        }
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
            // Decode and serve every complete frame, a burst at a time,
            // responses appended in request order (the pipelining
            // contract).
            loop {
                let mut burst = Vec::new();
                let mut poisoned = false;
                while burst.len() < MAX_BURST {
                    match self.codec.decode(&mut conn.read_buf) {
                        Ok(Some(frame)) => burst.push(frame),
                        Ok(None) => break,
                        // Hostile or corrupt length prefix: the stream
                        // can never resynchronize.
                        Err(_) => {
                            poisoned = true;
                            break;
                        }
                    }
                }
                let more = burst.len() == MAX_BURST;
                if !burst.is_empty() && !serve(&self.handler, &self.metrics, conn, burst)
                    || poisoned
                {
                    self.metrics.frame_errors.inc();
                    return Verdict::Close;
                }
                if !more {
                    break;
                }
            }
        }

        if ev.writable || !conn.write_buf.is_empty() {
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
        // bytes remain; read interest only while under high-water.
        let want = Interest {
            readable: conn.write_buf.len() < self.high_water,
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

    fn close(&mut self, slot: usize) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::take) {
            let _ = self.poller.deregister(&conn.stream);
            self.free.push(slot);
            self.live.fetch_sub(1, Ordering::SeqCst);
            self.metrics.live.sub(1);
            // Responses the peer never drained: release them from the
            // backlog gauge along with the connection (this is the
            // error-path close too — mid-frame deaths land here).
            self.metrics.write_buffer.sub(conn.write_buf.len() as u64);
        }
    }
}

/// Run the handler over one burst and buffer its responses; `false` if
/// the stream can no longer stay in sync.
fn serve(handler: &BurstFn, metrics: &Metrics, conn: &mut Conn, burst: Vec<Bytes>) -> bool {
    let frames = burst.len();
    metrics.frames.add(frames as u64);
    metrics.bursts.inc();
    let started = Instant::now();
    let responses = handler(burst, conn.id);
    metrics
        .request_us
        .record_spread_since(started, frames as u64);
    let before = conn.write_buf.len();
    let codec = FrameCodec::new(MAX_FRAME);
    // An unencodable (oversized) or missing response would desynchronize
    // the stream.
    let mut encoded = responses
        .iter()
        .map(|r| codec.encode(r, &mut conn.write_buf));
    let in_sync = responses.len() == frames && encoded.all(|e| e.is_ok());
    // Account whatever landed in the buffer even on failure, so the close
    // path's subtraction of the remaining buffer keeps the gauge exact.
    metrics
        .write_buffer
        .add((conn.write_buf.len() - before) as u64);
    in_sync
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
        let codec = FrameCodec::new(config.max_frame);

        // Build every worker's inbox + waker first so the acceptor
        // (worker 0) can hold the full assignment table.
        let mut wakers: Vec<Arc<Waker>> = Vec::with_capacity(workers);
        let mut inboxes: Vec<Arc<Mutex<VecDeque<TcpStream>>>> = Vec::with_capacity(workers);
        for _ in 0..workers {
            wakers.push(Arc::new(Waker::new()?));
            inboxes.push(Arc::new(Mutex::new(VecDeque::new())));
        }
        let assign: Vec<_> = inboxes
            .iter()
            .cloned()
            .zip(wakers.iter().cloned())
            .collect();

        let mut threads = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut poller = Poller::new()?;
            poller.register(wakers[w].read_fd(), TOKEN_WAKER, Interest::READ)?;
            let listener_for_worker = if w == 0 {
                poller.register(&listener, TOKEN_LISTENER, Interest::READ)?;
                Some(listener.try_clone()?)
            } else {
                None
            };
            let worker = Worker {
                poller,
                waker: wakers[w].clone(),
                inbox: inboxes[w].clone(),
                conns: Vec::new(),
                free: Vec::new(),
                codec,
                high_water: config.high_water.max(1 << 20),
                handler: handler.clone(),
                metrics: metrics.clone(),
                live: live.clone(),
                stop: stop.clone(),
                listener: listener_for_worker,
                assign: (w == 0).then(|| assign.clone()),
                next_worker: 0,
                conn_seq: conn_seq.clone(),
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
            wakers,
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
    wakers: Vec<Arc<Waker>>,
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
        for waker in &self.wakers {
            waker.wake();
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
    Arc::new(move |frames, _conn| frames.into_iter().map(&f).collect())
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
            max_frame: 1 << 20,
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

    #[test]
    fn registry_gauges_track_connections() {
        let registry = Arc::new(Registry::new());
        let config = ReactorConfig {
            workers: 2,
            registry: Some(registry.clone()),
            ..ReactorConfig::default()
        };
        let r = Reactor::bind("127.0.0.1:0", config, per_frame(|frame| frame)).unwrap();
        let mut s = connect(r.addr());
        s.write_frame(b"x").unwrap();
        let _ = s.read_frame().unwrap();
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_net_reactor_workers"], 2.0);
        assert_eq!(parsed["irs_net_live_connections"], 1.0);
        assert!(parsed["irs_net_frames_total"] >= 1.0);
        assert_eq!(
            parsed["irs_net_request_us_count"],
            parsed["irs_net_frames_total"]
        );
        drop(s);
        assert!(poll_until(Duration::from_secs(5), || {
            irs_obs::parse_exposition(&registry.render())["irs_net_live_connections"] == 0.0
        }));
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
        let handler: BurstFn = Arc::new(move |frames, _conn| {
            seen.lock().push(frames.len());
            frames
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
