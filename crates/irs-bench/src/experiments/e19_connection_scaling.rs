//! E19 — connection scaling: event-loop reactor vs thread-per-connection.
//!
//! The paper's ecosystem asks ledgers and proxies to hold validate
//! connections from millions of browsers. The thread-per-connection
//! prototype pays one OS thread per socket — fine at ten connections,
//! a scheduler collapse at ten thousand. The reactor (`irs-net`,
//! DESIGN.md §12) serves every connection from a fixed worker pool.
//! This experiment climbs a connection ladder (10 → 10 000 concurrent
//! clients), drives a closed-loop query workload over every rung, and
//! reports throughput, latency percentiles, and — the structural point —
//! the number of *serving threads* each engine needs.
//!
//! The 10 000-connection rung needs ~20 000 file descriptors for the
//! client and server halves together; when one process's `RLIMIT_NOFILE`
//! cannot hold both, the server runs in a child process (the hidden
//! `e19-server` mode of the experiments binary) and the driver keeps
//! the client half. Quick mode stops at 1 000 connections and stays
//! in-process, which is what CI runs.
//!
//! `check(quick)` is the CI gate: at 1 000 connections the reactor must
//! sustain at least the threaded reference's throughput with a p99 no
//! worse, while serving from at most `2 × cores` worker threads.
//!
//! The thread-per-connection server is a *reference* kept in this file
//! (`start_threaded`): `irs-net` has one engine, the reactor, and the
//! column it is measured against is a bench fixture over the same
//! codec and the same `Ledger::handle`.

use crate::table::{f, Table};
use irs_core::claim::ClaimRequest;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::{Clock, SystemClock, TimeMs};
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response, Wire};
use irs_crypto::{Digest, Keypair};
use irs_ledger::{Ledger, LedgerConfig};
use irs_net::codec::{serve_burst, Framed, MAX_FRAME, MAX_REQUEST_FRAME};
use irs_net::ledger_server::LedgerServer;
use irs_net::reactor::sys::raise_nofile_limit;
use irs_net::{NetError, ServerHandle};
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The connection ladder. Quick mode (CI) climbs to 1 000; the full run
/// adds the 10 000 rung.
pub const RUNGS: [usize; 4] = [10, 100, 1_000, 10_000];

/// Driver threads issuing queries. Each owns `conns / DRIVERS` client
/// connections and sweeps them round-robin, so at any instant up to
/// `DRIVERS` requests are in flight while *every* connection stays
/// established — the load shape of many mostly-idle browsers.
const DRIVERS: usize = 8;

/// File descriptors reserved for everything that is not a measured
/// connection (stdio, the listener, wakers, the binary itself).
const FD_SLACK: usize = 256;

/// Which server a rung measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Event-loop reactor workers (`irs-net`'s engine).
    Reactor,
    /// Thread per connection (this file's reference server).
    Threaded,
}

/// The thread-per-connection reference: one parked OS thread per socket,
/// each looping read → `Ledger::handle` → write over the same
/// frame codec and request decoding the reactor servers use.
fn start_threaded(ledger: Arc<Ledger>) -> std::io::Result<ServerHandle> {
    ServerHandle::spawn("127.0.0.1:0", move |stream, stop| {
        // Bound reads so the connection thread notices shutdown.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let mut conn = Framed::new(stream, MAX_REQUEST_FRAME);
        while !stop.load(Ordering::SeqCst) {
            let frame = match conn.read_frame() {
                Ok(frame) => frame,
                Err(e) if e.is_timeout() => continue,
                Err(_) => return,
            };
            let reply = serve_burst(vec![frame], |reqs| {
                let now = SystemClock.now();
                reqs.into_iter()
                    .map(|req| ledger.handle(req, now))
                    .collect()
            });
            if conn.write_frame(&reply[0]).is_err() {
                return;
            }
        }
    })
}

/// One closed-loop client connection: a blocking socket, whole frames.
type Client = Framed<TcpStream>;

fn exchange(client: &mut Client, request: &Request) -> Result<Response, NetError> {
    client.write_frame(&request.to_bytes()?)?;
    Ok(Response::from_bytes(client.read_frame()?)?)
}

/// One rung's measurement.
#[derive(Clone, Copy, Debug)]
pub struct RungResult {
    /// Aggregate closed-loop throughput, queries per second.
    pub tput: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// Threads the server needed to serve the rung (reactor: worker
    /// pool size; threaded: one per live connection).
    pub serving_threads: usize,
}

/// Preload `records` claims with a fixed keypair so the driver can
/// address them as dense serials 0..records without any out-of-band
/// coordination (the child-process server rebuilds the same ledger from
/// the same count).
fn build_ledger(records: u64) -> Ledger {
    let conc = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(0xE19),
    );
    let keypair = Keypair::from_seed(&[0x19; 32]);
    for i in 0..records {
        let req = ClaimRequest::create(&keypair, &Digest::of(&i.to_le_bytes()));
        conc.handle(Request::Claim(req), TimeMs(i));
    }
    conc
}

/// The hidden `e19-server` child mode: build the ledger, serve it on an
/// ephemeral port on the default (reactor) engine, print the address,
/// and hold until the parent closes our stdin. Never returns.
pub fn serve_child(records: u64) -> ! {
    raise_nofile_limit();
    let ledger = Arc::new(build_ledger(records));
    let server = LedgerServer::start(ledger, "127.0.0.1:0").expect("e19-server bind");
    println!("ADDR {}", server.addr());
    let _ = std::io::stdout().flush();
    // Parked on stdin: EOF means the parent is done with this rung.
    let mut sink = String::new();
    while matches!(std::io::stdin().lock().read_line(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    std::process::exit(0);
}

/// A server for one rung: in-process when the fd budget allows, else a
/// child process running `e19-server` (reactor only — the threaded
/// reference is never measured past the in-process budget).
enum RungServer {
    InProc(LedgerServer),
    Threaded(ServerHandle),
    Child(std::process::Child, SocketAddr),
}

impl RungServer {
    fn addr(&self) -> SocketAddr {
        match self {
            RungServer::InProc(s) => s.addr(),
            RungServer::Threaded(s) => s.addr(),
            RungServer::Child(_, addr) => *addr,
        }
    }

    /// Serving threads at peak, queried *while `conns` are connected*.
    /// The child server is interrogated over the wire: the reactor
    /// publishes `irs_net_reactor_workers` into the ledger's registry.
    fn serving_threads(&self, probe: &mut Client) -> usize {
        match self {
            RungServer::InProc(s) => s.serving_threads(),
            // One thread per live connection — the probe's included.
            RungServer::Threaded(s) => s.live_connections().saturating_sub(1),
            RungServer::Child(..) => {
                let Ok(Response::MetricsText(text)) = exchange(probe, &Request::Metrics) else {
                    return 0;
                };
                irs_obs::parse_exposition(&text)
                    .get("irs_net_reactor_workers")
                    .map(|v| *v as usize)
                    .unwrap_or(0)
            }
        }
    }

    fn shutdown(self) {
        match self {
            RungServer::InProc(s) => s.shutdown(),
            RungServer::Threaded(s) => s.shutdown(),
            RungServer::Child(mut child, _) => {
                // Closing stdin releases the child's read_line park.
                drop(child.stdin.take());
                let _ = child.wait();
            }
        }
    }
}

fn start_server(engine: EngineKind, conns: usize, records: u64) -> std::io::Result<RungServer> {
    let fd_budget = raise_nofile_limit() as usize;
    let in_proc_need = 2 * conns + FD_SLACK;
    if engine == EngineKind::Reactor && in_proc_need > fd_budget {
        // Split the fd bill across two processes: the server child holds
        // the accept half, this process keeps the client half.
        let exe = std::env::current_exe()?;
        let mut child = std::process::Command::new(exe)
            .arg("e19-server")
            .arg(records.to_string())
            .stdin(std::process::Stdio::piped())
            .stdout(std::process::Stdio::piped())
            .spawn()?;
        let stdout = child.stdout.take().expect("child stdout piped");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = lines
            .next()
            .and_then(|l| l.ok())
            .and_then(|l| l.strip_prefix("ADDR ").map(str::to_string))
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| std::io::Error::other("e19-server child sent no address"))?;
        // Keep draining the pipe so the child never blocks on stdout.
        std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
        return Ok(RungServer::Child(child, addr));
    }
    let ledger = Arc::new(build_ledger(records));
    Ok(match engine {
        EngineKind::Reactor => RungServer::InProc(LedgerServer::start(ledger, "127.0.0.1:0")?),
        EngineKind::Threaded => RungServer::Threaded(start_threaded(ledger)?),
    })
}

/// Dial with retries: a rung that opens thousands of sockets in a burst
/// can outrun the listener's accept backlog, and a refused dial just
/// needs a moment for the reactor to drain the queue.
fn connect_patiently(addr: SocketAddr) -> std::io::Result<Client> {
    let timeout = Duration::from_secs(5);
    let dial = || {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Framed::new(stream, MAX_FRAME))
    };
    let mut last = None;
    for attempt in 0..5 {
        match dial() {
            Ok(c) => return Ok(c),
            Err(e) => {
                last = Some(e);
                std::thread::sleep(Duration::from_millis(10 << attempt));
            }
        }
    }
    Err(last.expect("at least one attempt"))
}

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 16
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Measure one rung: establish `conns` connections, sweep
/// `ops_per_conn` queries over each from `DRIVERS` driver threads,
/// report aggregate throughput and latency percentiles.
pub fn measure(
    engine: EngineKind,
    conns: usize,
    ops_per_conn: u64,
    records: u64,
    seed: u64,
) -> RungResult {
    let server = start_server(engine, conns, records).expect("rung server start");
    let addr = server.addr();

    // Establish every connection first (the drivers share the dialing),
    // then measure with the full population connected.
    let clients: Vec<Mutex<Vec<Client>>> = (0..DRIVERS).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for (d, cell) in clients.iter().enumerate() {
            scope.spawn(move || {
                let share = conns / DRIVERS + usize::from(d < conns % DRIVERS);
                let mut own = Vec::with_capacity(share);
                for _ in 0..share {
                    own.push(connect_patiently(addr).expect("rung connection"));
                }
                *cell.lock().unwrap() = own;
            });
        }
    });

    let answered = AtomicU64::new(0);
    let latencies: Vec<Mutex<Vec<u64>>> = (0..DRIVERS).map(|_| Mutex::new(Vec::new())).collect();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for (d, (cell, lat)) in clients.iter().zip(&latencies).enumerate() {
            let answered = &answered;
            scope.spawn(move || {
                let mut own = cell.lock().unwrap();
                let mut ns = Vec::with_capacity(own.len() * ops_per_conn as usize);
                let mut state = seed ^ (0x9E37_79B9_7F4A_7C15u64).wrapping_mul(d as u64 + 1);
                let mut ok = 0u64;
                for _round in 0..ops_per_conn {
                    for client in own.iter_mut() {
                        let serial = lcg(&mut state) % records;
                        let id = RecordId::new(LedgerId(1), serial);
                        let t0 = Instant::now();
                        let resp = exchange(client, &Request::Query { id }).expect("rung query");
                        ns.push(t0.elapsed().as_nanos() as u64);
                        if matches!(resp, Response::Status { .. }) {
                            ok += 1;
                        }
                    }
                }
                answered.fetch_add(ok, Ordering::Relaxed);
                *lat.lock().unwrap() = ns;
            });
        }
    });
    let elapsed = started.elapsed();
    let total: u64 = conns as u64 * ops_per_conn;
    assert_eq!(
        answered.load(Ordering::Relaxed),
        total,
        "every query must be answered with a status"
    );

    // Serving threads while the population is still connected. Round-trip
    // a ping first so the probe's own accept has definitely landed before
    // any connection gauge is read.
    let mut probe = connect_patiently(addr).expect("probe connection");
    exchange(&mut probe, &Request::Ping).expect("probe ping");
    let serving_threads = server.serving_threads(&mut probe);
    drop(probe);

    let mut all: Vec<u64> = latencies
        .into_iter()
        .flat_map(|m| m.into_inner().unwrap())
        .collect();
    all.sort_unstable();
    // Drop the client population before the server so the shutdown never
    // races 10 000 in-flight FIN exchanges.
    drop(clients);
    server.shutdown();

    RungResult {
        tput: total as f64 / elapsed.as_secs_f64(),
        p50_us: percentile(&all, 50.0),
        p99_us: percentile(&all, 99.0),
        serving_threads,
    }
}

fn seed_from_env() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xE19)
}

/// Run E19.
pub fn run(quick: bool) -> String {
    let records: u64 = if quick { 5_000 } else { 10_000 };
    let rungs: &[usize] = if quick { &RUNGS[..3] } else { &RUNGS };
    let seed = seed_from_env();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut table = Table::new(
        "E19 — connection scaling: reactor vs thread-per-connection",
        &[
            "connections",
            "engine",
            "throughput (q/s)",
            "p50 (µs)",
            "p99 (µs)",
            "serving threads",
        ],
    );
    for &conns in rungs {
        // Bound the rung's wall time: big populations get fewer sweeps.
        let ops_per_conn: u64 = match conns {
            0..=100 => 200,
            101..=1_000 => 20,
            _ => 5,
        };
        let reactor = measure(EngineKind::Reactor, conns, ops_per_conn, records, seed);
        table.row(vec![
            conns.to_string(),
            "reactor".into(),
            f(reactor.tput / 1e3, 1) + "k",
            f(reactor.p50_us, 0),
            f(reactor.p99_us, 0),
            reactor.serving_threads.to_string(),
        ]);
        if conns <= 1_000 {
            let threaded = measure(EngineKind::Threaded, conns, ops_per_conn, records, seed);
            table.row(vec![
                conns.to_string(),
                "threaded".into(),
                f(threaded.tput / 1e3, 1) + "k",
                f(threaded.p50_us, 0),
                f(threaded.p99_us, 0),
                threaded.serving_threads.to_string(),
            ]);
        } else {
            table.row(vec![
                conns.to_string(),
                "threaded".into(),
                "—".into(),
                "—".into(),
                "—".into(),
                format!("(would need {conns})"),
            ]);
        }
    }
    table.note(format!(
        "{records} preloaded records; {DRIVERS} closed-loop driver threads sweep the \
         connection population round-robin (every connection established for the whole rung)"
    ));
    table.note(format!(
        "{cores} hardware thread(s); reactor worker pool is fixed at max(2, cores) \
         regardless of rung — the threaded engine needs one thread per connection, \
         and is not attempted past 1 000"
    ));
    table.note(
        "10 000-rung server runs in a child process when one process's fd limit \
         cannot hold both halves of 20 000 sockets",
    );
    table.note(
        "threaded = a thread-per-connection reference server local to this experiment \
         (same frame codec, same Ledger::handle); irs-net's only engine is the reactor",
    );
    table.render()
}

/// The CI gate: at 1 000 connections the reactor must match or beat the
/// threaded baseline on both throughput and p99 while serving from a
/// bounded worker pool (≤ 2 × cores). Closed-loop throughput on a noisy
/// shared runner jitters, so the comparison retries up to three times
/// and passes on the first clean attempt.
pub fn check(quick: bool) -> Result<String, String> {
    let conns = 1_000;
    let ops_per_conn: u64 = if quick { 20 } else { 40 };
    let records: u64 = if quick { 5_000 } else { 10_000 };
    let seed = seed_from_env();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let worker_bound = (2 * cores).max(2);

    let mut last = String::new();
    for attempt in 1..=3 {
        let reactor = measure(
            EngineKind::Reactor,
            conns,
            ops_per_conn,
            records,
            seed + attempt,
        );
        let threaded = measure(
            EngineKind::Threaded,
            conns,
            ops_per_conn,
            records,
            seed + attempt,
        );
        if reactor.serving_threads > worker_bound {
            // Structural, not noise: no retry can fix an oversized pool.
            return Err(format!(
                "reactor used {} worker threads at {} connections (bound: {worker_bound})",
                reactor.serving_threads, conns
            ));
        }
        let tput_ok = reactor.tput >= threaded.tput;
        let p99_ok = reactor.p99_us <= threaded.p99_us;
        let summary = format!(
            "e19 @{conns} conns (attempt {attempt}): reactor {:.1}k q/s p99 {:.0}µs on {} threads; \
             threaded {:.1}k q/s p99 {:.0}µs on {} threads",
            reactor.tput / 1e3,
            reactor.p99_us,
            reactor.serving_threads,
            threaded.tput / 1e3,
            threaded.p99_us,
            threaded.serving_threads,
        );
        if tput_ok && p99_ok {
            return Ok(summary);
        }
        last = summary;
    }
    Err(format!(
        "reactor failed to match the threaded baseline in 3 attempts: {last}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small rung end-to-end through the real measurement path: both
    /// engines answer everything, and the reactor's serving threads are
    /// bounded by the pool (not the connection count).
    #[test]
    fn small_rung_measures_both_engines() {
        let reactor = measure(EngineKind::Reactor, 10, 5, 500, 7);
        let threaded = measure(EngineKind::Threaded, 10, 5, 500, 7);
        assert!(reactor.tput > 0.0 && threaded.tput > 0.0);
        assert!(reactor.p99_us > 0.0);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        assert!(
            reactor.serving_threads <= (2 * cores).max(2),
            "reactor pool must be bounded by cores, got {}",
            reactor.serving_threads
        );
        assert_eq!(
            threaded.serving_threads, 10,
            "threaded engine pays one thread per connection"
        );
    }
}
