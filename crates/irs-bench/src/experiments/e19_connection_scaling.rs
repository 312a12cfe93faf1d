//! E19 — connection scaling: one reactor pool serves every connection.
//!
//! The paper's ecosystem asks ledgers and proxies to hold validate
//! connections from millions of browsers. A thread-per-connection server
//! pays one OS thread per socket — a scheduler collapse at ten thousand;
//! the reactor (`irs-net`, DESIGN.md §12) serves every connection from
//! a fixed worker pool. This experiment climbs a connection ladder
//! (10 → 10 000 concurrent clients), drives a closed-loop query workload
//! over every rung, and reports throughput, latency percentiles, and —
//! the structural point — the number of *serving threads* the server
//! needs.
//!
//! The 10 000-connection rung needs ~20 000 file descriptors for the
//! client and server halves together; when one process's `RLIMIT_NOFILE`
//! cannot hold both, the server runs in a child process (the hidden
//! `e19-server` mode of the experiments binary) and the driver keeps
//! the client half. Quick mode stops at 1 000 connections and stays
//! in-process, which is what CI runs.
//!
//! `check(quick)` is the CI gate: at 1 000 connections (and 10 000 in a
//! full run) every query is answered, from at most `(2 × cores).max(2)`
//! serving threads. The thread-per-connection column this table once
//! carried lost every rung and is retired (EXPERIMENTS.md E19).

use crate::rig::{chaos_seed, preloaded_ledger, IdStream};
use crate::table::{f, Table};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::wire::{Request, Response, Wire};
use irs_net::codec::{Framed, MAX_FRAME};
use irs_net::ledger_server::LedgerServer;
use irs_net::reactor::sys::raise_nofile_limit;
use irs_net::NetError;
use irs_simnet::Histogram;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream};
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

/// One closed-loop client connection: a blocking socket, whole frames.
type Client = Framed<TcpStream>;

fn exchange(client: &mut Client, request: &Request) -> Result<Response, NetError> {
    client.write_frame(&request.to_bytes()?)?;
    Ok(Response::from_bytes(client.read_frame()?)?)
}

/// One rung's measurement.
#[derive(Clone, Copy, Debug)]
pub struct RungResult {
    /// Queries issued.
    pub queries: u64,
    /// Queries answered with a status.
    pub answered: u64,
    /// Aggregate closed-loop throughput, queries per second.
    pub tput: f64,
    /// Median query latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: f64,
    /// The server's serving threads (its reactor worker pool) while
    /// every connection was established.
    pub serving_threads: usize,
}

/// The most serving threads a rung may use, whatever its connection
/// count: twice the reactor's default pool of `max(2, cores)`.
fn worker_bound() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    (2 * cores).max(2)
}

/// Sweeps per connection: big populations get fewer, which bounds a
/// rung's wall time.
fn sweeps(conns: usize) -> u64 {
    match conns {
        0..=100 => 200,
        101..=1_000 => 20,
        _ => 5,
    }
}

/// The hidden `e19-server` child mode: build the ledger, serve it on an
/// ephemeral port, print the address, and hold until the parent closes
/// our stdin. Never returns.
pub fn serve_child(records: u64) -> ! {
    raise_nofile_limit();
    let server =
        LedgerServer::start(preloaded_ledger(records), "127.0.0.1:0").expect("e19-server bind");
    println!("ADDR {}", server.addr());
    let _ = std::io::stdout().flush();
    // Parked on stdin: EOF means the parent is done with this rung.
    let mut sink = String::new();
    while matches!(std::io::stdin().lock().read_line(&mut sink), Ok(n) if n > 0) {}
    server.shutdown();
    std::process::exit(0);
}

/// A server for one rung: in-process when the fd budget allows, else a
/// child process running `e19-server`.
enum RungServer {
    InProc(LedgerServer),
    Child(std::process::Child, SocketAddr),
}

impl RungServer {
    fn addr(&self) -> SocketAddr {
        match self {
            RungServer::InProc(s) => s.addr(),
            RungServer::Child(_, addr) => *addr,
        }
    }

    /// Serving threads, queried *while the population is connected*.
    /// The child server is interrogated over the wire: the reactor
    /// publishes `irs_net_reactor_workers` into the ledger's registry.
    fn serving_threads(&self, probe: &mut Client) -> usize {
        match self {
            RungServer::InProc(s) => s.serving_threads(),
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
            RungServer::Child(mut child, _) => {
                // Closing stdin releases the child's read_line park.
                drop(child.stdin.take());
                let _ = child.wait();
            }
        }
    }
}

fn start_server(conns: usize, records: u64) -> std::io::Result<RungServer> {
    let fd_budget = raise_nofile_limit() as usize;
    if 2 * conns + FD_SLACK <= fd_budget {
        let server = LedgerServer::start(preloaded_ledger(records), "127.0.0.1:0")?;
        return Ok(RungServer::InProc(server));
    }
    // Split the fd bill across two processes: the server child holds the
    // accept half, this process keeps the client half.
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
    Ok(RungServer::Child(child, addr))
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

/// Measure one rung: establish `conns` connections, sweep
/// `ops_per_conn` queries over each from `DRIVERS` driver threads,
/// report aggregate throughput, latency percentiles and serving threads.
pub fn measure(conns: usize, ops_per_conn: u64, records: u64, seed: u64) -> RungResult {
    let server = start_server(conns, records).expect("rung server start");
    let addr = server.addr();

    // Establish every connection first (the drivers share the dialing),
    // then measure with the full population connected.
    let mut clients: Vec<Vec<Client>> = std::thread::scope(|scope| {
        let dialers: Vec<_> = (0..DRIVERS)
            .map(|d| {
                scope.spawn(move || {
                    let share = conns / DRIVERS + usize::from(d < conns % DRIVERS);
                    (0..share)
                        .map(|_| connect_patiently(addr).expect("rung connection"))
                        .collect()
                })
            })
            .collect();
        dialers
            .into_iter()
            .map(|h| h.join().expect("dialer thread"))
            .collect()
    });

    let started = Instant::now();
    let (answered, mut latencies) = std::thread::scope(|scope| {
        let drivers: Vec<_> = (0u64..)
            .zip(clients.iter_mut())
            .map(|(d, own)| {
                scope.spawn(move || {
                    let mut ids = IdStream::new(seed, d);
                    let mut ns = Histogram::new();
                    let mut ok = 0u64;
                    for _round in 0..ops_per_conn {
                        for client in own.iter_mut() {
                            let id = RecordId::new(LedgerId(1), ids.below(records));
                            let t0 = Instant::now();
                            let resp = exchange(client, &Request::Query { id });
                            ns.record(t0.elapsed().as_nanos() as u64);
                            if matches!(resp, Ok(Response::Status { .. })) {
                                ok += 1;
                            }
                        }
                    }
                    (ok, ns)
                })
            })
            .collect();
        let mut all = (0, Histogram::new());
        for driver in drivers {
            let (ok, ns) = driver.join().expect("driver thread");
            all.0 += ok;
            all.1.merge(&ns);
        }
        all
    });
    let elapsed = started.elapsed();
    let queries = conns as u64 * ops_per_conn;

    // Serving threads while the population is still connected. Round-trip
    // a ping first so the probe's own accept has definitely landed before
    // any gauge is read.
    let mut probe = connect_patiently(addr).expect("probe connection");
    exchange(&mut probe, &Request::Ping).expect("probe ping");
    let serving_threads = server.serving_threads(&mut probe);
    drop(probe);

    // Drop the client population before the server so the shutdown never
    // races 10 000 in-flight FIN exchanges.
    drop(clients);
    server.shutdown();

    let mut us = |q: f64| latencies.quantile(q).unwrap_or(0) as f64 / 1_000.0;
    RungResult {
        queries,
        answered,
        tput: queries as f64 / elapsed.as_secs_f64(),
        p50_us: us(0.50),
        p99_us: us(0.99),
        serving_threads,
    }
}

/// Run E19.
pub fn run(quick: bool) -> String {
    let records: u64 = if quick { 5_000 } else { 10_000 };
    let rungs: &[usize] = if quick { &RUNGS[..3] } else { &RUNGS };
    let seed = chaos_seed(0xE19);

    let mut table = Table::new(
        "E19 — connection scaling: one reactor pool, every connection",
        &[
            "connections",
            "answered",
            "throughput (q/s)",
            "p50 (µs)",
            "p99 (µs)",
            "serving threads",
        ],
    );
    for &conns in rungs {
        let r = measure(conns, sweeps(conns), records, seed);
        table.row(vec![
            conns.to_string(),
            format!("{}/{}", r.answered, r.queries),
            f(r.tput / 1e3, 1) + "k",
            f(r.p50_us, 0),
            f(r.p99_us, 0),
            r.serving_threads.to_string(),
        ]);
    }
    table.note(format!(
        "{records} preloaded records; {DRIVERS} closed-loop driver threads sweep the \
         connection population round-robin (every connection established for the whole rung)"
    ));
    table.note(format!(
        "{} hardware thread(s); the reactor's worker pool is max(2, cores) whatever the \
         rung, and the gate's bound is {} serving threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        worker_bound()
    ));
    table.note(
        "10 000-rung server runs in a child process when one process's fd limit \
         cannot hold both halves of 20 000 sockets",
    );
    table.render()
}

/// The CI gate: at 1 000 connections (and 10 000 in a full run) every
/// query is answered, and the server serves them from at most
/// `(2 × cores).max(2)` threads. Structural, so no retry: noise cannot
/// unanswer a query or grow a pool.
pub fn check(quick: bool) -> Result<String, String> {
    let records: u64 = if quick { 5_000 } else { 10_000 };
    let rungs: &[usize] = if quick { &RUNGS[2..3] } else { &RUNGS[2..] };
    let seed = chaos_seed(0xE19);
    let bound = worker_bound();
    let mut lines = Vec::new();
    for &conns in rungs {
        let r = measure(conns, sweeps(conns), records, seed);
        if r.answered != r.queries {
            return Err(format!(
                "{conns} connections: {}/{} queries answered (seed {seed})",
                r.answered, r.queries
            ));
        }
        if r.serving_threads > bound {
            return Err(format!(
                "{conns} connections served from {} threads (bound: {bound})",
                r.serving_threads
            ));
        }
        lines.push(format!(
            "{conns} conns: {}/{} answered from {} serving threads ({:.1}k q/s, p99 {:.0} µs)",
            r.answered,
            r.queries,
            r.serving_threads,
            r.tput / 1e3,
            r.p99_us
        ));
    }
    Ok(format!(
        "e19 ok (seed {seed}, bound {bound} threads): {}",
        lines.join("; ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small rung end-to-end through the real measurement path: every
    /// query answered, from a pool bounded by cores, not connections.
    #[test]
    fn small_rung_is_answered_from_a_bounded_pool() {
        let r = measure(10, 5, 500, 7);
        assert_eq!(r.answered, r.queries);
        assert!(r.tput > 0.0 && r.p99_us > 0.0);
        assert!(
            r.serving_threads <= worker_bound(),
            "reactor pool must be bounded by cores, got {}",
            r.serving_threads
        );
    }
}
