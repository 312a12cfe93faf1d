//! Deterministic chaos-injection transport.
//!
//! [`ChaosProxy`] is a frame-aware TCP interposer that sits between a
//! client and a server speaking the length-prefixed wire protocol and
//! injects faults — connection refusal, delays, mid-frame truncation,
//! byte corruption, abrupt RST-style closes, and blackholes. Every fault
//! decision is a pure function of a seed and a monotonically increasing
//! event counter, so a failure scenario observed once can be replayed
//! exactly (the property the failure-injection tests and experiment E16
//! lean on).
//!
//! Topology: `client ⇄ chaos ⇄ upstream`. Each inbound connection gets
//! its own upstream connection; the interposer relays one request frame
//! up and one response frame down per exchange, deciding per-exchange
//! whether (and how) to misbehave. Two runtime switches support scripted
//! scenarios: the fault rate can be changed on the fly, and an *outage*
//! flag makes the interposer drop every connection instantly (a fast,
//! total partition — the scenario circuit breakers exist for).

use crate::codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME, MAX_REQUEST_FRAME};
use crate::server::ServerHandle;
use irs_filters::hash::mix64;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One way an exchange (or a freshly accepted connection) can be broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Close the connection without serving the exchange (connection
    /// refusal when drawn at accept time).
    Refuse,
    /// Delay before forwarding the request (connect/processing latency).
    DelayRequest,
    /// Delay before relaying the response back.
    DelayResponse,
    /// Forward the request, then relay only a prefix of the response
    /// frame and close — mid-frame truncation.
    TruncateResponse,
    /// Relay the response with one payload byte flipped (the frame length
    /// stays intact, so the corruption reaches the wire decoder).
    CorruptResponse,
    /// Close abruptly right after reading the request — the client sees
    /// the stream die where its response should have been.
    Reset,
    /// Swallow the request and serve nothing until the client gives up.
    Blackhole,
}

/// All fault modes, in stats-index order.
pub const ALL_FAULTS: [FaultMode; 7] = [
    FaultMode::Refuse,
    FaultMode::DelayRequest,
    FaultMode::DelayResponse,
    FaultMode::TruncateResponse,
    FaultMode::CorruptResponse,
    FaultMode::Reset,
    FaultMode::Blackhole,
];

/// Chaos-transport configuration.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault stream; same seed + same event order = same
    /// faults.
    pub seed: u64,
    /// Probability in `[0, 1]` that a given event (accepted connection or
    /// relayed exchange) is faulted.
    pub fault_rate: f64,
    /// The fault modes in play, drawn uniformly when an event is faulted.
    /// Empty means no faults regardless of `fault_rate`.
    pub modes: Vec<FaultMode>,
    /// Sleep applied by the delay modes.
    pub delay: Duration,
    /// How long a blackholed exchange is held before the interposer gives
    /// up and closes (keep above the client's read timeout so the client
    /// times out first).
    pub blackhole_hold: Duration,
    /// I/O timeout towards the upstream server.
    pub upstream_timeout: Duration,
}

impl ChaosConfig {
    /// A config injecting every fault mode at `fault_rate`, seeded.
    pub fn new(seed: u64, fault_rate: f64) -> ChaosConfig {
        ChaosConfig {
            seed,
            fault_rate,
            modes: ALL_FAULTS.to_vec(),
            delay: Duration::from_millis(20),
            blackhole_hold: Duration::from_millis(400),
            upstream_timeout: Duration::from_secs(5),
        }
    }

    /// Restrict to a subset of fault modes.
    pub fn with_modes(mut self, modes: &[FaultMode]) -> ChaosConfig {
        self.modes = modes.to_vec();
        self
    }
}

/// Point-in-time fault counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Events seen (connections accepted + exchanges relayed).
    pub events: u64,
    /// Faults injected, indexed like [`ALL_FAULTS`].
    pub injected: [u64; ALL_FAULTS.len()],
}

impl ChaosStats {
    /// Total faults injected across all modes.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }
}

struct Control {
    fault_rate_bits: AtomicU64,
    outage: AtomicBool,
    events: AtomicU64,
    injected: [AtomicU64; ALL_FAULTS.len()],
}

/// A running chaos interposer.
pub struct ChaosProxy {
    handle: ServerHandle,
    control: Arc<Control>,
}

impl ChaosProxy {
    /// Start an interposer on an ephemeral loopback port, forwarding to
    /// `upstream`.
    pub fn start(upstream: SocketAddr, config: ChaosConfig) -> std::io::Result<ChaosProxy> {
        let control = Arc::new(Control {
            fault_rate_bits: AtomicU64::new(config.fault_rate.to_bits()),
            outage: AtomicBool::new(false),
            events: AtomicU64::new(0),
            injected: Default::default(),
        });
        let ctl = control.clone();
        let handle = ServerHandle::spawn("127.0.0.1:0", move |stream, stop| {
            // Accept-time draw: connection refusal. Other modes drawn here
            // are ignored (and not counted) — they only make sense against
            // an exchange.
            if let Some(FaultMode::Refuse) = ctl.draw(&config) {
                ctl.note(FaultMode::Refuse);
                return; // dropped before any byte is served
            }
            if ctl.outage.load(Ordering::SeqCst) {
                return;
            }
            let Ok(up) = TcpStream::connect_timeout(&upstream, config.upstream_timeout) else {
                return;
            };
            let _ = up.set_nodelay(true);
            let _ = up.set_read_timeout(Some(config.upstream_timeout));
            let _ = up.set_write_timeout(Some(config.upstream_timeout));
            // Short client-side read timeout so the relay loop observes
            // `stop` while the client is idle (a request still arriving
            // when it fires stays buffered in `client`).
            let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
            let mut client = Framed::new(stream, MAX_REQUEST_FRAME);
            let mut up = Framed::new(up, MAX_FRAME);
            loop {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    return;
                }
                let request = match client.read_frame() {
                    Ok(f) => f,
                    Err(e) if e.is_timeout() => continue,
                    Err(_) => return,
                };
                if ctl.outage.load(Ordering::SeqCst) {
                    return; // fast total partition
                }
                let fault = ctl.draw(&config);
                if let Some(mode) = fault {
                    ctl.note(mode);
                }
                if !relay_exchange(&mut client, &mut up, &request, fault, &config, &stop) {
                    return;
                }
            }
        })?;
        Ok(ChaosProxy { handle, control })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Change the fault rate on the fly (scenario scripting).
    pub fn set_fault_rate(&self, rate: f64) {
        self.control
            .fault_rate_bits
            .store(rate.to_bits(), Ordering::SeqCst);
    }

    /// Flip the total-outage switch: while set, every connection (new or
    /// established) is dropped immediately.
    pub fn set_outage(&self, on: bool) {
        self.control.outage.store(on, Ordering::SeqCst);
    }

    /// Counters so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            events: self.control.events.load(Ordering::SeqCst),
            injected: std::array::from_fn(|i| self.control.injected[i].load(Ordering::SeqCst)),
        }
    }

    /// Stop the interposer and join its threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

impl Control {
    /// Draw the fault decision for the next event. Pure in (seed, event
    /// index, current fault rate): replaying the same event sequence with
    /// the same seed reproduces the same faults.
    fn draw(&self, config: &ChaosConfig) -> Option<FaultMode> {
        let n = self.events.fetch_add(1, Ordering::SeqCst);
        let rate = f64::from_bits(self.fault_rate_bits.load(Ordering::SeqCst));
        if config.modes.is_empty() || rate <= 0.0 {
            return None;
        }
        let roll = mix64(config.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        if (roll >> 11) as f64 / (1u64 << 53) as f64 >= rate {
            return None;
        }
        let pick = mix64(roll) as usize % config.modes.len();
        Some(config.modes[pick])
    }

    /// Record that a drawn fault was actually applied.
    fn note(&self, mode: FaultMode) {
        let idx = ALL_FAULTS.iter().position(|m| *m == mode).unwrap_or(0);
        self.injected[idx].fetch_add(1, Ordering::SeqCst);
    }
}

/// Relay one exchange, applying `fault`. Returns false when the
/// connection should end.
fn relay_exchange(
    client: &mut Framed<TcpStream>,
    up: &mut Framed<TcpStream>,
    request: &[u8],
    fault: Option<FaultMode>,
    config: &ChaosConfig,
    stop: &std::sync::atomic::AtomicBool,
) -> bool {
    // The faults that never reach upstream.
    match fault {
        Some(FaultMode::Refuse) | Some(FaultMode::Reset) => return false,
        Some(FaultMode::Blackhole) => {
            // Hold the line (in slices, so shutdown stays prompt), then
            // drop the connection without answering.
            let mut held = Duration::ZERO;
            while held < config.blackhole_hold {
                if stop.load(std::sync::atomic::Ordering::SeqCst) {
                    break;
                }
                let slice = Duration::from_millis(10).min(config.blackhole_hold - held);
                std::thread::sleep(slice);
                held += slice;
            }
            return false;
        }
        Some(FaultMode::DelayRequest) => std::thread::sleep(config.delay),
        _ => {}
    }
    let Some(response) = up.write_frame(request).and_then(|()| up.read_frame()).ok() else {
        return false;
    };
    match fault {
        Some(FaultMode::DelayResponse) => std::thread::sleep(config.delay),
        Some(FaultMode::TruncateResponse) => {
            // Write the full length header but only half the payload,
            // then close: the client sees a stream that dies mid-frame.
            let mut framed = BytesBuf::new();
            if FrameCodec::new(MAX_FRAME)
                .encode(&response, &mut framed)
                .is_ok()
            {
                let cut = framed.len() - response.len().div_ceil(2);
                let _ = client.get_mut().write_all(&framed.as_slice()[..cut]);
            }
            return false;
        }
        Some(FaultMode::CorruptResponse) => {
            let mut corrupted = response.to_vec();
            if let Some(mid) = corrupted.len().checked_sub(1) {
                corrupted[mid / 2] ^= 0x5a;
            }
            return client.write_frame(&corrupted).is_ok();
        }
        _ => {}
    }
    client.write_frame(&response).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::LedgerServer;
    use crate::service::{CallCtx, Service, TcpTransport};
    use crate::NetError;
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response, Wire};
    use irs_ledger::{Ledger, LedgerConfig};

    fn ledger_server() -> LedgerServer {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(0xC4A05),
        );
        LedgerServer::start(ledger, "127.0.0.1:0").unwrap()
    }

    /// A client of the interposer; redials by itself after a fault.
    fn client(chaos: &ChaosProxy) -> TcpTransport {
        TcpTransport::new(chaos.addr(), Duration::from_millis(500))
    }

    fn ping(client: &TcpTransport) -> Result<Response, NetError> {
        client.call(Request::Ping, &CallCtx::wall())
    }

    #[test]
    fn transparent_at_zero_fault_rate() {
        let server = ledger_server();
        let chaos = ChaosProxy::start(server.addr(), ChaosConfig::new(1, 0.0)).unwrap();
        let client = client(&chaos);
        for _ in 0..20 {
            assert_eq!(ping(&client).unwrap(), Response::Pong);
        }
        assert_eq!(chaos.stats().total_injected(), 0);
        assert_eq!(client.reconnects(), 0);
        chaos.shutdown();
        server.shutdown();
    }

    #[test]
    fn full_fault_rate_breaks_every_exchange() {
        let server = ledger_server();
        let config =
            ChaosConfig::new(7, 1.0).with_modes(&[FaultMode::Reset, FaultMode::TruncateResponse]);
        let chaos = ChaosProxy::start(server.addr(), config).unwrap();
        let client = client(&chaos);
        for _ in 0..5 {
            assert!(ping(&client).is_err());
        }
        assert!(chaos.stats().total_injected() >= 5);
        chaos.shutdown();
        server.shutdown();
    }

    #[test]
    fn fault_pattern_reproducible_from_seed() {
        // Two runs with the same seed over the same serialized call
        // sequence must fault the exact same calls.
        let pattern = |seed: u64| -> Vec<bool> {
            let server = ledger_server();
            let config = ChaosConfig::new(seed, 0.4)
                .with_modes(&[FaultMode::Reset, FaultMode::CorruptResponse]);
            let chaos = ChaosProxy::start(server.addr(), config).unwrap();
            let client = client(&chaos);
            let outcomes = (0..30).map(|_| ping(&client).is_ok()).collect();
            chaos.shutdown();
            server.shutdown();
            outcomes
        };
        let a = pattern(99);
        let b = pattern(99);
        assert_eq!(a, b, "same seed must replay the same fault pattern");
        assert!(
            a.iter().any(|ok| !ok),
            "40% fault rate must fault something"
        );
        assert!(a.iter().any(|ok| *ok), "40% fault rate must pass something");
    }

    #[test]
    fn outage_switch_partitions_and_heals() {
        let server = ledger_server();
        let chaos = ChaosProxy::start(server.addr(), ChaosConfig::new(3, 0.0)).unwrap();
        let client = client(&chaos);
        assert_eq!(ping(&client).unwrap(), Response::Pong);
        chaos.set_outage(true);
        assert!(ping(&client).is_err());
        chaos.set_outage(false);
        assert_eq!(ping(&client).unwrap(), Response::Pong);
        chaos.shutdown();
        server.shutdown();
    }

    #[test]
    fn corruption_reaches_the_decoder_not_the_framing() {
        let server = ledger_server();
        let config = ChaosConfig::new(5, 1.0).with_modes(&[FaultMode::CorruptResponse]);
        let chaos = ChaosProxy::start(server.addr(), config).unwrap();
        // The frame arrives (length intact) but its payload is damaged:
        // the error must be a wire/decode error, not an I/O one.
        match ping(&client(&chaos)) {
            Err(NetError::Wire(_)) => {}
            other => panic!("expected wire error from corrupted payload, got {other:?}"),
        }
        chaos.shutdown();
        server.shutdown();
    }

    /// A request that reaches the interposer in two pieces, further
    /// apart than its 100 ms stop-flag wake-up, is relayed whole.
    #[test]
    fn slow_request_split_across_the_relay_timeout_is_relayed() {
        let server = ledger_server();
        let chaos = ChaosProxy::start(server.addr(), ChaosConfig::new(9, 0.0)).unwrap();
        let mut wire = BytesBuf::new();
        let ping = Request::Ping.to_bytes().unwrap();
        FrameCodec::new(MAX_FRAME).encode(&ping, &mut wire).unwrap();
        let mut stream = Framed::new(TcpStream::connect(chaos.addr()).unwrap(), MAX_FRAME);
        let (head, tail) = wire.as_slice().split_at(3);
        stream.get_mut().write_all(head).unwrap();
        std::thread::sleep(Duration::from_millis(250));
        stream.get_mut().write_all(tail).unwrap();
        let frame = stream.read_frame().unwrap();
        assert_eq!(Response::from_bytes(frame).unwrap(), Response::Pong);
        chaos.shutdown();
        server.shutdown();
    }
}
