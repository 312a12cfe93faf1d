//! The load generator: closed-loop lanes, one thread and one connection
//! each, that check every answer against what the harness knows to be
//! true. Three lane shapes cover the four workloads:
//!
//! * [`page_lane`] — a page of 16 `Query` frames in one `write`, then
//!   read until all 16 answers are in (the browser loading a page);
//! * [`scroll_lane`] — one `RemoteValidator::validate` at a time over a
//!   `TcpTransport` (lazy-loading scroll);
//! * [`writer_lane`] — `Claim`, then one time in four `Revoke`, one at a
//!   time through the routed owner stack.

use crate::rng::Rng;
use crate::stats::SpanRow;
use irs_browser::{BrowserValidator, RemoteValidator};
use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs_core::ids::RecordId;
use irs_core::photo::LabelReading;
use irs_core::policy::{ValidationOutcome, ViewerPolicy};
use irs_core::time::{Clock, SystemClock};
use irs_core::wire::{Request, Response, Wire};
use irs_crypto::{Digest, Keypair};
use irs_net::service::{CallCtx, Route, Service, TcpTransport};
use irs_net::{BytesBuf, FrameCodec};
use irs_obs::SpanRecorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub const PAGE: usize = 16;
/// Slices the timed window is cut into; the median slice is reported.
pub const SEGMENTS: usize = 5;
/// Cap on response frames the generator accepts.
const CLIENT_FRAME_CAP: u32 = 1 << 20;
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// One page in this many has its phases kept as spans in a traced run.
const SPAN_SAMPLE: u64 = 64;
const SPAN_CAP: usize = 4_000;

/// The timed window: operations that start and end inside it count.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub start: Instant,
    pub len: Duration,
}

impl Window {
    pub fn end(&self) -> Instant {
        self.start + self.len
    }
}

/// Names of the client-side phases a traced lane times.
pub const PHASES: [&str; 5] = ["encode", "write", "wait", "read_decode", "verify"];

/// What one lane measured.
#[derive(Debug, Default)]
pub struct LaneResult {
    /// One latency per request unit (page, validate or write), in ns.
    pub latencies_ns: Vec<u64>,
    /// Operations (validates or acked writes) completed per segment.
    pub seg_ops: [u64; SEGMENTS],
    pub attempted: u64,
    pub failed: u64,
    /// CPU the lane's own thread used inside the window (10 ms ticks).
    pub cpu: Duration,
    /// Traced runs only: nanoseconds per phase, in [`PHASES`] order,
    /// summed over the `phase_samples` requests whose phases were timed
    /// (every page; the one validate in [`SPAN_SAMPLE`] that carries a
    /// recorder).
    pub phase_ns: [u64; 5],
    pub phase_samples: u64,
    /// Traced runs only: a sample of requests as spans.
    pub spans: Vec<SpanRow>,
}

impl LaneResult {
    pub fn ops(&self) -> u64 {
        self.seg_ops.iter().sum()
    }

    /// Record a request of `ops` operations, `bad` of which came back
    /// wrong. Returns whether it fell inside the window.
    fn record(
        &mut self,
        window: &Window,
        started: Instant,
        done: Instant,
        ops: u64,
        bad: u64,
    ) -> bool {
        if started < window.start || done >= window.end() {
            return false;
        }
        self.attempted += ops;
        self.failed += bad;
        // A failed operation has no latency figure and completes nothing.
        if bad == 0 {
            self.latencies_ns.push((done - started).as_nanos() as u64);
            let slice = window.len / SEGMENTS as u32;
            let at = ((done - window.start).as_nanos() / slice.as_nanos().max(1)) as usize;
            self.seg_ops[at.min(SEGMENTS - 1)] += ops;
        }
        true
    }

    pub fn merge(&mut self, other: LaneResult) {
        self.latencies_ns.extend(other.latencies_ns);
        for (a, b) in self.seg_ops.iter_mut().zip(other.seg_ops) {
            *a += b;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.cpu += other.cpu;
        for (a, b) in self.phase_ns.iter_mut().zip(other.phase_ns) {
            *a += b;
        }
        self.phase_samples += other.phase_samples;
        // A span's parent is an index into its own lane's rows.
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + base);
            span
        }));
    }
}

/// Reads the lane thread's CPU clock when the window opens and again
/// when the lane ends.
#[derive(Default)]
struct LaneCpu(Option<Duration>);

impl LaneCpu {
    fn tick(&mut self, window: &Window, now: Instant) {
        if self.0.is_none() && now >= window.start {
            self.0 = Some(crate::host::thread_cpu());
        }
    }

    fn used(&self) -> Duration {
        self.0.map_or(Duration::ZERO, |at_open| {
            crate::host::thread_cpu().saturating_sub(at_open)
        })
    }
}

fn ns_since(epoch: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(epoch).as_nanos() as u64
}

/// Whether `response` is the status the harness expects for `id`.
fn status_matches(response: &Response, id: RecordId, expect_revoked: bool) -> bool {
    match response {
        Response::Status {
            id: got, status, ..
        } => *got == id && (*status != RevocationStatus::NotRevoked) == expect_revoked,
        _ => false,
    }
}

/// Pages of [`PAGE`] pipelined queries over one raw connection to the
/// proxy, ids uniform over `ids`, all expected `expect_revoked`. Runs
/// from now (warm-up) until the window ends.
pub fn page_lane(
    proxy: SocketAddr,
    ids: &[RecordId],
    expect_revoked: bool,
    mut rng: Rng,
    window: Window,
    traced: bool,
) -> Result<LaneResult, String> {
    let mut stream = TcpStream::connect(proxy).map_err(|e| format!("page lane dial: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let codec = FrameCodec::new(CLIENT_FRAME_CAP);
    let mut out = BytesBuf::with_capacity(1024);
    let mut inbuf = BytesBuf::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let mut page = [ids[0]; PAGE];
    let mut answers: Vec<Result<Response, irs_core::wire::WireError>> = Vec::with_capacity(PAGE);
    let mut result = LaneResult::default();
    let mut cpu = LaneCpu::default();
    let mut pages = 0u64;
    loop {
        let started = Instant::now();
        cpu.tick(&window, started);
        if started >= window.end() {
            result.cpu = cpu.used();
            return Ok(result);
        }
        out.clear();
        for slot in &mut page {
            *slot = ids[rng.below(ids.len())];
            let payload = Request::Query { id: *slot }
                .to_bytes()
                .map_err(|e| format!("encode: {e}"))?;
            codec
                .encode(&payload, &mut out)
                .map_err(|e| e.to_string())?;
        }
        let encoded = if traced { Instant::now() } else { started };
        stream
            .write_all(out.as_slice())
            .map_err(|e| format!("page write: {e}"))?;
        let written = if traced { Instant::now() } else { started };

        answers.clear();
        let mut first_byte = written;
        while answers.len() < PAGE {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("page read: {e}"))?;
            if n == 0 {
                return Err("proxy closed the page connection".into());
            }
            if traced && answers.is_empty() && inbuf.is_empty() {
                first_byte = Instant::now();
            }
            inbuf.extend_from_slice(&chunk[..n]);
            while answers.len() < PAGE {
                match codec.decode(&mut inbuf).map_err(|e| e.to_string())? {
                    Some(frame) => answers.push(Response::from_bytes(frame)),
                    None => break,
                }
            }
        }
        let decoded = if traced { Instant::now() } else { started };
        let bad = answers
            .iter()
            .zip(&page)
            .filter(|(answer, id)| {
                !answer
                    .as_ref()
                    .is_ok_and(|r| status_matches(r, **id, expect_revoked))
            })
            .count() as u64;
        let done = Instant::now();
        let counted = result.record(&window, started, done, PAGE as u64, bad);
        if traced && counted {
            let phases = [
                (started, encoded),
                (encoded, written),
                (written, first_byte),
                (first_byte, decoded),
                (decoded, done),
            ];
            for (sum, (from, to)) in result.phase_ns.iter_mut().zip(phases) {
                *sum += (to - from).as_nanos() as u64;
            }
            result.phase_samples += 1;
            pages += 1;
            if pages % SPAN_SAMPLE == 0 && result.spans.len() < SPAN_CAP {
                let at = |t| ns_since(window.start, t);
                let parent = result.spans.len();
                result.spans.push(SpanRow {
                    name: "page",
                    start_ns: at(started),
                    end_ns: at(done),
                    parent: None,
                });
                for (name, (from, to)) in PHASES.iter().zip(phases) {
                    result.spans.push(SpanRow {
                        name,
                        start_ns: at(from),
                        end_ns: at(to),
                        parent: Some(parent),
                    });
                }
            }
        }
    }
}

fn labeled(id: RecordId) -> LabelReading {
    LabelReading {
        metadata_id: Some(id),
        watermark_id: Some(id),
    }
}

/// One validate at a time through a `RemoteValidator` over one
/// `TcpTransport` to the proxy, ids uniform over `ids` but never the
/// same id twice in a row — the browser's one-entry cache therefore
/// never answers, and every validate crosses the socket.
pub fn scroll_lane(
    proxy: SocketAddr,
    ids: &[RecordId],
    expect_revoked: bool,
    mut rng: Rng,
    window: Window,
    traced: bool,
) -> Result<LaneResult, String> {
    assert!(ids.len() >= 2, "scroll lane needs two ids to alternate");
    let transport = TcpTransport::new(proxy, IO_TIMEOUT);
    let validator = BrowserValidator::new(ViewerPolicy::default(), 1, 3_600_000);
    let mut remote = RemoteValidator::new(validator, transport, 0);
    let mut result = LaneResult::default();
    let mut cpu = LaneCpu::default();
    let mut last = usize::MAX;
    let mut validates = 0u64;
    loop {
        let started = Instant::now();
        cpu.tick(&window, started);
        if started >= window.end() {
            result.cpu = cpu.used();
            let crossed = remote.validator.stats.proxy_queries;
            if crossed != remote.validator.stats.examined {
                return Err(format!(
                    "browser cache answered {} validates; every one must cross the socket",
                    remote.validator.stats.examined - crossed
                ));
            }
            return Ok(result);
        }
        let mut pick = rng.below(ids.len() - 1);
        if pick >= last {
            pick += 1;
        }
        last = pick;
        let id = ids[pick];
        let now = SystemClock.now();
        let recorder = (traced && validates % SPAN_SAMPLE == 0).then(SpanRecorder::new);
        let outcome = match &recorder {
            Some(rec) => remote.validate_traced(&labeled(id), now, rec),
            None => remote.validate(&labeled(id), now),
        };
        let done = Instant::now();
        let expected = if expect_revoked {
            ValidationOutcome::Revoked(id)
        } else {
            ValidationOutcome::Valid(id)
        };
        let counted = result.record(&window, started, done, 1, u64::from(outcome != expected));
        validates += 1;
        if let (Some(rec), true) = (recorder, counted) {
            // The transport span is everything below the browser: the
            // rest of the validate is plan + complete in `irs-browser`.
            let below = rec.spans();
            let transport_ns: u64 = below.iter().map(|s| s.duration_ns()).sum();
            let total = (done - started).as_nanos() as u64;
            result.phase_ns[2] += transport_ns.min(total);
            result.phase_ns[4] += total.saturating_sub(transport_ns);
            result.phase_samples += 1;
            if result.spans.len() < SPAN_CAP {
                let at = ns_since(window.start, started);
                let parent = result.spans.len();
                result.spans.push(SpanRow {
                    name: "validate",
                    start_ns: at,
                    end_ns: at + total,
                    parent: None,
                });
                for span in below {
                    result.spans.push(SpanRow {
                        name: span.name,
                        start_ns: at + span.start_ns.min(total),
                        end_ns: at + span.end_ns.min(total),
                        parent: Some(parent),
                    });
                }
            }
        }
    }
}

/// A write the ledger acknowledged (durable locally and on the
/// follower), kept for the audit.
#[derive(Clone, Copy, Debug)]
pub struct AckedWrite {
    pub id: RecordId,
    pub revoked: bool,
}

/// `Claim`, then one time in four `Revoke` of the record just claimed,
/// one request at a time through the owner's routed stack straight to
/// the shards. Claims are signed here, outside the timed call: the
/// owner's device pays for that, not the service.
pub fn writer_lane(
    owner: &Route,
    mut rng: Rng,
    window: Window,
) -> Result<(LaneResult, Vec<AckedWrite>), String> {
    let mut seed = [0u8; 32];
    rng.fill(&mut seed);
    let keypair = Keypair::from_seed(&seed);
    let mut result = LaneResult::default();
    let mut cpu = LaneCpu::default();
    let mut acked = Vec::new();
    loop {
        let mut photo = [0u8; 32];
        rng.fill(&mut photo);
        let claim = ClaimRequest::create(&keypair, &Digest(photo));
        let revoke_it = rng.below(4) == 0;

        let started = Instant::now();
        cpu.tick(&window, started);
        if started >= window.end() {
            result.cpu = cpu.used();
            return Ok((result, acked));
        }
        let reply = owner.call(Request::Claim(claim), &CallCtx::wall());
        let done = Instant::now();
        let id = match reply {
            Ok(Response::Claimed { id, .. }) => Some(id),
            _ => None,
        };
        result.record(&window, started, done, 1, u64::from(id.is_none()));
        let Some(id) = id else { continue };
        let mut write = AckedWrite { id, revoked: false };
        if revoke_it {
            let request = RevokeRequest::create(&keypair, id, true, 0);
            let started = Instant::now();
            let reply = owner.call(Request::Revoke(request), &CallCtx::wall());
            let done = Instant::now();
            write.revoked = matches!(
                reply,
                Ok(Response::RevokeAck { id: got, status: RevocationStatus::Revoked, .. }) if got == id
            );
            result.record(&window, started, done, 1, u64::from(!write.revoked));
        }
        acked.push(write);
    }
}

/// One query for `id` through `transport`: whether the proxy answered
/// `expect_revoked` (the audit).
pub fn audit_validate(transport: &TcpTransport, id: RecordId, expect_revoked: bool) -> bool {
    transport
        .call(Request::Query { id }, &CallCtx::wall())
        .is_ok_and(|r| status_matches(&r, id, expect_revoked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::self_times;

    /// One request span of `len` ns with one child covering its first half.
    fn lane(name: &'static str, len: u64) -> LaneResult {
        LaneResult {
            spans: vec![
                SpanRow {
                    name,
                    start_ns: 0,
                    end_ns: len,
                    parent: None,
                },
                SpanRow {
                    name: "wait",
                    start_ns: 0,
                    end_ns: len / 2,
                    parent: Some(0),
                },
            ],
            phase_ns: [0, 0, len / 2, 0, 0],
            phase_samples: 1,
            ..LaneResult::default()
        }
    }

    #[test]
    fn merge_keeps_each_span_under_its_own_lanes_parent() {
        let mut merged = LaneResult::default();
        merged.merge(lane("page", 100));
        merged.merge(lane("page", 1_000));
        merged.merge(lane("page", 10));
        let parents: Vec<_> = merged.spans.iter().map(|s| s.parent).collect();
        assert_eq!(
            parents,
            [None, Some(0), None, Some(2), None, Some(4)],
            "children follow their own lane's request"
        );
        // Pointing lane 2's child at lane 1's page would give 50 and 1000.
        assert_eq!(self_times(&merged.spans), [50, 50, 500, 500, 5, 5]);
        assert_eq!(merged.phase_samples, 3);
        assert_eq!(merged.phase_ns[2], 555);
    }
}
