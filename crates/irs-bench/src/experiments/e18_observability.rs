//! E18 — observability overhead and per-layer latency attribution.
//!
//! DESIGN.md §11 makes two promises about the `irs-obs` subsystem and
//! this experiment prices both:
//!
//! * **Armed tracing is free where it records nothing.** The 7:1
//!   ledger workload (status queries : freshness proofs against
//!   [`rig::preloaded_ledger`](crate::rig::preloaded_ledger), 4 threads)
//!   runs with and without a per-request [`SpanRecorder`]; the
//!   always-on metrics registry is identical in both modes, so the delta
//!   is the cost of carrying a recorder down the request path. The CI gate requires
//!   the traced p99 within 3% of untraced.
//! * **Recording every layer is cheap enough to sample.** The same
//!   comparison through the full resilience ladder over loopback TCP,
//!   where a traced query writes eight spans; one traced request then
//!   prints where its microseconds went, and its per-layer self-times
//!   must account for ≥95% of measured wall time.

use crate::rig::{preloaded_ledger, IdStream};
use crate::table::{f, Table};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::wire::{Request, Response};
use irs_filters::{BloomFilter, Publication};
use irs_ledger::Ledger;
use irs_net::ledger_server::LedgerServer;
use irs_net::service::{stacks, BoxService, CallCtx, Service};
use irs_net::RetryPolicy;
use irs_obs::SpanRecorder;
use irs_proxy::{ProxyConfig, SharedProxy};
use irs_simnet::Histogram;
use std::sync::Arc;
use std::time::Instant;

/// Measurement rounds per mode; the best (lowest-p99) round per mode
/// is reported, which suppresses scheduler noise the same way
/// best-of-N micro-benchmarks do.
const ROUNDS: usize = 5;

/// Threads driving the ledger workload.
const THREADS: u64 = 4;

/// Every `PROOF_EVERY`th ledger op asks for a signed freshness proof —
/// the 7:1 mix, so the p99 sits on the signing path.
const PROOF_EVERY: u64 = 8;

/// Slack added to the 3% relative gate: at microsecond latencies a p99
/// is only measurable to timer granularity, so a pure ratio would
/// flake on CI machines. 5 µs is far below any instrumentation cost
/// that would matter.
const EPSILON_US: f64 = 5.0;

/// Latency percentiles for one measurement round, in microseconds.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Median request latency.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
}

fn sample_of(mut latencies_ns: Histogram) -> Sample {
    let mut us = |q: f64| latencies_ns.quantile(q).unwrap_or(0) as f64 / 1_000.0;
    Sample {
        p50_us: us(0.50),
        p95_us: us(0.95),
        p99_us: us(0.99),
    }
}

/// Keep the round with the lowest p99.
fn keep_best(best: &mut Option<Sample>, s: Sample) {
    if best.map_or(true, |b| s.p99_us < b.p99_us) {
        *best = Some(s);
    }
}

// ---- part A: the 7:1 ledger workload, untraced vs traced -----------

/// Drive the 7:1 query:proof mix on [`THREADS`] threads, recording
/// each op's latency. `traced` arms every request with a fresh
/// [`SpanRecorder`] through `handle_traced` — the cost under test.
fn measure_ledger(conc: &Ledger, ops_per_thread: u64, records: u64, traced: bool) -> Sample {
    let mut lats = Histogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut ids = IdStream::new(0, t);
                    let mut lats = Histogram::new();
                    for op in 0..ops_per_thread {
                        let id = RecordId::new(LedgerId(1), ids.below(records));
                        let request = if op % PROOF_EVERY == 0 {
                            Request::GetProof { id }
                        } else {
                            Request::Query { id }
                        };
                        let start = Instant::now();
                        let resp = if traced {
                            let rec = SpanRecorder::new();
                            conc.handle_traced(request, TimeMs(1_000_000), Some(&rec))
                        } else {
                            conc.handle(request, TimeMs(1_000_000))
                        };
                        lats.record(start.elapsed().as_nanos() as u64);
                        assert!(
                            matches!(resp, Response::Status { .. } | Response::Proof(_)),
                            "preloaded ledger must answer: {resp:?}"
                        );
                    }
                    lats
                })
            })
            .collect();
        for h in handles {
            lats.merge(&h.join().expect("workload thread"));
        }
    });
    sample_of(lats)
}

/// Best-of-`ROUNDS` untraced vs traced on the 7:1 workload. Exposed
/// for the CI gate and the regression test.
pub fn measure_ledger_overhead(quick: bool) -> (Sample, Sample) {
    let records: u64 = if quick { 2_000 } else { 10_000 };
    let ops_per_thread: u64 = if quick { 2_000 } else { 8_000 };
    let conc = preloaded_ledger(records);
    // Warm caches and branch predictors off the clock.
    measure_ledger(&conc, ops_per_thread / 4, records, false);
    let mut best_untraced: Option<Sample> = None;
    let mut best_traced: Option<Sample> = None;
    for _ in 0..ROUNDS {
        // Interleave modes so drift (thermal, noisy neighbors) lands on
        // both sides evenly instead of biasing whichever ran last.
        keep_best(
            &mut best_untraced,
            measure_ledger(&conc, ops_per_thread, records, false),
        );
        keep_best(
            &mut best_traced,
            measure_ledger(&conc, ops_per_thread, records, true),
        );
    }
    (best_untraced.unwrap(), best_traced.unwrap())
}

// ---- part B: the full TCP ladder, every layer recording ------------

/// A live [`preloaded_ledger`] behind the full ladder, with its ledger's
/// filter containing every preloaded id — so every query is a filter
/// *hit* and walks the whole stack to the wire unless the striped cache
/// answers first.
struct Rig {
    server: LedgerServer,
    stack: BoxService,
    records: u64,
}

fn build_rig(records: u64) -> Rig {
    let mut filter = BloomFilter::with_params(1 << 16, 6, 0).unwrap();
    for serial in 0..records {
        filter.insert(RecordId::new(LedgerId(1), serial).filter_key());
    }
    let server =
        LedgerServer::start(preloaded_ledger(records), "127.0.0.1:0").expect("bind loopback");
    let proxy = Arc::new(SharedProxy::new(ProxyConfig {
        cache_capacity: 1024,
        // A zero TTL keeps the workload honest: cached answers expire as
        // soon as the wall-clock millisecond turns over, so the large
        // majority of queries exercise the full ladder down to TCP.
        cache_ttl_ms: 0,
    }));
    proxy
        .update_filters(|fs| fs.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
        .unwrap();
    let stack = stacks::full_upstream(proxy, vec![server.addr()], RetryPolicy::fast(0xE18));
    Rig {
        server,
        stack,
        records,
    }
}

/// Run `requests` queries through the ladder; `traced` attaches a
/// fresh recorder to each, so all eight layers write spans.
fn measure_ladder(rig: &Rig, requests: u64, traced: bool) -> Sample {
    let mut latencies_ns = Histogram::new();
    let mut ids = IdStream::new(0xE18, 0);
    for _ in 0..requests {
        let id = RecordId::new(LedgerId(1), ids.below(rig.records));
        let ctx = if traced {
            CallCtx::wall().with_trace(SpanRecorder::new())
        } else {
            CallCtx::wall()
        };
        let start = Instant::now();
        let resp = rig.stack.call(Request::Query { id }, &ctx);
        latencies_ns.record(start.elapsed().as_nanos() as u64);
        assert!(
            matches!(resp, Ok(Response::Status { .. })),
            "live upstream must answer: {resp:?}"
        );
    }
    sample_of(latencies_ns)
}

/// Best-of-`ROUNDS` untraced vs traced through the TCP ladder.
pub fn measure_ladder_overhead(quick: bool) -> (Sample, Sample) {
    let records: u64 = if quick { 500 } else { 2_000 };
    let requests: u64 = if quick { 800 } else { 10_000 };
    let rig = build_rig(records);
    measure_ladder(&rig, requests / 4, false);
    let mut best_untraced: Option<Sample> = None;
    let mut best_traced: Option<Sample> = None;
    for _ in 0..ROUNDS {
        keep_best(&mut best_untraced, measure_ladder(&rig, requests, false));
        keep_best(&mut best_traced, measure_ladder(&rig, requests, true));
    }
    let result = (best_untraced.unwrap(), best_traced.unwrap());
    rig.server.shutdown();
    result
}

/// One traced query through a fresh rig, returning the recorder after
/// the walk. Sleeps past the zero-TTL cache so the request provably
/// traverses every rung.
fn attribution_trace() -> (Arc<SpanRecorder>, f64) {
    let rig = build_rig(64);
    let id = RecordId::new(LedgerId(1), 7);
    // Prime, then let the (0 ms TTL) cache entry lapse.
    rig.stack
        .call(Request::Query { id }, &CallCtx::wall())
        .unwrap();
    std::thread::sleep(std::time::Duration::from_millis(2));
    let rec = SpanRecorder::new();
    let ctx = CallCtx::wall().with_trace(rec.clone());
    let start = Instant::now();
    rig.stack.call(Request::Query { id }, &ctx).unwrap();
    let wall_us = start.elapsed().as_nanos() as f64 / 1_000.0;
    rig.server.shutdown();
    (rec, wall_us)
}

fn overhead_row(label: &str, untraced: Sample, traced: Sample) -> Vec<Vec<String>> {
    let pct = |t: f64, u: f64| format!("{:+.1}%", 100.0 * (t - u) / u.max(1e-9));
    vec![
        vec![
            format!("{label} untraced"),
            f(untraced.p50_us, 2),
            f(untraced.p95_us, 1),
            f(untraced.p99_us, 1),
        ],
        vec![
            format!("{label} traced"),
            f(traced.p50_us, 2),
            f(traced.p95_us, 1),
            f(traced.p99_us, 1),
        ],
        vec![
            "overhead".into(),
            pct(traced.p50_us, untraced.p50_us),
            pct(traced.p95_us, untraced.p95_us),
            pct(traced.p99_us, untraced.p99_us),
        ],
    ]
}

/// Run E18.
pub fn run(quick: bool) -> String {
    let (ledger_untraced, ledger_traced) = measure_ledger_overhead(quick);
    let (ladder_untraced, ladder_traced) = measure_ladder_overhead(quick);

    let mut table = Table::new(
        "E18 — observability overhead: per-request latency, untraced vs traced",
        &["workload / mode", "p50 (µs)", "p95 (µs)", "p99 (µs)"],
    );
    for row in overhead_row("ledger", ledger_untraced, ledger_traced) {
        table.row(row);
    }
    for row in overhead_row("ladder", ladder_untraced, ladder_traced) {
        table.row(row);
    }
    table.note(format!(
        "ledger = {THREADS} threads of 7:1 status queries : freshness proofs \
         against a preloaded Ledger; traced \
         arms each request with a SpanRecorder (which the in-memory query path \
         never writes to) — the CI gate holds this p99 within 3%"
    ));
    table.note(
        "ladder = single-caller queries through Cache(StaleServe(Breaker(Retry(\
         Failover(Tcp))))) over loopback; traced requests write all eight layer \
         spans, pricing full (sample-every-request) tracing",
    );
    table.note(
        "the ledger p50 is a sub-µs in-memory shard read, so the traced row's \
         absolute cost (~0.1 µs of recorder allocation) reads as a large relative \
         delta; the gate is on p99, which the ed25519 proof path dominates",
    );
    table.note(
        "writing all eight ladder spans costs ~1 µs absolute (16 clock reads + 16 \
         uncontended lock round-trips + one recorder allocation), which sits within \
         loopback TCP's round-to-round tail noise — expect single-digit deltas of \
         either sign in the ladder overhead row",
    );
    table.note(format!(
        "all rows are best of {ROUNDS} interleaved rounds; the metrics registry \
         (counters/gauges/histograms) is live in every mode"
    ));
    let mut out = table.render();

    let (rec, wall_us) = attribution_trace();
    let rows = rec.breakdown();
    let accounted: u64 = rows.iter().map(|r| r.self_ns).sum();
    out.push_str(&format!(
        "\nPer-layer attribution of one traced query ({:.1} µs wall, {:.1}% accounted):\n{}",
        wall_us,
        100.0 * (accounted as f64 / 1_000.0) / wall_us,
        rec.render_table()
    ));
    out
}

/// The layer spans one traced ladder query writes, outermost first.
const WALK: [&str; 8] = [
    "cache",
    "proxy:filter",
    "proxy:cache",
    "stale",
    "breaker",
    "retry",
    "failover",
    "transport",
];

/// The span-walk half of the gate: a fully traced ladder query must
/// write the eight layer spans of [`WALK`], in order. Timing-free, so it
/// holds on a loaded machine; returns the recorder and the query's wall
/// time for the accounting check.
fn span_walk() -> Result<(Arc<SpanRecorder>, f64), String> {
    let (rec, wall_us) = attribution_trace();
    let names: Vec<_> = rec.spans().iter().map(|s| s.name).collect();
    if names != WALK {
        return Err(format!("span walk {names:?} != expected {WALK:?}"));
    }
    Ok((rec, wall_us))
}

/// CI gate: on the 7:1 ledger workload an armed recorder must cost < 3% at
/// p99 (plus `EPSILON_US` of absolute slack for timer granularity),
/// and a fully traced ladder query must pass `span_walk` with
/// self-times accounting for at least 95% of its wall time. The timing
/// halves mean something only on an otherwise idle machine: CI runs
/// this alone, on a release build.
pub fn check(quick: bool) -> Result<String, String> {
    let (untraced, traced) = measure_ledger_overhead(quick);
    let budget = untraced.p99_us * 1.03 + EPSILON_US;
    if traced.p99_us > budget {
        return Err(format!(
            "traced ledger p99 {:.1} µs exceeds budget {:.1} µs (untraced p99 {:.1} µs + 3% + {EPSILON_US} µs)",
            traced.p99_us, budget, untraced.p99_us
        ));
    }
    let (rec, wall_us) = span_walk()?;
    let accounted_us: f64 = rec.spans()[0].duration_ns() as f64 / 1_000.0;
    if accounted_us < 0.95 * wall_us {
        return Err(format!(
            "spans account for {accounted_us:.1} of {wall_us:.1} µs wall (< 95%)"
        ));
    }
    Ok(format!(
        "e18 ok: 7:1 ledger workload p99 untraced {:.1} µs, traced {:.1} µs ({:+.1}%); \
         8-layer walk accounts for {:.0}% of wall",
        untraced.p99_us,
        traced.p99_us,
        100.0 * (traced.p99_us - untraced.p99_us) / untraced.p99_us.max(1e-9),
        100.0 * accounted_us / wall_us,
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_reports_both_workloads_and_attribution() {
        let out = super::run(true);
        assert!(out.contains("ledger untraced"), "missing row:\n{out}");
        assert!(out.contains("ladder traced"), "missing row:\n{out}");
        assert!(out.contains("overhead"), "missing overhead row:\n{out}");
        for layer in ["cache", "breaker", "retry", "failover", "transport"] {
            assert!(out.contains(layer), "missing {layer} attribution:\n{out}");
        }
    }

    /// The timing-free half of the gate: the test runner shares the
    /// machine with every other test, so the p99 budget is left to
    /// `experiments e18 --quick --check`.
    #[test]
    fn traced_query_walks_all_eight_layers() {
        super::span_walk().expect("e18 span walk");
    }
}
