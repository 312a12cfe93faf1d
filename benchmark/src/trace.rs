//! The traced run: what each layer did during the window, measured from
//! outside — the generator's own client-side spans, `Metrics` scrapes of
//! the proxy and both ledgers, process counters, and a replay of the
//! workload's id stream through an in-harness copy of the proxy's stack
//! under a `SpanRecorder`.

use crate::cluster::{retry_policy, Cluster};
use crate::json::Json;
use crate::load::PHASES;
use crate::rng::Rng;
use crate::run::{
    delta, metric, percentile_us, proxy_ratios, reader_ids, Config, Measured, Metric, Scrape,
    WriteSide,
};
use crate::stats::{self, SpanRow};
use irs_core::wire::Request;
use irs_net::service::{stacks, CallCtx, Service};
use irs_obs::SpanRecorder;
use std::time::Instant;

/// Queries replayed through the in-harness stack.
const REPLAY_CALLS: usize = 2_000;
/// The stack layers whose self time is reported, outermost first, by
/// span name. `proxy:filter` and `proxy:cache` are the cache layer's own
/// probes and are folded into it.
const STACK_LAYERS: [&str; 7] = [
    "route",
    "cache",
    "stale",
    "breaker",
    "retry",
    "failover",
    "transport",
];

pub struct Layers {
    pub metrics: Vec<Metric>,
    /// Sections for the result file.
    pub extra: Vec<(String, Json)>,
}

/// Drive `REPLAY_CALLS` queries from the workload's id stream through a
/// second `sharded_full_upstream` stack over the cluster's own
/// `SharedProxy` (same filters, same cache) and return each layer's
/// self time per call in µs, plus the share of wall time the spans
/// account for.
fn replay_stack(cluster: &Cluster, cfg: &Config, out: &mut Vec<Metric>) -> Result<Json, String> {
    let stack = stacks::sharded_full_upstream(
        cluster.proxy.clone(),
        cluster.map.clone(),
        retry_policy(cfg.seed),
    );
    let (ids, _) = reader_ids(cluster, cfg.workload);
    let mut rng = Rng::new(cfg.seed ^ 0x5E91A7);
    // Dial the shards before timing anything.
    for probe in [
        cluster.revoked[0],
        cluster.revoked[cluster.revoked.len() - 1],
    ] {
        stack
            .call(Request::Query { id: probe }, &CallCtx::wall())
            .map_err(|e| format!("replay dial: {e}"))?;
    }
    let recorder = SpanRecorder::new();
    let mut wall_ns = 0u64;
    for _ in 0..REPLAY_CALLS {
        let id = ids[rng.below(ids.len())];
        let ctx = CallCtx::wall().with_trace(recorder.clone());
        let start = Instant::now();
        stack
            .call(Request::Query { id }, &ctx)
            .map_err(|e| format!("replay call: {e}"))?;
        wall_ns += start.elapsed().as_nanos() as u64;
    }
    let rows = recorder.breakdown();
    let self_us = |names: &[&str]| {
        rows.iter()
            .filter(|r| names.contains(&r.name))
            .map(|r| r.self_ns)
            .sum::<u64>() as f64
            / 1e3
            / REPLAY_CALLS as f64
    };
    for layer in STACK_LAYERS {
        let names: &[&str] = if layer == "cache" {
            &["cache", "proxy:filter", "proxy:cache"]
        } else {
            &[layer]
        };
        out.push(metric(
            format!("stack.{layer}_self_us"),
            self_us(names),
            "us",
        ));
    }
    let accounted: u64 = rows.iter().map(|r| r.self_ns).sum();
    out.push(metric(
        "stack.accounted_ratio",
        accounted as f64 / wall_ns.max(1) as f64,
        "ratio",
    ));
    Ok(Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj([
                    ("layer", Json::str(r.name)),
                    ("calls", Json::Num(r.count as f64)),
                    ("total_us", Json::Num(r.total_ns as f64 / 1e3)),
                    ("self_us", Json::Num(r.self_ns as f64 / 1e3)),
                ])
            })
            .collect(),
    ))
}

fn spans_json(spans: &[SpanRow]) -> Json {
    let selfs = stats::self_times(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::obj([
                    ("id", Json::Num(i as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

/// Every per-layer metric that comes from the windows, the scrapes and
/// the replay; writes `trace-<workload>.json` beside the result file.
pub fn per_layer(
    cluster: &Cluster,
    cfg: &Config,
    untraced: &Measured,
    traced: &Measured,
    writes: &WriteSide,
    fsync_us: f64,
) -> Result<Layers, String> {
    let mut out = Vec::new();
    let ops = traced.ops().max(1) as f64;

    let ratios = proxy_ratios(traced);
    out.extend([
        metric(
            "proxy.filter_negative_ratio",
            ratios.filter_negative,
            "ratio",
        ),
        metric("proxy.cache_hit_ratio", ratios.cache_hit, "ratio"),
        metric("proxy.ledger_query_ratio", ratios.ledger_query, "ratio"),
        metric("proxy.request_us_mean", ratios.request_us_mean, "us"),
        metric(
            "proxy.first_refresh_ms",
            cluster.times.first_refresh * 1e3,
            "ms",
        ),
    ]);

    let ledger_sum = |scrapes: &[(Scrape, Scrape)], key: &str| -> f64 {
        scrapes.iter().map(|(a, b)| delta(a, b, key)).sum()
    };
    let window_ledgers = &traced.writes.ledgers;
    let ledger_requests = ledger_sum(window_ledgers, "irs_net_request_us_count");
    let ledger_request_us =
        ledger_sum(window_ledgers, "irs_net_request_us_sum") / ledger_requests.max(1.0);
    let frames = delta(&traced.proxy.0, &traced.proxy.1, "irs_net_frames_total")
        + ledger_sum(window_ledgers, "irs_net_frames_total");
    out.extend([
        metric("net.ledger_request_us_mean", ledger_request_us, "us"),
        metric("net.frames_per_validate", frames / ops, "count"),
    ]);

    let stack_rows = replay_stack(cluster, cfg, &mut out)?;

    // Where a request's time goes, seen from the browser: the proxy's
    // handler (which waits for the ledger), the ledgers' handlers, and
    // what is left — sockets, reactor queues and the generator itself.
    let request_p50 = percentile_us("traced reads", &traced.readers.latencies_ns, 50.0)?;
    let requests = traced.readers.latencies_ns.len().max(1) as f64;
    let request_us = traced.readers.latencies_ns.iter().sum::<u64>() as f64 / 1e3 / requests;
    let per_request = traced.readers.ops() as f64 / requests;
    let proxy_us = ratios.request_us_mean * per_request;
    let ledger_us =
        ledger_sum(window_ledgers, "irs_ledger_queries_total") * ledger_request_us / requests;
    out.extend([
        metric("budget.request_us", request_us, "us"),
        metric("budget.proxy_us", (proxy_us - ledger_us).max(0.0), "us"),
        metric("budget.ledger_us", ledger_us, "us"),
        metric(
            "budget.transport_us",
            (request_us - proxy_us).max(0.0),
            "us",
        ),
    ]);

    let (appends, wal_bytes, syncs) = writes.wal;
    let written = appends.max(1) as f64;
    let follower_frames = cluster
        .follower_apply
        .frames
        .load(std::sync::atomic::Ordering::Relaxed);
    let follower_ns = cluster
        .follower_apply
        .nanos
        .load(std::sync::atomic::Ordering::Relaxed);
    let write_p95 = percentile_us("writes", &writes.lane.latencies_ns, 95.0)?;
    out.extend([
        metric(
            "ledger.wal_bytes_per_write",
            wal_bytes as f64 / written,
            "B",
        ),
        metric("ledger.fsyncs_per_write", syncs as f64 / written, "count"),
        metric(
            "ledger.durable_apply_us_mean",
            ledger_sum(&writes.ledgers, "irs_ledger_durable_apply_us_sum")
                / ledger_sum(&writes.ledgers, "irs_ledger_durable_apply_us_count").max(1.0),
            "us",
        ),
        metric("ledger.repl_lag_max", traced.repl_lag_max as f64, "count"),
        metric(
            "ledger.follower_apply_us",
            follower_ns as f64 / 1e3 / follower_frames.max(1) as f64,
            "us",
        ),
        metric(
            "ledger.publish_filter_ms",
            cluster.times.publish_filter * 1e3,
            "ms",
        ),
        metric("ledger.snapshot_ms", cluster.times.snapshot * 1e3, "ms"),
        metric("ledger.recover_ms", cluster.times.recover * 1e3, "ms"),
        metric(
            "owner.write_qps",
            stats::segment_rates(&writes.lane.seg_ops, writes.window_s).1,
            "1/s",
        ),
        metric("owner.write_p95_us", write_p95, "us"),
    ]);
    // Both halves of the run together, so the tail has enough samples.
    let mut all_reads = untraced.readers.latencies_ns.clone();
    all_reads.extend(&traced.readers.latencies_ns);
    out.push(metric(
        "reader.request_p99_us",
        percentile_us("reads", &all_reads, 99.0)?,
        "us",
    ));

    let (_, untraced_qps) = stats::segment_rates(&untraced.readers.seg_ops, untraced.window_s);
    let (_, traced_qps) = stats::segment_rates(&traced.readers.seg_ops, traced.window_s);
    out.extend([
        metric(
            "alloc.count_per_validate",
            traced.allocs.0 as f64 / ops,
            "count",
        ),
        metric(
            "alloc.bytes_per_validate",
            traced.allocs.1 as f64 / ops,
            "B",
        ),
        metric(
            "sched.ctxsw_per_validate",
            traced.ctxsw as f64 / ops,
            "count",
        ),
        metric(
            "loadgen.self_us_per_validate",
            traced.readers.cpu.as_secs_f64() * 1e6 / traced.readers.ops().max(1) as f64,
            "us",
        ),
        metric("host.fsync_us", fsync_us, "us"),
        metric(
            "trace.overhead_ratio",
            traced_qps / untraced_qps.max(1.0),
            "ratio",
        ),
    ]);

    // Means over the requests whose phases were timed: every page, one
    // scroll validate in 64.
    let phase_samples = traced.readers.phase_samples.max(1) as f64;
    let phases = Json::obj(
        PHASES
            .iter()
            .zip(traced.readers.phase_ns)
            .map(|(name, ns)| (*name, Json::Num(ns as f64 / 1e3 / phase_samples))),
    );
    let trace_file = Json::obj([
        ("workload", Json::str(cfg.workload.name())),
        ("seed", Json::Num(cfg.seed as f64)),
        (
            "note",
            Json::str(
                "spans: a sample of the generator's requests, times in ns since the traced \
                 window opened; self_ns = duration minus what child spans cover. \
                 stack_replay: per-layer totals over the in-harness replay.",
            ),
        ),
        ("spans", spans_json(&traced.readers.spans)),
        ("stack_replay", stack_rows.clone()),
    ]);
    let path = cfg
        .out_dir
        .join(format!("trace-{}.json", cfg.workload.name()));
    std::fs::write(&path, trace_file.render())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let extra = vec![
        (
            "traced_window".to_string(),
            Json::obj([
                ("untraced_validate_qps", Json::Num(untraced_qps)),
                ("traced_validate_qps", Json::Num(traced_qps)),
                ("request_p50_us", Json::Num(request_p50)),
                ("client_phase_us_per_request", phases),
                (
                    "client_phase_samples",
                    Json::Num(traced.readers.phase_samples as f64),
                ),
                ("reader_lanes", Json::Num(traced.reader_lanes as f64)),
            ]),
        ),
        ("stack_replay".to_string(), stack_rows),
        (
            // Written beside the result file.
            "trace_file".to_string(),
            Json::str(format!("trace-{}.json", cfg.workload.name())),
        ),
    ];
    Ok(Layers {
        metrics: out,
        extra,
    })
}
