//! One benchmark run: build the cluster, drive one workload through a
//! timed window, audit, and turn what was measured into named metrics.

use crate::cluster::{Cluster, Scale};
use crate::host::{self, CountingAlloc};
use crate::json::Json;
use crate::load::{self, AckedWrite, LaneResult, Window};
use crate::micro;
use crate::rng::Rng;
use crate::stats;
use crate::trace;
use irs_core::ids::RecordId;
use irs_core::wire::{Request, Response};
use irs_net::service::TcpTransport;
use irs_net::MuxClient;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    PageClean,
    PageRevokedCold,
    ScrollRevokedHot,
    OwnerWrites,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PageClean,
        Workload::PageRevokedCold,
        Workload::ScrollRevokedHot,
        Workload::OwnerWrites,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PageClean => "page_clean",
            Workload::PageRevokedCold => "page_revoked_cold",
            Workload::ScrollRevokedHot => "scroll_revoked_hot",
            Workload::OwnerWrites => "owner_writes",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub traced: bool,
    pub scale: Scale,
    /// Where data directories, result files and traces go.
    pub out_dir: PathBuf,
}

impl Config {
    /// Lanes run this long before the window opens: caches fill, lazy
    /// connections dial, the hot set becomes resident.
    fn warmup(&self) -> Duration {
        Duration::from_secs_f64((self.seconds / 4.0).min(1.0))
    }

    /// Length of the idle-cluster write probe after a read workload.
    fn probe(&self) -> Duration {
        Duration::from_secs_f64(if self.traced { 2.5f64 } else { 2.0 }.min(self.seconds))
    }

    /// Cluster builds per untraced run; the median is `setup_s`.
    fn setups(&self) -> usize {
        if self.traced {
            1
        } else {
            3
        }
    }
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Why `correct` is false, one line per broken check.
    pub problems: Vec<String>,
    /// Everything above plus host facts, per-segment values and the
    /// set-up phases: the result file, and where it was written.
    pub file: Json,
    pub path: PathBuf,
}

impl Report {
    /// The line the driver reads: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn driver_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", metrics_json(&self.metrics)),
        ])
        .render()
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        (
            m.name.clone(),
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// A `Metrics` scrape over the wire, parsed.
pub type Scrape = BTreeMap<String, f64>;

pub fn scrape(addr: SocketAddr) -> Result<Scrape, String> {
    let mux = MuxClient::connect(addr).map_err(|e| format!("scrape dial {addr}: {e}"))?;
    match mux.call(&Request::Metrics, Instant::now() + Duration::from_secs(5)) {
        Ok(Response::MetricsText(text)) => Ok(irs_obs::parse_exposition(&text)),
        other => Err(format!("scrape {addr}: {other:?}")),
    }
}

pub fn delta(before: &Scrape, after: &Scrape, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// The write side of a measurement: the owner lane over a window, and
/// what the primaries' WALs and registries did meanwhile. It comes from
/// the timed window on `owner_writes` and from the write probe after it
/// on the read workloads.
#[derive(Default)]
pub struct WriteSide {
    pub window_s: f64,
    pub lane: LaneResult,
    pub acked: Vec<AckedWrite>,
    /// WAL appends, bytes and fsyncs on the primaries.
    pub wal: (u64, u64, u64),
    /// Each ledger's `Metrics` scrape before and after.
    pub ledgers: Vec<(Scrape, Scrape)>,
}

/// What one timed window produced, before it is turned into metrics.
pub struct Measured {
    pub window_s: f64,
    pub readers: LaneResult,
    pub reader_lanes: usize,
    pub writes: WriteSide,
    pub cpu: Duration,
    pub ctxsw: u64,
    pub allocs: (u64, u64),
    pub proxy: (Scrape, Scrape),
    pub repl_lag_max: u64,
}

impl Measured {
    pub fn ops(&self) -> u64 {
        self.readers.ops() + self.writes.lane.ops()
    }
}

fn wal_totals(cluster: &Cluster) -> (u64, u64, u64) {
    cluster
        .primaries
        .iter()
        .filter_map(|l| l.durability())
        .map(|d| d.wal_stats())
        .fold((0, 0, 0), |acc, s| {
            (acc.0 + s.appends, acc.1 + s.bytes_appended, acc.2 + s.syncs)
        })
}

fn scrape_ledgers(cluster: &Cluster) -> Result<Vec<Scrape>, String> {
    cluster.ledger_addrs.iter().map(|&a| scrape(a)).collect()
}

fn wal_since(cluster: &Cluster, before: (u64, u64, u64)) -> (u64, u64, u64) {
    let now = wal_totals(cluster);
    (now.0 - before.0, now.1 - before.1, now.2 - before.2)
}

fn repl_lag(cluster: &Cluster) -> u64 {
    cluster
        .primaries
        .iter()
        .filter_map(|l| l.durability())
        .map(|d| {
            d.replicable_seq()
                .saturating_sub(d.replication().acked_seq())
        })
        .max()
        .unwrap_or(0)
}

/// The reader ids of a workload and the status every one of them has.
pub fn reader_ids(cluster: &Cluster, workload: Workload) -> (Cow<'_, [RecordId]>, bool) {
    match workload {
        Workload::PageClean => (Cow::Borrowed(&cluster.clean), false),
        Workload::PageRevokedCold | Workload::OwnerWrites => {
            (Cow::Borrowed(&cluster.revoked), true)
        }
        Workload::ScrollRevokedHot => {
            // An even stride through the revoked set, so the hot ids
            // live on both shards.
            let hot = cluster.scale.hot_set().max(2);
            let stride = (cluster.revoked.len() / hot).max(1);
            let ids = cluster.revoked.iter().step_by(stride).take(hot).copied();
            (Cow::Owned(ids.collect()), true)
        }
    }
}

/// Page lanes: half the hardware threads, so that every lane and the
/// reactor worker serving it have a thread each. With more runnable
/// threads than that the scheduler, not the program, sets the rate (on
/// a 2-thread host two lanes swing between 520 k and 830 k validates/s
/// from one 2 s slice to the next; one lane holds 214–221 k).
pub fn page_lanes() -> usize {
    (host::nproc() / 2).max(1)
}

fn sleep_until(t: Instant) {
    std::thread::sleep(t.saturating_duration_since(Instant::now()));
}

/// Run `workload`'s lanes against `cluster`: warm up, then measure for
/// `len`. The calling thread samples process counters at the window's
/// edges and, in `owner_writes`, publishes filters at each quarter.
pub fn drive(
    cluster: &Cluster,
    workload: Workload,
    seed: u64,
    warmup: Duration,
    len: Duration,
    traced: bool,
) -> Result<Measured, String> {
    let (ids, expect_revoked) = reader_ids(cluster, workload);
    let window = Window {
        start: Instant::now() + warmup,
        len,
    };
    let proxy = cluster.proxy_addr;
    let reader_lanes = match workload {
        Workload::PageClean | Workload::PageRevokedCold => page_lanes(),
        Workload::ScrollRevokedHot | Workload::OwnerWrites => 1,
    };
    let mut seeds = Rng::new(seed ^ 0x1A9E_5EED);
    let mut lane_rng = || Rng::new(seeds.next_u64());

    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..reader_lanes)
            .map(|_| {
                let rng = lane_rng();
                let ids: &[RecordId] = &ids;
                scope.spawn(move || match workload {
                    Workload::PageClean | Workload::PageRevokedCold => {
                        load::page_lane(proxy, ids, expect_revoked, rng, window, traced)
                    }
                    Workload::ScrollRevokedHot | Workload::OwnerWrites => {
                        load::scroll_lane(proxy, ids, expect_revoked, rng, window, traced)
                    }
                })
            })
            .collect();
        let writer = (workload == Workload::OwnerWrites).then(|| {
            let rng = lane_rng();
            scope.spawn(move || load::writer_lane(&cluster.owner, rng, window))
        });

        sleep_until(window.start);
        let cpu0 = host::process_cpu();
        let ctxsw0 = host::voluntary_ctxsw();
        let wal0 = wal_totals(cluster);
        let proxy0 = scrape(cluster.proxy_addr);
        let ledgers0 = scrape_ledgers(cluster);
        let allocs0 = CountingAlloc::totals();
        CountingAlloc::set_counting(traced);

        // Twenty looks at the replication lag; publishes at the quarters.
        let mut repl_lag_max = 0;
        for tick in 1..20u32 {
            sleep_until(window.start + len * tick / 20);
            repl_lag_max = repl_lag_max.max(repl_lag(cluster));
            if workload == Workload::OwnerWrites && tick % 5 == 0 {
                for ledger in &cluster.primaries {
                    ledger.publish_filter();
                }
            }
        }
        sleep_until(window.end());

        CountingAlloc::set_counting(false);
        let allocs1 = CountingAlloc::totals();
        let cpu = host::process_cpu().saturating_sub(cpu0);
        let ctxsw = host::voluntary_ctxsw().saturating_sub(ctxsw0);
        let wal = wal_since(cluster, wal0);
        let proxy1 = scrape(cluster.proxy_addr);
        let ledgers1 = scrape_ledgers(cluster);

        let mut merged = LaneResult::default();
        for lane in readers {
            merged.merge(lane.join().map_err(|_| "reader lane panicked")??);
        }
        let (lane, acked) = match writer {
            Some(lane) => lane.join().map_err(|_| "writer lane panicked")??,
            None => (LaneResult::default(), Vec::new()),
        };
        Ok(Measured {
            window_s: len.as_secs_f64(),
            readers: merged,
            reader_lanes,
            writes: WriteSide {
                window_s: len.as_secs_f64(),
                lane,
                acked,
                wal,
                ledgers: ledgers0?.into_iter().zip(ledgers1?).collect(),
            },
            cpu,
            ctxsw,
            allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
            proxy: (proxy0?, proxy1?),
            repl_lag_max,
        })
    })
}

/// The owner lane alone on an idle cluster for `len`: what a read
/// workload reports as its write metrics.
fn write_probe(cluster: &Cluster, seed: u64, len: Duration) -> Result<WriteSide, String> {
    let wal0 = wal_totals(cluster);
    let ledgers0 = scrape_ledgers(cluster)?;
    // The first write wakes followers that have backed off to 10 ms.
    let window = Window {
        start: Instant::now() + Duration::from_millis(100),
        len,
    };
    let (lane, acked) = load::writer_lane(&cluster.owner, Rng::new(seed ^ 0x0B5E_55ED), window)?;
    Ok(WriteSide {
        window_s: len.as_secs_f64(),
        lane,
        acked,
        wal: wal_since(cluster, wal0),
        ledgers: ledgers0.into_iter().zip(scrape_ledgers(cluster)?).collect(),
    })
}

/// The `pct`-th percentile of `latencies_ns` in µs; an error when fewer
/// than ten samples lie beyond it.
pub fn percentile_us(what: &str, latencies_ns: &[u64], pct: f64) -> Result<f64, String> {
    let mut sorted = latencies_ns.to_vec();
    sorted.sort_unstable();
    stats::percentile(&sorted, pct)
        .map(|ns| ns as f64 / 1_000.0)
        .ok_or_else(|| {
            format!(
                "{what}: {} samples cannot support p{pct}; lengthen the window",
                sorted.len()
            )
        })
}

/// The post-window audit: publish, wait one refresh, then every acked
/// revoke validates `Revoked` and every acked claim `Valid` through the
/// proxy, and each primary reports a caught-up follower.
fn audit(cluster: &Cluster, acked: &[AckedWrite], problems: &mut Vec<String>) -> (u64, u64) {
    for ledger in &cluster.primaries {
        ledger.publish_filter();
    }
    if let Err(e) = cluster.wait_filters_current(Duration::from_secs(5)) {
        problems.push(format!("audit: {e}"));
    }
    let transport = TcpTransport::new(cluster.proxy_addr, Duration::from_secs(5));
    let wrong = acked
        .iter()
        .filter(|w| !load::audit_validate(&transport, w.id, w.revoked))
        .count() as u64;
    if wrong > 0 {
        problems.push(format!(
            "audit: {wrong} of {} acked writes validate wrongly through the proxy",
            acked.len()
        ));
    }
    let deadline = Instant::now() + Duration::from_secs(2);
    for &addr in &cluster.ledger_addrs {
        loop {
            match scrape(addr).map(|s| s.get("irs_ledger_repl_lag").copied()) {
                Ok(Some(0.0)) => break,
                Ok(lag) if Instant::now() > deadline => {
                    problems.push(format!("audit: follower of {addr} lags: {lag:?}"));
                    break;
                }
                Err(e) => {
                    problems.push(format!("audit: {e}"));
                    break;
                }
                Ok(_) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
    (acked.len() as u64, wrong)
}

/// The ratios that say whether a workload still exercises what it was
/// built for, from the proxy's own counters over the window.
pub struct ProxyRatios {
    pub filter_negative: f64,
    pub cache_hit: f64,
    pub ledger_query: f64,
    pub request_us_mean: f64,
}

pub fn proxy_ratios(m: &Measured) -> ProxyRatios {
    let d = |key| delta(&m.proxy.0, &m.proxy.1, key);
    let lookups = d("irs_proxy_lookups_total").max(1.0);
    ProxyRatios {
        filter_negative: d("irs_proxy_filter_negative_total") / lookups,
        cache_hit: d("irs_proxy_cache_hits_total") / lookups,
        ledger_query: d("irs_proxy_ledger_queries_total") / lookups,
        request_us_mean: d("irs_proxy_request_us_sum") / d("irs_proxy_request_us_count").max(1.0),
    }
}

fn check_shape(workload: Workload, m: &Measured, writes: &WriteSide, problems: &mut Vec<String>) {
    let r = proxy_ratios(m);
    let mut need = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: {what}", workload.name()));
        }
    };
    match workload {
        Workload::PageClean => need(
            r.filter_negative >= 0.98,
            format!("filter-negative ratio {:.4} < 0.98", r.filter_negative),
        ),
        Workload::PageRevokedCold => need(
            r.ledger_query >= 0.80,
            format!("ledger-query ratio {:.4} < 0.80", r.ledger_query),
        ),
        Workload::ScrollRevokedHot => need(
            r.cache_hit >= 0.98,
            format!("cache-hit ratio {:.4} < 0.98", r.cache_hit),
        ),
        Workload::OwnerWrites => {}
    }
    // One write may sit between its append and its fsync when the
    // counters are read.
    let (appends, _, syncs) = writes.wal;
    need(
        appends > 0 && syncs + 1 >= appends,
        format!("{syncs} fsyncs for {appends} WAL appends: fewer than one per write"),
    );
}

/// Run one workload as configured and report.
pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("create out dir: {e}"))?;
    let fsync_us = host::fsync_us(&cfg.out_dir).map_err(|e| format!("fsync probe: {e}"))?;
    let data_root = |n: usize| {
        cfg.out_dir.join(format!(
            "data-{}-{}-{n}",
            cfg.workload.name(),
            std::process::id()
        ))
    };
    let cluster = Cluster::build(&data_root(0), cfg.scale, cfg.seed)?;
    let mut setup_totals = vec![cluster.times.total];

    let window = Duration::from_secs_f64(cfg.seconds);
    let mut problems = Vec::new();
    let mut warnings: Vec<String> = Vec::new();
    let mut metrics = Vec::new();
    let mut extra: Vec<(String, Json)> = Vec::new();

    // With tracing on, half the time goes to an untraced window so the
    // two rates can be compared on one cluster.
    let (untraced, measured) = if cfg.traced {
        let half = window / 2;
        let untraced = drive(&cluster, cfg.workload, cfg.seed, cfg.warmup(), half, false)?;
        let traced = drive(
            &cluster,
            cfg.workload,
            cfg.seed ^ 1,
            cfg.warmup() / 4,
            half,
            true,
        )?;
        (Some(untraced), traced)
    } else {
        let m = drive(
            &cluster,
            cfg.workload,
            cfg.seed,
            cfg.warmup(),
            window,
            false,
        )?;
        (None, m)
    };

    // Read workloads probe the write path on the now idle cluster, so
    // every workload reports every write metric and ends with an audit.
    let probe = match cfg.workload {
        Workload::OwnerWrites => None,
        _ => Some(write_probe(&cluster, cfg.seed, cfg.probe())?),
    };
    let writes = probe.as_ref().unwrap_or(&measured.writes);
    // Both halves of a traced run count, readers and owner alike: a
    // failure in either is a failure of the run, and every write either
    // acked is audited.
    let windows = || untraced.iter().chain([&measured]);
    let write_sides = || windows().map(|m| &m.writes).chain(&probe);
    let lanes = || {
        windows()
            .map(|m| &m.readers)
            .chain(write_sides().map(|w| &w.lane))
    };
    let acked: Vec<AckedWrite> = write_sides().flat_map(|w| &w.acked).copied().collect();
    let (audited, audit_wrong) = audit(&cluster, &acked, &mut problems);
    if cfg.scale.is_full() {
        check_shape(cfg.workload, &measured, writes, &mut problems);
    }

    let attempted = lanes().map(|l| l.attempted).sum::<u64>() + audited;
    let lanes_failed: u64 = lanes().map(|l| l.failed).sum();
    let failed = lanes_failed + audit_wrong;
    if lanes_failed > 0 {
        problems.push(format!(
            "{lanes_failed} reads or writes failed or came back wrong"
        ));
    }

    if cfg.traced {
        let untraced = untraced.as_ref().expect("traced runs measure both");
        let layers = trace::per_layer(&cluster, cfg, untraced, &measured, writes, fsync_us)?;
        metrics.extend(micro::on_cluster(&cluster)?);
        metrics.extend(layers.metrics);
        extra.extend(layers.extra);
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(f64::NAN, |m| m.value)
        };
        if cfg.scale.is_full() {
            // The replay must account for the time it took.
            let accounted = value("stack.accounted_ratio");
            if cfg.workload == Workload::PageRevokedCold && accounted < 0.95 {
                problems.push(format!("stack.accounted_ratio {accounted:.3} < 0.95"));
            }
            // Two adjacent half-windows on a shared host can differ by
            // this much without tracing: recorded, not fatal.
            let overhead = value("trace.overhead_ratio");
            if overhead < 0.80 {
                warnings.push(format!("trace.overhead_ratio {overhead:.3} < 0.80"));
            }
        }
    } else {
        let (reader_segments, validate_qps) =
            stats::segment_rates(&measured.readers.seg_ops, measured.window_s);
        let (writer_segments, _) = stats::segment_rates(&writes.lane.seg_ops, writes.window_s);
        // Tails ride on the scheduler and, for writes, on a shared disk:
        // run to run they spread two to three times wider than medians,
        // so the medians are the end-to-end figures and the tails
        // (`reader.request_p99_us`, `owner.write_p95_us`) per-layer ones.
        // `owner.write_qps` is per-layer too: with one writer it restates
        // `write_p50_us`, and it was the widest-spread metric of all.
        let request_p50 = percentile_us("reads", &measured.readers.latencies_ns, 50.0)?;
        let write_p50 = percentile_us("writes", &writes.lane.latencies_ns, 50.0)?;
        metrics.extend([
            metric("validate_qps", validate_qps, "1/s"),
            metric("request_p50_us", request_p50, "us"),
            metric("write_p50_us", write_p50, "us"),
            metric(
                "cpu_us_per_validate",
                measured.cpu.as_secs_f64() * 1e6 / measured.ops().max(1) as f64,
                "us",
            ),
        ]);
        extra.push((
            "segments".into(),
            Json::obj([
                ("validate_qps", Json::nums(&reader_segments)),
                ("write_qps", Json::nums(&writer_segments)),
            ]),
        ));
        extra.push((
            "samples".into(),
            Json::obj([
                (
                    "requests",
                    Json::Num(measured.readers.latencies_ns.len() as f64),
                ),
                ("writes", Json::Num(writes.lane.latencies_ns.len() as f64)),
            ]),
        ));
        let r = proxy_ratios(&measured);
        extra.push((
            "proxy_ratios".into(),
            Json::obj([
                ("filter_negative", Json::Num(r.filter_negative)),
                ("cache_hit", Json::Num(r.cache_hit)),
                ("ledger_query", Json::Num(r.ledger_query)),
            ]),
        ));
    }

    let t = cluster.times;
    extra.push((
        "setup".into(),
        Json::obj([
            ("preload_s", Json::Num(t.preload)),
            ("snapshot_s", Json::Num(t.snapshot)),
            ("recover_s", Json::Num(t.recover)),
            ("follower_bootstrap_s", Json::Num(t.follower_bootstrap)),
            ("publish_filter_s", Json::Num(t.publish_filter)),
            ("first_refresh_s", Json::Num(t.first_refresh)),
        ]),
    ));
    // Peak memory is read before the extra builds below can add to it.
    let peak_rss_mb = host::peak_rss_mb();
    if let Err(e) = Cluster::shutdown(cluster) {
        problems.push(format!("teardown: {e}"));
    }
    // `setup_s` is the median of several builds; the measured cluster
    // was the first, the others are built here and torn down at once.
    for n in 1..cfg.setups() {
        let again = Cluster::build(&data_root(n), cfg.scale, cfg.seed)?;
        setup_totals.push(again.times.total);
        Cluster::shutdown(again)?;
    }
    let setup_s = stats::median(&setup_totals);
    if cfg.traced {
        // The cluster is gone and the host is warm: a quiet moment for
        // the rows that time one call at a time.
        metrics.extend(micro::standalone(&cfg.out_dir)?);
    } else {
        metrics.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
        metrics.push(metric("setup_s", setup_s, "s"));
    }
    extra.push(("setup_totals_s".into(), Json::nums(&setup_totals)));

    let correct = problems.is_empty();
    let mut file = vec![
        ("workload".to_string(), Json::str(cfg.workload.name())),
        ("seed".into(), Json::Num(cfg.seed as f64)),
        ("trace".into(), Json::Bool(cfg.traced)),
        ("records".into(), Json::Num(cfg.scale.records as f64)),
        (
            "windows_s".into(),
            Json::obj([
                ("warmup", Json::Num(cfg.warmup().as_secs_f64())),
                ("timed", Json::Num(cfg.seconds)),
                ("write_probe", Json::Num(cfg.probe().as_secs_f64())),
            ]),
        ),
        (
            "host".into(),
            Json::obj(
                host::facts()
                    .into_iter()
                    .map(|(k, v)| (k, Json::Str(v)))
                    .chain([("fsync_us", Json::Num(fsync_us))]),
            ),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted as f64)),
        ("failed".into(), Json::Num(failed as f64)),
        (
            "problems".into(),
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        (
            "warnings".into(),
            Json::Arr(warnings.iter().map(Json::str).collect()),
        ),
        ("metrics".into(), metrics_json(&metrics)),
    ];
    file.extend(extra);
    let file = Json::Obj(file);
    let path = cfg.out_dir.join(format!(
        "result-{}-seed{}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.traced)
    ));
    std::fs::write(&path, file.render()).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        problems,
        file,
        path,
    })
}
