//! E16 — validate-path availability under a hostile network.
//!
//! The stack under test is the real one, over loopback sockets:
//! `browser → proxy → chaos interposer → ledger`. The chaos transport
//! injects connection refusals, delays, mid-frame truncation, byte
//! corruption, resets, and blackholes at a swept fault rate, plus one
//! scripted total-outage window mid-run. Three proxy configurations walk
//! the degradation ladder:
//!
//! * **baseline** — one upstream attempt, failures surface as errors
//!   (the pre-resilience design);
//! * **retry** — the `Retry(Failover(Tcp))` stack backs off and retries;
//! * **full** — retries + per-ledger circuit breaker + stale-serve from
//!   the last-good cache ([`Response::StatusStale`]).
//!
//! Each rung is a composed [`irs_net::Service`] stack from
//! [`irs_net::service::stacks`] — the ladder is layer composition, not
//! bespoke config (DESIGN.md §10).
//!
//! Reported per cell: validate success rate (a fresh or honestly-stale
//! status counts; an error or `Unavailable` does not), p50/p99 latency,
//! and the stale fraction. The acceptance bar (ISSUE 2): at a 30% fault
//! rate the full ladder keeps ≥99% success while the baseline measurably
//! fails.

use crate::rig::chaos_seed;
use crate::table::{f, Table};
use irs_core::claim::RevocationStatus;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_ledger::{Ledger, LedgerConfig};
use irs_net::chaos::{ChaosConfig, ChaosProxy};
use irs_net::proxy_server::ProxyServer;
use irs_net::refresh::refresh;
use irs_net::service::{stacks, BoxService, CallCtx, Service, TcpTransport};
use irs_net::RetryPolicy;
use irs_proxy::health::BreakerConfig;
use irs_proxy::{ProxyConfig, SharedProxy};
use irs_simnet::Histogram;
use std::sync::Arc;
use std::time::Duration;

/// Fault rates swept by the experiment.
pub const FAULT_RATES: [f64; 4] = [0.0, 0.1, 0.3, 0.5];

/// Default chaos seed; [`chaos_seed`] replays another universe.
pub const DEFAULT_SEED: u64 = 0xE16;

/// The three rungs of the ladder under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// Single attempt, no recovery.
    Baseline,
    /// Retries + reconnect.
    Retry,
    /// Retries + breaker + stale-serve.
    Full,
}

impl PolicyKind {
    fn label(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "no-retry",
            PolicyKind::Retry => "retry",
            PolicyKind::Full => "retry+breaker+stale",
        }
    }

    /// The rung as a composed layer stack over the chaos transport.
    fn stack(self, proxy: &Arc<SharedProxy>, chaos: std::net::SocketAddr, seed: u64) -> BoxService {
        let retry = RetryPolicy::fast(seed);
        match self {
            PolicyKind::Baseline => stacks::retrying_upstream(
                proxy.clone(),
                vec![chaos],
                RetryPolicy {
                    max_attempts: 1,
                    ..retry
                },
            ),
            PolicyKind::Retry => stacks::retrying_upstream(proxy.clone(), vec![chaos], retry),
            PolicyKind::Full => stacks::full_upstream(proxy.clone(), vec![chaos], retry),
        }
    }
}

/// One cell's measurements.
#[derive(Clone, Copy, Debug)]
pub struct Availability {
    /// Fraction of validations answered (fresh or honestly stale).
    pub success_rate: f64,
    /// Median per-validation latency.
    pub p50_us: u64,
    /// Tail per-validation latency.
    pub p99_us: u64,
    /// Fraction of answers served stale.
    pub stale_fraction: f64,
}

/// Records preloaded (all revoked, so every query walks the upstream
/// path through the chaos transport).
const RECORDS: u64 = 24;

/// Run one cell: `queries` validations against the given policy at the
/// given fault rate, with a total-outage window over the middle 15% of
/// the run. Deterministic in `seed` up to socket-timing noise.
pub fn measure(kind: PolicyKind, fault_rate: f64, queries: usize, seed: u64) -> Availability {
    // Ledger with RECORDS revoked claims and a published filter.
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(seed),
    );
    let keypair = irs_crypto::Keypair::from_seed(&[0xE1; 32]);
    let mut ids: Vec<RecordId> = Vec::new();
    for i in 0..RECORDS {
        let claim = irs_core::claim::ClaimRequest::create(
            &keypair,
            &irs_crypto::Digest::of(&i.to_le_bytes()),
        );
        let (id, _) = ledger.claim_revoked(claim, TimeMs(i)).unwrap();
        ids.push(id);
    }
    ledger.publish_filter();
    let ledger_server = irs_net::LedgerServer::start(ledger, "127.0.0.1:0").unwrap();

    // Chaos sits only on the proxy→ledger leg; the browser→proxy leg is
    // clean (the proxy is the component whose resilience is under test).
    let chaos_config = ChaosConfig {
        delay: Duration::from_millis(2),
        blackhole_hold: Duration::from_millis(40),
        upstream_timeout: Duration::from_secs(1),
        ..ChaosConfig::new(seed, fault_rate)
    };
    let chaos = ChaosProxy::start(ledger_server.addr(), chaos_config).unwrap();

    // A 1 ms cache TTL forces (nearly) every validation upstream while
    // keeping expired entries around for the stale-serve rung.
    let shared = Arc::new(
        SharedProxy::new(ProxyConfig {
            cache_capacity: 4096,
            cache_ttl_ms: 1,
        })
        .with_breaker_config(BreakerConfig {
            failure_threshold: 3,
            open_cooldown_ms: 50,
        }),
    );
    // Filter refresh goes directly to the ledger: E16 measures the query
    // path (the refresh worker's outage behavior has its own tests).
    let refresher = TcpTransport::new(ledger_server.addr(), Duration::from_secs(5));
    refresh(&shared, &refresher, LedgerId(1)).unwrap();

    let stack = kind.stack(&shared, chaos.addr(), seed);
    let proxy_server = ProxyServer::start_with_stack(shared, "127.0.0.1:0", stack).unwrap();
    // (The transport redials by itself should the clean leg ever drop.)
    let browser = TcpTransport::new(proxy_server.addr(), Duration::from_secs(10));

    // Warm the stale cache: one uncounted pass over the id population
    // (identical for every policy, so the comparison stays fair).
    for &id in &ids {
        let _ = browser.call(Request::Query { id }, &CallCtx::wall());
    }

    // Scripted outage: the middle 15% of the run is a total partition.
    let outage_start = queries / 2;
    let outage_end = outage_start + queries * 15 / 100;

    let mut latencies_us = Histogram::new();
    let mut ok = 0usize;
    let mut stale = 0usize;
    for q in 0..queries {
        if q == outage_start {
            chaos.set_outage(true);
        }
        if q == outage_end {
            chaos.set_outage(false);
        }
        let id = ids[q % ids.len()];
        let start = std::time::Instant::now();
        let response = browser.call(Request::Query { id }, &CallCtx::wall());
        latencies_us.record(start.elapsed().as_micros() as u64);
        match response {
            Ok(Response::Status { status, .. }) => {
                assert_eq!(status, RevocationStatus::Revoked);
                ok += 1;
            }
            Ok(Response::StatusStale { status, .. }) => {
                assert_eq!(status, RevocationStatus::Revoked);
                ok += 1;
                stale += 1;
            }
            // Error / Unavailable, or (it should not happen) the clean
            // browser→proxy leg failing: the validation got no status.
            _ => {}
        }
    }

    proxy_server.shutdown();
    chaos.shutdown();
    ledger_server.shutdown();

    let summary = latencies_us.summary();
    Availability {
        success_rate: ok as f64 / queries as f64,
        p50_us: summary.p50,
        p99_us: summary.p99,
        stale_fraction: stale as f64 / queries as f64,
    }
}

/// Run E16.
pub fn run(quick: bool) -> String {
    let queries = if quick { 160 } else { 600 };
    let seed = chaos_seed(DEFAULT_SEED);

    let mut table = Table::new(
        "E16 — validate availability under chaos (browser → proxy → chaos → ledger)",
        &[
            "faults", "policy", "success", "p50 (ms)", "p99 (ms)", "stale",
        ],
    );
    for &rate in &FAULT_RATES {
        for kind in [PolicyKind::Baseline, PolicyKind::Retry, PolicyKind::Full] {
            let a = measure(kind, rate, queries, seed);
            table.row(vec![
                format!("{}%", (rate * 100.0) as u32),
                kind.label().to_string(),
                format!("{}%", f(a.success_rate * 100.0, 1)),
                f(a.p50_us as f64 / 1e3, 2),
                f(a.p99_us as f64 / 1e3, 2),
                format!("{}%", f(a.stale_fraction * 100.0, 1)),
            ]);
        }
    }
    table.note(format!(
        "{queries} validations per cell over {RECORDS} revoked records (every query \
         walks the upstream path; 1 ms cache TTL); chaos seed {seed}"
    ));
    table.note(
        "each run includes a total-outage window over its middle 15% — the stale \
         column is the full ladder serving last-good answers through it",
    );
    table.note(
        "faults are drawn per exchange from all 7 modes (refuse/delay×2/truncate/\
         corrupt/reset/blackhole); success = fresh or honestly-stale status",
    );
    table.note(
        "the outage window spans a fixed query count, not wall-clock time: a \
         fast-failing policy races through it (and its just-warmed cache absorbs \
         part of it), while a retrying one lingers — compare policies within a \
         fault rate, not across the outage accounting",
    );
    table.render()
}

/// Layer-equivalence gate (CI): sweep the ladder through the composed
/// stacks and assert the recorded availability table still holds —
/// the full ladder keeps ≥99% success at every fault rate while the
/// baseline measurably degrades, and the outage window forces stale
/// serves. `Ok` carries a summary, `Err` the first violated bound.
pub fn check(quick: bool) -> Result<String, String> {
    let queries = if quick { 160 } else { 600 };
    let seed = chaos_seed(DEFAULT_SEED);
    let mut lines = Vec::new();
    for &rate in &FAULT_RATES {
        let full = measure(PolicyKind::Full, rate, queries, seed);
        if full.success_rate < 0.99 {
            return Err(format!(
                "full ladder at {:.0}% faults: {:.1}% success < 99%",
                rate * 100.0,
                full.success_rate * 100.0
            ));
        }
        if rate >= 0.3 {
            let baseline = measure(PolicyKind::Baseline, rate, queries, seed);
            if baseline.success_rate >= 0.95 {
                return Err(format!(
                    "baseline at {:.0}% faults unexpectedly healthy: {:.1}% success",
                    rate * 100.0,
                    baseline.success_rate * 100.0
                ));
            }
            if rate == 0.3 && full.stale_fraction <= 0.0 {
                return Err("outage window produced no stale serves".to_string());
            }
            lines.push(format!(
                "{:.0}% faults: full {:.1}% (stale {:.1}%), baseline {:.1}%",
                rate * 100.0,
                full.success_rate * 100.0,
                full.stale_fraction * 100.0,
                baseline.success_rate * 100.0
            ));
        } else {
            lines.push(format!(
                "{:.0}% faults: full {:.1}% (stale {:.1}%)",
                rate * 100.0,
                full.success_rate * 100.0,
                full.stale_fraction * 100.0
            ));
        }
    }
    Ok(format!(
        "E16 layer-equivalence: composed stacks reproduce the recorded ladder\n{}",
        lines.join("\n")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISSUE 2 acceptance bar, at reduced scale: at a 30% fault rate
    /// the full ladder stays ≥99% available while the no-retry baseline
    /// measurably fails (it eats both the faults and the outage window).
    #[test]
    fn full_ladder_meets_availability_bar_at_30pct_faults() {
        let full = measure(PolicyKind::Full, 0.3, 120, DEFAULT_SEED);
        assert!(
            full.success_rate >= 0.99,
            "full ladder: {:.1}% < 99%",
            full.success_rate * 100.0
        );
        let baseline = measure(PolicyKind::Baseline, 0.3, 120, DEFAULT_SEED);
        assert!(
            baseline.success_rate < 0.95,
            "baseline unexpectedly healthy: {:.1}%",
            baseline.success_rate * 100.0
        );
        assert!(
            full.stale_fraction > 0.0,
            "the outage window must force stale serves"
        );
    }
}
