//! E3 — the real prototype: scrolling with live TCP revocation checks.
//!
//! §4.3: "we built a prototype ledger and browser extension that performed
//! revocation checks. … we did not notice additional delay when scrolling
//! through a variety of web sites containing claimed images."
//!
//! A real ledger server and proxy run on loopback; the scroll session's
//! check service issues actual wire queries and feeds the measured
//! wall-clock latency into the viewport model.

use crate::rig::install_revoked_filter;
use crate::table::Table;
use irs_browser::pipeline::{CheckService, NoChecks};
use irs_browser::scroll::{run_session, ScrollConfig};
use irs_core::ids::LedgerId;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::Request;
use irs_filters::BloomFilter;
use irs_ledger::{Ledger, LedgerConfig};
use irs_net::service::{CallCtx, Service, TcpTransport};
use irs_net::{LedgerServer, ProxyServer};
use irs_proxy::{ProxyConfig, SharedProxy};
use irs_simnet::{LatencyModel, Link};
use irs_workload::population::{PhotoMeta, PhotoPopulation, PopulationConfig};
use irs_workload::samplers::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Check service backed by a live TCP connection to the proxy.
struct LiveChecks {
    client: TcpTransport,
    total_us: u128,
    checks: u64,
}

impl CheckService for LiveChecks {
    fn check_ms(&mut self, photo: &PhotoMeta) -> u64 {
        let start = std::time::Instant::now();
        let _ = self
            .client
            .call(Request::Query { id: photo.id }, &CallCtx::wall());
        let us = start.elapsed().as_micros();
        self.total_us += us;
        self.checks += 1;
        // Round up to whole ms for the viewport model.
        us.div_ceil(1_000) as u64
    }

    fn remote_checks(&self) -> u64 {
        self.checks
    }
}

/// Run E3.
pub fn run(quick: bool) -> String {
    let viewports = if quick { 10 } else { 30 };
    let population = PhotoPopulation::new(PopulationConfig {
        total: 20_000,
        ..PopulationConfig::default()
    });
    let zipf = Zipf::new(population.public_count() as usize, 0.9);

    // Live infrastructure. The ledger knows the population's revoked
    // records (it answers queries straight from the population function).
    let ledger = Ledger::new(
        LedgerConfig::new(LedgerId(0)),
        TimestampAuthority::from_seed(3),
    );
    // Pre-claim the *viewed* portion so wire queries resolve. (The status
    // the prototype returns doesn't affect latency; claiming a sample is
    // enough for realism.)
    {
        let mut cam = irs_core::camera::Camera::new(3, 96, 96);
        for i in 0..200u64 {
            let shot = cam.capture(i);
            ledger.handle(Request::Claim(shot.claim), irs_core::time::TimeMs(i));
        }
    }
    let ledger_server = LedgerServer::start(ledger, "127.0.0.1:0").expect("ledger server");
    let proxy = std::sync::Arc::new(SharedProxy::new(ProxyConfig::default()));
    let filter = BloomFilter::for_capacity(20_000, 0.02).expect("filter");
    install_revoked_filter(&proxy, filter, &population);
    let proxy_server = ProxyServer::start_shared(proxy, "127.0.0.1:0", ledger_server.addr())
        .expect("proxy server");

    let config = ScrollConfig {
        viewports,
        fetch_link: Link::new(LatencyModel::LogNormal {
            median_ms: 40.0,
            sigma: 0.4,
        }),
        ..ScrollConfig::default()
    };

    // Baseline (no IRS).
    let mut rng = StdRng::seed_from_u64(0xE3);
    let mut baseline = run_session(&config, &population, &zipf, &mut NoChecks, &mut rng);

    // Live checks through the proxy.
    let mut live = LiveChecks {
        client: TcpTransport::new(proxy_server.addr(), std::time::Duration::from_secs(5)),
        total_us: 0,
        checks: 0,
    };
    let mut rng = StdRng::seed_from_u64(0xE3);
    let mut with_irs = run_session(&config, &population, &zipf, &mut live, &mut rng);

    let base = baseline.viewport_delays.summary();
    let irs = with_irs.viewport_delays.summary();
    let per_check_us = if live.checks > 0 {
        live.total_us / live.checks as u128
    } else {
        0
    };

    let mut table = Table::new(
        "E3 — scroll session, real TCP prototype on loopback",
        &["metric", "no IRS", "with live IRS checks"],
    );
    table.row(vec![
        "viewport delay p50".into(),
        format!("{} ms", base.p50),
        format!("{} ms", irs.p50),
    ]);
    table.row(vec![
        "viewport delay p90".into(),
        format!("{} ms", base.p90),
        format!("{} ms", irs.p90),
    ]);
    table.row(vec![
        "viewport delay max".into(),
        format!("{} ms", base.max),
        format!("{} ms", irs.max),
    ]);
    table.row(vec![
        "IRS delay per image p99".into(),
        "0 ms".into(),
        format!("{} ms", with_irs.irs_delays.summary().p99),
    ]);
    table.note(format!(
        "{} live checks, mean wire latency {} µs each",
        live.checks, per_check_us
    ));
    table.note("paper: 'we did not notice additional delay when scrolling'");

    proxy_server.shutdown();
    ledger_server.shutdown();
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn live_checks_add_no_visible_delay() {
        let out = super::run(true);
        assert!(out.contains("live checks"));
        // p50 rows should match between columns (no added delay).
        let p50_line = out
            .lines()
            .find(|l| l.contains("viewport delay p50"))
            .unwrap();
        let cells: Vec<&str> = p50_line.split_whitespace().collect();
        // "viewport delay p50  X ms  Y ms" — compare X and Y.
        let x = cells[cells.len() - 4];
        let y = cells[cells.len() - 2];
        assert_eq!(x, y, "live IRS checks must not move the p50: {p50_line}");
    }
}
