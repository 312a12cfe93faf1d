//! E13 — viewer privacy: what a curious ledger can attribute.
//!
//! §4.2 / Goal #2: browsers "will not directly query ledgers, but will
//! make queries through an IRS proxy". Replay one view trace under three
//! deployments and report the attribution metrics, plus the anonymity-set
//! sizes of the queries that do reach a ledger.

use crate::rig::{install_revoked_filter, validate};
use crate::table::{f, pct, Table};
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::privacy::{analyze, anonymity_set_size, LedgerLogEntry};
use irs_proxy::{LookupOutcome, ProxyConfig, SharedProxy};
use irs_workload::population::{PhotoPopulation, PopulationConfig};
use irs_workload::trace::{generate, ViewEvent, ViewTraceConfig};

/// Run E13.
pub fn run(quick: bool) -> String {
    let population = PhotoPopulation::new(PopulationConfig {
        total: if quick { 20_000 } else { 100_000 },
        ..PopulationConfig::default()
    });
    let trace = generate(
        &ViewTraceConfig {
            users: if quick { 50 } else { 200 },
            duration_ms: if quick { 60_000 } else { 300_000 },
            mean_interval_ms: 1_500.0,
            ..ViewTraceConfig::default()
        },
        &population,
    );
    let total_views = trace.len() as u64;
    let activity: Vec<(u64, u32)> = trace.iter().map(|e| (e.at_ms, e.user)).collect();

    // What the ledger logs for one view, by the address it came from.
    let entry = |e: &ViewEvent, source_user| LedgerLogEntry {
        at_ms: e.at_ms,
        source_user,
        photo_serial: e.photo.id.serial,
    };
    // Deployment A: direct — every view queries the ledger from the
    // viewer's own address.
    let direct_log: Vec<_> = trace.iter().map(|e| entry(e, Some(e.user))).collect();
    // Deployment B: proxied, no filter — all views still reach the
    // ledger, but from the proxy's address.
    let proxied_log: Vec<_> = trace.iter().map(|e| entry(e, None)).collect();
    // Deployment C: proxied + revoked-set filter + cache — only filter
    // hits reach the ledger.
    let proxy = SharedProxy::with_shards(ProxyConfig::default(), 1);
    let filter = BloomFilter::for_capacity(population.total(), 0.02).unwrap();
    install_revoked_filter(&proxy, filter, &population);
    let filtered_log: Vec<_> = trace
        .iter()
        .filter(|e| {
            validate(&proxy, e.photo.id, e.photo.revoked, TimeMs(e.at_ms))
                == LookupOutcome::NeedsLedgerQuery
        })
        .map(|e| entry(e, None))
        .collect();

    let mut table = Table::new(
        "E13 — ledger-side attribution under three deployments",
        &[
            "deployment",
            "queries at ledger",
            "attributable views",
            "exposed users",
        ],
    );
    for (name, log) in [
        ("direct (no proxy)", &direct_log),
        ("proxied", &proxied_log),
        ("proxied + filter", &filtered_log),
    ] {
        let r = analyze(total_views, log);
        table.row(vec![
            name.to_string(),
            format!("{}", r.ledger_visible_queries),
            pct(r.attributable_fraction),
            format!("{}", r.exposed_users),
        ]);
    }

    // Anonymity sets for the queries that still reach the ledger.
    let mut sizes: Vec<usize> = filtered_log
        .iter()
        .map(|e| anonymity_set_size(e.at_ms, 5_000, &activity))
        .collect();
    sizes.sort_unstable();
    if !sizes.is_empty() {
        table.note(format!(
            "anonymity set of surviving queries (±5 s window): min {}, median {}, mean {}",
            sizes[0],
            sizes[sizes.len() / 2],
            f(sizes.iter().sum::<usize>() as f64 / sizes.len() as f64, 1)
        ));
    }
    table.note(format!("{total_views} total views replayed"));
    table.note("Goal #2: the revocation mechanism must not reveal more than sites already see");
    let mut out = table.render();
    out.push('\n');
    out.push_str(&run_batching_tradeoff(&trace));
    out
}

/// The §4.2 mixing window replayed over the view trace in virtual time:
/// a pending query flushes upstream, with everything pending beside it,
/// at the first 10 ms timer tick by which the oldest has been held
/// `hold_ms`. Returns each batch's anonymity set (distinct users) and the
/// mean hold in ms. This is the paper-claim fixture: the live path has
/// no window — a page's misses reach a ledger as pipelined `Query`
/// frames on the proxy's connection.
fn hold_windows(trace: &[ViewEvent], hold_ms: u64) -> (Vec<usize>, f64) {
    let mut pending: Vec<(u64, u32)> = Vec::new(); // (enqueued at, user)
    let (mut anon_sets, mut total_hold) = (Vec::new(), 0u64);
    let mut flush_if_due = |pending: &mut Vec<(u64, u32)>, now: u64| {
        // Saturating: the closing flush can land before the last arrival.
        let held = |at: u64| now.saturating_sub(at);
        if pending.first().is_some_and(|&(at, _)| held(at) >= hold_ms) {
            total_hold += pending.iter().map(|&(at, _)| held(at)).sum::<u64>();
            let mut users: Vec<u32> = pending.drain(..).map(|(_, user)| user).collect();
            users.sort_unstable();
            users.dedup();
            anon_sets.push(users.len());
        }
    };
    let mut tick = 0u64;
    for e in trace {
        while tick + 10 <= e.at_ms {
            tick += 10;
            flush_if_due(&mut pending, tick);
        }
        pending.push((e.at_ms, e.user));
    }
    flush_if_due(&mut pending, tick + hold_ms + 1);
    (anon_sets, total_hold as f64 / trace.len().max(1) as f64)
}

/// Second table: the aggregation that §4.2's privacy rests on has a price —
/// queries wait for company. Sweep the hold window and report the
/// anonymity-set / added-latency tradeoff.
fn run_batching_tradeoff(trace: &[ViewEvent]) -> String {
    let mut table = Table::new(
        "E13b — proxy batching: anonymity set vs added hold latency",
        &[
            "max hold",
            "batches",
            "mean batch anon-set",
            "min anon-set",
            "mean hold",
        ],
    );
    for &hold_ms in &[0u64, 50, 200, 1_000, 5_000] {
        let (anon_sets, mean_hold) = hold_windows(trace, hold_ms);
        let batches = anon_sets.len().max(1);
        let mean_anon = anon_sets.iter().sum::<usize>() as f64 / batches as f64;
        let min_anon = anon_sets.iter().copied().min().unwrap_or(0);
        table.row(vec![
            format!("{hold_ms} ms"),
            format!("{}", batches),
            f(mean_anon, 1),
            format!("{min_anon}"),
            format!("{} ms", f(mean_hold, 1)),
        ]);
    }
    table.note(
        "longer holds mix more users per upstream batch (stronger against ledger \
         traffic analysis) at the cost of validation latency — the §4.2 dial",
    );
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn proxy_eliminates_attribution() {
        let out = super::run(true);
        let direct = out.lines().find(|l| l.contains("direct")).unwrap();
        assert!(direct.contains("100.00%"), "{direct}");
        let proxied = out
            .lines()
            .find(|l| l.trim_start().starts_with("proxied "))
            .unwrap();
        assert!(proxied.contains("0.00%"), "{proxied}");
    }

    #[test]
    fn longer_holds_mix_more_users() {
        use super::*;
        let population = PhotoPopulation::new(PopulationConfig {
            total: 5_000,
            ..PopulationConfig::default()
        });
        let config = ViewTraceConfig {
            users: 50,
            duration_ms: 30_000,
            mean_interval_ms: 1_500.0,
            ..ViewTraceConfig::default()
        };
        let trace = generate(&config, &population);
        let rows: Vec<(usize, f64)> = [0u64, 50, 200, 1_000, 5_000]
            .iter()
            .map(|&hold_ms| {
                let (sets, _) = hold_windows(&trace, hold_ms);
                let mean = sets.iter().sum::<usize>() as f64 / sets.len() as f64;
                (*sets.iter().min().unwrap(), mean)
            })
            .collect();
        assert_eq!(rows[0].0, 1, "no hold: some query rides alone");
        assert!(rows.windows(2).all(|w| w[0].1 <= w[1].1), "{rows:?}");
    }
}
