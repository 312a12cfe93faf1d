//! E13 — viewer privacy: what a curious ledger can attribute.
//!
//! §4.2 / Goal #2: browsers "will not directly query ledgers, but will
//! make queries through an IRS proxy". Replay one view trace under three
//! deployments and report the attribution metrics, plus the anonymity-set
//! sizes of the queries that do reach a ledger.

use crate::table::{f, pct, Table};
use irs_core::claim::RevocationStatus;
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_filters::BloomFilter;
use irs_proxy::privacy::{analyze, anonymity_set_size, LedgerLogEntry};
use irs_proxy::{FilterUpdate, IrsProxy, LookupOutcome, ProxyConfig};
use irs_workload::population::{PhotoPopulation, PopulationConfig};
use irs_workload::trace::{generate, ViewTraceConfig};

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

    // Deployment A: direct — every view queries the ledger from the
    // viewer's own address.
    let direct_log: Vec<LedgerLogEntry> = trace
        .iter()
        .map(|e| LedgerLogEntry {
            at_ms: e.at_ms,
            source_user: Some(e.user),
            photo_serial: e.photo.id.serial,
        })
        .collect();

    // Deployment B: proxied, no filter — all views still reach the
    // ledger, but from the proxy's address.
    let proxied_log: Vec<LedgerLogEntry> = trace
        .iter()
        .map(|e| LedgerLogEntry {
            at_ms: e.at_ms,
            source_user: None,
            photo_serial: e.photo.id.serial,
        })
        .collect();

    // Deployment C: proxied + revoked-set filter + cache — only filter
    // hits reach the ledger.
    let mut proxy = IrsProxy::new(ProxyConfig::default());
    let mut filter = BloomFilter::for_capacity(population.total(), 0.02).unwrap();
    for meta in population.iter() {
        if meta.revoked {
            filter.insert(meta.id.filter_key());
        }
    }
    proxy
        .filters
        .apply(LedgerId(0), FilterUpdate::full(1, filter.to_bytes()))
        .unwrap();
    let mut filtered_log = Vec::new();
    for e in &trace {
        if proxy.lookup(e.photo.id, TimeMs(e.at_ms)) == LookupOutcome::NeedsLedgerQuery {
            proxy.complete(
                e.photo.id,
                if e.photo.revoked {
                    RevocationStatus::Revoked
                } else {
                    RevocationStatus::NotRevoked
                },
                TimeMs(e.at_ms),
            );
            filtered_log.push(LedgerLogEntry {
                at_ms: e.at_ms,
                source_user: None,
                photo_serial: e.photo.id.serial,
            });
        }
    }

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

/// Second table: the aggregation that §4.2's privacy rests on has a price —
/// queries wait for company. Sweep the batcher's hold window and report the
/// anonymity-set / added-latency tradeoff.
fn run_batching_tradeoff(trace: &[irs_workload::trace::ViewEvent]) -> String {
    use irs_proxy::{BatchConfig, Batcher};
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
        let mut batcher = Batcher::new(BatchConfig {
            max_batch: 4096,
            max_hold_ms: hold_ms,
            // Disable the k-floor early flush: this sweep isolates the
            // hold-window dial.
            min_batch: usize::MAX,
        });
        let mut anon_sizes: Vec<usize> = Vec::new();
        let mut last_poll = 0u64;
        for e in trace {
            // Poll the time-driven flush at 10 ms granularity between
            // events (what a proxy's timer wheel would do).
            while last_poll + 10 <= e.at_ms {
                last_poll += 10;
                if let Some(b) = batcher.poll(TimeMs(last_poll)) {
                    anon_sizes.push(b.anonymity_set);
                }
            }
            if let Some(b) = batcher.enqueue(e.photo.id, e.user, TimeMs(e.at_ms)) {
                anon_sizes.push(b.anonymity_set);
            }
        }
        if let Some(b) = batcher.poll(TimeMs(last_poll + hold_ms + 1)) {
            anon_sizes.push(b.anonymity_set);
        }
        let batches = anon_sizes.len().max(1);
        let mean_anon = anon_sizes.iter().sum::<usize>() as f64 / batches as f64;
        let min_anon = anon_sizes.iter().copied().min().unwrap_or(0);
        table.row(vec![
            format!("{hold_ms} ms"),
            format!("{}", batches),
            f(mean_anon, 1),
            format!("{min_anon}"),
            format!("{} ms", f(batcher.mean_hold_ms(), 1)),
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
}
