//! E15 — thread scaling of the validate path: global-mutex baseline vs
//! the striped `&self` ledger.
//!
//! The §4.3 prototype's server originally held one mutex around the
//! whole ledger across every request, so connection threads serialized
//! even for pure status queries. [`Ledger`] (DESIGN.md "Concurrency
//! architecture") makes the whole request path `&self`: striped record
//! shards behind per-shard `RwLock`s, snapshot filters, atomic counters.
//! This experiment drives the same query workload through both designs
//! at 1/2/4/8 threads and reports aggregate throughput — the mutex
//! design flatlines (or degrades, from handoff contention) while the
//! striped design scales with cores. The baseline is a local fixture:
//! a `Mutex` around a one-stripe `Ledger`, which is what the old design
//! amounted to.

use crate::table::{f, Table};
use irs_core::claim::ClaimRequest;
use irs_core::ids::LedgerId;
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};
use irs_ledger::store::DEFAULT_SHARDS;
use irs_ledger::{Ledger, LedgerConfig};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Thread counts swept by the experiment.
pub const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A ledger with `stripes` lock stripes holding `records` claims (every
/// 50th revoked at claim time, mirroring the ~2 % revoked-set density
/// used elsewhere).
fn preloaded(stripes: usize, records: u64) -> Ledger {
    let ledger = Ledger::with_shards(
        LedgerConfig::new(LedgerId(1)),
        TimestampAuthority::from_seed(0xE15),
        stripes,
    );
    let keypair = Keypair::from_seed(&[0xE1; 32]);
    for i in 0..records {
        let req = ClaimRequest::create(&keypair, &Digest::of(&i.to_le_bytes()));
        if i % 50 == 0 {
            ledger
                .claim_revoked(req, TimeMs(i))
                .expect("in-memory ledger cannot fail a claim");
        } else {
            ledger.handle(Request::Claim(req), TimeMs(i));
        }
    }
    ledger
}

/// How often a validation asks for a signed freshness proof instead of
/// a bare status query. Proof issuance is the expensive part of the
/// validate path (~67 µs of ed25519 signing on this hardware) — under
/// the mutex baseline the whole signature is computed while holding the
/// service lock, so every other connection stalls behind it.
const PROOF_EVERY: u64 = 8;

/// Run `ops_per_thread` validations on each of `threads` threads
/// against `handler`, returning aggregate throughput in ops/s. Record
/// ids are picked by a per-thread LCG over the preloaded serial range;
/// every [`PROOF_EVERY`]th validation requests a freshness proof.
fn measure(
    threads: usize,
    ops_per_thread: u64,
    records: u64,
    handler: &(impl Fn(Request) -> Response + Sync),
) -> f64 {
    let barrier = Barrier::new(threads + 1);
    let answered = AtomicU64::new(0);
    let elapsed = std::thread::scope(|scope| {
        for t in 0..threads {
            let barrier = &barrier;
            let answered = &answered;
            scope.spawn(move || {
                // SplitMix64-style per-thread stream; deterministic.
                let mut state = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1);
                barrier.wait();
                let mut ok = 0u64;
                for op in 0..ops_per_thread {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let serial = (state >> 16) % records;
                    let id = irs_core::ids::RecordId::new(LedgerId(1), serial);
                    let request = if op % PROOF_EVERY == 0 {
                        Request::GetProof { id }
                    } else {
                        Request::Query { id }
                    };
                    if matches!(
                        handler(request),
                        Response::Status { .. } | Response::Proof(_)
                    ) {
                        ok += 1;
                    }
                }
                answered.fetch_add(ok, Ordering::Relaxed);
            });
        }
        barrier.wait();
        let start = std::time::Instant::now();
        // Threads joined by scope exit; time the whole scope from release.
        start
    })
    .elapsed();
    assert_eq!(
        answered.load(Ordering::Relaxed),
        threads as u64 * ops_per_thread,
        "every validation must be answered"
    );
    (threads as u64 * ops_per_thread) as f64 / elapsed.as_secs_f64()
}

/// Measure both designs at one thread count; returns
/// `(mutex_ops_per_s, sharded_ops_per_s)`. Exposed for the regression
/// test and the CI quick run.
pub fn measure_pair(threads: usize, ops_per_thread: u64, records: u64) -> (f64, f64) {
    let global = Mutex::new(preloaded(1, records));
    let striped = preloaded(DEFAULT_SHARDS, records);
    let mutex_ops = measure(threads, ops_per_thread, records, &|req| {
        global.lock().handle(req, TimeMs(1_000_000))
    });
    let sharded_ops = measure(threads, ops_per_thread, records, &|req| {
        striped.handle(req, TimeMs(1_000_000))
    });
    (mutex_ops, sharded_ops)
}

/// Run E15.
pub fn run(quick: bool) -> String {
    let records: u64 = if quick { 2_000 } else { 10_000 };
    let ops_per_thread: u64 = if quick { 3_000 } else { 20_000 };

    let mut table = Table::new(
        "E15 — validate-path thread scaling (7:1 status queries : freshness proofs)",
        &[
            "threads",
            "global mutex (ops/s)",
            "sharded (ops/s)",
            "speedup",
        ],
    );
    for &threads in &THREADS {
        let (mutex_ops, sharded_ops) = measure_pair(threads, ops_per_thread, records);
        table.row(vec![
            threads.to_string(),
            f(mutex_ops / 1e3, 1) + "k",
            f(sharded_ops / 1e3, 1) + "k",
            format!("{}×", f(sharded_ops / mutex_ops, 2)),
        ]);
    }
    table.note(format!(
        "{records} preloaded records (2% revoked), {ops_per_thread} validations per \
         thread; every {PROOF_EVERY}th validation fetches a signed freshness proof"
    ));
    table.note(format!(
        "baseline holds one Mutex around a 1-stripe Ledger across each request (the \
         pre-concurrency server design, an experiment-local fixture); sharded is the \
         same Ledger with {DEFAULT_SHARDS} record stripes, shared by &self"
    ));
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    table.note(format!(
        "{cores} hardware thread(s) detected; speedup is bounded by physical \
         parallelism — on one core the sharded design can only tie the mutex"
    ));
    table.render()
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_has_all_thread_counts() {
        let out = super::run(true);
        for t in super::THREADS {
            assert!(
                out.lines()
                    .any(|l| l.trim_start().starts_with(&t.to_string())),
                "missing row for {t} threads in:\n{out}"
            );
        }
        assert!(out.contains("speedup"));
    }

    #[test]
    fn sharded_beats_mutex_at_four_threads() {
        // The acceptance bar for the `&self` request path: at 4 threads the
        // striped design must out-run the whole-service mutex. Wall-clock
        // speedup needs real cores; on a single-hardware-thread machine
        // the best possible outcome is a tie, so there we only require
        // that striping does not pathologically regress.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let (mutex_ops, sharded_ops) = super::measure_pair(4, 2_000, 2_000);
        if cores >= 2 {
            assert!(
                sharded_ops > mutex_ops,
                "sharded {sharded_ops:.0} ops/s vs mutex {mutex_ops:.0} ops/s on {cores} cores"
            );
        } else {
            assert!(
                sharded_ops > mutex_ops * 0.7,
                "sharded {sharded_ops:.0} ops/s collapsed vs mutex {mutex_ops:.0} ops/s \
                 even without parallelism"
            );
        }
    }
}
