//! E20 — replicated ledgers: WAL-shipping failover with zero acked-write
//! loss.
//!
//! Two tables over the replication stack
//! ([`irs_ledger::ReplicationLog`] + [`Follower`] on seeded [`ChaosDisk`]s,
//! the follower polling through [`Follower::poll`]):
//!
//! 1. **Catch-up** — a follower bootstraps from a mid-workload snapshot,
//!    tails the live WAL stream to the end, and must finish
//!    *byte-identical* to the primary (same records, serials, epochs,
//!    filter — compared as encoded snapshot bytes).
//! 2. **Kill-the-primary sweep × replication policy** — the primary is
//!    killed at byte offsets swept across its WAL's whole life while a
//!    follower tails it; after each kill the follower is promoted and we
//!    count how many *acknowledged* writes it holds. The acceptance bar:
//!    under [`ReplicationPolicy::WaitForFollower`], 100% at every kill
//!    point. `local-only` is allowed to lose its unshipped tail — the
//!    table quantifies exactly how much.
//!
//! Promotion over TCP — snapshot fetch and WAL tail over loopback, the
//! primary server killed, `Failover` rotating onto the replica — is
//! E22b's shard-1 drill.

use crate::rig::{chaos_seed, count_recovered, ledger_config, Workload, LEDGER};
use crate::table::{f, Table};
use irs_core::claim::{ClaimRequest, RevokeRequest};
use irs_core::ids::RecordId;
use irs_core::time::TimeMs;
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{Digest, Keypair};
use irs_ledger::{
    ChaosDisk, ChaosDiskConfig, Disk, DurabilityConfig, Follower, FsyncPolicy, Ledger,
    ReplicationPolicy,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Replication policies swept by the kill table.
pub const POLICIES: [ReplicationPolicy; 2] = [
    ReplicationPolicy::LocalOnly,
    ReplicationPolicy::WaitForFollower { timeout_ms: 2_000 },
];

fn tsa() -> TimestampAuthority {
    TimestampAuthority::from_seed(0xE20)
}

fn durable(disk: &Arc<ChaosDisk>, replication: ReplicationPolicy) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(disk.clone() as Arc<dyn Disk>, FsyncPolicy::Always);
    d.replication = replication;
    d
}

/// One kill-sweep cell, summed over every kill point.
#[derive(Clone, Copy, Debug, Default)]
pub struct KillOutcome {
    /// Kill points injected.
    pub kill_points: u64,
    /// Writes acknowledged before the kill, summed over the sweep.
    pub acked: u64,
    /// Acknowledged writes the promoted follower held, summed.
    pub recovered: u64,
}

impl KillOutcome {
    /// Acknowledged writes the failover lost.
    pub fn lost(&self) -> u64 {
        self.acked - self.recovered
    }
}

/// Kill the primary at `points` byte offsets swept across its WAL's
/// life, a live follower tailing it throughout, and tally how many
/// acknowledged writes the promoted follower holds at each point.
///
/// Under `LocalOnly` the poller is throttled, so replication lag is real
/// and the kill lands mid-lag; under `WaitForFollower` it polls tight,
/// and holding each write until its follower ack means the tally must
/// be perfect anyway.
pub fn kill_sweep(
    policy: ReplicationPolicy,
    workload: &Workload,
    points: u64,
    seed: u64,
) -> KillOutcome {
    // Dry run to learn the log's extent (policy-independent: same
    // workload, same fsync).
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed)));
    let ledger = Ledger::recover(
        ledger_config(),
        tsa(),
        4,
        durable(&calm, ReplicationPolicy::LocalOnly),
    )
    .unwrap();
    workload.run(&ledger);
    let total = calm.total_appended();
    drop(ledger);

    let throttle = matches!(policy, ReplicationPolicy::LocalOnly);
    let stride = (total / points).max(1);
    let mut out = KillOutcome::default();
    let mut cap = 1;
    while cap < total {
        out.kill_points += 1;
        let disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::crash_at(seed, cap)));
        let Ok(primary) = Ledger::recover(ledger_config(), tsa(), 4, durable(&disk, policy)) else {
            // Killed during the very first header write: nothing acked,
            // nothing to promote.
            cap += stride;
            continue;
        };
        let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(seed + 1)));
        let (snap_seq, snap_data) = primary.replication_snapshot().unwrap();
        let mut follower = Follower::bootstrap(
            ledger_config(),
            tsa(),
            4,
            durable(&follower_disk, ReplicationPolicy::LocalOnly),
            snap_seq,
            &snap_data,
        )
        .unwrap();
        let promoted = follower.ledger();

        let dead = AtomicBool::new(false);
        let acked = std::thread::scope(|s| {
            let poller = s.spawn(|| {
                // The kill stops the polls: a real primary death takes
                // the stream with it, so nothing durable-but-unshipped
                // can sneak across afterwards.
                let fetch = |req| Some(primary.handle(req, TimeMs(0)));
                while !dead.load(Ordering::SeqCst) {
                    if follower.poll(fetch).is_err() {
                        break;
                    }
                    if throttle {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                }
            });
            let acked = workload.run(&primary);
            dead.store(true, Ordering::SeqCst);
            poller.join().unwrap();
            acked
        });

        out.acked += (acked.0.len() + acked.1.len()) as u64;
        out.recovered += count_recovered(&promoted, &acked);
        cap += stride;
    }
    out
}

/// Catch-up: bootstrap a follower from a snapshot taken `split` claims
/// into the workload, tail the rest live, drain, and compare the two
/// encoded states byte for byte. Returns (records, snapshot bytes,
/// identical).
pub fn catch_up(claims: u64, split: u64) -> (u64, usize, bool) {
    let calm = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(7)));
    let primary = Ledger::recover(
        ledger_config(),
        tsa(),
        4,
        durable(&calm, ReplicationPolicy::LocalOnly),
    )
    .unwrap();
    let kp = Keypair::from_seed(&[0x21; 32]);
    let reqs: Vec<ClaimRequest> = (0..claims)
        .map(|i| ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes())))
        .collect();
    for (i, req) in reqs.iter().take(split as usize).enumerate() {
        primary.claim_custodial(*req, TimeMs(i as u64)).unwrap();
    }

    // Bootstrap from the mid-workload cut…
    let (snap_seq, snap_data) = primary.replication_snapshot().unwrap();
    let follower_disk = Arc::new(ChaosDisk::new(ChaosDiskConfig::off(8)));
    let mut follower = Follower::bootstrap(
        ledger_config(),
        tsa(),
        4,
        durable(&follower_disk, ReplicationPolicy::LocalOnly),
        snap_seq,
        &snap_data,
    )
    .unwrap();

    // …write the rest (claims + a revoke of every even serial)…
    for (i, req) in reqs.iter().skip(split as usize).enumerate() {
        primary
            .claim_custodial(*req, TimeMs(split + i as u64))
            .unwrap();
    }
    for serial in (0..claims).step_by(2) {
        let rv = RevokeRequest::create(&kp, RecordId::new(LEDGER, serial), true, 0);
        assert!(matches!(
            primary.handle(Request::Revoke(rv), TimeMs(1_000)),
            Response::RevokeAck { .. }
        ));
    }

    // …and tail until the stream is dry.
    let fetch = |req| Some(primary.handle(req, TimeMs(0)));
    while follower.poll(fetch).expect("catch-up stream") > 0 {}

    let (_, primary_bytes) = primary.replication_snapshot().unwrap();
    let (_, follower_bytes) = follower.ledger().replication_snapshot().unwrap();
    (
        claims + claims / 2,
        primary_bytes.len(),
        primary_bytes == follower_bytes,
    )
}

/// Run E20.
pub fn run(quick: bool) -> String {
    let seed = chaos_seed(0xE20);
    let workload = Workload::new(0x20, if quick { 16 } else { 32 });
    let points = if quick { 50 } else { 80 };

    let (records, snap_bytes, identical) = catch_up(if quick { 40 } else { 120 }, 15);
    let mut catchup = Table::new(
        "E20a — follower catch-up: snapshot bootstrap + live WAL tail",
        &["records shipped", "snapshot bytes", "state byte-identical"],
    );
    catchup.row(vec![
        records.to_string(),
        snap_bytes.to_string(),
        if identical { "yes" } else { "NO" }.to_string(),
    ]);
    catchup.note(
        "the follower bootstraps from a mid-workload snapshot, tails the rest of \
         the stream, and its encoded state (records, serials, epochs, filter) \
         must equal the primary's byte for byte",
    );

    let mut sweep = Table::new(
        "E20b — kill-the-primary sweep: acked writes on the promoted follower",
        &[
            "replication",
            "kill points",
            "acked",
            "recovered",
            "lost",
            "recovered %",
        ],
    );
    for policy in POLICIES {
        let out = kill_sweep(policy, &workload, points, seed);
        sweep.row(vec![
            policy.name().to_string(),
            out.kill_points.to_string(),
            out.acked.to_string(),
            out.recovered.to_string(),
            out.lost().to_string(),
            format!(
                "{}%",
                f(out.recovered as f64 / out.acked.max(1) as f64 * 100.0, 1)
            ),
        ]);
        if matches!(policy, ReplicationPolicy::WaitForFollower { .. }) {
            assert_eq!(
                out.lost(),
                0,
                "wait-follower must lose zero acked writes across every kill point"
            );
        }
    }
    sweep.note(format!(
        "seed {seed}; each kill is a storage death at a byte offset of the \
         primary WAL's life, with the follower's polls stopping at the same \
         instant — nothing unshipped crosses after the kill"
    ));
    sweep.note(
        "local-only acks after the local fsync, so writes acked inside the \
         poller's lag window die with the primary; wait-follower acks only \
         after the follower's poll cursor covers the write",
    );

    format!("{}\n{}", catchup.render(), sweep.render())
}

/// The CI gate: under `WaitForFollower` the kill sweep must recover
/// 100% of acknowledged writes at every kill point, and catch-up must
/// end byte-identical. Quick mode shrinks the workload, never the kill
/// point count — the guarantee is per-point, not amortized.
pub fn check(quick: bool) -> Result<String, String> {
    let seed = chaos_seed(0xE20);
    let workload = Workload::new(0x20, if quick { 12 } else { 32 });
    let points = if quick { 50 } else { 80 };

    let (_, _, identical) = catch_up(if quick { 30 } else { 120 }, 10);
    if !identical {
        return Err("follower catch-up state diverged from the primary".into());
    }

    let out = kill_sweep(
        ReplicationPolicy::WaitForFollower { timeout_ms: 2_000 },
        &workload,
        points,
        seed,
    );
    if out.kill_points < 50 {
        return Err(format!(
            "sweep injected only {} kill points (need ≥ 50)",
            out.kill_points
        ));
    }
    if out.acked == 0 {
        return Err("no kill point landed mid-workload; nothing was tested".into());
    }
    if out.lost() != 0 {
        return Err(format!(
            "lost {} of {} acked writes under wait-follower (seed {seed})",
            out.lost(),
            out.acked
        ));
    }

    Ok(format!(
        "E20: catch-up byte-identical; {} kill points, {}/{} acked writes on \
         the promoted follower (seed {seed})",
        out.kill_points, out.recovered, out.acked
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar at reduced scale: wait-follower loses nothing,
    /// at any kill point.
    #[test]
    fn wait_follower_loses_nothing() {
        let workload = Workload::new(0x20, 6);
        let out = kill_sweep(
            ReplicationPolicy::WaitForFollower { timeout_ms: 2_000 },
            &workload,
            12,
            0xE20,
        );
        assert!(out.acked > 0, "some kill point must land mid-workload");
        assert_eq!(out.lost(), 0);
    }

    /// The local-only column is a real measurement, not a tautology:
    /// recovered never exceeds acked.
    #[test]
    fn local_only_bounded_by_acked() {
        let workload = Workload::new(0x20, 6);
        let out = kill_sweep(ReplicationPolicy::LocalOnly, &workload, 12, 0xE20);
        assert!(out.recovered <= out.acked);
    }

    #[test]
    fn catch_up_is_byte_identical() {
        let (_, _, identical) = catch_up(20, 7);
        assert!(identical);
    }

    #[test]
    fn table_renders_all_sections() {
        let out = run(true);
        assert!(out.contains("E20a"));
        assert!(out.contains("E20b"));
        assert!(out.contains("wait-follower"));
    }
}
