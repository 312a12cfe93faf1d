//! A sharded ledger cluster on loopback TCP (DESIGN.md §15): three
//! shard servers behind one routed client, a claim workload fanned out
//! by rendezvous hashing, a stale-map client self-healing off a
//! `WrongShard` refusal, and a shard-aware refresh worker keeping a
//! proxy's filter current with one shard deliberately dead.
//!
//! ```sh
//! cargo run --example sharded_cluster
//! ```

use irs::crypto::{Digest, Keypair};
use irs::ledger::{Ledger, LedgerConfig, ShardDirectory, ShardMap, ShardSpec};
use irs::net::refresh::RefreshWorker;
use irs::net::service::{stacks, CallCtx, Service};
use irs::net::LedgerServer;
use irs::net::RetryPolicy;
use irs::protocol::claim::ClaimRequest;
use irs::protocol::ids::{LedgerId, RecordId};
use irs::protocol::tsa::TimestampAuthority;
use irs::protocol::wire::{Request, Response};
use irs::proxy::{ProxyConfig, SharedProxy};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: u16 = 3;

fn main() {
    // Boot one server per shard. Each starts under a provisional
    // epoch-1 self-map (it knows its own identity before its peers'
    // addresses exist), then installs the real map once all are up.
    let mut servers = Vec::new();
    let mut dirs = Vec::new();
    for i in 1..=SHARDS {
        let dir = Arc::new(ShardDirectory::for_shard(
            LedgerId(i),
            ShardMap::new(1, vec![ShardSpec::new(LedgerId(i), Vec::new())]).unwrap(),
        ));
        let ledger = Arc::new(Ledger::new(
            LedgerConfig::new(LedgerId(i)),
            TimestampAuthority::from_seed(u64::from(i)),
        ));
        let server = LedgerServer::start_sharded(ledger, "127.0.0.1:0", dir.clone()).unwrap();
        println!("shard {i} listening on {}", server.addr());
        servers.push(server);
        dirs.push(dir);
    }
    let map = ShardMap::new(
        2,
        servers
            .iter()
            .enumerate()
            .map(|(i, s)| ShardSpec::new(LedgerId(i as u16 + 1), vec![s.addr().to_string()]))
            .collect(),
    )
    .unwrap();
    for dir in &dirs {
        assert!(dir.install(map.clone()));
    }

    // A routed client over the full per-shard resilience ladder.
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        call_deadline: Duration::from_secs(2),
        io_timeout: Duration::from_millis(500),
        jitter_seed: 7,
    };
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let route = stacks::sharded_full_upstream(proxy.clone(), map.clone(), retry);

    // Claim 60 photos through the router; rendezvous hashing spreads
    // them over the shards, and each shard mints ids under its own
    // ledger id — the record's address *is* its routing key.
    let kp = Keypair::from_seed(&[0x5C; 32]);
    let mut ids: Vec<RecordId> = Vec::new();
    for i in 0..60u64 {
        let claim = ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()));
        let Ok(Response::Claimed { id, .. }) = route.call(Request::Claim(claim), &CallCtx::wall())
        else {
            panic!("claim failed");
        };
        ids.push(id);
    }
    for i in 1..=SHARDS {
        let n = ids.iter().filter(|id| id.ledger == LedgerId(i)).count();
        println!("shard {i} holds {n}/60 records");
    }

    // Validate every record back through the router — exact routing by
    // the id's ledger, zero refusals.
    for id in &ids {
        assert!(matches!(
            route.call(Request::Query { id: *id }, &CallCtx::wall()),
            Ok(Response::Status { .. })
        ));
    }
    println!(
        "validated 60/60 through the router ({} wrong-shard refusals)",
        route.wrong_shards()
    );

    // A laggard with last epoch's one-shard map self-heals: its first
    // misrouted claim is refused with `WrongShard`, it refetches the
    // map from the refusing shard, and the storm converges.
    let stale = ShardMap::new(
        1,
        vec![ShardSpec::new(
            LedgerId(1),
            vec![servers[0].addr().to_string()],
        )],
    )
    .unwrap();
    let laggard = stacks::sharded_full_upstream(proxy.clone(), stale, retry);
    for i in 60..90u64 {
        let claim = ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()));
        let Ok(Response::Claimed { .. }) = laggard.call(Request::Claim(claim), &CallCtx::wall())
        else {
            panic!("laggard claim failed");
        };
    }
    println!(
        "stale-map client healed to epoch {} after {} refusal(s), {} refetch(es)",
        laggard.map().epoch(),
        laggard.wrong_shards(),
        laggard.refetches()
    );

    // Shard-aware filter refresh: shard 2's server dies, yet the other
    // shards' filters keep flowing because each shard refreshes on its
    // own thread with its own backoff.
    for server in &servers {
        server.ledger().publish_filter();
    }
    let dead = servers.remove(1);
    let dead_addr = dead.addr();
    dead.shutdown();
    let filter_proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let worker = RefreshWorker::spawn_sharded(
        filter_proxy.clone(),
        vec![
            (LedgerId(1), vec![servers[0].addr()]),
            (LedgerId(2), vec![dead_addr]),
            (LedgerId(3), vec![servers[1].addr()]),
        ],
        Duration::from_millis(50),
        RetryPolicy {
            max_attempts: 1,
            call_deadline: Duration::from_millis(200),
            io_timeout: Duration::from_millis(100),
            ..retry
        },
    );
    let held = |ledger| {
        filter_proxy
            .filters_snapshot()
            .tiered_state(LedgerId(ledger))
            != (0, 0)
    };
    while !(held(1) && held(3)) {
        std::thread::sleep(Duration::from_millis(5));
    }
    for (ledger, stats) in worker.shard_stats() {
        println!(
            "refresh shard {}: {} install(s), {} failure(s)",
            ledger.0, stats.installs, stats.failures
        );
    }
    worker.stop();

    for server in servers {
        server.shutdown();
    }
    println!("done");
}
