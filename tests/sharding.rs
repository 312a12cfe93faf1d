//! The WrongShard self-healing protocol over live sockets (DESIGN.md
//! §15): a client holding a stale shard map storms a grown cluster,
//! every misrouted request is refused with `WrongShard { epoch }`, the
//! router refetches the map from the refusing shard, and the whole
//! storm converges — without a single breaker trip, because a shard
//! *refusing* a key it does not own is a healthy shard doing its job.

use std::sync::Arc;
use std::time::Duration;

use irs::crypto::{Digest, Keypair};
use irs::ledger::{Ledger, LedgerConfig, ShardDirectory, ShardMap, ShardSpec};
use irs::net::service::{stacks, CallCtx, Service, TcpTransport};
use irs::net::LedgerServer;
use irs::net::RetryPolicy;
use irs::protocol::claim::ClaimRequest;
use irs::protocol::ids::LedgerId;
use irs::protocol::tsa::TimestampAuthority;
use irs::protocol::wire::{Request, Response};
use irs::proxy::health::BreakerState;
use irs::proxy::{ProxyConfig, SharedProxy};

/// Boot a two-shard cluster. Each server starts under a provisional
/// epoch-1 self-map (it must know its own identity before its peers'
/// addresses exist), then both install the real epoch-2 map once every
/// address is known — the sequence a rollout actually follows.
fn two_shard_cluster() -> (LedgerServer, LedgerServer, ShardMap) {
    let dirs: Vec<Arc<ShardDirectory>> = [LedgerId(1), LedgerId(2)]
        .into_iter()
        .map(|id| {
            let provisional = ShardMap::new(1, vec![ShardSpec::new(id, Vec::new())]).unwrap();
            Arc::new(ShardDirectory::for_shard(id, provisional))
        })
        .collect();
    let servers: Vec<LedgerServer> = dirs
        .iter()
        .enumerate()
        .map(|(i, dir)| {
            let ledger = Arc::new(Ledger::new(
                LedgerConfig::new(LedgerId(i as u16 + 1)),
                TimestampAuthority::from_seed(0x515 + i as u64),
            ));
            LedgerServer::start_sharded(ledger, "127.0.0.1:0", dir.clone()).unwrap()
        })
        .collect();
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
        assert!(dir.install(map.clone()), "epoch 2 must supersede epoch 1");
    }
    let mut it = servers.into_iter();
    (it.next().unwrap(), it.next().unwrap(), map)
}

fn retry(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        call_deadline: Duration::from_secs(2),
        io_timeout: Duration::from_millis(500),
        jitter_seed: seed,
    }
}

/// The storm: a router still holding the epoch-1 world (one shard, all
/// keys) fires a burst of claims at a cluster that has since grown to
/// two shards. The first misrouted claim is refused, the router heals
/// from the refusal, and everything — including the rest of the storm
/// and the follow-up validates — lands on the right shards.
#[test]
fn stale_epoch_storm_heals_on_first_refusal_without_breaker_trips() {
    let (s1, s2, real_map) = two_shard_cluster();

    // The stale world: epoch 1, shard 1 only — every key routes there.
    let stale = ShardMap::new(
        1,
        vec![ShardSpec::new(LedgerId(1), vec![s1.addr().to_string()])],
    )
    .unwrap();
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let route = stacks::sharded_full_upstream(proxy.clone(), stale, retry(0x515));

    // Make sure the storm genuinely exercises misrouting: under the
    // real map a fair share of these claims belong to shard 2.
    let kp = Keypair::from_seed(&[0x51; 32]);
    let claims: Vec<ClaimRequest> = (0..32u64)
        .map(|i| ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes())))
        .collect();
    let misrouted = claims
        .iter()
        .filter(|c| real_map.shard_for_claim(c).ledger == LedgerId(2))
        .count();
    assert!(
        misrouted > 0,
        "workload never leaves shard 1; storm is vacuous"
    );

    let mut ids = Vec::new();
    for claim in &claims {
        match route.call(Request::Claim(*claim), &CallCtx::wall()) {
            Ok(Response::Claimed { id, .. }) => ids.push(id),
            other => panic!("storm claim failed instead of healing: {other:?}"),
        }
    }

    // The router healed: it saw refusals, refetched, and now holds the
    // servers' epoch — and the shards minted under their own ids.
    assert!(route.wrong_shards() >= 1, "no refusal ever happened");
    assert!(route.refetches() >= 1, "router never refetched the map");
    assert_eq!(route.installs(), 1, "exactly one newer map to install");
    assert_eq!(route.map().epoch(), 2);
    assert_eq!(
        ids.iter().filter(|id| id.ledger == LedgerId(2)).count(),
        misrouted,
        "every claim the real map places on shard 2 must be minted there"
    );

    // Validates through the healed router: exact routing, no refusals.
    let refusals_after_storm = route.wrong_shards();
    for id in &ids {
        match route.call(Request::Query { id: *id }, &CallCtx::wall()) {
            Ok(Response::Status { .. }) => {}
            other => panic!("validate after heal failed: {other:?}"),
        }
    }
    assert_eq!(
        route.wrong_shards(),
        refusals_after_storm,
        "healed router must not be refused again"
    );

    // A refusal is an *answer*, not an outage: both shards' breakers
    // stayed closed through the whole storm.
    assert_eq!(proxy.breaker(LedgerId(1)).state(), BreakerState::Closed);
    assert_eq!(proxy.breaker(LedgerId(2)).state(), BreakerState::Closed);

    // The servers counted the refusals they issued.
    let refused_by_s1 = s1
        .ledger()
        .metrics()
        .counter("irs_ledger_wrong_shard_total")
        .get();
    assert!(refused_by_s1 >= 1, "shard 1 never refused a misrouted key");

    s1.shutdown();
    s2.shutdown();
}

/// A current-epoch client never sees a refusal, and `GetShardMap` over
/// the wire returns the exact installed map.
#[test]
fn current_epoch_client_routes_cleanly_and_reads_the_map_over_the_wire() {
    let (s1, s2, map) = two_shard_cluster();

    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let route = stacks::sharded_full_upstream(proxy, map.clone(), retry(0x516));
    let kp = Keypair::from_seed(&[0x52; 32]);
    for i in 0..16u64 {
        let claim = ClaimRequest::create(&kp, &Digest::of(&i.to_le_bytes()));
        match route.call(Request::Claim(claim), &CallCtx::wall()) {
            Ok(Response::Claimed { .. }) => {}
            other => panic!("claim failed: {other:?}"),
        }
    }
    assert_eq!(route.wrong_shards(), 0);

    // Raw wire read of the directory from either shard.
    let client = TcpTransport::new(s2.addr(), std::time::Duration::from_secs(5));
    let Ok(Response::ShardMap { epoch, data }) =
        client.call(Request::GetShardMap, &CallCtx::wall())
    else {
        panic!("GetShardMap failed over the wire");
    };
    assert_eq!(epoch, 2);
    let fetched = ShardMap::from_bytes(&data).unwrap();
    assert_eq!(fetched.epoch(), map.epoch());
    assert_eq!(fetched.shards(), map.shards());

    s1.shutdown();
    s2.shutdown();
}
