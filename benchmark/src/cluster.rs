//! The topology every workload runs against, built in-process on
//! loopback TCP: two durable, replicated ledger shards behind a
//! rendezvous shard map, one proxy with tiered filters pulled over the
//! wire, and the routed owner stack. Building it is `setup_s`.

use crate::rng::Rng;
use irs_core::claim::ClaimRequest;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::time::{Clock, SystemClock};
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response};
use irs_crypto::{PublicKey, Signature};
use irs_ledger::{
    ConcurrentLedger, Disk, DurabilityConfig, Follower, FsyncPolicy, LedgerConfig,
    ReplicationPolicy, SegmentData, ShardDirectory, ShardMap, ShardSpec, StdDisk,
};
use irs_net::refresh::RefreshWorker;
use irs_net::service::{stacks, CallCtx, Route, Service, ServiceExt};
use irs_net::{LedgerServer, MuxClient, ProxyServer, RetryPolicy};
use irs_proxy::{ProxyConfig, SharedProxy};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const SHARDS: u16 = 2;
/// Lock stripes per ledger.
const STRIPES: usize = 16;
/// The full-scale data set: 20 000 records a shard, of which 4 096 —
/// `TieredConfig::default().compact_at` — start revoked, so each
/// shard's first publish seals a fuse8 base and the proxy serves the
/// tiered pipeline, not a lone Bloom delta.
pub const FULL_RECORDS: usize = 40_000;
const FULL_REVOKED: usize = 8_192;
/// How often the proxy's refresh worker polls each shard.
const REFRESH_INTERVAL: Duration = Duration::from_millis(250);
/// Frames a follower asks for per poll.
const POLL_FRAMES: u32 = 64;
/// A follower that finds nothing to apply sleeps, doubling from MIN. While
/// writes are flowing (fewer than ACTIVE_POLLS empty polls since the
/// last frame, ~20 ms) the sleep is capped at ACTIVE, so an acked write
/// waits at most that long for the poll that acknowledges it; after
/// that it grows to MAX, and an idle follower polls 100 times a second:
/// < 1 % of a core in the read workloads.
const FOLLOWER_BACKOFF_MIN: Duration = Duration::from_micros(50);
const FOLLOWER_BACKOFF_ACTIVE: Duration = Duration::from_micros(200);
const FOLLOWER_BACKOFF_MAX: Duration = Duration::from_millis(10);
const FOLLOWER_ACTIVE_POLLS: u32 = 100;

/// How much data the cluster holds; everything else scales from it.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub records: usize,
}

impl Scale {
    pub fn is_full(&self) -> bool {
        self.records == FULL_RECORDS
    }

    pub fn records_per_shard(&self) -> usize {
        self.records / SHARDS as usize
    }

    pub fn revoked_per_shard(&self) -> usize {
        (self.records * FULL_REVOKED / FULL_RECORDS / SHARDS as usize).max(1)
    }

    /// The proxy's status cache holds an eighth of the revoked set.
    pub fn cache_capacity(&self) -> usize {
        (self.revoked_per_shard() * SHARDS as usize / 8).max(16)
    }

    /// The hot set of `scroll_revoked_hot`: half the cache, so it stays
    /// resident in every LRU stripe.
    pub fn hot_set(&self) -> usize {
        self.cache_capacity() / 2
    }
}

/// Wall time of each set-up phase, in seconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub preload: f64,
    pub snapshot: f64,
    pub recover: f64,
    pub follower_bootstrap: f64,
    pub publish_filter: f64,
    pub first_refresh: f64,
    pub total: f64,
}

pub fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        // Generous: a reactor worker parked on a follower ack may hold a
        // read for a few fsyncs; that must show as latency, not failure.
        call_deadline: Duration::from_secs(5),
        io_timeout: Duration::from_secs(2),
        jitter_seed: seed,
    }
}

fn tsa(seed: u64, id: LedgerId) -> TimestampAuthority {
    TimestampAuthority::from_seed(seed ^ (u64::from(id.0) << 32))
}

/// One follower: its tail thread and what that thread reports.
struct Tail {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<Result<(), String>>>,
}

/// Per-frame apply time on the followers, summed over both.
#[derive(Default)]
pub struct FollowerApply {
    pub frames: AtomicU64,
    pub nanos: AtomicU64,
}

pub struct Cluster {
    pub scale: Scale,
    pub map: ShardMap,
    pub primaries: Vec<Arc<ConcurrentLedger>>,
    pub ledger_addrs: Vec<SocketAddr>,
    pub proxy: Arc<SharedProxy>,
    pub proxy_addr: SocketAddr,
    /// The owner's routed stack, straight to the shards.
    pub owner: Arc<Route>,
    /// Ids by initial status; the expected answer of every preloaded id.
    pub clean: Vec<RecordId>,
    pub revoked: Vec<RecordId>,
    pub follower_apply: Arc<FollowerApply>,
    pub times: SetupTimes,
    running: Running,
}

/// Everything that must be stopped, joined or deleted. Created before
/// the first file is written, so an error half-way through
/// [`Cluster::build`] tears down what exists so far.
struct Running {
    root: PathBuf,
    servers: Vec<LedgerServer>,
    proxy_server: Option<ProxyServer>,
    refresh: Option<RefreshWorker>,
    tails: Vec<Tail>,
}

/// A claim the ledger will accept without the harness paying for a
/// signature: ledgers cannot check `hash_sig` (they never see the photo
/// digest), so preloaded records carry seeded random bytes.
fn unsigned_claim(rng: &mut Rng) -> ClaimRequest {
    let mut pubkey = [0u8; 32];
    let mut sig = [0u8; 64];
    rng.fill(&mut pubkey);
    rng.fill(&mut sig);
    ClaimRequest {
        pubkey: PublicKey(pubkey),
        hash_sig: Signature(sig),
    }
}

/// Seeded claims for each shard, placed by the map's rendezvous hash
/// until every shard has exactly its quota.
fn place_claims(map: &ShardMap, scale: Scale, seed: u64) -> Vec<Vec<ClaimRequest>> {
    let quota = scale.records_per_shard();
    let mut rng = Rng::new(seed ^ 0x5EED_C1A1);
    let mut placed: Vec<Vec<ClaimRequest>> = vec![Vec::with_capacity(quota); SHARDS as usize];
    while placed.iter().any(|p| p.len() < quota) {
        let claim = unsigned_claim(&mut rng);
        let shard = usize::from(map.shard_for_claim(&claim).ledger.0) - 1;
        if placed[shard].len() < quota {
            placed[shard].push(claim);
        }
    }
    placed
}

/// A preloaded shard: the ledger, still to be checkpointed, and
/// `(id, initially revoked)` per record.
type Preloaded = (ConcurrentLedger, Vec<(RecordId, bool)>);

/// Load one shard's records onto `disk` under a cheap durability policy.
fn preload_shard(
    id: LedgerId,
    seed: u64,
    disk: Arc<dyn Disk>,
    claims: &[ClaimRequest],
    revoked: usize,
) -> Result<Preloaded, String> {
    let durability = DurabilityConfig::new(disk, FsyncPolicy::OsDefault);
    let ledger =
        ConcurrentLedger::recover(LedgerConfig::new(id), tsa(seed, id), STRIPES, durability)
            .map_err(|e| format!("preload open: {e}"))?;
    let now = SystemClock.now();
    let n = claims.len();
    let mut out = Vec::with_capacity(n);
    for (j, claim) in claims.iter().enumerate() {
        // Revoked records spread evenly through the serial space.
        let is_revoked = (j * revoked) / n != ((j + 1) * revoked) / n;
        let rid = if is_revoked {
            ledger
                .claim_revoked(*claim, now)
                .map_err(|e| format!("preload claim: {e}"))?
                .0
        } else {
            match ledger.handle(Request::Claim(*claim), now) {
                Response::Claimed { id, .. } => id,
                other => return Err(format!("preload claim refused: {other:?}")),
            }
        };
        out.push((rid, is_revoked));
    }
    Ok((ledger, out))
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(10)
}

/// Tail a primary's WAL into `follower` until told to stop. Harness
/// code, as in E20: the product ships the follower, not its poll loop.
fn tail_loop(
    mux: MuxClient,
    mut follower: Follower,
    stop: Arc<AtomicBool>,
    apply: Arc<FollowerApply>,
) -> Result<(), String> {
    let mut backoff = FOLLOWER_BACKOFF_MIN;
    // Empty polls since the last frame; a fresh follower starts idle.
    let mut idle_polls: u32 = FOLLOWER_ACTIVE_POLLS;
    while !stop.load(Ordering::SeqCst) {
        let request = Request::WalSubscribe {
            from_seq: follower.next_seq(),
            max_frames: POLL_FRAMES,
        };
        let segment = match mux.call(&request, far()) {
            Ok(Response::WalSegment {
                first_seq,
                durable_seq,
                log_start_seq,
                frames,
            }) => SegmentData {
                first_seq,
                durable_seq,
                log_start_seq,
                frames,
            },
            Ok(other) => return Err(format!("follower poll answered {other:?}")),
            Err(e) => return Err(format!("follower poll failed: {e}")),
        };
        let start = Instant::now();
        let applied = follower
            .apply_segment(&segment)
            .map_err(|e| format!("follower apply: {e}"))?;
        if applied == 0 {
            std::thread::sleep(backoff);
            idle_polls = idle_polls.saturating_add(1);
            let cap = if idle_polls < FOLLOWER_ACTIVE_POLLS {
                FOLLOWER_BACKOFF_ACTIVE
            } else {
                FOLLOWER_BACKOFF_MAX
            };
            backoff = (backoff * 2).min(cap);
        } else {
            apply.frames.fetch_add(applied as u64, Ordering::Relaxed);
            apply
                .nanos
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            backoff = FOLLOWER_BACKOFF_MIN;
            idle_polls = 0;
        }
    }
    Ok(())
}

impl Cluster {
    /// Build the whole topology under `root` (a fresh directory this
    /// cluster owns and removes). Phases, in order: preload + checkpoint
    /// under a cheap fsync policy → recover under `Always` +
    /// `WaitForFollower` and serve → bootstrap the followers and start
    /// their tail threads → publish filters → proxy up, first refresh
    /// installed.
    pub fn build(root: &Path, scale: Scale, seed: u64) -> Result<Cluster, String> {
        let total = Instant::now();
        let mut times = SetupTimes::default();
        let mut running = Running {
            root: root.to_path_buf(),
            servers: Vec::new(),
            proxy_server: None,
            refresh: None,
            tails: Vec::new(),
        };
        std::fs::create_dir_all(root).map_err(|e| format!("create {}: {e}", root.display()))?;
        let disk = |name: &str| -> Result<Arc<dyn Disk>, String> {
            Ok(Arc::new(
                StdDisk::new(root.join(name)).map_err(|e| format!("disk {name}: {e}"))?,
            ))
        };

        // Placement needs only ledger ids; addresses arrive at epoch 2.
        let ids: Vec<LedgerId> = (1..=SHARDS).map(LedgerId).collect();
        let provisional = ShardMap::new(
            1,
            ids.iter()
                .map(|&id| ShardSpec::new(id, Vec::new()))
                .collect(),
        )
        .map_err(|e| e.to_string())?;

        let start = Instant::now();
        let claims = place_claims(&provisional, scale, seed);
        let primary_disks: Vec<Arc<dyn Disk>> = ids
            .iter()
            .map(|id| disk(&format!("primary-{}", id.0)))
            .collect::<Result<_, _>>()?;
        let loaded: Vec<Result<Preloaded, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = ids
                .iter()
                .zip(&primary_disks)
                .zip(&claims)
                .map(|((&id, disk), claims)| {
                    let disk = disk.clone();
                    scope.spawn(move || {
                        preload_shard(id, seed, disk, claims, scale.revoked_per_shard())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("preload thread panicked".into()))
                })
                .collect()
        });
        times.preload = start.elapsed().as_secs_f64();
        let mut clean = Vec::new();
        let mut revoked = Vec::new();
        for shard in loaded {
            let (ledger, records) = shard?;
            // One checkpoint at a time: two 6 MiB images in memory at
            // once would make peak memory depend on thread timing.
            let start = Instant::now();
            ledger
                .snapshot_now()
                .map_err(|e| format!("preload snapshot: {e}"))?;
            times.snapshot += start.elapsed().as_secs_f64();
            drop(ledger);
            for (id, is_revoked) in records {
                if is_revoked {
                    revoked.push(id);
                } else {
                    clean.push(id);
                }
            }
        }

        // The production restart path: recover what the disk holds.
        let start = Instant::now();
        let mut primaries = Vec::new();
        let mut ledger_addrs = Vec::new();
        let mut dirs = Vec::new();
        for (&id, disk) in ids.iter().zip(&primary_disks) {
            let mut durability = DurabilityConfig::new(disk.clone(), FsyncPolicy::Always);
            durability.replication = ReplicationPolicy::WaitForFollower { timeout_ms: 5_000 };
            let ledger = ConcurrentLedger::recover(
                LedgerConfig::new(id),
                tsa(seed, id),
                STRIPES,
                durability,
            )
            .map_err(|e| format!("recover shard {}: {e}", id.0))?;
            let ledger = Arc::new(ledger);
            let dir = Arc::new(ShardDirectory::for_shard(id, provisional.clone()));
            let server = LedgerServer::start_sharded(ledger.clone(), "127.0.0.1:0", dir.clone())
                .map_err(|e| format!("serve shard {}: {e}", id.0))?;
            ledger_addrs.push(server.addr());
            primaries.push(ledger);
            running.servers.push(server);
            dirs.push(dir);
        }
        times.recover = start.elapsed().as_secs_f64();
        let map = ShardMap::new(
            2,
            ids.iter()
                .zip(&ledger_addrs)
                .map(|(&id, addr)| ShardSpec::new(id, vec![addr.to_string()]))
                .collect(),
        )
        .map_err(|e| e.to_string())?;
        for dir in &dirs {
            dir.install(map.clone());
        }

        // Each follower's connection is the first its primary accepts
        // and the owner's the second, so with the reactor's round-robin
        // hand-out a write parked on a follower ack never shares a
        // worker with the poll that delivers that ack.
        //
        // The bootstrap snapshot is handed over in-process, not fetched
        // with `FetchSnapshot`: the reactor caps *responses* at the
        // 2 MiB request-frame limit and drops the connection above it,
        // and a 20 000-record snapshot is ~6 MiB. Tailing is over TCP.
        let start = Instant::now();
        let follower_apply = Arc::new(FollowerApply::default());
        for ((&id, &addr), primary) in ids.iter().zip(&ledger_addrs).zip(&primaries) {
            let mux = MuxClient::connect(addr).map_err(|e| format!("follower dial: {e}"))?;
            let (seq, data) = primary
                .replication_snapshot()
                .map_err(|e| format!("replication snapshot: {e}"))?;
            let durability =
                DurabilityConfig::new(disk(&format!("follower-{}", id.0))?, FsyncPolicy::Always);
            let follower = Follower::bootstrap(
                LedgerConfig::new(id),
                tsa(seed, id),
                STRIPES,
                durability,
                seq,
                &data,
            )
            .map_err(|e| format!("follower bootstrap: {e}"))?;
            let stop = Arc::new(AtomicBool::new(false));
            let handle = {
                let stop = stop.clone();
                let apply = follower_apply.clone();
                std::thread::Builder::new()
                    .name(format!("follower-{}", id.0))
                    .spawn(move || tail_loop(mux, follower, stop, apply))
                    .map_err(|e| format!("spawn follower: {e}"))?
            };
            running.tails.push(Tail {
                stop,
                handle: Some(handle),
            });
        }
        times.follower_bootstrap = start.elapsed().as_secs_f64();

        let owner = Arc::new(stacks::sharded_full_upstream(
            Arc::new(SharedProxy::new(ProxyConfig::default())),
            map.clone(),
            retry_policy(seed),
        ));
        // `revoked` is grouped by shard: its ends sit on different shards.
        for probe in [revoked[0], revoked[revoked.len() - 1]] {
            match owner.call(Request::Query { id: probe }, &CallCtx::wall()) {
                Ok(Response::Status { .. }) => {}
                other => return Err(format!("owner route probe: {other:?}")),
            }
        }

        let start = Instant::now();
        for ledger in &primaries {
            ledger.publish_filter();
        }
        times.publish_filter = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let proxy = Arc::new(SharedProxy::new(ProxyConfig {
            cache_capacity: scale.cache_capacity(),
            cache_ttl_ms: 3_600_000,
        }));
        let stack = stacks::sharded_full_upstream(proxy.clone(), map.clone(), retry_policy(seed));
        let proxy_server =
            ProxyServer::start_with_stack(proxy.clone(), "127.0.0.1:0", stack.boxed())
                .map_err(|e| format!("serve proxy: {e}"))?;
        let proxy_addr = proxy_server.addr();
        running.proxy_server = Some(proxy_server);
        running.refresh = Some(RefreshWorker::spawn_sharded(
            proxy.clone(),
            ids.iter()
                .zip(&ledger_addrs)
                .map(|(&id, &addr)| (id, vec![addr]))
                .collect(),
            REFRESH_INTERVAL,
            retry_policy(seed),
        ));
        let mut cluster = Cluster {
            scale,
            map,
            primaries,
            ledger_addrs,
            proxy,
            proxy_addr,
            owner,
            clean,
            revoked,
            follower_apply,
            times,
            running,
        };
        cluster.wait_filters_current(Duration::from_secs(10))?;
        cluster.times.first_refresh = start.elapsed().as_secs_f64();
        cluster.times.total = total.elapsed().as_secs_f64();
        Ok(cluster)
    }

    /// Block until the proxy holds each shard's latest tiered
    /// publication (the refresh worker polls every 250 ms).
    pub fn wait_filters_current(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while !self.filters_current() {
            if Instant::now() > deadline {
                return Err(format!("filter refresh did not arrive within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    /// Whether the proxy holds each shard's latest tiered publication.
    pub fn filters_current(&self) -> bool {
        let held = self.proxy.filters_snapshot();
        self.primaries.iter().all(|ledger| {
            let published = ledger.tiered_snapshot();
            held.tiered_state(ledger.id()) == (published.epoch(), published.delta_version())
                && ledger.filter_version() > 0
        })
    }

    /// Stop everything and remove the data directory. Also runs on drop,
    /// so every exit path leaves nothing behind; calling it reports what
    /// the follower threads ended with.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.running.teardown()
    }
}

impl Running {
    fn teardown(&mut self) -> Result<(), String> {
        let mut result = Ok(());
        if let Some(refresh) = self.refresh.take() {
            refresh.stop();
        }
        if let Some(server) = self.proxy_server.take() {
            server.shutdown();
        }
        for tail in &mut self.tails {
            tail.stop.store(true, Ordering::SeqCst);
            if let Some(handle) = tail.handle.take() {
                match handle.join() {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => result = Err(e),
                    Err(_) => result = Err("follower thread panicked".into()),
                }
            }
        }
        for server in self.servers.drain(..) {
            server.shutdown();
        }
        if self.root.exists() {
            if let Err(e) = std::fs::remove_dir_all(&self.root) {
                result = Err(format!("remove {}: {e}", self.root.display()));
            }
        }
        result
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        let _ = self.teardown();
    }
}
