//! A group changes timing, not answers (DESIGN.md §10): twin stacks with
//! identical state, one driven with `call_all(reqs)`, the other with
//! `reqs.map(call)`, must end up indistinguishable — plus the failure
//! shapes a group can take that a single call cannot.

use super::*;
use irs_core::claim::RevocationStatus::{NotRevoked, Revoked};
use irs_core::ids::{LedgerId, RecordId};
use irs_filters::hash::mix64;
use irs_filters::Publication;
use irs_ledger::placement::{ShardMap, ShardSpec};
use irs_proxy::health::BreakerState::{self, Closed, Open};
use irs_proxy::{ProxyConfig, SharedProxy};
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::Mutex;

type Replies = Vec<Result<Response, NetError>>;

fn seed() -> u64 {
    let var = std::env::var("CHAOS_SEED").ok();
    var.and_then(|s| s.parse().ok()).unwrap_or(42)
}

fn rid(ledger: u16, serial: u64) -> RecordId {
    RecordId::new(LedgerId(ledger), serial)
}

fn queries(ids: &[RecordId]) -> Vec<Request> {
    ids.iter().map(|&id| Request::Query { id }).collect()
}

fn map(epoch: u64) -> ShardMap {
    let spec = |l: u16| ShardSpec::new(LedgerId(l), vec![format!("10.0.0.{l}:1")]);
    ShardMap::new(epoch, vec![spec(1), spec(2)]).unwrap()
}

/// Serials below this are in the filter; the rest are filter-negative.
const HOT: u64 = 200;

/// A proxy (TTL 50 ms) whose filter holds the `HOT` serials of both ledgers.
fn proxy() -> Arc<SharedProxy> {
    let proxy = Arc::new(SharedProxy::new(ProxyConfig {
        cache_ttl_ms: 50,
        ..ProxyConfig::default()
    }));
    let mut filter = irs_filters::BloomFilter::with_params(1 << 16, 6, 0).unwrap();
    for id in (1..=2).flat_map(|l| (0..HOT).map(move |s| rid(l, s))) {
        filter.insert(id.filter_key());
    }
    for ledger in [1, 2] {
        let update = Publication::full(1, filter.to_bytes());
        let applied = proxy.update_filters(|f| f.apply(LedgerId(ledger), update));
        applied.unwrap();
    }
    proxy
}

fn breaker(proxy: &SharedProxy, ledger: u16) -> BreakerState {
    proxy.breaker(LedgerId(ledger)).state()
}

/// An in-process replica, and what a test reads back from it.
struct Shard {
    /// The map epoch the shard serves (bumped by the test) and the one
    /// its router last fetched: until that catches up, serials divisible
    /// by 97 are refused `WrongShard` — the stale-map case.
    epoch: AtomicU64,
    told: AtomicU64,
    /// Requests it still answers before it dies.
    lives: AtomicU64,
    /// How long a group's answers take to arrive, however many requests
    /// it carries.
    delay_ms: u64,
    /// Size of every group it was sent; bare `call`s counted apart.
    groups: Mutex<Vec<usize>>,
    calls: AtomicU64,
}

fn shard(lives: u64, delay_ms: u64) -> Arc<Shard> {
    let (epoch, told, calls) = Default::default();
    let (lives, groups) = (AtomicU64::new(lives), Default::default());
    Arc::new(Shard {
        epoch,
        told,
        lives,
        delay_ms,
        groups,
        calls,
    })
}

impl Shard {
    fn answer(&self, req: Request) -> Result<Response, NetError> {
        let alive = |lives| (lives > 0).then(|| lives - 1);
        if self.lives.fetch_update(SeqCst, SeqCst, alive).is_err() {
            return Err(NetError::ConnectionLost);
        }
        let epoch = self.epoch.load(SeqCst);
        Ok(match req {
            Request::GetShardMap => {
                self.told.store(epoch, SeqCst);
                let data = map(epoch).to_bytes().into();
                Response::ShardMap { epoch, data }
            }
            Request::Query { id } if id.serial % 97 == 0 && self.told.load(SeqCst) < epoch => {
                Response::WrongShard { epoch }
            }
            Request::Query { id } if id.serial % 7 == 0 => Response::Error {
                code: irs_ledger::codes::UNKNOWN_RECORD,
                message: "unknown record".into(),
            },
            Request::Query { id } => Response::Status {
                id,
                status: [Revoked, NotRevoked][(id.serial % 2) as usize],
                epoch: 3,
            },
            _ => Response::Pong,
        })
    }
}

impl Service for Arc<Shard> {
    fn call(&self, req: Request, _ctx: &CallCtx) -> Result<Response, NetError> {
        self.calls.fetch_add(1, SeqCst);
        self.answer(req)
    }
    /// The way the wire does it: the answers are decided when the group
    /// is sent and arrive `delay_ms` later, however late they are waited.
    fn start_all(&self, reqs: Vec<Request>, _ctx: &CallCtx) -> Pending<'_> {
        let arrival = Instant::now() + Duration::from_millis(self.delay_ms);
        self.groups.lock().unwrap().push(reqs.len());
        let answers: Replies = reqs.into_iter().map(|req| self.answer(req)).collect();
        Pending::Later(Box::new(move || {
            std::thread::sleep(arrival.saturating_duration_since(Instant::now()));
            answers
        }))
    }
}

/// One side of the twin: the `sharded_full_upstream` composition —
/// `Route` over `full_over` — on one in-process replica per shard.
struct Side {
    proxy: Arc<SharedProxy>,
    shards: [Arc<Shard>; 2],
    route: Route,
}

fn side(delay_ms: u64) -> Side {
    let proxy = proxy();
    let shards = [1, 2].map(|_| shard(u64::MAX, delay_ms));
    let (shared, built) = (proxy.clone(), shards.clone());
    let retry = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        ..RetryPolicy::fast(seed())
    };
    let route = Route::new(map(0), move |spec| {
        let replica = built[spec.ledger.0 as usize - 1].clone();
        stacks::full_over(shared.clone(), vec![replica], retry)
    });
    Side {
        proxy,
        shards,
        route,
    }
}

/// Send `reqs` to one side as a group and to its twin one by one: the
/// answers must match. Returns them.
fn twin_step(grouped: &Side, serial: &Side, reqs: Vec<Request>, now: u64) -> Replies {
    let ctx = CallCtx::at(TimeMs(now));
    let one_by_one = |r: &Request| serial.route.call(r.clone(), &ctx);
    let one_by_one: Replies = reqs.iter().map(one_by_one).collect();
    let together = grouped.route.call_all(reqs, &ctx);
    assert_eq!(format!("{together:?}"), format!("{one_by_one:?}"), "{now}");
    together
}

/// A duplicate-free group of up to 16 queries over both ledgers: hot and
/// filter-negative serials, at most one stale-map id (a serial path sees
/// one refusal before it heals; a group would count each).
fn mix(rng: &mut u64) -> Vec<Request> {
    let mut next = || {
        *rng = mix64(*rng);
        *rng
    };
    let mut ids: Vec<RecordId> = Vec::new();
    for _ in 0..1 + next() % 16 {
        let id = rid(1 + (next() % 2) as u16, next() % (HOT + 100));
        let stale = |id: &RecordId| id.serial % 97 == 0;
        let second_stale = stale(&id) && ids.iter().any(stale);
        if !second_stale && !ids.contains(&id) {
            ids.push(id);
        }
    }
    queries(&ids)
}

/// Everything the twins must agree on after a run.
fn observable(side: &Side, now: TimeMs) -> String {
    let universe = (1..=2).flat_map(|l| (0..HOT + 100).map(move |s| rid(l, s)));
    let cached: Vec<_> = universe
        .filter_map(|id| side.proxy.lookup_stale(id, now).map(|hit| (id, hit)))
        .collect();
    let breakers = [1, 2].map(|l| breaker(&side.proxy, l));
    let (stats, route) = (side.proxy.stats(), &side.route);
    let route = (route.wrong_shards(), route.refetches(), route.installs());
    format!("{stats:?} {cached:?} {breakers:?} {route:?}")
}

#[test]
fn group_equals_serial_on_a_thousand_seeded_healthy_mixes() {
    let (grouped, serial) = (side(0), side(0));
    let mut rng = seed();
    for round in 0..1_000u64 {
        if round % 100 == 50 {
            // Both sides' maps go stale at the same point in the history.
            for shard in grouped.shards.iter().chain(&serial.shards) {
                shard.epoch.fetch_add(1, SeqCst);
            }
        }
        twin_step(&grouped, &serial, mix(&mut rng), round);
    }
    let now = TimeMs(1_000);
    assert_eq!(observable(&grouped, now), observable(&serial, now));
    let stats = grouped.proxy.stats();
    assert!(stats.cache_hits > 0 && stats.filter_negative > 0 && stats.ledger_queries > 0);
    assert!(grouped.route.installs() >= 9, "stale-map case never ran");
}

/// With a dead shard the twins may differ only in attempts burned before
/// the breaker opened — a group is admitted before its first verdict
/// lands — never in the kind of answer any id gets.
#[test]
fn group_and_serial_degrade_alike_on_a_dead_shard() {
    let (grouped, serial) = (side(0), side(0));
    for side in [&grouped, &serial] {
        side.shards[1].lives.store(0, SeqCst);
        // Last-good answers for three of shard 2's ids, long expired.
        for id in [1, 3, 5].map(|s| rid(2, s)) {
            side.proxy.complete(id, Revoked, TimeMs(0));
        }
    }
    let ids: Vec<_> = (1..=16).map(|s| rid(1 + (s % 2) as u16, s)).collect();
    // `StatusStale` ages and `Unavailable` staleness agree too: both
    // sides share one clock reading.
    let answers = twin_step(&grouped, &serial, queries(&ids), 500);
    let count = |kind: fn(&Response) -> bool| {
        let ok = answers.iter().flatten();
        ok.filter(|r| kind(r)).count()
    };
    assert_eq!(count(|r| matches!(r, Response::StatusStale { .. })), 3);
    assert_eq!(count(|r| matches!(r, Response::Unavailable { .. })), 5);
    for side in [&grouped, &serial] {
        assert_eq!([1, 2].map(|l| breaker(&side.proxy, l)), [Closed, Open]);
        // Shard 1's seven fresh statuses (1:14 is an unknown record)
        // plus the three seeded: nothing from the dead shard was
        // written back.
        assert_eq!(side.proxy.cache_len(), 7 + 3);
    }
    // All eight were admitted and retried together; one by one the
    // breaker opened after five failed calls of two attempts each: a
    // bare first attempt, then the unanswered one resent as a group.
    assert_eq!(*grouped.shards[1].groups.lock().unwrap(), [8, 8]);
    assert_eq!(*serial.shards[1].groups.lock().unwrap(), [1; 5]);
    assert_eq!(serial.shards[1].calls.load(SeqCst), 5);
}

#[test]
fn duplicates_each_get_their_status_and_a_page_is_one_group_per_shard() {
    let side = side(0);
    let ctx = CallCtx::at(TimeMs(1));
    let dup = [rid(1, 1), rid(1, 1), rid(2, 2), rid(1, 1)];
    for (asked, answer) in dup.iter().zip(side.route.call_all(queries(&dup), &ctx)) {
        assert!(matches!(answer, Ok(Response::Status { id, .. }) if id == *asked));
    }
    // Sixteen cold ids across both shards reach the bottom as exactly
    // one `call_all` each — the blanket impls (`Box`, `Arc`, `&`) forward
    // the group; a missing forward would show as sixteen groups of one.
    let page: Vec<_> = (10..26).map(|s| rid(1 + (s % 2) as u16, s)).collect();
    let answers = side.route.call_all(queries(&page), &ctx);
    assert!(answers.iter().all(Result::is_ok));
    for (shard, dups) in side.shards.iter().zip([3, 1]) {
        assert_eq!(*shard.groups.lock().unwrap(), [dups, 8]);
        assert_eq!(shard.calls.load(SeqCst), 0);
    }
}

/// The primary dies five answers into a sixteen-query page: `Failover`
/// rotates once for the failed attempt, `Retry` resends only the eleven
/// unanswered, and every frame gets its `Status`, in order.
#[test]
fn group_survives_a_replica_dying_mid_page() {
    let proxy = proxy();
    let (primary, follower) = (shard(5, 0), shard(u64::MAX, 0));
    let replicas = Failover::new(vec![primary.clone(), follower.clone()]);
    let retry = Arc::new(replicas.layered(RetryLayer::new(RetryPolicy::fast(seed()))));
    let ladder = Arc::clone(&retry)
        .layered(BreakerLayer::new(proxy.clone()))
        .layered(StaleServeLayer::new(proxy.clone()))
        .layered(CacheLayer::new(proxy.clone()));
    // Odd serials that are no multiple of 7: sixteen plain `NotRevoked`.
    let odd = (1..60).step_by(2).filter(|s| s % 7 != 0);
    let ids: Vec<_> = odd.take(16).map(|s| rid(1, s)).collect();
    let answers = ladder.call_all(queries(&ids), &CallCtx::at(TimeMs(1)));
    for (asked, answer) in ids.iter().zip(answers) {
        assert!(matches!(answer, Ok(Response::Status { id, .. }) if id == *asked));
    }
    assert_eq!(*primary.groups.lock().unwrap(), [16]);
    assert_eq!(*follower.groups.lock().unwrap(), [11]);
    assert_eq!(retry.get_ref().failovers(), 1, "one per failed attempt");
    let counters = retry.counters();
    let counters = (counters.attempts, counters.retries, counters.exhausted);
    assert_eq!(counters, (16 + 11, 11, 0));
    assert_eq!((breaker(&proxy, 1), proxy.cache_len()), (Closed, 16));
}

/// A half-open breaker admits one probe from a group and serves the rest
/// stale; the probe's success closes it for the next group.
#[test]
fn group_at_a_half_open_breaker_sends_one_probe_and_serves_the_rest_stale() {
    let side = side(0);
    let ids = [1, 3, 5, 9].map(|s| rid(2, s));
    for id in ids {
        side.proxy.complete(id, Revoked, TimeMs(0));
    }
    for _ in 0..5 {
        side.proxy.record_upstream(LedgerId(2), false, TimeMs(100));
    }
    assert_eq!(breaker(&side.proxy, 2), Open);
    // Past the 1 s cooldown (and the 50 ms TTL): one probe goes through.
    let ctx = CallCtx::at(TimeMs(2_000));
    let answers = side.route.call_all(queries(&ids), &ctx);
    let fresh = |a: &Result<Response, NetError>| matches!(a, Ok(Response::Status { .. }));
    let stale = |a| matches!(a, &Ok(Response::StatusStale { age_ms: 2_000, .. }));
    assert!(fresh(&answers[0]) && answers[1..].iter().all(stale));
    assert_eq!(breaker(&side.proxy, 2), Closed);
    let ctx = CallCtx::at(TimeMs(2_100));
    assert!(side.route.call_all(queries(&ids), &ctx).iter().all(fresh));
    assert_eq!(*side.shards[1].groups.lock().unwrap(), [1, 4]);
}

/// Two shards that each take 50 ms to answer a group answer a page that
/// spans both in one 50 ms wait, not two back to back. Traced, each
/// shard's ladder records one span per layer, and all of them — the two
/// chains overlapping in time — fall inside the router's.
#[test]
fn a_two_shard_group_costs_one_shard_delay_not_two() {
    let side = side(50);
    let rec = irs_obs::SpanRecorder::new();
    let ids: Vec<_> = (1..=16).map(|s| rid(1 + (s % 2) as u16, s)).collect();
    let started = Instant::now();
    let ctx = CallCtx::at(TimeMs(1)).with_trace(rec.clone());
    let answers = side.route.call_all(queries(&ids), &ctx);
    let took = started.elapsed();
    assert!(answers.iter().all(Result::is_ok), "{answers:?}");
    // Back to back: 100 ms. Overlapped: 50 ms, with room for a loaded
    // one-core CI host.
    assert!(took < Duration::from_millis(90), "{took:?}");
    let spans = rec.spans();
    let (route, named) = (&spans[0], |name| {
        spans.iter().filter(|s| s.name == name).count()
    });
    assert_eq!((route.name, named("route")), ("route", 1));
    for layer in ["cache", "stale", "breaker", "retry", "failover"] {
        assert_eq!(named(layer), 2, "{layer}: one span per shard\n{spans:?}");
    }
    let inside = |s: &&irs_obs::Span| route.start_ns <= s.start_ns && s.end_ns <= route.end_ns;
    assert!(spans.iter().all(|s| inside(&s)), "{spans:?}");
}

/// Shard 1 has nobody listening and burns `RetryPolicy::fast`'s backoff
/// while shard 2, a live ledger, has long answered: the group is collected
/// after shard 2's transport deadline, and its answers are still fresh —
/// an answer that arrived in time is not expired by being collected late.
/// A started group dropped unwaited leaves the connection aligned.
#[test]
fn a_group_collected_after_its_transport_deadline_keeps_the_answers_that_arrived() {
    use irs_crypto::{Digest, Keypair};
    let ledger = irs_ledger::Ledger::new(
        irs_ledger::LedgerConfig::new(LedgerId(2)),
        irs_core::tsa::TimestampAuthority::from_seed(5),
    );
    let claimed = (0..3u8).map(|n| {
        let claim = (Keypair::from_seed(&[n; 32]), Digest::of(&[n]));
        let claim = irs_core::claim::ClaimRequest::create(&claim.0, &claim.1);
        match ledger.handle(Request::Claim(claim), TimeMs(0)) {
            Response::Claimed { id, .. } => id,
            other => panic!("claim failed: {other:?}"),
        }
    });
    let claimed: Vec<_> = claimed.collect();
    let live = crate::LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let spec = |l, addr: std::net::SocketAddr| ShardSpec::new(LedgerId(l), vec![addr.to_string()]);
    let dead = spec(1, dead.local_addr().unwrap()); // the listener drops here
    let map = ShardMap::new(1, vec![dead, spec(2, live.addr())]).unwrap();
    let io_timeout = Duration::from_millis(30);
    let retry = RetryPolicy {
        io_timeout,
        ..RetryPolicy::fast(seed())
    };
    let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
    let route = stacks::sharded_full_upstream(proxy, map, retry);

    // The dead shard first: its retry loop runs before shard 2 is waited.
    let ids = [rid(1, 1), claimed[0], rid(1, 2), claimed[1], claimed[2]];
    let started = Instant::now();
    let answers = route.call_all(queries(&ids), &CallCtx::wall());
    assert!(started.elapsed() > io_timeout, "collected in time");
    for (asked, answer) in ids.iter().zip(&answers) {
        let fresh =
            matches!(answer, Ok(Response::Status { id, status: NotRevoked, .. }) if id == asked);
        let unavailable = matches!(answer, Ok(Response::Unavailable { .. }));
        assert!(
            [unavailable, fresh][asked.ledger.0 as usize - 1],
            "{answer:?}"
        );
    }
    assert_eq!(live.ledger().stats().queries, 3, "no resend: all in time");

    // Started, dropped unwaited: its answer is consumed and discarded, and
    // the next call on the same connection gets its own.
    let transport = crate::service::transport::testing::connect(live.addr());
    let ctx = CallCtx::wall();
    drop(transport.start_all(queries(&claimed[..1]), &ctx));
    let answer = transport.call(Request::Query { id: claimed[2] }, &ctx);
    assert_eq!(answer.unwrap().query_id(), Some(claimed[2]));
    live.shutdown();
}

/// An upstream whose shards take 50 ms per group answers a 16-query page
/// through a real `ProxyServer` in one overlapped exchange, not sixteen
/// (or two back to back).
#[test]
fn burst_of_sixteen_misses_overlaps_through_a_real_proxy_server() {
    use crate::codec::{BytesBuf, FrameCodec, Framed, MAX_FRAME};
    use irs_core::wire::Wire;
    use std::io::Write;
    let Side { proxy, route, .. } = side(50);
    let server = crate::ProxyServer::start_with_stack(proxy, "127.0.0.1:0", route.boxed());
    let server = server.unwrap();
    let ids: Vec<_> = (1..=16).map(|s| rid(1 + (s % 2) as u16, s)).collect();
    let mut page = BytesBuf::new();
    for query in queries(&ids) {
        let codec = FrameCodec::new(MAX_FRAME);
        codec.encode(&query.to_bytes().unwrap(), &mut page).unwrap();
    }
    let stream = std::net::TcpStream::connect(server.addr()).unwrap();
    let mut browser = Framed::new(stream, MAX_FRAME);
    let started = Instant::now();
    browser.get_mut().write_all(page.as_slice()).unwrap();
    for id in ids {
        let answer = Response::from_bytes(browser.read_frame().unwrap()).unwrap();
        let unknown = matches!(answer, Response::Error { .. }) && id.serial % 7 == 0;
        assert!(
            unknown || answer.query_id() == Some(id),
            "{id:?}: {answer:?}"
        );
    }
    // Serial: 16 × 50 ms; shards back to back: 100 ms. Overlapped: 50 ms
    // — asserted with room for a loaded one-core CI host.
    let took = started.elapsed();
    assert!(took < Duration::from_millis(90), "{took:?}");
    server.shutdown();
}
