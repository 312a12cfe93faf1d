//! The canonical upstream stacks — the E16 degradation ladder, each
//! rung a composition instead of a config struct.
//!
//! | rung | composition |
//! |------|-------------|
//! | plain | `Cache(Retry₁(Failover(Tcp)))` — one attempt, errors surface |
//! | retrying | `Cache(Retry(Failover(Tcp)))` |
//! | full | `Cache(StaleServe(Breaker(Retry(Failover(Tcp)))))` |
//!
//! Ordering rules (the long form is DESIGN.md §10): [`CacheLayer`]
//! outermost so local answers skip the ladder entirely and upstream
//! answers get written back; [`StaleServeLayer`] outside
//! [`BreakerLayer`] so an open breaker still produces an honest stale
//! answer; [`BreakerLayer`] outside [`RetryLayer`] so one logical call
//! records one health verdict no matter how many attempts it burned;
//! [`Failover`] innermost so each retry
//! attempt can land on a different replica. The retry layer carries the
//! wall-clock deadline (`RetryPolicy::call_deadline`); a caller can only
//! tighten it, through [`CallCtx::with_deadline`](super::CallCtx::with_deadline).

use super::{
    BoxService, BreakerLayer, CacheLayer, Failover, GovernorLayer, GovernorPolicy, RetryLayer,
    RetryPolicy, Route, Service, ServiceExt, ShedLayer, ShedPolicy, SingleFlightLayer,
    StaleServeLayer, TcpTransport, TransportPool,
};
use irs_ledger::placement::{ShardMap, ShardSpec};
use irs_proxy::SharedProxy;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// One [`TcpTransport`] per replica address.
pub fn transports(replicas: &[SocketAddr], io_timeout: Duration) -> Vec<TcpTransport> {
    replicas
        .iter()
        .map(|&addr| TcpTransport::new(addr, io_timeout))
        .collect()
}

/// The legacy single-attempt upstream: cache in front, one try, no
/// recovery — failures surface to the caller.
pub fn plain_upstream(proxy: Arc<SharedProxy>, upstream: SocketAddr) -> BoxService {
    let policy = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::default()
    };
    retrying_upstream(proxy, vec![upstream], policy)
}

/// Retries + failover, but no breaker and no stale answers.
pub fn retrying_upstream(
    proxy: Arc<SharedProxy>,
    replicas: Vec<SocketAddr>,
    retry: RetryPolicy,
) -> BoxService {
    Failover::new(transports(&replicas, retry.io_timeout))
        .layered(RetryLayer::new(retry))
        .layered(CacheLayer::new(proxy))
        .boxed()
}

/// The whole ladder: retries, failover, circuit breaker, stale-serve,
/// all behind the local cache front — [`full_over`] one [`TcpTransport`]
/// per replica.
pub fn full_upstream(
    proxy: Arc<SharedProxy>,
    replicas: Vec<SocketAddr>,
    retry: RetryPolicy,
) -> BoxService {
    full_over(proxy, transports(&replicas, retry.io_timeout), retry)
}

/// [`full_upstream`] over caller-supplied transports — experiments
/// inject latency-shaped or fault-shaped transports here instead of raw
/// [`TcpTransport`]s.
pub fn full_over<S: Service + Send + Sync + 'static>(
    proxy: Arc<SharedProxy>,
    transports: Vec<S>,
    retry: RetryPolicy,
) -> BoxService {
    Failover::new(transports)
        .layered(RetryLayer::new(retry))
        .layered(BreakerLayer::new(proxy.clone()))
        .layered(StaleServeLayer::new(proxy.clone()))
        .layered(CacheLayer::new(proxy))
        .boxed()
}

/// The full ladder plus **single-flight coalescing**:
/// `Cache(SingleFlight(StaleServe(Breaker(Retry(Failover(transport))))))`.
///
/// Single-flight sits *inside* the cache on purpose: a cache hit never
/// reaches it, so only genuine misses coalesce, and the leader's answer
/// is written back by the cache layer for everyone who arrives next.
/// During a revocation storm — every cached verdict for a hot photo
/// flipped stale at one instant — this collapses the thundering herd of
/// identical misses into one upstream call per photo.
pub fn coalescing_over<S: Service + Send + Sync + 'static>(
    proxy: Arc<SharedProxy>,
    transports: Vec<S>,
    retry: RetryPolicy,
) -> BoxService {
    let registry = proxy.metrics().clone();
    Failover::new(transports)
        .layered(RetryLayer::new(retry))
        .layered(BreakerLayer::new(proxy.clone()))
        .layered(StaleServeLayer::new(proxy.clone()))
        .layered(SingleFlightLayer::new().with_registry(registry))
        .layered(CacheLayer::new(proxy))
        .boxed()
}

/// The storm rung — the coalescing ladder behind **priority admission
/// control**:
/// `Governor(Shed(Cache(SingleFlight(StaleServe(Breaker(Retry(Failover(transport)))))))))`.
///
/// Ordering rules (DESIGN.md §14): the governor and shed sit outermost
/// so refused work costs one counter bump and an `Overloaded` answer —
/// no cache probe, no upstream attempt, no queue slot. The governor is
/// outside the shed so a single abusive client is confined by its own
/// token bucket before it can pressure the shared inflight gate that
/// protects everyone else.
pub fn storm_over<S: Service + Send + Sync + 'static>(
    proxy: Arc<SharedProxy>,
    transports: Vec<S>,
    retry: RetryPolicy,
    governor: GovernorPolicy,
    shed: ShedPolicy,
) -> BoxService {
    let registry = proxy.metrics().clone();
    Failover::new(transports)
        .layered(RetryLayer::new(retry))
        .layered(BreakerLayer::new(proxy.clone()))
        .layered(StaleServeLayer::new(proxy.clone()))
        .layered(SingleFlightLayer::new().with_registry(registry.clone()))
        .layered(CacheLayer::new(proxy))
        .layered(ShedLayer::new(shed).with_registry(registry.clone()))
        .layered(GovernorLayer::new(governor).with_registry(registry))
        .boxed()
}

/// A shard's replica addresses, parsed. A replica that does not parse
/// is skipped (a map can carry hostnames this build cannot resolve);
/// an empty result means the shard is undialable from here.
fn shard_addrs(spec: &ShardSpec) -> Vec<SocketAddr> {
    spec.replicas
        .iter()
        .filter_map(|r| r.parse().ok())
        .collect()
}

/// The innermost per-shard rung: `Retry(Failover(pooled transports))`
/// over one shard's replica set, primary first — failover rotates
/// *within* the replica set (PR 7's promotion path), never across
/// shards. All shards draw connections from the shared `pool`.
pub fn shard_replica_stack(
    pool: &Arc<TransportPool>,
    spec: &ShardSpec,
    retry: RetryPolicy,
) -> BoxService {
    let addrs = shard_addrs(spec);
    if addrs.is_empty() {
        return super::service_fn(|_req, _ctx: &super::CallCtx| {
            Err(crate::NetError::Frame("shard has no dialable replicas"))
        })
        .boxed();
    }
    Failover::new(pool.transports(&addrs))
        .layered(RetryLayer::new(retry))
        .boxed()
}

/// The sharded validate path: [`Route`] over one full ladder per shard
/// — `Route(Cache(StaleServe(Breaker(Retry(Failover(shard replicas))))))`
/// — every stack dialing through one shared [`TransportPool`]. Each
/// shard's breaker is keyed by its own ledger id (claims included), so
/// one dead shard opens one breaker.
pub fn sharded_full_upstream(proxy: Arc<SharedProxy>, map: ShardMap, retry: RetryPolicy) -> Route {
    let pool = Arc::new(TransportPool::new(retry.io_timeout));
    Route::new(map, move |spec: &ShardSpec| {
        shard_replica_stack(&pool, spec, retry)
            .layered(BreakerLayer::new(proxy.clone()).with_fallback(spec.ledger))
            .layered(StaleServeLayer::new(proxy.clone()))
            .layered(CacheLayer::new(proxy.clone()))
            .boxed()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger_server::LedgerServer;
    use crate::service::transport::testing::{call, connect};
    use crate::service::{CallCtx, Service};
    use irs_core::claim::{ClaimRequest, RevocationStatus};
    use irs_core::ids::LedgerId;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response};
    use irs_crypto::{Digest, Keypair};
    use irs_filters::{BloomFilter, Publication};
    use irs_ledger::{Ledger, LedgerConfig};
    use irs_proxy::ProxyConfig;

    /// End-to-end over loopback: a full stack answers locally, goes
    /// upstream on filter hits, and degrades to stale when the ledger
    /// dies — the same walk `dead_upstream_serves_stale_then_unavailable`
    /// does through the proxy server, here against the bare stack.
    #[test]
    fn full_stack_walks_the_ladder() {
        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(31),
        );
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let owner = connect(server.addr());
        let kp = Keypair::from_seed(&[7u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"stacked"));
        let Response::Claimed { id, .. } = call(&owner, Request::Claim(claim)) else {
            panic!("claim failed");
        };

        let proxy = Arc::new(SharedProxy::new(ProxyConfig {
            cache_capacity: 64,
            cache_ttl_ms: 1,
        }));
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(id.filter_key());
        proxy
            .update_filters(|f| f.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
            .unwrap();

        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::fast(41)
        };
        let stack = full_upstream(proxy.clone(), vec![server.addr()], retry);

        // Live upstream: a fresh answer, written back to the cache.
        let resp = stack.call(Request::Query { id }, &CallCtx::wall()).unwrap();
        assert!(
            matches!(resp, Response::Status { status, .. } if status == RevocationStatus::NotRevoked)
        );

        // Dead upstream + expired cache: the stale rung answers.
        server.shutdown();
        std::thread::sleep(Duration::from_millis(5)); // let the 1 ms TTL lapse
        let resp = stack.call(Request::Query { id }, &CallCtx::wall()).unwrap();
        assert!(
            matches!(resp, Response::StatusStale { status, .. } if status == RevocationStatus::NotRevoked),
            "expected stale, got {resp:?}"
        );
        let stale = proxy.metrics().counter("irs_proxy_stale_served_total");
        assert_eq!(stale.get(), 1);
    }

    /// One traced validate through the full ladder: every layer records
    /// exactly one span, enter order is stack order, and the per-layer
    /// self-times account for (at least) 95% of the measured wall time —
    /// the attribution guarantee E18 relies on.
    #[test]
    fn full_stack_traced_query_attributes_every_layer() {
        use irs_obs::SpanRecorder;

        let ledger = Ledger::new(
            LedgerConfig::new(LedgerId(1)),
            TimestampAuthority::from_seed(32),
        );
        let server = LedgerServer::start(ledger, "127.0.0.1:0").unwrap();
        let owner = connect(server.addr());
        let kp = Keypair::from_seed(&[8u8; 32]);
        let claim = ClaimRequest::create(&kp, &Digest::of(b"traced"));
        let Response::Claimed { id, .. } = call(&owner, Request::Claim(claim)) else {
            panic!("claim failed");
        };

        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        let mut filter = BloomFilter::with_params(1 << 14, 6, 0).unwrap();
        filter.insert(id.filter_key());
        proxy
            .update_filters(|f| f.apply(LedgerId(1), Publication::full(1, filter.to_bytes())))
            .unwrap();
        let stack = full_upstream(proxy, vec![server.addr()], RetryPolicy::fast(42));

        // Filter hit + cache miss: the query walks every rung to the wire.
        let rec = SpanRecorder::new();
        let ctx = CallCtx::wall().with_trace(rec.clone());
        let started = std::time::Instant::now();
        let resp = stack.call(Request::Query { id }, &ctx).unwrap();
        let wall_ns = started.elapsed().as_nanos() as u64;
        assert!(matches!(resp, Response::Status { .. }));

        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "cache",
                "proxy:filter",
                "proxy:cache",
                "stale",
                "breaker",
                "retry",
                "failover",
                "transport"
            ],
            "one span per layer, enter order = stack order"
        );
        assert!(
            spans.iter().all(|s| !s.verdict.is_empty()),
            "every layer must stamp a verdict: {spans:?}"
        );
        // Self-times partition the outermost span exactly, and the
        // outermost span covers (nearly) the whole measured call.
        let rows = rec.breakdown();
        let total_self: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total_self, spans[0].duration_ns());
        assert!(
            total_self as f64 >= 0.95 * wall_ns as f64,
            "span self-times must account for >=95% of wall time \
             ({total_self} of {wall_ns} ns)\n{}",
            rec.render_table()
        );
        server.shutdown();
    }

    #[test]
    fn plain_stack_surfaces_upstream_failure() {
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let proxy = Arc::new(SharedProxy::new(ProxyConfig::default()));
        // No filter installed: might_be_revoked is unknown, so the query
        // must go upstream — and fail, with nothing to degrade to.
        let stack = plain_upstream(proxy, dead);
        let id = irs_core::ids::RecordId::new(LedgerId(1), 1);
        assert!(stack.call(Request::Query { id }, &CallCtx::wall()).is_err());
    }
}
