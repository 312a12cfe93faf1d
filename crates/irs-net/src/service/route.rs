//! The shard router: one [`Service`] fronting N per-shard stacks.
//!
//! [`Route`] is the top of a sharded deployment's request path
//! (DESIGN.md §15). It holds a [`ShardDirectory`] (the router's view of
//! the epoch-versioned [`ShardMap`]) plus one inner service per shard,
//! built on demand by a caller-supplied closure — typically the full
//! degradation ladder over that shard's replica set, with
//! [`super::Failover`] rotating *within* the replica set and every
//! stack dialing through one shared
//! [`TransportPool`](super::TransportPool):
//!
//! ```text
//! Route ── shard 1 ── Retry(Failover([primary, follower]))
//!      └── shard 2 ── Retry(Failover([primary, follower]))
//! ```
//!
//! Routing rules (identical to the server-side guard, so agreement is
//! structural):
//!
//! * `Claim` → rendezvous over the claim digest ([`ShardMap::claim_key`]);
//! * `Query` / `Revoke` / `GetProof` → exactly by `RecordId::ledger`;
//! * a group ([`Service::start_all`]) → one sub-group per owning shard,
//!   every shard's started before any is waited on, answers back in
//!   request order;
//! * `GetShardMap` → answered locally from the router's directory;
//! * unkeyed requests (`GetFilterTiered`, `Ping`, `Metrics`, replication
//!   ops) → the map's first shard. Per-shard maintenance traffic
//!   should target a shard's stack directly instead.
//!
//! **Self-healing:** a shard that answers `WrongShard { epoch }` is
//! telling the router its map is stale. The router refetches the map
//! from that same shard (`GetShardMap`), installs it if newer, rebuilds
//! the affected shard stacks, and retries the request once. A second
//! refusal means the disagreement is not staleness and surfaces as
//! [`NetError::WrongShard`] — never a loop, and never a breaker trip
//! (refusals are `Ok` responses end to end).

use super::{Answers, BoxService, CallCtx, Pending, Service};
use crate::NetError;
use irs_core::ids::{LedgerId, RecordId};
use irs_core::wire::{Request, Response};
use irs_ledger::placement::{ShardDirectory, ShardMap, ShardSpec};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds the inner service for one shard's replica set.
pub type ShardStackBuilder = dyn Fn(&ShardSpec) -> BoxService + Send + Sync;

/// One shard's built stack, tagged with the spec it was built from so
/// a replica-set change (new follower address after a promotion, say)
/// rebuilds it on next use.
struct ShardStack {
    spec: ShardSpec,
    service: Arc<BoxService>,
}

/// The shard-routing service. See the module docs.
pub struct Route {
    dir: Arc<ShardDirectory>,
    builder: Box<ShardStackBuilder>,
    stacks: RwLock<HashMap<LedgerId, ShardStack>>,
    wrong_shards: AtomicU64,
    refetches: AtomicU64,
    installs: AtomicU64,
}

impl Route {
    /// A router over `map`, building each shard's stack with `builder`.
    /// Stacks are built lazily on first dispatch to a shard.
    pub fn new<F>(map: ShardMap, builder: F) -> Route
    where
        F: Fn(&ShardSpec) -> BoxService + Send + Sync + 'static,
    {
        Route {
            dir: Arc::new(ShardDirectory::for_router(map)),
            builder: Box::new(builder),
            stacks: RwLock::new(HashMap::new()),
            wrong_shards: AtomicU64::new(0),
            refetches: AtomicU64::new(0),
            installs: AtomicU64::new(0),
        }
    }

    /// The router's current map.
    pub fn map(&self) -> Arc<ShardMap> {
        self.dir.current()
    }

    /// `WrongShard` refusals observed (before healing).
    pub fn wrong_shards(&self) -> u64 {
        self.wrong_shards.load(Ordering::Relaxed)
    }

    /// Shard-map refetches triggered by refusals.
    pub fn refetches(&self) -> u64 {
        self.refetches.load(Ordering::Relaxed)
    }

    /// Refetched maps that were newer and got installed.
    pub fn installs(&self) -> u64 {
        self.installs.load(Ordering::Relaxed)
    }

    /// The built stack for `spec`, building (or rebuilding, if the
    /// replica set changed since it was built) as needed.
    fn stack_for(&self, spec: &ShardSpec) -> Arc<BoxService> {
        if let Some(s) = self.stacks.read().get(&spec.ledger) {
            if s.spec == *spec {
                return s.service.clone();
            }
        }
        let mut stacks = self.stacks.write();
        // Double-checked: another thread may have built it while we
        // waited for the write lock.
        if let Some(s) = stacks.get(&spec.ledger) {
            if s.spec == *spec {
                return s.service.clone();
            }
        }
        let service = Arc::new((self.builder)(spec));
        stacks.insert(
            spec.ledger,
            ShardStack {
                spec: spec.clone(),
                service: service.clone(),
            },
        );
        service
    }

    /// Drop stacks for shards the new map no longer places (stale
    /// replica sets rebuild lazily via the spec check in `stack_for`).
    fn prune(&self, map: &ShardMap) {
        self.stacks.write().retain(|l, _| map.spec(*l).is_some());
    }

    /// The shard owning `req` under `map`.
    fn target<'m>(&self, map: &'m ShardMap, req: &Request) -> Result<&'m ShardSpec, NetError> {
        let record_owner = |id: &RecordId| {
            map.shard_for_record(id)
                .ok_or(NetError::WrongShard { epoch: map.epoch() })
        };
        match req {
            Request::Claim(c) => Ok(map.shard_for_claim(c)),
            Request::Query { id } | Request::GetProof { id } => record_owner(id),
            Request::Revoke(r) => record_owner(&r.id),
            // Unkeyed: the map's first shard answers.
            _ => Ok(&map.shards()[0]),
        }
    }

    /// Refetch the map from the shard that refused us; install and
    /// prune if it is newer. Transport errors surface — the caller's
    /// retry budget (a layer above) decides what happens next.
    fn heal(&self, via: &Arc<BoxService>, ctx: &CallCtx) -> Result<(), NetError> {
        self.refetches.fetch_add(1, Ordering::Relaxed);
        match via.call(Request::GetShardMap, ctx)? {
            Response::ShardMap { data, .. } => {
                let map = ShardMap::from_bytes(&data)
                    .map_err(|_| NetError::Frame("undecodable shard map"))?;
                if self.dir.install(map) {
                    self.installs.fetch_add(1, Ordering::Relaxed);
                    self.prune(&self.dir.current());
                }
                Ok(())
            }
            _ => Err(NetError::Frame("unexpected reply to GetShardMap")),
        }
    }

    /// `via` refused `req` with `WrongShard`: refetch the map from it,
    /// then retry once under whatever map is current. A second refusal
    /// is not staleness and surfaces as an error — never a loop.
    fn refused(
        &self,
        req: &Request,
        via: &Arc<BoxService>,
        ctx: &CallCtx,
    ) -> Result<Response, NetError> {
        self.wrong_shards.fetch_add(1, Ordering::Relaxed);
        self.heal(via, ctx)?;
        let map = self.dir.current();
        let stack = self.stack_for(self.target(&map, req)?);
        match stack.call(req.clone(), ctx)? {
            Response::WrongShard { .. } => {
                self.wrong_shards.fetch_add(1, Ordering::Relaxed);
                Err(NetError::WrongShard { epoch: map.epoch() })
            }
            response => Ok(response),
        }
    }

    /// Dispatch one keyed request: route, call, heal-and-retry if
    /// refused — the steps of [`start_all`](Service::start_all) without a
    /// group's vectors (a one-frame validate is the latency floor).
    fn dispatch(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let map = self.dir.current();
        let stack = self.stack_for(self.target(&map, &req)?);
        match stack.call(req.clone(), ctx)? {
            Response::WrongShard { .. } => self.refused(&req, &stack, ctx),
            response => Ok(response),
        }
    }

    /// The router's own map, as a shard would serve it.
    fn local_map(&self) -> Response {
        let map = self.dir.current();
        let (epoch, data) = (map.epoch(), map.to_bytes().into());
        Response::ShardMap { epoch, data }
    }
}

impl Service for Route {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("route");
        let result = match req {
            Request::GetShardMap => Ok(self.local_map()),
            other => self.dispatch(other, ctx),
        };
        span.verdict_result(&result, "err");
        result
    }

    /// `GetShardMap` is answered in place; the rest go out as one group
    /// per owning shard, and an item refused with `WrongShard` takes the
    /// heal-and-retry path. Every shard's group is
    /// started before any is waited on (shards in order of first
    /// appearance, answers back in request order), so a page costs its
    /// slowest shard's exchange, not their sum. The shard stacks are
    /// rebuilt under the router's lock as the map changes, so a pending
    /// cannot borrow them: the router collects its groups before it
    /// returns.
    fn start_all(&self, reqs: Vec<Request>, ctx: &CallCtx) -> Pending<'_> {
        let span = ctx.span("route");
        let map = self.dir.current();
        let mut answers = Answers::new(reqs.len());
        let mut groups: Vec<(LedgerId, Arc<BoxService>, Vec<usize>)> = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            let spec = match req {
                Request::GetShardMap => Err(Ok(self.local_map())),
                keyed => self.target(&map, keyed).map_err(Err),
            };
            match spec {
                Ok(spec) => match groups.iter_mut().find(|(l, ..)| *l == spec.ledger) {
                    Some((.., members)) => members.push(i),
                    None => groups.push((spec.ledger, self.stack_for(spec), vec![i])),
                },
                Err(answered) => answers.set(i, answered),
            }
        }
        let started: Vec<_> = groups
            .iter()
            .map(|(_, stack, members)| {
                let sub = members.iter().map(|&i| reqs[i].clone()).collect();
                stack.start_all(sub, ctx)
            })
            .collect();
        for ((_, stack, members), pending) in groups.iter().zip(started) {
            for (&i, answer) in members.iter().zip(pending.wait()) {
                let answer = match answer {
                    Ok(Response::WrongShard { .. }) => self.refused(&reqs[i], stack, ctx),
                    other => other,
                };
                span.verdict_result(&answer, "err");
                answers.set(i, answer);
            }
        }
        Pending::Ready(answers.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::claim::{ClaimRequest, RevocationStatus};
    use irs_core::time::TimeMs;
    use irs_crypto::{Digest, Keypair};
    use std::sync::Mutex;

    fn spec(id: u16) -> ShardSpec {
        ShardSpec::new(LedgerId(id), vec![format!("10.0.0.{id}:4100")])
    }

    fn map(epoch: u64, ids: &[u16]) -> ShardMap {
        ShardMap::new(epoch, ids.iter().map(|&i| spec(i)).collect()).unwrap()
    }

    fn claim(seed: u8) -> ClaimRequest {
        ClaimRequest::create(&Keypair::from_seed(&[seed; 32]), &Digest::of(&[seed]))
    }

    /// A router whose shard stacks echo which shard got the call.
    fn echo_route(m: ShardMap) -> (Route, Arc<Mutex<Vec<u16>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let calls_in = calls.clone();
        let route = Route::new(m, move |spec: &ShardSpec| {
            let ledger = spec.ledger;
            let calls = calls_in.clone();
            service_fn(move |req: Request, _ctx: &CallCtx| {
                calls.lock().unwrap().push(ledger.0);
                Ok(match req {
                    Request::Query { id } => Response::Status {
                        id,
                        status: RevocationStatus::NotRevoked,
                        epoch: 0,
                    },
                    _ => Response::Pong,
                })
            })
            .boxed()
        });
        (route, calls)
    }

    #[test]
    fn claims_route_by_rendezvous_and_records_by_ledger() {
        let m = map(1, &[1, 2, 3]);
        let (route, calls) = echo_route(m.clone());
        let ctx = CallCtx::at(TimeMs(0));
        let c = claim(7);
        let expected = m.shard_for_claim(&c).ledger.0;
        route.call(Request::Claim(c), &ctx).unwrap();
        assert_eq!(calls.lock().unwrap().as_slice(), &[expected]);

        calls.lock().unwrap().clear();
        let id = RecordId::new(LedgerId(3), 42);
        route.call(Request::Query { id }, &ctx).unwrap();
        assert_eq!(calls.lock().unwrap().as_slice(), &[3]);
    }

    #[test]
    fn unplaced_record_is_a_routing_error() {
        let (route, _) = echo_route(map(1, &[1, 2]));
        let ctx = CallCtx::at(TimeMs(0));
        let id = RecordId::new(LedgerId(9), 1);
        assert!(matches!(
            route.call(Request::Query { id }, &ctx),
            Err(NetError::WrongShard { epoch: 1 })
        ));
    }

    #[test]
    fn get_shard_map_is_answered_locally() {
        let (route, calls) = echo_route(map(5, &[1]));
        let resp = route
            .call(Request::GetShardMap, &CallCtx::at(TimeMs(0)))
            .unwrap();
        let Response::ShardMap { epoch, data } = resp else {
            panic!("expected ShardMap");
        };
        assert_eq!(epoch, 5);
        assert_eq!(ShardMap::from_bytes(&data).unwrap().epoch(), 5);
        assert!(calls.lock().unwrap().is_empty(), "no shard call");
    }

    #[test]
    fn wrong_shard_refusal_heals_and_retries_once() {
        // Shard 1 refuses keyed requests and serves a newer 2-shard map;
        // the router must refetch, install, and land the claim on the
        // shard the *new* map picks.
        let old = map(1, &[1]);
        let new = map(2, &[1, 2]);
        // A claim the *new* map places on shard 2 — guaranteeing the
        // stale router (which only knows shard 1) gets refused.
        let c = (0u8..=255)
            .map(claim)
            .find(|c| new.shard_for_claim(c).ledger == LedgerId(2))
            .expect("some claim lands on shard 2");

        let new_in = new.clone();
        let route = Route::new(old, move |spec: &ShardSpec| {
            let ledger = spec.ledger;
            let served = new_in.clone();
            service_fn(move |req: Request, _ctx: &CallCtx| {
                Ok(match req {
                    Request::GetShardMap => Response::ShardMap {
                        epoch: served.epoch(),
                        data: served.to_bytes().into(),
                    },
                    Request::Claim(c) if served.shard_for_claim(&c).ledger != ledger => {
                        Response::WrongShard {
                            epoch: served.epoch(),
                        }
                    }
                    _ => Response::Pong,
                })
            })
            .boxed()
        });
        let ctx = CallCtx::at(TimeMs(0));
        let resp = route.call(Request::Claim(c), &ctx).unwrap();
        assert_eq!(resp, Response::Pong);
        assert_eq!(route.map().epoch(), 2);
        assert_eq!(route.installs(), 1);
        assert_eq!(route.wrong_shards(), 1);
        assert_eq!(route.refetches(), 1);
    }

    #[test]
    fn persistent_refusal_surfaces_as_wrong_shard_error_not_a_loop() {
        // Every shard refuses everything at the router's own epoch:
        // healing cannot help, so the router must stop after one retry.
        let calls = Arc::new(Mutex::new(0u32));
        let calls_in = calls.clone();
        let m = map(3, &[1]);
        let served = m.clone();
        let route = Route::new(m, move |_spec: &ShardSpec| {
            let served = served.clone();
            let calls = calls_in.clone();
            service_fn(move |req: Request, _ctx: &CallCtx| {
                Ok(match req {
                    Request::GetShardMap => Response::ShardMap {
                        epoch: served.epoch(),
                        data: served.to_bytes().into(),
                    },
                    _ => {
                        *calls.lock().unwrap() += 1;
                        Response::WrongShard { epoch: 3 }
                    }
                })
            })
            .boxed()
        });
        let ctx = CallCtx::at(TimeMs(0));
        assert!(matches!(
            route.call(Request::Claim(claim(1)), &ctx),
            Err(NetError::WrongShard { epoch: 3 })
        ));
        assert_eq!(*calls.lock().unwrap(), 2, "exactly one retry");
    }

    #[test]
    fn replica_set_change_rebuilds_the_shard_stack() {
        let builds = Arc::new(Mutex::new(Vec::<Vec<String>>::new()));
        let builds_in = builds.clone();
        let route = Route::new(map(1, &[1]), move |spec: &ShardSpec| {
            builds_in.lock().unwrap().push(spec.replicas.clone());
            service_fn(|_req: Request, _ctx: &CallCtx| Ok(Response::Pong)).boxed()
        });
        let ctx = CallCtx::at(TimeMs(0));
        route.call(Request::Ping, &ctx).unwrap();
        route.call(Request::Ping, &ctx).unwrap();
        assert_eq!(builds.lock().unwrap().len(), 1, "stable spec reuses stack");

        // New epoch, same ledger, different replica set (a promotion).
        let promoted = ShardMap::new(
            2,
            vec![ShardSpec::new(LedgerId(1), vec!["10.9.9.9:1".into()])],
        )
        .unwrap();
        assert!(route.dir.install(promoted));
        route.call(Request::Ping, &ctx).unwrap();
        let b = builds.lock().unwrap();
        assert_eq!(b.len(), 2, "changed replica set must rebuild");
        assert_eq!(b[1], vec!["10.9.9.9:1".to_string()]);
    }
}
