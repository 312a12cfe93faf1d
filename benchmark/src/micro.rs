//! The micro rows: each layer's public entry points timed from outside,
//! single-threaded, once per traced invocation. [`on_cluster`] runs on
//! the idle cluster after the windows, when perturbing its caches no
//! longer matters; [`standalone`] needs no cluster and runs once it is
//! gone, when the host is quiet and its clock has ramped up.

use crate::cluster::{retry_policy, Cluster};
use crate::rng::Rng;
use crate::run::{metric, Metric};
use crate::stats;
use irs_browser::{BrowserValidator, ValidationPlan};
use irs_core::claim::{ClaimRequest, RevocationStatus, RevokeRequest};
use irs_core::ids::{LedgerId, RecordId};
use irs_core::photo::LabelReading;
use irs_core::policy::ViewerPolicy;
use irs_core::time::{Clock, SystemClock, TimeMs};
use irs_core::tsa::TimestampAuthority;
use irs_core::wire::{Request, Response, Wire};
use irs_crypto::{Digest, Keypair};
use irs_filters::{BloomFilter, Filter, TieredConfig, TieredFilter, TieredPublisher};
use irs_ledger::{ConcurrentLedger, Disk, DurabilityConfig, FsyncPolicy, LedgerConfig, StdDisk};
use irs_net::service::{service_fn, stacks, CallCtx, Service};
use irs_net::{BytesBuf, FrameCodec, MuxClient};
use irs_proxy::{LookupOutcome, ProxyConfig, SharedProxy};
use std::collections::HashSet;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Keys in the filter rows.
const FILTER_KEYS: u64 = 1_000_000;

/// Median over five batches of the mean time of one call, in ns.
fn ns_per_call(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                f(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    stats::median(&batches)
}

fn ms(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

fn crypto_rows(out: &mut Vec<Metric>) {
    let ids: Vec<RecordId> = (0..1024).map(|n| RecordId::new(LedgerId(1), n)).collect();
    let ns = ns_per_call(20_000, |i| {
        black_box(black_box(&ids[i % ids.len()]).filter_key());
    });
    out.push(metric("crypto.sha256_id_ns", ns, "ns"));
    let keypair = Keypair::from_seed(&[0x11; 32]);
    let message = [0x5a; 32];
    let ns = ns_per_call(60, |_| {
        black_box(keypair.sign(black_box(&message)));
    });
    out.push(metric("crypto.sign_us", ns / 1e3, "us"));
    let signature = keypair.sign(&message);
    let ns = ns_per_call(40, |_| {
        black_box(keypair.public.verify_ok(black_box(&message), &signature));
    });
    out.push(metric("crypto.verify_us", ns / 1e3, "us"));
}

fn filter_rows(out: &mut Vec<Metric>) -> Result<(), String> {
    use irs_filters::hash::mix64;
    let mut keys: HashSet<u64> = (0..FILTER_KEYS).map(mix64).collect();
    let mut publisher = TieredPublisher::new(TieredConfig::default()).map_err(|e| e.to_string())?;
    let start = Instant::now();
    publisher.publish(&keys).map_err(|e| e.to_string())?;
    out.push(metric("filters.compact_ms", ms(start), "ms"));
    if publisher.epoch() != 2 {
        return Err("the first 10^6-key publish did not seal a base".into());
    }
    // A thousand fresh revocations land in the delta tier.
    keys.extend((FILTER_KEYS..FILTER_KEYS + 1_000).map(mix64));
    let start = Instant::now();
    publisher.publish(&keys).map_err(|e| e.to_string())?;
    out.push(metric("filters.publish_delta_ms", ms(start), "ms"));

    let snap = publisher.snapshot();
    let tier = TieredFilter::from_wire(
        snap.epoch(),
        snap.base_bytes(),
        snap.delta_version(),
        snap.delta().to_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let hits: Vec<u64> = (0..4096).map(|i| mix64(i * 241)).collect();
    let misses: Vec<u64> = (0..4096).map(|i| mix64((1 << 40) + i)).collect();
    let ns = ns_per_call(200_000, |i| {
        black_box(tier.contains(black_box(hits[i % hits.len()])));
    });
    out.push(metric("filters.tiered_probe_hit_ns", ns, "ns"));
    let ns = ns_per_call(200_000, |i| {
        black_box(tier.contains(black_box(misses[i % misses.len()])));
    });
    out.push(metric("filters.tiered_probe_miss_ns", ns, "ns"));
    out.push(metric(
        "filters.resident_bytes_per_key",
        tier.resident_bits() as f64 / 8.0 / keys.len() as f64,
        "B",
    ));
    drop(tier);

    // The Bloom-only alternative at the fuse base's false-positive rate.
    let mut bloom =
        BloomFilter::for_capacity(FILTER_KEYS, 1.0 / 256.0).map_err(|e| e.to_string())?;
    for &key in &keys {
        bloom.insert(key);
    }
    let ns = ns_per_call(200_000, |i| {
        black_box(bloom.contains(black_box(misses[i % misses.len()])));
    });
    out.push(metric("filters.bloom_probe_ns", ns, "ns"));
    Ok(())
}

fn wire_rows(out: &mut Vec<Metric>) -> Result<(), String> {
    let id = RecordId::new(LedgerId(2), 123_456);
    let query = Request::Query { id };
    let status = Response::Status {
        id,
        status: RevocationStatus::Revoked,
        epoch: 3,
    };
    let query_bytes = query.to_bytes().map_err(|e| e.to_string())?;
    let status_bytes = status.to_bytes().map_err(|e| e.to_string())?;
    let n = 100_000;
    let ns = ns_per_call(n, |_| {
        black_box(black_box(&query).to_bytes().ok());
    });
    out.push(metric("wire.encode_query_ns", ns, "ns"));
    let ns = ns_per_call(n, |_| {
        black_box(Request::from_bytes(black_box(&query_bytes).clone()).ok());
    });
    out.push(metric("wire.decode_query_ns", ns, "ns"));
    let ns = ns_per_call(n, |_| {
        black_box(black_box(&status).to_bytes().ok());
    });
    out.push(metric("wire.encode_status_ns", ns, "ns"));
    let ns = ns_per_call(n, |_| {
        black_box(Response::from_bytes(black_box(&status_bytes).clone()).ok());
    });
    out.push(metric("wire.decode_status_ns", ns, "ns"));
    let claim = Request::Claim(ClaimRequest::create(
        &Keypair::from_seed(&[0x22; 32]),
        &Digest::of(b"photo"),
    ));
    let ns = ns_per_call(n, |_| {
        let bytes = black_box(&claim).to_bytes().ok();
        black_box(bytes.and_then(|b| Request::from_bytes(b).ok()));
    });
    out.push(metric("wire.claim_roundtrip_ns", ns, "ns"));

    // A 16-frame page through `BytesBuf`, both directions.
    let codec = FrameCodec::new(1 << 20);
    let mut buf = BytesBuf::with_capacity(1024);
    let ns = ns_per_call(20_000, |_| {
        buf.clear();
        for _ in 0..crate::load::PAGE {
            let _ = codec.encode(black_box(&query_bytes), &mut buf);
        }
    });
    out.push(metric("codec.frame_encode_ns", ns, "ns"));
    let page = buf.as_slice().to_vec();
    let mut inbuf = BytesBuf::with_capacity(1024);
    let ns = ns_per_call(20_000, |_| {
        inbuf.extend_from_slice(black_box(&page));
        while let Ok(Some(frame)) = codec.decode(&mut inbuf) {
            black_box(frame);
        }
    });
    out.push(metric("codec.frame_decode_ns", ns, "ns"));
    Ok(())
}

fn signed_claims(keypair: &Keypair, n: u64) -> Vec<ClaimRequest> {
    (0..n)
        .map(|i| ClaimRequest::create(keypair, &Digest::of(&i.to_le_bytes())))
        .collect()
}

fn claim_all(ledger: &ConcurrentLedger, claims: &[ClaimRequest]) -> Result<Vec<RecordId>, String> {
    let now = SystemClock.now();
    claims
        .iter()
        .map(|claim| match ledger.handle(Request::Claim(*claim), now) {
            Response::Claimed { id, .. } => Ok(id),
            other => Err(format!("micro claim refused: {other:?}")),
        })
        .collect()
}

fn ledger_rows(out_dir: &Path, out: &mut Vec<Metric>) -> Result<(), String> {
    const WRITES: u64 = 150;
    let keypair = Keypair::from_seed(&[0x33; 32]);
    let claims = signed_claims(&keypair, WRITES);
    let config = || LedgerConfig::new(LedgerId(1));
    let tsa = || TimestampAuthority::from_seed(0x7E57);

    let memory = ConcurrentLedger::new(config(), tsa());
    let start = Instant::now();
    claim_all(&memory, &claims)?;
    out.push(metric(
        "ledger.claim_mem_us",
        ms(start) * 1e3 / WRITES as f64,
        "us",
    ));

    let dir = out_dir.join(format!("micro-{}", std::process::id()));
    let result = (|| {
        let disk: Arc<dyn Disk> = Arc::new(StdDisk::new(&dir).map_err(|e| e.to_string())?);
        let durability = DurabilityConfig::new(disk, FsyncPolicy::Always);
        let ledger = ConcurrentLedger::recover(config(), tsa(), 16, durability)
            .map_err(|e| format!("micro ledger: {e}"))?;
        let start = Instant::now();
        let ids = claim_all(&ledger, &claims)?;
        out.push(metric(
            "ledger.claim_durable_us",
            ms(start) * 1e3 / WRITES as f64,
            "us",
        ));
        let revokes: Vec<RevokeRequest> = ids
            .iter()
            .map(|&id| RevokeRequest::create(&keypair, id, true, 0))
            .collect();
        let now = SystemClock.now();
        let start = Instant::now();
        for revoke in &revokes {
            match ledger.handle(Request::Revoke(*revoke), now) {
                Response::RevokeAck { .. } => {}
                other => return Err(format!("micro revoke refused: {other:?}")),
            }
        }
        out.push(metric(
            "ledger.revoke_durable_us",
            ms(start) * 1e3 / WRITES as f64,
            "us",
        ));
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn browser_and_stack_rows(out: &mut Vec<Metric>) {
    let ids: Vec<RecordId> = (0..4096).map(|n| RecordId::new(LedgerId(1), n)).collect();
    // 4 096 ids cycling through a 1 024-entry LRU: every plan misses.
    let mut validator = BrowserValidator::new(ViewerPolicy::default(), 1024, 3_600_000);
    let ns = ns_per_call(50_000, |i| {
        let id = ids[i % ids.len()];
        let reading = LabelReading {
            metadata_id: Some(id),
            watermark_id: Some(id),
        };
        if let ValidationPlan::AskProxy(id) = validator.plan(&reading, TimeMs(1)) {
            black_box(validator.complete(id, RevocationStatus::Revoked, TimeMs(1)));
        }
    });
    out.push(metric("browser.plan_complete_ns", ns, "ns"));

    // The full ladder over an upstream that answers at once: what the
    // layers themselves cost per miss. No filter is installed, so every
    // query falls through; 4 096 ids cycle a 16-entry cache, so none hits.
    let proxy = Arc::new(SharedProxy::new(ProxyConfig {
        cache_capacity: 16,
        cache_ttl_ms: 3_600_000,
    }));
    let upstream = service_fn(|req, _ctx: &CallCtx| match req {
        Request::Query { id } => Ok(Response::Status {
            id,
            status: RevocationStatus::Revoked,
            epoch: 1,
        }),
        _ => Ok(Response::Pong),
    });
    let stack = stacks::full_over(proxy, vec![upstream], retry_policy(1));
    let ctx = CallCtx::wall();
    let ns = ns_per_call(50_000, |i| {
        black_box(
            stack
                .call(
                    Request::Query {
                        id: ids[i % ids.len()],
                    },
                    &ctx,
                )
                .ok(),
        );
    });
    out.push(metric("stack.inproc_overhead_ns", ns, "ns"));
}

/// Rows that need no cluster. `out_dir` hosts one short-lived ledger.
pub fn standalone(out_dir: &Path) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    crypto_rows(&mut out);
    filter_rows(&mut out)?;
    wire_rows(&mut out)?;
    ledger_rows(out_dir, &mut out)?;
    browser_and_stack_rows(&mut out);
    Ok(out)
}

fn far() -> Instant {
    Instant::now() + Duration::from_secs(5)
}

fn net_rows(cluster: &Cluster, out: &mut Vec<Metric>) -> Result<(), String> {
    let ledger = cluster.ledger_addrs[0];
    let mux = MuxClient::connect(ledger).map_err(|e| format!("ping dial: {e}"))?;
    let mut rtts = Vec::with_capacity(2_000);
    for _ in 0..2_000 {
        let start = Instant::now();
        match mux.call(&Request::Ping, far()) {
            Ok(Response::Pong) => rtts.push(start.elapsed().as_nanos() as u64),
            other => return Err(format!("ping: {other:?}")),
        }
    }
    rtts.sort_unstable();
    let p50 = stats::percentile(&rtts, 50.0).expect("2 000 samples");
    out.push(metric("net.ping_rtt_p50_us", p50 as f64 / 1e3, "us"));
    drop(mux);

    // Sixteen pings per write on a raw socket: the reactor's ceiling for
    // one pipelined connection, with no proxy or ledger work behind it.
    let codec = FrameCodec::new(1 << 20);
    let ping = Request::Ping.to_bytes().map_err(|e| e.to_string())?;
    let mut page = BytesBuf::new();
    for _ in 0..crate::load::PAGE {
        codec.encode(&ping, &mut page).map_err(|e| e.to_string())?;
    }
    let mut stream = TcpStream::connect(ledger).map_err(|e| format!("pipeline dial: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut inbuf = BytesBuf::new();
    let mut chunk = [0u8; 4096];
    const ROUNDS: usize = 3_000;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        stream
            .write_all(page.as_slice())
            .map_err(|e| e.to_string())?;
        let mut pongs = 0;
        while pongs < crate::load::PAGE {
            let n = stream
                .read(&mut chunk)
                .map_err(|e| format!("pong read: {e}"))?;
            if n == 0 {
                return Err("ledger closed the ping connection".into());
            }
            inbuf.extend_from_slice(&chunk[..n]);
            while codec
                .decode(&mut inbuf)
                .map_err(|e| e.to_string())?
                .is_some()
            {
                pongs += 1;
            }
        }
    }
    let qps = (ROUNDS * crate::load::PAGE) as f64 / start.elapsed().as_secs_f64();
    out.push(metric("net.ping_pipelined_qps", qps, "1/s"));
    drop(stream);

    let mut connects = Vec::with_capacity(200);
    for _ in 0..200 {
        let start = Instant::now();
        let stream = TcpStream::connect(cluster.proxy_addr).map_err(|e| e.to_string())?;
        connects.push(start.elapsed().as_nanos() as u64);
        drop(stream);
    }
    connects.sort_unstable();
    let p50 = stats::percentile(&connects, 50.0).expect("200 samples");
    out.push(metric("net.connect_us", p50 as f64 / 1e3, "us"));
    Ok(())
}

/// Rows timed against the built cluster's own objects.
pub fn on_cluster(cluster: &Cluster) -> Result<Vec<Metric>, String> {
    let mut out = Vec::new();
    let proxy = &cluster.proxy;
    let now = SystemClock.now();
    let clean = &cluster.clean;
    let ns = ns_per_call(100_000, |i| {
        black_box(proxy.lookup(clean[i % clean.len()], now));
    });
    out.push(metric("proxy.lookup_filter_negative_ns", ns, "ns"));

    // 256 ids fit every LRU stripe, so after one `complete` each they hit.
    let hot: Vec<RecordId> = cluster
        .revoked
        .iter()
        .step_by(31)
        .take(256)
        .copied()
        .collect();
    for &id in &hot {
        proxy.complete(id, RevocationStatus::Revoked, now);
    }
    let ns = ns_per_call(100_000, |i| {
        black_box(proxy.lookup(hot[i % hot.len()], now));
    });
    out.push(metric("proxy.lookup_cache_hit_ns", ns, "ns"));

    let mut rng = Rng::new(0xC01D);
    let revoked = &cluster.revoked;
    let ns = ns_per_call(50_000, |_| {
        let id = revoked[rng.below(revoked.len())];
        if proxy.lookup(id, now) == LookupOutcome::NeedsLedgerQuery {
            proxy.complete(id, RevocationStatus::Revoked, now);
        }
        proxy.invalidate(&id);
    });
    out.push(metric("proxy.lookup_miss_complete_ns", ns, "ns"));

    let ledger = &cluster.primaries[0];
    let own: Vec<RecordId> = revoked
        .iter()
        .filter(|id| id.ledger == ledger.id())
        .copied()
        .collect();
    let ns = ns_per_call(100_000, |i| {
        black_box(ledger.handle(
            Request::Query {
                id: own[i % own.len()],
            },
            now,
        ));
    });
    out.push(metric("ledger.query_ns", ns, "ns"));

    net_rows(cluster, &mut out)?;
    Ok(out)
}
