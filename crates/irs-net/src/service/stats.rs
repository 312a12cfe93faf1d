//! Call observation — the service-stack face of the [`irs_obs`]
//! registry.
//!
//! [`Stats`] counts calls and outcomes and feeds per-call wall-clock
//! latency into a lock-free log₂ [`Histogram`], so the observer gets
//! p50/p95/p99/max — not just a mean — out of the same layer that used
//! to keep ad-hoc atomics. The counters live behind a cloneable
//! [`StatsHandle`] so the observer keeps reading after the stack has
//! been boxed and handed to a server; [`StatsLayer::in_registry`]
//! registers the same counters under stable names so they ride the
//! `Request::Metrics` exposition too.

use super::{CallCtx, Layer, Service};
use crate::NetError;
use irs_core::wire::{Request, Response};
use irs_obs::{Counter, Histogram, HistogramSnapshot, Registry};
use std::time::Instant;

/// A cloneable window onto a [`Stats`] layer's counters.
#[derive(Clone, Default)]
pub struct StatsHandle {
    calls: Counter,
    ok: Counter,
    err: Counter,
    latency_us: Histogram,
}

/// Point-in-time counters from a [`StatsHandle`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Calls observed.
    pub calls: u64,
    /// Calls that returned a response.
    pub ok: u64,
    /// Calls that returned an error.
    pub err: u64,
    /// Total wall-clock time across all calls, microseconds.
    pub total_us: u64,
    /// Slowest single call, microseconds.
    pub max_us: u64,
}

impl StatsSnapshot {
    /// Mean per-call latency in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_us as f64 / self.calls as f64
        }
    }
}

impl StatsHandle {
    /// Read the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let latency = self.latency_us.snapshot();
        StatsSnapshot {
            calls: self.calls.get(),
            ok: self.ok.get(),
            err: self.err.get(),
            total_us: latency.sum,
            max_us: latency.max,
        }
    }

    /// The full latency distribution (p50/p95/p99/max readout).
    pub fn latency(&self) -> HistogramSnapshot {
        self.latency_us.snapshot()
    }
}

/// Wraps a service in call/latency counting.
#[derive(Clone, Default)]
pub struct StatsLayer {
    handle: StatsHandle,
}

impl StatsLayer {
    /// A fresh layer with its own private counters.
    pub fn new() -> StatsLayer {
        StatsLayer::default()
    }

    /// A layer whose counters are registered in `registry` under
    /// `{prefix}_calls_total`, `{prefix}_ok_total`,
    /// `{prefix}_errors_total`, and `{prefix}_latency_us` — so the
    /// stack's request counters render in the same exposition as the
    /// rest of the process.
    pub fn in_registry(registry: &Registry, prefix: &str) -> StatsLayer {
        StatsLayer {
            handle: StatsHandle {
                calls: registry.counter(&format!("{prefix}_calls_total")),
                ok: registry.counter(&format!("{prefix}_ok_total")),
                err: registry.counter(&format!("{prefix}_errors_total")),
                latency_us: registry.histogram(&format!("{prefix}_latency_us")),
            },
        }
    }

    /// The handle observers read; clone it before wrapping.
    pub fn handle(&self) -> StatsHandle {
        self.handle.clone()
    }
}

impl<S: Service> Layer<S> for StatsLayer {
    type Out = Stats<S>;
    fn wrap(&self, inner: S) -> Stats<S> {
        Stats {
            inner,
            handle: self.handle.clone(),
        }
    }
}

/// The [`StatsLayer`] service.
pub struct Stats<S> {
    inner: S,
    handle: StatsHandle,
}

impl<S: Service> Service for Stats<S> {
    fn call(&self, req: Request, ctx: &CallCtx) -> Result<Response, NetError> {
        let span = ctx.span("stats");
        let start = Instant::now();
        let result = self.inner.call(req, ctx);
        let elapsed_us = start.elapsed().as_micros() as u64;
        let h = &self.handle;
        h.calls.inc();
        h.latency_us.record(elapsed_us);
        match &result {
            Ok(_) => h.ok.inc(),
            Err(_) => h.err.inc(),
        };
        span.verdict_result(&result, "err");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{service_fn, ServiceExt};
    use irs_core::time::TimeMs;

    #[test]
    fn counts_outcomes_and_latency() {
        let layer = StatsLayer::new();
        let handle = layer.handle();
        let svc = service_fn(|req, _ctx: &CallCtx| match req {
            Request::Ping => Ok(Response::Pong),
            _ => Err(NetError::Frame("only ping")),
        })
        .layered(layer);
        let ctx = CallCtx::at(TimeMs(0));
        for _ in 0..3 {
            svc.call(Request::Ping, &ctx).unwrap();
        }
        let _ = svc.call(Request::FetchSnapshot, &ctx);
        let snap = handle.snapshot();
        assert_eq!(snap.calls, 4);
        assert_eq!(snap.ok, 3);
        assert_eq!(snap.err, 1);
        assert!(snap.max_us >= snap.total_us / 4);
        assert!(snap.mean_us() <= snap.max_us as f64);
        // The histogram behind the snapshot agrees with it.
        let latency = handle.latency();
        assert_eq!(latency.count, 4);
        assert!(latency.p99() >= latency.p50());
    }

    #[test]
    fn handle_outlives_the_boxed_stack() {
        let layer = StatsLayer::new();
        let handle = layer.handle();
        let boxed = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong))
            .layered(layer)
            .boxed();
        boxed.call(Request::Ping, &CallCtx::at(TimeMs(0))).unwrap();
        assert_eq!(handle.snapshot().calls, 1);
    }

    #[test]
    fn registry_backed_layer_renders_in_exposition() {
        let registry = Registry::new();
        let layer = StatsLayer::in_registry(&registry, "irs_stack");
        let svc = service_fn(|_req, _ctx: &CallCtx| Ok(Response::Pong)).layered(layer);
        let ctx = CallCtx::at(TimeMs(0));
        svc.call(Request::Ping, &ctx).unwrap();
        svc.call(Request::Ping, &ctx).unwrap();
        let parsed = irs_obs::parse_exposition(&registry.render());
        assert_eq!(parsed["irs_stack_calls_total"], 2.0);
        assert_eq!(parsed["irs_stack_ok_total"], 2.0);
        assert_eq!(parsed["irs_stack_errors_total"], 0.0);
        assert_eq!(parsed["irs_stack_latency_us_count"], 2.0);
    }
}
