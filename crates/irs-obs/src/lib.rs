//! Observability for the validate pipeline: a dependency-free metrics
//! registry plus span-style request tracing.
//!
//! Two halves, built for two audiences:
//!
//! * [`metrics`] answers *"how is the system doing overall?"* — named
//!   [`Counter`]s, [`Gauge`]s, and log₂-bucketed latency
//!   [`Histogram`]s in a [`Registry`], all lock-free on the hot path
//!   (relaxed atomics; counters are cache-line sharded so eight
//!   threads incrementing the same name never bounce one line).
//!   [`Registry::render`] produces Prometheus-style text exposition,
//!   which `irs-net` serves over the wire as `Request::Metrics`.
//!
//! * [`trace`] answers *"where did THIS request spend its time?"* — a
//!   [`SpanRecorder`] rides along in the per-call context; each layer
//!   on the request path records an enter/exit span with a verdict,
//!   and [`SpanRecorder::breakdown`] turns the nested spans into a
//!   per-layer self-time attribution table (E18 prints it).
//!
//! Design rule: **zero cost when off**. A request with no recorder
//! attached pays one `Option` check per layer; metrics increments are
//! single relaxed atomic adds. E18 keeps the ledger honest (<3% p99
//! overhead on its 7:1 query : proof workload).

pub mod metrics;
pub mod trace;

pub use metrics::{
    parse_exposition, Counter, Gauge, Histogram, HistogramSnapshot, Metric, Registry,
};
pub use trace::{LayerBreakdown, MaybeSpan, Span, SpanGuard, SpanRecorder, TraceId};
