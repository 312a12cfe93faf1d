//! Deterministic discrete-event network simulation.
//!
//! The paper's latency and load arguments (§4.3, §4.4) are about an
//! Internet-scale deployment we obviously cannot stand up; this crate is
//! the substitute substrate (DESIGN.md §2): a seeded, bit-reproducible
//! event simulator with latency distributions calibrated to the sources
//! the paper cites (DNSPerf-style resolver latencies \[12\], Oblivious-DNS
//! overheads \[26\], HTTP-Archive page-load distributions \[5\]).
//!
//! * [`sim`] — the event loop: a time-ordered queue of closures over a
//!   user-supplied world type, with stable FIFO tie-breaking so runs are
//!   exactly reproducible;
//! * [`latency`] — latency models (constant, uniform, log-normal,
//!   empirical) and link/topology helpers;
//! * [`metrics`] — histograms and percentile summaries used by every
//!   experiment;
//! * [`queue`] — a c-server FIFO queue coupling ledger load to latency.

pub mod latency;
pub mod metrics;
pub mod queue;
pub mod sim;

pub use latency::{LatencyModel, Link};
pub use metrics::{Histogram, Summary};
pub use queue::QueueingServer;
pub use sim::Sim;
