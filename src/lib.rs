//! # IRS — the Internet Revocation System
//!
//! A complete, from-scratch reproduction of *Global Content Revocation on
//! the Internet: A Case Study in Technology Ecosystem Transformation*
//! (Galstyan, McCauley, Farid, Ratnasamy, Shenker — HotNets '22).
//!
//! IRS lets the owner of a photograph **claim** it in a ledger at capture
//! time, **label** it (metadata + robust watermark), later **revoke** it,
//! and have every well-behaved browser, proxy, and content aggregator
//! **validate** the label before displaying, saving, or resharing the
//! photo. The paper proposes a two-phase deployment: a bootstrap phase
//! carried by privacy-focused browser vendors (with anonymizing proxies
//! and Bloom filters keeping latency and ledger load down) that grows the
//! ecosystem until incumbent content aggregators adopt IRS out of
//! self-interest — *technology ecosystem transformation*.
//!
//! This crate is a facade over the workspace:
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`protocol`] | `irs-core` | identifiers, claims, revocation, labels, freshness proofs, wire codec |
//! | [`crypto`] | `irs-crypto` | SHA-256/512, Ed25519 (RFC 8032) — built from scratch |
//! | [`filters`] | `irs-filters` | Bloom and fuse filters (xor is the fuse core's one-window layout), delta updates, the tiered publication |
//! | [`imaging`] | `irs-imaging` | synthetic photos, JPEG-style transcode, DWT–DCT watermark, perceptual hash |
//! | [`ledger`] | `irs-ledger` | the ledger service, appeals, adversarial variants, probes |
//! | [`proxy`] | `irs-proxy` | anonymizing proxy: cache + per-ledger filters |
//! | [`browser`] | `irs-browser` | validation engine, page-load pipeline, scroll model |
//! | [`aggregator`] | `irs-aggregator` | eventual-solution upload pipeline + rechecks |
//! | [`attacks`] | `irs-attacks` | §5 attacks and defenses, runnable |
//! | [`tet`] | `irs-tet` | adoption-dynamics model of the TET argument |
//! | [`workload`] | `irs-workload` | populations, Zipf traces, page models |
//! | [`simnet`] | `irs-simnet` | deterministic discrete-event simulator |
//! | [`obs`] | `irs-obs` | lock-free metrics registry + span tracing |
//! | [`net`] | `irs-net` | real TCP ledger/proxy prototype |
//!
//! ## Quickstart
//!
//! ```
//! use irs::protocol::{Camera, TimestampAuthority, RevocationStatus};
//! use irs::protocol::wire::{Request, Response};
//! use irs::protocol::time::TimeMs;
//! use irs::ledger::{Ledger, LedgerConfig};
//! use irs::protocol::ids::LedgerId;
//!
//! // A ledger and a camera.
//! let ledger = Ledger::new(LedgerConfig::new(LedgerId(1)),
//!                          TimestampAuthority::from_seed(1));
//! let mut camera = Camera::new(7, 256, 256);
//!
//! // Claim a photo.
//! let shot = camera.capture(1_000);
//! let Response::Claimed { id, .. } =
//!     ledger.handle(Request::Claim(shot.claim), TimeMs(1_000)) else { panic!() };
//!
//! // Revoke it.
//! let revoke = irs::protocol::RevokeRequest::create(&shot.keypair, id, true, 0);
//! ledger.handle(Request::Revoke(revoke), TimeMs(2_000));
//!
//! // Validation now blocks it.
//! let Response::Status { status, .. } =
//!     ledger.handle(Request::Query { id }, TimeMs(3_000)) else { panic!() };
//! assert_eq!(status, RevocationStatus::Revoked);
//! ```

/// Core protocol types (re-export of `irs-core`).
pub mod protocol {
    pub use irs_core::*;
}

/// Cryptographic substrate (re-export of `irs-crypto`).
pub mod crypto {
    pub use irs_crypto::*;
}

/// Probabilistic filters (re-export of `irs-filters`).
pub mod filters {
    pub use irs_filters::*;
}

/// Imaging substrate (re-export of `irs-imaging`).
pub mod imaging {
    pub use irs_imaging::*;
}

/// Ledger service (re-export of `irs-ledger`).
pub mod ledger {
    pub use irs_ledger::*;
}

/// Anonymizing proxy (re-export of `irs-proxy`).
pub mod proxy {
    pub use irs_proxy::*;
}

/// Browser-side support (re-export of `irs-browser`).
pub mod browser {
    pub use irs_browser::*;
}

/// Content aggregator (re-export of `irs-aggregator`).
pub mod aggregator {
    pub use irs_aggregator::*;
}

/// Attack scenarios (re-export of `irs-attacks`).
pub mod attacks {
    pub use irs_attacks::*;
}

/// TET adoption dynamics (re-export of `irs-tet`).
pub mod tet {
    pub use irs_tet::*;
}

/// Workload generation (re-export of `irs-workload`).
pub mod workload {
    pub use irs_workload::*;
}

/// Discrete-event simulation (re-export of `irs-simnet`).
pub mod simnet {
    pub use irs_simnet::*;
}

/// Observability: metrics registry + span tracing (re-export of `irs-obs`).
pub mod obs {
    pub use irs_obs::*;
}

/// Real TCP prototype (re-export of `irs-net`).
pub mod net {
    pub use irs_net::*;
}
