//! Probabilistic membership filters for the IRS bootstrap design (§4.4 of
//! the paper).
//!
//! Proxies (and optionally browsers) hold a filter over all *revoked* photo
//! identifiers so that the common case — a labeled photo that is claimed
//! but not revoked — can be answered locally, and only filter hits
//! generate real ledger queries. The paper sizes this as
//! "a 1 GB filter … 2 % false-hit rate with a population of 1 billion
//! photos, thereby lessening the load on ledgers by a factor of fifty".
//!
//! This crate provides:
//!
//! * [`bloom::BloomFilter`] — the standard Bloom filter the paper's sizing
//!   argument assumes, with byte-level serialization;
//! * [`fuse::Fuse8`] / [`fuse::Fuse16`] — static fuse-graph filters sized
//!   as binary fuse filters \[16\] (see module docs for construction
//!   fidelity); `build_xor` lays the same construction out as an xor
//!   filter (Graf & Lemire, cited with \[16\] as "more recent advances"
//!   \[15\]), one window of three equal segments;
//! * [`delta`] — delta encoding of Bloom filter updates, for the paper's
//!   "transferred with a delta encoding such that the update traffic will
//!   be low" (hourly refresh, §4.4);
//! * [`tiered`] — the one publication pipeline: a frozen fuse8 base
//!   sealed per epoch plus a small Bloom delta for churn since the seal,
//!   with background compaction rolling the epoch (DESIGN.md §16), and
//!   [`Publication`], the one type for a ledger's filter answer from
//!   the serve matrix through the wire to every `FilterSet`. Until
//!   the first seal a tier is just its delta Bloom — the paper's filter —
//!   and un-revocation needs no counters: each publish re-covers
//!   `revoked \ base` from scratch.
//!
//! All filters share the [`Filter`] trait and key on `u64` values; callers
//! mix record identifiers down to 64 bits with [`hash::mix_seeded`] (see
//! `irs_core::RecordId::filter_key`).

pub mod analysis;
pub mod bloom;
pub mod delta;
pub mod fuse;
pub mod hash;
pub mod tiered;

pub use bloom::BloomFilter;
pub use fuse::{Fuse16, Fuse8};
pub use tiered::{
    Publication, PublishOutcome, TieredConfig, TieredFilter, TieredPublisher, TieredSnapshot,
};

/// An approximate membership filter: never a false negative for inserted
/// keys, false positives at the filter's design rate.
pub trait Filter {
    /// `true` if `key` *may* have been inserted; `false` means definitely
    /// not inserted.
    fn contains(&self, key: u64) -> bool;

    /// Size of the filter's payload in bits (excluding struct overhead);
    /// used by the space-efficiency experiments (E4/E12).
    fn bits(&self) -> u64;
}

/// Errors from filter construction or decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// Static construction (fuse peeling, either layout) failed after all retries —
    /// statistically negligible for correct sizing, but surfaced rather
    /// than looping forever.
    ConstructionFailed,
    /// Byte payload too short or structurally invalid.
    Malformed(&'static str),
    /// Parameters out of range (e.g. zero bits, zero hashes).
    BadParams(&'static str),
    /// Duplicate keys passed to a static filter builder.
    DuplicateKeys,
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterError::ConstructionFailed => write!(f, "static filter construction failed"),
            FilterError::Malformed(what) => write!(f, "malformed filter encoding: {what}"),
            FilterError::BadParams(what) => write!(f, "bad filter parameters: {what}"),
            FilterError::DuplicateKeys => write!(f, "duplicate keys in static filter input"),
        }
    }
}

impl std::error::Error for FilterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_object_usable() {
        let mut b = BloomFilter::for_capacity(100, 0.01).unwrap();
        b.insert(42);
        let f: &dyn Filter = &b;
        assert!(f.contains(42));
        assert!(f.bits() > 0);
    }
}
