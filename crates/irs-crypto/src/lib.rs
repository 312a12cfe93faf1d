//! Cryptographic substrate for the Internet Revocation System (IRS).
//!
//! The IRS reproduction deliberately avoids external cryptography crates, so
//! this crate implements the primitives the paper's protocol needs from
//! scratch:
//!
//! * [`sha256`](mod@sha256) / [`sha512`](mod@sha512) — FIPS 180-4 hash
//!   functions, used for photo hashes, record digests, and inside Ed25519.
//! * [`ed25519`] — RFC 8032 Ed25519 signatures, used for ownership claims,
//!   revocation requests, timestamp-authority countersignatures, and ledger
//!   freshness proofs.
//! * [`hex`] — hex encoding/decoding for identifiers in logs and examples.
//!
//! # Security caveats
//!
//! This is research code supporting a systems reproduction, **not** a
//! hardened cryptographic library. In particular field and scalar arithmetic
//! are *not* constant time: scalar multiplication reads precomputed tables
//! at secret-indexed positions (signing walks a base-point table by the
//! digits of the secret nonce), and no zeroization of secrets is performed.
//! The algorithms themselves are the standard ones (ref10's table and
//! addition chains, Barrett reduction mod L) in portable safe Rust, and are
//! validated against the RFC 8032 and FIPS 180-4 test vectors, a golden
//! corpus from an independent implementation, and double-and-add oracles in
//! the unit tests.

#![forbid(unsafe_code)]

pub mod ed25519;
pub mod hex;
pub mod sha256;
pub mod sha512;

mod field;
mod point;
mod scalar;

pub use ed25519::{Keypair, PublicKey, SecretKey, Signature, SignatureError};
pub use sha256::{sha256, Sha256};
pub use sha512::{sha512, Sha512};

/// A 32-byte digest, the universal "hash of a photo / record" type in IRS.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Hash arbitrary bytes with SHA-256.
    pub fn of(data: &[u8]) -> Self {
        Digest(sha256(data))
    }

    /// Hash the concatenation of several byte strings, each length-prefixed
    /// so that the encoding is injective (no extension/concat ambiguity).
    pub fn of_parts(parts: &[&[u8]]) -> Self {
        let mut h = Sha256::new();
        for p in parts {
            h.update(&(p.len() as u64).to_be_bytes());
            h.update(p);
        }
        Digest(h.finalize())
    }

    /// The zero digest; used as a sentinel in a few wire messages.
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// Borrow the raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// First 8 bytes interpreted as a big-endian integer. Handy for
    /// hash-based sharding and filter keys.
    pub fn prefix_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().expect("8 bytes"))
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest({}…)", &hex::encode(&self.0[..6]))
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&hex::encode(&self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_of_parts_is_injective_wrt_boundaries() {
        let a = Digest::of_parts(&[b"ab", b"c"]);
        let b = Digest::of_parts(&[b"a", b"bc"]);
        let c = Digest::of_parts(&[b"abc"]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn digest_display_roundtrip() {
        let d = Digest::of(b"hello");
        let s = d.to_string();
        assert_eq!(s.len(), 64);
        assert_eq!(hex::decode(&s).unwrap(), d.0.to_vec());
    }

    #[test]
    fn digest_prefix_u64_is_big_endian() {
        let mut raw = [0u8; 32];
        raw[0] = 0x01;
        raw[7] = 0xff;
        assert_eq!(Digest(raw).prefix_u64(), 0x0100_0000_0000_00ff);
    }
}
