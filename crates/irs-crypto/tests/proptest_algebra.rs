//! Property tests on the cryptographic algebra: signatures as a black box
//! (the field/scalar internals are private; their laws are asserted via
//! the signature scheme's behavior, plus the hash functions' stability).

use irs_crypto::{sha256, sha512, Digest, Keypair};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sign/verify succeeds for arbitrary seeds and messages.
    #[test]
    fn sign_verify_total(seed in any::<[u8; 32]>(), msg in prop::collection::vec(any::<u8>(), 0..300)) {
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(kp.public.verify_ok(&msg, &sig));
    }

    /// Signatures are deterministic (Ed25519 is): same seed+message ⇒
    /// identical bytes.
    #[test]
    fn signing_is_deterministic(seed in any::<[u8; 32]>(), msg in prop::collection::vec(any::<u8>(), 0..64)) {
        let kp1 = Keypair::from_seed(&seed);
        let kp2 = Keypair::from_seed(&seed);
        prop_assert_eq!(kp1.sign(&msg).0.to_vec(), kp2.sign(&msg).0.to_vec());
        prop_assert_eq!(kp1.public, kp2.public);
    }

    /// A signature never verifies under a different message.
    #[test]
    fn signature_binds_message(
        seed in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 1..100),
        other in prop::collection::vec(any::<u8>(), 1..100),
    ) {
        prop_assume!(msg != other);
        let kp = Keypair::from_seed(&seed);
        let sig = kp.sign(&msg);
        prop_assert!(!kp.public.verify_ok(&other, &sig));
    }

    /// A signature never verifies under a different key.
    #[test]
    fn signature_binds_key(
        seed1 in any::<[u8; 32]>(),
        seed2 in any::<[u8; 32]>(),
        msg in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assume!(seed1 != seed2);
        let kp1 = Keypair::from_seed(&seed1);
        let kp2 = Keypair::from_seed(&seed2);
        let sig = kp1.sign(&msg);
        prop_assert!(!kp2.public.verify_ok(&msg, &sig));
    }

    /// Hash functions: deterministic, length-fixed, and sensitive to every
    /// byte position we flip.
    #[test]
    fn hashes_are_injective_under_bit_flips(
        data in prop::collection::vec(any::<u8>(), 1..200),
        pos in any::<prop::sample::Index>(),
    ) {
        let i = pos.index(data.len());
        let mut mutated = data.clone();
        mutated[i] ^= 0x01;
        prop_assert_ne!(sha256(&data), sha256(&mutated));
        prop_assert_ne!(sha512(&data).to_vec(), sha512(&mutated).to_vec());
    }

    /// Streaming SHA-256 equals one-shot for any split point.
    #[test]
    fn sha256_streaming_consistent(
        data in prop::collection::vec(any::<u8>(), 0..500),
        split in any::<prop::sample::Index>(),
    ) {
        let s = split.index(data.len() + 1);
        let mut h = irs_crypto::Sha256::new();
        h.update(&data[..s]);
        h.update(&data[s..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Digest::of_parts is injective across boundary placements.
    #[test]
    fn digest_parts_boundary_sensitive(
        a in prop::collection::vec(any::<u8>(), 1..20),
        b in prop::collection::vec(any::<u8>(), 1..20),
    ) {
        let joined: Vec<u8> = a.iter().chain(b.iter()).copied().collect();
        let split = Digest::of_parts(&[&a, &b]);
        let whole = Digest::of_parts(&[&joined]);
        prop_assert_ne!(split, whole);
    }
}
