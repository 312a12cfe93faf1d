//! Ed25519 against fixed bytes: a golden corpus from an independent
//! implementation (`data/ed25519_golden.txt`, generator in its header)
//! and the encodings `verify` must reject, each with its error.

use irs_crypto::hex;
use irs_crypto::{Keypair, PublicKey, Signature, SignatureError};

/// L, the group order, little-endian.
const L: &str = "edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010";

struct Golden {
    seed: [u8; 32],
    message: Vec<u8>,
    public: [u8; 32],
    signature: [u8; 64],
}

fn golden() -> Vec<Golden> {
    include_str!("data/ed25519_golden.txt")
        .lines()
        .filter(|line| !line.starts_with('#'))
        .map(|line| {
            let fields: Vec<&str> = line.split(':').collect();
            assert_eq!(fields.len(), 4, "{line}");
            Golden {
                seed: hex::decode_array(fields[0]).expect("seed"),
                message: hex::decode(fields[1]).expect("message"),
                public: hex::decode_array(fields[2]).expect("public key"),
                signature: hex::decode_array(fields[3]).expect("signature"),
            }
        })
        .collect()
}

#[test]
fn golden_corpus_matches_byte_for_byte() {
    let corpus = golden();
    assert_eq!(corpus.len(), 64);
    assert_eq!(corpus.iter().map(|g| g.message.len()).min(), Some(0));
    assert_eq!(corpus.iter().map(|g| g.message.len()).max(), Some(300));
    for (i, g) in corpus.iter().enumerate() {
        let kp = Keypair::from_seed(&g.seed);
        assert_eq!(kp.public.0, g.public, "public key {i}");
        let sig = kp.sign(&g.message);
        assert_eq!(
            hex::encode(&sig.0),
            hex::encode(&g.signature),
            "signature {i}"
        );
        assert_eq!(
            kp.public.verify(&g.message, &Signature(g.signature)),
            Ok(())
        );
    }
}

/// A valid (key, message, signature) to corrupt.
fn signed() -> (PublicKey, Vec<u8>, Signature) {
    let g = golden().swap_remove(17);
    (PublicKey(g.public), g.message, Signature(g.signature))
}

/// A 32-byte encoding: `y` little-endian, then `top` OR-ed into byte 31.
fn encoding(y: u64, top: u8) -> [u8; 32] {
    let mut enc = [0u8; 32];
    enc[..8].copy_from_slice(&y.to_le_bytes());
    enc[31] |= top;
    enc
}

/// p + 1 = 2^255 − 18: a y ≥ p whose value mod p (1, the identity) would
/// decode.
fn non_canonical_y() -> [u8; 32] {
    let mut enc = [0xffu8; 32];
    enc[0] = 0xee;
    enc[31] = 0x7f;
    enc
}

#[test]
fn s_equal_to_l_is_non_canonical() {
    let (pk, msg, mut sig) = signed();
    sig.0[32..].copy_from_slice(&hex::decode(L).expect("L"));
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::NonCanonicalS));
}

#[test]
fn non_canonical_public_key_is_rejected() {
    let (_, msg, sig) = signed();
    let pk = PublicKey(non_canonical_y());
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::InvalidPublicKey));
}

#[test]
fn r_off_the_curve_is_rejected() {
    let (pk, msg, mut sig) = signed();
    // y = 2: (y² − 1)/(d·y² + 1) is not a square mod p.
    sig.0[..32].copy_from_slice(&encoding(2, 0));
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::InvalidR));
    // A non-canonical y and "−0" (x = 0 with the sign bit set) neither.
    sig.0[..32].copy_from_slice(&non_canonical_y());
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::InvalidR));
    sig.0[..32].copy_from_slice(&encoding(1, 0x80));
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::InvalidR));
}

#[test]
fn flipped_r_sign_bit_fails_the_equation() {
    let (pk, msg, mut sig) = signed();
    sig.0[31] ^= 0x80; // −R: still on the curve
    assert_eq!(pk.verify(&msg, &sig), Err(SignatureError::BadSignature));
}

#[test]
fn verification_stays_cofactorless() {
    // The identity key with R = identity and S = 0 satisfies
    // [0]B == O + [k]O for every message: the cofactorless equation
    // accepts it, as it always has.
    let pk = PublicKey(encoding(1, 0));
    let mut sig = [0u8; 64];
    sig[..32].copy_from_slice(&encoding(1, 0));
    for msg in [&b""[..], b"any message at all"] {
        assert_eq!(pk.verify(msg, &Signature(sig)), Ok(()));
    }
}
