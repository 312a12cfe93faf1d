//! Ed25519 signatures (RFC 8032), built on the from-scratch field, scalar,
//! and point arithmetic in this crate.
//!
//! IRS uses these signatures for:
//! * **ownership claims** — the per-photo key signs the photo hash (the
//!   paper's "encrypt the hash with the private key");
//! * **revocation requests** — proof of ownership is a signature with the
//!   claim key;
//! * **timestamp tokens** — the timestamp authority countersigns claims;
//! * **freshness proofs** — ledgers sign recent validation results.

use crate::point::Point;
use crate::scalar::Scalar;
use crate::sha512::Sha512;
use rand::RngCore;

/// A 32-byte Ed25519 public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PublicKey(pub [u8; 32]);

/// A 32-byte Ed25519 secret seed.
#[derive(Clone)]
pub struct SecretKey(pub [u8; 32]);

/// A 64-byte Ed25519 signature (R ‖ S).
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature(pub [u8; 64]);

/// Errors from signature verification or key parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The public key bytes do not decode to a curve point.
    InvalidPublicKey,
    /// The R component does not decode to a curve point.
    InvalidR,
    /// The S component is not a canonical scalar (< L).
    NonCanonicalS,
    /// The verification equation failed.
    BadSignature,
}

impl std::fmt::Display for SignatureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SignatureError::InvalidPublicKey => write!(f, "invalid public key"),
            SignatureError::InvalidR => write!(f, "invalid signature R component"),
            SignatureError::NonCanonicalS => write!(f, "non-canonical signature S component"),
            SignatureError::BadSignature => write!(f, "signature verification failed"),
        }
    }
}

impl std::error::Error for SignatureError {}

impl std::fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PublicKey({}…)", &crate::hex::encode(&self.0[..6]))
    }
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SecretKey(…)")
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature({}…)", &crate::hex::encode(&self.0[..6]))
    }
}

/// An Ed25519 keypair. In IRS a fresh keypair is generated *per photo* by
/// the camera, so the keypair — not any user account — is the root of
/// ownership (Goal #1(iv): owner anonymity).
#[derive(Clone, Debug)]
pub struct Keypair {
    /// Secret seed.
    pub secret: SecretKey,
    /// Derived public key.
    pub public: PublicKey,
}

impl Keypair {
    /// Generate a keypair from a cryptographically secure RNG.
    pub fn generate<R: RngCore>(rng: &mut R) -> Keypair {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        Keypair::from_seed(&seed)
    }

    /// Derive the keypair deterministically from a 32-byte seed
    /// (RFC 8032 §5.1.5).
    pub fn from_seed(seed: &[u8; 32]) -> Keypair {
        let h = crate::sha512::sha512(seed);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&h[..32]);
        let s = Scalar::clamped(&s_bytes);
        let a = Point::mul_base(&s);
        Keypair {
            secret: SecretKey(*seed),
            public: PublicKey(a.compress()),
        }
    }

    /// Sign a message (RFC 8032 §5.1.6).
    pub fn sign(&self, message: &[u8]) -> Signature {
        let h = crate::sha512::sha512(&self.secret.0);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&h[..32]);
        let s_clamped = Scalar::clamped(&s_bytes);
        let s = Scalar::from_bytes_mod_order(&s_clamped);
        let prefix = &h[32..64];

        let mut hasher = Sha512::new();
        hasher.update(prefix);
        hasher.update(message);
        let r = Scalar::from_bytes_mod_order_wide(&hasher.finalize());
        let r_point = Point::mul_base(&r.to_bytes()).compress();

        let mut hasher = Sha512::new();
        hasher.update(&r_point);
        hasher.update(&self.public.0);
        hasher.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&hasher.finalize());

        let s_sig = r.add(k.mul(s));
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(&r_point);
        sig[32..].copy_from_slice(&s_sig.to_bytes());
        Signature(sig)
    }
}

impl PublicKey {
    /// Verify a signature over `message` (RFC 8032 §5.1.7, cofactorless).
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        let a = Point::decompress(&self.0).ok_or(SignatureError::InvalidPublicKey)?;
        let r_bytes: [u8; 32] = sig.0[..32].try_into().expect("32 bytes");
        let s_bytes: [u8; 32] = sig.0[32..].try_into().expect("32 bytes");
        let r = Point::decompress(&r_bytes).ok_or(SignatureError::InvalidR)?;
        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(SignatureError::NonCanonicalS)?;

        let mut hasher = Sha512::new();
        hasher.update(&r_bytes);
        hasher.update(&self.0);
        hasher.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&hasher.finalize());

        // [S]B == R + [k]A, checked as [S]B − [k]A == R
        if Point::mul_base_minus(&s.to_bytes(), &a, &k.to_bytes()).equals(&r) {
            Ok(())
        } else {
            Err(SignatureError::BadSignature)
        }
    }

    /// `true` iff the signature verifies; convenience for call sites that
    /// do not care which way verification failed.
    pub fn verify_ok(&self, message: &[u8], sig: &Signature) -> bool {
        self.verify(message, sig).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn seed(s: &str) -> [u8; 32] {
        hex::decode_array(s).expect("seed hex")
    }

    // RFC 8032 §7.1 TEST 1
    #[test]
    fn rfc8032_test1_empty_message() {
        let kp = Keypair::from_seed(&seed(
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a"
        );
        let sig = kp.sign(b"");
        assert_eq!(
            hex::encode(&sig.0),
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
        );
        kp.public.verify(b"", &sig).expect("verifies");
    }

    // RFC 8032 §7.1 TEST 2
    #[test]
    fn rfc8032_test2_one_byte() {
        let kp = Keypair::from_seed(&seed(
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c"
        );
        let msg = [0x72u8];
        let sig = kp.sign(&msg);
        assert_eq!(
            hex::encode(&sig.0),
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
        );
        kp.public.verify(&msg, &sig).expect("verifies");
    }

    // RFC 8032 §7.1 TEST 3
    #[test]
    fn rfc8032_test3_two_bytes() {
        let kp = Keypair::from_seed(&seed(
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
        ));
        assert_eq!(
            hex::encode(&kp.public.0),
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025"
        );
        let msg = [0xafu8, 0x82];
        let sig = kp.sign(&msg);
        assert_eq!(
            hex::encode(&sig.0),
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
        );
        kp.public.verify(&msg, &sig).expect("verifies");
    }

    #[test]
    fn wrong_message_rejected() {
        let kp = Keypair::from_seed(&[7u8; 32]);
        let sig = kp.sign(b"the real message");
        assert_eq!(
            kp.public.verify(b"a forged message", &sig),
            Err(SignatureError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let kp1 = Keypair::from_seed(&[1u8; 32]);
        let kp2 = Keypair::from_seed(&[2u8; 32]);
        let sig = kp1.sign(b"msg");
        assert!(kp2.public.verify(b"msg", &sig).is_err());
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = Keypair::from_seed(&[9u8; 32]);
        let sig = kp.sign(b"msg");
        for i in [0usize, 31, 32, 63] {
            let mut bad = sig;
            bad.0[i] ^= 0x01;
            assert!(kp.public.verify(b"msg", &bad).is_err(), "byte {i}");
        }
    }

    #[test]
    fn non_canonical_s_rejected() {
        let kp = Keypair::from_seed(&[3u8; 32]);
        let sig = kp.sign(b"msg");
        let mut bad = sig;
        // Force S ≥ L by setting its top byte to 0xff.
        bad.0[63] = 0xff;
        assert_eq!(
            kp.public.verify(b"msg", &bad),
            Err(SignatureError::NonCanonicalS)
        );
    }

    #[test]
    fn generate_roundtrip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let kp = Keypair::generate(&mut rng);
        let sig = kp.sign(b"generated key");
        kp.public.verify(b"generated key", &sig).expect("verifies");
    }

    #[test]
    fn deterministic_signatures() {
        let kp = Keypair::from_seed(&[11u8; 32]);
        assert_eq!(kp.sign(b"x").0[..], kp.sign(b"x").0[..]);
    }
}
