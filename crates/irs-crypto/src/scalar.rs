//! Arithmetic modulo the Ed25519 group order
//! L = 2^252 + 27742317777372353535851937790883648493.
//!
//! Scalars are four little-endian u64 limbs, always kept fully reduced
//! (< L). Wide (512-bit) reduction is Barrett's: two limb products and at
//! most two subtractions of L.

/// L as little-endian limbs.
const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// ⌊2^512 / L⌋, the Barrett constant of [`reduce_wide`].
const MU: [u64; 5] = [
    0xed9c_e5a3_0a2c_131b,
    0x2106_215d_0863_29a7,
    0xffff_ffff_ffff_ffeb,
    0xffff_ffff_ffff_ffff,
    0x0000_0000_0000_000f,
];

/// A scalar in [0, L).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Scalar(pub [u64; 4]);

impl std::fmt::Debug for Scalar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Scalar({})", crate::hex::encode(&self.to_bytes()))
    }
}

impl Scalar {
    /// The zero scalar (used by tests and kept for API completeness).
    #[allow(dead_code)]
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);

    /// Parse 32 little-endian bytes, reducing mod L.
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Parse 32 little-endian bytes, rejecting values ≥ L (used to validate
    /// the S half of signatures, preventing malleability).
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        if lt4(&limbs, &L) {
            Some(Scalar(limbs))
        } else {
            None
        }
    }

    /// Reduce a 64-byte little-endian value mod L (RFC 8032 uses this on
    /// SHA-512 outputs).
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut n = [0u64; 8];
        for i in 0..8 {
            n[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        Scalar(reduce_wide(n))
    }

    /// Clamped secret scalar per RFC 8032 §5.1.5 (as raw limbs; clamped
    /// scalars may exceed L and are only used for scalar multiplication).
    pub fn clamped(bytes: &[u8; 32]) -> [u8; 32] {
        let mut b = *bytes;
        b[0] &= 0xf8;
        b[31] &= 0x7f;
        b[31] |= 0x40;
        b
    }

    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    pub fn add(self, other: Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        for (i, limb) in out.iter_mut().enumerate() {
            let s = self.0[i] as u128 + other.0[i] as u128 + carry;
            *limb = s as u64;
            carry = s >> 64;
        }
        debug_assert_eq!(carry, 0, "both inputs < L < 2^253");
        if !lt4(&out, &L) {
            sub4(&mut out, &L);
        }
        Scalar(out)
    }

    pub fn mul(self, other: Scalar) -> Scalar {
        let mut limbs = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let s = limbs[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                limbs[i + j] = s as u64;
                carry = s >> 64;
            }
            limbs[i + 4] = carry as u64;
        }
        Scalar(reduce_wide(limbs))
    }
}

/// Reduce a 512-bit value mod L by Barrett reduction (HAC 14.42 with
/// b = 2^64, k = 4): q = ⌊⌊n / b³⌋·μ / b⁵⌋ undershoots ⌊n / L⌋ by at most
/// 2, so n − q·L, computed mod b⁵, is below 3L.
fn reduce_wide(n: [u64; 8]) -> [u64; 4] {
    let mut q = [0u64; 10];
    for (i, &ni) in n[3..].iter().enumerate() {
        let mut carry = 0u128;
        for (j, &mj) in MU.iter().enumerate() {
            let s = q[i + j] as u128 + ni as u128 * mj as u128 + carry;
            q[i + j] = s as u64;
            carry = s >> 64;
        }
        q[i + 5] = carry as u64;
    }
    // q·L mod b⁵, from the quotient's top five limbs.
    let mut ql = [0u64; 5];
    for (i, &qi) in q[5..].iter().enumerate() {
        let mut carry = 0u128;
        for j in 0..5 - i {
            let lj = if j < 4 { L[j] } else { 0 };
            let s = ql[i + j] as u128 + qi as u128 * lj as u128 + carry;
            ql[i + j] = s as u64;
            carry = s >> 64;
        }
    }
    let mut r = [0u64; 5];
    let mut borrow = 0u64;
    for i in 0..5 {
        let (d, b1) = n[i].overflowing_sub(ql[i]);
        let (d, b2) = d.overflowing_sub(borrow);
        r[i] = d;
        borrow = u64::from(b1 | b2);
    }
    // The true difference is below 3L < 2^254, so the wrap mod b⁵ is
    // exact and limb 4 is zero.
    debug_assert_eq!(r[4], 0);
    let mut out = [r[0], r[1], r[2], r[3]];
    for _ in 0..2 {
        if !lt4(&out, &L) {
            sub4(&mut out, &L);
        }
    }
    debug_assert!(lt4(&out, &L));
    out
}

fn lt4(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn sub4(a: &mut [u64; 4], b: &[u64; 4]) {
    let mut borrow = 0i128;
    for i in 0..4 {
        let d = a[i] as i128 - b[i] as i128 - borrow;
        a[i] = d as u64;
        borrow = if d < 0 { 1 } else { 0 };
    }
    debug_assert_eq!(borrow, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Shift-and-subtract long division: the oracle for [`reduce_wide`].
    fn reduce_by_division(mut n: [u64; 8]) -> [u64; 4] {
        // m = L << 259 occupies bits [259, 512) — still 8 limbs.
        let mut m = [0u64; 8];
        m[4] = L[0] << 3;
        m[5] = (L[1] << 3) | (L[0] >> 61);
        m[6] = (L[2] << 3) | (L[1] >> 61);
        m[7] = (L[3] << 3) | (L[2] >> 61);
        for _ in 0..=259 {
            if !lt8(&n, &m) {
                sub8(&mut n, &m);
            }
            shr1(&mut m);
        }
        [n[0], n[1], n[2], n[3]]
    }

    fn lt8(a: &[u64; 8], b: &[u64; 8]) -> bool {
        for i in (0..8).rev() {
            if a[i] != b[i] {
                return a[i] < b[i];
            }
        }
        false
    }

    fn sub8(a: &mut [u64; 8], b: &[u64; 8]) {
        let mut borrow = 0i128;
        for i in 0..8 {
            let d = a[i] as i128 - b[i] as i128 - borrow;
            a[i] = d as u64;
            borrow = if d < 0 { 1 } else { 0 };
        }
        debug_assert_eq!(borrow, 0);
    }

    fn shr1(v: &mut [u64; 8]) {
        for i in 0..8 {
            let carry_in = if i + 1 < 8 { v[i + 1] & 1 } else { 0 };
            v[i] = (v[i] >> 1) | (carry_in << 63);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn barrett_matches_long_division(n in any::<[u8; 64]>()) {
            let n: [u64; 8] = std::array::from_fn(|i| {
                u64::from_le_bytes(n[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
            });
            prop_assert_eq!(reduce_wide(n), reduce_by_division(n));
        }

        #[test]
        fn barrett_matches_long_division_on_products(
            a in any::<[u8; 32]>(),
            b in any::<[u8; 32]>(),
        ) {
            let (a, b) = (Scalar::from_bytes_mod_order(&a), Scalar::from_bytes_mod_order(&b));
            let (a, b) = (a.0, b.0);
            // Scalar::mul's input shape: a product of two 256-bit values.
            let mut n = [0u64; 8];
            for i in 0..4 {
                let mut carry = 0u128;
                for j in 0..4 {
                    let s = n[i + j] as u128 + a[i] as u128 * b[j] as u128 + carry;
                    n[i + j] = s as u64;
                    carry = s >> 64;
                }
                n[i + 4] = carry as u64;
            }
            prop_assert_eq!(reduce_wide(n), reduce_by_division(n));
        }
    }

    #[test]
    fn barrett_matches_long_division_at_the_edges() {
        let wide = |low: [u64; 4], high: [u64; 4]| {
            let mut n = [0u64; 8];
            n[..4].copy_from_slice(&low);
            n[4..].copy_from_slice(&high);
            n
        };
        let mut l_minus_1 = L;
        l_minus_1[0] -= 1;
        let mut l_plus_1 = L;
        l_plus_1[0] += 1;
        let edges = [
            wide([0; 4], [0; 4]),
            wide(L, [0; 4]),
            wide(l_minus_1, [0; 4]),
            wide(l_plus_1, [0; 4]),
            wide([u64::MAX; 4], [0; 4]),
            wide([0; 4], L),
            wide(L, L),
            wide([u64::MAX; 4], [u64::MAX; 4]),
            wide([0; 4], [u64::MAX; 4]),
            wide([u64::MAX; 4], [0, 0, 0, 1 << 60]),
        ];
        for n in edges {
            assert_eq!(reduce_wide(n), reduce_by_division(n), "{n:x?}");
        }
        // (L − 1)² ≡ 1.
        let s = Scalar(l_minus_1);
        assert_eq!(s.mul(s), Scalar([1, 0, 0, 0]));
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        let s = Scalar::from_bytes_mod_order(&bytes);
        assert_eq!(s, Scalar::ZERO);
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical() {
        let mut limbs = L;
        limbs[0] -= 1;
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&limbs[i].to_le_bytes());
        }
        let s = Scalar::from_canonical_bytes(&bytes).expect("canonical");
        // (L − 1) + 1 ≡ 0
        let mut one = [0u8; 32];
        one[0] = 1;
        let one = Scalar::from_bytes_mod_order(&one);
        assert_eq!(s.add(one), Scalar::ZERO);
    }

    #[test]
    fn small_arithmetic() {
        let n = |v: u64| {
            let mut b = [0u8; 32];
            b[..8].copy_from_slice(&v.to_le_bytes());
            Scalar::from_bytes_mod_order(&b)
        };
        assert_eq!(n(3).mul(n(7)), n(21));
        assert_eq!(n(100).add(n(23)), n(123));
        assert_eq!(n(0).mul(n(7)), Scalar::ZERO);
    }

    #[test]
    fn wide_reduction_matches_iterated_small() {
        // 2^256 mod L computed two ways.
        let mut wide = [0u8; 64];
        wide[32] = 1; // 2^256
        let direct = Scalar::from_bytes_mod_order_wide(&wide);
        // 2^128 as a scalar, squared.
        let mut b = [0u8; 32];
        b[16] = 1;
        let s = Scalar::from_bytes_mod_order(&b);
        assert_eq!(s.mul(s), direct);
    }

    #[test]
    fn mul_commutes_and_distributes() {
        let mk = |seed: u64| {
            let mut b = [0u8; 32];
            for (i, chunk) in b.chunks_mut(8).enumerate() {
                chunk.copy_from_slice(&(seed.wrapping_mul(i as u64 + 1)).to_le_bytes());
            }
            b[31] &= 0x0f;
            Scalar::from_bytes_mod_order(&b)
        };
        for s in 1..20u64 {
            let a = mk(s);
            let b = mk(s.wrapping_mul(0x9e37_79b9));
            let c = mk(s.wrapping_mul(0x85eb_ca6b));
            assert_eq!(a.mul(b), b.mul(a));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }
    }

    #[test]
    fn clamping_sets_expected_bits() {
        let c = Scalar::clamped(&[0xffu8; 32]);
        assert_eq!(c[0] & 0x07, 0);
        assert_eq!(c[31] & 0x80, 0);
        assert_eq!(c[31] & 0x40, 0x40);
    }
}
