//! Arithmetic in GF(2^255 − 19), the base field of Curve25519.
//!
//! Elements are four 64-bit little-endian limbs kept *almost reduced*
//! (< 2^256); canonical form (< p) is produced on serialization and
//! comparison. Not constant time — see the crate-level caveat.

/// p = 2^255 − 19 as limbs.
const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

/// An element of GF(2^255 − 19).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Fe(pub [u64; 4]);

impl std::fmt::Debug for Fe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = self.to_bytes();
        write!(f, "Fe({})", crate::hex::encode(&b))
    }
}

impl Fe {
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// Construct from a small integer.
    #[cfg(test)]
    pub fn from_u64(v: u64) -> Fe {
        Fe([v, 0, 0, 0])
    }

    /// Parse 32 little-endian bytes; the top bit is ignored (mask 2^255),
    /// per the usual Curve25519 convention.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            limbs[i] = u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"));
        }
        limbs[3] &= 0x7fff_ffff_ffff_ffff;
        Fe(limbs)
    }

    /// Like [`Fe::from_bytes`] but rejects non-canonical encodings (≥ p).
    pub fn from_bytes_canonical(bytes: &[u8; 32]) -> Option<Fe> {
        let fe = Fe::from_bytes(bytes);
        if bytes[31] & 0x80 != 0 || !lt(&fe.0, &P) {
            None
        } else {
            Some(fe)
        }
    }

    /// Serialize to canonical 32 little-endian bytes (value fully reduced).
    pub fn to_bytes(self) -> [u8; 32] {
        let r = self.reduced();
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&r.0[i].to_le_bytes());
        }
        out
    }

    /// Fully reduce into [0, p).
    pub fn reduced(self) -> Fe {
        let mut v = self.0;
        // Almost-reduced values are < 2^256 < 4p + 76, so at most two
        // subtractions of p plus a fold of bit 255 are needed. Folding bit
        // 255 first: 2^255 ≡ 19.
        let top = v[3] >> 63;
        v[3] &= 0x7fff_ffff_ffff_ffff;
        add_small(&mut v, top * 19);
        // Now v < 2^255 + 19·2 ⇒ subtract p at most twice.
        for _ in 0..2 {
            if !lt(&v, &P) {
                sub_in_place(&mut v, &P);
            }
        }
        Fe(v)
    }

    pub fn is_zero(self) -> bool {
        self.reduced().0 == [0, 0, 0, 0]
    }

    /// The parity (lowest bit) of the canonical representative; this is the
    /// "sign" bit used in point compression.
    pub fn is_negative(self) -> bool {
        self.reduced().0[0] & 1 == 1
    }

    pub fn add(self, other: Fe) -> Fe {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        for (i, limb) in out.iter_mut().enumerate() {
            let s = self.0[i] as u128 + other.0[i] as u128 + carry;
            *limb = s as u64;
            carry = s >> 64;
        }
        // 2^256 ≡ 38 (mod p)
        add_small(&mut out, (carry as u64) * 38);
        Fe(out)
    }

    pub fn sub(self, other: Fe) -> Fe {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        for (i, limb) in out.iter_mut().enumerate() {
            let (d, b1) = self.0[i].overflowing_sub(other.0[i]);
            let (d, b2) = d.overflowing_sub(borrow);
            *limb = d;
            borrow = u64::from(b1 | b2);
        }
        // A wrap added 2^256 ≡ 38, so take 38 back off; that can wrap once
        // more (only from a value below 38), which the second pass repays.
        for _ in 0..2 {
            if borrow == 0 {
                break;
            }
            let (d, b) = out[0].overflowing_sub(38);
            out[0] = d;
            borrow = u64::from(b);
            for limb in out.iter_mut().skip(1) {
                let (d, b) = limb.overflowing_sub(borrow);
                *limb = d;
                borrow = u64::from(b);
            }
        }
        Fe(out)
    }

    pub fn neg(self) -> Fe {
        Fe::ZERO.sub(self)
    }

    pub fn mul(self, other: Fe) -> Fe {
        // Schoolbook 4×4 → 8 limbs, row-wise with a per-row carry. The
        // accumulation `limb + a·b + carry` maxes out at exactly 2^128 − 1,
        // so each step fits in u128.
        let mut limbs = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0u128;
            for j in 0..4 {
                let s = limbs[i + j] as u128 + self.0[i] as u128 * other.0[j] as u128 + carry;
                limbs[i + j] = s as u64;
                carry = s >> 64;
            }
            // limbs[i+4] has not been written by earlier rows (their carries
            // landed at most at index i+3), so this cannot overflow.
            debug_assert_eq!(limbs[i + 4], 0);
            limbs[i + 4] = carry as u64;
        }
        fold(limbs)
    }

    /// `self²` with the six cross products computed once and doubled:
    /// 10 limb multiplies where [`Fe::mul`] takes 16.
    pub fn square(self) -> Fe {
        let a = self.0;
        let mut limbs = [0u64; 8];
        // Cross products a_i·a_j (i < j) land in limbs 1..=6.
        for i in 0..3 {
            let mut carry = 0u128;
            for j in i + 1..4 {
                let s = limbs[i + j] as u128 + a[i] as u128 * a[j] as u128 + carry;
                limbs[i + j] = s as u64;
                carry = s >> 64;
            }
            limbs[i + 4] = carry as u64;
        }
        // Their sum is below a²/2 < 2^511, so doubling it fits 8 limbs.
        limbs[7] = limbs[6] >> 63;
        for i in (1..7).rev() {
            limbs[i] = (limbs[i] << 1) | (limbs[i - 1] >> 63);
        }
        // Add the squares a_i² on the diagonal.
        let mut carry = 0u128;
        for i in 0..4 {
            let sq = a[i] as u128 * a[i] as u128;
            let s = limbs[2 * i] as u128 + (sq as u64) as u128 + carry;
            limbs[2 * i] = s as u64;
            let s = limbs[2 * i + 1] as u128 + (sq >> 64) + (s >> 64);
            limbs[2 * i + 1] = s as u64;
            carry = s >> 64;
        }
        debug_assert_eq!(carry, 0);
        fold(limbs)
    }

    /// `self^(2^n)`: `n` squarings.
    fn square_times(self, n: u32) -> Fe {
        let mut acc = self;
        for _ in 0..n {
            acc = acc.square();
        }
        acc
    }

    /// `(self^(2^250 − 1), self^11)`: the shared head of the inversion and
    /// square-root exponents, by the standard addition chain (ref10's
    /// `fe_invert`): 250 squarings and 11 multiplies.
    fn pow22501(self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(z2);
        let z_5_0 = z11.square().mul(z9); // 2^5 − 1
        let z_10_0 = z_5_0.square_times(5).mul(z_5_0);
        let z_20_0 = z_10_0.square_times(10).mul(z_10_0);
        let z_40_0 = z_20_0.square_times(20).mul(z_20_0);
        let z_50_0 = z_40_0.square_times(10).mul(z_10_0);
        let z_100_0 = z_50_0.square_times(50).mul(z_50_0);
        let z_200_0 = z_100_0.square_times(100).mul(z_100_0);
        let z_250_0 = z_200_0.square_times(50).mul(z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse a^(p−2) = a^(2^255 − 21) (zero maps to zero).
    pub fn invert(self) -> Fe {
        let (z_250_0, z11) = self.pow22501();
        // (2^250 − 1)·2^5 + 11 = 2^255 − 21
        z_250_0.square_times(5).mul(z11)
    }

    /// a^((p−5)/8) = a^(2^252 − 3), the core exponentiation for square
    /// roots mod p ≡ 5 (mod 8).
    pub fn pow_p58(self) -> Fe {
        let (z_250_0, _) = self.pow22501();
        // (2^250 − 1)·2^2 + 1 = 2^252 − 3
        z_250_0.square_times(2).mul(self)
    }
}

/// sqrt(−1) mod p = 2^((p−1)/4).
const SQRT_M1: Fe = Fe([
    0xc4ee_1b27_4a0e_a0b0,
    0x2f43_1806_ad2f_e478,
    0x2b4d_0099_3dfb_d7a7,
    0x2b83_2480_4fc1_df0b,
]);

/// Compute sqrt(u/v) if it exists (per RFC 8032 decompression).
pub(crate) fn sqrt_ratio(u: Fe, v: Fe) -> Option<Fe> {
    let v3 = v.square().mul(v);
    let v7 = v3.square().mul(v);
    let mut x = u.mul(v3).mul(u.mul(v7).pow_p58());
    let vxx = v.mul(x.square());
    if vxx.sub(u).is_zero() {
        return Some(x);
    }
    if vxx.add(u).is_zero() {
        x = x.mul(SQRT_M1);
        return Some(x);
    }
    None
}

/// Fold a 512-bit product into 4 limbs: lo + 2^256·hi ≡ lo + 38·hi.
fn fold(limbs: [u64; 8]) -> Fe {
    let mut out = [0u64; 4];
    let mut c = 0u128;
    for i in 0..4 {
        let s = limbs[i] as u128 + 38u128 * limbs[i + 4] as u128 + c;
        out[i] = s as u64;
        c = s >> 64;
    }
    // c < 38·2 ⇒ fold once more.
    add_small(&mut out, (c as u64) * 38);
    Fe(out)
}

fn add_small(v: &mut [u64; 4], small: u64) {
    let mut carry = small as u128;
    for limb in v.iter_mut() {
        let s = *limb as u128 + carry;
        *limb = s as u64;
        carry = s >> 64;
        if carry == 0 {
            break;
        }
    }
    // A final carry out of limb 3 means the value wrapped 2^256 ≡ 38; this
    // cannot recurse more than once because the operand was < 2^256.
    if carry != 0 {
        add_small(v, 38);
    }
}

fn lt(a: &[u64; 4], b: &[u64; 4]) -> bool {
    for i in (0..4).rev() {
        if a[i] != b[i] {
            return a[i] < b[i];
        }
    }
    false
}

fn sub_in_place(a: &mut [u64; 4], b: &[u64; 4]) {
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

    fn fe(v: u64) -> Fe {
        Fe::from_u64(v)
    }

    /// A little-endian exponent of all-ones bytes between `low` and `high`.
    fn exponent(low: u8, high: u8) -> [u8; 32] {
        let mut exp = [0xffu8; 32];
        exp[0] = low;
        exp[31] = high;
        exp
    }

    /// Square-and-multiply, msb first over the low `bits` bits of a
    /// little-endian exponent: the oracle for the addition chains.
    fn pow_bits(a: Fe, exp: &[u8; 32], bits: usize) -> Fe {
        let mut acc = Fe::ONE;
        for i in (0..bits).rev() {
            acc = acc.square();
            if (exp[i / 8] >> (i % 8)) & 1 == 1 {
                acc = acc.mul(a);
            }
        }
        acc
    }

    /// Any 256-bit limb pattern is a valid almost-reduced element.
    fn limbs(bytes: [u8; 32]) -> Fe {
        Fe(std::array::from_fn(|i| {
            u64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().expect("8 bytes"))
        }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn chain_invert_matches_fermat(a in any::<[u8; 32]>()) {
            let a = limbs(a);
            let p_minus_2 = exponent(0xeb, 0x7f); // 2^255 − 21
            prop_assert_eq!(a.invert().to_bytes(), pow_bits(a, &p_minus_2, 255).to_bytes());
        }

        #[test]
        fn chain_pow_p58_matches_square_and_multiply(a in any::<[u8; 32]>()) {
            let a = limbs(a);
            let p58 = exponent(0xfd, 0x0f); // 2^252 − 3
            prop_assert_eq!(a.pow_p58().to_bytes(), pow_bits(a, &p58, 253).to_bytes());
        }

        #[test]
        fn square_matches_mul(a in any::<[u8; 32]>()) {
            let a = limbs(a);
            prop_assert_eq!(a.square().to_bytes(), a.mul(a).to_bytes());
        }

        #[test]
        fn sub_then_add_is_identity(a in any::<[u8; 32]>(), b in any::<[u8; 32]>()) {
            let (a, b) = (limbs(a), limbs(b));
            prop_assert_eq!(a.sub(b).add(b).to_bytes(), a.to_bytes());
        }
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = fe(12345);
        let b = fe(99999);
        assert_eq!(a.add(b).sub(b).to_bytes(), a.to_bytes());
        assert_eq!(a.sub(b).add(b).to_bytes(), a.to_bytes());
    }

    #[test]
    fn mul_matches_small_ints() {
        assert_eq!(fe(7).mul(fe(6)).to_bytes(), fe(42).to_bytes());
        assert_eq!(fe(0).mul(fe(6)).to_bytes(), Fe::ZERO.to_bytes());
    }

    #[test]
    fn p_reduces_to_zero() {
        assert!(Fe(P).is_zero());
        assert_eq!(Fe(P).to_bytes(), [0u8; 32]);
    }

    #[test]
    fn neg_of_one_is_p_minus_one() {
        let m1 = Fe::ONE.neg();
        assert_eq!(m1.add(Fe::ONE).to_bytes(), [0u8; 32]);
        // p − 1 is even ⇒ "non-negative" under the sign convention? No:
        // p − 1 ends in 0xec ⇒ lowest bit 0 ⇒ not negative... check bytes.
        let b = m1.to_bytes();
        assert_eq!(b[0], 0xec);
        assert_eq!(b[31], 0x7f);
    }

    #[test]
    fn inverse() {
        for v in [1u64, 2, 3, 12345, u64::MAX] {
            let a = fe(v);
            assert_eq!(a.mul(a.invert()).to_bytes(), Fe::ONE.to_bytes());
        }
        // The chain agrees with Fermat on zero, p − 1, p (≡ 0), p + 1 and
        // the largest almost-reduced limbs.
        let p_minus_2 = exponent(0xeb, 0x7f);
        let mut edges = vec![Fe::ZERO, Fe(P), Fe([u64::MAX; 4])];
        edges.push(Fe([P[0] - 1, P[1], P[2], P[3]]));
        edges.push(Fe([P[0] + 1, P[1], P[2], P[3]]));
        for a in edges {
            assert_eq!(
                a.invert().to_bytes(),
                pow_bits(a, &p_minus_2, 255).to_bytes()
            );
        }
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        assert_eq!(SQRT_M1.square().to_bytes(), Fe::ONE.neg().to_bytes());
        // …and is the root 2^((p−1)/4), not its negation.
        let exp = exponent(0xfb, 0x1f); // (p − 1)/4 = 2^253 − 5
        assert_eq!(SQRT_M1.to_bytes(), pow_bits(fe(2), &exp, 254).to_bytes());
    }

    #[test]
    fn sqrt_ratio_of_square() {
        let a = fe(123456789);
        let sq = a.square();
        let r = sqrt_ratio(sq, Fe::ONE).expect("square has a root");
        // Root is ±a.
        let ok = r.sub(a).is_zero() || r.add(a).is_zero();
        assert!(ok);
    }

    #[test]
    fn sqrt_ratio_rejects_nonsquare() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8 ⇒ 2 is a QNR).
        assert!(sqrt_ratio(fe(2), Fe::ONE).is_none());
    }

    #[test]
    fn canonical_parse_rejects_p() {
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        assert!(Fe::from_bytes_canonical(&p_bytes).is_none());
        let mut ok = p_bytes;
        ok[0] = 0xec; // p − 1
        assert!(Fe::from_bytes_canonical(&ok).is_some());
    }

    #[test]
    fn distributivity_random() {
        // Cheap pseudo-random check without pulling in rand here.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let a = Fe([next(), next(), next(), next() >> 1]);
            let b = Fe([next(), next(), next(), next() >> 1]);
            let c = Fe([next(), next(), next(), next() >> 1]);
            let lhs = a.mul(b.add(c));
            let rhs = a.mul(b).add(a.mul(c));
            assert_eq!(lhs.to_bytes(), rhs.to_bytes());
        }
    }
}
