//! Edwards curve points for Ed25519 (−x² + y² = 1 + d·x²·y²) in extended
//! twisted-Edwards coordinates (X : Y : Z : T) with x = X/Z, y = Y/Z,
//! T = XY/Z.
//!
//! Additions and doublings go through the ref10 intermediate forms: an
//! addend is prepared once as [`Cached`] (or, for the base-point table,
//! [`AffineCached`]), and a sum or double comes out [`Completed`], from
//! which the next doubling needs only [`Projective`] coordinates.
//!
//! `[k]B` reads a table of `j·16^(2i)·B` built once on first use; the
//! verification multiply `[s]B − [k]A` walks signed radix-16 digits over
//! eight multiples of `A` and the table's first row. Table lookups are
//! secret-indexed, so neither is constant time (see the crate-level
//! caveat).

use crate::field::{sqrt_ratio, Fe};
use std::sync::OnceLock;

/// d = −121665/121666 mod p.
const D: Fe = Fe([
    0x75eb_4dca_1359_78a3,
    0x0070_0a4d_4141_d8ab,
    0x8cc7_4079_7779_e898,
    0x5203_6cee_2b6f_fe73,
]);

/// 2d, the constant of the addition formula.
const D2: Fe = Fe([
    0xebd6_9b94_26b2_f159,
    0x00e0_149a_8283_b156,
    0x198e_80f2_eef3_d130,
    0x2406_d9dc_56df_fce7,
]);

/// A point on the Ed25519 curve, extended coordinates.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// The output of an addition or doubling: x = X/Z, y = Y/T.
struct Completed {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// Projective (X : Y : Z), all a doubling reads.
struct Projective {
    x: Fe,
    y: Fe,
    z: Fe,
}

/// A point prepared as an addend: (Y + X, Y − X, Z, 2d·T).
#[derive(Clone, Copy)]
struct Cached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z: Fe,
    t2d: Fe,
}

/// An affine point prepared as an addend: (y + x, y − x, 2d·x·y), Z = 1.
#[derive(Clone, Copy)]
struct AffineCached {
    y_plus_x: Fe,
    y_minus_x: Fe,
    xy2d: Fe,
}

impl Point {
    /// The neutral element (0, 1).
    pub const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The RFC 8032 base point B (y = 4/5, x even).
    pub const BASE: Point = Point {
        x: Fe([
            0xc956_2d60_8f25_d51a,
            0x692c_c760_9525_a7b2,
            0xc0a4_e231_fdd6_dc5c,
            0x2169_36d3_cd6e_53fe,
        ]),
        y: Fe([
            0x6666_6666_6666_6658,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
        ]),
        z: Fe::ONE,
        t: Fe([
            0x6dde_8ab3_a5b7_dda3,
            0x20f0_9f80_7751_52f5,
            0x66ea_4e8e_64ab_e37d,
            0x6787_5f0f_d78b_7665,
        ]),
    };

    /// Unified point addition (a = −1 twisted Edwards, extended coords).
    #[cfg(test)]
    pub fn add(&self, other: &Point) -> Point {
        self.add_cached(&other.cached()).to_point()
    }

    /// Point doubling.
    #[cfg(test)]
    pub fn double(&self) -> Point {
        self.projective().double().to_point()
    }

    /// `[16]self`: four doublings, the last one extended.
    fn mul_by_16(&self) -> Point {
        let p = self.projective().double().to_projective();
        let p = p.double().to_projective();
        let p = p.double().to_projective();
        p.double().to_point()
    }

    fn projective(&self) -> Projective {
        Projective {
            x: self.x,
            y: self.y,
            z: self.z,
        }
    }

    fn cached(&self) -> Cached {
        Cached {
            y_plus_x: self.y.add(self.x),
            y_minus_x: self.y.sub(self.x),
            z: self.z,
            t2d: self.t.mul(D2),
        }
    }

    fn affine_cached(&self) -> AffineCached {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        AffineCached {
            y_plus_x: y.add(x),
            y_minus_x: y.sub(x),
            xy2d: x.mul(y).mul(D2),
        }
    }

    fn add_cached(&self, q: &Cached) -> Completed {
        let a = self.y.add(self.x).mul(q.y_plus_x);
        let b = self.y.sub(self.x).mul(q.y_minus_x);
        let c = q.t2d.mul(self.t);
        let zz = self.z.mul(q.z);
        let d = zz.add(zz);
        Completed {
            x: a.sub(b),
            y: a.add(b),
            z: d.add(c),
            t: d.sub(c),
        }
    }

    fn add_affine(&self, q: &AffineCached) -> Completed {
        let a = self.y.add(self.x).mul(q.y_plus_x);
        let b = self.y.sub(self.x).mul(q.y_minus_x);
        let c = q.xy2d.mul(self.t);
        let d = self.z.add(self.z);
        Completed {
            x: a.sub(b),
            y: a.add(b),
            z: d.add(c),
            t: d.sub(c),
        }
    }

    /// `[k]B` for a 32-byte little-endian scalar below 2^255 (a reduced
    /// scalar or a clamped secret): 64 additions from the base-point
    /// table and four doublings.
    pub fn mul_base(k: &[u8; 32]) -> Point {
        let digits = radix16(k);
        let table = base_table();
        // k = Σ e_i·16^i, and row i/2 holds multiples of 16^i·B for even
        // i: sum the odd digits, multiply by 16, then add the even ones.
        let mut acc = Point::IDENTITY;
        for i in (1..64).step_by(2) {
            if let Some(q) = AffineCached::select(&table[i / 2], digits[i]) {
                acc = acc.add_affine(&q).to_point();
            }
        }
        acc = acc.mul_by_16();
        for i in (0..64).step_by(2) {
            if let Some(q) = AffineCached::select(&table[i / 2], digits[i]) {
                acc = acc.add_affine(&q).to_point();
            }
        }
        acc
    }

    /// `[s]B − [k]A` for 32-byte little-endian scalars below 2^255, in one
    /// Straus loop over their signed radix-16 digits: 252 doublings, 64
    /// additions from a window of `A`, …, `[8]A` and 64 from the table's
    /// `B`, …, `[8]B` row.
    pub fn mul_base_minus(s: &[u8; 32], a: &Point, k: &[u8; 32]) -> Point {
        let once = a.cached();
        let mut multiples = [once; 8];
        let mut multiple = *a;
        for slot in multiples.iter_mut().skip(1) {
            multiple = multiple.add_cached(&once).to_point();
            *slot = multiple.cached();
        }
        let (kd, sd) = (radix16(k), radix16(s));
        let row = &base_table()[0];
        let mut acc = Point::IDENTITY;
        for i in (0..64).rev() {
            if i != 63 {
                acc = acc.mul_by_16();
            }
            if let Some(q) = Cached::select(&multiples, -kd[i]) {
                acc = acc.add_cached(&q).to_point();
            }
            if let Some(q) = AffineCached::select(row, sd[i]) {
                acc = acc.add_affine(&q).to_point();
            }
        }
        acc
    }

    /// Compress to the 32-byte RFC 8032 encoding: y with the sign of x in
    /// the top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zi = self.z.invert();
        let x = self.x.mul(zi);
        let y = self.y.mul(zi);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress an encoded point; `None` if the encoding is invalid
    /// (non-canonical y, or x² has no root).
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let sign = bytes[31] >> 7;
        let mut ybytes = *bytes;
        ybytes[31] &= 0x7f;
        let y = Fe::from_bytes_canonical(&ybytes)?;
        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(Fe::ONE);
        let v = D.mul(yy).add(Fe::ONE);
        let mut x = sqrt_ratio(u, v)?;
        if x.is_zero() && sign == 1 {
            // −0 is not a valid encoding.
            return None;
        }
        if x.is_negative() != (sign == 1) {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(y),
        })
    }

    /// Affine equality.
    pub fn equals(&self, other: &Point) -> bool {
        // x1/z1 == x2/z2  ⇔  x1·z2 == x2·z1 (same for y).
        self.x.mul(other.z).sub(other.x.mul(self.z)).is_zero()
            && self.y.mul(other.z).sub(other.y.mul(self.z)).is_zero()
    }
}

impl Completed {
    fn to_point(&self) -> Point {
        Point {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
            t: self.x.mul(self.y),
        }
    }

    fn to_projective(&self) -> Projective {
        Projective {
            x: self.x.mul(self.t),
            y: self.y.mul(self.z),
            z: self.z.mul(self.t),
        }
    }
}

impl Projective {
    fn double(&self) -> Completed {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(zz2);
        let sum = yy.add(xx);
        let diff = yy.sub(xx);
        Completed {
            x: self.x.add(self.y).square().sub(sum),
            y: sum,
            z: diff,
            t: zz2.sub(diff),
        }
    }
}

/// An all-ones mask when `flag`, else zero.
fn mask(flag: bool) -> u64 {
    u64::from(flag).wrapping_neg()
}

/// Swap `a` and `b` when `mask` is all ones, without a branch.
fn swap(a: &mut Fe, b: &mut Fe, mask: u64) {
    for (x, y) in a.0.iter_mut().zip(b.0.iter_mut()) {
        let t = (*x ^ *y) & mask;
        *x ^= t;
        *y ^= t;
    }
}

/// `−a` when `mask` is all ones, else `a`, without a branch.
fn negate_if(a: Fe, mask: u64) -> Fe {
    let neg = a.neg();
    let mut out = a;
    for (x, n) in out.0.iter_mut().zip(neg.0) {
        *x ^= (*x ^ n) & mask;
    }
    out
}

impl Cached {
    /// `digit·P` from `[P, 2P, …, 8P]`; `None` for digit 0.
    fn select(multiples: &[Cached; 8], digit: i8) -> Option<Cached> {
        let mut q = multiples[usize::from(digit.unsigned_abs()).checked_sub(1)?];
        let m = mask(digit < 0);
        swap(&mut q.y_plus_x, &mut q.y_minus_x, m);
        q.t2d = negate_if(q.t2d, m);
        Some(q)
    }
}

impl AffineCached {
    /// `digit·P` from `[P, 2P, …, 8P]`; `None` for digit 0.
    fn select(multiples: &[AffineCached; 8], digit: i8) -> Option<AffineCached> {
        let mut q = multiples[usize::from(digit.unsigned_abs()).checked_sub(1)?];
        let m = mask(digit < 0);
        swap(&mut q.y_plus_x, &mut q.y_minus_x, m);
        q.xy2d = negate_if(q.xy2d, m);
        Some(q)
    }
}

/// Row `i` holds `j·16^(2i)·B` for j = 1..=8: 32 rows of 8 affine points,
/// 24 KiB, built on the first `[k]B`.
fn base_table() -> &'static [[AffineCached; 8]; 32] {
    static TABLE: OnceLock<Box<[[AffineCached; 8]; 32]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let identity = Point::IDENTITY.affine_cached();
        let mut rows = Box::new([[identity; 8]; 32]);
        let mut row_base = Point::BASE;
        for row in rows.iter_mut() {
            let step = row_base.cached();
            let mut multiple = row_base;
            for (j, entry) in row.iter_mut().enumerate() {
                if j > 0 {
                    multiple = multiple.add_cached(&step).to_point();
                }
                *entry = multiple.affine_cached();
            }
            row_base = row_base.mul_by_16().mul_by_16();
        }
        rows
    })
}

/// The 64 signed radix-16 digits e_i of a little-endian scalar below
/// 2^255, k = Σ e_i·16^i, each in [−8, 8) except the top one, which a
/// carry can lift to 8.
fn radix16(k: &[u8; 32]) -> [i8; 64] {
    debug_assert!(k[31] < 0x80, "scalar must be below 2^255");
    let mut e = [0i8; 64];
    for (i, &byte) in k.iter().enumerate() {
        e[2 * i] = (byte & 15) as i8;
        e[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in e.iter_mut().take(63) {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[63] += carry;
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Scalar multiplication by a 32-byte little-endian scalar, plain
    /// double-and-add over all 256 bits, msb first: the oracle for the
    /// table and window multiplies.
    fn mul_bytes(p: &Point, k: &[u8; 32]) -> Point {
        let mut acc = Point::IDENTITY;
        for bit in (0..256).rev() {
            acc = acc.double();
            if (k[bit / 8] >> (bit % 8)) & 1 == 1 {
                acc = acc.add(p);
            }
        }
        acc
    }

    /// L, the group order, little-endian.
    const L_BYTES: [u8; 32] = [
        0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde,
        0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x10,
    ];

    /// Scalars below 2^255 whose digits hit every edge of `radix16`.
    fn edge_scalars() -> Vec<[u8; 32]> {
        let mut l_minus_1 = L_BYTES;
        l_minus_1[0] -= 1;
        let mut top_carries = [0xffu8; 32];
        top_carries[31] = 0x7f; // 2^255 − 1: every digit carries into e_63 = 8
        let mut eights = [0x88u8; 32];
        eights[31] = 0x08; // every digit −8 after its neighbour's carry
        let mut one = [0u8; 32];
        one[0] = 1;
        vec![
            [0u8; 32],
            one,
            l_minus_1,
            L_BYTES,
            crate::scalar::Scalar::clamped(&[0xff; 32]),
            crate::scalar::Scalar::clamped(&[0x00; 32]),
            top_carries,
            eights,
            [0x77; 32],
        ]
    }

    fn below_2_255(mut k: [u8; 32]) -> [u8; 32] {
        k[31] &= 0x7f;
        k
    }

    #[test]
    fn curve_constants_match_their_definitions() {
        // d·121666 = −121665, 2d = d + d.
        assert_eq!(
            D.mul(Fe::from_u64(121_666)).to_bytes(),
            Fe::from_u64(121_665).neg().to_bytes()
        );
        assert_eq!(D2.to_bytes(), D.add(D).to_bytes());
        // B is the decompression of y = 4/5 with x even, and T = XY/Z.
        let y = Fe::from_u64(4).mul(Fe::from_u64(5).invert());
        let b = Point::decompress(&y.to_bytes()).expect("base point decompresses");
        assert!(b.equals(&Point::BASE));
        assert_eq!(Point::BASE.t.to_bytes(), b.x.mul(b.y).to_bytes());
    }

    #[test]
    fn table_and_straus_match_double_and_add_at_the_edges() {
        let a = mul_bytes(&Point::BASE, &[0x35; 32].map(|b| b & 0x3f));
        for k in edge_scalars() {
            let want = mul_bytes(&Point::BASE, &k);
            assert!(Point::mul_base(&k).equals(&want), "[k]B, k = {k:02x?}");
            for s in edge_scalars() {
                let got = Point::mul_base_minus(&s, &a, &k).add(&mul_bytes(&a, &k));
                assert!(
                    got.equals(&mul_bytes(&Point::BASE, &s)),
                    "s = {s:02x?}, k = {k:02x?}"
                );
            }
        }
    }

    #[test]
    fn radix16_digits_recompose_the_scalar() {
        for k in edge_scalars() {
            let digits = radix16(&k);
            assert!(digits[..63].iter().all(|d| (-8..8).contains(d)));
            assert!((-8..=8).contains(&digits[63]));
            // Σ e_i·16^i, evaluated msb first in a 33-byte little-endian
            // accumulator, gives back k.
            let mut acc = [0i32; 33];
            for (i, &d) in digits.iter().enumerate() {
                let (byte, shift) = (i / 2, 4 * (i % 2));
                acc[byte] += i32::from(d) << shift;
            }
            let mut carry = 0i32;
            let mut back = [0u8; 32];
            for (i, out) in back.iter_mut().enumerate() {
                let v = acc[i] + carry;
                *out = v.rem_euclid(256) as u8;
                carry = v.div_euclid(256);
            }
            assert_eq!(carry + acc[32], 0);
            assert_eq!(back, k);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn table_multiply_matches_double_and_add(k in any::<[u8; 32]>()) {
            let k = below_2_255(k);
            prop_assert!(Point::mul_base(&k).equals(&mul_bytes(&Point::BASE, &k)));
        }

        #[test]
        fn straus_multiply_matches_double_and_add(
            s in any::<[u8; 32]>(),
            k in any::<[u8; 32]>(),
            y in any::<[u8; 32]>(),
        ) {
            let (s, k) = (below_2_255(s), below_2_255(k));
            // Any decodable point, small-order component included, as
            // `verify` may be handed one.
            let a = (0..=u8::MAX)
                .find_map(|i| {
                    let mut enc = y;
                    enc[0] = enc[0].wrapping_add(i);
                    Point::decompress(&enc)
                })
                .expect("about half of all encodings decode");
            // [s]B − [k]A + [k]A = [s]B
            let got = Point::mul_base_minus(&s, &a, &k).add(&mul_bytes(&a, &k));
            prop_assert!(got.equals(&mul_bytes(&Point::BASE, &s)));
        }
    }

    fn scalar(v: u64) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&v.to_le_bytes());
        b
    }

    #[test]
    fn base_point_is_on_curve() {
        let b = Point::BASE;
        // −x² + y² = 1 + d x² y²
        let zi = b.z.invert();
        let x = b.x.mul(zi);
        let y = b.y.mul(zi);
        let lhs = y.square().sub(x.square());
        let rhs = Fe::ONE.add(D.mul(x.square()).mul(y.square()));
        assert_eq!(lhs.to_bytes(), rhs.to_bytes());
    }

    #[test]
    fn base_compressed_encoding_matches_rfc() {
        // RFC 8032: B encodes as 0x5866666666666666...6666 (y = 4/5).
        let enc = Point::BASE.compress();
        assert_eq!(enc[0], 0x58);
        for &b in &enc[1..31] {
            assert_eq!(b, 0x66);
        }
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn add_vs_double() {
        let b = Point::BASE;
        assert!(b.add(&b).equals(&b.double()));
        let four_a = b.double().double();
        let four_b = b.add(&b).add(&b).add(&b);
        assert!(four_a.equals(&four_b));
    }

    #[test]
    fn identity_laws() {
        let b = Point::BASE;
        let id = Point::IDENTITY;
        assert!(b.add(&id).equals(&b));
        assert!(id.add(&b).equals(&b));
        assert!(id.double().equals(&id));
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let b = Point::BASE;
        let mut acc = Point::IDENTITY;
        for k in 0..10u64 {
            assert!(mul_bytes(&b, &scalar(k)).equals(&acc), "k = {k}");
            acc = acc.add(&b);
        }
    }

    #[test]
    fn compress_decompress_roundtrip() {
        for k in 1..8u64 {
            let p = mul_bytes(&Point::BASE, &scalar(k * 7919));
            let enc = p.compress();
            let q = Point::decompress(&enc).expect("valid point");
            assert!(p.equals(&q));
            assert_eq!(q.compress(), enc);
        }
    }

    #[test]
    fn decompress_rejects_invalid() {
        // y = 2 is not on the curve for either sign? Find an invalid one:
        // try encodings until one fails — but deterministically assert at
        // least one of a few known-bad encodings is rejected.
        let mut bad = 0;
        for v in 2u64..40 {
            let mut enc = [0u8; 32];
            enc[..8].copy_from_slice(&v.to_le_bytes());
            if Point::decompress(&enc).is_none() {
                bad += 1;
            }
        }
        assert!(bad > 0, "some small y values must be off-curve");
        // Non-canonical y (≥ p) must be rejected.
        let mut p_enc = [0xffu8; 32];
        p_enc[0] = 0xed;
        p_enc[31] = 0x7f;
        assert!(Point::decompress(&p_enc).is_none());
    }

    #[test]
    fn order_l_times_base_is_identity() {
        // L · B = identity.
        let p = mul_bytes(&Point::BASE, &L_BYTES);
        assert!(p.equals(&Point::IDENTITY));
    }
}
