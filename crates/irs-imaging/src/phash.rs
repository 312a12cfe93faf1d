//! Perceptual hashing — the reproduction's stand-in for PhotoDNA.
//!
//! The appeals process (§3.2) compares an original photo against an alleged
//! copy "using robust hashing (as in PhotoDNA)"; aggregators keep "a
//! database of robust hashes of their current content". PhotoDNA itself is
//! closed, so we implement the standard published DCT pHash (Farid, *An
//! Overview of Perceptual Hashing* \[13\]) at 256 bits: [`dct_hash_256`]
//! takes a 32×32 luma, its 2D DCT, and the sign of the 16×16 low band
//! against its median.
//!
//! Matching is Hamming distance ([`hamming256`]); experiment E8 measures
//! the distance distributions for manipulated copies vs distinct photos
//! and derives the [`RobustMatcher`] operating thresholds.

use crate::dct::DctPlan;
use crate::raster::Image;

/// A 256-bit perceptual hash.
pub type Hash256 = [u64; 4];

/// 256-bit DCT hash (16×16 low band).
pub fn dct_hash_256(img: &Image) -> Hash256 {
    let coeffs = low_band(img, 16);
    let mut sorted = coeffs.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in DCT output"));
    let median = (sorted[127] + sorted[128]) / 2.0;
    let mut hash = [0u64; 4];
    for (i, &c) in coeffs.iter().enumerate() {
        if c > median {
            hash[i / 64] |= 1 << (i % 64);
        }
    }
    hash
}

/// Extract the `band × band` low-frequency DCT block (DC excluded by
/// replacing it with the next coefficient's scale) from a 32×32 downscale.
fn low_band(img: &Image, band: usize) -> Vec<f32> {
    debug_assert!(band <= 32);
    let small = img.resize(32, 32).expect("32×32 resize");
    let luma = small.luma();
    let mut block: Vec<f32> = luma;
    let plan = DctPlan::new(32);
    plan.forward_2d(&mut block);
    let mut out = Vec::with_capacity(band * band);
    for y in 0..band {
        for x in 0..band {
            if x == 0 && y == 0 {
                // Drop DC — pure brightness.
                out.push(0.0);
            } else {
                out.push(block[y * 32 + x]);
            }
        }
    }
    out
}

/// Hamming distance between 256-bit hashes.
pub fn hamming256(a: &Hash256, b: &Hash256) -> u32 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x ^ y).count_ones())
        .sum()
}

/// Decision produced by [`RobustMatcher`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MatchVerdict {
    /// Distance at or below the match threshold: images share provenance.
    Derived,
    /// Distance in the gray zone: escalate to human inspection (the paper's
    /// appeals process allows "robust hashing and/or human inspection").
    Uncertain,
    /// Distance above the clear threshold: independent images.
    Distinct,
}

/// Two-threshold matcher over the 256-bit DCT hash, as used by ledger
/// appeals and aggregator derivative-detection.
#[derive(Clone, Copy, Debug)]
pub struct RobustMatcher {
    /// Distances ≤ this are declared [`MatchVerdict::Derived`].
    pub match_threshold: u32,
    /// Distances > this are declared [`MatchVerdict::Distinct`].
    pub distinct_threshold: u32,
}

impl Default for RobustMatcher {
    fn default() -> Self {
        // Calibrated by experiment E8: manipulated copies cluster well
        // below 60/256; independent photos cluster near 128/256.
        RobustMatcher {
            match_threshold: 60,
            distinct_threshold: 90,
        }
    }
}

impl RobustMatcher {
    /// Compare two images.
    pub fn compare(&self, a: &Image, b: &Image) -> MatchVerdict {
        self.verdict(hamming256(&dct_hash_256(a), &dct_hash_256(b)))
    }

    /// Compare where `copy` may be a *cropped* derivative of `original`.
    ///
    /// Global DCT hashes are not crop-invariant (a 15 % crop moves the
    /// 256-bit hash by ~100+ bits), so the plain comparison misses cropped
    /// copies — the one §5 re-claiming variant a hash DB would otherwise
    /// let through. The appellant possesses the original, so the judge can
    /// afford a candidate-crop search: hash a grid of plausible crops of
    /// the original and take the minimum distance against the copy.
    pub fn compare_with_crop_search(&self, original: &Image, copy: &Image) -> MatchVerdict {
        let copy_hash = dct_hash_256(copy);
        let mut best = hamming256(&dct_hash_256(original), &copy_hash);
        let w = original.width();
        let h = original.height();
        for &fraction in &[0.05f32, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40] {
            let cw = ((w as f32) * (1.0 - fraction)).round().max(1.0) as u32;
            let ch = ((h as f32) * (1.0 - fraction)).round().max(1.0) as u32;
            // 5×5 anchor grid over the possible crop positions (appeals
            // run rarely; ~175 candidate hashes are affordable there).
            for gy in 0..5u32 {
                for gx in 0..5u32 {
                    let x = (w - cw) * gx / 4;
                    let y = (h - ch) * gy / 4;
                    if let Ok(cand) = original.crop(x, y, cw, ch) {
                        let d = hamming256(&dct_hash_256(&cand), &copy_hash);
                        best = best.min(d);
                        if best <= self.match_threshold {
                            return MatchVerdict::Derived;
                        }
                    }
                }
            }
        }
        self.verdict(best)
    }

    /// Verdict for a precomputed distance.
    pub fn verdict(&self, distance: u32) -> MatchVerdict {
        if distance <= self.match_threshold {
            MatchVerdict::Derived
        } else if distance <= self.distinct_threshold {
            MatchVerdict::Uncertain
        } else {
            MatchVerdict::Distinct
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::PhotoGenerator;
    use crate::manipulate::Manipulation;

    fn photo(i: u64) -> Image {
        PhotoGenerator::new(77).generate(i, 128, 128)
    }

    #[test]
    fn identical_images_distance_zero() {
        let img = photo(0);
        assert_eq!(hamming256(&dct_hash_256(&img), &dct_hash_256(&img)), 0);
    }

    #[test]
    fn jpeg_transcode_keeps_hash_close() {
        let img = photo(1);
        let t = Manipulation::Jpeg(40).apply(&img);
        assert!(hamming256(&dct_hash_256(&img), &dct_hash_256(&t)) <= 40);
    }

    #[test]
    fn brightness_and_tint_keep_hash_close() {
        let img = photo(2);
        let b = Manipulation::Brightness(25).apply(&img);
        assert!(
            hamming256(&dct_hash_256(&img), &dct_hash_256(&b)) <= 40,
            "brightness moved hash too far"
        );
        let t = Manipulation::Tint {
            r: 1.15,
            g: 1.0,
            b: 0.85,
        }
        .apply(&img);
        assert!(hamming256(&dct_hash_256(&img), &dct_hash_256(&t)) <= 40);
    }

    #[test]
    fn resize_keeps_hash_close() {
        let img = photo(3);
        let r = Manipulation::ResizeRoundtrip(0.5).apply(&img);
        assert!(hamming256(&dct_hash_256(&img), &dct_hash_256(&r)) <= 30);
    }

    #[test]
    fn distinct_photos_are_far() {
        let mut min_dist = u32::MAX;
        for i in 0..8u64 {
            for j in (i + 1)..8 {
                let d = hamming256(&dct_hash_256(&photo(i)), &dct_hash_256(&photo(j)));
                min_dist = min_dist.min(d);
            }
        }
        assert!(
            min_dist > 60,
            "distinct photos should be far apart; min {min_dist}"
        );
    }

    #[test]
    fn matcher_verdicts() {
        let m = RobustMatcher::default();
        assert_eq!(m.verdict(0), MatchVerdict::Derived);
        assert_eq!(m.verdict(60), MatchVerdict::Derived);
        assert_eq!(m.verdict(75), MatchVerdict::Uncertain);
        assert_eq!(m.verdict(128), MatchVerdict::Distinct);
    }

    #[test]
    fn matcher_on_derived_and_distinct() {
        let m = RobustMatcher::default();
        let img = photo(4);
        let copy = Manipulation::Jpeg(60).apply(&img);
        assert_eq!(m.compare(&img, &copy), MatchVerdict::Derived);
        assert_eq!(m.compare(&img, &photo(5)), MatchVerdict::Distinct);
    }

    #[test]
    fn crop_search_finds_cropped_copies() {
        let m = RobustMatcher::default();
        let img = photo(7);
        // A 20% off-center crop defeats the plain comparison…
        let cropped = Manipulation::CropFraction {
            fraction: 0.2,
            seed: 3,
        }
        .apply(&img);
        assert_ne!(m.compare(&img, &cropped), MatchVerdict::Derived);
        // …but the crop search recovers it.
        assert_eq!(
            m.compare_with_crop_search(&img, &cropped),
            MatchVerdict::Derived
        );
        // And does not create false matches on distinct photos.
        assert_eq!(
            m.compare_with_crop_search(&img, &photo(3)),
            MatchVerdict::Distinct
        );
    }

    #[test]
    fn crop_search_handles_transcoded_crop() {
        let m = RobustMatcher::default();
        let img = photo(8);
        let attacked = Manipulation::Jpeg(60).apply(
            &Manipulation::CropFraction {
                fraction: 0.15,
                seed: 5,
            }
            .apply(&img),
        );
        assert_eq!(
            m.compare_with_crop_search(&img, &attacked),
            MatchVerdict::Derived
        );
    }

    #[test]
    fn hamming_symmetry_and_bounds() {
        let a = dct_hash_256(&photo(0));
        let b = dct_hash_256(&photo(1));
        assert_eq!(hamming256(&a, &b), hamming256(&b, &a));
        assert!(hamming256(&a, &b) <= 256);
    }
}
