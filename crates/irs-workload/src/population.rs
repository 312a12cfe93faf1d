//! The claimed-photo universe.
//!
//! §4.4's usage-pattern assumptions, made explicit:
//!
//! * cameras auto-register-and-revoke, so the *private* pool (never
//!   legitimately viewed) is large and almost entirely revoked;
//! * photos people actually browse come from the *public* pool, where
//!   revocation is rare (an owner occasionally changes their mind — those
//!   are exactly the cases IRS exists for).
//!
//! Photos are a deterministic function of their index — nothing is
//! materialized, so populations of millions cost nothing.

use irs_core::ids::{LedgerId, RecordId};

/// Population shape parameters.
#[derive(Clone, Copy, Debug)]
pub struct PopulationConfig {
    /// Total claimed photos.
    pub total: u64,
    /// Number of ledgers records are spread across.
    pub ledgers: u16,
    /// Fraction of the population in the *public* (viewable) pool.
    pub public_fraction: f64,
    /// Revocation rate within the public pool (small: owner changed mind).
    pub public_revoked_rate: f64,
    /// Revocation rate within the private pool (large: auto-revoked).
    pub private_revoked_rate: f64,
    /// Mixing seed.
    pub seed: u64,
}

impl Default for PopulationConfig {
    fn default() -> Self {
        PopulationConfig {
            total: 1_000_000,
            ledgers: 4,
            public_fraction: 0.3,
            public_revoked_rate: 0.002,
            private_revoked_rate: 0.95,
            seed: 0,
        }
    }
}

/// One photo's synthetic metadata.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhotoMeta {
    /// Its record identifier.
    pub id: RecordId,
    /// Whether it currently stands revoked.
    pub revoked: bool,
    /// Whether it belongs to the public (viewable) pool.
    pub public: bool,
}

/// A deterministic photo universe.
#[derive(Clone, Copy, Debug)]
pub struct PhotoPopulation {
    config: PopulationConfig,
}

fn mix(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl PhotoPopulation {
    /// Build a population view over the given config.
    pub fn new(config: PopulationConfig) -> PhotoPopulation {
        assert!(config.total > 0);
        assert!(config.ledgers > 0);
        assert!((0.0..=1.0).contains(&config.public_fraction));
        PhotoPopulation { config }
    }

    /// The configuration in force.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// Total photo count.
    pub fn total(&self) -> u64 {
        self.config.total
    }

    /// Number of photos in the public pool.
    pub fn public_count(&self) -> u64 {
        (self.config.total as f64 * self.config.public_fraction).round() as u64
    }

    /// Metadata for photo `index` (0-based, < total).
    pub fn photo(&self, index: u64) -> PhotoMeta {
        assert!(index < self.config.total, "photo index out of range");
        let h = mix(index ^ mix(self.config.seed));
        let ledger = LedgerId((h % self.config.ledgers as u64) as u16);
        // Serial: index partitioned per ledger would need global counters;
        // instead use the global index as serial (unique across the
        // population, which is all filters and caches need).
        let id = RecordId::new(ledger, index);
        let public = index < self.public_count();
        let rate = if public {
            self.config.public_revoked_rate
        } else {
            self.config.private_revoked_rate
        };
        // Deterministic Bernoulli from a second hash.
        let u = (mix(h) >> 11) as f64 / (1u64 << 53) as f64;
        PhotoMeta {
            id,
            revoked: u < rate,
            public,
        }
    }

    /// Map a popularity rank (0 = most viewed) to a public-pool photo
    /// index via a pseudo-random permutation, so popularity is independent
    /// of revocation/ledger assignment.
    pub fn public_photo_by_rank(&self, rank: u64) -> PhotoMeta {
        let n = self.public_count().max(1);
        debug_assert!(rank < n);
        // Feistel-style 2-round mix as a permutation on [0, n): walk
        // candidates deterministically until one lands in range (cycle
        // walking on the next power of two). Feistel needs an even bit
        // split to be a bijection, so round the width up to even.
        let mut bits = (64 - (n - 1).leading_zeros()).max(2);
        if bits % 2 == 1 {
            bits += 1;
        }
        let mask = (1u64 << bits) - 1;
        let mut x = rank;
        loop {
            let half = bits / 2;
            let lo_mask = (1u64 << half) - 1;
            let mut l = x & lo_mask;
            let mut r = x >> half;
            for round in 0..2u64 {
                let f = mix(r ^ self.config.seed ^ round) & lo_mask;
                let nl = r;
                r = l ^ f;
                l = nl & lo_mask;
            }
            x = (r << half) | l;
            x &= mask;
            if x < n {
                return self.photo(x);
            }
        }
    }

    /// Iterator over every photo (for building filters).
    pub fn iter(&self) -> impl Iterator<Item = PhotoMeta> + '_ {
        (0..self.config.total).map(move |i| self.photo(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(total: u64) -> PhotoPopulation {
        PhotoPopulation::new(PopulationConfig {
            total,
            ..PopulationConfig::default()
        })
    }

    #[test]
    fn deterministic() {
        let p = pop(1000);
        assert_eq!(p.photo(7), p.photo(7));
        let p2 = pop(1000);
        assert_eq!(p.photo(7), p2.photo(7));
    }

    #[test]
    fn ids_unique() {
        let p = pop(10_000);
        let mut keys: Vec<u64> = p.iter().map(|m| m.id.filter_key()).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 10_000);
    }

    #[test]
    fn paper_shape_high_total_low_viewed_revocation() {
        // §4.4: high fraction of total revoked; very high fraction of
        // viewed (= public) photos not revoked.
        let p = pop(50_000);
        let rate = |pool: Vec<PhotoMeta>| {
            pool.iter().filter(|m| m.revoked).count() as f64 / pool.len() as f64
        };
        let pub_rate = rate(p.iter().filter(|m| m.public).collect());
        let priv_rate = rate(p.iter().filter(|m| !m.public).collect());
        let total_rate = rate(p.iter().collect());
        assert!(pub_rate < 0.01, "public pool revocation {pub_rate}");
        assert!(priv_rate > 0.9, "private pool revocation {priv_rate}");
        assert!(total_rate > 0.5, "total revocation {total_rate}");
    }

    #[test]
    fn ledger_spread_roughly_even() {
        let p = pop(40_000);
        let mut counts = [0u64; 4];
        for m in p.iter() {
            counts[m.id.ledger.0 as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "ledger count {c}");
        }
    }

    #[test]
    fn rank_permutation_is_injective() {
        let p = PhotoPopulation::new(PopulationConfig {
            total: 1000,
            public_fraction: 0.5,
            ..PopulationConfig::default()
        });
        let n = p.public_count();
        let mut seen: Vec<u64> = (0..n)
            .map(|r| p.public_photo_by_rank(r).id.serial)
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len() as u64, n, "permutation must be a bijection");
    }

    #[test]
    fn rank_photos_are_public() {
        let p = pop(5_000);
        for r in [0u64, 1, 100, 1_000] {
            assert!(p.public_photo_by_rank(r).public);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        pop(10).photo(10);
    }
}
