//! Web-page models for the §4.3 latency experiments.
//!
//! A page is an ordered list of resources with arrival offsets: HTML first,
//! then render-blocking CSS/JS, then images whose *metadata arrives before
//! their pixels finish* — the fact §4.3 exploits ("one can generally check
//! a photo as soon as its metadata has been downloaded", hiding ledger
//! latency behind the pixel transfer).

use crate::population::{PhotoMeta, PhotoPopulation};
use crate::samplers::Zipf;
use rand::rngs::StdRng;
use rand::Rng;

/// What kind of resource.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResourceKind {
    /// The HTML document (always render-blocking).
    Document,
    /// Render-blocking CSS/JS.
    Blocking,
    /// A claimed photo (carries the IRS label of the referenced photo).
    ClaimedImage(PhotoMeta),
    /// An unclaimed image (no IRS label).
    PlainImage,
}

/// One resource on a page.
#[derive(Clone, Copy, Debug)]
pub struct Resource {
    /// Kind (and claimed-photo metadata, when an image).
    pub kind: ResourceKind,
    /// Transfer size in bytes (drives fetch duration).
    pub size_bytes: u64,
    /// Whether first paint waits for this resource.
    pub render_blocking: bool,
}

/// A page: resources in discovery order.
#[derive(Clone, Debug, Default)]
pub struct PageModel {
    /// Resources, in the order the parser discovers them.
    pub resources: Vec<Resource>,
}

impl PageModel {
    /// Number of claimed images.
    pub fn claimed_count(&self) -> usize {
        self.resources
            .iter()
            .filter(|r| matches!(r.kind, ResourceKind::ClaimedImage(_)))
            .count()
    }

    /// A pinterest-like grid: one document, a couple of blocking assets,
    /// then `images` image tiles of which `claimed_fraction` carry IRS
    /// labels drawn Zipf-popularly from the population's public pool.
    pub fn pinterest_like(
        images: usize,
        claimed_fraction: f64,
        population: &PhotoPopulation,
        zipf: &Zipf,
        rng: &mut StdRng,
    ) -> PageModel {
        let mut resources = vec![
            Resource {
                kind: ResourceKind::Document,
                size_bytes: 60_000,
                render_blocking: true,
            },
            Resource {
                kind: ResourceKind::Blocking,
                size_bytes: 150_000,
                render_blocking: true,
            },
            Resource {
                kind: ResourceKind::Blocking,
                size_bytes: 300_000,
                render_blocking: true,
            },
        ];
        for _ in 0..images {
            let kind = if rng.gen_bool(claimed_fraction.clamp(0.0, 1.0)) {
                let rank = zipf.sample(rng) as u64;
                ResourceKind::ClaimedImage(population.public_photo_by_rank(rank))
            } else {
                ResourceKind::PlainImage
            };
            resources.push(Resource {
                kind,
                size_bytes: rng.gen_range(40_000..400_000),
                render_blocking: false,
            });
        }
        PageModel { resources }
    }

    /// An article page: text-heavy, few inline images.
    pub fn article_like(
        images: usize,
        claimed_fraction: f64,
        population: &PhotoPopulation,
        zipf: &Zipf,
        rng: &mut StdRng,
    ) -> PageModel {
        let mut page = PageModel::pinterest_like(images, claimed_fraction, population, zipf, rng);
        // Articles have a heavier blocking payload (fonts, scripts).
        page.resources.insert(
            3,
            Resource {
                kind: ResourceKind::Blocking,
                size_bytes: 500_000,
                render_blocking: true,
            },
        );
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::population::PopulationConfig;
    use rand::SeedableRng;

    fn setup() -> (PhotoPopulation, Zipf, StdRng) {
        let pop = PhotoPopulation::new(PopulationConfig {
            total: 10_000,
            ..PopulationConfig::default()
        });
        let zipf = Zipf::new(pop.public_count() as usize, 0.9);
        (pop, zipf, StdRng::seed_from_u64(1))
    }

    #[test]
    fn pinterest_structure() {
        let (pop, zipf, mut rng) = setup();
        let page = PageModel::pinterest_like(30, 0.8, &pop, &zipf, &mut rng);
        // The document, two blocking assets, then the 30 tiles.
        assert_eq!(page.resources.len(), 3 + 30);
        let claimed = page.claimed_count();
        assert!((15..=30).contains(&claimed), "claimed {claimed}");
        // Exactly the first three resources block rendering.
        let blocking = page.resources.iter().filter(|r| r.render_blocking).count();
        assert_eq!(blocking, 3);
    }

    #[test]
    fn zero_claimed_fraction_has_no_labels() {
        let (pop, zipf, mut rng) = setup();
        let page = PageModel::pinterest_like(20, 0.0, &pop, &zipf, &mut rng);
        assert_eq!(page.claimed_count(), 0);
        assert_eq!(page.resources.len(), 3 + 20);
    }

    #[test]
    fn article_has_extra_blocking_asset() {
        let (pop, zipf, mut rng) = setup();
        let article = PageModel::article_like(5, 0.5, &pop, &zipf, &mut rng);
        let blocking = article
            .resources
            .iter()
            .filter(|r| r.render_blocking)
            .count();
        assert_eq!(blocking, 4);
    }

    #[test]
    fn claimed_images_reference_public_pool() {
        let (pop, zipf, mut rng) = setup();
        let page = PageModel::pinterest_like(50, 1.0, &pop, &zipf, &mut rng);
        for r in &page.resources {
            if let ResourceKind::ClaimedImage(meta) = r.kind {
                assert!(meta.public);
            }
        }
    }
}
