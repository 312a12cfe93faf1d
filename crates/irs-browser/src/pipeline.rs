//! The §4.3 page-load model.
//!
//! Reproduces the paper's three-part latency argument:
//!
//! 1. page loads take seconds (HTTP Archive: < 1.8 s is "good", > 60 % of
//!    sites exceed 2.5 s) while ledger checks take tens of milliseconds —
//!    experiment E1 regenerates this comparison;
//! 2. "one need not wait for page resources to be fully loaded before
//!    issuing revocation checks — one can generally check a photo as soon
//!    as its metadata has been downloaded", hiding check latency behind
//!    pixel transfer — experiment E2 sweeps check latency and finds the
//!    zero-delay threshold for a pinterest-like page;
//! 3. the model is deliberately simple: fixed connection parallelism,
//!    bandwidth-bounded transfers, and a metadata-prefix point per image.

use irs_simnet::Link;
use irs_workload::pages::{PageModel, ResourceKind};
use irs_workload::population::PhotoMeta;
use rand::rngs::StdRng;

/// Bytes of an image that must arrive before its label is readable
/// (headers + EXIF segment).
const METADATA_PREFIX_BYTES: u64 = 4_096;

/// Network environment for a page load.
#[derive(Clone, Debug)]
pub struct NetworkParams {
    /// One-way latency to the content site.
    pub site_link: Link,
    /// Last-mile bandwidth in bytes per millisecond (3125 ≈ 25 Mbit/s).
    pub bandwidth_bytes_per_ms: u64,
    /// Simultaneous connections to the site (browsers use ~6/host).
    pub parallel_connections: usize,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            site_link: irs_simnet::latency::profiles::browser_to_site(),
            bandwidth_bytes_per_ms: 3_125,
            parallel_connections: 6,
        }
    }
}

/// When the browser issues a revocation check for an image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckTiming {
    /// The extension issues a tiny metadata-prefix prefetch for every
    /// image as soon as the preload scanner discovers its URL (right
    /// after the document parses), so checks overlap the *entire* image
    /// queue — the strongest form of the paper's "check a photo as soon
    /// as its metadata has been downloaded".
    EarlyPrefetch,
    /// The check is issued when the metadata prefix of the image's own
    /// (queued) fetch arrives — no extra requests, less overlap.
    MetadataFirst,
    /// Only once the image fully arrives (the naive ablation).
    AfterFullFetch,
}

/// Supplies the latency of one revocation check.
pub trait CheckService {
    /// Milliseconds from issuing the check to having the answer.
    fn check_ms(&mut self, photo: &PhotoMeta) -> u64;

    /// Number of checks that reached beyond the local machine (for load
    /// accounting; default: every check).
    fn remote_checks(&self) -> u64 {
        0
    }
}

/// No IRS at all (baseline).
pub struct NoChecks;

impl CheckService for NoChecks {
    fn check_ms(&mut self, _photo: &PhotoMeta) -> u64 {
        0
    }
}

/// Every check costs a fixed latency (the E2 sweep variable).
pub struct FixedCheck(pub u64);

impl CheckService for FixedCheck {
    fn check_ms(&mut self, _photo: &PhotoMeta) -> u64 {
        self.0
    }
}

/// Every check performs one RTT over a link (direct-to-ledger model).
pub struct LinkCheck {
    /// The link to the validation service.
    pub link: Link,
    /// RNG for latency draws.
    pub rng: StdRng,
    count: u64,
}

impl LinkCheck {
    /// Create from a link and an RNG.
    pub fn new(link: Link, rng: StdRng) -> LinkCheck {
        LinkCheck {
            link,
            rng,
            count: 0,
        }
    }
}

impl CheckService for LinkCheck {
    fn check_ms(&mut self, _photo: &PhotoMeta) -> u64 {
        self.count += 1;
        self.link.rtt(&mut self.rng)
    }

    fn remote_checks(&self) -> u64 {
        self.count
    }
}

/// Result of loading one page.
#[derive(Clone, Debug, PartialEq)]
pub struct LoadReport {
    /// First contentful paint: all render-blocking resources done.
    pub fcp_ms: u64,
    /// Every resource fetched and validated.
    pub page_complete_ms: u64,
    /// Page completion if no IRS checks existed (same fetch schedule).
    pub page_complete_no_irs_ms: u64,
    /// Per-claimed-image added display delay (validation past pixels).
    pub image_delays_ms: Vec<u64>,
    /// Claimed images checked.
    pub checks_issued: u64,
    /// Total bytes transferred.
    pub total_bytes: u64,
}

impl LoadReport {
    /// Added whole-page latency from IRS.
    pub fn page_delay(&self) -> u64 {
        self.page_complete_ms
            .saturating_sub(self.page_complete_no_irs_ms)
    }
}

/// Loads pages under a network model and a check-timing policy.
pub struct PageLoader {
    /// Network environment.
    pub params: NetworkParams,
    /// When checks are issued.
    pub timing: CheckTiming,
    /// RNG for fetch-latency draws.
    pub rng: StdRng,
}

impl PageLoader {
    /// Create a loader.
    pub fn new(params: NetworkParams, timing: CheckTiming, rng: StdRng) -> PageLoader {
        PageLoader {
            params,
            timing,
            rng,
        }
    }

    /// Simulate one page load.
    pub fn load(&mut self, page: &PageModel, checks: &mut dyn CheckService) -> LoadReport {
        let bw = self.params.bandwidth_bytes_per_ms.max(1);
        let mut total_bytes = 0u64;

        // Document first.
        let mut resources = page.resources.iter();
        let Some(doc) = resources.next() else {
            return LoadReport {
                fcp_ms: 0,
                page_complete_ms: 0,
                page_complete_no_irs_ms: 0,
                image_delays_ms: Vec::new(),
                checks_issued: 0,
                total_bytes: 0,
            };
        };
        let doc_done = self.params.site_link.rtt(&mut self.rng) + doc.size_bytes / bw;
        total_bytes += doc.size_bytes;

        let slots = self.params.parallel_connections.max(1);
        let mut slot_free = vec![doc_done; slots];

        let mut fcp = if doc.render_blocking { doc_done } else { 0 };
        let mut complete = doc_done;
        let mut complete_no_irs = doc_done;
        let mut image_delays = Vec::new();
        let mut checks_issued = 0u64;

        for res in resources {
            total_bytes += res.size_bytes;
            // Earliest-free connection.
            let (slot_idx, &start) = slot_free
                .iter()
                .enumerate()
                .min_by_key(|(_, &t)| t)
                .expect("at least one slot");
            let rtt = self.params.site_link.rtt(&mut self.rng);
            let headers_at = start + rtt;
            let metadata_at = headers_at + METADATA_PREFIX_BYTES.min(res.size_bytes) / bw;
            let pixels_at = headers_at + res.size_bytes / bw;
            slot_free[slot_idx] = pixels_at;

            if res.render_blocking {
                fcp = fcp.max(pixels_at);
            }
            complete_no_irs = complete_no_irs.max(pixels_at);

            let displayable = match res.kind {
                ResourceKind::ClaimedImage(meta) => {
                    checks_issued += 1;
                    let issue_at = match self.timing {
                        CheckTiming::EarlyPrefetch => {
                            // Prefix fetch right after parse: one RTT plus
                            // the 4 KiB prefix; bandwidth contention is
                            // negligible at that size.
                            doc_done
                                + self.params.site_link.rtt(&mut self.rng)
                                + METADATA_PREFIX_BYTES / bw
                        }
                        CheckTiming::MetadataFirst => metadata_at,
                        CheckTiming::AfterFullFetch => pixels_at,
                    };
                    let check_done = issue_at + checks.check_ms(&meta);
                    image_delays.push(check_done.saturating_sub(pixels_at));
                    pixels_at.max(check_done)
                }
                _ => pixels_at,
            };
            complete = complete.max(displayable);
        }

        LoadReport {
            fcp_ms: fcp,
            page_complete_ms: complete,
            page_complete_no_irs_ms: complete_no_irs,
            image_delays_ms: image_delays,
            checks_issued,
            total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_simnet::LatencyModel;
    use irs_workload::pages::PageModel;
    use irs_workload::population::{PhotoPopulation, PopulationConfig};
    use irs_workload::samplers::Zipf;
    use rand::SeedableRng;

    fn fixed_net(latency_ms: u64) -> NetworkParams {
        NetworkParams {
            site_link: Link::new(LatencyModel::Constant(latency_ms)),
            bandwidth_bytes_per_ms: 3_125,
            parallel_connections: 6,
        }
    }

    fn page(images: usize, claimed: f64) -> PageModel {
        let pop = PhotoPopulation::new(PopulationConfig {
            total: 10_000,
            ..PopulationConfig::default()
        });
        let zipf = Zipf::new(pop.public_count() as usize, 0.9);
        let mut rng = StdRng::seed_from_u64(9);
        PageModel::pinterest_like(images, claimed, &pop, &zipf, &mut rng)
    }

    /// Largest single image delay.
    fn max_delay(report: &LoadReport) -> u64 {
        report.image_delays_ms.iter().copied().max().unwrap_or(0)
    }

    fn loader(timing: CheckTiming) -> PageLoader {
        PageLoader::new(fixed_net(20), timing, StdRng::seed_from_u64(1))
    }

    #[test]
    fn baseline_without_checks_has_zero_delay() {
        let p = page(20, 0.8);
        let mut l = loader(CheckTiming::MetadataFirst);
        let report = l.load(&p, &mut NoChecks);
        assert_eq!(report.page_delay(), 0);
        assert_eq!(max_delay(&report), 0);
        assert!(report.fcp_ms > 0);
        assert!(report.page_complete_ms >= report.fcp_ms);
    }

    #[test]
    fn fast_checks_hide_behind_pixel_transfer() {
        // E2's core claim: with metadata-first checks, a modest check
        // latency adds no *page rendering* delay on an image-heavy page —
        // individual small images may display a hair late, but the page's
        // completion is bounded by large transfers elsewhere.
        let p = page(30, 1.0);
        let mut l = loader(CheckTiming::MetadataFirst);
        let report = l.load(&p, &mut FixedCheck(30));
        assert_eq!(
            report.page_delay(),
            0,
            "30 ms checks must not move page completion"
        );
        // And no image can be delayed by more than the check itself.
        assert!(max_delay(&report) <= 30);
    }

    #[test]
    fn slow_checks_eventually_delay() {
        let p = page(30, 1.0);
        let mut l = loader(CheckTiming::MetadataFirst);
        let report = l.load(&p, &mut FixedCheck(5_000));
        assert!(max_delay(&report) > 0, "5 s checks must be visible");
        assert!(report.page_delay() > 0);
    }

    #[test]
    fn metadata_first_beats_after_fetch() {
        let p = page(30, 1.0);
        let check = 100u64;
        let mut meta_first = loader(CheckTiming::MetadataFirst);
        let r1 = meta_first.load(&p, &mut FixedCheck(check));
        let mut after = loader(CheckTiming::AfterFullFetch);
        let r2 = after.load(&p, &mut FixedCheck(check));
        assert!(
            max_delay(&r1) < max_delay(&r2),
            "metadata-first {} vs after-fetch {}",
            max_delay(&r1),
            max_delay(&r2)
        );
        // After-fetch pays the full check on every image.
        assert_eq!(max_delay(&r2), check);
    }

    #[test]
    fn fcp_unaffected_by_image_checks() {
        // Checks only gate images, which never block first paint.
        let p = page(30, 1.0);
        let mut with = loader(CheckTiming::MetadataFirst);
        let r1 = with.load(&p, &mut FixedCheck(10_000));
        let mut without = loader(CheckTiming::MetadataFirst);
        let r2 = without.load(&p, &mut NoChecks);
        assert_eq!(r1.fcp_ms, r2.fcp_ms);
    }

    #[test]
    fn check_count_matches_claimed_images() {
        let p = page(25, 1.0);
        let mut l = loader(CheckTiming::MetadataFirst);
        let report = l.load(&p, &mut FixedCheck(10));
        assert_eq!(report.checks_issued as usize, p.claimed_count());
        assert_eq!(report.image_delays_ms.len(), p.claimed_count());
    }

    #[test]
    fn empty_page() {
        let mut l = loader(CheckTiming::MetadataFirst);
        let report = l.load(&PageModel::default(), &mut NoChecks);
        assert_eq!(report.page_complete_ms, 0);
    }

    #[test]
    fn parallelism_speeds_up_load() {
        let p = page(40, 0.0);
        let mut narrow = PageLoader::new(
            NetworkParams {
                parallel_connections: 1,
                ..fixed_net(20)
            },
            CheckTiming::MetadataFirst,
            StdRng::seed_from_u64(1),
        );
        let r1 = narrow.load(&p, &mut NoChecks);
        let mut wide = PageLoader::new(
            NetworkParams {
                parallel_connections: 8,
                ..fixed_net(20)
            },
            CheckTiming::MetadataFirst,
            StdRng::seed_from_u64(1),
        );
        let r2 = wide.load(&p, &mut NoChecks);
        assert!(r2.page_complete_ms < r1.page_complete_ms);
    }

    #[test]
    fn link_check_counts_remote() {
        let p = page(10, 1.0);
        let mut l = loader(CheckTiming::MetadataFirst);
        let mut svc = LinkCheck::new(
            Link::new(LatencyModel::Constant(25)),
            StdRng::seed_from_u64(3),
        );
        let report = l.load(&p, &mut svc);
        assert_eq!(svc.remote_checks(), report.checks_issued);
    }
}
