//! The adoption-dynamics model.
//!
//! Deterministic discrete-time (monthly) dynamical system over three
//! coupled quantities:
//!
//! * `b(t)` — fraction of users on IRS-enabled browsers (logistic growth,
//!   capped by the first-mover vendors' market share until incumbents
//!   adopt);
//! * `P(t)` — claimed-photo population (users on IRS browsers auto-
//!   register photos);
//! * per-aggregator adoption — an incumbent adopts when its utility turns
//!   positive, and adoption is absorbing.
//!
//! Aggregator utility mirrors the paper's two forces plus the costs that
//! hold incumbents back today:
//!
//! ```text
//! U_i(t) = brand_i · b(t)                     (pro-privacy branding)
//!        + peer · adopted_fraction(t)          (competitive pressure)
//!        + liability · b(t) · min(P/P_ref, 1)  (knowable-intent lawsuits)
//!        − engagement_i                        (engagement loss)
//!        − integration_cost_i                  (one-time, amortized)
//! ```
//!
//! All magnitudes are in arbitrary utility units; what the experiments
//! measure is *where the flip happens* and how it moves with parameters,
//! not absolute values.

/// One incumbent content aggregator.
#[derive(Clone, Debug, PartialEq)]
pub struct Actor {
    /// Display name.
    pub name: String,
    /// Weight on privacy branding (higher = markets itself on privacy).
    pub brand_weight: f64,
    /// Perceived engagement loss from honoring revocations.
    pub engagement_loss: f64,
    /// Amortized integration cost.
    pub integration_cost: f64,
}

impl Actor {
    /// Convenience constructor.
    pub fn new(
        name: &str,
        brand_weight: f64,
        engagement_loss: f64,
        integration_cost: f64,
    ) -> Actor {
        Actor {
            name: name.to_string(),
            brand_weight,
            engagement_loss,
            integration_cost,
        }
    }
}

/// Global model parameters.
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Initial IRS browser share (the first movers' day-one default-on
    /// user base as a fraction of all users).
    pub initial_browser_share: f64,
    /// Market share ceiling of the first-mover vendors (b cannot exceed
    /// this until an incumbent aggregator adopts).
    pub first_mover_cap: f64,
    /// Logistic growth rate of browser adoption per month.
    pub browser_growth_rate: f64,
    /// Total Internet users.
    pub total_users: f64,
    /// Photos auto-claimed per IRS user per month.
    pub claims_per_user_month: f64,
    /// Liability force weight.
    pub liability_weight: f64,
    /// Photo population at which liability exposure saturates (the paper
    /// situates the flip "anywhere close to 100 billion photos").
    pub liability_reference_photos: f64,
    /// Competitive-pressure weight once peers adopt.
    pub peer_weight: f64,
    /// Months to simulate.
    pub months: usize,
}

impl Default for ModelParams {
    fn default() -> Self {
        ModelParams {
            initial_browser_share: 0.01,
            first_mover_cap: 0.35,
            browser_growth_rate: 0.25,
            total_users: 4.0e9,
            claims_per_user_month: 60.0,
            liability_weight: 1.2,
            liability_reference_photos: 1.0e11,
            peer_weight: 0.5,
            months: 240,
        }
    }
}

/// The default incumbent roster: a privacy-branded player, two mainstream
/// giants, and an engagement-maximizing holdout.
pub fn default_actors() -> Vec<Actor> {
    vec![
        Actor::new("privacy-brand", 0.9, 0.10, 0.15),
        Actor::new("mainstream-a", 0.35, 0.25, 0.20),
        Actor::new("mainstream-b", 0.30, 0.30, 0.20),
        Actor::new("engagement-max", 0.05, 0.60, 0.25),
    ]
}

/// Snapshot of one simulated month.
#[derive(Clone, Debug, PartialEq)]
pub struct StepState {
    /// Month index.
    pub month: usize,
    /// IRS browser share.
    pub browser_share: f64,
    /// Claimed photos.
    pub claimed_photos: f64,
    /// Which actors have adopted.
    pub adopted: Vec<bool>,
}

/// Full simulation output.
#[derive(Clone, Debug)]
pub struct SimulationResult {
    /// Monthly snapshots.
    pub timeline: Vec<StepState>,
    /// Per-actor adoption month (`None` = never within the horizon).
    pub adoption_month: Vec<Option<usize>>,
    /// Claimed-photo population at each actor's adoption.
    pub adoption_population: Vec<Option<f64>>,
}

impl SimulationResult {
    /// Whether every actor adopted within the horizon.
    pub fn fully_transformed(&self) -> bool {
        self.adoption_month.iter().all(|m| m.is_some())
    }
}

/// The model: parameters plus the actor roster.
#[derive(Clone, Debug)]
pub struct AdoptionModel {
    /// Global parameters.
    pub params: ModelParams,
    /// Incumbent aggregators.
    pub actors: Vec<Actor>,
}

impl AdoptionModel {
    /// Model with default calibration.
    pub fn with_defaults() -> AdoptionModel {
        AdoptionModel {
            params: ModelParams::default(),
            actors: default_actors(),
        }
    }

    /// Utility of actor `i` in the given state.
    fn utility(
        &self,
        actor: &Actor,
        browser_share: f64,
        photos: f64,
        adopted_fraction: f64,
    ) -> f64 {
        let liability_exposure =
            browser_share * (photos / self.params.liability_reference_photos).min(1.0);
        actor.brand_weight * browser_share
            + self.params.peer_weight * adopted_fraction
            + self.params.liability_weight * liability_exposure
            - actor.engagement_loss
            - actor.integration_cost
    }

    /// Run the simulation.
    pub fn run(&self) -> SimulationResult {
        let p = &self.params;
        let n = self.actors.len();
        let mut browser_share = p.initial_browser_share.clamp(0.0, 1.0);
        let mut photos = 0.0f64;
        let mut adopted = vec![false; n];
        let mut adoption_month = vec![None; n];
        let mut adoption_population = vec![None; n];
        let mut timeline = Vec::with_capacity(p.months);

        for month in 0..p.months {
            // Aggregator decisions first (based on last month's state).
            let adopted_fraction = adopted.iter().filter(|&&a| a).count() as f64 / n.max(1) as f64;
            for (i, actor) in self.actors.iter().enumerate() {
                if !adopted[i] && self.utility(actor, browser_share, photos, adopted_fraction) > 0.0
                {
                    adopted[i] = true;
                    adoption_month[i] = Some(month);
                    adoption_population[i] = Some(photos);
                }
            }
            // Browser adoption: logistic toward the applicable cap. Once
            // any incumbent adopts, IRS support stops being a niche
            // browser feature and the cap lifts.
            let cap = if adopted.iter().any(|&a| a) {
                1.0
            } else {
                p.first_mover_cap
            };
            let growth =
                p.browser_growth_rate * browser_share * (1.0 - browser_share / cap.max(1e-9));
            browser_share = (browser_share + growth).clamp(0.0, cap);
            // Photo growth: IRS users auto-register.
            photos += p.total_users * browser_share * p.claims_per_user_month;

            timeline.push(StepState {
                month,
                browser_share,
                claimed_photos: photos,
                adopted: adopted.clone(),
            });
        }

        SimulationResult {
            timeline,
            adoption_month,
            adoption_population,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Month the first incumbent flipped.
    fn first_flip(result: &SimulationResult) -> Option<usize> {
        result.adoption_month.iter().flatten().copied().min()
    }

    fn final_share(result: &SimulationResult) -> f64 {
        result.timeline.last().map_or(0.0, |s| s.browser_share)
    }

    #[test]
    fn default_calibration_transforms_the_ecosystem() {
        let result = AdoptionModel::with_defaults().run();
        assert!(result.fully_transformed(), "all incumbents should adopt");
        let first = first_flip(&result).expect("some flip");
        assert!(first > 6, "flip should not be instant (month {first})");
    }

    #[test]
    fn flip_population_near_paper_scale() {
        // The paper argues incentives kick in "anywhere close to 100
        // billion photos"; the *mainstream* incumbents (who need the
        // liability force, not just branding) should flip within an order
        // of magnitude of 1e11 under default calibration.
        let model = AdoptionModel::with_defaults();
        let result = model.run();
        // Actor 1 = mainstream-a.
        let pop = result.adoption_population[1].expect("mainstream-a adopts");
        assert!(
            (1.0e10..1.0e12).contains(&pop),
            "mainstream flip at {pop:.2e} photos"
        );
    }

    #[test]
    fn privacy_brand_flips_first_engagement_max_last() {
        let result = AdoptionModel::with_defaults().run();
        let months: Vec<usize> = result
            .adoption_month
            .iter()
            .map(|m| m.expect("adopts"))
            .collect();
        assert!(months[0] < months[1], "privacy brand before mainstream");
        assert!(months[2] < months[3], "mainstream before engagement-max");
    }

    #[test]
    fn no_bootstrap_no_transformation() {
        let mut model = AdoptionModel::with_defaults();
        model.params.initial_browser_share = 0.0;
        let result = model.run();
        assert_eq!(first_flip(&result), None, "ecosystem failure persists");
        assert_eq!(final_share(&result), 0.0);
    }

    #[test]
    fn no_incentives_no_adoption() {
        let mut model = AdoptionModel::with_defaults();
        model.params.liability_weight = 0.0;
        model.params.peer_weight = 0.0;
        for a in model.actors.iter_mut() {
            a.brand_weight = 0.0;
        }
        let result = model.run();
        assert_eq!(first_flip(&result), None);
        // Browser share still grows to the first-mover cap...
        assert!(final_share(&result) <= model.params.first_mover_cap + 1e-9);
        assert!(final_share(&result) > 0.3);
    }

    #[test]
    fn stronger_liability_flips_earlier() {
        let mut weak = AdoptionModel::with_defaults();
        weak.params.liability_weight = 0.8;
        let mut strong = AdoptionModel::with_defaults();
        strong.params.liability_weight = 2.5;
        let weak_flip = weak.run().adoption_month[1];
        let strong_flip = strong.run().adoption_month[1];
        match (weak_flip, strong_flip) {
            (Some(w), Some(s)) => assert!(s < w, "strong {s} < weak {w}"),
            (None, Some(_)) => {} // weak never flips: also consistent
            other => panic!("unexpected flips {other:?}"),
        }
    }

    #[test]
    fn peer_pressure_cascades() {
        // With peer pressure, laggards adopt soon after the leaders; with
        // none, the holdout lags much further (or never adopts).
        let with = AdoptionModel::with_defaults().run();
        let mut no_peer = AdoptionModel::with_defaults();
        no_peer.params.peer_weight = 0.0;
        let without = no_peer.run();
        let gap_with = match (with.adoption_month[3], with.adoption_month[0]) {
            (Some(last), Some(first)) => (last - first) as i64,
            _ => i64::MAX,
        };
        let gap_without = match (without.adoption_month[3], without.adoption_month[0]) {
            (Some(last), Some(first)) => (last - first) as i64,
            _ => i64::MAX,
        };
        assert!(
            gap_with < gap_without,
            "peer pressure should compress the adoption window ({gap_with} vs {gap_without})"
        );
    }

    #[test]
    fn adoption_is_absorbing_and_timeline_consistent() {
        let result = AdoptionModel::with_defaults().run();
        for actor in 0..4 {
            let mut seen = false;
            for s in &result.timeline {
                if seen {
                    assert!(s.adopted[actor], "adoption must not revert");
                }
                seen |= s.adopted[actor];
            }
        }
        // Photos monotone nondecreasing.
        assert!(result
            .timeline
            .windows(2)
            .all(|w| w[0].claimed_photos <= w[1].claimed_photos));
    }

    #[test]
    fn browser_share_capped_until_flip() {
        let result = AdoptionModel::with_defaults().run();
        let flip = first_flip(&result).unwrap();
        for s in &result.timeline[..flip.saturating_sub(1)] {
            assert!(s.browser_share <= 0.35 + 1e-9);
        }
        assert!(final_share(&result) > 0.9, "post-flip growth to ~1");
    }
}
