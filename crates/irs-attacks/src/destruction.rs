//! The naive direct attack: destroy the label.
//!
//! "A relatively naive attacker could insert incorrect metadata and/or
//! apply enough cropping and/or distortion to render the watermark
//! unreadable. This would render the picture unsharable, which is
//! self-defeating…" (§5).

use irs_core::photo::{LabelState, PhotoFile};
use irs_imaging::manipulate::{apply_all, Manipulation};
use irs_imaging::watermark::WatermarkConfig;

/// Result of a destruction attempt at one distortion level.
#[derive(Clone, Debug, PartialEq)]
pub struct DestructionReport {
    /// The distortion recipe applied (names).
    pub recipe: Vec<String>,
    /// Whether the watermark survived.
    pub watermark_survived: bool,
    /// Whether metadata was stripped.
    pub metadata_stripped: bool,
    /// Label state of the attacked photo.
    pub label_state_inconsistent: bool,
    /// PSNR of the attacked photo vs the labeled original (image quality
    /// the attacker sacrificed).
    pub psnr_db: f64,
}

/// Run the attack: strip metadata, apply `ops`, and report what remains.
pub fn destruction_attack(
    labeled: &PhotoFile,
    ops: &[Manipulation],
    cfg: &WatermarkConfig,
) -> (PhotoFile, DestructionReport) {
    let mut attacked = labeled.clone();
    attacked.metadata.strip_all();
    attacked.image = apply_all(&attacked.image, ops);
    let reading = attacked.read_label(cfg);
    let psnr = if (attacked.image.width(), attacked.image.height())
        == (labeled.image.width(), labeled.image.height())
    {
        attacked.image.psnr(&labeled.image).unwrap_or(f64::NAN)
    } else {
        f64::NAN // cropped: dimensions differ
    };
    let report = DestructionReport {
        recipe: ops.iter().map(|m| m.name()).collect(),
        watermark_survived: reading.watermark_id.is_some(),
        metadata_stripped: true,
        label_state_inconsistent: reading.state() == LabelState::Inconsistent,
        psnr_db: psnr,
    };
    (attacked, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use irs_aggregator::{Aggregator, AggregatorConfig, LocalLedgers};
    use irs_core::camera::Camera;
    use irs_core::ids::LedgerId;
    use irs_core::policy::UploadDecision;
    use irs_core::time::TimeMs;
    use irs_core::tsa::TimestampAuthority;
    use irs_core::wire::{Request, Response};
    use irs_ledger::{Ledger, LedgerConfig};

    fn labeled_photo(ledgers: &LocalLedgers) -> PhotoFile {
        let mut cam = Camera::new(21, 256, 256);
        let shot = cam.capture(100);
        let ledger = ledgers.get(LedgerId(1)).unwrap();
        let Response::Claimed { id, .. } = ledger.handle(Request::Claim(shot.claim), TimeMs(100))
        else {
            panic!("claim failed");
        };
        let mut photo = shot.photo;
        photo.label(id, &WatermarkConfig::default()).unwrap();
        photo
    }

    fn setup() -> (LocalLedgers, Aggregator) {
        let tsa = TimestampAuthority::from_seed(1);
        let mut ledgers = LocalLedgers::new();
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
        // Disable custodial claiming so unlabeled attack results are
        // visible as rejections (strict-policy aggregator).
        let agg = Aggregator::new(AggregatorConfig {
            custodial_claiming: false,
            derivative_check: false,
            ..AggregatorConfig::default()
        });
        (ledgers, agg)
    }

    #[test]
    fn metadata_strip_alone_is_self_defeating() {
        let (mut ledgers, mut agg) = setup();
        let labeled = labeled_photo(&ledgers);
        let (attacked, report) = destruction_attack(&labeled, &[], &WatermarkConfig::default());
        assert!(report.watermark_survived, "no distortion applied");
        assert!(report.label_state_inconsistent);
        let decision = agg.upload(attacked, &mut ledgers, TimeMs(1_000)).0;
        assert_eq!(decision, UploadDecision::DeniedInconsistentLabel);
    }

    #[test]
    fn mild_distortion_does_not_free_the_photo() {
        let (mut ledgers, mut agg) = setup();
        let labeled = labeled_photo(&ledgers);
        let ops = [Manipulation::Jpeg(70), Manipulation::Brightness(10)];
        let (attacked, report) = destruction_attack(&labeled, &ops, &WatermarkConfig::default());
        assert!(
            report.watermark_survived,
            "mild distortion must not kill the watermark"
        );
        let decision = agg.upload(attacked, &mut ledgers, TimeMs(1_000)).0;
        assert_eq!(decision, UploadDecision::DeniedInconsistentLabel);
    }

    #[test]
    fn heavy_distortion_kills_watermark_but_photo_stays_unsharable() {
        let (mut ledgers, mut agg) = setup();
        let labeled = labeled_photo(&ledgers);
        let ops = [
            Manipulation::Jpeg(5),
            Manipulation::Noise {
                sigma: 60.0,
                seed: 7,
            },
            Manipulation::Jpeg(5),
        ];
        let (attacked, report) = destruction_attack(&labeled, &ops, &WatermarkConfig::default());
        assert!(!report.watermark_survived, "heavy distortion should win");
        assert!(
            report.psnr_db < 25.0,
            "and cost severe quality loss: {} dB",
            report.psnr_db
        );
        // Now unlabeled → strict aggregator rejects anyway.
        let decision = agg.upload(attacked, &mut ledgers, TimeMs(1_000)).0;
        assert_eq!(decision, UploadDecision::DeniedUnlabeled);
    }

    #[test]
    fn custodial_aggregator_reclaims_destroyed_uploads() {
        // With custodial claiming on, even a successfully destroyed photo
        // re-enters IRS governance under the aggregator's key (§3.2),
        // which is what enables a later appeal takedown.
        let tsa = TimestampAuthority::from_seed(2);
        let mut ledgers = LocalLedgers::new();
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(0)), tsa.clone()));
        ledgers.add(Ledger::new(LedgerConfig::new(LedgerId(1)), tsa));
        let mut agg = Aggregator::new(AggregatorConfig {
            custodial_claiming: true,
            derivative_check: false,
            ..AggregatorConfig::default()
        });
        let labeled = labeled_photo(&ledgers);
        let ops = [
            Manipulation::Jpeg(5),
            Manipulation::Noise {
                sigma: 60.0,
                seed: 8,
            },
            Manipulation::Jpeg(5),
        ];
        let (attacked, report) = destruction_attack(&labeled, &ops, &WatermarkConfig::default());
        assert!(!report.watermark_survived);
        let (decision, _) = agg.upload(attacked, &mut ledgers, TimeMs(1_000));
        assert!(matches!(decision, UploadDecision::Accepted(Some(_))));
        assert_eq!(agg.stats.custodial_claims, 1);
    }

    #[test]
    fn report_recipe_names() {
        let (ledgers, _) = setup();
        let labeled = labeled_photo(&ledgers);
        let ops = [Manipulation::Jpeg(50)];
        let (_, report) = destruction_attack(&labeled, &ops, &WatermarkConfig::default());
        assert_eq!(report.recipe, vec!["jpeg-q50".to_string()]);
        assert!(report.psnr_db > 20.0);
    }
}
