//! Photo files and label reading.
//!
//! A [`PhotoFile`] is a photo as it travels the ecosystem: pixel data plus
//! the metadata container. Labeling (§3.1) writes the record identifier in
//! both places; [`LabelReading`] implements the §3.2 upload rules — "if the
//! explicit metadata or watermark disagree or one of them is missing
//! (indicating that the photo has been modified in some way that has lost
//! metadata), the upload is also denied".

use crate::ids::RecordId;
use irs_crypto::Digest;
use irs_imaging::watermark::{self, WatermarkConfig};
use irs_imaging::{Image, Metadata, MetadataKey};

/// A photo plus its metadata container.
#[derive(Clone, Debug, PartialEq)]
pub struct PhotoFile {
    /// Pixel data.
    pub image: Image,
    /// EXIF-like metadata.
    pub metadata: Metadata,
}

impl PhotoFile {
    /// Wrap a bare image with empty metadata.
    pub fn new(image: Image) -> PhotoFile {
        PhotoFile {
            image,
            metadata: Metadata::new(),
        }
    }

    /// Content digest (SHA-256 over dimensions + raw pixels). Metadata is
    /// *not* hashed: the digest identifies the photograph itself.
    pub fn digest(&self) -> Digest {
        Digest::of_parts(&[
            &self.image.width().to_be_bytes(),
            &self.image.height().to_be_bytes(),
            self.image.raw(),
        ])
    }

    /// Label the photo with a record identifier: explicit metadata field
    /// plus pixel-domain watermark (§3.1 "Labeling").
    pub fn label(
        &mut self,
        id: RecordId,
        cfg: &WatermarkConfig,
    ) -> Result<(), irs_imaging::ImagingError> {
        let marked = watermark::embed(&self.image, &id.to_payload(), cfg)?;
        self.image = marked;
        self.metadata.set(MetadataKey::IrsRecordId, id.to_string());
        Ok(())
    }

    /// Read both label channels.
    pub fn read_label(&self, cfg: &WatermarkConfig) -> LabelReading {
        let metadata_id = self
            .metadata
            .get(MetadataKey::IrsRecordId)
            .and_then(RecordId::parse);
        let watermark_id = watermark::extract(&self.image, cfg)
            .ok()
            .and_then(|payload| RecordId::from_payload(&payload));
        LabelReading {
            metadata_id,
            watermark_id,
        }
    }
}

/// The result of reading a photo's two label channels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LabelReading {
    /// Identifier from the explicit metadata field, if present and valid.
    pub metadata_id: Option<RecordId>,
    /// Identifier recovered from the watermark, if any.
    pub watermark_id: Option<RecordId>,
}

/// The §3.2 classification of a label reading.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LabelState {
    /// Both channels present and agree: a validly labeled photo.
    Labeled(RecordId),
    /// Channels disagree, or exactly one is missing: the photo "has been
    /// modified in some way that has lost metadata" — upload denied.
    Inconsistent,
    /// Neither channel present: unclaimed content; the aggregator may
    /// reject it or claim it custodially.
    Unlabeled,
}

impl LabelReading {
    /// Classify per the upload rules.
    pub fn state(&self) -> LabelState {
        match (self.metadata_id, self.watermark_id) {
            (Some(m), Some(w)) if m == w => LabelState::Labeled(m),
            (None, None) => LabelState::Unlabeled,
            _ => LabelState::Inconsistent,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LedgerId;
    use irs_imaging::PhotoGenerator;

    fn photo() -> PhotoFile {
        PhotoFile::new(PhotoGenerator::new(3).generate(0, 256, 256))
    }

    fn cfg() -> WatermarkConfig {
        WatermarkConfig::default()
    }

    #[test]
    fn digest_covers_pixels_not_metadata() {
        let mut a = photo();
        let d1 = a.digest();
        a.metadata.set(MetadataKey::Comment, "hello");
        assert_eq!(a.digest(), d1, "metadata must not affect the digest");
        let b = PhotoFile::new(PhotoGenerator::new(3).generate(1, 256, 256));
        assert_ne!(b.digest(), d1);
    }

    #[test]
    fn label_and_read_back() {
        let mut p = photo();
        let id = RecordId::new(LedgerId(2), 77);
        p.label(id, &cfg()).unwrap();
        let reading = p.read_label(&cfg());
        assert_eq!(reading.metadata_id, Some(id));
        assert_eq!(reading.watermark_id, Some(id));
        assert_eq!(reading.state(), LabelState::Labeled(id));
    }

    #[test]
    fn stripped_metadata_is_inconsistent() {
        let mut p = photo();
        let id = RecordId::new(LedgerId(2), 78);
        p.label(id, &cfg()).unwrap();
        p.metadata.strip_all();
        let reading = p.read_label(&cfg());
        assert_eq!(reading.metadata_id, None);
        assert_eq!(reading.watermark_id, Some(id));
        assert_eq!(reading.state(), LabelState::Inconsistent);
    }

    #[test]
    fn mismatched_channels_are_inconsistent() {
        let mut p = photo();
        let id = RecordId::new(LedgerId(2), 79);
        p.label(id, &cfg()).unwrap();
        // Attacker rewrites the metadata to a different id.
        let other = RecordId::new(LedgerId(9), 1);
        p.metadata.set(MetadataKey::IrsRecordId, other.to_string());
        assert_eq!(p.read_label(&cfg()).state(), LabelState::Inconsistent);
    }

    #[test]
    fn unlabeled_photo() {
        let p = photo();
        let reading = p.read_label(&cfg());
        assert_eq!(reading.state(), LabelState::Unlabeled);
    }

    #[test]
    fn garbage_metadata_id_ignored() {
        let mut p = photo();
        p.metadata.set(MetadataKey::IrsRecordId, "irs:not:valid:zz");
        assert_eq!(p.read_label(&cfg()).metadata_id, None);
    }
}
