//! The EXIF-like metadata container.
//!
//! IRS labels a photo two ways (§3.1 "Labeling"): explicit metadata fields
//! (this module) and a pixel-domain watermark ([`crate::watermark`]). Sites
//! today often strip metadata; the paper assumes IRS-supporting aggregators
//! preserve the IRS fields, while `irs-attacks` models hostile stripping.

use std::collections::BTreeMap;

/// Well-known metadata keys.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MetadataKey {
    /// The IRS ledger identifier ("irs:record-id"): the explicit label.
    IrsRecordId,
    /// C2PA-style provenance chain pointer.
    ProvenanceUri,
    /// Capture timestamp (seconds since epoch, decimal string).
    CaptureTime,
    /// Camera model string.
    CameraModel,
    /// Free-form user comment.
    Comment,
}

impl MetadataKey {
    fn as_str(&self) -> &'static str {
        match self {
            MetadataKey::IrsRecordId => "irs:record-id",
            MetadataKey::ProvenanceUri => "c2pa:provenance",
            MetadataKey::CaptureTime => "exif:capture-time",
            MetadataKey::CameraModel => "exif:camera-model",
            MetadataKey::Comment => "exif:comment",
        }
    }
}

/// An ordered key→value metadata map attached to a photo file.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metadata {
    fields: BTreeMap<String, String>,
}

impl Metadata {
    /// Empty metadata.
    pub fn new() -> Metadata {
        Metadata::default()
    }

    /// Set a well-known field.
    pub fn set(&mut self, key: MetadataKey, value: impl Into<String>) {
        self.fields.insert(key.as_str().to_string(), value.into());
    }

    /// Get a well-known field.
    pub fn get(&self, key: MetadataKey) -> Option<&str> {
        self.fields.get(key.as_str()).map(String::as_str)
    }

    /// Remove a well-known field, returning the old value.
    pub fn remove(&mut self, key: MetadataKey) -> Option<String> {
        self.fields.remove(key.as_str())
    }

    /// Number of fields present.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if no fields are present.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Strip everything — what a non-IRS site does on upload today.
    pub fn strip_all(&mut self) {
        self.fields.clear();
    }

    /// Strip everything *except* the IRS label and provenance fields — what
    /// an IRS-supporting aggregator does ("we assume content aggregators
    /// supporting IRS keep IRS-related metadata intact", §3.2).
    pub fn strip_preserving_irs(&mut self) {
        let keep = [
            MetadataKey::IrsRecordId.as_str(),
            MetadataKey::ProvenanceUri.as_str(),
        ];
        self.fields.retain(|k, _| keep.contains(&k.as_str()));
    }

    /// Iterate fields in sorted key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_roundtrip() {
        let mut m = Metadata::new();
        m.set(MetadataKey::IrsRecordId, "ledger-1:42");
        m.set(MetadataKey::CameraModel, "SynthCam 3000");
        assert_eq!(m.get(MetadataKey::IrsRecordId), Some("ledger-1:42"));
        assert_eq!(m.get(MetadataKey::CameraModel), Some("SynthCam 3000"));
        assert_eq!(m.get(MetadataKey::Comment), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn strip_all_clears() {
        let mut m = Metadata::new();
        m.set(MetadataKey::IrsRecordId, "x");
        m.set(MetadataKey::Comment, "y");
        m.strip_all();
        assert!(m.is_empty());
    }

    #[test]
    fn strip_preserving_irs_keeps_label() {
        let mut m = Metadata::new();
        m.set(MetadataKey::IrsRecordId, "ledger-1:42");
        m.set(MetadataKey::ProvenanceUri, "https://prov/1");
        m.set(MetadataKey::CaptureTime, "1700000000");
        m.set(MetadataKey::CameraModel, "SynthCam 3000");
        m.strip_preserving_irs();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(MetadataKey::IrsRecordId), Some("ledger-1:42"));
        assert_eq!(m.get(MetadataKey::CaptureTime), None);
        assert_eq!(m.get(MetadataKey::CameraModel), None);
    }

    #[test]
    fn remove_returns_value() {
        let mut m = Metadata::new();
        m.set(MetadataKey::Comment, "hello");
        assert_eq!(m.remove(MetadataKey::Comment), Some("hello".to_string()));
        assert_eq!(m.remove(MetadataKey::Comment), None);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = Metadata::new();
        m.set(MetadataKey::IrsRecordId, "1");
        m.set(MetadataKey::Comment, "2");
        let keys: Vec<&str> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["exif:comment", "irs:record-id"]);
    }
}
