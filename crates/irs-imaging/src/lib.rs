//! Imaging substrate for the Internet Revocation System reproduction.
//!
//! The paper assumes an ecosystem full of photographs, cameras that label
//! them, sites that transcode them, and two image-processing technologies:
//! robust watermarking (to carry the ledger identifier in pixel data,
//! Goal #5) and robust/perceptual hashing (PhotoDNA-style, for the appeals
//! process in §3.2 and the re-claiming attack in §5). This crate builds all
//! of that synthetically:
//!
//! * [`raster`] — the [`raster::Image`] type (8-bit RGB raster) with crop,
//!   resize, and luma conversion;
//! * [`generator`] — deterministic procedural "photographs" with natural
//!   image statistics (octave value noise, gradients, shapes);
//! * [`dct`] / [`dwt`] — the transform substrate (8×8 and 32×32 DCT-II,
//!   one-level Haar DWT);
//! * [`jpeg`] — JPEG-style lossy transcoding (quality-scaled quantization
//!   of block DCT coefficients), the "benign manipulation" sites apply;
//! * [`manipulate`] — crop, resize, tint, brightness, noise, overlays;
//! * [`metadata`] — the EXIF-like metadata container that carries the
//!   explicit IRS label (and that hostile sites strip);
//! * [`ecc`] — CRC-16 + Hamming(7,4) coding for the watermark payload;
//! * [`watermark`] — DWT–DCT QIM watermark carrying a 96-bit identifier,
//!   robust to JPEG transcoding, cropping, and tinting (experiment E7);
//! * [`phash`] — the 256-bit DCT perceptual hash with Hamming-distance
//!   matching (experiment E8).

pub mod dct;
pub mod dwt;
pub mod ecc;
pub mod generator;
pub mod jpeg;
pub mod manipulate;
pub mod metadata;
pub mod phash;
pub mod raster;
pub mod watermark;

pub use generator::PhotoGenerator;
pub use metadata::{Metadata, MetadataKey};
pub use raster::Image;

/// Errors from imaging operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImagingError {
    /// Image dimensions unusable for the requested operation.
    BadDimensions(&'static str),
    /// Requested region lies outside the image.
    OutOfBounds,
    /// Watermark payload could not be embedded (image too small for the
    /// required redundancy).
    TooSmallForWatermark,
    /// No valid watermark found at extraction time.
    WatermarkNotFound,
}

impl std::fmt::Display for ImagingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImagingError::BadDimensions(what) => write!(f, "bad image dimensions: {what}"),
            ImagingError::OutOfBounds => write!(f, "region out of bounds"),
            ImagingError::TooSmallForWatermark => {
                write!(f, "image too small to carry the watermark payload")
            }
            ImagingError::WatermarkNotFound => write!(f, "no valid watermark found"),
        }
    }
}

impl std::error::Error for ImagingError {}
