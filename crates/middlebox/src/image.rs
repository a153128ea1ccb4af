//! Transparent image transcoding (§5.2, Table 7).
//!
//! Mobile carriers compress images in flight to save bandwidth. The paper's
//! analysis keys on two observables: (a) the response is still a JPEG but
//! smaller, and (b) the *compression ratio is consistent across exit nodes
//! of the same AS* (single-ratio ASes) or clusters around a small set of
//! ratios (multi-ratio ASes, marked "M" in Table 7).

use netsim::rng::RngExt;
use netsim::SimRng;

/// JPEG SOI marker — the transcoder preserves the format, only the payload
/// shrinks.
pub const JPEG_MAGIC: [u8; 3] = [0xFF, 0xD8, 0xFF];

/// A transparent image transcoder with one or more operating points.
#[derive(Debug, Clone)]
pub struct ImageTranscoder {
    /// Size ratios the transcoder compresses to (e.g. `[0.53]`, or
    /// `[0.34, 0.61]` for a multi-ratio deployment).
    ratios: Vec<f64>,
}

impl ImageTranscoder {
    /// A transcoder with the given output/input size ratios.
    ///
    /// # Panics
    /// Panics if `ratios` is empty or any ratio is outside `(0, 1)`.
    pub fn new(ratios: Vec<f64>) -> Self {
        assert!(!ratios.is_empty(), "transcoder needs at least one ratio");
        assert!(
            ratios.iter().all(|r| *r > 0.0 && *r < 1.0),
            "compression ratios must be in (0,1)"
        );
        ImageTranscoder { ratios }
    }

    /// A single-operating-point transcoder.
    pub fn single(ratio: f64) -> Self {
        Self::new(vec![ratio])
    }

    /// The configured operating points.
    pub fn ratios(&self) -> &[f64] {
        &self.ratios
    }

    /// Transcode a JPEG body: picks one operating point (per request, which
    /// for a single-ratio deployment is deterministic) and produces a
    /// smaller JPEG. Non-JPEG inputs pass through untouched — the paper saw
    /// compression only on images.
    pub fn transcode(&self, image: &[u8], rng: &mut SimRng) -> Vec<u8> {
        if image.len() < JPEG_MAGIC.len() || image[..3] != JPEG_MAGIC {
            return image.to_vec();
        }
        let ratio = if self.ratios.len() == 1 {
            self.ratios[0]
        } else {
            self.ratios[rng.random_range(0..self.ratios.len())]
        };
        let new_len = ((image.len() as f64) * ratio).round().max(4.0) as usize;
        let mut out = Vec::with_capacity(new_len);
        out.extend_from_slice(&JPEG_MAGIC);
        // Re-encoded payload: derived from the original so different source
        // images still produce different outputs, but visibly "recompressed".
        out.extend(
            image
                .iter()
                .skip(3)
                .step_by((image.len() / new_len).max(1))
                .take(new_len - 3),
        );
        while out.len() < new_len {
            out.push(0);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jpeg(len: usize) -> Vec<u8> {
        let mut v = vec![0xFF, 0xD8, 0xFF];
        v.extend((0..len - 3).map(|i| (i % 251) as u8));
        v
    }

    #[test]
    fn single_ratio_is_deterministic_and_correct() {
        let t = ImageTranscoder::single(0.53);
        let mut rng = SimRng::new(1);
        let img = jpeg(39 * 1024);
        let a = t.transcode(&img, &mut rng);
        let b = t.transcode(&img, &mut rng);
        assert_eq!(a.len(), b.len());
        let ratio = a.len() as f64 / img.len() as f64;
        assert!((ratio - 0.53).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn output_is_still_jpeg() {
        let t = ImageTranscoder::single(0.4);
        let mut rng = SimRng::new(2);
        let out = t.transcode(&jpeg(1000), &mut rng);
        assert_eq!(&out[..3], &JPEG_MAGIC);
        assert_ne!(out, jpeg(1000));
    }

    #[test]
    fn multi_ratio_produces_multiple_sizes() {
        let t = ImageTranscoder::new(vec![0.3, 0.6]);
        let mut rng = SimRng::new(3);
        let img = jpeg(10_000);
        let sizes: std::collections::HashSet<usize> =
            (0..50).map(|_| t.transcode(&img, &mut rng).len()).collect();
        assert_eq!(sizes.len(), 2, "expected exactly two operating points");
    }

    #[test]
    fn non_jpeg_passes_through() {
        let t = ImageTranscoder::single(0.5);
        let mut rng = SimRng::new(4);
        let body = b"<html>not an image</html>".to_vec();
        assert_eq!(t.transcode(&body, &mut rng), body);
    }

    #[test]
    fn different_images_compress_differently() {
        let t = ImageTranscoder::single(0.5);
        let mut rng = SimRng::new(5);
        let a = t.transcode(&jpeg(1000), &mut rng);
        let mut other = jpeg(1000);
        for b in other.iter_mut().skip(3) {
            *b = b.wrapping_add(13);
        }
        let b = t.transcode(&other, &mut rng);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "in (0,1)")]
    fn rejects_silly_ratios() {
        ImageTranscoder::single(1.5);
    }
}
