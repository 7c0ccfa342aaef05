//! RGB frames.

use serde::{Deserialize, Serialize};

/// A frame size in pixels.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Resolution {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
}

impl Resolution {
    /// Creates a resolution.
    pub const fn new(width: usize, height: usize) -> Self {
        Resolution { width, height }
    }

    /// Total pixels.
    pub fn pixels(&self) -> usize {
        self.width * self.height
    }
}

impl std::fmt::Display for Resolution {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// One 8-bit sample as a network input in `[0, 1]`: the one conversion
/// both [`Frame::to_tensor`] and [`Frame::to_tensor_into`] apply.
#[inline]
fn unit(b: u8) -> f32 {
    b as f32 / 255.0
}

/// An 8-bit RGB frame, interleaved row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    resolution: Resolution,
    data: Vec<u8>,
}

impl Frame {
    /// Creates a black frame.
    pub fn black(resolution: Resolution) -> Self {
        Frame {
            resolution,
            data: vec![0; resolution.pixels() * 3],
        }
    }

    /// Wraps raw interleaved RGB data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width · height · 3`.
    pub fn from_rgb(resolution: Resolution, data: Vec<u8>) -> Self {
        assert_eq!(data.len(), resolution.pixels() * 3, "bad RGB buffer size");
        Frame { resolution, data }
    }

    /// Frame size.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.resolution.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.resolution.height
    }

    /// Interleaved RGB bytes.
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable interleaved RGB bytes.
    pub fn data_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }

    /// Pixel at `(x, y)`.
    #[inline]
    pub fn pixel(&self, x: usize, y: usize) -> [u8; 3] {
        let i = (y * self.resolution.width + x) * 3;
        [self.data[i], self.data[i + 1], self.data[i + 2]]
    }

    /// Sets the pixel at `(x, y)`.
    #[inline]
    pub fn set_pixel(&mut self, x: usize, y: usize, rgb: [u8; 3]) {
        let i = (y * self.resolution.width + x) * 3;
        self.data[i..i + 3].copy_from_slice(&rgb);
    }

    /// Converts to an HWC `f32` tensor scaled to `[0, 1]` — the input format
    /// of every network in the reproduction.
    pub fn to_tensor(&self) -> ff_tensor::Tensor {
        ff_tensor::Tensor::from_vec(
            vec![self.resolution.height, self.resolution.width, 3],
            self.data.iter().map(|&b| unit(b)).collect(),
        )
    }

    /// [`Self::to_tensor`] into `out`, bit for bit, reusing its buffers: no
    /// allocation when `out` already holds a rank-3 tensor of this frame's
    /// element count (it is reshaped to `[height, width, 3]`).
    pub fn to_tensor_into(&self, out: &mut ff_tensor::Tensor) {
        if out.len() != self.data.len() {
            *out = self.to_tensor();
            return;
        }
        out.reshape_to(&[self.resolution.height, self.resolution.width, 3]);
        for (o, &b) in out.data_mut().iter_mut().zip(&self.data) {
            *o = unit(b);
        }
    }

    /// FNV-1a digest over the resolution and RGB bytes: a cheap stable
    /// fingerprint for asserting that fetched or replayed frame content
    /// is byte-identical (used by the fleet demand-fetch path).
    pub fn digest64(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for v in [self.resolution.width as u64, self.resolution.height as u64] {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        }
        for &b in &self.data {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h
    }

    /// Mean absolute per-channel difference to another frame, in 8-bit
    /// levels. Useful as a cheap change detector and in tests.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(self.resolution, other.resolution, "frame size mismatch");
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| (a as i64 - b as i64).unsigned_abs())
            .sum();
        sum as f64 / self.data.len() as f64
    }

    /// Peak signal-to-noise ratio versus a reference frame, in dB over all
    /// RGB samples. Returns `f64::INFINITY` for identical frames.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn psnr(&self, reference: &Frame) -> f64 {
        assert_eq!(self.resolution, reference.resolution, "frame size mismatch");
        let mse: f64 = self
            .data
            .iter()
            .zip(&reference.data)
            .map(|(&a, &b)| {
                let d = a as f64 - b as f64;
                d * d
            })
            .sum::<f64>()
            / self.data.len() as f64;
        if mse == 0.0 {
            f64::INFINITY
        } else {
            10.0 * (255.0f64 * 255.0 / mse).log10()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_roundtrip() {
        let mut f = Frame::black(Resolution::new(4, 3));
        f.set_pixel(2, 1, [10, 20, 30]);
        assert_eq!(f.pixel(2, 1), [10, 20, 30]);
        assert_eq!(f.pixel(0, 0), [0, 0, 0]);
    }

    #[test]
    fn tensor_conversion_scales() {
        let mut f = Frame::black(Resolution::new(2, 2));
        f.set_pixel(0, 0, [255, 0, 128]);
        let t = f.to_tensor();
        assert_eq!(t.dims(), &[2, 2, 3]);
        assert!((t.at3(0, 0, 0) - 1.0).abs() < 1e-6);
        assert!((t.at3(0, 0, 2) - 128.0 / 255.0).abs() < 1e-3);
    }

    #[test]
    fn to_tensor_into_matches_to_tensor_in_place() {
        let res = Resolution::new(5, 3);
        let data: Vec<u8> = (0..res.pixels() * 3)
            .map(|i| (i * 37 % 256) as u8)
            .collect();
        let f = Frame::from_rgb(res, data);
        let bits = |t: &ff_tensor::Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let want = f.to_tensor();

        // Every byte value converts exactly as `to_tensor` does.
        let every = Frame::from_rgb(
            Resolution::new(256, 1),
            (0..=255).flat_map(|b| [b; 3]).collect(),
        );
        let mut t = ff_tensor::Tensor::default();
        every.to_tensor_into(&mut t);
        assert_eq!(bits(&t), bits(&every.to_tensor()));

        // A wrong-sized buffer is replaced; a right-sized one of another
        // shape is reshaped and written in place.
        f.to_tensor_into(&mut t);
        assert_eq!((t.dims(), bits(&t)), (want.dims(), bits(&want)));
        let mut other = ff_tensor::Tensor::filled(vec![res.width, res.height, 3], 7.0);
        let (data, dims) = (other.data().as_ptr(), other.dims().as_ptr());
        f.to_tensor_into(&mut other);
        assert_eq!((other.dims(), bits(&other)), (want.dims(), bits(&want)));
        assert_eq!(other.data().as_ptr(), data, "data buffer reallocated");
        assert_eq!(other.dims().as_ptr(), dims, "shape vector reallocated");
    }

    #[test]
    fn psnr_identity_is_infinite() {
        let f = Frame::black(Resolution::new(8, 8));
        assert!(f.psnr(&f).is_infinite());
    }

    #[test]
    fn psnr_decreases_with_noise() {
        let a = Frame::black(Resolution::new(8, 8));
        let mut small = a.clone();
        small.set_pixel(0, 0, [8, 8, 8]);
        let mut big = a.clone();
        for y in 0..8 {
            for x in 0..8 {
                big.set_pixel(x, y, [64, 64, 64]);
            }
        }
        assert!(a.psnr(&small) > a.psnr(&big));
    }

    #[test]
    #[should_panic(expected = "bad RGB buffer size")]
    fn from_rgb_validates_len() {
        let _ = Frame::from_rgb(Resolution::new(2, 2), vec![0; 5]);
    }

    #[test]
    fn digest_distinguishes_content_and_shape() {
        let a = Frame::black(Resolution::new(4, 3));
        assert_eq!(a.digest64(), a.clone().digest64(), "stable per content");
        let mut b = a.clone();
        b.set_pixel(1, 1, [0, 0, 1]);
        assert_ne!(a.digest64(), b.digest64(), "one-bit content change");
        // Same zeroed bytes, different shape.
        let c = Frame::black(Resolution::new(3, 4));
        assert_ne!(a.digest64(), c.digest64(), "shape is part of the digest");
    }
}
