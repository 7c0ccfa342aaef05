//! Color conversion (BT.601 full-range) and 4:2:0 chroma subsampling.

use crate::{Frame, Resolution};

/// A single image plane of `f32` samples (nominally 0–255).
///
/// A plane may be stored with a border of `pad` edge-replicated samples
/// on every side (the encoder's per-frame working copies are), so that
/// block reads at or past the picture edge are plain row slices.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Plane {
    width: usize,
    height: usize,
    pad: usize,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero plane.
    pub fn zeros(width: usize, height: usize) -> Self {
        let mut p = Plane::default();
        p.reshape(width, height, 0);
        p
    }

    /// Resizes to `width × height` plus a `pad`-sample border, keeping the
    /// allocation when it is large enough. Sample values are unspecified
    /// until written; the border is filled by [`Plane::replicate_edges`].
    pub(super) fn reshape(&mut self, width: usize, height: usize, pad: usize) {
        (self.width, self.height, self.pad) = (width, height, pad);
        self.data
            .resize((width + 2 * pad) * (height + 2 * pad), 0.0);
    }

    /// Plane width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Plane height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Storage index of `(x, y)`, which may lie in the border.
    #[inline]
    fn idx(&self, x: isize, y: isize) -> usize {
        let p = self.pad as isize;
        ((y + p) * (self.width as isize + 2 * p) + x + p) as usize
    }

    /// Sample at `(x, y)`.
    #[inline]
    pub fn at(&self, x: usize, y: usize) -> f32 {
        self.data[self.idx(x as isize, y as isize)]
    }

    /// Sample at `(x, y)` with edge clamping for out-of-bounds coordinates.
    #[inline]
    pub fn at_clamped(&self, x: isize, y: isize) -> f32 {
        let x = x.clamp(0, self.width as isize - 1);
        let y = y.clamp(0, self.height as isize - 1);
        self.data[self.idx(x, y)]
    }

    /// Sets the sample at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        let i = self.idx(x as isize, y as isize);
        self.data[i] = v;
    }

    /// The `N` stored samples starting at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the run leaves the stored rows (picture plus border).
    #[inline]
    pub(super) fn row<const N: usize>(&self, x: isize, y: isize) -> &[f32; N] {
        let p = self.pad as isize;
        assert!(x >= -p && x + N as isize <= self.width as isize + p);
        let i = self.idx(x, y);
        self.data[i..i + N].try_into().expect("N samples")
    }

    /// The `n` picture samples of row `y` starting at `x`, mutably.
    fn row_mut(&mut self, x: usize, y: usize, n: usize) -> &mut [f32] {
        assert!(x + n <= self.width);
        let i = self.idx(x as isize, y as isize);
        &mut self.data[i..i + n]
    }

    /// Clamps the origin of an `n × n` block read so that it stays within
    /// a border of `n` samples. The samples are unchanged: a block wholly
    /// past an edge replicates that edge wherever it starts.
    #[inline]
    pub(super) fn clamp_origin(&self, x: isize, y: isize, n: usize) -> (isize, isize) {
        (
            x.clamp(-(n as isize), self.width as isize - 1),
            y.clamp(-(n as isize), self.height as isize - 1),
        )
    }

    /// The 8×8 block whose top-left sample is `(x, y)`, clamping at edges.
    pub fn block8_at(&self, x: isize, y: isize) -> [f32; 64] {
        let mut out = [0.0; 64];
        let (x, y) = self.clamp_origin(x, y, 8);
        let (w, h, p) = (self.width as isize, self.height as isize, self.pad as isize);
        if x >= -p && y >= -p && x + 8 <= w + p && y + 8 <= h + p {
            for (j, o) in out.chunks_exact_mut(8).enumerate() {
                o.copy_from_slice(self.row::<8>(x, y + j as isize));
            }
        } else {
            for (k, o) in out.iter_mut().enumerate() {
                *o = self.at_clamped(x + (k % 8) as isize, y + (k / 8) as isize);
            }
        }
        out
    }

    /// Extracts an 8×8 block at `(bx·8, by·8)`, clamping at edges.
    pub fn block8(&self, bx: usize, by: usize) -> [f32; 64] {
        self.block8_at((bx * 8) as isize, (by * 8) as isize)
    }

    /// Writes an 8×8 block at `(bx·8, by·8)`, ignoring out-of-bounds parts.
    pub fn set_block8(&mut self, bx: usize, by: usize, block: &[f32; 64]) {
        let (x, y) = (bx * 8, by * 8);
        if x >= self.width {
            return;
        }
        let w = (self.width - x).min(8);
        for j in 0..self.height.saturating_sub(y).min(8) {
            let i = self.idx(x as isize, (y + j) as isize);
            self.data[i..i + w].copy_from_slice(&block[j * 8..j * 8 + w]);
        }
    }

    /// Fills the border from the picture's outermost rows and columns.
    pub(super) fn replicate_edges(&mut self) {
        let (w, p) = (self.width, self.pad);
        let stride = w + 2 * p;
        for row in self.data.chunks_exact_mut(stride).skip(p).take(self.height) {
            let (left, right) = (row[p], row[p + w - 1]);
            row[..p].fill(left);
            row[p + w..].fill(right);
        }
        let last = (p + self.height - 1) * stride;
        for y in 0..p {
            self.data
                .copy_within(p * stride..(p + 1) * stride, y * stride);
            self.data
                .copy_within(last..last + stride, last + (y + 1) * stride);
        }
    }

    /// Becomes a copy of `src` with a `pad`-sample replicated border.
    pub(super) fn copy_padded_from(&mut self, src: &Plane, pad: usize) {
        self.reshape(src.width, src.height, pad);
        for y in 0..src.height {
            let (i, j) = (self.idx(0, y as isize), src.idx(0, y as isize));
            self.data[i..i + src.width].copy_from_slice(&src.data[j..j + src.width]);
        }
        self.replicate_edges();
    }
}

#[cfg(test)]
impl Plane {
    /// A plane of random fractional samples in `[0, 255)`.
    pub(super) fn random(width: usize, height: usize, rng: &mut impl rand::Rng) -> Self {
        let mut p = Plane::zeros(width, height);
        p.data.fill_with(|| rng.gen_range(0.0f32..255.0));
        p
    }

    /// A copy with a `pad`-sample replicated border.
    pub(super) fn bordered(&self, pad: usize) -> Self {
        let mut p = Plane::default();
        p.copy_padded_from(self, pad);
        p
    }
}

/// A YCbCr 4:2:0 picture: full-resolution luma, half-resolution chroma.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ycbcr420 {
    /// Luma plane (full resolution).
    pub y: Plane,
    /// Blue-difference chroma (half resolution each axis).
    pub cb: Plane,
    /// Red-difference chroma (half resolution each axis).
    pub cr: Plane,
    /// Original frame size (planes may be conceptually padded at edges).
    pub resolution: Resolution,
}

impl Ycbcr420 {
    /// Converts an RGB frame, averaging 2×2 neighborhoods for chroma.
    pub fn from_frame(frame: &Frame) -> Self {
        let mut out = Ycbcr420::default();
        out.load_frame(frame, 0);
        out
    }

    /// [`Ycbcr420::from_frame`] into this picture's storage, with a
    /// replicated border of `pad` luma (`pad / 2` chroma) samples.
    pub(super) fn load_frame(&mut self, frame: &Frame, pad: usize) {
        let (w, h) = (frame.width(), frame.height());
        let (cw, ch) = (w.div_ceil(2), h.div_ceil(2));
        self.resolution = frame.resolution();
        self.y.reshape(w, h, pad);
        self.cb.reshape(cw, ch, pad / 2);
        self.cr.reshape(cw, ch, pad / 2);
        let rgb = frame.data();
        // Per strip of a chroma row, one pass over the one or two pixel
        // rows beneath it writes luma and each pixel's chroma terms; the
        // terms are then summed per 2×2 neighborhood in row-major order.
        const STRIP: usize = 64; // even, so a strip holds whole neighborhoods
        let mut terms = [[[0.0f32; STRIP]; 2]; 2]; // [cb, cr][row][pixel]
        for cy in 0..ch {
            let rows = (h - cy * 2).min(2);
            for x0 in (0..w).step_by(STRIP) {
                let n = (w - x0).min(STRIP);
                let [tb, tr] = &mut terms;
                for dy in 0..rows {
                    let py = cy * 2 + dy;
                    let src = &rgb[(py * w + x0) * 3..][..n * 3];
                    let luma = self.y.row_mut(x0, py, n);
                    convert_row(src, luma, &mut tb[dy][..n], &mut tr[dy][..n]);
                }
                for (t, plane) in terms.iter().zip([&mut self.cb, &mut self.cr]) {
                    let out = plane.row_mut(x0 / 2, cy, n.div_ceil(2));
                    average_2x2(&t[0][..n], &t[1][..n * (rows - 1)], out);
                }
            }
        }
        if pad > 0 {
            self.y.replicate_edges();
            self.cb.replicate_edges();
            self.cr.replicate_edges();
        }
    }

    /// Creates a black picture of the given size.
    pub fn black(resolution: Resolution) -> Self {
        let (w, h) = (resolution.width, resolution.height);
        Ycbcr420 {
            y: Plane::zeros(w, h),
            cb: Plane::zeros(w.div_ceil(2), h.div_ceil(2)),
            cr: Plane::zeros(w.div_ceil(2), h.div_ceil(2)),
            resolution,
        }
    }

    /// Converts back to RGB with nearest-neighbor chroma upsampling.
    pub fn to_frame(&self) -> Frame {
        let (w, h) = (self.resolution.width, self.resolution.height);
        let mut frame = Frame::black(self.resolution);
        for py in 0..h {
            for px in 0..w {
                let yv = self.y.at(px, py);
                let cbv = self.cb.at(px / 2, py / 2) - 128.0;
                let crv = self.cr.at(px / 2, py / 2) - 128.0;
                let r = yv + 1.402 * crv;
                let g = yv - 0.344_136 * cbv - 0.714_136 * crv;
                let b = yv + 1.772 * cbv;
                frame.set_pixel(px, py, [clamp_u8(r), clamp_u8(g), clamp_u8(b)]);
            }
        }
        frame
    }
}

/// BT.601 luma and the Cb and Cr terms of one run of RGB pixels. (Distinct
/// slice arguments tell the compiler the outputs do not alias, which is
/// what lets this loop vectorize.)
fn convert_row(rgb: &[u8], y: &mut [f32], cb: &mut [f32], cr: &mut [f32]) {
    for (p, ((y, cb), cr)) in rgb.chunks_exact(3).zip(y.iter_mut().zip(cb).zip(cr)) {
        let (r, g, b) = (p[0] as f32, p[1] as f32, p[2] as f32);
        *y = 0.299 * r + 0.587 * g + 0.114 * b;
        *cb = 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
        *cr = 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
    }
}

/// Means of the 2×2 neighborhoods of two rows of terms, each summed from
/// `0.0` in row-major order. `bot` is empty under a picture's odd last row,
/// and an odd last column has one term per row.
fn average_2x2(top: &[f32], bot: &[f32], out: &mut [f32]) {
    // Whole neighborhoods in a loop of fixed shape, then the edge ones.
    let whole = top.len().min(bot.len()) / 2;
    for ((t, b), o) in top.chunks_exact(2).zip(bot.chunks_exact(2)).zip(&mut *out) {
        *o = (0.0 + t[0] + t[1] + b[0] + b[1]) / 4.0;
    }
    for (i, o) in out.iter_mut().enumerate().skip(whole) {
        let (mut sum, mut count) = (0.0f32, 0u32);
        for row in [top, bot] {
            for &v in row.iter().skip(i * 2).take(2) {
                sum += v;
                count += 1;
            }
        }
        *o = sum / count as f32;
    }
}

#[inline]
fn clamp_u8(v: f32) -> u8 {
    v.round().clamp(0.0, 255.0) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};

    /// The scalar reference conversion: two passes over `frame.pixel()`.
    fn from_frame_scalar(frame: &Frame) -> Ycbcr420 {
        let (w, h) = (frame.width(), frame.height());
        let mut out = Ycbcr420::black(frame.resolution());
        for py in 0..h {
            for px in 0..w {
                let [r, g, b] = frame.pixel(px, py).map(|v| v as f32);
                out.y.set(px, py, 0.299 * r + 0.587 * g + 0.114 * b);
            }
        }
        for cy in 0..h.div_ceil(2) {
            for cx in 0..w.div_ceil(2) {
                let (mut scb, mut scr, mut n) = (0.0f32, 0.0f32, 0u32);
                for dy in 0..2 {
                    for dx in 0..2 {
                        let (px, py) = (cx * 2 + dx, cy * 2 + dy);
                        if px < w && py < h {
                            let [r, g, b] = frame.pixel(px, py).map(|v| v as f32);
                            scb += 128.0 - 0.168_736 * r - 0.331_264 * g + 0.5 * b;
                            scr += 128.0 + 0.5 * r - 0.418_688 * g - 0.081_312 * b;
                            n += 1;
                        }
                    }
                }
                out.cb.set(cx, cy, scb / n as f32);
                out.cr.set(cx, cy, scr / n as f32);
            }
        }
        out
    }

    /// The scalar reference block read: 64 clamped samples.
    fn block8_at_scalar(p: &Plane, x: isize, y: isize) -> [f32; 64] {
        std::array::from_fn(|k| p.at_clamped(x + (k % 8) as isize, y + (k / 8) as isize))
    }

    fn bits(block: [f32; 64]) -> [u32; 64] {
        block.map(f32::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Odd sizes, sizes past one strip, single rows and columns: every
        /// sample of the strip conversion equals the scalar one, bordered
        /// or not, and the border replicates the edge.
        #[test]
        fn conversion_matches_the_scalar_reference(
            seed in any::<u64>(), w in 1usize..150, h in 1usize..24, pad in 0usize..3,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let res = Resolution::new(w, h);
            let data = (0..w * h * 3).map(|_| rng.gen_range(0..=255u8)).collect();
            let frame = Frame::from_rgb(res, data);
            let expected = from_frame_scalar(&frame);
            prop_assert_eq!(&Ycbcr420::from_frame(&frame), &expected);
            let mut bordered = Ycbcr420::default();
            bordered.load_frame(&frame, pad * 8);
            for (got, want) in [
                (&bordered.y, &expected.y),
                (&bordered.cb, &expected.cb),
                (&bordered.cr, &expected.cr),
            ] {
                let p = got.pad as isize;
                for y in -p..want.height as isize + p {
                    let row = &got.data[got.idx(-p, y)..][..want.width + 2 * got.pad];
                    for (x, v) in (-p..).zip(row) {
                        prop_assert_eq!(v.to_bits(), want.at_clamped(x, y).to_bits());
                    }
                }
            }
        }

        /// Block reads anywhere — inside, straddling each edge and corner,
        /// wholly outside — equal 64 clamped reads, with no border (the
        /// decoder), a full one (the encoder) and one too small to help.
        #[test]
        fn block_reads_match_clamped_reads(
            seed in any::<u64>(), w in 1usize..40, h in 1usize..30,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let plain = Plane::random(w, h, &mut rng);
            for pad in [0, 3, 8] {
                let p = plain.bordered(pad);
                for _ in 0..64 {
                    let x = rng.gen_range(-40..w as isize + 40);
                    let y = rng.gen_range(-40..h as isize + 40);
                    prop_assert_eq!(bits(p.block8_at(x, y)), bits(block8_at_scalar(&plain, x, y)));
                }
                for (bx, by) in [(0, 0), (w / 8, h / 8), (w.div_ceil(8), 0)] {
                    let want = block8_at_scalar(&plain, (bx * 8) as isize, (by * 8) as isize);
                    prop_assert_eq!(bits(p.block8(bx, by)), bits(want));
                }
            }
        }

        /// Block writes land where per-sample writes would, clipped.
        #[test]
        fn block_writes_match_sample_writes(
            seed in any::<u64>(), w in 1usize..40, h in 1usize..30,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let block: [f32; 64] = std::array::from_fn(|_| rng.gen_range(0.0f32..255.0));
            for by in 0..=h.div_ceil(8) {
                for bx in 0..=w.div_ceil(8) {
                    let (mut got, mut want) = (Plane::zeros(w, h), Plane::zeros(w, h));
                    got.set_block8(bx, by, &block);
                    for (k, &v) in block.iter().enumerate() {
                        let (x, y) = (bx * 8 + k % 8, by * 8 + k / 8);
                        if x < w && y < h {
                            want.set(x, y, v);
                        }
                    }
                    prop_assert_eq!(&got, &want);
                }
            }
        }
    }

    #[test]
    fn grayscale_roundtrip_is_near_lossless() {
        let mut f = Frame::black(Resolution::new(16, 16));
        for y in 0..16 {
            for x in 0..16 {
                let v = (x * 16 + y) as u8;
                f.set_pixel(x, y, [v, v, v]);
            }
        }
        let back = Ycbcr420::from_frame(&f).to_frame();
        assert!(back.psnr(&f) > 45.0, "psnr {}", back.psnr(&f));
    }

    #[test]
    fn saturated_colors_survive_roundtrip() {
        let mut f = Frame::black(Resolution::new(8, 8));
        for y in 0..8 {
            for x in 0..8 {
                // 2×2 constant color patches so 4:2:0 subsampling is exact.
                let c = match ((x / 2) + (y / 2)) % 3 {
                    0 => [255u8, 0, 0],
                    1 => [0, 255, 0],
                    _ => [0, 0, 255],
                };
                f.set_pixel(x, y, c);
            }
        }
        let back = Ycbcr420::from_frame(&f).to_frame();
        assert!(back.psnr(&f) > 35.0, "psnr {}", back.psnr(&f));
    }

    #[test]
    fn odd_dimensions_handled() {
        let f = Frame::black(Resolution::new(7, 5));
        let ycc = Ycbcr420::from_frame(&f);
        assert_eq!(ycc.cb.width(), 4);
        assert_eq!(ycc.cb.height(), 3);
        assert_eq!(ycc.to_frame().resolution(), f.resolution());
    }

    #[test]
    fn block8_clamps_at_edges() {
        let mut p = Plane::zeros(10, 10);
        p.set(9, 9, 7.0);
        let b = p.block8(1, 1); // covers x 8..16, clamped to 9
        assert_eq!(b[9 + 8], 7.0); // (9,9) position within block row 1, col 1
        assert_eq!(b[63], 7.0); // clamped corner replicates
    }
}
