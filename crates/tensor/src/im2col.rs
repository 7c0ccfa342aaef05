//! im2col/col2im lowering for 2-D convolutions on HWC tensors.
//!
//! A convolution with kernel `kh×kw` over an `H×W×C` input becomes a single
//! GEMM: `im2col(x) [out_h·out_w, kh·kw·C] · W [kh·kw·C, F]`. The backward
//! pass uses [`col2im`] to scatter column gradients back into image space.

use std::ops::Range;

use crate::matmul::MIN_ELEMS_FOR_THREADS;
use crate::parallel::{parallel_row_blocks_mut, threads};
use crate::Tensor;

/// Padding policy for convolution-like ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Padding {
    /// No padding; output shrinks by `k - 1`.
    Valid,
    /// TensorFlow-style "SAME": output is `ceil(in / stride)`, zero padding
    /// split evenly with the extra cell at the bottom/right.
    Same,
}

/// Resolved geometry of one conv application: output size and pad offsets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input height/width/channels.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Input channels.
    pub in_c: usize,
    /// Kernel height.
    pub kh: usize,
    /// Kernel width.
    pub kw: usize,
    /// Stride (same in both axes, as in the paper's architectures).
    pub stride: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
    /// Zero rows added above.
    pub pad_top: usize,
    /// Zero columns added left.
    pub pad_left: usize,
}

impl Conv2dGeometry {
    /// Resolves output size and padding for the given input and kernel.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`, the kernel is empty, or a `Valid` conv does
    /// not fit the input.
    pub fn resolve(
        (in_h, in_w, in_c): (usize, usize, usize),
        (kh, kw): (usize, usize),
        stride: usize,
        padding: Padding,
    ) -> Self {
        assert!(stride > 0, "stride must be positive");
        assert!(kh > 0 && kw > 0, "kernel must be non-empty");
        let (out_h, out_w, pad_top, pad_left) = match padding {
            Padding::Valid => {
                assert!(
                    in_h >= kh && in_w >= kw,
                    "valid conv {kh}x{kw} does not fit {in_h}x{in_w}"
                );
                ((in_h - kh) / stride + 1, (in_w - kw) / stride + 1, 0, 0)
            }
            Padding::Same => {
                let out_h = in_h.div_ceil(stride);
                let out_w = in_w.div_ceil(stride);
                let pad_h = ((out_h - 1) * stride + kh).saturating_sub(in_h);
                let pad_w = ((out_w - 1) * stride + kw).saturating_sub(in_w);
                (out_h, out_w, pad_h / 2, pad_w / 2)
            }
        };
        Conv2dGeometry {
            in_h,
            in_w,
            in_c,
            kh,
            kw,
            stride,
            out_h,
            out_w,
            pad_top,
            pad_left,
        }
    }

    /// Number of output spatial positions.
    pub fn positions(&self) -> usize {
        self.out_h * self.out_w
    }

    /// Fan-in of each output position (`kh·kw·in_c`).
    pub fn fan_in(&self) -> usize {
        self.kh * self.kw * self.in_c
    }
}

/// Lowers an HWC image to the im2col matrix `[positions, fan_in]`.
///
/// Out-of-bounds taps (from padding) are zero.
///
/// # Panics
///
/// Panics if `x` is not rank-3 or does not match `geo`'s input shape.
pub fn im2col(x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    let mut out = Tensor::zeros(vec![geo.positions(), geo.fan_in()]);
    im2col_into(x, geo, &mut out);
    out
}

/// [`im2col`] into a pre-allocated `[positions, fan_in]` output (e.g. a
/// [`crate::Workspace`] buffer). Every element is overwritten.
///
/// Only training needs the matrix (its backward pass reads it); inference
/// convolutions gather patches a strip at a time inside the GEMM
/// ([`crate::conv_gemm`]) through the same patch walker.
///
/// # Panics
///
/// Panics if `x` or `out` do not match `geo`.
pub fn im2col_into(x: &Tensor, geo: &Conv2dGeometry, out: &mut Tensor) {
    assert_eq!(
        x.dims(),
        &[geo.in_h, geo.in_w, geo.in_c],
        "im2col input shape"
    );
    let fan_in = geo.fan_in();
    assert_eq!(
        out.dims(),
        &[geo.positions(), fan_in],
        "im2col output shape"
    );
    let xd = x.data();
    let t = if out.len() >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    parallel_row_blocks_mut(out.data_mut(), fan_in, t, |row0, block| {
        PatchWalker::new(xd, geo, 0.0, row0).fill(block, fan_in);
    });
}

/// Writes im2col rows of stacked HWC frames (`x: [frames, in_h, in_w,
/// in_c]`, frames contiguous) in (frame, `oy`, `ox`) order — row
/// `f·positions + p` is row `p` of frame `f`'s patch matrix — from any
/// starting row, a run of rows at a time. The one definition of which tap
/// lands where and which taps padding clips, for `f32` maps (clipped taps
/// read `0.0`) and quantized `u8` ones (clipped taps read the zero point).
///
/// The walk keeps a (frame, `oy`, `ox`) cursor, so no row costs a division,
/// and decides once per output row which kernel rows `ky` lie inside the
/// input. The `kw` taps of one kernel row are adjacent input columns,
/// contiguous in HWC, so a position whose kernel row fits the input is `kh`
/// span copies of `kw·in_c` elements and nothing else; one at the left or
/// right border pads around a shorter span.
pub(crate) struct PatchWalker<'a, T> {
    x: &'a [T],
    geo: &'a Conv2dGeometry,
    /// What a tap that padding clips reads.
    pad: T,
    /// The output columns whose kernel rows lie wholly inside the input
    /// row: `ox·stride − pad_left ∈ [0, in_w − kw]`.
    whole: Range<usize>,
    frame: usize,
    oy: usize,
    ox: usize,
}

impl<'a, T: Copy> PatchWalker<'a, T> {
    /// A walker whose next row is `row0` of the stacked patch matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not a whole number of `geo`'s input frames.
    pub(crate) fn new(x: &'a [T], geo: &'a Conv2dGeometry, pad: T, row0: usize) -> Self {
        let frame_len = geo.in_h * geo.in_w * geo.in_c;
        assert!(
            frame_len > 0 && x.len().is_multiple_of(frame_len),
            "patch walker input is not whole frames"
        );
        let pos = row0 % geo.positions();
        let fits = (geo.in_w + geo.pad_left).saturating_sub(geo.kw - 1);
        let whole_end = fits.div_ceil(geo.stride).min(geo.out_w);
        PatchWalker {
            x,
            geo,
            pad,
            whole: geo.pad_left.div_ceil(geo.stride).min(whole_end)..whole_end,
            frame: row0 / geo.positions(),
            oy: pos / geo.out_w,
            ox: pos % geo.out_w,
        }
    }

    /// Writes the next `out.len() / ld` rows, one every `ld ≥ fan_in`
    /// elements: the row's `fan_in` taps; what lies between them and `ld`
    /// (the u8 GEMM's quad pad) is not touched.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not whole rows or runs past the last frame.
    pub(crate) fn fill(&mut self, out: &mut [T], ld: usize) {
        let g = self.geo;
        assert!(
            ld >= g.fan_in() && out.len().is_multiple_of(ld),
            "patch rows"
        );
        let frame_len = g.in_h * g.in_w * g.in_c;
        let (mut left, mut out) = (out.len() / ld, out);
        while left > 0 {
            let n = (g.out_w - self.ox).min(left);
            let (seg, rest) = out.split_at_mut(n * ld);
            let frame = &self.x[self.frame * frame_len..(self.frame + 1) * frame_len];
            self.fill_segment(frame, seg, ld, n);
            (out, left) = (rest, left - n);
            self.ox += n;
            if self.ox == g.out_w {
                self.ox = 0;
                self.oy += 1;
                if self.oy == g.out_h {
                    self.oy = 0;
                    self.frame += 1;
                }
            }
        }
    }

    /// The `n` rows (`seg`, `ld` apart) of output positions `(self.oy,
    /// self.ox..)` of one frame.
    fn fill_segment(&self, frame: &[T], seg: &mut [T], ld: usize, n: usize) {
        let g = self.geo;
        let (row_len, span, fan_in) = (g.in_w * g.in_c, g.kw * g.in_c, g.fan_in());
        // Vertical clip: shared by every position of the output row. Kernel
        // rows `ky_lo..ky_hi` read the `kys` input rows `in_rows`.
        let y0 = (self.oy * g.stride) as isize - g.pad_top as isize;
        let ky_lo = (-y0).clamp(0, g.kh as isize) as usize;
        let ky_hi = (g.in_h as isize - y0).clamp(ky_lo as isize, g.kh as isize) as usize;
        let kys = ky_hi - ky_lo;
        let first = (y0 + ky_lo as isize) as usize * row_len;
        let in_rows = &frame[first..first + kys * row_len];
        let taps = ky_lo * span..ky_hi * span;
        if taps.len() < fan_in {
            for row in seg.chunks_exact_mut(ld) {
                row[..taps.start].fill(self.pad);
                row[taps.end..fan_in].fill(self.pad);
            }
        }
        // Left border, the run of whole kernel rows, right border.
        let end = self.ox + n;
        let whole = self.whole.start.clamp(self.ox, end)..self.whole.end.clamp(self.ox, end);
        for ox in (self.ox..whole.start).chain(whole.end..end) {
            let row = &mut seg[(ox - self.ox) * ld..][taps.clone()];
            self.clipped_spans(row, in_rows, kys, ox);
        }
        let run = &mut seg[(whole.start - self.ox) * ld..];
        self.whole_spans(run, ld, taps.start, in_rows, kys, whole);
    }

    /// The `kys` kernel rows of each position `ox` (`ld` apart in `rows`, the
    /// taps starting `taps_at` into a row), all of which lie inside the
    /// input row: per kernel row one span copy and nothing else — the loop
    /// every interior position takes.
    #[inline(never)]
    fn whole_spans(
        &self,
        rows: &mut [T],
        ld: usize,
        taps_at: usize,
        in_rows: &[T],
        kys: usize,
        ox: Range<usize>,
    ) {
        let g = self.geo;
        let (row_len, span, step) = (g.in_w * g.in_c, g.kw * g.in_c, g.stride * g.in_c);
        if ox.is_empty() || kys == 0 {
            return;
        }
        let lo = (ox.start * g.stride - g.pad_left) * g.in_c;
        // The run's last span, read and written: every other one ends
        // before it.
        let last = ox.len() - 1;
        assert!(lo + last * step + (kys - 1) * row_len + span <= in_rows.len());
        assert!(last * ld + taps_at + kys * span <= rows.len());
        let (dst, src) = (rows[taps_at..].as_mut_ptr(), in_rows[lo..].as_ptr());
        for p in 0..=last {
            for ky in 0..kys {
                let (to, from) = (p * ld + ky * span, p * step + ky * row_len);
                // SAFETY: span `(p, ky)` is `span` elements at `to` past
                // `taps_at` in `rows` and at `from` past `lo` in `in_rows`,
                // inside both slices by the asserts above; one is borrowed
                // mutably and the other not, so they are disjoint.
                unsafe { copy_span(dst.add(to), src.add(from), span) };
            }
        }
    }

    /// The `kys` kernel rows of the position `ox` at the left or right
    /// border: the taps inside the input, padding on the side that is not.
    #[inline(never)]
    fn clipped_spans(&self, taps: &mut [T], in_rows: &[T], kys: usize, ox: usize) {
        let g = self.geo;
        let (w, c, kw) = (g.in_w as isize, g.in_c, g.kw as isize);
        let x0 = (ox * g.stride) as isize - g.pad_left as isize;
        let kx_lo = (-x0).clamp(0, kw) as usize;
        let kx_hi = (w - x0).clamp(kx_lo as isize, kw) as usize;
        // `x0 + kx_lo ≥ 0` by construction; a kernel wholly beside the input
        // (no resolved geometry has one) copies nothing.
        let lo = ((x0 + kx_lo as isize) as usize).min(g.in_w) * c;
        for ky in 0..kys {
            let dst = &mut taps[ky * g.kw * c..][..g.kw * c];
            let src = &in_rows[ky * g.in_w * c + lo..][..(kx_hi - kx_lo) * c];
            dst[..kx_lo * c].fill(self.pad);
            dst[kx_hi * c..].fill(self.pad);
            // SAFETY: both slices are `src.len()` long and cannot overlap,
            // one being borrowed mutably.
            unsafe {
                copy_span(
                    dst[kx_lo * c..kx_hi * c].as_mut_ptr(),
                    src.as_ptr(),
                    src.len(),
                )
            };
        }
    }
}

/// Copies the `n` elements of one kernel row of taps. A short span (the
/// stem's is nine elements, six at the right border) goes as two fixed-size
/// moves the compiler inlines — one from the span's start and one that ends
/// where it does, overlapping in between — where a `memcpy` call would cost
/// more than the bytes it moves. (Branches, not a loop over chunks: LLVM
/// turns that loop back into the call.)
///
/// # Safety
///
/// `src` must be readable and `dst` writable for `n` elements, and the two
/// ranges must not overlap.
#[inline(always)]
unsafe fn copy_span<T: Copy>(dst: *mut T, src: *const T, n: usize) {
    use std::ptr::copy_nonoverlapping as copy;
    // SAFETY: every copy lies inside the first `n` elements of both ranges.
    unsafe {
        match n {
            16..=32 => {
                copy(src, dst, 16);
                copy(src.add(n - 16), dst.add(n - 16), 16);
            }
            8..=15 => {
                copy(src, dst, 8);
                copy(src.add(n - 8), dst.add(n - 8), 8);
            }
            4..=7 => {
                copy(src, dst, 4);
                copy(src.add(n - 4), dst.add(n - 4), 4);
            }
            _ => copy(src, dst, n),
        }
    }
}

/// Lowers a **quantized** u8 HWC map into quad-padded im2col rows for the
/// whole-int8 GEMM ([`crate::gemm_prepacked_i8i8`]): `out` holds
/// `positions` rows of [`crate::i8i8_padded_k`]`(fan_in)` bytes each.
/// SAME-padding taps write the map's zero point `zp` — the exact u8
/// encoding of 0.0 under the asymmetric scheme — and the quad pad at the
/// end of each row writes code 0, which the zero-coded padded weight rows
/// annihilate. The quantized activations go straight from the per-frame
/// map to the GEMM's byte layout with no f32 round-trip.
///
/// Row `p` is a pure function of the map, so batched lowering (one call
/// per frame into consecutive row ranges) is bit-identical to the serial
/// path by construction.
///
/// # Panics
///
/// Panics if `qmap` or `out` do not match `geo`.
pub fn im2col_u8_into(qmap: &[u8], zp: u8, geo: &Conv2dGeometry, out: &mut [u8]) {
    assert_eq!(
        qmap.len(),
        geo.in_h * geo.in_w * geo.in_c,
        "im2col u8 input shape"
    );
    let kp = crate::i8i8_padded_k(geo.fan_in());
    assert_eq!(out.len(), geo.positions() * kp, "im2col u8 output shape");
    if kp > geo.fan_in() {
        // The quad pad is some of a row's last four bytes: zero all four,
        // and the walk writes its taps over the others.
        for row in out.chunks_exact_mut(kp) {
            row[kp - 4..].fill(0);
        }
    }
    PatchWalker::new(qmap, geo, zp, 0).fill(out, kp);
}

/// Scatters an im2col-shaped gradient back into image space (the adjoint of
/// [`im2col`]): overlapping taps accumulate.
///
/// # Panics
///
/// Panics if `cols` does not have shape `[positions, fan_in]`.
pub fn col2im(cols: &Tensor, geo: &Conv2dGeometry) -> Tensor {
    assert_eq!(
        cols.dims(),
        &[geo.positions(), geo.fan_in()],
        "col2im input shape"
    );
    let mut img = Tensor::zeros(vec![geo.in_h, geo.in_w, geo.in_c]);
    let cd = cols.data();
    let (w, c) = (geo.in_w, geo.in_c);
    let fan_in = geo.fan_in();
    let imgd = img.data_mut();
    for pos in 0..geo.positions() {
        let oy = pos / geo.out_w;
        let ox = pos % geo.out_w;
        let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
        let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
        let row = &cd[pos * fan_in..(pos + 1) * fan_in];
        for ky in 0..geo.kh {
            let y = y0 + ky as isize;
            if y < 0 || y >= geo.in_h as isize {
                continue;
            }
            let y = y as usize;
            for kx in 0..geo.kw {
                let xx = x0 + kx as isize;
                if xx < 0 || xx >= w as isize {
                    continue;
                }
                let src = &row[(ky * geo.kw + kx) * c..(ky * geo.kw + kx + 1) * c];
                let dst = (y * w + xx as usize) * c;
                for (d, &s) in imgd[dst..dst + c].iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_padding_geometry_matches_tf() {
        // 5x5 input, 3x3 kernel, stride 2 → ceil(5/2)=3, pad_total = (3-1)*2+3-5 = 2.
        let g = Conv2dGeometry::resolve((5, 5, 1), (3, 3), 2, Padding::Same);
        assert_eq!((g.out_h, g.out_w), (3, 3));
        assert_eq!((g.pad_top, g.pad_left), (1, 1));
        // Even input: 4x4, stride 2, 3x3 → out 2, pad_total = (2-1)*2+3-4 = 1, top gets 0.
        let g = Conv2dGeometry::resolve((4, 4, 1), (3, 3), 2, Padding::Same);
        assert_eq!((g.out_h, g.out_w), (2, 2));
        assert_eq!((g.pad_top, g.pad_left), (0, 0));
    }

    #[test]
    fn valid_geometry() {
        let g = Conv2dGeometry::resolve((5, 7, 3), (3, 3), 1, Padding::Valid);
        assert_eq!((g.out_h, g.out_w), (3, 5));
        assert_eq!(g.fan_in(), 27);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn valid_rejects_oversized_kernel() {
        let _ = Conv2dGeometry::resolve((2, 2, 1), (3, 3), 1, Padding::Valid);
    }

    #[test]
    fn im2col_1x1_is_reshape() {
        let x = Tensor::from_vec(vec![2, 2, 2], (0..8).map(|i| i as f32).collect());
        let g = Conv2dGeometry::resolve((2, 2, 2), (1, 1), 1, Padding::Same);
        let m = im2col(&x, &g);
        assert_eq!(m.dims(), &[4, 2]);
        assert_eq!(m.data(), x.data());
    }

    #[test]
    fn im2col_center_tap() {
        // 3x3 single-channel image, 3x3 SAME conv, stride 1: the center
        // output position sees the whole image.
        let x = Tensor::from_vec(vec![3, 3, 1], (1..=9).map(|i| i as f32).collect());
        let g = Conv2dGeometry::resolve((3, 3, 1), (3, 3), 1, Padding::Same);
        let m = im2col(&x, &g);
        assert_eq!(m.dims(), &[9, 9]);
        let center: Vec<f32> = m.data()[4 * 9..5 * 9].to_vec();
        assert_eq!(center, (1..=9).map(|i| i as f32).collect::<Vec<_>>());
        // Top-left position: padded corner → first row and column of taps are 0.
        let tl: Vec<f32> = m.data()[0..9].to_vec();
        assert_eq!(tl, vec![0., 0., 0., 0., 1., 2., 0., 4., 5.]);
    }

    /// Tap `j` of row `row` of the stacked patch matrix, by the definition:
    /// the cell `(oy·stride + ky − pad_top, ox·stride + kx − pad_left)` of
    /// the row's frame at channel `ch`, or `pad` outside the frame.
    fn tap<T: Copy>(x: &[T], g: &Conv2dGeometry, pad: T, row: usize, j: usize) -> T {
        let (frame, pos) = (row / g.positions(), row % g.positions());
        let (oy, ox) = (pos / g.out_w, pos % g.out_w);
        let (ky, kx, ch) = (j / (g.kw * g.in_c), j / g.in_c % g.kw, j % g.in_c);
        let y = (oy * g.stride + ky) as isize - g.pad_top as isize;
        let xx = (ox * g.stride + kx) as isize - g.pad_left as isize;
        if y < 0 || y >= g.in_h as isize || xx < 0 || xx >= g.in_w as isize {
            return pad;
        }
        x[((frame * g.in_h + y as usize) * g.in_w + xx as usize) * g.in_c + ch]
    }

    #[test]
    fn walker_matches_the_elementwise_definition() {
        // Every kernel, stride, padding and channel count the repo lowers,
        // on every map from 1×1 to 9×9 (so every mix of clipped and whole
        // kernel rows): `im2col_into` on one frame, the u8 lowering with
        // its zero point and quad pad, and the walker over stacked frames
        // from staggered starting rows in uneven runs. Values are the
        // element's own index, so a misplaced tap cannot read right by
        // accident. (Batch 64 skips c = 160: 20 M taps per geometry.)
        let x: Vec<f32> = (0..64 * 9 * 9 * 8).map(|i| (i + 1) as f32).collect();
        let x160: Vec<f32> = (0..4 * 9 * 9 * 160).map(|i| (i + 1) as f32).collect();
        let codes: Vec<u8> = (0..9 * 9 * 160).map(|i| (i % 251) as u8 + 1).collect();
        let mut geometries = 0;
        for (k, stride, h, w) in cross(&[1, 3, 5], &[1, 2], 1..=9, 1..=9) {
            for padding in [Padding::Same, Padding::Valid] {
                if padding == Padding::Valid && (h < k || w < k) {
                    continue;
                }
                for c in [1usize, 3, 8, 160] {
                    let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, padding);
                    let (positions, fan_in, frame_len) = (geo.positions(), geo.fan_in(), h * w * c);
                    let at = format!("k{k} s{stride} {padding:?} {h}x{w}x{c}");
                    geometries += 1;

                    let x = if c == 160 { &x160 } else { &x };
                    let frame = Tensor::from_vec(vec![h, w, c], x[..frame_len].to_vec());
                    let cols = im2col(&frame, &geo);
                    for (i, &got) in cols.data().iter().enumerate() {
                        let want = tap(x, &geo, 0.0, i / fan_in, i % fan_in);
                        assert_eq!(got, want, "{at} row {} tap {}", i / fan_in, i % fan_in);
                    }

                    let kp = crate::i8i8_padded_k(fan_in);
                    let mut got = vec![0xAAu8; positions * kp];
                    im2col_u8_into(&codes[..frame_len], 0, &geo, &mut got);
                    for (i, &got) in got.iter().enumerate() {
                        let want = match i % kp {
                            j if j < fan_in => tap(&codes, &geo, 0, i / kp, j),
                            _ => 0,
                        };
                        assert_eq!(got, want, "{at} u8 row {} byte {}", i / kp, i % kp);
                    }

                    for batch in [1usize, 4, 64] {
                        if batch * frame_len > x.len() {
                            continue;
                        }
                        let rows = batch * positions;
                        let mut buf = vec![f32::NAN; 7 * fan_in];
                        for row0 in [0, rows / 3, rows - 1] {
                            let mut walker =
                                PatchWalker::new(&x[..batch * frame_len], &geo, 0.0, row0);
                            for start in (row0..rows).step_by(7) {
                                let n = (rows - start).min(7);
                                walker.fill(&mut buf[..n * fan_in], fan_in);
                                for (i, &got) in buf[..n * fan_in].iter().enumerate() {
                                    let (row, j) = (start + i / fan_in, i % fan_in);
                                    let want = tap(x, &geo, 0.0, row, j);
                                    assert_eq!(got, want, "{at} batch {batch} row {row} tap {j}");
                                }
                            }
                        }
                    }
                }
            }
        }
        // SAME on all 81 maps per kernel; VALID where the kernel fits.
        assert_eq!(geometries, 2 * 4 * (3 * 81 + 81 + 49 + 25));
    }

    /// The cross product of four small ranges.
    fn cross(
        ks: &[usize],
        strides: &[usize],
        hs: std::ops::RangeInclusive<usize>,
        ws: std::ops::RangeInclusive<usize>,
    ) -> Vec<(usize, usize, usize, usize)> {
        let mut all = Vec::new();
        for &k in ks {
            for &s in strides {
                for h in hs.clone() {
                    for w in ws.clone() {
                        all.push((k, s, h, w));
                    }
                }
            }
        }
        all
    }

    #[test]
    fn u8_im2col_matches_f32_im2col_on_codes() {
        // Lowering the quantized map must place exactly the map's codes at
        // in-bounds taps and the zero point at padding taps — verified
        // against the f32 lowering run on the zp-shifted codes (whose
        // padding value 0.0 is the shift of zp).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for &(h, w, c, k, stride) in &[
            (5usize, 4usize, 3usize, 3usize, 1usize),
            (5, 4, 3, 3, 2),
            (4, 4, 2, 1, 1),
            (6, 7, 5, 3, 2),
        ] {
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let x: Vec<f32> = (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut qmap = vec![0u8; x.len()];
            let (_, zp) = crate::quantize_map_u8_into(&x, &mut qmap);
            let kp = crate::i8i8_padded_k(geo.fan_in());
            let mut got = vec![0u8; geo.positions() * kp];
            im2col_u8_into(&qmap, zp, &geo, &mut got);
            let shifted = Tensor::from_vec(
                vec![h, w, c],
                qmap.iter().map(|&q| f32::from(q) - f32::from(zp)).collect(),
            );
            let want = im2col(&shifted, &geo);
            for pos in 0..geo.positions() {
                let grow = &got[pos * kp..(pos + 1) * kp];
                let wrow = &want.data()[pos * geo.fan_in()..(pos + 1) * geo.fan_in()];
                for (j, (&g, &wv)) in grow.iter().zip(wrow).enumerate() {
                    assert_eq!(
                        f32::from(g) - f32::from(zp),
                        wv,
                        "{h}x{w}x{c} k{k} s{stride} pos {pos} tap {j}"
                    );
                }
                for &g in &grow[geo.fan_in()..] {
                    assert_eq!(g, 0, "quad pad byte");
                }
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of an adjoint, which is exactly what backprop needs.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let g = Conv2dGeometry::resolve((5, 4, 3), (3, 3), 2, Padding::Same);
        let x = Tensor::from_vec(
            vec![5, 4, 3],
            (0..60).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let y = Tensor::from_vec(
            vec![g.positions(), g.fan_in()],
            (0..g.positions() * g.fan_in())
                .map(|_| rng.gen_range(-1.0..1.0))
                .collect(),
        );
        let lhs: f32 = im2col(&x, &g)
            .data()
            .iter()
            .zip(y.data())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f32 = x
            .data()
            .iter()
            .zip(col2im(&y, &g).data())
            .map(|(a, b)| a * b)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }
}
