//! Depthwise 2-D convolution (channel multiplier 1), the building block of
//! MobileNet's separable convolutions.

use ff_tensor::{Conv2dGeometry, Padding, Precision, Tensor, Workspace};
use rand::SeedableRng;

use crate::layer::{frame_dims, stacked};
use crate::layers::DerivedWeights;
use crate::{Layer, Param};

/// The taps a depthwise layer's inference runs with, backing
/// [`Layer::set_precision`] for the depthwise units: the raw weights at
/// f32, else `store`'s quantize-roundtripped copy of them, built on first
/// use (see [`DerivedWeights`]).
///
/// Depthwise weights are tiny (`k²·C` floats — the packed GEMM panels of
/// the pointwise convolutions dominate weight bytes by orders of
/// magnitude), so the point here is not memory but **numeric consistency**:
/// a backbone set to whole-int8 quantizes *every* conv's weights. The
/// copy is an f32 working copy of the roundtripped weights (one symmetric
/// int8 scale per channel over its `k²` taps), rebuilt only after the
/// weights or the precision change, so streaming inference pays no
/// per-frame quantization.
pub(crate) fn inference_taps<'a>(
    store: &'a DerivedWeights<Vec<f32>>,
    w: &'a [f32],
    c: usize,
) -> &'a [f32] {
    if store.precision() == Precision::F32 {
        return w;
    }
    store.get(|_| {
        let mut deq = w.to_vec();
        // Depthwise taps have no GEMM lowering, so the whole-int8 rung
        // gives them a per-channel symmetric int8 roundtrip.
        let taps = w.len() / c;
        for ch in 0..c {
            let mut amax = 0.0f32;
            for t in 0..taps {
                amax = amax.max(w[t * c + ch].abs());
            }
            if amax == 0.0 {
                continue;
            }
            let scale = amax / 127.0;
            let inv = 127.0 / amax;
            for t in 0..taps {
                let q = (w[t * c + ch] * inv).round().clamp(-127.0, 127.0);
                deq[t * c + ch] = q * scale;
            }
        }
        deq
    })
}

/// A depthwise convolution: each input channel is filtered by its own
/// `k×k` kernel; channels never mix (the following 1×1 pointwise conv does
/// the mixing).
///
/// Weights are `[kh, kw, c]`, bias `[c]`.
pub struct DepthwiseConv2d {
    k: usize,
    stride: usize,
    padding: Padding,
    c: usize,
    weight: Param,
    bias: Param,
    cache: Vec<(Conv2dGeometry, Tensor)>,
    /// Inference taps for [`Layer::set_precision`] (see
    /// [`inference_taps`]); training always uses the raw f32 weights.
    taps: DerivedWeights<Vec<f32>>,
}

impl std::fmt::Debug for DepthwiseConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DepthwiseConv2d({0}x{0} s{1} c{2})",
            self.k, self.stride, self.c
        )
    }
}

impl DepthwiseConv2d {
    /// Creates a SAME-padded depthwise convolution with He-initialized
    /// weights.
    pub fn new(k: usize, stride: usize, c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k;
        DepthwiseConv2d {
            k,
            stride,
            padding: Padding::Same,
            c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![k, k, c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![c])),
            cache: Vec::new(),
            taps: DerivedWeights::new(),
        }
    }

    /// The storage precision of the inference weights.
    pub fn precision(&self) -> Precision {
        self.taps.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(in_shape.len(), 3, "DepthwiseConv2d expects HWC input");
        assert_eq!(
            in_shape[2], self.c,
            "DepthwiseConv2d expects {} channels, got {}",
            self.c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }
}

/// Per-application geometry shared by every output row of one depthwise
/// pass: the conv geometry plus the interior-column bounds, resolved once.
#[derive(Clone, Copy)]
struct DwGeom {
    k: usize,
    c: usize,
    in_h: usize,
    in_w: usize,
    out_w: usize,
    stride: usize,
    pad_top: usize,
    pad_left: usize,
    /// Output columns in `ix_lo..ix_hi` have their tap rectangle fully
    /// inside `0..in_w`: `ox·stride ≥ pad_left` and
    /// `ox·stride + k ≤ in_w + pad_left`.
    ix_lo: usize,
    ix_hi: usize,
}

impl DwGeom {
    fn new(geo: &Conv2dGeometry, k: usize) -> Self {
        let ix_lo = geo.pad_left.div_ceil(geo.stride).min(geo.out_w);
        let ix_hi = if geo.in_w + geo.pad_left >= k {
            ((geo.in_w + geo.pad_left - k) / geo.stride + 1).clamp(ix_lo, geo.out_w)
        } else {
            ix_lo
        };
        DwGeom {
            k,
            c: geo.in_c,
            in_h: geo.in_h,
            in_w: geo.in_w,
            out_w: geo.out_w,
            stride: geo.stride,
            pad_top: geo.pad_top,
            pad_left: geo.pad_left,
            ix_lo,
            ix_hi,
        }
    }
}

/// One depthwise pass — geometry, taps, bias and the optional fused
/// `·scale + shift → ReLU` tail — with every length checked against the
/// geometry once: the interior kernels index them through raw pointers, so
/// a value of this type only ever comes from [`DwPass::checked`].
struct DwPass<'a> {
    g: DwGeom,
    weight: &'a [f32],
    bias: &'a [f32],
    tail: Option<(&'a [f32], &'a [f32])>,
    /// Whether rows run the 16-lane instantiation: this CPU has AVX-512F.
    /// Decided from CPUID alone; the bits are the same either way.
    wide: bool,
}

impl<'a> DwPass<'a> {
    /// # Panics
    ///
    /// Panics unless `weight` is `[k, k, c]` and `bias` and both halves of
    /// `tail` are `[c]`.
    fn checked(
        geo: &Conv2dGeometry,
        k: usize,
        weight: &'a [f32],
        bias: &'a [f32],
        tail: Option<(&'a [f32], &'a [f32])>,
    ) -> Self {
        let g = DwGeom::new(geo, k);
        assert_eq!(weight.len(), k * k * g.c, "depthwise taps");
        assert_eq!(bias.len(), g.c, "depthwise bias");
        if let Some((scale, shift)) = tail {
            assert!(scale.len() == g.c && shift.len() == g.c, "depthwise tail");
        }
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        let wide = std::arch::is_x86_feature_detected!("avx512f");
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
        let wide = false;
        DwPass {
            g,
            weight,
            bias,
            tail,
            wide,
        }
    }

    /// Output row `oy` of the frame `xd` (`[in_h, in_w, c]`) into `row`
    /// (`[out_w, c]`), at the lane width the build and the CPU select.
    fn row(&self, xd: &[f32], oy: usize, row: &mut [f32]) {
        let g = &self.g;
        assert_eq!(xd.len(), g.in_h * g.in_w * g.c, "depthwise frame");
        assert_eq!(row.len(), g.out_w * g.c, "depthwise output row");
        // SAFETY: the two lengths just checked and `checked`'s are all that
        // `depthwise_row` asks for beyond its instruction set: AVX2 is a
        // compile-time target feature where named, and `wide` is only ever
        // true when `checked` saw AVX-512F on this CPU.
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        unsafe {
            if self.wide {
                depthwise_row_zmm(self, xd, oy, row)
            } else {
                depthwise_row::<std::arch::x86_64::__m256>(self, xd, oy, row)
            }
        }
        #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
        unsafe {
            debug_assert!(!self.wide);
            depthwise_row::<f32>(self, xd, oy, row)
        }
    }
}

/// Output columns processed together by the 3×3 strip kernels.
const STRIP: usize = 4;

/// The shared depthwise-convolution kernel, split into **interior** and
/// **border** output columns per row:
///
/// - Interior cells (tap rectangle fully inside the input in x) run a
///   branch-free kernel with explicit SIMD over channels — written once over
///   a lane type ([`Lanes`]) and instantiated per row at 16 lanes where the
///   CPU has AVX-512F, at 8 under the build's AVX2 baseline, and at one
///   (plain `f32`) for the channels left over and for builds without AVX2
///   — with the accumulator held in registers across all `k²` taps: the
///   hot path, covering almost every cell at stream resolutions. For
///   `k = 3` (every MobileNet unit) at stride 1 or 2 they are processed in
///   strips of [`STRIP`] adjacent columns by a kernel compiled for those
///   constants: overlapping tap windows share input loads, each weight load
///   serves the whole strip, and the unrolled window stays in registers.
///   Other kernel sizes run one cell at a time over a runtime `k`.
/// - Border cells (clipped by SAME padding) keep the per-cell-clipped
///   scalar loops.
///
/// All paths accumulate `bias + Σ_ky Σ_kx x·w` per channel in the same
/// order with the same mul-then-add semantics (no FMA contraction), so the
/// split — the lane count, and the strip blocking — never changes a single
/// bit of the output. The optional fused `·scale + shift → ReLU` tail is
/// applied while each cell is register/L1-resident.
///
/// `x` holds whole `[in_h, in_w, c]` frames back to back and `out` their
/// `[out_h, out_w, c]` outputs in the same order. Every output cell is a pure
/// function of its own frame, so the frame count only widens the parallel
/// row sweep to `frames·out_h` rows and never changes a bit of a frame.
///
/// Used by both [`DepthwiseConv2d`] (no tail) and
/// [`crate::layers::fused::DepthwiseBnRelu`] (folded-norm tail), so the two
/// layers cannot drift apart.
///
/// # Panics
///
/// Panics unless `x` is whole frames of `geo` and `out` their outputs, or as
/// [`DwPass::checked`].
pub(crate) fn depthwise_forward(
    x: &[f32],
    geo: &ff_tensor::Conv2dGeometry,
    k: usize,
    weight: &[f32],
    bias: &[f32],
    norm_relu_tail: Option<(&[f32], &[f32])>,
    out: &mut [f32],
) {
    let p = DwPass::checked(geo, k, weight, bias, norm_relu_tail);
    let g = &p.g;
    let frame_len = g.in_h * g.in_w * g.c;
    let frames = x.len() / frame_len.max(1);
    assert_eq!(
        x.len(),
        frames * frame_len,
        "depthwise input is not whole frames"
    );
    assert_eq!(
        out.len(),
        frames * geo.out_h * g.out_w * g.c,
        "depthwise output"
    );
    ff_tensor::parallel::parallel_rows_mut(out, g.out_w * g.c, |r, row| {
        let f = r / geo.out_h;
        p.row(&x[f * frame_len..(f + 1) * frame_len], r % geo.out_h, row);
    });
}

/// The vector type an interior-kernel instantiation computes in: `LANES`
/// adjacent channels per register, every operation lane-wise, and every
/// one a single IEEE operation — so each lane computes what the `f32`
/// implementation does, which is the scalar definition.
///
/// # Safety
///
/// Every method requires the instruction set of the implementing type
/// (none for `f32`, AVX2 for `__m256`, AVX-512F for `__m512`); the pointer
/// methods additionally require `LANES` readable (or writable) floats at
/// `p`.
trait Lanes: Copy {
    /// Channels per vector.
    const LANES: usize;
    unsafe fn zero() -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    /// `self + x·w`, rounded twice — never contracted to an FMA.
    unsafe fn add_mul(self, x: Self, w: Self) -> Self;
    /// The fused tail: `max(self·scale + shift, 0)`, rounded twice.
    unsafe fn norm_relu(self, scale: Self, shift: Self) -> Self;
}

// SAFETY (all impls): each method is the operations its name says, under
// the trait's contract — the caller vouches for the instruction set and
// for the memory behind `p`.
impl Lanes for f32 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn zero() -> Self {
        0.0
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        unsafe { *p = self }
    }
    #[inline(always)]
    unsafe fn add_mul(self, x: Self, w: Self) -> Self {
        self + x * w
    }
    #[inline(always)]
    unsafe fn norm_relu(self, scale: Self, shift: Self) -> Self {
        (self * scale + shift).max(0.0)
    }
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
mod simd {
    use super::Lanes;
    use std::arch::x86_64::*;

    impl Lanes for __m256 {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm256_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn add_mul(self, x: Self, w: Self) -> Self {
            _mm256_add_ps(self, _mm256_mul_ps(x, w))
        }
        #[inline(always)]
        unsafe fn norm_relu(self, scale: Self, shift: Self) -> Self {
            _mm256_max_ps(
                _mm256_add_ps(_mm256_mul_ps(self, scale), shift),
                _mm256_setzero_ps(),
            )
        }
    }

    impl Lanes for __m512 {
        const LANES: usize = 16;
        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm512_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn add_mul(self, x: Self, w: Self) -> Self {
            unsafe { _mm512_add_ps(self, _mm512_mul_ps(x, w)) }
        }
        #[inline(always)]
        unsafe fn norm_relu(self, scale: Self, shift: Self) -> Self {
            unsafe {
                _mm512_max_ps(
                    _mm512_add_ps(_mm512_mul_ps(self, scale), shift),
                    _mm512_setzero_ps(),
                )
            }
        }
    }
}

/// The AVX-512F instantiation of [`depthwise_row`]: the whole row — not the
/// strip — so nothing crosses a `target_feature` boundary per cell.
///
/// # Safety
///
/// As [`depthwise_row`]; the CPU must support AVX-512F.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
#[target_feature(enable = "avx512f")]
unsafe fn depthwise_row_zmm(p: &DwPass, xd: &[f32], oy: usize, row: &mut [f32]) {
    // SAFETY: forwarded from the caller.
    unsafe { depthwise_row::<std::arch::x86_64::__m512>(p, xd, oy, row) }
}

/// One output row: border cells at the clipped fringes, then the interior
/// cells over whole vectors of `V` channels, the channels that leaves over
/// whole 8-lane vectors, and the rest one at a time — so 16 → 8 → scalar at
/// the widest, and a net with 8 channels still runs a vector kernel there.
///
/// # Safety
///
/// The instruction set of `V` must be available (and AVX2 must be a
/// compile-time target feature wherever it is compiled in), `xd` must be
/// an `[in_h, in_w, c]` frame and `row` an `[out_w, c]` row of `p`'s
/// geometry.
#[inline(always)]
unsafe fn depthwise_row<V: Lanes>(p: &DwPass, xd: &[f32], oy: usize, row: &mut [f32]) {
    let g = &p.g;
    let (k, c) = (g.k, g.c);
    let y0 = (oy * g.stride) as isize - g.pad_top as isize;
    // Vertical clip is shared by every cell of the row.
    let ky = (
        (-y0).clamp(0, k as isize) as usize,
        ((g.in_h as isize - y0).clamp(0, k as isize)) as usize,
    );
    for ox in (0..g.ix_lo).chain(g.ix_hi..g.out_w) {
        let x0 = (ox * g.stride) as isize - g.pad_left as isize;
        border_cell(p, xd, &mut row[ox * c..(ox + 1) * c], x0, y0, ky);
    }
    // SAFETY: forwarded from the caller; each call starts at the channel
    // the one before it stopped at.
    unsafe {
        let ch = interior_cells::<V>(p, xd, row, y0, ky, 0);
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        let ch = interior_cells::<std::arch::x86_64::__m256>(p, xd, row, y0, ky, ch);
        interior_cells::<f32>(p, xd, row, y0, ky, ch);
    }
}

/// A padding-clipped output cell: tap ranges clamped per cell, scalar
/// accumulation over the surviving taps.
#[inline]
fn border_cell(
    p: &DwPass,
    xd: &[f32],
    cell: &mut [f32],
    x0: isize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
) {
    let (k, c, in_w) = (p.g.k, p.g.c, p.g.in_w);
    cell.copy_from_slice(p.bias);
    let kx_lo = (-x0).clamp(0, k as isize) as usize;
    let kx_hi = ((in_w as isize - x0).clamp(0, k as isize)) as usize;
    for ky in ky_lo..ky_hi {
        let y = (y0 + ky as isize) as usize;
        for kx in kx_lo..kx_hi {
            let xx = (x0 + kx as isize) as usize;
            let xs = &xd[(y * in_w + xx) * c..][..c];
            let ws = &p.weight[(ky * k + kx) * c..][..c];
            for ((o, &xv), &wv) in cell.iter_mut().zip(xs).zip(ws) {
                *o += xv * wv;
            }
        }
    }
    if let Some((scale, shift)) = p.tail {
        for ((o, &s), &t) in cell.iter_mut().zip(scale).zip(shift) {
            *o = (*o * s + t).max(0.0);
        }
    }
}

/// The interior cells of one output row for channels `ch0..ch1`, the whole
/// vectors of `V` that fit from `ch0`: 3×3 cells in load-sharing strips,
/// anything else (and the strips' remainder) one cell at a time. Returns
/// `ch1`, the first channel not done.
///
/// # Safety
///
/// As [`depthwise_row`], with `ch0 ≤ c`.
#[inline(always)]
unsafe fn interior_cells<V: Lanes>(
    p: &DwPass,
    xd: &[f32],
    row: &mut [f32],
    y0: isize,
    ky: (usize, usize),
    ch0: usize,
) -> usize {
    let g = &p.g;
    let c = g.c;
    let chs = ch0..ch0 + (c - ch0) / V::LANES * V::LANES;
    if chs.is_empty() {
        return ch0;
    }
    let mut ox = g.ix_lo;
    // SAFETY: forwarded from the caller; `ox` stays inside `ix_lo..ix_hi`,
    // whose cells (a strip's last one included) are interior by `DwGeom`'s
    // bounds, and `chs` is whole vectors below `c`.
    unsafe {
        if g.k == 3 && g.stride <= 2 {
            while ox + STRIP <= g.ix_hi {
                let cells = &mut row[ox * c..(ox + STRIP) * c];
                let x0 = ox * g.stride - g.pad_left;
                if g.stride == 1 {
                    interior_strip::<V, 3, 1>(p, xd, cells, x0, y0, ky, chs.clone());
                } else {
                    interior_strip::<V, 3, 2>(p, xd, cells, x0, y0, ky, chs.clone());
                }
                ox += STRIP;
            }
        }
        while ox < g.ix_hi {
            let cell = &mut row[ox * c..(ox + 1) * c];
            interior_cell::<V>(p, xd, cell, ox * g.stride - g.pad_left, y0, ky, chs.clone());
            ox += 1;
        }
    }
    chs.end
}

/// An interior output cell (no x-clipping), channels `chs` in vectors of
/// `V`: the accumulator stays in a register across all `k²` taps, and
/// mul-then-add ([`Lanes::add_mul`], matching the scalar `acc + x·w` —
/// rustc does not contract) keeps the result bit-identical to
/// [`border_cell`]'s accumulation on the same taps.
///
/// # Safety
///
/// As [`depthwise_row`]; `cell` must be the `c` outputs of a cell with
/// `x0 + k ≤ in_w`, `ky` the row's vertical clip (`0 ≤ y0 + ky < in_h`
/// inside it), and `chs` whole vectors of `V` below `c` — so every vector
/// load and store below is in bounds for the lengths `p` and the caller
/// checked.
#[inline(always)]
unsafe fn interior_cell<V: Lanes>(
    p: &DwPass,
    xd: &[f32],
    cell: &mut [f32],
    x0: usize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    chs: std::ops::Range<usize>,
) {
    let (k, c, in_w) = (p.g.k, p.g.c, p.g.in_w);
    debug_assert!(cell.len() == c && x0 + k <= in_w && chs.end <= c);
    // SAFETY: see the function's contract.
    unsafe {
        for ch in chs.step_by(V::LANES) {
            let mut acc = V::load(p.bias.as_ptr().add(ch));
            for ky in ky_lo..ky_hi {
                let y = (y0 + ky as isize) as usize;
                let xrow = xd.as_ptr().add((y * in_w + x0) * c + ch);
                let wrow = p.weight.as_ptr().add(ky * k * c + ch);
                for kx in 0..k {
                    acc = acc.add_mul(V::load(xrow.add(kx * c)), V::load(wrow.add(kx * c)));
                }
            }
            if let Some((scale, shift)) = p.tail {
                let (s, t) = (scale.as_ptr().add(ch), shift.as_ptr().add(ch));
                acc = acc.norm_relu(V::load(s), V::load(t));
            }
            acc.store(cell.as_mut_ptr().add(ch));
        }
    }
}

/// A strip of [`STRIP`] interior cells `S` input columns apart, `K×K`
/// taps, both compile-time constants: per kernel row the
/// `(STRIP - 1)·S + K` input vectors the strip's windows span are loaded
/// once into an unrolled register window, and each weight vector is loaded
/// once for all [`STRIP`] cells — versus `STRIP·K` input and `STRIP·K`
/// weight loads for cell-at-a-time execution.
///
/// Each cell's accumulator still runs `bias + Σ_ky Σ_kx x·w` in exactly the
/// order of [`interior_cell`] (ky then kx ascending, mul-then-add, no FMA
/// contraction), so the strip blocking is bit-invisible in the output.
///
/// # Safety
///
/// As [`interior_cell`], for `cells` the `STRIP·c` outputs of a strip whose
/// last cell is interior too: `x0 + (STRIP - 1)·S + K ≤ in_w`.
#[inline(always)]
unsafe fn interior_strip<V: Lanes, const K: usize, const S: usize>(
    p: &DwPass,
    xd: &[f32],
    cells: &mut [f32],
    x0: usize,
    y0: isize,
    (ky_lo, ky_hi): (usize, usize),
    chs: std::ops::Range<usize>,
) {
    // Window registers: the span of the widest instantiation (k 3, stride
    // 2); a narrower one leaves the rest unused and optimized away.
    const STRIP_SPAN: usize = (STRIP - 1) * 2 + 3;
    const { assert!((STRIP - 1) * S + K <= STRIP_SPAN) };
    let (c, in_w) = (p.g.c, p.g.in_w);
    debug_assert!(cells.len() == STRIP * c && x0 + (STRIP - 1) * S + K <= in_w);
    debug_assert!(p.g.k == K && chs.end <= c);
    // SAFETY: see the function's contract.
    unsafe {
        for ch in chs.step_by(V::LANES) {
            let mut acc = [V::load(p.bias.as_ptr().add(ch)); STRIP];
            for ky in ky_lo..ky_hi {
                let y = (y0 + ky as isize) as usize;
                let xrow = xd.as_ptr().add((y * in_w + x0) * c + ch);
                let mut xv = [V::zero(); STRIP_SPAN];
                for (i, v) in xv.iter_mut().enumerate().take((STRIP - 1) * S + K) {
                    *v = V::load(xrow.add(i * c));
                }
                let wrow = p.weight.as_ptr().add(ky * K * c + ch);
                for kx in 0..K {
                    let wv = V::load(wrow.add(kx * c));
                    for (s, a) in acc.iter_mut().enumerate() {
                        *a = a.add_mul(xv[s * S + kx], wv);
                    }
                }
            }
            if let Some((scale, shift)) = p.tail {
                let s = V::load(scale.as_ptr().add(ch));
                let t = V::load(shift.as_ptr().add(ch));
                for a in &mut acc {
                    *a = a.norm_relu(s, t);
                }
            }
            for (s, a) in acc.iter().enumerate() {
                a.store(cells.as_mut_ptr().add(s * c + ch));
            }
        }
    }
}

impl Layer for DepthwiseConv2d {
    fn layer_type(&self) -> &'static str {
        "depthwise_conv2d"
    }

    /// Every output cell is seeded from the bias inside the kernel, so
    /// stale workspace contents are fine; the taps are the precision
    /// store's (possibly quantize-roundtripped) copy.
    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(stacked(&[frames, geo.out_h, geo.out_w, self.c]));
        let w = inference_taps(&self.taps, self.weight.value.data(), self.c);
        let b = self.bias.value.data();
        depthwise_forward(x.data(), &geo, self.k, w, b, None, out.data_mut());
        out
    }

    /// Training sees the raw trainable weights.
    fn train(&mut self, x: &Tensor) -> Tensor {
        let geo = self.geometry(x.dims());
        let mut out = Tensor::zeros(vec![geo.out_h, geo.out_w, self.c]);
        let (w, b) = (self.weight.value.data(), self.bias.value.data());
        depthwise_forward(x.data(), &geo, self.k, w, b, None, out.data_mut());
        self.cache.push((geo, x.clone()));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, x) = self
            .cache
            .pop()
            .expect("DepthwiseConv2d::backward without cached forward");
        let c = self.c;
        let k = self.k;
        let (in_h, in_w) = (geo.in_h, geo.in_w);
        assert_eq!(grad_out.dims(), &[geo.out_h, geo.out_w, c]);
        let mut dx = Tensor::zeros(vec![in_h, in_w, c]);
        let mut dw = Tensor::zeros(vec![k, k, c]);
        let mut db = Tensor::zeros(vec![c]);
        let gd = grad_out.data();
        let xd = x.data();
        let wd = self.weight.value.data();
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let g = &gd[(oy * geo.out_w + ox) * c..][..c];
                for (d, &gv) in db.data_mut().iter_mut().zip(g) {
                    *d += gv;
                }
                let y0 = (oy * geo.stride) as isize - geo.pad_top as isize;
                let x0 = (ox * geo.stride) as isize - geo.pad_left as isize;
                for ky in 0..k {
                    let y = y0 + ky as isize;
                    if y < 0 || y >= in_h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let xx = x0 + kx as isize;
                        if xx < 0 || xx >= in_w as isize {
                            continue;
                        }
                        let base_x = (y as usize * in_w + xx as usize) * c;
                        let base_w = (ky * k + kx) * c;
                        for ch in 0..c {
                            dw.data_mut()[base_w + ch] += xd[base_x + ch] * g[ch];
                            dx.data_mut()[base_x + ch] += wd[base_w + ch] * g[ch];
                        }
                    }
                }
            }
        }
        self.taps.invalidate(); // weights are about to change
        self.weight.accumulate(&dw);
        self.bias.accumulate(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.taps.invalidate(); // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.taps.set_precision(precision);
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(in_shape);
        vec![geo.out_h, geo.out_w, self.c]
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let geo = self.geometry(in_shape);
        // Depthwise half of the paper's separable formula: (H/S)(W/S)·M·K².
        (geo.out_h * geo.out_w * self.c * self.k * self.k) as u64
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn channels_do_not_mix() {
        let mut dw = DepthwiseConv2d::new(3, 1, 2, 3);
        // Zero channel 1's kernel; output channel 1 must then be pure bias.
        for ky in 0..3 {
            for kx in 0..3 {
                let i = (ky * 3 + kx) * 2 + 1;
                dw.weight.value.data_mut()[i] = 0.0;
            }
        }
        dw.bias.value.data_mut()[1] = 0.5;
        let x = Tensor::filled(vec![4, 4, 2], 1.0);
        let out = dw.forward(&x, Phase::Inference);
        for h in 0..4 {
            for w in 0..4 {
                assert_eq!(out.at3(h, w, 1), 0.5);
            }
        }
    }

    #[test]
    fn forward_matches_manual_center() {
        let mut dw = DepthwiseConv2d::new(3, 1, 1, 1);
        for (i, v) in dw.weight.value.data_mut().iter_mut().enumerate() {
            *v = i as f32; // kernel 0..9
        }
        let x = Tensor::filled(vec![3, 3, 1], 1.0);
        let out = dw.forward(&x, Phase::Inference);
        // Center position sees the full kernel: Σ 0..9 = 36.
        assert_eq!(out.at3(1, 1, 0), 36.0);
        // Top-left misses the first row and column: Σ {4,5,7,8} = 24.
        assert_eq!(out.at3(0, 0, 0), 24.0);
    }

    #[test]
    fn gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut dw = DepthwiseConv2d::new(3, 2, 2, 4);
        let x = Tensor::from_vec(
            vec![5, 5, 2],
            (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = dw.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = dw.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 13, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (dw.forward(&xp, Phase::Inference).sum()
                - dw.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-2, "dx[{i}]");
        }
        for &i in &[0usize, 9, 17] {
            let orig = dw.weight.value.data()[i];
            dw.weight.value.data_mut()[i] = orig + eps;
            let fp = dw.forward(&x, Phase::Inference).sum();
            dw.weight.value.data_mut()[i] = orig - eps;
            let fm = dw.forward(&x, Phase::Inference).sum();
            dw.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dw.weight.grad().unwrap().data()[i]).abs() < 1e-2,
                "dW[{i}]"
            );
        }
    }

    type RowKernel = unsafe fn(&DwPass, &[f32], usize, &mut [f32]);

    /// Every lane width of the row kernel this build and CPU can run, called
    /// directly — no dispatch in between — and a printed line saying which.
    fn lane_widths() -> Vec<(&'static str, RowKernel)> {
        #[allow(unused_mut)]
        let mut widths: Vec<(&'static str, RowKernel)> = vec![("scalar", depthwise_row::<f32>)];
        #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
        {
            widths.push(("ymm", depthwise_row::<std::arch::x86_64::__m256>));
            if std::arch::is_x86_feature_detected!("avx512f") {
                widths.push(("zmm", depthwise_row_zmm));
            } else {
                println!("depthwise: skipping the 16-lane rows, this CPU has no avx512f");
            }
        }
        let names: Vec<&str> = widths.iter().map(|w| w.0).collect();
        println!("depthwise: lane widths exercised: {names:?}");
        widths
    }

    /// One frame through `kernel`, row by row.
    fn forward_with(kernel: RowKernel, p: &DwPass, x: &[f32], out_h: usize) -> Vec<f32> {
        let row_len = p.g.out_w * p.g.c;
        let mut out = vec![f32::NAN; out_h * row_len];
        for (oy, row) in out.chunks_mut(row_len).enumerate() {
            // SAFETY: `lane_widths` lists a kernel only where its
            // instruction set was detected; `x` and `row` have the
            // geometry's lengths (asserted by the dispatched call on the
            // same operands in every test).
            unsafe { kernel(p, x, oy, row) };
        }
        out
    }

    /// [`depthwise_forward`], and every lane width of its row kernel called
    /// directly, against the naive per-output loop (same tap order, same
    /// mul-then-add), with and without the fused tail.
    fn assert_matches_naive(
        widths: &[(&str, RowKernel)],
        h: usize,
        w: usize,
        c: usize,
        k: usize,
        stride: usize,
    ) {
        use ff_tensor::{Conv2dGeometry, Padding};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let x = Tensor::from_vec(
            vec![h, w, c],
            (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let weight: Vec<f32> = (0..k * k * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let scale: Vec<f32> = (0..c).map(|_| rng.gen_range(0.5..1.5)).collect();
        let shift: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
        let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
        for tail in [None, Some((&scale[..], &shift[..]))] {
            let mut got = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
            depthwise_forward(x.data(), &geo, k, &weight, &bias, tail, got.data_mut());
            let mut want = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
            for oy in 0..geo.out_h {
                for ox in 0..geo.out_w {
                    for ch in 0..c {
                        let mut acc = bias[ch];
                        for ky in 0..k {
                            let y = (oy * stride + ky) as isize - geo.pad_top as isize;
                            if y < 0 || y >= h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let xx = (ox * stride + kx) as isize - geo.pad_left as isize;
                                if xx < 0 || xx >= w as isize {
                                    continue;
                                }
                                acc += x.at3(y as usize, xx as usize, ch)
                                    * weight[(ky * k + kx) * c + ch];
                            }
                        }
                        if let Some((s, t)) = tail {
                            acc = (acc * s[ch] + t[ch]).max(0.0);
                        }
                        want.data_mut()[(oy * geo.out_w + ox) * c + ch] = acc;
                    }
                }
            }
            let what = format!("h{h} w{w} c{c} k{k} s{stride} tail={}", tail.is_some());
            assert_eq!(got.data(), want.data(), "dispatched {what}");
            let p = DwPass::checked(&geo, k, &weight, &bias, tail);
            for &(name, kernel) in widths {
                let got = forward_with(kernel, &p, x.data(), geo.out_h);
                assert_eq!(got, want.data(), "{name} {what}");
            }
        }
    }

    #[test]
    fn interior_border_split_matches_naive_reference_bit_for_bit() {
        // Geometries chosen to hit every path: channel counts off the
        // 8-lane SIMD width (scalar tail), widths where interior is empty,
        // strides > 1, kernels larger than the input, and rows wide enough
        // for the load-sharing 3×3 strip kernels (full strips, strip
        // remainders, and multi-strip rows).
        let widths = lane_widths();
        for &(h, w, c, k, stride) in &[
            (9usize, 7usize, 5usize, 3usize, 1usize),
            (8, 11, 8, 3, 2),
            (6, 6, 11, 3, 1),
            (5, 4, 16, 5, 2),
            (4, 2, 3, 3, 1),   // interior empty in x
            (2, 2, 9, 5, 1),   // kernel larger than input
            (7, 16, 8, 3, 1),  // three strips + remainder
            (6, 13, 12, 5, 1), // k=5, ragged channels
            (5, 14, 4, 7, 1),  // k=7, no vector channels
        ] {
            assert_matches_naive(&widths, h, w, c, k, stride);
        }
        // The strip instantiations (k = 3, strides 1 and 2) and the
        // runtime-k cells (k = 5) over odd sizes — one, several and no
        // whole strips, odd heights so both vertical clips occur — and
        // channel counts below, at and off the vector width.
        for k in [3usize, 5] {
            for stride in [1usize, 2] {
                for (h, w) in [(5usize, 9usize), (7, 19), (3, 27), (9, 11)] {
                    for c in [3usize, 8, 12, 21] {
                        assert_matches_naive(&widths, h, w, c, k, stride);
                    }
                }
            }
        }
    }

    #[test]
    fn every_lane_width_matches_naive_reference_bit_for_bit() {
        // The channel walk 16 → 8 → scalar: counts that are one 8-lane
        // vector (alpha = 0.25 nets), whole 16-lane vectors, 16 + 8, 2·16 +
        // 8, 3·16 and a deep layer's 512, plus one with all three widths
        // (16 + 8 + 3) — at both strip strides and at widths with no
        // interior strip (3), one (6 at stride 1, 11 at stride 2) and many.
        let widths = lane_widths();
        for c in [8usize, 16, 24, 27, 40, 48, 512] {
            for stride in [1usize, 2] {
                for w in [3usize, 6, 11, 23] {
                    let h = if c == 512 { 3 } else { 5 };
                    assert_matches_naive(&widths, h, w, c, 3, stride);
                }
            }
        }
    }

    #[test]
    fn batched_kernel_matches_per_frame_bit_for_bit() {
        use ff_tensor::{Conv2dGeometry, Padding};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        let widths = lane_widths();
        for &(h, w, c, k, stride, batch) in &[
            (7usize, 9usize, 8usize, 3usize, 1usize, 3usize),
            (6, 5, 5, 3, 2, 4),
            (5, 8, 16, 5, 1, 2),
            (5, 23, 24, 3, 1, 3),
            (4, 19, 40, 3, 2, 2),
            (3, 9, 512, 3, 1, 2),
        ] {
            let frames: Vec<Tensor> = (0..batch)
                .map(|_| {
                    Tensor::from_vec(
                        vec![h, w, c],
                        (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    )
                })
                .collect();
            let weight: Vec<f32> = (0..k * k * c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let bias: Vec<f32> = (0..c).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let scale: Vec<f32> = (0..c).map(|_| rng.gen_range(0.5..1.5)).collect();
            let shift: Vec<f32> = (0..c).map(|_| rng.gen_range(-0.5..0.5)).collect();
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let all: Vec<f32> = frames
                .iter()
                .flat_map(|f| f.data().iter().copied())
                .collect();
            for tail in [None, Some((&scale[..], &shift[..]))] {
                let mut got = Tensor::zeros(vec![batch, geo.out_h, geo.out_w, c]);
                depthwise_forward(&all, &geo, k, &weight, &bias, tail, got.data_mut());
                let frame_out = geo.out_h * geo.out_w * c;
                let p = DwPass::checked(&geo, k, &weight, &bias, tail);
                for (b, f) in frames.iter().enumerate() {
                    let mut want = Tensor::zeros(vec![geo.out_h, geo.out_w, c]);
                    depthwise_forward(f.data(), &geo, k, &weight, &bias, tail, want.data_mut());
                    let got = &got.data()[b * frame_out..(b + 1) * frame_out];
                    let what = format!("frame {b} (c{c} k{k} s{stride} tail={})", tail.is_some());
                    assert_eq!(got, want.data(), "{what}");
                    // The batched pass runs whichever width the CPU
                    // selects; every other width gives the same frame.
                    for &(name, kernel) in &widths {
                        let alone = forward_with(kernel, &p, f.data(), geo.out_h);
                        assert_eq!(got, alone, "{name} {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn cost_formula() {
        let dw = DepthwiseConv2d::new(3, 2, 16, 0);
        // 10x10 → 5x5; 5·5·16·9.
        assert_eq!(dw.multiply_adds(&[10, 10, 16]), 5 * 5 * 16 * 9);
    }
}
