//! Fused MobileNet units: convolution + folded batch-norm + ReLU as one
//! layer.
//!
//! Every MobileNet unit is `conv → BN → ReLU`; executed as three separate
//! layers the two element-wise passes are memory-bound and, on the Figure 5
//! geometry, cost more than the convolution's GEMM itself. These layers run
//! the whole unit in a single output pass: the GEMM (or depthwise kernel)
//! writes each row, and the folded norm + ReLU are applied while the row is
//! cache-hot (see [`ff_tensor::Epilogue`]).
//!
//! Training still works — the backward pass decomposes the unit exactly the
//! way the separate layers would — but the implementation optimizes the
//! inference path: the paper's throughput results (Figures 5/6) measure
//! streaming inference only.
//!
//! # The band walk
//!
//! A [`ConvBnRelu`] followed by a [`DepthwiseBnRelu`] — MobileNet's stem
//! `conv1 → conv2_1/dw` and every `*/sep → next */dw` — is a [`BandPair`]
//! when the map between them is not a tap. On large frames that map is the
//! biggest the backbone writes (`conv2_1/sep`: 8.3 MB at 480×270, α = 1),
//! and writing it out and reading it back is a large share of both layers'
//! time. The pair runs in row bands of [`BAND_BYTES`] instead: the
//! producer's GEMM computes just the rows a band of depthwise output rows
//! reads (its 3×3 halo included; a thread keeps the rows its previous band
//! shares with the next), and the depthwise rows run on them while they
//! are in L2. Each unit still has one arithmetic body —
//! [`ConvRows::run`] and [`DepthwiseBnRelu::infer_into`] on a band's rows
//! ([`crate::layers::band_geometry`]) — and its own `infer` is that body
//! over the whole map, so every bit is the same either way. A map that
//! fits one band runs as two whole-map layers.

use std::any::Any;
use std::ops::Range;

use ff_tensor::parallel::{dispatch_threads, parallel_row_blocks_scratch_mut};
use ff_tensor::{
    col2im, conv_gemm, gemm_fused, im2col_into, matmul_transpose_a, matmul_transpose_b,
    Conv2dGeometry, Epilogue, GemmB, PackedPanels, Padding, Precision, Tensor, Workspace,
};
use rand::SeedableRng;

use crate::layer::{frame_dims, stacked};
use crate::layers::band_geometry;
use crate::layers::depthwise::{depthwise_forward, inference_taps};
use crate::layers::int8act::{with_u8_rows, U8Rows};
use crate::layers::DerivedWeights;
use crate::{Layer, Param};

/// Shared folded-norm state for the fused units.
#[derive(Debug, Clone)]
struct FoldedNorm {
    scale: Vec<f32>,
    shift: Vec<f32>,
    calibrated: bool,
}

impl FoldedNorm {
    fn identity(c: usize) -> Self {
        FoldedNorm {
            scale: vec![1.0; c],
            shift: vec![0.0; c],
            calibrated: false,
        }
    }

    /// Fits per-channel standardization from pre-norm activations via the
    /// same helper `ChannelNorm::calibrate` uses, so fused and staged
    /// calibration stay numerically identical.
    fn fit(&mut self, samples: &[Tensor]) {
        if let Some((scale, shift)) =
            crate::layers::norm::fit_channel_stats(samples, self.scale.len())
        {
            self.scale = scale;
            self.shift = shift;
            self.calibrated = true;
        }
    }
}

/// Fused standard convolution + folded BN + ReLU (a MobileNet `conv` or
/// `sep` unit).
///
/// Weights are GEMM-ready `[kh·kw·in_c, out_c]` like [`crate::Conv2d`];
/// the norm's scale/shift are calibration state, not trainable parameters.
pub struct ConvBnRelu {
    k: usize,
    stride: usize,
    padding: Padding,
    in_c: usize,
    out_c: usize,
    weight: Param,
    bias: Param,
    norm: FoldedNorm,
    /// Train-phase cache: (geometry, im2col matrix, pre-ReLU output).
    cache: Vec<(Conv2dGeometry, Tensor, Tensor)>,
    /// Weight panels packed for the GEMM micro-kernel — in the format
    /// chosen by [`Layer::set_precision`] (f32 or whole-int8) — on the
    /// first inference after the weights or the precision change. Weights
    /// are static during streaming, so inference walks sequential panels
    /// and never pays per-call quantization traffic.
    packed_weights: DerivedWeights<PackedPanels>,
}

impl std::fmt::Debug for ConvBnRelu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ConvBnRelu({0}x{0} s{1} {2}→{3})",
            self.k, self.stride, self.in_c, self.out_c
        )
    }
}

impl ConvBnRelu {
    /// Creates a SAME-padded fused unit with He-initialized weights.
    pub fn new(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k * in_c;
        ConvBnRelu {
            k,
            stride,
            padding: Padding::Same,
            in_c,
            out_c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![fan_in, out_c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![out_c])),
            norm: FoldedNorm::identity(out_c),
            cache: Vec::new(),
            packed_weights: DerivedWeights::new(),
        }
    }

    /// Whether calibration has fit the folded norm.
    pub fn is_calibrated(&self) -> bool {
        self.norm.calibrated
    }

    /// The storage precision of the inference weight panels.
    pub fn precision(&self) -> Precision {
        self.packed_weights.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(
            in_shape.len(),
            3,
            "ConvBnRelu expects HWC input, got {in_shape:?}"
        );
        assert_eq!(
            in_shape[2], self.in_c,
            "ConvBnRelu expects {} channels, got {}",
            self.in_c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }

    /// `bias`, folded norm and (optionally) ReLU: the unit's epilogue.
    fn epilogue(&self, relu: bool) -> Epilogue<'_> {
        Epilogue {
            bias: Some(self.bias.value.data()),
            scale_shift: Some((&self.norm.scale, &self.norm.shift)),
            relu,
        }
    }

    /// Runs `f` with the unit's inference GEMM made ready over the stacked
    /// frames `x` of `geo`: the packed panels, and at
    /// [`Precision::Int8Act`] every frame's quantization fixed.
    fn with_rows<R>(&self, x: &[f32], geo: &Conv2dGeometry, f: impl FnOnce(&ConvRows) -> R) -> R {
        let (n, ep) = (self.out_c, self.epilogue(true));
        let w = self.weight.value.data();
        match self
            .packed_weights
            .get(|p| PackedPanels::pack(p, w, geo.fan_in(), n))
        {
            PackedPanels::F32(panels) => f(&ConvRows {
                geo,
                n,
                ep,
                gemm: RowGemm::F32 { x, panels },
            }),
            packed => with_u8_rows(x, geo, |a| {
                f(&ConvRows {
                    geo,
                    n,
                    ep,
                    gemm: RowGemm::Int8Act { packed, a },
                })
            }),
        }
    }
}

/// A [`ConvBnRelu`]'s GEMM made ready over one input, so that any of its
/// output map rows can be computed on their own.
struct ConvRows<'a> {
    geo: &'a Conv2dGeometry,
    n: usize,
    ep: Epilogue<'a>,
    gemm: RowGemm<'a>,
}

/// The two GEMMs behind [`ConvRows`].
enum RowGemm<'a> {
    /// The fused f32 convolution, gathering its own patches from `x`.
    F32 { x: &'a [f32], panels: &'a [f32] },
    /// The whole-int8 GEMM, coding or gathering just the rows it reads.
    Int8Act {
        packed: &'a PackedPanels,
        a: &'a U8Rows<'a>,
    },
}

impl ConvRows<'_> {
    /// Output map rows `rows` — rows `f·out_h + oy` of the stacked frames,
    /// either whole frames or a band of one — into `out`
    /// (`[rows·out_w, n]`), bit-identical to the same rows of the whole
    /// output: the unit's one inference body.
    ///
    /// # Panics
    ///
    /// Panics if `rows` neither covers whole frames nor lies in one.
    fn run(&self, rows: Range<usize>, out: &mut [f32]) {
        let geo = self.geo;
        match self.gemm {
            RowGemm::Int8Act { packed, a } => a.gemm(packed, rows, out, self.n, self.ep),
            RowGemm::F32 { x, panels } => {
                let (h, frame_len) = (geo.out_h, geo.in_h * geo.in_w * geo.in_c);
                let b = GemmB::Packed(panels);
                if rows.start.is_multiple_of(h) && rows.end.is_multiple_of(h) {
                    let x = &x[rows.start / h * frame_len..rows.end / h * frame_len];
                    conv_gemm(x, geo, b, out, self.n, self.ep);
                } else {
                    let f = rows.start / h;
                    let (band, input) = band_geometry(geo, rows.start - f * h..rows.end - f * h);
                    let row_len = geo.in_w * geo.in_c;
                    let x = &x[f * frame_len..][input.start * row_len..input.end * row_len];
                    conv_gemm(x, &band, b, out, self.n, self.ep);
                }
            }
        }
    }
}

impl Layer for ConvBnRelu {
    fn layer_type(&self) -> &'static str {
        "conv_bn_relu"
    }

    /// The whole unit in one pass: GEMM + bias + folded norm + ReLU against
    /// the cached weight panels — the fused f32 convolution, or at
    /// [`Precision::Int8Act`] the whole-int8 pipeline (each frame quantizes
    /// once and gathers straight into a u8 buffer) — one GEMM over every
    /// frame's output rows, streaming each packed panel once: the band
    /// walk's body ([`ConvRows::run`]) over every row.
    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(&[frames * geo.positions(), self.out_c]);
        self.with_rows(x.data(), &geo, |g| {
            g.run(0..frames * geo.out_h, out.data_mut())
        });
        out.reshape_to(stacked(&[frames, geo.out_h, geo.out_w, self.out_c]));
        out
    }

    /// Keeps the im2col matrix for backward, and stages at pre-ReLU so it
    /// can mask exactly.
    fn train(&mut self, x: &Tensor) -> Tensor {
        let geo = self.geometry(x.dims());
        let (positions, fan_in) = (geo.positions(), geo.fan_in());
        let mut cols = Tensor::zeros(vec![positions, fan_in]);
        im2col_into(x, &geo, &mut cols);
        let mut out = Tensor::zeros(vec![geo.out_h, geo.out_w, self.out_c]);
        let w = self.weight.value.data();
        gemm_fused(
            cols.data(),
            w,
            out.data_mut(),
            positions,
            fan_in,
            self.out_c,
            self.epilogue(false),
        );
        let pre_relu = out.clone();
        for v in out.data_mut() {
            *v = v.max(0.0);
        }
        self.cache.push((geo, cols, pre_relu));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, cols, pre_relu) = self
            .cache
            .pop()
            .expect("ConvBnRelu::backward without cached forward");
        let positions = geo.positions();
        // ReLU mask, then the folded norm's scale, gives the gradient at the
        // conv (pre-bias-norm) output.
        let mut g = grad_out.clone().reshape(vec![positions, self.out_c]);
        for (row, pre) in g
            .data_mut()
            .chunks_mut(self.out_c)
            .zip(pre_relu.data().chunks(self.out_c))
        {
            for ((gv, &z), &s) in row.iter_mut().zip(pre).zip(&self.norm.scale) {
                *gv = if z > 0.0 { *gv * s } else { 0.0 };
            }
        }
        self.packed_weights.invalidate(); // weights are about to change
        self.weight.accumulate(&matmul_transpose_a(&cols, &g));
        let mut db = Tensor::zeros(vec![self.out_c]);
        for row in g.data().chunks(self.out_c) {
            for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                *d += gv;
            }
        }
        self.bias.accumulate(&db);
        let dcols = matmul_transpose_b(&g, &self.weight.value);
        if self.k == 1 && self.stride == 1 {
            dcols.reshape(vec![geo.in_h, geo.in_w, self.in_c])
        } else {
            col2im(&dcols, &geo)
        }
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.packed_weights.invalidate(); // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(in_shape);
        vec![geo.out_h, geo.out_w, self.out_c]
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        // The norm folds into the conv in deployment; ReLU is free. Same
        // accounting as the separate layers (paper §4.5).
        let geo = self.geometry(in_shape);
        crate::cost::conv_madds(geo.out_h, geo.out_w, self.in_c, self.k, self.out_c)
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }

    fn set_precision(&mut self, precision: Precision) {
        self.packed_weights.set_precision(precision);
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        // Conv (with bias, no norm/ReLU) on every sample, fit the norm from
        // those activations, then return the full unit's outputs — exactly
        // the calibration flow of the separate conv → bn → relu layers.
        let mut ws = Workspace::new();
        let pre: Vec<Tensor> = samples
            .iter()
            .map(|x| {
                let geo = self.geometry(x.dims());
                let mut out = ws.take(&[geo.positions(), self.out_c]);
                let w = GemmB::InPlace(self.weight.value.data());
                let ep = Epilogue {
                    bias: Some(self.bias.value.data()),
                    ..Epilogue::default()
                };
                conv_gemm(x.data(), &geo, w, out.data_mut(), self.out_c, ep);
                out.reshape_to(&[geo.out_h, geo.out_w, self.out_c]);
                out
            })
            .collect();
        self.norm.fit(&pre);
        pre.into_iter()
            .map(|mut t| {
                for cell in t.data_mut().chunks_mut(self.out_c) {
                    for ((v, &s), &b) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift)
                    {
                        *v = (*v * s + b).max(0.0);
                    }
                }
                t
            })
            .collect()
    }
}

/// Fused depthwise convolution + folded BN + ReLU (a MobileNet `dw` unit).
///
/// Weights are `[kh, kw, c]` like [`crate::DepthwiseConv2d`].
pub struct DepthwiseBnRelu {
    k: usize,
    stride: usize,
    padding: Padding,
    c: usize,
    weight: Param,
    bias: Param,
    norm: FoldedNorm,
    /// Train-phase cache: (geometry, input, pre-ReLU output).
    cache: Vec<(Conv2dGeometry, Tensor, Tensor)>,
    /// Inference taps for [`Layer::set_precision`] (see
    /// [`inference_taps`]); training and calibration always use the raw
    /// f32 weights.
    taps: DerivedWeights<Vec<f32>>,
}

impl std::fmt::Debug for DepthwiseBnRelu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DepthwiseBnRelu({0}x{0} s{1} c{2})",
            self.k, self.stride, self.c
        )
    }
}

impl DepthwiseBnRelu {
    /// Creates a SAME-padded fused depthwise unit.
    pub fn new(k: usize, stride: usize, c: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k;
        DepthwiseBnRelu {
            k,
            stride,
            padding: Padding::Same,
            c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![k, k, c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![c])),
            norm: FoldedNorm::identity(c),
            cache: Vec::new(),
            taps: DerivedWeights::new(),
        }
    }

    /// Whether calibration has fit the folded norm.
    pub fn is_calibrated(&self) -> bool {
        self.norm.calibrated
    }

    /// The storage precision of the inference weights.
    pub fn precision(&self) -> Precision {
        self.taps.precision()
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(in_shape.len(), 3, "DepthwiseBnRelu expects HWC input");
        assert_eq!(
            in_shape[2], self.c,
            "DepthwiseBnRelu expects {} channels, got {}",
            self.c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.k, self.k),
            self.stride,
            self.padding,
        )
    }

    /// The unit's inference over `x` — whole frames of `geo`, or the input
    /// rows of one band under the band's [`band_geometry`] — into `out`:
    /// the one inference body of [`Layer::infer`] and the band walk.
    fn infer_into(&self, x: &[f32], geo: &Conv2dGeometry, out: &mut [f32]) {
        let w = inference_taps(&self.taps, self.weight.value.data(), self.c);
        let tail = Some((&self.norm.scale[..], &self.norm.shift[..]));
        let b = self.bias.value.data();
        depthwise_forward(x, geo, self.k, w, b, tail, out);
    }

    /// The shared depthwise kernel ([`depthwise_forward`]) on one frame
    /// with the raw trainable weights and no tail: the pre-norm activation
    /// that training and calibration start from.
    fn pre_norm(&self, x: &Tensor, geo: &Conv2dGeometry) -> Tensor {
        let mut out = Tensor::zeros(vec![geo.out_h, geo.out_w, self.c]);
        let (w, b) = (self.weight.value.data(), self.bias.value.data());
        depthwise_forward(x.data(), geo, self.k, w, b, None, out.data_mut());
        out
    }
}

impl Layer for DepthwiseBnRelu {
    fn layer_type(&self) -> &'static str {
        "depthwise_bn_relu"
    }

    /// The precision store's taps with the folded `norm+ReLU` tail fused:
    /// the band walk's body ([`Self::infer_into`]) over the whole map.
    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(stacked(&[frames, geo.out_h, geo.out_w, self.c]));
        self.infer_into(x.data(), &geo, out.data_mut());
        out
    }

    /// Stages the unit: the norm (pre-ReLU) for the cache, then ReLU.
    fn train(&mut self, x: &Tensor) -> Tensor {
        let geo = self.geometry(x.dims());
        let mut out = self.pre_norm(x, &geo);
        for cell in out.data_mut().chunks_mut(self.c) {
            for ((v, &s), &t) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift) {
                *v = *v * s + t;
            }
        }
        let pre_relu = out.clone();
        for v in out.data_mut() {
            *v = v.max(0.0);
        }
        self.cache.push((geo, x.clone(), pre_relu));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, x, pre_relu) = self
            .cache
            .pop()
            .expect("DepthwiseBnRelu::backward without cached forward");
        let c = self.c;
        let k = self.k;
        let (in_h, in_w) = (geo.in_h, geo.in_w);
        assert_eq!(grad_out.dims(), &[geo.out_h, geo.out_w, c]);
        // ReLU mask + norm scale.
        let mut g = grad_out.clone();
        for (row, pre) in g.data_mut().chunks_mut(c).zip(pre_relu.data().chunks(c)) {
            for ((gv, &z), &s) in row.iter_mut().zip(pre).zip(&self.norm.scale) {
                *gv = if z > 0.0 { *gv * s } else { 0.0 };
            }
        }
        let mut dx = Tensor::zeros(vec![in_h, in_w, c]);
        let mut dw = Tensor::zeros(vec![k, k, c]);
        let mut db = Tensor::zeros(vec![c]);
        let gd = g.data();
        let xd = x.data();
        let wd = self.weight.value.data();
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                let gcell = &gd[(oy * geo.out_w + ox) * c..][..c];
                for (d, &gv) in db.data_mut().iter_mut().zip(gcell) {
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
                            dw.data_mut()[base_w + ch] += xd[base_x + ch] * gcell[ch];
                            dx.data_mut()[base_x + ch] += wd[base_w + ch] * gcell[ch];
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
        (geo.out_h * geo.out_w * self.c * self.k * self.k) as u64
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        let pre: Vec<Tensor> = samples
            .iter()
            .map(|x| self.pre_norm(x, &self.geometry(x.dims())))
            .collect();
        self.norm.fit(&pre);
        pre.into_iter()
            .map(|mut t| {
                for cell in t.data_mut().chunks_mut(self.c) {
                    for ((v, &s), &b) in cell.iter_mut().zip(&self.norm.scale).zip(&self.norm.shift)
                    {
                        *v = (*v * s + b).max(0.0);
                    }
                }
                t
            })
            .collect()
    }
}

/// Producer-output bytes one band holds: a quarter of a 2 MB L2, so the
/// band, the depthwise rows written from it and the GEMM's own pass
/// ([`ff_tensor`]'s `I8I8_PASS_BYTES`) stay resident together. The same for
/// both precisions — the band is f32 either way. Timed against 256 KB and
/// 1 MB on the pairs of a 480×270 frame at α = 1 (Int8Act, one and two
/// threads, a 2 MB-L2 AVX-512 x86-64 core), it ties the first and beats
/// the second. Early maps of a 480×270 frame take a few dozen bands; every
/// map of a 64×32 frame at α = 0.25 or a 120×67 one at α = 0.5 fits one.
const BAND_BYTES: usize = 1 << 19;

/// A [`ConvBnRelu`] whose output feeds a [`DepthwiseBnRelu`] and nothing
/// else, walked in row bands (module docs, "The band walk").
pub(crate) struct BandPair<'a> {
    producer: &'a ConvBnRelu,
    dw: &'a DepthwiseBnRelu,
}

impl<'a> BandPair<'a> {
    /// The pair `a → b`, if `a` is a [`ConvBnRelu`] and `b` a
    /// [`DepthwiseBnRelu`].
    pub(crate) fn of(a: &'a dyn Layer, b: &'a dyn Layer) -> Option<Self> {
        let (a, b): (&dyn Any, &dyn Any) = (a, b);
        Some(BandPair {
            producer: a.downcast_ref()?,
            dw: b.downcast_ref()?,
        })
    }

    /// The pair's geometries for frames of `in_dims`, and the depthwise
    /// output rows per band: as many as [`BAND_BYTES`] of producer rows
    /// feed, at least one.
    fn plan(&self, in_dims: &[usize]) -> (Conv2dGeometry, Conv2dGeometry, usize) {
        let pgeo = self.producer.geometry(in_dims);
        let dgeo = self
            .dw
            .geometry(&[pgeo.out_h, pgeo.out_w, self.producer.out_c]);
        let fit = BAND_BYTES / (4 * pgeo.out_w * self.producer.out_c).max(1);
        let rows = fit.saturating_sub(dgeo.kh) / dgeo.stride + 1;
        (pgeo, dgeo, rows.min(dgeo.out_h))
    }

    /// Bands per frame for frames of `in_dims`; 1 when the map fits one.
    pub(crate) fn bands(&self, in_dims: &[usize]) -> usize {
        let (_, dgeo, rows) = self.plan(in_dims);
        dgeo.out_h.div_ceil(rows)
    }

    /// The depthwise unit's output for `frames` frames in `x` — what its
    /// [`Layer::infer`] gives on the producer's, bit for bit, walked in
    /// bands (callers run a pair whose map fits one band as two layers).
    ///
    /// The output rows of all frames split across the threads the dispatch
    /// really has ([`dispatch_threads`]: one inside another dispatch) once,
    /// and each thread walks its rows band by band in its own slice of one
    /// buffer from `ws`, recomputing the halo only where its rows begin.
    pub(crate) fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let (pgeo, dgeo, band) = self.plan(frame_dims(x, frames));
        let c = self.dw.c;
        let mut out = ws.take(stacked(&[frames, dgeo.out_h, dgeo.out_w, c]));
        // Cut only as many blocks as will really run side by side: inside
        // a dispatch (an item of a multi-item pool job) that is one, and
        // each further block would recompute its halo rows for nothing.
        let t = dispatch_threads().clamp(1, frames * dgeo.out_h);
        let row_len = pgeo.out_w * self.producer.out_c;
        let band_len = ((band - 1) * dgeo.stride + dgeo.kh) * row_len;
        // One band buffer per thread.
        let mut bufs = ws.take(&[t, band_len]);
        self.producer.with_rows(x.data(), &pgeo, |gemm| {
            let rows_out = dgeo.out_w * c;
            parallel_row_blocks_scratch_mut(
                out.data_mut(),
                rows_out,
                t,
                bufs.data_mut(),
                |r0, block, buf| {
                    let rows = r0..r0 + block.len() / rows_out;
                    self.walk_bands(gemm, &dgeo, band, rows, block, buf);
                },
            );
        });
        ws.recycle(bufs);
        out
    }

    /// Depthwise output rows `rows` (of the stacked frames) into `out`,
    /// `band` at a time, through `buf`: each band's producer rows are
    /// the ones the band reads, minus those the previous band left in
    /// `buf`, which slide to its front.
    fn walk_bands(
        &self,
        gemm: &ConvRows,
        dgeo: &Conv2dGeometry,
        band: usize,
        rows: Range<usize>,
        out: &mut [f32],
        buf: &mut [f32],
    ) {
        let (h, rows_out) = (dgeo.out_h, dgeo.out_w * self.dw.c);
        let row_len = dgeo.in_w * dgeo.in_c;
        // The frame and producer rows `buf` holds.
        let mut held: Option<(usize, Range<usize>)> = None;
        let mut r = rows.start;
        while r < rows.end {
            let (f, oy) = (r / h, r % h);
            let end = (oy + band).min(h).min(rows.end - f * h);
            let (bgeo, need) = band_geometry(dgeo, oy..end);
            let kept = match held {
                Some((hf, ref have)) if hf == f && have.contains(&need.start) => {
                    let kept = have.end.min(need.end) - need.start;
                    let from = (need.start - have.start) * row_len;
                    buf.copy_within(from..from + kept * row_len, 0);
                    kept
                }
                _ => 0,
            };
            if need.start + kept < need.end {
                let fresh = f * dgeo.in_h + need.start + kept..f * dgeo.in_h + need.end;
                gemm.run(fresh, &mut buf[kept * row_len..need.len() * row_len]);
            }
            let dst = &mut out[(r - rows.start) * rows_out..(r - rows.start + end - oy) * rows_out];
            self.dw.infer_into(&buf[..need.len() * row_len], &bgeo, dst);
            held = Some((f, need));
            r += end - oy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;
    use crate::{Activation, ActivationKind, ChannelNorm, Conv2d, DepthwiseConv2d, Sequential};

    fn staged_unit(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Sequential {
        let mut s = Sequential::new();
        s.push("conv", Conv2d::new(k, stride, in_c, out_c, seed));
        s.push("bn", ChannelNorm::identity(out_c));
        s.push("relu", Activation::new(ActivationKind::Relu));
        s
    }

    fn random(dims: Vec<usize>, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn fused_conv_matches_staged_unit() {
        for &(k, s) in &[(3usize, 1usize), (3, 2), (1, 1)] {
            let mut fused = ConvBnRelu::new(k, s, 3, 5, 42);
            let mut staged = staged_unit(k, s, 3, 5, 42);
            let x = random(vec![6, 7, 3], 9);
            let got = fused.forward(&x, Phase::Inference);
            let want = staged.forward(&x, Phase::Inference);
            assert!(got.approx_eq(&want, 1e-5), "k{k} s{s}");
        }
    }

    #[test]
    fn fused_conv_calibration_matches_staged() {
        let mut fused = ConvBnRelu::new(3, 1, 2, 4, 7);
        let mut staged = staged_unit(3, 1, 2, 4, 7);
        let samples: Vec<Tensor> = (0..3).map(|i| random(vec![5, 5, 2], i)).collect();
        let out_f = fused.calibrate(samples.clone());
        let out_s = staged.calibrate(samples.clone());
        assert!(fused.is_calibrated());
        for (a, b) in out_f.iter().zip(&out_s) {
            assert!(a.approx_eq(b, 1e-4));
        }
        // Post-calibration inference agrees too.
        let x = random(vec![5, 5, 2], 99);
        assert!(fused
            .forward(&x, Phase::Inference)
            .approx_eq(&staged.forward(&x, Phase::Inference), 1e-4));
    }

    #[test]
    fn fused_depthwise_matches_staged_unit() {
        let mut fused = DepthwiseBnRelu::new(3, 2, 4, 11);
        let mut staged = Sequential::new();
        staged.push("dw", DepthwiseConv2d::new(3, 2, 4, 11));
        staged.push("bn", ChannelNorm::identity(4));
        staged.push("relu", Activation::new(ActivationKind::Relu));
        let samples: Vec<Tensor> = (0..3).map(|i| random(vec![7, 6, 4], 50 + i)).collect();
        let out_f = fused.calibrate(samples.clone());
        let out_s = staged.calibrate(samples);
        for (a, b) in out_f.iter().zip(&out_s) {
            assert!(a.approx_eq(b, 1e-4));
        }
        let x = random(vec![7, 6, 4], 123);
        assert!(fused
            .forward(&x, Phase::Inference)
            .approx_eq(&staged.forward(&x, Phase::Inference), 1e-4));
    }

    #[test]
    fn fused_conv_gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut unit = ConvBnRelu::new(3, 1, 2, 3, 7);
        // Calibrate so the norm is non-trivial (scale ≠ 1).
        let _ = unit.calibrate((0..3).map(|i| random(vec![4, 4, 2], i)).collect());
        let x = Tensor::from_vec(
            vec![4, 4, 2],
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = unit.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = unit.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 7, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (unit.forward(&xp, Phase::Inference).sum()
                - unit.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        for &i in &[0usize, 10, 50] {
            // Direct weight pokes go through params_mut so the packed-panel
            // cache notices (the documented mutation contract).
            let orig = unit.params_mut()[0].value.data()[i];
            unit.params_mut()[0].value.data_mut()[i] = orig + eps;
            let fp = unit.forward(&x, Phase::Inference).sum();
            unit.params_mut()[0].value.data_mut()[i] = orig - eps;
            let fm = unit.forward(&x, Phase::Inference).sum();
            unit.params_mut()[0].value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = unit.weight.grad().unwrap().data()[i];
            assert!((num - ana).abs() < 2e-2, "dW[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn fused_depthwise_gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut unit = DepthwiseBnRelu::new(3, 2, 2, 4);
        let _ = unit.calibrate((0..3).map(|i| random(vec![5, 5, 2], i)).collect());
        let x = Tensor::from_vec(
            vec![5, 5, 2],
            (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = unit.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = unit.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 13, 49] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (unit.forward(&xp, Phase::Inference).sum()
                - unit.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 2e-2, "dx[{i}]");
        }
    }

    #[test]
    fn cost_and_params_match_separate_layers() {
        let fused = ConvBnRelu::new(3, 2, 8, 16, 0);
        let conv = Conv2d::new(3, 2, 8, 16, 0);
        assert_eq!(
            fused.multiply_adds(&[10, 10, 8]),
            conv.multiply_adds(&[10, 10, 8])
        );
        assert_eq!(fused.param_count(), conv.param_count());
        assert_eq!(fused.out_shape(&[10, 10, 8]), conv.out_shape(&[10, 10, 8]));
    }
}
