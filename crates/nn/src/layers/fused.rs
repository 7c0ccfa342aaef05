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

use ff_tensor::{
    col2im, conv_gemm, gemm_fused, im2col_into, matmul_transpose_a, matmul_transpose_b,
    Conv2dGeometry, Epilogue, GemmB, PackedPanels, Padding, Precision, Tensor, Workspace,
};
use rand::SeedableRng;

use crate::layer::{frame_dims, stacked};
use crate::layers::depthwise::depthwise_forward;
use crate::layers::int8act::forward_int8act;
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
    /// Weight panels pre-packed for the GEMM micro-kernel — in the format
    /// chosen by [`Layer::set_precision`] (f32 or whole-int8) — refreshed
    /// lazily whenever `weight_epoch` moves. Weights are static during
    /// streaming, so inference walks sequential panels and never pays
    /// per-call quantization traffic.
    packed_weights: PackedPanels,
    packed_epoch: u64,
    /// Bumped by every mutation access point ([`Layer::params_mut`],
    /// [`Layer::backward`]); code that writes `weight.value` directly must
    /// call `params_mut` (the path optimizers and weight loading already
    /// take) for the packed cache to notice.
    weight_epoch: u64,
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
            packed_weights: PackedPanels::empty(Precision::F32),
            packed_epoch: 0,
            weight_epoch: 1,
        }
    }

    /// Whether calibration has fit the folded norm.
    pub fn is_calibrated(&self) -> bool {
        self.norm.calibrated
    }

    /// Refreshes the packed weight panels if the weights changed.
    fn ensure_packed(&mut self) {
        if self.packed_epoch == self.weight_epoch {
            return;
        }
        let fan_in = self.k * self.k * self.in_c;
        self.packed_weights
            .repack(self.weight.value.data(), fan_in, self.out_c);
        self.packed_epoch = self.weight_epoch;
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
}

impl Layer for ConvBnRelu {
    fn layer_type(&self) -> &'static str {
        "conv_bn_relu"
    }

    /// The whole unit in one pass: GEMM + bias + folded norm + ReLU against
    /// the cached weight panels — the fused f32 convolution, or at
    /// [`Precision::Int8Act`] the whole-int8 pipeline (each frame quantizes
    /// once and gathers straight into a u8 buffer) — one GEMM over every
    /// frame's output rows, streaming each packed panel once.
    fn infer(&mut self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(&[frames * geo.positions(), self.out_c]);
        self.ensure_packed();
        let (ep, n) = (self.epilogue(true), self.out_c);
        match &self.packed_weights {
            PackedPanels::F32(panels) => {
                conv_gemm(x.data(), &geo, GemmB::Packed(panels), out.data_mut(), n, ep)
            }
            packed => forward_int8act(x.data(), frames, &geo, packed, out.data_mut(), n, ep),
        }
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
        self.weight_epoch += 1; // weights are about to change
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
        self.weight_epoch += 1; // caller may mutate weights through these
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
        if self.packed_weights.precision() == precision {
            return;
        }
        self.packed_weights = PackedPanels::empty(precision);
        self.packed_epoch = 0; // force a repack at the next inference
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
    /// Inference weight store for [`Layer::set_precision`]; training and
    /// calibration always use the raw f32 weights.
    taps: crate::layers::depthwise::TapWeightStore,
    /// Bumped by every mutation access point so the quantized cache
    /// notices weight changes.
    weight_epoch: u64,
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
            taps: crate::layers::depthwise::TapWeightStore::new(),
            weight_epoch: 1,
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

    /// The precision store's taps with the folded `norm+ReLU` tail fused.
    fn infer(&mut self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(stacked(&[frames, geo.out_h, geo.out_w, self.c]));
        let w = self
            .taps
            .effective(self.weight.value.data(), self.c, self.weight_epoch);
        let tail = Some((&self.norm.scale[..], &self.norm.shift[..]));
        let b = self.bias.value.data();
        depthwise_forward(x.data(), &geo, self.k, w, b, tail, out.data_mut());
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
        self.weight_epoch += 1; // weights are about to change
        self.weight.accumulate(&dw);
        self.bias.accumulate(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weight_epoch += 1; // caller may mutate weights through these
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
            let ana = unit.weight.grad.data()[i];
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
