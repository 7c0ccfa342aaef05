//! Standard 2-D convolution, lowered to one GEMM: inference gathers patches
//! inside it ([`ff_tensor::conv_gemm`], which reads a 1×1 stride-1 kernel's
//! input in place); training materialises the im2col matrix its backward
//! pass needs.

use ff_tensor::{
    col2im, conv_gemm, gemm_fused, im2col_into, matmul_transpose_a, matmul_transpose_b,
    Conv2dGeometry, Epilogue, GemmB, PackedPanels, Padding, Precision, Tensor, Workspace,
};
use rand::SeedableRng;

use crate::layer::{frame_dims, stacked};
use crate::layers::int8act::forward_int8act;
use crate::{Layer, Param};

/// A standard convolution over HWC inputs.
///
/// Weights are stored GEMM-ready as `[kh·kw·in_c, out_c]`; biases as
/// `[out_c]`. `1×1` convolutions (ubiquitous in the paper's
/// microclassifiers) take the same path — im2col of a 1×1 stride-1 kernel is
/// a no-copy-shaped reshape, so they are effectively a pure GEMM.
pub struct Conv2d {
    kh: usize,
    kw: usize,
    stride: usize,
    padding: Padding,
    in_c: usize,
    out_c: usize,
    weight: Param,
    bias: Param,
    cache: Vec<(Conv2dGeometry, Tensor)>,
    /// Weight panels prepacked in the [`Layer::set_precision`] format,
    /// used by the inference paths at whole-int8 (the f32 path multiplies
    /// against the raw weights where they are: the GEMM reads a row-major
    /// `B` in place, so there is nothing to pack or keep in step).
    /// Refreshed when `weight_epoch` moves.
    packed: PackedPanels,
    packed_epoch: u64,
    /// Bumped by every mutation access point ([`Layer::params_mut`],
    /// [`Layer::backward`]) so the packed cache notices weight changes.
    weight_epoch: u64,
}

impl std::fmt::Debug for Conv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Conv2d({}x{} s{} {}→{})",
            self.kh, self.kw, self.stride, self.in_c, self.out_c
        )
    }
}

impl Conv2d {
    /// Creates a SAME-padded `k×k` convolution with He-initialized weights.
    pub fn new(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Self {
        Self::with_padding(k, stride, in_c, out_c, Padding::Same, seed)
    }

    /// Creates a convolution with an explicit padding policy.
    pub fn with_padding(
        k: usize,
        stride: usize,
        in_c: usize,
        out_c: usize,
        padding: Padding,
        seed: u64,
    ) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let fan_in = k * k * in_c;
        Conv2d {
            kh: k,
            kw: k,
            stride,
            padding,
            in_c,
            out_c,
            weight: Param::new(ff_tensor::he_normal(&mut rng, vec![fan_in, out_c], fan_in)),
            bias: Param::new(Tensor::zeros(vec![out_c])),
            cache: Vec::new(),
            packed: PackedPanels::empty(Precision::F32),
            packed_epoch: 0,
            weight_epoch: 1,
        }
    }

    /// Output channel count.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// The storage precision of the inference weight panels.
    pub fn precision(&self) -> Precision {
        self.packed.precision()
    }

    /// The layer's whole epilogue: one `+ bias` per output element, after
    /// its finished sum.
    fn bias_epilogue(&self) -> Epilogue<'_> {
        Epilogue {
            bias: Some(self.bias.value.data()),
            ..Epilogue::default()
        }
    }

    fn geometry(&self, in_shape: &[usize]) -> Conv2dGeometry {
        assert_eq!(
            in_shape.len(),
            3,
            "Conv2d expects HWC input, got {in_shape:?}"
        );
        assert_eq!(
            in_shape[2], self.in_c,
            "Conv2d expects {} channels, got {}",
            self.in_c, in_shape[2]
        );
        Conv2dGeometry::resolve(
            (in_shape[0], in_shape[1], in_shape[2]),
            (self.kh, self.kw),
            self.stride,
            self.padding,
        )
    }
}

impl Layer for Conv2d {
    fn layer_type(&self) -> &'static str {
        "conv2d"
    }

    /// The fused f32 convolution against the raw weights where they are,
    /// or — at [`Precision::Int8Act`] — the whole-int8 pipeline against the
    /// panels, refreshed if the weights changed: one GEMM over every
    /// frame's output rows.
    fn infer(&mut self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let geo = self.geometry(frame_dims(x, frames));
        let mut out = ws.take(&[frames * geo.positions(), self.out_c]);
        if self.packed.precision() == Precision::F32 {
            let w = GemmB::InPlace(self.weight.value.data());
            let ep = self.bias_epilogue();
            conv_gemm(x.data(), &geo, w, out.data_mut(), self.out_c, ep);
        } else {
            if self.packed_epoch != self.weight_epoch {
                self.packed
                    .repack(self.weight.value.data(), geo.fan_in(), self.out_c);
                self.packed_epoch = self.weight_epoch;
            }
            let (ep, n) = (self.bias_epilogue(), self.out_c);
            forward_int8act(x.data(), frames, &geo, &self.packed, out.data_mut(), n, ep);
        }
        out.reshape_to(stacked(&[frames, geo.out_h, geo.out_w, self.out_c]));
        out
    }

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
            self.bias_epilogue(),
        );
        self.cache.push((geo, cols));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (geo, cols) = self
            .cache
            .pop()
            .expect("Conv2d::backward without cached forward");
        let g = grad_out.clone().reshape(vec![geo.positions(), self.out_c]);
        self.weight_epoch += 1; // weights are about to change
        self.weight.accumulate(&matmul_transpose_a(&cols, &g));
        // Bias gradient: column sums.
        let mut db = Tensor::zeros(vec![self.out_c]);
        for row in g.data().chunks(self.out_c) {
            for (d, &gv) in db.data_mut().iter_mut().zip(row) {
                *d += gv;
            }
        }
        self.bias.accumulate(&db);
        // dcols = g · Wᵀ: matmul_transpose_b(a, b) computes a · bᵀ with
        // b stored [n, k]; W is [fan_in, out_c], giving [positions, fan_in].
        let dcols = matmul_transpose_b(&g, &self.weight.value);
        col2im(&dcols, &geo)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.weight_epoch += 1; // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        if self.packed.precision() == precision {
            return;
        }
        self.packed = PackedPanels::empty(precision);
        self.packed_epoch = 0; // force a repack at the next inference
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let geo = self.geometry(in_shape);
        vec![geo.out_h, geo.out_w, self.out_c]
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let geo = self.geometry(in_shape);
        crate::cost::conv_madds(geo.out_h, geo.out_w, self.in_c, self.kh, self.out_c)
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

    /// Direct (quadruple-loop) reference convolution.
    fn naive_conv(
        x: &Tensor,
        w: &Tensor,
        b: &Tensor,
        k: usize,
        stride: usize,
        out_c: usize,
    ) -> Tensor {
        let (h, wd, c) = (x.dims()[0], x.dims()[1], x.dims()[2]);
        let geo = Conv2dGeometry::resolve((h, wd, c), (k, k), stride, Padding::Same);
        let mut out = Tensor::zeros(vec![geo.out_h, geo.out_w, out_c]);
        for oy in 0..geo.out_h {
            for ox in 0..geo.out_w {
                for f in 0..out_c {
                    let mut acc = b.data()[f];
                    for ky in 0..k {
                        for kx in 0..k {
                            let y = (oy * stride + ky) as isize - geo.pad_top as isize;
                            let xx = (ox * stride + kx) as isize - geo.pad_left as isize;
                            if y < 0 || y >= h as isize || xx < 0 || xx >= wd as isize {
                                continue;
                            }
                            for ch in 0..c {
                                let wi = ((ky * k + kx) * c + ch) * out_c + f;
                                acc += x.at3(y as usize, xx as usize, ch) * w.data()[wi];
                            }
                        }
                    }
                    out.set3(oy, ox, f, acc);
                }
            }
        }
        out
    }

    #[test]
    fn forward_matches_naive() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(h, w, c, k, s, f) in &[(5, 5, 3, 3, 1, 4), (6, 4, 2, 3, 2, 5), (4, 4, 1, 1, 1, 2)] {
            let mut conv = Conv2d::new(k, s, c, f, 99);
            let x = Tensor::from_vec(
                vec![h, w, c],
                (0..h * w * c).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            );
            let got = conv.forward(&x, Phase::Inference);
            let want = naive_conv(&x, &conv.weight.value, &conv.bias.value, k, s, f);
            assert!(got.approx_eq(&want, 1e-4), "{h}x{w}x{c} k{k} s{s} f{f}");
        }
    }

    #[test]
    fn gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(3, 1, 2, 3, 7);
        let x = Tensor::from_vec(
            vec![4, 4, 2],
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        // Loss = sum(out); numerical vs analytic gradient for a few weights.
        let out = conv.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = conv.backward(&ones);

        let eps = 1e-3;
        // Input gradient.
        for &i in &[0usize, 7, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let fp = conv.forward(&xp, Phase::Inference).sum();
            let fm = conv.forward(&xm, Phase::Inference).sum();
            let num = (fp - fm) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 1e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
        // Weight gradient.
        for &i in &[0usize, 10, 50] {
            let orig = conv.weight.value.data()[i];
            conv.weight.value.data_mut()[i] = orig + eps;
            let fp = conv.forward(&x, Phase::Inference).sum();
            conv.weight.value.data_mut()[i] = orig - eps;
            let fm = conv.forward(&x, Phase::Inference).sum();
            conv.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            let ana = conv.weight.grad.data()[i];
            assert!((num - ana).abs() < 1e-2, "dW[{i}]: {num} vs {ana}");
        }
    }

    #[test]
    fn shapes_and_cost() {
        let conv = Conv2d::new(3, 2, 8, 16, 0);
        assert_eq!(conv.out_shape(&[10, 10, 8]), vec![5, 5, 16]);
        // (H/S)(W/S)·M·K²·F = 5·5·8·9·16
        assert_eq!(conv.multiply_adds(&[10, 10, 8]), 5 * 5 * 8 * 9 * 16);
        assert_eq!(conv.param_count(), 3 * 3 * 8 * 16 + 16);
    }

    #[test]
    #[should_panic(expected = "without cached forward")]
    fn backward_requires_train_phase() {
        let mut conv = Conv2d::new(1, 1, 1, 1, 0);
        let x = Tensor::zeros(vec![2, 2, 1]);
        let _ = conv.forward(&x, Phase::Inference);
        let _ = conv.backward(&Tensor::zeros(vec![2, 2, 1]));
    }

    #[test]
    fn lifo_cache_supports_weight_sharing() {
        // Two forwards, two backwards in reverse order — like the windowed MC.
        let mut conv = Conv2d::new(1, 1, 1, 2, 1);
        let x1 = Tensor::filled(vec![2, 2, 1], 1.0);
        let x2 = Tensor::filled(vec![2, 2, 1], 2.0);
        let _ = conv.forward(&x1, Phase::Train);
        let _ = conv.forward(&x2, Phase::Train);
        let g = Tensor::filled(vec![2, 2, 2], 1.0);
        let _ = conv.backward(&g); // pops x2
        let _ = conv.backward(&g); // pops x1
                                   // dW = Σ_pos x·g accumulated over both frames: (1+2)·4 positions = 12 per filter.
        assert_eq!(conv.weight.grad.data(), &[12.0, 12.0]);
    }
}
