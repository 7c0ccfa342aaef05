//! Fully-connected layers and the flatten adapter in front of them.

use ff_tensor::{Epilogue, PackedPanels, Precision, Tensor, Workspace};
use rand::SeedableRng;

use crate::layer::{frame_dims, stacked};
use crate::layers::DerivedWeights;
use crate::{Layer, Param};

/// A dense (fully-connected) layer over flattened inputs.
///
/// Weights `[in, out]`, bias `[out]`. Inputs of any rank are accepted as
/// long as their element count equals `in` — feature maps flatten in
/// row-major HWC order, matching the paper's `N·H·W·M` FC cost formula.
pub struct Dense {
    in_len: usize,
    out_len: usize,
    weight: Param,
    bias: Param,
    cache: Vec<Tensor>,
    /// Weight panels packed in the [`Layer::set_precision`] format, used
    /// by inference at whole-int8 (the classification-head weights of the
    /// multiple-MobileNets baseline are a real share of its streamed
    /// bytes).
    packed: DerivedWeights<PackedPanels>,
}

impl std::fmt::Debug for Dense {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Dense({}→{})", self.in_len, self.out_len)
    }
}

impl Dense {
    /// Creates a dense layer with Glorot-initialized weights.
    pub fn new(in_len: usize, out_len: usize, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Dense {
            in_len,
            out_len,
            weight: Param::new(ff_tensor::glorot_uniform(
                &mut rng,
                vec![in_len, out_len],
                in_len,
                out_len,
            )),
            bias: Param::new(Tensor::zeros(vec![out_len])),
            cache: Vec::new(),
            packed: DerivedWeights::new(),
        }
    }

    /// The storage precision of the inference weights.
    pub fn precision(&self) -> Precision {
        self.packed.precision()
    }

    /// The layer's whole epilogue: one `+ bias` per output element.
    fn bias_epilogue(&self) -> Epilogue<'_> {
        Epilogue {
            bias: Some(self.bias.value.data()),
            ..Epilogue::default()
        }
    }
}

impl Layer for Dense {
    fn layer_type(&self) -> &'static str {
        "dense"
    }

    /// One GEMM with a row per frame: whole-int8 runs the prepacked panels
    /// (quantizing each row on its own), f32 the raw weights in place;
    /// either way each output element is the same ascending-`k` chain at
    /// any frame count, and the bias is the GEMM's epilogue.
    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let dims = frame_dims(x, frames);
        assert_eq!(
            dims.iter().product::<usize>(),
            self.in_len,
            "Dense expects {} inputs, got {dims:?}",
            self.in_len
        );
        let mut out = ws.take(stacked(&[frames, self.out_len]));
        let (k, n) = (self.in_len, self.out_len);
        let (w, ep) = (self.weight.value.data(), self.bias_epilogue());
        if self.packed.precision() == Precision::F32 {
            ff_tensor::gemm_fused(x.data(), w, out.data_mut(), frames, k, n, ep);
        } else {
            let packed = self.packed.get(|p| PackedPanels::pack(p, w, k, n));
            packed.gemm(x.data(), out.data_mut(), frames, k, n, ep);
        }
        out
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(self.out_shape(x.dims()));
        let w = self.weight.value.data();
        let (k, n) = (self.in_len, self.out_len);
        ff_tensor::gemm_fused(x.data(), w, out.data_mut(), 1, k, n, self.bias_epilogue());
        self.cache.push(x.clone().reshape(vec![1, self.in_len]));
        out
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self
            .cache
            .pop()
            .expect("Dense::backward without cached forward");
        let g = grad_out.clone().reshape(vec![1, self.out_len]);
        self.packed.invalidate(); // weights are about to change
        self.weight
            .accumulate(&ff_tensor::matmul_transpose_a(&x, &g));
        self.bias.accumulate(&g.clone().reshape(vec![self.out_len]));
        ff_tensor::matmul_transpose_b(&g, &self.weight.value).reshape(vec![self.in_len])
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.packed.invalidate(); // caller may mutate weights through these
        vec![&mut self.weight, &mut self.bias]
    }

    fn set_precision(&mut self, precision: Precision) {
        self.packed.set_precision(precision);
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let n: usize = in_shape.iter().product();
        assert_eq!(
            n, self.in_len,
            "Dense expects {} inputs, got {in_shape:?}",
            self.in_len
        );
        vec![self.out_len]
    }

    fn multiply_adds(&self, _in_shape: &[usize]) -> u64 {
        // Paper §4.5: N·H·W·M for an FC over an H×W×M feature map with N
        // hidden units — i.e. in_len · out_len.
        (self.in_len * self.out_len) as u64
    }

    fn param_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    fn clear_cache(&mut self) {
        self.cache.clear();
    }
}

/// Reshapes any input to a rank-1 vector (and back, on the way down).
#[derive(Debug, Default)]
pub struct Flatten {
    cache: Vec<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten::default()
    }
}

impl Layer for Flatten {
    fn layer_type(&self) -> &'static str {
        "flatten"
    }

    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let len = frame_dims(x, frames).iter().product();
        let mut out = ws.take(stacked(&[frames, len]));
        out.data_mut().copy_from_slice(x.data());
        out
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        self.cache.push(x.dims().to_vec());
        x.clone().reshape(vec![x.len()])
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let dims = self
            .cache
            .pop()
            .expect("Flatten::backward without cached forward");
        grad_out.clone().reshape(dims)
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        vec![in_shape.iter().product()]
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
    fn forward_is_affine() {
        let mut d = Dense::new(2, 2, 0);
        d.weight.value = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]);
        d.bias.value = Tensor::from_vec(vec![2], vec![10., 20.]);
        let y = d.forward(&Tensor::from_vec(vec![2], vec![1., 1.]), Phase::Inference);
        assert_eq!(y.data(), &[14., 26.]);
    }

    #[test]
    fn gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let mut d = Dense::new(6, 3, 1);
        let x = Tensor::from_vec(vec![6], (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let _ = d.forward(&x, Phase::Train);
        let dx = d.backward(&Tensor::filled(vec![3], 1.0));
        let eps = 1e-3;
        for i in 0..6 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (d.forward(&xp, Phase::Inference).sum()
                - d.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - dx.data()[i]).abs() < 1e-3);
        }
        for &i in &[0usize, 7, 17] {
            let orig = d.weight.value.data()[i];
            d.weight.value.data_mut()[i] = orig + eps;
            let fp = d.forward(&x, Phase::Inference).sum();
            d.weight.value.data_mut()[i] = orig - eps;
            let fm = d.forward(&x, Phase::Inference).sum();
            d.weight.value.data_mut()[i] = orig;
            let num = (fp - fm) / (2.0 * eps);
            assert!((num - d.weight.grad().unwrap().data()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn reduced_precision_head_stays_close_and_deterministic() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut d = Dense::new(64, 8, 3);
        let x = Tensor::from_vec(
            vec![64],
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let gold = d.forward(&x, Phase::Inference);
        d.set_precision(Precision::Int8Act);
        let got = d.forward(&x, Phase::Inference);
        let amax = gold.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        // Whole-int8 quantizes the weights and (asymmetric u8 per row) the
        // activations.
        let tol = 0.08 * amax + 1e-4;
        for (g, w) in got.data().iter().zip(gold.data()) {
            assert!((g - w).abs() <= tol, "{g} vs {w}");
        }
        // Bit-identical to itself on a re-run.
        assert_eq!(d.forward(&x, Phase::Inference), got);
        // Back to f32: bit-identical to the original raw-weight path.
        d.set_precision(Precision::F32);
        assert_eq!(d.forward(&x, Phase::Inference), gold);
    }

    #[test]
    fn accepts_hwc_input() {
        let mut d = Dense::new(12, 1, 2);
        let x = Tensor::zeros(vec![2, 3, 2]);
        assert_eq!(d.forward(&x, Phase::Inference).dims(), &[1]);
        assert_eq!(d.out_shape(&[2, 3, 2]), vec![1]);
    }

    #[test]
    fn fc_cost_formula() {
        // Paper: FC over H×W×M with N units = N·H·W·M.
        let d = Dense::new(7 * 12 * 32, 200, 0);
        assert_eq!(d.multiply_adds(&[7, 12, 32]), 200 * 7 * 12 * 32);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::from_vec(vec![2, 2, 1], vec![1., 2., 3., 4.]);
        let y = f.forward(&x, Phase::Train);
        assert_eq!(y.dims(), &[4]);
        let g = f.backward(&y);
        assert_eq!(g.dims(), &[2, 2, 1]);
    }
}
