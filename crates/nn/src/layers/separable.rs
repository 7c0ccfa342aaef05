//! Separable ("factored") convolution: depthwise followed by 1×1 pointwise,
//! optionally with an activation in between — the unit MobileNet and the
//! paper's localized microclassifier are built from.

use ff_tensor::{Tensor, Workspace};

use crate::layers::activation::{Activation, ActivationKind};
use crate::{Conv2d, DepthwiseConv2d, Layer, Param};

/// A separable convolution (`k×k` depthwise → optional activation → 1×1
/// pointwise).
///
/// The paper's cost formula for this unit is
/// `(H/S)·(W/S)·M·(K² + F)` multiply-adds (§4.5), which is what
/// [`Layer::multiply_adds`] reports.
pub struct SeparableConv2d {
    dw: DepthwiseConv2d,
    inner: Option<Activation>,
    pw: Conv2d,
}

impl std::fmt::Debug for SeparableConv2d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SeparableConv2d({:?} → {:?})", self.dw, self.pw)
    }
}

impl SeparableConv2d {
    /// Creates a separable conv with no activation between the depthwise and
    /// pointwise stages (the form used in Figure 2b's microclassifier).
    pub fn new(k: usize, stride: usize, in_c: usize, out_c: usize, seed: u64) -> Self {
        SeparableConv2d {
            dw: DepthwiseConv2d::new(k, stride, in_c, seed),
            inner: None,
            pw: Conv2d::new(1, 1, in_c, out_c, seed.wrapping_add(1)),
        }
    }

    /// Creates a separable conv with an activation between the stages (the
    /// MobileNet form: depthwise → ReLU → pointwise).
    pub fn with_inner_activation(
        k: usize,
        stride: usize,
        in_c: usize,
        out_c: usize,
        act: ActivationKind,
        seed: u64,
    ) -> Self {
        SeparableConv2d {
            dw: DepthwiseConv2d::new(k, stride, in_c, seed),
            inner: Some(Activation::new(act)),
            pw: Conv2d::new(1, 1, in_c, out_c, seed.wrapping_add(1)),
        }
    }
}

impl Layer for SeparableConv2d {
    fn layer_type(&self) -> &'static str {
        "separable_conv2d"
    }

    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let mut y = self.dw.infer(x, frames, ws);
        if let Some(act) = &self.inner {
            let a = act.infer(&y, frames, ws);
            ws.recycle(std::mem::replace(&mut y, a));
        }
        let out = self.pw.infer(&y, frames, ws);
        ws.recycle(y);
        out
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        let mut y = self.dw.train(x);
        if let Some(act) = &mut self.inner {
            y = act.train(&y);
        }
        self.pw.train(&y)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = self.pw.backward(grad_out);
        if let Some(act) = &mut self.inner {
            g = act.backward(&g);
        }
        self.dw.backward(&g)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.dw.params_mut();
        p.extend(self.pw.params_mut());
        p
    }

    fn set_precision(&mut self, precision: ff_tensor::Precision) {
        self.dw.set_precision(precision);
        self.pw.set_precision(precision);
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        self.pw.out_shape(&self.dw.out_shape(in_shape))
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let mid = self.dw.out_shape(in_shape);
        self.dw.multiply_adds(in_shape) + self.pw.multiply_adds(&mid)
    }

    fn param_count(&self) -> usize {
        self.dw.param_count() + self.pw.param_count()
    }

    fn clear_cache(&mut self) {
        self.dw.clear_cache();
        if let Some(act) = &mut self.inner {
            act.clear_cache();
        }
        self.pw.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn cost_matches_paper_formula() {
        // (H/S)(W/S)·M·(K²+F): 10x10 input, s2 → 5x5, M=16, K=3, F=32.
        let sep = SeparableConv2d::new(3, 2, 16, 32, 0);
        assert_eq!(
            sep.multiply_adds(&[10, 10, 16]),
            (5 * 5 * 16 * (9 + 32)) as u64
        );
    }

    #[test]
    fn shape_chains_through_both_stages() {
        let sep = SeparableConv2d::new(3, 2, 8, 24, 0);
        assert_eq!(sep.out_shape(&[9, 7, 8]), vec![5, 4, 24]);
    }

    #[test]
    fn gradient_check_end_to_end() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let mut sep = SeparableConv2d::with_inner_activation(3, 1, 2, 3, ActivationKind::Relu, 20);
        let x = Tensor::from_vec(
            vec![4, 4, 2],
            (0..32).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let out = sep.forward(&x, Phase::Train);
        let ones = Tensor::filled(out.dims().to_vec(), 1.0);
        let dx = sep.backward(&ones);
        let eps = 1e-3;
        for &i in &[0usize, 15, 31] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (sep.forward(&xp, Phase::Inference).sum()
                - sep.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn param_count_sums_stages() {
        let sep = SeparableConv2d::new(3, 1, 4, 8, 0);
        // dw: 3·3·4 + 4; pw: 1·1·4·8 + 8.
        assert_eq!(sep.param_count(), 36 + 4 + 32 + 8);
    }
}
