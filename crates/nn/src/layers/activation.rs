//! Element-wise activations: ReLU, ReLU6 (MobileNet's clamp), sigmoid.

use ff_tensor::{Tensor, Workspace};

use crate::Layer;

/// Which nonlinearity an [`Activation`] layer applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivationKind {
    /// `max(0, x)`.
    Relu,
    /// `min(max(0, x), 6)` — used by MobileNet and the localized MC's FC
    /// layer (Figure 2b's "ReLU6").
    Relu6,
    /// Logistic sigmoid, used on every microclassifier's output.
    Sigmoid,
}

/// An element-wise activation layer.
#[derive(Debug)]
pub struct Activation {
    kind: ActivationKind,
    cache: Vec<Tensor>,
}

impl Activation {
    /// Creates an activation of the given kind.
    pub fn new(kind: ActivationKind) -> Self {
        Activation {
            kind,
            cache: Vec::new(),
        }
    }

    /// The configured nonlinearity.
    pub fn kind(&self) -> ActivationKind {
        self.kind
    }
}

impl Layer for Activation {
    fn layer_type(&self) -> &'static str {
        match self.kind {
            ActivationKind::Relu => "relu",
            ActivationKind::Relu6 => "relu6",
            ActivationKind::Sigmoid => "sigmoid",
        }
    }

    /// Element-wise, so any number of frames is just a bigger buffer.
    fn infer(&mut self, x: &Tensor, _frames: usize, ws: &mut Workspace) -> Tensor {
        let mut y = ws.take(x.dims());
        // One monomorphised loop per kind, so each vectorises; through a
        // `fn` pointer picked up front every element is an indirect call.
        fn map(y: &mut [f32], x: &[f32], f: impl Fn(f32) -> f32) {
            for (o, &v) in y.iter_mut().zip(x) {
                *o = f(v);
            }
        }
        match self.kind {
            ActivationKind::Relu => map(y.data_mut(), x.data(), |v| v.max(0.0)),
            ActivationKind::Relu6 => map(y.data_mut(), x.data(), |v| v.clamp(0.0, 6.0)),
            ActivationKind::Sigmoid => map(y.data_mut(), x.data(), crate::loss::sigmoid),
        }
        y
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x, 1, &mut Workspace::new());
        // ReLUs need the input sign; sigmoid needs the output. Cache
        // whichever the backward formula uses.
        self.cache.push(match self.kind {
            ActivationKind::Sigmoid => y.clone(),
            _ => x.clone(),
        });
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cached = self
            .cache
            .pop()
            .expect("Activation::backward without cached forward");
        match self.kind {
            ActivationKind::Relu => grad_out.zip_map(&cached, |g, x| if x > 0.0 { g } else { 0.0 }),
            ActivationKind::Relu6 => {
                grad_out.zip_map(&cached, |g, x| if x > 0.0 && x < 6.0 { g } else { 0.0 })
            }
            ActivationKind::Sigmoid => grad_out.zip_map(&cached, |g, y| g * y * (1.0 - y)),
        }
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
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
    fn relu_clamps_negative() {
        let mut a = Activation::new(ActivationKind::Relu);
        let y = a.forward(
            &Tensor::from_vec(vec![3], vec![-1., 0., 2.]),
            Phase::Inference,
        );
        assert_eq!(y.data(), &[0., 0., 2.]);
    }

    #[test]
    fn relu6_clamps_both_sides() {
        let mut a = Activation::new(ActivationKind::Relu6);
        let y = a.forward(
            &Tensor::from_vec(vec![3], vec![-1., 5., 9.]),
            Phase::Inference,
        );
        assert_eq!(y.data(), &[0., 5., 6.]);
    }

    #[test]
    fn sigmoid_range_and_midpoint() {
        let mut a = Activation::new(ActivationKind::Sigmoid);
        let y = a.forward(
            &Tensor::from_vec(vec![3], vec![-20., 0., 20.]),
            Phase::Inference,
        );
        assert!(y.data()[0] < 1e-6);
        assert_eq!(y.data()[1], 0.5);
        assert!(y.data()[2] > 1.0 - 1e-6);
    }

    #[test]
    fn vectorised_loops_match_the_scalar_functions_bit_for_bit() {
        // Each element called through a `fn` pointer (nothing to vectorise)
        // against the layer's per-kind loops, on the values where a vector
        // min/max could differ from the scalar one: NaN, both zeros, both
        // infinities, the clamp bound and its neighbours — at every offset
        // of a buffer long enough for whole vectors and a tail.
        let six = 6.0f32;
        let special = [
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            six,
            f32::from_bits(six.to_bits() - 1),
            f32::from_bits(six.to_bits() + 1),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            -3.5,
            2.25,
        ];
        let x: Vec<f32> = (0..67).map(|i| special[i % special.len()]).collect();
        for (kind, scalar) in [
            (ActivationKind::Relu, (|v| v.max(0.0)) as fn(f32) -> f32),
            (ActivationKind::Relu6, |v| v.clamp(0.0, 6.0)),
            (ActivationKind::Sigmoid, crate::loss::sigmoid),
        ] {
            let y = Activation::new(kind).forward(
                &Tensor::from_vec(vec![x.len()], x.clone()),
                Phase::Inference,
            );
            for (i, (&got, &v)) in y.data().iter().zip(&x).enumerate() {
                let want = std::hint::black_box(scalar)(v);
                assert_eq!(got.to_bits(), want.to_bits(), "{kind:?} [{i}] of {v}");
            }
        }
    }

    #[test]
    fn backward_masks_correctly() {
        let mut a = Activation::new(ActivationKind::Relu);
        let x = Tensor::from_vec(vec![4], vec![-1., 1., -2., 3.]);
        let _ = a.forward(&x, Phase::Train);
        let g = a.backward(&Tensor::filled(vec![4], 2.0));
        assert_eq!(g.data(), &[0., 2., 0., 2.]);
    }

    #[test]
    fn sigmoid_gradient_check() {
        let mut a = Activation::new(ActivationKind::Sigmoid);
        let x = Tensor::from_vec(vec![2], vec![0.3, -0.7]);
        let _ = a.forward(&x, Phase::Train);
        let g = a.backward(&Tensor::filled(vec![2], 1.0));
        let eps = 1e-3;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (a.forward(&xp, Phase::Inference).sum()
                - a.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!((num - g.data()[i]).abs() < 1e-4);
        }
    }
}
