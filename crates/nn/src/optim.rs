//! Optimizers: SGD with momentum and Adam.
//!
//! Both keep per-parameter state indexed by position, so `step` must always
//! be called with the same parameter list in the same order — which
//! [`crate::Sequential::params_mut`] guarantees.

use ff_tensor::Tensor;

use crate::Param;

/// A parameter's gradient elements, with no gradient read as all zeros
/// (the same `0.0` a zeroed buffer would hold, so updates are
/// bit-identical either way). Unbounded: zipped against the value.
fn grads(grad: Option<&Tensor>) -> impl Iterator<Item = f32> + '_ {
    grad.into_iter()
        .flat_map(|g| g.data().iter().copied())
        .chain(std::iter::repeat(0.0))
}

/// Stochastic gradient descent with classical momentum.
#[derive(Debug)]
pub struct Sgd {
    lr: f32,
    momentum: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer (momentum 0.9).
    pub fn new(lr: f32) -> Self {
        Sgd {
            lr,
            momentum: 0.9,
            velocity: Vec::new(),
        }
    }

    /// Sets the momentum coefficient.
    pub fn with_momentum(mut self, momentum: f32) -> Self {
        self.momentum = momentum;
        self
    }

    /// Applies one update and drops gradients.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.value.dims().to_vec()))
                .collect();
        }
        assert_eq!(
            self.velocity.len(),
            params.len(),
            "optimizer param list changed"
        );
        for (p, v) in params.iter_mut().zip(&mut self.velocity) {
            let (value, grad) = p.value_and_grad();
            for ((vv, g), x) in v
                .data_mut()
                .iter_mut()
                .zip(grads(grad))
                .zip(value.data_mut().iter_mut())
            {
                *vv = self.momentum * *vv - self.lr * g;
                *x += *vv;
            }
            p.zero_grad();
        }
    }
}

/// Adam (Kingma & Ba) with bias correction and optional decoupled weight
/// decay (AdamW).
#[derive(Debug)]
pub struct Adam {
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with the standard β₁=0.9, β₂=0.999.
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    /// Enables decoupled weight decay (AdamW).
    pub fn with_weight_decay(mut self, wd: f32) -> Self {
        self.weight_decay = wd;
        self
    }

    /// Applies one update and drops gradients.
    ///
    /// # Panics
    ///
    /// Panics if the parameter list changes shape between calls.
    pub fn step(&mut self, params: &mut [&mut Param]) {
        if self.m.is_empty() {
            self.m = params
                .iter()
                .map(|p| Tensor::zeros(p.value.dims().to_vec()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), params.len(), "optimizer param list changed");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for ((p, m), v) in params.iter_mut().zip(&mut self.m).zip(&mut self.v) {
            let (value, grad) = p.value_and_grad();
            for (((mm, vv), g), x) in m
                .data_mut()
                .iter_mut()
                .zip(v.data_mut().iter_mut())
                .zip(grads(grad))
                .zip(value.data_mut().iter_mut())
            {
                *mm = self.beta1 * *mm + (1.0 - self.beta1) * g;
                *vv = self.beta2 * *vv + (1.0 - self.beta2) * g * g;
                let m_hat = *mm / bc1;
                let v_hat = *vv / bc2;
                *x -= self.lr * (m_hat / (v_hat.sqrt() + self.eps) + self.weight_decay * *x);
            }
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both optimizers should descend f(x) = x² quickly.
    fn quadratic_descent(mut step: impl FnMut(&mut [&mut Param])) -> f32 {
        let mut p = Param::new(Tensor::from_vec(vec![1], vec![5.0]));
        for _ in 0..300 {
            let x = p.value.data()[0];
            p.accumulate(&Tensor::from_vec(vec![1], vec![2.0 * x]));
            step(&mut [&mut p]);
        }
        p.value.data()[0].abs()
    }

    #[test]
    fn sgd_descends_quadratic() {
        let mut opt = Sgd::new(0.05);
        assert!(quadratic_descent(move |p| opt.step(p)) < 1e-3);
    }

    #[test]
    fn adam_descends_quadratic() {
        let mut opt = Adam::new(0.1);
        assert!(quadratic_descent(move |p| opt.step(p)) < 1e-2);
    }

    #[test]
    fn step_clears_grads() {
        let mut p = Param::new(Tensor::zeros(vec![2]));
        p.accumulate(&Tensor::from_vec(vec![2], vec![1.0, -1.0]));
        let mut opt = Adam::new(0.01);
        opt.step(&mut [&mut p]);
        assert!(p.grad().is_none());
    }
}
