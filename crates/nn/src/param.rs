//! Trainable parameters: a value tensor paired with an accumulated gradient.

use ff_tensor::Tensor;

/// A trainable parameter.
///
/// Gradients accumulate across [`crate::Layer::backward`] calls (which is
/// what makes weight sharing work — the windowed microclassifier's 1×1 conv
/// receives gradient contributions from every frame in its window) and are
/// dropped by the optimizer's `step`. The gradient buffer exists only
/// between the first `accumulate` and that step: a network that only runs
/// inference holds its weights and nothing beside them, and the optimizers
/// read a parameter with no gradient as an all-zero one.
#[derive(Debug, Clone)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient, same shape as `value`; `None` reads as zero.
    grad: Option<Tensor>,
}

impl Param {
    /// Wraps an initial value; no gradient is allocated until the first
    /// [`Self::accumulate`].
    pub fn new(value: Tensor) -> Self {
        Param { value, grad: None }
    }

    /// Adds `g` into the accumulated gradient (a zero one on first use, so
    /// the sum is bit-identical to accumulating into a zeroed buffer).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn accumulate(&mut self, g: &Tensor) {
        let dims = self.value.dims();
        self.grad
            .get_or_insert_with(|| Tensor::zeros(dims.to_vec()))
            .add_assign(g);
    }

    /// The accumulated gradient, or `None` if nothing accumulated since
    /// construction or the last [`Self::zero_grad`].
    pub fn grad(&self) -> Option<&Tensor> {
        self.grad.as_ref()
    }

    /// Drops the accumulated gradient (it reads as zero again).
    pub fn zero_grad(&mut self) {
        self.grad = None;
    }

    /// The value to update and the gradient to update it by, borrowed
    /// together for the optimizers.
    pub(crate) fn value_and_grad(&mut self) -> (&mut Tensor, Option<&Tensor>) {
        (&mut self.value, self.grad.as_ref())
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_then_zero() {
        let mut p = Param::new(Tensor::zeros(vec![3]));
        assert!(p.grad().is_none(), "a new parameter holds no gradient");
        p.accumulate(&Tensor::from_vec(vec![3], vec![1., 2., 3.]));
        p.accumulate(&Tensor::from_vec(vec![3], vec![1., 1., 1.]));
        assert_eq!(p.grad().unwrap().data(), &[2., 3., 4.]);
        p.zero_grad();
        assert!(p.grad().is_none());
    }

    #[test]
    fn first_accumulate_adds_into_zero() {
        // 0.0 + -0.0 is +0.0: the first gradient lands as if added into a
        // zeroed buffer, not copied.
        let mut p = Param::new(Tensor::zeros(vec![2]));
        p.accumulate(&Tensor::from_vec(vec![2], vec![-0.0, 1.0]));
        let g = p.grad().unwrap().data();
        assert_eq!(g[0].to_bits(), 0.0f32.to_bits());
        assert_eq!(g[1], 1.0);
    }
}
