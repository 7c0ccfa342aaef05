//! Layer implementations.

use std::sync::OnceLock;

use ff_tensor::Precision;

pub mod activation;
pub mod conv;
pub mod dense;
pub mod depthwise;
pub mod fused;
pub(crate) mod int8act;
pub mod norm;
pub mod pool;
pub mod separable;

/// Inference weights derived from a layer's trainable ones in the
/// [`crate::Layer::set_precision`] format — packed GEMM panels, or a
/// depthwise layer's quantize-roundtripped taps.
///
/// Built on the first inference that needs them and dropped by every
/// `&mut` path that can change the weights ([`crate::Layer::params_mut`],
/// which weight loading and the optimizers take, and
/// [`crate::Layer::backward`]) or the precision, so
/// [`crate::Layer::infer`] reads them through `&self` and any number of
/// threads can walk one layer at once.
pub(crate) struct DerivedWeights<T> {
    precision: Precision,
    cell: OnceLock<T>,
}

impl<T> DerivedWeights<T> {
    /// Nothing derived yet, at [`Precision::F32`].
    pub(crate) fn new() -> Self {
        DerivedWeights {
            precision: Precision::F32,
            cell: OnceLock::new(),
        }
    }

    /// The precision inference runs at.
    pub(crate) fn precision(&self) -> Precision {
        self.precision
    }

    /// The derived weights, built by `build` at [`Self::precision`] on the
    /// first call since the last invalidation.
    pub(crate) fn get(&self, build: impl FnOnce(Precision) -> T) -> &T {
        self.cell.get_or_init(|| build(self.precision))
    }

    /// Drops the derived weights: the trainable ones may be about to change.
    pub(crate) fn invalidate(&mut self) {
        self.cell.take();
    }

    /// Selects the precision, dropping the derived weights if it changes.
    pub(crate) fn set_precision(&mut self, precision: Precision) {
        if self.precision != precision {
            self.precision = precision;
            self.invalidate();
        }
    }
}
