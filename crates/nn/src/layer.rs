//! The [`Layer`] trait: forward/backward execution plus the cost model hooks.

use std::any::Any;

use ff_tensor::{Precision, Tensor, Workspace};

use crate::Param;

/// Execution phase.
///
/// In [`Phase::Train`] every layer pushes whatever it needs for its backward
/// pass onto an internal stack; [`Layer::backward`] pops in LIFO order. In
/// [`Phase::Inference`] nothing is cached and `backward` must not be called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Streaming inference: no activation caching.
    Inference,
    /// Training: cache activations for backprop.
    Train,
}

/// A neural-network layer.
///
/// Layers own their parameters and their backward caches; networks are plain
/// sequences of boxed layers (see [`crate::Sequential`]). A frame is HWC
/// (rank 3) for spatial layers or rank 1 for vector layers, and inference
/// runs any number of frames at once: a frame is a batch of one.
///
/// Inference is immutable and layers are `Sync`: one set of weights serves
/// any number of threads at once, each walking it with its own
/// [`Workspace`]. Layers are [`Any`], so a network can recognise the units
/// it walks fused (see [`crate::Sequential::infer_taps`]).
pub trait Layer: Any + Send + Sync {
    /// Short human-readable type tag, e.g. `"conv2d"`.
    fn layer_type(&self) -> &'static str;

    /// Inference — the layer's only inference body — over `frames` frames
    /// held back to back in `x`, with every buffer drawn from `ws`.
    ///
    /// A tensor of one frame's shape is the `frames == 1` case and yields
    /// that frame's output shape; more frames lead with the frame count
    /// (`[frames, …frame dims…]` in, `[frames, …out dims…]` out). Frame `b`
    /// of the output is **bit-identical** to running frame `b` alone:
    /// every kernel computes each output element from its own frame's data
    /// in a fixed accumulation order, so more frames only amortise weight
    /// traffic (one GEMM over every frame's rows streams each weight panel
    /// once). Nothing is cached for [`Self::backward`].
    ///
    /// Takes `&self`: the only state inference derives from the weights
    /// (packed GEMM panels, quantize-roundtripped depthwise taps) is built
    /// once on first use and dropped by the `&mut` paths that change the
    /// weights or the precision, so concurrent calls on one layer from
    /// several threads compute exactly what each would alone. The returned
    /// tensor's buffer may come from `ws`; [`Workspace::recycle`] it once
    /// consumed, which keeps a warmed-up stream allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `frames == 0`, or if `frames > 1` and `x` does not lead
    /// with `frames`.
    fn infer(&self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor;

    /// Runs the layer on one frame in [`Phase::Train`], caching state for
    /// [`Self::backward`].
    fn train(&mut self, x: &Tensor) -> Tensor;

    /// Runs the layer on one frame in either phase: [`Self::infer`] with a
    /// fresh workspace, or [`Self::train`].
    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        match phase {
            Phase::Inference => self.infer(x, 1, &mut Workspace::new()),
            Phase::Train => self.train(x),
        }
    }

    /// [`Self::forward`] with inference buffers drawn from `ws`. No layer
    /// overrides it and no workspace code but its test calls it: it exists
    /// only because the `ffbench` package times layers through it (its
    /// README, "Product functions the bench calls").
    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        match phase {
            Phase::Inference => self.infer(x, 1, ws),
            Phase::Train => self.train(x),
        }
    }

    /// Pops the most recent cached forward state and back-propagates.
    ///
    /// Returns the gradient with respect to that forward call's input and
    /// accumulates parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics if no cached forward state exists (i.e. forward was not run in
    /// [`Phase::Train`], or backward was called more times than forward).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Mutable references to this layer's parameters (possibly empty).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Output shape for a given input shape.
    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize>;

    /// Multiply-accumulate operations for one forward pass on `in_shape`,
    /// using the formulas of paper §4.5.
    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let _ = in_shape;
        0
    }

    /// Number of scalar weights (for the memory model).
    fn param_count(&self) -> usize {
        0
    }

    /// Drops any cached training state (e.g. after an interrupted step).
    fn clear_cache(&mut self) {}

    /// Selects the precision this layer's **inference** runs at (see
    /// [`Precision`]): GEMM-backed layers re-pack their weight panels in
    /// the chosen format (at [`Precision::Int8Act`] they also quantize
    /// their input activations per frame), depthwise layers
    /// quantize-roundtrip their (tiny) tap weights so a whole backbone
    /// quantizes every conv. Training always runs against the
    /// full-precision weights; the default is a no-op for layers with no
    /// static weight store.
    fn set_precision(&mut self, precision: Precision) {
        let _ = precision;
    }

    /// Data-dependent calibration pass: the layer may fit internal
    /// statistics from `samples` (e.g. folded batch-norm scales), then
    /// returns the samples transformed by itself. The default is a plain
    /// inference forward.
    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        samples
            .into_iter()
            .map(|x| self.forward(&x, Phase::Inference))
            .collect()
    }
}

/// One frame's dims in an [`Layer::infer`] input of `frames` frames: all of
/// `x`'s for one frame, the ones after the leading frame count otherwise.
///
/// # Panics
///
/// As [`Layer::infer`].
pub(crate) fn frame_dims(x: &Tensor, frames: usize) -> &[usize] {
    assert!(frames > 0, "no frames");
    if frames == 1 {
        return x.dims();
    }
    assert_eq!(
        x.dims().first(),
        Some(&frames),
        "{frames} frames must lead with the frame count"
    );
    &x.dims()[1..]
}

/// The shape of `dims[0]` frames of shape `dims[1..]`, as [`Layer::infer`]
/// lays them out: one frame has no leading frame count.
pub(crate) fn stacked(dims: &[usize]) -> &[usize] {
    if dims[0] == 1 {
        &dims[1..]
    } else {
        dims
    }
}
