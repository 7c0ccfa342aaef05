//! The [`Layer`] trait: forward/backward execution plus the cost model hooks.

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
/// sequences of boxed layers (see [`crate::Sequential`]). All tensors are HWC
/// (rank 3) for spatial layers or rank 1 for vector layers — streaming video
/// is batch-1 throughout, matching the paper's per-frame pipeline.
pub trait Layer: Send {
    /// Short human-readable type tag, e.g. `"conv2d"`.
    fn layer_type(&self) -> &'static str;

    /// Runs the layer. In [`Phase::Train`] caches state for [`Self::backward`].
    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor;

    /// Runs the layer with scratch buffers drawn from (and returned to) a
    /// [`Workspace`].
    ///
    /// Semantics are identical to [`Self::forward`]; the returned tensor's
    /// buffer may come from `ws`, and the caller is expected to
    /// [`Workspace::recycle`] it once consumed — that cycle is what makes a
    /// warmed-up streaming forward pass allocation-free. The default
    /// implementation ignores `ws` and allocates like `forward`; hot layers
    /// (convolutions, activations, pooling, dense) override it.
    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        let _ = ws;
        self.forward(x, phase)
    }

    /// Runs the layer over a **batch** of stacked inputs in one inference
    /// pass: `x` is `[batch, …frame dims…]` (frames contiguous) and the
    /// result is `[batch, …out dims…]`.
    ///
    /// Row `b` of the output is **bit-identical** to
    /// `forward_ws(frame b, Inference, ws)` — batching amortizes weight
    /// traffic (one GEMM over all the frames' output rows streams each packed
    /// panel once per batch instead of once per frame) but never changes a
    /// single value, because every kernel computes each output element from
    /// its own frame's data in a fixed accumulation order.
    ///
    /// Inference only; no training state is cached. The default
    /// implementation splits the batch and runs `forward_ws` per frame
    /// (correct for every layer, no amortization); the GEMM-backed layers
    /// (convolutions, the fused MobileNet units) and the element-wise layers
    /// override it with true batched kernels.
    ///
    /// # Panics
    ///
    /// Panics if `x`'s leading dimension is not `batch` or `batch == 0`.
    fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        assert!(batch > 0, "empty batch");
        assert_eq!(
            x.dims().first(),
            Some(&batch),
            "batch tensor must lead with the batch dimension"
        );
        let frame_dims = &x.dims()[1..];
        let frame_len: usize = frame_dims.iter().product();
        let mut frame = ws.take(frame_dims);
        let mut out: Option<Tensor> = None;
        for b in 0..batch {
            frame
                .data_mut()
                .copy_from_slice(&x.data()[b * frame_len..(b + 1) * frame_len]);
            let y = self.forward_ws(&frame, Phase::Inference, ws);
            let out = out.get_or_insert_with(|| {
                let mut dims = Vec::with_capacity(y.rank() + 1);
                dims.push(batch);
                dims.extend_from_slice(y.dims());
                ws.take(&dims)
            });
            let ylen = y.len();
            out.data_mut()[b * ylen..(b + 1) * ylen].copy_from_slice(y.data());
            ws.recycle(y);
        }
        ws.recycle(frame);
        out.expect("batch > 0")
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
