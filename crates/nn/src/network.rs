//! [`Sequential`]: an ordered list of named layers with tap support.
//!
//! Taps are the mechanism behind the paper's computation sharing: the
//! feature extractor runs the base DNN once and exposes the activations of
//! *named* layers (`conv4_2/sep`, `conv5_6/sep`, …) to every
//! microclassifier. [`Sequential::forward_taps`] stops at the deepest
//! requested layer, so the extractor never pays for layers no MC consumes.

use ff_tensor::{Tensor, Workspace};

use crate::{Layer, Param, Phase};

/// An ordered sequence of named layers.
pub struct Sequential {
    layers: Vec<(String, Box<dyn Layer>)>,
}

impl std::fmt::Debug for Sequential {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Sequential[")?;
        for (i, (name, l)) in self.layers.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}:{}", l.layer_type())?;
        }
        write!(f, "]")
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a named layer.
    ///
    /// # Panics
    ///
    /// Panics if the name is already taken.
    pub fn push(&mut self, name: impl Into<String>, layer: impl Layer + 'static) -> &mut Self {
        let name = name.into();
        assert!(
            self.index_of(&name).is_none(),
            "duplicate layer name {name:?}"
        );
        self.layers.push((name, Box::new(layer)));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Names of all layers, in order.
    pub fn layer_names(&self) -> impl Iterator<Item = &str> {
        self.layers.iter().map(|(n, _)| n.as_str())
    }

    /// Index of a layer by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.layers.iter().position(|(n, _)| n == name)
    }

    /// Mutable access to a layer by index (partial forward/backward, e.g.
    /// backbone pretraining).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn layer_at_mut(&mut self, idx: usize) -> &mut dyn Layer {
        &mut *self.layers[idx].1
    }

    /// Runs the full network.
    pub fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        let mut cur = x.clone();
        for (_, layer) in &mut self.layers {
            cur = layer.forward(&cur, phase);
        }
        cur
    }

    /// Runs the full network with every intermediate drawn from `ws` and
    /// recycled as soon as the next layer consumes it. The returned tensor's
    /// buffer comes from `ws`; recycle it when done to keep the steady
    /// state allocation-free.
    pub fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in &mut self.layers {
            let next = layer.forward_ws(cur.as_ref().unwrap_or(x), phase, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Runs the full network over a batch of stacked inputs
    /// (`x: [batch, …]`) with every intermediate drawn from `ws`. Each
    /// layer executes **once** for the whole batch (one GEMM over all the
    /// frames' output rows for the convolution layers), and row `b` of the
    /// result is bit-identical to [`Self::forward_ws`] on frame `b` alone.
    /// Inference only.
    pub fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in &mut self.layers {
            let next = layer.forward_batch_ws(cur.as_ref().unwrap_or(x), batch, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    /// Runs the network up to and including the named layer, returning its
    /// activation. Inference only (no caches are kept).
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    pub fn forward_to(&mut self, x: &Tensor, name: &str) -> Tensor {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown layer {name:?}"));
        let mut cur = x.clone();
        for (_, layer) in &mut self.layers[..=idx] {
            cur = layer.forward(&cur, Phase::Inference);
        }
        cur
    }

    /// Runs the network just far enough to produce every requested tap,
    /// returning activations aligned with `taps`. Layers after the deepest
    /// tap are never executed.
    ///
    /// # Panics
    ///
    /// Panics if any tap name is unknown.
    pub fn forward_taps(&mut self, x: &Tensor, taps: &[&str]) -> Vec<Tensor> {
        let mut outs = Vec::new();
        self.forward_taps_ws(x, taps, &mut Workspace::new(), &mut outs);
        outs
    }

    /// [`Self::forward_taps`] with all buffers drawn from `ws`: existing
    /// tensors in `outs` are recycled into `ws` first, then `outs` is
    /// refilled with tap activations (aligned with `taps`) held in `ws`
    /// buffers. Streaming callers pass the same `outs`/`ws` pair every
    /// frame, making steady-state extraction allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if any tap name is unknown.
    pub fn forward_taps_ws<S: AsRef<str>>(
        &mut self,
        x: &Tensor,
        taps: &[S],
        ws: &mut Workspace,
        outs: &mut Vec<Tensor>,
    ) {
        for t in outs.drain(..) {
            ws.recycle(t);
        }
        if taps.is_empty() {
            return;
        }
        let indices: Vec<usize> = taps
            .iter()
            .map(|t| {
                let t = t.as_ref();
                self.index_of(t)
                    .unwrap_or_else(|| panic!("unknown tap {t:?}"))
            })
            .collect();
        let deepest = indices.iter().copied().max().unwrap_or(0);
        let mut slots: Vec<Option<Tensor>> = Vec::with_capacity(taps.len());
        slots.resize_with(taps.len(), || None);
        let mut cur: Option<Tensor> = None;
        for (i, (_, layer)) in self.layers.iter_mut().enumerate().take(deepest + 1) {
            let next = layer.forward_ws(cur.as_ref().unwrap_or(x), Phase::Inference, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            for (slot, &want) in slots.iter_mut().zip(&indices) {
                if want == i {
                    let mut copy = ws.take(next.dims());
                    copy.data_mut().copy_from_slice(next.data());
                    *slot = Some(copy);
                }
            }
            cur = Some(next);
        }
        if let Some(last) = cur {
            ws.recycle(last);
        }
        outs.extend(slots.into_iter().map(|o| o.expect("tap not filled")));
    }

    /// [`Self::forward_taps_ws`] with pre-resolved, **ascending** layer
    /// indices — the fully allocation-free streaming path (no name lookups,
    /// no slot scratch). `outs` is refilled in index order.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not strictly ascending or any index is out of
    /// bounds.
    pub fn forward_taps_indices_ws(
        &mut self,
        x: &Tensor,
        indices: &[usize],
        ws: &mut Workspace,
        outs: &mut Vec<Tensor>,
    ) {
        for t in outs.drain(..) {
            ws.recycle(t);
        }
        let Some(&deepest) = indices.last() else {
            return;
        };
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "tap indices must be strictly ascending"
        );
        assert!(deepest < self.layers.len(), "tap index out of bounds");
        let mut next_tap = 0;
        let mut cur: Option<Tensor> = None;
        for (i, (_, layer)) in self.layers.iter_mut().enumerate().take(deepest + 1) {
            let next = layer.forward_ws(cur.as_ref().unwrap_or(x), Phase::Inference, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            while next_tap < indices.len() && indices[next_tap] == i {
                let mut copy = ws.take(next.dims());
                copy.data_mut().copy_from_slice(next.data());
                outs.push(copy);
                next_tap += 1;
            }
            cur = Some(next);
        }
        if let Some(last) = cur {
            ws.recycle(last);
        }
    }

    /// Batched [`Self::forward_taps_indices_ws`]: runs the network **once**
    /// for a whole batch of stacked frames (`x: [batch, …frame dims…]`,
    /// frames contiguous), executing each layer as a single batched kernel
    /// (see [`Layer::forward_batch_ws`]), and refills `outs` with
    /// **per-frame** tap activations in tap-major order:
    /// `outs[t·batch + b]` is tap `indices[t]` of frame `b`.
    ///
    /// Every tensor in `outs[..]` is bit-identical to what the per-frame
    /// walk would have produced for that frame — batching only amortizes
    /// weight-panel streaming across frames. Streaming callers pass the same
    /// `outs`/`ws` pair every batch, keeping the steady state
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not strictly ascending, any index is out of
    /// bounds, `batch == 0`, or `x` does not lead with `batch`.
    pub fn forward_taps_batch_indices_ws(
        &mut self,
        x: &Tensor,
        batch: usize,
        indices: &[usize],
        ws: &mut Workspace,
        outs: &mut Vec<Tensor>,
    ) {
        for t in outs.drain(..) {
            ws.recycle(t);
        }
        let Some(&deepest) = indices.last() else {
            return;
        };
        assert!(batch > 0, "empty batch");
        assert_eq!(
            x.dims().first(),
            Some(&batch),
            "batch tensor must lead with the batch dimension"
        );
        assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "tap indices must be strictly ascending"
        );
        assert!(deepest < self.layers.len(), "tap index out of bounds");
        let mut next_tap = 0;
        let mut cur: Option<Tensor> = None;
        for (i, (_, layer)) in self.layers.iter_mut().enumerate().take(deepest + 1) {
            let next = layer.forward_batch_ws(cur.as_ref().unwrap_or(x), batch, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            while next_tap < indices.len() && indices[next_tap] == i {
                // Split the batched activation into per-frame copies — the
                // batched counterpart of the per-frame tap copy, same bytes
                // moved per frame.
                let frame_dims = &next.dims()[1..];
                let frame_len: usize = frame_dims.iter().product();
                for b in 0..batch {
                    let mut copy = ws.take(frame_dims);
                    copy.data_mut()
                        .copy_from_slice(&next.data()[b * frame_len..(b + 1) * frame_len]);
                    outs.push(copy);
                }
                next_tap += 1;
            }
            cur = Some(next);
        }
        if let Some(last) = cur {
            ws.recycle(last);
        }
    }

    /// Back-propagates through all layers in reverse, returning the input
    /// gradient.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let mut g = grad_out.clone();
        for (_, layer) in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameters in layer order.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|(_, l)| l.params_mut())
            .collect()
    }

    /// Output shape for a given input shape.
    pub fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        let mut cur = in_shape.to_vec();
        for (_, l) in &self.layers {
            cur = l.out_shape(&cur);
        }
        cur
    }

    /// Shape of the named layer's output for a given input shape.
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    pub fn shape_at(&self, in_shape: &[usize], name: &str) -> Vec<usize> {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown layer {name:?}"));
        let mut cur = in_shape.to_vec();
        for (_, l) in &self.layers[..=idx] {
            cur = l.out_shape(&cur);
        }
        cur
    }

    /// Total multiply-adds of a full forward pass.
    pub fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        let mut cur = in_shape.to_vec();
        let mut total = 0u64;
        for (_, l) in &self.layers {
            total += l.multiply_adds(&cur);
            cur = l.out_shape(&cur);
        }
        total
    }

    /// Multiply-adds of a pass truncated at the named layer (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `name` is unknown.
    pub fn multiply_adds_to(&self, in_shape: &[usize], name: &str) -> u64 {
        let idx = self
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown layer {name:?}"));
        let mut cur = in_shape.to_vec();
        let mut total = 0u64;
        for (_, l) in &self.layers[..=idx] {
            total += l.multiply_adds(&cur);
            cur = l.out_shape(&cur);
        }
        total
    }

    /// Total number of scalar weights.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|(_, l)| l.param_count()).sum()
    }

    /// Drops any cached training state from all layers.
    pub fn clear_cache(&mut self) {
        for (_, l) in &mut self.layers {
            l.clear_cache();
        }
    }

    /// Sets the inference weight-storage precision of every layer (see
    /// [`crate::Layer::set_precision`]). Idempotent; layers without a
    /// static weight store ignore it.
    pub fn set_precision(&mut self, precision: ff_tensor::Precision) {
        for (_, l) in &mut self.layers {
            l.set_precision(precision);
        }
    }

    /// Iterates `(name, madds, params, out_shape, type)` rows while
    /// threading the shape through the network. Internal helper for
    /// [`crate::cost::NetworkCost::profile`].
    pub(crate) fn cost_rows(
        &self,
        cur: &mut Vec<usize>,
    ) -> Vec<(String, u64, usize, Vec<usize>, &'static str)> {
        let mut rows = Vec::new();
        for (name, layer) in &self.layers {
            let madds = layer.multiply_adds(cur);
            let params = layer.param_count();
            let out = layer.out_shape(cur);
            rows.push((name.clone(), madds, params, out.clone(), layer.layer_type()));
            *cur = out;
        }
        rows
    }
}

impl Layer for Sequential {
    fn layer_type(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, x: &Tensor, phase: Phase) -> Tensor {
        Sequential::forward(self, x, phase)
    }

    fn forward_ws(&mut self, x: &Tensor, phase: Phase, ws: &mut Workspace) -> Tensor {
        Sequential::forward_ws(self, x, phase, ws)
    }

    fn forward_batch_ws(&mut self, x: &Tensor, batch: usize, ws: &mut Workspace) -> Tensor {
        Sequential::forward_batch_ws(self, x, batch, ws)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        Sequential::backward(self, grad_out)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Sequential::params_mut(self)
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        Sequential::out_shape(self, in_shape)
    }

    fn multiply_adds(&self, in_shape: &[usize]) -> u64 {
        Sequential::multiply_adds(self, in_shape)
    }

    fn param_count(&self) -> usize {
        Sequential::param_count(self)
    }

    fn clear_cache(&mut self) {
        Sequential::clear_cache(self)
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        let mut cur = samples;
        for (_, l) in &mut self.layers {
            cur = l.calibrate(cur);
        }
        cur
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Activation, ActivationKind, Conv2d, Dense, Flatten};

    fn tiny_net() -> Sequential {
        let mut net = Sequential::new();
        net.push("conv1", Conv2d::new(3, 2, 1, 4, 1));
        net.push("relu1", Activation::new(ActivationKind::Relu));
        net.push("conv2", Conv2d::new(3, 2, 4, 8, 2));
        net.push("relu2", Activation::new(ActivationKind::Relu));
        net.push("flat", Flatten::new());
        net.push("fc", Dense::new(2 * 2 * 8, 1, 3));
        net
    }

    #[test]
    fn shapes_chain() {
        let net = tiny_net();
        assert_eq!(net.out_shape(&[8, 8, 1]), vec![1]);
        assert_eq!(net.shape_at(&[8, 8, 1], "conv1"), vec![4, 4, 4]);
        assert_eq!(net.shape_at(&[8, 8, 1], "conv2"), vec![2, 2, 8]);
    }

    #[test]
    fn forward_taps_returns_requested_layers() {
        let mut net = tiny_net();
        let x = Tensor::filled(vec![8, 8, 1], 0.5);
        let taps = net.forward_taps(&x, &["relu1", "conv1"]);
        assert_eq!(taps.len(), 2);
        assert_eq!(taps[0].dims(), &[4, 4, 4]);
        assert_eq!(taps[1].dims(), &[4, 4, 4]);
        // relu1 is the clamp of conv1.
        assert!(taps[0].approx_eq(&taps[1].map(|v| v.max(0.0)), 1e-6));
    }

    #[test]
    fn taps_stop_at_deepest() {
        // Requesting only conv1 must not execute the fc layer: give fc an
        // incompatible input size and observe no panic.
        let mut net = Sequential::new();
        net.push("conv1", Conv2d::new(3, 1, 1, 2, 0));
        net.push("fc", Dense::new(999, 1, 0));
        let x = Tensor::filled(vec![4, 4, 1], 1.0);
        let taps = net.forward_taps(&x, &["conv1"]);
        assert_eq!(taps[0].dims(), &[4, 4, 2]);
    }

    #[test]
    #[should_panic(expected = "unknown tap")]
    fn unknown_tap_panics() {
        let mut net = tiny_net();
        let _ = net.forward_taps(&Tensor::zeros(vec![8, 8, 1]), &["nope"]);
    }

    #[test]
    #[should_panic(expected = "duplicate layer name")]
    fn duplicate_name_panics() {
        let mut net = Sequential::new();
        net.push("a", Flatten::new());
        net.push("a", Flatten::new());
    }

    #[test]
    fn batched_forward_matches_per_frame_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(77);
        // Mixes true batched kernels (conv, activation) with the per-frame
        // fallback (flatten, dense).
        let mut net = tiny_net();
        let mut ws = Workspace::new();
        for batch in [1usize, 2, 3, 5] {
            let frames: Vec<Tensor> = (0..batch)
                .map(|_| {
                    Tensor::from_vec(
                        vec![8, 8, 1],
                        (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                    )
                })
                .collect();
            let mut stacked_data = Vec::new();
            for f in &frames {
                stacked_data.extend_from_slice(f.data());
            }
            let stacked = Tensor::from_vec(vec![batch, 8, 8, 1], stacked_data);
            let got = net.forward_batch_ws(&stacked, batch, &mut ws);
            assert_eq!(got.dims()[0], batch);
            let flen = got.len() / batch;
            for (b, f) in frames.iter().enumerate() {
                let want = net.forward_ws(f, Phase::Inference, &mut ws);
                assert_eq!(
                    &got.data()[b * flen..(b + 1) * flen],
                    want.data(),
                    "batch {batch} frame {b}"
                );
                ws.recycle(want);
            }
            ws.recycle(got);
        }
    }

    #[test]
    fn batched_tap_walk_matches_per_frame_taps() {
        let mut net = tiny_net();
        let mut ws = Workspace::new();
        let frames: Vec<Tensor> = (0..3)
            .map(|i| Tensor::filled(vec![8, 8, 1], 0.1 + 0.3 * i as f32))
            .collect();
        let mut stacked_data = Vec::new();
        for f in &frames {
            stacked_data.extend_from_slice(f.data());
        }
        let stacked = Tensor::from_vec(vec![3, 8, 8, 1], stacked_data);
        let indices = [0usize, 2]; // conv1, conv2
        let mut outs = Vec::new();
        net.forward_taps_batch_indices_ws(&stacked, 3, &indices, &mut ws, &mut outs);
        assert_eq!(outs.len(), indices.len() * 3);
        for (b, f) in frames.iter().enumerate() {
            let mut per_frame = Vec::new();
            net.forward_taps_indices_ws(f, &indices, &mut ws, &mut per_frame);
            for (t, want) in per_frame.iter().enumerate() {
                // Tap-major layout: outs[t·batch + b].
                assert_eq!(&outs[t * 3 + b], want, "tap {t} frame {b}");
            }
        }
    }

    #[test]
    fn end_to_end_gradient_check() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut net = tiny_net();
        let x = Tensor::from_vec(
            vec![8, 8, 1],
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        );
        let _ = net.forward(&x, Phase::Train);
        let dx = net.backward(&Tensor::filled(vec![1], 1.0));
        let eps = 1e-2;
        for &i in &[0usize, 31, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (net.forward(&xp, Phase::Inference).sum()
                - net.forward(&xm, Phase::Inference).sum())
                / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 2e-2,
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_toy_task() {
        use crate::{bce_with_logits_grad, Adam};
        // Learn "bright image → positive" with a conv net.
        let mut net = tiny_net();
        let mut opt = Adam::new(0.01);
        let bright = Tensor::filled(vec![8, 8, 1], 1.0);
        let dark = Tensor::filled(vec![8, 8, 1], -1.0);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..60 {
            let mut total = 0.0;
            for (x, y) in [(&bright, 1.0f32), (&dark, 0.0)] {
                let z = net.forward(x, Phase::Train);
                let (l, g) = bce_with_logits_grad(&z, &Tensor::from_vec(vec![1], vec![y]), 1.0);
                total += l;
                net.backward(&g);
                opt.step(&mut net.params_mut());
            }
            first.get_or_insert(total);
            last = total;
        }
        assert!(last < first.unwrap() * 0.2, "loss {last} vs {first:?}");
    }

    #[test]
    fn cost_accumulates() {
        let net = tiny_net();
        let total = net.multiply_adds(&[8, 8, 1]);
        let to_conv1 = net.multiply_adds_to(&[8, 8, 1], "conv1");
        assert!(total > to_conv1);
        assert_eq!(to_conv1, (4 * 4) * 9 * 4);
    }
}
