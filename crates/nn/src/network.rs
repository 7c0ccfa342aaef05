//! [`Sequential`]: an ordered list of named layers with tap support.
//!
//! Taps are the mechanism behind the paper's computation sharing: the
//! feature extractor runs the base DNN once and exposes the activations of
//! *named* layers (`conv4_2/sep`, `conv5_6/sep`, …) to every
//! microclassifier. The network has one inference walk besides its
//! [`Layer::infer`]: [`Sequential::infer_taps`] runs any number of frames
//! through each layer once, stops at the deepest requested layer — so the
//! extractor never pays for layers no MC consumes — and hands back one copy
//! of each tap per frame. Callers resolve tap names to layer indices once,
//! with [`Sequential::index_of`]; [`Sequential::forward_taps`] is the
//! allocating by-name wrapper for one-off calls.

use ff_tensor::{Tensor, Workspace};

use crate::layer::frame_dims;
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

    /// Runs the network just far enough to produce every requested tap,
    /// returning activations aligned with `taps`. Layers after the deepest
    /// tap are never executed. Inference only; allocates — streaming
    /// callers resolve their taps once and call [`Self::infer_taps`].
    ///
    /// # Panics
    ///
    /// Panics if any tap name is unknown.
    pub fn forward_taps(&mut self, x: &Tensor, taps: &[&str]) -> Vec<Tensor> {
        let wanted: Vec<usize> = taps
            .iter()
            .map(|t| {
                self.index_of(t)
                    .unwrap_or_else(|| panic!("unknown tap {t:?}"))
            })
            .collect();
        let mut indices = wanted.clone();
        indices.sort_unstable();
        indices.dedup();
        let mut outs = Vec::new();
        self.infer_taps(x, 1, &indices, &mut Workspace::new(), &mut outs);
        wanted
            .iter()
            .map(|w| outs[indices.binary_search(w).expect("resolved above")].clone())
            .collect()
    }

    /// Inference over `frames` frames (laid out as [`Layer::infer`] takes
    /// them), run just far enough to produce the activation of every layer
    /// in `indices` — strictly ascending layer indices, resolved once with
    /// [`Self::index_of`] — with every buffer drawn from `ws`. Each layer
    /// runs once for all the frames.
    ///
    /// Existing tensors in `outs` are recycled into `ws` first; `outs` is
    /// then refilled with **per-frame** tap activations in tap-major order:
    /// `outs[t·frames + b]` is layer `indices[t]` of frame `b`, bit-identical
    /// to what a one-frame call gives for that frame. Streaming callers pass
    /// the same `outs`/`ws` pair every call, keeping the steady state
    /// allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is not strictly ascending, any index is out of
    /// bounds, or as [`Layer::infer`].
    pub fn infer_taps(
        &mut self,
        x: &Tensor,
        frames: usize,
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
            let next = layer.infer(cur.as_ref().unwrap_or(x), frames, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            if indices[next_tap] == i {
                let len = next.len() / frames;
                for b in 0..frames {
                    let mut copy = ws.take(frame_dims(&next, frames));
                    copy.data_mut()
                        .copy_from_slice(&next.data()[b * len..(b + 1) * len]);
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

    /// Every layer once for all the frames, each intermediate recycled into
    /// `ws` as soon as the next layer has consumed it.
    fn infer(&mut self, x: &Tensor, frames: usize, ws: &mut Workspace) -> Tensor {
        let mut cur: Option<Tensor> = None;
        for (_, layer) in &mut self.layers {
            let next = layer.infer(cur.as_ref().unwrap_or(x), frames, ws);
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            cur = Some(next);
        }
        cur.unwrap_or_else(|| x.clone())
    }

    fn train(&mut self, x: &Tensor) -> Tensor {
        Sequential::forward(self, x, Phase::Train)
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
