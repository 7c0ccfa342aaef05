//! The three microclassifier architectures of Figure 2.
//!
//! Microclassifiers are "lightweight binary classification neural networks
//! that take as input feature maps extracted by the base DNN and output the
//! probability that a frame is relevant" (§3.2). All three emit a single
//! **logit**; the sigmoid lives in the loss during training and in the
//! thresholding step during deployment, which is numerically safer and lets
//! the decision threshold be tuned without re-running the net.

use ff_nn::{
    Activation, ActivationKind, Conv2d, Dense, Flatten, GlobalMaxPool, Layer, Param, Phase,
    SeparableConv2d, Sequential,
};
use ff_tensor::{Tensor, Workspace};
use serde::{Deserialize, Serialize};

/// Configuration of the full-frame object detector MC (Figure 2a).
///
/// A sliding-window-style detector: three 1×1 convolutions produce a grid
/// of per-location logits; a grid max "signifies looking for ≥ 1 objects".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FullFrameConfig {
    /// Channels of the tapped feature map (1024 for `conv5_6/sep` at α=1).
    pub in_c: usize,
    /// Hidden width of the two interior 1×1 convs (paper: 32).
    pub hidden: usize,
    /// Figure 2a draws a ReLU on the final 1-filter conv before the max and
    /// sigmoid, which pins every probability ≥ 0.5; we default to a linear
    /// logit and keep the drawn variant as an option (see DESIGN.md §3).
    pub relu_logits: bool,
    /// Weight seed.
    pub seed: u64,
}

impl FullFrameConfig {
    /// Paper defaults for a tap with `in_c` channels.
    pub fn new(in_c: usize, seed: u64) -> Self {
        FullFrameConfig {
            in_c,
            hidden: 32,
            relu_logits: false,
            seed,
        }
    }

    /// Builds the network: `[H,W,in_c] → … → [1]` logit.
    pub fn build(&self) -> Sequential {
        let mut net = Sequential::new();
        net.push(
            "conv1",
            Conv2d::new(1, 1, self.in_c, self.hidden, self.seed),
        );
        net.push("relu1", Activation::new(ActivationKind::Relu));
        net.push(
            "conv2",
            Conv2d::new(1, 1, self.hidden, self.hidden, self.seed + 1),
        );
        net.push("relu2", Activation::new(ActivationKind::Relu));
        net.push("conv3", Conv2d::new(1, 1, self.hidden, 1, self.seed + 2));
        if self.relu_logits {
            net.push("relu3", Activation::new(ActivationKind::Relu));
        }
        net.push("grid_max", GlobalMaxPool::new());
        net
    }
}

/// Configuration of the localized binary classifier MC (Figure 2b).
///
/// "Two separable convolutions and a fully-connected layer … designed to
/// detect prominent objects within a localized region."
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocalizedConfig {
    /// Channels of the tapped feature map (512 for `conv4_2/sep` at α=1).
    pub in_c: usize,
    /// Depth of the first separable conv (paper: 16).
    pub depth1: usize,
    /// Depth of the second, stride-2 separable conv (paper: 32).
    pub depth2: usize,
    /// Units of the fully-connected layer (paper: 200).
    pub fc_units: usize,
    /// Spatial size of the (possibly cropped) input feature map; needed to
    /// size the FC layer.
    pub in_h: usize,
    /// Input feature-map width.
    pub in_w: usize,
    /// Weight seed.
    pub seed: u64,
}

impl LocalizedConfig {
    /// Paper defaults for an `in_h × in_w × in_c` (cropped) tap.
    pub fn new(in_h: usize, in_w: usize, in_c: usize, seed: u64) -> Self {
        LocalizedConfig {
            in_c,
            depth1: 16,
            depth2: 32,
            fc_units: 200,
            in_h,
            in_w,
            seed,
        }
    }

    /// Builds the network: `[in_h,in_w,in_c] → … → [1]` logit.
    pub fn build(&self) -> Sequential {
        let mut net = Sequential::new();
        net.push(
            "sep1",
            SeparableConv2d::new(3, 1, self.in_c, self.depth1, self.seed),
        );
        net.push("relu1", Activation::new(ActivationKind::Relu));
        net.push(
            "sep2",
            SeparableConv2d::new(3, 2, self.depth1, self.depth2, self.seed + 1),
        );
        net.push("relu2", Activation::new(ActivationKind::Relu));
        net.push("flatten", Flatten::new());
        let fc_in = self.in_h.div_ceil(2) * self.in_w.div_ceil(2) * self.depth2;
        net.push("fc1", Dense::new(fc_in, self.fc_units, self.seed + 2));
        net.push("relu6", Activation::new(ActivationKind::Relu6));
        net.push("fc2", Dense::new(self.fc_units, 1, self.seed + 3));
        net
    }
}

/// Configuration of the windowed, localized binary classifier MC
/// (Figure 2c).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowedConfig {
    /// Channels of the tapped feature map.
    pub in_c: usize,
    /// Temporal window size `W` (paper: 5). Must be odd — the window is
    /// symmetric around the frame being classified.
    pub window: usize,
    /// Filters of the per-frame 1×1 projection (paper: 32).
    pub proj: usize,
    /// Filters of the two temporal convs (paper: 32).
    pub conv_f: usize,
    /// Units of the first FC layer (paper: 200).
    pub fc_units: usize,
    /// Input feature-map height (after any crop).
    pub in_h: usize,
    /// Input feature-map width (after any crop).
    pub in_w: usize,
    /// Weight seed.
    pub seed: u64,
}

impl WindowedConfig {
    /// Paper defaults for an `in_h × in_w × in_c` (cropped) tap.
    pub fn new(in_h: usize, in_w: usize, in_c: usize, seed: u64) -> Self {
        WindowedConfig {
            in_c,
            window: 5,
            proj: 32,
            conv_f: 32,
            fc_units: 200,
            in_h,
            in_w,
            seed,
        }
    }

    /// Builds the classifier.
    ///
    /// # Panics
    ///
    /// Panics if `window` is even or zero.
    pub fn build(&self) -> WindowedClassifier {
        assert!(
            self.window % 2 == 1,
            "window must be odd, got {}",
            self.window
        );
        let mut tail = Sequential::new();
        tail.push(
            "conv1",
            Conv2d::new(3, 1, self.window * self.proj, self.conv_f, self.seed + 10),
        );
        tail.push("relu1", Activation::new(ActivationKind::Relu));
        tail.push(
            "conv2",
            Conv2d::new(3, 2, self.conv_f, self.conv_f, self.seed + 11),
        );
        tail.push("relu2", Activation::new(ActivationKind::Relu));
        tail.push("flatten", Flatten::new());
        let fc_in = self.in_h.div_ceil(2) * self.in_w.div_ceil(2) * self.conv_f;
        tail.push("fc1", Dense::new(fc_in, self.fc_units, self.seed + 12));
        tail.push("relu3", Activation::new(ActivationKind::Relu));
        tail.push("fc2", Dense::new(self.fc_units, 1, self.seed + 13));
        WindowedClassifier {
            cfg: *self,
            proj: Conv2d::new(1, 1, self.in_c, self.proj, self.seed),
            tail,
        }
    }
}

/// The windowed, localized binary classifier (Figure 2c).
///
/// Per frame, a shared 1×1 convolution projects the feature map down to
/// `proj` channels. The projections of a symmetric window of `W` frames are
/// depth-concatenated and fed to a small CNN that classifies the center
/// frame. §3.3.3's optimization — "the 1×1 convolutions are only computed
/// once, and their outputs are buffered and reused by subsequent windows" —
/// is realized by exposing [`project`](Self::project) separately from
/// [`classify_window`](Self::classify_window); the streaming runtime in
/// `ff-core` ring-buffers the projections.
pub struct WindowedClassifier {
    cfg: WindowedConfig,
    proj: Conv2d,
    tail: Sequential,
}

impl std::fmt::Debug for WindowedClassifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "WindowedClassifier(window={}, proj={})",
            self.cfg.window, self.cfg.proj
        )
    }
}

impl WindowedClassifier {
    /// The configuration this classifier was built from.
    pub fn config(&self) -> &WindowedConfig {
        &self.cfg
    }

    /// Temporal window size `W`.
    pub fn window(&self) -> usize {
        self.cfg.window
    }

    /// Projects one frame's feature map through the shared 1×1 conv.
    pub fn project(&mut self, feature_map: &Tensor, phase: Phase) -> Tensor {
        self.proj.forward(feature_map, phase)
    }

    /// Inference-only [`Self::project`] over `frames` feature maps, laid
    /// out as [`Layer::infer`] takes them, with buffers drawn from `ws`.
    pub fn project_ws(
        &mut self,
        feature_maps: &Tensor,
        frames: usize,
        ws: &mut Workspace,
    ) -> Tensor {
        self.proj.infer(feature_maps, frames, ws)
    }

    /// Classifies the center frame of a window of projected maps, returning
    /// the logit.
    ///
    /// # Panics
    ///
    /// Panics if `projected.len() != window`, or the maps disagree in shape.
    pub fn classify_window(&mut self, projected: &[&Tensor], phase: Phase) -> Tensor {
        let concat = self.concat_window(projected, &mut Workspace::new());
        self.tail.forward(&concat, phase)
    }

    /// Inference-only [`Self::classify_window`] with the channel
    /// concatenation and every tail intermediate drawn from `ws` — the
    /// streaming runtime's allocation-free path.
    ///
    /// # Panics
    ///
    /// As [`Self::classify_window`].
    pub fn classify_window_ws(&mut self, projected: &[&Tensor], ws: &mut Workspace) -> Tensor {
        let concat = self.concat_window(projected, ws);
        let out = self.tail.infer(&concat, 1, ws);
        ws.recycle(concat);
        out
    }

    /// The channel concatenation of a window of projected maps, in a `ws`
    /// buffer.
    fn concat_window(&self, projected: &[&Tensor], ws: &mut Workspace) -> Tensor {
        assert_eq!(
            projected.len(),
            self.cfg.window,
            "expected {} projected maps",
            self.cfg.window
        );
        let (h, w, c) = (
            projected[0].dims()[0],
            projected[0].dims()[1],
            projected[0].dims()[2],
        );
        let mut concat = ws.take(&[h, w, c * projected.len()]);
        concat_channels_into(projected, &mut concat);
        concat
    }

    /// Full training-mode backward pass for one window: the gradient flows
    /// through the tail, is split per frame, and each slice is
    /// back-propagated through the shared projection in reverse order
    /// (matching the LIFO forward caches). Projections must have been run
    /// with [`Phase::Train`] for exactly this window, most recent frame
    /// last.
    pub fn backward_window(&mut self, grad_logit: &Tensor) {
        let g = self.tail.backward(grad_logit);
        let slices = split_channels(&g, self.cfg.window);
        for s in slices.iter().rev() {
            let _ = self.proj.backward(s);
        }
    }

    /// All trainable parameters (projection + tail).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.proj.params_mut();
        p.extend(self.tail.params_mut());
        p
    }

    /// Per-frame marginal multiply-adds: one projection plus one tail pass
    /// (each frame is the center of exactly one window).
    pub fn multiply_adds_per_frame(&self, tap_shape: &[usize]) -> u64 {
        let proj = self.proj.multiply_adds(tap_shape);
        let proj_shape = self.proj.out_shape(tap_shape);
        let concat_shape = [
            proj_shape[0],
            proj_shape[1],
            proj_shape[2] * self.cfg.window,
        ];
        proj + self.tail.multiply_adds(&concat_shape)
    }

    /// Total scalar weights.
    pub fn param_count(&self) -> usize {
        self.proj.param_count() + self.tail.param_count()
    }

    /// Drops cached training state.
    pub fn clear_cache(&mut self) {
        self.proj.clear_cache();
        self.tail.clear_cache();
    }
}

/// Depthwise-concatenates equally-shaped HWC maps.
///
/// # Panics
///
/// Panics if `maps` is empty or shapes disagree.
pub fn concat_channels(maps: &[&Tensor]) -> Tensor {
    assert!(!maps.is_empty(), "concat of zero maps");
    let (h, w, c) = (maps[0].dims()[0], maps[0].dims()[1], maps[0].dims()[2]);
    let mut out = Tensor::zeros(vec![h, w, c * maps.len()]);
    concat_channels_into(maps, &mut out);
    out
}

/// [`concat_channels`] into a pre-allocated `[h, w, c·n]` output.
///
/// # Panics
///
/// Panics if `maps` is empty or any shape disagrees with `out`.
pub fn concat_channels_into(maps: &[&Tensor], out: &mut Tensor) {
    assert!(!maps.is_empty(), "concat of zero maps");
    let (h, w, c) = (maps[0].dims()[0], maps[0].dims()[1], maps[0].dims()[2]);
    let n = maps.len();
    assert_eq!(out.dims(), &[h, w, c * n], "concat output shape");
    for (i, m) in maps.iter().enumerate() {
        assert_eq!(m.dims(), &[h, w, c], "concat shape mismatch at {i}");
        let od = out.data_mut();
        for pos in 0..h * w {
            od[pos * c * n + i * c..pos * c * n + (i + 1) * c]
                .copy_from_slice(&m.data()[pos * c..(pos + 1) * c]);
        }
    }
}

/// Splits an HWC map into `n` equal channel groups (the adjoint of
/// [`concat_channels`]).
///
/// # Panics
///
/// Panics if the channel count is not divisible by `n`.
pub fn split_channels(map: &Tensor, n: usize) -> Vec<Tensor> {
    let (h, w, cn) = (map.dims()[0], map.dims()[1], map.dims()[2]);
    assert_eq!(cn % n, 0, "{cn} channels not divisible by {n}");
    let c = cn / n;
    let mut out = vec![Tensor::zeros(vec![h, w, c]); n];
    for pos in 0..h * w {
        for (i, t) in out.iter_mut().enumerate() {
            t.data_mut()[pos * c..(pos + 1) * c]
                .copy_from_slice(&map.data()[pos * cn + i * c..pos * cn + (i + 1) * c]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_frame_output_is_scalar_logit() {
        let mut net = FullFrameConfig::new(8, 1).build();
        let x = Tensor::filled(vec![4, 6, 8], 0.3);
        let y = net.forward(&x, Phase::Inference);
        assert_eq!(y.dims(), &[1]);
    }

    #[test]
    fn full_frame_paper_scale_dims_and_cost() {
        // Figure 2a at 1920×1080 (tap 33/34×60×1024): conv chain
        // 1024→32→32→1 then grid max. Dominant cost: 34·60·1024·32 ≈ 67M.
        let cfg = FullFrameConfig::new(1024, 0);
        let net = cfg.build();
        assert_eq!(net.out_shape(&[34, 60, 1024]), vec![1]);
        let madds = net.multiply_adds(&[34, 60, 1024]);
        assert!((60_000_000..80_000_000).contains(&madds), "got {madds}");
    }

    #[test]
    fn full_frame_detects_translated_pattern() {
        // Translational invariance: moving the activation blob must not
        // change the logit (the max sees it wherever it is).
        let mut net = FullFrameConfig::new(4, 7).build();
        let mut a = Tensor::zeros(vec![6, 6, 4]);
        let mut b = Tensor::zeros(vec![6, 6, 4]);
        for c in 0..4 {
            a.set3(1, 1, c, 5.0);
            b.set3(4, 3, c, 5.0);
        }
        let ya = net.forward(&a, Phase::Inference);
        let yb = net.forward(&b, Phase::Inference);
        assert!(ya.approx_eq(&yb, 1e-5));
    }

    #[test]
    fn localized_shapes_paper_scale() {
        // Figure 2b: 67×120×512 → 67×120×16 → 34×60×32 → 200 → 1.
        let cfg = LocalizedConfig::new(67, 120, 512, 0);
        let net = cfg.build();
        assert_eq!(net.shape_at(&[67, 120, 512], "sep1"), vec![67, 120, 16]);
        assert_eq!(net.shape_at(&[67, 120, 512], "sep2"), vec![34, 60, 32]);
        assert_eq!(net.shape_at(&[67, 120, 512], "fc1"), vec![200]);
        assert_eq!(net.out_shape(&[67, 120, 512]), vec![1]);
    }

    #[test]
    fn windowed_shapes_paper_scale() {
        // Figure 2c: 5 × (67×120×512 → 67×120×32), concat 67×120×160,
        // conv → 67×120×32, conv s2 → 34×60×32, FC 200, FC 1.
        // Shapes checked analytically (a real forward at paper scale takes
        // seconds); a reduced-size forward exercises the execution path.
        let cfg = WindowedConfig::new(67, 120, 512, 0);
        let mc = cfg.build();
        assert_eq!(mc.proj.out_shape(&[67, 120, 512]), vec![67, 120, 32]);
        assert_eq!(
            mc.tail.shape_at(&[67, 120, 160], "conv1"),
            vec![67, 120, 32]
        );
        assert_eq!(mc.tail.shape_at(&[67, 120, 160], "conv2"), vec![34, 60, 32]);
        assert_eq!(mc.tail.shape_at(&[67, 120, 160], "fc1"), vec![200]);
        assert_eq!(mc.tail.out_shape(&[67, 120, 160]), vec![1]);

        let small = WindowedConfig::new(7, 12, 16, 0);
        let mut mc = small.build();
        let fm = Tensor::filled(vec![7, 12, 16], 0.1);
        let p = mc.project(&fm, Phase::Inference);
        assert_eq!(p.dims(), &[7, 12, 32]);
        let ps: Vec<&Tensor> = std::iter::repeat_n(&p, 5).collect();
        assert_eq!(mc.classify_window(&ps, Phase::Inference).dims(), &[1]);
    }

    #[test]
    fn concat_split_roundtrip() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let maps: Vec<Tensor> = (0..3)
            .map(|_| {
                Tensor::from_vec(
                    vec![2, 3, 4],
                    (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
            })
            .collect();
        let refs: Vec<&Tensor> = maps.iter().collect();
        let cat = concat_channels(&refs);
        assert_eq!(cat.dims(), &[2, 3, 12]);
        let back = split_channels(&cat, 3);
        for (orig, got) in maps.iter().zip(&back) {
            assert_eq!(orig, got);
        }
    }

    #[test]
    fn windowed_trains_on_motion_cue() {
        // The windowed MC should learn a task a single frame cannot solve:
        // "the blob is moving" vs "the blob is static". Each sample is 5
        // tiny feature maps; in positives the active cell shifts each frame.
        use ff_nn::{bce_with_logits_grad, Adam};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let cfg = WindowedConfig {
            in_c: 2,
            window: 3,
            proj: 4,
            conv_f: 4,
            fc_units: 8,
            in_h: 5,
            in_w: 5,
            seed: 3,
        };
        let mut mc = cfg.build();
        let mut opt = Adam::new(0.01);
        let make_sample = |moving: bool, start: usize| -> Vec<Tensor> {
            (0..3)
                .map(|t| {
                    let mut m = Tensor::zeros(vec![5, 5, 2]);
                    let pos = if moving { (start + t) % 5 } else { start };
                    m.set3(pos, pos, 0, 1.0);
                    m
                })
                .collect()
        };
        let mut last_loss = f32::MAX;
        for epoch in 0..60 {
            let mut total = 0.0;
            for _ in 0..8 {
                let moving = rng.gen_bool(0.5);
                let start = rng.gen_range(0..5);
                let frames = make_sample(moving, start);
                let projected: Vec<Tensor> =
                    frames.iter().map(|f| mc.project(f, Phase::Train)).collect();
                let refs: Vec<&Tensor> = projected.iter().collect();
                let z = mc.classify_window(&refs, Phase::Train);
                let y = Tensor::from_vec(vec![1], vec![if moving { 1.0 } else { 0.0 }]);
                let (l, g) = bce_with_logits_grad(&z, &y, 1.0);
                total += l;
                mc.backward_window(&g);
                opt.step(&mut mc.params_mut());
            }
            if epoch == 59 {
                last_loss = total / 8.0;
            }
        }
        assert!(
            last_loss < 0.35,
            "windowed MC failed to learn motion: loss {last_loss}"
        );
    }

    #[test]
    fn marginal_cost_ordering_matches_paper() {
        // At paper scale the full-frame MC (on the smaller, deeper tap) is
        // the cheapest; windowed is the most expensive (Figure 6).
        let ff = FullFrameConfig::new(1024, 0)
            .build()
            .multiply_adds(&[34, 60, 1024]);
        let loc = LocalizedConfig::new(68, 120, 512, 0)
            .build()
            .multiply_adds(&[68, 120, 512]);
        let win = WindowedConfig::new(68, 120, 512, 0).build();
        let win_cost = win.multiply_adds_per_frame(&[68, 120, 512]);
        assert!(ff < loc, "full-frame {ff} should be < localized {loc}");
        assert!(
            loc < win_cost,
            "localized {loc} should be < windowed {win_cost}"
        );
    }

    #[test]
    #[should_panic(expected = "window must be odd")]
    fn even_window_rejected() {
        let mut cfg = WindowedConfig::new(4, 4, 2, 0);
        cfg.window = 4;
        let _ = cfg.build();
    }
}
