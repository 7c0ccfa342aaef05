//! MobileNet V1 — the paper's base DNN (§3.1).
//!
//! The topology follows Howard et al. 2017 with the Caffe layer naming the
//! paper cites (`cdwat/MobileNet-Caffe`): a stem conv followed by 13
//! depthwise-separable blocks. Each named unit (`conv1`, `convX_Y/dw`,
//! `convX_Y/sep`) is a nested [`Sequential`] of `{conv, ReLU}`, so tapping
//! `conv4_2/sep` yields post-activation feature maps exactly like the
//! paper's feature extractor.
//!
//! Weights are He-initialized from a seed: this build has no ImageNet
//! weights available offline, so the base DNN acts as a **fixed
//! random-feature extractor** (DESIGN.md substitution S2). Compute cost —
//! which is all that matters for the Figure 5/6 scalability results — is
//! identical to a pretrained network of the same width.

use ff_nn::{ConvBnRelu, Dense, DepthwiseBnRelu, Flatten, GlobalMaxPool, Precision, Sequential};
use serde::{Deserialize, Serialize};

/// The base-DNN layer the localized and windowed MCs tap (§3.4): a
/// middle-of-network convolution with stride-16 spatial reduction.
pub const LAYER_LOCALIZED_TAP: &str = "conv4_2/sep";

/// The base-DNN layer the full-frame object detector taps (§3.4): the
/// penultimate convolution with stride-32 spatial reduction.
pub const LAYER_FULL_FRAME_TAP: &str = "conv5_6/sep";

/// Configuration for a MobileNet V1 instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MobileNetConfig {
    /// Width multiplier α: every channel count is scaled by this factor.
    /// The paper uses α = 1.0; the simulation scale defaults to 0.5 to keep
    /// pure-Rust inference tractable (DESIGN.md S6).
    pub width_multiplier: f32,
    /// Whether to append the classification head (global pool + FC). The
    /// feature extractor omits it; the "multiple MobileNets" baseline of
    /// Figure 5 includes it.
    pub include_head: bool,
    /// Output classes for the head (1 ⇒ binary filter, used by the
    /// baseline; 1000 matches ImageNet).
    pub num_classes: usize,
    /// Weight seed.
    pub seed: u64,
    /// Inference precision of the backbone
    /// ([`ff_nn::Layer::set_precision`]): [`Precision::Int8Act`] runs every
    /// GEMM in integer arithmetic on quarter-size weight panels.
    /// Defaults to [`Precision::F32`] (bit-exact baseline).
    pub precision: Precision,
}

impl Default for MobileNetConfig {
    fn default() -> Self {
        MobileNetConfig {
            width_multiplier: 1.0,
            include_head: false,
            num_classes: 1000,
            seed: 0x0ff_bade,
            precision: Precision::F32,
        }
    }
}

/// `(block name, stride, output channels)` for the 13 separable blocks.
const BLOCKS: [(&str, usize, usize); 13] = [
    ("conv2_1", 1, 64),
    ("conv2_2", 2, 128),
    ("conv3_1", 1, 128),
    ("conv3_2", 2, 256),
    ("conv4_1", 1, 256),
    ("conv4_2", 2, 512),
    ("conv5_1", 1, 512),
    ("conv5_2", 1, 512),
    ("conv5_3", 1, 512),
    ("conv5_4", 1, 512),
    ("conv5_5", 1, 512),
    ("conv5_6", 2, 1024),
    ("conv6", 1, 1024),
];

/// Applies the width multiplier to a channel count (min 4 to keep tiny test
/// networks functional).
pub fn scaled_channels(c: usize, alpha: f32) -> usize {
    ((c as f32 * alpha).round() as usize).max(4)
}

impl MobileNetConfig {
    /// Creates a config with the given width multiplier and no head.
    pub fn with_width(alpha: f32) -> Self {
        MobileNetConfig {
            width_multiplier: alpha,
            ..Default::default()
        }
    }

    /// Returns the config with the given weight-panel precision (builder
    /// style).
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Channel count of the named tap layer under this config.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is not a `convX_Y/sep` (or `conv1`) unit name.
    pub fn tap_channels(&self, tap: &str) -> usize {
        if tap == "conv1" {
            return scaled_channels(32, self.width_multiplier);
        }
        let block = tap.strip_suffix("/sep").unwrap_or(tap);
        for (name, _, out_c) in BLOCKS {
            if name == block {
                return scaled_channels(out_c, self.width_multiplier);
            }
        }
        panic!("unknown MobileNet tap {tap:?}");
    }

    /// Cumulative spatial stride at the named tap layer.
    ///
    /// # Panics
    ///
    /// Panics if `tap` is not a known unit name.
    pub fn tap_stride(&self, tap: &str) -> usize {
        if tap == "conv1" {
            return 2;
        }
        let block = tap.strip_suffix("/sep").unwrap_or(tap);
        let mut stride = 2; // conv1
        for (name, s, _) in BLOCKS {
            stride *= s;
            if name == block {
                return stride;
            }
        }
        panic!("unknown MobileNet tap {tap:?}");
    }

    /// Builds the network.
    pub fn build(&self) -> Sequential {
        let a = self.width_multiplier;
        let mut net = Sequential::new();
        let mut seed = self.seed;
        let mut next_seed = || {
            seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            seed
        };

        let c1 = scaled_channels(32, a);
        net.push("conv1", ConvBnRelu::new(3, 2, 3, c1, next_seed()));

        let mut in_c = c1;
        for (name, stride, out_c) in BLOCKS {
            let out_c = scaled_channels(out_c, a);
            net.push(
                format!("{name}/dw"),
                DepthwiseBnRelu::new(3, stride, in_c, next_seed()),
            );
            net.push(
                format!("{name}/sep"),
                ConvBnRelu::new(1, 1, in_c, out_c, next_seed()),
            );
            in_c = out_c;
        }

        if self.include_head {
            // Global max pooling stands in for Caffe's global average pool;
            // with random features the choice is immaterial, and max reuses
            // the grid-reduction layer the full-frame MC needs anyway.
            net.push("pool6", GlobalMaxPool::new());
            net.push("flatten", Flatten::new());
            net.push("fc7", Dense::new(in_c, self.num_classes, next_seed()));
        }
        net.set_precision(self.precision);
        net
    }
}

// Each named unit is a fused conv→BN→ReLU layer ([`ConvBnRelu`] /
// [`DepthwiseBnRelu`]): the folded norm starts as identity and
// [`ff_nn::Layer::calibrate`] fits it from sample frames (DESIGN.md S2).
// Fusing the unit executes its three stages in a single pass over the
// activations — the separate element-wise passes were costing more than the
// convolutions themselves at Figure 5 geometry.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imagenet_scale_tap_shapes() {
        // Classic MobileNet at 224×224: conv4_2/sep → 14×14×512,
        // conv5_6/sep → 7×7×1024.
        let net = MobileNetConfig::default().build();
        assert_eq!(
            net.shape_at(&[224, 224, 3], LAYER_LOCALIZED_TAP),
            vec![14, 14, 512]
        );
        assert_eq!(
            net.shape_at(&[224, 224, 3], LAYER_FULL_FRAME_TAP),
            vec![7, 7, 1024]
        );
    }

    #[test]
    fn paper_scale_tap_shapes() {
        // Figure 2 quotes 67×120×512 and 33×60×1024 for 1920×1080 input
        // (floor convention); our SAME padding gives the ceil variant
        // 68×120 / 34×60 — same stride-16/32 geometry.
        let net = MobileNetConfig::default().build();
        assert_eq!(
            net.shape_at(&[1080, 1920, 3], LAYER_LOCALIZED_TAP),
            vec![68, 120, 512]
        );
        assert_eq!(
            net.shape_at(&[1080, 1920, 3], LAYER_FULL_FRAME_TAP),
            vec![34, 60, 1024]
        );
    }

    #[test]
    fn paper_scale_cost_is_tens_of_gigamadds() {
        // MobileNet is 569M multiply-adds at 224×224; 1920×1080 is 41.3×
        // more pixels, so expect ≈ 20–25 G multiply-adds.
        let net = MobileNetConfig::default().build();
        let madds = net.multiply_adds(&[1080, 1920, 3]);
        assert!(
            (15_000_000_000..30_000_000_000).contains(&madds),
            "got {madds}"
        );
    }

    #[test]
    fn imagenet_cost_near_published() {
        // Published: 569M multiply-adds (conv layers) at 224×224, α=1.
        let net = MobileNetConfig::default().build();
        let madds = net.multiply_adds(&[224, 224, 3]);
        assert!((450_000_000..650_000_000).contains(&madds), "got {madds}");
    }

    #[test]
    fn width_multiplier_scales_cost_quadratically() {
        let full = MobileNetConfig::default()
            .build()
            .multiply_adds(&[128, 128, 3]);
        let half = MobileNetConfig::with_width(0.5)
            .build()
            .multiply_adds(&[128, 128, 3]);
        let ratio = full as f64 / half as f64;
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn tap_helpers_match_built_network() {
        let cfg = MobileNetConfig::with_width(0.5);
        let net = cfg.build();
        let shape = net.shape_at(&[96, 160, 3], LAYER_LOCALIZED_TAP);
        assert_eq!(shape[2], cfg.tap_channels(LAYER_LOCALIZED_TAP));
        assert_eq!(
            shape[0],
            (96usize).div_ceil(cfg.tap_stride(LAYER_LOCALIZED_TAP))
        );
        assert_eq!(cfg.tap_stride(LAYER_FULL_FRAME_TAP), 32);
    }

    #[test]
    fn head_produces_class_vector() {
        use ff_nn::Phase;
        let cfg = MobileNetConfig {
            width_multiplier: 0.25,
            include_head: true,
            num_classes: 10,
            seed: 1,
            ..Default::default()
        };
        let mut net = cfg.build();
        let x = ff_tensor::Tensor::filled(vec![32, 32, 3], 0.1);
        assert_eq!(net.forward(&x, Phase::Inference).dims(), &[10]);
    }

    #[test]
    fn precision_knob_propagates_to_every_unit() {
        use ff_nn::Phase;
        let x = ff_tensor::Tensor::filled(vec![32, 32, 3], 0.5);
        let mut gold = MobileNetConfig::with_width(0.25).build();
        let want = gold.forward(&x, Phase::Inference);
        let cfg = MobileNetConfig::with_width(0.25).with_precision(Precision::Int8Act);
        assert_eq!(cfg.precision, Precision::Int8Act);
        let mut net = cfg.build();
        let got = net.forward(&x, Phase::Inference);
        // Same topology, quantized weights and activations: close but
        // (generically) not bit-equal to the f32 network.
        let amax = want.data().iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let tol = 0.15 * amax + 1e-3;
        for (g, w) in got.data().iter().zip(want.data()) {
            assert!((g - w).abs() <= tol, "{g} vs {w}");
        }
        // And bit-identical to itself on a rebuild (deterministic).
        let mut net2 = cfg.build();
        assert_eq!(net2.forward(&x, Phase::Inference), got);
    }

    #[test]
    fn deterministic_given_seed() {
        use ff_nn::Phase;
        let mut a = MobileNetConfig::with_width(0.25).build();
        let mut b = MobileNetConfig::with_width(0.25).build();
        let x = ff_tensor::Tensor::filled(vec![32, 32, 3], 0.5);
        assert_eq!(
            a.forward(&x, Phase::Inference),
            b.forward(&x, Phase::Inference)
        );
    }
}
