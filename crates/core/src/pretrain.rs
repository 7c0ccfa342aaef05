//! Synthetic pretraining of the base DNN (DESIGN.md substitution S2).
//!
//! The paper's base DNN carries ImageNet weights; this build has none, so
//! by default the extractor is a fixed random-feature network. Random
//! features keep compute costs faithful but lose discriminative power with
//! depth (activations of different inputs decorrelate slowly through many
//! random ReLU layers). This module restores "pretrained-ness" honestly:
//! it trains the base DNN briefly on an auxiliary task generated by the
//! scene simulator itself — classifying which object kind dominates a
//! small crop — and then freezes it, exactly as the paper freezes its
//! ImageNet backbone. No evaluation-task labels are used: the auxiliary
//! task plays the role ImageNet plays for the paper.

use ff_models::MobileNetConfig;
use ff_nn::{bce_with_logits_grad, Adam, Dense, Flatten, GlobalMaxPool, Phase, Sequential};
use ff_tensor::Tensor;
use ff_video::scene::{ObjectKind, Scene, SceneConfig};
use ff_video::Resolution;

/// Pretraining configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PretrainConfig {
    /// Gradient steps.
    pub steps: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Crop size fed to the network (small for speed; the backbone is
    /// fully convolutional, so weights transfer to any resolution).
    pub crop: usize,
    /// Scene/crop sampling seed. Distinct from evaluation seeds.
    pub seed: u64,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            steps: 400,
            lr: 2e-3,
            crop: 48,
            seed: 0x9A_17,
        }
    }
}

/// Builds a MobileNet, pretrains it on the auxiliary object task, and
/// returns the network with trained weights (head removed — the caller
/// taps intermediate layers).
///
/// The auxiliary labels are "does this crop contain a pedestrian?" /
/// "...a car?" — four binary outputs trained jointly, which forces the
/// intermediate layers to encode object shape and color without ever
/// seeing the evaluation tasks' definitions.
pub fn pretrained_mobilenet(cfg: &MobileNetConfig, pre: &PretrainConfig) -> Sequential {
    let mut net = cfg.build();
    // Temporary 4-way head on top of the deepest tap.
    let head_c = cfg.tap_channels("conv5_6/sep");
    let mut head = Sequential::new();
    head.push("pool", GlobalMaxPool::new());
    head.push("flat", Flatten::new());
    head.push("fc", Dense::new(head_c, 4, pre.seed));

    let scene_cfg = SceneConfig {
        resolution: Resolution::new(pre.crop * 4, pre.crop * 2),
        seed: pre.seed,
        pedestrian_rate: 0.35,
        car_rate: 0.25,
        cyclist_rate: 0.1,
        dog_rate: 0.1,
        crossing_fraction: 0.3,
        red_fraction: 0.3,
        ..Default::default()
    };
    let mut scene = Scene::new(scene_cfg);
    let mut opt = Adam::new(pre.lr);
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(pre.seed ^ 0xC0FFEE);

    for _ in 0..pre.steps {
        let (frame, truth) = scene.step();
        // Sample a random crop; label = which kinds intersect it.
        let (w, h) = (frame.width(), frame.height());
        let x0 = rng.gen_range(0..w - pre.crop);
        let y0 = rng.gen_range(0..h - pre.crop);
        let region = ff_video::scene::BBox {
            x0,
            y0,
            x1: x0 + pre.crop,
            y1: y0 + pre.crop,
        };
        let mut label = [0.0f32; 4];
        for o in &truth {
            if o.bbox.intersect_area(&region) > 0 {
                let k = match o.kind {
                    ObjectKind::Pedestrian => 0,
                    ObjectKind::Car => 1,
                    ObjectKind::Cyclist => 2,
                    ObjectKind::Dog => 3,
                };
                label[k] = 1.0;
            }
        }
        let crop_tensor = crop_frame_tensor(&frame, x0, y0, pre.crop);
        let feats = forward_to_tap(&mut net, &crop_tensor, Phase::Train);
        let z = head.forward(&feats, Phase::Train);
        let y = Tensor::from_vec(vec![4], label.to_vec());
        let (_, g) = bce_with_logits_grad(&z, &y, 2.0);
        let g_feats = head.backward(&g);
        backward_from_tap(&mut net, &g_feats);
        let mut params = net.params_mut();
        params.extend(head.params_mut());
        opt.step(&mut params);
    }
    net.clear_cache();
    net
}

fn crop_frame_tensor(frame: &ff_video::Frame, x0: usize, y0: usize, crop: usize) -> Tensor {
    let mut t = Tensor::zeros(vec![crop, crop, 3]);
    for y in 0..crop {
        for x in 0..crop {
            let [r, g, b] = frame.pixel(x0 + x, y0 + y);
            t.set3(y, x, 0, r as f32 / 255.0);
            t.set3(y, x, 1, g as f32 / 255.0);
            t.set3(y, x, 2, b as f32 / 255.0);
        }
    }
    t
}

/// Forward through the backbone up to `conv5_6/sep` (training phase caches
/// activations for the partial backward below).
fn forward_to_tap(net: &mut Sequential, x: &Tensor, phase: Phase) -> Tensor {
    let idx = net.index_of("conv5_6/sep").expect("tap exists");
    let mut cur = x.clone();
    for i in 0..=idx {
        cur = net.layer_at_mut(i).forward(&cur, phase);
    }
    cur
}

fn backward_from_tap(net: &mut Sequential, grad: &Tensor) {
    let idx = net.index_of("conv5_6/sep").expect("tap exists");
    let mut g = grad.clone();
    for i in (0..=idx).rev() {
        g = net.layer_at_mut(i).backward(&g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pretraining_changes_weights_and_improves_feature_spread() {
        let cfg = MobileNetConfig::with_width(0.25);
        let pre = PretrainConfig {
            steps: 12,
            crop: 32,
            ..Default::default()
        };
        let random = cfg.build();
        let trained = pretrained_mobilenet(&cfg, &pre);
        let x = Tensor::filled(vec![32, 32, 3], 0.5);
        let a = random.forward_taps(&x, &["conv4_2/sep"]).remove(0);
        let b = trained.forward_taps(&x, &["conv4_2/sep"]).remove(0);
        assert!(!a.approx_eq(&b, 1e-6), "pretraining did not move weights");
    }

    #[test]
    fn pretrained_net_keeps_layer_names() {
        let cfg = MobileNetConfig::with_width(0.25);
        let net = pretrained_mobilenet(
            &cfg,
            &PretrainConfig {
                steps: 2,
                crop: 32,
                ..Default::default()
            },
        );
        assert!(net.index_of("conv4_2/sep").is_some());
        assert!(net.index_of("conv5_6/sep").is_some());
    }
}
