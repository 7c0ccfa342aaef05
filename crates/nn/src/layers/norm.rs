//! Per-channel normalization — folded batch normalization.
//!
//! MobileNet V1 has a batch-norm after every convolution; at inference BN
//! folds into a per-channel affine `y = x·scale + shift`. This layer is
//! that folded form. Fresh networks initialize it to identity and
//! *calibrate* it from sample activations ([`Layer::calibrate`]), which
//! plays the role BN training plays in the original network: it keeps
//! activations zero-mean/unit-variance per channel, preventing the
//! correlation collapse that otherwise makes deep random-feature networks
//! useless (DESIGN.md S2).

use ff_tensor::{Tensor, Workspace};

use crate::Layer;

/// Folded batch normalization: per-channel affine on HWC tensors.
#[derive(Debug, Clone)]
pub struct ChannelNorm {
    scale: Vec<f32>,
    shift: Vec<f32>,
    calibrated: bool,
}

impl ChannelNorm {
    /// Identity normalization over `c` channels (calibrate to activate).
    pub fn identity(c: usize) -> Self {
        ChannelNorm {
            scale: vec![1.0; c],
            shift: vec![0.0; c],
            calibrated: false,
        }
    }

    /// Whether [`Layer::calibrate`] has fit this layer.
    pub fn is_calibrated(&self) -> bool {
        self.calibrated
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.scale.len()
    }
}

impl Layer for ChannelNorm {
    fn layer_type(&self) -> &'static str {
        "channel_norm"
    }

    /// A per-channel affine over the trailing dimension: any number of
    /// frames is just a bigger buffer of channel cells.
    fn infer(&self, x: &Tensor, _frames: usize, ws: &mut Workspace) -> Tensor {
        let c = self.scale.len();
        assert_eq!(
            x.dims().last().copied().unwrap_or(0),
            c,
            "ChannelNorm expects {c} channels, got {:?}",
            x.dims()
        );
        let mut out = ws.take(x.dims());
        for (cell, src) in out.data_mut().chunks_mut(c).zip(x.data().chunks(c)) {
            for (((v, &xv), &s), &b) in cell.iter_mut().zip(src).zip(&self.scale).zip(&self.shift) {
                *v = xv * s + b;
            }
        }
        out
    }

    /// Folded, so training caches nothing: the backward pass only rescales.
    fn train(&mut self, x: &Tensor) -> Tensor {
        self.infer(x, 1, &mut Workspace::new())
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // Non-trainable (folded); gradient just rescales.
        let c = self.scale.len();
        let mut g = grad_out.clone();
        for cell in g.data_mut().chunks_mut(c) {
            for (v, &s) in cell.iter_mut().zip(&self.scale) {
                *v *= s;
            }
        }
        g
    }

    fn out_shape(&self, in_shape: &[usize]) -> Vec<usize> {
        in_shape.to_vec()
    }

    fn multiply_adds(&self, _in_shape: &[usize]) -> u64 {
        // Folded into the preceding convolution in deployment (as in every
        // production MobileNet), so it contributes no extra multiply-adds.
        0
    }

    fn calibrate(&mut self, samples: Vec<Tensor>) -> Vec<Tensor> {
        if let Some((scale, shift)) = fit_channel_stats(&samples, self.scale.len()) {
            self.scale = scale;
            self.shift = shift;
            self.calibrated = true;
        }
        let mut ws = Workspace::new();
        samples.iter().map(|s| self.infer(s, 1, &mut ws)).collect()
    }
}

/// Fits per-channel standardization `(scale, shift)` from sample
/// activations: `scale = 1/std`, `shift = -mean/std`, with the std floored
/// at `1e-4`. Returns `None` when the samples are empty.
///
/// Shared by [`ChannelNorm`] and the fused units in
/// [`crate::layers::fused`], so the two calibration paths stay numerically
/// identical (f64 accumulation, same epsilon).
pub(crate) fn fit_channel_stats(samples: &[Tensor], c: usize) -> Option<(Vec<f32>, Vec<f32>)> {
    let mut count = 0u64;
    let mut mean = vec![0.0f64; c];
    for s in samples {
        for cell in s.data().chunks(c) {
            for (m, &v) in mean.iter_mut().zip(cell) {
                *m += v as f64;
            }
        }
        count += (s.len() / c) as u64;
    }
    if count == 0 {
        return None;
    }
    for m in &mut mean {
        *m /= count as f64;
    }
    let mut var = vec![0.0f64; c];
    for s in samples {
        for cell in s.data().chunks(c) {
            for ((vv, &v), &m) in var.iter_mut().zip(cell).zip(&mean) {
                let d = v as f64 - m;
                *vv += d * d;
            }
        }
    }
    let mut scale = vec![0.0f32; c];
    let mut shift = vec![0.0f32; c];
    for ((sc, sh), (m, v)) in scale.iter_mut().zip(&mut shift).zip(mean.iter().zip(&var)) {
        let std = (v / count as f64).sqrt().max(1e-4);
        *sc = (1.0 / std) as f32;
        *sh = (-m / std) as f32;
    }
    Some((scale, shift))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Phase;

    #[test]
    fn identity_before_calibration() {
        let mut n = ChannelNorm::identity(3);
        let x = Tensor::from_vec(vec![1, 2, 3], vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(n.forward(&x, Phase::Inference), x);
        assert!(!n.is_calibrated());
    }

    #[test]
    fn calibration_standardizes_channels() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut n = ChannelNorm::identity(2);
        // Channel 0 ~ N(5, 2), channel 1 ~ N(-1, 0.5).
        let samples: Vec<Tensor> = (0..4)
            .map(|_| {
                let mut t = Tensor::zeros(vec![8, 8, 2]);
                for i in 0..64 {
                    t.data_mut()[i * 2] = 5.0 + 2.0 * rng.gen_range(-1.0f32..1.0);
                    t.data_mut()[i * 2 + 1] = -1.0 + 0.5 * rng.gen_range(-1.0f32..1.0);
                }
                t
            })
            .collect();
        let out = n.calibrate(samples);
        assert!(n.is_calibrated());
        // Post-calibration output: near zero mean, near unit variance.
        for ch in 0..2 {
            let vals: Vec<f32> = out
                .iter()
                .flat_map(|t| {
                    t.data()
                        .iter()
                        .skip(ch)
                        .step_by(2)
                        .copied()
                        .collect::<Vec<_>>()
                })
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 = vals.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 0.05, "ch{ch} mean {mean}");
            assert!((var - 1.0).abs() < 0.3, "ch{ch} var {var}");
        }
    }

    #[test]
    fn backward_scales_gradient() {
        let mut n = ChannelNorm::identity(1);
        let _ = n.calibrate(vec![Tensor::from_vec(vec![4, 1, 1], vec![0., 2., 4., 6.])]);
        let g = n.backward(&Tensor::filled(vec![4, 1, 1], 1.0));
        // scale = 1/std of {0,2,4,6} (std ≈ 2.236) ⇒ grads ≈ 0.447.
        assert!((g.data()[0] - 0.447).abs() < 0.01, "{:?}", g.data());
    }
}
