//! A from-scratch CPU neural-network runtime for the FilterForward
//! reproduction.
//!
//! The paper runs its base DNN in Caffe (Intel MKL-DNN) and its
//! microclassifiers in TensorFlow; neither is available (nor idiomatic) in an
//! offline pure-Rust build, and mature Rust inference crates do not cover
//! training. This crate therefore implements exactly the subset both
//! frameworks contribute to the paper:
//!
//! * **Inference** for the layer types in MobileNet V1 and the three
//!   microclassifier architectures of Figure 2: standard / depthwise /
//!   separable convolutions, dense layers, ReLU/ReLU6/sigmoid, max pooling,
//!   global pooling, and a grid-max ("detect ≥ 1 object") reduction.
//! * **Training** (full backprop + Adam/SGD, binary cross-entropy with
//!   logits, class weighting) so microclassifiers and the discrete-classifier
//!   baselines can be trained offline, as §3.2/§4.5 require.
//! * A **cost model** — per-layer multiply-adds using the exact formulas of
//!   §4.5 and activation/weight memory — used to regenerate Figure 7 and the
//!   out-of-memory behaviour of Figure 5.
//!
//! Layers cache forward activations on a stack when run in
//! [`Phase::Train`], which makes weight-sharing nets (the windowed
//! microclassifier applies one 1×1 conv to five frames) trainable with plain
//! LIFO forward/backward calls.
//!
//! # Whole-int8 inference
//!
//! [`Layer::set_precision`] / [`Sequential::set_precision`] select the
//! precision each layer's **inference** runs at (the [`Precision`] knob,
//! two rungs). At [`Precision::Int8Act`] the GEMM-backed layers
//! ([`Conv2d`], [`ConvBnRelu`]) keep their prepacked weight panels as s8
//! codes with per-K-group scales — a quarter of the f32 panel bytes —
//! quantize each input frame to u8 once, and accumulate in i32; only the
//! epilogue (bias / BN / ReLU) is f32. The depthwise layers
//! quantize-roundtrip their (tiny) tap weights so a whole backbone
//! quantizes every conv. Training always runs against the raw f32 weights,
//! and whole-int8 inference remains bit-for-bit deterministic across
//! thread counts, shard layouts, and batch sizes (integer accumulation is
//! order-independent).
//!
//! # Example: train a 1-layer logistic regression
//!
//! ```
//! use ff_nn::{Dense, Phase, Sequential, bce_with_logits_grad, Adam};
//! use ff_tensor::Tensor;
//!
//! let mut net = Sequential::new();
//! net.push("fc", Dense::new(2, 1, 42));
//! let mut opt = Adam::new(0.1);
//! for _ in 0..200 {
//!     for (x, y) in [([0.0f32, 0.0], 0.0f32), ([1.0, 1.0], 1.0)] {
//!         let logit = net.forward(&Tensor::from_vec(vec![2], x.to_vec()), Phase::Train);
//!         let (_, grad) = bce_with_logits_grad(&logit, &Tensor::from_vec(vec![1], vec![y]), 1.0);
//!         net.backward(&grad);
//!         opt.step(&mut net.params_mut());
//!     }
//! }
//! let p = net
//!     .forward(&Tensor::from_vec(vec![2], vec![1.0, 1.0]), Phase::Inference)
//!     .map(|z| 1.0 / (1.0 + (-z).exp()));
//! assert!(p.data()[0] > 0.9);
//! ```

#![warn(missing_docs)]

pub mod cost;
mod layer;
mod layers;
mod loss;
mod network;
mod optim;
mod param;
mod serialize;

pub use ff_tensor::Precision;
pub use layer::{Layer, Phase};
pub use layers::activation::{Activation, ActivationKind};
pub use layers::conv::Conv2d;
pub use layers::dense::{Dense, Flatten};
pub use layers::depthwise::DepthwiseConv2d;
pub use layers::fused::{ConvBnRelu, DepthwiseBnRelu};
pub use layers::norm::ChannelNorm;
pub use layers::pool::{GlobalMaxPool, MaxPool2d};
pub use layers::separable::SeparableConv2d;
pub use loss::{bce_with_logits, bce_with_logits_grad, sigmoid};
pub use network::Sequential;
pub use optim::{Adam, Sgd};
pub use param::Param;
pub use serialize::{load_params, load_weights, save_params, save_weights, SerializeError};
