//! Dense `f32` tensors for the FilterForward reproduction.
//!
//! This crate is the numeric substrate under `ff-nn`: contiguous row-major
//! tensors (HWC layout for images and feature maps), an
//! [im2col](im2col()) lowering for convolutions — materialised for
//! training only; inference gathers patches a strip at a time inside the
//! GEMM ([`conv_gemm`]), one GEMM per layer however many frames are
//! stacked — and a register-tiled, optionally multi-threaded
//! [GEMM](matmul()).
//! Static weights are prepacked at one of two precisions ([`Precision`]):
//! f32 panels for the f32 FMA kernels, or whole-int8 — s8 panels against
//! dynamically quantized u8 activations, accumulated in i32 — which
//! quarters the streamed weight set and roughly doubles backbone
//! throughput.
//!
//! Everything here is deliberately simple and allocation-honest: a [`Tensor`]
//! is a shape vector plus a `Vec<f32>`, and all operators state their cost.
//! The design goal is not to compete with BLAS but to make the *relative*
//! compute costs of the paper's networks (base DNN vs microclassifiers vs
//! discrete classifiers) faithful on a CPU, which is what every performance
//! trend in the paper depends on.
//!
//! # Threading model
//!
//! Kernels dispatch to a **persistent worker pool** (see [`parallel`]):
//! workers are spawned once, park on a condvar between jobs, and claim
//! fixed, contiguous output chunks when a kernel runs. [`parallel::set_threads`]
//! bounds how many chunks work is split into — the split is a pure function
//! of the problem size and that setting, and every kernel accumulates each
//! output element in a fixed order, so **results are bit-for-bit identical
//! for any thread count**. `set_threads(1)` additionally keeps execution on
//! the calling thread.
//!
//! # Workspace / allocation model
//!
//! Streaming inference reuses buffers across frames through a [`Workspace`]
//! arena: kernels with `_into` variants ([`matmul_into`], [`im2col_into`],
//! [`gemm`]) write into caller-provided buffers, and `ff-nn` layers route
//! every intermediate (GEMM outputs, activations) through the arena. After
//! one warm-up frame, a forward pass performs zero heap allocations; the
//! f32 GEMM reads `B` where the caller keeps it, or from panels the caller
//! packed, and its only scratch is a convolution's strip of patch rows — on
//! the stack, or a per-thread buffer for fan-ins past 512.
//!
//! # Example
//!
//! ```
//! use ff_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
//! let b = Tensor::eye(3);
//! let c = a.matmul(&b);
//! assert_eq!(c.dims(), &[2, 3]);
//! assert_eq!(c.data(), a.data());
//! ```

#![warn(missing_docs)]

mod im2col;
mod init;
mod lowp;
mod matmul;
pub mod parallel;
mod tensor;
mod workspace;

pub use im2col::{col2im, im2col, im2col_into, im2col_u8_into, Conv2dGeometry, Padding};
pub use init::{glorot_uniform, he_normal, uniform};
pub use lowp::{
    gemm_prepacked_i8i8, i8i8_groups, i8i8_padded_k, map_qparams_u8, pack_b_panels_i8i8_into,
    packed_panels_i8i8_len, packed_scales_i8_len, packed_scales_i8i8_len, quantize_a_rows_into,
    quantize_map_u8_into, quantize_u8_with, PackedPanels, Precision, I8I8_GROUP_SIZE,
};
pub use matmul::{
    conv_gemm, gemm, gemm_fused, gemm_prepacked, matmul, matmul_into, matmul_transpose_a,
    matmul_transpose_b, pack_b_panels_into, packed_panels_len, Epilogue, GemmB,
};
pub use parallel::PoolShard;
pub use tensor::Tensor;
pub use workspace::Workspace;
