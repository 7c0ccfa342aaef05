//! A from-scratch motion-compensated block transform codec ("FBC").
//!
//! This is the reproduction's stand-in for H.264 (DESIGN.md S4). It is a
//! real codec, not a byte-count model: YCbCr 4:2:0 color, 8×8 DCT blocks,
//! QP-driven quantization, 16×16 motion-compensated P-frames with skip
//! modes, Exp-Golomb entropy coding, I/P GOP structure, closed-loop rate
//! control toward a target bitrate, and a full decoder. FilterForward's
//! bandwidth numbers are the byte lengths this encoder emits, and the
//! "compress everything" baseline of Figure 4 classifies the *decoded*
//! frames, so low-bitrate quality loss is physically real here.
//!
//! # Bit-exactness contract
//!
//! The encoder's bytes are a measured quantity (uplink and archive sizes)
//! and its reconstruction must equal the decoder's, so an optimisation of
//! this module may change *how* a value is computed but never its bits.
//! `tests/codec_golden.rs` pins stream and decoded-frame digests recorded
//! from the original scalar code; each fast routine is also pinned to a
//! test-only scalar twin. What fixes the bits:
//!
//! - **Order-defined `f32` sums.** A macroblock SAD adds its 256 terms in
//!   row-major order; a DCT output adds its eight products in index order
//!   from `0.0`; a chroma sample adds its 2×2 neighborhood row-major from
//!   `0.0`. Floating-point addition is not associative, so none of these
//!   may be split into partial sums, re-ordered, or tree-reduced.
//! - **Separate multiply and add.** The DCT and colour expressions round
//!   after every operation. rustc never contracts `a * b + c` into a fused
//!   multiply-add on its own; code here must not call `mul_add` or an FMA
//!   intrinsic, and must not enable a fast-math style flag.
//! - **Search order.** The three-step search visits its eight candidates
//!   in a fixed order and replaces the best only on a strictly smaller
//!   SAD, so ties keep the earlier candidate. `skip_threshold`, the step
//!   pattern and every rounding (`round` half away from zero in
//!   quantisation, `/ 2` toward zero for chroma vectors) are part of the
//!   format.
//!
//! What *is* free: running independent sums side by side (SIMD lanes or
//! interleaved chains *across* motion candidates, DCT outputs, pixels),
//! replacing clamped per-sample reads by slices of an edge-replicated
//! copy, skipping work whose result is discarded, and any change to
//! buffering or allocation. The entropy coder is integer-only, so it is
//! free to batch bits as long as the bytes match.
//!
//! Every user of the codec inherits such work unchanged: the pipeline's
//! upload re-encode, `ff_core::archive` (both `record` and the decode in
//! `demand_fetch`), and the "compress everything" baseline in
//! `ff_core::cloud`, which encodes and decodes every frame.
//!
//! # Example
//!
//! ```
//! use ff_video::codec::{Decoder, Encoder, EncoderConfig};
//! use ff_video::{Frame, Resolution};
//!
//! let cfg = EncoderConfig::with_qp(Resolution::new(64, 48), 15.0, 28);
//! let mut enc = Encoder::new(cfg);
//! let mut dec = Decoder::new();
//! let frame = Frame::black(Resolution::new(64, 48));
//! let encoded = enc.encode(&frame);
//! let decoded = dec.decode(&encoded).expect("bitstream round-trips");
//! assert!(decoded.psnr(&frame) > 40.0);
//! ```

mod bitstream;
mod color;
mod dct;
mod decoder;
mod encoder;
mod motion;
mod quant;
mod rate;

pub use bitstream::{BitReader, BitWriter};
pub use color::{Plane, Ycbcr420};
pub use decoder::{DecodeError, Decoder};
pub use encoder::{EncodedFrame, Encoder, EncoderConfig, FrameType};
pub use motion::MotionVector;
pub use rate::RateController;

/// Macroblock size (luma pixels).
pub(crate) const MB: usize = 16;
/// Transform block size.
pub(crate) const BLOCK: usize = 8;
