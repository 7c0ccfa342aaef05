//! The encoder: I/P GOP structure, macroblock mode decisions, transform
//! coding, and closed-loop reconstruction.

use std::cell::RefCell;

use serde::{Deserialize, Serialize};

use super::bitstream::BitWriter;
use super::color::{Plane, Ycbcr420};
use super::motion::{sad_n, three_step_search, MotionVector};
use super::quant::{dequantize, quantize, read_block, steps, write_block};
use super::rate::RateController;
use super::{dct, BLOCK, MB};
use crate::{Frame, Resolution};

/// Frame coding type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FrameType {
    /// Intra-coded: every block transform-coded independently.
    I,
    /// Predicted: motion-compensated against the previous reconstruction.
    P,
}

/// Rate selection: fixed quantizer or target bitrate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RateMode {
    /// Constant QP (0 = finest, 51 = coarsest).
    ConstantQp(u8),
    /// Closed-loop rate control toward bits-per-second.
    TargetBitrate(f64),
}

/// Encoder configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EncoderConfig {
    /// Frame size.
    pub resolution: Resolution,
    /// Frames per second (used by rate control).
    pub fps: f64,
    /// I-frame interval in frames (GOP length).
    pub gop: usize,
    /// Motion search range in pixels.
    pub search_range: i32,
    /// Rate mode.
    pub rate: RateMode,
    /// Mean-absolute-difference threshold (8-bit levels per pixel) under
    /// which a macroblock is coded as SKIP.
    pub skip_threshold: f32,
}

impl EncoderConfig {
    /// Constant-QP config with the default GOP of 15.
    pub fn with_qp(resolution: Resolution, fps: f64, qp: u8) -> Self {
        EncoderConfig {
            resolution,
            fps,
            gop: 15,
            search_range: 8,
            rate: RateMode::ConstantQp(qp),
            skip_threshold: 1.25,
        }
    }

    /// Rate-controlled config targeting `bitrate_bps`.
    pub fn with_bitrate(resolution: Resolution, fps: f64, bitrate_bps: f64) -> Self {
        EncoderConfig {
            resolution,
            fps,
            gop: 15,
            search_range: 8,
            rate: RateMode::TargetBitrate(bitrate_bps),
            skip_threshold: 1.25,
        }
    }
}

/// One encoded frame: the bitstream plus bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedFrame {
    /// The bitstream. `data.len()` is the frame's wire size.
    pub data: Vec<u8>,
    /// Coding type.
    pub frame_type: FrameType,
    /// QP used.
    pub qp: u8,
}

impl EncodedFrame {
    /// Wire size in bits.
    pub fn bits(&self) -> usize {
        self.data.len() * 8
    }
}

/// Per-thread working storage: the current picture and a copy of the
/// reference, both with replicated borders (so no block read clamps), and
/// the bit buffer. Every encoder on the thread shares it, so an encoder's
/// own resident memory is its reference picture alone.
#[derive(Default)]
struct Scratch {
    cur: Ycbcr420,
    reference: Ycbcr420,
    bits: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// The FBC encoder. Feed frames in display order; the first frame of every
/// GOP is intra-coded.
#[derive(Debug)]
pub struct Encoder {
    cfg: EncoderConfig,
    frame_index: u64,
    reference: Option<Ycbcr420>,
    rate: Option<RateController>,
}

impl Encoder {
    /// Creates an encoder.
    ///
    /// # Panics
    ///
    /// Panics if the resolution is empty or the GOP is zero.
    pub fn new(cfg: EncoderConfig) -> Self {
        assert!(cfg.resolution.pixels() > 0, "empty resolution");
        assert!(cfg.gop > 0, "GOP must be positive");
        let rate = match cfg.rate {
            RateMode::ConstantQp(qp) => {
                assert!(qp <= super::quant::QP_MAX, "QP out of range");
                None
            }
            RateMode::TargetBitrate(bps) => Some(RateController::new(bps, cfg.fps)),
        };
        Encoder {
            cfg,
            frame_index: 0,
            reference: None,
            rate,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.cfg
    }

    /// Forces the next frame to be intra-coded (used when seeking or after
    /// a filtering gap, where the previous reference is not the true
    /// predecessor).
    pub fn force_keyframe(&mut self) {
        self.frame_index = 0;
    }

    /// Encodes one frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame size differs from the configured resolution.
    pub fn encode(&mut self, frame: &Frame) -> EncodedFrame {
        assert_eq!(
            frame.resolution(),
            self.cfg.resolution,
            "frame size changed mid-stream"
        );
        let is_intra =
            self.frame_index.is_multiple_of(self.cfg.gop as u64) || self.reference.is_none();
        let qp = match (&self.rate, self.cfg.rate) {
            (Some(rc), _) => rc.qp(),
            (None, RateMode::ConstantQp(q)) => q,
            (None, RateMode::TargetBitrate(_)) => unreachable!("checked in new()"),
        };
        let res = frame.resolution();
        // The reconstruction overwrites the reference in place: inter
        // prediction reads the scratch copy, and a SKIP block is already
        // there.
        let recon = self.reference.get_or_insert_with(|| Ycbcr420::black(res));

        let data = SCRATCH.with_borrow_mut(|s| {
            s.cur.load_frame(frame, MB);
            let mut w = BitWriter::reusing(std::mem::take(&mut s.bits));
            w.put_bits(res.width as u32, 16);
            w.put_bits(res.height as u32, 16);
            w.put_bit(is_intra);
            w.put_bits(qp as u32, 6);
            if is_intra {
                encode_plane_intra(&mut w, &s.cur.y, &mut recon.y, false, qp);
                encode_plane_intra(&mut w, &s.cur.cb, &mut recon.cb, true, qp);
                encode_plane_intra(&mut w, &s.cur.cr, &mut recon.cr, true, qp);
            } else {
                s.reference.y.copy_padded_from(&recon.y, MB);
                s.reference.cb.copy_padded_from(&recon.cb, BLOCK);
                s.reference.cr.copy_padded_from(&recon.cr, BLOCK);
                encode_inter(&mut w, &s.cur, &s.reference, recon, qp, &self.cfg);
            }
            s.bits = w.finish();
            s.bits.clone() // sized exactly; the scratch keeps the grown buffer
        });
        if let Some(rc) = &mut self.rate {
            rc.record(data.len() * 8);
        }
        self.frame_index += 1;
        EncodedFrame {
            data,
            frame_type: if is_intra { FrameType::I } else { FrameType::P },
            qp,
        }
    }

    /// Encodes a whole clip, returning the frames and total bytes.
    pub fn encode_all<'a>(
        &mut self,
        frames: impl IntoIterator<Item = &'a Frame>,
    ) -> Vec<EncodedFrame> {
        frames.into_iter().map(|f| self.encode(f)).collect()
    }
}

/// Number of 8×8 blocks covering `n` pixels.
pub(super) fn blocks(n: usize) -> usize {
    n.div_ceil(BLOCK)
}

fn encode_plane_intra(w: &mut BitWriter, plane: &Plane, recon: &mut Plane, chroma: bool, qp: u8) {
    let st = steps(chroma, qp);
    for by in 0..blocks(plane.height()) {
        for bx in 0..blocks(plane.width()) {
            let mut block = plane.block8(bx, by);
            for v in &mut block {
                *v -= 128.0;
            }
            let levels = quantize(&dct::forward(&block), &st);
            write_block(w, &levels);
            let mut rec = dct::inverse(&dequantize(&levels, &st));
            for v in &mut rec {
                *v += 128.0;
            }
            recon.set_block8(bx, by, &rec);
        }
    }
}

/// Extracts the motion-compensated 8×8 prediction block at block coords
/// `(bx, by)` displaced by `mv` (in this plane's pixel units).
fn pred_block8(reference: &Plane, bx: usize, by: usize, mv: MotionVector) -> [f32; 64] {
    reference.block8_at(
        (bx * BLOCK) as isize + mv.dx as isize,
        (by * BLOCK) as isize + mv.dy as isize,
    )
}

/// Writes prediction + dequantized residual, clamped, to `recon`'s block.
fn reconstruct(
    recon: &mut Plane,
    bx: usize,
    by: usize,
    pred: &[f32; 64],
    levels: &[i32; 64],
    st: &[f32; 64],
) {
    let rec_res = dct::inverse(&dequantize(levels, st));
    let mut rec = [0.0f32; 64];
    for i in 0..64 {
        rec[i] = (pred[i] + rec_res[i]).clamp(0.0, 255.0);
    }
    recon.set_block8(bx, by, &rec);
}

/// Codes a P-frame. `reference` is the bordered copy of the previous
/// reconstruction; `recon` still holds that reconstruction and is
/// overwritten macroblock by macroblock.
fn encode_inter(
    w: &mut BitWriter,
    cur: &Ycbcr420,
    reference: &Ycbcr420,
    recon: &mut Ycbcr420,
    qp: u8,
    cfg: &EncoderConfig,
) {
    let st = [steps(false, qp), steps(true, qp), steps(true, qp)];
    let cur = [&cur.y, &cur.cb, &cur.cr];
    let reference = [&reference.y, &reference.cb, &reference.cr];
    let recon = [&mut recon.y, &mut recon.cb, &mut recon.cr];
    let zero = MotionVector::default();
    for mby in 0..cur[0].height().div_ceil(MB) {
        for mbx in 0..cur[0].width().div_ceil(MB) {
            let (x0, y0) = (mbx * MB, mby * MB);
            // Motion search, with a fast path: a small zero-MV SAD skips
            // the search (not the coding decision).
            let [zero_sad] = sad_n(cur[0], reference[0], x0, y0, &[zero]);
            let mv = if zero_sad <= cfg.skip_threshold * (MB * MB) as f32 {
                zero
            } else {
                three_step_search(cur[0], reference[0], x0, y0, cfg.search_range, zero_sad).0
            };
            let cmv = MotionVector {
                dx: mv.dx / 2,
                dy: mv.dy / 2,
            };
            // (plane, block x, block y, vector) of the macroblock's four
            // luma and two chroma blocks, in bitstream order.
            let (bx, by) = (mbx * 2, mby * 2);
            let blocks = [
                (0, bx, by, mv),
                (0, bx + 1, by, mv),
                (0, bx, by + 1, mv),
                (0, bx + 1, by + 1, mv),
                (1, mbx, mby, cmv),
                (2, mbx, mby, cmv),
            ];
            let mut preds = [[0.0f32; 64]; 6];
            let mut levels = [[0i32; 64]; 6];
            for (k, &(p, bx, by, v)) in blocks.iter().enumerate() {
                preds[k] = pred_block8(reference[p], bx, by, v);
                let mut residual = cur[p].block8(bx, by);
                for (r, pred) in residual.iter_mut().zip(&preds[k]) {
                    *r -= pred;
                }
                levels[k] = quantize(&dct::forward(&residual), &st[p]);
            }

            // True SKIP decision: zero vector and all-zero residuals means
            // the reconstruction equals the reference exactly.
            if mv == zero && levels.iter().flatten().all(|&v| v == 0) {
                w.put_ue(0);
                continue;
            }
            w.put_ue(1);
            w.put_se(mv.dx);
            w.put_se(mv.dy);
            for (k, &(p, bx, by, _)) in blocks.iter().enumerate() {
                write_block(w, &levels[k]);
                reconstruct(recon[p], bx, by, &preds[k], &levels[k], &st[p]);
            }
        }
    }
}

/// Copies a co-located macroblock (luma + chroma) from `src` to `dst`.
pub(super) fn copy_mb(src: &Ycbcr420, dst: &mut Ycbcr420, mbx: usize, mby: usize) {
    for (dy, dx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
        let b = src.y.block8(mbx * 2 + dx, mby * 2 + dy);
        dst.y.set_block8(mbx * 2 + dx, mby * 2 + dy, &b);
    }
    let b = src.cb.block8(mbx, mby);
    dst.cb.set_block8(mbx, mby, &b);
    let b = src.cr.block8(mbx, mby);
    dst.cr.set_block8(mbx, mby, &b);
}

/// Decodes the shared frame header; used by the decoder.
pub(super) struct FrameHeader {
    pub width: usize,
    pub height: usize,
    pub intra: bool,
    pub qp: u8,
}

pub(super) fn read_header(r: &mut super::bitstream::BitReader<'_>) -> Option<FrameHeader> {
    let width = r.get_bits(16)? as usize;
    let height = r.get_bits(16)? as usize;
    let intra = r.get_bit()?;
    let qp = r.get_bits(6)? as u8;
    Some(FrameHeader {
        width,
        height,
        intra,
        qp,
    })
}

pub(super) fn decode_plane_intra(
    r: &mut super::bitstream::BitReader<'_>,
    plane: &mut Plane,
    chroma: bool,
    qp: u8,
) -> Option<()> {
    let st = steps(chroma, qp);
    for by in 0..blocks(plane.height()) {
        for bx in 0..blocks(plane.width()) {
            let levels = read_block(r)?;
            let mut rec = dct::inverse(&dequantize(&levels, &st));
            for v in &mut rec {
                *v = (*v + 128.0).clamp(0.0, 255.0);
            }
            plane.set_block8(bx, by, &rec);
        }
    }
    Some(())
}

pub(super) fn decode_residual_block(
    r: &mut super::bitstream::BitReader<'_>,
    reference: &Plane,
    recon: &mut Plane,
    bx: usize,
    by: usize,
    mv: MotionVector,
    st: &[f32; 64],
) -> Option<()> {
    let levels = read_block(r)?;
    let pred = pred_block8(reference, bx, by, mv);
    reconstruct(recon, bx, by, &pred, &levels, st);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_frame_is_intra() {
        let cfg = EncoderConfig::with_qp(Resolution::new(32, 32), 15.0, 24);
        let mut enc = Encoder::new(cfg);
        let e = enc.encode(&Frame::black(Resolution::new(32, 32)));
        assert_eq!(e.frame_type, FrameType::I);
        let e2 = enc.encode(&Frame::black(Resolution::new(32, 32)));
        assert_eq!(e2.frame_type, FrameType::P);
    }

    #[test]
    fn gop_cadence() {
        let mut cfg = EncoderConfig::with_qp(Resolution::new(16, 16), 15.0, 24);
        cfg.gop = 4;
        let mut enc = Encoder::new(cfg);
        let f = Frame::black(Resolution::new(16, 16));
        let types: Vec<FrameType> = (0..9).map(|_| enc.encode(&f).frame_type).collect();
        use FrameType::*;
        assert_eq!(types, vec![I, P, P, P, I, P, P, P, I]);
    }

    #[test]
    fn static_p_frames_are_tiny() {
        let cfg = EncoderConfig::with_qp(Resolution::new(64, 64), 15.0, 24);
        let mut enc = Encoder::new(cfg);
        let f = Frame::black(Resolution::new(64, 64));
        let i_frame = enc.encode(&f);
        let p_frame = enc.encode(&f);
        assert!(
            p_frame.data.len() * 4 < i_frame.data.len(),
            "P {} vs I {}",
            p_frame.data.len(),
            i_frame.data.len()
        );
    }

    #[test]
    fn force_keyframe_resets() {
        let cfg = EncoderConfig::with_qp(Resolution::new(16, 16), 15.0, 24);
        let mut enc = Encoder::new(cfg);
        let f = Frame::black(Resolution::new(16, 16));
        let _ = enc.encode(&f);
        let _ = enc.encode(&f);
        enc.force_keyframe();
        assert_eq!(enc.encode(&f).frame_type, FrameType::I);
    }

    #[test]
    #[should_panic(expected = "frame size changed")]
    fn rejects_resolution_change() {
        let cfg = EncoderConfig::with_qp(Resolution::new(16, 16), 15.0, 24);
        let mut enc = Encoder::new(cfg);
        let _ = enc.encode(&Frame::black(Resolution::new(32, 16)));
    }
}
