//! The decoder: parses the bitstream and mirrors the encoder's
//! reconstruction exactly (the encoder runs this same math in its closed
//! loop, so encoder reference and decoder output never drift).

use super::bitstream::BitReader;
use super::color::Ycbcr420;
use super::encoder::{
    blocks, copy_mb, decode_plane_intra, decode_residual_block, read_header, EncodedFrame,
};
use super::motion::MotionVector;
use super::quant::{steps, QP_MAX};
use super::MB;
use crate::{Frame, Resolution};

/// Errors from decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The bitstream ended early or a code was malformed.
    Corrupt(&'static str),
    /// A P-frame arrived with no reference (stream must start with an
    /// I-frame, and [`Decoder::reset`] discards the reference).
    MissingReference,
    /// A P-frame's header resolution differs from its reference's.
    ReferenceMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Corrupt(what) => write!(f, "corrupt bitstream: {what}"),
            DecodeError::MissingReference => write!(f, "P-frame without a reference frame"),
            DecodeError::ReferenceMismatch => {
                write!(f, "P-frame resolution differs from its reference")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// The FBC decoder. Feed encoded frames in order.
#[derive(Debug, Default)]
pub struct Decoder {
    reference: Option<Ycbcr420>,
}

impl Decoder {
    /// Creates a decoder.
    pub fn new() -> Self {
        Decoder::default()
    }

    /// Discards the reference (e.g. when seeking to a new GOP).
    pub fn reset(&mut self) {
        self.reference = None;
    }

    /// Decodes one frame.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::Corrupt`] for malformed bitstreams,
    /// [`DecodeError::MissingReference`] for a P-frame with no prior
    /// I-frame and [`DecodeError::ReferenceMismatch`] for a P-frame of
    /// another size than its reference.
    pub fn decode(&mut self, encoded: &EncodedFrame) -> Result<Frame, DecodeError> {
        let mut r = BitReader::new(&encoded.data);
        let hdr = read_header(&mut r).ok_or(DecodeError::Corrupt("header"))?;
        let res = Resolution::new(hdr.width, hdr.height);
        if res.pixels() == 0 {
            return Err(DecodeError::Corrupt("empty resolution"));
        }
        if hdr.qp > QP_MAX {
            return Err(DecodeError::Corrupt("qp"));
        }
        // The header must not make us allocate more than the payload can
        // fill: an intra block costs at least 14 bits (a zero DC and the
        // end-of-block code), a P macroblock at least its one-bit SKIP.
        let min_bits = if hdr.intra {
            let (cw, ch) = (res.width.div_ceil(2), res.height.div_ceil(2));
            14 * (blocks(res.width) * blocks(res.height) + 2 * blocks(cw) * blocks(ch))
        } else {
            res.width.div_ceil(MB) * res.height.div_ceil(MB)
        };
        if min_bits > r.bits_left() {
            return Err(DecodeError::Corrupt("truncated"));
        }
        // A P-frame is checked against its reference before anything is
        // allocated for it; failing either check costs the reference, as a
        // failed P-frame always has.
        let reference = if hdr.intra {
            None
        } else {
            match self.reference.take() {
                None => return Err(DecodeError::MissingReference),
                Some(r) if r.resolution != res => return Err(DecodeError::ReferenceMismatch),
                reference => reference,
            }
        };
        let mut recon = Ycbcr420::black(res);
        if let Some(reference) = &reference {
            self.decode_inter(&mut r, reference, &mut recon, hdr.qp)?;
        } else {
            decode_plane_intra(&mut r, &mut recon.y, false, hdr.qp)
                .ok_or(DecodeError::Corrupt("luma plane"))?;
            decode_plane_intra(&mut r, &mut recon.cb, true, hdr.qp)
                .ok_or(DecodeError::Corrupt("cb plane"))?;
            decode_plane_intra(&mut r, &mut recon.cr, true, hdr.qp)
                .ok_or(DecodeError::Corrupt("cr plane"))?;
        }
        let frame = recon.to_frame();
        self.reference = Some(recon);
        Ok(frame)
    }

    fn decode_inter(
        &mut self,
        r: &mut BitReader<'_>,
        reference: &Ycbcr420,
        recon: &mut Ycbcr420,
        qp: u8,
    ) -> Result<(), DecodeError> {
        let st_luma = steps(false, qp);
        let st_chroma = steps(true, qp);
        let mbs_x = recon.y.width().div_ceil(MB);
        let mbs_y = recon.y.height().div_ceil(MB);
        for mby in 0..mbs_y {
            for mbx in 0..mbs_x {
                let mode = r.get_ue().ok_or(DecodeError::Corrupt("mb mode"))?;
                match mode {
                    0 => copy_mb(reference, recon, mbx, mby),
                    1 => {
                        let dx = r.get_se().ok_or(DecodeError::Corrupt("mv dx"))?;
                        let dy = r.get_se().ok_or(DecodeError::Corrupt("mv dy"))?;
                        let mv = MotionVector { dx, dy };
                        for (by, bx) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                            decode_residual_block(
                                r,
                                &reference.y,
                                &mut recon.y,
                                mbx * 2 + bx,
                                mby * 2 + by,
                                mv,
                                &st_luma,
                            )
                            .ok_or(DecodeError::Corrupt("luma residual"))?;
                        }
                        let cmv = MotionVector {
                            dx: mv.dx / 2,
                            dy: mv.dy / 2,
                        };
                        for (reference, recon, what) in [
                            (&reference.cb, &mut recon.cb, "cb residual"),
                            (&reference.cr, &mut recon.cr, "cr residual"),
                        ] {
                            decode_residual_block(r, reference, recon, mbx, mby, cmv, &st_chroma)
                                .ok_or(DecodeError::Corrupt(what))?;
                        }
                    }
                    _ => return Err(DecodeError::Corrupt("unknown mb mode")),
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{Encoder, EncoderConfig};

    /// A smooth diagonal gradient (no high-frequency chroma, so 4:2:0
    /// subsampling is not the quality bottleneck); `phase` slides it to
    /// create motion between frames.
    fn gradient_frame(res: Resolution, phase: usize) -> Frame {
        let mut f = Frame::black(res);
        for y in 0..res.height {
            for x in 0..res.width {
                let v = (x * 2 + y + phase * 4).min(250) as u8;
                f.set_pixel(x, y, [v, v.saturating_add(5), v / 2 + 40]);
            }
        }
        f
    }

    #[test]
    fn intra_roundtrip_quality_by_qp() {
        let res = Resolution::new(64, 48);
        let frame = gradient_frame(res, 0);
        let mut psnrs = Vec::new();
        for qp in [8u8, 24, 40] {
            let mut enc = Encoder::new(EncoderConfig::with_qp(res, 15.0, qp));
            let mut dec = Decoder::new();
            let decoded = dec.decode(&enc.encode(&frame)).unwrap();
            psnrs.push(decoded.psnr(&frame));
        }
        assert!(psnrs[0] > psnrs[1] && psnrs[1] > psnrs[2], "{psnrs:?}");
        assert!(psnrs[0] > 35.0, "QP 8 should be high quality: {psnrs:?}");
    }

    #[test]
    fn p_frames_track_motion() {
        let res = Resolution::new(64, 48);
        let mut enc = Encoder::new(EncoderConfig::with_qp(res, 15.0, 20));
        let mut dec = Decoder::new();
        for t in 0..6 {
            let frame = gradient_frame(res, t);
            let decoded = dec.decode(&enc.encode(&frame)).unwrap();
            assert!(
                decoded.psnr(&frame) > 28.0,
                "frame {t}: {}",
                decoded.psnr(&frame)
            );
        }
    }

    #[test]
    fn p_frame_without_reference_errors() {
        let res = Resolution::new(32, 32);
        let mut enc = Encoder::new(EncoderConfig::with_qp(res, 15.0, 20));
        let _ = enc.encode(&Frame::black(res));
        let p = enc.encode(&Frame::black(res));
        let mut dec = Decoder::new();
        assert_eq!(dec.decode(&p), Err(DecodeError::MissingReference));
    }

    #[test]
    fn corrupt_stream_is_an_error_not_a_panic() {
        let res = Resolution::new(32, 32);
        let mut enc = Encoder::new(EncoderConfig::with_qp(res, 15.0, 20));
        let mut e = enc.encode(&Frame::black(res));
        e.data.truncate(3);
        let mut dec = Decoder::new();
        assert!(matches!(dec.decode(&e), Err(DecodeError::Corrupt(_))));
    }

    #[test]
    fn header_qp_past_the_range_is_corrupt() {
        let res = Resolution::new(32, 32);
        let mut e = Encoder::new(EncoderConfig::with_qp(res, 15.0, 20)).encode(&Frame::black(res));
        // Header: 16 + 16 bits of size, the intra bit, six bits of QP.
        for qp in 52..=63u8 {
            e.data[4] = (e.data[4] & 0x81) | (qp << 1);
            assert_eq!(
                Decoder::new().decode(&e),
                Err(DecodeError::Corrupt("qp")),
                "qp {qp}"
            );
        }
        e.data[4] = (e.data[4] & 0x81) | (51 << 1);
        assert!(Decoder::new().decode(&e).is_ok());
    }

    #[test]
    fn giant_header_on_a_tiny_payload_is_rejected() {
        // 65535×65535 in five bytes: ~25 GB of planes if believed.
        for intra in [0x80, 0x00] {
            let e = EncodedFrame {
                data: vec![0xFF, 0xFF, 0xFF, 0xFF, intra | (20 << 1)],
                frame_type: crate::codec::FrameType::I,
                qp: 20,
            };
            let mut dec = Decoder::new();
            assert_eq!(dec.decode(&e), Err(DecodeError::Corrupt("truncated")));
        }
    }

    #[test]
    fn p_frame_of_another_size_than_its_reference_is_a_typed_error() {
        let (small, large) = (Resolution::new(32, 32), Resolution::new(48, 32));
        let mut enc_small = Encoder::new(EncoderConfig::with_qp(small, 15.0, 20));
        let mut enc_large = Encoder::new(EncoderConfig::with_qp(large, 15.0, 20));
        let mut dec = Decoder::new();
        dec.decode(&enc_small.encode(&Frame::black(small))).unwrap();
        let _ = enc_large.encode(&Frame::black(large));
        let p_large = enc_large.encode(&Frame::black(large));
        assert_eq!(dec.decode(&p_large), Err(DecodeError::ReferenceMismatch));
        // Like any failed P-frame, it costs the reference.
        let p_small = enc_small.encode(&Frame::black(small));
        assert_eq!(dec.decode(&p_small), Err(DecodeError::MissingReference));
    }

    #[test]
    fn odd_resolutions_roundtrip() {
        let res = Resolution::new(50, 38);
        let frame = gradient_frame(res, 1);
        let mut enc = Encoder::new(EncoderConfig::with_qp(res, 15.0, 16));
        let mut dec = Decoder::new();
        let d1 = dec.decode(&enc.encode(&frame)).unwrap();
        assert_eq!(d1.resolution(), res);
        let d2 = dec.decode(&enc.encode(&frame)).unwrap();
        assert_eq!(d2.resolution(), res);
        assert!(d2.psnr(&frame) > 28.0);
    }
}
