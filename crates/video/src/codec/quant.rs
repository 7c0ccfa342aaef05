//! Quantization: JPEG-style base matrices scaled by a QP, plus the zigzag
//! scan and run-level coefficient coding.

use super::bitstream::{BitReader, BitWriter};

/// Valid QP range. Higher QP ⇒ coarser quantization ⇒ fewer bits.
pub const QP_MIN: u8 = 0;
/// Maximum QP (H.264-style range).
pub const QP_MAX: u8 = 51;

/// JPEG annex-K luminance quantization matrix (quality 50 reference).
const LUMA_Q: [f32; 64] = [
    16., 11., 10., 16., 24., 40., 51., 61., 12., 12., 14., 19., 26., 58., 60., 55., 14., 13., 16.,
    24., 40., 57., 69., 56., 14., 17., 22., 29., 51., 87., 80., 62., 18., 22., 37., 56., 68., 109.,
    103., 77., 24., 35., 55., 64., 81., 104., 113., 92., 49., 64., 78., 87., 103., 121., 120.,
    101., 72., 92., 95., 98., 112., 100., 103., 99.,
];

/// JPEG annex-K chrominance quantization matrix.
const CHROMA_Q: [f32; 64] = [
    17., 18., 24., 47., 99., 99., 99., 99., 18., 21., 26., 66., 99., 99., 99., 99., 24., 26., 56.,
    99., 99., 99., 99., 99., 47., 66., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99.,
    99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99., 99.,
    99., 99., 99., 99., 99., 99., 99.,
];

/// Zigzag scan order for an 8×8 block.
pub const ZIGZAG: [usize; 64] = [
    0, 1, 8, 16, 9, 2, 3, 10, 17, 24, 32, 25, 18, 11, 4, 5, 12, 19, 26, 33, 40, 48, 41, 34, 27, 20,
    13, 6, 7, 14, 21, 28, 35, 42, 49, 56, 57, 50, 43, 36, 29, 22, 15, 23, 30, 37, 44, 51, 58, 59,
    52, 45, 38, 31, 39, 46, 53, 60, 61, 54, 47, 55, 62, 63,
];

/// QP → multiplicative scale on the base matrices. Six QP steps double the
/// step size, anchored so QP 20 ≈ JPEG quality-50.
pub fn qp_scale(qp: u8) -> f32 {
    debug_assert!(qp <= QP_MAX);
    2f32.powf((qp as f32 - 20.0) / 6.0)
}

/// Per-coefficient quantizer step sizes for a plane kind at a QP.
pub fn steps(chroma: bool, qp: u8) -> [f32; 64] {
    let base = if chroma { &CHROMA_Q } else { &LUMA_Q };
    let s = qp_scale(qp);
    let mut out = [0.0f32; 64];
    for (o, b) in out.iter_mut().zip(base) {
        *o = (b * s).max(1.0);
    }
    out
}

/// Quantizes DCT coefficients to integer levels: `(c / q).round() as i32`.
pub fn quantize(coefs: &[f32; 64], steps: &[f32; 64]) -> [i32; 64] {
    let mut rounded = [0.0f32; 64];
    for ((r, &c), &q) in rounded.iter_mut().zip(coefs).zip(steps) {
        *r = (c / q).round();
    }
    // The saturating `as i32` does not vectorize. For an integer-valued `r`
    // with |r| ≤ 2²² the sum `r + 1.5·2²³` is exact and carries `r` in its
    // low mantissa bits; anything larger (or NaN) takes the plain cast.
    const MAGIC: f32 = 12_582_912.0;
    if rounded.iter().all(|r| r.abs() <= 4_194_304.0) {
        rounded.map(|r| ((r + MAGIC).to_bits() as i32).wrapping_sub(MAGIC.to_bits() as i32))
    } else {
        rounded.map(|r| r as i32)
    }
}

/// Reconstructs DCT coefficients from integer levels.
pub fn dequantize(levels: &[i32; 64], steps: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for ((o, &l), &q) in out.iter_mut().zip(levels).zip(steps) {
        *o = l as f32 * q;
    }
    out
}

/// End-of-block marker in the run-level code (a legal zero-run never
/// reaches 63).
const EOB: u32 = 63;

/// Writes one quantized block: DC as signed Exp-Golomb, then (run, level)
/// pairs over the zigzag-scanned ACs, terminated by an EOB marker.
pub fn write_block(w: &mut BitWriter, levels: &[i32; 64]) {
    w.put_se(levels[0]);
    let mut run = 0u32;
    for &zz in &ZIGZAG[1..] {
        let v = levels[zz];
        if v == 0 {
            run += 1;
        } else {
            w.put_ue(run);
            w.put_se(v);
            run = 0;
        }
    }
    w.put_ue(EOB);
}

/// Reads one quantized block written by [`write_block`].
///
/// Returns `None` on a truncated or corrupt stream.
pub fn read_block(r: &mut BitReader<'_>) -> Option<[i32; 64]> {
    let mut levels = [0i32; 64];
    levels[0] = r.get_se()?;
    let mut pos = 1usize; // index into ZIGZAG
    loop {
        let run = r.get_ue()?;
        if run == EOB {
            break;
        }
        pos += run as usize;
        if pos >= 64 {
            return None; // corrupt: run past block end
        }
        levels[ZIGZAG[pos]] = r.get_se()?;
        pos += 1;
    }
    Some(levels)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar definition, over everything a coefficient can be:
    /// ordinary values, halves (round-half-away), the edges of the fast
    /// range, the saturating casts, infinities and NaN.
    #[test]
    fn quantize_matches_the_scalar_definition() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let special = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            -2.5,
            0.499_999_97,
            4_194_303.5,
            4_194_304.0,
            -4_194_304.0,
            4_194_305.0,
            8_388_609.0,
            2.2e9,
            -2.2e9,
            3e38,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        for round in 0..200 {
            let mut coefs = [0.0f32; 64];
            for c in &mut coefs {
                *c = match round % 4 {
                    0 => rng.gen_range(-2100.0f32..2100.0),
                    1 => rng.gen_range(-40i32..40) as f32 / 2.0,
                    _ => special[rng.gen_range(0..special.len())],
                };
            }
            let steps = if round % 2 == 0 {
                steps(false, 20)
            } else {
                [1.0; 64]
            };
            if round % 4 == 3 {
                coefs[1..].fill(3.0); // one special value among ordinary ones
            }
            let mut want = [0i32; 64];
            for i in 0..64 {
                want[i] = (coefs[i] / steps[i]).round() as i32;
            }
            assert_eq!(quantize(&coefs, &steps), want, "{coefs:?}");
        }
    }

    #[test]
    fn zigzag_is_permutation() {
        let mut seen = [false; 64];
        for &i in &ZIGZAG {
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn qp_scale_doubles_every_six() {
        assert!((qp_scale(26) / qp_scale(20) - 2.0).abs() < 1e-5);
        assert!((qp_scale(20) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn higher_qp_zeroes_more_coefficients() {
        let mut coefs = [0.0f32; 64];
        for (i, c) in coefs.iter_mut().enumerate() {
            *c = 100.0 / (1.0 + i as f32);
        }
        let nz = |qp: u8| {
            quantize(&coefs, &steps(false, qp))
                .iter()
                .filter(|&&v| v != 0)
                .count()
        };
        assert!(nz(10) >= nz(30));
        assert!(nz(30) >= nz(50));
        assert!(nz(50) < nz(10));
    }

    #[test]
    fn quant_dequant_error_bounded_by_half_step() {
        let st = steps(false, 25);
        let mut coefs = [0.0f32; 64];
        for (i, c) in coefs.iter_mut().enumerate() {
            *c = (i as f32 * 7.3) - 200.0;
        }
        let back = dequantize(&quantize(&coefs, &st), &st);
        for ((&a, &b), &q) in coefs.iter().zip(&back).zip(&st) {
            assert!((a - b).abs() <= q / 2.0 + 1e-3);
        }
    }

    #[test]
    fn block_coding_roundtrip() {
        let mut levels = [0i32; 64];
        levels[0] = -17;
        levels[1] = 3;
        levels[8] = -1;
        levels[35] = 2;
        levels[63] = 1;
        let mut w = BitWriter::new();
        write_block(&mut w, &levels);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_block(&mut r), Some(levels));
    }

    #[test]
    fn empty_block_is_cheap() {
        let levels = [0i32; 64];
        let mut w = BitWriter::new();
        write_block(&mut w, &levels);
        // DC se(0) = 1 bit + EOB ue(63) = 13 bits → fits in 2 bytes.
        assert!(w.finish().len() <= 2);
    }
}
