//! 8×8 type-II DCT and its inverse, orthonormal scaling.

/// Precomputed orthonormal DCT-II basis `C[k][n] = a(k)·cos((2n+1)kπ/16)`
/// and its transpose, both row-major.
fn basis() -> &'static ([f32; 64], [f32; 64]) {
    use std::sync::OnceLock;
    static BASIS: OnceLock<([f32; 64], [f32; 64])> = OnceLock::new();
    BASIS.get_or_init(|| {
        let (mut c, mut ct) = ([0.0f32; 64], [0.0f32; 64]);
        for k in 0..8 {
            let a = if k == 0 {
                (1.0f64 / 8.0).sqrt()
            } else {
                (2.0f64 / 8.0).sqrt()
            };
            for n in 0..8 {
                c[k * 8 + n] = (a
                    * ((2 * n + 1) as f64 * k as f64 * std::f64::consts::PI / 16.0).cos())
                    as f32;
                ct[n * 8 + k] = c[k * 8 + n];
            }
        }
        (c, ct)
    })
}

/// 8×8 matrix product `A·B`. Each output is the sum over `s` of
/// `a[r][s]·b[s][j]` taken in increasing `s` from `0.0`, a separate
/// multiply and add per term; the vector lanes are the eight outputs of a
/// row, so the order within each sum is the scalar one.
fn matmul8(a: &[f32; 64], b: &[f32; 64]) -> [f32; 64] {
    let mut out = [0.0f32; 64];
    for (a_row, out_row) in a.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
        for (&a_rs, b_row) in a_row.iter().zip(b.chunks_exact(8)) {
            for (o, &b_sj) in out_row.iter_mut().zip(b_row) {
                *o += a_rs * b_sj;
            }
        }
    }
    out
}

/// Forward 8×8 DCT: `F = C·X·Cᵀ`.
pub fn forward(block: &[f32; 64]) -> [f32; 64] {
    let (c, ct) = basis();
    matmul8(&matmul8(c, block), ct)
}

/// Inverse 8×8 DCT: `X = Cᵀ·F·C`.
pub fn inverse(coefs: &[f32; 64]) -> [f32; 64] {
    let (c, ct) = basis();
    matmul8(&matmul8(ct, coefs), c)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference transforms: one accumulator per output, terms
    /// in index order.
    fn forward_scalar(block: &[f32; 64]) -> [f32; 64] {
        let c = &basis().0;
        let (mut tmp, mut out) = ([0.0f32; 64], [0.0f32; 64]);
        for k in 0..8 {
            for n in 0..8 {
                let mut acc = 0.0;
                for m in 0..8 {
                    acc += c[k * 8 + m] * block[m * 8 + n];
                }
                tmp[k * 8 + n] = acc;
            }
        }
        for k in 0..8 {
            for l in 0..8 {
                let mut acc = 0.0;
                for n in 0..8 {
                    acc += tmp[k * 8 + n] * c[l * 8 + n];
                }
                out[k * 8 + l] = acc;
            }
        }
        out
    }

    fn inverse_scalar(coefs: &[f32; 64]) -> [f32; 64] {
        let c = &basis().0;
        let (mut tmp, mut out) = ([0.0f32; 64], [0.0f32; 64]);
        for m in 0..8 {
            for l in 0..8 {
                let mut acc = 0.0;
                for k in 0..8 {
                    acc += c[k * 8 + m] * coefs[k * 8 + l];
                }
                tmp[m * 8 + l] = acc;
            }
        }
        for m in 0..8 {
            for n in 0..8 {
                let mut acc = 0.0;
                for l in 0..8 {
                    acc += tmp[m * 8 + l] * c[l * 8 + n];
                }
                out[m * 8 + n] = acc;
            }
        }
        out
    }

    #[test]
    fn transforms_match_the_scalar_reference_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for round in 0..500 {
            let mut block = [0.0f32; 64];
            // Residuals, dequantized levels (many exact zeros), all zeros.
            for v in &mut block {
                *v = match round % 3 {
                    0 => rng.gen_range(-255.0f32..255.0),
                    1 if rng.gen_range(0..4) > 0 => 0.0,
                    1 => rng.gen_range(-40i32..40) as f32 * 17.5,
                    _ => 0.0,
                };
            }
            assert_eq!(
                forward(&block).map(f32::to_bits),
                forward_scalar(&block).map(f32::to_bits)
            );
            assert_eq!(
                inverse(&block).map(f32::to_bits),
                inverse_scalar(&block).map(f32::to_bits)
            );
        }
    }

    #[test]
    fn roundtrip_is_identity() {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = ((i * 37) % 255) as f32 - 128.0;
        }
        let back = inverse(&forward(&block));
        for (a, b) in block.iter().zip(&back) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn dc_of_constant_block() {
        let block = [100.0f32; 64];
        let f = forward(&block);
        // Orthonormal: DC = 8 · mean = 800.
        assert!((f[0] - 800.0).abs() < 1e-2);
        for &v in &f[1..] {
            assert!(v.abs() < 1e-3);
        }
    }

    #[test]
    fn energy_preservation_parseval() {
        let mut block = [0.0f32; 64];
        for (i, v) in block.iter_mut().enumerate() {
            *v = (i as f32).sin() * 50.0;
        }
        let f = forward(&block);
        let e_spatial: f32 = block.iter().map(|v| v * v).sum();
        let e_freq: f32 = f.iter().map(|v| v * v).sum();
        assert!((e_spatial - e_freq).abs() / e_spatial < 1e-4);
    }

    #[test]
    fn smooth_blocks_compact_energy() {
        // A gentle gradient should put almost all energy in low frequencies.
        let mut block = [0.0f32; 64];
        for j in 0..8 {
            for i in 0..8 {
                block[j * 8 + i] = (i + j) as f32 * 4.0;
            }
        }
        let f = forward(&block);
        let low: f32 = (0..3)
            .flat_map(|j| (0..3).map(move |i| f[j * 8 + i] * f[j * 8 + i]))
            .sum();
        let total: f32 = f.iter().map(|v| v * v).sum();
        assert!(low / total > 0.99);
    }
}
