//! Prepacked weight panels at the node's two precision rungs — f32 and
//! whole-int8 ([`Precision`], [`PackedPanels`]) — and the whole-int8 GEMM.
//!
//! # Why there are two rungs
//!
//! The base DNN is the frame (paper Fig. 6), so a rung earns its place by
//! making the base DNN faster or by letting the node hold more of them
//! (Fig. 5). Two weight-only rungs used to sit between the survivors: f16
//! panels (software binary16 pack, hardware half-to-single widen) and int8
//! panels with one scale per column (sign-extend widen), both accumulating
//! in f32. They were deleted because they lost to f32 on every axis
//! anything consumed. One `bench_throughput` run per row, one thread, on a
//! box whose speed drifts — the *ordering*, the same in every snapshot
//! taken since the rungs landed, is the evidence, not the fps; verdict
//! flips are MCs trained at f32 and scored at each rung (3 seeds × 2 MC
//! kinds × 900 test frames, threshold from training):
//!
//! | rung        | fps 120×67 α=0.5 | fps 480×270 α=1 | panel bytes / column | verdict flips vs f32 |
//! |-------------|------------------|-----------------|----------------------|----------------------|
//! | **f32**     | 981              | 21.9            | `4·K`                | —                    |
//! | f16 (gone)  | 929 (0.95×)      | 18.3 (0.83×)    | `2·K`                | 0–10 of 900          |
//! | int8 (gone) | 984 (1.00×)      | 20.4 (0.93×)    | `K + 4`              | 1–180 of 900         |
//! | **int8act** | 1646 (1.68×)     | 45.2 (2.06×)    | `K + 8·⌈K/64⌉`       | 2–185 of 900         |
//!
//! Widening a narrow panel element back to f32 costs more than the bytes
//! it saves, even at the panel-bound geometry; the smaller panels bought
//! nothing, because admission prices streams with an f32-only memory model;
//! and weight-only int8 already sits in whole-int8's agreement class (F1
//! moves ±0.06 either way for both) at half its speed. Whole-int8 panels
//! are *not* the smallest that existed: per column they carry a scale and a
//! code sum per 64-row K-group, about 12 % more than weight-only int8's one
//! scale. They are a quarter of f32's.
//!
//! # Whole-int8 quantization scheme ([`Precision::Int8Act`])
//!
//! The [`gemm_prepacked_i8i8`] path quantizes *both* operands so the inner
//! loop is pure integer arithmetic (`vpmaddubsw` + `vpmaddwd` on AVX2, one
//! `vpdpbusd` where the CPU has AVX-VNNI or AVX-512 VNNI — see "Instruction
//! selection"):
//!
//! - **Activations** are quantized dynamically, per row (per frame for the
//!   conv layers), to **asymmetric u8**: the row range is widened to
//!   include 0 (`lo = min(0, min aᵢ)`, `hi = max(0, max aᵢ)`), then
//!   `scale = (hi − lo)/255`, `zp = round(−lo/scale)` clamped to `[0, 255]`
//!   and `q = clamp(round(a/scale) + zp, 0, 255)`. Asymmetry matters
//!   because post-ReLU maps are one-sided — a symmetric scheme would waste
//!   half the code range; forcing 0 into the range makes `a = 0` encode
//!   exactly to `zp`, so SAME-padding contributes exactly zero. See
//!   [`quantize_a_rows_into`].
//! - **Weights** are quantized at pack time to **symmetric s8 with one
//!   scale per `group_size` rows of K per column** (`scale = max|group|/63`,
//!   all-zero groups get scale 1.0), quad-interleaved for the SIMD kernel.
//!   Grouping along K bounds the quantization error by the local — not
//!   global — column range, which is what buys back the bit spent on the
//!   `[-63, 63]` code range (see below). See [`pack_b_panels_i8i8_into`].
//! - **Accumulation is i32**, exactly: per `k`-quad the kernel computes
//!   `sat16(a₀w₀ + a₁w₁) + sat16(a₂w₂ + a₃w₃)` (the `vpmaddubsw`
//!   saturating-pair contract, emulated bit-for-bit by the scalar
//!   fallback) and adds it into per-group i32 accumulators. Weight codes
//!   are clamped to `[-63, 63]` precisely so that contract can never
//!   actually clip (`255·63·2 = 32130 < 2¹⁵`): the u8×s8 pair sum always
//!   fits i16, making the SIMD instruction exact integer arithmetic.
//!   Integer adds are order-independent, so the result is bit-identical
//!   for any thread count, shard width, or batch size.
//! - **Dequantization is fused, once per group**: the zero-point is folded
//!   via precomputed per-(group, column) weight-code sums
//!   (`Σ(q−zp)·w = Σq·w − zp·Σw`), the compensated i32 converts exactly to
//!   f32 and FMA-accumulates with the group's weight scale, and the row's
//!   activation scale multiplies the finished sum — which then feeds the
//!   ordinary f32 [`Epilogue`] (bias / BN / ReLU), unchanged: the tile
//!   applies it to its registers and stores each output once.
//!
//! # Instruction selection
//!
//! The quad step has three x86 encodings: `vpmaddubsw` + `vpmaddwd(·, 1)` +
//! `vpaddd` (AVX2, three µops per 32 multiply-adds, i16 pair sums that
//! saturate), `ymm` `vpdpbusd` (AVX-VNNI, one µop, no saturation) and `zmm`
//! `vpdpbusd` (AVX-512 VNNI, one µop per 64 multiply-adds). Because packed
//! weight codes are clamped to `[-63, 63]`, a pair sum is at most
//! `2·255·63 = 32130 < 2¹⁵` and never saturates, so on packed panels the
//! three sequences are **the same integer function** and everything after
//! them — compensation, dequant, epilogue — is the same float operation
//! per lane. The tile body is therefore written once, generic over the
//! lane type and its step (`simd::QuadLanes`, the way the f32 tile is
//! generic over [`crate::matmul`]'s `Lanes`), and instantiated three times:
//! 8 rows × 32 columns under `#[target_feature(enable =
//! "avx512f,avx512vnni")]` — the quad layout is one `zmm` per panel per
//! `k`-quad, so a tile covers two adjacent panels — and 4 rows × 16 columns
//! under `"avx2,fma,avxvnni"` and under the build's own AVX2+FMA baseline.
//! [`PackedPanels::gemm_u8`] picks one per call from CPUID; nothing else —
//! no option, feature or environment variable — reaches any of them:
//!
//! | host                             | quad step          |
//! |----------------------------------|--------------------|
//! | AVX2 only                        | `vpmaddubsw` (ymm) |
//! | AVX-VNNI without AVX-512         | `vpdpbusd` (ymm)   |
//! | AVX-512F and AVX-512 VNNI        | `vpdpbusd` (zmm)   |
//!
//! The last row includes Cascade Lake and Ice Lake servers, which have no
//! AVX-VNNI and ran the AVX2 sequence until the `zmm` tile existed.
//!
//! Results are host-independent: a given build produces the same bits on
//! all three, and from the scalar walk (builds without FMA contract
//! nothing, so they differ from FMA builds in the float dequant, as every
//! GEMM path here does, but again not by host; they compile no SIMD tile
//! and run the scalar walk on every host).
//!
//! The raw [`gemm_prepacked_i8i8`] entry point takes the caller's codes,
//! which may be as wide as ±127 and *can* saturate; it always runs the
//! saturating sequence (or its scalar twin).

use crate::matmul::{fmadd, Epilogue, MIN_ELEMS_FOR_THREADS, MR, NR};
use crate::matmul::{pack_b_panels_into, packed_panels_len};
use crate::parallel::{parallel_row_blocks_mut, threads};

/// The precision a layer's GEMMs run at — the two rungs of the node's
/// precision ladder (the module docs say why there are two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Precision {
    /// f32 panels, f32 activations, f32 FMA accumulation — the bit-exact
    /// baseline path.
    #[default]
    F32,
    /// Whole-int8: symmetric s8 panels with per-`K`-group scales *and*
    /// dynamically quantized asymmetric u8 activations, accumulated in i32
    /// (`vpdpbusd` with either VNNI extension, else `vpmaddubsw`/`vpmaddwd`;
    /// same bits)
    /// with one fused dequant per group. Only the epilogue is f32.
    /// Quarters panel bytes and replaces the f32 FMA chain with integer
    /// arithmetic.
    Int8Act,
}

impl Precision {
    /// Short lowercase label (`"f32"`, `"int8act"`) for bench rows and
    /// logs.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8Act => "int8act",
        }
    }

    /// Bytes of the packed panel array for a `[K, N]` weight matrix at this
    /// precision, **excluding** the whole-int8 per-group scales and column
    /// sums ([`packed_scales_i8i8_len`] entries of 4 bytes each on top).
    /// Int8Act is a quarter of F32 once `K` is padded to whole quads.
    pub fn packed_panel_bytes(self, k: usize, n: usize) -> usize {
        match self {
            Precision::F32 => packed_panels_len(k, n) * 4,
            Precision::Int8Act => packed_panels_i8i8_len(k, n),
        }
    }
}

// ---------------------------------------------------------------------------
// Whole-int8 packing (u8 activations × s8 weights)
// ---------------------------------------------------------------------------

/// `N` rounded up to whole `NR`-wide panels — the column extent of the
/// per-group scale and column-sum vectors, so the tile can load full
/// vectors without a ragged tail.
pub fn packed_scales_i8_len(n: usize) -> usize {
    n.div_ceil(NR) * NR
}

/// Default K-group size for per-group weight scales on the whole-int8 path
/// (must be a multiple of 4, the `vpmaddubsw` quad width). 64 keeps the
/// group-local range tight on MobileNet fan-ins while adding only one fused
/// dequant per 16 k-quads.
pub const I8I8_GROUP_SIZE: usize = 64;

/// K rounded up to whole `vpmaddubsw` quads — the row stride of quantized
/// activation buffers and the packed K extent of i8i8 panels.
#[inline]
pub fn i8i8_padded_k(k: usize) -> usize {
    k.next_multiple_of(4)
}

/// Number of K-groups the i8i8 pack splits `k` into at `group_size`.
#[inline]
pub fn i8i8_groups(k: usize, group_size: usize) -> usize {
    i8i8_padded_k(k).div_ceil(group_size)
}

/// Length (in `i8` elements) of the panel buffer
/// [`pack_b_panels_i8i8_into`] needs for a `[K, N]` matrix: the f32 panel
/// element count with K padded to whole quads.
pub fn packed_panels_i8i8_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * i8i8_padded_k(k)
}

/// Length of the per-(K-group, column) scale and column-sum vectors
/// [`pack_b_panels_i8i8_into`] needs: one entry per group per column,
/// columns padded to whole `NR`-wide panels.
pub fn packed_scales_i8i8_len(k: usize, n: usize, group_size: usize) -> usize {
    i8i8_groups(k, group_size) * packed_scales_i8_len(n)
}

/// Packs a row-major `[K, N]` matrix into **quad-interleaved** symmetric
/// int8 panels for the whole-int8 kernel, with one scale *per `group_size`
/// rows of K per column* (`scale = max|group|/63`, codes clamped to
/// `[-63, 63]` so the `vpmaddubsw` pair sum can never saturate — see the
/// module docs) and precomputed per-(group, column) i32 sums of the weight
/// codes (the zero-point compensation term).
///
/// Panel layout: panel `jp` holds `ceil(K/4)` quads of `NR × 4` bytes; the
/// byte at `quad·NR·4 + jo·4 + t` is column `jp·NR + jo`, row `4·quad + t`
/// — so one 32-byte SIMD load covers 8 columns × 4 K-rows (and one 64-byte
/// load a whole panel's quad), exactly the shape `vpmaddubsw` and
/// `vpdpbusd` consume against a broadcast activation quad. K-rows
/// past `K` and columns past `N` pack as zero codes; all-zero (or padded)
/// group-columns get scale 1.0, and the column sums include only real rows
/// (padded codes are zero, so they drop out of both the dot product and
/// the compensation).
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions, or `group_size`
/// is not a positive multiple of 4.
pub fn pack_b_panels_i8i8_into(
    b: &[f32],
    packed: &mut [i8],
    scales: &mut [f32],
    colsums: &mut [i32],
    k: usize,
    n: usize,
    group_size: usize,
) {
    assert!(
        group_size > 0 && group_size.is_multiple_of(4),
        "i8i8 group size must be a positive multiple of 4"
    );
    assert_eq!(b.len(), k * n, "pack B buffer");
    assert_eq!(
        packed.len(),
        packed_panels_i8i8_len(k, n),
        "pack i8i8 output"
    );
    let gl = packed_scales_i8i8_len(k, n, group_size);
    assert_eq!(scales.len(), gl, "pack i8i8 scales");
    assert_eq!(colsums.len(), gl, "pack i8i8 column sums");
    scales.fill(1.0);
    colsums.fill(0);
    packed.fill(0);
    let kp = i8i8_padded_k(k);
    let np = packed_scales_i8_len(n);
    let groups = i8i8_groups(k, group_size);
    for g in 0..groups {
        let k0 = g * group_size;
        let k1 = (k0 + group_size).min(k);
        for j in 0..n {
            let mut amax = 0.0f32;
            for kk in k0..k1 {
                amax = amax.max(b[kk * n + j].abs());
            }
            if amax > 0.0 {
                scales[g * np + j] = amax / 63.0;
            }
        }
    }
    let panels = n.div_ceil(NR);
    for jp in 0..panels {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let dst = &mut packed[jp * NR * kp..(jp + 1) * NR * kp];
        for kk in 0..k {
            let g = kk / group_size;
            let quad = kk / 4;
            let t = kk % 4;
            for jo in 0..w {
                let j = j0 + jo;
                let s = scales[g * np + j];
                let q = (b[kk * n + j] / s).round().clamp(-63.0, 63.0) as i8;
                dst[quad * NR * 4 + jo * 4 + t] = q;
                colsums[g * np + j] += q as i32;
            }
        }
    }
}

/// Dynamically quantizes `m` rows of `k` f32 activations to asymmetric u8
/// with one `(scale, zero_point)` pair per row — the A-side of
/// [`gemm_prepacked_i8i8`]. Each output row is `i8i8_padded_k(k)` bytes
/// (quad-padded with zeros; padded weight codes are also zero, so the pad
/// contributes nothing).
///
/// The row range is widened to include 0, so `a = 0.0` encodes exactly to
/// the zero point and post-ReLU rows use the full `[0, 255]` code range
/// (see the module docs). A constant-zero row gets scale 1.0, zero point 0.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions.
pub fn quantize_a_rows_into(
    a: &[f32],
    q: &mut [u8],
    scales: &mut [f32],
    zps: &mut [u8],
    m: usize,
    k: usize,
) {
    let kp = i8i8_padded_k(k);
    assert_eq!(a.len(), m * k, "quantize A buffer");
    assert_eq!(q.len(), m * kp, "quantize A codes");
    assert_eq!(scales.len(), m, "quantize A scales");
    assert_eq!(zps.len(), m, "quantize A zero-points");
    for i in 0..m {
        let row = &a[i * k..(i + 1) * k];
        let (scale, zp) = row_qparams(row);
        scales[i] = scale;
        zps[i] = zp;
        let dst = &mut q[i * kp..(i + 1) * kp];
        quantize_row(row, scale, zp, dst);
    }
}

/// Quantizes one flat f32 slice to asymmetric u8 with a single
/// `(scale, zero_point)` pair — the per-frame variant the conv layers use
/// to quantize an input feature map once, before the u8 im2col gather
/// (`q.len() == x.len()`, no quad padding; the im2col pads rows instead).
/// It is [`map_qparams_u8`], then [`quantize_u8_with`].
pub fn quantize_map_u8_into(x: &[f32], q: &mut [u8]) -> (f32, u8) {
    let params = row_qparams(x);
    quantize_u8_with(x, params, q);
    params
}

/// The `(scale, zero_point)` [`quantize_map_u8_into`] codes `x` with.
pub fn map_qparams_u8(x: &[f32]) -> (f32, u8) {
    row_qparams(x)
}

/// Codes `x` into `q` (`q.len() == x.len()`) under `(scale, zero_point)`.
/// Each code is a function of its own element alone, so coding a map in
/// pieces under its whole map's [`map_qparams_u8`] writes exactly the
/// codes [`quantize_map_u8_into`] writes for the whole.
pub fn quantize_u8_with(x: &[f32], (scale, zp): (f32, u8), q: &mut [u8]) {
    assert_eq!(x.len(), q.len(), "quantize map buffer");
    quantize_row(x, scale, zp, q);
}

/// Asymmetric u8 quantization parameters for a slice, range widened to
/// include 0 (so zero encodes exactly and one-sided ReLU ranges keep the
/// full code space).
///
/// The range scan runs as an 8-lane `vminps`/`vmaxps` sweep (the naive
/// fold is a serial `maxss` dependency chain, and this pass runs over
/// every feature map on the whole-int8 path); min/max are associative and
/// commutative and maps hold no NaNs, so the lane split and the scalar
/// fallback agree on every input either path ever sees.
fn row_qparams(row: &[f32]) -> (f32, u8) {
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    // SAFETY: avx2 is a compile-time target feature here.
    let (lo, hi) = unsafe { minmax_avx2(row) };
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    let (lo, hi) = minmax_generic(row);
    if hi <= lo {
        return (1.0, 0);
    }
    let scale = (hi - lo) / 255.0;
    let zp = (-lo / scale).round().clamp(0.0, 255.0) as u8;
    (scale, zp)
}

/// Portable min/max sweep with 8 independent lanes, seeded at 0.0 (the
/// range always includes zero — see [`row_qparams`]).
#[allow(dead_code)]
fn minmax_generic(row: &[f32]) -> (f32, f32) {
    const L: usize = 8;
    let mut lo_v = [0.0f32; L];
    let mut hi_v = [0.0f32; L];
    let mut chunks = row.chunks_exact(L);
    for c in chunks.by_ref() {
        for i in 0..L {
            lo_v[i] = lo_v[i].min(c[i]);
            hi_v[i] = hi_v[i].max(c[i]);
        }
    }
    let mut lo = 0.0f32;
    let mut hi = 0.0f32;
    for i in 0..L {
        lo = lo.min(lo_v[i]);
        hi = hi.max(hi_v[i]);
    }
    for &v in chunks.remainder() {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    (lo, hi)
}

/// AVX2 min/max sweep: four independent 8-lane `vminps`/`vmaxps`
/// accumulator pairs seeded at 0.0 (one pair is a 4-cycle dependency chain
/// per 32 bytes — slower than the memory it reads), horizontal reduce,
/// scalar tail. Identical to [`minmax_generic`] for all finite inputs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
unsafe fn minmax_avx2(row: &[f32]) -> (f32, f32) {
    use std::arch::x86_64::*;
    unsafe {
        let mut lo_v = [_mm256_setzero_ps(); 4];
        let mut hi_v = [_mm256_setzero_ps(); 4];
        let mut chunks = row.chunks_exact(32);
        for c in chunks.by_ref() {
            for (i, (lo, hi)) in lo_v.iter_mut().zip(&mut hi_v).enumerate() {
                let v = _mm256_loadu_ps(c.as_ptr().add(8 * i));
                *lo = _mm256_min_ps(*lo, v);
                *hi = _mm256_max_ps(*hi, v);
            }
        }
        let lo_v = _mm256_min_ps(
            _mm256_min_ps(lo_v[0], lo_v[1]),
            _mm256_min_ps(lo_v[2], lo_v[3]),
        );
        let hi_v = _mm256_max_ps(
            _mm256_max_ps(hi_v[0], hi_v[1]),
            _mm256_max_ps(hi_v[2], hi_v[3]),
        );
        let mut lo_a = [0.0f32; 8];
        let mut hi_a = [0.0f32; 8];
        _mm256_storeu_ps(lo_a.as_mut_ptr(), lo_v);
        _mm256_storeu_ps(hi_a.as_mut_ptr(), hi_v);
        let mut lo = 0.0f32;
        let mut hi = 0.0f32;
        for i in 0..8 {
            lo = lo.min(lo_a[i]);
            hi = hi.max(hi_a[i]);
        }
        for &v in chunks.remainder() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }
}

/// Encodes `row` into `dst` with the given parameters; bytes past
/// `row.len()` (the quad pad) are zeroed.
///
/// The encode loop must vectorize — it runs over every feature map on the
/// whole-int8 path, and the obvious `(v / scale).round()` form was costing
/// as much as the integer GEMM it feeds (per-element division plus the
/// multi-op round-half-away-from-zero lowering). So: the division hoists
/// into one reciprocal, and ties round to even (`vroundps`'s native mode,
/// a single instruction). A tie needs `v·inv` to land exactly on ±x.5,
/// which moves that code by at most one step — well inside the scheme's
/// half-step error bound either way.
fn quantize_row(row: &[f32], scale: f32, zp: u8, dst: &mut [u8]) {
    let inv = 1.0 / scale;
    let zpf = f32::from(zp);
    #[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
    // SAFETY: avx2 is a compile-time target feature here; dst holds at
    // least row.len() bytes (asserted by every caller's geometry).
    unsafe {
        quantize_row_avx2(row, inv, zpf, dst);
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "avx2")))]
    quantize_row_generic(row, inv, zpf, dst);
    dst[row.len()..].fill(0);
}

/// Portable encode loop — one code per element, ties to even.
#[allow(dead_code)]
#[inline]
fn quantize_row_generic(row: &[f32], inv: f32, zpf: f32, dst: &mut [u8]) {
    for (d, &v) in dst.iter_mut().zip(row) {
        *d = ((v * inv).round_ties_even() + zpf).clamp(0.0, 255.0) as u8;
    }
}

/// AVX2 encode: 16 codes per step — two 8-lane `mul`/`vroundps`(nearest-
/// even)/`add`/`max`/`min` pipelines, exact `vcvtps2dq` (the values are
/// integral in `[0, 255]` after the clamp), and a `packus` pair down to
/// 16 u8. Bit-identical to [`quantize_row_generic`]: same op order, and
/// every step is the single-instruction semantics the scalar ops define.
#[cfg(all(target_arch = "x86_64", target_feature = "avx2"))]
unsafe fn quantize_row_avx2(row: &[f32], inv: f32, zpf: f32, dst: &mut [u8]) {
    use std::arch::x86_64::*;
    unsafe {
        let inv8 = _mm256_set1_ps(inv);
        let zp8 = _mm256_set1_ps(zpf);
        let zero = _mm256_setzero_ps();
        let top = _mm256_set1_ps(255.0);
        let n16 = row.len() / 16 * 16;
        for (i, o) in (0..n16).step_by(16).enumerate() {
            let mut q = [_mm256_setzero_si256(); 2];
            for (h, qh) in q.iter_mut().enumerate() {
                let v = _mm256_loadu_ps(row.as_ptr().add(o + 8 * h));
                let r = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(
                    _mm256_mul_ps(v, inv8),
                );
                let c = _mm256_min_ps(_mm256_max_ps(_mm256_add_ps(r, zp8), zero), top);
                *qh = _mm256_cvtps_epi32(c);
            }
            let p = _mm256_permute4x64_epi64::<0xD8>(_mm256_packus_epi32(q[0], q[1]));
            let b = _mm_packus_epi16(_mm256_castsi256_si128(p), _mm256_extracti128_si256::<1>(p));
            _mm_storeu_si128(dst.as_mut_ptr().add(16 * i).cast(), b);
        }
        quantize_row_generic(&row[n16..], inv, zpf, &mut dst[n16..row.len()]);
    }
}

// ---------------------------------------------------------------------------
// GEMM drivers
// ---------------------------------------------------------------------------

/// Whole-int8 prepacked GEMM: asymmetric u8 activation codes (see
/// [`quantize_a_rows_into`]) against quad-interleaved s8 panels with
/// per-K-group scales and column sums (see [`pack_b_panels_i8i8_into`]).
///
/// The inner loop is pure integer arithmetic under the `vpmaddubsw`
/// saturating-pair contract (module docs), accumulated in i32 per group;
/// dequantization fuses once per group (zero-point compensation + group
/// scale, FMA into the f32 accumulator), the row's activation scale
/// multiplies the finished sum, and the f32 `Epilogue` runs on each tile
/// before its one store. The SIMD and scalar paths are bit-identical, and
/// i32 accumulation makes the result independent of thread count.
///
/// The codes are the caller's, so they may be anything in `[-127, 127]` and
/// a pair sum may saturate: this entry point always runs the saturating
/// `vpmaddubsw` sequence (or its scalar twin), on every host. Only
/// [`PackedPanels::Int8Act`], whose codes are clamped at pack time, may
/// take a `vpdpbusd` tile (see "Instruction selection" in the module
/// docs).
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions, `group_size` is
/// not a positive multiple of 4, or an epilogue slice is shorter than `n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_i8i8(
    aq: &[u8],
    a_scales: &[f32],
    a_zps: &[u8],
    packed_b: &[i8],
    b_scales: &[f32],
    colsums: &[i32],
    group_size: usize,
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    let g = I8I8::checked(
        aq, a_scales, a_zps, packed_b, b_scales, colsums, group_size, m, k, n, ep,
    );
    gemm_i8i8(&g, out, Tile::Saturating);
}

/// The operands of one whole-int8 GEMM with their geometry checked: the
/// row walkers and tiles index them with raw pointers, so a value of this
/// type only ever comes from [`I8I8::checked`].
struct I8I8<'a> {
    aq: &'a [u8],
    a_scales: &'a [f32],
    a_zps: &'a [u8],
    packed: &'a [i8],
    b_scales: &'a [f32],
    colsums: &'a [i32],
    group_size: usize,
    m: usize,
    /// K padded to whole quads: the A row stride and packed K extent.
    kp: usize,
    n: usize,
    ep: Epilogue<'a>,
}

impl<'a> I8I8<'a> {
    /// # Panics
    ///
    /// Panics on any disagreement listed at [`gemm_prepacked_i8i8`].
    #[allow(clippy::too_many_arguments)]
    fn checked(
        aq: &'a [u8],
        a_scales: &'a [f32],
        a_zps: &'a [u8],
        packed: &'a [i8],
        b_scales: &'a [f32],
        colsums: &'a [i32],
        group_size: usize,
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue<'a>,
    ) -> Self {
        assert!(
            group_size > 0 && group_size.is_multiple_of(4),
            "i8i8 group size must be a positive multiple of 4"
        );
        let kp = i8i8_padded_k(k);
        assert_eq!(aq.len(), m * kp, "gemm i8i8 A codes");
        assert_eq!(a_scales.len(), m, "gemm i8i8 A scales");
        assert_eq!(a_zps.len(), m, "gemm i8i8 A zero-points");
        assert_eq!(
            packed.len(),
            packed_panels_i8i8_len(k, n),
            "gemm packed-i8i8 B buffer"
        );
        let gl = packed_scales_i8i8_len(k, n, group_size);
        assert_eq!(b_scales.len(), gl, "gemm i8i8 B scales");
        assert_eq!(colsums.len(), gl, "gemm i8i8 B column sums");
        if let Some(bias) = ep.bias {
            assert!(bias.len() >= n, "epilogue bias");
        }
        if let Some((sc, sh)) = ep.scale_shift {
            assert!(sc.len() >= n && sh.len() >= n, "epilogue scale/shift");
        }
        I8I8 {
            aq,
            a_scales,
            a_zps,
            packed,
            b_scales,
            colsums,
            group_size,
            m,
            kp,
            n,
            ep,
        }
    }

    /// Rows in `block`, which must be whole output rows `row0..` of this
    /// GEMM — the bound every walker's indexing rests on.
    fn block_rows(&self, block: &[f32], row0: usize) -> usize {
        let rows = block.len() / self.n;
        assert!(
            block.len() == rows * self.n && row0 + rows <= self.m,
            "i8i8 block"
        );
        rows
    }
}

/// Bytes of quantized A rows plus f32 C rows that one pass of the panel
/// walk covers — half the smallest L2 of any AVX2 part. Early MobileNet
/// layers are tall and thin (`32400×32→64`: 1 MB of codes, 8 MB of output,
/// 2 KB of panels), and walking every panel over all rows evicts both
/// operands between panels; a pass keeps its A and C rows cache-resident
/// while the panels are re-read once per pass instead. Deep layers
/// (`510×512→512`) get passes of a few dozen rows. The row count is rounded
/// down to whole tiles of the selected instantiation ([`Tile::rows`]), so
/// only a thread's last pass can end in a short tile.
const I8I8_PASS_BYTES: usize = 1 << 17;
/// Fewest rows in a pass: with `NR` or more, re-reading every panel once
/// per pass (`kp·n` bytes) moves no more than the A re-reads per panel it
/// replaces (`rows·kp·n/NR`), whatever the shape. A whole number of tiles
/// at either height.
const I8I8_MIN_PASS_ROWS: usize = NR;

/// Which instantiation of the whole-int8 tile a GEMM runs (module docs,
/// "Instruction selection"). Builds without AVX2+FMA run the scalar walk
/// whatever this says, and never select anything but `Saturating`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(dead_code)]
enum Tile {
    /// `ymm`, `vpmaddubsw` + `vpmaddwd` + `vpaddd`: the saturating-pair
    /// contract, for any codes.
    Saturating,
    /// `ymm` `vpdpbusd` (AVX-VNNI); pack-clamped codes only.
    Vnni,
    /// `zmm` `vpdpbusd` (AVX-512 VNNI) over two adjacent panels;
    /// pack-clamped codes only.
    Vnni512,
}

impl Tile {
    /// The widest tile this build and this CPU can run on codes clamped to
    /// `[-63, 63]` — decided from CPUID alone.
    fn for_packed_codes() -> Tile {
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512f") && has!("avx512vnni") {
                return Tile::Vnni512;
            }
            if has!("avxvnni") {
                return Tile::Vnni;
            }
        }
        Tile::Saturating
    }

    /// Rows of a full tile.
    fn rows(self) -> usize {
        match self {
            Tile::Vnni512 => 2 * MR,
            Tile::Saturating | Tile::Vnni => MR,
        }
    }
}

/// Rows per pass of the panel walk over `kp`-byte A rows and `n`-float C
/// rows: [`I8I8_PASS_BYTES`] worth, at least [`I8I8_MIN_PASS_ROWS`], in
/// whole tiles of `tile`.
fn i8i8_pass_rows(kp: usize, n: usize, tile: Tile) -> usize {
    const { assert!(I8I8_MIN_PASS_ROWS.is_multiple_of(2 * MR)) };
    (I8I8_PASS_BYTES / (kp + 4 * n)).max(I8I8_MIN_PASS_ROWS) / tile.rows() * tile.rows()
}

/// Shared whole-int8 driver: row chunks per thread, each walked in passes
/// of [`I8I8_PASS_BYTES`] by `tile`; callers pass anything but
/// [`Tile::Saturating`] only for pack-clamped codes.
fn gemm_i8i8(g: &I8I8, out: &mut [f32], tile: Tile) {
    let (m, n) = (g.m, g.n);
    assert_eq!(out.len(), m * n, "gemm out buffer");
    if m == 0 || n == 0 {
        return;
    }
    if g.kp == 0 {
        out.fill(0.0);
        g.ep.apply(out, n);
        return;
    }
    let t = if m * n >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    let pass_rows = i8i8_pass_rows(g.kp, n, tile);
    parallel_row_blocks_mut(out, n, t, |row0, chunk| {
        for (i, block) in chunk.chunks_mut(pass_rows * n).enumerate() {
            i8i8_rows(g, block, row0 + i * pass_rows, tile);
        }
    });
}

/// Weight panels prepacked at a chosen [`Precision`], with the matching
/// GEMM dispatch — the storage type layers keep behind their precision
/// knob so the forward path stays a single call.
#[derive(Debug, Clone)]
pub enum PackedPanels {
    /// Full-precision panels ([`pack_b_panels_into`]).
    F32(Vec<f32>),
    /// Whole-int8 quad-interleaved panels with per-K-group scales and
    /// zero-point-compensation column sums ([`pack_b_panels_i8i8_into`],
    /// group size [`I8I8_GROUP_SIZE`]); activations quantize dynamically
    /// per row at dispatch time.
    ///
    /// Every code in `q` lies in `[-63, 63]` — the packer clamps, and
    /// [`PackedPanels::repack`] checks it in debug builds. The GEMM picks
    /// its instruction sequence on that guarantee, so a value built by
    /// hand with wider codes computes host-dependent sums.
    Int8Act {
        /// Quantized, quad-interleaved panel elements.
        q: Vec<i8>,
        /// Per-(K-group, column) dequantization scales.
        scales: Vec<f32>,
        /// Per-(K-group, column) sums of the weight codes.
        colsums: Vec<i32>,
    },
}

thread_local! {
    /// Per-thread scratch for the dispatch-time activation quantization of
    /// the [`PackedPanels::Int8Act`] path: (codes, row scales, row zps).
    static QA_BUF: std::cell::RefCell<(Vec<u8>, Vec<f32>, Vec<u8>)> =
        const { std::cell::RefCell::new((Vec::new(), Vec::new(), Vec::new())) };
}

impl PackedPanels {
    /// An empty pack of the given precision (repack before use).
    pub fn empty(precision: Precision) -> Self {
        match precision {
            Precision::F32 => PackedPanels::F32(Vec::new()),
            Precision::Int8Act => PackedPanels::Int8Act {
                q: Vec::new(),
                scales: Vec::new(),
                colsums: Vec::new(),
            },
        }
    }

    /// Packs a row-major `[K, N]` matrix at the given precision.
    pub fn pack(precision: Precision, b: &[f32], k: usize, n: usize) -> Self {
        let mut p = Self::empty(precision);
        p.repack(b, k, n);
        p
    }

    /// Re-packs in place (reusing the buffers), keeping the precision.
    pub fn repack(&mut self, b: &[f32], k: usize, n: usize) {
        match self {
            PackedPanels::F32(buf) => {
                buf.resize(packed_panels_len(k, n), 0.0);
                pack_b_panels_into(b, buf, k, n);
            }
            PackedPanels::Int8Act { q, scales, colsums } => {
                let gl = packed_scales_i8i8_len(k, n, I8I8_GROUP_SIZE);
                q.resize(packed_panels_i8i8_len(k, n), 0);
                scales.resize(gl, 0.0);
                colsums.resize(gl, 0);
                pack_b_panels_i8i8_into(b, q, scales, colsums, k, n, I8I8_GROUP_SIZE);
                debug_assert!(q.iter().all(|c| (-63..=63).contains(c)));
            }
        }
    }

    /// The precision the panels are stored at.
    pub fn precision(&self) -> Precision {
        match self {
            PackedPanels::F32(_) => Precision::F32,
            PackedPanels::Int8Act { .. } => Precision::Int8Act,
        }
    }

    /// Bytes held by the packed representation (panels + any scales).
    pub fn bytes(&self) -> usize {
        match self {
            PackedPanels::F32(buf) => buf.len() * 4,
            PackedPanels::Int8Act { q, scales, colsums } => {
                q.len() + scales.len() * 4 + colsums.len() * 4
            }
        }
    }

    /// Runs the prepacked GEMM matching the storage precision.
    ///
    /// # Panics
    ///
    /// Panics if the pack does not match the `[K, N]` geometry (pack and
    /// call must agree), or on any [`crate::gemm_prepacked`] shape mismatch.
    pub fn gemm(&self, a: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, ep: Epilogue) {
        match self {
            PackedPanels::F32(buf) => crate::matmul::gemm_prepacked(a, buf, out, m, k, n, ep),
            PackedPanels::Int8Act { .. } => QA_BUF.with(|buf| {
                let (aq, asc, azp) = &mut *buf.borrow_mut();
                aq.resize(m * i8i8_padded_k(k), 0);
                asc.resize(m, 0.0);
                azp.resize(m, 0);
                quantize_a_rows_into(a, aq, asc, azp, m, k);
                self.gemm_u8(aq, asc, azp, out, m, k, n, ep);
            }),
        }
    }

    /// Runs the whole-int8 prepacked GEMM on **pre-quantized** activations
    /// (u8 codes in [`i8i8_padded_k`]-byte rows with per-row
    /// scale/zero-point) — the entry point for layers whose im2col output
    /// already lands in a u8 buffer ([`crate::im2col_u8_into`]), skipping
    /// the dispatch-time f32 quantization of [`Self::gemm`].
    ///
    /// # Panics
    ///
    /// Panics unless the panels were packed at [`Precision::Int8Act`], or
    /// on any [`gemm_prepacked_i8i8`] shape mismatch.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_u8(
        &self,
        aq: &[u8],
        a_scales: &[f32],
        a_zps: &[u8],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue,
    ) {
        match self {
            PackedPanels::Int8Act { q, scales, colsums } => {
                let g = I8I8::checked(
                    aq,
                    a_scales,
                    a_zps,
                    q,
                    scales,
                    colsums,
                    I8I8_GROUP_SIZE,
                    m,
                    k,
                    n,
                    ep,
                );
                gemm_i8i8(&g, out, Tile::for_packed_codes());
            }
            other => panic!(
                "PackedPanels::gemm_u8 requires Int8Act panels, got {}",
                other.precision().label()
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Row-block walkers (mirror `gemm_packed_rows`)
// ---------------------------------------------------------------------------

/// Computes `block` (rows `row0..`) of a whole-int8 GEMM, epilogue
/// included, with the instantiation the build and `tile` select.
fn i8i8_rows(g: &I8I8, block: &mut [f32], row0: usize, tile: Tile) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    // SAFETY: `tile` is only ever one that `Tile::for_packed_codes()` found
    // the CPU features for.
    match tile {
        Tile::Vnni512 => unsafe { simd::i8i8_rows_zmm(g, block, row0) },
        Tile::Vnni => unsafe { simd::i8i8_rows_vnni(g, block, row0) },
        Tile::Saturating => simd::i8i8_rows_avx2(g, block, row0),
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        debug_assert_eq!(tile, Tile::Saturating);
        i8i8_rows_scalar(g, block, row0)
    }
}

/// The scalar walk: [`micro_kernel_1_i8i8`] per row per panel — the whole
/// path off AVX2, and the tiles' reference in tests.
#[allow(dead_code)]
fn i8i8_rows_scalar(g: &I8I8, block: &mut [f32], row0: usize) {
    let rows = g.block_rows(block, row0);
    for jp in 0..g.n.div_ceil(NR) {
        for r in 0..rows {
            micro_kernel_1_i8i8(g, block, row0 + r, r, jp);
        }
    }
}

// ---------------------------------------------------------------------------
// whole-int8 (u8 × s8) micro-kernels
// ---------------------------------------------------------------------------

/// One `vpmaddubsw`/`vpmaddwd` quad step, scalar: `aq` holds 4 u8
/// activation codes, `wq` 4 s8 weight codes; each adjacent product pair
/// saturates to i16 before the i32 add — the exact hardware contract, so
/// the scalar and AVX2 kernels agree bit-for-bit even when a pair
/// saturates.
#[inline]
fn quad_dot_i8i8(aq: &[u8], wq: &[i8]) -> i32 {
    let p0 = i32::from(aq[0]) * i32::from(wq[0]) + i32::from(aq[1]) * i32::from(wq[1]);
    let p1 = i32::from(aq[2]) * i32::from(wq[2]) + i32::from(aq[3]) * i32::from(wq[3]);
    p0.clamp(-32768, 32767) + p1.clamp(-32768, 32767)
}

/// Single-row whole-int8 kernel for panel `jp` — the scalar definition of
/// the contract: per group, ascending-`k` quads of [`quad_dot_i8i8`] into
/// an i32 accumulator, zero-point compensation against the group column
/// sum, one FMA with the group scale; the row's activation scale multiplies
/// the finished f32 sum, and the epilogue finishes the segment in place.
#[allow(dead_code)]
#[inline]
fn micro_kernel_1_i8i8(g: &I8I8, block: &mut [f32], a_row: usize, c_row: usize, jp: usize) {
    let (kp, n) = (g.kp, g.n);
    let np = packed_scales_i8_len(n);
    let j0 = jp * NR;
    let w = (n - j0).min(NR);
    let panel = &g.packed[jp * NR * kp..(jp + 1) * NR * kp];
    let row = &g.aq[a_row * kp..(a_row + 1) * kp];
    let zp = i32::from(g.a_zps[a_row]);
    let quads = kp / 4;
    let gq = g.group_size / 4;
    let mut facc = [0.0f32; NR];
    for gi in 0..kp.div_ceil(g.group_size) {
        let q0 = gi * gq;
        let q1 = (q0 + gq).min(quads);
        let mut iacc = [0i32; NR];
        for kq in q0..q1 {
            let a4 = &row[kq * 4..kq * 4 + 4];
            let wq = &panel[kq * NR * 4..(kq + 1) * NR * 4];
            for (jo, acc) in iacc.iter_mut().enumerate() {
                *acc += quad_dot_i8i8(a4, &wq[jo * 4..jo * 4 + 4]);
            }
        }
        let sb = &g.b_scales[gi * np + j0..gi * np + j0 + NR];
        let cs = &g.colsums[gi * np + j0..gi * np + j0 + NR];
        for ((f, &ia), (&s, &c)) in facc.iter_mut().zip(&iacc).zip(sb.iter().zip(cs)) {
            *f = fmadd(*f, (ia - zp * c) as f32, s);
        }
    }
    let dst = &mut block[c_row * n + j0..c_row * n + j0 + w];
    for (d, &f) in dst.iter_mut().zip(facc.iter()) {
        *d = f * g.a_scales[a_row];
    }
    g.ep.columns_from(j0).apply(dst, w);
}

/// The SIMD tile and its three instantiations: compiled only where the
/// build's own baseline has AVX2 and FMA (see [`crate::matmul`]).
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
mod simd {
    use super::{packed_scales_i8_len, I8I8, MR, NR};
    use crate::matmul::simd::{finish_tile, Lanes};
    use std::arch::x86_64::*;

    /// The integer side of an [`i8i8_tile`] instantiation: a vector of
    /// `F::LANES` adjacent columns as i32 sums — or, loaded from a panel, as
    /// those columns' `4` s8 codes of one `k`-quad each — and the quad step.
    ///
    /// # Safety
    ///
    /// Every method requires the instruction set of the implementing type
    /// (AVX2 for [`Ymm`], plus AVX-VNNI when `VNNI`; AVX-512F and AVX-512
    /// VNNI for [`Zmm`]); `load` requires `4·LANES` readable bytes at `p`.
    trait QuadLanes {
        /// The same columns as f32: what the sums dequantize into.
        type F: Lanes;
        type I: Copy;
        unsafe fn zero() -> Self::I;
        unsafe fn splat(x: i32) -> Self::I;
        unsafe fn load(p: *const i32) -> Self::I;
        /// `acc + Σ₄ a·w` per i32 lane (`a`: u8 quads, `w`: s8 quads). For
        /// `w` in `[-63, 63]` every implementation is the same integer
        /// function; outside it only the saturating one is the raw entry
        /// point's contract.
        unsafe fn quad_step(acc: Self::I, a: Self::I, w: Self::I) -> Self::I;
        /// `(acc − zp·colsums) as f32`: the zero-point compensation, then
        /// an exact conversion.
        unsafe fn compensated(acc: Self::I, zp: Self::I, colsums: Self::I) -> Self::F;
    }

    /// `ymm`: half a panel per vector. The quad step is one `vpdpbusd` when
    /// `VNNI`, else `vpmaddubsw` + `vpmaddwd(·, 1)` + `vpaddd`, whose i16
    /// pair sums saturate.
    pub(super) struct Ymm<const VNNI: bool>;
    /// `zmm`: a whole panel per vector, one `vpdpbusd` per quad step.
    pub(super) struct Zmm;

    // SAFETY (both impls): each method is the intrinsics its name says, under
    // the trait's contract.
    impl<const VNNI: bool> QuadLanes for Ymm<VNNI> {
        type F = __m256;
        type I = __m256i;
        #[inline(always)]
        unsafe fn zero() -> __m256i {
            _mm256_setzero_si256()
        }
        #[inline(always)]
        unsafe fn splat(x: i32) -> __m256i {
            _mm256_set1_epi32(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const i32) -> __m256i {
            unsafe { _mm256_loadu_si256(p.cast()) }
        }
        #[inline(always)]
        unsafe fn quad_step(acc: __m256i, a: __m256i, w: __m256i) -> __m256i {
            if VNNI {
                unsafe { _mm256_dpbusd_avx_epi32(acc, a, w) }
            } else {
                let pairs = _mm256_maddubs_epi16(a, w);
                _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, _mm256_set1_epi16(1)))
            }
        }
        #[inline(always)]
        unsafe fn compensated(acc: __m256i, zp: __m256i, colsums: __m256i) -> __m256 {
            _mm256_cvtepi32_ps(_mm256_sub_epi32(acc, _mm256_mullo_epi32(zp, colsums)))
        }
    }

    impl QuadLanes for Zmm {
        type F = __m512;
        type I = __m512i;
        #[inline(always)]
        unsafe fn zero() -> __m512i {
            unsafe { _mm512_setzero_si512() }
        }
        #[inline(always)]
        unsafe fn splat(x: i32) -> __m512i {
            unsafe { _mm512_set1_epi32(x) }
        }
        #[inline(always)]
        unsafe fn load(p: *const i32) -> __m512i {
            unsafe { _mm512_loadu_si512(p.cast()) }
        }
        #[inline(always)]
        unsafe fn quad_step(acc: __m512i, a: __m512i, w: __m512i) -> __m512i {
            unsafe { _mm512_dpbusd_epi32(acc, a, w) }
        }
        #[inline(always)]
        unsafe fn compensated(acc: __m512i, zp: __m512i, colsums: __m512i) -> __m512 {
            unsafe { _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, _mm512_mullo_epi32(zp, colsums))) }
        }
    }

    /// The AVX-512 VNNI instantiation of [`i8i8_rows_simd`]: tiles of up to
    /// 8 rows × 32 columns (two adjacent panels, one 64-byte load each per
    /// `k`-quad).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512 VNNI (AVX2 and FMA are this
    /// build's baseline). The result equals the AVX2 instantiation's only
    /// for weight codes in `[-63, 63]` — `vpdpbusd` does not saturate the
    /// pair sums — which [`super::PackedPanels::Int8Act`] guarantees.
    #[target_feature(enable = "avx512f,avx512vnni")]
    pub(super) unsafe fn i8i8_rows_zmm(g: &I8I8, block: &mut [f32], row0: usize) {
        // SAFETY: the caller vouches for AVX-512F and AVX-512 VNNI.
        unsafe { i8i8_rows_simd::<Zmm, { 2 * MR }>(g, block, row0) }
    }

    /// The AVX-VNNI instantiation of [`i8i8_rows_simd`]: the `4×16` tile with
    /// one `ymm` `vpdpbusd` per quad step — for hosts that have AVX-VNNI but
    /// not AVX-512.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-VNNI; the `[-63, 63]` condition of
    /// [`i8i8_rows_zmm`] applies.
    #[target_feature(enable = "avx2,fma,avxvnni")]
    pub(super) unsafe fn i8i8_rows_vnni(g: &I8I8, block: &mut [f32], row0: usize) {
        // SAFETY: the caller vouches for AVX-VNNI.
        unsafe { i8i8_rows_simd::<Ymm<true>, MR>(g, block, row0) }
    }

    /// The AVX2 instantiation of [`i8i8_rows_simd`]: the `4×16` tile under
    /// the saturating-pair contract for any codes — the tile for x86-64-v3
    /// hosts with neither VNNI extension and for caller-supplied codes.
    pub(super) fn i8i8_rows_avx2(g: &I8I8, block: &mut [f32], row0: usize) {
        // SAFETY: this instantiation uses only AVX2 and FMA, compile-time
        // target features here.
        unsafe { i8i8_rows_simd::<Ymm<false>, MR>(g, block, row0) }
    }

    /// Panel-major walk of one row block in tiles of `ROWS` rows by two
    /// vectors — one panel at `ymm` width, two at `zmm`, where an odd last
    /// panel gets a tile one vector wide. The last tile of a column strip
    /// may be short.
    ///
    /// # Safety
    ///
    /// The instruction set of `Q` must be available.
    #[inline(always)]
    unsafe fn i8i8_rows_simd<Q: QuadLanes, const ROWS: usize>(
        g: &I8I8,
        block: &mut [f32],
        row0: usize,
    ) {
        let rows = g.block_rows(block, row0);
        let lanes = Q::F::LANES;
        for j0 in (0..g.n).step_by(2 * lanes) {
            let two = lanes < NR || g.n - j0 > NR;
            for r in (0..rows).step_by(ROWS) {
                let mr = (rows - r).min(ROWS);
                // SAFETY: forwarded from the caller; rows `row0 + r..` and
                // the block's rows `r..r + mr` exist by `block_rows`' check,
                // and a second vector only where its panel does.
                unsafe {
                    if two {
                        i8i8_tile::<Q, ROWS, 2>(g, block, row0 + r, r, mr, j0)
                    } else {
                        i8i8_tile::<Q, ROWS, 1>(g, block, row0 + r, r, mr, j0)
                    }
                }
            }
        }
    }

    /// The whole-int8 tile at rows `a_row..a_row + mr` (`mr ≤ ROWS`) and the
    /// `NV` vectors of columns from `j0`: per `k`-quad, one 4-byte
    /// activation broadcast per row against `NV` panel loads (`LANES`
    /// columns × 4 K-rows each) through [`QuadLanes::quad_step`] into
    /// per-group i32 accumulators; per group, zero-point compensation
    /// (`vpmulld` + `vpsubd` against the column sums), exact `vcvtdq2ps`,
    /// and one FMA with the group scales; then the activation scale and
    /// [`finish_tile`] (the epilogue on the registers, the tile's only
    /// store). Bit-identical to [`super::micro_kernel_1_i8i8`]: integer
    /// arithmetic is exact and every float operation is the same one in the
    /// same order, in every lane at any width.
    ///
    /// A short tile computes its missing rows as copies of its last real row
    /// and stores only the real ones, so remainder rows run at tile speed.
    ///
    /// # Safety
    ///
    /// The instruction set of `Q` must be available, `1 ≤ mr ≤ ROWS`,
    /// `a_row + mr ≤ g.m`, `block` must hold rows `c_row..c_row + mr` of an
    /// `[*, g.n]` matrix, `j0` must be a multiple of `NR` and
    /// `j0 + (NV - 1)·LANES` below `g.n` rounded up to whole panels;
    /// everything else is [`I8I8::checked`]'s geometry.
    #[inline(always)]
    unsafe fn i8i8_tile<Q: QuadLanes, const ROWS: usize, const NV: usize>(
        g: &I8I8,
        block: &mut [f32],
        a_row: usize,
        c_row: usize,
        mr: usize,
        j0: usize,
    ) {
        const { assert!(NR == 16 && ROWS == Q::F::ROWS && NR.is_multiple_of(Q::F::LANES)) };
        let lanes = Q::F::LANES;
        let (kp, n) = (g.kp, g.n);
        let np = packed_scales_i8_len(n);
        let quads = kp / 4;
        let gq = g.group_size / 4;
        // SAFETY: target features per the caller; `src` rows are below `g.m`.
        // Vector `v` covers the `LANES` columns from `j0 + v·LANES`, which lie
        // inside one (zero-padded) panel: its codes, and its scale and
        // column-sum entries below `np`, are inside the lengths
        // `I8I8::checked` asserted. `finish_tile`'s conditions are this
        // function's own.
        unsafe {
            let src: [usize; ROWS] = std::array::from_fn(|r| a_row + r.min(mr - 1));
            let pp: [*const i8; NV] = std::array::from_fn(|v| {
                let j = j0 + v * lanes;
                g.packed.as_ptr().add(j / NR * NR * kp + j % NR * 4)
            });
            let mut facc = [[Q::F::zero(); NV]; ROWS];
            for gi in 0..kp.div_ceil(g.group_size) {
                let mut iacc = [[Q::zero(); NV]; ROWS];
                for kq in gi * gq..((gi + 1) * gq).min(quads) {
                    let mut b = [Q::zero(); NV];
                    for (b, pp) in b.iter_mut().zip(&pp) {
                        *b = Q::load(pp.add(kq * NR * 4).cast());
                    }
                    for (accr, &i) in iacc.iter_mut().zip(&src) {
                        let a4 = g.aq.as_ptr().add(i * kp + kq * 4).cast::<i32>();
                        let av = Q::splat(a4.read_unaligned());
                        for (acc, &b) in accr.iter_mut().zip(&b) {
                            *acc = Q::quad_step(*acc, av, b);
                        }
                    }
                }
                let at = gi * np + j0;
                let mut sb = [Q::F::zero(); NV];
                let mut cs = [Q::zero(); NV];
                for v in 0..NV {
                    sb[v] = Q::F::load(g.b_scales.as_ptr().add(at + v * lanes));
                    cs[v] = Q::load(g.colsums.as_ptr().add(at + v * lanes));
                }
                for ((accr, ir), &i) in facc.iter_mut().zip(&iacc).zip(&src) {
                    let zp = Q::splat(i32::from(g.a_zps[i]));
                    for v in 0..NV {
                        accr[v] = Q::compensated(ir[v], zp, cs[v]).fmadd(sb[v], accr[v]);
                    }
                }
            }
            for (accr, &i) in facc.iter_mut().zip(&src) {
                let sa = Q::F::splat(g.a_scales[i]);
                for acc in accr.iter_mut() {
                    *acc = acc.mul(sa);
                }
            }
            finish_tile(facc, &g.ep, block, n, c_row, mr, j0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::gemm_prepacked;

    fn random(len: usize, seed: u64) -> Vec<f32> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    /// f32 reference on pre-quantized weights, same accumulation order.
    fn gold_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, ep: Epilogue) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        let mut packed = vec![0.0f32; packed_panels_len(k, n)];
        pack_b_panels_into(b, &mut packed, k, n);
        gemm_prepacked(a, &packed, &mut out, m, k, n, ep);
        out
    }

    #[test]
    fn i8i8_all_zero_column_scale_is_one() {
        // An all-zero group-column must pack to zero codes with scale 1.0 —
        // not 0.0, which would feed NaN/denormal factories downstream — and
        // still dequantize to an exactly-zero output column.
        let (k, n, gs) = (5, 7, 4);
        let mut b = random(k * n, 51);
        for kk in 0..k {
            b[kk * n + 3] = 0.0;
        }
        let m = 2;
        let c = I8I8Case::pack(&random(m * k, 52), &b, m, k, n, gs);
        let np = packed_scales_i8_len(n);
        for g in 0..i8i8_groups(k, gs) {
            assert_eq!(c.scales[g * np + 3], 1.0, "group {g}");
            assert_eq!(c.colsums[g * np + 3], 0, "group {g}");
            // Padded columns (n=7 < NR) get scale 1.0 too.
            for &s in &c.scales[g * np + n..(g + 1) * np] {
                assert_eq!(s, 1.0, "group {g}");
            }
        }
        for quad in c.q.chunks(NR * 4) {
            assert_eq!(quad[3 * 4..4 * 4], [0; 4], "zero column packs zero codes");
        }
        let out = c.gemm(Epilogue::default());
        assert!(out.iter().all(|v| v.is_finite()));
        assert_eq!(out[3], 0.0);
        assert_eq!(out[n + 3], 0.0);
    }

    /// Independent scalar model of the whole-int8 contract (module docs):
    /// saturating quad pairs, per-group i32 accumulation, zero-point
    /// compensation, group-scale FMA, row-scale multiply, f32 epilogue.
    #[allow(clippy::too_many_arguments)]
    fn i8i8_reference(
        aq: &[u8],
        a_scales: &[f32],
        a_zps: &[u8],
        q: &[i8],
        b_scales: &[f32],
        colsums: &[i32],
        gs: usize,
        m: usize,
        k: usize,
        n: usize,
        ep: Epilogue,
    ) -> Vec<f32> {
        let kp = i8i8_padded_k(k);
        let np = packed_scales_i8_len(n);
        let (quads, gq) = (kp / 4, gs / 4);
        let groups = i8i8_groups(k, gs);
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let row = &aq[i * kp..(i + 1) * kp];
            let zp = i32::from(a_zps[i]);
            for j in 0..n {
                let (jp, jo) = (j / NR, j % NR);
                let panel = &q[jp * NR * kp..(jp + 1) * NR * kp];
                let mut f = 0.0f32;
                for g in 0..groups {
                    let mut ia = 0i32;
                    for kq in g * gq..((g + 1) * gq).min(quads) {
                        let a4 = &row[kq * 4..kq * 4 + 4];
                        let w4 = &panel[kq * NR * 4 + jo * 4..kq * NR * 4 + jo * 4 + 4];
                        let p0 = i32::from(a4[0]) * i32::from(w4[0])
                            + i32::from(a4[1]) * i32::from(w4[1]);
                        let p1 = i32::from(a4[2]) * i32::from(w4[2])
                            + i32::from(a4[3]) * i32::from(w4[3]);
                        ia += p0.clamp(-32768, 32767) + p1.clamp(-32768, 32767);
                    }
                    f = fmadd(
                        f,
                        (ia - zp * colsums[g * np + j]) as f32,
                        b_scales[g * np + j],
                    );
                }
                out[i * n + j] = f * a_scales[i];
            }
        }
        ep.apply(&mut out, n);
        out
    }

    /// Packed operands of one whole-int8 problem.
    struct I8I8Case {
        aq: Vec<u8>,
        asc: Vec<f32>,
        azp: Vec<u8>,
        q: Vec<i8>,
        scales: Vec<f32>,
        colsums: Vec<i32>,
        gs: usize,
        m: usize,
        k: usize,
        n: usize,
    }

    impl I8I8Case {
        /// A random problem.
        fn new(m: usize, k: usize, n: usize, gs: usize) -> Self {
            let a = random(m * k, 81 + (m + gs) as u64);
            let b = random(k * n, 82 + (n + gs) as u64);
            Self::pack(&a, &b, m, k, n, gs)
        }

        /// Quantizes `a` (`[m, k]`) and packs `b` (`[k, n]`).
        fn pack(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, gs: usize) -> Self {
            let mut q = vec![0i8; packed_panels_i8i8_len(k, n)];
            let gl = packed_scales_i8i8_len(k, n, gs);
            let (mut scales, mut colsums) = (vec![0.0f32; gl], vec![0i32; gl]);
            pack_b_panels_i8i8_into(b, &mut q, &mut scales, &mut colsums, k, n, gs);
            let mut aq = vec![0u8; m * i8i8_padded_k(k)];
            let (mut asc, mut azp) = (vec![0.0f32; m], vec![0u8; m]);
            quantize_a_rows_into(a, &mut aq, &mut asc, &mut azp, m, k);
            I8I8Case {
                aq,
                asc,
                azp,
                q,
                scales,
                colsums,
                gs,
                m,
                k,
                n,
            }
        }

        fn operands<'a>(&'a self, ep: Epilogue<'a>) -> I8I8<'a> {
            I8I8::checked(
                &self.aq,
                &self.asc,
                &self.azp,
                &self.q,
                &self.scales,
                &self.colsums,
                self.gs,
                self.m,
                self.k,
                self.n,
                ep,
            )
        }

        /// The public raw entry point on these operands.
        fn gemm(&self, ep: Epilogue) -> Vec<f32> {
            let mut out = vec![f32::NAN; self.m * self.n];
            gemm_prepacked_i8i8(
                &self.aq,
                &self.asc,
                &self.azp,
                &self.q,
                &self.scales,
                &self.colsums,
                self.gs,
                &mut out,
                self.m,
                self.k,
                self.n,
                ep,
            );
            out
        }

        fn reference(&self, ep: Epilogue) -> Vec<f32> {
            i8i8_reference(
                &self.aq,
                &self.asc,
                &self.azp,
                &self.q,
                &self.scales,
                &self.colsums,
                self.gs,
                self.m,
                self.k,
                self.n,
                ep,
            )
        }
    }

    #[test]
    fn i8i8_gemm_matches_scalar_reference_bit_for_bit() {
        // The public raw entry point (AVX2 on this target) must reproduce
        // the scalar saturating-quad reference exactly, over ragged
        // shapes, group sizes, and epilogues — including remainder rows
        // and the ragged final panel.
        for &(m, k, n) in &[
            (1, 4, 3),
            (4, 16, 16),
            (5, 7, 10),
            (11, 23, 37),
            (64, 70, 96),
        ] {
            for gs in [4usize, 8, 64] {
                let c = I8I8Case::new(m, k, n, gs);
                let bias: Vec<f32> = random(n, 63);
                let shift: Vec<f32> = random(n, 64);
                let scale_v: Vec<f32> = random(n, 65);
                for ep in [
                    Epilogue::default(),
                    Epilogue {
                        bias: Some(&bias),
                        scale_shift: Some((&scale_v, &shift)),
                        relu: true,
                    },
                ] {
                    assert_eq!(c.gemm(ep), c.reference(ep), "{m}x{k}x{n} gs={gs}");
                }
            }
        }
    }

    type RowWalker = fn(&I8I8, &mut [f32], usize);

    /// Every tile instantiation this build and CPU can run, called
    /// directly — no dispatch in between — and a printed line saying which.
    fn tile_instantiations() -> Vec<(&'static str, RowWalker)> {
        #[allow(unused_mut)]
        let mut tiles: Vec<(&'static str, RowWalker)> = vec![("scalar", i8i8_rows_scalar)];
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        {
            use std::arch::is_x86_feature_detected as has;
            tiles.push(("avx2", simd::i8i8_rows_avx2));
            if has!("avxvnni") {
                // SAFETY: AVX-VNNI was detected on this CPU just above.
                tiles.push(("vnni", |g, block, row0| unsafe {
                    simd::i8i8_rows_vnni(g, block, row0)
                }));
            } else {
                println!("lowp: skipping the ymm vpdpbusd tile, this CPU has no AVX-VNNI");
            }
            if has!("avx512f") && has!("avx512vnni") {
                // SAFETY: both features were detected on this CPU just above.
                tiles.push(("zmm", |g, block, row0| unsafe {
                    simd::i8i8_rows_zmm(g, block, row0)
                }));
            } else {
                let missing: Vec<&str> = [
                    ("avx512f", has!("avx512f")),
                    ("avx512vnni", has!("avx512vnni")),
                ]
                .iter()
                .filter_map(|&(name, present)| (!present).then_some(name))
                .collect();
                println!("lowp: skipping the zmm vpdpbusd tile, this CPU has no {missing:?}");
            }
        }
        let names: Vec<&str> = tiles.iter().map(|t| t.0).collect();
        println!("lowp: whole-int8 tile instantiations exercised: {names:?}");
        tiles
    }

    /// `walk` over the whole output in row blocks of `block_rows`.
    fn walk_in_blocks(walk: RowWalker, g: &I8I8, block_rows: usize) -> Vec<u32> {
        let mut out = vec![f32::NAN; g.m * g.n];
        for (i, block) in out.chunks_mut(block_rows * g.n).enumerate() {
            walk(g, block, i * block_rows);
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn i8i8_tile_instantiations_match_scalar_reference_bit_for_bit() {
        // Each instantiation against the from-scratch model: row counts off
        // both tile heights, a ragged last panel, the zmm tile's paired-panel
        // walk (an even count, a ragged second panel, an odd count), k off
        // the quad and the group size, zero-points at both ends of the code
        // range, every epilogue combination, and the row-blocked walk at
        // three block sizes (tile-sized, mid-matrix with a short last block,
        // whole).
        let tiles = tile_instantiations();
        for &(m, k, n) in &[
            (1, 4, 3),
            (5, 7, 10),
            (11, 23, 37),
            (103, 70, 96),
            (8, 9, 32),
            (9, 66, 33),
            (13, 23, 48),
            (103, 7, 80),
        ] {
            for gs in [4usize, 8, 64] {
                let mut case = I8I8Case::new(m, k, n, gs);
                for (i, zp) in case.azp.iter_mut().enumerate().skip(1) {
                    match i % 3 {
                        0 => *zp = 0,
                        1 => *zp = 255,
                        _ => {}
                    }
                }
                let bias = random(n, 83);
                let (scale, shift) = (random(n, 84), random(n, 85));
                for bits in 0..8u32 {
                    let ep = Epilogue {
                        bias: (bits & 1 != 0).then_some(&bias[..]),
                        scale_shift: (bits & 2 != 0).then_some((&scale[..], &shift[..])),
                        relu: bits & 4 != 0,
                    };
                    let want: Vec<u32> = case.reference(ep).iter().map(|v| v.to_bits()).collect();
                    let g = case.operands(ep);
                    for &(name, walk) in &tiles {
                        for block_rows in [4, 100, m] {
                            assert_eq!(
                                walk_in_blocks(walk, &g, block_rows),
                                want,
                                "{name} {m}x{k}x{n} gs={gs} ep={bits:03b} block={block_rows}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn packed_int8act_gemm_walks_tall_outputs_in_passes() {
        // Tall and thin enough for several `I8I8_PASS_BYTES` passes, with a
        // row count off both tile heights (so the last pass ends in a short
        // tile) and both an even and an odd panel count: the dispatched
        // GEMM (whichever tile this CPU selects) must equal the scalar walk
        // over the whole matrix.
        for (m, k, n) in [(1203, 32, 64), (1203, 32, 80), (1205, 30, 80)] {
            assert!(m * (i8i8_padded_k(k) + 4 * n) > 2 * I8I8_PASS_BYTES);
            assert!(m % 4 != 0 && m % 8 != 0);
            let case = I8I8Case::new(m, k, n, I8I8_GROUP_SIZE);
            let bias = random(n, 86);
            let ep = Epilogue {
                bias: Some(&bias),
                scale_shift: None,
                relu: true,
            };
            let panels = PackedPanels::Int8Act {
                q: case.q.clone(),
                scales: case.scales.clone(),
                colsums: case.colsums.clone(),
            };
            let mut got = vec![0.0f32; m * n];
            panels.gemm_u8(&case.aq, &case.asc, &case.azp, &mut got, m, k, n, ep);
            let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                got,
                walk_in_blocks(i8i8_rows_scalar, &case.operands(ep), m),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn pass_rows_are_whole_tiles_of_the_selected_height() {
        // A pass that is not a whole number of tiles ends in a short tile
        // every pass: 20 rows (k = 2048, n = 1126) is five 4-row tiles but
        // two and a half 8-row ones.
        for (kp, n) in [(2048, 1126), (32, 64), (512, 512), (4608, 4096)] {
            for tile in [Tile::Saturating, Tile::Vnni, Tile::Vnni512] {
                let rows = i8i8_pass_rows(kp, n, tile);
                assert!(rows >= I8I8_MIN_PASS_ROWS, "{tile:?} {kp}x{n}: {rows}");
                assert_eq!(rows % tile.rows(), 0, "{tile:?} {kp}x{n}: {rows}");
            }
        }
        assert_eq!(i8i8_pass_rows(2048, 1126, Tile::Vnni), 20);
        assert_eq!(i8i8_pass_rows(2048, 1126, Tile::Vnni512), 16);
    }

    #[test]
    fn raw_i8i8_entry_point_saturates_on_every_host() {
        // Caller-supplied codes at ±127 against activations of 255: every
        // pair sum is ±64770 and clips to the i16 range, which is the raw
        // entry point's documented arithmetic. `vpdpbusd` does not clip,
        // so this API must not take that tile even where the CPU has it.
        let (m, k, n, gs) = (6usize, 16usize, 16usize, 8usize);
        let aq = vec![255u8; m * k];
        let (asc, azp) = (vec![1.0f32; m], vec![0u8; m]);
        let mut q = vec![0i8; packed_panels_i8i8_len(k, n)];
        for (i, code) in q.iter_mut().enumerate() {
            *code = if (i / 4) % 2 == 0 { 127 } else { -127 };
        }
        let gl = packed_scales_i8i8_len(k, n, gs);
        let scales = vec![1.0f32; gl];
        let colsums: Vec<i32> = (0..gl)
            .map(|i| if i % 2 == 0 { 127 } else { -127 } * gs as i32)
            .collect();
        let ep = Epilogue::default();
        let mut got = vec![0.0f32; m * n];
        gemm_prepacked_i8i8(
            &aq, &asc, &azp, &q, &scales, &colsums, gs, &mut got, m, k, n, ep,
        );
        let want = i8i8_reference(&aq, &asc, &azp, &q, &scales, &colsums, gs, m, k, n, ep);
        assert_eq!(got, want);
        let clipped = (2 * 32767 * (k / 4)) as f32;
        assert_eq!((got[0], got[1]), (clipped, -clipped - (k / 2) as f32));
        // The same operands through either `vpdpbusd` tile give the
        // unclipped sums — the reason only pack-clamped codes may be routed
        // to them, and the raw entry point takes neither: its result above
        // is the clipped one on every host.
        let exact = (255 * 127 * k) as f32;
        assert_ne!(got[0], exact);
        for (name, walk) in tile_instantiations() {
            let g = I8I8::checked(&aq, &asc, &azp, &q, &scales, &colsums, gs, m, k, n, ep);
            let mut out = vec![0.0f32; m * n];
            walk(&g, &mut out, 0);
            match name {
                "vnni" | "zmm" => assert_eq!((out[0], out[1]), (exact, -exact), "{name}"),
                _ => assert_eq!(out, want, "{name}"),
            }
        }
    }

    #[test]
    fn i8i8_quantize_roundtrip_error_is_bounded() {
        // Dequantizing the u8 codes recovers each element to within 1.5
        // quantization steps (½ from rounding, ≤1 from the clamp at the
        // range edges), and exact zeros encode exactly to the zero point.
        let (m, k) = (9, 53);
        let mut a = random(m * k, 71);
        a[k + 3] = 0.0;
        a[2 * k..2 * k + k].fill(0.0); // a constant-zero row is exact
        let kp = i8i8_padded_k(k);
        let mut q = vec![0u8; m * kp];
        let mut scales = vec![0.0f32; m];
        let mut zps = vec![0u8; m];
        quantize_a_rows_into(&a, &mut q, &mut scales, &mut zps, m, k);
        for i in 0..m {
            let (s, zp) = (scales[i], i32::from(zps[i]));
            for kk in 0..k {
                let v = a[i * k + kk];
                let deq = (i32::from(q[i * kp + kk]) - zp) as f32 * s;
                assert!(
                    (deq - v).abs() <= 1.5 * s + 1e-7,
                    "row {i} col {kk}: {deq} vs {v} (scale {s})"
                );
                if v == 0.0 {
                    assert_eq!(deq, 0.0, "exact zero must survive");
                }
            }
            for kk in k..kp {
                assert_eq!(q[i * kp + kk], 0, "quad pad is zeroed");
            }
        }
        assert_eq!((scales[2], zps[2]), (1.0, 0), "constant-zero row");
    }

    #[test]
    fn lowp_results_identical_across_thread_counts() {
        use crate::parallel::set_threads;
        let (m, k, n) = (96, 41, 77);
        let c = I8I8Case::new(m, k, n, I8I8_GROUP_SIZE);
        let ep = Epilogue::default();
        set_threads(1);
        let gold = c.gemm(ep);
        for t in 2..=8 {
            set_threads(t);
            assert_eq!(c.gemm(ep), gold, "i8i8 thread count {t}");
        }
        set_threads(0);
    }

    #[test]
    fn packed_panels_wrapper_dispatches_every_precision() {
        let (m, k, n) = (12, 18, 20);
        let a = random(m * k, 41);
        let b = random(k * n, 42);
        for p in [Precision::F32, Precision::Int8Act] {
            let panels = PackedPanels::pack(p, &b, k, n);
            assert_eq!(panels.precision(), p);
            assert!(panels.bytes() > 0);
            let mut out = vec![0.0f32; m * n];
            panels.gemm(&a, &mut out, m, k, n, Epilogue::default());
            let want = gold_gemm(&a, &b, m, k, n, Epilogue::default());
            let amax = want.iter().fold(0.0f32, |x, &v| x.max(v.abs()));
            // Whole-int8 quantizes weights and activations; f32 is the
            // reference path itself.
            let tol = match p {
                Precision::Int8Act => 0.08 * amax + 1e-4,
                Precision::F32 => 0.0,
            };
            for (g, w) in out.iter().zip(&want) {
                assert!((g - w).abs() <= tol, "{p:?}: {g} vs {w}");
            }
            // Dispatch-time quantization is deterministic: a second run is
            // bit-identical.
            let mut again = vec![0.0f32; m * n];
            panels.gemm(&a, &mut again, m, k, n, Epilogue::default());
            assert_eq!(out, again, "{p:?}");
        }
        // Bytes: the whole-int8 pack (codes + group scales + column sums)
        // stays well under half of f32's, and the code array alone is a
        // quarter once K is padded to whole quads.
        let b32 = PackedPanels::pack(Precision::F32, &b, k, n).bytes();
        let b8 = PackedPanels::pack(Precision::Int8Act, &b, k, n).bytes();
        assert!(b8 * 2 < b32, "{b8} vs {b32}");
        assert_eq!(
            Precision::Int8Act.packed_panel_bytes(k, n) * 4,
            Precision::F32.packed_panel_bytes(i8i8_padded_k(k), n)
        );
    }

    #[test]
    fn zero_k_and_empty_shapes_are_safe() {
        let ep = Epilogue::default();
        let mut out88 = vec![1.0f32; 6];
        gemm_prepacked_i8i8(
            &[],
            &[1.0; 3],
            &[0; 3],
            &[],
            &[],
            &[],
            I8I8_GROUP_SIZE,
            &mut out88,
            3,
            0,
            2,
            ep,
        );
        assert!(out88.iter().all(|&v| v == 0.0));
    }
}
