//! Register-tiled, threaded matrix multiplication.
//!
//! `C[M,N] = A[M,K] · B[K,N]`, the single hot kernel of the whole
//! reproduction: convolutions lower to it through im2col (or directly, for
//! 1×1 kernels), and dense layers call it for `M = 1`.
//!
//! # Kernel structure
//!
//! Row blocks of `C` are computed in parallel, and every block is covered
//! by **one register tile**, `f32_tile`: a few rows of `A` against two
//! vectors of `B` columns, the `K` products of each output element
//! accumulated in a register, the [`Epilogue`] applied to those registers,
//! and one store. The tile reads `B` through a pointer and a row stride, so
//! the same code serves both places `B` can live:
//!
//! - **prepacked panels** ([`pack_b_panels_into`]): `NR`-wide column panels
//!   laid out k-major (`panel[k][0..NR]` contiguous, the ragged last panel
//!   zero-padded). Layers whose weights are static during streaming pack
//!   once and every frame walks the panels sequentially
//!   ([`gemm_prepacked`]).
//! - **the caller's row-major `[K, N]` matrix, in place** ([`gemm`],
//!   [`gemm_fused`]): nothing is copied. The microclassifiers multiply a
//!   `1440×32` weight matrix by fifteen to twenty rows; packing it per call
//!   moved more bytes than the product reads. On a ragged last panel the
//!   loads are lane-masked, so nothing past the end of a row is read. (A
//!   tall product against a wide power-of-two `B` — calibration at
//!   `N = 1024` — strides whole pages per column strip and would run faster
//!   from panels; that is set-up, and nothing packs on its behalf.)
//!
//! Rows that do not fill a tile run through the same body as a short tile
//! (its missing rows are copies of the last real one and are not stored),
//! four rows tall when that covers them; a dense layer's single row runs
//! as one row by eight vectors, the shape that keeps as many FMA chains in
//! flight without an `A` row to share.
//!
//! # Instruction selection
//!
//! The tile body is written once, generic over the vector type (`Lanes`),
//! and instantiated twice: under the build's own AVX2+FMA
//! baseline (`ymm`, 4 rows × 16 columns — the only one an x86-64-v3 host
//! without AVX-512 can run) and under `#[target_feature(enable =
//! "avx512f")]` (`zmm`, 8 rows × 32 columns, two adjacent panels). The
//! driver picks between them once per call from
//! `is_x86_feature_detected!("avx512f")` and the column count — an output
//! of eight columns or fewer (the α = 0.25 stem) fills one `ymm` vector and
//! half a `zmm`, and eight rows of `ymm` chains measured 1.4× the masked
//! `zmm` tile there — and nothing else: no option, feature or environment
//! variable reaches either. A wider vector holds more
//! columns, not a different sum: each lane is one output element's
//! ascending-`k` FMA chain either way, so a given build produces the same
//! bits on an AVX-512 host, on a plain AVX2 host, and from the portable
//! kernel. Builds without FMA (`-C target-cpu=x86-64`) compile neither
//! instantiation and never take the `zmm` tile even where the CPU has it:
//! every vector FMA is fused, the portable [`fmadd`] in such a build is
//! not, and mixing the two would make results depend on the host.
//!
//! # Determinism
//!
//! Every output element accumulates its `K` products in ascending-`k` order
//! in **all** paths (prepacked, in place, any tile height or width, any
//! thread count), followed by the same epilogue operations, so results are
//! bit-for-bit identical across `set_threads(1..)` and equal to the naive
//! triple loop.

use crate::im2col::PatchWalker;
use crate::parallel::{parallel_row_blocks_mut, parallel_rows_mut, threads};
use crate::{Conv2dGeometry, Tensor};

/// Tile height of the portable f32 kernel and of the scalar and `ymm`
/// whole-int8 walks in [`crate::lowp`] (the SIMD tiles of both GEMMs carry
/// their own, `Lanes::ROWS`: 4 for `ymm`, 8 for `zmm`).
pub(crate) const MR: usize = 4;
/// Panel width: columns of packed `B` per panel, in both the f32 layout and
/// the whole-int8 one. Sixteen `f32` lanes are two `ymm` vectors or one
/// `zmm`.
pub(crate) const NR: usize = 16;

/// Fused (or plain, off FMA targets) multiply-add. Every GEMM path — the
/// portable kernel, both transpose kernels, and the whole-int8 scalar
/// dequant in [`crate::lowp`] — funnels through this, and the SIMD tiles
/// exist only in builds where it is fused, so all paths share one rounding
/// behavior and stay bit-identical to each other.
#[inline(always)]
pub(crate) fn fmadd(acc: f32, a: f32, b: f32) -> f32 {
    #[cfg(target_feature = "fma")]
    {
        a.mul_add(b, acc)
    }
    #[cfg(not(target_feature = "fma"))]
    {
        acc + a * b
    }
}
/// Minimum `M·N` before a GEMM is worth dispatching to the thread pool.
pub(crate) const MIN_ELEMS_FOR_THREADS: usize = 32 * 1024;

/// `A · B` for rank-2 tensors.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the inner dimensions disagree.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, _) = mat_dims(a, "A");
    let (_, n) = mat_dims(b, "B");
    let mut out = Tensor::zeros(vec![m, n]);
    matmul_into(a, b, &mut out);
    out
}

/// `A · B` written into a pre-allocated `out` (shape `[M, N]`).
///
/// Every element of `out` is overwritten; its prior contents are ignored.
///
/// # Panics
///
/// Panics on any shape mismatch.
pub fn matmul_into(a: &Tensor, b: &Tensor, out: &mut Tensor) {
    let (m, k) = mat_dims(a, "A");
    let (k2, n) = mat_dims(b, "B");
    assert_eq!(k, k2, "matmul inner dims: {k} vs {k2}");
    assert_eq!(out.dims(), &[m, n], "matmul output shape");
    gemm(a.data(), b.data(), out.data_mut(), m, k, n);
}

/// Per-column epilogue fused into a GEMM: applied to each output element
/// while it is still in a register, in the order `acc + bias` → `·scale +
/// shift` → `max(0, ·)`. This is what lets a convolution, its folded
/// batch-norm, and its ReLU execute as **one** pass over the output instead
/// of three (separate layer passes are memory-bound and were costing more
/// than the GEMM itself on the MobileNet hot path).
#[derive(Clone, Copy, Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias, added first.
    pub bias: Option<&'a [f32]>,
    /// Per-output-column affine `(scale, shift)` — a folded batch-norm.
    pub scale_shift: Option<(&'a [f32], &'a [f32])>,
    /// Clamp at zero (ReLU) as the final step.
    pub relu: bool,
}

impl<'a> Epilogue<'a> {
    fn is_noop(&self) -> bool {
        self.bias.is_none() && self.scale_shift.is_none() && !self.relu
    }

    /// The epilogue restricted to columns `j0..`, to finish one row segment
    /// in place with [`Self::apply`].
    pub(crate) fn columns_from(&self, j0: usize) -> Epilogue<'a> {
        Epilogue {
            bias: self.bias.map(|b| &b[j0..]),
            scale_shift: self.scale_shift.map(|(s, t)| (&s[j0..], &t[j0..])),
            relu: self.relu,
        }
    }

    /// Applies the epilogue to one `[rows × n]` row block — the scalar
    /// definition of what the tiles do to their registers.
    pub(crate) fn apply(&self, block: &mut [f32], n: usize) {
        if self.is_noop() {
            return;
        }
        for row in block.chunks_mut(n) {
            if let Some(bias) = self.bias {
                for (v, &b) in row.iter_mut().zip(bias) {
                    *v += b;
                }
            }
            if let Some((scale, shift)) = self.scale_shift {
                for ((v, &s), &t) in row.iter_mut().zip(scale).zip(shift) {
                    *v = fmadd(t, *v, s);
                }
            }
            if self.relu {
                for v in row.iter_mut() {
                    *v = v.max(0.0);
                }
            }
        }
    }
}

/// Raw-slice GEMM: `out[M,N] = a[M,K] · b[K,N]`, all row-major. The public
/// entry point for callers that already hold correctly-shaped buffers (the
/// 1×1-convolution fast path feeds HWC feature maps here directly, skipping
/// both im2col and any reshape copy).
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions.
pub fn gemm(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    gemm_fused(a, b, out, m, k, n, Epilogue::default());
}

/// [`gemm`] with a fused per-column [`Epilogue`]. `b` is read in place.
///
/// # Panics
///
/// Panics if slice lengths disagree with the given dimensions, or an
/// epilogue slice is shorter than `n`.
pub fn gemm_fused(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    F32Gemm::new(a, GemmB::InPlace(b), m, k, n, ep).run(out);
}

/// A `[K, N]` right-hand operand, in either place the f32 tile reads one.
#[derive(Clone, Copy)]
pub enum GemmB<'a> {
    /// The caller's row-major matrix, read where it is.
    InPlace(&'a [f32]),
    /// Panels written by [`pack_b_panels_into`].
    Packed(&'a [f32]),
}

/// A convolution over stacked HWC frames (`x: [frames, in_h, in_w, in_c]`)
/// as one GEMM with a fused [`Epilogue`]: `out[frames·positions, n]`, row
/// `f·positions + p` the output cell `p` of frame `f`. The `[rows, fan_in]`
/// patch matrix never exists: each thread's row block gathers a strip of
/// patch rows at a time ([`crate::im2col`]'s walker) and runs the register
/// tiles on it while it is in L1 — one pool dispatch per layer. A 1×1
/// stride-1 kernel's patch matrix is the input itself and is read in place.
///
/// Every output element is the same ascending-`k` chain over the same taps
/// as [`crate::im2col_into`] followed by [`gemm_fused`] (or
/// [`gemm_prepacked`]), so the results are bit-identical to those, for any
/// frame count and thread count.
///
/// # Panics
///
/// Panics if `x` is not whole frames of `geo`, or on any [`gemm_fused`] /
/// [`gemm_prepacked`] shape mismatch.
pub fn conv_gemm(
    x: &[f32],
    geo: &Conv2dGeometry,
    b: GemmB,
    out: &mut [f32],
    n: usize,
    ep: Epilogue,
) {
    let (k, frame_len) = (geo.fan_in(), geo.in_h * geo.in_w * geo.in_c);
    assert!(
        frame_len > 0 && x.len().is_multiple_of(frame_len),
        "conv input is not whole frames"
    );
    let m = x.len() / frame_len * geo.positions();
    if k == geo.in_c && geo.positions() * k == frame_len {
        return F32Gemm::new(x, b, m, k, n, ep).run(out);
    }
    assert_eq!(out.len(), m * n, "gemm C buffer");
    // Validated once against no rows; every strip is this product over
    // the rows it holds.
    let g = F32Gemm::new(&[], b, 0, k, n, ep);
    let strip_rows = (STRIP_LEN / k / STRIP_TILE * STRIP_TILE).max(STRIP_TILE);
    row_blocks(out, n, |row0, block, wide| {
        let mut walker = PatchWalker::new(x, geo, 0.0, row0);
        with_strip(strip_rows * k, |strip| {
            for chunk in block.chunks_mut(strip_rows * n) {
                let rows = chunk.len() / n;
                let a = &mut strip[..rows * k];
                walker.fill(a, k);
                f32_rows(&F32Gemm { a, m: rows, ..g }, chunk, 0, wide);
            }
        });
    });
}

/// Floats in the stack strip [`conv_gemm`] gathers patch rows into: 16 KB,
/// half of L1d beside the `B` columns and output rows a tile touches.
const STRIP_LEN: usize = 4096;
/// A strip holds whole tiles of rows: a multiple of the tallest tile, and
/// never less than one (a longer `k` takes the thread's heap strip).
const STRIP_TILE: usize = 8;

thread_local! {
    /// The strip for `k > STRIP_LEN / STRIP_TILE`; grows to the longest
    /// such row this thread has served, then stays.
    static LONG_STRIP: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` on a scratch strip of at least `len` floats, stale contents
/// and all: on the stack if that holds it, else this thread's heap strip.
fn with_strip(len: usize, f: impl FnOnce(&mut [f32])) {
    if len <= STRIP_LEN {
        f(&mut [0.0; STRIP_LEN]);
    } else {
        LONG_STRIP.with(|strip| {
            let strip = &mut *strip.borrow_mut();
            if strip.len() < len {
                strip.resize(len, 0.0);
            }
            f(strip);
        });
    }
}

/// Hands `out` (`[rows, n]`) to `f` in row blocks — over the thread pool
/// when the output is big enough — with each block's first row and whether
/// this build and CPU take the `zmm` tile.
fn row_blocks(out: &mut [f32], n: usize, f: impl Fn(usize, &mut [f32], bool) + Sync) {
    let wide = avx512_available();
    let t = if out.len() >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    parallel_row_blocks_mut(out, n, t, |row0, block| f(row0, block, wide));
}

/// Length of the panel buffer [`pack_b_panels_into`] needs for a `[K, N]`
/// matrix.
pub fn packed_panels_len(k: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * k
}

/// Packs a row-major `[K, N]` matrix into `ceil(N/NR)` k-major panels of
/// width `NR`, zero-padding the ragged final panel. Callers with a static
/// `B` (e.g. convolution weights during streaming inference) pack once and
/// reuse via [`gemm_prepacked`], which then streams each panel
/// sequentially.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions.
pub fn pack_b_panels_into(b: &[f32], packed: &mut [f32], k: usize, n: usize) {
    assert_eq!(b.len(), k * n, "pack B buffer");
    assert_eq!(packed.len(), packed_panels_len(k, n), "pack output buffer");
    for jp in 0..n.div_ceil(NR) {
        let j0 = jp * NR;
        let w = (n - j0).min(NR);
        let dst = &mut packed[jp * NR * k..(jp + 1) * NR * k];
        for kk in 0..k {
            let cell = &mut dst[kk * NR..kk * NR + NR];
            cell[..w].copy_from_slice(&b[kk * n + j0..kk * n + j0 + w]);
            cell[w..].fill(0.0);
        }
    }
}

/// [`gemm_fused`] against a pre-packed `B` (see [`pack_b_panels_into`]).
/// Bit-identical to the in-place variants for the same operands.
///
/// # Panics
///
/// Panics if buffer lengths disagree with the dimensions, or an epilogue
/// slice is shorter than `n`.
pub fn gemm_prepacked(
    a: &[f32],
    packed_b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue,
) {
    F32Gemm::new(a, GemmB::Packed(packed_b), m, k, n, ep).run(out);
}

/// Where a GEMM's `B` lives, as the tile addresses it: element `(kk, j)` of
/// panel `jp` is `data[jp·panel_stride + kk·ldb + j]`.
#[derive(Clone, Copy)]
struct BMatrix<'a> {
    data: &'a [f32],
    /// Floats between consecutive `k` rows.
    ldb: usize,
    /// Floats between the first elements of adjacent `NR`-column panels.
    panel_stride: usize,
    /// Whether every panel row holds `NR` floats (the packed layout pads
    /// its ragged last panel); if not, reads there stop at the row's end.
    padded: bool,
}

impl BMatrix<'_> {
    /// Offset of element `(0, j)`: the first `k` row of column `j`.
    fn column(&self, j: usize) -> usize {
        j / NR * self.panel_stride + j % NR
    }
}

/// One f32 GEMM's operands and geometry, validated once by [`Self::new`] so
/// the row walkers and tiles index without re-checking.
#[derive(Clone, Copy)]
struct F32Gemm<'a> {
    a: &'a [f32],
    b: BMatrix<'a>,
    m: usize,
    k: usize,
    n: usize,
    ep: Epilogue<'a>,
}

impl<'a> F32Gemm<'a> {
    /// `a[m, k]` against `b[k, n]`.
    ///
    /// # Panics
    ///
    /// As [`gemm_fused`] or [`gemm_prepacked`], short of the output buffer.
    fn new(a: &'a [f32], b: GemmB<'a>, m: usize, k: usize, n: usize, ep: Epilogue<'a>) -> Self {
        let b = match b {
            GemmB::InPlace(data) => {
                assert_eq!(data.len(), k * n, "gemm B buffer");
                BMatrix {
                    data,
                    ldb: n,
                    panel_stride: NR,
                    padded: false,
                }
            }
            GemmB::Packed(data) => {
                assert_eq!(data.len(), packed_panels_len(k, n), "gemm packed-B buffer");
                BMatrix {
                    data,
                    ldb: NR,
                    panel_stride: NR * k,
                    padded: true,
                }
            }
        };
        assert_eq!(a.len(), m * k, "gemm A buffer");
        if let Some(b) = ep.bias {
            assert!(b.len() >= n, "epilogue bias too short");
        }
        if let Some((s, t)) = ep.scale_shift {
            assert!(
                s.len() >= n && t.len() >= n,
                "epilogue scale/shift too short"
            );
        }
        F32Gemm { a, b, m, k, n, ep }
    }

    /// Computes `out[m, n]`, each row block walked by the tile this build
    /// and CPU select.
    fn run(&self, out: &mut [f32]) {
        let (m, n) = (self.m, self.n);
        assert_eq!(out.len(), m * n, "gemm C buffer");
        if m == 0 || n == 0 {
            return;
        }
        if self.k == 0 {
            out.fill(0.0);
            self.ep.apply(out, n);
            return;
        }
        row_blocks(out, n, |row0, block, wide| {
            f32_rows(self, block, row0, wide)
        });
    }

    /// Rows in `block`, which must be whole output rows `row0..` of this
    /// GEMM — the bound every walker's indexing rests on.
    fn block_rows(&self, block: &[f32], row0: usize) -> usize {
        let rows = block.len() / self.n;
        assert!(
            block.len() == rows * self.n && row0 + rows <= self.m,
            "gemm block"
        );
        rows
    }
}

/// Whether this build and this CPU can run the `zmm` tile.
fn avx512_available() -> bool {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    {
        std::arch::is_x86_feature_detected!("avx512f")
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        false
    }
}

/// Computes `block` (rows `row0..`) of an f32 GEMM, epilogue included,
/// with the tile the build, `wide` and the column count select.
fn f32_rows(g: &F32Gemm, block: &mut [f32], row0: usize, wide: bool) {
    #[cfg(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    ))]
    if wide && g.n > 8 {
        // SAFETY: `wide` is only ever true when `avx512_available()` saw
        // AVX-512F on this CPU.
        unsafe { simd::f32_rows_zmm(g, block, row0) }
    } else {
        simd::f32_rows_ymm(g, block, row0)
    }
    #[cfg(not(all(
        target_arch = "x86_64",
        target_feature = "avx2",
        target_feature = "fma"
    )))]
    {
        debug_assert!(!wide);
        f32_rows_generic(g, block, row0)
    }
}

/// The portable walk: [`micro_kernel_mr_generic`] per `MR` rows per panel —
/// the whole path off AVX2+FMA, and the tiles' reference in tests.
#[allow(dead_code)]
fn f32_rows_generic(g: &F32Gemm, block: &mut [f32], row0: usize) {
    let rows = g.block_rows(block, row0);
    for jp in 0..g.n.div_ceil(NR) {
        for r in (0..rows).step_by(MR) {
            micro_kernel_mr_generic(g, block, row0 + r, r, (rows - r).min(MR), jp);
        }
    }
}

/// Portable `MR×NR` tile (LLVM auto-vectorizes the inner loop) at rows
/// `a_row..a_row + mr` (`mr ≤ MR`) of panel `jp`: per output element one
/// ascending-`k` [`fmadd`] chain, then [`Epilogue::apply`] on the stored
/// segment. A short tile computes its missing rows as copies of its last
/// real row and stores only the real ones; a ragged panel read in place is
/// widened to `NR` with zeros a row at a time.
#[allow(dead_code)]
#[inline]
fn micro_kernel_mr_generic(
    g: &F32Gemm,
    block: &mut [f32],
    a_row: usize,
    c_row: usize,
    mr: usize,
    jp: usize,
) {
    let (k, n) = (g.k, g.n);
    let j0 = jp * NR;
    let w = (n - j0).min(NR);
    let panel = &g.b.data[g.b.column(j0)..];
    let rows: [&[f32]; MR] = std::array::from_fn(|r| {
        let i = a_row + r.min(mr - 1);
        &g.a[i * k..(i + 1) * k]
    });
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..k {
        let mut bk = [0.0f32; NR];
        bk[..w].copy_from_slice(&panel[kk * g.b.ldb..kk * g.b.ldb + w]);
        for (accr, row) in acc.iter_mut().zip(&rows) {
            let ar = row[kk];
            for (c, &bv) in accr.iter_mut().zip(&bk) {
                *c = fmadd(*c, ar, bv);
            }
        }
    }
    let ep = g.ep.columns_from(j0);
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let dst = &mut block[(c_row + r) * n + j0..(c_row + r) * n + j0 + w];
        dst.copy_from_slice(&accr[..w]);
        ep.apply(dst, w);
    }
}

/// The SIMD tile and its two instantiations: compiled only where the
/// build's own baseline has AVX2 and FMA, so that every path of one build
/// rounds a multiply-add the same way.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
pub(crate) mod simd {
    use super::{Epilogue, F32Gemm};
    use std::arch::x86_64::*;

    /// The vector type an [`f32_tile`] instantiation computes in: `LANES`
    /// adjacent output columns per register, every operation lane-wise. The
    /// whole-int8 tile in [`crate::lowp`] dequantizes into the same type.
    ///
    /// # Safety
    ///
    /// Every method requires the instruction set of the implementing type
    /// (AVX2+FMA for `__m256`, AVX-512F for `__m512`); the pointer methods
    /// additionally require `LANES` readable (or writable) floats at `p`,
    /// except [`Lanes::load_first`] and [`Lanes::store_first`], which touch
    /// only the first `lanes`.
    pub(crate) trait Lanes: Copy {
        /// Output columns per vector.
        const LANES: usize;
        /// Rows of a full tile: with two vectors per row, as many as leave
        /// registers for the two `B` vectors and a broadcast.
        const ROWS: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(x: f32) -> Self;
        unsafe fn load(p: *const f32) -> Self;
        /// The first `lanes ≤ LANES` floats at `p`, zeros above them; memory
        /// past `p + lanes` is not touched.
        unsafe fn load_first(p: *const f32, lanes: usize) -> Self;
        unsafe fn store(self, p: *mut f32);
        /// Stores the first `lanes ≤ LANES` floats at `p`; memory past
        /// `p + lanes` is not touched.
        unsafe fn store_first(self, p: *mut f32, lanes: usize);
        /// `self · b + c`, fused.
        unsafe fn fmadd(self, b: Self, c: Self) -> Self;
        unsafe fn add(self, b: Self) -> Self;
        unsafe fn mul(self, b: Self) -> Self;
        /// `max(self, b)` with `b` returned for a NaN `self` — `f32::max(·, 0)`
        /// for `b = 0`.
        unsafe fn max(self, b: Self) -> Self;
    }

    // SAFETY (both impls): each method is the one intrinsic its name says,
    // under the trait's contract — the caller vouches for the instruction
    // set and for the memory behind `p`.
    impl Lanes for __m256 {
        const LANES: usize = 8;
        // 4 × 2 accumulators, 2 `B` vectors and a broadcast: 11 of 16 ymm.
        const ROWS: usize = 4;
        #[inline(always)]
        unsafe fn zero() -> Self {
            _mm256_setzero_ps()
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            _mm256_set1_ps(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm256_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn load_first(p: *const f32, lanes: usize) -> Self {
            // `vmaskmovps` touches a lane only where the mask's sign bit is
            // set, and does not fault on the others.
            unsafe { _mm256_maskload_ps(p, first_lanes_ymm(lanes)) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm256_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, lanes: usize) {
            unsafe { _mm256_maskstore_ps(p, first_lanes_ymm(lanes), self) }
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            _mm256_fmadd_ps(self, b, c)
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            _mm256_add_ps(self, b)
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            _mm256_mul_ps(self, b)
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            _mm256_max_ps(self, b)
        }
    }

    /// The `vmaskmovps` mask of the first `lanes` lanes.
    ///
    /// # Safety
    ///
    /// Requires AVX2.
    #[inline(always)]
    unsafe fn first_lanes_ymm(lanes: usize) -> __m256i {
        let index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(lanes as i32), index)
    }

    impl Lanes for __m512 {
        const LANES: usize = 16;
        // 8 × 2 accumulators and 2 `B` vectors: 18 of 32 zmm (the
        // broadcast folds into the FMA's memory operand).
        const ROWS: usize = 8;
        #[inline(always)]
        unsafe fn zero() -> Self {
            unsafe { _mm512_setzero_ps() }
        }
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            unsafe { _mm512_set1_ps(x) }
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            unsafe { _mm512_loadu_ps(p) }
        }
        #[inline(always)]
        unsafe fn load_first(p: *const f32, lanes: usize) -> Self {
            // A masked-off lane of an AVX-512 load or store is neither
            // touched nor able to fault.
            let mask = ((1u32 << lanes) - 1) as __mmask16;
            unsafe { _mm512_maskz_loadu_ps(mask, p) }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            unsafe { _mm512_storeu_ps(p, self) }
        }
        #[inline(always)]
        unsafe fn store_first(self, p: *mut f32, lanes: usize) {
            let mask = ((1u32 << lanes) - 1) as __mmask16;
            unsafe { _mm512_mask_storeu_ps(p, mask, self) }
        }
        #[inline(always)]
        unsafe fn fmadd(self, b: Self, c: Self) -> Self {
            unsafe { _mm512_fmadd_ps(self, b, c) }
        }
        #[inline(always)]
        unsafe fn add(self, b: Self) -> Self {
            unsafe { _mm512_add_ps(self, b) }
        }
        #[inline(always)]
        unsafe fn mul(self, b: Self) -> Self {
            unsafe { _mm512_mul_ps(self, b) }
        }
        #[inline(always)]
        unsafe fn max(self, b: Self) -> Self {
            unsafe { _mm512_max_ps(self, b) }
        }
    }

    /// The AVX-512F instantiation of [`f32_rows_simd`]: `zmm` vectors, tiles
    /// of up to 8 rows × 32 columns (two adjacent panels).
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F (`is_x86_feature_detected!("avx512f")`;
    /// AVX2 and FMA are this build's baseline).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn f32_rows_zmm(g: &F32Gemm, block: &mut [f32], row0: usize) {
        // SAFETY: the caller vouches for AVX-512F.
        unsafe { f32_rows_simd::<__m512>(g, block, row0) }
    }

    /// The AVX2 instantiation of [`f32_rows_simd`]: `ymm` vectors, tiles of up
    /// to 4 rows × 16 columns (one panel) — the tile for x86-64-v3 hosts
    /// without AVX-512.
    pub(super) fn f32_rows_ymm(g: &F32Gemm, block: &mut [f32], row0: usize) {
        // SAFETY: this instantiation uses only AVX2 and FMA, compile-time
        // target features here.
        unsafe { f32_rows_simd::<__m256>(g, block, row0) }
    }

    /// Column-major walk of one row block in tiles two vectors wide: the `B`
    /// columns of a tile stay cache-hot across all of the block's rows. The
    /// last tile of a row takes one vector if that covers its columns, and
    /// lane-masked loads if a row of `B` ends inside it.
    ///
    /// A block of one row (a dense layer) has no second row to share a `B`
    /// vector with, and two chains cannot hide FMA latency, so it goes eight
    /// vectors of columns at a time while whole ones last.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` must be available.
    #[inline(always)]
    unsafe fn f32_rows_simd<V: Lanes>(g: &F32Gemm, block: &mut [f32], row0: usize) {
        let rows = g.block_rows(block, row0);
        let mut j0 = 0;
        while rows == 1 && g.n - j0 >= 8 * V::LANES {
            // SAFETY: forwarded from the caller; the block's one row, and
            // eight whole vectors of columns from `j0`.
            unsafe { f32_tile::<V, 1, 8, false>(g, block, row0, 0, 1, j0) };
            j0 += 8 * V::LANES;
        }
        while j0 < g.n {
            let cols = g.n - j0;
            let two = cols > V::LANES;
            let masked = !g.b.padded && cols < 2 * V::LANES && cols != V::LANES;
            let mut r = 0;
            while r < rows {
                // SAFETY: forwarded from the caller; rows `row0 + r..` and the
                // block's rows `r..` exist by `block_rows`' check, and the
                // vector count and masking are the ones `cols` calls for.
                r += unsafe {
                    match (two, masked) {
                        (true, false) => {
                            f32_tiles::<V, 2, false>(g, block, row0 + r, r, rows - r, j0)
                        }
                        (true, true) => {
                            f32_tiles::<V, 2, true>(g, block, row0 + r, r, rows - r, j0)
                        }
                        (false, false) => {
                            f32_tiles::<V, 1, false>(g, block, row0 + r, r, rows - r, j0)
                        }
                        (false, true) => {
                            f32_tiles::<V, 1, true>(g, block, row0 + r, r, rows - r, j0)
                        }
                    }
                };
            }
            j0 += 2 * V::LANES;
        }
    }

    /// Runs one [`f32_tile`] over the next of `left` rows — `V::ROWS` tall
    /// (8 when it is one vector wide: as many chains as the `ymm` tile's
    /// 4 × 2), or 4 when that covers what is left — and returns how many it
    /// finished.
    ///
    /// # Safety
    ///
    /// As [`f32_tile`], with `left ≥ 1` rows at `a_row` and `c_row`.
    #[inline(always)]
    unsafe fn f32_tiles<V: Lanes, const NV: usize, const MASKED: bool>(
        g: &F32Gemm,
        block: &mut [f32],
        a_row: usize,
        c_row: usize,
        left: usize,
        j0: usize,
    ) -> usize {
        const { assert!(V::ROWS == 4 || V::ROWS == 8) };
        // SAFETY: forwarded from the caller; `mr` is at most `left`.
        unsafe {
            if (V::ROWS == 8 || NV == 1) && left > 4 {
                let mr = left.min(8);
                f32_tile::<V, 8, NV, MASKED>(g, block, a_row, c_row, mr, j0);
                mr
            } else {
                let mr = left.min(4);
                f32_tile::<V, 4, NV, MASKED>(g, block, a_row, c_row, mr, j0);
                mr
            }
        }
    }

    /// The f32 register tile: rows `a_row..a_row + mr` (`mr ≤ ROWS`) of `A`
    /// against the `NV` vectors of `B` columns starting at `j0`. Per `k` step,
    /// `NV` loads of `B` (lane-masked to the row's end when `MASKED`) and one
    /// broadcast per row feed `ROWS·NV` FMAs, each lane one output element's
    /// ascending-`k` chain; then [`finish_tile`]: the epilogue on the
    /// accumulators and the tile's only store. Bit-identical to
    /// [`super::micro_kernel_mr_generic`] in an FMA build: every float
    /// operation is the same one in the same order.
    ///
    /// A short tile computes its missing rows as copies of its last real row
    /// and stores only the real ones: below `ROWS·NV = 8` chains in flight the
    /// FMA units wait on their own latency, so the copies cost nothing a
    /// shorter tile would save.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` must be available; `1 ≤ mr ≤ ROWS` and
    /// `a_row + mr ≤ g.m`; `block` must hold rows `c_row..c_row + mr` of an
    /// `[*, g.n]` matrix; `j0 + (NV - 1)·LANES < g.n`; and `MASKED` must be
    /// set if `g.b` is not padded and has fewer than `NV·LANES` columns from
    /// `j0`. Everything else is the geometry [`F32Gemm`]'s constructors
    /// asserted.
    #[inline(always)]
    unsafe fn f32_tile<V: Lanes, const ROWS: usize, const NV: usize, const MASKED: bool>(
        g: &F32Gemm,
        block: &mut [f32],
        a_row: usize,
        c_row: usize,
        mr: usize,
        j0: usize,
    ) {
        let (k, n, ldb) = (g.k, g.n, g.b.ldb);
        let cols = (n - j0).min(NV * V::LANES);
        // SAFETY: target features per the caller. `A` reads are rows below
        // `a_row + mr ≤ g.m` of an `m·k` slice. Vector `v` reads `LANES` floats
        // of each `k` row from column `j0 + v·LANES`: inside a padded panel
        // row, inside a row of an in-place `B` when that many columns are
        // left, and otherwise only the `cols - v·LANES` lanes that are.
        // `finish_tile`'s conditions are this function's own.
        unsafe {
            let ap: [*const f32; ROWS] =
                std::array::from_fn(|r| g.a.as_ptr().add((a_row + r.min(mr - 1)) * k));
            let bp: [*const f32; NV] =
                std::array::from_fn(|v| g.b.data.as_ptr().add(g.b.column(j0 + v * V::LANES)));
            let mut acc = [[V::zero(); NV]; ROWS];
            for kk in 0..k {
                let mut bv = [V::zero(); NV];
                for (v, (bv, bp)) in bv.iter_mut().zip(&bp).enumerate() {
                    let p = bp.add(kk * ldb);
                    *bv = if MASKED {
                        V::load_first(p, (cols - v * V::LANES).min(V::LANES))
                    } else {
                        V::load(p)
                    };
                }
                for (accr, ap) in acc.iter_mut().zip(&ap) {
                    let av = V::splat(*ap.add(kk));
                    for (acc, &bv) in accr.iter_mut().zip(&bv) {
                        *acc = av.fmadd(bv, *acc);
                    }
                }
            }
            finish_tile(acc, &g.ep, block, n, c_row, mr, j0);
        }
    }

    /// What every register tile does with its finished sums: the epilogue
    /// (`+ bias`, `·scale + shift` fused, `max 0` — the operations of
    /// [`Epilogue::apply`] in its order) on the accumulators, then the tile's
    /// only store, of its first `mr` rows at `block[c_row.., j0..]`. A tile
    /// wider than the columns left does the same with lane-masked loads and
    /// stores: each real column's lane sees the same operations, and nothing
    /// past column `n` of the epilogue slices or of an output row is touched.
    ///
    /// # Safety
    ///
    /// The instruction set of `V` must be available; `1 ≤ mr ≤ ROWS`, `block`
    /// must hold rows `c_row..c_row + mr` of an `[*, n]` matrix, `j0 < n`, and
    /// the epilogue's slices must hold `n` entries.
    #[inline(always)]
    pub(crate) unsafe fn finish_tile<V: Lanes, const ROWS: usize, const NV: usize>(
        mut acc: [[V; NV]; ROWS],
        ep: &Epilogue,
        block: &mut [f32],
        n: usize,
        c_row: usize,
        mr: usize,
        j0: usize,
    ) {
        let cols = (n - j0).min(NV * V::LANES);
        let full = cols == NV * V::LANES;
        // Real columns in vector `v` of a ragged tile (none, for a vector
        // wholly past `n`).
        let lanes = |v: usize| cols.saturating_sub(v * V::LANES).min(V::LANES);
        // SAFETY: target features per the caller. Vector `v` covers columns
        // `j0 + v·LANES..` of the epilogue slices and of an output row: all
        // `LANES` of them are below `n` in a full tile, and a ragged one
        // touches only the `lanes(v)` that are (the pointer itself may lie
        // past the slice, hence `wrapping_add`).
        unsafe {
            let load = |s: &[f32], v: usize| {
                let p = s.as_ptr().wrapping_add(j0 + v * V::LANES);
                if full {
                    V::load(p)
                } else {
                    V::load_first(p, lanes(v))
                }
            };
            if let Some(bias) = ep.bias {
                for v in 0..NV {
                    let b = load(bias, v);
                    for accr in acc.iter_mut() {
                        accr[v] = accr[v].add(b);
                    }
                }
            }
            if let Some((scale, shift)) = ep.scale_shift {
                for v in 0..NV {
                    let (s, t) = (load(scale, v), load(shift, v));
                    for accr in acc.iter_mut() {
                        accr[v] = accr[v].fmadd(s, t);
                    }
                }
            }
            if ep.relu {
                // Nested on purpose: through `flatten()` LLVM keeps the whole
                // accumulator array in memory, `k` loop included.
                for accr in acc.iter_mut() {
                    for acc in accr.iter_mut() {
                        *acc = acc.max(V::zero());
                    }
                }
            }
            let cp = block[c_row * n + j0..].as_mut_ptr();
            for (r, accr) in acc.iter().enumerate().take(mr) {
                for (v, acc) in accr.iter().enumerate() {
                    let p = cp.wrapping_add(r * n + v * V::LANES);
                    if full {
                        acc.store(p);
                    } else {
                        acc.store_first(p, lanes(v));
                    }
                }
            }
        }
    }
}

/// `Aᵀ · B` without materializing the transpose.
///
/// Used by convolution backward passes (weight gradients): with `A` the
/// im2col matrix `[positions, fan_in]` and `B` the output gradient
/// `[positions, c_out]`, this yields the weight gradient `[fan_in, c_out]`.
///
/// Output rows are tiled by four so each streamed row of `B` feeds four
/// accumulator rows (4× less `B` traffic than the row-at-a-time loop).
///
/// # Panics
///
/// Panics if operands are not rank-2 or the row counts disagree.
pub fn matmul_transpose_a(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A"); // computes Aᵀ (k×m) · B (m×n)
    let (m2, n) = mat_dims(b, "B");
    assert_eq!(m, m2, "matmul_transpose_a outer dims: {m} vs {m2}");
    let mut out = Tensor::zeros(vec![k, n]);
    let (ad, bd) = (a.data(), b.data());
    let t = if k * n >= MIN_ELEMS_FOR_THREADS {
        threads()
    } else {
        1
    };
    parallel_row_blocks_mut(out.data_mut(), n, t, |row0, block| {
        let rows = block.len() / n;
        let mut r = 0;
        // Four output rows (= four adjacent A columns) per pass over B.
        while r + 4 <= rows {
            let (rs, rest) = block[r * n..].split_at_mut(n);
            let (r1, rest) = rest.split_at_mut(n);
            let (r2, r3x) = rest.split_at_mut(n);
            let r3 = &mut r3x[..n];
            for i in 0..m {
                let ai = &ad[i * k + row0 + r..i * k + row0 + r + 4];
                let b_row = &bd[i * n..(i + 1) * n];
                for ((((c0, c1), c2), c3), &bv) in rs
                    .iter_mut()
                    .zip(r1.iter_mut())
                    .zip(r2.iter_mut())
                    .zip(r3.iter_mut())
                    .zip(b_row)
                {
                    *c0 = fmadd(*c0, ai[0], bv);
                    *c1 = fmadd(*c1, ai[1], bv);
                    *c2 = fmadd(*c2, ai[2], bv);
                    *c3 = fmadd(*c3, ai[3], bv);
                }
            }
            r += 4;
        }
        while r < rows {
            let c_row = &mut block[r * n..(r + 1) * n];
            let kk = row0 + r;
            for i in 0..m {
                let aik = ad[i * k + kk];
                let b_row = &bd[i * n..(i + 1) * n];
                for (c, &bv) in c_row.iter_mut().zip(b_row) {
                    *c = fmadd(*c, aik, bv);
                }
            }
            r += 1;
        }
    });
    out
}

/// `A · Bᵀ` without materializing the transpose.
///
/// Used by dense-layer backward passes (input gradients). Output columns
/// are tiled by eight so each pass over an `A` row computes eight dot
/// products against eight streamed `B` rows.
///
/// # Panics
///
/// Panics if operands are not rank-2 or the column counts disagree.
pub fn matmul_transpose_b(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = mat_dims(a, "A");
    let (n, k2) = mat_dims(b, "B"); // B is n x k, we use B^T: k x n
    assert_eq!(k, k2, "matmul_transpose_b inner dims: {k} vs {k2}");
    let mut out = Tensor::zeros(vec![m, n]);
    let (ad, bd) = (a.data(), b.data());
    parallel_rows_mut(out.data_mut(), n, |i, c_row| {
        let a_row = &ad[i * k..(i + 1) * k];
        let mut j = 0;
        while j + 8 <= n {
            let mut acc = [0.0f32; 8];
            for (kk, &av) in a_row.iter().enumerate() {
                for (c, jj) in acc.iter_mut().zip(j..j + 8) {
                    *c = fmadd(*c, av, bd[jj * k + kk]);
                }
            }
            c_row[j..j + 8].copy_from_slice(&acc);
            j += 8;
        }
        for jj in j..n {
            let b_row = &bd[jj * k..(jj + 1) * k];
            let mut acc = 0.0f32;
            for (&av, &bv) in a_row.iter().zip(b_row) {
                acc = fmadd(acc, av, bv);
            }
            c_row[jj] = acc;
        }
    });
    out
}

fn mat_dims(t: &Tensor, which: &str) -> (usize, usize) {
    assert_eq!(
        t.rank(),
        2,
        "matmul operand {which} must be rank-2, got {:?}",
        t.dims()
    );
    (t.dims()[0], t.dims()[1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc = fmadd(acc, a.at2(i, kk), b.at2(kk, j));
                }
                out.data_mut()[i * n + j] = acc;
            }
        }
        out
    }

    fn random(dims: Vec<usize>, seed: u64) -> Tensor {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let n: usize = dims.iter().product();
        Tensor::from_vec(dims, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    #[test]
    fn matches_naive_small() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]);
        assert!(matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-5));
    }

    #[test]
    fn matches_naive_odd_sizes() {
        // Shapes straddling every path: short and full tiles, ragged
        // column tiles read in place, and pool-dispatched.
        for &(m, k, n) in &[
            (1, 1, 1),
            (5, 7, 3),
            (17, 33, 9),
            (64, 10, 100),
            (8, 8, 8),
            (9, 16, 17),
            (33, 5, 31),
            (128, 64, 96),
            (257, 40, 130),
        ] {
            let a = random(vec![m, k], m as u64 * 31 + n as u64);
            let b = random(vec![k, n], k as u64 * 17 + 1);
            assert!(
                matmul(&a, &b).approx_eq(&naive(&a, &b), 1e-3),
                "{m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn packed_path_is_bit_identical_to_naive() {
        // Same per-element accumulation order ⇒ bit-for-bit equality, not
        // just approximate agreement.
        let a = random(vec![40, 23], 5);
        let b = random(vec![23, 19], 6);
        assert_eq!(matmul(&a, &b), naive(&a, &b));
    }

    #[test]
    fn zero_k_dimension_yields_zeros() {
        let a = Tensor::zeros(vec![3, 0]);
        let b = Tensor::zeros(vec![0, 4]);
        let c = matmul(&a, &b);
        assert_eq!(c.dims(), &[3, 4]);
        assert!(c.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn transpose_a_matches_explicit() {
        for &(m, k, n) in &[(7, 4, 5), (16, 9, 12), (65, 13, 33)] {
            let a = random(vec![m, k], 3);
            let b = random(vec![m, n], 4);
            let got = matmul_transpose_a(&a, &b);
            let want = matmul(&a.transpose2(), &b);
            assert!(got.approx_eq(&want, 1e-3), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn transpose_b_matches_explicit() {
        for &(m, k, n) in &[(4, 6, 5), (9, 16, 19), (33, 12, 40)] {
            let a = random(vec![m, k], 11);
            let b = random(vec![n, k], 12);
            let got = matmul_transpose_b(&a, &b);
            let want = matmul(&a, &b.transpose2());
            assert!(got.approx_eq(&want, 1e-3), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn gemm_on_raw_slices() {
        // The 1×1-conv fast path: HWC feature map as [positions, channels].
        let a = random(vec![12, 6], 7);
        let b = random(vec![6, 10], 8);
        let mut out = vec![0.0f32; 12 * 10];
        gemm(a.data(), b.data(), &mut out, 12, 6, 10);
        assert!(Tensor::from_vec(vec![12, 10], out).approx_eq(&naive(&a, &b), 1e-4));
    }

    #[test]
    fn results_identical_across_thread_counts() {
        use crate::parallel::set_threads;
        let a = random(vec![96, 41], 21);
        let b = random(vec![41, 77], 22);
        set_threads(1);
        let gold = matmul(&a, &b);
        for t in 2..=8 {
            set_threads(t);
            assert_eq!(matmul(&a, &b), gold, "thread count {t}");
        }
        set_threads(0);
    }

    type RowWalker = fn(&F32Gemm, &mut [f32], usize);

    /// Every tile instantiation this build and CPU can run, called
    /// directly — no dispatch in between — and a printed line saying which.
    fn tile_instantiations() -> Vec<(&'static str, RowWalker)> {
        #[allow(unused_mut)]
        let mut tiles: Vec<(&'static str, RowWalker)> = vec![("portable", f32_rows_generic)];
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        {
            tiles.push(("ymm", simd::f32_rows_ymm));
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F was detected on this CPU just above.
                tiles.push(("zmm", |g, block, row0| unsafe {
                    simd::f32_rows_zmm(g, block, row0)
                }));
            } else {
                println!("matmul: skipping the zmm tile, this CPU has no AVX-512F");
            }
        }
        let names: Vec<&str> = tiles.iter().map(|t| t.0).collect();
        println!("matmul: f32 tile instantiations exercised: {names:?}");
        tiles
    }

    fn pack(b: &[f32], k: usize, n: usize) -> Vec<f32> {
        let mut packed = vec![0.0f32; packed_panels_len(k, n)];
        pack_b_panels_into(b, &mut packed, k, n);
        packed
    }

    /// The same product from both places the tile can read `B`.
    fn b_sources<'a>(
        a: &'a [f32],
        (packed, b): (&'a [f32], &'a [f32]),
        (m, k, n): (usize, usize, usize),
        ep: Epilogue<'a>,
    ) -> [(&'static str, F32Gemm<'a>); 2] {
        [
            (
                "prepacked",
                F32Gemm::new(a, GemmB::Packed(packed), m, k, n, ep),
            ),
            ("in place", F32Gemm::new(a, GemmB::InPlace(b), m, k, n, ep)),
        ]
    }

    /// `walk` over the whole output in row blocks of `block_rows`, as bits.
    fn walk_in_blocks(walk: RowWalker, g: &F32Gemm, block_rows: usize) -> Vec<u32> {
        let mut out = vec![f32::NAN; g.m * g.n];
        for (i, block) in out.chunks_mut(block_rows * g.n).enumerate() {
            walk(g, block, i * block_rows);
        }
        out.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn f32_tile_instantiations_match_naive_bit_for_bit() {
        // Row counts on both sides of every tile height, column counts on
        // both sides of one and two vectors of either width, inside the
        // first vector (the α = 0.25 stem's 8) plus a many-panel ragged one, `k` from one step to the windowed MC's
        // 1440 — each instantiation against the naive chain, from packed
        // panels and in place, whole and in row blocks with a short last
        // one. Rows are independent, so the 19-row product is the
        // reference for every shorter `m`.
        let tiles = tile_instantiations();
        for n in [1, 3, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40, 200] {
            for k in [1, 27, 64, 1440] {
                let a = random(vec![19, k], (n * 7 + k) as u64);
                let b = random(vec![k, n], (n * 13 + k + 1) as u64);
                let want: Vec<u32> = naive(&a, &b).data().iter().map(|v| v.to_bits()).collect();
                let packed = pack(b.data(), k, n);
                for m in 1..=19 {
                    let (a, b) = (&a.data()[..m * k], (&packed[..], b.data()));
                    for (source, g) in b_sources(a, b, (m, k, n), Epilogue::default()) {
                        for &(name, walk) in &tiles {
                            for block_rows in [m, 5] {
                                assert!(
                                    walk_in_blocks(walk, &g, block_rows) == want[..m * n],
                                    "{name} {source} {m}x{k}x{n} block={block_rows}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn f32_tile_epilogues_match_scalar_apply() {
        // Every epilogue combination, applied by each instantiation to its
        // registers — whole vectors in a full-width tile, lane-masked in a
        // ragged one — against `Epilogue::apply` on the naive product. The
        // epilogue slices hold exactly `n` entries and end at a guard page,
        // so a masked load that reads past column `n` faults.
        let tiles = tile_instantiations();
        let ns = [1, 3, 8, 9, 15, 24, 32, 33, 40, 200];
        println!("matmul: ragged and full epilogues at n = {ns:?}, all 8 combinations each");
        for n in ns {
            for (m, k) in [(1, 27), (5, 9), (8, 64), (13, 27), (19, 5)] {
                let a = random(vec![m, k], 31);
                let b = random(vec![k, n], 32);
                let bias = GuardedTail::new(random(vec![n], 33).data());
                let scale = GuardedTail::new(random(vec![n], 34).data());
                let shift = GuardedTail::new(random(vec![n], 35).data());
                let plain = naive(&a, &b);
                let packed = pack(b.data(), k, n);
                for bits in 0..8u32 {
                    let ep = Epilogue {
                        bias: (bits & 1 != 0).then_some(bias.as_slice()),
                        scale_shift: (bits & 2 != 0)
                            .then_some((scale.as_slice(), shift.as_slice())),
                        relu: bits & 4 != 0,
                    };
                    let mut want = plain.clone();
                    ep.apply(want.data_mut(), n);
                    let want: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
                    for (source, g) in b_sources(a.data(), (&packed, b.data()), (m, k, n), ep) {
                        for &(name, walk) in &tiles {
                            assert!(
                                walk_in_blocks(walk, &g, m) == want,
                                "{name} {source} {m}x{k}x{n} ep={bits:03b}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn conv_gemm_matches_materialised_im2col_then_gemm() {
        // The fused convolution against `im2col_into` + `gemm_prepacked` /
        // `gemm_fused`, bit for bit: the stem at the three ffbench
        // geometries (n = 8 ends inside the first vector), the windowed
        // MC's 3×3×160 tail (k = 1440: the heap strip, eight rows of a
        // 25-row map) and a 1×1 (read in place), one frame and three
        // (3·512 rows is no multiple of the 144-row strip, and the walk
        // crosses frames mid-strip), at thread counts that split the rows
        // unevenly.
        use crate::parallel::set_threads;
        use crate::{im2col_into, Padding};
        for &((h, w, c), k, stride, n) in &[
            ((32, 64, 3), 3, 2, 8),
            ((67, 120, 3), 3, 2, 16),
            ((270, 480, 3), 3, 2, 32),
            ((5, 5, 160), 3, 1, 32),
            ((7, 9, 24), 1, 1, 40),
        ] {
            let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
            let (positions, fan_in) = (geo.positions(), geo.fan_in());
            let b = random(vec![fan_in, n], 51);
            let packed = pack(b.data(), fan_in, n);
            let (bias, scale, shift) = (
                random(vec![n], 52),
                random(vec![n], 53),
                random(vec![n], 54),
            );
            let ep = Epilogue {
                bias: Some(bias.data()),
                scale_shift: Some((scale.data(), shift.data())),
                relu: true,
            };
            for frames in [1, 3] {
                let x = random(vec![frames, h, w, c], 55);
                let rows = frames * positions;
                let mut cols = Tensor::zeros(vec![rows, fan_in]);
                for (f, cols) in cols.data_mut().chunks_mut(positions * fan_in).enumerate() {
                    let frame = x.data()[f * h * w * c..(f + 1) * h * w * c].to_vec();
                    let mut one = Tensor::zeros(vec![positions, fan_in]);
                    im2col_into(&Tensor::from_vec(vec![h, w, c], frame), &geo, &mut one);
                    cols.copy_from_slice(one.data());
                }
                let mut want = vec![0.0f32; rows * n];
                gemm_prepacked(cols.data(), &packed, &mut want, rows, fan_in, n, ep);
                let mut in_place = vec![0.0f32; rows * n];
                gemm_fused(cols.data(), b.data(), &mut in_place, rows, fan_in, n, ep);
                assert!(want == in_place, "references disagree");
                for t in [1, 2, 8] {
                    set_threads(t);
                    for (source, b) in [
                        ("prepacked", GemmB::Packed(&packed)),
                        ("in place", GemmB::InPlace(b.data())),
                    ] {
                        let mut got = vec![f32::NAN; rows * n];
                        conv_gemm(x.data(), &geo, b, &mut got, n, ep);
                        let same = got
                            .iter()
                            .zip(&want)
                            .all(|(g, w)| g.to_bits() == w.to_bits());
                        assert!(
                            same,
                            "{source} {h}x{w}x{c} k{k} n{n} frames {frames} threads {t}"
                        );
                    }
                }
                set_threads(0);
            }
        }
    }

    /// A `[len]` float slice that ends exactly where its mapping does, with
    /// an inaccessible page behind it: reading one float past the slice
    /// faults instead of passing unnoticed.
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    struct GuardedTail {
        map: *mut u8,
        map_len: usize,
        len: usize,
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    impl GuardedTail {
        const PAGE: usize = 4096;

        fn new(values: &[f32]) -> Self {
            use std::ffi::c_void;
            extern "C" {
                fn mmap(
                    a: *mut c_void,
                    len: usize,
                    prot: i32,
                    flags: i32,
                    fd: i32,
                    off: i64,
                ) -> *mut c_void;
                fn mprotect(a: *mut c_void, len: usize, prot: i32) -> i32;
            }
            let bytes = std::mem::size_of_val(values);
            let map_len = bytes.div_ceil(Self::PAGE) * Self::PAGE + Self::PAGE;
            // SAFETY: a fresh private anonymous read-write mapping
            // (PROT_READ|PROT_WRITE = 3, MAP_PRIVATE|MAP_ANONYMOUS = 0x22)
            // whose last page is then made PROT_NONE; the values are
            // copied to end at that page's start, inside the mapping.
            unsafe {
                let map = mmap(std::ptr::null_mut(), map_len, 3, 0x22, -1, 0).cast::<u8>();
                assert!(!map.is_null() && map as isize != -1, "mmap failed");
                let guard = map.add(map_len - Self::PAGE);
                assert_eq!(mprotect(guard.cast(), Self::PAGE, 0), 0, "mprotect failed");
                std::ptr::copy_nonoverlapping(
                    values.as_ptr().cast::<u8>(),
                    guard.sub(bytes),
                    bytes,
                );
                GuardedTail {
                    map,
                    map_len,
                    len: values.len(),
                }
            }
        }

        fn as_slice(&self) -> &[f32] {
            // SAFETY: `len` initialised floats end at the guard page; the
            // page size is a multiple of their alignment.
            unsafe {
                let end = self.map.add(self.map_len - Self::PAGE);
                std::slice::from_raw_parts(end.cast::<f32>().sub(self.len), self.len)
            }
        }
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    impl Drop for GuardedTail {
        fn drop(&mut self) {
            extern "C" {
                fn munmap(a: *mut std::ffi::c_void, len: usize) -> i32;
            }
            // SAFETY: the mapping `new` created, unmapped once.
            unsafe { munmap(self.map.cast(), self.map_len) };
        }
    }

    /// Elsewhere: the same values without the guard page.
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    struct GuardedTail(Vec<f32>);

    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    impl GuardedTail {
        fn new(values: &[f32]) -> Self {
            GuardedTail(values.to_vec())
        }

        fn as_slice(&self) -> &[f32] {
            &self.0
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    fn f32_tile_in_place_b_is_not_read_past_its_end() {
        // `B` in place, its last row ending at the last mapped byte: the
        // ragged tile's loads of that row must stop at the row's end. A
        // full-width load there would fault on the guard page.
        let tiles = tile_instantiations();
        for n in [1, 7, 15, 17, 31, 33, 200] {
            let (m, k) = (6, 5);
            let a = random(vec![m, k], 41);
            let b = random(vec![k, n], 42);
            let want: Vec<u32> = naive(&a, &b).data().iter().map(|v| v.to_bits()).collect();
            let guarded = GuardedTail::new(b.data());
            let b = GemmB::InPlace(guarded.as_slice());
            let g = F32Gemm::new(a.data(), b, m, k, n, Epilogue::default());
            for &(name, walk) in &tiles {
                assert!(walk_in_blocks(walk, &g, m) == want, "{name} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dims")]
    fn rejects_mismatched_inner() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![4, 2]);
        let _ = matmul(&a, &b);
    }
}
