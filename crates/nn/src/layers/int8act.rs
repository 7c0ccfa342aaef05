//! Shared whole-int8 forward path for the GEMM-lowered convolutions.
//!
//! At [`ff_tensor::Precision::Int8Act`] the input feature map quantizes to
//! u8 with one asymmetric scale and zero-point per frame (see
//! [`ff_tensor::quantize_map_u8_into`]), and the patch gather lands
//! directly in u8 im2col rows ([`ff_tensor::im2col_u8_into`]), so
//! activations never round-trip through an f32 im2col matrix. The
//! whole-int8 GEMM then computes output rows with i32 accumulation and one
//! fused dequant into the layer's f32 [`Epilogue`].
//!
//! The work is split so any range of output rows can be computed on its
//! own. [`with_u8_rows`] fixes each frame's scale and zero-point from its
//! whole map — and, for a conv that gathers patches, codes the map once —
//! and [`U8Rows::gemm`] codes or gathers just the rows a range needs, then
//! runs the GEMM on them. A layer's own inference asks for every row at
//! once. The band walk (see [`crate::layers`]) asks for one band of a
//! producer's rows at a time, on whichever pool thread walks the band, so
//! the codes are written and read while they are in cache. Only the rows
//! can be banded: the scale and zero-point are functions of the whole map,
//! which is why the depthwise → 1×1 boundary stays unfused.

use std::cell::RefCell;
use std::ops::Range;

use ff_tensor::{
    i8i8_padded_k, im2col_u8_into, map_qparams_u8, quantize_map_u8_into, quantize_u8_with,
    Conv2dGeometry, Epilogue, PackedPanels,
};

use crate::layers::band_geometry;

/// Per-thread u8 scratch for the whole-int8 conv path. The f32
/// [`ff_tensor::Workspace`] arena cannot hold byte buffers, so the path
/// keeps its own reusable scratch with the same
/// zero-allocations-after-warm-up property. Two cells, because a thread
/// that fixed a call's input ([`with_u8_rows`]) also walks some of its
/// bands ([`U8Rows::gemm`]).
struct U8Scratch {
    input: RefCell<Input>,
    rows: RefCell<Rows>,
}

/// One call's input: what every row range reads.
struct Input {
    /// Each frame's quantized map (HWC), back to back — the gather path's
    /// source; empty for an identity 1×1, which codes rows straight from
    /// the f32 map.
    qmap: Vec<u8>,
    /// Each frame's `(scale, zero_point)`.
    params: Vec<(f32, u8)>,
}

/// One GEMM call's A side.
struct Rows {
    /// Quantized im2col rows.
    cols: Vec<u8>,
    /// Per-row activation scales fed to the GEMM.
    scales: Vec<f32>,
    /// Per-row activation zero-points fed to the GEMM.
    zps: Vec<u8>,
}

thread_local! {
    static U8_WS: U8Scratch = const {
        U8Scratch {
            input: RefCell::new(Input {
                qmap: Vec::new(),
                params: Vec::new(),
            }),
            rows: RefCell::new(Rows {
                cols: Vec::new(),
                scales: Vec::new(),
                zps: Vec::new(),
            }),
        }
    };
}

/// Stacked frames made ready for the whole-int8 GEMM: each frame's
/// quantization fixed, any of its output rows codable on any thread.
pub(crate) struct U8Rows<'a> {
    x: &'a [f32],
    geo: &'a Conv2dGeometry,
    qmap: &'a [u8],
    params: &'a [(f32, u8)],
}

impl U8Rows<'_> {
    /// A 1×1 stride-1 conv over quad-aligned channels needs no gather: the
    /// coded HWC map *is* the im2col matrix (`kp == in_c`, rows
    /// contiguous) — mirroring the f32 path's direct-GEMM 1×1 fast path.
    fn identity(geo: &Conv2dGeometry) -> bool {
        let kp = i8i8_padded_k(geo.fan_in());
        geo.kh == 1
            && geo.kw == 1
            && geo.stride == 1
            && kp == geo.fan_in()
            && geo.positions() * kp == geo.in_h * geo.in_w * geo.in_c
    }

    /// Output map rows `rows` — rows `f·out_h + oy` of the stacked frames
    /// — of the GEMM against `packed` under `ep`, into `out`
    /// (`[rows·out_w, n]`): the rows coded (or gathered from the coded
    /// map) into this thread's scratch, each with its frame's scale and
    /// zero-point, then one GEMM over them. Every code is a function of
    /// its own element and every output element accumulates in i32 over
    /// its own code row, so any range computes the same bits as the whole.
    pub(crate) fn gemm(
        &self,
        packed: &PackedPanels,
        rows: Range<usize>,
        out: &mut [f32],
        n: usize,
        ep: Epilogue,
    ) {
        let geo = self.geo;
        let (h, w, fan_in) = (geo.out_h, geo.out_w, geo.fan_in());
        let kp = i8i8_padded_k(fan_in);
        let (frame_len, in_row) = (geo.in_h * geo.in_w * geo.in_c, geo.in_w * geo.in_c);
        let m = rows.len() * w;
        U8_WS.with(|ws| {
            let Rows { cols, scales, zps } = &mut *ws.rows.borrow_mut();
            cols.resize(m * kp, 0);
            scales.resize(m, 0.0);
            zps.resize(m, 0);
            let mut at = 0;
            let mut r = rows.start;
            while r < rows.end {
                // This frame's part of the range.
                let (f, oy) = (r / h, r % h);
                let end = (rows.end - f * h).min(h);
                let cells = at..at + (end - oy) * w;
                let (scale, zp) = self.params[f];
                let dst = &mut cols[cells.start * kp..cells.end * kp];
                if Self::identity(geo) {
                    let x = &self.x[f * frame_len..][oy * in_row..end * in_row];
                    quantize_u8_with(x, (scale, zp), dst);
                } else {
                    let (band, input) = band_geometry(geo, oy..end);
                    let qmap =
                        &self.qmap[f * frame_len..][input.start * in_row..input.end * in_row];
                    im2col_u8_into(qmap, zp, &band, dst);
                }
                scales[cells.clone()].fill(scale);
                zps[cells.clone()].fill(zp);
                at = cells.end;
                r = f * h + end;
            }
            packed.gemm_u8(cols, scales, zps, out, m, fan_in, n, ep);
        });
    }
}

/// Fixes the quantization of the stacked HWC frames `x` of `geo` on this
/// thread, then runs `f` on the result.
///
/// Each frame's scale and zero-point come from a pass over its whole map
/// ([`map_qparams_u8`]); a conv that gathers patches codes the map here
/// too, once ([`quantize_map_u8_into`]). Because quantization is per-frame
/// and the GEMM accumulates every output element in a fixed integer order,
/// each frame's rows are bit-identical to a single-frame call's — the
/// batched path stays verdict-safe.
///
/// # Panics
///
/// Panics if `x` is not whole frames of `geo`, or if `f` calls this again
/// on this thread (it may hand the rows to other threads).
pub(crate) fn with_u8_rows<R>(x: &[f32], geo: &Conv2dGeometry, f: impl FnOnce(&U8Rows) -> R) -> R {
    let frame_len = geo.in_h * geo.in_w * geo.in_c;
    let frames = x.len() / frame_len;
    assert_eq!(x.len(), frames * frame_len, "stacked frame length mismatch");
    U8_WS.with(|ws| {
        let Input { qmap, params } = &mut *ws.input.borrow_mut();
        params.clear();
        if U8Rows::identity(geo) {
            qmap.clear();
            params.extend(x.chunks(frame_len).map(map_qparams_u8));
        } else {
            qmap.resize(x.len(), 0);
            for (x, q) in x.chunks(frame_len).zip(qmap.chunks_mut(frame_len)) {
                params.push(quantize_map_u8_into(x, q));
            }
        }
        f(&U8Rows {
            x,
            geo,
            qmap,
            params,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_tensor::{Padding, Precision};

    /// Runs one conv of the given kernel over `[h, w, c]` on this thread and
    /// returns the scratch capacities `(qmap, cols)` afterwards.
    fn scratch_after(h: usize, w: usize, c: usize, k: usize, stride: usize) -> (usize, usize) {
        let geo = Conv2dGeometry::resolve((h, w, c), (k, k), stride, Padding::Same);
        let out_c = 8;
        let weights = vec![0.25f32; geo.fan_in() * out_c];
        let packed = PackedPanels::pack(Precision::Int8Act, &weights, geo.fan_in(), out_c);
        let x = vec![0.5f32; h * w * c];
        let mut out = vec![0.0f32; geo.positions() * out_c];
        with_u8_rows(&x, &geo, |a| {
            a.gemm(&packed, 0..geo.out_h, &mut out, out_c, Epilogue::default())
        });
        U8_WS.with(|ws| {
            (
                ws.input.borrow().qmap.capacity(),
                ws.rows.borrow().cols.capacity(),
            )
        })
    }

    #[test]
    fn identity_pointwise_never_grows_the_gather_scratch() {
        // The thread-local scratch is per thread, so a fresh thread starts
        // from empty vectors whatever other tests ran.
        std::thread::spawn(|| {
            // 1×1 stride 1 over quad-aligned channels codes straight into
            // `cols`: the frame-sized `qmap` is never touched.
            let (qmap, cols) = scratch_after(9, 10, 32, 1, 1);
            assert_eq!(qmap, 0, "identity path grew qmap");
            assert!(cols >= 9 * 10 * 32);
            // A gather (the 3×3 stride-2 stem) sizes it to its own frame,
            // not to the largest frame any layer has seen.
            let (qmap, _) = scratch_after(9, 10, 3, 3, 2);
            assert!((9 * 10 * 3..9 * 10 * 32).contains(&qmap), "qmap {qmap}");
            // Channels off the quad take the gather path even at 1×1.
            let (qmap, _) = scratch_after(9, 10, 6, 1, 1);
            assert!(qmap >= 9 * 10 * 6);
        })
        .join()
        .expect("scratch test thread");
    }
}
