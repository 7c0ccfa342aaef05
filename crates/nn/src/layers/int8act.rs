//! Shared whole-int8 forward path for the GEMM-lowered convolutions.
//!
//! At [`ff_tensor::Precision::Int8Act`] the input feature map quantizes to
//! u8 once per frame (asymmetric, per-frame scale and zero-point — see
//! [`ff_tensor::quantize_map_u8_into`]) and the patch gather lands directly
//! in a u8 im2col buffer ([`ff_tensor::im2col_u8_into`]), so activations
//! never round-trip through an f32 im2col matrix. The whole-int8 GEMM then
//! computes every output row with i32 accumulation and one fused dequant
//! into the layer's f32 [`Epilogue`].

use std::cell::RefCell;

use ff_tensor::{
    i8i8_padded_k, im2col_u8_into, quantize_map_u8_into, Conv2dGeometry, Epilogue, PackedPanels,
};

/// Per-thread u8 scratch for the whole-int8 conv path. The f32
/// [`ff_tensor::Workspace`] arena cannot hold byte buffers, so the path
/// keeps its own reusable scratch with the same
/// zero-allocations-after-warm-up property.
struct U8Scratch {
    /// Quantized input map (one frame, HWC) — the gather path's source;
    /// the identity 1×1 path quantizes straight into `cols` and leaves it
    /// alone.
    qmap: Vec<u8>,
    /// Quantized im2col matrix for all frames in the call.
    cols: Vec<u8>,
    /// Per-row activation scales fed to the GEMM.
    scales: Vec<f32>,
    /// Per-row activation zero-points fed to the GEMM.
    zps: Vec<u8>,
}

thread_local! {
    static U8_WS: RefCell<U8Scratch> = const {
        RefCell::new(U8Scratch {
            qmap: Vec::new(),
            cols: Vec::new(),
            scales: Vec::new(),
            zps: Vec::new(),
        })
    };
}

/// Runs `frames` stacked HWC frames through the whole-int8 conv pipeline
/// and writes `[frames·positions, out_c]` into `out`.
///
/// Each frame's map quantizes once (its own scale/zero-point), gathers
/// straight into consecutive u8 im2col row ranges, and a single
/// [`PackedPanels::gemm_u8`] computes all frames' rows under `ep`. Because
/// quantization is per-frame and the GEMM accumulates every output element
/// in a fixed integer order, each frame's output slice is bit-identical to
/// the single-frame (`frames == 1`) call — the batched path stays
/// verdict-safe.
pub(crate) fn forward_int8act(
    x: &[f32],
    frames: usize,
    geo: &Conv2dGeometry,
    packed: &PackedPanels,
    out: &mut [f32],
    out_c: usize,
    ep: Epilogue,
) {
    let positions = geo.positions();
    let fan_in = geo.fan_in();
    let kp = i8i8_padded_k(fan_in);
    let frame_len = geo.in_h * geo.in_w * geo.in_c;
    let rows = frames * positions;
    assert_eq!(x.len(), frames * frame_len, "stacked frame length mismatch");
    U8_WS.with(|ws| {
        let U8Scratch {
            qmap,
            cols,
            scales,
            zps,
        } = &mut *ws.borrow_mut();
        cols.resize(rows * kp, 0);
        scales.resize(rows, 0.0);
        zps.resize(rows, 0);
        // A 1×1 stride-1 conv over quad-aligned channels needs no gather:
        // the quantized HWC map *is* the im2col matrix (`kp == in_c`, rows
        // contiguous), so the frame quantizes straight into its `cols` row
        // range — mirroring the f32 path's direct-GEMM 1×1 fast path.
        let identity = geo.kh == 1
            && geo.kw == 1
            && geo.stride == 1
            && kp == fan_in
            && positions * kp == frame_len;
        if !identity {
            qmap.resize(frame_len, 0);
        }
        for f in 0..frames {
            let dst = &mut cols[f * positions * kp..(f + 1) * positions * kp];
            let (s, zp) = if identity {
                quantize_map_u8_into(&x[f * frame_len..(f + 1) * frame_len], dst)
            } else {
                let (s, zp) = quantize_map_u8_into(&x[f * frame_len..(f + 1) * frame_len], qmap);
                im2col_u8_into(qmap, zp, geo, dst);
                (s, zp)
            };
            scales[f * positions..(f + 1) * positions].fill(s);
            zps[f * positions..(f + 1) * positions].fill(zp);
        }
        packed.gemm_u8(cols, scales, zps, out, rows, fan_in, out_c, ep);
    });
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
        forward_int8act(&x, 1, &geo, &packed, &mut out, out_c, Epilogue::default());
        U8_WS.with(|ws| {
            let ws = ws.borrow();
            (ws.qmap.capacity(), ws.cols.capacity())
        })
    }

    #[test]
    fn identity_pointwise_never_grows_the_gather_scratch() {
        // The thread-local scratch is per thread, so a fresh thread starts
        // from empty vectors whatever other tests ran.
        std::thread::spawn(|| {
            // 1×1 stride 1 over quad-aligned channels quantizes straight
            // into `cols`: the frame-sized `qmap` is never touched.
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
