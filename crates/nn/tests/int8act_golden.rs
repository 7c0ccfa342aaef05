//! Bit-exactness pin for the backbone, at both precisions.
//!
//! Every unit of a MobileNet-V1-shaped stack (the stem plus thirteen
//! depthwise-separable blocks — the topology `ff_models::MobileNetConfig`
//! builds and the extractor taps) runs at [`Precision::Int8Act`] on seeded
//! frames, and an FNV-1a digest over the bits of **every unit's output**
//! plus the element count is compared with values recorded from the kernels
//! as they stood before the `vpdpbusd` tile, the single-pass epilogue and
//! the 3×3 depthwise specialisation. Any change to a feature-map bit at any
//! layer, width, resolution or batch size fails here.
//!
//! The same stack at [`Precision::F32`] is pinned the same way, at smaller
//! widths and frames (tables recorded from the `4×16` AVX2 tile that
//! preceded `ff_tensor::matmul`'s vector-width one), together with the
//! batched walk's per-frame slices against the per-frame walk.
//!
//! The same table must hold in debug and release and on every host; the
//! one thing it may depend on is whether the *build* has FMA (the dequant
//! and epilogue go through `ff_tensor`'s `fmadd`, fused on `x86-64-v3` and
//! mul-then-add under `-C target-cpu=x86-64`), so there is one table per
//! case.

use ff_nn::{ConvBnRelu, DepthwiseBnRelu, Layer, Precision, Sequential};
use ff_tensor::{Tensor, Workspace};

/// `(stride, output channels)` of the thirteen separable blocks.
const BLOCKS: [(usize, usize); 13] = [
    (1, 64),
    (2, 128),
    (1, 128),
    (2, 256),
    (1, 256),
    (2, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (1, 512),
    (2, 1024),
    (1, 1024),
];

fn scaled(c: usize, alpha: f32) -> usize {
    ((c as f32 * alpha).round() as usize).max(4)
}

fn backbone(alpha: f32, precision: Precision) -> Sequential {
    let mut net = Sequential::new();
    let mut seed = 0x0ff_badeu64;
    let mut next_seed = || {
        seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        seed
    };
    let mut in_c = scaled(32, alpha);
    net.push("conv1", ConvBnRelu::new(3, 2, 3, in_c, next_seed()));
    for (i, (stride, out_c)) in BLOCKS.into_iter().enumerate() {
        let out_c = scaled(out_c, alpha);
        net.push(
            format!("b{i}/dw"),
            DepthwiseBnRelu::new(3, stride, in_c, next_seed()),
        );
        net.push(
            format!("b{i}/sep"),
            ConvBnRelu::new(1, 1, in_c, out_c, next_seed()),
        );
        in_c = out_c;
    }
    // A small seeded frame fits the folded norms, so every epilogue runs
    // with a non-trivial scale and shift (calibration itself is f32).
    let _ = net.calibrate(vec![frame(40, 24, 7)]);
    net.set_precision(precision);
    net
}

/// A seeded `[h, w, 3]` frame in `[0, 1)`: smooth gradients plus noise, so
/// feature maps have both flat and busy regions.
fn frame(w: usize, h: usize, seed: u32) -> Tensor {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    let mut data = Vec::with_capacity(h * w * 3);
    for y in 0..h {
        for x in 0..w {
            for c in 0..3 {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                let noise = (state >> 8) as f32 / (1 << 24) as f32;
                let ramp = ((x * (c + 1) + y * 2) % 97) as f32 / 97.0;
                data.push(0.7 * ramp + 0.3 * noise);
            }
        }
    }
    Tensor::from_vec(vec![h, w, 3], data)
}

fn fnv1a(h: &mut u64, data: &[f32]) {
    for v in data {
        for b in v.to_bits().to_le_bytes() {
            *h ^= u64::from(b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// The `batch` seeded `w×h` frames of a run, and the same frames stacked
/// as one `[batch, h, w, 3]` tensor.
fn seeded_frames(w: usize, h: usize, batch: usize) -> (Vec<Tensor>, Tensor) {
    let frames: Vec<Tensor> = (0..batch).map(|b| frame(w, h, 11 + b as u32)).collect();
    let mut data = Vec::new();
    for f in &frames {
        data.extend_from_slice(f.data());
    }
    (frames, Tensor::from_vec(vec![batch, h, w, 3], data))
}

/// Digest and element count over every unit's output for `batch` seeded
/// frames of `w×h` (one per-frame walk at batch 1, the batched walk else).
fn run(precision: Precision, alpha: f32, (w, h): (usize, usize), batch: usize) -> (u64, usize) {
    let mut net = backbone(alpha, precision);
    let mut ws = Workspace::new();
    let (mut frames, stacked) = seeded_frames(w, h, batch);
    let mut x = if batch == 1 {
        frames.swap_remove(0)
    } else {
        stacked
    };
    let (mut digest, mut count) = (0xcbf2_9ce4_8422_2325u64, 0usize);
    for i in 0..net.len() {
        let layer = net.layer_at_mut(i);
        let y = layer.infer(&x, batch, &mut ws);
        fnv1a(&mut digest, y.data());
        count += y.len();
        ws.recycle(std::mem::replace(&mut x, y));
    }
    (digest, count)
}

/// `(alpha, (width, height), batch, digest, elements)`.
type Golden = (f32, (usize, usize), usize, u64, usize);

#[cfg(target_feature = "fma")]
const GOLDEN: [Golden; 8] = [
    (0.5, (120, 67), 1, 0xb48d8d591ecb1e17, 444544),
    (0.5, (120, 67), 3, 0xb4dcb7dd6ba33801, 1333632),
    (0.5, (480, 270), 1, 0xc1a0a2da2ce12930, 6558720),
    (0.5, (480, 270), 3, 0xb10be4ed3ec5965a, 19676160),
    (1.0, (120, 67), 1, 0x2055485e3f48d20a, 889088),
    (1.0, (120, 67), 3, 0x2378ee4175fe5311, 2667264),
    (1.0, (480, 270), 1, 0x5624464ceb08a629, 13117440),
    (1.0, (480, 270), 3, 0xb45cfc567a121e1c, 39352320),
];

#[cfg(not(target_feature = "fma"))]
const GOLDEN: [Golden; 8] = [
    (0.5, (120, 67), 1, 0x9dc034b487e2f841, 444544),
    (0.5, (120, 67), 3, 0xc2ab9564d03f55c9, 1333632),
    (0.5, (480, 270), 1, 0xaa99a52d75d94ae6, 6558720),
    (0.5, (480, 270), 3, 0x430737a29e34010f, 19676160),
    (1.0, (120, 67), 1, 0x9f87a07b37f7e0ea, 889088),
    (1.0, (120, 67), 3, 0x138dc4f617f3b1f3, 2667264),
    (1.0, (480, 270), 1, 0xba039f44ae1f83c2, 13117440),
    (1.0, (480, 270), 3, 0x7068c4e3616b3bce, 39352320),
];

/// Runs every row of `table` at `precision` and fails if any digest moved.
fn check(precision: Precision, table: &[Golden]) {
    let mut failed = false;
    for &(alpha, res, batch, digest, elems) in table {
        let got = run(precision, alpha, res, batch);
        // Printed in table form so a deliberate numeric change can be
        // re-recorded from one failing run.
        println!(
            "    ({alpha:?}, {res:?}, {batch}, {:#018x}, {}),",
            got.0, got.1
        );
        failed |= got != (digest, elems);
    }
    assert!(!failed, "a feature-map bit moved; see the table above");
}

#[test]
fn int8act_feature_maps_match_recorded_digests() {
    check(Precision::Int8Act, &GOLDEN);
}

#[cfg(target_feature = "fma")]
const GOLDEN_F32: [Golden; 8] = [
    (0.25, (64, 32), 1, 0x15a44535ca5686ac, 51456),
    (0.25, (64, 32), 4, 0xd461773f9b498467, 205824),
    (0.25, (120, 67), 1, 0x005be5400f7bfd70, 222272),
    (0.25, (120, 67), 4, 0xda1401a77873180f, 889088),
    (0.5, (64, 32), 1, 0xe35361b7d67ad9fc, 102912),
    (0.5, (64, 32), 4, 0x2aeb0d345bd83fd9, 411648),
    (0.5, (120, 67), 1, 0x04b0f98688e0b7b0, 444544),
    (0.5, (120, 67), 4, 0x202c0a91d518cb40, 1778176),
];

#[cfg(not(target_feature = "fma"))]
const GOLDEN_F32: [Golden; 8] = [
    (0.25, (64, 32), 1, 0x3b3ac45befc989b4, 51456),
    (0.25, (64, 32), 4, 0x93565c6c434957d4, 205824),
    (0.25, (120, 67), 1, 0xf9edd903cb993b0f, 222272),
    (0.25, (120, 67), 4, 0x66580c5396c85ecc, 889088),
    (0.5, (64, 32), 1, 0xdec2f153f2bc21d4, 102912),
    (0.5, (64, 32), 4, 0x965fd7937e789f5f, 411648),
    (0.5, (120, 67), 1, 0xd6b25b6e27c25a64, 444544),
    (0.5, (120, 67), 4, 0xab2d459a5fe03965, 1778176),
];

#[test]
fn f32_feature_maps_match_recorded_digests() {
    check(Precision::F32, &GOLDEN_F32);
}

/// At f32 the batched walk's slice for each frame is the per-frame walk's
/// output, bit for bit, at every unit: prepacked panels, any row count.
#[test]
fn f32_batched_slices_equal_per_frame_walk() {
    for (alpha, (w, h)) in [(0.25, (64, 32)), (0.5, (120, 67))] {
        let mut net = backbone(alpha, Precision::F32);
        let mut ws = Workspace::new();
        let (mut singles, mut stacked) = seeded_frames(w, h, 4);
        for i in 0..net.len() {
            let layer = net.layer_at_mut(i);
            let y = layer.infer(&stacked, 4, &mut ws);
            let per_frame = y.len() / 4;
            for (f, x) in singles.iter_mut().enumerate() {
                let yf = layer.infer(x, 1, &mut ws);
                assert!(
                    y.data()[f * per_frame..(f + 1) * per_frame]
                        .iter()
                        .zip(yf.data())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "alpha {alpha} {w}x{h} unit {i} frame {f}"
                );
                *x = yf;
            }
            stacked = y;
        }
    }
}
