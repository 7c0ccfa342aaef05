//! Inference reads weights derived from the trainable ones — packed GEMM
//! panels, quantize-roundtripped depthwise taps — built once on the first
//! `infer` and kept across calls. Every `&mut` path that can change the
//! weights or the precision must drop them: after one inference, changing
//! the weights through `params_mut()` or `load_params`, or the precision
//! through `set_precision`, makes the next `infer` equal a freshly built
//! layer holding the same weights at the same precision, bit for bit.

use ff_nn::{
    load_params, save_params, Conv2d, ConvBnRelu, Dense, DepthwiseBnRelu, DepthwiseConv2d, Layer,
    Precision,
};
use ff_tensor::{Tensor, Workspace};
use rand::{Rng, SeedableRng};

type Build = fn(u64) -> Box<dyn Layer>;

/// Every layer that derives inference weights, built from a seed, with a
/// frame shape it takes.
const LAYERS: [(&str, Build, [usize; 3]); 5] = [
    (
        "conv2d",
        |s| Box::new(Conv2d::new(3, 1, 4, 6, s)),
        [6, 7, 4],
    ),
    ("dense", |s| Box::new(Dense::new(60, 9, s)), [3, 5, 4]),
    (
        "conv_bn_relu",
        |s| Box::new(ConvBnRelu::new(3, 2, 3, 8, s)),
        [9, 11, 3],
    ),
    (
        "depthwise_conv2d",
        |s| Box::new(DepthwiseConv2d::new(3, 1, 19, s)),
        [6, 5, 19],
    ),
    (
        "depthwise_bn_relu",
        |s| Box::new(DepthwiseBnRelu::new(3, 2, 8, s)),
        [8, 11, 8],
    ),
];

const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Int8Act];

fn bits(layer: &dyn Layer, x: &Tensor) -> Vec<u32> {
    let y = layer.infer(x, 1, &mut Workspace::new());
    y.data().iter().map(|v| v.to_bits()).collect()
}

/// `build(seed)` at `precision` with `src`'s weights copied in — a fresh
/// layer that has never inferred.
fn fresh_twin(build: Build, src: &mut dyn Layer, precision: Precision) -> Box<dyn Layer> {
    let mut twin = build(999);
    for (d, s) in twin.params_mut().into_iter().zip(src.params_mut()) {
        d.value.data_mut().copy_from_slice(s.value.data());
    }
    twin.set_precision(precision);
    twin
}

fn input(frame: &[usize], seed: u64) -> Tensor {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = frame.iter().product();
    Tensor::from_vec(
        frame.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

#[test]
fn weight_changes_through_params_mut_reach_the_next_inference() {
    for (name, build, frame) in LAYERS {
        for precision in PRECISIONS {
            let x = input(&frame, 1);
            let mut layer = build(7);
            layer.set_precision(precision);
            let stale = bits(&*layer, &x);
            for p in layer.params_mut() {
                for (i, v) in p.value.data_mut().iter_mut().enumerate() {
                    *v = -0.5 * *v + 0.01 * (i % 7) as f32;
                }
            }
            let got = bits(&*layer, &x);
            let want = bits(&*fresh_twin(build, &mut *layer, precision), &x);
            assert_eq!(got, want, "{name} at {precision:?}");
            assert_ne!(
                got, stale,
                "{name} at {precision:?}: the edit changed nothing"
            );
        }
    }
}

#[test]
fn set_precision_reaches_the_next_inference() {
    for (name, build, frame) in LAYERS {
        for precision in PRECISIONS {
            let other = PRECISIONS.into_iter().find(|&p| p != precision).unwrap();
            let x = input(&frame, 2);
            let mut layer = build(8);
            layer.set_precision(precision);
            let _ = bits(&*layer, &x);
            for p in [other, precision] {
                layer.set_precision(p);
                // Read before the twin: copying the weights out goes
                // through `params_mut`, which drops the derived weights too.
                let got = bits(&*layer, &x);
                let want = bits(&*fresh_twin(build, &mut *layer, p), &x);
                assert_eq!(got, want, "{name}: {precision:?} then {p:?}");
            }
        }
    }
}

#[test]
fn load_params_reaches_the_next_inference() {
    for (name, build, frame) in LAYERS {
        for precision in PRECISIONS {
            let x = input(&frame, 3);
            let mut layer = build(9);
            layer.set_precision(precision);
            let stale = bits(&*layer, &x);
            let mut donor = build(10);
            let mut bytes = Vec::new();
            save_params(donor.params_mut(), &mut bytes).unwrap();
            load_params(layer.params_mut(), &bytes[..]).unwrap();
            let got = bits(&*layer, &x);
            donor.set_precision(precision);
            assert_eq!(got, bits(&*donor, &x), "{name} at {precision:?}");
            assert_ne!(
                got, stale,
                "{name} at {precision:?}: the load changed nothing"
            );
        }
    }
}
