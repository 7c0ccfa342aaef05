//! A frame is a batch of one: for every layer type, at both precisions,
//! `Layer::infer` over `F` frames held back to back gives, for each frame,
//! the bits a one-frame call gives — and `Sequential::infer_taps` likewise
//! for every tap. `Layer::forward_ws` (kept for the `ffbench` package)
//! returns exactly what a one-frame `infer` does, shape included.

use ff_nn::{
    Activation, ActivationKind, ChannelNorm, Conv2d, ConvBnRelu, Dense, DepthwiseBnRelu,
    DepthwiseConv2d, Flatten, GlobalMaxPool, Layer, MaxPool2d, Phase, Precision, SeparableConv2d,
    Sequential,
};
use ff_tensor::{Tensor, Workspace};
use rand::{Rng, SeedableRng};

const FRAMES: [usize; 4] = [1, 2, 3, 5];

fn random(dims: &[usize], rng: &mut rand::rngs::StdRng) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec(
        dims.to_vec(),
        (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
}

/// `frames` as [`Layer::infer`] takes them: one frame as it is, more
/// behind a leading frame count.
fn stack(frames: &[Tensor]) -> Tensor {
    if let [one] = frames {
        return one.clone();
    }
    let mut dims = vec![frames.len()];
    dims.extend_from_slice(frames[0].dims());
    let data = frames
        .iter()
        .flat_map(|f| f.data().iter().copied())
        .collect();
    Tensor::from_vec(dims, data)
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// A layer under test with a frame shape it accepts. Weighted layers get
/// seeded non-zero biases, and normalising ones a calibrated scale and
/// shift, so every epilogue step is pinned.
fn prepared(mut layer: Box<dyn Layer>, frame: &[usize], seed: u64) -> Box<dyn Layer> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for p in layer
        .params_mut()
        .into_iter()
        .filter(|p| p.value.rank() == 1)
    {
        for v in p.value.data_mut() {
            *v = rng.gen_range(-0.2..0.2);
        }
    }
    let samples = (0..2).map(|_| random(frame, &mut rng)).collect();
    let _ = layer.calibrate(samples);
    layer
}

/// Every `Layer` implementation, each with a frame shape it takes.
fn every_layer() -> Vec<(&'static str, Box<dyn Layer>, Vec<usize>)> {
    let relu = ActivationKind::Relu;
    let table: Vec<(&'static str, Box<dyn Layer>, Vec<usize>)> = vec![
        (
            "conv_bn_relu 3x3 s2",
            Box::new(ConvBnRelu::new(3, 2, 3, 8, 1)),
            vec![9, 11, 3],
        ),
        (
            "conv_bn_relu 1x1",
            Box::new(ConvBnRelu::new(1, 1, 8, 12, 2)),
            vec![5, 6, 8],
        ),
        (
            "depthwise_bn_relu s1",
            Box::new(DepthwiseBnRelu::new(3, 1, 24, 3)),
            vec![7, 9, 24],
        ),
        (
            "depthwise_bn_relu s2",
            Box::new(DepthwiseBnRelu::new(3, 2, 8, 4)),
            vec![8, 11, 8],
        ),
        (
            "depthwise_conv2d",
            Box::new(DepthwiseConv2d::new(3, 1, 19, 5)),
            vec![6, 5, 19],
        ),
        (
            "conv2d 3x3",
            Box::new(Conv2d::new(3, 1, 4, 5, 6)),
            vec![6, 7, 4],
        ),
        (
            "conv2d 1x1",
            Box::new(Conv2d::new(1, 1, 16, 9, 7)),
            vec![3, 4, 16],
        ),
        ("dense", Box::new(Dense::new(60, 13, 8)), vec![3, 5, 4]),
        ("flatten", Box::new(Flatten::new()), vec![3, 5, 4]),
        ("max_pool2d", Box::new(MaxPool2d::new(2, 2)), vec![7, 6, 3]),
        (
            "global_max_pool",
            Box::new(GlobalMaxPool::new()),
            vec![4, 5, 6],
        ),
        (
            "separable_conv2d",
            Box::new(SeparableConv2d::with_inner_activation(3, 2, 6, 10, relu, 9)),
            vec![7, 8, 6],
        ),
        (
            "channel_norm",
            Box::new(ChannelNorm::identity(5)),
            vec![4, 3, 5],
        ),
        ("relu", Box::new(Activation::new(relu)), vec![4, 4, 3]),
        (
            "relu6",
            Box::new(Activation::new(ActivationKind::Relu6)),
            vec![4, 4, 3],
        ),
        (
            "sigmoid",
            Box::new(Activation::new(ActivationKind::Sigmoid)),
            vec![4, 4, 3],
        ),
    ];
    table
        .into_iter()
        .enumerate()
        .map(|(i, (name, layer, frame))| (name, prepared(layer, &frame, 100 + i as u64), frame))
        .collect()
}

#[test]
fn every_layer_gives_each_frame_its_one_frame_bits() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(26);
    for precision in [Precision::F32, Precision::Int8Act] {
        for (name, mut layer, frame) in every_layer() {
            layer.set_precision(precision);
            let mut ws = Workspace::new();
            for f in FRAMES {
                let frames: Vec<Tensor> = (0..f).map(|_| random(&frame, &mut rng)).collect();
                let got = layer.infer(&stack(&frames), f, &mut ws);
                let per_frame = got.len() / f;
                for (b, x) in frames.iter().enumerate() {
                    let want = layer.infer(x, 1, &mut ws);
                    let what = format!("{name} at {precision:?}, frame {b} of {f}");
                    let mut dims = if f == 1 { vec![] } else { vec![f] };
                    dims.extend_from_slice(want.dims());
                    assert_eq!(got.dims(), &dims[..], "{what}: shape");
                    let slice = &got.data()[b * per_frame..(b + 1) * per_frame];
                    assert_eq!(bits(slice), bits(want.data()), "{what}");
                    ws.recycle(want);
                }
                ws.recycle(got);
            }
        }
    }
}

#[test]
fn tap_walk_gives_each_frame_its_one_frame_taps() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(27);
    let frame = [9usize, 10, 3];
    for precision in [Precision::F32, Precision::Int8Act] {
        let mut net = Sequential::new();
        net.push("conv1", ConvBnRelu::new(3, 2, 3, 8, 1));
        net.push("dw", DepthwiseBnRelu::new(3, 1, 8, 2));
        net.push("sep", ConvBnRelu::new(1, 1, 8, 16, 3));
        net.push("proj", Conv2d::new(1, 1, 16, 4, 4));
        net.push("relu", Activation::new(ActivationKind::Relu));
        net.push("flat", Flatten::new());
        net.push("fc", Dense::new(5 * 5 * 4, 3, 5));
        let _ = net.calibrate(vec![random(&frame, &mut rng)]);
        net.set_precision(precision);
        let mut ws = Workspace::new();
        for indices in [vec![0usize, 2, 6], vec![1, 3, 4, 5]] {
            for f in FRAMES {
                let frames: Vec<Tensor> = (0..f).map(|_| random(&frame, &mut rng)).collect();
                let mut outs = Vec::new();
                net.infer_taps(&stack(&frames), f, &indices, &mut ws, &mut outs);
                assert_eq!(outs.len(), indices.len() * f);
                for (b, x) in frames.iter().enumerate() {
                    let mut alone = Vec::new();
                    net.infer_taps(x, 1, &indices, &mut ws, &mut alone);
                    for (t, want) in alone.iter().enumerate() {
                        // Tap-major: `outs[t·frames + b]`.
                        let got = &outs[t * f + b];
                        let what = format!("{precision:?} tap {t} frame {b} of {f}");
                        assert_eq!(got.dims(), want.dims(), "{what}");
                        assert_eq!(bits(got.data()), bits(want.data()), "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn ffbench_shim_is_one_frame_infer() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(28);
    for precision in [Precision::F32, Precision::Int8Act] {
        for (name, mut layer, frame) in every_layer() {
            layer.set_precision(precision);
            let mut ws = Workspace::new();
            let x = random(&frame, &mut rng);
            let want = layer.infer(&x, 1, &mut ws);
            let got = layer.forward_ws(&x, Phase::Inference, &mut ws);
            assert_eq!(got.dims(), want.dims(), "{name} at {precision:?}");
            assert_eq!(
                bits(got.data()),
                bits(want.data()),
                "{name} at {precision:?}"
            );
        }
    }
    // The shape ffbench reads: a spatial layer keeps its HWC rank, with
    // channels at `dims()[2]`.
    let mut conv = ConvBnRelu::new(3, 2, 3, 8, 1);
    let y = conv.forward_ws(
        &random(&[9, 11, 3], &mut rng),
        Phase::Inference,
        &mut Workspace::new(),
    );
    assert_eq!(y.dims(), &[5, 6, 8]);
}
