//! The microclassifiers run any number of frames through one inference
//! entry: a full-frame and a localized net over `F` stacked feature maps,
//! and the windowed classifier's shared projection over `F` maps, give each
//! frame the bits a one-frame call gives.

use ff_models::{FullFrameConfig, LocalizedConfig, WindowedConfig};
use ff_nn::{Layer, Precision, Sequential};
use ff_tensor::{Tensor, Workspace};
use rand::{Rng, SeedableRng};

/// Seeded post-ReLU-looking `[h, w, c]` maps with seeded biases in the
/// nets, so every `+ bias` is pinned.
fn maps(n: usize, (h, w, c): (usize, usize, usize), seed: u64) -> Vec<Tensor> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let data = (0..h * w * c)
                .map(|_| rng.gen_range(-1.0f32..2.0).max(0.0))
                .collect();
            Tensor::from_vec(vec![h, w, c], data)
        })
        .collect()
}

fn seed_biases(net: &mut dyn Layer, seed: u64) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    for p in net.params_mut().into_iter().filter(|p| p.value.rank() == 1) {
        for v in p.value.data_mut() {
            *v = rng.gen_range(-0.1..0.1);
        }
    }
}

/// `frames` behind a leading frame count.
fn stack(frames: &[Tensor]) -> Tensor {
    let mut dims = vec![frames.len()];
    dims.extend_from_slice(frames[0].dims());
    let data = frames
        .iter()
        .flat_map(|f| f.data().iter().copied())
        .collect();
    Tensor::from_vec(dims, data)
}

/// Asserts `run(stacked, F)`'s slice per frame equals `run(frame, 1)`.
fn check(what: &str, frames: &[Tensor], mut run: impl FnMut(&Tensor, usize) -> Tensor) {
    let f = frames.len();
    let got = run(&stack(frames), f);
    assert_eq!(got.dims()[0], f, "{what}: leading frame count");
    let per_frame = got.len() / f;
    for (b, x) in frames.iter().enumerate() {
        let want = run(x, 1);
        assert_eq!(&got.dims()[1..], want.dims(), "{what} frame {b}: shape");
        let slice = &got.data()[b * per_frame..(b + 1) * per_frame];
        assert!(
            slice
                .iter()
                .zip(want.data())
                .all(|(a, b)| a.to_bits() == b.to_bits()),
            "{what} frame {b} of {f}"
        );
    }
}

#[test]
fn microclassifiers_give_each_frame_its_one_frame_bits() {
    // The `mc_fanout` tap shapes: `conv5_6/sep` [3, 4, 512] and a crop of
    // `conv4_2/sep` [4, 5, 256].
    let full = (3, 4, 512);
    let local = (4, 5, 256);
    for precision in [Precision::F32, Precision::Int8Act] {
        let mut nets: Vec<(&str, Sequential, (usize, usize, usize))> = vec![
            ("full_frame", FullFrameConfig::new(full.2, 21).build(), full),
            (
                "localized",
                LocalizedConfig::new(local.0, local.1, local.2, 22).build(),
                local,
            ),
        ];
        for (i, (name, net, shape)) in nets.iter_mut().enumerate() {
            seed_biases(net, i as u64);
            net.set_precision(precision);
            let mut ws = Workspace::new();
            for f in [2usize, 5] {
                let what = format!("{name} at {precision:?}");
                check(&what, &maps(f, *shape, 40 + f as u64), |x, n| {
                    net.infer(x, n, &mut ws)
                });
            }
        }
    }

    // The windowed classifier runs at f32 only.
    let mut mc = WindowedConfig::new(local.0, local.1, local.2, 23).build();
    for p in mc.params_mut().into_iter().filter(|p| p.value.rank() == 1) {
        p.value.data_mut().fill(0.05);
    }
    let mut ws = Workspace::new();
    for f in [2usize, 5] {
        check(
            "windowed projection",
            &maps(f, local, 60 + f as u64),
            |x, n| mc.project_ws(x, n, &mut ws),
        );
    }
}
