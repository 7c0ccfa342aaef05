//! The band walk is invisible in the bits.
//!
//! [`Sequential::infer_taps`] runs each `producer → depthwise` pair whose
//! intermediate map is not a tap in cache-sized row bands, so that map is
//! never written whole. `int8act_golden` walks layer by layer through
//! [`Layer::infer`] and cannot see that order; this suite compares the two
//! walks bit for bit, at both precisions, on a MobileNet-V1-shaped stack
//! (the topology and layer names `ff_models::MobileNetConfig` builds)
//! tapped where the feature extractor taps it — serially, inside a
//! width-2 and a width-8 [`PoolShard`], as the items of one two-item
//! [`PoolShard::run_items`] job, and from two threads sharing one
//! `&Sequential`, each with its own [`Workspace`].

use ff_nn::{ConvBnRelu, DepthwiseBnRelu, Layer, Precision, Sequential};
use ff_tensor::{PoolShard, Tensor, Workspace};

/// `(name, stride, output channels)` of the thirteen separable blocks.
const BLOCKS: [(&str, usize, usize); 13] = [
    ("conv2_1", 1, 64),
    ("conv2_2", 2, 128),
    ("conv3_1", 1, 128),
    ("conv3_2", 2, 256),
    ("conv4_1", 1, 256),
    ("conv4_2", 2, 512),
    ("conv5_1", 1, 512),
    ("conv5_2", 1, 512),
    ("conv5_3", 1, 512),
    ("conv5_4", 1, 512),
    ("conv5_5", 1, 512),
    ("conv5_6", 2, 1024),
    ("conv6", 1, 1024),
];

/// The extractor's two taps: the localized and the full-frame MC layers.
const TAPS: [&str; 2] = ["conv4_2/sep", "conv5_6/sep"];

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
    for (name, stride, out_c) in BLOCKS {
        let out_c = scaled(out_c, alpha);
        net.push(
            format!("{name}/dw"),
            DepthwiseBnRelu::new(3, stride, in_c, next_seed()),
        );
        net.push(
            format!("{name}/sep"),
            ConvBnRelu::new(1, 1, in_c, out_c, next_seed()),
        );
        in_c = out_c;
    }
    // Fitted norms, so every epilogue runs a non-trivial scale and shift.
    let _ = net.calibrate(vec![frames(40, 24, 1)]);
    net.set_precision(precision);
    net
}

/// `batch` seeded `[h, w, 3]` frames in `[0, 1)`, stacked as `infer`
/// takes them: smooth gradients plus noise.
fn frames(w: usize, h: usize, batch: usize) -> Tensor {
    let mut data = Vec::with_capacity(batch * h * w * 3);
    for b in 0..batch {
        let mut state = (11 + b as u32).wrapping_mul(2_654_435_761).wrapping_add(1);
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
    }
    let dims = if batch == 1 {
        vec![h, w, 3]
    } else {
        vec![batch, h, w, 3]
    };
    Tensor::from_vec(dims, data)
}

/// The taps' activations, per frame, from every layer's own
/// [`Layer::infer`] in turn — each map written whole.
fn layer_by_layer(net: &mut Sequential, x: &Tensor, batch: usize, taps: &[usize]) -> Vec<Vec<u32>> {
    let mut ws = Workspace::new();
    let mut cur = x.clone();
    let mut outs = Vec::new();
    let deepest = *taps.last().expect("taps");
    let names: Vec<String> = net.layer_names().map(str::to_string).collect();
    for (i, name) in names.iter().enumerate().take(deepest + 1) {
        let next = net.layer_at_mut(i).infer(&cur, batch, &mut ws);
        if taps.contains(&i) {
            let len = next.len() / batch;
            for b in 0..batch {
                outs.push(bits(&next.data()[b * len..(b + 1) * len]));
            }
            assert!(TAPS.contains(&name.as_str()));
        }
        cur = next;
    }
    outs
}

/// [`Sequential::infer_taps`]'s per-frame taps.
fn walked(
    net: &Sequential,
    x: &Tensor,
    batch: usize,
    taps: &[usize],
    ws: &mut Workspace,
) -> Vec<Vec<u32>> {
    let mut outs = Vec::new();
    net.infer_taps(x, batch, taps, ws, &mut outs);
    outs.iter().map(|t| bits(t.data())).collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|v| v.to_bits()).collect()
}

/// `(alpha, (width, height), batch)`: `int8act_golden`'s eight, plus the
/// small map every node workload's frames fit in one band.
const GEOMETRIES: [(f32, (usize, usize), usize); 9] = [
    (0.25, (64, 32), 1),
    (0.5, (120, 67), 1),
    (0.5, (120, 67), 3),
    (0.5, (480, 270), 1),
    (0.5, (480, 270), 3),
    (1.0, (120, 67), 1),
    (1.0, (120, 67), 3),
    (1.0, (480, 270), 1),
    (1.0, (480, 270), 3),
];

/// Whether this build walks a geometry: every one when optimized; an
/// unoptimized build (CI's portable-kernel step) stops at one 480×270
/// frame at α = 0.5, which still bands every pair, because the larger
/// rows take minutes there.
fn walks(alpha: f32, (w, h): (usize, usize), batch: usize) -> bool {
    !cfg!(debug_assertions) || (w * h * batch) as f32 * alpha <= 480.0 * 270.0 * 0.5
}

fn taps_of(net: &Sequential) -> Vec<usize> {
    TAPS.iter()
        .map(|t| net.index_of(t).expect("tap layer"))
        .collect()
}

fn assert_same(got: &[Vec<u32>], want: &[Vec<u32>], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: tap count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.len(), w.len(), "{what}: tap {i} length");
        let first = g.iter().zip(w).position(|(a, b)| a != b);
        assert!(
            first.is_none(),
            "{what}: tap {i} differs first at {first:?}"
        );
    }
}

/// One workspace serves every geometry, so later walks run on buffers
/// earlier ones left behind. Prints the bands each banded pair takes at
/// every geometry, so a run where nothing bands shows it; a geometry whose
/// pairs all fit one band still checks the plain order.
#[test]
fn banded_walk_matches_layer_by_layer_serially() {
    ff_tensor::parallel::set_threads(1);
    let mut ws = Workspace::new();
    for precision in [Precision::Int8Act, Precision::F32] {
        for (alpha, (w, h), batch) in GEOMETRIES {
            let mut net = backbone(alpha, precision);
            let taps = taps_of(&net);
            if precision == Precision::Int8Act {
                let banded: Vec<String> = net
                    .band_plan(&[h, w, 3], &taps)
                    .iter()
                    .map(|(a, b, n)| format!("{a}→{b} {n}"))
                    .collect();
                println!(
                    "band walk: alpha {alpha} {w}x{h}: {} pairs banded {banded:?}",
                    banded.len()
                );
            }
            if !walks(alpha, (w, h), batch) {
                println!("band walk: skipping {precision:?} alpha {alpha} {w}x{h} batch {batch} in this unoptimized build");
                continue;
            }
            let x = frames(w, h, batch);
            let want = layer_by_layer(&mut net, &x, batch, &taps);
            let got = walked(&net, &x, batch, &taps, &mut ws);
            let what = format!("{precision:?} alpha {alpha} {w}x{h} batch {batch}");
            assert_same(&got, &want, &what);
        }
    }
}

/// Inside a width-2 shard every banded pair splits its rows across the
/// two threads once, each thread recomputing the halo at the split.
#[test]
fn banded_walk_matches_layer_by_layer_in_a_two_wide_shard() {
    let shard = PoolShard::new(2);
    for precision in [Precision::Int8Act, Precision::F32] {
        for (alpha, (w, h), batch) in [
            (0.5, (480, 270), 1),
            (0.5, (480, 270), 3),
            (1.0, (480, 270), 1),
        ] {
            if !walks(alpha, (w, h), batch) {
                continue;
            }
            let mut net = backbone(alpha, precision);
            let taps = taps_of(&net);
            let x = frames(w, h, batch);
            let want = layer_by_layer(&mut net, &x, batch, &taps);
            let got = shard.run(|| walked(&net, &x, batch, &taps, &mut Workspace::new()));
            let what = format!("shard {precision:?} alpha {alpha} {w}x{h} batch {batch}");
            assert_same(&got, &want, &what);
        }
    }
}

/// Two frames walked as the two items of one [`PoolShard::run_items`] job
/// on a width-2 shard, each with its own workspace: the node's serving
/// jobs. Each item's kernels run serially on the thread that claimed it,
/// so a banded pair walks its rows as one block rather than cutting them
/// into shard-width blocks that run one after another.
#[test]
fn banded_walk_matches_layer_by_layer_inside_a_two_item_pool_job() {
    let shard = PoolShard::new(2);
    for precision in [Precision::Int8Act, Precision::F32] {
        let (alpha, (w, h)) = (0.5, (480, 270));
        let mut net = backbone(alpha, precision);
        let taps = taps_of(&net);
        let both = frames(w, h, 2);
        let len = both.len() / 2;
        let inputs: Vec<Tensor> = (0..2)
            .map(|b| Tensor::from_vec(vec![h, w, 3], both.data()[b * len..][..len].to_vec()))
            .collect();
        let want: Vec<_> = inputs
            .iter()
            .map(|x| layer_by_layer(&mut net, x, 1, &taps))
            .collect();
        let mut items: Vec<(&Tensor, Workspace)> =
            inputs.iter().map(|x| (x, Workspace::new())).collect();
        let got = shard.run_items(&mut items, |_, (x, ws)| walked(&net, x, 1, &taps, ws));
        for (b, (g, w)) in got.into_iter().zip(&want).enumerate() {
            let g = g.expect("the item's walk");
            assert_same(&g, w, &format!("pool job {precision:?} item {b}"));
        }
    }
}

/// A workspace whose pooled buffers, one of every power-of-two length up
/// to 2 Mi floats, hold a huge value: a walk that reads a float it did not
/// write into the first buffer of a size it takes reads that, and its
/// quantization ranges and outputs show it.
fn poisoned_workspace() -> Workspace {
    let mut ws = Workspace::new();
    for k in 10..=21 {
        ws.recycle(Tensor::filled(vec![1 << k], 1.0e30));
    }
    ws
}

/// In an eight-wide shard the 17-row maps of the `conv5_x` pairs at
/// 480×270 split into six row blocks, fewer than the threads, so some of
/// the per-thread band buffers go unused. Two frames walk in turn, then
/// the first again, through one poisoned workspace, so the walk's buffers
/// start out poisoned and are then reused across pairs and frames.
#[test]
fn banded_walk_matches_layer_by_layer_frame_after_frame_in_an_eight_wide_shard() {
    let shard = PoolShard::new(8);
    for precision in [Precision::Int8Act, Precision::F32] {
        for alpha in [0.5, 1.0] {
            let (w, h) = (480, 270);
            if !walks(alpha, (w, h), 1) {
                continue;
            }
            let mut net = backbone(alpha, precision);
            let taps = taps_of(&net);
            let both = frames(w, h, 2);
            let len = both.len() / 2;
            let inputs: Vec<Tensor> = (0..2)
                .map(|b| Tensor::from_vec(vec![h, w, 3], both.data()[b * len..][..len].to_vec()))
                .collect();
            let want: Vec<_> = inputs
                .iter()
                .map(|x| layer_by_layer(&mut net, x, 1, &taps))
                .collect();
            let mut ws = poisoned_workspace();
            for (turn, b) in [0, 1, 0].into_iter().enumerate() {
                let got = shard.run(|| walked(&net, &inputs[b], 1, &taps, &mut ws));
                let what = format!("8-wide {precision:?} alpha {alpha} turn {turn} frame {b}");
                assert_same(&got, &want[b], &what);
            }
        }
    }
}

/// Two threads walk one `&Sequential` at once, each with its own
/// workspace and its own frames (α = 1 at 120×67, where
/// `conv2_1/sep → conv2_2/dw` takes two bands).
#[test]
fn banded_walk_matches_layer_by_layer_from_two_threads_sharing_one_net() {
    for precision in [Precision::Int8Act, Precision::F32] {
        let mut net = backbone(1.0, precision);
        let taps = taps_of(&net);
        let inputs = [frames(120, 67, 1), frames(120, 67, 3)];
        let batch = |i: usize| 2 * i + 1;
        let want: Vec<_> = inputs
            .iter()
            .enumerate()
            .map(|(i, x)| layer_by_layer(&mut net, x, batch(i), &taps))
            .collect();
        let got: Vec<_> = std::thread::scope(|s| {
            let walkers: Vec<_> = inputs
                .iter()
                .enumerate()
                .map(|(i, x)| {
                    let (net, taps) = (&net, &taps);
                    s.spawn(move || walked(net, x, batch(i), taps, &mut Workspace::new()))
                })
                .collect();
            walkers
                .into_iter()
                .map(|h| h.join().expect("walker"))
                .collect()
        });
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_same(g, w, &format!("{precision:?} thread {i}"));
        }
    }
}
