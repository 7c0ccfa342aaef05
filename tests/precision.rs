//! Reduced-precision (f16 / int8 / whole-int8) weight-panel integration
//! tests: packed sizes, per-layer numerics at bench geometry, end-to-end
//! verdict agreement, and bit-exact determinism of the quantized paths
//! across thread counts and pool widths.

use ff_core::pipeline::{FilterForward, PipelineConfig};
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, ShardLayout};
use ff_core::{FeatureExtractor, McSpec};
use ff_data::{DatasetSpec, Split};
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_tensor::{
    i8i8_padded_k, packed_panels_f16_len, packed_panels_i8_len, packed_panels_i8i8_len,
    packed_panels_len, Precision,
};
use ff_video::{Resolution, SceneSource};

/// The bench geometry (scale 16: 120×67, the single-stream harness size).
const RES: Resolution = Resolution::new(120, 67);

fn bench_frame() -> ff_tensor::Tensor {
    let cfg = ff_video::scene::SceneConfig {
        resolution: RES,
        seed: 7,
        pedestrian_rate: 0.2,
        ..Default::default()
    };
    let mut scene = ff_video::scene::Scene::new(cfg);
    scene.step().0.to_tensor()
}

/// MobileNet weight-panel geometries at the bench width (α = 0.5): the
/// pointwise convs that dominate the streamed weight set.
const PANEL_GEOMETRIES: [(usize, usize); 4] = [(27, 16), (16, 32), (128, 256), (256, 512)];

#[test]
fn f16_packed_panel_bytes_exactly_halved() {
    for (k, n) in PANEL_GEOMETRIES {
        // Element counts match the f32 layout...
        assert_eq!(packed_panels_f16_len(k, n), packed_panels_len(k, n));
        assert_eq!(packed_panels_i8_len(k, n), packed_panels_len(k, n));
        // ...so the byte shrink is exactly 2× (f16) and 4× (int8 panels).
        assert_eq!(
            Precision::F16.packed_panel_bytes(k, n) * 2,
            Precision::F32.packed_panel_bytes(k, n),
            "{k}x{n}"
        );
        assert_eq!(
            Precision::Int8.packed_panel_bytes(k, n) * 4,
            Precision::F32.packed_panel_bytes(k, n),
            "{k}x{n}"
        );
    }
}

#[test]
fn f16_per_layer_outputs_within_relative_tolerance_at_bench_geometry() {
    let frame = bench_frame();
    let mut f32net = MobileNetConfig::with_width(0.5).build();
    let mut f16net = MobileNetConfig::with_width(0.5)
        .with_precision(Precision::F16)
        .build();
    let names: Vec<String> = f32net.layer_names().map(str::to_string).collect();
    let taps: Vec<&str> = names.iter().map(String::as_str).collect();
    let want = f32net.forward_taps(&frame, &taps);
    let got = f16net.forward_taps(&frame, &taps);
    for ((name, a), b) in names.iter().zip(&got).zip(&want) {
        assert_eq!(a.dims(), b.dims(), "{name}");
        let scale = b
            .data()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-3);
        let worst = a
            .data()
            .iter()
            .zip(b.data())
            .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()));
        assert!(
            worst <= 1e-2 * scale,
            "{name}: worst abs err {worst:.3e} vs 1e-2 * {scale:.3e}"
        );
    }
}

#[test]
fn f16_extraction_is_bit_identical_across_thread_counts() {
    let frame = bench_frame();
    let cfg = MobileNetConfig::with_width(0.5).with_precision(Precision::F16);
    let taps = vec![
        LAYER_LOCALIZED_TAP.to_string(),
        LAYER_FULL_FRAME_TAP.to_string(),
    ];
    ff_tensor::parallel::set_threads(1);
    let mut gold_ex = FeatureExtractor::new(cfg, taps.clone());
    let gold = gold_ex.extract(&frame).clone();
    for t in [2usize, 3, 4] {
        ff_tensor::parallel::set_threads(t);
        let mut ex = FeatureExtractor::new(cfg, taps.clone());
        let maps = ex.extract(&frame);
        for tap in [LAYER_LOCALIZED_TAP, LAYER_FULL_FRAME_TAP] {
            assert_eq!(maps.get(tap), gold.get(tap), "threads {t} tap {tap}");
        }
    }
    ff_tensor::parallel::set_threads(0);
}

/// The f16 node must reproduce itself bit-for-bit across pool widths
/// (quantization happens once, at pack time; execution geometry never
/// changes a bit).
#[test]
fn f16_node_is_bit_identical_across_shard_layouts() {
    let res = Resolution::new(64, 32);
    let run = |layout: ShardLayout| {
        let cfg = EdgeNodeConfig::new(layout).with_precision(Precision::F16);
        let mut node = EdgeNode::new(cfg);
        for seed in [31, 32] {
            let scene = ff_video::scene::SceneConfig {
                resolution: res,
                seed,
                pedestrian_rate: 0.2,
                ..Default::default()
            };
            let src = Box::new(SceneSource::new(scene, 8));
            let mut p = PipelineConfig::new(res, 15.0);
            p.mobilenet = MobileNetConfig::with_width(0.25);
            p.archive = None;
            let id = node.add_stream(src, p);
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        node.run()
    };
    let gold = run(ShardLayout::single(1));
    for layout in (2..=4).map(ShardLayout::single) {
        let report = run(layout.clone());
        for (a, b) in gold.streams.iter().zip(&report.streams) {
            assert_eq!(a.verdicts, b.verdicts, "{layout:?} stream {:?}", a.id);
        }
    }
}

#[test]
fn f16_verdicts_agree_with_f32_on_integration_scenes() {
    // The integration-test scene set (jackson-like, seed 43 — the seed the
    // end-to-end ML tests standardize on).
    let data = DatasetSpec::jackson_like(20, 60, 43);
    let res = data.resolution();
    let frames: Vec<_> = data.open(Split::Test).map(|lf| lf.frame).collect();
    let run = |precision: Precision| {
        let mut cfg = PipelineConfig::new(res, 15.0);
        cfg.mobilenet = MobileNetConfig::with_width(0.25).with_precision(precision);
        cfg.archive = None;
        let mut ff = FilterForward::new(cfg);
        ff.deploy(McSpec::full_frame("ped", 5));
        ff.deploy(McSpec::localized("loc", data.task.crop, 6));
        let mut verdicts = Vec::new();
        for f in &frames {
            verdicts.extend(ff.process(f));
        }
        let (tail, ..) = ff.finish();
        verdicts.extend(tail);
        verdicts
    };
    let gold = run(Precision::F32);
    let f16 = run(Precision::F16);
    assert_eq!(gold.len(), f16.len());
    for (a, b) in gold.iter().zip(&f16) {
        assert_eq!(a.frame, b.frame);
        assert_eq!(
            a.matched(),
            b.matched(),
            "frame {}: f32 and f16 verdicts disagree",
            a.frame
        );
    }
}

// ---------------------------------------------------------------------------
// Whole-int8 (Int8Act): activations quantized to u8 per frame, weights to s8
// per K-group, accumulation in i32 — the deepest precision rung.
// ---------------------------------------------------------------------------

#[test]
fn int8act_packed_panel_bytes_quartered_up_to_quad_padding() {
    for (k, n) in PANEL_GEOMETRIES {
        // The i8i8 layout pads K to a multiple of 4 for the quad-dot
        // kernel, so the code bytes are exactly f32/4 scaled by kp/k.
        let cols = packed_panels_len(k, n) / k;
        assert_eq!(
            packed_panels_i8i8_len(k, n),
            cols * i8i8_padded_k(k),
            "{k}x{n}"
        );
        assert_eq!(
            Precision::Int8Act.packed_panel_bytes(k, n) * 4,
            cols * i8i8_padded_k(k) * 4,
            "{k}x{n}"
        );
        // For quad-aligned K (every geometry here except 27) the shrink is
        // an exact 4×.
        if k % 4 == 0 {
            assert_eq!(
                Precision::Int8Act.packed_panel_bytes(k, n) * 4,
                Precision::F32.packed_panel_bytes(k, n),
                "{k}x{n}"
            );
        }
    }
}

#[test]
fn int8act_per_layer_outputs_within_relative_tolerance_at_bench_geometry() {
    let frame = bench_frame();
    let mut f32net = MobileNetConfig::with_width(0.5).build();
    let mut qnet = MobileNetConfig::with_width(0.5)
        .with_precision(Precision::Int8Act)
        .build();
    let names: Vec<String> = f32net.layer_names().map(str::to_string).collect();
    let taps: Vec<&str> = names.iter().map(String::as_str).collect();
    let want = f32net.forward_taps(&frame, &taps);
    let got = qnet.forward_taps(&frame, &taps);
    for ((name, a), b) in names.iter().zip(&got).zip(&want) {
        assert_eq!(a.dims(), b.dims(), "{name}");
        let scale = b
            .data()
            .iter()
            .fold(0.0f32, |m, &v| m.max(v.abs()))
            .max(1e-3);
        let worst = a
            .data()
            .iter()
            .zip(b.data())
            .fold(0.0f32, |m, (&x, &y)| m.max((x - y).abs()));
        // Both operands are quantized (u8 activations × s8 weights), so the
        // band is an order of magnitude wider than the weight-only rungs'
        // 1e-2 — but still bounded relative to each layer's dynamic range.
        assert!(
            worst <= 0.15 * scale,
            "{name}: worst abs err {worst:.3e} vs 0.15 * {scale:.3e}"
        );
    }
}

#[test]
fn int8act_extraction_is_bit_identical_across_thread_counts() {
    let frame = bench_frame();
    let cfg = MobileNetConfig::with_width(0.5).with_precision(Precision::Int8Act);
    let taps = vec![
        LAYER_LOCALIZED_TAP.to_string(),
        LAYER_FULL_FRAME_TAP.to_string(),
    ];
    ff_tensor::parallel::set_threads(1);
    let mut gold_ex = FeatureExtractor::new(cfg, taps.clone());
    let gold = gold_ex.extract(&frame).clone();
    for t in [2usize, 3, 4] {
        ff_tensor::parallel::set_threads(t);
        let mut ex = FeatureExtractor::new(cfg, taps.clone());
        let maps = ex.extract(&frame);
        for tap in [LAYER_LOCALIZED_TAP, LAYER_FULL_FRAME_TAP] {
            assert_eq!(maps.get(tap), gold.get(tap), "threads {t} tap {tap}");
        }
    }
    ff_tensor::parallel::set_threads(0);
}

/// The whole-int8 node must reproduce itself bit-for-bit across shard
/// layouts: activation quantization is per frame (independent of batch or
/// shard grouping) and the integer kernels are exact, so execution geometry
/// never changes a bit.
#[test]
fn int8act_node_is_bit_identical_across_shard_layouts() {
    let res = Resolution::new(64, 32);
    let run = |layout: ShardLayout| {
        let cfg = EdgeNodeConfig::new(layout).with_precision(Precision::Int8Act);
        let mut node = EdgeNode::new(cfg);
        for seed in [31, 32] {
            let scene = ff_video::scene::SceneConfig {
                resolution: res,
                seed,
                pedestrian_rate: 0.2,
                ..Default::default()
            };
            let src = Box::new(SceneSource::new(scene, 8));
            let mut p = PipelineConfig::new(res, 15.0);
            p.mobilenet = MobileNetConfig::with_width(0.25);
            p.archive = None;
            let id = node.add_stream(src, p);
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        node.run()
    };
    let gold = run(ShardLayout::single(1));
    for layout in (2..=4).map(ShardLayout::single) {
        let report = run(layout.clone());
        for (a, b) in gold.streams.iter().zip(&report.streams) {
            assert_eq!(a.verdicts, b.verdicts, "{layout:?} stream {:?}", a.id);
        }
    }
}

#[test]
fn int8act_verdicts_agree_with_f32_on_integration_scenes() {
    // Same scene set as the f16 test above.
    let data = DatasetSpec::jackson_like(20, 60, 43);
    let res = data.resolution();
    let frames: Vec<_> = data.open(Split::Test).map(|lf| lf.frame).collect();
    let run = |precision: Precision| {
        let mut cfg = PipelineConfig::new(res, 15.0);
        cfg.mobilenet = MobileNetConfig::with_width(0.25).with_precision(precision);
        cfg.archive = None;
        let mut ff = FilterForward::new(cfg);
        ff.deploy(McSpec::full_frame("ped", 5));
        ff.deploy(McSpec::localized("loc", data.task.crop, 6));
        let mut verdicts = Vec::new();
        for f in &frames {
            verdicts.extend(ff.process(f));
        }
        let (tail, ..) = ff.finish();
        verdicts.extend(tail);
        verdicts
    };
    let gold = run(Precision::F32);
    let q = run(Precision::Int8Act);
    assert_eq!(gold.len(), q.len());
    let disagreements: Vec<u64> = gold
        .iter()
        .zip(&q)
        .filter(|(a, b)| {
            assert_eq!(a.frame, b.frame);
            a.matched() != b.matched()
        })
        .map(|(a, _)| a.frame)
        .collect();
    // Whole-int8 perturbs MC scores more than the weight-only rungs, but on
    // these scenes the smoothed verdicts still match f32 exactly. If a
    // future kernel change moves a borderline frame, this pin should become
    // an agreement-rate bound with the outliers documented.
    assert!(
        disagreements.is_empty(),
        "{} / {} verdicts disagree with f32 (frames {:?})",
        disagreements.len(),
        gold.len(),
        disagreements
    );
}
