//! Whole-int8 ([`Precision::Int8Act`]) integration tests: packed sizes,
//! per-layer numerics at bench geometry, verdict agreement with f32 for a
//! trained MC, and bit-exact determinism across thread counts and pool
//! widths. Activations quantize to u8 per frame, weights to s8 per K-group,
//! accumulation is i32.

use ff_core::evaluate::{mc_probs, score_probs};
use ff_core::pipeline::PipelineConfig;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, ShardLayout};
use ff_core::train::{train_mc, TrainConfig};
use ff_core::{FeatureExtractor, McSpec};
use ff_data::{DatasetSpec, Split};
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_tensor::{i8i8_padded_k, packed_panels_i8i8_len, packed_panels_len, Precision};
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
    let f32net = MobileNetConfig::with_width(0.5).build();
    let qnet = MobileNetConfig::with_width(0.5)
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
        // band is wide — but still bounded relative to each layer's
        // dynamic range.
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

/// Agreement with f32 where it can be measured: the end-to-end ML tests'
/// localized pedestrian MC (jackson-like seed 43, 900 frames a split),
/// trained at f32 with its threshold picked on the training split, then
/// scored on the held-out split at both precisions. Untrained MCs at the
/// default threshold never fire at either precision, so they pin nothing.
#[test]
fn int8act_verdicts_agree_with_f32_on_integration_scenes() {
    let data = DatasetSpec::jackson_like(20, 900, 43);
    let spec = McSpec::localized("ped", data.task.crop, 7);
    let mut ex = FeatureExtractor::new(MobileNetConfig::with_width(0.25), vec![spec.tap.clone()]);
    let cal: Vec<_> = data
        .open(Split::Train)
        .take(6)
        .map(|lf| lf.frame.to_tensor())
        .collect();
    ex.calibrate(&cal);
    let trained = train_mc(
        &mut ex,
        &spec,
        &data,
        &TrainConfig {
            epochs: 4,
            max_cached: 700,
            ..Default::default()
        },
    );
    let mut model = trained.model;
    let mut score_at = |precision: Precision| {
        ex.set_precision(precision);
        let test = data.open(Split::Test).map(|lf| (lf.frame, lf.label));
        let (probs, labels) = mc_probs(&mut ex, &spec, &mut model, test);
        let f1 = score_probs(&probs, trained.threshold, spec.smoothing, &labels).f1;
        let raw: Vec<bool> = probs.iter().map(|&p| p >= trained.threshold).collect();
        (raw, f1)
    };
    let (gold, f1_gold) = score_at(Precision::F32);
    let (q, f1_q) = score_at(Precision::Int8Act);
    assert!(
        gold.iter().any(|&d| d) && gold.iter().any(|&d| !d),
        "the f32 MC must fire on some frames and not on others"
    );
    let flips = gold.iter().zip(&q).filter(|(a, b)| a != b).count();
    println!(
        "int8act vs f32: {flips}/{} raw per-frame flips, event F1 {f1_gold:.3} -> {f1_q:.3}",
        gold.len()
    );
    // Measured on this seed: 33/900 flips, F1 0.893 -> 0.936 (across seeds
    // and MC kinds F1 moves up as often as down). Bounds leave margin.
    assert!(
        flips * 100 <= 8 * gold.len(),
        "{flips}/{} raw verdicts flipped",
        gold.len()
    );
    assert!(
        (f1_q - f1_gold).abs() <= 0.1,
        "event F1 moved {f1_gold:.3} -> {f1_q:.3}"
    );
}
