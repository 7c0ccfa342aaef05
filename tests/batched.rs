//! Batched-extraction determinism: the batched forward path must be
//! **bit-for-bit identical** to the serial per-frame path for every batch
//! size × thread count × shard layout, and the gather-batch [`EdgeNode`]
//! must reproduce the serial `FilterForward::process` verdicts exactly.
//!
//! This is the acceptance contract of cross-stream batching: computing N
//! frames' output rows in one GEMM per layer amortizes weight-panel
//! streaming but computes every output element from its own frame's data in
//! the same accumulation order, so batch composition — like sharding and
//! thread count before it — moves *where and how often* memory is touched,
//! never what is computed.

use ff_core::pipeline::{FilterForward, FrameVerdict, PipelineConfig};
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{FeatureExtractor, McSpec, SmoothingConfig};
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_tensor::parallel::set_threads;
use ff_tensor::{PoolShard, Tensor};
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Frame, Resolution, SceneSource};
use std::time::Duration;

const RES: Resolution = Resolution::new(64, 32);
const FRAMES: u64 = 16;
const STREAM_SEEDS: [u64; 3] = [31, 32, 33];

fn scene_cfg(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: RES,
        seed,
        pedestrian_rate: 0.25,
        car_rate: 0.05,
        ..Default::default()
    }
}

fn pipeline_cfg() -> PipelineConfig {
    PipelineConfig {
        mobilenet: MobileNetConfig::with_width(0.25),
        resolution: RES,
        fps: 15.0,
        upload_bitrate_bps: 100_000.0,
        archive: None,
    }
}

fn extractor() -> FeatureExtractor {
    FeatureExtractor::new(
        MobileNetConfig::with_width(0.25),
        vec![LAYER_LOCALIZED_TAP.into(), LAYER_FULL_FRAME_TAP.into()],
    )
}

fn frame_tensors(seed: u64, n: usize) -> Vec<Tensor> {
    Scene::new(scene_cfg(seed))
        .take(n)
        .map(|(f, _)| f.to_tensor())
        .collect()
}

/// Batched extraction over every batch size × thread count × shard width
/// must reproduce the serial single-threaded per-frame maps exactly.
#[test]
fn batched_extraction_bit_identical_across_batch_threads_shards() {
    let tensors = frame_tensors(9, 8);

    // Gold: serial per-frame extraction, single-threaded.
    set_threads(1);
    let mut serial = extractor();
    let gold: Vec<(Tensor, Tensor)> = tensors
        .iter()
        .map(|t| {
            let maps = serial.extract(t);
            (
                maps.get(LAYER_LOCALIZED_TAP).clone(),
                maps.get(LAYER_FULL_FRAME_TAP).clone(),
            )
        })
        .collect();
    set_threads(0);

    for batch in [1usize, 2, 3, 8] {
        for threads in [1usize, 2, 4] {
            set_threads(threads);
            let mut ex = extractor();
            for (i, chunk) in tensors.chunks(batch).enumerate() {
                let start = i * batch;
                let maps = ex.extract_batch(chunk);
                for (b, m) in maps.iter().enumerate() {
                    let (loc, full) = &gold[start + b];
                    assert_eq!(
                        m.get(LAYER_LOCALIZED_TAP),
                        loc,
                        "B{batch} t{threads} frame {}",
                        start + b
                    );
                    assert_eq!(
                        m.get(LAYER_FULL_FRAME_TAP),
                        full,
                        "B{batch} t{threads} frame {}",
                        start + b
                    );
                }
            }
            set_threads(0);
        }
        for width in [1usize, 3] {
            let shard = PoolShard::new(width);
            let mut ex = extractor();
            for (i, chunk) in tensors.chunks(batch).enumerate() {
                let maps = shard.run(|| ex.extract_batch(chunk));
                for (b, m) in maps.iter().enumerate() {
                    let (loc, full) = &gold[i * batch + b];
                    assert_eq!(
                        m.get(LAYER_LOCALIZED_TAP),
                        loc,
                        "B{batch} shard{width} frame {}",
                        i * batch + b
                    );
                    assert_eq!(
                        m.get(LAYER_FULL_FRAME_TAP),
                        full,
                        "B{batch} shard{width} frame {}",
                        i * batch + b
                    );
                }
            }
        }
    }
}

/// Every stream gets a different MC mix so cross-stream state bleed (if the
/// gather-batch fanout had any) could not cancel out.
fn deploy_stream_mcs(ff_deploy: &mut dyn FnMut(McSpec), stream: usize) {
    let seed = 300 + stream as u64;
    ff_deploy(McSpec::full_frame(format!("b{stream}-full"), seed));
    match stream % 3 {
        0 => ff_deploy(McSpec::windowed(format!("b{stream}-win"), None, seed + 50)),
        1 => ff_deploy(McSpec::localized(format!("b{stream}-loc"), None, seed + 50)),
        _ => ff_deploy(McSpec {
            threshold: 0.0,
            smoothing: SmoothingConfig { n: 3, k: 2 },
            ..McSpec::full_frame(format!("b{stream}-all"), seed + 50)
        }),
    }
}

fn serial_verdicts(stream: usize, seed: u64) -> Vec<FrameVerdict> {
    let mut ff = FilterForward::new(pipeline_cfg());
    deploy_stream_mcs(
        &mut |spec| {
            ff.deploy(spec);
        },
        stream,
    );
    let mut scene = Scene::new(scene_cfg(seed));
    let mut verdicts = Vec::new();
    for _ in 0..FRAMES {
        verdicts.extend(ff.process(&scene.step().0));
    }
    let (tail, ..) = ff.finish();
    verdicts.extend(tail);
    verdicts
}

/// Gather-batch `EdgeNode` verdicts must equal the serial pipeline's for
/// every streams × pool-width × max-batch combination, including a batch
/// capacity one stream can never fill.
#[test]
fn gather_batch_node_matches_serial_pipeline_across_layouts_and_batch_sizes() {
    let gold: Vec<Vec<FrameVerdict>> = STREAM_SEEDS
        .iter()
        .enumerate()
        .map(|(s, &seed)| serial_verdicts(s, seed))
        .collect();

    // (streams, pool width, max_batch)
    let cases = [
        (1, 1, 8), // capacity beyond what one stream delivers per round
        (1, 2, 1), // gather mode, forced batch-1
        (2, 2, 2),
        (3, 2, 3),
        (3, 4, 8),
    ];
    for (n_streams, width, max_batch) in cases {
        let label = format!("{n_streams} streams, pool width {width}, max_batch {max_batch}");
        let cfg = EdgeNodeConfig::new(ShardLayout::single(width)).with_gather_batch(GatherBatch {
            max_batch,
            gather_wait: Duration::from_millis(1),
        });
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate().take(n_streams) {
            let src = Box::new(SceneSource::new(scene_cfg(seed), FRAMES));
            let id = node.add_stream(src, pipeline_cfg());
            deploy_stream_mcs(
                &mut |spec| {
                    node.deploy(id, spec);
                },
                s,
            );
        }
        let report = node.run();
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts, gold[s],
                "{label}: stream {s} diverged from the serial pipeline"
            );
        }
        assert_eq!(
            report.node.pipeline.frames_out,
            n_streams as u64 * FRAMES,
            "{label}"
        );
    }
}

/// Node-level calibration keeps the gather-batch path bit-identical to the
/// per-stream serial path when the base DNN is calibrated.
#[test]
fn gather_batch_matches_serial_after_node_calibration() {
    let cal_frames: Vec<Frame> = Scene::new(scene_cfg(77)).take(4).map(|(f, _)| f).collect();

    // Serial gold: per-stream pipelines calibrated with the same frames.
    let gold: Vec<Vec<FrameVerdict>> = STREAM_SEEDS[..2]
        .iter()
        .enumerate()
        .map(|(s, &seed)| {
            let mut ff = FilterForward::new(pipeline_cfg());
            deploy_stream_mcs(
                &mut |spec| {
                    ff.deploy(spec);
                },
                s,
            );
            ff.calibrate(&cal_frames);
            let mut scene = Scene::new(scene_cfg(seed));
            let mut verdicts = Vec::new();
            for _ in 0..FRAMES {
                verdicts.extend(ff.process(&scene.step().0));
            }
            let (tail, ..) = ff.finish();
            verdicts.extend(tail);
            verdicts
        })
        .collect();

    let cfg = EdgeNodeConfig::new(ShardLayout::single(2)).with_gather_batch(GatherBatch::default());
    let mut node = EdgeNode::new(cfg);
    for (s, &seed) in STREAM_SEEDS.iter().enumerate().take(2) {
        let src = Box::new(SceneSource::new(scene_cfg(seed), FRAMES));
        let id = node.add_stream(src, pipeline_cfg());
        deploy_stream_mcs(
            &mut |spec| {
                node.deploy(id, spec);
            },
            s,
        );
    }
    node.calibrate(&cal_frames);
    let report = node.run();
    for (s, sr) in report.streams.iter().enumerate() {
        assert_eq!(sr.verdicts, gold[s], "calibrated stream {s} diverged");
    }
}
