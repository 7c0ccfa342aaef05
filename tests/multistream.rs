//! Multi-stream determinism: per-stream verdicts from the [`EdgeNode`]
//! round loop must be **bit-for-bit identical** to the serial
//! `FilterForward::process` loop, for every streams × pool-width
//! combination.
//!
//! This is the acceptance contract of the runtime: serving a round's
//! streams as concurrent pool jobs moves *where* work executes (which
//! worker runs which stream, kernels fanned out or serial inside a job) but
//! never what is computed — tensor kernels fix each output element's split
//! and accumulation order up front, and streams share no mutable inference
//! state.

use ff_core::pipeline::{FilterForward, FrameVerdict, PipelineConfig};
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, ShardLayout};
use ff_core::{McSpec, SmoothingConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Resolution, SceneSource};

const RES: Resolution = Resolution::new(64, 32);
const FRAMES: u64 = 18;
const STREAM_SEEDS: [u64; 3] = [21, 22, 23];

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

/// Every stream gets a different MC mix so cross-stream state bleed (if the
/// runtime had any) could not cancel out.
fn deploy_stream_mcs(ff_deploy: &mut dyn FnMut(McSpec), stream: usize) {
    let seed = 100 + stream as u64;
    ff_deploy(McSpec::full_frame(format!("s{stream}-full"), seed));
    match stream % 3 {
        0 => ff_deploy(McSpec::windowed(format!("s{stream}-win"), None, seed + 50)),
        1 => ff_deploy(McSpec::localized(format!("s{stream}-loc"), None, seed + 50)),
        _ => ff_deploy(McSpec {
            threshold: 0.0,
            smoothing: SmoothingConfig { n: 3, k: 2 },
            ..McSpec::full_frame(format!("s{stream}-all"), seed + 50)
        }),
    }
}

/// The gold path: one serial `process` loop per stream.
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
    let (tail, stats, _) = ff.finish();
    verdicts.extend(tail);
    assert_eq!(stats.frames_out, FRAMES);
    verdicts
}

#[test]
fn per_stream_verdicts_identical_across_stream_and_shard_layouts() {
    let gold: Vec<Vec<FrameVerdict>> = STREAM_SEEDS
        .iter()
        .enumerate()
        .map(|(s, &seed)| serial_verdicts(s, seed))
        .collect();
    assert!(gold.iter().all(|g| g.len() == FRAMES as usize));

    // Fewer streams than workers (a lone stream keeps the kernel fan-out),
    // as many, and more (jobs queue behind each other); twice each, since a
    // race would not show on every run.
    let cases = (1..=3).flat_map(|n| (1..=4).flat_map(move |w| (0..2).map(move |rep| (n, w, rep))));
    for (n_streams, width, repeat) in cases {
        let label = format!("{n_streams} streams, pool width {width}, repeat {repeat}");
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(width)));
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
        assert_eq!(report.streams.len(), n_streams, "{label}");
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts, gold[s],
                "{label}: stream {s} diverged from the serial pipeline"
            );
        }
        // Node-level aggregates must be the sums of the per-stream views.
        let uploaded: u64 = report.streams.iter().map(|s| s.stats.bytes_uploaded).sum();
        assert_eq!(report.node.pipeline.bytes_uploaded, uploaded, "{label}");
        assert_eq!(
            report.node.pipeline.frames_out,
            n_streams as u64 * FRAMES,
            "{label}"
        );
    }
}

#[test]
fn node_uplink_accounting_is_deterministic_across_shard_layouts() {
    // The loop offers in fixed stream order each round, so node-level
    // uplink stats must not depend on how the streams' jobs raced.
    let mut baseline: Option<(u64, u64, u64)> = None;
    for width in 1..=3 {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(width));
        cfg.uplink_capacity_bps = 40_000.0;
        cfg.uplink_queue_limit_bytes = Some(4_000);
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate() {
            let src = Box::new(SceneSource::new(scene_cfg(seed), FRAMES));
            let id = node.add_stream(src, pipeline_cfg());
            // Upload every frame to stress the shared link.
            node.deploy(
                id,
                McSpec {
                    threshold: 0.0,
                    smoothing: SmoothingConfig { n: 1, k: 1 },
                    ..McSpec::full_frame(format!("all{s}"), 7 + s as u64)
                },
            );
        }
        let report = node.run();
        let key = (
            report.node.pipeline.bytes_uploaded,
            report.node.uplink_dropped,
            report.node.uplink_backlog_bits as u64,
        );
        match &baseline {
            None => baseline = Some(key),
            Some(want) => assert_eq!(&key, want, "uplink accounting diverged at width {width}"),
        }
    }
}
