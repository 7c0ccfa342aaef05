//! One edge node, many cameras (§2.2.1): four independent street-camera
//! streams driven by the [`EdgeNode`] round loop — each round's frames run
//! extract → MC → smoothing as concurrent jobs on one worker pool — and
//! one shared bandwidth-constrained uplink. Pass `--batched` to run gather
//! style instead: the node holds one base DNN that every camera's job
//! extracts through, and a round may serve several frames of a backlogged
//! camera.
//!
//! ```sh
//! cargo run --release --example multi_stream [-- --streams 4 --frames 60 --batched]
//! ```

use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{Resolution, SceneSource};

fn arg(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n_streams = arg("--streams", 4);
    let n_frames = arg("--frames", 60) as u64;
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = Resolution::new(160, 90);

    // One pool as wide as the machine; all streams share a 600 kb/s uplink
    // (a few hundred kb/s per camera, the paper's provisioning regime).
    let batched = std::env::args().any(|a| a == "--batched");
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget));
    if batched {
        cfg.gather_batch = Some(GatherBatch::default());
    }
    cfg.uplink_capacity_bps = 600_000.0;
    let mut node = EdgeNode::new(cfg);

    for s in 0..n_streams {
        let scene = SceneConfig {
            resolution: res,
            seed: 60 + s as u64, // each camera sees a different street
            pedestrian_rate: 0.05,
            car_rate: 0.03,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(res, scene.fps);
        pipeline.mobilenet = MobileNetConfig::with_width(0.5);
        pipeline.archive = None;
        let id = node.add_stream(Box::new(SceneSource::new(scene, n_frames)), pipeline);
        // Each camera serves a different tenant's query.
        let spec = match s % 3 {
            0 => McSpec::localized(format!("cam{s}/pedestrians"), None, 10 + s as u64),
            1 => McSpec::windowed(format!("cam{s}/crossings"), None, 10 + s as u64),
            _ => McSpec::full_frame(format!("cam{s}/activity"), 10 + s as u64),
        };
        node.deploy(id, spec);
    }

    let report = node.run();

    let mode = if batched {
        "gather-batched base DNN"
    } else {
        "one pool job per stream"
    };
    println!("{n_streams} streams x {n_frames} frames at {res}, {budget}-thread budget, {mode}:");
    for sr in &report.streams {
        println!(
            "  stream {}: {} frames, {} uploaded ({} bytes offered), {} events, {:.1} ms/frame base DNN",
            sr.id.0,
            sr.stats.frames_out,
            sr.stats.frames_uploaded,
            sr.offered_bytes,
            sr.stats.events_closed,
            sr.timers.base_per_frame() * 1e3,
        );
    }
    let node_stats = &report.node;
    println!(
        "  node: {:.1} fps aggregate ({:.1} per stream), wall {:.2}s",
        node_stats.aggregate_fps(),
        node_stats.aggregate_fps() / n_streams as f64,
        node_stats.wall.as_secs_f64(),
    );
    println!(
        "  uplink: {:.0}% utilized, peak delay {:.2}s, backlog {:.0} bits, {} dropped",
        node_stats.uplink_utilization * 100.0,
        node_stats.uplink_peak_delay_secs,
        node_stats.uplink_backlog_bits,
        node_stats.uplink_dropped,
    );
}
