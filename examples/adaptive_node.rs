//! The adaptive node control plane in action: four street cameras — two
//! always on, two that sleep through the night and return at dawn — share
//! one constrained edge node and one tight uplink. The controller
//! ([`ff_core::control`]) watches queue depths, arrival-rate EWMAs, gather
//! fill, and uplink load on a deterministic virtual-time tick, and moves
//! the node's knobs live: gather batch capacity, weight-panel precision,
//! and the upload frame stride. Every decision lands in a bit-replayable
//! trace, printed at the end.
//!
//! ```sh
//! cargo run --release --example adaptive_node [-- --frames 64 --sharded]
//! ```
//!
//! `--sharded` switches from the gather-batched style (dynamic batch
//! sizing) to one pool job per stream (only the degradation ladder acts).

use std::time::Duration;

use ff_core::control::{BatchPolicy, ControlConfig, DegradePolicy};
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{DutyCycleSource, FrameSource, Resolution, SceneSource};

fn arg(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n_frames = arg("--frames", 64) as u64;
    let sharded = std::env::args().any(|a| a == "--sharded");
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = Resolution::new(120, 67);

    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget));
    if !sharded {
        cfg.gather_batch = Some(GatherBatch {
            max_batch: 8,
            gather_wait: Duration::from_millis(1),
        });
    }
    // A tight shared link — a few hundred kb/s for the whole node, the
    // paper's provisioning regime — so the degradation ladder has work.
    cfg.uplink_capacity_bps = 120_000.0;
    let mut node = EdgeNode::new(cfg);

    for s in 0..4u64 {
        let scene = SceneConfig {
            resolution: res,
            seed: 80 + s,
            pedestrian_rate: 0.15,
            car_rate: 0.05,
            ..Default::default()
        };
        let inner = SceneSource::new(scene, n_frames);
        // Cameras 2 and 3 are motion-gated night cameras: bursts of 8
        // frames, then 24 silent frame intervals.
        let src: Box<dyn FrameSource> = if s < 2 {
            Box::new(inner)
        } else {
            Box::new(DutyCycleSource::new(inner, 8, 24))
        };
        let mut pipeline = PipelineConfig::new(res, 15.0);
        pipeline.mobilenet = MobileNetConfig::with_width(0.5);
        pipeline.archive = None;
        let id = node.add_stream(src, pipeline);
        node.deploy(id, McSpec::full_frame(format!("cam{s}/activity"), 80 + s));
    }

    let report = node.run_controlled(ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        batch: Some(BatchPolicy::default()),
        degrade: Some(DegradePolicy {
            saturate_ticks: 2,
            relax_ticks: 4,
            ..DegradePolicy::default()
        }),
        watchdog: None,
    });

    let style = if sharded {
        "one pool job per stream"
    } else {
        "gather-batched + dynamic batch sizing"
    };
    println!("adaptive edge node: 4 cameras (2 diurnal), {budget}-thread budget, {style}");
    println!();
    println!("telemetry (one row per control tick):");
    println!("  tick  round  queued  arrivals/round        gather-fill  uplink-offered");
    for t in &report.telemetry {
        let arrivals: Vec<String> = t
            .streams
            .iter()
            .map(|s| format!("{:.2}", s.arrival_ewma))
            .collect();
        println!(
            "  {:>4}  {:>5}  {:>6}  [{}]  {:>11.2}  {:>13.2}x",
            t.tick,
            t.round,
            t.total_queue_depth(),
            arrivals.join(" "),
            t.gather.fill(),
            t.uplink.offered_utilization_tick,
        );
    }
    println!();
    println!("decision trace (bit-replayable):");
    print!("{}", report.trace);
    println!();
    for sr in &report.streams {
        println!(
            "  stream {}: {} frames, {} uploaded, {} bytes offered",
            sr.id.0, sr.stats.frames_out, sr.stats.frames_uploaded, sr.offered_bytes,
        );
    }
    println!(
        "  node: {} frames, uplink offered {:.2}x / accepted {:.2}x of capacity, {} decisions",
        report.node.pipeline.frames_out,
        report.node.uplink_utilization,
        report.node.uplink_accepted_utilization,
        report.trace.len(),
    );
}
