//! 1000 duty-cycled cameras on one node (§2.2.1 at fleet scale): every
//! stream is an actor-style task (see `ff_core::task`) multiplexed onto
//! one budget-wide worker pool — no per-stream OS threads — so a node
//! whose cameras are mostly idle carries four-digit stream counts. Prints
//! the per-round active-set table (how many cameras woke each round) and
//! proves the run replayable by re-running the identical fleet and
//! comparing wake logs and verdicts byte-for-byte.
//!
//! ```sh
//! cargo run --release --example many_streams [-- --streams 1000 --frames 2 --period 20]
//! ```

use std::time::Duration;

use ff_core::control::ControlConfig;
use ff_core::runtime::{ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{McSpec, PipelineConfig, SmoothingConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{DutyCycleSource, Resolution, SceneSource};

fn arg(name: &str, default: usize) -> usize {
    std::env::args()
        .skip_while(|a| a != name)
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn run_fleet(n_streams: usize, n_frames: u64, period: u64, budget: usize) -> ControlledReport {
    let res = Resolution::new(64, 32);
    // The node builds one base DNN for the whole fleet, not one per
    // camera; a round serves at most 64 frames.
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
        max_batch: 64,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 10_000_000.0;
    let mut node = EdgeNode::new(cfg);
    for s in 0..n_streams {
        let scene = SceneConfig {
            resolution: res,
            seed: 60 + s as u64,
            pedestrian_rate: 0.05,
            car_rate: 0.03,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(res, scene.fps);
        pipeline.mobilenet = MobileNetConfig::with_width(0.25);
        pipeline.archive = None;
        // Each camera active 1 round in `period`, phased to spread wakes.
        let src = Box::new(DutyCycleSource::with_phase(
            SceneSource::new(scene, n_frames),
            1,
            period - 1,
            s as u64 % period,
        ));
        let id = node.add_stream(src, pipeline);
        node.deploy(
            id,
            McSpec {
                threshold: 0.0,
                smoothing: SmoothingConfig { n: 1, k: 1 },
                ..McSpec::full_frame(format!("cam{s}/activity"), 10 + s as u64)
            },
        );
    }
    node.run_controlled(ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        degrade: None,
        watchdog: None,
    })
}

fn main() {
    let n_streams = arg("--streams", 1000);
    let n_frames = arg("--frames", 2) as u64;
    let period = arg("--period", 20) as u64;
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());

    let report = run_fleet(n_streams, n_frames, period, budget);

    let duty = 1.0 / period as f64;
    println!(
        "{n_streams} cameras x {n_frames} frames, {:.0}% duty cycle, {budget}-thread budget:",
        duty * 100.0,
    );

    // Per-round active set: how many cameras delivered a frame each round
    // (a wake is a Sleeping → Awake edge; with one frame per active tick,
    // every delivery is a wake).
    let rounds = report
        .wakes
        .iter()
        .map(|&(r, _)| r)
        .max()
        .map_or(0, |r| r + 1);
    let mut per_round = vec![0usize; rounds as usize];
    for &(r, _) in &report.wakes {
        per_round[r as usize] += 1;
    }
    println!("  round | woke | active set");
    for (r, &n) in per_round.iter().enumerate().take(period as usize) {
        println!("  {r:>5} | {n:>4} | {}", "#".repeat(n.min(60)));
    }
    if rounds > period {
        println!("  ... ({rounds} rounds total)");
    }

    let verdicts: usize = report.streams.iter().map(|s| s.verdicts.len()).sum();
    println!(
        "  {} wakes, {verdicts} verdicts, {} control ticks, wall {:.2}s",
        report.wakes.len(),
        report.telemetry.len(),
        report.node.wall.as_secs_f64(),
    );
    let active = n_streams as f64 * duty;
    println!(
        "  {:.1} fps aggregate ({:.1} per active stream)",
        report.node.aggregate_fps(),
        report.node.aggregate_fps() / active,
    );

    // Replayability: the identical fleet again — wake log and every
    // stream's verdicts must match byte-for-byte.
    let again = run_fleet(n_streams, n_frames, period, budget);
    assert_eq!(report.wakes, again.wakes, "wake log diverged on replay");
    for (a, b) in report.streams.iter().zip(&again.streams) {
        assert_eq!(a.verdicts, b.verdicts, "verdicts diverged on replay");
    }
    println!("  replay: wake log and verdicts bit-identical across runs ✔");
}
