//! A `top`-style view of one edge node: run a few cameras with
//! observability on, then fold the span trace into a per-round, per-stage
//! activity table — wakes, extraction spans and the frames they served,
//! uplink offers, and control ticks, round by round. The table is a pure function of the
//! deterministic span trace, so two runs print the same rows.
//!
//! ```sh
//! cargo run --release --example node_top [-- --frames 48 --streams 6]
//! ```

use std::collections::BTreeMap;

use ff_core::control::ControlConfig;
use ff_core::obs::NODE_SCOPE;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, ObsConfig, ShardLayout};
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

const STAGES: [&str; 4] = ["task", "gather", "uplink", "control"];

fn main() {
    let n_frames = arg("--frames", 48) as u64;
    let n_streams = arg("--streams", 6);
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = Resolution::new(120, 67);

    let cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_obs(ObsConfig::default());
    let mut node = EdgeNode::new(cfg);
    for s in 0..n_streams as u64 {
        let scene = SceneConfig {
            resolution: res,
            seed: 40 + s,
            pedestrian_rate: 0.12,
            car_rate: 0.06,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(res, 15.0);
        pipeline.mobilenet = MobileNetConfig::with_width(0.5);
        pipeline.archive = None;
        let id = node.add_stream(Box::new(SceneSource::new(scene, n_frames)), pipeline);
        node.deploy(id, McSpec::full_frame(format!("cam{s}/activity"), 40 + s));
    }

    let report = node.run_controlled(ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        ..ControlConfig::default()
    });
    let obs = report.obs.as_ref().expect("obs was enabled");

    // Fold spans into (round, stage) counts plus a per-stage busiest-lane
    // census. `value` sums give bytes for uplink offers and frames served
    // for gather, so show both count and volume.
    let mut counts: BTreeMap<(u64, &str), (u64, u64)> = BTreeMap::new();
    let mut lanes: BTreeMap<(&str, u32), u64> = BTreeMap::new();
    for sp in &obs.spans {
        let slot = counts.entry((sp.round, sp.stage)).or_default();
        slot.0 += 1;
        slot.1 += sp.value;
        *lanes.entry((sp.stage, sp.stream)).or_default() += 1;
    }

    println!(
        "node top: {n_streams} cameras x {n_frames} rounds, {} spans ({} evicted)",
        obs.emitted_spans, obs.dropped_spans,
    );
    println!();
    println!("  round   task  gather  frames  uplink  control  uplink-bytes");
    let rounds: std::collections::BTreeSet<u64> = counts.keys().map(|&(round, _)| round).collect();
    for round in rounds {
        let get = |stage: &str| counts.get(&(round, stage)).copied().unwrap_or_default();
        let row: Vec<u64> = STAGES.iter().map(|st| get(st).0).collect();
        println!(
            "  {:>5}  {:>5}  {:>6}  {:>6}  {:>6}  {:>7}  {:>12}",
            round,
            row[0],
            row[1],
            get("gather").1,
            row[2],
            row[3],
            get("uplink").1,
        );
    }

    println!();
    println!("busiest lane per stage:");
    for stage in STAGES {
        let best = lanes
            .iter()
            .filter(|((st, _), _)| *st == stage)
            .max_by_key(|(&(_, stream), &n)| (n, std::cmp::Reverse(stream)));
        if let Some((&(_, stream), &n)) = best {
            let lane = if stream == NODE_SCOPE {
                "node".to_string()
            } else {
                format!("cam{stream}")
            };
            println!("  {stage:>8}: {lane} ({n} spans)");
        }
    }

    println!();
    println!("registry snapshot ({} metrics):", obs.metrics.entries.len());
    print!("{}", obs.metrics.to_prometheus());
}
