//! The chaos harness in action: four street cameras share one edge node
//! while a scripted [`ff_core::faults::FaultPlan`] throws everything the
//! field throws at a deployment — an uplink outage, a capacity dip with
//! packet loss, a stalled camera, and a crashing inference stage — and the
//! node survives all of it. Refused upload segments retry with seeded
//! exponential backoff, exhaust into the on-node archive spill bin, and
//! re-drain once the link heals; the watchdog quarantines the stalled
//! camera and readmits it; the panicked stage restarts under its circuit
//! breaker. Every fault and every recovery step lands in a bit-replayable
//! trace, printed at the end, and the segment ledger proves nothing was
//! silently lost.
//!
//! ```sh
//! cargo run --release --example chaos_node [-- --frames 64 --sharded]
//! ```

use std::time::Duration;

use ff_core::control::{ControlConfig, DegradePolicy, WatchdogPolicy};
use ff_core::faults::FaultPlan;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout};
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
    let n_frames = arg("--frames", 64) as u64;
    let sharded = std::env::args().any(|a| a == "--sharded");
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    let res = Resolution::new(120, 67);

    // The script: a third of the way in the uplink drops entirely for 16
    // rounds; later it limps at 40% capacity with 20% packet loss. Camera
    // 1 stalls for 24 polls. Stream 2's inference stage crashes twice —
    // one restart, and the second crash is absorbed too (budget is 2).
    let outage_at = n_frames / 3;
    let dip_at = 2 * n_frames / 3;
    let plan = FaultPlan::new()
        .uplink_outage(outage_at, 16)
        .capacity_dip(dip_at, 12, 0.4)
        .packet_loss(dip_at, 12, 0.2)
        .camera_stall(1, n_frames / 4, 24)
        .stage_panic(2, n_frames / 2)
        .stage_panic(2, n_frames / 2 + 7);

    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget))
        .with_faults(plan)
        .with_obs(ObsConfig::default());
    if !sharded {
        cfg.gather_batch = Some(GatherBatch {
            max_batch: 8,
            gather_wait: Duration::from_millis(1),
        });
    }
    cfg.uplink_capacity_bps = 120_000.0;
    let mut node = EdgeNode::new(cfg);

    for s in 0..4u64 {
        let scene = SceneConfig {
            resolution: res,
            seed: 90 + s,
            pedestrian_rate: 0.15,
            car_rate: 0.05,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(res, 15.0);
        pipeline.mobilenet = MobileNetConfig::with_width(0.5);
        pipeline.archive = None;
        let id = node.add_stream(Box::new(SceneSource::new(scene, n_frames)), pipeline);
        node.deploy(id, McSpec::full_frame(format!("cam{s}/activity"), 90 + s));
    }

    let report = node.run_controlled(ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        batch: None,
        degrade: Some(DegradePolicy {
            saturate_ticks: 2,
            relax_ticks: 4,
            ..DegradePolicy::default()
        }),
        watchdog: Some(WatchdogPolicy::default()),
    });
    let faults = report.faults.as_ref().expect("a plan was scheduled");

    let style = if sharded {
        "per-stream jobs"
    } else {
        "gather-batched"
    };
    println!("chaos node: 4 cameras, {style}, scripted outage + dip/loss + stall + panics");
    println!();
    println!("fault telemetry (one row per control tick):");
    println!("  tick  round  link  refused  retry-fail  late  spilled  dropped  quarantined");
    for t in &report.telemetry {
        println!(
            "  {:>4}  {:>5}  {}  {:>7}  {:>10}  {:>4}  {:>7}  {:>7}  {:>11}",
            t.tick,
            t.round,
            if t.faults.link_up { "  up" } else { "DOWN" },
            t.faults.refused_tick,
            t.faults.retry_failures_tick,
            t.faults.delivered_late_tick,
            t.faults.spilled_tick,
            t.faults.dropped_tick,
            t.faults.quarantined,
        );
    }
    println!();
    println!("fault/recovery trace (bit-replayable):");
    print!("{}", faults.trace);
    println!();
    println!("control decisions:");
    print!("{}", report.trace);
    println!();
    let l = faults.ledger;
    println!(
        "segment ledger: {} offered = {} delivered + {} late + {} dropped (conserves: {})",
        l.offered,
        l.delivered,
        l.delivered_late,
        l.dropped,
        l.conserves(),
    );
    println!(
        "spill bin: {} parked, {} overflow; stage restarts {:?}, frames lost {:?}",
        faults.spilled, faults.spill_overflow, faults.restarts, faults.frames_lost,
    );
    if let Some(rr) = faults.recovery_rounds {
        println!("recovery: backlog drained {rr} rounds after the link came back");
    }
    for sr in &report.streams {
        println!(
            "  stream {}: {} frames out, {} uploaded, {} bytes offered",
            sr.id.0, sr.stats.frames_out, sr.stats.frames_uploaded, sr.offered_bytes,
        );
    }
    assert!(l.conserves(), "every segment must be accounted");

    // The run's observability exports: a Perfetto-openable Chrome trace of
    // the span ring and the registry snapshot in both wire formats. All
    // three are byte-identical across repeat runs — the trace is keyed by
    // virtual rounds and the snapshot excludes wall-clock cells.
    let obs = report.obs.as_ref().expect("obs was enabled");
    std::fs::create_dir_all("target/obs").expect("create target/obs");
    std::fs::write("target/obs/chaos_trace.json", obs.chrome_trace()).expect("write trace");
    std::fs::write("target/obs/chaos_metrics.json", obs.metrics.to_json()).expect("write json");
    std::fs::write("target/obs/chaos_metrics.prom", obs.metrics.to_prometheus())
        .expect("write prom");
    println!();
    println!(
        "observability: {} spans emitted ({} evicted), {} metrics; exports in target/obs/",
        obs.emitted_spans,
        obs.dropped_spans,
        obs.metrics.entries.len(),
    );
    println!();
    println!("node survived the script; ledger conserves.");
}
