//! Integration tests for the observability layer (`ff_obs` wired through
//! `run_controlled` and the fleet):
//!
//! * the chaos-node Chrome trace and deterministic metrics snapshot must
//!   be **byte-identical** across repeated runs and across shard widths
//!   {1, 2, 3, 4} — spans are keyed by virtual rounds and the deterministic
//!   exports exclude every wall-clock cell (`shard/jobs`, which counts the
//!   gather fan-out's pool jobs, is among the cells compared);
//! * the registry must agree with the report it mirrors (one cell backs
//!   both), for the node and for the hub under fleet chaos;
//! * wall-clock cells appear only in the `_with_volatile` exports.

use std::time::Duration;

use ff_core::control::ControlConfig;
use ff_core::faults::FaultPlan;
use ff_core::fleet::{Fleet, FleetConfig};
use ff_core::obs::Registry;
use ff_core::runtime::{
    ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout,
};
use ff_core::{McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{Resolution, SceneSource};

const RES: Resolution = Resolution::new(64, 32);
const FRAMES: u64 = 24;

/// A chaos-style controlled run — outage, stall, panic — with obs on.
fn chaos_run(width: usize) -> ControlledReport {
    let plan = FaultPlan::new()
        .uplink_outage(8, 6)
        .camera_stall(1, 4, 6)
        .stage_panic(2, 5);
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(width))
        .with_faults(plan)
        .with_obs(ObsConfig::default());
    cfg.gather_batch = Some(GatherBatch {
        max_batch: 4,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 90_000.0;
    let mut node = EdgeNode::new(cfg);
    for s in 0..3u64 {
        let scene = SceneConfig {
            resolution: RES,
            seed: 41 + s,
            pedestrian_rate: 0.2,
            ..Default::default()
        };
        let mut pipeline = PipelineConfig::new(RES, 15.0);
        pipeline.mobilenet = MobileNetConfig::with_width(0.25);
        pipeline.archive = None;
        let id = node.add_stream(Box::new(SceneSource::new(scene, FRAMES)), pipeline);
        node.deploy(
            id,
            McSpec {
                threshold: 0.0,
                ..McSpec::full_frame(format!("cam{s}/all"), 41 + s)
            },
        );
    }
    node.run_controlled(ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        ..ControlConfig::default()
    })
}

/// The deterministic export triple for one run.
fn exports(width: usize) -> (String, String, String) {
    let report = chaos_run(width);
    let obs = report.obs.expect("obs enabled");
    assert!(obs.emitted_spans > 0, "the chaos run must emit spans");
    assert_eq!(obs.dropped_spans, 0, "default ring must hold this run");
    (
        obs.chrome_trace(),
        obs.metrics.to_json(),
        obs.metrics.to_prometheus(),
    )
}

#[test]
fn chaos_trace_and_metrics_are_byte_identical_across_runs_and_widths() {
    let (trace, json, prom) = exports(1);
    assert!(trace.contains("task:wake"));
    assert!(trace.contains("uplink:link_down"));
    assert!(trace.contains("task:panic"));
    assert!(json.contains("\"jobs\""), "shard/jobs must be exported");
    for width in [1usize, 2, 3, 4] {
        for repeat in 0..2 {
            let (t, j, p) = exports(width);
            assert_eq!(trace, t, "trace differs (width {width}, repeat {repeat})");
            assert_eq!(
                json, j,
                "metrics json differs (width {width}, repeat {repeat})"
            );
            assert_eq!(
                prom, p,
                "prometheus differs (width {width}, repeat {repeat})"
            );
        }
    }
}

#[test]
fn wall_cells_appear_only_in_volatile_exports() {
    let report = chaos_run(2);
    let obs = report.obs.expect("obs enabled");
    for text in [obs.metrics.to_json(), obs.metrics.to_prometheus()] {
        assert!(
            !text.contains("wall"),
            "deterministic export leaked wall cells"
        );
        assert!(
            !text.contains("busy_nanos"),
            "deterministic export leaked shard timers"
        );
    }
    let full = obs.metrics.to_json_with_volatile();
    assert!(full.contains("\"subsystem\": \"wall\""));
    assert!(full.contains("busy_nanos"));
}

#[test]
fn registry_and_report_read_the_same_cells() {
    let report = chaos_run(2);
    let obs = report.obs.as_ref().expect("obs enabled");
    let get = |subsystem: &str, name: &str| -> u64 {
        obs.metrics
            .entries
            .iter()
            .find(|e| e.key.subsystem == subsystem && e.key.name == name)
            .map(|e| match e.value {
                ff_core::obs::MetricValue::Counter(v) => v,
                ff_core::obs::MetricValue::Gauge(v) => v as u64,
                ff_core::obs::MetricValue::Histogram(_) => panic!("unexpected histogram"),
            })
            .expect("metric registered")
    };
    assert_eq!(
        get("control", "ticks"),
        report.telemetry.len() as u64,
        "the ticks cell and the telemetry log count the same events"
    );
    let faults = report.faults.as_ref().expect("plan scheduled");
    let restarts: u64 = faults.restarts.iter().map(|&r| r as u64).sum();
    assert_eq!(get("faults", "restarts"), restarts);
    assert!(
        get("node", "rounds") >= FRAMES,
        "rounds cell tracks the loop"
    );
    assert!(get("uplink", "offered_bits") > 0, "uplink cells registered");
    assert!(
        get("shard", "jobs") > 0,
        "shard jobs counter bound under obs"
    );
}

#[test]
fn fleet_hub_cells_match_report_and_spans_replay() {
    let cfg = FleetConfig {
        nodes: 3,
        rounds: 40,
        seed: 9,
        event_rate: 0.3,
        ..FleetConfig::default()
    };
    let run = |with_obs: bool| {
        let mut fleet = Fleet::new(cfg.clone()).expect("valid config");
        let registry = Registry::new();
        if with_obs {
            fleet.enable_obs(&registry, 1 << 14);
        }
        let (report, spans) = fleet.run_traced();
        (report, spans, registry.snapshot())
    };
    let (report, spans, snap) = run(true);
    let (plain, no_spans, _) = run(false);
    assert_eq!(report, plain, "obs must not perturb the fleet outcome");
    assert!(no_spans.is_empty(), "no spans without enable_obs");
    assert!(!spans.is_empty(), "hub ingest must emit spans");
    let hub_accepted = snap
        .entries
        .iter()
        .find(|e| e.key.subsystem == "hub" && e.key.name == "accepted")
        .expect("hub cell registered");
    assert_eq!(
        hub_accepted.value,
        ff_core::obs::MetricValue::Counter(report.accepted),
        "hub accepted cell and report read the same state"
    );
    let (_, spans2, snap2) = run(true);
    assert_eq!(spans, spans2, "hub spans replay bit-identically");
    assert_eq!(snap.to_json(), snap2.to_json(), "hub snapshot replays");
}
