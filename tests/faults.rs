//! Chaos-harness integration tests for deterministic fault injection and
//! recovery (`ff_core::faults` + `EdgeNode::run_controlled`):
//!
//! * the **scripted chaos scenario** — an uplink outage, a stalled camera,
//!   and a crashing inference stage in one run — must complete, conserve
//!   its segment ledger, leave unaffected streams' verdicts bit-identical
//!   to a fault-free run, and replay its fault/recovery trace bit-for-bit
//!   across repeated runs and pool widths;
//! * **simultaneous stage panics** in per-stream style, where the crashing
//!   stages run as concurrent pool jobs: the traces record stream order,
//!   never completion order;
//! * the **gather fan-out** serving two frames of one stream in one batch
//!   (a stall, a shrunken batch, then the backlog) as one pool job, equal
//!   to the serial pipeline and byte-identical at every pool width;
//! * the **circuit breaker** killing a repeatedly-crashing stream while
//!   the node keeps running;
//! * the **watchdog** quarantining a stalled camera and readmitting it on
//!   recovery;
//! * the **degradation ladder** treating an outage as saturation;
//! * **spill/overflow accounting** under a tiny retry budget.

use std::time::Duration;

use ff_core::control::{BatchPolicy, ControlAction, ControlConfig, DegradePolicy, WatchdogPolicy};
use ff_core::faults::{FaultEventKind, FaultPlan, RecoveryConfig, RetryPolicy};
use ff_core::runtime::{
    ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout,
};
use ff_core::{FilterForward, McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{Resolution, SceneSource};

const RES: Resolution = Resolution::new(64, 32);

fn scene_cfg(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: RES,
        seed,
        pedestrian_rate: 0.2,
        ..Default::default()
    }
}

fn pipeline() -> PipelineConfig {
    PipelineConfig {
        mobilenet: MobileNetConfig::with_width(0.25),
        resolution: RES,
        fps: 15.0,
        upload_bitrate_bps: 100_000.0,
        archive: None,
    }
}

/// A node with `streams` threshold-0 cameras (every frame matches and
/// uploads, so the uplink sees sustained pressure).
fn build_node(cfg: EdgeNodeConfig, streams: usize, frames: u64) -> EdgeNode {
    let mut node = EdgeNode::new(cfg);
    for s in 0..streams {
        let seed = 41 + s as u64;
        let id = node.add_stream(
            Box::new(SceneSource::new(scene_cfg(seed), frames)),
            pipeline(),
        );
        node.deploy(id, cam_spec(s));
    }
    node
}

/// Camera `s`'s microclassifier: threshold 0, unsmoothed — every frame
/// matches the moment it is served.
fn cam_spec(s: usize) -> McSpec {
    McSpec {
        threshold: 0.0,
        smoothing: ff_core::SmoothingConfig { n: 1, k: 1 },
        ..McSpec::full_frame(format!("cam{s}"), 41 + s as u64)
    }
}

/// Policy-free control config (faults must not leak into verdicts through
/// an adaptive policy; the watchdog is armed but marker-only in gather
/// style).
fn quiet_ctl() -> ControlConfig {
    ControlConfig {
        tick_frames: 4,
        arrival_alpha: 0.5,
        batch: None,
        degrade: None,
        watchdog: Some(WatchdogPolicy::default()),
    }
}

/// The acceptance-criteria chaos scenario, gather style: an uplink outage
/// (rounds 12..24), a stalled camera (stream 1, polls 8..20), and one
/// scripted stage panic (stream 2, served frame 5).
fn chaos_plan() -> FaultPlan {
    FaultPlan::new()
        .uplink_outage(12, 12)
        .camera_stall(1, 8, 12)
        .stage_panic(2, 5)
}

/// The deterministic observability exports of a run (Chrome trace, metrics
/// JSON, Prometheus text): byte-identical across repeats and pool widths.
fn obs_exports(r: &ControlledReport) -> (String, String, String) {
    let obs = r.obs.as_ref().expect("obs enabled");
    assert_eq!(obs.dropped_spans, 0);
    (
        obs.chrome_trace(),
        obs.metrics.to_json(),
        obs.metrics.to_prometheus(),
    )
}

fn chaos_gather_run(budget: usize, plan: Option<FaultPlan>) -> ControlledReport {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
        max_batch: 8,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 200_000.0;
    if let Some(plan) = plan {
        cfg = cfg.with_faults(plan);
    }
    build_node(cfg, 4, 48).run_controlled(quiet_ctl())
}

#[test]
fn chaos_run_completes_conserves_and_spares_unaffected_streams() {
    let baseline = chaos_gather_run(1, None);
    assert!(baseline.faults.is_none(), "no plan ⇒ no faults report");
    let chaos = chaos_gather_run(1, Some(chaos_plan()));
    let faults = chaos.faults.as_ref().expect("plan ⇒ faults report");

    // Every stream finished; nothing tore the node down.
    assert_eq!(chaos.streams.len(), 4);

    // Segment accounting conserves: every offered segment delivered,
    // delivered-late, or accounted-dropped.
    assert!(faults.ledger.conserves(), "{:?}", faults.ledger);
    assert!(faults.ledger.offered > 0);
    assert!(
        faults.ledger.delivered_late > 0,
        "the outage must force late deliveries: {:?}",
        faults.ledger
    );

    // The trace saw the outage begin and end, and the scripted panic.
    let kinds: Vec<_> = faults.trace.events.iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&FaultEventKind::LinkDown),
        "{}",
        faults.trace
    );
    assert!(kinds.contains(&FaultEventKind::LinkUp), "{}", faults.trace);
    assert!(
        kinds.contains(&FaultEventKind::StagePanic {
            stream: 2,
            frame: 5
        }),
        "{}",
        faults.trace
    );
    assert!(
        kinds.contains(&FaultEventKind::StageRestarted { stream: 2 }),
        "{}",
        faults.trace
    );
    assert_eq!(faults.restarts, vec![0, 0, 1, 0]);
    assert_eq!(faults.frames_lost, vec![0, 0, 1, 0]);

    // Unaffected streams (0, 3): verdicts bit-identical to the fault-free
    // run — an uplink outage delays delivery, never alters inference.
    for s in [0usize, 3] {
        assert_eq!(
            chaos.streams[s].verdicts, baseline.streams[s].verdicts,
            "stream {s} verdicts must not feel the faults"
        );
    }
    // The stalled camera (1): a stall preserves content — same verdicts,
    // just later.
    assert_eq!(
        chaos.streams[1].verdicts, baseline.streams[1].verdicts,
        "a stall shifts timing, not content"
    );
    // The panicked stream (2): the served frame is lost, so later frames
    // shift — only the pre-panic prefix is comparable, and exactly one
    // verdict is missing at the end.
    assert_eq!(
        chaos.streams[2].verdicts[..5],
        baseline.streams[2].verdicts[..5],
        "pre-panic prefix must match"
    );
    assert_eq!(
        chaos.streams[2].verdicts.len(),
        baseline.streams[2].verdicts.len() - 1,
        "exactly the panicked frame is lost"
    );
}

#[test]
fn chaos_trace_is_bit_identical_across_runs_and_widths() {
    let gold = chaos_gather_run(1, Some(chaos_plan()));
    let gold_faults = gold.faults.as_ref().expect("faults report");
    assert!(!gold_faults.trace.is_empty());
    // ≥ 3 runs at one width, plus a second and third shard width: the
    // fault/recovery history and the control trace replay bit-for-bit.
    for run in 0..2 {
        let again = chaos_gather_run(1, Some(chaos_plan()));
        assert_eq!(gold.faults, again.faults, "faults diverged on rerun {run}");
        assert_eq!(gold.trace, again.trace, "trace diverged on rerun {run}");
    }
    for width in [2usize, 3] {
        let wide = chaos_gather_run(width, Some(chaos_plan()));
        assert_eq!(gold.faults, wide.faults, "faults diverged at width {width}");
        assert_eq!(gold.trace, wide.trace, "trace diverged at width {width}");
        for (a, b) in gold.streams.iter().zip(&wide.streams) {
            assert_eq!(a.verdicts, b.verdicts, "verdicts diverged at width {width}");
        }
    }
}

#[test]
fn simultaneous_stage_panics_fold_in_stream_order_at_every_width() {
    // Per-stream style: streams 3 and 1 both crash on their frame 4, i.e.
    // in the same round, inside pool jobs that run side by side and finish
    // in whatever order the cores allow. Fold order, not completion order,
    // is the spec: every trace and export is byte-identical from one
    // worker (jobs back to back) to four.
    let run = |width: usize, plan: Option<FaultPlan>| {
        let mut cfg =
            EdgeNodeConfig::new(ShardLayout::single(width)).with_obs(ObsConfig::default());
        cfg.uplink_capacity_bps = 1_000_000.0;
        if let Some(plan) = plan {
            cfg = cfg.with_faults(plan);
        }
        build_node(cfg, 4, 24).run_controlled(quiet_ctl())
    };
    let plan = || FaultPlan::new().stage_panic(3, 4).stage_panic(1, 4);
    let baseline = run(1, None);
    let gold = run(1, Some(plan()));
    let faults = gold.faults.as_ref().expect("faults report");
    let panics: Vec<_> = (faults.trace.events.iter())
        .filter(|e| !matches!(e.kind, FaultEventKind::LinkUp | FaultEventKind::LinkDown))
        .map(|e| (e.round, e.kind))
        .collect();
    assert_eq!(
        panics,
        [
            (
                4,
                FaultEventKind::StagePanic {
                    stream: 1,
                    frame: 4
                }
            ),
            (4, FaultEventKind::StageRestarted { stream: 1 }),
            (
                4,
                FaultEventKind::StagePanic {
                    stream: 3,
                    frame: 4
                }
            ),
            (4, FaultEventKind::StageRestarted { stream: 3 }),
        ],
        "{}",
        faults.trace
    );
    assert_eq!(faults.restarts, vec![0, 1, 0, 1]);
    assert_eq!(faults.frames_lost, vec![0, 1, 0, 1]);
    for s in [0usize, 2] {
        assert_eq!(
            gold.streams[s].verdicts, baseline.streams[s].verdicts,
            "stream {s} shared a dispatch with two crashes and must not notice"
        );
    }
    for s in [1usize, 3] {
        assert_eq!(
            gold.streams[s].verdicts[..4],
            baseline.streams[s].verdicts[..4]
        );
        assert_eq!(gold.streams[s].verdicts.len(), 23);
    }
    for width in [1usize, 2, 4] {
        let again = run(width, Some(plan()));
        assert_eq!(gold.faults, again.faults, "fault report, width {width}");
        assert_eq!(gold.trace, again.trace, "control trace, width {width}");
        assert_eq!(
            obs_exports(&gold),
            obs_exports(&again),
            "obs exports, width {width}"
        );
        for (a, b) in gold.streams.iter().zip(&again.streams) {
            assert_eq!(a.verdicts, b.verdicts, "width {width} stream {:?}", a.id);
        }
    }
}

#[test]
fn gather_fanout_serves_two_frames_of_a_stream_in_one_batch_identically_at_every_width() {
    // Gather style, 4 streams, max_batch 8. Cameras 1–3 stall for 12 polls,
    // the lone stream's thin fill walks the batch policy down 8 → 2, and
    // when the three come back the node is behind: mailboxes back up, the
    // policy grows the batch again, and the batches that drain the backlog
    // carry two frames of the same stream — which the fan-out serves inside
    // one pool job, in batch order, beside the other streams' jobs.
    const FRAMES: u64 = 48;
    let plan = || {
        FaultPlan::new()
            .camera_stall(1, 2, 12)
            .camera_stall(2, 2, 12)
            .camera_stall(3, 2, 12)
    };
    let ctl = ControlConfig {
        tick_frames: 2,
        batch: Some(BatchPolicy {
            max_batch: 8,
            patience: 1,
            ..BatchPolicy::default()
        }),
        ..quiet_ctl()
    };
    let run = |width: usize| {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(width))
            .with_gather_batch(GatherBatch {
                max_batch: 8,
                gather_wait: Duration::from_millis(1),
            })
            .with_faults(plan())
            .with_obs(ObsConfig::default());
        cfg.uplink_capacity_bps = 200_000.0;
        build_node(cfg, 4, FRAMES).run_controlled(ctl)
    };
    let gold = run(1);

    // The scenario happened: the batch shrank, grew back, and some batch
    // held more frames than there are streams.
    let resized: Vec<_> = (gold.trace.decisions.iter())
        .filter_map(|d| match d.action {
            ControlAction::SetMaxBatch { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();
    assert!(
        resized.contains(&(4, 2)) && resized.contains(&(4, 8)),
        "{resized:?}"
    );
    let obs = gold.obs.as_ref().expect("obs enabled");
    let fullest = (obs.spans.iter())
        .filter(|s| (s.stage, s.kind) == ("gather", "extract"))
        .map(|s| s.value)
        .max();
    assert!(
        fullest > Some(4),
        "no batch carried two frames of one stream (fullest: {fullest:?})"
    );

    // A stall shifts timing, never content: every verdict equals a serial
    // pipeline's over the same camera.
    for (s, sr) in gold.streams.iter().enumerate() {
        let mut ff = FilterForward::new(pipeline());
        ff.deploy(cam_spec(s));
        let mut scene = Scene::new(scene_cfg(41 + s as u64));
        let mut serial = Vec::new();
        for _ in 0..FRAMES {
            serial.extend(ff.process(&scene.step().0));
        }
        serial.extend(ff.finish().0);
        assert_eq!(
            sr.verdicts, serial,
            "stream {s} diverged from the serial pipeline"
        );
    }

    for width in [1usize, 2, 3, 4] {
        for repeat in 0..2 {
            let again = run(width);
            let at = format!("width {width}, repeat {repeat}");
            assert_eq!(gold.faults, again.faults, "fault report, {at}");
            assert_eq!(gold.trace, again.trace, "control trace, {at}");
            assert_eq!(gold.wakes, again.wakes, "wake log, {at}");
            assert_eq!(obs_exports(&gold), obs_exports(&again), "obs exports, {at}");
            for (a, b) in gold.streams.iter().zip(&again.streams) {
                assert_eq!(a.verdicts, b.verdicts, "{at}, stream {:?}", a.id);
            }
        }
    }
}

#[test]
fn circuit_breaker_kills_a_crashing_stream_and_the_node_survives() {
    let run = |plan: Option<FaultPlan>| {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(2));
        cfg.uplink_capacity_bps = 1_000_000.0;
        if let Some(plan) = plan {
            cfg = cfg.with_faults(plan);
        }
        cfg = cfg.with_recovery(RecoveryConfig {
            max_restarts_per_stream: 1,
            ..RecoveryConfig::default()
        });
        build_node(cfg, 3, 48).run_controlled(quiet_ctl())
    };
    let baseline = run(None);
    // Stream 1 crashes twice: one restart, then the breaker kills it.
    let chaos = run(Some(FaultPlan::new().stage_panic(1, 3).stage_panic(1, 6)));
    let faults = chaos.faults.as_ref().expect("faults report");
    let kinds: Vec<_> = faults.trace.events.iter().map(|e| e.kind).collect();
    assert!(
        kinds.contains(&FaultEventKind::StageRestarted { stream: 1 }),
        "{}",
        faults.trace
    );
    assert!(
        kinds.contains(&FaultEventKind::StreamKilled { stream: 1 }),
        "{}",
        faults.trace
    );
    assert_eq!(faults.restarts, vec![0, 1, 0]);
    assert_eq!(faults.frames_lost, vec![0, 2, 0]);
    // The killed stream kept its pre-crash verdicts (frames 0..3, then
    // 4..6 after the restart — the two panicked frames are lost).
    assert_eq!(chaos.streams[1].verdicts.len(), 5);
    assert_eq!(
        chaos.streams[1].verdicts[..3],
        baseline.streams[1].verdicts[..3]
    );
    // The other streams never noticed.
    for s in [0usize, 2] {
        assert_eq!(
            chaos.streams[s].verdicts, baseline.streams[s].verdicts,
            "stream {s} must be untouched by stream 1's death"
        );
    }
}

#[test]
fn watchdog_quarantines_the_stalled_camera_and_readmits_it() {
    // Per-stream style: a long stall collapses stream 2's arrival EWMA,
    // the watchdog quarantines it and readmits once frames return.
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(2))
        .with_faults(FaultPlan::new().camera_stall(2, 8, 40));
    cfg.uplink_capacity_bps = 1_000_000.0;
    let report = build_node(cfg, 4, 72).run_controlled(ControlConfig {
        tick_frames: 4,
        arrival_alpha: 0.5,
        batch: None,
        degrade: None,
        watchdog: Some(WatchdogPolicy::default()),
    });
    let quarantine = report
        .trace
        .decisions
        .iter()
        .position(|d| matches!(d.action, ControlAction::Quarantine { stream: 2 }));
    let readmit = report
        .trace
        .decisions
        .iter()
        .position(|d| matches!(d.action, ControlAction::Readmit { stream: 2 }));
    let (q, r) = (
        quarantine.unwrap_or_else(|| panic!("no quarantine in:\n{}", report.trace)),
        readmit.unwrap_or_else(|| panic!("no readmit in:\n{}", report.trace)),
    );
    assert!(q < r, "quarantine precedes readmit:\n{}", report.trace);
    // Telemetry carried the quarantine census while it was in force.
    assert!(
        report.telemetry.iter().any(|t| t.faults.quarantined == 1),
        "telemetry must census the quarantined stream"
    );
    // A stall preserves content: the stream still produced all 72 verdicts.
    assert_eq!(report.streams[2].verdicts.len(), 72);
}

#[test]
fn degradation_ladder_treats_an_outage_as_saturation() {
    // A generous link that never saturates on its own, plus a long outage:
    // only the outage can push the ladder, and it must (a down link is
    // saturation taken to its limit, not relief).
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(2)).with_gather_batch(GatherBatch {
        max_batch: 8,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 10_000_000.0;
    cfg = cfg.with_faults(FaultPlan::new().uplink_outage(8, 24));
    let report = build_node(cfg, 2, 48).run_controlled(ControlConfig {
        tick_frames: 4,
        arrival_alpha: 0.5,
        batch: None,
        degrade: Some(DegradePolicy {
            saturate_ticks: 2,
            relax_ticks: 16, // hold the rung: this test is about stepping down
            ..DegradePolicy::default()
        }),
        watchdog: None,
    });
    assert!(
        report
            .trace
            .decisions
            .iter()
            .any(|d| matches!(d.action, ControlAction::SetPrecision { .. })),
        "the outage must walk the ladder down:\n{}",
        report.trace
    );
    // Telemetry saw the link down and segments refused.
    assert!(report.telemetry.iter().any(|t| !t.faults.link_up));
    assert!(report.telemetry.iter().any(|t| t.faults.refused_tick > 0));
}

#[test]
fn exhausted_retries_spill_to_archive_and_overflow_is_accounted() {
    // A run-long outage with one delivery attempt and a 4-segment bin:
    // refusals exhaust instantly, the bin fills, the rest are accounted
    // drops — nothing silently lost.
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(2))
        .with_faults(FaultPlan::new().uplink_outage(0, 10_000))
        .with_recovery(RecoveryConfig {
            retry: RetryPolicy {
                base_delay_rounds: 1,
                max_delay_rounds: 1,
                max_attempts: 1,
                jitter_rounds: 0,
                jitter_seed: 0,
            },
            spill_limit_segments: 4,
            max_restarts_per_stream: 2,
        });
    cfg.uplink_capacity_bps = 200_000.0;
    let report = build_node(cfg, 2, 32).run_controlled(quiet_ctl());
    let faults = report.faults.as_ref().expect("faults report");
    assert!(faults.ledger.conserves(), "{:?}", faults.ledger);
    assert_eq!(faults.ledger.delivered + faults.ledger.delivered_late, 0);
    assert_eq!(faults.ledger.dropped, faults.ledger.offered);
    assert_eq!(faults.spilled, 4, "the bin filled to its limit");
    assert!(
        faults.spill_overflow > 0,
        "overflow becomes accounted drops"
    );
    assert!(
        faults.recovery_rounds.is_none(),
        "the link never recovered, so there is no recovery time"
    );
    let kinds: Vec<_> = faults.trace.events.iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&FaultEventKind::Spilled { stream: 0 }));
    assert!(kinds
        .iter()
        .any(|k| matches!(k, FaultEventKind::SpillDropped { .. })));
    assert!(
        kinds
            .iter()
            .any(|k| matches!(k, FaultEventKind::EndOfRunDropped { .. })),
        "parked segments become accounted drops at end of run"
    );
}

#[test]
fn run_executes_a_fault_plan_and_its_ledger_conserves() {
    // `run()` is the round loop with every policy off, so a fault plan's
    // virtual-time windows apply to it like to any other run.
    let cfg = EdgeNodeConfig::new(ShardLayout::single(2))
        .with_faults(FaultPlan::new().uplink_outage(4, 6).stage_panic(1, 2));
    let report = build_node(cfg, 2, 32).run();
    let faults = report.faults.as_ref().expect("plan ⇒ faults report");
    assert!(faults.ledger.conserves(), "{:?}", faults.ledger);
    assert!(faults.ledger.offered > 0);
    assert!(faults.ledger.delivered_late > 0, "{:?}", faults.ledger);
    assert_eq!(faults.restarts, vec![0, 1]);
    assert_eq!(report.streams[0].verdicts.len(), 32);
    assert_eq!(report.streams[1].verdicts.len(), 31);
    assert!(report.trace.is_empty(), "no policy is armed");
}
