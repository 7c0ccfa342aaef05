//! The actor-runtime acceptance suite: 1000+ duty-cycled cameras
//! multiplexed onto one worker pool with **zero per-stream OS threads**
//! (`EdgeNode::run_controlled` schedules every stream as a
//! [`ff_core::task::StreamTask`]).
//!
//! * the **1000-camera fleet** replays bit-identically — verdicts, control
//!   trace, and the scheduler's wake log — across repeated runs and shard
//!   widths, and the wake log is exactly the one the duty-cycle schedules
//!   predict;
//! * a **property test** that wake order is a pure function of
//!   (seed, schedules, round), independent of the worker budget;
//! * the **fault machinery re-run through task restarts**: scripted stage
//!   panics and camera stalls on a duty-cycled fleet leave traces equal
//!   across widths and repeats, with the same restart accounting the
//!   thread-era suite pinned;
//! * **active-set admission**: duty-cycled fleets pack `1/duty_fraction`
//!   more cameras than always-on ones, with the typed
//!   [`AdmissionError::OverActiveSet`] refusal at the boundary.

use std::time::Duration;

use ff_core::control::{AdmissionError, AdmissionPolicy, ControlConfig};
use ff_core::faults::{FaultEventKind, FaultPlan};
use ff_core::node::EdgeNodeSpec;
use ff_core::pipeline::{FilterForward, FrameVerdict};
use ff_core::runtime::{ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{McSpec, PipelineConfig, SmoothingConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{DutyCycleSource, FrameSource, Resolution, SceneSource};
use proptest::prelude::*;

const RES: Resolution = Resolution::new(32, 16);
const FLEET: usize = 1000;
const PERIOD: u64 = 20; // 1 active tick, 19 idle: a 5% duty cycle

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

fn mc(s: usize) -> McSpec {
    McSpec {
        threshold: 0.0,
        smoothing: SmoothingConfig { n: 1, k: 1 },
        ..McSpec::full_frame(format!("cam{s}"), 7 + s as u64)
    }
}

/// Policy-free control config: these tests pin the scheduler, not the
/// policies (which have their own suites).
fn quiet_ctl() -> ControlConfig {
    ControlConfig {
        tick_frames: 8,
        arrival_alpha: 0.5,
        degrade: None,
        watchdog: None,
    }
}

/// The 1000-camera fleet: every stream is a 5%-duty-cycled camera with one
/// frame to deliver, phased so ~50 wake per round. Shared backbone +
/// gather batching: the node builds a handful of extractors, not 1000.
fn fleet_run(budget: usize) -> ControlledReport {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
        max_batch: 64,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 10_000_000.0;
    let mut node = EdgeNode::new(cfg);
    for s in 0..FLEET {
        let inner = SceneSource::new(scene_cfg(1000 + s as u64), 1);
        let src = Box::new(DutyCycleSource::with_phase(
            inner,
            1,
            PERIOD - 1,
            s as u64 % PERIOD,
        ));
        let id = node.add_stream(src, pipeline());
        node.deploy(id, mc(s));
    }
    node.run_controlled(quiet_ctl())
}

/// The serial gold for one fleet camera: a private pipeline fed the same
/// single frame.
fn serial_verdicts(s: usize) -> Vec<FrameVerdict> {
    let mut ff = FilterForward::new(pipeline());
    ff.deploy(mc(s));
    let mut src = SceneSource::new(scene_cfg(1000 + s as u64), 1);
    let frame = src.next_frame().expect("one frame");
    let mut verdicts = ff.process(&frame);
    let (tail, _, _) = ff.finish();
    verdicts.extend(tail);
    verdicts
}

/// The wake log the duty-cycle schedules predict: stream `s` (phase
/// `s % PERIOD`) produces its one frame at the first round `r` with
/// `(phase + r) % PERIOD == 0`, and the arrival scan visits streams in
/// index order within a round.
fn predicted_wakes() -> Vec<(u64, usize)> {
    let mut wakes = Vec::with_capacity(FLEET);
    for r in 0..PERIOD {
        for s in 0..FLEET {
            if (s as u64 % PERIOD + r).is_multiple_of(PERIOD) {
                wakes.push((r, s));
            }
        }
    }
    wakes
}

#[test]
fn thousand_camera_fleet_is_bit_replayable_across_runs_and_widths() {
    let gold = fleet_run(1);
    assert_eq!(gold.streams.len(), FLEET);
    assert_eq!(gold.node.pipeline.frames_out, FLEET as u64);
    for (s, sr) in gold.streams.iter().enumerate() {
        assert_eq!(sr.verdicts.len(), 1, "stream {s} must deliver its frame");
    }

    // The wake log is exactly the schedule-predicted one: ~50 cameras per
    // round for 20 rounds, in (round, stream) order.
    assert_eq!(gold.wakes, predicted_wakes());

    // Spot-check the gather path against private-pipeline serial golds at
    // both ends of the fleet.
    for s in [0usize, FLEET - 1] {
        assert_eq!(
            gold.streams[s].verdicts,
            serial_verdicts(s),
            "stream {s} diverged from its serial pipeline"
        );
    }

    // Bit-replayable: a repeat run and two more shard widths produce the
    // same verdicts, the same control trace, and the same wake log.
    for (label, report) in [
        ("rerun @1", fleet_run(1)),
        ("width 2", fleet_run(2)),
        ("width 3", fleet_run(3)),
    ] {
        assert_eq!(gold.wakes, report.wakes, "{label}: wake log diverged");
        assert_eq!(gold.trace, report.trace, "{label}: control trace diverged");
        for (s, (a, b)) in gold.streams.iter().zip(&report.streams).enumerate() {
            assert_eq!(a.verdicts, b.verdicts, "{label}: stream {s} diverged");
        }
    }
}

/// One small duty-cycled fleet run for the wake-order property: stream `s`
/// decodes its schedule from `raw[s]`.
fn small_fleet_run(budget: usize, raw: &[u64]) -> ControlledReport {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
        max_batch: 8,
        gather_wait: Duration::from_millis(1),
    });
    cfg.uplink_capacity_bps = 10_000_000.0;
    let mut node = EdgeNode::new(cfg);
    for (s, &r) in raw.iter().enumerate() {
        let (idle, phase, frames) = decode_schedule(r);
        let inner = SceneSource::new(scene_cfg(50 + s as u64), frames);
        let src = Box::new(DutyCycleSource::with_phase(inner, 1, idle, phase));
        let id = node.add_stream(src, pipeline());
        node.deploy(id, mc(s));
    }
    node.run_controlled(quiet_ctl())
}

/// (idle ticks, phase, frames) from one generated u64.
fn decode_schedule(raw: u64) -> (u64, u64, u64) {
    let idle = raw % 4;
    let phase = (raw / 4) % (1 + idle);
    let frames = 1 + (raw / 16) % 3;
    (idle, phase, frames)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Wake order is a pure function of (seed, schedules, round): the log
    /// is identical across worker budgets and repeats, and each stream's
    /// first wake lands exactly where its duty-cycle schedule puts its
    /// first frame.
    #[test]
    fn wake_order_is_a_pure_function_of_schedules(
        raw in proptest::collection::vec(0u64..1000, 1..5),
    ) {
        let gold = small_fleet_run(1, &raw);
        for budget in [2usize, 3, 1] {
            let again = small_fleet_run(budget, &raw);
            prop_assert_eq!(&gold.wakes, &again.wakes);
            prop_assert_eq!(&gold.trace, &again.trace);
        }
        for (s, &r) in raw.iter().enumerate() {
            let (idle, phase, _frames) = decode_schedule(r);
            let period = 1 + idle;
            let predicted = (period - phase) % period;
            let first = gold.wakes.iter().find(|&&(_, ws)| ws == s).map(|&(wr, _)| wr);
            prop_assert_eq!(first, Some(predicted));
        }
    }
}

/// A duty-cycled fleet under scripted faults, run through task restarts:
/// stream 1 stalls mid-run, stream 2's inference stage panics on its 6th
/// served frame.
fn chaos_fleet_run(budget: usize) -> ControlledReport {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget))
        .with_gather_batch(GatherBatch {
            max_batch: 8,
            gather_wait: Duration::from_millis(1),
        })
        .with_faults(FaultPlan::new().camera_stall(1, 4, 6).stage_panic(2, 5));
    cfg.uplink_capacity_bps = 1_000_000.0;
    let mut node = EdgeNode::new(cfg);
    for s in 0..4usize {
        let inner = SceneSource::new(scene_cfg(80 + s as u64), 8);
        let src = Box::new(DutyCycleSource::with_phase(inner, 1, 1, s as u64 % 2));
        let id = node.add_stream(src, pipeline());
        node.deploy(id, mc(s));
    }
    node.run_controlled(quiet_ctl())
}

#[test]
fn fault_recovery_through_task_restarts_replays_bit_for_bit() {
    let gold = chaos_fleet_run(1);
    let faults = gold.faults.as_ref().expect("plan ⇒ faults report");

    // The panic fired, the stage restarted as a task restart (no thread to
    // respawn), and the breaker accounting matches the thread-era shape:
    // one restart and one lost frame on stream 2, nothing anywhere else.
    let kinds: Vec<_> = faults.trace.events.iter().map(|e| e.kind).collect();
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

    // A stall preserves content; a panic costs exactly the served frame.
    for (s, want) in [(0usize, 8usize), (1, 8), (2, 7), (3, 8)] {
        assert_eq!(gold.streams[s].verdicts.len(), want, "stream {s}");
    }

    // The whole history — fault trace, control trace, wake log, verdicts —
    // replays bit-for-bit across repeats and shard widths.
    for (label, report) in [
        ("rerun @1", chaos_fleet_run(1)),
        ("width 2", chaos_fleet_run(2)),
        ("width 3", chaos_fleet_run(3)),
    ] {
        assert_eq!(gold.faults, report.faults, "{label}: faults diverged");
        assert_eq!(gold.trace, report.trace, "{label}: trace diverged");
        assert_eq!(gold.wakes, report.wakes, "{label}: wake log diverged");
        for (s, (a, b)) in gold.streams.iter().zip(&report.streams).enumerate() {
            assert_eq!(a.verdicts, b.verdicts, "{label}: stream {s} diverged");
        }
    }
}

#[test]
fn active_set_admission_packs_duty_cycled_fleets() {
    let admitted = AdmissionPolicy::new(EdgeNodeSpec::paper_testbed());
    let node_cfg = || {
        EdgeNodeConfig::new(ShardLayout::single(1)).with_admission(admitted)
        // budget 1 × 4 streams/worker = 4 active streams
    };

    // Always-on cameras: the legacy whole-stream cap, with the legacy
    // refusal, bit-for-bit.
    let mut node = EdgeNode::new(node_cfg());
    for s in 0..4 {
        node.add_stream(
            Box::new(SceneSource::new(scene_cfg(s as u64), 4)),
            pipeline(),
        );
    }
    let err = node
        .try_add_stream(Box::new(SceneSource::new(scene_cfg(9), 4)), pipeline())
        .expect_err("the 5th always-on camera must be refused");
    assert_eq!(
        err,
        AdmissionError::OverShardBudget {
            streams: 4,
            budget_threads: 1,
            max_streams: 4,
        }
    );

    // 25%-duty-cycled cameras: the same budget admits 4× as many — 16
    // quarter-streams fill the 4-stream active set exactly — and the 17th
    // is refused with the typed active-set error.
    let mut node = EdgeNode::new(node_cfg());
    for s in 0..16 {
        let inner = SceneSource::new(scene_cfg(s as u64), 4);
        node.add_stream(Box::new(DutyCycleSource::new(inner, 1, 3)), pipeline());
    }
    let inner = SceneSource::new(scene_cfg(99), 4);
    let err = node
        .try_add_stream(Box::new(DutyCycleSource::new(inner, 1, 3)), pipeline())
        .expect_err("the 17th quarter-duty camera must be refused");
    assert_eq!(
        err,
        AdmissionError::OverActiveSet {
            active_millistreams: 4000,
            incoming_millistreams: 250,
            budget_millistreams: 4000,
        }
    );

    // Once the fleet is mixed, an always-on refusal is an active-set
    // refusal too (the whole-stream cap no longer tells the story).
    let err = node
        .try_add_stream(Box::new(SceneSource::new(scene_cfg(98), 4)), pipeline())
        .expect_err("a full camera cannot fit a full active set");
    assert_eq!(
        err,
        AdmissionError::OverActiveSet {
            active_millistreams: 4000,
            incoming_millistreams: 1000,
            budget_millistreams: 4000,
        }
    );
}
