//! Integration tests for the adaptive node control plane
//! (`ff_core::control` + `EdgeNode::run_controlled`):
//!
//! * a scripted **diurnal-load scenario** (streams go idle and return)
//!   whose decision trace must be **bit-identical** across repeated runs
//!   and thread counts (the virtual-time determinism contract);
//! * **verdict equivalence** with the policy-free `EdgeNode::run` when no
//!   policy fires;
//! * **admission control** provably refusing the stream that would exceed
//!   the `node` memory model.

use std::time::Duration;

use ff_core::control::{
    AdmissionError, AdmissionPolicy, ControlAction, ControlConfig, DegradePolicy,
};
use ff_core::node::{max_mobilenet_instances, mobilenet_instance_bytes, EdgeNodeSpec};
use ff_core::runtime::{ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout};
use ff_core::{McSpec, PipelineConfig};
use ff_models::MobileNetConfig;
use ff_video::scene::SceneConfig;
use ff_video::{DutyCycleSource, Resolution, SceneSource};

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

/// The diurnal scenario: four cameras, two always on, two that sleep
/// through long idle stretches and come back — driven by the controlled
/// node with a round cap of 8, the degradation ladder armed and a tight
/// uplink so the ladder has something to do.
fn diurnal_gather_run(budget: usize) -> ControlledReport {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
        max_batch: 8,
        gather_wait: Duration::from_millis(1),
    });
    // Tight shared link: matched-frame uploads saturate it.
    cfg.uplink_capacity_bps = 40_000.0;
    let mut node = EdgeNode::new(cfg);
    for (s, seed) in [21u64, 22, 23, 24].iter().enumerate() {
        let inner = SceneSource::new(scene_cfg(*seed), 48);
        let src: Box<dyn ff_video::FrameSource> = if s < 2 {
            Box::new(inner) // always-on cameras
        } else {
            // Night-time cameras: 8 active ticks, then 24 idle, repeating.
            Box::new(DutyCycleSource::new(inner, 8, 24))
        };
        let id = node.add_stream(src, pipeline());
        // threshold 0 ⇒ every frame matches and uploads: sustained uplink
        // pressure for the degradation ladder.
        let spec = McSpec {
            threshold: 0.0,
            smoothing: ff_core::SmoothingConfig { n: 1, k: 1 },
            ..McSpec::full_frame(format!("cam{s}"), *seed)
        };
        node.deploy(id, spec);
    }
    node.run_controlled(ControlConfig {
        tick_frames: 4,
        arrival_alpha: 0.5,
        degrade: Some(DegradePolicy {
            saturate_ticks: 2,
            relax_ticks: 4,
            ..DegradePolicy::default()
        }),
        watchdog: None,
    })
}

#[test]
fn diurnal_decision_trace_is_bit_identical_across_runs_and_widths() {
    // ≥ 3 repeated runs and ≥ 2 thread counts (shard widths drive the
    // kernel-level split; virtual time makes the trace width-independent).
    let gold = diurnal_gather_run(1);
    assert!(
        !gold.trace.is_empty(),
        "the scenario must exercise the controller"
    );
    // The ladder must step from the saturated link.
    let has_degrade = gold.trace.decisions.iter().any(|d| {
        matches!(
            d.action,
            ControlAction::SetPrecision { .. } | ControlAction::SetUploadStride { .. }
        )
    });
    assert!(has_degrade, "degradation never fired:\n{}", gold.trace);

    for run in 0..2 {
        let again = diurnal_gather_run(1);
        assert_eq!(gold.trace, again.trace, "trace diverged on rerun {run}");
        for (a, b) in gold.streams.iter().zip(&again.streams) {
            assert_eq!(a.verdicts, b.verdicts, "verdicts diverged on rerun {run}");
        }
    }
    for width in [2usize, 3] {
        let wide = diurnal_gather_run(width);
        assert_eq!(gold.trace, wide.trace, "trace diverged at width {width}");
        for (a, b) in gold.streams.iter().zip(&wide.streams) {
            assert_eq!(a.verdicts, b.verdicts, "verdicts diverged at width {width}");
        }
    }
}

#[test]
fn diurnal_per_stream_run_replays_across_runs_and_widths() {
    // No round cap, under the same diurnal load: night cameras fall
    // asleep and wake while the always-on ones keep serving, so the set of
    // streams sharing a round's dispatch keeps changing. Wake log,
    // telemetry-visible counts, and verdicts must not notice — across
    // repeats, and from one worker (jobs back to back) to more workers
    // than streams.
    let run = |width: usize| {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(width));
        cfg.uplink_capacity_bps = 1_000_000.0;
        let mut node = EdgeNode::new(cfg);
        for (s, seed) in [31u64, 32, 33, 34].iter().enumerate() {
            let inner = SceneSource::new(scene_cfg(*seed), 40);
            let src: Box<dyn ff_video::FrameSource> = if s < 2 {
                Box::new(inner)
            } else {
                Box::new(DutyCycleSource::new(inner, 6, 18))
            };
            let id = node.add_stream(src, pipeline());
            node.deploy(id, McSpec::full_frame(format!("cam{s}"), *seed));
        }
        node.run_controlled(ControlConfig::observe_only(4))
    };
    let served = |r: &ControlledReport| -> Vec<Vec<u64>> {
        let ticks = r.telemetry.iter();
        ticks
            .map(|t| t.streams.iter().map(|s| s.served).collect())
            .collect()
    };
    let gold = run(1);
    assert!(
        gold.wakes.iter().filter(|(_, s)| *s == 2).count() > 1,
        "the night cameras must sleep and wake again: {:?}",
        gold.wakes
    );
    for width in [1usize, 2, 8] {
        let again = run(width);
        assert_eq!(
            gold.wakes, again.wakes,
            "wake log diverged at width {width}"
        );
        assert_eq!(served(&gold), served(&again), "width {width}");
        for (a, b) in gold.streams.iter().zip(&again.streams) {
            assert_eq!(a.verdicts, b.verdicts, "width {width} stream {:?}", a.id);
        }
    }
}

#[test]
fn controlled_verdicts_match_uncontrolled_when_no_policy_fires() {
    // Always-on streams, generous uplink, no round cap (the stream count):
    // no armed policy has any reason to act, so the node must reproduce
    // the policy-free run's verdicts bit-for-bit.
    let build = || {
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for seed in [41u64, 42, 43] {
            let src = Box::new(SceneSource::new(scene_cfg(seed), 16));
            let id = node.add_stream(src, pipeline());
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        node
    };
    let uncontrolled = build().run();
    let controlled = build().run_controlled(ControlConfig::default());
    assert!(
        controlled.trace.is_empty(),
        "no policy should fire: {}",
        controlled.trace
    );
    for (a, b) in uncontrolled.streams.iter().zip(&controlled.streams) {
        assert_eq!(a.verdicts, b.verdicts, "stream {:?}", a.id);
    }
    assert_eq!(
        uncontrolled.node.pipeline.frames_out,
        controlled.node.pipeline.frames_out
    );
}

#[test]
fn admission_refuses_the_stream_that_would_exceed_the_memory_model() {
    let mn = MobileNetConfig::with_width(0.25);
    let per = mobilenet_instance_bytes(&mn, RES);
    // An envelope that fits exactly 3 instances after the 10% OS reserve:
    // budget = ceil(10/9 · 3.5·per) keeps max_instances at 3 for any
    // rounding of the reserve arithmetic.
    let spec = EdgeNodeSpec {
        cores: 4,
        memory_bytes: (per * 7 / 2) * 10 / 9,
    };
    let max = max_mobilenet_instances(&spec, &mn, RES);
    assert_eq!(max, 3, "scenario needs a 3-instance envelope");

    let mut node = EdgeNode::new(
        EdgeNodeConfig::new(ShardLayout::single(1)).with_admission(AdmissionPolicy::new(spec)),
    );
    for seed in 0..max as u64 {
        let src = Box::new(SceneSource::new(scene_cfg(seed), 2));
        node.try_add_stream(src, pipeline())
            .unwrap_or_else(|e| panic!("stream {seed} must fit ({e})"));
    }
    // The (max+1)-th stream would be the paper's Figure-5 OOM: the node
    // must refuse it, and the typed reason must agree with the memory
    // model exactly at the boundary.
    let src = Box::new(SceneSource::new(scene_cfg(99), 2));
    let err = node
        .try_add_stream(src, pipeline())
        .expect_err("over-memory stream must be refused");
    match err {
        AdmissionError::OverMemory {
            instance_bytes,
            committed_bytes,
            budget_bytes,
            max_instances,
        } => {
            assert_eq!(instance_bytes, per);
            assert_eq!(committed_bytes, per * max as u64);
            assert_eq!(max_instances, max);
            assert!(committed_bytes + instance_bytes > budget_bytes);
            assert!(committed_bytes <= budget_bytes);
        }
        other => panic!("expected OverMemory, got {other:?}"),
    }
    // The refusal must not have corrupted the node: the admitted streams
    // still run.
    for s in 0..node.stream_count() {
        node.deploy(
            ff_core::StreamId(s),
            McSpec::full_frame(format!("m{s}"), s as u64),
        );
    }
    let report = node.run();
    assert_eq!(report.streams.len(), max);
    assert_eq!(report.node.pipeline.frames_out, 2 * max as u64);
}

#[test]
fn degradation_ladder_lowers_offered_uplink_load() {
    // The ladder's purpose, end to end: the degraded run must offer fewer
    // bits to the saturated link than an uncontrolled run of the same
    // streams (precision steps change re-encoded sizes a little; the
    // upload stride cuts them roughly in half per rung).
    let build = || {
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(1)).with_gather_batch(GatherBatch {
            max_batch: 2,
            gather_wait: Duration::from_millis(1),
        });
        cfg.uplink_capacity_bps = 30_000.0;
        let mut node = EdgeNode::new(cfg);
        for seed in [51u64, 52] {
            let src = Box::new(SceneSource::new(scene_cfg(seed), 40));
            let id = node.add_stream(src, pipeline());
            node.deploy(
                id,
                McSpec {
                    threshold: 0.0,
                    smoothing: ff_core::SmoothingConfig { n: 1, k: 1 },
                    ..McSpec::full_frame(format!("all{seed}"), seed)
                },
            );
        }
        node
    };
    let uncontrolled = build().run();
    let controlled = build().run_controlled(ControlConfig {
        tick_frames: 4,
        arrival_alpha: 0.5,
        // One rung per two saturated ticks: the ladder is four rungs deep
        // (one precision rung before the strides), and the stride rungs —
        // the ones that actually shed bytes — must get a meaningful share
        // of this 40-frame run, yet arrive after the encoder's rate control
        // has ramped (ticks 1–4), or there is no saturation peak for the
        // last assertion to fall from.
        degrade: Some(DegradePolicy {
            saturate_ticks: 2,
            relax_ticks: 8,
            ..DegradePolicy::default()
        }),
        watchdog: None,
    });
    assert!(
        controlled
            .trace
            .decisions
            .iter()
            .any(|d| matches!(d.action, ControlAction::SetUploadStride { .. })),
        "the saturated link must push the ladder to the stride rungs:\n{}",
        controlled.trace
    );
    let offered_uncontrolled: u64 = uncontrolled.streams.iter().map(|s| s.offered_bytes).sum();
    let offered_controlled: u64 = controlled.streams.iter().map(|s| s.offered_bytes).sum();
    assert!(
        offered_controlled < offered_uncontrolled,
        "degradation must shed offered load ({offered_controlled} vs {offered_uncontrolled})"
    );
    // Telemetry must show the shedding too: once the ladder reaches its
    // stride rungs, per-tick offered load falls well below the saturation
    // peak. (The *first* tick is no baseline — the encoder's rate control
    // is still ramping there.)
    let peak = controlled
        .telemetry
        .iter()
        .map(|t| t.uplink.offered_utilization_tick)
        .fold(0.0f64, f64::max);
    let last = controlled
        .telemetry
        .last()
        .expect("telemetry must be logged");
    assert!(
        last.uplink.offered_utilization_tick < 0.8 * peak,
        "offered load must fall off its peak: peak {:.2}, last {:.2}",
        peak,
        last.uplink.offered_utilization_tick
    );
}
