//! # FilterForward — the core system
//!
//! A faithful Rust implementation of the FilterForward architecture
//! (Canel et al., MLSys 2019): an edge-to-cloud video filtering system in
//! which one shared base DNN feeds many per-application
//! **microclassifiers**, per-frame verdicts are smoothed into **events**,
//! and only matching frames are re-encoded and uploaded over a
//! bandwidth-constrained link.
//!
//! The crate is organized along Figure 1 of the paper:
//!
//! * [`extractor`] — the shared feature extractor (base DNN + named taps +
//!   feature-map crops).
//! * [`spec`] — microclassifier deployment specs and runtimes (the three
//!   Figure-2 architectures with temporal buffering).
//! * [`smoothing`] / [`events`] — K-voting and the transition detector
//!   that assigns monotonically increasing per-MC event IDs.
//! * [`pipeline`] — the end-to-end per-stream pipeline: archive, extract,
//!   classify, smooth, re-encode, upload.
//! * [`runtime`] — the multi-stream edge node: one virtual-time round
//!   loop running every stream as a [`task`] (an actor-style state
//!   machine) on one worker pool sharing one uplink — each round's
//!   selected frames served as one pool job per stream, each extracting
//!   through the node-owned base DNN of its (config, resolution) bucket.
//!   No per-stream threads, so a
//!   node carries 1000+ mostly-idle duty-cycled cameras with
//!   bit-replayable traces.
//! * [`task`] — the per-stream state machine (poll → decode → infer →
//!   collect as typed messages) the round loop drives.
//! * [`control`] — the adaptive control plane: deterministic virtual-time
//!   telemetry (queue depths, arrival EWMAs, frames served, uplink load)
//!   feeding policies that quarantine stalled cameras, degrade
//!   precision/upload stride under uplink saturation
//!   (all with hysteresis), and gate stream admission against the
//!   [`node`] memory model — every decision lands in a bit-replayable
//!   trace (see [`runtime::EdgeNode::run_controlled`] and
//!   [`runtime::EdgeNode::try_add_stream`]).
//!   The base DNN runs at one of two precisions
//!   ([`ff_tensor::Precision`]: f32, or whole-int8 — s8 weight panels a
//!   quarter the size, u8 activations, i32 accumulation) via
//!   `MobileNetConfig::precision`, [`FeatureExtractor::set_precision`] /
//!   [`pipeline::FilterForward::set_precision`], or the node-wide
//!   `EdgeNodeConfig::precision` override; whole-int8 runs stay
//!   bit-for-bit deterministic across thread counts, pool widths, and
//!   batch modes.
//! * [`archive`] — local storage + demand-fetch of context segments.
//! * [`hub`] — the cloud tier: a [`hub::CloudHub`] fanning in event
//!   segments from the whole fleet behind per-node dedup windows
//!   (at-least-once transport, effectively exactly-once accounting),
//!   serving composite [`query::Query`] subscriptions, staging MC
//!   rollouts with canary rollback, and demand-fetching archived context
//!   against spilled segments.
//! * [`fleet`] — the deterministic virtual-time fleet loop driving
//!   50–200 simulated nodes against one hub under a scripted
//!   [`faults::FleetFaultPlan`] (node crashes, hub partitions, duplicate
//!   storms, seeded loss): checkpointed crash recovery, a conserved
//!   [`hub::FleetLedger`], and a byte-replayable trace across repeats
//!   and shard widths.
//! * [`faults`] — deterministic fault injection and recovery: virtual-time
//!   scheduled uplink outages/capacity dips/packet loss, camera stalls and
//!   corruption, scripted stage panics — plus the recovery half (bounded
//!   seeded-backoff retries, spill-to-archive with re-drain, a stall
//!   watchdog, and panic-isolated stage restarts) that keeps every segment
//!   accounted and the fault trace bit-replayable.
//! * [`uplink`] — the constrained link model.
//! * [`obs`] (re-exported [`ff_obs`]) — the observability substrate: one
//!   metrics registry (counters, gauges, log₂ histograms) backing node,
//!   control, fault, and hub/fleet telemetry, plus a virtual-time span
//!   tracer with a Chrome trace-event exporter. Deterministic exports are
//!   keyed by virtual rounds; wall-clock values ride along flagged
//!   volatile and are excluded.
//! * [`train`] / [`evaluate`] — offline MC/DC training and event-F1
//!   measurement.
//! * [`baselines`] — discrete classifiers and multiple-MobileNets banks.
//! * [`cloud`] — the "compress everything" strategy.
//! * [`node`] — edge-node memory model (the Figure-5 OOM cliff).
//!
//! # Quickstart
//!
//! ```no_run
//! use ff_core::pipeline::{FilterForward, PipelineConfig};
//! use ff_core::spec::McSpec;
//! use ff_video::scene::{Scene, SceneConfig};
//!
//! let scene_cfg = SceneConfig::default();
//! let mut pipeline = FilterForward::new(PipelineConfig::new(
//!     scene_cfg.resolution,
//!     scene_cfg.fps,
//! ));
//! pipeline.deploy(McSpec::localized("find-pedestrians", None, 42));
//! let mut scene = Scene::new(scene_cfg);
//! for _ in 0..100 {
//!     let (frame, _truth) = scene.step();
//!     for verdict in pipeline.process(&frame) {
//!         if verdict.matched() {
//!             println!("frame {} uploaded ({} bytes)", verdict.frame, verdict.uploaded_bytes);
//!         }
//!     }
//! }
//! ```

#![warn(missing_docs)]

pub use ff_obs as obs;

pub mod archive;
pub mod baselines;
pub mod cloud;
pub mod control;
pub mod evaluate;
pub mod events;
pub mod extractor;
pub mod faults;
pub mod fleet;
pub mod hub;
pub mod node;
pub mod pipeline;
pub mod pretrain;
pub mod query;
pub mod runtime;
pub mod smoothing;
pub mod spec;
pub mod task;
pub mod train;
pub mod uplink;

pub use control::{
    AdmissionError, AdmissionPolicy, ControlAction, ControlConfig, ControlPlan, ControlTrace,
    Controller, NodeTelemetry,
};
pub use events::{EventId, EventRecord, McId};
pub use extractor::{FeatureExtractor, FeatureMaps};
pub use faults::{
    FaultEvent, FaultEventKind, FaultPlan, FaultPlanError, FaultTrace, FaultsReport, FleetFault,
    FleetFaultError, FleetFaultKind, FleetFaultPlan, RecoveryConfig, RetryPolicy, SegmentLedger,
};
pub use fleet::{Fleet, FleetConfig, FleetError, FleetReport};
pub use hub::{
    Admit, CloudHub, DedupWindow, EventSegment, FleetLedger, HubError, HubEvent, HubEventKind,
    HubTrace, McVersion, NodeId, RolloutOutcome, RolloutPlan, SubId, Subscription,
};
pub use pipeline::{FilterForward, FrameVerdict, PipelineConfig, PipelineStats};
pub use runtime::{
    ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, NodeStats, ShardLayout, StreamId,
};
pub use smoothing::{KVotingSmoother, SmoothingConfig};
pub use spec::{McKind, McModel, McRuntime, McSpec};
pub use task::{StreamTask, TaskState};
pub use train::{train_dc, train_mc, TrainConfig, TrainedMc};
