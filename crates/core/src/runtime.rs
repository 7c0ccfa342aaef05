//! The multi-stream edge-node runtime: N camera streams, each a
//! [`crate::task::StreamTask`] owning its own [`FilterForward`], multiplexed
//! by **one round loop** onto one persistent worker pool and sharing one
//! constrained [`Uplink`].
//!
//! # One loop
//!
//! [`EdgeNode::run_controlled`] is the only executor; [`EdgeNode::run`] is
//! the same loop with every control policy off. It spawns **no per-stream
//! OS threads** — the only threads on the node are the workers of its one
//! [`PoolShard`] ([`ff_tensor::parallel`] is the one place threads live).
//! Each iteration is one *round*: one frame interval of virtual time.
//!
//! | phase of a round | runs on | why |
//! |---|---|---|
//! | **arrivals** — poll every open stream once, queue the frame's pixels in the task's mailbox | the calling thread | poll order *is* the wake log; a queued frame holds its pixels only, a quarter of its `f32` tensor |
//! | **service** — *select*: passes over the streams from a rotating start, at most one frame per stream per pass, until the round's cap ([`EdgeNodeConfig::gather_batch`]; the stream count when `None`) or the mailboxes run dry; a scripted stage panic is isolated here, before any inference. *Jobs*: one per stream with selected frames, each frame in selection order decoded (pixels → tensor, [`Frame::to_tensor_into`] the input of the job's pool slot), then through its bucket's base DNN ([`crate::FeatureExtractor::extract_into`] in the same slot's scratch), then its MCs, smoothing, upload re-encode and archive | selection on the calling thread; the jobs run on [`PoolShard::run_items`], `min(jobs, pool width)` cores, their kernels serially inside each job — a round with one job keeps the kernel-level fan-out (its GEMMs split across the whole pool) | everything a frame needs after selection is its stream's state plus read-only weights, so whole streams are the coarsest — cheapest — unit of parallel work; on a node's few small cores a batch is no cheaper per frame than one frame walked alone, so frames run side by side rather than stacked |
//! | **fold, close, uplink, control tick** | the calling thread, in stream order | see below |
//!
//! The node owns every base DNN: one [`crate::FeatureExtractor`] per
//! (base-DNN config, resolution) bucket, built when the bucket's first
//! stream is added, which deploys, calibrates ([`EdgeNode::calibrate`])
//! and takes the precision knobs. Every stream is a
//! [`FilterForward::new_deferred`] pipeline with no backbone of its own,
//! and its jobs extract through the bucket's one weight set, immutably, in
//! one activation scratch per pool slot — so weights scale with buckets and
//! activations with pool width, neither with camera count (the paper's
//! §3.1: one base DNN whose feature maps every microclassifier shares).
//!
//! # Why every trace replays
//!
//! Pool jobs finish in whatever order the cores get to them, but nothing
//! observes that order: a job writes only its own stream's task (its
//! pipeline and pending verdicts) and result slot, and the loop folds the
//! round's results — verdicts, sensor counts, spans, fault events,
//! restarts — back **in stream order** after the last job lands. Kernels
//! dispatched from inside a job run serially on the thread that claimed it,
//! kernel results are independent of worker count (see
//! [`ff_tensor::parallel`]), and streams share no mutable inference state:
//! a shared extractor is read-only during a run ([`ff_nn::Layer::infer`]
//! takes `&self`) and a slot's scratch holds one job's activations at a
//! time. So per-stream
//! verdicts are **bit-for-bit identical** to a serial
//! [`FilterForward::process`] loop, and every sensor, control decision,
//! fault event, and span is a pure function of (round, stream content):
//! identical across runs, pool widths, round caps, and core counts.
//!
//! # Stream tasks
//!
//! ```text
//!              frame arrives (poll → deliver pixels)
//!    Sleeping ─────────────────────────────────────────▶ Awake
//!       ▲                                                  │
//!       │    round with no arrival and an empty mailbox    │ infer → collect
//!       └──────────────────────────────────────────────────┘ (≤ 1 frame per
//!                                                             pass, up to the
//!    Awake / Sleeping ──watchdog quarantine──▶ Suspended     round's cap)
//!    Suspended ──readmit──▶ Awake or Sleeping (by mailbox)
//!    any ──source End, mailbox drained, pipeline flushed──▶ Ended
//!    any ──stage panic past the restart budget──▶ Killed (circuit breaker)
//! ```
//!
//! A sleeping task costs one `poll_frame` per round and holds no thread,
//! channel, or inference workspace, which is what lets one node carry
//! 1000+ mostly-idle duty-cycled cameras: admission prices each stream by
//! its [`ff_video::FrameSource::duty_fraction`] (see
//! [`EdgeNode::try_add_stream`]), and the sleepers do not even hold a
//! base-DNN instance — the node holds one per bucket, so mixed-resolution
//! fleets still share weights per resolution. Calibrate through
//! [`EdgeNode::calibrate`], which reaches each bucket's backbone.

use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ff_models::MobileNetConfig;
use ff_obs::{MetricsSnapshot, Registry, Span, SpanTracer, NODE_SCOPE};
use ff_tensor::parallel::{self, ShardObs};
use ff_tensor::{PoolShard, Tensor, Workspace};
use ff_video::{FaultySource, Frame, FrameSource, Resolution, SourcePoll};

use crate::control::{
    AdmissionError, AdmissionPolicy, ControlAction, ControlConfig, ControlTrace, Controller,
    ControllerInit, FaultTelemetry, NodeTelemetry, Sensors,
};
use crate::events::McId;
use crate::extractor::{FeatureExtractor, FeatureMaps};
use crate::faults::{
    FaultEventKind, FaultPlan, FaultTrace, FaultsReport, RecoveringUplink, RecoveryConfig,
};
use crate::pipeline::{
    default_taps, FilterForward, FrameVerdict, PhaseTimers, PipelineConfig, PipelineStats,
};
use crate::spec::McSpec;
use crate::task::StreamTask;
use crate::uplink::Uplink;

/// Identifier of a stream within one [`EdgeNode`] (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Frames a task's mailbox holds before the loop stops polling its
/// source: the stream's next frame then arrives at a later round instead of
/// growing the mailbox (the camera's clock stalls with it). A backlog this
/// deep is what selection's extra passes drain once a round's cap leaves
/// room, and what [`crate::control::StreamTelemetry::queue_depth`] reports.
const MAILBOX_CAP: usize = 4;

/// The node's thread budget: the width of the one [`PoolShard`] every
/// stream's kernels and per-stream jobs run on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    width: usize,
}

impl ShardLayout {
    /// One pool of the given width — every stream shares it.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0: a zero-width pool has no worker to execute
    /// anything and would wedge every stream.
    pub fn single(width: usize) -> Self {
        assert!(
            width > 0,
            "shard width must be ≥ 1 (a zero-width shard can execute nothing)"
        );
        ShardLayout { width }
    }

    /// Total thread budget.
    pub fn budget(&self) -> usize {
        self.width
    }
}

/// The round cap (see the [module docs](self)): how many frames a round
/// serves — one per stream with mail per pass, passes from a rotating
/// start, up to `max_batch`. Fixed for the whole run. The name is the
/// batched pass's, which is gone; it stays because `ffbench/` still
/// constructs it, and goes with a benchmark change (see ROADMAP).
#[derive(Debug, Clone, Copy)]
pub struct GatherBatch {
    /// Most frames served per round. With fewer streams than this, a
    /// backlogged stream's consecutive frames fill the remainder. It caps
    /// the round's work; it sizes no GEMM — every frame is extracted on
    /// its own, inside its stream's pool job.
    pub max_batch: usize,
    /// **Ignored.** The round loop gathers from mailboxes and never waits;
    /// this bounded the threaded gatherer's per-stream pull. Kept only
    /// because `ffbench/` still constructs it (see ROADMAP).
    pub gather_wait: Duration,
}

impl Default for GatherBatch {
    fn default() -> Self {
        GatherBatch {
            max_batch: 8,
            gather_wait: Duration::from_millis(2),
        }
    }
}

/// Node-level configuration.
#[derive(Debug, Clone)]
pub struct EdgeNodeConfig {
    /// The node's worker-pool width.
    pub shards: ShardLayout,
    /// Capacity of the shared edge-to-cloud uplink in bits/second.
    pub uplink_capacity_bps: f64,
    /// Bounds the uplink send queue; uploads beyond it are dropped
    /// (counted in [`NodeStats::uplink_dropped`]). `None` = unbounded.
    pub uplink_queue_limit_bytes: Option<u64>,
    /// The round cap: `Some` serves up to [`GatherBatch::max_batch`]
    /// frames per round; `None` (the default) serves up to the stream
    /// count. Either way the node owns one base DNN per (config,
    /// resolution) bucket, which every stream of the bucket extracts
    /// through inside its own pool job. Kept under this name because
    /// `ffbench/` still sets it (see ROADMAP).
    pub gather_batch: Option<GatherBatch>,
    /// `Some` overrides every stream's base-DNN weight-panel precision
    /// (applied uniformly, so streams that differ only in precision share
    /// one bucket; see [`ff_tensor::Precision`] and
    /// [`crate::pipeline::FilterForward::set_precision`]). `None` (the
    /// default) respects each pipeline's own `MobileNetConfig::precision`.
    pub precision: Option<ff_tensor::Precision>,
    /// `Some` gates [`EdgeNode::try_add_stream`] against the node's memory
    /// envelope and shard budget (see [`crate::control::AdmissionPolicy`]).
    /// `None` (the default) admits everything, the pre-control-plane
    /// behavior.
    pub admission: Option<AdmissionPolicy>,
    /// `Some` injects a deterministic fault schedule (see
    /// [`crate::faults`]): uplink outages/dips/loss, camera
    /// stalls/blackouts/corruption, scripted stage panics, all keyed to
    /// virtual-time rounds. `None` (the default) runs fault-free.
    pub faults: Option<FaultPlan>,
    /// Recovery knobs (retry backoff, spill capacity, restart budget);
    /// inert without faults to recover from.
    pub recovery: RecoveryConfig,
    /// `Some` turns on deep observability in
    /// [`EdgeNode::run_controlled`]: a virtual-time span trace of every
    /// task/gather/uplink/control transition plus shard busy accounting,
    /// returned as [`ControlledReport::obs`]. The metrics registry itself
    /// is always on (sensor cells are the registry's cells either way);
    /// this knob only adds the span ring and the per-job shard timers.
    /// `None` (the default) skips both.
    pub obs: Option<ObsConfig>,
}

/// Observability knobs for [`EdgeNode::run_controlled`] (see
/// [`EdgeNodeConfig::obs`]).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Span ring capacity: the trace retains the most recent this many
    /// spans, counting (never silently hiding) evictions.
    pub trace_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            trace_capacity: 1 << 16,
        }
    }
}

impl EdgeNodeConfig {
    /// A config with sensible defaults: the given pool width and a 1 Mb/s
    /// shared uplink (a few hundred kb/s per stream at paper scale).
    pub fn new(shards: ShardLayout) -> Self {
        EdgeNodeConfig {
            shards,
            uplink_capacity_bps: 1_000_000.0,
            uplink_queue_limit_bytes: None,
            gather_batch: None,
            precision: None,
            admission: None,
            faults: None,
            recovery: RecoveryConfig::default(),
            obs: None,
        }
    }

    /// Sets the round cap (builder style; see [`Self::gather_batch`]).
    /// Kept because `ffbench/` still calls it (see ROADMAP).
    pub fn with_gather_batch(mut self, gb: GatherBatch) -> Self {
        self.gather_batch = Some(gb);
        self
    }

    /// Overrides every stream's base-DNN weight-panel precision (builder
    /// style).
    pub fn with_precision(mut self, precision: ff_tensor::Precision) -> Self {
        self.precision = Some(precision);
        self
    }

    /// Gates stream admission against the node's resource model (builder
    /// style; see [`EdgeNode::try_add_stream`]).
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> Self {
        self.admission = Some(admission);
        self
    }

    /// **A no-op.** A node always shares one backbone per (base-DNN
    /// config, resolution) bucket across its streams. Kept only because
    /// `ffbench/` still calls it (see ROADMAP).
    pub fn with_shared_backbone(self) -> Self {
        self
    }

    /// Schedules a deterministic fault plan for
    /// [`EdgeNode::run_controlled`] (builder style; see [`crate::faults`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Overrides the recovery knobs (builder style).
    pub fn with_recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.recovery = recovery;
        self
    }

    /// Enables span tracing and shard busy accounting in
    /// [`EdgeNode::run_controlled`] (builder style; see
    /// [`EdgeNodeConfig::obs`]).
    pub fn with_obs(mut self, obs: ObsConfig) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Everything one stream produced over a run.
#[derive(Debug)]
pub struct StreamReport {
    /// The stream.
    pub id: StreamId,
    /// Every frame's final verdict, in frame order.
    pub verdicts: Vec<FrameVerdict>,
    /// The stream's pipeline statistics.
    pub stats: PipelineStats,
    /// The stream's phase timers.
    pub timers: PhaseTimers,
    /// Bytes this stream offered to the shared uplink.
    pub offered_bytes: u64,
}

/// Node-level aggregates over all streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeStats {
    /// Streams driven.
    pub streams: usize,
    /// Summed per-stream pipeline statistics.
    pub pipeline: PipelineStats,
    /// Summed per-stream phase timers (CPU-seconds, not wall).
    pub timers: PhaseTimers,
    /// Uplink queue depth at end of run, in bits.
    pub uplink_backlog_bits: f64,
    /// Worst uplink queueing delay observed, in seconds.
    pub uplink_peak_delay_secs: f64,
    /// Uploads dropped (at least partially) by the uplink queue limit.
    pub uplink_dropped: u64,
    /// Offered uplink load as a fraction of capacity — dropped bits
    /// included, so a saturated bounded link reads > 1.0
    /// (see [`Uplink::utilization`]).
    pub uplink_utilization: f64,
    /// Accepted uplink load as a fraction of capacity — only bits admitted
    /// into the send queue (see [`Uplink::accepted_utilization`]).
    pub uplink_accepted_utilization: f64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
}

impl NodeStats {
    /// Aggregate frames per second across all streams (finalized frames
    /// over wall-clock).
    pub fn aggregate_fps(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.pipeline.frames_out as f64 / secs
        }
    }
}

/// The result of a run: per-stream and node-level views, plus the control
/// plane's decision history and telemetry log.
#[derive(Debug)]
pub struct ControlledReport {
    /// One report per stream, indexed by [`StreamId`].
    pub streams: Vec<StreamReport>,
    /// Node-level aggregates.
    pub node: NodeStats,
    /// Every control decision, in tick order — bit-replayable (see
    /// [`crate::control`]).
    pub trace: ControlTrace,
    /// One telemetry snapshot per control tick.
    pub telemetry: Vec<NodeTelemetry>,
    /// The scheduler's wake log: one `(round, stream)` entry per
    /// Sleeping → Awake transition (see [`crate::task::StreamTask`]), in
    /// delivery order. A pure function of (seed, duty-cycle schedules,
    /// round) — independent of worker count and pool width — so two runs
    /// of the same fleet produce identical logs.
    pub wakes: Vec<(u64, usize)>,
    /// What the fault/recovery machinery did — `Some` exactly when
    /// [`EdgeNodeConfig::faults`] was configured (see [`crate::faults`]).
    pub faults: Option<FaultsReport>,
    /// The observability capture — `Some` exactly when
    /// [`EdgeNodeConfig::obs`] was configured (see [`ObsReport`]).
    pub obs: Option<ObsReport>,
}

/// The observability capture of one controlled run: the retained span
/// trace plus a final metrics snapshot of the node-wide registry.
///
/// The spans and the deterministic exports ([`Self::chrome_trace`],
/// [`MetricsSnapshot::to_json`]) are keyed by virtual rounds only, so they
/// are byte-identical across repeat runs, thread counts, and shard widths;
/// wall-clock payloads ride along in [`Span::wall_nanos`] and the
/// volatile registry entries, reachable through the `_with_wall` /
/// `_with_volatile` variants.
#[derive(Debug)]
pub struct ObsReport {
    /// The retained spans, oldest first (the most recent
    /// [`ObsConfig::trace_capacity`] of them).
    pub spans: Vec<Span>,
    /// Spans emitted over the whole run (retained + evicted).
    pub emitted_spans: u64,
    /// Spans evicted by the ring bound — non-zero means [`Self::spans`]
    /// is a suffix of the run, never a silent sample.
    pub dropped_spans: u64,
    /// Every registry metric at end of run, in deterministic key order.
    pub metrics: MetricsSnapshot,
}

impl ObsReport {
    /// Deterministic Chrome trace-event JSON of the retained spans
    /// (`chrome://tracing` / Perfetto format; wall payloads omitted).
    pub fn chrome_trace(&self) -> String {
        ff_obs::chrome_trace(&self.spans, &[])
    }

    /// Chrome trace including each span's wall-clock nanoseconds (not
    /// byte-stable across runs).
    pub fn chrome_trace_with_wall(&self) -> String {
        ff_obs::chrome_trace_with_wall(&self.spans, &[])
    }
}

struct StreamEntry {
    source: Box<dyn FrameSource>,
    ff: FilterForward,
    /// The bucket whose extractor serves this stream.
    bucket: usize,
}

/// A multi-stream edge node.
///
/// Add streams ([`Self::add_stream`]), deploy microclassifiers per stream
/// ([`Self::deploy`]; [`Self::pipeline_mut`] for weight installation),
/// calibrate ([`Self::calibrate`]), then [`Self::run`] to drive every
/// source to exhaustion.
///
/// See the [module docs](self) for the round loop.
pub struct EdgeNode {
    cfg: EdgeNodeConfig,
    streams: Vec<StreamEntry>,
    /// The node's base DNNs: one per (base-DNN config, resolution) bucket,
    /// built when its first stream is added (see [`Self::try_add_stream`]).
    buckets: Vec<Bucket>,
    /// Base-DNN instance bytes committed by admitted streams, weighted by
    /// each stream's duty fraction (maintained only while
    /// [`EdgeNodeConfig::admission`] is configured, so nodes without
    /// admission control never pay for the memory profile). Exact integers
    /// for always-on fleets — the Figure-5 OOM boundary is unchanged.
    committed_active_bytes: f64,
    /// Sum of admitted streams' duty fractions: the expected number of
    /// *active* streams per round, which is what the shard budget bounds.
    active_commit: f64,
    /// Whether any admitted stream had a duty fraction < 1 (selects the
    /// typed active-set refusal over the legacy whole-stream one).
    fractional_admitted: bool,
    /// Memoized [`crate::node::mobilenet_instance_bytes`] per (config,
    /// resolution) — profiling builds a real network, and a 1000-camera
    /// fleet shares a handful of configs.
    instance_cache: Vec<((MobileNetConfig, Resolution), u64)>,
}

impl std::fmt::Debug for EdgeNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "EdgeNode({} streams, {:?})",
            self.streams.len(),
            self.cfg.shards
        )
    }
}

impl EdgeNode {
    /// Creates an empty node.
    pub fn new(cfg: EdgeNodeConfig) -> Self {
        EdgeNode {
            cfg,
            streams: Vec::new(),
            buckets: Vec::new(),
            committed_active_bytes: 0.0,
            active_commit: 0.0,
            fractional_admitted: false,
            instance_cache: Vec::new(),
        }
    }

    /// Registers a camera stream with its pipeline configuration, returning
    /// the stream's id.
    ///
    /// # Panics
    ///
    /// Panics if the source's resolution disagrees with the pipeline
    /// config's, or if [`EdgeNodeConfig::admission`] is configured and
    /// refuses the stream. Use [`Self::try_add_stream`] to handle refusals
    /// as values.
    pub fn add_stream(
        &mut self,
        source: Box<dyn FrameSource>,
        pipeline: PipelineConfig,
    ) -> StreamId {
        self.try_add_stream(source, pipeline)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Registers a camera stream, or explains why the node refuses it.
    ///
    /// Without [`EdgeNodeConfig::admission`] only frame geometry is
    /// checked. With it, the stream is priced by its **duty fraction**
    /// ([`FrameSource::duty_fraction`] — the fraction of rounds it is
    /// expected to be active, 1.0 for an always-on camera) and admitted
    /// only if
    ///
    /// * the expected **active set** stays within the shard budget:
    ///   the admitted duty fractions plus this stream's must not exceed
    ///   `budget × max_streams_per_worker` active streams. For always-on
    ///   fleets this is exactly the legacy whole-stream cap (refused as
    ///   [`AdmissionError::OverShardBudget`]); duty-cycled fleets pack
    ///   `1/fraction` times more cameras and are refused as
    ///   [`AdmissionError::OverActiveSet`] when the active set fills; and
    /// * its **active-weighted** base-DNN footprint —
    ///   `duty_fraction ×` [`crate::node::mobilenet_instance_bytes`] —
    ///   still fits the node's usable memory envelope next to every
    ///   already-admitted stream. Always-on fleets reduce to whole
    ///   instances, the same arithmetic as
    ///   [`crate::node::max_mobilenet_instances`], so a homogeneous fleet
    ///   admits *exactly* that many streams (the Figure-5 OOM cliff,
    ///   refused instead of crashed).
    pub fn try_add_stream(
        &mut self,
        source: Box<dyn FrameSource>,
        pipeline: PipelineConfig,
    ) -> Result<StreamId, AdmissionError> {
        if source.resolution() != pipeline.resolution {
            return Err(AdmissionError::ResolutionMismatch {
                source: source.resolution(),
                pipeline: pipeline.resolution,
            });
        }
        if let Some(adm) = self.cfg.admission {
            if adm.max_streams_per_worker == 0 {
                return Err(AdmissionError::ZeroStreamsPerWorker);
            }
            let budget_threads = self.cfg.shards.budget();
            let max_streams = budget_threads * adm.max_streams_per_worker;
            let frac = source.duty_fraction().clamp(0.0, 1.0);
            if self.active_commit + frac > max_streams as f64 {
                // Whole always-on streams sum exactly in f64, so for an
                // always-on fleet this boundary — and the refusal — is
                // bit-identical to the legacy per-stream cap.
                if frac == 1.0 && !self.fractional_admitted {
                    return Err(AdmissionError::OverShardBudget {
                        streams: self.streams.len(),
                        budget_threads,
                        max_streams,
                    });
                }
                return Err(AdmissionError::OverActiveSet {
                    active_millistreams: (self.active_commit * 1000.0).round() as u64,
                    incoming_millistreams: (frac * 1000.0).round() as u64,
                    budget_millistreams: (max_streams * 1000) as u64,
                });
            }
            let instance_bytes = self.instance_bytes_for(&pipeline.mobilenet, pipeline.resolution);
            let budget_bytes = adm.memory_budget_bytes();
            if self.committed_active_bytes + frac * instance_bytes as f64 > budget_bytes as f64 {
                return Err(AdmissionError::OverMemory {
                    instance_bytes,
                    committed_bytes: self.committed_active_bytes.round() as u64,
                    budget_bytes,
                    // `max_mobilenet_instances`' arithmetic on the bytes
                    // memoized above, without building another network.
                    max_instances: (adm.spec.usable_memory_bytes() / instance_bytes.max(1))
                        as usize,
                });
            }
            self.committed_active_bytes += frac * instance_bytes as f64;
            self.active_commit += frac;
            if frac < 1.0 {
                self.fractional_admitted = true;
            }
        }
        let id = StreamId(self.streams.len());
        let bucket = self.bucket_for(&pipeline);
        self.streams.push(StreamEntry {
            source,
            ff: FilterForward::new_deferred(pipeline),
            bucket,
        });
        Ok(id)
    }

    /// The bucket a stream of this pipeline joins — keyed by
    /// the base-DNN config it will run (the node precision override
    /// applied) and its resolution — built with its extractor when the
    /// bucket's first stream arrives.
    fn bucket_for(&mut self, pipeline: &PipelineConfig) -> usize {
        let config = self
            .cfg
            .precision
            .map_or(pipeline.mobilenet, |p| pipeline.mobilenet.with_precision(p));
        let key = |b: &Bucket| *b.ex.config() == config && b.resolution == pipeline.resolution;
        if let Some(b) = self.buckets.iter().position(key) {
            return b;
        }
        self.buckets.push(Bucket {
            ex: FeatureExtractor::new(config, default_taps()),
            resolution: pipeline.resolution,
        });
        self.buckets.len() - 1
    }

    /// Memoized [`crate::node::mobilenet_instance_bytes`]: the profile
    /// builds a real network, so a 1000-camera fleet sharing one config
    /// must not pay for 1000 builds.
    fn instance_bytes_for(&mut self, cfg: &MobileNetConfig, res: Resolution) -> u64 {
        if let Some((_, bytes)) = self
            .instance_cache
            .iter()
            .find(|((c, r), _)| c == cfg && *r == res)
        {
            return *bytes;
        }
        let bytes = crate::node::mobilenet_instance_bytes(cfg, res);
        self.instance_cache.push(((*cfg, res), bytes));
        bytes
    }

    /// Streams registered so far.
    pub fn stream_count(&self) -> usize {
        self.streams.len()
    }

    /// Deploys a microclassifier on one stream. The tap is registered on
    /// the stream's bucket extractor, which also resolves its shapes
    /// ([`FilterForward::deploy_with`]); the resulting MC is identical to
    /// an eager deploy's.
    pub fn deploy(&mut self, stream: StreamId, spec: McSpec) -> McId {
        let e = &mut self.streams[stream.0];
        let ex = &mut self.buckets[e.bucket].ex;
        ex.ensure_tap(&spec.tap);
        e.ff.deploy_with(spec, ex)
    }

    /// Mutable access to a stream's pipeline (install trained MC weights,
    /// tune thresholds) before running. A node stream's pipeline has no
    /// extractor: deploy through [`Self::deploy`] and calibrate through
    /// [`Self::calibrate`].
    pub fn pipeline_mut(&mut self, stream: StreamId) -> &mut FilterForward {
        &mut self.streams[stream.0].ff
    }

    /// Calibrates **every** bucket's base DNN from the same sample frames
    /// (from the frames at the bucket's resolution when the node has more
    /// than one bucket), so each stream stays bit-identical to a serial
    /// pipeline calibrated the same way, and marks every stream's pipeline
    /// calibrated. Calibrate through this method, not per-stream
    /// [`FilterForward::calibrate`], which cannot reach the node's
    /// extractor.
    ///
    /// # Panics
    ///
    /// Panics if the node has more than one bucket and none of `frames`
    /// matches some bucket's resolution.
    pub fn calibrate(&mut self, frames: &[Frame]) {
        for s in &mut self.streams {
            s.ff.calibrate(frames);
        }
        let mixed = self.buckets.len() > 1;
        for b in &mut self.buckets {
            let tensors: Vec<Tensor> = frames
                .iter()
                .filter(|f| !mixed || f.resolution() == b.resolution)
                .map(Frame::to_tensor)
                .collect();
            assert!(
                !mixed || !tensors.is_empty(),
                "a node with several buckets needs calibration frames at every \
                 bucket's resolution: none matched {}x{}",
                b.resolution.width,
                b.resolution.height
            );
            b.ex.calibrate(&tensors);
        }
    }

    /// Drives every stream to end-of-source with every control policy off:
    /// [`Self::run_controlled`] observing only.
    pub fn run(self) -> ControlledReport {
        self.run_controlled(ControlConfig::observe_only(8))
    }

    /// Drives every stream to end-of-source under the **adaptive control
    /// plane** (see [`crate::control`]): the lock-step **virtual-time**
    /// round loop of the [module docs](self). Each round every open stream
    /// is polled once ([`FrameSource::poll_frame`], so sources can idle
    /// without ending), arrived frames' pixels land in per-stream task
    /// mailboxes, the mailboxes are served, and every [`ControlConfig::tick_frames`]
    /// rounds the [`Controller`] snapshots the sensors and moves the knobs.
    /// Every Sleeping → Awake edge lands in [`ControlledReport::wakes`].
    ///
    /// Every round serves through one block: selection makes passes over
    /// the streams from a rotating scan start (so no stream monopolizes the
    /// round), at most one frame per stream per pass, until it holds the
    /// round's cap — [`EdgeNodeConfig::gather_batch`]'s `max_batch`, or the
    /// stream count — or the mailboxes run dry. Then one pool job per
    /// stream with selected frames extracts them through its (base-DNN
    /// config, resolution) bucket's shared extractor, in the scratch of the
    /// pool slot running it, and runs its MCs, smoothing, re-encode and
    /// archive.
    ///
    /// A scripted stage panic ([`FaultPlan`]) is isolated at selection:
    /// the frame is lost and the stage restarts (or the circuit breaker
    /// kills the stream) before anything runs, in selection order. When no
    /// policy fires, per-stream verdicts are bit-identical to a serial
    /// [`FilterForward::process`] loop over the same streams.
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered, the control config or fault
    /// plan is invalid (see [`Controller::new`], [`FaultPlan::validate`]),
    /// or a stream was calibrated or re-quantized behind the node's back
    /// (see [`Self::calibrate`]). A panic inside a pool job —
    /// a stream with no MCs deployed, or any bug — is not a scripted fault:
    /// it ends the run, re-raised on the calling thread once the round's
    /// other jobs have finished.
    pub fn run_controlled(mut self, ctl: ControlConfig) -> ControlledReport {
        assert!(
            !self.streams.is_empty(),
            "add at least one stream before running"
        );
        // The node-level precision override: the buckets were built with
        // it; each stream's pipeline records it for the check below.
        if let Some(p) = self.cfg.precision {
            for s in &mut self.streams {
                s.ff.set_precision(p);
            }
        }
        if let Some(plan) = &self.cfg.faults {
            plan.validate(self.streams.len())
                .unwrap_or_else(|e| panic!("invalid fault plan: {e}"));
        }
        let uplink = build_uplink(&self.cfg, &self.streams);
        let EdgeNode {
            cfg,
            streams,
            mut buckets,
            ..
        } = self;
        let n = streams.len();
        for e in &streams {
            let ex = &buckets[e.bucket].ex;
            assert!(
                e.ff.is_calibrated() == ex.is_calibrated() && e.ff.base_config() == ex.config(),
                "a node stream requires calibration through EdgeNode::calibrate and \
                 precision through EdgeNodeConfig::precision, not per-stream \
                 FilterForward::calibrate or set_precision"
            );
        }
        let bucket_of: Vec<usize> = streams.iter().map(|e| e.bucket).collect();

        // The recovery layer always wraps the link (a pass-through when no
        // plan is scheduled); the report carries Some only with a plan.
        let has_faults = cfg.faults.is_some();
        let plan = cfg.faults.clone().unwrap_or_default();
        let mut rec =
            RecoveringUplink::new(uplink, plan.uplink.clone(), cfg.recovery, plan.loss_seed);
        let mut fault_trace = FaultTrace::default();
        let mut panic_sched = plan.panics.clone();
        let mut kills: Vec<usize> = Vec::new();

        // One registry backs every sensor on this node: the control-plane
        // cells (via `Sensors::with_registry` below), the uplink and
        // recovery accounting (their own cells, adopted), the
        // restart/quarantine census, and — when obs is on — shard busy
        // accounting. The registry is always on; the span tracer and the
        // per-job shard timers exist only under `cfg.obs`.
        let registry = Registry::new();
        rec.register(&registry);
        let restarts_cell = registry.counter("faults", "restarts", &[]);
        let quarantined_gauge = registry.gauge("faults", "quarantined", &[]);
        let mut last_restarts: u64 = 0;
        let mut tracer = cfg.obs.as_ref().map(|o| SpanTracer::new(o.trace_capacity));
        // The fault trace is itself deterministic and round-keyed, so the
        // span trace mirrors its events once per round from this cursor —
        // no fault-machinery API changes needed.
        let mut fault_cursor = 0usize;

        // The round's cap, fixed for the run, and ONE budget-wide pool; no
        // stream owns a thread.
        let cap = cfg.gather_batch.map_or(n, |gb| gb.max_batch.max(1));
        let mut shard = PoolShard::new(cfg.shards.budget());
        // The jobs' scratch: one input tensor, workspace and map set per
        // pool slot (empty until a job uses it), so decoded frames and
        // activations scale with the pool's width, not with camera count
        // or queue depth; and each round's extraction walls, per bucket.
        let slots: Vec<Mutex<SlotScratch>> = (0..shard.width()).map(|_| Mutex::default()).collect();
        let mut bucket_extract = vec![(Duration::ZERO, 0usize); buckets.len()];
        if cfg.obs.is_some() {
            shard.bind_obs(ShardObs {
                jobs: registry.counter("shard", "jobs", &[]),
                busy_nanos: registry.counter_volatile("shard", "busy_nanos", &[]),
            });
        }
        let base_precision = streams[0].ff.precision();
        // One ladder means one weight-precision knob: with the degradation
        // policy armed, every stream must start at the same precision or
        // the ladder (built from stream 0's) would silently re-quantize a
        // lower-precision bucket *upwards*.
        if ctl.degrade.is_some() {
            for s in &streams {
                assert_eq!(
                    s.ff.precision(),
                    base_precision,
                    "the degradation ladder requires every stream to share one \
                     weight-panel precision; set EdgeNodeConfig::precision or \
                     configure the streams uniformly"
                );
            }
        }
        let mut controller = Controller::new(
            ctl,
            ControllerInit {
                streams: n,
                base_precision,
            },
        );
        let mut sensors = Sensors::with_registry(n, ctl.arrival_alpha, &registry);
        let mut telemetry: Vec<NodeTelemetry> = Vec::new();
        let mut wakes: Vec<(u64, usize)> = Vec::new();

        let mut tasks: Vec<StreamTask> = Vec::with_capacity(n);
        for (s, e) in streams.into_iter().enumerate() {
            // Camera faults wrap the stream's source; windows are keyed to
            // source poll ticks, which the lock-step loop makes
            // deterministic (one poll per round while the mailbox has
            // room).
            let sf = plan.source_faults(s);
            let source: Box<dyn FrameSource> = if sf.is_empty() {
                e.source
            } else {
                Box::new(FaultySource::new(e.source, sf))
            };
            tasks.push(StreamTask::new(source, e.ff));
        }
        let mut reports = empty_reports(n);
        // The round's selected frames: in selection order, then grouped by
        // stream (selection order kept within a stream) for the jobs.
        let mut meta: Vec<Selected> = Vec::new();
        let mut scan_start = 0usize;
        let mut round: u64 = 0;

        let t0 = Instant::now();
        loop {
            // 1. Arrivals: one poll per open stream per round. Idle
            //    sources advance virtual time without producing work; a
            //    frame delivered to a sleeping task wakes it (logged).
            for (s, task) in tasks.iter_mut().enumerate() {
                task.begin_round();
                if !task.source_open || task.mailbox.len() >= MAILBOX_CAP {
                    continue;
                }
                match task.source.poll_frame() {
                    SourcePoll::Frame(frame) => {
                        sensors.on_arrival(s);
                        if task.deliver(frame) {
                            wakes.push((round, s));
                            if let Some(t) = tracer.as_mut() {
                                let depth = task.mailbox.len() as u64;
                                t.emit(Span::new(round, s as u32, "task", "wake", depth));
                            }
                        }
                    }
                    SourcePoll::Idle => {}
                    SourcePoll::End => {
                        task.source_open = false;
                        sensors.on_ended(s);
                    }
                }
            }

            // 2. Service. Selection takes at most one frame per stream per
            //    pass over the streams, repeating passes from a rotating
            //    scan start, so no stream monopolizes the round, until it
            //    holds `cap` frames or the mailboxes run dry.
            meta.clear();
            'select: loop {
                let mut progressed = false;
                for i in 0..n {
                    if meta.len() == cap {
                        break 'select;
                    }
                    let s = (scan_start + i) % n;
                    if kills.contains(&s) {
                        continue;
                    }
                    let Some(frame) = tasks[s].mailbox.pop_front() else {
                        continue;
                    };
                    let k = tasks[s].served;
                    tasks[s].served += 1;
                    progressed = true;
                    if let Some(idx) = panic_sched
                        .iter()
                        .position(|p| p.stream == s && p.at_frame == k)
                    {
                        // A scripted stage crash, isolated before anything
                        // runs, so a shared round cannot take innocent
                        // frames down with it: this stream's frame is lost
                        // and its stage restarts (or the breaker kills the
                        // stream), while every other stream's round
                        // proceeds untouched.
                        panic_sched.remove(idx);
                        if !tasks[s].stage_panicked(
                            round,
                            s,
                            k,
                            cfg.recovery.max_restarts_per_stream,
                            &restarts_cell,
                            &mut fault_trace,
                        ) {
                            kills.push(s);
                        }
                        continue;
                    }
                    sensors.on_served(s);
                    let seq = meta.len();
                    meta.push(Selected {
                        stream: s,
                        seq,
                        frame: Some(frame),
                    });
                }
                if !progressed {
                    break;
                }
            }
            scan_start = (scan_start + 1) % n;
            sensors.on_round(meta.len());
            if !meta.is_empty() {
                // One pool job per stream with selected frames, which it
                // decodes and serves in selection order, its base DNN
                // included: each frame is converted into the input tensor
                // of the pool slot running the job, then goes through its
                // bucket's shared extractor in the same slot's scratch. A
                // job touches only its own task and that scratch, so
                // nothing observes which core ran it or when.
                meta.sort_unstable_by_key(|sel| (sel.stream, sel.seq));
                let mut rest = tasks.iter_mut().enumerate();
                let mut jobs: Vec<ServiceJob> = Vec::with_capacity(meta.len());
                jobs.extend(
                    meta.chunk_by_mut(|a, b| a.stream == b.stream)
                        .map(|frames| {
                            let s = frames[0].stream;
                            let (_, task) = rest
                                .find(|(t, _)| *t == s)
                                .expect("jobs are built in ascending stream order");
                            ServiceJob {
                                task,
                                frames,
                                ex: &buckets[bucket_of[s]].ex,
                            }
                        }),
                );
                let outcomes = shard.run_items(&mut jobs, |_, job| {
                    let StreamTask { ff, pending, .. } = &mut *job.task;
                    let ff = ff.as_mut().expect("open stream has a pipeline");
                    let (mut extract, mut decode) = (Duration::ZERO, Duration::ZERO);
                    // A poisoned slot is still sound scratch: decode
                    // overwrites the input, extraction recycles whatever the
                    // maps held, and the workspace only ever grows.
                    let mut slot = slots[parallel::slot()]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner);
                    let SlotScratch { ws, maps, input } = &mut *slot;
                    for sel in job.frames.iter_mut() {
                        let frame = sel.frame.take().expect("a frame is served once");
                        let t = Instant::now();
                        frame.to_tensor_into(input);
                        let decoded = t.elapsed();
                        decode += decoded;
                        ff.credit_decode(decoded);
                        let t = Instant::now();
                        job.ex.extract_into(input, ws, maps);
                        let extracted = t.elapsed();
                        extract += extracted;
                        ff.serve_into(frame, maps, extracted, pending);
                    }
                    (extract, decode)
                });
                // A panic here is a bug, not a scripted fault (those were
                // isolated at selection): it ends the run, re-raised here
                // once the round's other jobs have finished.
                for (job, outcome) in jobs.iter().zip(outcomes) {
                    let (extract, decode) =
                        outcome.unwrap_or_else(|payload| std::panic::resume_unwind(payload));
                    sensors.on_decode_wall(decode, job.frames.len());
                    let b = &mut bucket_extract[bucket_of[job.frames[0].stream]];
                    b.0 += extract;
                    b.1 += job.frames.len();
                }
                // One extract span per bucket that served frames: the
                // frame count, and the sum of their extraction walls — CPU
                // time, since the jobs ran side by side.
                for (extract, frames) in &mut bucket_extract {
                    if *frames == 0 {
                        continue;
                    }
                    sensors.on_extract_wall(*extract, *frames);
                    if let Some(t) = tracer.as_mut() {
                        let mut sp =
                            Span::new(round, NODE_SCOPE, "gather", "extract", *frames as u64);
                        sp.wall_nanos = extract.as_nanos() as u64;
                        t.emit(sp);
                    }
                    (*extract, *frames) = (Duration::ZERO, 0);
                }
            }

            // 2½. Circuit-breaker kills: flush the task's pipeline (its
            //     already-served frames keep their verdicts), drop its
            //     mailbox, and mark it ended for the sensors. One task
            //     dies; the node keeps running.
            for s in kills.drain(..) {
                if let Some(ff) = tasks[s].ff.take() {
                    let (tail, stats, timers) = shard.run(|| ff.finish());
                    tasks[s].pending.extend(tail);
                    reports[s].stats = stats;
                    reports[s].timers = timers;
                }
                tasks[s].source_open = false;
                tasks[s].mailbox.clear();
                sensors.on_ended(s);
            }

            // 3. Close tasks whose source ended and mailbox drained.
            for (s, task) in tasks.iter_mut().enumerate() {
                if !task.source_open && task.mailbox.is_empty() && task.ff.is_some() {
                    let ff = task.ff.take().expect("closing an open stream");
                    let (tail, stats, timers) = shard.run(|| ff.finish());
                    task.pending.extend(tail);
                    reports[s].stats = stats;
                    reports[s].timers = timers;
                    task.finish_closed();
                    if let Some(t) = tracer.as_mut() {
                        t.emit(Span::new(round, s as u32, "task", "close", 0));
                    }
                }
            }

            // 3½. End-of-round task bookkeeping: tasks that saw no arrival
            //     age their wake clocks, and a drained awake task goes
            //     back to sleep (see [`crate::task::StreamTask`]).
            for task in &mut tasks {
                task.end_round();
            }

            // 4. Uplink: exactly one offer per stream slot per round, in
            //    stream order — the bytes of every verdict the stream
            //    finalized this round, or an empty offer when it produced
            //    nothing (idle camera, smoothing delay, finished stream).
            //    One round is one frame interval, so n offers per round
            //    keeps the link draining at precisely `capacity_bps` of
            //    virtual time regardless of load shape — an idle night
            //    camera must not slow the physical link's drain.
            //    The offers go through the recovery layer, which applies
            //    the round's scheduled uplink faults first and lets at
            //    most one retry and one spill re-drain ride each slot.
            rec.begin_round(round, &mut fault_trace);
            for (s, task) in tasks.iter_mut().enumerate() {
                let mut bytes = 0usize;
                for v in task.pending.drain(..) {
                    bytes += v.uploaded_bytes;
                    reports[s].offered_bytes += v.uploaded_bytes as u64;
                    reports[s].verdicts.push(v);
                }
                if bytes > 0 {
                    if let Some(t) = tracer.as_mut() {
                        t.emit(Span::new(round, s as u32, "uplink", "offer", bytes as u64));
                    }
                }
                rec.offer(round, s, bytes, &mut fault_trace);
            }

            // Mirror the round's fault/recovery events (panics, restarts,
            // kills, link transitions, retries' spills and re-drains) into
            // the span trace.
            if let Some(t) = tracer.as_mut() {
                while fault_cursor < fault_trace.events.len() {
                    t.emit(fault_span(&fault_trace.events[fault_cursor]));
                    fault_cursor += 1;
                }
            }

            round += 1;
            if tasks.iter().all(|t| t.ff.is_none()) {
                break;
            }

            // 5. Control tick: snapshot the sensors, let the policies act,
            //    apply the plan before the next round.
            if round.is_multiple_of(ctl.tick_frames) {
                let depths: Vec<usize> = tasks.iter().map(StreamTask::mailbox_depth).collect();
                let wake_ages: Vec<u64> = tasks.iter().map(StreamTask::rounds_since_wake).collect();
                let tick_faults = rec.take_tick();
                let mut snap = sensors.snapshot(round, &depths, &wake_ages, rec.link(), cap);
                let restarts_cum = restarts_cell.get();
                let restarts_tick = restarts_cum - last_restarts;
                last_restarts = restarts_cum;
                let quarantined = tasks.iter().filter(|t| t.suspended).count() as u64;
                quarantined_gauge.set(quarantined as f64);
                snap.faults = FaultTelemetry {
                    link_up: rec.link_up(),
                    refused_tick: tick_faults.refused,
                    retry_failures_tick: tick_faults.retry_failures,
                    delivered_late_tick: tick_faults.delivered_late,
                    spilled_tick: tick_faults.spilled,
                    dropped_tick: tick_faults.dropped,
                    restarts_tick,
                    quarantined,
                };
                let plan = controller.observe(&snap);
                for action in &plan.actions {
                    match action {
                        ControlAction::SetPrecision { to, .. } => {
                            for bucket in &mut buckets {
                                bucket.ex.set_precision(*to);
                            }
                            for task in &mut tasks {
                                if let Some(ff) = task.ff.as_mut() {
                                    ff.set_precision(*to);
                                }
                            }
                        }
                        ControlAction::SetUploadStride { to, .. } => {
                            for task in &mut tasks {
                                if let Some(ff) = task.ff.as_mut() {
                                    ff.set_upload_stride(*to);
                                }
                            }
                        }
                        // Quarantine suspends the task — it still polls
                        // and drains (watchdog priority, never
                        // correctness), so suspension changes no verdict
                        // and no trace byte; the FaultTelemetry census
                        // counts suspended tasks.
                        ControlAction::Quarantine { stream } => {
                            tasks[*stream].suspend();
                            if let Some(t) = tracer.as_mut() {
                                t.emit(Span::new(round, *stream as u32, "task", "suspend", 0));
                            }
                        }
                        ControlAction::Readmit { stream } => {
                            tasks[*stream].resume();
                            if let Some(t) = tracer.as_mut() {
                                t.emit(Span::new(round, *stream as u32, "task", "resume", 0));
                            }
                        }
                    }
                }
                if let Some(t) = tracer.as_mut() {
                    let acted = plan.actions.len() as u64;
                    t.emit(Span::new(round, NODE_SCOPE, "control", "tick", acted));
                }
                telemetry.push(snap);
            }
        }
        let (uplink, ledger, spilled, spill_overflow, recovery_rounds, parked) =
            rec.finish(round, &mut fault_trace);
        // End-of-run fault events (parked-segment drops) still mirror.
        if let Some(t) = tracer.as_mut() {
            while fault_cursor < fault_trace.events.len() {
                t.emit(fault_span(&fault_trace.events[fault_cursor]));
                fault_cursor += 1;
            }
        }
        // Snapshot after finish: the adopted cells are shared handles, so
        // the registry still reads the final uplink/ledger values.
        let obs = tracer.map(|t| ObsReport {
            emitted_spans: t.emitted(),
            dropped_spans: t.dropped(),
            spans: t.to_vec(),
            metrics: registry.snapshot(),
        });
        let restarts: Vec<u32> = tasks.iter().map(|t| t.restarts).collect();
        let frames_lost: Vec<u64> = tasks.iter().map(|t| t.frames_lost).collect();
        ControlledReport {
            node: node_stats(&reports, &uplink, t0.elapsed()),
            streams: reports,
            trace: controller.into_trace(),
            telemetry,
            wakes,
            faults: has_faults.then_some(FaultsReport {
                ledger,
                trace: fault_trace,
                restarts,
                frames_lost,
                spilled,
                spill_overflow,
                recovery_rounds,
                parked,
            }),
            obs,
        }
    }
}

/// Maps one fault-trace event to its mirrored span: task-lifecycle events
/// (`panic`/`restart`/`kill`) land on the stream's lane under the `task`
/// stage, link-level events under `uplink` at node scope.
fn fault_span(e: &crate::faults::FaultEvent) -> Span {
    let (stream, stage, kind, value) = match e.kind {
        FaultEventKind::LinkDown => (NODE_SCOPE, "uplink", "link_down", 0),
        FaultEventKind::LinkUp => (NODE_SCOPE, "uplink", "link_up", 0),
        FaultEventKind::CapacityDip { permille } => {
            (NODE_SCOPE, "uplink", "capacity_dip", permille as u64)
        }
        FaultEventKind::CapacityRestored => (NODE_SCOPE, "uplink", "capacity_restored", 0),
        FaultEventKind::LossStart { permille } => {
            (NODE_SCOPE, "uplink", "loss_start", permille as u64)
        }
        FaultEventKind::LossEnd => (NODE_SCOPE, "uplink", "loss_end", 0),
        FaultEventKind::StagePanic { stream, frame } => (stream as u32, "task", "panic", frame),
        FaultEventKind::StageRestarted { stream } => (stream as u32, "task", "restart", 0),
        FaultEventKind::StreamKilled { stream } => (stream as u32, "task", "kill", 0),
        FaultEventKind::Spilled { stream } => (stream as u32, "uplink", "spill", 0),
        FaultEventKind::SpillDropped { stream } => (stream as u32, "uplink", "spill_drop", 0),
        FaultEventKind::Redrained { stream } => (stream as u32, "uplink", "redrain", 0),
        FaultEventKind::EndOfRunDropped { segments } => {
            (NODE_SCOPE, "uplink", "end_of_run_drop", segments)
        }
    };
    Span::new(e.round, stream, stage, kind, value)
}

/// One frame selection took for this round's service: pixels only — its
/// job decodes it, and hands the frame to the stream's pipeline.
struct Selected {
    stream: usize,
    /// Its place in the round's selection order.
    seq: usize,
    /// `None` once the job has served it.
    frame: Option<Frame>,
}

/// One pool slot's service scratch, used by one job at a time: the frame
/// being served decoded to a tensor, and the activations of its pass
/// through the bucket's shared extractor.
#[derive(Default)]
struct SlotScratch {
    ws: Workspace,
    maps: FeatureMaps,
    input: Tensor,
}

/// One service pool job: a stream's task on loan for the span of the
/// round's dispatch, the round's selected frames that are that stream's (in
/// selection order), and its bucket's shared extractor.
struct ServiceJob<'a> {
    task: &'a mut StreamTask,
    frames: &'a mut [Selected],
    ex: &'a FeatureExtractor,
}

/// One **bucket**: the node's extractor for a (base-DNN
/// config, resolution) class of streams — one weight set, which every job
/// of the bucket's streams extracts through at once.
struct Bucket {
    ex: FeatureExtractor,
    resolution: Resolution,
}

/// Builds the shared uplink. The uplink drains once per offer; the
/// collector offers once per stream slot per round (finished streams offer
/// zero bytes), so the per-offer interval is 1/(fps·n) of a second and the
/// drain rate stays `capacity_bps` even when streams end at different
/// lengths. The lock-step round model prices every stream at one common
/// cadence — the fastest stream's fps — which is exact for same-rate
/// cameras (the usual deployment) and an approximation for mixed-rate ones.
fn build_uplink(cfg: &EdgeNodeConfig, streams: &[StreamEntry]) -> Uplink {
    let fps = streams
        .iter()
        .map(|s| s.source.fps())
        .fold(f64::NAN, f64::max);
    let mut uplink = Uplink::new(cfg.uplink_capacity_bps, fps.max(1.0) * streams.len() as f64);
    if let Some(limit) = cfg.uplink_queue_limit_bytes {
        uplink = uplink.with_queue_limit_bytes(limit);
    }
    uplink
}

fn empty_reports(n: usize) -> Vec<StreamReport> {
    (0..n)
        .map(|i| StreamReport {
            id: StreamId(i),
            verdicts: Vec::new(),
            stats: PipelineStats::default(),
            timers: PhaseTimers::default(),
            offered_bytes: 0,
        })
        .collect()
}

/// Sums per-stream reports into the node-level view.
fn node_stats(reports: &[StreamReport], uplink: &Uplink, wall: Duration) -> NodeStats {
    let mut pipeline = PipelineStats::default();
    let mut timers = PhaseTimers::default();
    for r in reports {
        pipeline.frames_in += r.stats.frames_in;
        pipeline.frames_out += r.stats.frames_out;
        pipeline.frames_uploaded += r.stats.frames_uploaded;
        pipeline.bytes_uploaded += r.stats.bytes_uploaded;
        pipeline.bytes_archived += r.stats.bytes_archived;
        pipeline.events_closed += r.stats.events_closed;
        timers.base_dnn += r.timers.base_dnn;
        timers.microclassifiers += r.timers.microclassifiers;
        timers.frames += r.timers.frames;
    }
    NodeStats {
        streams: reports.len(),
        pipeline,
        timers,
        uplink_backlog_bits: uplink.backlog_bits(),
        uplink_peak_delay_secs: uplink.peak_delay_secs(),
        uplink_dropped: uplink.dropped(),
        uplink_utilization: uplink.utilization(),
        uplink_accepted_utilization: uplink.accepted_utilization(),
        wall,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::ArchiveConfig;
    use ff_models::MobileNetConfig;
    use ff_video::scene::{Scene, SceneConfig};
    use ff_video::{Resolution, SceneSource};

    fn tiny_pipeline(res: Resolution) -> PipelineConfig {
        PipelineConfig {
            mobilenet: MobileNetConfig::with_width(0.25),
            resolution: res,
            fps: 15.0,
            upload_bitrate_bps: 100_000.0,
            archive: None,
        }
    }

    fn scene_cfg(res: Resolution, seed: u64) -> SceneConfig {
        SceneConfig {
            resolution: res,
            seed,
            pedestrian_rate: 0.2,
            ..Default::default()
        }
    }

    #[test]
    fn two_streams_finalize_every_frame() {
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for seed in [3, 4] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 10));
            let id = node.add_stream(src, tiny_pipeline(res));
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        let report = node.run();
        assert_eq!(report.streams.len(), 2);
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(sr.verdicts.len(), 10, "stream {s}");
            let frames: Vec<u64> = sr.verdicts.iter().map(|v| v.frame).collect();
            assert_eq!(frames, (0..10).collect::<Vec<_>>(), "stream {s} order");
            assert_eq!(sr.stats.frames_out, 10);
        }
        assert_eq!(report.node.pipeline.frames_out, 20);
        assert_eq!(report.node.timers.frames, 20);
        assert!(report.node.aggregate_fps() > 0.0);
    }

    #[test]
    fn more_streams_than_pool_workers_still_complete() {
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for seed in [7, 8, 9] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 6));
            let id = node.add_stream(src, tiny_pipeline(res));
            node.deploy(id, McSpec::windowed(format!("mc{seed}"), None, seed));
        }
        let report = node.run();
        assert_eq!(report.node.pipeline.frames_out, 18);
    }

    #[test]
    fn shared_uplink_accounts_per_stream_offers() {
        let res = Resolution::new(64, 32);
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(1));
        cfg.uplink_capacity_bps = 10_000.0; // tight: force backlog
        let mut node = EdgeNode::new(cfg);
        for seed in [1, 2] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 8));
            let id = node.add_stream(src, tiny_pipeline(res));
            // threshold 0 ⇒ every frame matches and uploads.
            let spec = McSpec {
                threshold: 0.0,
                smoothing: crate::smoothing::SmoothingConfig { n: 1, k: 1 },
                ..McSpec::full_frame(format!("all{seed}"), seed)
            };
            node.deploy(id, spec);
        }
        let report = node.run();
        let offered: u64 = report.streams.iter().map(|s| s.offered_bytes).sum();
        assert_eq!(offered, report.node.pipeline.bytes_uploaded);
        assert!(report.streams.iter().all(|s| s.offered_bytes > 0));
        assert!(report.node.uplink_utilization > 1.0, "link must saturate");
        assert!(report.node.uplink_backlog_bits > 0.0);
    }

    #[test]
    fn archive_still_works_under_the_runtime() {
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)));
        let src = Box::new(SceneSource::new(scene_cfg(res, 11), 5));
        let mut pipeline = tiny_pipeline(res);
        pipeline.archive = Some(ArchiveConfig::default());
        let id = node.add_stream(src, pipeline);
        node.deploy(id, McSpec::full_frame("a", 1));
        let report = node.run();
        assert!(report.node.pipeline.bytes_archived > 0);
    }

    #[test]
    fn gather_batch_mode_finalizes_every_frame() {
        let res = Resolution::new(64, 32);
        let cfg =
            EdgeNodeConfig::new(ShardLayout::single(2)).with_gather_batch(GatherBatch::default());
        let mut node = EdgeNode::new(cfg);
        for seed in [5, 6, 7] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 9));
            let id = node.add_stream(src, tiny_pipeline(res));
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        let report = node.run();
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(sr.verdicts.len(), 9, "stream {s}");
            let frames: Vec<u64> = sr.verdicts.iter().map(|v| v.frame).collect();
            assert_eq!(frames, (0..9).collect::<Vec<_>>(), "stream {s} order");
        }
        assert_eq!(report.node.pipeline.frames_out, 27);
        assert_eq!(report.node.timers.frames, 27);
    }

    #[test]
    fn gather_fanout_reraises_a_job_panic_on_the_loop_thread() {
        // Stream 1 has no MC, which its pipeline refuses to serve — inside
        // its pool job, beside stream 0's. The run must still die with that
        // message, not lose it on a worker or fold it into a stage restart.
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for seed in [5, 6] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 3));
            let id = node.add_stream(src, tiny_pipeline(res));
            if seed == 5 {
                node.deploy(id, McSpec::full_frame("mc", seed));
            }
        }
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| node.run()))
            .expect_err("a job's panic must end the run");
        let msg = (payload.downcast_ref::<&str>().copied())
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
        assert!(
            msg.is_some_and(|m| m.contains("deploy at least one MC")),
            "{msg:?}"
        );
    }

    /// The serial reference: `frames` frames of scene `seed` through a
    /// private-extractor pipeline's [`FilterForward::process`].
    fn serial_gold(pipeline: PipelineConfig, seed: u64, frames: usize) -> Vec<FrameVerdict> {
        let mut ff = FilterForward::new(pipeline);
        ff.deploy(McSpec::full_frame(format!("mc{seed}"), seed));
        let mut scene = Scene::new(scene_cfg(pipeline.resolution, seed));
        let mut out = Vec::new();
        for _ in 0..frames {
            out.extend(ff.process(&scene.step().0));
        }
        out.extend(ff.finish().0);
        out
    }

    #[test]
    fn verdicts_match_across_round_caps() {
        // The cap moves which round serves a frame, never its verdict: one
        // frame a round, fewer than the streams, and no cap (the stream
        // count) all reproduce the serial pipeline, and every stream is
        // served from the node's bucket extractor.
        let res = Resolution::new(64, 32);
        let build = |gather: Option<GatherBatch>| {
            let mut cfg = EdgeNodeConfig::new(ShardLayout::single(1));
            cfg.gather_batch = gather;
            let mut node = EdgeNode::new(cfg);
            for seed in [11, 12] {
                let src = Box::new(SceneSource::new(scene_cfg(res, seed), 8));
                let id = node.add_stream(src, tiny_pipeline(res));
                node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
                assert!(node.pipeline_mut(id).is_deferred());
            }
            node.run()
        };
        let cap = |max_batch| {
            Some(GatherBatch {
                max_batch,
                gather_wait: Duration::from_millis(1),
            })
        };
        for gather in [None, cap(1), cap(4)] {
            let report = build(gather);
            for (sr, seed) in report.streams.iter().zip([11, 12]) {
                let gold = serial_gold(tiny_pipeline(res), seed, 8);
                assert_eq!(sr.verdicts, gold, "{gather:?} stream {:?}", sr.id);
            }
        }
    }

    #[test]
    fn precision_override_is_deterministic_across_round_caps() {
        // A whole-int8 node must produce the verdicts of a serial
        // whole-int8 pipeline at any cap: weights quantize once, to one
        // shared set, and activations quantize per frame.
        let res = Resolution::new(64, 32);
        let build = |gather: Option<GatherBatch>| {
            let mut cfg = EdgeNodeConfig::new(ShardLayout::single(1));
            cfg.gather_batch = gather;
            cfg.precision = Some(ff_tensor::Precision::Int8Act);
            let mut node = EdgeNode::new(cfg);
            for seed in [21, 22] {
                let src = Box::new(SceneSource::new(scene_cfg(res, seed), 8));
                let id = node.add_stream(src, tiny_pipeline(res));
                node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
            }
            node.run()
        };
        let mut int8 = tiny_pipeline(res);
        int8.mobilenet = int8.mobilenet.with_precision(ff_tensor::Precision::Int8Act);
        let capped = build(Some(GatherBatch {
            max_batch: 4,
            gather_wait: Duration::from_millis(1),
        }));
        for (sr, seed) in capped.streams.iter().zip([21, 22]) {
            assert_eq!(
                sr.verdicts,
                serial_gold(int8, seed, 8),
                "stream {:?}",
                sr.id
            );
        }
        // No cap, and a rerun of it, reproduce it bit-for-bit.
        for _ in 0..2 {
            let again = build(None);
            for (a, b) in capped.streams.iter().zip(&again.streams) {
                assert_eq!(a.verdicts, b.verdicts, "rerun {:?}", a.id);
            }
        }
    }

    #[test]
    #[should_panic(expected = "calibration through EdgeNode::calibrate")]
    fn node_rejects_per_stream_calibration() {
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)));
        let src = Box::new(SceneSource::new(scene_cfg(res, 3), 2));
        let id = node.add_stream(src, tiny_pipeline(res));
        node.deploy(id, McSpec::full_frame("mc", 3));
        // Calibrating behind the node's back desyncs the shared extractor.
        let frames = vec![ff_video::Frame::black(res)];
        node.pipeline_mut(id).calibrate(&frames);
        let _ = node.run();
    }

    /// Three streams at two base-DNN widths: one bucket per width.
    fn mixed_width_node(gather: Option<GatherBatch>) -> EdgeNode {
        let res = Resolution::new(64, 32);
        let mut cfg = EdgeNodeConfig::new(ShardLayout::single(2));
        cfg.gather_batch = gather;
        let mut node = EdgeNode::new(cfg);
        for (seed, width) in MIXED_WIDTHS {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 6));
            let mut p = tiny_pipeline(res);
            p.mobilenet = MobileNetConfig::with_width(width);
            let id = node.add_stream(src, p);
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        node
    }

    const MIXED_WIDTHS: [(u64, f32); 3] = [(1, 0.25), (2, 0.5), (3, 0.25)];

    fn assert_mixed_width_gold(report: &ControlledReport) {
        for (sr, (seed, width)) in report.streams.iter().zip(MIXED_WIDTHS) {
            let mut p = tiny_pipeline(Resolution::new(64, 32));
            p.mobilenet = MobileNetConfig::with_width(width);
            assert_eq!(sr.verdicts.len(), 6);
            assert_eq!(sr.verdicts, serial_gold(p, seed, 6), "stream {:?}", sr.id);
        }
    }

    #[test]
    fn gather_batch_buckets_mixed_base_dnn_configs() {
        // Two base-DNN widths cannot share one weight set: each gets its
        // own bucket, and at one frame a round — the streams backlogged
        // behind each other — every verdict still equals the serial
        // pipeline's.
        let node = mixed_width_node(Some(GatherBatch {
            max_batch: 1,
            gather_wait: Duration::from_millis(1),
        }));
        assert_eq!(node.buckets.len(), 2);
        assert_mixed_width_gold(&node.run());
    }

    #[test]
    fn node_without_cap_extracts_through_one_backbone_per_bucket() {
        // No cap set: still one extractor per (config, resolution) bucket,
        // never one per stream, and every stream's pipeline is deferred.
        let mut node = mixed_width_node(None);
        assert_eq!(node.buckets.len(), 2, "two widths, two extractors");
        for s in 0..node.stream_count() {
            assert!(node.pipeline_mut(StreamId(s)).is_deferred(), "stream {s}");
        }
        assert_mixed_width_gold(&node.run());
    }

    #[test]
    #[should_panic(expected = "add at least one stream")]
    fn running_empty_node_panics() {
        let node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)));
        let _ = node.run();
    }

    #[test]
    fn controlled_gather_finalizes_every_frame_and_logs_telemetry() {
        let res = Resolution::new(64, 32);
        // A cap of 4 over 3 always-on streams on a healthy link.
        let cfg = EdgeNodeConfig::new(ShardLayout::single(2)).with_gather_batch(GatherBatch {
            max_batch: 4,
            gather_wait: Duration::from_millis(1),
        });
        let mut node = EdgeNode::new(cfg);
        for seed in [5, 6, 7] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 9));
            let id = node.add_stream(src, tiny_pipeline(res));
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        let report = node.run_controlled(crate::control::ControlConfig {
            tick_frames: 4,
            ..Default::default()
        });
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(sr.verdicts.len(), 9, "stream {s}");
            let frames: Vec<u64> = sr.verdicts.iter().map(|v| v.frame).collect();
            assert_eq!(frames, (0..9).collect::<Vec<_>>(), "stream {s} order");
        }
        assert_eq!(report.node.pipeline.frames_out, 27);
        assert!(!report.telemetry.is_empty());
        // Three always-on streams on a healthy link: nothing should fire.
        assert!(report.trace.is_empty(), "trace: {}", report.trace);
        // Every telemetry snapshot reports the fixed cap.
        assert!(report.telemetry.iter().all(|t| t.gather.max_batch == 4));
    }

    #[test]
    fn controlled_node_without_cap_finalizes_every_frame() {
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for seed in [3, 4] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 10));
            let id = node.add_stream(src, tiny_pipeline(res));
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        let report = node.run_controlled(crate::control::ControlConfig::default());
        assert_eq!(report.node.pipeline.frames_out, 20);
        assert!(report.trace.is_empty());
        // No cap set: a round serves up to the stream count.
        assert!(report.telemetry.iter().all(|t| t.gather.max_batch == 2));
    }

    #[test]
    #[should_panic(expected = "share one weight-panel precision")]
    fn controlled_degrade_rejects_mixed_precision_streams() {
        // Each precision gets a consistent bucket of its own, but the ladder
        // would force-sync the int8act bucket up to stream 0's f32 rungs.
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(2)));
        for (seed, precision) in [
            (1u64, ff_tensor::Precision::F32),
            (2, ff_tensor::Precision::Int8Act),
        ] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 4));
            let mut p = tiny_pipeline(res);
            p.mobilenet = p.mobilenet.with_precision(precision);
            let id = node.add_stream(src, p);
            node.deploy(id, McSpec::full_frame(format!("mc{seed}"), seed));
        }
        let _ = node.run_controlled(crate::control::ControlConfig::default());
    }

    #[test]
    fn try_add_stream_reports_resolution_mismatch_as_value() {
        use crate::control::AdmissionError;
        let res = Resolution::new(64, 32);
        let mut node = EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)));
        let src = Box::new(SceneSource::new(scene_cfg(Resolution::new(32, 32), 1), 2));
        let err = node
            .try_add_stream(src, tiny_pipeline(res))
            .expect_err("mismatched resolution must be refused");
        assert!(matches!(err, AdmissionError::ResolutionMismatch { .. }));
    }

    #[test]
    fn admission_gates_the_shard_budget() {
        use crate::control::{AdmissionError, AdmissionPolicy};
        use crate::node::EdgeNodeSpec;
        let res = Resolution::new(64, 32);
        let policy = AdmissionPolicy {
            spec: EdgeNodeSpec::paper_testbed(),
            max_streams_per_worker: 2,
        };
        // Budget 1 thread × 2 streams/worker = cap 2.
        let mut node =
            EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)).with_admission(policy));
        for seed in [1, 2] {
            let src = Box::new(SceneSource::new(scene_cfg(res, seed), 2));
            node.try_add_stream(src, tiny_pipeline(res))
                .expect("within the cap");
        }
        let src = Box::new(SceneSource::new(scene_cfg(res, 3), 2));
        let err = node
            .try_add_stream(src, tiny_pipeline(res))
            .expect_err("third stream must burst the budget");
        assert_eq!(
            err,
            AdmissionError::OverShardBudget {
                streams: 2,
                budget_threads: 1,
                max_streams: 2
            }
        );
    }

    #[test]
    fn admission_refuses_zero_streams_per_worker_as_value() {
        use crate::control::{AdmissionError, AdmissionPolicy};
        use crate::node::EdgeNodeSpec;
        let res = Resolution::new(64, 32);
        let policy = AdmissionPolicy {
            spec: EdgeNodeSpec::paper_testbed(),
            max_streams_per_worker: 0,
        };
        let mut node =
            EdgeNode::new(EdgeNodeConfig::new(ShardLayout::single(1)).with_admission(policy));
        let src = Box::new(SceneSource::new(scene_cfg(res, 1), 2));
        let err = node
            .try_add_stream(src, tiny_pipeline(res))
            .expect_err("a zero per-worker cap must be refused");
        assert_eq!(err, AdmissionError::ZeroStreamsPerWorker);
        assert_eq!(node.stream_count(), 0);
    }

    #[test]
    fn over_memory_refusal_reports_the_memory_models_instance_count() {
        use crate::control::{AdmissionError, AdmissionPolicy};
        use crate::node::{max_mobilenet_instances, mobilenet_instance_bytes, EdgeNodeSpec};
        for (alpha, res) in [
            (0.25, Resolution::new(64, 32)),
            (0.5, Resolution::new(96, 54)),
        ] {
            let mut pipeline = tiny_pipeline(res);
            pipeline.mobilenet = MobileNetConfig::with_width(alpha);
            let per = mobilenet_instance_bytes(&pipeline.mobilenet, res);
            for memory_bytes in [per / 2, per * 2 + per / 3, per * 5] {
                let spec = EdgeNodeSpec {
                    cores: 4,
                    memory_bytes,
                };
                let policy = AdmissionPolicy {
                    spec,
                    max_streams_per_worker: 64,
                };
                let mut node = EdgeNode::new(
                    EdgeNodeConfig::new(ShardLayout::single(1)).with_admission(policy),
                );
                let err = (0..)
                    .find_map(|seed| {
                        let src = Box::new(SceneSource::new(scene_cfg(res, seed), 1));
                        node.try_add_stream(src, pipeline).err()
                    })
                    .expect("an envelope of finite memory refuses some stream");
                let AdmissionError::OverMemory { max_instances, .. } = err else {
                    panic!("expected OverMemory, got {err:?}");
                };
                let want = max_mobilenet_instances(&spec, &pipeline.mobilenet, res);
                assert_eq!(max_instances, want, "{alpha} at {res}, {memory_bytes} B");
                assert_eq!(node.stream_count(), want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero-width shard can execute nothing")]
    fn single_layout_rejects_zero_width() {
        let _ = ShardLayout::single(0);
    }
}
