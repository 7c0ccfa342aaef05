//! The adaptive node **control plane**: a deterministic feedback loop that
//! closes the gap between the sensors the runtime already has and the knobs
//! the runtime already has.
//!
//! The paper's premise is that a constrained edge node must adapt what it
//! spends per stream to stay inside its compute and uplink budgets. With
//! every policy off ([`ControlConfig::observe_only`],
//! [`crate::runtime::EdgeNode::run`]) the precision and upload stride are
//! fixed for a whole run (the round's cap always is). This module adds the
//! loop that moves those knobs at run time:
//!
//! ```text
//!             SENSORS                 POLICIES               KNOBS
//!  ┌──────────────────────────┐  ┌────────────────┐  ┌───────────────────┐
//!  │ per-stream queue depths  │  │ WatchdogPolicy │─▶│ task quarantine   │
//!  │ arrival-rate EWMAs       │─▶│ DegradePolicy  │─▶│ weight precision  │
//!  │ frames served per round  │  │ (hysteresis in │  │ upload stride     │
//!  │ uplink offered/accepted  │  │  every policy) │  └───────────────────┘
//!  │ backlog + drops          │  └────────────────┘   + admission control
//!  │ [wall-clock stage EWMAs] │                         at add_stream
//!  └──────────────────────────┘
//!        NodeTelemetry              ControlPlan
//! ```
//!
//! # Virtual time and determinism
//!
//! The controller runs on a **virtual-time tick driven by frame counts**,
//! never wall clock: the controlled runtime
//! ([`crate::runtime::EdgeNode::run_controlled`]) advances one *round* per
//! frame interval, and every [`ControlConfig::tick_frames`] rounds it
//! snapshots a [`NodeTelemetry`] and lets the [`Controller`] act. Every
//! sensor a policy consumes — queue depths, arrival counts and their EWMAs,
//! uplink accounting — is a pure function of the round number
//! and the stream contents, so the resulting [`ControlTrace`] is
//! **bit-replayable**: identical across repeated runs, thread counts, and
//! pool widths. Wall-clock stage latencies ([`WallTelemetry`]) are
//! collected for observability only; **no policy reads them** — that is the
//! line between "deterministic decision input" and "profiling extra", and
//! crossing it would break replay.
//!
//! # Hysteresis rules
//!
//! Every policy debounces so the node never flaps:
//!
//! * a condition must hold for `patience` (or `saturate_ticks` /
//!   `relax_ticks`) **consecutive** ticks before a policy acts, and any
//!   tick that breaks the streak resets it;
//! * opposing conditions use **separated thresholds** (stalled below
//!   [`WatchdogPolicy::stall_below`] vs recovered above
//!   [`WatchdogPolicy::recover_above`]; degrade above
//!   [`DegradePolicy::high_water`] vs recover below
//!   [`DegradePolicy::low_water`]) so a signal sitting between them moves
//!   nothing;
//! * acting resets the policy's own streak, so consecutive steps each
//!   require a fresh run of evidence.
//!
//! # The degradation ladder
//!
//! Under sustained uplink saturation the node trades fidelity for headroom
//! one rung at a time: the base DNN steps from f32 to whole-int8
//! ([`ff_tensor::Precision`] has only those two rungs; a node that already
//! runs whole-int8 skips this step), then the **upload frame stride**
//! doubles (2, 4, … up to [`DegradePolicy::max_stride`]) so only every
//! k-th frame of a matched event run is re-encoded and uploaded
//! ([`crate::FilterForward::set_upload_stride`]). The precision rung buys
//! compute headroom, not bytes; the stride rungs are the ones that shed
//! uplink load. Sustained relief walks the same ladder back up.
//!
//! # Admission control
//!
//! [`AdmissionPolicy`] gates [`crate::runtime::EdgeNode::try_add_stream`]
//! against the [`crate::node`] memory model
//! ([`crate::node::mobilenet_instance_bytes`] /
//! [`crate::node::max_mobilenet_instances`]) and the thread budget,
//! with a typed [`AdmissionError`] naming exactly which envelope the stream
//! would burst.

use std::time::Duration;

use ff_obs::{Counter, Ewma, Gauge, Registry};
use ff_tensor::Precision;
use ff_video::Resolution;

use crate::runtime::StreamId;
use crate::uplink::Uplink;

// ---------------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------------

/// One stream's sensors at a control tick.
#[derive(Debug, Clone)]
pub struct StreamTelemetry {
    /// The stream.
    pub id: StreamId,
    /// Frames waiting for service at the snapshot (virtual-time
    /// queue depth).
    pub queue_depth: usize,
    /// Frames that arrived during the tick.
    pub arrivals: u64,
    /// Frames served (run through inference) during the tick.
    pub served: u64,
    /// EWMA of the per-round arrival rate (frames per frame interval,
    /// 0.0–1.0 for a live camera), smoothed across ticks with
    /// [`ControlConfig::arrival_alpha`]. Deterministic: computed from
    /// arrival counts and round counts only.
    pub arrival_ewma: f64,
    /// Rounds since a frame last arrived for this stream (0 = a frame
    /// arrived in the snapshot round). Distinguishes a duty-cycled
    /// camera's *scheduled* idleness (large, growing age with an empty
    /// queue) from a healthy stream's drained queue (age 0) — the task
    /// runtime's wake clock, surfaced so watchdog-style policies can read
    /// it without changing [`Self::arrival_ewma`]'s meaning.
    pub rounds_since_wake: u64,
    /// The source reported end-of-stream.
    pub ended: bool,
}

/// Selection sensors for a tick: observability only, no policy reads
/// them. The field names are the batched pass's, which is gone; they stay
/// because `ffbench/` still reads them, and go with a benchmark change (see
/// ROADMAP).
#[derive(Debug, Clone, Copy, Default)]
pub struct GatherTelemetry {
    /// Rounds (frame intervals) covered by the tick.
    pub rounds: u64,
    /// Frames selected for service over those rounds.
    pub gathered: u64,
    /// The round's cap, fixed for the run.
    pub max_batch: usize,
}

/// Shared-uplink sensors at a tick.
#[derive(Debug, Clone, Copy, Default)]
pub struct UplinkTelemetry {
    /// Send-queue depth in bits at the snapshot.
    pub backlog_bits: f64,
    /// Cumulative offered load over capacity (dropped bits included) —
    /// [`Uplink::utilization`].
    pub offered_utilization: f64,
    /// Cumulative accepted load over capacity —
    /// [`Uplink::accepted_utilization`].
    pub accepted_utilization: f64,
    /// Offered load over capacity **within this tick alone** (differenced
    /// between snapshots). This is what the degradation ladder watches: the
    /// cumulative view averages a rush-hour burst away.
    pub offered_utilization_tick: f64,
    /// Cumulative uploads that lost bits to the queue bound.
    pub dropped: u64,
}

/// Fault and recovery sensors at a tick (all defaults — link up, zero
/// counts — when the run has no [`crate::faults::FaultPlan`]). The
/// per-tick counters come from
/// [`crate::faults::RecoveringUplink::take_tick`]; `link_up` is what lets
/// [`DegradePolicy`] treat an outage as saturation even though a down link
/// carries no offered load (see [`Controller::observe`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultTelemetry {
    /// Whether the uplink was up at the snapshot.
    pub link_up: bool,
    /// Fresh segments refused (outage or packet loss) during the tick.
    pub refused_tick: u64,
    /// Retry attempts that failed during the tick.
    pub retry_failures_tick: u64,
    /// Segments delivered late (retry or spill re-drain) during the tick.
    pub delivered_late_tick: u64,
    /// Segments spilled to the archive during the tick.
    pub spilled_tick: u64,
    /// Segments dropped (spill overflow) during the tick.
    pub dropped_tick: u64,
    /// Stage restarts during the tick.
    pub restarts_tick: u64,
    /// Streams currently quarantined by the watchdog.
    pub quarantined: u64,
}

impl Default for FaultTelemetry {
    fn default() -> Self {
        FaultTelemetry {
            // A fault-free node has a healthy link; a derived default
            // (false) would read as a permanent outage.
            link_up: true,
            refused_tick: 0,
            retry_failures_tick: 0,
            delivered_late_tick: 0,
            spilled_tick: 0,
            dropped_tick: 0,
            restarts_tick: 0,
            quarantined: 0,
        }
    }
}

/// Wall-clock stage latencies, **observability only**. These are the one
/// part of a snapshot that is *not* deterministic; no policy reads them
/// (see the [module docs](self)), they exist so an operator watching a
/// telemetry log can correlate decisions with real time spent.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallTelemetry {
    /// EWMA of per-frame decode (pixel→tensor) seconds.
    pub decode_ewma_secs: f64,
    /// EWMA of per-frame base-DNN extraction seconds.
    pub extract_ewma_secs: f64,
}

/// Everything the node's sensors saw in one control tick.
#[derive(Debug, Clone)]
pub struct NodeTelemetry {
    /// Control tick index (1-based: the first snapshot is tick 1).
    pub tick: u64,
    /// Virtual-time round (frame interval) at the snapshot.
    pub round: u64,
    /// Per-stream sensors, indexed by [`StreamId`].
    pub streams: Vec<StreamTelemetry>,
    /// Selection sensors.
    pub gather: GatherTelemetry,
    /// Shared-uplink sensors.
    pub uplink: UplinkTelemetry,
    /// Fault and recovery sensors (defaults when no fault plan is active).
    pub faults: FaultTelemetry,
    /// Wall-clock extras — never consumed by policies.
    pub wall: WallTelemetry,
}

impl NodeTelemetry {
    /// Total frames queued across streams at the snapshot.
    pub fn total_queue_depth(&self) -> usize {
        self.streams.iter().map(|s| s.queue_depth).sum()
    }

    /// Streams whose source has not ended.
    pub fn open_streams(&self) -> usize {
        self.streams.iter().filter(|s| !s.ended).count()
    }
}

/// Per-stream accumulation state inside [`Sensors`]: cumulative registry
/// cells plus the previous snapshot's readings for per-tick differencing.
#[derive(Debug, Clone)]
struct StreamSensor {
    arrivals: Counter,
    served: Counter,
    last_arrivals: u64,
    last_served: u64,
    ewma: Ewma,
    ended: bool,
}

/// The runtime-side sensor bank: the controlled executor feeds it
/// per-round events (arrivals, serves, gather sizes, wall timings) and
/// [`Sensors::snapshot`] folds a tick's worth into a [`NodeTelemetry`],
/// differencing the cumulative cells against the previous snapshot and
/// advancing the EWMAs.
///
/// Every counter lives in a shared [`ff_obs::Registry`] — the cell the
/// sensor increments **is** the exported metric (`node/arrivals{stream=i}`,
/// `node/rounds`, …), and [`NodeTelemetry`] is a per-tick *view* over those
/// cumulative cells, not a second set of books. Wall-clock accumulators are
/// registered volatile, so the registry's deterministic exports never see
/// them.
///
/// Everything except the wall-clock timings is deterministic in virtual
/// time; see the [module docs](self).
#[derive(Debug)]
pub struct Sensors {
    registry: Registry,
    streams: Vec<StreamSensor>,
    rounds: Counter,
    gathered: Counter,
    ticks: Counter,
    last_rounds: u64,
    last_gathered: u64,
    // Uplink cumulative counters at the previous snapshot, for differencing.
    last_offered_bits: u64,
    last_offers: u64,
    // Wall-clock cells (observability only; registered volatile).
    decode_secs: Gauge,
    decode_frames: Counter,
    extract_secs: Gauge,
    extract_frames: Counter,
    last_decode_secs: f64,
    last_decode_frames: u64,
    last_extract_secs: f64,
    last_extract_frames: u64,
    decode_ewma: Ewma,
    extract_ewma: Ewma,
}

impl Sensors {
    /// A sensor bank for `streams` streams backed by its own private
    /// registry. `alpha` weights the newest tick in every EWMA
    /// (0 < alpha ≤ 1).
    pub fn new(streams: usize, alpha: f64) -> Self {
        Self::with_registry(streams, alpha, &Registry::new())
    }

    /// A sensor bank whose cells live in `registry` — the controlled
    /// runtime passes the node-wide registry here so one keyspace backs
    /// node, uplink, fault, and shard telemetry together.
    pub fn with_registry(streams: usize, alpha: f64, registry: &Registry) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "EWMA alpha must be in (0, 1], got {alpha}"
        );
        let streams = (0..streams)
            .map(|i| {
                let stream = i.to_string();
                StreamSensor {
                    arrivals: registry.counter("node", "arrivals", &[("stream", &stream)]),
                    served: registry.counter("node", "served", &[("stream", &stream)]),
                    last_arrivals: 0,
                    last_served: 0,
                    ewma: Ewma::new(alpha),
                    ended: false,
                }
            })
            .collect();
        Sensors {
            streams,
            rounds: registry.counter("node", "rounds", &[]),
            gathered: registry.counter("node", "gathered", &[]),
            ticks: registry.counter("control", "ticks", &[]),
            last_rounds: 0,
            last_gathered: 0,
            last_offered_bits: 0,
            last_offers: 0,
            decode_secs: registry.gauge_volatile("wall", "decode_secs", &[]),
            decode_frames: registry.counter_volatile("wall", "decode_frames", &[]),
            extract_secs: registry.gauge_volatile("wall", "extract_secs", &[]),
            extract_frames: registry.counter_volatile("wall", "extract_frames", &[]),
            last_decode_secs: 0.0,
            last_decode_frames: 0,
            last_extract_secs: 0.0,
            last_extract_frames: 0,
            decode_ewma: Ewma::new(alpha),
            extract_ewma: Ewma::new(alpha),
            registry: registry.clone(),
        }
    }

    /// The registry holding this bank's cells.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A frame arrived for stream `s` this round.
    pub fn on_arrival(&mut self, s: usize) {
        self.streams[s].arrivals.inc();
    }

    /// A frame of stream `s` was served (ran inference) this round.
    pub fn on_served(&mut self, s: usize) {
        self.streams[s].served.inc();
    }

    /// Stream `s`'s source ended.
    pub fn on_ended(&mut self, s: usize) {
        self.streams[s].ended = true;
    }

    /// A round (frame interval) completed, with `gathered` frames selected
    /// for service.
    pub fn on_round(&mut self, gathered: usize) {
        self.rounds.inc();
        self.gathered.add(gathered as u64);
    }

    /// Wall-clock decode (pixel→tensor) time of `frames` frames, which
    /// the pool job that served them measured (observability only).
    pub fn on_decode_wall(&mut self, d: Duration, frames: usize) {
        self.decode_secs
            .set(self.decode_secs.get() + d.as_secs_f64());
        self.decode_frames.add(frames as u64);
    }

    /// Wall-clock extraction time of `frames` frames (observability only):
    /// their base-DNN passes alone.
    pub fn on_extract_wall(&mut self, d: Duration, frames: usize) {
        self.extract_secs
            .set(self.extract_secs.get() + d.as_secs_f64());
        self.extract_frames.add(frames as u64);
    }

    /// Folds the tick's accumulations into a snapshot, advances EWMAs, and
    /// resets the per-tick counters. `queue_depths` is each stream's
    /// arrived-but-unserved backlog (the task mailbox depth under the
    /// controlled executor); `wake_ages` each stream's rounds-since-last-
    /// arrival ([`StreamTelemetry::rounds_since_wake`], pass `&[]` to
    /// report 0 for every stream); `max_batch` the round's cap.
    pub fn snapshot(
        &mut self,
        round: u64,
        queue_depths: &[usize],
        wake_ages: &[u64],
        uplink: &Uplink,
        max_batch: usize,
    ) -> NodeTelemetry {
        self.ticks.inc();
        let rounds_cum = self.rounds.get();
        let d_rounds = rounds_cum - self.last_rounds;
        self.last_rounds = rounds_cum;
        let gathered_cum = self.gathered.get();
        let d_gathered = gathered_cum - self.last_gathered;
        self.last_gathered = gathered_cum;
        let rounds = d_rounds.max(1);
        let streams = self
            .streams
            .iter_mut()
            .enumerate()
            .map(|(i, st)| {
                let arrivals_cum = st.arrivals.get();
                let arrivals = arrivals_cum - st.last_arrivals;
                st.last_arrivals = arrivals_cum;
                let served_cum = st.served.get();
                let served = served_cum - st.last_served;
                st.last_served = served_cum;
                let ewma = st.ewma.observe(arrivals as f64 / rounds as f64);
                StreamTelemetry {
                    id: StreamId(i),
                    queue_depth: queue_depths.get(i).copied().unwrap_or(0),
                    arrivals,
                    served,
                    arrival_ewma: ewma,
                    rounds_since_wake: wake_ages.get(i).copied().unwrap_or(0),
                    ended: st.ended,
                }
            })
            .collect();

        // Per-tick offered utilization: difference the uplink's cumulative
        // counters between snapshots. Each offer drains capacity/fps bits,
        // so offered/(offers·capacity/fps) is the tick's offered load.
        let offered_bits = uplink.offered_bits();
        let offers = uplink.frames();
        let d_bits = offered_bits - self.last_offered_bits;
        let d_offers = offers - self.last_offers;
        self.last_offered_bits = offered_bits;
        self.last_offers = offers;
        let tick_capacity_bits = d_offers as f64 * uplink.capacity_bps() / uplink.fps();
        let offered_utilization_tick = if tick_capacity_bits > 0.0 {
            d_bits as f64 / tick_capacity_bits
        } else {
            0.0
        };

        let wall = {
            // Difference the cumulative wall cells and feed the tick mean
            // through the shared EWMA fold (the same `Ewma::observe`
            // backing the arrival EWMAs above).
            let fold = |cum_secs: f64,
                        last_secs: &mut f64,
                        cum_n: u64,
                        last_n: &mut u64,
                        ewma: &mut Ewma|
             -> f64 {
                let secs = cum_secs - *last_secs;
                let n = cum_n - *last_n;
                *last_secs = cum_secs;
                *last_n = cum_n;
                if n > 0 {
                    ewma.observe(secs / n as f64)
                } else {
                    ewma.get()
                }
            };
            let decode = fold(
                self.decode_secs.get(),
                &mut self.last_decode_secs,
                self.decode_frames.get(),
                &mut self.last_decode_frames,
                &mut self.decode_ewma,
            );
            let extract = fold(
                self.extract_secs.get(),
                &mut self.last_extract_secs,
                self.extract_frames.get(),
                &mut self.last_extract_frames,
                &mut self.extract_ewma,
            );
            WallTelemetry {
                decode_ewma_secs: decode,
                extract_ewma_secs: extract,
            }
        };

        let gather = GatherTelemetry {
            rounds: d_rounds,
            gathered: d_gathered,
            max_batch,
        };

        NodeTelemetry {
            tick: self.ticks.get(),
            round,
            streams,
            gather,
            uplink: UplinkTelemetry {
                backlog_bits: uplink.backlog_bits(),
                offered_utilization: uplink.utilization(),
                accepted_utilization: uplink.accepted_utilization(),
                offered_utilization_tick,
                dropped: uplink.dropped(),
            },
            // The sensor bank sees only the inner link; the controlled
            // runtime overwrites this from the recovery layer's per-tick
            // counters when a fault plan is active.
            faults: FaultTelemetry::default(),
            wall,
        }
    }
}

// ---------------------------------------------------------------------------
// Policies and configuration
// ---------------------------------------------------------------------------

/// Uplink-aware degradation: under sustained offered load above
/// `high_water` the node steps down the ladder (precision f32 →
/// whole-int8, then upload stride 2, 4, …), one rung per saturation
/// streak; sustained load below `low_water` steps back up.
#[derive(Debug, Clone, Copy)]
pub struct DegradePolicy {
    /// Per-tick offered utilization above which a tick counts as
    /// saturated.
    pub high_water: f64,
    /// Per-tick offered utilization below which a tick counts as relaxed.
    /// Must be below `high_water`; the gap is the hysteresis band.
    pub low_water: f64,
    /// Consecutive saturated ticks before stepping down one rung.
    pub saturate_ticks: u32,
    /// Consecutive relaxed ticks before stepping back up one rung
    /// (recovery is deliberately slower than degradation).
    pub relax_ticks: u32,
    /// Largest upload stride the ladder reaches (strides double: 2, 4, …).
    pub max_stride: u32,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            high_water: 1.0,
            low_water: 0.7,
            saturate_ticks: 3,
            relax_ticks: 6,
            max_stride: 4,
        }
    }
}

/// Per-stream watchdog: a stream whose arrival EWMA collapses to
/// `stall_below` (a stalled or dead camera, detected purely from
/// virtual-time arrivals) is **quarantined**: its task is suspended and
/// counted out of the healthy census ([`FaultTelemetry::quarantined`]) —
/// a marker, since an empty mailbox costs the round loop nothing.
/// A recovery above `recover_above` **readmits** it. Same
/// hysteresis discipline as every other arm: separated thresholds plus a
/// consecutive-tick patience streak.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogPolicy {
    /// Arrival EWMA (frames per round) at or below which a stream counts
    /// as stalled.
    pub stall_below: f64,
    /// Arrival EWMA at or above which a stalled stream counts as
    /// recovered. Must exceed `stall_below`; the gap is the hysteresis
    /// band.
    pub recover_above: f64,
    /// Consecutive ticks the condition must hold before the watchdog
    /// quarantines or readmits.
    pub patience: u32,
}

impl Default for WatchdogPolicy {
    fn default() -> Self {
        WatchdogPolicy {
            stall_below: 0.05,
            recover_above: 0.5,
            patience: 2,
        }
    }
}

/// Control-plane configuration: the virtual-time tick length plus the
/// policies (each optional — `None` disables that arm). The round's cap is
/// not among the knobs: it is [`crate::runtime::EdgeNodeConfig::gather_batch`],
/// fixed for the run.
#[derive(Debug, Clone, Copy)]
pub struct ControlConfig {
    /// Rounds (frame intervals) per control tick.
    pub tick_frames: u64,
    /// EWMA weight of the newest tick for arrival rates and wall timings.
    pub arrival_alpha: f64,
    /// Uplink-aware degradation ladder.
    pub degrade: Option<DegradePolicy>,
    /// Per-stream stall watchdog (quarantine/readmit).
    pub watchdog: Option<WatchdogPolicy>,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            tick_frames: 8,
            arrival_alpha: 0.5,
            degrade: Some(DegradePolicy::default()),
            watchdog: None,
        }
    }
}

impl ControlConfig {
    /// A config with every policy disabled — the controlled executor with
    /// pure telemetry collection (useful as the "fixed" arm of an A/B
    /// comparison: same virtual-time execution, no adaptation).
    pub fn observe_only(tick_frames: u64) -> Self {
        ControlConfig {
            tick_frames,
            arrival_alpha: 0.5,
            degrade: None,
            watchdog: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Decisions
// ---------------------------------------------------------------------------

/// One knob movement decided by a policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Step the base DNN's weight-panel precision.
    SetPrecision {
        /// Precision before.
        from: Precision,
        /// Precision after.
        to: Precision,
    },
    /// Step the upload frame stride
    /// ([`crate::FilterForward::set_upload_stride`]).
    SetUploadStride {
        /// Stride before.
        from: u32,
        /// Stride after.
        to: u32,
    },
    /// The watchdog quarantined a stalled stream (its task is suspended).
    Quarantine {
        /// The stalled stream.
        stream: usize,
    },
    /// The watchdog readmitted a recovered stream.
    Readmit {
        /// The recovered stream.
        stream: usize,
    },
}

impl std::fmt::Display for ControlAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControlAction::SetPrecision { from, to } => {
                write!(f, "precision {from:?} → {to:?}")
            }
            ControlAction::SetUploadStride { from, to } => {
                write!(f, "upload stride {from} → {to}")
            }
            ControlAction::Quarantine { stream } => {
                write!(f, "stream {stream} quarantined (stalled)")
            }
            ControlAction::Readmit { stream } => {
                write!(f, "stream {stream} readmitted (recovered)")
            }
        }
    }
}

/// A decision with the virtual-time tick it was made on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlDecision {
    /// Control tick (1-based) of the decision.
    pub tick: u64,
    /// The knob movement.
    pub action: ControlAction,
}

/// The actions one tick's policy evaluation produced, in fixed policy
/// order (watchdog, degrade) — the runtime applies them
/// before the next round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlPlan {
    /// Knob movements to apply, in order.
    pub actions: Vec<ControlAction>,
}

impl ControlPlan {
    /// No actions this tick.
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }
}

/// The full decision history of a run — the **bit-replayable trace**: for
/// a fixed node configuration and stream contents it is identical across
/// repeated runs, thread counts, and pool widths (compare with `==`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlTrace {
    /// Every decision, in tick order.
    pub decisions: Vec<ControlDecision>,
}

impl ControlTrace {
    /// No policy ever fired.
    pub fn is_empty(&self) -> bool {
        self.decisions.is_empty()
    }

    /// Decisions made.
    pub fn len(&self) -> usize {
        self.decisions.len()
    }
}

impl std::fmt::Display for ControlTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.decisions.is_empty() {
            return writeln!(f, "(no control decisions)");
        }
        for d in &self.decisions {
            writeln!(f, "tick {:>4}: {}", d.tick, d.action)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Controller
// ---------------------------------------------------------------------------

/// Initial knob positions the [`Controller`] starts from (built by the
/// controlled runtime).
#[derive(Debug, Clone)]
pub struct ControllerInit {
    /// Stream count.
    pub streams: usize,
    /// Base-DNN precision at start (the ladder's top rung).
    pub base_precision: Precision,
}

#[derive(Debug, Clone, Copy)]
struct Activity {
    active: bool,
    streak: u32,
}

/// The deterministic policy engine: feed it one [`NodeTelemetry`] per tick
/// ([`Self::observe`]), apply the returned [`ControlPlan`], and collect the
/// [`ControlTrace`] at the end ([`Self::into_trace`]).
#[derive(Debug)]
pub struct Controller {
    cfg: ControlConfig,
    // Watchdog arm: per-stream quarantine state. `active == true` means
    // healthy; the streak debounces flips.
    watchdog: Vec<Activity>,
    // Degradation arm.
    rungs: Vec<(Precision, u32)>,
    rung: usize,
    hot_streak: u32,
    cool_streak: u32,
    trace: ControlTrace,
}

impl Controller {
    /// Builds a controller at the given initial knob positions.
    ///
    /// # Panics
    ///
    /// Panics on a config that could never behave: `tick_frames` 0, any
    /// zero patience/streak length (hysteresis with no memory fires every
    /// tick), or hysteresis thresholds with no band between them.
    pub fn new(cfg: ControlConfig, init: ControllerInit) -> Self {
        assert!(cfg.tick_frames >= 1, "tick_frames must be ≥ 1");
        if let Some(w) = &cfg.watchdog {
            assert!(w.patience >= 1, "watchdog patience must be ≥ 1");
            assert!(
                w.stall_below < w.recover_above,
                "watchdog thresholds must leave a hysteresis band \
                 (stall_below {} < recover_above {})",
                w.stall_below,
                w.recover_above
            );
        }
        if let Some(d) = &cfg.degrade {
            assert!(
                d.saturate_ticks >= 1 && d.relax_ticks >= 1,
                "degrade saturate_ticks and relax_ticks must be ≥ 1"
            );
            assert!(
                d.low_water < d.high_water,
                "degrade watermarks must leave a hysteresis band \
                 (low_water {} < high_water {})",
                d.low_water,
                d.high_water
            );
        }
        // The ladder: the base precision, whole-int8 below an f32 base,
        // then the upload strides at the floor precision.
        let mut rungs = vec![(init.base_precision, 1u32)];
        if init.base_precision == Precision::F32 {
            rungs.push((Precision::Int8Act, 1));
        }
        if let Some(d) = &cfg.degrade {
            let floor_precision = rungs.last().expect("non-empty").0;
            let mut stride = 2u32;
            while stride <= d.max_stride {
                rungs.push((floor_precision, stride));
                stride *= 2;
            }
        }
        Controller {
            cfg,
            watchdog: vec![
                Activity {
                    active: true,
                    streak: 0
                };
                init.streams
            ],
            rungs,
            rung: 0,
            hot_streak: 0,
            cool_streak: 0,
            trace: ControlTrace::default(),
        }
    }

    /// The decision history so far.
    pub fn trace(&self) -> &ControlTrace {
        &self.trace
    }

    /// Consumes the controller, returning the full decision history.
    pub fn into_trace(self) -> ControlTrace {
        self.trace
    }

    /// Evaluates every enabled policy against one tick's telemetry and
    /// returns the knob movements to apply. Deterministic: consumes only
    /// the virtual-time sensor fields (never [`NodeTelemetry::wall`]).
    pub fn observe(&mut self, t: &NodeTelemetry) -> ControlPlan {
        let mut plan = ControlPlan::default();
        self.observe_watchdog(t, &mut plan);
        self.observe_degrade(t, &mut plan);
        for action in &plan.actions {
            self.trace.decisions.push(ControlDecision {
                tick: t.tick,
                action: action.clone(),
            });
        }
        plan
    }

    fn observe_watchdog(&mut self, t: &NodeTelemetry, plan: &mut ControlPlan) {
        let Some(p) = self.cfg.watchdog else { return };
        for (st, w) in t.streams.iter().zip(self.watchdog.iter_mut()) {
            // An ended stream is drained, not stalled: never quarantine
            // it, and let an already-quarantined one stay put.
            let want = if st.ended {
                None
            } else if st.arrival_ewma <= p.stall_below {
                Some(false)
            } else if st.arrival_ewma >= p.recover_above {
                Some(true)
            } else {
                None // inside the hysteresis band: no opinion
            };
            match want {
                Some(healthy) if healthy != w.active => {
                    w.streak += 1;
                    if w.streak >= p.patience {
                        w.active = healthy;
                        w.streak = 0;
                        plan.actions.push(if healthy {
                            ControlAction::Readmit { stream: st.id.0 }
                        } else {
                            ControlAction::Quarantine { stream: st.id.0 }
                        });
                    }
                }
                _ => w.streak = 0,
            }
        }
    }

    fn observe_degrade(&mut self, t: &NodeTelemetry, plan: &mut ControlPlan) {
        let Some(p) = self.cfg.degrade else { return };
        let u = t.uplink.offered_utilization_tick;
        // A down link carries no offered load, so utilization alone would
        // read an outage as *relief* and walk the ladder the wrong way.
        // An outage is the saturated condition taken to its limit.
        if u > p.high_water || !t.faults.link_up {
            self.hot_streak += 1;
            self.cool_streak = 0;
        } else if u < p.low_water {
            self.cool_streak += 1;
            self.hot_streak = 0;
        } else {
            self.hot_streak = 0;
            self.cool_streak = 0;
        }
        if self.hot_streak >= p.saturate_ticks && self.rung + 1 < self.rungs.len() {
            self.step_rung(self.rung + 1, plan);
            self.hot_streak = 0;
        } else if self.cool_streak >= p.relax_ticks && self.rung > 0 {
            self.step_rung(self.rung - 1, plan);
            self.cool_streak = 0;
        }
    }

    fn step_rung(&mut self, to: usize, plan: &mut ControlPlan) {
        let (fp, fs) = self.rungs[self.rung];
        let (tp, ts) = self.rungs[to];
        if fp != tp {
            plan.actions
                .push(ControlAction::SetPrecision { from: fp, to: tp });
        }
        if fs != ts {
            plan.actions
                .push(ControlAction::SetUploadStride { from: fs, to: ts });
        }
        self.rung = to;
    }
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

/// Gate for [`crate::runtime::EdgeNode::try_add_stream`]: a stream is
/// admitted only if its base-DNN instance fits the node's remaining memory
/// envelope (the [`crate::node`] model) and the thread budget is not
/// oversubscribed past `max_streams_per_worker`.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionPolicy {
    /// The node's resource envelope.
    pub spec: crate::node::EdgeNodeSpec,
    /// Streams allowed per shard-budget thread (time-multiplexing bound):
    /// with a budget of `B` threads at most `B × this` streams are
    /// admitted.
    pub max_streams_per_worker: usize,
}

impl AdmissionPolicy {
    /// A policy for the given node envelope, allowing up to 4 streams per
    /// budget thread.
    pub fn new(spec: crate::node::EdgeNodeSpec) -> Self {
        AdmissionPolicy {
            spec,
            max_streams_per_worker: 4,
        }
    }

    /// The usable memory budget in bytes:
    /// [`crate::node::EdgeNodeSpec::usable_memory_bytes`] — the one
    /// definition of the OS reserve shared with
    /// [`crate::node::max_mobilenet_instances`], so an admission verdict
    /// and the instance count agree exactly at the boundary.
    pub fn memory_budget_bytes(&self) -> u64 {
        self.spec.usable_memory_bytes()
    }
}

/// Why a stream was refused ([`crate::runtime::EdgeNode::try_add_stream`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The source and pipeline disagree on frame geometry.
    ResolutionMismatch {
        /// The source's resolution.
        source: Resolution,
        /// The pipeline's configured resolution.
        pipeline: Resolution,
    },
    /// Admitting the stream would exceed the node's memory envelope.
    OverMemory {
        /// This stream's base-DNN instance footprint
        /// ([`crate::node::mobilenet_instance_bytes`]).
        instance_bytes: u64,
        /// Bytes already committed to admitted streams.
        committed_bytes: u64,
        /// The usable envelope
        /// ([`AdmissionPolicy::memory_budget_bytes`]).
        budget_bytes: u64,
        /// Instances of *this* stream's configuration that fit the empty
        /// node ([`crate::node::max_mobilenet_instances`]).
        max_instances: usize,
    },
    /// Admitting the stream would oversubscribe the shard thread budget.
    OverShardBudget {
        /// Streams already admitted.
        streams: usize,
        /// The shard layout's total thread budget.
        budget_threads: usize,
        /// The admission cap (`budget ×
        /// `[`AdmissionPolicy::max_streams_per_worker`]).
        max_streams: usize,
    },
    /// Admitting the stream would overflow the node's **active-set**
    /// budget: streams are priced by duty fraction
    /// ([`ff_video::FrameSource::duty_fraction`]), and the summed
    /// fractions — the expected number of simultaneously-active streams —
    /// would exceed the cap. The whole-stream analogue is
    /// [`Self::OverShardBudget`], which always-on fleets still get.
    /// Quantities are in **milli-streams** (1000 = one always-on stream)
    /// so the variant stays `Eq`-comparable.
    OverActiveSet {
        /// Duty fractions already committed, ×1000.
        active_millistreams: u64,
        /// The refused stream's duty fraction, ×1000.
        incoming_millistreams: u64,
        /// The active-set cap (`budget ×
        /// `[`AdmissionPolicy::max_streams_per_worker`]`)`, ×1000.
        budget_millistreams: u64,
    },
    /// The policy's [`AdmissionPolicy::max_streams_per_worker`] is 0,
    /// which would refuse every stream: a misconfigured node, not a full
    /// one.
    ZeroStreamsPerWorker,
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::ResolutionMismatch { source, pipeline } => write!(
                f,
                "stream source and pipeline resolution disagree \
                 (source {source}, pipeline {pipeline})"
            ),
            AdmissionError::OverMemory {
                instance_bytes,
                committed_bytes,
                budget_bytes,
                max_instances,
            } => write!(
                f,
                "stream refused: instance needs {instance_bytes} B but \
                 {committed_bytes} of {budget_bytes} B are committed \
                 (node fits at most {max_instances} such instances)"
            ),
            AdmissionError::OverShardBudget {
                streams,
                budget_threads,
                max_streams,
            } => write!(
                f,
                "stream refused: {streams} streams already share a \
                 {budget_threads}-thread shard budget (cap {max_streams})"
            ),
            AdmissionError::OverActiveSet {
                active_millistreams,
                incoming_millistreams,
                budget_millistreams,
            } => write!(
                f,
                "stream refused: active set holds {:.3} streams and this \
                 stream's duty fraction adds {:.3}, past the {:.3}-stream \
                 active budget",
                *active_millistreams as f64 / 1000.0,
                *incoming_millistreams as f64 / 1000.0,
                *budget_millistreams as f64 / 1000.0
            ),
            AdmissionError::ZeroStreamsPerWorker => write!(
                f,
                "AdmissionPolicy::max_streams_per_worker must be ≥ 1 \
                 (0 would refuse every stream)"
            ),
        }
    }
}

impl std::error::Error for AdmissionError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn telem(tick: u64, queue_depths: &[usize], ewmas: &[f64], uplink_tick: f64) -> NodeTelemetry {
        NodeTelemetry {
            tick,
            round: tick * 8,
            streams: queue_depths
                .iter()
                .zip(ewmas)
                .enumerate()
                .map(|(i, (&q, &e))| StreamTelemetry {
                    id: StreamId(i),
                    queue_depth: q,
                    arrivals: 0,
                    served: 0,
                    arrival_ewma: e,
                    rounds_since_wake: 0,
                    ended: false,
                })
                .collect(),
            gather: GatherTelemetry::default(),
            uplink: UplinkTelemetry {
                offered_utilization_tick: uplink_tick,
                ..Default::default()
            },
            faults: FaultTelemetry::default(),
            wall: WallTelemetry::default(),
        }
    }

    fn two_stream_controller(cfg: ControlConfig) -> Controller {
        Controller::new(
            cfg,
            ControllerInit {
                streams: 2,
                base_precision: Precision::F32,
            },
        )
    }

    #[test]
    fn watchdog_quarantines_stalled_stream_and_readmits_with_hysteresis() {
        let cfg = ControlConfig {
            degrade: None,
            watchdog: Some(WatchdogPolicy::default()),
            ..ControlConfig::default()
        };
        let mut c = Controller::new(
            cfg,
            ControllerInit {
                streams: 4,
                base_precision: Precision::F32,
            },
        );
        // Stream 2's camera dies; patience 2 ⇒ second tick quarantines.
        let dead = |tick| telem(tick, &[0; 4], &[1.0, 1.0, 0.0, 1.0], 0.0);
        assert!(c.observe(&dead(1)).is_empty(), "patience must delay");
        let plan = c.observe(&dead(2));
        assert_eq!(plan.actions, vec![ControlAction::Quarantine { stream: 2 }]);
        // An EWMA inside the band (0.05..0.5) keeps the quarantine.
        let limp = |tick| telem(tick, &[0; 4], &[1.0, 1.0, 0.3, 1.0], 0.0);
        assert!(c.observe(&limp(3)).is_empty());
        assert!(c.observe(&limp(4)).is_empty());
        // Full recovery readmits after the patience streak.
        let back = |tick| telem(tick, &[0; 4], &[1.0, 1.0, 1.0, 1.0], 0.0);
        assert!(c.observe(&back(5)).is_empty());
        let plan = c.observe(&back(6));
        assert_eq!(plan.actions, vec![ControlAction::Readmit { stream: 2 }]);
    }

    fn degrade_only(saturate_ticks: u32, relax_ticks: u32) -> ControlConfig {
        ControlConfig {
            degrade: Some(DegradePolicy {
                saturate_ticks,
                relax_ticks,
                ..DegradePolicy::default()
            }),
            ..ControlConfig::default()
        }
    }

    #[test]
    fn degrade_treats_an_outage_as_saturation() {
        let mut c = two_stream_controller(degrade_only(2, 6));
        // A down link offers nothing — utilization 0.0 — yet must read as
        // hot, or the ladder would *relax* mid-outage.
        let outage = |tick| {
            let mut t = telem(tick, &[0, 0], &[1.0, 1.0], 0.0);
            t.faults.link_up = false;
            t
        };
        assert!(c.observe(&outage(1)).is_empty());
        let plan = c.observe(&outage(2));
        assert_eq!(
            plan.actions,
            vec![ControlAction::SetPrecision {
                from: Precision::F32,
                to: Precision::Int8Act
            }]
        );
        // However long the link stays down, each streak steps exactly one
        // rung.
        assert!(c.observe(&outage(3)).is_empty());
        assert_eq!(
            c.observe(&outage(4)).actions,
            vec![ControlAction::SetUploadStride { from: 1, to: 2 }]
        );
    }

    #[test]
    fn degrade_ladder_steps_down_then_recovers_in_order() {
        let hot = |tick| telem(tick, &[0, 0], &[1.0, 1.0], 1.5);
        let cool = |tick| telem(tick, &[0, 0], &[1.0, 1.0], 0.2);
        // Ten saturated ticks, then relief: every decision with its tick.
        let walk = |c: &mut Controller| {
            let mut decisions = Vec::new();
            for tick in 1..=30 {
                let t = if tick <= 10 { hot(tick) } else { cool(tick) };
                for action in c.observe(&t).actions {
                    decisions.push((tick, action));
                }
            }
            decisions
        };
        let down = ControlAction::SetPrecision {
            from: Precision::F32,
            to: Precision::Int8Act,
        };
        let up = ControlAction::SetPrecision {
            from: Precision::Int8Act,
            to: Precision::F32,
        };
        let stride = |from, to| ControlAction::SetUploadStride { from, to };
        // From f32: one rung per saturation streak (2 ticks) until the
        // bottom, where further saturation does nothing; relief retraces
        // the ladder one rung per relax streak (3 ticks).
        let mut c = two_stream_controller(degrade_only(2, 3));
        assert_eq!(
            walk(&mut c),
            vec![
                (2, down),
                (4, stride(1, 2)),
                (6, stride(2, 4)),
                (13, stride(4, 2)),
                (16, stride(2, 1)),
                (19, up),
            ]
        );
        // From a whole-int8 base the ladder is strides only.
        let mut c = Controller::new(
            degrade_only(2, 3),
            ControllerInit {
                streams: 2,
                base_precision: Precision::Int8Act,
            },
        );
        assert_eq!(
            walk(&mut c),
            vec![
                (2, stride(1, 2)),
                (4, stride(2, 4)),
                (13, stride(4, 2)),
                (16, stride(2, 1)),
            ]
        );
    }

    #[test]
    fn degrade_holds_inside_the_watermark_band() {
        let mut c = two_stream_controller(degrade_only(2, 6));
        // Oscillating between the watermarks (0.7..1.0) never acts.
        for tick in 1..=20 {
            let u = if tick % 2 == 0 { 0.95 } else { 0.75 };
            let t = telem(tick, &[0, 0], &[1.0, 1.0], u);
            assert!(c.observe(&t).is_empty(), "tick {tick} must hold");
        }
    }

    #[test]
    fn sensors_ewma_and_tick_accounting() {
        let mut s = Sensors::new(2, 0.5);
        let mut uplink = Uplink::new(1_000_000.0, 30.0);
        for _ in 0..4 {
            s.on_arrival(0);
            s.on_round(1);
        }
        for _ in 0..4 {
            s.on_round(0);
        }
        let t = s.snapshot(8, &[3, 0], &[0, 4], &uplink, 4);
        assert_eq!(t.tick, 1);
        assert_eq!(t.streams[0].arrivals, 4);
        assert_eq!(t.streams[0].queue_depth, 3);
        // Wake ages pass through untouched (stream 1 idled 4 rounds).
        assert_eq!(t.streams[0].rounds_since_wake, 0);
        assert_eq!(t.streams[1].rounds_since_wake, 4);
        // First tick seeds the EWMA with the raw rate 4/8.
        assert_eq!(t.streams[0].arrival_ewma, 0.5);
        assert_eq!(t.streams[1].arrival_ewma, 0.0);
        assert_eq!(t.gather.rounds, 8);
        assert_eq!(t.gather.gathered, 4);
        assert_eq!(t.gather.max_batch, 4);
        // Second tick: stream 0 fully active → EWMA moves halfway.
        for _ in 0..8 {
            s.on_arrival(0);
            s.on_round(1);
        }
        let t2 = s.snapshot(16, &[0, 0], &[], &uplink, 4);
        assert_eq!(t2.streams[0].arrival_ewma, 0.75);
        // An empty wake-age slice reads as age 0 for every stream.
        assert_eq!(t2.streams[1].rounds_since_wake, 0);
        // Per-tick uplink utilization differences the counters.
        let drain_per_offer = 1_000_000.0 / 30.0;
        uplink.offer((2.0 * drain_per_offer / 8.0) as usize); // 2× one interval
        let t3 = s.snapshot(17, &[0, 0], &[], &uplink, 4);
        assert!((t3.uplink.offered_utilization_tick - 2.0).abs() < 0.01);
    }

    #[test]
    fn mailbox_telemetry_keeps_prerefactor_ewma_meaning() {
        // A duty-cycled camera: 4 arrivals in tick 1, none in tick 2,
        // 8 in tick 3. The arrival-EWMA sequence asserted below is the
        // thread-era recording (when queue depths came from bounded
        // channels); the task runtime feeds mailbox depths and wake ages
        // through the same fold, so WatchdogPolicy's EWMA inputs keep
        // their pre-refactor meaning bit-for-bit.
        let mut s = Sensors::new(1, 0.5);
        let uplink = Uplink::new(1_000_000.0, 30.0);
        for _ in 0..4 {
            s.on_arrival(0);
            s.on_round(1);
        }
        for _ in 0..4 {
            s.on_round(0);
        }
        let t1 = s.snapshot(8, &[2], &[0], &uplink, 0);
        for _ in 0..8 {
            s.on_round(0);
        }
        let t2 = s.snapshot(16, &[0], &[8], &uplink, 0);
        for _ in 0..8 {
            s.on_arrival(0);
            s.on_round(1);
        }
        let t3 = s.snapshot(24, &[1], &[0], &uplink, 0);
        // Recorded gold: seed 0.5, decay to 0.25, recover to 0.625.
        let ewmas = [
            t1.streams[0].arrival_ewma,
            t2.streams[0].arrival_ewma,
            t3.streams[0].arrival_ewma,
        ];
        assert_eq!(ewmas, [0.5, 0.25, 0.625]);
        // Mailbox depth and wake age pass through unchanged: the depth is
        // what the bounded channel used to report, the age is the new
        // signal separating scheduled idleness from a drained queue.
        let depths = [
            t1.streams[0].queue_depth,
            t2.streams[0].queue_depth,
            t3.streams[0].queue_depth,
        ];
        assert_eq!(depths, [2, 0, 1]);
        let ages = [
            t1.streams[0].rounds_since_wake,
            t2.streams[0].rounds_since_wake,
            t3.streams[0].rounds_since_wake,
        ];
        assert_eq!(ages, [0, 8, 0]);
    }

    #[test]
    fn admission_policy_budget_matches_node_model() {
        use crate::node::{max_mobilenet_instances, mobilenet_instance_bytes, EdgeNodeSpec};
        use ff_models::MobileNetConfig;
        let cfg = MobileNetConfig::with_width(0.25);
        let res = Resolution::new(64, 32);
        let per = mobilenet_instance_bytes(&cfg, res);
        let spec = EdgeNodeSpec {
            cores: 4,
            memory_bytes: per * 5, // ~4.5 instances after the 10% reserve
        };
        let policy = AdmissionPolicy::new(spec);
        let max = max_mobilenet_instances(&spec, &cfg, res);
        assert_eq!(policy.memory_budget_bytes() / per, max as u64);
    }

    #[test]
    #[should_panic(expected = "patience must be ≥ 1")]
    fn zero_patience_rejected() {
        let cfg = ControlConfig {
            watchdog: Some(WatchdogPolicy {
                patience: 0,
                ..WatchdogPolicy::default()
            }),
            ..ControlConfig::default()
        };
        let _ = two_stream_controller(cfg);
    }

    #[test]
    fn trace_display_is_one_line_per_decision() {
        let trace = ControlTrace {
            decisions: vec![
                ControlDecision {
                    tick: 3,
                    action: ControlAction::SetUploadStride { from: 1, to: 2 },
                },
                ControlDecision {
                    tick: 9,
                    action: ControlAction::SetPrecision {
                        from: Precision::F32,
                        to: Precision::Int8Act,
                    },
                },
            ],
        };
        let s = trace.to_string();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("upload stride 1 → 2"));
    }
}
