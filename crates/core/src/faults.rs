//! Deterministic fault injection and recovery for the virtual-time edge
//! node — flaky uplinks, stalled cameras, crashing stages, and the
//! machinery that survives them.
//!
//! FilterForward's premise is that the edge-to-cloud link is the scarce,
//! *unreliable* resource; real deployments add stalling cameras and
//! crashing stages on top. The node's round loop
//! ([`crate::runtime::EdgeNode::run_controlled`]) gives this module the
//! one thing chaos engineering usually lacks: **bit-replayable time**. A
//! [`FaultPlan`] schedules faults in virtual-time rounds, every recovery
//! decision (retry backoff, spill, re-drain, watchdog quarantine, stage
//! restart) is a pure function of round number and stream content, and the
//! whole fault/recovery history lands in a [`FaultTrace`] that is
//! bit-identical across repeated runs, thread counts, and shard widths.
//!
//! # Lifecycle: injection → detection → recovery
//!
//! ```text
//!             INJECTION                DETECTION                RECOVERY
//!  ┌─────────────────────────┐ ┌─────────────────────┐ ┌─────────────────────────┐
//!  │ FaultPlan (virtual time)│ │                     │ │                         │
//!  │                         │ │                     │ │                         │
//!  │ uplink outage ──────────┼─┼─▶ offer refused ────┼─┼─▶ bounded retry with    │
//!  │ capacity dip            │ │   (link_up=false in │ │   exp. backoff + seeded │
//!  │ packet loss (seeded)    │ │    FaultTelemetry;  │ │   jitter ─▶ delivered-  │
//!  │                         │ │    DegradePolicy    │ │   late, or spill to the │
//!  │                         │ │    treats a down    │ │   archive SpillBin and  │
//!  │                         │ │    link as hot)     │ │   re-drain on recovery; │
//!  │                         │ │                     │ │   exhausted ⇒ accounted │
//!  │                         │ │                     │ │   drop (SegmentLedger)  │
//!  │                         │ │                     │ │                         │
//!  │ camera stall/blackout/ ─┼─┼─▶ arrival EWMA ─────┼─┼─▶ WatchdogPolicy        │
//!  │ corruption              │ │   collapse in       │ │   quarantines (task     │
//!  │ (FaultySource)          │ │   NodeTelemetry     │ │   suspended) and        │
//!  │                         │ │                     │ │   readmits on recovery  │
//!  │                         │ │                     │ │                         │
//!  │ scripted stage panic ───┼─┼─▶ isolated at ──────┼─┼─▶ bounded restarts,     │
//!  │                         │ │   selection, before │ │   then the circuit      │
//!  │                         │ │   the frame reaches │ │   breaker kills the one │
//!  │                         │ │   any inference     │ │   stream — node lives   │
//!  └─────────────────────────┘ └─────────────────────┘ └─────────────────────────┘
//! ```
//!
//! # Segment accounting
//!
//! Nothing is silently lost: every upload segment a stream offers ends in
//! exactly one of three buckets — **delivered** (on first offer),
//! **delivered-late** (after retries or an archive spill re-drain), or
//! **accounted-dropped** (retry budget and spill capacity exhausted, or
//! the run ended with the segment still parked). The [`SegmentLedger`]
//! carries the counts and [`SegmentLedger::conserves`] pins the invariant
//! `delivered + delivered_late + dropped == offered` at end of run.
//!
//! # Determinism
//!
//! Packet loss and retry jitter draw from the seeded compat `rand` shim;
//! both are consumed in the fixed one-offer-per-stream-slot-per-round
//! order of the round loop, so the full fault/recovery history —
//! ledger, trace, telemetry — replays bit-for-bit regardless of thread
//! counts or shard widths. Camera faults are scheduled in *source poll
//! ticks* (see [`CameraFault`]), which the lock-step executor also makes
//! deterministic.

use std::collections::VecDeque;

use ff_obs::{Counter, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::archive::{SpillBin, SpilledSegment};
use crate::uplink::Uplink;
use ff_video::{SourceFault, SourceFaultKind};

// ---------------------------------------------------------------------------
// The fault plan
// ---------------------------------------------------------------------------

/// What happens to the shared uplink during a scheduled window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UplinkFaultKind {
    /// The link goes down: offers are refused and the queue freezes (see
    /// the [`crate::uplink`] outage semantics).
    Outage,
    /// The link stays up but drains at this fraction of capacity
    /// (0 < factor ≤ 1).
    CapacityFactor(f64),
    /// Each non-empty offer (fresh or retry) is independently lost with
    /// this probability (0 ≤ rate < 1), drawn from the plan's seeded RNG.
    Loss {
        /// Per-offer loss probability.
        rate: f64,
    },
}

/// One scheduled uplink fault: `kind` holds for `rounds` consecutive
/// virtual-time rounds starting at `at_round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UplinkFault {
    /// First round the fault covers.
    pub at_round: u64,
    /// Rounds the fault lasts.
    pub rounds: u64,
    /// What happens during the window.
    pub kind: UplinkFaultKind,
}

impl UplinkFault {
    /// Whether this fault covers round `r`.
    pub fn covers(&self, r: u64) -> bool {
        r >= self.at_round && r - self.at_round < self.rounds
    }
}

/// One scheduled camera fault, delegated to a
/// [`ff_video::FaultySource`] wrapped around the stream's source at run
/// start. The window is keyed to **source poll ticks** (one poll per round
/// while the stream's decode queue has room), not rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CameraFault {
    /// The stream whose camera faults.
    pub stream: usize,
    /// The fault window and kind (see [`ff_video::SourceFault`]).
    pub fault: SourceFault,
}

/// One scripted inference-stage panic: the stage crashes while serving the
/// stream's `at_frame`-th served frame (0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StagePanic {
    /// The stream whose stage panics.
    pub stream: usize,
    /// The served-frame index at which the panic fires.
    pub at_frame: u64,
}

/// A deterministic schedule of faults for one controlled run
/// ([`crate::runtime::EdgeNodeConfig::faults`]). Build with the chained
/// helpers:
///
/// ```
/// use ff_core::faults::FaultPlan;
/// let plan = FaultPlan::new()
///     .uplink_outage(12, 12)        // rounds 12..24: link down
///     .packet_loss(30, 8, 0.5)      // rounds 30..38: 50% loss
///     .camera_stall(1, 8, 12)       // stream 1 stalls for 12 polls
///     .stage_panic(2, 5);           // stream 2 crashes on its 6th frame
/// assert!(plan.validate(4).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Scheduled uplink faults (overlaps allowed; outage dominates, the
    /// smallest capacity factor and largest loss rate win).
    pub uplink: Vec<UplinkFault>,
    /// Scheduled camera faults.
    pub cameras: Vec<CameraFault>,
    /// Scripted stage panics.
    pub panics: Vec<StagePanic>,
    /// Seed for the packet-loss RNG (retry jitter seeds live in
    /// [`RetryPolicy`]).
    pub loss_seed: u64,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Adds an uplink outage covering `rounds` rounds from `at_round`.
    pub fn uplink_outage(mut self, at_round: u64, rounds: u64) -> Self {
        self.uplink.push(UplinkFault {
            at_round,
            rounds,
            kind: UplinkFaultKind::Outage,
        });
        self
    }

    /// Adds a capacity dip (`factor` × capacity) over the window.
    pub fn capacity_dip(mut self, at_round: u64, rounds: u64, factor: f64) -> Self {
        self.uplink.push(UplinkFault {
            at_round,
            rounds,
            kind: UplinkFaultKind::CapacityFactor(factor),
        });
        self
    }

    /// Adds seeded packet loss at `rate` over the window.
    pub fn packet_loss(mut self, at_round: u64, rounds: u64, rate: f64) -> Self {
        self.uplink.push(UplinkFault {
            at_round,
            rounds,
            kind: UplinkFaultKind::Loss { rate },
        });
        self
    }

    /// Stalls `stream`'s camera for `ticks` polls from `at_tick` (content
    /// preserved — frames arrive late, verdicts stay bit-identical).
    pub fn camera_stall(self, stream: usize, at_tick: u64, ticks: u64) -> Self {
        self.camera_fault(stream, at_tick, ticks, SourceFaultKind::Stall)
    }

    /// Blacks out `stream`'s camera over the window.
    pub fn camera_blackout(self, stream: usize, at_tick: u64, ticks: u64) -> Self {
        self.camera_fault(stream, at_tick, ticks, SourceFaultKind::Blackout)
    }

    /// Corrupts `stream`'s frames over the window (deterministic noise
    /// seeded by `seed`).
    pub fn camera_corruption(self, stream: usize, at_tick: u64, ticks: u64, seed: u64) -> Self {
        self.camera_fault(stream, at_tick, ticks, SourceFaultKind::Corrupt { seed })
    }

    fn camera_fault(
        mut self,
        stream: usize,
        at_tick: u64,
        ticks: u64,
        kind: SourceFaultKind,
    ) -> Self {
        self.cameras.push(CameraFault {
            stream,
            fault: SourceFault {
                at_tick,
                ticks,
                kind,
            },
        });
        self
    }

    /// Crashes `stream`'s inference stage on its `at_frame`-th served
    /// frame.
    pub fn stage_panic(mut self, stream: usize, at_frame: u64) -> Self {
        self.panics.push(StagePanic { stream, at_frame });
        self
    }

    /// The camera-fault windows targeting `stream`, for wrapping its
    /// source in a [`ff_video::FaultySource`].
    pub fn source_faults(&self, stream: usize) -> Vec<SourceFault> {
        self.cameras
            .iter()
            .filter(|c| c.stream == stream)
            .map(|c| c.fault)
            .collect()
    }

    /// Checks the plan against a node with `streams` streams.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`]: a fault targeting a stream
    /// the node does not have, an empty window, a loss rate outside
    /// `[0, 1)`, or a capacity factor outside `(0, 1]`.
    pub fn validate(&self, streams: usize) -> Result<(), FaultPlanError> {
        for f in &self.uplink {
            if f.rounds == 0 {
                return Err(FaultPlanError::EmptyWindow);
            }
            match f.kind {
                UplinkFaultKind::Outage => {}
                UplinkFaultKind::CapacityFactor(factor) => {
                    if !(factor > 0.0 && factor <= 1.0) {
                        return Err(FaultPlanError::InvalidCapacityFactor { factor });
                    }
                }
                UplinkFaultKind::Loss { rate } => {
                    if !(0.0..1.0).contains(&rate) {
                        return Err(FaultPlanError::InvalidLossRate { rate });
                    }
                }
            }
        }
        for c in &self.cameras {
            if c.stream >= streams {
                return Err(FaultPlanError::UnknownStream {
                    stream: c.stream,
                    streams,
                });
            }
            if c.fault.ticks == 0 {
                return Err(FaultPlanError::EmptyWindow);
            }
        }
        for p in &self.panics {
            if p.stream >= streams {
                return Err(FaultPlanError::UnknownStream {
                    stream: p.stream,
                    streams,
                });
            }
        }
        Ok(())
    }
}

/// Why a [`FaultPlan`] was rejected ([`FaultPlan::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultPlanError {
    /// A fault targets a stream index the node does not have.
    UnknownStream {
        /// The targeted stream.
        stream: usize,
        /// Streams the node actually has.
        streams: usize,
    },
    /// A fault window covers zero rounds/ticks.
    EmptyWindow,
    /// A loss rate outside `[0, 1)`.
    InvalidLossRate {
        /// The offending rate.
        rate: f64,
    },
    /// A capacity factor outside `(0, 1]`.
    InvalidCapacityFactor {
        /// The offending factor.
        factor: f64,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::UnknownStream { stream, streams } => {
                write!(
                    f,
                    "fault targets stream {stream} of a {streams}-stream node"
                )
            }
            FaultPlanError::EmptyWindow => write!(f, "fault window covers zero rounds"),
            FaultPlanError::InvalidLossRate { rate } => {
                write!(f, "loss rate {rate} outside [0, 1)")
            }
            FaultPlanError::InvalidCapacityFactor { factor } => {
                write!(f, "capacity factor {factor} outside (0, 1]")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

// ---------------------------------------------------------------------------
// Fleet fault plans
// ---------------------------------------------------------------------------

/// What happens to the fleet during a scheduled window (the fleet-scale
/// extension of [`UplinkFaultKind`], consumed by [`crate::fleet::Fleet`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultKind {
    /// One node crashes for the window: volatile transport state (unacked
    /// outbox, ack set past the last checkpoint) is lost; the durable
    /// journal and checkpoint survive, and the node rejoins when the
    /// window closes.
    NodeCrash {
        /// The crashing node.
        node: usize,
    },
    /// Nodes `lo..hi` lose both directions of their hub uplink for the
    /// window (messages vanish at the wire; demand fetches fail).
    HubPartition {
        /// First partitioned node.
        lo: usize,
        /// One past the last partitioned node.
        hi: usize,
    },
    /// Every wire send (segments *and* acks) emits this many extra copies
    /// during the window — the dedup window's stress test.
    DupStorm {
        /// Extra copies per send (≥ 1).
        copies: u32,
    },
    /// Each wire message is independently lost with this probability
    /// (0 ≤ rate < 1), drawn from the owning node's seeded link RNG.
    MessageLoss {
        /// Per-message loss probability.
        rate: f64,
    },
}

/// One scheduled fleet fault: `kind` holds for `rounds` consecutive
/// virtual-time rounds starting at `at_round`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetFault {
    /// First round the fault covers.
    pub at_round: u64,
    /// Rounds the fault lasts.
    pub rounds: u64,
    /// What happens during the window.
    pub kind: FleetFaultKind,
}

impl FleetFault {
    /// Whether this fault covers round `r`.
    pub fn covers(&self, r: u64) -> bool {
        r >= self.at_round && r - self.at_round < self.rounds
    }
}

/// A deterministic schedule of fleet-scale faults for one
/// [`crate::fleet::Fleet`] run. Build with the chained helpers:
///
/// ```
/// use ff_core::faults::FleetFaultPlan;
/// let plan = FleetFaultPlan::new()
///     .node_crash(3, 20, 15)        // node 3 down for rounds 20..35
///     .hub_partition(40, 12, 8, 16) // nodes 8..16 cut off for 12 rounds
///     .dup_storm(60, 10, 2)         // every send triplicated
///     .message_loss(60, 10, 0.2);   // 20% seeded loss
/// assert!(plan.validate(32).is_ok());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetFaultPlan {
    /// Scheduled faults (overlaps allowed; the largest loss rate and
    /// dup-storm copy count win per round).
    pub faults: Vec<FleetFault>,
}

impl FleetFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FleetFaultPlan::default()
    }

    /// Crashes `node` for `rounds` rounds from `at_round`; it rejoins
    /// from its checkpoint when the window closes.
    pub fn node_crash(mut self, node: usize, at_round: u64, rounds: u64) -> Self {
        self.faults.push(FleetFault {
            at_round,
            rounds,
            kind: FleetFaultKind::NodeCrash { node },
        });
        self
    }

    /// Partitions nodes `lo..hi` from the hub over the window.
    pub fn hub_partition(mut self, at_round: u64, rounds: u64, lo: usize, hi: usize) -> Self {
        self.faults.push(FleetFault {
            at_round,
            rounds,
            kind: FleetFaultKind::HubPartition { lo, hi },
        });
        self
    }

    /// Duplicates every wire send `copies` extra times over the window.
    pub fn dup_storm(mut self, at_round: u64, rounds: u64, copies: u32) -> Self {
        self.faults.push(FleetFault {
            at_round,
            rounds,
            kind: FleetFaultKind::DupStorm { copies },
        });
        self
    }

    /// Adds seeded per-message loss at `rate` over the window.
    pub fn message_loss(mut self, at_round: u64, rounds: u64, rate: f64) -> Self {
        self.faults.push(FleetFault {
            at_round,
            rounds,
            kind: FleetFaultKind::MessageLoss { rate },
        });
        self
    }

    /// Whether `node` is crashed at round `r`.
    pub fn crashed(&self, node: usize, r: u64) -> bool {
        self.faults.iter().any(|f| {
            f.covers(r) && matches!(f.kind, FleetFaultKind::NodeCrash { node: n } if n == node)
        })
    }

    /// Whether `node` is partitioned from the hub at round `r`.
    pub fn partitioned(&self, node: usize, r: u64) -> bool {
        self.faults.iter().any(|f| {
            f.covers(r)
                && matches!(f.kind, FleetFaultKind::HubPartition { lo, hi }
                    if node >= lo && node < hi)
        })
    }

    /// Extra copies every wire send emits at round `r` (largest active
    /// storm wins; 0 when none).
    pub fn dup_copies(&self, r: u64) -> u32 {
        self.faults
            .iter()
            .filter(|f| f.covers(r))
            .filter_map(|f| match f.kind {
                FleetFaultKind::DupStorm { copies } => Some(copies),
                _ => None,
            })
            .fold(0, u32::max)
    }

    /// Per-message loss probability at round `r` (largest active window
    /// wins; 0 when none).
    pub fn loss_rate(&self, r: u64) -> f64 {
        self.faults
            .iter()
            .filter(|f| f.covers(r))
            .filter_map(|f| match f.kind {
                FleetFaultKind::MessageLoss { rate } => Some(rate),
                _ => None,
            })
            .fold(0.0, f64::max)
    }

    /// Checks the plan against a fleet of `nodes` nodes.
    ///
    /// # Errors
    ///
    /// Returns the first [`FleetFaultError`]: a fault targeting a node the
    /// fleet does not have, an empty window or partition range, a loss
    /// rate outside `[0, 1)`, or a zero-copy dup storm.
    pub fn validate(&self, nodes: usize) -> Result<(), FleetFaultError> {
        for f in &self.faults {
            if f.rounds == 0 {
                return Err(FleetFaultError::EmptyWindow);
            }
            match f.kind {
                FleetFaultKind::NodeCrash { node } => {
                    if node >= nodes {
                        return Err(FleetFaultError::UnknownNode { node, nodes });
                    }
                }
                FleetFaultKind::HubPartition { lo, hi } => {
                    if lo >= hi {
                        return Err(FleetFaultError::EmptyPartition { lo, hi });
                    }
                    if hi > nodes {
                        return Err(FleetFaultError::UnknownNode {
                            node: hi - 1,
                            nodes,
                        });
                    }
                }
                FleetFaultKind::DupStorm { copies } => {
                    if copies == 0 {
                        return Err(FleetFaultError::EmptyDupStorm);
                    }
                }
                FleetFaultKind::MessageLoss { rate } => {
                    if !(0.0..1.0).contains(&rate) {
                        return Err(FleetFaultError::InvalidLossRate { rate });
                    }
                }
            }
        }
        Ok(())
    }
}

/// Why a [`FleetFaultPlan`] was rejected ([`FleetFaultPlan::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetFaultError {
    /// A fault targets a node index the fleet does not have.
    UnknownNode {
        /// The targeted node.
        node: usize,
        /// Nodes the fleet actually has.
        nodes: usize,
    },
    /// A fault window covers zero rounds.
    EmptyWindow,
    /// A partition range with `lo >= hi`.
    EmptyPartition {
        /// First partitioned node.
        lo: usize,
        /// One past the last partitioned node.
        hi: usize,
    },
    /// A dup storm adding zero copies (it would inject nothing).
    EmptyDupStorm,
    /// A loss rate outside `[0, 1)`.
    InvalidLossRate {
        /// The offending rate.
        rate: f64,
    },
}

impl std::fmt::Display for FleetFaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetFaultError::UnknownNode { node, nodes } => {
                write!(f, "fault targets node {node} of a {nodes}-node fleet")
            }
            FleetFaultError::EmptyWindow => write!(f, "fleet fault window covers zero rounds"),
            FleetFaultError::EmptyPartition { lo, hi } => {
                write!(f, "partition range {lo}..{hi} is empty")
            }
            FleetFaultError::EmptyDupStorm => write!(f, "dup storm adds zero copies"),
            FleetFaultError::InvalidLossRate { rate } => {
                write!(f, "message loss rate {rate} outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for FleetFaultError {}

// ---------------------------------------------------------------------------
// Retry backoff
// ---------------------------------------------------------------------------

/// Bounded exponential backoff with deterministic jitter, in virtual-time
/// rounds: attempt `a` waits `min(base · 2^a, max) + jitter(a)` rounds,
/// where `jitter(a) ∈ [0, jitter_rounds]` is drawn from a seeded RNG —
/// the same seed always yields the same schedule. The per-attempt delay is
/// additionally clamped **monotone non-decreasing** (a later attempt never
/// waits less than an earlier one), and the total across all attempts is
/// bounded by [`RetryPolicy::max_total_delay_rounds`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// First-attempt delay in rounds (≥ 1).
    pub base_delay_rounds: u64,
    /// Cap on the exponential term, in rounds.
    pub max_delay_rounds: u64,
    /// Delivery attempts before the segment spills (≥ 1).
    pub max_attempts: u32,
    /// Largest jitter added to any delay, in rounds.
    pub jitter_rounds: u64,
    /// Seed for the jitter RNG.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base_delay_rounds: 2,
            max_delay_rounds: 16,
            max_attempts: 5,
            jitter_rounds: 2,
            jitter_seed: 0x9E37_79B9,
        }
    }
}

impl RetryPolicy {
    /// The exponential envelope plus jitter for attempt `attempt`
    /// (0-based), before the monotone clamp.
    fn raw_delay(&self, attempt: u32) -> u64 {
        let exp = self
            .base_delay_rounds
            .saturating_mul(1u64 << attempt.min(20))
            .min(self.max_delay_rounds);
        let jitter = if self.jitter_rounds == 0 {
            0
        } else {
            let mut rng = StdRng::seed_from_u64(
                self.jitter_seed ^ (attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            );
            rng.gen_range(0..=self.jitter_rounds)
        };
        exp + jitter
    }

    /// Rounds to wait after failed attempt `attempt` (0-based).
    /// Deterministic for a fixed seed, monotone non-decreasing in
    /// `attempt`, and never above `max_delay_rounds + jitter_rounds`.
    pub fn delay_rounds(&self, attempt: u32) -> u64 {
        (0..=attempt).map(|a| self.raw_delay(a)).fold(0, u64::max)
    }

    /// Upper bound on the summed delays of a full retry cycle:
    /// `max_attempts × (max_delay_rounds + jitter_rounds)`.
    pub fn max_total_delay_rounds(&self) -> u64 {
        self.max_attempts as u64 * (self.max_delay_rounds + self.jitter_rounds)
    }

    fn validate(&self) {
        assert!(
            self.base_delay_rounds >= 1,
            "backoff base must be ≥ 1 round"
        );
        assert!(
            self.max_delay_rounds >= self.base_delay_rounds,
            "backoff cap must be ≥ base"
        );
        assert!(self.max_attempts >= 1, "at least one delivery attempt");
    }
}

/// Recovery knobs for a controlled run
/// ([`crate::runtime::EdgeNodeConfig::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryConfig {
    /// Backoff schedule for refused/lost upload segments.
    pub retry: RetryPolicy,
    /// Capacity of the archive [`SpillBin`] in segments; overflow becomes
    /// accounted drops.
    pub spill_limit_segments: usize,
    /// Stage restarts allowed per stream before the circuit breaker kills
    /// the stream (the node keeps running).
    pub max_restarts_per_stream: u32,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            retry: RetryPolicy::default(),
            spill_limit_segments: 64,
            max_restarts_per_stream: 2,
        }
    }
}

// ---------------------------------------------------------------------------
// Segment ledger and trace
// ---------------------------------------------------------------------------

/// Where every offered upload segment ended up. The conservation invariant
/// ([`Self::conserves`]) holds at end of run; mid-run the gap is
/// [`Self::in_flight`] (segments still in the retry queue or spill bin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentLedger {
    /// Non-empty segments streams offered to the link.
    pub offered: u64,
    /// Delivered on first offer.
    pub delivered: u64,
    /// Delivered after retries or a spill re-drain.
    pub delivered_late: u64,
    /// Accounted drops: retry budget and spill capacity exhausted, or the
    /// run ended with the segment still parked.
    pub dropped: u64,
}

impl SegmentLedger {
    /// Segments whose fate is settled.
    pub fn accounted(&self) -> u64 {
        self.delivered + self.delivered_late + self.dropped
    }

    /// Segments still in the retry queue or spill bin.
    pub fn in_flight(&self) -> u64 {
        self.offered - self.accounted()
    }

    /// `delivered + delivered_late + dropped == offered` — every segment's
    /// fate settled and accounted.
    pub fn conserves(&self) -> bool {
        self.accounted() == self.offered
    }
}

/// One fault or recovery event, stamped with its virtual-time round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Virtual-time round of the event.
    pub round: u64,
    /// What happened.
    pub kind: FaultEventKind,
}

/// What a [`FaultEvent`] records. Per-segment retry scheduling is folded
/// into telemetry *counts* ([`crate::control::FaultTelemetry`]) rather
/// than traced per event, so the trace stays bounded by the number of
/// fault transitions, spills, and restarts — not by outage length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The uplink went down.
    LinkDown,
    /// The uplink recovered.
    LinkUp,
    /// A capacity dip began (factor in permille).
    CapacityDip {
        /// Dip factor × 1000.
        permille: u32,
    },
    /// Capacity returned to the provisioned rate.
    CapacityRestored,
    /// Packet loss began (rate in permille).
    LossStart {
        /// Loss rate × 1000.
        permille: u32,
    },
    /// Packet loss ended.
    LossEnd,
    /// An inference stage panicked serving this stream's frame.
    StagePanic {
        /// The stream.
        stream: usize,
        /// The served-frame index that crashed (the frame is lost and
        /// accounted in [`FaultsReport::frames_lost`]).
        frame: u64,
    },
    /// The panicked stage was restarted (within the circuit-breaker
    /// budget).
    StageRestarted {
        /// The stream.
        stream: usize,
    },
    /// The circuit breaker gave up on the stream; the node keeps running.
    StreamKilled {
        /// The stream.
        stream: usize,
    },
    /// A segment exhausted its retries and was parked in the archive
    /// spill bin.
    Spilled {
        /// The stream that produced the segment.
        stream: usize,
    },
    /// A segment exhausted its retries but the spill bin was full: an
    /// accounted drop.
    SpillDropped {
        /// The stream that produced the segment.
        stream: usize,
    },
    /// A parked segment was re-drained over the recovered link
    /// (delivered-late).
    Redrained {
        /// The stream that produced the segment.
        stream: usize,
    },
    /// The run ended with segments still parked; all became accounted
    /// drops.
    EndOfRunDropped {
        /// Segments dropped at end of run.
        segments: u64,
    },
}

impl std::fmt::Display for FaultEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultEventKind::LinkDown => write!(f, "uplink down"),
            FaultEventKind::LinkUp => write!(f, "uplink recovered"),
            FaultEventKind::CapacityDip { permille } => {
                write!(f, "capacity dip to {}.{}%", permille / 10, permille % 10)
            }
            FaultEventKind::CapacityRestored => write!(f, "capacity restored"),
            FaultEventKind::LossStart { permille } => {
                write!(f, "packet loss {}.{}% begins", permille / 10, permille % 10)
            }
            FaultEventKind::LossEnd => write!(f, "packet loss ends"),
            FaultEventKind::StagePanic { stream, frame } => {
                write!(f, "stream {stream} stage panic at frame {frame}")
            }
            FaultEventKind::StageRestarted { stream } => {
                write!(f, "stream {stream} stage restarted")
            }
            FaultEventKind::StreamKilled { stream } => {
                write!(f, "stream {stream} killed by circuit breaker")
            }
            FaultEventKind::Spilled { stream } => {
                write!(f, "stream {stream} segment spilled to archive")
            }
            FaultEventKind::SpillDropped { stream } => {
                write!(f, "stream {stream} segment dropped (spill bin full)")
            }
            FaultEventKind::Redrained { stream } => {
                write!(f, "stream {stream} segment re-drained (delivered late)")
            }
            FaultEventKind::EndOfRunDropped { segments } => {
                write!(f, "{segments} parked segments dropped at end of run")
            }
        }
    }
}

/// The bit-replayable fault/recovery history of a controlled run: for a
/// fixed [`FaultPlan`] and stream contents it is identical across repeated
/// runs, thread counts, and shard widths (compare with `==`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultTrace {
    /// Every event, in round order.
    pub events: Vec<FaultEvent>,
}

impl FaultTrace {
    /// No fault or recovery event occurred.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Records an event.
    pub fn push(&mut self, round: u64, kind: FaultEventKind) {
        self.events.push(FaultEvent { round, kind });
    }
}

impl std::fmt::Display for FaultTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "(no fault events)");
        }
        for e in &self.events {
            writeln!(f, "round {:>4}: {}", e.round, e.kind)?;
        }
        Ok(())
    }
}

/// Everything the fault/recovery machinery did in one controlled run
/// ([`crate::runtime::ControlledReport::faults`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultsReport {
    /// Where every offered segment ended up (conserves at end of run).
    pub ledger: SegmentLedger,
    /// The bit-replayable fault/recovery event history.
    pub trace: FaultTrace,
    /// Stage restarts per stream.
    pub restarts: Vec<u32>,
    /// Frames lost to stage panics per stream (each panic loses the
    /// in-flight frame).
    pub frames_lost: Vec<u64>,
    /// Segments ever parked in the archive spill bin.
    pub spilled: u64,
    /// Spill pushes refused because the bin was full (accounted drops).
    pub spill_overflow: u64,
    /// Rounds from the last link recovery until the retry queue and spill
    /// bin drained empty — `None` if the link never went down or the
    /// backlog never cleared before the run ended.
    pub recovery_rounds: Option<u64>,
    /// Segments still parked (retry queue or spill bin) when the run
    /// ended — accounted as drops in the ledger, but no longer anonymous:
    /// the datacenter can demand-fetch their content from the node's
    /// archive (see [`crate::hub::CloudHub::fetch_context`]).
    pub parked: Vec<SpilledSegment>,
}

// ---------------------------------------------------------------------------
// The recovering uplink
// ---------------------------------------------------------------------------

/// A segment awaiting retry.
#[derive(Debug, Clone, Copy)]
struct PendingSegment {
    stream: usize,
    bytes: usize,
    /// Delivery attempts already made.
    attempt: u32,
    /// Round at which the next attempt is due.
    due: u64,
    refused_round: u64,
}

/// Per-tick fault counters, drained by the runtime into
/// [`crate::control::FaultTelemetry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkFaultTick {
    /// Fresh segments refused (outage or loss) this tick.
    pub refused: u64,
    /// Retry attempts that failed this tick.
    pub retry_failures: u64,
    /// Segments delivered late (retry success or re-drain) this tick.
    pub delivered_late: u64,
    /// Segments spilled to the archive this tick.
    pub spilled: u64,
    /// Segments dropped (spill overflow) this tick.
    pub dropped: u64,
}

/// The recovery layer over the shared [`Uplink`]: applies the plan's
/// uplink fault schedule, injects seeded packet loss, retries refused
/// segments with [`RetryPolicy`] backoff, spills exhausted segments to an
/// archive [`SpillBin`], trickles the bin back once the link recovers (at
/// most one retry and one re-drain ride each stream slot, so recovery
/// traffic never bursts past the slot cadence), and keeps the
/// [`SegmentLedger`].
///
/// Wire-level accounting note: a refused or lost segment never enters the
/// inner link's queue — the wrapper holds it — so [`Uplink`] bit counters
/// see only traffic that actually reached the wire; the wrapper's ledger
/// is the canonical per-segment view.
#[derive(Debug)]
pub struct RecoveringUplink {
    link: Uplink,
    schedule: Vec<UplinkFault>,
    retry: RetryPolicy,
    loss_rng: StdRng,
    cur_loss: f64,
    pending: VecDeque<PendingSegment>,
    spill: SpillBin,
    ledger: SegmentLedger,
    // Cumulative fault counters, registrable as `faults/*` metrics;
    // `take_tick` differences them against `last_tick` to reproduce the
    // per-tick view [`crate::control::FaultTelemetry`] consumes.
    refused: Counter,
    retry_failures: Counter,
    delivered_late: Counter,
    spilled: Counter,
    dropped: Counter,
    last_tick: UplinkFaultTick,
    last_link_up_round: Option<u64>,
    recovered_round: Option<u64>,
    saw_refusal: bool,
}

impl RecoveringUplink {
    /// Wraps `link` with the plan's uplink schedule and the given recovery
    /// knobs.
    ///
    /// # Panics
    ///
    /// Panics on a retry policy that could never behave (zero base delay
    /// or zero attempts).
    pub fn new(
        link: Uplink,
        schedule: Vec<UplinkFault>,
        recovery: RecoveryConfig,
        loss_seed: u64,
    ) -> Self {
        recovery.retry.validate();
        RecoveringUplink {
            link,
            schedule,
            retry: recovery.retry,
            loss_rng: StdRng::seed_from_u64(loss_seed),
            cur_loss: 0.0,
            pending: VecDeque::new(),
            spill: SpillBin::new(recovery.spill_limit_segments),
            ledger: SegmentLedger::default(),
            refused: Counter::new(),
            retry_failures: Counter::new(),
            delivered_late: Counter::new(),
            spilled: Counter::new(),
            dropped: Counter::new(),
            last_tick: UplinkFaultTick::default(),
            last_link_up_round: None,
            recovered_round: None,
            saw_refusal: false,
        }
    }

    /// Applies the fault schedule for `round`, tracing state transitions.
    /// Call once per round, before the round's offers.
    pub fn begin_round(&mut self, round: u64, trace: &mut FaultTrace) {
        let mut down = false;
        let mut factor = 1.0f64;
        let mut loss = 0.0f64;
        for f in &self.schedule {
            if !f.covers(round) {
                continue;
            }
            match f.kind {
                UplinkFaultKind::Outage => down = true,
                UplinkFaultKind::CapacityFactor(c) => factor = factor.min(c),
                UplinkFaultKind::Loss { rate } => loss = loss.max(rate),
            }
        }
        if down == self.link.link_up() {
            if down {
                trace.push(round, FaultEventKind::LinkDown);
            } else {
                trace.push(round, FaultEventKind::LinkUp);
                self.last_link_up_round = Some(round);
            }
            self.link.set_link_up(!down);
        }
        if factor != self.link.capacity_factor() {
            if factor < 1.0 {
                trace.push(
                    round,
                    FaultEventKind::CapacityDip {
                        permille: (factor * 1000.0).round() as u32,
                    },
                );
            } else {
                trace.push(round, FaultEventKind::CapacityRestored);
            }
            self.link.set_capacity_factor(factor);
        }
        if (loss > 0.0) != (self.cur_loss > 0.0) || loss != self.cur_loss {
            if loss > 0.0 {
                trace.push(
                    round,
                    FaultEventKind::LossStart {
                        permille: (loss * 1000.0).round() as u32,
                    },
                );
            } else {
                trace.push(round, FaultEventKind::LossEnd);
            }
            self.cur_loss = loss;
        }
    }

    /// One stream slot's offer for `round`: the stream's fresh segment
    /// bytes (0 = idle slot). At most one due retry and — when no retry is
    /// due — one spill re-drain ride along. Returns the bits the inner
    /// link delivered this interval.
    pub fn offer(
        &mut self,
        round: u64,
        stream: usize,
        bytes: usize,
        trace: &mut FaultTrace,
    ) -> f64 {
        let up = self.link.link_up();
        let mut wire = 0usize;
        if bytes > 0 {
            self.ledger.offered += 1;
            let lost = up && self.cur_loss > 0.0 && self.loss_rng.gen_bool(self.cur_loss);
            if !up || lost {
                self.refused.inc();
                self.saw_refusal = true;
                self.recovered_round = None;
                self.pending.push_back(PendingSegment {
                    stream,
                    bytes,
                    attempt: 1,
                    due: round + self.retry.delay_rounds(0),
                    refused_round: round,
                });
            } else {
                wire += bytes;
                self.ledger.delivered += 1;
            }
        }
        // One due retry per slot: bounded re-drain, FIFO by re-arm time.
        let retried = if self.pending.front().is_some_and(|p| p.due <= round) {
            let p = self.pending.pop_front().expect("front checked");
            let lost = up && self.cur_loss > 0.0 && self.loss_rng.gen_bool(self.cur_loss);
            if up && !lost {
                wire += p.bytes;
                self.ledger.delivered_late += 1;
                self.delivered_late.inc();
            } else {
                // The attempt burned even while the link is down — real
                // senders time out; bounded retry must terminate.
                self.retry_failures.inc();
                if p.attempt >= self.retry.max_attempts {
                    self.park(p, round, trace);
                } else {
                    self.pending.push_back(PendingSegment {
                        attempt: p.attempt + 1,
                        due: round + self.retry.delay_rounds(p.attempt),
                        ..p
                    });
                }
            }
            true
        } else {
            false
        };
        // Spill re-drain trickle: one parked segment per slot once the
        // link is healthy and no retry claimed the slot.
        if up && !retried {
            if let Some(seg) = self.spill.pop() {
                wire += seg.bytes;
                self.ledger.delivered_late += 1;
                self.delivered_late.inc();
                trace.push(round, FaultEventKind::Redrained { stream: seg.stream });
            }
        }
        if self.saw_refusal
            && up
            && self.recovered_round.is_none()
            && self.pending.is_empty()
            && self.spill.is_empty()
        {
            self.recovered_round = Some(round);
        }
        self.link.offer(wire)
    }

    fn park(&mut self, p: PendingSegment, round: u64, trace: &mut FaultTrace) {
        let seg = SpilledSegment {
            stream: p.stream,
            bytes: p.bytes,
            refused_round: p.refused_round,
        };
        if self.spill.push(seg) {
            self.spilled.inc();
            trace.push(round, FaultEventKind::Spilled { stream: p.stream });
        } else {
            self.ledger.dropped += 1;
            self.dropped.inc();
            trace.push(round, FaultEventKind::SpillDropped { stream: p.stream });
        }
    }

    /// The inner link (for sensors and reports).
    pub fn link(&self) -> &Uplink {
        &self.link
    }

    /// Whether the link is currently up.
    pub fn link_up(&self) -> bool {
        self.link.link_up()
    }

    /// The ledger so far.
    pub fn ledger(&self) -> SegmentLedger {
        self.ledger
    }

    /// Adopts the recovery layer's cumulative fault cells (and the inner
    /// link's accounting cells) into `registry`: `faults/refused`,
    /// `faults/retry_failures`, `faults/delivered_late`, `faults/spilled`,
    /// `faults/dropped`, plus everything [`Uplink::register`] adds. All
    /// deterministic — fault schedules and seeded loss are virtual-time
    /// driven.
    pub fn register(&self, registry: &Registry) {
        registry.register_counter("faults", "refused", &[], &self.refused, false);
        registry.register_counter("faults", "retry_failures", &[], &self.retry_failures, false);
        registry.register_counter("faults", "delivered_late", &[], &self.delivered_late, false);
        registry.register_counter("faults", "spilled", &[], &self.spilled, false);
        registry.register_counter("faults", "dropped", &[], &self.dropped, false);
        self.link.register(registry);
    }

    /// The per-tick fault counters since the last call (for
    /// [`crate::control::FaultTelemetry`]): the cumulative cells
    /// differenced against the previous drain.
    pub fn take_tick(&mut self) -> UplinkFaultTick {
        let cur = UplinkFaultTick {
            refused: self.refused.get(),
            retry_failures: self.retry_failures.get(),
            delivered_late: self.delivered_late.get(),
            spilled: self.spilled.get(),
            dropped: self.dropped.get(),
        };
        let out = UplinkFaultTick {
            refused: cur.refused - self.last_tick.refused,
            retry_failures: cur.retry_failures - self.last_tick.retry_failures,
            delivered_late: cur.delivered_late - self.last_tick.delivered_late,
            spilled: cur.spilled - self.last_tick.spilled,
            dropped: cur.dropped - self.last_tick.dropped,
        };
        self.last_tick = cur;
        out
    }

    /// Ends the run at `round`: all still-parked segments become accounted
    /// drops, so the ledger conserves. Returns the inner link, the final
    /// ledger, spill stats, the recovery time in rounds (last link
    /// recovery → backlog cleared), and the parked segments themselves —
    /// listed so the datacenter can demand-fetch their content from the
    /// node's archive instead of losing it.
    pub fn finish(
        mut self,
        round: u64,
        trace: &mut FaultTrace,
    ) -> (
        Uplink,
        SegmentLedger,
        u64,
        u64,
        Option<u64>,
        Vec<SpilledSegment>,
    ) {
        let mut parked: Vec<SpilledSegment> = self
            .pending
            .iter()
            .map(|p| SpilledSegment {
                stream: p.stream,
                bytes: p.bytes,
                refused_round: p.refused_round,
            })
            .collect();
        while let Some(seg) = self.spill.pop() {
            parked.push(seg);
        }
        if !parked.is_empty() {
            self.ledger.dropped += parked.len() as u64;
            trace.push(
                round,
                FaultEventKind::EndOfRunDropped {
                    segments: parked.len() as u64,
                },
            );
        }
        debug_assert!(self.ledger.conserves(), "ledger must conserve at finish");
        let recovery = match (self.last_link_up_round, self.recovered_round) {
            (Some(up), Some(clear)) if parked.is_empty() => Some(clear.saturating_sub(up)),
            _ => None,
        };
        (
            self.link,
            self.ledger,
            self.spill.spilled(),
            self.spill.overflow(),
            recovery,
            parked,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Uplink {
        Uplink::new(100_000.0, 10.0)
    }

    #[test]
    fn backoff_is_deterministic_monotone_and_bounded() {
        let p = RetryPolicy::default();
        let a: Vec<u64> = (0..p.max_attempts).map(|i| p.delay_rounds(i)).collect();
        let b: Vec<u64> = (0..p.max_attempts).map(|i| p.delay_rounds(i)).collect();
        assert_eq!(a, b, "fixed seed ⇒ fixed schedule");
        for w in a.windows(2) {
            assert!(w[0] <= w[1], "monotone non-decreasing: {a:?}");
        }
        assert!(a.iter().sum::<u64>() <= p.max_total_delay_rounds());
    }

    #[test]
    fn fault_free_wrapper_is_a_pass_through() {
        let mut rec = RecoveringUplink::new(link(), Vec::new(), RecoveryConfig::default(), 7);
        let mut trace = FaultTrace::default();
        for round in 0..20 {
            rec.begin_round(round, &mut trace);
            rec.offer(round, 0, 500, &mut trace);
        }
        assert!(trace.is_empty());
        let (l, ledger, ..) = rec.finish(20, &mut trace);
        assert_eq!(ledger.offered, 20);
        assert_eq!(ledger.delivered, 20);
        assert_eq!((ledger.delivered_late, ledger.dropped), (0, 0));
        assert_eq!(l.offered_bits(), 20 * 500 * 8);
    }

    #[test]
    fn outage_segments_retry_and_deliver_late() {
        let plan = FaultPlan::new().uplink_outage(5, 10);
        let mut rec =
            RecoveringUplink::new(link(), plan.uplink.clone(), RecoveryConfig::default(), 7);
        let mut trace = FaultTrace::default();
        // Offer one segment per round during the outage, then idle slots
        // long enough for every retry to land.
        for round in 0..80 {
            rec.begin_round(round, &mut trace);
            let bytes = if round < 15 { 400 } else { 0 };
            rec.offer(round, 0, bytes, &mut trace);
        }
        let kinds: Vec<_> = trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultEventKind::LinkDown));
        assert!(kinds.contains(&FaultEventKind::LinkUp));
        let (_, ledger, _, _, recovery, parked) = rec.finish(80, &mut trace);
        assert!(parked.is_empty(), "backlog cleared ⇒ nothing parked");
        assert!(ledger.conserves(), "{ledger:?}");
        assert_eq!(ledger.offered, 15);
        assert!(ledger.delivered_late > 0, "{ledger:?}");
        assert_eq!(ledger.dropped, 0, "retry budget suffices here: {ledger:?}");
        assert!(recovery.is_some(), "backlog cleared after recovery");
    }

    #[test]
    fn exhausted_retries_spill_and_overflow_drops() {
        // One delivery attempt, a 2-segment bin, and an outage covering
        // the whole run: everything refused, retried once, spilled until
        // the bin fills, then dropped — and end-of-run drops the parked
        // remainder. Nothing unaccounted.
        let plan = FaultPlan::new().uplink_outage(0, 1000);
        let recovery = RecoveryConfig {
            retry: RetryPolicy {
                base_delay_rounds: 1,
                max_delay_rounds: 1,
                max_attempts: 1,
                jitter_rounds: 0,
                jitter_seed: 0,
            },
            spill_limit_segments: 2,
            max_restarts_per_stream: 2,
        };
        let mut rec = RecoveringUplink::new(link(), plan.uplink.clone(), recovery, 7);
        let mut trace = FaultTrace::default();
        for round in 0..30 {
            rec.begin_round(round, &mut trace);
            let bytes = if round < 6 { 300 } else { 0 };
            rec.offer(round, 0, bytes, &mut trace);
        }
        let kinds: Vec<_> = trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&FaultEventKind::Spilled { stream: 0 }));
        assert!(kinds.contains(&FaultEventKind::SpillDropped { stream: 0 }));
        let (_, ledger, spilled, overflow, recovery, parked) = rec.finish(30, &mut trace);
        assert_eq!(
            parked.len() as u64,
            ledger.dropped - overflow,
            "every non-overflow drop is listed for demand-fetch"
        );
        assert!(ledger.conserves(), "{ledger:?}");
        assert_eq!(ledger.offered, 6);
        assert_eq!(ledger.delivered + ledger.delivered_late, 0);
        assert_eq!(ledger.dropped, 6);
        assert_eq!(spilled, 2);
        assert!(overflow > 0);
        assert!(recovery.is_none(), "the link never recovered");
    }

    #[test]
    fn seeded_loss_is_replayable() {
        let run = || {
            let plan = FaultPlan::new().packet_loss(0, 50, 0.5);
            let mut rec =
                RecoveringUplink::new(link(), plan.uplink.clone(), RecoveryConfig::default(), 1234);
            let mut trace = FaultTrace::default();
            for round in 0..120 {
                rec.begin_round(round, &mut trace);
                let bytes = if round < 50 { 200 } else { 0 };
                rec.offer(round, round as usize % 4, bytes, &mut trace);
            }
            let (_, ledger, ..) = rec.finish(120, &mut trace);
            (ledger, trace)
        };
        let (ledger_a, trace_a) = run();
        let (ledger_b, trace_b) = run();
        assert_eq!(ledger_a, ledger_b);
        assert_eq!(trace_a, trace_b);
        assert!(ledger_a.conserves());
        assert!(ledger_a.delivered > 0, "half the offers should land");
        assert!(
            ledger_a.delivered_late > 0,
            "lost segments should retry in: {ledger_a:?}"
        );
    }

    #[test]
    fn fleet_plan_validation_catches_bad_targets_and_rates() {
        assert_eq!(
            FleetFaultPlan::new().node_crash(8, 0, 5).validate(8),
            Err(FleetFaultError::UnknownNode { node: 8, nodes: 8 })
        );
        assert_eq!(
            FleetFaultPlan::new().hub_partition(0, 5, 4, 4).validate(8),
            Err(FleetFaultError::EmptyPartition { lo: 4, hi: 4 })
        );
        assert_eq!(
            FleetFaultPlan::new().hub_partition(0, 5, 4, 9).validate(8),
            Err(FleetFaultError::UnknownNode { node: 8, nodes: 8 })
        );
        assert_eq!(
            FleetFaultPlan::new().dup_storm(0, 5, 0).validate(8),
            Err(FleetFaultError::EmptyDupStorm)
        );
        assert_eq!(
            FleetFaultPlan::new().node_crash(0, 3, 0).validate(8),
            Err(FleetFaultError::EmptyWindow)
        );
        assert!(matches!(
            FleetFaultPlan::new().message_loss(0, 5, 1.0).validate(8),
            Err(FleetFaultError::InvalidLossRate { .. })
        ));
        let err = FleetFaultPlan::new().message_loss(0, 5, 1.0).validate(8);
        let dyn_err: &dyn std::error::Error = &err.unwrap_err();
        assert!(dyn_err.to_string().contains("loss rate"));

        let plan = FleetFaultPlan::new()
            .node_crash(3, 20, 15)
            .hub_partition(40, 12, 2, 6)
            .dup_storm(60, 10, 2)
            .message_loss(60, 10, 0.25);
        assert!(plan.validate(8).is_ok());
        assert!(plan.crashed(3, 20) && plan.crashed(3, 34) && !plan.crashed(3, 35));
        assert!(!plan.crashed(2, 20));
        assert!(plan.partitioned(5, 45) && !plan.partitioned(6, 45));
        assert_eq!(plan.dup_copies(65), 2);
        assert_eq!(plan.dup_copies(59), 0);
        assert!((plan.loss_rate(60) - 0.25).abs() < 1e-12);
        assert_eq!(plan.loss_rate(70), 0.0);
    }

    #[test]
    fn plan_validation_catches_bad_targets_and_rates() {
        assert_eq!(
            FaultPlan::new().camera_stall(4, 0, 5).validate(4),
            Err(FaultPlanError::UnknownStream {
                stream: 4,
                streams: 4
            })
        );
        assert_eq!(
            FaultPlan::new().stage_panic(9, 0).validate(4),
            Err(FaultPlanError::UnknownStream {
                stream: 9,
                streams: 4
            })
        );
        assert!(matches!(
            FaultPlan::new().packet_loss(0, 5, 1.5).validate(4),
            Err(FaultPlanError::InvalidLossRate { .. })
        ));
        assert!(matches!(
            FaultPlan::new().capacity_dip(0, 5, 0.0).validate(4),
            Err(FaultPlanError::InvalidCapacityFactor { .. })
        ));
        assert_eq!(
            FaultPlan::new().uplink_outage(3, 0).validate(4),
            Err(FaultPlanError::EmptyWindow)
        );
        // The error is a uniform std::error::Error like the rest of
        // ff_core's typed errors.
        let err = FaultPlan::new()
            .packet_loss(0, 5, 2.0)
            .validate(1)
            .unwrap_err();
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.to_string().contains("loss rate"));
    }
}
