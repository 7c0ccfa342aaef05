//! The datacenter half of FilterForward: a [`CloudHub`] that fans in
//! event segments from a fleet of edge nodes and survives everything the
//! transport throws at it — duplicate delivery, reordering, loss, node
//! crashes, and partitioned uplinks.
//!
//! The paper's edge nodes exist to feed datacenter applications (§3.2):
//! matched event segments stream up the constrained uplink, applications
//! subscribe to composite [`Query`]s over event classes, and full-quality
//! context is demand-fetched from the nodes' local archives. This module
//! supplies that cloud tier with the same discipline the node side already
//! has: **virtual time, seeded randomness, and conservation ledgers**, so
//! a 200-node fleet under scripted chaos replays bit-for-bit (see
//! [`crate::fleet`] for the simulation loop that drives it).
//!
//! # Fleet lifecycle
//!
//! ```text
//!   EDGE NODE                      WIRE                     CLOUD HUB
//!
//!  register ──────────────────────────────────────────▶ DedupWindow per node
//!      │                                                       │
//!  stream: seq-stamped          at-least-once:                 │
//!  event segments ─────────▶ loss / duplication /  ──────▶ admit(seq):
//!      │ ▲                      reordering                 fresh → subscriptions
//!      │ └── ack ◀──────────── (acks lossy too) ◀───────── dup   → ack again
//!      │                                                   gap   → hold window
//!  crash ✗ (volatile state lost;                               │
//!      │   journal + checkpoint                                │
//!      │   survive)                                            │
//!  rejoin: resume from last                                    │
//!  checkpointed ack; re-offers ──▶ duplicates ────────▶ absorbed by the
//!      │   are retransmissions                          dedup window —
//!      │                                                no double delivery
//!  retries exhausted ⇒ spill ──▶ spill notice ────────▶ demand-fetch from the
//!          to local archive                             node archive (bounded
//!                                                       retries while the node
//!                                                       is crashed/partitioned)
//! ```
//!
//! # Exactly-once accounting on an at-least-once wire
//!
//! Per-node **monotone sequence numbers** plus a bounded hub-side
//! [`DedupWindow`] make delivery *effectively exactly-once*: every segment
//! is admitted fresh at most once, duplicates are counted and re-acked
//! (the first ack may have been lost), and sequence numbers past the
//! window are refused un-acked so the sender holds them until the gap
//! fills. The [`FleetLedger`] pins the fleet-wide conservation invariant
//! `Σ_nodes offered == delivered + delivered_late + dropped + spilled` at
//! end of run — the fleet analogue of the single-node
//! [`crate::faults::SegmentLedger`].
//!
//! # Determinism
//!
//! The hub never iterates hash maps into observable state, shard-parallel
//! ingestion ([`CloudHub::ingest_sharded`]) only touches per-node dedup
//! state in the parallel phase and merges effects in global message order,
//! and every trace event is a pure function of the fleet's seeded inputs —
//! so the [`HubTrace`] is byte-identical across repeated runs and shard
//! widths, and each node's sub-trace ([`HubTrace::for_node`]) is identical
//! across fleet sizes.

use std::collections::{BTreeSet, HashSet};

use crate::archive::{EdgeArchive, FetchError};
use crate::events::McId;
use crate::query::Query;
use ff_obs::{Counter, Registry, Span, SpanTracer};
use ff_tensor::PoolShard;
use ff_video::Frame;

// ---------------------------------------------------------------------------
// Identifiers
// ---------------------------------------------------------------------------

/// Identifier of an edge node within one fleet (dense, starting at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node {}", self.0)
    }
}

/// A versioned microclassifier deployment (staged rollouts bump this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct McVersion(pub u32);

impl std::fmt::Display for McVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of an application subscription at the hub.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(pub usize);

// ---------------------------------------------------------------------------
// Event segments
// ---------------------------------------------------------------------------

/// One matched event segment offered up a node's uplink: the unit of
/// node→hub delivery and of [`FleetLedger`] accounting. `seq` is monotone
/// per node (assigned at generation from the node's durable journal, so a
/// crash-restart never reuses one), which is what lets the hub's
/// [`DedupWindow`] turn at-least-once transport into effectively
/// exactly-once accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventSegment {
    /// The node that produced the segment.
    pub node: NodeId,
    /// Per-node monotone sequence number.
    pub seq: u64,
    /// Event classes present in the segment (the MCs that matched);
    /// subscriptions evaluate their [`Query`] against this set.
    pub classes: Vec<McId>,
    /// Virtual-time round the segment was generated.
    pub round: u64,
    /// Encoded size in bytes.
    pub bytes: usize,
    /// The MC version that produced the segment.
    pub version: McVersion,
}

// ---------------------------------------------------------------------------
// The dedup window
// ---------------------------------------------------------------------------

/// What the hub decided about one arriving sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// First sight of this sequence number: deliver to subscribers and ack.
    Fresh,
    /// Already admitted (retransmission or duplicate copy): ack again —
    /// the first ack may have been lost — but deliver nothing.
    Duplicate,
    /// Too far past the window's low watermark: refused *without* an ack,
    /// so the sender keeps it until the gap fills. Bounds hub memory.
    OutOfWindow,
}

/// A bounded per-node dedup window: admits each sequence number **at most
/// once**, in any arrival order, while holding at most `cap` entries.
///
/// Invariant: every `seq < low_watermark` has been admitted; the set of
/// admitted seqs ≥ the watermark (arrivals that jumped a gap) never
/// exceeds `cap`. A seq at or past `low_watermark + cap` is refused
/// [`Admit::OutOfWindow`] — never silently admitted — so memory stays
/// bounded without ever risking a double delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupWindow {
    low: u64,
    recent: BTreeSet<u64>,
    cap: usize,
    dup_hits: u64,
    out_of_window: u64,
}

impl DedupWindow {
    /// A window holding at most `cap` out-of-order admissions.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` (the window could never admit past a gap).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "dedup window needs capacity");
        DedupWindow {
            low: 0,
            recent: BTreeSet::new(),
            cap,
            dup_hits: 0,
            out_of_window: 0,
        }
    }

    /// Classifies one arriving sequence number, admitting it if fresh.
    /// Idempotent: after a seq is admitted, every re-arrival is
    /// [`Admit::Duplicate`] forever.
    pub fn admit(&mut self, seq: u64) -> Admit {
        if seq < self.low || self.recent.contains(&seq) {
            self.dup_hits += 1;
            return Admit::Duplicate;
        }
        if seq > self.low + self.cap as u64 {
            self.out_of_window += 1;
            return Admit::OutOfWindow;
        }
        self.recent.insert(seq);
        while self.recent.remove(&self.low) {
            self.low += 1;
        }
        Admit::Fresh
    }

    /// Every sequence number below this has been admitted.
    pub fn low_watermark(&self) -> u64 {
        self.low
    }

    /// Admitted seqs currently held above the watermark (≤ `cap`).
    pub fn held(&self) -> usize {
        self.recent.len()
    }

    /// Duplicate arrivals absorbed.
    pub fn dup_hits(&self) -> u64 {
        self.dup_hits
    }

    /// Arrivals refused for being past the window.
    pub fn out_of_window(&self) -> u64 {
        self.out_of_window
    }
}

// ---------------------------------------------------------------------------
// The fleet ledger
// ---------------------------------------------------------------------------

/// Where every event segment a fleet offered ended up, summed over nodes
/// (or kept per node): the fleet analogue of the single-node
/// [`crate::faults::SegmentLedger`], with one extra terminal bucket —
/// **spilled** segments stay parked in the node's local archive (a
/// terminal fate for the live path; the hub demand-fetches their content
/// out of band, see [`HubEventKind::FetchOk`]).
///
/// Buckets record the *node's* view of transport fate. An ack lost often
/// enough can make a node spill a segment the hub in fact admitted; the
/// segment is still in exactly one bucket — conservation never bends —
/// and the hub's duplicate counters record the overlap.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetLedger {
    /// Segments generated and journaled (offered to the transport).
    pub offered: u64,
    /// Acked on the first transmission.
    pub delivered: u64,
    /// Acked after at least one retransmission.
    pub delivered_late: u64,
    /// Retry budget exhausted with no spill capacity left, or the run
    /// ended with the segment still unsettled.
    pub dropped: u64,
    /// Retry budget exhausted; parked in the node's local archive and
    /// announced to the hub for demand-fetch.
    pub spilled: u64,
}

impl FleetLedger {
    /// Segments whose fate is settled.
    pub fn accounted(&self) -> u64 {
        self.delivered + self.delivered_late + self.dropped + self.spilled
    }

    /// Segments still in flight (mid-run only).
    pub fn in_flight(&self) -> u64 {
        self.offered - self.accounted()
    }

    /// `offered == delivered + delivered_late + dropped + spilled` —
    /// every segment's fate settled and accounted.
    pub fn conserves(&self) -> bool {
        self.accounted() == self.offered
    }

    /// Accumulates another ledger (for the fleet-wide sum).
    pub fn absorb(&mut self, other: &FleetLedger) {
        self.offered += other.offered;
        self.delivered += other.delivered;
        self.delivered_late += other.delivered_late;
        self.dropped += other.dropped;
        self.spilled += other.spilled;
    }
}

impl std::fmt::Display for FleetLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} offered = {} delivered + {} late + {} dropped + {} spilled (conserves: {})",
            self.offered,
            self.delivered,
            self.delivered_late,
            self.dropped,
            self.spilled,
            self.conserves()
        )
    }
}

// ---------------------------------------------------------------------------
// The hub trace
// ---------------------------------------------------------------------------

/// One fleet fault/recovery/control event, stamped with its round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubEvent {
    /// Virtual-time round of the event.
    pub round: u64,
    /// What happened.
    pub kind: HubEventKind,
}

/// What a [`HubEvent`] records. Per-segment admissions are folded into
/// counters (the trace stays bounded by fault transitions, spills, and
/// fetches — not by fleet throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HubEventKind {
    /// A node crashed: volatile transport state (unacked outbox, ack set
    /// past the last checkpoint) is lost; the journal survives.
    NodeCrashed {
        /// The node.
        node: NodeId,
    },
    /// A crashed node restarted from its checkpoint journal and resumed
    /// offering from `resume_seq` (re-offers are absorbed as duplicates).
    NodeRejoined {
        /// The node.
        node: NodeId,
        /// First sequence number the node re-offers from.
        resume_seq: u64,
    },
    /// Nodes `lo..hi` lost both directions of their uplink.
    PartitionStart {
        /// First partitioned node.
        lo: usize,
        /// One past the last partitioned node.
        hi: usize,
    },
    /// The partition healed.
    PartitionEnd {
        /// First partitioned node.
        lo: usize,
        /// One past the last partitioned node.
        hi: usize,
    },
    /// Every wire send now emits this many extra copies.
    DupStormStart {
        /// Extra copies per send.
        copies: u32,
    },
    /// The duplicate storm ended.
    DupStormEnd,
    /// Seeded per-message loss began (rate in permille).
    LossStart {
        /// Loss rate × 1000.
        permille: u32,
    },
    /// Per-message loss ended.
    LossEnd,
    /// A staged rollout of `version` began on `canary` canary nodes.
    RolloutStarted {
        /// The version being deployed.
        version: McVersion,
        /// Canary nodes (the lowest node ids).
        canary: usize,
    },
    /// The canary window closed clean; the version deployed fleet-wide.
    RolloutPromoted {
        /// The promoted version.
        version: McVersion,
    },
    /// The canary cohort regressed (event rate vs control, in permille);
    /// canary nodes were rolled back to the previous version.
    RolloutRolledBack {
        /// The rolled-back version.
        version: McVersion,
        /// Canary/control accepted-rate ratio × 1000.
        ratio_permille: u32,
    },
    /// A node announced segments parked in its local archive.
    SpillNotice {
        /// The node.
        node: NodeId,
        /// Segments parked and not yet fetched.
        parked: usize,
    },
    /// A demand fetch of a spilled segment's content succeeded.
    FetchOk {
        /// The node fetched from.
        node: NodeId,
        /// The spilled segment's sequence number.
        seq: u64,
        /// Bytes pulled over the backhaul.
        bytes: usize,
        /// The attempt that succeeded (1-based).
        attempt: u32,
    },
    /// A demand fetch exhausted its bounded retries (node stayed
    /// unreachable).
    FetchFailed {
        /// The node.
        node: NodeId,
        /// The spilled segment's sequence number.
        seq: u64,
        /// Attempts made.
        attempts: u32,
    },
}

impl HubEventKind {
    /// The node this event concerns, if it is a per-node event (used by
    /// [`HubTrace::for_node`]; fleet-wide events return `None`).
    pub fn node(&self) -> Option<NodeId> {
        match self {
            HubEventKind::NodeCrashed { node }
            | HubEventKind::NodeRejoined { node, .. }
            | HubEventKind::SpillNotice { node, .. }
            | HubEventKind::FetchOk { node, .. }
            | HubEventKind::FetchFailed { node, .. } => Some(*node),
            _ => None,
        }
    }
}

impl std::fmt::Display for HubEventKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubEventKind::NodeCrashed { node } => write!(f, "{node} crashed"),
            HubEventKind::NodeRejoined { node, resume_seq } => {
                write!(f, "{node} rejoined, resuming from seq {resume_seq}")
            }
            HubEventKind::PartitionStart { lo, hi } => {
                write!(f, "nodes {lo}..{hi} partitioned from the hub")
            }
            HubEventKind::PartitionEnd { lo, hi } => {
                write!(f, "partition of nodes {lo}..{hi} healed")
            }
            HubEventKind::DupStormStart { copies } => {
                write!(f, "duplicate storm begins ({copies} extra copies per send)")
            }
            HubEventKind::DupStormEnd => write!(f, "duplicate storm ends"),
            HubEventKind::LossStart { permille } => {
                write!(
                    f,
                    "message loss {}.{}% begins",
                    permille / 10,
                    permille % 10
                )
            }
            HubEventKind::LossEnd => write!(f, "message loss ends"),
            HubEventKind::RolloutStarted { version, canary } => {
                write!(f, "rollout of {version} begins on {canary} canary nodes")
            }
            HubEventKind::RolloutPromoted { version } => {
                write!(f, "{version} promoted fleet-wide")
            }
            HubEventKind::RolloutRolledBack {
                version,
                ratio_permille,
            } => write!(
                f,
                "{version} rolled back (canary rate {}.{}x control)",
                ratio_permille / 1000,
                ratio_permille % 1000
            ),
            HubEventKind::SpillNotice { node, parked } => {
                write!(f, "{node} announces {parked} spilled segments")
            }
            HubEventKind::FetchOk {
                node,
                seq,
                bytes,
                attempt,
            } => write!(
                f,
                "demand-fetch {node} seq {seq} ok ({bytes} bytes, attempt {attempt})"
            ),
            HubEventKind::FetchFailed {
                node,
                seq,
                attempts,
            } => write!(
                f,
                "demand-fetch {node} seq {seq} failed after {attempts} attempts"
            ),
        }
    }
}

/// The bit-replayable fleet history: for a fixed [`crate::fleet::FleetConfig`]
/// it is identical across repeated runs and hub shard widths (compare with
/// `==` or via `Display`), and each node's sub-trace ([`Self::for_node`])
/// is identical across fleet sizes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HubTrace {
    /// Every event, in round order.
    pub events: Vec<HubEvent>,
}

impl HubTrace {
    /// No event occurred.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Records an event.
    pub fn push(&mut self, round: u64, kind: HubEventKind) {
        self.events.push(HubEvent { round, kind });
    }

    /// The sub-trace of per-node events concerning `node` — the unit that
    /// replays identically across fleet sizes (a node's fate depends only
    /// on its own seeded streams and fault windows, never on how many
    /// neighbours it has).
    pub fn for_node(&self, node: NodeId) -> HubTrace {
        HubTrace {
            events: self
                .events
                .iter()
                .filter(|e| e.kind.node() == Some(node))
                .copied()
                .collect(),
        }
    }
}

impl std::fmt::Display for HubTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.events.is_empty() {
            return writeln!(f, "(no fleet events)");
        }
        for e in &self.events {
            writeln!(f, "round {:>4}: {}", e.round, e.kind)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Rollout
// ---------------------------------------------------------------------------

/// A staged fleet-wide deployment of one MC version: canary first, then
/// promote — or roll back if the canary cohort's accepted-event rate
/// regresses against the control cohort (a misfiring version shows up as
/// an event-rate blowup before any human looks at accuracy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RolloutPlan {
    /// The version to deploy.
    pub version: McVersion,
    /// Round the canary deployment begins.
    pub start_round: u64,
    /// Canary cohort size (the lowest node ids).
    pub canary_nodes: usize,
    /// Rounds the canary cohort is observed before the verdict.
    pub canary_rounds: u64,
    /// Roll back when `canary_rate > regression_factor × control_rate`.
    pub regression_factor: f64,
}

impl Default for RolloutPlan {
    fn default() -> Self {
        RolloutPlan {
            version: McVersion(2),
            start_round: 0,
            canary_nodes: 4,
            canary_rounds: 24,
            regression_factor: 2.0,
        }
    }
}

/// How a staged rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// The canary window closed clean; the version went fleet-wide.
    Promoted {
        /// The promoted version.
        version: McVersion,
    },
    /// The canary cohort regressed; canary nodes reverted.
    RolledBack {
        /// The rolled-back version.
        version: McVersion,
        /// Canary/control accepted-rate ratio × 1000.
        ratio_permille: u32,
    },
}

// ---------------------------------------------------------------------------
// The hub
// ---------------------------------------------------------------------------

/// Why a hub operation failed.
#[derive(Debug, PartialEq)]
pub enum HubError {
    /// The node id was never registered with this hub.
    UnknownNode {
        /// The offending node.
        node: NodeId,
    },
    /// The node has no archive attached ([`CloudHub::attach_archive`]).
    NoArchive {
        /// The node.
        node: NodeId,
    },
    /// A subscription query references no MC (it could never match).
    EmptyQuery,
    /// The node's archive refused the fetch.
    Fetch(FetchError),
}

impl std::fmt::Display for HubError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HubError::UnknownNode { node } => write!(f, "{node} is not registered"),
            HubError::NoArchive { node } => write!(f, "{node} has no archive attached"),
            HubError::EmptyQuery => write!(f, "subscription query references no MC"),
            HubError::Fetch(e) => write!(f, "archive fetch failed: {e}"),
        }
    }
}

impl std::error::Error for HubError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HubError::Fetch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FetchError> for HubError {
    fn from(e: FetchError) -> Self {
        HubError::Fetch(e)
    }
}

/// One application subscription: a composite [`Query`] over event classes.
#[derive(Debug, Clone)]
pub struct Subscription {
    /// The subscription id.
    pub id: SubId,
    /// The query, evaluated against each fresh segment's class set.
    pub query: Query,
    /// Fresh segments whose class set matched the query.
    pub deliveries: u64,
}

#[derive(Debug)]
struct HubNodeState {
    dedup: DedupWindow,
    accepted: Counter,
    archive: Option<EdgeArchive>,
}

/// The datacenter hub: per-node dedup windows, application subscriptions,
/// and demand-fetch against attached node archives. Drive it directly
/// ([`Self::ingest`]) from a real pipeline, or at fleet scale through
/// [`crate::fleet::Fleet`].
#[derive(Debug)]
pub struct CloudHub {
    nodes: Vec<HubNodeState>,
    subs: Vec<Subscription>,
    /// (node, seq) pairs ever delivered to subscribers — membership only,
    /// never iterated, so determinism is untouched.
    delivered_keys: HashSet<(usize, u64)>,
    double_deliveries: Counter,
    accepted: Counter,
    /// Every arrival the hub saw (fresh + duplicate + out-of-window),
    /// counted in the single-threaded merge order.
    ingested: Counter,
    /// Duplicate verdicts, counted at the hub level (the per-node
    /// [`DedupWindow`]s keep their own authoritative window counts).
    dup_verdicts: Counter,
    /// Out-of-window verdicts, counted at the hub level.
    oow_verdicts: Counter,
    dedup_cap: usize,
    trace: HubTrace,
    /// When observability is enabled: the adopted registry (so nodes
    /// registered later still get their cells) and the span ring fed by
    /// every ingest verdict, keyed by the segment's virtual round.
    obs_registry: Option<Registry>,
    spans: Option<SpanTracer>,
}

impl CloudHub {
    /// A hub whose per-node dedup windows hold at most `dedup_cap`
    /// out-of-order admissions.
    pub fn new(dedup_cap: usize) -> Self {
        assert!(dedup_cap >= 1, "dedup window needs capacity");
        CloudHub {
            nodes: Vec::new(),
            subs: Vec::new(),
            delivered_keys: HashSet::new(),
            double_deliveries: Counter::new(),
            accepted: Counter::new(),
            ingested: Counter::new(),
            dup_verdicts: Counter::new(),
            oow_verdicts: Counter::new(),
            dedup_cap,
            trace: HubTrace::default(),
            obs_registry: None,
            spans: None,
        }
    }

    /// Adopts the hub's counters into `registry` (`hub/ingested`,
    /// `hub/accepted`, `hub/dup_verdicts`, `hub/out_of_window`,
    /// `hub/double_deliveries`, and per-node `hub/node_accepted{node=i}`)
    /// and starts a span ring of `trace_capacity` recording one span per
    /// ingest verdict, keyed by the segment's virtual round. All
    /// deterministic: verdicts are counted in the single-threaded merge
    /// order, which is byte-identical across hub shard widths.
    pub fn enable_obs(&mut self, registry: &Registry, trace_capacity: usize) {
        registry.register_counter("hub", "ingested", &[], &self.ingested, false);
        registry.register_counter("hub", "accepted", &[], &self.accepted, false);
        registry.register_counter("hub", "dup_verdicts", &[], &self.dup_verdicts, false);
        registry.register_counter("hub", "out_of_window", &[], &self.oow_verdicts, false);
        registry.register_counter(
            "hub",
            "double_deliveries",
            &[],
            &self.double_deliveries,
            false,
        );
        for (i, node) in self.nodes.iter().enumerate() {
            registry.register_counter(
                "hub",
                "node_accepted",
                &[("node", &i.to_string())],
                &node.accepted,
                false,
            );
        }
        self.obs_registry = Some(registry.clone());
        self.spans = Some(SpanTracer::new(trace_capacity));
    }

    /// Drains the retained ingest spans (empty when observability is off).
    pub fn take_spans(&mut self) -> Vec<Span> {
        self.spans
            .as_mut()
            .map(|t| {
                let v = t.to_vec();
                *t = SpanTracer::new(t.capacity());
                v
            })
            .unwrap_or_default()
    }

    /// Registers the next node; ids are dense from 0.
    pub fn register_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len());
        let accepted = Counter::new();
        if let Some(registry) = &self.obs_registry {
            registry.register_counter(
                "hub",
                "node_accepted",
                &[("node", &id.0.to_string())],
                &accepted,
                false,
            );
        }
        self.nodes.push(HubNodeState {
            dedup: DedupWindow::new(self.dedup_cap),
            accepted,
            archive: None,
        });
        id
    }

    /// Registered nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Subscribes an application to segments whose class set matches
    /// `query`.
    ///
    /// # Errors
    ///
    /// [`HubError::EmptyQuery`] if the query references no MC.
    pub fn subscribe(&mut self, query: Query) -> Result<SubId, HubError> {
        if query.referenced_mcs().is_empty() {
            return Err(HubError::EmptyQuery);
        }
        let id = SubId(self.subs.len());
        self.subs.push(Subscription {
            id,
            query,
            deliveries: 0,
        });
        Ok(id)
    }

    /// The subscriptions, in registration order.
    pub fn subscriptions(&self) -> &[Subscription] {
        &self.subs
    }

    /// Fresh segments delivered to subscription `sub`.
    pub fn sub_deliveries(&self, sub: SubId) -> u64 {
        self.subs[sub.0].deliveries
    }

    /// Ingests one segment arrival: dedups, and on a fresh admit delivers
    /// to every matching subscription.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownNode`] if the segment's node was never
    /// registered.
    pub fn ingest(&mut self, seg: &EventSegment) -> Result<Admit, HubError> {
        let idx = seg.node.0;
        if idx >= self.nodes.len() {
            return Err(HubError::UnknownNode { node: seg.node });
        }
        let verdict = self.nodes[idx].dedup.admit(seg.seq);
        self.apply_fresh(seg, verdict);
        Ok(verdict)
    }

    /// Ingests one round's arrivals with the dedup phase partitioned over
    /// `shards` hub shards (nodes assigned by `node % shards`). Returns
    /// `(msg_id, Admit)` verdicts in ascending `msg_id` order.
    ///
    /// The parallel phase touches only per-node dedup windows — each node
    /// belongs to exactly one shard — and all cross-node effects
    /// (acceptance counters, subscription deliveries) are applied in the
    /// single-threaded merge in global `msg_id` order, so the observable
    /// outcome is byte-identical for every shard width.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownNode`] on the first arrival from an unregistered
    /// node (no arrival is applied).
    pub fn ingest_sharded(
        &mut self,
        arrivals: &[(u64, EventSegment)],
        shards: usize,
    ) -> Result<Vec<(u64, Admit)>, HubError> {
        let shards = shards.max(1);
        for (_, seg) in arrivals {
            if seg.node.0 >= self.nodes.len() {
                return Err(HubError::UnknownNode { node: seg.node });
            }
        }
        let mut verdicts: Vec<(u64, Admit)> = Vec::with_capacity(arrivals.len());
        if shards == 1 {
            for (msg_id, seg) in arrivals {
                let v = self.nodes[seg.node.0].dedup.admit(seg.seq);
                verdicts.push((*msg_id, v));
            }
        } else {
            // Move each involved node's dedup window out, run the shard
            // partitions as jobs on a worker pool, then put the windows back.
            let mut shard_work: Vec<Vec<(usize, u64, usize, u64)>> = vec![Vec::new(); shards];
            for (i, (msg_id, seg)) in arrivals.iter().enumerate() {
                let node = seg.node.0;
                shard_work[node % shards].push((i, *msg_id, node, seg.seq));
            }
            let mut windows: Vec<Option<(usize, DedupWindow)>> = Vec::new();
            let mut taken: Vec<Option<usize>> = vec![None; self.nodes.len()];
            for work in &shard_work {
                for &(_, _, node, _) in work {
                    if taken[node].is_none() {
                        taken[node] = Some(windows.len());
                        let w = std::mem::replace(&mut self.nodes[node].dedup, DedupWindow::new(1));
                        windows.push(Some((node, w)));
                    }
                }
            }
            let mut slots: Vec<(u64, Admit)> = vec![(0, Admit::Fresh); arrivals.len()];
            {
                // Hand each shard its own windows: regroup by shard.
                let mut shard_windows: Vec<Vec<(usize, DedupWindow)>> =
                    (0..shards).map(|_| Vec::new()).collect();
                for w in windows.iter_mut() {
                    let (node, win) = w.take().expect("window present");
                    shard_windows[node % shards].push((node, win));
                }
                // One job per shard: it admits its partition against its
                // own node windows and returns the `(slot, msg_id, verdict)`
                // triples to merge.
                let results = PoolShard::new(shards).run_items(&mut shard_windows, |i, wins| {
                    let work = &shard_work[i];
                    let mut res = Vec::with_capacity(work.len());
                    for &(slot, msg_id, node, seq) in work {
                        let win = wins
                            .iter_mut()
                            .find(|(n, _)| *n == node)
                            .map(|(_, w)| w)
                            .expect("node assigned to this shard");
                        res.push((slot, msg_id, win.admit(seq)));
                    }
                    res
                });
                for (wins, res) in shard_windows.into_iter().zip(results) {
                    for (node, win) in wins {
                        self.nodes[node].dedup = win;
                    }
                    for (slot, msg_id, v) in res.expect("shard panicked") {
                        slots[slot] = (msg_id, v);
                    }
                }
            }
            verdicts = slots;
        }
        // Merge phase: cross-node effects in global msg-id order.
        debug_assert!(verdicts.windows(2).all(|w| w[0].0 <= w[1].0));
        for ((_, verdict), (_, seg)) in verdicts.iter().zip(arrivals.iter()) {
            self.apply_fresh(seg, *verdict);
        }
        Ok(verdicts)
    }

    fn apply_fresh(&mut self, seg: &EventSegment, verdict: Admit) {
        self.ingested.inc();
        let kind = match verdict {
            Admit::Fresh => "fresh",
            Admit::Duplicate => {
                self.dup_verdicts.inc();
                "dup"
            }
            Admit::OutOfWindow => {
                self.oow_verdicts.inc();
                "out_of_window"
            }
        };
        if let Some(tracer) = &mut self.spans {
            tracer.emit(Span::new(
                seg.round,
                seg.node.0 as u32,
                "hub",
                kind,
                seg.seq,
            ));
        }
        if verdict != Admit::Fresh {
            return;
        }
        self.accepted.inc();
        self.nodes[seg.node.0].accepted.inc();
        if !self.delivered_keys.insert((seg.node.0, seg.seq)) {
            self.double_deliveries.inc();
        }
        for sub in &mut self.subs {
            if sub.query.matches_classes(&seg.classes) {
                sub.deliveries += 1;
            }
        }
    }

    /// Fresh segments accepted fleet-wide.
    pub fn accepted(&self) -> u64 {
        self.accepted.get()
    }

    /// Fresh segments accepted from one node.
    pub fn node_accepted(&self, node: NodeId) -> u64 {
        self.nodes[node.0].accepted.get()
    }

    /// Duplicate arrivals absorbed, summed over nodes.
    pub fn dup_hits(&self) -> u64 {
        self.nodes.iter().map(|n| n.dedup.dup_hits()).sum()
    }

    /// Arrivals refused past the dedup window, summed over nodes.
    pub fn out_of_window(&self) -> u64 {
        self.nodes.iter().map(|n| n.dedup.out_of_window()).sum()
    }

    /// Segments that would have reached subscribers twice — held at zero
    /// by the dedup windows (monotone seqs never recycle, so a fresh admit
    /// happens at most once per segment).
    pub fn double_deliveries(&self) -> u64 {
        self.double_deliveries.get()
    }

    /// One node's dedup window (for reports and tests).
    pub fn dedup_window(&self, node: NodeId) -> &DedupWindow {
        &self.nodes[node.0].dedup
    }

    /// The fleet event trace.
    pub fn trace(&self) -> &HubTrace {
        &self.trace
    }

    /// Mutable trace access for the fleet loop driving this hub.
    pub fn trace_mut(&mut self) -> &mut HubTrace {
        &mut self.trace
    }

    /// Attaches a node's archive so applications can demand-fetch context
    /// through the hub.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownNode`] if the node was never registered.
    pub fn attach_archive(&mut self, node: NodeId, archive: EdgeArchive) -> Result<(), HubError> {
        if node.0 >= self.nodes.len() {
            return Err(HubError::UnknownNode { node });
        }
        self.nodes[node.0].archive = Some(archive);
        Ok(())
    }

    /// Demand-fetches full-quality context frames `[start, end)` from a
    /// node's attached archive, paying the archive's GOP-aligned byte
    /// cost.
    ///
    /// # Errors
    ///
    /// [`HubError::UnknownNode`], [`HubError::NoArchive`], or the
    /// archive's own [`FetchError`] wrapped in [`HubError::Fetch`].
    pub fn fetch_context(
        &self,
        node: NodeId,
        start: usize,
        end: usize,
    ) -> Result<(Vec<Frame>, usize), HubError> {
        let state = self
            .nodes
            .get(node.0)
            .ok_or(HubError::UnknownNode { node })?;
        let archive = state.archive.as_ref().ok_or(HubError::NoArchive { node })?;
        Ok(archive.demand_fetch(start, end)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(node: usize, seq: u64, classes: &[usize]) -> EventSegment {
        EventSegment {
            node: NodeId(node),
            seq,
            classes: classes.iter().map(|&c| McId(c)).collect(),
            round: seq,
            bytes: 500,
            version: McVersion(1),
        }
    }

    #[test]
    fn dedup_admits_each_seq_exactly_once() {
        let mut w = DedupWindow::new(8);
        assert_eq!(w.admit(0), Admit::Fresh);
        assert_eq!(w.admit(0), Admit::Duplicate);
        assert_eq!(w.admit(2), Admit::Fresh); // gap: 1 missing
        assert_eq!(w.admit(2), Admit::Duplicate);
        assert_eq!(w.low_watermark(), 1);
        assert_eq!(w.admit(1), Admit::Fresh); // gap fills
        assert_eq!(w.low_watermark(), 3);
        assert_eq!(w.admit(1), Admit::Duplicate, "below the watermark");
        assert_eq!(w.dup_hits(), 3);
    }

    #[test]
    fn dedup_window_is_bounded() {
        let mut w = DedupWindow::new(4);
        // seq 0 never arrives; 1..=4 fill the window.
        for s in 1..=4 {
            assert_eq!(w.admit(s), Admit::Fresh);
        }
        assert!(w.held() <= 4);
        assert_eq!(w.admit(5), Admit::OutOfWindow, "window full, gap at 0");
        assert_eq!(w.out_of_window(), 1);
        // The gap fills: watermark jumps past everything held.
        assert_eq!(w.admit(0), Admit::Fresh);
        assert_eq!(w.low_watermark(), 5);
        assert_eq!(w.admit(5), Admit::Fresh, "refused seq retries in later");
    }

    #[test]
    fn hub_counts_subscriptions_on_fresh_only() {
        let mut hub = CloudHub::new(16);
        let n = hub.register_node();
        let sub = hub
            .subscribe(Query::mc(McId(0)).and(Query::mc(McId(1))))
            .unwrap();
        let s = seg(n.0, 0, &[0, 1]);
        assert_eq!(hub.ingest(&s).unwrap(), Admit::Fresh);
        assert_eq!(hub.ingest(&s).unwrap(), Admit::Duplicate);
        assert_eq!(hub.ingest(&s).unwrap(), Admit::Duplicate);
        assert_eq!(hub.sub_deliveries(sub), 1, "delivered exactly once");
        assert_eq!(hub.ingest(&seg(n.0, 1, &[0])).unwrap(), Admit::Fresh);
        assert_eq!(hub.sub_deliveries(sub), 1, "class set must match");
        assert_eq!(hub.double_deliveries(), 0);
        assert_eq!(hub.accepted(), 2);
        assert_eq!(hub.dup_hits(), 2);
    }

    #[test]
    fn sharded_ingest_matches_single_shard() {
        let mut arrivals: Vec<(u64, EventSegment)> = (0..40u64)
            .map(|i| {
                let node = (i % 5) as usize;
                let s = i / 5;
                // Per-node seqs arrive slightly reordered (s ^ 1 swaps pairs).
                (i * 2, seg(node, s ^ 1, &[(s % 3) as usize]))
            })
            .collect();
        // Then a duplicate storm replays every segment with fresh msg ids.
        let dups: Vec<(u64, EventSegment)> = arrivals
            .iter()
            .map(|(id, seg)| (100 + id, seg.clone()))
            .collect();
        arrivals.extend(dups);
        let run = |shards: usize| {
            let mut hub = CloudHub::new(8);
            for _ in 0..5 {
                hub.register_node();
            }
            let sub = hub.subscribe(Query::mc(McId(0))).unwrap();
            let verdicts = hub.ingest_sharded(&arrivals, shards).unwrap();
            (
                verdicts,
                hub.accepted(),
                hub.dup_hits(),
                hub.sub_deliveries(sub),
            )
        };
        let base = run(1);
        for shards in [2, 3, 4] {
            assert_eq!(run(shards), base, "shard width {shards} must not matter");
        }
    }

    #[test]
    fn hub_errors_are_typed_and_displayable() {
        let mut hub = CloudHub::new(4);
        let err = hub.ingest(&seg(3, 0, &[0])).unwrap_err();
        assert_eq!(err, HubError::UnknownNode { node: NodeId(3) });
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.to_string().contains("not registered"));
        assert!(hub
            .subscribe(Query::mc(McId(0)).and(Query::mc(McId(0)).not()))
            .is_ok());
        let n = hub.register_node();
        assert_eq!(
            hub.fetch_context(n, 0, 5).unwrap_err(),
            HubError::NoArchive { node: n }
        );
    }

    #[test]
    fn trace_filters_per_node_events() {
        let mut t = HubTrace::default();
        t.push(3, HubEventKind::NodeCrashed { node: NodeId(7) });
        t.push(4, HubEventKind::LossStart { permille: 100 });
        t.push(
            9,
            HubEventKind::NodeRejoined {
                node: NodeId(7),
                resume_seq: 12,
            },
        );
        t.push(9, HubEventKind::NodeCrashed { node: NodeId(2) });
        let sub = t.for_node(NodeId(7));
        assert_eq!(sub.len(), 2);
        assert!(sub.events.iter().all(|e| e.kind.node() == Some(NodeId(7))));
        let shown = format!("{t}");
        assert!(shown.contains("node 7 crashed"));
        assert!(shown.contains("message loss 10.0% begins"));
    }
}
