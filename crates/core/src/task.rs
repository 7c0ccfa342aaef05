//! Actor-style per-stream **tasks** for the node's round loop.
//!
//! Each camera stream in [`crate::runtime::EdgeNode::run_controlled`] is one
//! [`StreamTask`]: a lightweight state machine owning the stream's source,
//! pipeline, and frame **mailbox**, multiplexed with every other
//! stream onto one budget-wide worker pool. A task costs a few hundred
//! bytes while sleeping — no threads, no channels — which is what lets one
//! node carry 1000+ mostly-idle duty-cycled cameras (see the state-machine
//! diagram in [`crate::runtime`]).
//!
//! The scheduler (the virtual-time round loop) drives every transition
//! from its own thread. The one time a task leaves it is on loan to a pool
//! job for the span of a round's decode and inference, which touches only
//! the task's pipeline and pending verdicts; results are folded back in
//! stream order —
//! so every field here is a pure function of (round, stream content) and the
//! run's traces stay bit-replayable.

use std::collections::VecDeque;

use ff_video::{Frame, FrameSource};

use crate::faults::{FaultEventKind, FaultTrace};
use crate::pipeline::{FilterForward, FrameVerdict};

/// Life-cycle state of a [`StreamTask`].
///
/// See [`crate::runtime`] for the full diagram. `Suspended` mirrors the
/// watchdog's quarantine census: a suspended task still polls its source
/// and drains its mailbox (quarantine moves compute priority, never
/// correctness), so suspension changes no verdict and no trace byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// No frame in flight: the duty-cycle schedule has the camera idle (or
    /// it has not produced its first frame yet). Costs one source poll per
    /// round and nothing else.
    Sleeping,
    /// A frame arrived and work is in flight (mailbox non-empty or served
    /// this round).
    Awake,
    /// Quarantined by the watchdog; polls and drains like `Awake`/`Sleeping`
    /// but is counted out of the healthy set.
    Suspended,
    /// Source ended and the pipeline flushed: the task is done.
    Ended,
    /// The stage-panic circuit breaker killed the stream.
    Killed,
}

/// One stream as a message-passing state machine: source + pipeline +
/// mailbox + the per-stream counters the fault and control planes read.
///
/// The fields are driven by the node's round loop (the scheduler); the
/// public accessors expose the state for tests and
/// telemetry.
pub struct StreamTask {
    /// The camera (possibly wrapped in fault or duty-cycle adapters).
    pub(crate) source: Box<dyn FrameSource>,
    /// The stream's pipeline; `None` once finished (flushed or killed).
    pub(crate) ff: Option<FilterForward>,
    /// Frames awaiting service, as the source delivered them: pixels only,
    /// converted to a tensor by the pool job that serves them (the bounded
    /// task mailbox — the scheduler skips the poll when it is full).
    pub(crate) mailbox: VecDeque<Frame>,
    /// Whether the source has reported end-of-stream.
    pub(crate) source_open: bool,
    /// Frames served (sent to inference) so far — the frame index the
    /// panic schedule keys on.
    pub(crate) served: u64,
    /// Stage restarts consumed from the circuit-breaker budget.
    pub(crate) restarts: u32,
    /// Frames lost to stage panics.
    pub(crate) frames_lost: u64,
    /// Verdicts finalized this round, awaiting the uplink offer.
    pub(crate) pending: Vec<FrameVerdict>,
    /// Watchdog quarantine flag (the telemetry census). Kept separate from
    /// [`TaskState`] so a quarantined stream that ends keeps counting as
    /// quarantined until an explicit readmit — exactly the pre-task
    /// semantics.
    pub(crate) suspended: bool,
    state: TaskState,
    rounds_since_wake: u64,
    arrived_this_round: bool,
}

impl std::fmt::Debug for StreamTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamTask")
            .field("state", &self.state)
            .field("mailbox", &self.mailbox.len())
            .field("served", &self.served)
            .field("rounds_since_wake", &self.rounds_since_wake)
            .finish()
    }
}

impl StreamTask {
    /// A task for one stream, initially [`TaskState::Sleeping`] with an
    /// empty mailbox.
    pub fn new(source: Box<dyn FrameSource>, ff: FilterForward) -> Self {
        StreamTask {
            source,
            ff: Some(ff),
            mailbox: VecDeque::new(),
            source_open: true,
            served: 0,
            restarts: 0,
            frames_lost: 0,
            pending: Vec::new(),
            suspended: false,
            state: TaskState::Sleeping,
            rounds_since_wake: 0,
            arrived_this_round: false,
        }
    }

    /// Current life-cycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Frames waiting for service.
    pub fn mailbox_depth(&self) -> usize {
        self.mailbox.len()
    }

    /// Rounds since a frame last arrived (0 = a frame arrived this round).
    /// A sleeping duty-cycled camera reads a growing age — the telemetry
    /// signal that distinguishes "scheduled idle" from "drained queue".
    pub fn rounds_since_wake(&self) -> u64 {
        self.rounds_since_wake
    }

    /// Starts a scheduler round: clears the arrival flag the end-of-round
    /// sleep rule reads.
    pub(crate) fn begin_round(&mut self) {
        self.arrived_this_round = false;
    }

    /// Delivers a frame into the mailbox. Returns `true` when the delivery
    /// *woke* the task (Sleeping → Awake) — the scheduler logs that edge as
    /// a `(round, stream)` wake event.
    pub(crate) fn deliver(&mut self, frame: Frame) -> bool {
        self.mailbox.push_back(frame);
        self.arrived_this_round = true;
        self.rounds_since_wake = 0;
        if self.state == TaskState::Sleeping {
            self.state = TaskState::Awake;
            true
        } else {
            false
        }
    }

    /// Ends a scheduler round: a round with no arrival ages the task, and
    /// an awake task whose mailbox drained with nothing new goes back to
    /// sleep (so an always-on camera wakes exactly once and stays awake).
    pub(crate) fn end_round(&mut self) {
        if self.arrived_this_round {
            return;
        }
        self.rounds_since_wake = self.rounds_since_wake.saturating_add(1);
        if self.state == TaskState::Awake && self.mailbox.is_empty() {
            self.state = TaskState::Sleeping;
        }
    }

    /// Watchdog quarantine: labels the task suspended. The task keeps
    /// polling and draining (quarantine is a priority decision, not a
    /// correctness one), so this transition is invisible to verdicts and
    /// fault traces.
    pub(crate) fn suspend(&mut self) {
        self.suspended = true;
        if !matches!(self.state, TaskState::Ended | TaskState::Killed) {
            self.state = TaskState::Suspended;
        }
    }

    /// Watchdog readmit: back to `Awake` or `Sleeping` by mailbox content.
    pub(crate) fn resume(&mut self) {
        self.suspended = false;
        if self.state == TaskState::Suspended {
            self.state = if self.mailbox.is_empty() {
                TaskState::Sleeping
            } else {
                TaskState::Awake
            };
        }
    }

    /// Marks the task finished after a normal close (source ended, mailbox
    /// drained, pipeline flushed).
    pub(crate) fn finish_closed(&mut self) {
        if self.state != TaskState::Killed {
            self.state = TaskState::Ended;
        }
    }

    /// Marks the task killed by the stage-panic circuit breaker.
    pub(crate) fn kill(&mut self) {
        self.state = TaskState::Killed;
    }

    /// The stage serving `frame` of `stream` panicked in `round`: the
    /// in-flight frame is lost, and the task restarts within the breaker
    /// budget (`true`) or is killed past it (`false`). Logs the panic and
    /// its outcome to the fault trace.
    pub(crate) fn stage_panicked(
        &mut self,
        round: u64,
        stream: usize,
        frame: u64,
        max_restarts: u32,
        restarts: &ff_obs::Counter,
        trace: &mut FaultTrace,
    ) -> bool {
        self.frames_lost += 1;
        trace.push(round, FaultEventKind::StagePanic { stream, frame });
        let restart = self.restarts < max_restarts;
        if restart {
            self.restarts += 1;
            restarts.inc();
            trace.push(round, FaultEventKind::StageRestarted { stream });
        } else {
            trace.push(round, FaultEventKind::StreamKilled { stream });
            self.kill();
        }
        restart
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{FilterForward, PipelineConfig};
    use ff_video::scene::SceneConfig;
    use ff_video::{Resolution, SceneSource};

    fn task() -> StreamTask {
        let res = Resolution::new(32, 16);
        let cfg = SceneConfig {
            resolution: res,
            seed: 1,
            ..Default::default()
        };
        let source = Box::new(SceneSource::new(cfg, 4));
        // A deferred pipeline skips the base-DNN build: these tests drive
        // the state machine, never inference.
        let ff = FilterForward::new_deferred(PipelineConfig::new(res, 15.0));
        StreamTask::new(source, ff)
    }

    fn frame() -> Frame {
        Frame::black(Resolution::new(32, 16))
    }

    #[test]
    fn wakes_on_delivery_and_sleeps_when_drained() {
        let mut t = task();
        assert_eq!(t.state(), TaskState::Sleeping);
        t.begin_round();
        assert!(t.deliver(frame()), "first delivery must report the wake");
        assert!(!t.deliver(frame()), "an awake task does not re-wake");
        assert_eq!(t.state(), TaskState::Awake);
        assert_eq!(t.rounds_since_wake(), 0);
        t.end_round();
        // Arrived this round: no aging, no sleep even with a full mailbox.
        assert_eq!(t.rounds_since_wake(), 0);
        assert_eq!(t.state(), TaskState::Awake);

        // An idle round with a non-empty mailbox keeps the task awake…
        t.begin_round();
        t.end_round();
        assert_eq!(t.state(), TaskState::Awake);
        assert_eq!(t.rounds_since_wake(), 1);
        // …and once the mailbox drains, the next idle round sleeps it.
        t.mailbox.clear();
        t.begin_round();
        t.end_round();
        assert_eq!(t.state(), TaskState::Sleeping);
        assert_eq!(t.rounds_since_wake(), 2);

        // Re-delivery wakes it again and resets the age.
        t.begin_round();
        assert!(t.deliver(frame()));
        assert_eq!(t.rounds_since_wake(), 0);
    }

    #[test]
    fn suspension_preserves_mailbox_and_resumes_by_content() {
        let mut t = task();
        t.begin_round();
        t.deliver(frame());
        t.suspend();
        assert_eq!(t.state(), TaskState::Suspended);
        assert!(t.suspended);
        assert_eq!(t.mailbox_depth(), 1, "quarantine must not drop frames");
        t.resume();
        assert_eq!(
            t.state(),
            TaskState::Awake,
            "non-empty mailbox resumes awake"
        );
        t.mailbox.clear();
        t.suspend();
        t.resume();
        assert_eq!(
            t.state(),
            TaskState::Sleeping,
            "empty mailbox resumes asleep"
        );
    }

    #[test]
    fn terminal_states_shadow_suspension() {
        let mut t = task();
        t.kill();
        t.suspend();
        assert_eq!(t.state(), TaskState::Killed, "killed stays killed");
        assert!(t.suspended, "…but the quarantine census still counts it");

        let mut t2 = task();
        t2.finish_closed();
        assert_eq!(t2.state(), TaskState::Ended);
        t2.suspend();
        assert_eq!(t2.state(), TaskState::Ended);
    }
}
