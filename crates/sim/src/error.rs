//! Typed errors for the simulator executors.
//!
//! Lint rule **R2** (see `crates/analyze`) bans `unwrap`/`expect`/`panic!`
//! from the engine and event-loop files: a malformed schedule/platform pair
//! surfaces as a [`SimError`] from `simulate*` instead of a panic deep in
//! the event loop.

use bwfirst_core::ScheduleError;
use bwfirst_platform::NodeId;
use std::fmt;

/// Everything an executor can reject about its inputs mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// Rebuilding a schedule failed (period lcm overflow).
    Schedule(ScheduleError),
    /// The root has no schedule: a zero-throughput platform has nothing to
    /// simulate.
    InactiveRoot,
    /// A task was routed to a node without a local schedule.
    NoSchedule(NodeId),
    /// The platform is missing the link weight into a node.
    MissingLink(NodeId),
    /// A `Compute` action landed on a switch (infinite processing time).
    SwitchComputes(NodeId),
    /// A schedule slot assigned work to a node with nothing pending — the
    /// schedule and the arrival stream disagree.
    EmptyQueue(NodeId),
    /// The platform's steady state has zero throughput; the executor cannot
    /// pace injection.
    NotSchedulable,
    /// The schedule was built for another platform: it schedules this node,
    /// or a send to it, where the platform has no such node or edge.
    ForeignSchedule(NodeId),
    /// The executor does not accept this input (the reason says why).
    BadInput(&'static str),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Schedule(e) => write!(f, "schedule reconstruction failed: {e}"),
            SimError::InactiveRoot => write!(f, "root is inactive: nothing to simulate"),
            SimError::NoSchedule(n) => write!(f, "{n} received a task but has no schedule"),
            SimError::MissingLink(n) => write!(f, "platform has no link weight into {n}"),
            SimError::SwitchComputes(n) => write!(f, "{n} is a switch but was told to compute"),
            SimError::EmptyQueue(n) => write!(f, "{n} scheduled work with an empty queue"),
            SimError::NotSchedulable => write!(f, "steady state has zero throughput"),
            SimError::ForeignSchedule(n) => {
                write!(f, "the schedule does not fit this platform at {n}")
            }
            SimError::BadInput(why) => f.write_str(why),
        }
    }
}

impl std::error::Error for SimError {}

impl From<ScheduleError> for SimError {
    fn from(e: ScheduleError) -> SimError {
        SimError::Schedule(e)
    }
}
