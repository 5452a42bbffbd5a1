//! Typed errors for the protocol layer.
//!
//! Lint rule **R2** (see `crates/analyze`) bans `unwrap`/`expect`/`panic!`
//! from `proto/src`: every failure an actor or the driver can hit must
//! surface as a [`ProtoError`] instead of tearing the thread down with an
//! unnamed panic. The variants map one-to-one onto the invariants of the
//! Section 5 transaction protocol; those one node's state machine checks
//! are `bwfirst-core`'s [`MachineError`], wrapped here.

use crate::wire::WireError;
use bwfirst_core::MachineError;
use bwfirst_obs::json::{obj, Value};
use std::fmt;

/// The counterpart a node was talking to when a link failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// The node's parent in the tree (or the virtual parent for the root).
    Parent,
    /// A child, by node id.
    Child(u32),
    /// The driver's report channel.
    Driver,
}

impl fmt::Display for Peer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Peer::Parent => write!(f, "parent"),
            Peer::Child(id) => write!(f, "child P{id}"),
            Peer::Driver => write!(f, "driver"),
        }
    }
}

/// Everything that can go wrong inside an actor or the driving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// A channel to a peer was closed while the protocol still needed it.
    ChannelClosed {
        /// The node that observed the closed link.
        node: u32,
        /// Which peer went away.
        peer: Peer,
    },
    /// A node's state machine refused a message (mid-round proposal,
    /// unexpected or invalid ack, unknown child).
    Machine(MachineError),
    /// A task was routed to a node whose negotiation assigned it no work.
    NoSchedule {
        /// The node without a schedule.
        node: u32,
    },
    /// A control message targeted a node outside this subtree.
    UnroutableControl {
        /// The node whose routing table had no entry.
        node: u32,
        /// The unreachable target.
        target: u32,
    },
    /// The `lcm` of the local periods exceeded the `i128` range.
    PeriodOverflow {
        /// The node building its schedule.
        node: u32,
    },
    /// The platform is missing the link weight into a child.
    MissingLink {
        /// The child whose incoming link has no weight.
        child: u32,
    },
    /// `set_link` was asked to re-weight the (virtual) link into the root.
    NoParent {
        /// The root id.
        child: u32,
    },
    /// An actor thread could not be spawned.
    Spawn {
        /// The node whose thread failed to start.
        node: u32,
        /// The OS error, stringified.
        error: String,
    },
    /// The driver↔root link was closed or mis-wired.
    DriverLinkClosed,
    /// A transport (socket / framing) error from the wire layer.
    Transport(WireError),
}

impl ProtoError {
    /// A stable kebab-case tag for dashboards and post-mortems.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoError::ChannelClosed { .. } => "channel-closed",
            ProtoError::Machine(MachineError::MidRound { .. }) => "mid-round",
            ProtoError::Machine(MachineError::UnexpectedAck { .. }) => "unexpected-ack",
            ProtoError::Machine(MachineError::InvalidAck { .. }) => "invalid-ack",
            ProtoError::Machine(MachineError::UnknownChild { .. }) => "unknown-child",
            ProtoError::NoSchedule { .. } => "no-schedule",
            ProtoError::UnroutableControl { .. } => "unroutable-control",
            ProtoError::PeriodOverflow { .. } => "period-overflow",
            ProtoError::MissingLink { .. } => "missing-link",
            ProtoError::NoParent { .. } => "no-parent",
            ProtoError::Spawn { .. } => "spawn",
            ProtoError::DriverLinkClosed => "driver-link-closed",
            ProtoError::Transport(_) => "transport",
        }
    }

    /// The node the error is attributed to, when one is known.
    #[must_use]
    pub fn node(&self) -> Option<u32> {
        match self {
            ProtoError::ChannelClosed { node, .. }
            | ProtoError::Machine(
                MachineError::MidRound { node }
                | MachineError::UnexpectedAck { node, .. }
                | MachineError::InvalidAck { node, .. }
                | MachineError::UnknownChild { node, .. },
            )
            | ProtoError::NoSchedule { node }
            | ProtoError::UnroutableControl { node, .. }
            | ProtoError::PeriodOverflow { node }
            | ProtoError::Spawn { node, .. } => Some(*node),
            ProtoError::MissingLink { child } | ProtoError::NoParent { child } => Some(*child),
            ProtoError::DriverLinkClosed | ProtoError::Transport(_) => None,
        }
    }

    /// The shared violation-object shape (`layer`/`kind`/`message`, plus
    /// `node` when attributable) used by `bwfirst-postmortem/1` artifacts —
    /// the same schema the simulator's runtime monitors emit, so protocol
    /// and simulator failures are tooled identically.
    #[must_use]
    pub fn to_violation_json(&self) -> Value {
        let mut members = vec![
            ("layer", Value::Str("proto".to_string())),
            ("kind", Value::Str(self.kind().to_string())),
            ("message", Value::Str(self.to_string())),
        ];
        if let Some(node) = self.node() {
            members.push(("node", Value::Int(i128::from(node))));
        }
        obj(members)
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::ChannelClosed { node, peer } => {
                write!(f, "P{node}: link to {peer} closed mid-protocol")
            }
            ProtoError::Machine(e) => write!(f, "{e}"),
            ProtoError::NoSchedule { node } => {
                write!(f, "P{node}: received a task but negotiated no work")
            }
            ProtoError::UnroutableControl { node, target } => {
                write!(f, "P{node}: control target P{target} not in subtree")
            }
            ProtoError::PeriodOverflow { node } => {
                write!(f, "P{node}: period lcm exceeds i128 range")
            }
            ProtoError::MissingLink { child } => {
                write!(f, "platform has no link weight into P{child}")
            }
            ProtoError::NoParent { child } => {
                write!(f, "P{child} has no parent link to re-weight")
            }
            ProtoError::Spawn { node, error } => {
                write!(f, "cannot spawn actor thread for P{node}: {error}")
            }
            ProtoError::DriverLinkClosed => write!(f, "driver↔root link closed"),
            ProtoError::Transport(e) => write!(f, "transport: {e}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<MachineError> for ProtoError {
    fn from(e: MachineError) -> ProtoError {
        ProtoError::Machine(e)
    }
}

impl From<WireError> for ProtoError {
    fn from(e: WireError) -> ProtoError {
        ProtoError::Transport(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    #[test]
    fn violation_json_carries_the_shared_shape() {
        let e = MachineError::InvalidAck { node: 3, from: 7, theta: rat(2, 1), beta: rat(1, 1) };
        let e = ProtoError::from(e);
        let v = e.to_violation_json();
        assert_eq!(v["layer"].as_str(), Some("proto"));
        assert_eq!(v["kind"].as_str(), Some("invalid-ack"));
        assert!(v["message"].as_str().is_some_and(|m| m.contains("P3")));
        assert_eq!(v["node"].as_i128(), Some(3));
    }

    #[test]
    fn machine_errors_keep_their_kinds() {
        let cases = [
            (MachineError::MidRound { node: 1 }, "mid-round"),
            (MachineError::UnexpectedAck { node: 2, from: 5 }, "unexpected-ack"),
            (
                MachineError::InvalidAck { node: 3, from: 6, theta: rat(2, 1), beta: rat(1, 1) },
                "invalid-ack",
            ),
            (MachineError::UnknownChild { node: 4, child: 9 }, "unknown-child"),
        ];
        for (k, (e, kind)) in cases.into_iter().enumerate() {
            let message = e.to_string();
            let e = ProtoError::from(e);
            assert_eq!(e.kind(), kind);
            assert_eq!(e.node(), Some(k as u32 + 1));
            assert_eq!(e.to_string(), message);
        }
    }

    #[test]
    fn unattributable_errors_omit_the_node() {
        let v = ProtoError::DriverLinkClosed.to_violation_json();
        assert_eq!(v["kind"].as_str(), Some("driver-link-closed"));
        assert!(v["node"].is_null());
        assert!(ProtoError::DriverLinkClosed.node().is_none());
    }
}
