//! The pure `BW-First` negotiation state machine of one node.
//!
//! [`NodeMachine`] is Algorithm 1 with the transport stripped out: feed it a
//! proposal or an acknowledgment, get back the **single** message the
//! protocol requires next. Every traversal in the workspace runs it: the
//! in-process solvers ([`bw_first`](crate::bw_first), [`crate::lazy`],
//! [`crate::float`]) through the synchronous driver of [`crate::driver`], the
//! threaded actors of `bwfirst-proto` over channels, and the exhaustive
//! model checker in `crates/analyze` over an in-memory network, exploring
//! every delivery interleaving. Keeping them all on one state machine is
//! what makes the checker's verdicts about the shipped solver and protocol
//! rather than a model of them.
//!
//! A round at one node is a strict alternation — proposal in, then for each
//! fundable child in bandwidth-centric order: proposal out, ack in — so the
//! machine is a small cursor over that sequence plus the `δ`/`τ` budgets of
//! the paper. The arithmetic is a type parameter ([`Num`]): exact [`Rat`]
//! everywhere but the throughput-only evaluator of [`crate::float`].

use bwfirst_rational::Rat;
use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// The arithmetic a [`NodeMachine`] runs on: exact [`Rat`], or `f64` in
/// [`crate::float`].
pub trait Num:
    Copy
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// Zero.
    const ZERO: Self;
    /// One: the port time `τ` a round starts with.
    const ONE: Self;
}

impl Num for Rat {
    const ZERO: Rat = Rat::ZERO;
    const ONE: Rat = Rat::ONE;
}

/// The smaller of `a` and `b`, `a` on a tie (as [`Rat::min`]).
fn min<N: PartialOrd>(a: N, b: N) -> N {
    if a <= b {
        a
    } else {
        b
    }
}

/// A message a machine refuses: the protocol invariants of Section 5.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError<N = Rat> {
    /// A node received a proposal while a round was already in flight.
    MidRound {
        /// The node that was mid-round.
        node: u32,
    },
    /// An acknowledgment arrived from a child the node was not awaiting.
    UnexpectedAck {
        /// The receiving node.
        node: u32,
        /// The child that acked out of turn.
        from: u32,
    },
    /// An acknowledgment violated `0 ≤ θ ≤ β` for the pending proposal.
    InvalidAck {
        /// The receiving node.
        node: u32,
        /// The acking child.
        from: u32,
        /// The refused amount it sent.
        theta: N,
        /// The proposal it was answering.
        beta: N,
    },
    /// A message referenced a child id this node does not have.
    UnknownChild {
        /// The parent doing the lookup.
        node: u32,
        /// The missing child id.
        child: u32,
    },
}

impl<N: fmt::Display> fmt::Display for MachineError<N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::MidRound { node } => {
                write!(f, "P{node}: proposal received while a round is in flight")
            }
            MachineError::UnexpectedAck { node, from } => {
                write!(f, "P{node}: unexpected ack from P{from}")
            }
            MachineError::InvalidAck { node, from, theta, beta } => {
                write!(f, "P{node}: ack θ={theta} from P{from} outside [0, β={beta}]")
            }
            MachineError::UnknownChild { node, child } => {
                write!(f, "P{node}: no child P{child}")
            }
        }
    }
}

impl<N: fmt::Debug + fmt::Display> std::error::Error for MachineError<N> {}

/// What the protocol requires the node to transmit next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outgoing<N = Rat> {
    /// Propose `beta` tasks per time unit to the child in `slot`.
    ToChild {
        /// Index into [`NodeMachine::children`].
        slot: usize,
        /// The child's node id.
        child: u32,
        /// The offered rate `β`.
        beta: N,
    },
    /// The round is over at this node: refuse `theta` back to the parent.
    AckParent {
        /// The refused rate `θ` (the unplaced remainder `δ`).
        theta: N,
    },
}

/// Where the machine is inside a round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// No round in flight.
    Idle,
    /// A proposal is out to `order[k]`; only that child's ack may come next.
    Awaiting { k: usize },
}

/// One node's negotiation state: own computing rate, child links, and the
/// budgets of the current round. Pure — no channels, no clocks, no I/O.
#[derive(Debug, Clone)]
pub struct NodeMachine<N = Rat> {
    id: u32,
    rate: N,
    /// `(child id, link time c)` in slot order.
    children: Vec<(u32, N)>,
    phase: Phase,
    /// Bandwidth-centric visiting order (slots sorted by `c`, ties by id).
    order: Vec<usize>,
    /// Next position in `order` to consider.
    pos: usize,
    /// The `β` of the outstanding proposal, if any.
    pending_beta: N,
    lambda: N,
    alpha: N,
    delta: N,
    tau: N,
    eta_in: N,
    flows: Vec<N>,
    proposals_sent: u64,
    visited: bool,
}

impl<N: Num> NodeMachine<N> {
    /// A fresh machine for node `id` with computing rate `rate` (`1/w`, zero
    /// for a switch) and outgoing links (`(child id, link time c)`).
    #[must_use]
    pub fn new(id: u32, rate: N, children: Vec<(u32, N)>) -> NodeMachine<N> {
        let n = children.len();
        NodeMachine {
            id,
            rate,
            children,
            phase: Phase::Idle,
            order: Vec::new(),
            pos: 0,
            pending_beta: N::ZERO,
            lambda: N::ZERO,
            alpha: N::ZERO,
            delta: N::ZERO,
            tau: N::ZERO,
            eta_in: N::ZERO,
            flows: vec![N::ZERO; n],
            proposals_sent: 0,
            visited: false,
        }
    }

    /// The node's id.
    #[must_use]
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The node's current computing rate.
    #[must_use]
    pub fn rate(&self) -> N {
        self.rate
    }

    /// The outgoing links, `(child id, link time c)`, in slot order.
    #[must_use]
    pub fn children(&self) -> &[(u32, N)] {
        &self.children
    }

    /// Re-rates the node's processor (dynamic adaptation).
    pub fn set_rate(&mut self, rate: N) {
        self.rate = rate;
    }

    /// Re-weights the link into `child`.
    ///
    /// # Errors
    /// [`MachineError::UnknownChild`] if `child` is not a child of this node.
    pub fn set_link(&mut self, child: u32, c: N) -> Result<(), MachineError<N>> {
        let slot = self.child_slot(child)?;
        self.children[slot].1 = c;
        Ok(())
    }

    /// Slot of `child` in [`children`](Self::children).
    ///
    /// # Errors
    /// [`MachineError::UnknownChild`] if `child` is not a child of this node.
    pub fn child_slot(&self, child: u32) -> Result<usize, MachineError<N>> {
        self.children
            .iter()
            .position(|&(id, _)| id == child)
            .ok_or(MachineError::UnknownChild { node: self.id, child })
    }

    /// Starts a round: the parent proposes `λ` tasks per time unit.
    ///
    /// Resets the round state, takes `α = min(rate, λ)` for the local CPU,
    /// and returns the first required transmission — either a proposal to
    /// the cheapest fundable child or, if nothing is left to delegate, the
    /// final ack to the parent.
    ///
    /// # Errors
    /// [`MachineError::MidRound`] if a round is already in flight.
    pub fn on_proposal(&mut self, lambda: N) -> Result<Outgoing<N>, MachineError<N>> {
        if self.phase != Phase::Idle {
            return Err(MachineError::MidRound { node: self.id });
        }
        self.visited = true;
        self.lambda = lambda;
        self.alpha = min(self.rate, lambda);
        self.delta = lambda - self.alpha;
        self.tau = N::ONE;
        self.flows.clear();
        self.flows.resize(self.children.len(), N::ZERO);
        self.proposals_sent = 0;
        // Bandwidth-centric order over *local* link knowledge.
        let children = &self.children;
        self.order.clear();
        self.order.extend(0..children.len());
        self.order.sort_by(|&a, &b| {
            let ((ida, ca), (idb, cb)) = (children[a], children[b]);
            ca.partial_cmp(&cb).unwrap_or(std::cmp::Ordering::Equal).then(ida.cmp(&idb))
        });
        self.pos = 0;
        Ok(self.advance())
    }

    /// Delivers the ack `θ` from child `from` for the outstanding proposal.
    ///
    /// Books the consumed bandwidth and returns the next required
    /// transmission.
    ///
    /// # Errors
    /// [`MachineError::UnexpectedAck`] if no proposal to `from` is
    /// outstanding; [`MachineError::InvalidAck`] if `θ ∉ [0, β]`.
    pub fn on_ack(&mut self, from: u32, theta: N) -> Result<Outgoing<N>, MachineError<N>> {
        let Phase::Awaiting { k } = self.phase else {
            return Err(MachineError::UnexpectedAck { node: self.id, from });
        };
        let slot = self.order[k];
        let (child, c) = self.children[slot];
        if child != from {
            return Err(MachineError::UnexpectedAck { node: self.id, from });
        }
        if theta < N::ZERO || theta > self.pending_beta {
            return Err(MachineError::InvalidAck {
                node: self.id,
                from,
                theta,
                beta: self.pending_beta,
            });
        }
        let consumed = self.pending_beta - theta;
        self.flows[slot] = consumed;
        self.delta = self.delta - consumed;
        self.tau = self.tau - consumed * c;
        self.pos = k + 1;
        self.phase = Phase::Idle;
        Ok(self.advance())
    }

    /// Emits the next transmission: a proposal to the next fundable child,
    /// or the closing ack once budgets or children run out.
    fn advance(&mut self) -> Outgoing<N> {
        if self.pos < self.order.len() && self.delta > N::ZERO && self.tau > N::ZERO {
            let slot = self.order[self.pos];
            let (child, c) = self.children[slot];
            let beta = min(self.delta, self.tau / c);
            self.pending_beta = beta;
            self.phase = Phase::Awaiting { k: self.pos };
            self.proposals_sent += 1;
            return Outgoing::ToChild { slot, child, beta };
        }
        self.eta_in = self.lambda - self.delta;
        self.phase = Phase::Idle;
        self.pos = self.order.len();
        Outgoing::AckParent { theta: self.delta }
    }

    /// `true` iff no proposal is outstanding.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.phase == Phase::Idle
    }

    /// The child whose ack the machine is waiting on, if any.
    #[must_use]
    pub fn awaiting(&self) -> Option<u32> {
        match self.phase {
            Phase::Idle => None,
            Phase::Awaiting { k } => Some(self.children[self.order[k]].0),
        }
    }

    /// `true` iff the node has taken part in a round since construction.
    #[must_use]
    pub fn visited(&self) -> bool {
        self.visited
    }

    /// The proposal `λ` of the last round.
    #[must_use]
    pub fn lambda(&self) -> N {
        self.lambda
    }

    /// Negotiated local compute rate `α` of the last round.
    #[must_use]
    pub fn alpha(&self) -> N {
        self.alpha
    }

    /// Negotiated inflow rate `η_in = λ − δ` of the last round.
    #[must_use]
    pub fn eta_in(&self) -> N {
        self.eta_in
    }

    /// Per-slot delegated rates `η_i` of the last round.
    #[must_use]
    pub fn flows(&self) -> &[N] {
        &self.flows
    }

    /// Proposals this node sent during the last round.
    #[must_use]
    pub fn proposals_sent(&self) -> u64 {
        self.proposals_sent
    }
}

impl NodeMachine<Rat> {
    /// Serializes the full machine state into `out` — the memoization key
    /// the model checker hashes to prune revisited interleavings. Two
    /// machines with equal keys behave identically under every future
    /// delivery.
    pub fn state_key(&self, out: &mut Vec<u8>) {
        fn push_rat(out: &mut Vec<u8>, r: Rat) {
            out.extend_from_slice(&r.numer().to_le_bytes());
            out.extend_from_slice(&r.denom().to_le_bytes());
        }
        out.extend_from_slice(&self.id.to_le_bytes());
        push_rat(out, self.rate);
        for &(id, c) in &self.children {
            out.extend_from_slice(&id.to_le_bytes());
            push_rat(out, c);
        }
        match self.phase {
            Phase::Idle => out.push(0),
            Phase::Awaiting { k } => {
                out.push(1);
                out.extend_from_slice(&(k as u64).to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.pos as u64).to_le_bytes());
        push_rat(out, self.pending_beta);
        push_rat(out, self.lambda);
        push_rat(out, self.alpha);
        push_rat(out, self.delta);
        push_rat(out, self.tau);
        push_rat(out, self.eta_in);
        for &f in &self.flows {
            push_rat(out, f);
        }
        out.extend_from_slice(&self.proposals_sent.to_le_bytes());
        out.push(u8::from(self.visited));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::Weight;
    use bwfirst_rational::rat;

    fn machine_with_two_children() -> NodeMachine {
        // Links: child 1 at c=1/2 (cheap), child 2 at c=2 (expensive).
        NodeMachine::new(0, Weight::Time(Rat::ONE).rate(), vec![(1, rat(2, 1)), (2, rat(1, 2))])
    }

    #[test]
    fn round_walks_children_in_bandwidth_centric_order() {
        let mut m = machine_with_two_children();
        // λ = 4: α = 1, δ = 3, τ = 1.
        let out = m.on_proposal(rat(4, 1)).unwrap();
        // Cheapest link first: child 2 at c = 1/2, β = min(3, 2) = 2.
        assert_eq!(out, Outgoing::ToChild { slot: 1, child: 2, beta: rat(2, 1) });
        assert_eq!(m.awaiting(), Some(2));
        // Child 2 takes half: θ = 1, consumed = 1, δ = 2, τ = 1/2.
        let out = m.on_ack(2, rat(1, 1)).unwrap();
        // Child 1 at c = 2: β = min(2, 1/4) = 1/4.
        assert_eq!(out, Outgoing::ToChild { slot: 0, child: 1, beta: rat(1, 4) });
        // Child 1 takes it all: τ = 0 → round over, θ = δ = 7/4.
        let out = m.on_ack(1, Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: rat(7, 4) });
        assert!(m.is_idle());
        assert_eq!(m.alpha(), Rat::ONE);
        assert_eq!(m.eta_in(), rat(4, 1) - rat(7, 4));
        assert_eq!(m.flows(), &[rat(1, 4), rat(1, 1)]);
        assert_eq!(m.proposals_sent(), 2);
    }

    #[test]
    fn leaf_acks_immediately() {
        let mut m = NodeMachine::new(5, Weight::Time(rat(1, 2)).rate(), vec![]);
        let out = m.on_proposal(rat(3, 1)).unwrap();
        // rate = 2, α = 2, δ = 1.
        assert_eq!(out, Outgoing::AckParent { theta: rat(1, 1) });
        assert_eq!(m.alpha(), rat(2, 1));
        assert!(m.visited());
    }

    #[test]
    fn switch_delegates_everything() {
        let mut m = NodeMachine::new(0, Weight::Infinite.rate(), vec![(1, Rat::ONE)]);
        let out = m.on_proposal(rat(2, 1)).unwrap();
        assert_eq!(out, Outgoing::ToChild { slot: 0, child: 1, beta: Rat::ONE });
        let out = m.on_ack(1, Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: Rat::ONE });
        assert_eq!(m.alpha(), Rat::ZERO);
    }

    #[test]
    fn protocol_violations_are_typed() {
        let mut m = machine_with_two_children();
        assert!(matches!(
            m.on_ack(1, Rat::ZERO),
            Err(MachineError::UnexpectedAck { node: 0, from: 1 })
        ));
        let _ = m.on_proposal(rat(4, 1)).unwrap();
        assert!(matches!(m.on_proposal(Rat::ONE), Err(MachineError::MidRound { node: 0 })));
        // Awaiting child 2, not child 1.
        assert!(matches!(
            m.on_ack(1, Rat::ZERO),
            Err(MachineError::UnexpectedAck { node: 0, from: 1 })
        ));
        // θ above β is refused.
        assert!(matches!(m.on_ack(2, rat(10, 1)), Err(MachineError::InvalidAck { .. })));
        assert!(matches!(m.on_ack(2, rat(-1, 1)), Err(MachineError::InvalidAck { .. })));
        assert!(matches!(m.set_link(9, Rat::ONE), Err(MachineError::UnknownChild { .. })));
    }

    #[test]
    fn state_key_distinguishes_phases() {
        let mut a = machine_with_two_children();
        let b = a.clone();
        let _ = a.on_proposal(rat(4, 1)).unwrap();
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.state_key(&mut ka);
        b.state_key(&mut kb);
        assert_ne!(ka, kb);
    }

    #[test]
    fn zero_proposal_round_trips_without_child_traffic() {
        let mut m = machine_with_two_children();
        let out = m.on_proposal(Rat::ZERO).unwrap();
        assert_eq!(out, Outgoing::AckParent { theta: Rat::ZERO });
        assert_eq!(m.proposals_sent(), 0);
        assert!(m.visited());
    }
}
