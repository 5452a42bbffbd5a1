//! The synchronous `BW-First` driver: one [`NodeMachine`] per visited node,
//! run depth-first on an explicit stack.
//!
//! In process, the protocol's messages are function calls: a proposal a
//! machine emits opens the child's machine, and the child's closing ack is
//! fed back to its parent. A machine is created only when its node receives
//! its proposal, so the work is `O(visited)` — a node whose parent has no
//! tasks (`δ = 0`) or no port time (`τ = 0`) left is never expanded, which
//! is the pruning the paper is about and what lets [`crate::lazy`] walk
//! infinite trees. The explicit stack keeps arbitrarily deep chains off the
//! call stack.

use crate::lazy::{Bound, TreeSource};
use crate::machine::{MachineError, NodeMachine, Num, Outgoing};

/// The virtual parent's proposal `t_max = r_root + max_i b_i`: the most the
/// root could ever consume under single-port sending (Section 5). `links`
/// are the link times `c_i = 1/b_i` of the root's children.
#[must_use]
pub fn t_max<N: Num>(root_rate: N, links: impl IntoIterator<Item = N>) -> N {
    let best =
        links.into_iter().map(|c| N::ONE / c).fold(N::ZERO, |a, b| if a >= b { a } else { b });
    root_rate + best
}

/// One protocol message of a traversal, in wire order.
#[derive(Debug)]
pub(crate) enum Step<'a, H, N> {
    /// `from` proposes `beta` tasks per time unit to its child `to`.
    Proposal { from: &'a H, to: &'a H, beta: N },
    /// `from` closes its round and acknowledges `theta` to its parent `to`
    /// (`None`: the virtual parent); `machine` holds its negotiated rates.
    Ack { from: &'a H, to: Option<&'a H>, theta: N, machine: &'a NodeMachine<N> },
}

/// A visited node: its handle, its children as the source revealed them,
/// and its machine (whose id is the node's slot under its parent).
struct Frame<H, N> {
    node: H,
    kids: Vec<(H, N, N)>,
    machine: NodeMachine<N>,
}

/// Runs `BW-First` over `source` with the virtual parent proposing `lambda`
/// and returns the root's ack `θ_root`; `on` sees every message.
///
/// `cut = Some((limit, bound))` truncates the tree at depth `limit` (the
/// root is at depth 0): a node there keeps its own share and prunes its
/// children ([`Bound::Lower`]) or consumes its whole proposal
/// ([`Bound::Upper`]). A machine's child ids are the children's slots in
/// the source's list, so equal link times are visited in that order.
///
/// # Errors
/// The [`MachineError`] of a machine refusing a message. The driver relays
/// only the machines' own messages, so this signals a bug in the machine.
pub(crate) fn traverse<N: Num, S: TreeSource<N>>(
    source: &S,
    lambda: N,
    cut: Option<(usize, Bound)>,
    mut on: impl FnMut(Step<'_, S::Node, N>),
) -> Result<N, MachineError<N>> {
    type Opened<H, N> = Result<(Frame<H, N>, Outgoing<N>), MachineError<N>>;
    let open = |node: S::Node, slot: u32, rate: N, lambda: N, depth: usize| -> Opened<_, N> {
        let (rate, kids) = match cut {
            Some((limit, Bound::Lower)) if depth >= limit => (rate, Vec::new()),
            Some((limit, Bound::Upper)) if depth >= limit => (lambda, Vec::new()),
            _ => (rate, source.children(&node)),
        };
        let links = kids.iter().zip(0..).map(|(&(_, c, _), k)| (k, c)).collect();
        let mut machine = NodeMachine::new(slot, rate, links);
        let out = machine.on_proposal(lambda)?;
        Ok((Frame { node, kids, machine }, out))
    };
    let (root, rate) = source.root();
    let (mut top, mut out) = open(root, 0, rate, lambda, 0)?;
    // The ancestors of `top`, each awaiting the ack of the one above it.
    let mut stack: Vec<Frame<S::Node, N>> = Vec::new();
    loop {
        match out {
            Outgoing::ToChild { slot, child, beta } => {
                let (node, _, rate) = top.kids[slot].clone();
                on(Step::Proposal { from: &top.node, to: &node, beta });
                let (frame, next) = open(node, child, rate, beta, stack.len() + 1)?;
                stack.push(std::mem::replace(&mut top, frame));
                out = next;
            }
            Outgoing::AckParent { theta } => {
                let parent = stack.pop();
                let to = parent.as_ref().map(|p| &p.node);
                on(Step::Ack { from: &top.node, to, theta, machine: &top.machine });
                let Some(parent) = parent else { return Ok(theta) };
                let child = std::mem::replace(&mut top, parent);
                out = top.machine.on_ack(child.machine.id(), theta)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lazy::{InfiniteChain, PlatformSource};
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::{rat, Rat};

    #[test]
    fn t_max_adds_the_best_child_bandwidth() {
        assert_eq!(t_max(rat(1, 3), [rat(2, 1), rat(1, 2), rat(1, 1)]), rat(7, 3));
        assert_eq!(t_max(rat(1, 3), []), rat(1, 3));
        assert_eq!(t_max(0.5, [4.0, 0.25]), 4.5);
    }

    #[test]
    fn steps_come_in_wire_order_from_visited_nodes_only() {
        let p = example_tree();
        let (mut proposals, mut acks, mut depth) = (0, 0, 0i32);
        let mut root_acks = Vec::new();
        let lambda = rat(10, 9);
        let theta = traverse(&PlatformSource(&p), lambda, None, |step| match step {
            Step::Proposal { .. } => (proposals, depth) = (proposals + 1, depth + 1),
            Step::Ack { from, to, theta, machine } => {
                (acks, depth) = (acks + 1, depth - 1);
                assert_eq!(machine.eta_in(), machine.lambda() - theta);
                if to.is_none() {
                    root_acks.push(*from);
                }
            }
        })
        .unwrap();
        // Figure 4(b): 7 transactions, 8 visited nodes, the root closes last.
        assert_eq!((proposals, acks, depth), (7, 8, -1));
        assert_eq!(root_acks, vec![p.root()]);
        assert_eq!(lambda - theta, rat(10, 9));
    }

    #[test]
    fn a_cut_truncates_at_its_depth() {
        // Root rate 1/3 under a proposal of 4/3 on an infinite unit chain.
        let chain = InfiniteChain { rate: rat(1, 3), c: Rat::ONE };
        let run = |cut| traverse(&chain, rat(4, 3), cut, |_| {}).unwrap();
        assert_eq!(run(Some((0, Bound::Lower))), Rat::ONE);
        assert_eq!(run(Some((0, Bound::Upper))), Rat::ZERO);
        // One hop down the child keeps 1/3 of the forwarded unit.
        assert_eq!(run(Some((1, Bound::Lower))), rat(2, 3));
    }
}
