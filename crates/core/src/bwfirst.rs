//! `BW-First()` — Algorithm 1 / Proposition 2: the depth-first distributed
//! procedure for the maximum steady-state throughput of a tree.
//!
//! The traversal *is* the protocol. A node that receives a **proposal** of
//! `λ` tasks per time unit keeps `α = min(r, λ)` for its own CPU, then walks
//! its children in bandwidth-centric order (fastest link first), opening a
//! **transaction** with each: it proposes `β = min(δ, τ·b)` — no more tasks
//! than it still owns (`δ`) and no more than its remaining sending-port time
//! (`τ`) can carry — and receives back an **acknowledgment** `θ`, the amount
//! the child's subtree could not absorb. Proposals travel down opening
//! transactions; acknowledgments travel up closing them. A node whose parent
//! has no tasks (`δ = 0`) or no port time (`τ = 0`) left is **never
//! visited** — the efficiency edge over the bottom-up reduction.
//!
//! At the root the paper attaches a virtual parent with no computing power
//! proposing `t_max = r_root + max_i b_i` (the most the root could ever
//! consume under single-port sending); the tree's optimal throughput is
//! `t_max − θ_root`.
//!
//! This module is the *centralized* (in-process) run: the synchronous driver
//! of [`crate::driver`] plays every visited node's
//! [`NodeMachine`](crate::NodeMachine) — the state machine the
//! thread-per-node protocol of `bwfirst-proto` runs — and this module
//! collects their messages and rates into the full transaction trace,
//! reproducing Figure 4(b).

use crate::driver::{t_max, traverse, Step};
use crate::lazy::PlatformSource;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;

/// A closed two-phase transaction (Definition 1): the parent proposed `beta`
/// tasks per time unit, the child acknowledged `theta` back; the subtree
/// consumes `beta − theta`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// Proposing parent.
    pub parent: NodeId,
    /// Child whose subtree was offered tasks.
    pub child: NodeId,
    /// Proposal: tasks per time unit offered.
    pub beta: Rat,
    /// Acknowledgment: tasks per time unit the subtree could not handle.
    pub theta: Rat,
}

impl Transaction {
    /// Tasks per time unit actually flowing over this edge.
    #[must_use]
    pub fn consumed(&self) -> Rat {
        self.beta - self.theta
    }
}

/// One protocol message, in traversal order — the Figure 4(b) trace.
/// Every message carries a *single number*, as Definition 1 requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// `from` proposes `beta` tasks per time unit to `to` (first phase).
    Proposal {
        /// Proposing parent.
        from: NodeId,
        /// Receiving child.
        to: NodeId,
        /// Offered tasks per time unit.
        beta: Rat,
    },
    /// `from` acknowledges `theta` unconsumed tasks to `to` (second phase).
    Ack {
        /// Acknowledging child.
        from: NodeId,
        /// Parent whose transaction closes.
        to: NodeId,
        /// Unconsumed tasks per time unit.
        theta: Rat,
    },
}

/// Complete output of a `BW-First` run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BwFirstSolution {
    /// The proposal made by the virtual parent (`t_max` at the root).
    pub t_max: Rat,
    /// Optimal steady-state throughput: `t_max − θ_root`.
    throughput: Rat,
    /// Per-node compute allocation `α_i` (tasks per time unit), by node index.
    pub alpha: Vec<Rat>,
    /// Per-node task inflow `η_{-1}`: tasks per time unit received from the
    /// parent. For the root this is the total injection rate (= throughput).
    pub eta_in: Vec<Rat>,
    /// Which nodes the traversal visited.
    pub visited: Vec<bool>,
    /// All closed transactions in closing order.
    pub transactions: Vec<Transaction>,
    /// Full message trace in wire order.
    pub trace: Vec<TraceEvent>,
}

impl BwFirstSolution {
    /// Optimal steady-state throughput of the tree (tasks per time unit).
    #[must_use]
    pub fn throughput(&self) -> Rat {
        self.throughput
    }

    /// Number of visited nodes.
    #[must_use]
    pub fn visit_count(&self) -> usize {
        self.visited.iter().filter(|&&v| v).count()
    }

    /// Ids of the nodes the traversal never reached (pruned subtrees).
    #[must_use]
    pub fn unvisited(&self) -> Vec<NodeId> {
        self.visited
            .iter()
            .enumerate()
            .filter(|(_, &v)| !v)
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Number of protocol messages exchanged (each carrying one number).
    #[must_use]
    pub fn message_count(&self) -> usize {
        self.trace.len()
    }

    /// Task outflow toward `child` (tasks per time unit over that edge).
    #[must_use]
    pub fn flow_to(&self, child: NodeId) -> Rat {
        self.eta_in[child.index()]
    }
}

/// Runs `BW-First` on the whole platform with the canonical root proposal
/// `t_max = r_root + max_i b_i`.
///
/// ```
/// use bwfirst_core::bw_first;
/// use bwfirst_platform::examples::example_tree;
/// use bwfirst_rational::rat;
///
/// let solution = bw_first(&example_tree());
/// assert_eq!(solution.throughput(), rat(10, 9));      // exact
/// assert_eq!(solution.visit_count(), 8);              // P5, P9..P11 pruned
/// assert_eq!(solution.message_count(), 14);           // 7 transactions
/// ```
#[must_use]
pub fn bw_first(platform: &Platform) -> BwFirstSolution {
    let root = platform.root();
    let links =
        platform.children(root).iter().map(|&k| platform.link_time(k).expect("child has link"));
    bw_first_with_lambda(platform, t_max(platform.compute_rate(root), links))
}

/// Runs `BW-First` with an explicit root proposal `lambda` (the virtual
/// parent's offer). Useful for analyzing subtrees under a constrained feed.
///
/// The driver keeps its stack on the heap, so arbitrarily deep chains (the
/// infinite-tree experiments) cannot overflow the call stack.
#[must_use]
pub fn bw_first_with_lambda(platform: &Platform, lambda: Rat) -> BwFirstSolution {
    assert!(!lambda.is_negative(), "root proposal must be non-negative");
    let n = platform.len();
    let mut alpha = vec![Rat::ZERO; n];
    let mut eta_in = vec![Rat::ZERO; n];
    let mut visited = vec![false; n];
    let mut transactions = Vec::new();
    let mut trace = Vec::new();
    let theta = traverse(&PlatformSource(platform), lambda, None, |step| match step {
        Step::Proposal { from: &from, to: &to, beta } => {
            trace.push(TraceEvent::Proposal { from, to, beta })
        }
        Step::Ack { from: &from, to, theta, machine } => {
            visited[from.index()] = true;
            alpha[from.index()] = machine.alpha();
            eta_in[from.index()] = machine.eta_in();
            if let Some(&parent) = to {
                trace.push(TraceEvent::Ack { from, to: parent, theta });
                let beta = machine.lambda();
                transactions.push(Transaction { parent, child: from, beta, theta });
            }
        }
    })
    .expect("BW-First's machines accept each other's acks");
    BwFirstSolution {
        t_max: lambda,
        throughput: lambda - theta,
        alpha,
        eta_in,
        visited,
        transactions,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::{example_throughput, example_tree, example_unvisited};
    use bwfirst_platform::generators::{daisy_chain, fork, star};
    use bwfirst_platform::{PlatformBuilder, Weight};
    use bwfirst_rational::rat;

    fn w(n: i128) -> Weight {
        Weight::Time(rat(n, 1))
    }

    #[test]
    fn single_node() {
        let p = fork(w(4), &[]);
        let s = bw_first(&p);
        assert_eq!(s.throughput(), rat(1, 4));
        assert_eq!(s.alpha[0], rat(1, 4));
        assert_eq!(s.visit_count(), 1);
        assert!(s.transactions.is_empty());
    }

    #[test]
    fn simple_fork_matches_prop1() {
        let p = fork(w(1), &[(rat(1, 1), w(1))]);
        let s = bw_first(&p);
        assert_eq!(s.throughput(), rat(2, 1));
        assert_eq!(s.alpha[0], Rat::ONE);
        assert_eq!(s.alpha[1], Rat::ONE);
        assert_eq!(s.eta_in[1], Rat::ONE);
    }

    #[test]
    fn lambda_limits_consumption() {
        // Same fork, but the virtual parent only offers 1/2 task/unit.
        let p = fork(w(1), &[(rat(1, 1), w(1))]);
        let s = bw_first_with_lambda(&p, rat(1, 2));
        assert_eq!(s.throughput(), rat(1, 2));
        assert_eq!(s.alpha[0], rat(1, 2)); // root keeps everything
        assert!(!s.visited[1]); // child never visited: δ = 0
    }

    #[test]
    fn example_tree_full_solution() {
        let p = example_tree();
        let s = bw_first(&p);
        assert_eq!(s.t_max, rat(10, 9));
        assert_eq!(s.throughput(), example_throughput());

        // Figure 4(c): per-node rates.
        assert_eq!(s.alpha[0], rat(1, 9));
        for i in [1, 2, 3, 4, 6] {
            assert_eq!(s.alpha[i], rat(1, 6), "alpha of P{i}");
        }
        for i in [7, 8] {
            assert_eq!(s.alpha[i], rat(1, 12), "alpha of P{i}");
        }
        for i in [1, 2, 3] {
            assert_eq!(s.eta_in[i], rat(1, 3), "eta_in of P{i}");
        }
        for i in [4, 6] {
            assert_eq!(s.eta_in[i], rat(1, 6), "eta_in of P{i}");
        }
        assert_eq!(s.eta_in[7], rat(1, 6));
        assert_eq!(s.eta_in[8], rat(1, 12));

        // Figure 4(b): pruned nodes.
        let unvisited = s.unvisited();
        assert_eq!(unvisited, example_unvisited().to_vec());
        assert_eq!(s.visit_count(), 8);

        // Transactions: one per visited non-root node.
        assert_eq!(s.transactions.len(), 7);
        // Messages: a proposal and an ack per transaction.
        assert_eq!(s.message_count(), 14);
    }

    #[test]
    fn example_tree_transaction_values() {
        let s = bw_first(&example_tree());
        let tx = |child: u32| {
            s.transactions
                .iter()
                .find(|t| t.child == NodeId(child))
                .unwrap_or_else(|| panic!("transaction with P{child}"))
        };
        assert_eq!(tx(1).beta, Rat::ONE);
        assert_eq!(tx(1).theta, rat(2, 3));
        assert_eq!(tx(2).beta, rat(2, 3));
        assert_eq!(tx(2).theta, rat(1, 3));
        assert_eq!(tx(3).beta, rat(1, 3));
        assert_eq!(tx(3).theta, Rat::ZERO);
        assert_eq!(tx(4).beta, rat(1, 6));
        assert_eq!(tx(4).theta, Rat::ZERO);
        assert_eq!(tx(7).beta, rat(1, 6));
        assert_eq!(tx(8).beta, rat(1, 12));
    }

    #[test]
    fn trace_is_properly_nested() {
        // Proposals and acks nest like balanced parentheses along the DFS.
        let s = bw_first(&example_tree());
        let mut depth = 0i32;
        for ev in &s.trace {
            match ev {
                TraceEvent::Proposal { .. } => depth += 1,
                TraceEvent::Ack { .. } => depth -= 1,
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn agrees_with_bottom_up_on_examples() {
        for p in [
            example_tree(),
            star(w(2), 10, w(1), rat(1, 1)),
            daisy_chain(w(2), &[(w(2), rat(1, 1)), (w(2), rat(1, 1))]),
            fork(w(3), &[(rat(1, 2), w(5)), (rat(2, 1), w(1)), (rat(1, 3), Weight::Infinite)]),
        ] {
            let a = bw_first(&p).throughput();
            let b = crate::bottom_up::bottom_up(&p).throughput;
            assert_eq!(a, b);
        }
    }

    #[test]
    fn conservation_law_holds() {
        let p = example_tree();
        let s = bw_first(&p);
        for id in p.node_ids() {
            let out: Rat = p.children(id).iter().map(|&k| s.eta_in[k.index()]).sum();
            assert_eq!(s.eta_in[id.index()], s.alpha[id.index()] + out, "conservation at {id}");
        }
    }

    #[test]
    fn switch_nodes_forward_without_computing() {
        // Root -> switch -> fast worker.
        let mut b = PlatformBuilder::new();
        let r = b.root(w(2));
        let sw = b.child(r, Weight::Infinite, rat(1, 2));
        b.child(sw, w(1), rat(1, 2));
        let p = b.build().unwrap();
        let s = bw_first(&p);
        assert_eq!(s.alpha[sw.index()], Rat::ZERO);
        // Worker limited by the root link: 2 tasks/unit max through c=1/2,
        // worker rate 1 → fully fed. Throughput = 1/2 + 1.
        assert_eq!(s.throughput(), rat(3, 2));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 100_000-node chain of slow CPUs (w = 10^6) on unit links: each node
        // keeps 10^-6 of the root link's 1 task/unit and forwards the rest,
        // so the flow reaches every node and the chain computes 1/10.
        let hops: Vec<(Weight, Rat)> = (1..100_000).map(|_| (w(1_000_000), rat(1, 1))).collect();
        let p = daisy_chain(w(1_000_000), &hops);
        let s = bw_first(&p);
        assert_eq!(s.throughput(), rat(1, 10));
        assert_eq!(s.visit_count(), 100_000);
        let src = crate::lazy::PlatformSource(&p);
        let full_depth = p.height() + 1;
        assert_eq!(crate::lazy::throughput_bounds(&src, full_depth), (rat(1, 10), rat(1, 10)));
        // The f64 evaluator walks the same chain on a small thread stack.
        let approx = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || crate::float::bw_first_f64(&p))
            .unwrap()
            .join()
            .unwrap();
        assert!((approx - 0.1).abs() < 1e-9, "f64 throughput {approx}");
    }

    #[test]
    fn bandwidth_centric_visits_fast_link_first() {
        // Two children, second one has the faster link — trace must open
        // the transaction with it first.
        let mut b = PlatformBuilder::new();
        let r = b.root(w(10));
        let slow = b.child(r, w(1), rat(2, 1));
        let fast = b.child(r, w(1), rat(1, 1));
        let p = b.build().unwrap();
        let s = bw_first(&p);
        match s.trace.first() {
            Some(TraceEvent::Proposal { to, .. }) => assert_eq!(*to, fast),
            other => panic!("unexpected first event {other:?}"),
        }
        let _ = slow;
    }
}
