//! A demand-driven autonomous protocol in the style of Kreaseck et al. —
//! the baseline the paper compares against (Sections 2 and 7).
//!
//! No node knows any rates. Instead each node tries to keep a local stock of
//! `buffer_target` tasks: whenever `buffered + in-flight + outstanding`
//! drops below the target it *requests* the deficit from its parent
//! (requests are control messages of negligible size, modeled as
//! instantaneous). A parent with a free sending port and a buffered task
//! serves the *fastest-link* child among those with pending requests — the
//! bandwidth-centric tie-break. CPUs consume greedily from the local
//! buffer, with child service taking priority when both want the same task.
//!
//! Both of Kreaseck et al.'s communication models are implemented
//! ([`DemandConfig::interruptible`]):
//!
//! * **non-interruptible** (the paper's own model): once a long send to a
//!   slow child starts, a faster child's request waits — the head-of-line
//!   blocking behind the long start-up phases Section 2 describes;
//! * **interruptible**: a request from a higher-priority (faster-link)
//!   child pauses the ongoing transfer, which resumes later with its
//!   remaining time preserved.
//!
//! As the paper observes of this class of protocols, decisions are locally
//! greedy and can be non-optimal: start-up phases stretch and buffers grow
//! compared with the event-driven schedule (experiment E7).

use crate::engine::{SimConfig, SimReport};
use crate::gantt::SegmentKind;
use crate::kernel::{with_gantt, Ev, Kernel, Policy};
use crate::probe::{Probe, TaskAction};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::convert::Infallible;

/// Tuning of the autonomous protocol.
#[derive(Debug, Clone, Copy)]
pub struct DemandConfig {
    /// Stock each non-root node tries to keep on hand.
    pub buffer_target: u64,
    /// Kreaseck et al.'s interruptible-communication model: faster-link
    /// requests pause ongoing slower transfers.
    pub interruptible: bool,
}

impl Default for DemandConfig {
    fn default() -> Self {
        DemandConfig { buffer_target: 2, interruptible: false }
    }
}

impl DemandConfig {
    /// The interruptible variant with the default stock target.
    #[must_use]
    pub fn interruptible() -> Self {
        DemandConfig { interruptible: true, ..Default::default() }
    }
}

/// An in-progress transfer on a node's sending port.
struct CurrentSend {
    child: NodeId,
    token: u64,
    seg_start: Rat,
    end: Rat,
}

/// A transfer paused by an interruption, with its remaining time.
struct PausedSend {
    child: NodeId,
    remaining: Rat,
}

/// What the port could do next.
enum Candidate {
    Resume(usize),
    Fresh(NodeId),
}

/// Threshold requests up the tree, served fastest link first. The sending
/// port's state is the token-stamped current transfer plus the paused ones.
struct Demand {
    demand: DemandConfig,
    /// Link time into each node (zero for the root).
    link: Vec<Rat>,
    /// Children of each node in bandwidth-centric order.
    serve_order: Vec<Vec<NodeId>>,
    inflight: Vec<u64>,
    /// Requests each node has pending with its parent.
    outstanding: Vec<u64>,
    /// Requests pending at each node from its children (the sum of their
    /// `outstanding`).
    requested: Vec<u64>,
    current: Vec<Option<CurrentSend>>,
    paused: Vec<Vec<PausedSend>>,
    next_token: u64,
}

impl Demand {
    fn new(platform: &Platform, demand: DemandConfig) -> Demand {
        let n = platform.len();
        let link: Vec<Rat> =
            platform.node_ids().map(|id| platform.link_time(id).unwrap_or(Rat::ZERO)).collect();
        Demand {
            demand,
            link,
            serve_order: platform
                .node_ids()
                .map(|id| platform.children_bandwidth_centric(id))
                .collect(),
            inflight: vec![0; n],
            outstanding: vec![0; n],
            requested: vec![0; n],
            current: (0..n).map(|_| None).collect(),
            paused: (0..n).map(|_| Vec::new()).collect(),
            next_token: 0,
        }
    }

    /// Tasks `node` could hand out now: the root's source is unlimited
    /// until cut off.
    fn stock<P: Probe>(&self, k: &Kernel<'_, P>, node: NodeId, t: Rat) -> u64 {
        if node == k.root() {
            u64::from(k.supply(t))
        } else {
            k.buffers.size(node)
        }
    }

    /// Re-issues requests so that stock + in-flight + outstanding covers the
    /// node's *demand*: its own compute stock (if it can compute) plus the
    /// requests its children have outstanding with it. Demand therefore
    /// propagates from the actual consumers up to the root — a pure switch
    /// never hoards tasks nobody downstream asked for. Control messages are
    /// instantaneous.
    fn replenish<P: Probe>(&mut self, k: &mut Kernel<'_, P>, node: NodeId, t: Rat) {
        let i = node.index();
        let Some(parent) = k.platform.parent(node) else { return };
        let own =
            if k.platform.weight(node).time().is_some() { self.demand.buffer_target } else { 0 };
        let desired = own + self.requested[i];
        let have = k.buffers.size(node) + self.inflight[i] + self.outstanding[i];
        if have >= desired {
            return;
        }
        let deficit = desired - have;
        self.outstanding[i] += deficit;
        self.requested[parent.index()] += deficit;
        // Demand travels upward before the parent decides what to do.
        self.replenish(k, parent, t);
        self.dispatch(k, parent, t);
    }

    /// The best next use of the sending port: the fastest link among paused
    /// transfers and (stock permitting) fresh requests.
    fn best_candidate<P: Probe>(
        &self,
        k: &Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Option<(Rat, Candidate)> {
        let i = node.index();
        let mut best: Option<(Rat, Candidate)> = None;
        for (pi, p) in self.paused[i].iter().enumerate() {
            let c = self.link[p.child.index()];
            if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                best = Some((c, Candidate::Resume(pi)));
            }
        }
        if self.stock(k, node, t) > 0 {
            if let Some(&child) =
                self.serve_order[i].iter().find(|c| self.outstanding[c.index()] > 0)
            {
                let c = self.link[child.index()];
                if best.as_ref().is_none_or(|(bc, _)| c < *bc) {
                    best = Some((c, Candidate::Fresh(child)));
                }
            }
        }
        best
    }

    fn start_send<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
        cand: Candidate,
    ) {
        let i = node.index();
        let token = self.next_token;
        self.next_token += 1;
        let (child, duration) = match cand {
            Candidate::Resume(pi) => {
                let p = self.paused[i].swap_remove(pi);
                (p.child, p.remaining)
            }
            Candidate::Fresh(child) => {
                k.take(node, t);
                k.probe.task_dispatch(node, t, TaskAction::Send(child), None);
                self.outstanding[child.index()] -= 1;
                self.requested[i] -= 1;
                self.inflight[child.index()] += 1;
                (child, self.link[child.index()])
            }
        };
        self.current[i] = Some(CurrentSend { child, token, seg_start: t, end: t + duration });
        k.queue.push(t + duration, Ev::Transfer { from: node, token });
    }

    /// Pauses the ongoing transfer (interruptible model only). Its pending
    /// [`Ev::Transfer`] becomes stale: the token no longer matches.
    fn interrupt<P: Probe>(&mut self, k: &mut Kernel<'_, P>, node: NodeId, t: Rat) {
        let i = node.index();
        let Some(cur) = self.current[i].take() else { return };
        if t > cur.seg_start {
            k.probe.segment(node, SegmentKind::Send(cur.child), cur.seg_start, t);
            k.probe.segment(cur.child, SegmentKind::Receive, cur.seg_start, t);
        }
        self.paused[i].push(PausedSend { child: cur.child, remaining: cur.end - t });
    }

    /// Serves pending child requests (port) and the local CPU.
    fn dispatch<P: Probe>(&mut self, k: &mut Kernel<'_, P>, node: NodeId, t: Rat) {
        let i = node.index();
        // Interruptible model: a strictly faster candidate preempts.
        if self.demand.interruptible {
            if let Some(cur) = &self.current[i] {
                let cur_c = self.link[cur.child.index()];
                if self.best_candidate(k, node, t).is_some_and(|(cand_c, _)| cand_c < cur_c) {
                    self.interrupt(k, node, t);
                }
            }
        }
        if self.current[i].is_none() {
            if let Some((_, cand)) = self.best_candidate(k, node, t) {
                self.start_send(k, node, t, cand);
                self.replenish(k, node, t);
            }
        }
        // Then the CPU.
        if !k.nodes[i].cpu_busy && self.stock(k, node, t) > 0 {
            if let Some(w) = k.platform.weight(node).time() {
                k.take(node, t);
                k.probe.task_dispatch(node, t, TaskAction::Compute, None);
                k.start_cpu(node, t, w, 0);
                self.replenish(k, node, t);
            }
        }
    }

    fn on_transfer_end<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        token: u64,
        t: Rat,
    ) {
        // An interrupted transfer's stale completion matches no current send.
        let Some(cur) = self.current[node.index()].take_if(|c| c.token == token) else { return };
        k.probe.segment(node, SegmentKind::Send(cur.child), cur.seg_start, t);
        k.probe.segment(cur.child, SegmentKind::Receive, cur.seg_start, t);
        let child = cur.child;
        self.inflight[child.index()] -= 1;
        k.receive(child, t);
        k.probe.task_delivered(child, t);
        self.replenish(k, child, t);
        self.dispatch(k, child, t);
        self.dispatch(k, node, t);
    }
}

impl Policy for Demand {
    /// The protocol accepts any platform.
    type Error = Infallible;

    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), Infallible> {
        // Every non-root node issues its initial demand at t = 0, which
        // cascades requests up to the root.
        for i in 1..k.nodes.len() {
            self.replenish(k, NodeId(i as u32), Rat::ZERO);
        }
        let root = k.root();
        self.dispatch(k, root, Rat::ZERO);
        Ok(())
    }

    #[inline]
    fn on_event<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        t: Rat,
        ev: Ev,
    ) -> Result<(), Infallible> {
        match ev {
            Ev::CpuEnd(node) => {
                k.cpu_end(node, t, true);
                self.dispatch(k, node, t);
            }
            Ev::Transfer { from, token } => self.on_transfer_end(k, from, token, t),
            _ => {}
        }
        Ok(())
    }
}

/// Simulates the demand-driven autonomous protocol.
#[must_use]
pub fn simulate(platform: &Platform, demand: DemandConfig, cfg: &SimConfig) -> SimReport {
    let Ok(rep) =
        with_gantt(cfg, |probe| Ok::<_, Infallible>(simulate_probed(platform, demand, cfg, probe)));
    rep
}

/// Simulates the demand-driven protocol, driving a custom [`Probe`].
/// The report's `gantt` is `None`; plug in a [`GanttProbe`] to collect one.
///
/// [`GanttProbe`]: crate::GanttProbe
#[must_use]
pub fn simulate_probed(
    platform: &Platform,
    demand: DemandConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> SimReport {
    // Requests are instantaneous: every event time is a sum of compute
    // and link durations (interruption remainders are differences of
    // the same sums, so their denominators divide the same scale).
    let Ok(rep) = Kernel::new(platform, cfg, &[], probe).run(&mut Demand::new(platform, demand));
    rep
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{fork, star};
    use bwfirst_platform::Weight;
    use bwfirst_rational::rat;

    #[test]
    fn star_reaches_bandwidth_bound() {
        // Root + 4 unit workers behind c=1: optimal = r0 + 1.
        let p = star(Weight::Time(rat(2, 1)), 4, Weight::Time(rat(1, 1)), rat(1, 1));
        let rep = simulate(&p, DemandConfig::default(), &SimConfig::to_horizon(rat(200, 1)));
        let rate = rep.throughput_in(rat(100, 1), rat(200, 1));
        assert!(rate >= rat(13, 10), "demand-driven star too slow: {rate}");
        assert!(rate <= rat(3, 2) + rat(1, 10));
    }

    #[test]
    fn single_port_respected() {
        for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
            let p = example_tree();
            let rep = simulate(&p, demand, &SimConfig::to_horizon(rat(80, 1)));
            assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
        }
    }

    #[test]
    fn conservation_of_tasks_after_drain() {
        for demand in [DemandConfig::default(), DemandConfig::interruptible()] {
            let p = example_tree();
            let cfg = SimConfig {
                horizon: rat(400, 1),
                stop_injection_at: Some(rat(150, 1)),
                total_tasks: None,
                record_gantt: false,
                exact_queue: false,
                seed: 0,
            };
            let rep = simulate(&p, demand, &cfg);
            assert_eq!(rep.total_computed(), rep.received[0]);
            for id in p.node_ids() {
                let forwarded: u64 = p.children(id).iter().map(|&k| rep.received[k.index()]).sum();
                assert_eq!(
                    rep.received[id.index()],
                    rep.computed[id.index()] + forwarded,
                    "at {id}"
                );
            }
        }
    }

    #[test]
    fn demand_driven_feeds_pruned_nodes_too() {
        // The autonomous protocol has no global knowledge: even nodes the
        // optimal schedule prunes (P5, P9, P10, P11) receive and compute
        // tasks — one source of its inefficiency.
        let p = example_tree();
        let rep = simulate(&p, DemandConfig::default(), &SimConfig::to_horizon(rat(200, 1)));
        let wasted: u64 = [5usize, 9, 10, 11].iter().map(|&i| rep.received[i]).sum();
        assert!(wasted > 0, "expected the greedy protocol to feed pruned subtrees");
    }

    #[test]
    fn buffers_scale_with_target() {
        let p = example_tree();
        let small = simulate(
            &p,
            DemandConfig { buffer_target: 2, interruptible: false },
            &SimConfig::to_horizon(rat(150, 1)),
        );
        let large = simulate(
            &p,
            DemandConfig { buffer_target: 8, interruptible: false },
            &SimConfig::to_horizon(rat(150, 1)),
        );
        let peak = |r: &SimReport| r.buffers.iter().map(|b| b.max).max().unwrap();
        assert!(peak(&large) > peak(&small));
    }

    #[test]
    fn interruption_preempts_slow_sends() {
        // A fork with one very slow link and one fast link. Under the
        // interruptible model the fast child's requests cut into the slow
        // transfer, so the fast child completes strictly more tasks early.
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(100), &[(rat(20, 1), w(1)), (rat(1, 1), w(1))]);
        let horizon = SimConfig::to_horizon(rat(60, 1));
        let non = simulate(&p, DemandConfig::default(), &horizon);
        let int = simulate(&p, DemandConfig::interruptible(), &horizon);
        // Fast child is node 2.
        assert!(
            int.computed[2] >= non.computed[2],
            "interruptible {} vs non {}",
            int.computed[2],
            non.computed[2]
        );
        // The flip side of preemption: the fast child saturates the port
        // (1 task/unit at c = 1), so the slow child's transfer never gets
        // 20 contiguous-equivalent units and *starves* — while the
        // non-interruptible model does serve it. Both behaviours are real
        // properties of the two Kreaseck models.
        assert_eq!(int.received[1], 0, "slow child starves under interruption");
        assert!(non.received[1] >= 1, "non-interruptible serves the slow child");
    }

    #[test]
    fn interrupted_transfers_preserve_total_service_time() {
        // With Gantt recording, the sum of send-segment lengths toward the
        // slow child must be a multiple of its link time c (pauses split
        // segments but never lose time).
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(100), &[(rat(10, 1), w(1)), (rat(1, 1), w(1))]);
        let cfg = SimConfig {
            horizon: rat(200, 1),
            stop_injection_at: Some(rat(100, 1)),
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, DemandConfig::interruptible(), &cfg);
        let g = rep.gantt.as_ref().unwrap();
        let slow = NodeId(1);
        let total: Rat = g
            .segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Send(slow))
            .map(|s| s.end - s.start)
            .sum();
        let c = rat(10, 1);
        assert_eq!(total, Rat::from(rep.received[1] as usize) * c);
    }

    #[test]
    fn interruptible_not_slower_on_heterogeneous_fork() {
        let w = |n: i128| Weight::Time(rat(n, 1));
        let p = fork(w(50), &[(rat(8, 1), w(2)), (rat(1, 1), w(1)), (rat(2, 1), w(2))]);
        let horizon = SimConfig::to_horizon(rat(400, 1));
        let non = simulate(&p, DemandConfig::default(), &horizon);
        let int = simulate(&p, DemandConfig::interruptible(), &horizon);
        assert!(int.total_computed() + 2 >= non.total_computed());
    }
}
