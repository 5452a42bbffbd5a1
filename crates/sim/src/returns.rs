//! Result returns on arbitrary trees — exploring the problem Section 9
//! leaves open.
//!
//! The paper proves (via the 3-node counter-example, see
//! [`crate::result_return`]) that folding return times into forward costs is
//! wrong, and concludes that scheduling with result returns "is still open".
//! This executor lets us *measure* the question on any tree: tasks flow down
//! under the forward-only event-driven schedule, and every computed task's
//! result relays hop-by-hop back to the master, where a completion is
//! counted.
//!
//! Ports are now genuinely bidirectional resources:
//!
//! * a **downward** task transfer `parent → child` occupies the parent's
//!   sending port *and* the child's receiving port for `c` time units;
//! * an **upward** result transfer `child → parent` occupies the child's
//!   sending port *and* the parent's receiving port for `ρ·c` time units
//!   ([`ReturnConfig::return_ratio`] scales each edge's forward cost).
//!
//! A node's sending port therefore arbitrates between forwarding tasks to
//! its children (schedule order, priority) and returning results to its
//! parent (whenever the port would otherwise idle); its receiving port
//! arbitrates between its parent's task deliveries and its children's result
//! returns. None of this contention exists in the forward-only model — the
//! measured throughput gap *is* the open problem, quantified (E19).

use crate::engine::{SimConfig, SimReport};
use crate::error::SimError;
use crate::event_driven::Stride;
use crate::kernel::{with_gantt, Ev, Kernel, Policy};
use crate::probe::{Probe, TaskAction};
use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::borrow::Cow;

/// Configuration of the return traffic.
#[derive(Debug, Clone, Copy)]
pub struct ReturnConfig {
    /// Result size relative to the input: each edge's return time is
    /// `return_ratio × c`. Zero means results are negligible (the paper's
    /// main model) and completions count at compute end.
    pub return_ratio: Rat,
}

/// Stride routing downward, result relays upward.
struct Returns<'a> {
    stride: Stride<'a>,
    ratio: Rat,
    /// Results waiting at each node for its sending port.
    results: Vec<u64>,
}

impl Returns<'_> {
    fn assign<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Result<(), SimError> {
        let (action, slot) = self.stride.next(node).ok_or(SimError::NoSchedule(node))?;
        k.commit(node, t, action, Some(slot), 0);
        match action {
            TaskAction::Compute => k.try_cpu(node, t),
            TaskAction::Send(_) => self.try_send(k, node, t),
        }
    }

    /// Attempts to use the node's sending port. **Results go first**: on a
    /// forward-optimal schedule many sending ports are exactly saturated by
    /// task forwards, so a task-priority port would starve returns forever
    /// and results would pile up without bound. Returning first keeps the
    /// pipeline draining; the measured throughput loss relative to the
    /// forward-only prediction quantifies Section 9's open problem.
    fn try_send<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Result<(), SimError> {
        let i = node.index();
        if k.nodes[i].send_busy {
            return Ok(());
        }
        // Return a result if the parent can receive it.
        if let Some(parent) = k.platform.parent(node).filter(|_| self.results[i] > 0) {
            if !k.nodes[parent.index()].recv_busy {
                self.results[i] -= 1;
                let c = k.link(node)? * self.ratio;
                k.start_transfer(node, parent, t, c, Ev::Return { from: node, to: parent });
                return Ok(());
            }
        }
        // Otherwise forward the head-of-line task.
        if let Some(&(child, _)) = k.nodes[i].send_queue.front() {
            if !k.nodes[child.index()].recv_busy {
                k.nodes[i].send_queue.pop_front();
                k.stock(node, t, -1);
                let c = k.link(child)?;
                k.start_transfer(node, child, t, c, Ev::Hop { from: node, to: child });
            }
        }
        Ok(())
    }

    /// A result materialized at `node`: complete at the root, relay else.
    fn result_at<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Result<(), SimError> {
        if node == k.root() || self.ratio.is_zero() {
            k.complete(node, t);
            Ok(())
        } else {
            self.results[node.index()] += 1;
            self.try_send(k, node, t)
        }
    }

    /// Ports around `node` changed: give everyone affected a chance.
    fn wake<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Result<(), SimError> {
        self.try_send(k, node, t)?;
        // The node's freed receiving port may unblock its parent's task
        // forwards or its children's result returns.
        if !k.nodes[node.index()].recv_busy {
            if let Some(parent) = k.platform.parent(node) {
                self.try_send(k, parent, t)?;
            }
            for j in 0..k.platform.children(node).len() {
                let child = k.platform.children(node)[j];
                self.try_send(k, child, t)?;
            }
        }
        Ok(())
    }
}

impl Policy for Returns<'_> {
    type Error = SimError;

    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), SimError> {
        k.release_at(Rat::ZERO);
        Ok(())
    }

    #[inline]
    fn on_event<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        t: Rat,
        ev: Ev,
    ) -> Result<(), SimError> {
        match ev {
            Ev::Release => {
                let root = k.root();
                k.inject(t);
                k.stock(root, t, 1);
                self.assign(k, root, t)?;
                k.release_at(t + self.stride.release_step);
            }
            Ev::CpuEnd(node) => {
                k.cpu_end(node, t, false);
                self.result_at(k, node, t)?;
                k.try_cpu(node, t)?;
            }
            Ev::Hop { from, to } => {
                k.nodes[from.index()].send_busy = false;
                k.nodes[to.index()].recv_busy = false;
                k.probe.task_delivered(to, t);
                k.receive(to, t);
                self.assign(k, to, t)?;
                self.wake(k, from, t)?;
                self.wake(k, to, t)?;
            }
            Ev::Return { from, to } => {
                k.nodes[from.index()].send_busy = false;
                k.nodes[to.index()].recv_busy = false;
                self.result_at(k, to, t)?;
                self.wake(k, from, t)?;
                self.wake(k, to, t)?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Runs the forward-only event-driven `schedule` on a platform whose tasks
/// *also* return results of relative size `ret.return_ratio`. Completions
/// count when results reach the root (at compute end for ratio zero).
///
/// # Errors
/// [`SimError::BadInput`] for a negative return ratio; other
/// [`SimError`]s if the schedule does not fit the platform.
pub fn simulate_with_returns(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    ret: ReturnConfig,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    with_gantt(cfg, |probe| simulate_with_returns_probed(platform, schedule, ret, cfg, probe))
}

/// [`simulate_with_returns`], driving a custom [`Probe`]. The report's
/// `gantt` is `None`; plug in a [`GanttProbe`] to collect one.
///
/// # Errors
/// As [`simulate_with_returns`].
///
/// [`GanttProbe`]: crate::GanttProbe
pub fn simulate_with_returns_probed(
    platform: &Platform,
    schedule: &EventDrivenSchedule,
    ret: ReturnConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    if ret.return_ratio.is_negative() {
        return Err(SimError::BadInput("return ratio must be non-negative"));
    }
    let stride = Stride::new(platform, Cow::Borrowed(schedule))?;
    let extras = [stride.release_step, ret.return_ratio];
    let mut policy = Returns { stride, ratio: ret.return_ratio, results: vec![0; platform.len()] };
    Kernel::new(platform, cfg, &extras, probe).run(&mut policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::{bw_first, SteadyState};
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    fn setup() -> (Platform, SteadyState, EventDrivenSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        (p, ss, ev)
    }

    fn rate_at(ratio: Rat) -> Rat {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: ratio }, &cfg).unwrap();
        // Period-aligned window (4 x 36) well past start-up.
        rep.throughput_in(rat(200, 1), rat(344, 1))
    }

    #[test]
    fn zero_ratio_matches_forward_only() {
        assert_eq!(rate_at(Rat::ZERO), rat(10, 9));
    }

    #[test]
    fn throughput_degrades_monotonically_with_return_size() {
        let rates: Vec<Rat> = [Rat::ZERO, rat(1, 8), rat(1, 4), rat(1, 2), rat(1, 1)]
            .into_iter()
            .map(rate_at)
            .collect();
        for w in rates.windows(2) {
            assert!(w[1] <= w[0], "rates must not increase: {rates:?}");
        }
        // Nonzero returns genuinely bite on this tree.
        assert!(rates[4] < rates[0], "full-size returns must cost throughput");
    }

    #[test]
    fn ports_never_double_booked_with_returns() {
        let (p, _, ev) = setup();
        let cfg = SimConfig::to_horizon(rat(120, 1));
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: rat(1, 2) }, &cfg).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn all_results_return_after_drain() {
        let (p, _, ev) = setup();
        let cfg = SimConfig {
            horizon: rat(600, 1),
            stop_injection_at: None,
            total_tasks: Some(60),
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep =
            simulate_with_returns(&p, &ev, ReturnConfig { return_ratio: rat(1, 2) }, &cfg).unwrap();
        // Every computed task's result eventually reached the root.
        assert_eq!(rep.total_computed(), 60);
        assert_eq!(rep.completions.len(), 60);
    }
}
