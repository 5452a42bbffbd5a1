//! Section 9: returning results to the master breaks the "merge send and
//! return times" simplification.
//!
//! Beaumont et al. and Kreaseck et al. fold the time to return a task's
//! result into the forward communication cost, arguing the split does not
//! matter for steady-state traffic. The paper shows this neglects the
//! **receiving-port resource**: on a master with two unit-speed children and
//! `0.5 + 0.5` send/return costs, separate accounting sustains 2 tasks per
//! time unit (sends saturate the master's *sending* port while returns
//! saturate its *receiving* port — different resources, fully overlapped),
//! whereas merged accounting serializes everything on the sending port and
//! halves throughput.
//!
//! This executor simulates fork platforms (master + leaves) where each
//! computed task yields a result that must travel back over the link using
//! the child's sending port *and* the master's receiving port. A *completion*
//! is counted when the result reaches the master. Setting all return times
//! to zero recovers the forward-only model, which is how
//! [`simulate_merged`] evaluates the (erroneous) merged-cost platform.

use crate::engine::{SimConfig, SimReport};
use crate::error::SimError;
use crate::kernel::{with_gantt, Ev, Kernel, Policy};
use crate::probe::{Probe, TaskAction};
use bwfirst_platform::examples::ResultReturnPlatform;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;

/// Per-child cap on buffered + in-flight + computing tasks (keeps greedy
/// feeding from flooding slow children).
const CAP: u64 = 2;

/// Greedy round-robin feeding of the leaves, results back over the master's
/// receiving port.
struct ResultReturn<'a> {
    return_time: &'a [Rat],
    children: Vec<NodeId>,
    /// Tasks in flight toward each node.
    inflight: Vec<u64>,
    /// Computed results waiting at each node.
    ready: Vec<u64>,
    /// Round-robin position among `children`.
    next: usize,
}

impl ResultReturn<'_> {
    /// Greedy master sending: next eligible child round-robin.
    fn try_master_send<P: Probe>(&mut self, k: &mut Kernel<'_, P>, t: Rat) -> Result<(), SimError> {
        let root = k.root();
        if k.nodes[root.index()].send_busy || !k.supply(t) {
            return Ok(());
        }
        let n = self.children.len();
        for off in 0..n {
            let idx = (self.next + off) % n;
            let child = self.children[idx];
            let i = child.index();
            if k.buffers.size(child) + self.inflight[i] + u64::from(k.nodes[i].cpu_busy) < CAP {
                self.next = (idx + 1) % n;
                let task = k.inject(t);
                self.inflight[i] += 1;
                k.probe.task_dispatch(root, t, TaskAction::Send(child), None);
                let c = k.link(child)?;
                k.start_hop(root, child, t, c, task);
                return Ok(());
            }
        }
        Ok(())
    }

    /// Starts a return transfer if both ports are free; zero return time
    /// completes instantly (the merged model).
    fn try_return<P: Probe>(&mut self, k: &mut Kernel<'_, P>, child: NodeId, t: Rat) {
        let (i, root) = (child.index(), k.root());
        let r = self.return_time[i];
        if self.ready[i] == 0 {
            return;
        }
        if r.is_zero() {
            self.ready[i] -= 1;
            k.complete(child, t);
            return;
        }
        if k.nodes[i].send_busy || k.nodes[root.index()].recv_busy {
            return;
        }
        self.ready[i] -= 1;
        k.start_transfer(child, root, t, r, Ev::Return { from: child, to: root });
    }
}

impl Policy for ResultReturn<'_> {
    type Error = SimError;

    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), SimError> {
        self.try_master_send(k, Rat::ZERO)
    }

    #[inline]
    fn on_event<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        t: Rat,
        ev: Ev,
    ) -> Result<(), SimError> {
        match ev {
            Ev::PortEnd(node) => {
                k.nodes[node.index()].send_busy = false;
                self.try_master_send(k, t)?;
            }
            Ev::Arrive(child, task) => {
                self.inflight[child.index()] -= 1;
                k.probe.task_delivered(child, t);
                k.receive(child, t);
                k.route(child, t, TaskAction::Compute, None, task)?;
                self.try_master_send(k, t)?;
            }
            Ev::CpuEnd(child) => {
                k.cpu_end(child, t, false);
                self.ready[child.index()] += 1;
                self.try_return(k, child, t);
                k.try_cpu(child, t)?;
                self.try_master_send(k, t)?;
            }
            Ev::Return { from, to } => {
                k.nodes[from.index()].send_busy = false;
                k.nodes[to.index()].recv_busy = false;
                k.complete(from, t);
                self.try_return(k, from, t);
                // The master's receiving port is free again: grant it to
                // any child with a ready result (smallest index first).
                for idx in 0..self.children.len() {
                    let child = self.children[idx];
                    if self.ready[child.index()] > 0 && !k.nodes[child.index()].send_busy {
                        self.try_return(k, child, t);
                        if k.nodes[to.index()].recv_busy {
                            break;
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Simulates a fork platform where results return to the master over the
/// children's sending ports and the master's receiving port. Completions are
/// counted when results reach the master.
///
/// # Errors
/// [`SimError::BadInput`] unless the platform is a fork (height 1) — the
/// shape Section 9 analyzes — with one return time per node.
pub fn simulate(rr: &ResultReturnPlatform, cfg: &SimConfig) -> Result<SimReport, SimError> {
    with_gantt(cfg, |probe| simulate_probed(&rr.platform, &rr.return_time, cfg, probe))
}

/// Simulates the *merged* variant: forward costs inflated by the return
/// times, no separate return traffic — the simplification the paper refutes.
///
/// # Errors
/// As [`simulate`].
pub fn simulate_merged(rr: &ResultReturnPlatform, cfg: &SimConfig) -> Result<SimReport, SimError> {
    let merged = rr.merged();
    let zeros = vec![Rat::ZERO; merged.len()];
    with_gantt(cfg, |probe| simulate_probed(&merged, &zeros, cfg, probe))
}

/// Simulates `platform` with per-node result-return times `return_time`,
/// driving a custom [`Probe`]. The report's `gantt` is `None`; plug in a
/// [`GanttProbe`] to collect one.
///
/// # Errors
/// As [`simulate`].
///
/// [`GanttProbe`]: crate::GanttProbe
pub fn simulate_probed(
    platform: &Platform,
    return_time: &[Rat],
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    if platform.height() != 1 {
        return Err(SimError::BadInput("result-return simulation expects a fork platform"));
    }
    if return_time.len() != platform.len() {
        return Err(SimError::BadInput("result-return simulation needs one return time per node"));
    }
    let n = platform.len();
    let mut policy = ResultReturn {
        return_time,
        children: platform.children(platform.root()).to_vec(),
        inflight: vec![0; n],
        ready: vec![0; n],
        next: 0,
    };
    Kernel::new(platform, cfg, return_time, probe).run(&mut policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::section9_counterexample;
    use bwfirst_rational::rat;

    #[test]
    fn separated_model_sustains_two_tasks_per_unit() {
        let rr = section9_counterexample();
        let rep = simulate(&rr, &SimConfig::to_horizon(rat(200, 1))).unwrap();
        let rate = rep.throughput_in(rat(100, 1), rat(200, 1));
        assert!(rate >= rat(19, 10), "separated model too slow: {rate}");
        assert!(rate <= rat(2, 1));
    }

    #[test]
    fn merged_model_halves_throughput() {
        let rr = section9_counterexample();
        let rep = simulate_merged(&rr, &SimConfig::to_horizon(rat(200, 1))).unwrap();
        let rate = rep.throughput_in(rat(100, 1), rat(200, 1));
        assert!(rate <= rat(1, 1), "merged model too fast: {rate}");
        assert!(rate >= rat(9, 10), "merged model unexpectedly slow: {rate}");
    }

    #[test]
    fn ports_never_double_booked() {
        let rr = section9_counterexample();
        let rep = simulate(&rr, &SimConfig::to_horizon(rat(50, 1))).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn results_eventually_all_return() {
        let rr = section9_counterexample();
        let cfg = SimConfig {
            horizon: rat(300, 1),
            stop_injection_at: None,
            total_tasks: Some(40),
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&rr, &cfg).unwrap();
        assert_eq!(rep.completions.len(), 40);
        assert_eq!(rep.total_computed(), 40);
    }

    #[test]
    fn rejects_deep_trees() {
        use bwfirst_platform::{PlatformBuilder, Weight};
        let mut b = PlatformBuilder::new();
        let r = b.root(Weight::Infinite);
        let mid = b.child(r, Weight::Time(rat(1, 1)), rat(1, 2));
        b.child(mid, Weight::Time(rat(1, 1)), rat(1, 2));
        let p = b.build().unwrap();
        let rr = ResultReturnPlatform { platform: p, return_time: vec![Rat::ZERO; 3] };
        let err = simulate(&rr, &SimConfig::to_horizon(rat(10, 1))).unwrap_err();
        assert!(matches!(err, SimError::BadInput(why) if why.contains("fork platform")), "{err}");
    }
}
