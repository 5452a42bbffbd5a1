//! The Lemma 1 *clocked asynchronous* executor (Section 6.1).
//!
//! Before removing clocks entirely, the paper desynchronizes the three
//! activities with per-activity periods: every `T^c` time units the node
//! computes `ψ`-like integer quota `ρ_0` tasks, every `T^s` it sends `φ_i`
//! tasks to each child `P_i`, and it receives whatever the parent's clocked
//! sender delivers. Proposition 3 shows this sustains steady state provided
//! `χ_{-1}` tasks are **buffered in advance** — the stock that decouples the
//! unsynchronized windows.
//!
//! This executor makes that construction runnable:
//!
//! * with [`ClockedConfig::prefill`] the `χ` stock is placed in every buffer
//!   at `t = 0` and the tree is in steady state *from the very first
//!   window* — the textbook Proposition 3 behaviour;
//! * without prefill, nodes repeatedly exhaust their quota windows while
//!   the pipeline fills (the reason the paper's Section 7 start-up strategy
//!   exists at all).
//!
//! Comparing this executor with the event-driven one quantifies what the
//! paper gains by dropping clocks: same steady throughput, but the clocked
//! schedule needs the χ prefill (extra memory and a dead distribution
//! phase) to start cleanly.

use crate::engine::{SimConfig, SimReport};
use crate::error::SimError;
use crate::kernel::{fits, with_gantt, Ev, Kernel, Policy};
use crate::probe::{Probe, TaskAction};
use bwfirst_core::schedule::TreeSchedule;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;

/// Options for the clocked executor.
#[derive(Debug, Clone, Copy)]
pub struct ClockedConfig {
    /// Place each node's `χ_{-1}` steady-state stock in its buffer at t = 0
    /// (Proposition 3's precondition).
    pub prefill: bool,
}

impl Default for ClockedConfig {
    fn default() -> Self {
        ClockedConfig { prefill: true }
    }
}

/// The Lemma 1 quota windows.
struct Clocked<'a> {
    schedule: &'a TreeSchedule,
    prefill: bool,
    /// Per-node compute quota: `ρ_0` tasks per `T^c` window.
    rho: Vec<i128>,
    /// Per-node send quotas: `[(child, φ_i)]` per `T^s` window.
    phi: Vec<Vec<(NodeId, i128)>>,
    /// Remaining compute quota in each node's current window.
    cpu_quota: Vec<i128>,
    /// Remaining send quota per child (bandwidth-centric order).
    send_quota: Vec<Vec<(NodeId, i128)>>,
}

impl Clocked<'_> {
    fn try_cpu<P: Probe>(&mut self, k: &mut Kernel<'_, P>, node: NodeId, t: Rat) {
        let i = node.index();
        if k.nodes[i].cpu_busy || self.cpu_quota[i] <= 0 {
            return;
        }
        let Some(w) = k.platform.weight(node).time() else { return };
        if !k.take(node, t) {
            return;
        }
        self.cpu_quota[i] -= 1;
        k.probe.task_dispatch(node, t, TaskAction::Compute, None);
        k.start_cpu(node, t, w, 0);
    }

    fn try_port<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        node: NodeId,
        t: Rat,
    ) -> Result<(), SimError> {
        let i = node.index();
        if k.nodes[i].send_busy {
            return Ok(());
        }
        // Serve the child with the largest remaining share of its window
        // quota (ties: the window order). Serving fastest-link-first in full
        // bursts would hand slow consumers their whole window's tasks at
        // once and build χ-dwarfing backlogs; proportional service spreads
        // each child's φ quota across the window, which is what Lemma 1's
        // construction intends.
        let mut pos_best: Option<(Rat, usize)> = None;
        for (pos, &(_, q)) in self.send_quota[i].iter().enumerate() {
            if q <= 0 {
                continue;
            }
            let share = Rat::new(q, self.phi[i][pos].1.max(1));
            if pos_best.as_ref().is_none_or(|&(best, _)| share > best) {
                pos_best = Some((share, pos));
            }
        }
        let Some((_, pos)) = pos_best else { return Ok(()) };
        let child = self.send_quota[i][pos].0;
        if !k.take(node, t) {
            return Ok(());
        }
        self.send_quota[i][pos].1 -= 1;
        k.probe.task_dispatch(node, t, TaskAction::Send(child), None);
        let c = k.link(child)?;
        k.start_hop(node, child, t, c, 0);
        Ok(())
    }
}

impl Policy for Clocked<'_> {
    type Error = SimError;

    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), SimError> {
        for s in self.schedule.iter() {
            let i = s.node.index();
            // ρ_0 tasks per T^c window: α = ρ_0 / T^c exactly.
            self.rho[i] = s.psi_self * s.t_comp / s.t_omega;
            debug_assert_eq!(self.rho[i] * s.t_omega, s.psi_self * s.t_comp);
            // φ_i tasks per T^s window.
            self.phi[i] =
                s.psi_children.iter().map(|&(k, q)| (k, q * s.t_send / s.t_omega)).collect();
            if let Some(chi) = s.chi_in.filter(|_| self.prefill) {
                // `received` counts the stock too, so `received = computed +
                // forwarded` still holds per node over a drained run.
                k.nodes[i].received += chi as u64;
                k.stock(s.node, Rat::ZERO, chi as i64);
                for _ in 0..chi {
                    k.probe.task_enter(s.node, Rat::ZERO, true);
                }
            }
        }
        // Arm the clocks of every scheduled node.
        for s in self.schedule.iter() {
            if self.rho[s.node.index()] > 0 {
                k.queue.push(Rat::ZERO, Ev::CpuTick(s.node));
            }
            if !self.phi[s.node.index()].is_empty() {
                k.queue.push(Rat::ZERO, Ev::SendTick(s.node));
            }
        }
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
            Ev::CpuTick(node) => {
                let s = self.schedule.get(node).ok_or(SimError::NoSchedule(node))?;
                // Quota does not accumulate across windows: what the node
                // failed to compute is lost (Lemma 1's windows are
                // independent).
                self.cpu_quota[node.index()] = self.rho[node.index()];
                k.queue.push(t + Rat::from_int(s.t_comp), Ev::CpuTick(node));
                self.try_cpu(k, node, t);
            }
            Ev::SendTick(node) => {
                let s = self.schedule.get(node).ok_or(SimError::NoSchedule(node))?;
                self.send_quota[node.index()] = self.phi[node.index()].clone();
                k.queue.push(t + Rat::from_int(s.t_send), Ev::SendTick(node));
                self.try_port(k, node, t)?;
            }
            Ev::CpuEnd(node) => {
                k.cpu_end(node, t, true);
                self.try_cpu(k, node, t);
            }
            Ev::PortEnd(node) => {
                k.nodes[node.index()].send_busy = false;
                self.try_port(k, node, t)?;
            }
            Ev::Arrive(node, _) => {
                k.receive(node, t);
                k.probe.task_delivered(node, t);
                self.try_cpu(k, node, t);
                self.try_port(k, node, t)?;
            }
            _ => {}
        }
        Ok(())
    }
}

/// Simulates the Lemma 1 clocked asynchronous schedule.
///
/// `received` in the report includes prefilled tasks, so the conservation
/// identity `received = computed + forwarded` still holds per node over a
/// fully drained run.
///
/// # Errors
/// [`SimError`] if the schedule and platform disagree mid-run.
pub fn simulate(
    platform: &Platform,
    schedule: &TreeSchedule,
    clocked: ClockedConfig,
    cfg: &SimConfig,
) -> Result<SimReport, SimError> {
    with_gantt(cfg, |probe| simulate_probed(platform, schedule, clocked, cfg, probe))
}

/// Simulates the clocked schedule, driving a custom [`Probe`].
/// The report's `gantt` is `None`; plug in a [`GanttProbe`] to collect one.
///
/// # Errors
/// [`SimError`] if the schedule and platform disagree mid-run.
///
/// [`GanttProbe`]: crate::GanttProbe
pub fn simulate_probed(
    platform: &Platform,
    schedule: &TreeSchedule,
    clocked: ClockedConfig,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    fits(platform, schedule)?;
    let n = platform.len();
    let mut policy = Clocked {
        schedule,
        prefill: clocked.prefill,
        rho: vec![0; n],
        phi: vec![Vec::new(); n],
        cpu_quota: vec![0; n],
        send_quota: vec![Vec::new(); n],
    };
    // Window ticks land at integer multiples of T^c/T^s, so the only
    // fractional times come from compute/link durations.
    Kernel::new(platform, cfg, &[], probe).run(&mut policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_core::schedule::synchronous_period;
    use bwfirst_core::{bw_first, SteadyState};
    use bwfirst_platform::examples::{example_throughput, example_tree};
    use bwfirst_rational::rat;

    fn setup() -> (Platform, SteadyState, TreeSchedule) {
        let p = example_tree();
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ts = TreeSchedule::build(&p, &ss).unwrap();
        (p, ss, ts)
    }

    #[test]
    fn prefilled_run_is_steady_from_the_start() {
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(144, 1)); // 4 global periods
        let rep = simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).unwrap();
        // Proposition 3: with χ buffered, consumption is steady from t = 0.
        // Completions lag starts by one CPU latency per node, so the first
        // period is short by at most one task per active node (8 here) and
        // every later period carries the full 40.
        let first = rep.completions_in(rat(0, 1), rat(36, 1));
        assert!(first >= 32, "first period only completed {first}");
        for k in 1..4 {
            let from = rat(36, 1) * bwfirst_rational::Rat::from(k as usize);
            assert_eq!(rep.completions_in(from, from + rat(36, 1)), 40, "period {k}");
        }
        let _ = ss;
    }

    #[test]
    fn unprefilled_run_starts_slower_then_converges() {
        let (p, _, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(216, 1));
        let cold = simulate(&p, &ts, ClockedConfig { prefill: false }, &cfg).unwrap();
        let warm = simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg).unwrap();
        let first_cold = cold.completions_in(rat(0, 1), rat(36, 1));
        let first_warm = warm.completions_in(rat(0, 1), rat(36, 1));
        assert!(first_cold < first_warm, "cold start {first_cold} vs warm {first_warm}");
        // Quota windows eventually fill: the cold run reaches the rate too.
        assert_eq!(cold.completions_in(rat(144, 1), rat(180, 1)), 40);
    }

    #[test]
    fn single_port_and_conservation() {
        let (p, _, ts) = setup();
        let cfg = SimConfig {
            horizon: rat(400, 1),
            stop_injection_at: Some(rat(150, 1)),
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
        // Drained: everything received (incl. prefill) was computed or
        // forwarded.
        for id in p.node_ids() {
            let forwarded: u64 = p
                .children(id)
                .iter()
                .map(|&k| {
                    // Children's receive counts include their own prefill; what
                    // the parent actually forwarded is received - prefilled.
                    let s = ts.get(k);
                    rep.received[k.index()] - s.and_then(|s| s.chi_in).unwrap_or(0) as u64
                })
                .sum();
            assert_eq!(
                rep.received[id.index()],
                rep.computed[id.index()] + forwarded,
                "conservation at {id}"
            );
        }
    }

    #[test]
    fn clocked_matches_event_driven_steady_rate() {
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(180, 1));
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        let window = bwfirst_rational::Rat::from_int(synchronous_period(&ss).unwrap());
        assert_eq!(rep.throughput_in(rat(36, 1), rat(36, 1) + window), example_throughput());
    }

    #[test]
    fn quotas_are_exact_per_window() {
        // ρ and φ reproduce the rational rates exactly: over any horizon
        // that is a multiple of all windows, computed counts match rate·T.
        let (p, ss, ts) = setup();
        let cfg = SimConfig::to_horizon(rat(72, 1));
        let rep = simulate(&p, &ts, ClockedConfig::default(), &cfg).unwrap();
        for s in ts.iter() {
            let expect = ss.alpha[s.node.index()] * rat(72, 1);
            // Allow the tail task still on the CPU at the horizon.
            let got = bwfirst_rational::Rat::from(rep.computed[s.node.index()] as usize);
            assert!(
                (expect - got).abs() <= bwfirst_rational::Rat::ONE,
                "{}: expected ~{expect}, got {got}",
                s.node
            );
        }
    }
}
