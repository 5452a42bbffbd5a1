//! Dynamic platforms: link degradations mid-run, with and without
//! re-negotiation — the paper's closing motivation ("scheduling strategies
//! that tackle the platform dynamics") played out in *simulated* time.
//!
//! The executor is the event-driven one, extended with two event kinds:
//!
//! * **link changes** — at a given time the communication time of an edge
//!   changes; transfers already in flight finish at their old speed, new
//!   transfers pay the new cost. The *stale* schedule keeps routing the old
//!   `ψ` proportions, so a degraded link clogs its parent's sending port and
//!   throughput collapses well below the degraded platform's optimum.
//! * **adaptation points** — the root re-runs `BW-First` on the current
//!   platform state (the Section 5 strategy; E11 measures its cost as a few
//!   hundred microseconds and ~100 wire bytes) and every node swaps to its
//!   new event-driven schedule. Buffered tasks are kept and re-enter the
//!   new routing.
//!
//! Experiment E18 compares the two policies around a mid-run degradation.

use crate::engine::{SimConfig, SimReport};
use crate::error::SimError;
use crate::event_driven::{EventDriven, StartupPolicy, Stride};
use crate::kernel::{Ev, Kernel, Policy};
use crate::probe::{GanttProbe, Probe};
use bwfirst_core::schedule::{EventDrivenSchedule, LocalScheduleKind};
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::borrow::Cow;

/// A scheduled change to one link's communication time.
#[derive(Debug, Clone, Copy)]
pub struct LinkChange {
    /// When the change takes effect.
    pub at: Rat,
    /// The child whose incoming link changes.
    pub child: NodeId,
    /// The new communication time.
    pub new_c: Rat,
}

/// How the platform reacts to changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptPolicy {
    /// Keep running the original schedule (the stale baseline).
    Stale,
    /// Re-run `BW-First` and swap schedules `delay` time units after each
    /// change (detection + negotiation lag; E11 shows the real cost is
    /// microseconds, so small values are realistic).
    Renegotiate {
        /// Lag between the change and the schedule swap.
        delay: Rat,
    },
}

/// The event-driven policy plus the link-change and adaptation stream.
struct Dynamic<'a> {
    inner: EventDriven<'a>,
    changes: &'a [LinkChange],
    policy: AdaptPolicy,
    /// Times at which the schedule was swapped.
    adaptations: Vec<Rat>,
}

impl Dynamic<'_> {
    /// Recomputes the optimal schedule for the platform's *current* state
    /// and swaps every node onto it.
    fn adapt<P: Probe>(&mut self, k: &Kernel<'_, P>, t: Rat) -> Result<(), SimError> {
        let ss = SteadyState::from_solution(&bw_first(&k.platform));
        if !ss.throughput.is_positive() {
            return Ok(()); // nothing schedulable; keep the old one
        }
        let schedule =
            EventDrivenSchedule::build(&k.platform, &ss, LocalScheduleKind::Interleaved)?;
        self.inner.stride = Stride::new(&k.platform, Cow::Owned(schedule))?;
        self.inner.replanned = true;
        self.adaptations.push(t);
        Ok(())
    }
}

impl Policy for Dynamic<'_> {
    type Error = SimError;

    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), SimError> {
        for (idx, ch) in self.changes.iter().enumerate() {
            k.queue.push(ch.at, Ev::Change(idx));
            if let AdaptPolicy::Renegotiate { delay } = self.policy {
                k.queue.push(ch.at + delay, Ev::Adapt);
            }
        }
        self.inner.start(k)
    }

    #[inline]
    fn on_event<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        t: Rat,
        ev: Ev,
    ) -> Result<(), SimError> {
        match ev {
            Ev::Change(idx) => {
                if let Some(ch) = self.changes.get(idx) {
                    k.platform.to_mut().set_link_time(ch.child, ch.new_c);
                }
                Ok(())
            }
            Ev::Adapt => self.adapt(k, t),
            ev => self.inner.on_event(k, t, ev),
        }
    }
}

/// Simulates a dynamic run: `changes` hit the platform at their times; under
/// [`AdaptPolicy::Renegotiate`] the schedule is re-derived after each change.
/// Returns the report and the times at which schedules were swapped.
///
/// # Errors
/// [`SimError::NotSchedulable`] if the starting platform has zero
/// throughput; other [`SimError`]s if a schedule and the platform disagree
/// mid-run.
pub fn simulate_dynamic(
    platform: &Platform,
    changes: &[LinkChange],
    policy: AdaptPolicy,
    cfg: &SimConfig,
) -> Result<(SimReport, Vec<Rat>), SimError> {
    let mut probe = GanttProbe::new(cfg.record_gantt);
    let (mut rep, adaptations) =
        simulate_dynamic_probed(platform, changes, policy, cfg, &mut probe)?;
    rep.gantt = probe.into_gantt();
    Ok((rep, adaptations))
}

/// Simulates a dynamic run driving a custom [`Probe`] (see
/// [`simulate_dynamic`]). The report's `gantt` is `None`; plug in a
/// [`GanttProbe`] to collect one.
///
/// # Errors
/// As [`simulate_dynamic`].
pub fn simulate_dynamic_probed(
    platform: &Platform,
    changes: &[LinkChange],
    policy: AdaptPolicy,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<(SimReport, Vec<Rat>), SimError> {
    let ss = SteadyState::from_solution(&bw_first(platform));
    if !ss.throughput.is_positive() {
        return Err(SimError::NotSchedulable);
    }
    let schedule = Cow::Owned(EventDrivenSchedule::standard(platform, &ss)?);
    let inner = EventDriven::new(platform, schedule, StartupPolicy::EventDriven)?;
    // Scale hint: the initial platform durations plus the announced change
    // times, their new link costs, and the adaptation delay. A re-derived
    // schedule's release step may still miss this scale — such events simply
    // demote to the exact lane one by one.
    let mut extras = vec![inner.stride.release_step];
    for ch in changes {
        extras.push(ch.at);
        extras.push(ch.new_c);
    }
    if let AdaptPolicy::Renegotiate { delay } = policy {
        extras.push(delay);
    }
    let mut dynamic = Dynamic { inner, changes, policy, adaptations: Vec::new() };
    let report = Kernel::new(platform, cfg, &extras, probe).run(&mut dynamic)?;
    Ok((report, dynamic.adaptations))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_rational::rat;

    fn degrade_at_120() -> Vec<LinkChange> {
        vec![LinkChange { at: rat(120, 1), child: NodeId(1), new_c: rat(12, 1) }]
    }

    #[test]
    fn no_changes_matches_static_executor() {
        let p = example_tree();
        let cfg = SimConfig::to_horizon(rat(150, 1));
        let (rep, adaptations) = simulate_dynamic(&p, &[], AdaptPolicy::Stale, &cfg).unwrap();
        assert!(adaptations.is_empty());
        assert_eq!(rep.throughput_in(rat(76, 1), rat(112, 1)), rat(10, 9));
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn stale_schedule_collapses_after_degradation() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(500, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let (rep, _) = simulate_dynamic(&p, &degrade_at_120(), AdaptPolicy::Stale, &cfg).unwrap();
        let before = rep.throughput_in(rat(76, 1), rat(112, 1));
        let after = rep.throughput_in(rat(300, 1), rat(500, 1));
        assert_eq!(before, rat(10, 9));
        // The degraded platform's optimum is 21/20; the stale schedule does
        // far worse because P1's 12x slower sends clog the root's port.
        assert!(after < rat(21, 20), "stale after-rate {after}");
        assert!(after < before * rat(3, 4), "expected a real collapse, got {after}");
    }

    #[test]
    fn renegotiation_recovers_the_new_optimum() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(500, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(5, 1) };
        let (rep, adaptations) = simulate_dynamic(&p, &degrade_at_120(), policy, &cfg).unwrap();
        assert_eq!(adaptations, vec![rat(125, 1)]);
        // New optimum for c(P1) = 12 is 21/20 (see the proto tests);
        // post-adaptation windows must reach it. Period of the new
        // schedule: lcm includes /20 rates → use a 3x window.
        let after = rep.throughput_in(rat(260, 1), rat(480, 1));
        assert!(after >= rat(21, 20) - rat(1, 20), "recovered rate {after}");
        assert!(rep.gantt.as_ref().unwrap().find_overlap().is_none());
    }

    #[test]
    fn link_recovery_restores_the_original_rate() {
        let p = example_tree();
        let changes = vec![
            LinkChange { at: rat(100, 1), child: NodeId(1), new_c: rat(12, 1) },
            LinkChange { at: rat(250, 1), child: NodeId(1), new_c: rat(1, 1) },
        ];
        let cfg = SimConfig {
            horizon: rat(600, 1),
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(2, 1) };
        let (rep, adaptations) = simulate_dynamic(&p, &changes, policy, &cfg).unwrap();
        assert_eq!(adaptations.len(), 2);
        let healed = rep.throughput_in(rat(400, 1), rat(580, 1));
        assert!(healed >= rat(10, 9) - rat(1, 30), "healed rate {healed}");
    }

    #[test]
    fn tasks_are_never_lost_across_adaptations() {
        let p = example_tree();
        let cfg = SimConfig {
            horizon: rat(900, 1),
            stop_injection_at: Some(rat(400, 1)),
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let policy = AdaptPolicy::Renegotiate { delay: rat(5, 1) };
        let (rep, _) = simulate_dynamic(&p, &degrade_at_120(), policy, &cfg).unwrap();
        assert_eq!(rep.total_computed(), rep.received[0]);
    }
}
