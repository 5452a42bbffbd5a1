//! Execution probes: pluggable instrumentation for the simulators.
//!
//! Every executor drives a [`Probe`] with three kinds of observations —
//! busy [`segments`](Probe::segment) (the data Gantt charts are made of),
//! event-queue depth samples, and buffer-occupancy changes. Executors are
//! generic over the probe (static dispatch), so [`NoProbe`]'s empty inlined
//! bodies compile to nothing and uninstrumented runs pay no cost.
//!
//! The Gantt trace that used to be special-cased plumbing is now just one
//! probe among several:
//!
//! * [`GanttProbe`] — collects the classic [`Gantt`] trace;
//! * [`UtilizationProbe`] — per-node, per-activity busy-time accounting;
//! * [`ObsProbe`] — bridges everything into a `bwfirst-obs`
//!   [`Recorder`] as trace spans, counter series and histograms;
//! * tuples — `(A, B)` drives two probes at once.

use crate::gantt::{Gantt, SegmentKind};
use bwfirst_core::schedule::SlotAction;
use bwfirst_obs::{Arg, Event, EventKind, Recorder, Ts};
use bwfirst_platform::NodeId;
use bwfirst_rational::Rat;

/// The three single-port activity lanes, in paper order.
pub const LANES: [&str; 3] = ["receive", "compute", "send"];

/// The lane index of a segment kind (receive 0, compute 1, send 2).
#[must_use]
pub fn lane(kind: SegmentKind) -> usize {
    match kind {
        SegmentKind::Receive => 0,
        SegmentKind::Compute => 1,
        SegmentKind::Send(_) => 2,
    }
}

/// `(track id, label)` pairs for every lane of an `n`-node platform, matching
/// [`ObsProbe`]'s `node·3 + lane` track layout — feed these to
/// `bwfirst_obs::chrome::to_chrome_trace_named` so traces open labeled.
#[must_use]
pub fn track_names(n: usize) -> Vec<(u32, String)> {
    let mut names = Vec::with_capacity(n * 3);
    for node in 0..n {
        for (l, lane) in LANES.iter().enumerate() {
            names.push((node as u32 * 3 + l as u32, format!("P{node} {lane}")));
        }
    }
    names
}

/// Where a dispatched task was routed (the provenance-level mirror of
/// `bwfirst_core::schedule::SlotAction`, kept local so the probe API does
/// not leak schedule types).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskAction {
    /// The task stays: local computation.
    Compute,
    /// The task is forwarded to this child.
    Send(NodeId),
}

impl From<SlotAction> for TaskAction {
    fn from(action: SlotAction) -> TaskAction {
        match action {
            SlotAction::Compute => TaskAction::Compute,
            SlotAction::Send(child) => TaskAction::Send(child),
        }
    }
}

/// A sink for executor observations. All methods default to no-ops, so a
/// probe implements only what it cares about.
pub trait Probe {
    /// One busy interval of one node's activity lane.
    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        let _ = (node, kind, start, end);
    }

    /// The event-queue depth right after an event fired at `t`.
    #[inline(always)]
    fn queue_depth(&mut self, t: Rat, depth: usize) {
        let _ = (t, depth);
    }

    /// A node's buffer reached `size` tasks at time `t`.
    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: Rat, size: u64) {
        let _ = (node, t, size);
    }

    /// A task materialized at `node`: a root injection, or (`stock`) a
    /// pre-positioned χ prefill task.
    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: Rat, stock: bool) {
        let _ = (node, t, stock);
    }

    /// The oldest buffered task at `node` was committed to `action`.
    /// `slot` is the position inside the node's interleaved bunch when the
    /// executor is stride-scheduled (Section 6.3); `None` for quota or
    /// demand modes.
    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: Rat, action: TaskAction, slot: Option<u64>) {
        let _ = (node, t, action, slot);
    }

    /// The oldest in-flight task on the edge into `node` finished its hop.
    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: Rat) {
        let _ = (node, t);
    }
}

/// The zero-cost probe: records nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoProbe;

impl Probe for NoProbe {}

impl<P: Probe + ?Sized> Probe for &mut P {
    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        (**self).segment(node, kind, start, end);
    }

    #[inline(always)]
    fn queue_depth(&mut self, t: Rat, depth: usize) {
        (**self).queue_depth(t, depth);
    }

    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: Rat, size: u64) {
        (**self).buffer(node, t, size);
    }

    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: Rat, stock: bool) {
        (**self).task_enter(node, t, stock);
    }

    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: Rat, action: TaskAction, slot: Option<u64>) {
        (**self).task_dispatch(node, t, action, slot);
    }

    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: Rat) {
        (**self).task_delivered(node, t);
    }
}

impl<A: Probe, B: Probe> Probe for (A, B) {
    #[inline(always)]
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        self.0.segment(node, kind, start, end);
        self.1.segment(node, kind, start, end);
    }

    #[inline(always)]
    fn queue_depth(&mut self, t: Rat, depth: usize) {
        self.0.queue_depth(t, depth);
        self.1.queue_depth(t, depth);
    }

    #[inline(always)]
    fn buffer(&mut self, node: NodeId, t: Rat, size: u64) {
        self.0.buffer(node, t, size);
        self.1.buffer(node, t, size);
    }

    #[inline(always)]
    fn task_enter(&mut self, node: NodeId, t: Rat, stock: bool) {
        self.0.task_enter(node, t, stock);
        self.1.task_enter(node, t, stock);
    }

    #[inline(always)]
    fn task_dispatch(&mut self, node: NodeId, t: Rat, action: TaskAction, slot: Option<u64>) {
        self.0.task_dispatch(node, t, action, slot);
        self.1.task_dispatch(node, t, action, slot);
    }

    #[inline(always)]
    fn task_delivered(&mut self, node: NodeId, t: Rat) {
        self.0.task_delivered(node, t);
        self.1.task_delivered(node, t);
    }
}

/// Collects the classic [`Gantt`] trace (inactive when built with
/// `active = false`, matching `SimConfig::record_gantt`).
#[derive(Debug, Default)]
pub struct GanttProbe {
    gantt: Option<Gantt>,
}

impl GanttProbe {
    /// An active or inactive Gantt collector.
    #[must_use]
    pub fn new(active: bool) -> GanttProbe {
        GanttProbe { gantt: active.then(Gantt::default) }
    }

    /// The collected trace, if this probe was active.
    #[must_use]
    pub fn into_gantt(self) -> Option<Gantt> {
        self.gantt
    }
}

impl Probe for GanttProbe {
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        if let Some(g) = &mut self.gantt {
            g.push(node, kind, start, end);
        }
    }
}

/// Per-node, per-activity busy time over a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Utilization {
    /// The horizon busy times are clipped to.
    pub horizon: Rat,
    /// `busy[node][lane]` (lanes: receive, compute, send).
    pub busy: Vec<[Rat; 3]>,
}

impl Utilization {
    /// The busy fraction of one node's lane in `[0, horizon)`.
    #[must_use]
    pub fn fraction(&self, node: NodeId, lane: usize) -> Rat {
        self.busy[node.index()][lane] / self.horizon
    }

    /// Rows `(label, busy fraction)` for every nonzero lane, in node order —
    /// ready for `bwfirst_obs::summary::table`.
    #[must_use]
    pub fn rows(&self) -> Vec<(String, String)> {
        let mut rows = Vec::new();
        for (i, lanes) in self.busy.iter().enumerate() {
            for (l, &busy) in lanes.iter().enumerate() {
                if !busy.is_zero() {
                    let frac = busy / self.horizon;
                    rows.push((
                        format!("P{i} {}", LANES[l]),
                        format!("{frac} ({:.1}%)", 100.0 * frac.to_f64()),
                    ));
                }
            }
        }
        rows
    }
}

/// Accumulates [`Utilization`]: busy time per node per activity, clipped to
/// the horizon.
#[derive(Debug, Clone)]
pub struct UtilizationProbe {
    horizon: Rat,
    busy: Vec<[Rat; 3]>,
}

impl UtilizationProbe {
    /// A probe for a platform of `n` nodes, clipping to `horizon`.
    #[must_use]
    pub fn new(n: usize, horizon: Rat) -> UtilizationProbe {
        UtilizationProbe { horizon, busy: vec![[Rat::ZERO; 3]; n] }
    }

    /// The accumulated busy-time report.
    #[must_use]
    pub fn finish(self) -> Utilization {
        Utilization { horizon: self.horizon, busy: self.busy }
    }
}

impl Probe for UtilizationProbe {
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        let clipped = end.min(self.horizon) - start.min(self.horizon);
        if clipped.is_positive() {
            self.busy[node.index()][lane(kind)] += clipped;
        }
    }
}

/// Bridges executor observations into a `bwfirst-obs` [`Recorder`]:
///
/// * segments become `B`/`E` span pairs on track `node·3 + lane`, plus
///   `sim.busy.<lane>` counters (total busy time ×den is not representable,
///   so counters count *segments* and histograms carry durations);
/// * buffer changes become a `buffer P<n>` counter series and a
///   `sim.buffer_occupancy` histogram;
/// * queue depths feed the `sim.event_queue_depth` histogram.
#[derive(Debug)]
pub struct ObsProbe<R: Recorder> {
    rec: R,
}

impl<R: Recorder> ObsProbe<R> {
    /// Wraps a recorder (take it by `&mut` to keep ownership outside).
    pub fn new(rec: R) -> ObsProbe<R> {
        ObsProbe { rec }
    }
}

fn ts(r: Rat) -> Ts {
    Ts::new(r.numer(), r.denom())
}

impl<R: Recorder> Probe for ObsProbe<R> {
    fn segment(&mut self, node: NodeId, kind: SegmentKind, start: Rat, end: Rat) {
        if !self.rec.enabled() {
            return;
        }
        let l = lane(kind);
        let track = node.0 * 3 + l as u32;
        let name = match kind {
            SegmentKind::Send(child) => format!("send {child}"),
            _ => LANES[l].to_string(),
        };
        self.rec.event(
            Event::new(ts(start), track, name.clone(), EventKind::Begin)
                .arg("node", Arg::Int(i128::from(node.0))),
        );
        self.rec.event(Event::new(ts(end), track, name, EventKind::End));
        self.rec.add(&format!("sim.segments.{}", LANES[l]), 1);
        self.rec.observe(&format!("sim.busy.{}", LANES[l]), (end - start).to_f64());
    }

    fn queue_depth(&mut self, _t: Rat, depth: usize) {
        if !self.rec.enabled() {
            return;
        }
        self.rec.observe("sim.event_queue_depth", depth as f64);
    }

    fn buffer(&mut self, node: NodeId, t: Rat, size: u64) {
        if !self.rec.enabled() {
            return;
        }
        self.rec.event(
            Event::new(ts(t), node.0, format!("buffer {node}"), EventKind::Counter)
                .arg("tasks", Arg::Int(i128::from(size))),
        );
        self.rec.observe("sim.buffer_occupancy", size as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_obs::MemoryRecorder;
    use bwfirst_rational::rat;

    #[test]
    fn gantt_probe_respects_activation() {
        let mut on = GanttProbe::new(true);
        on.segment(NodeId(1), SegmentKind::Compute, rat(0, 1), rat(2, 1));
        assert_eq!(on.into_gantt().unwrap().segments.len(), 1);
        let mut off = GanttProbe::new(false);
        off.segment(NodeId(1), SegmentKind::Compute, rat(0, 1), rat(2, 1));
        assert!(off.into_gantt().is_none());
    }

    #[test]
    fn utilization_clips_to_horizon() {
        let mut u = UtilizationProbe::new(2, rat(10, 1));
        u.segment(NodeId(0), SegmentKind::Compute, rat(0, 1), rat(4, 1));
        u.segment(NodeId(0), SegmentKind::Compute, rat(8, 1), rat(14, 1));
        u.segment(NodeId(1), SegmentKind::Send(NodeId(0)), rat(1, 1), rat(2, 1));
        let rep = u.finish();
        assert_eq!(rep.fraction(NodeId(0), 1), rat(6, 10));
        assert_eq!(rep.fraction(NodeId(1), 2), rat(1, 10));
        assert_eq!(rep.rows().len(), 2);
    }

    #[test]
    fn obs_probe_emits_span_pairs_and_metrics() {
        let mut rec = MemoryRecorder::new();
        let mut p = ObsProbe::new(&mut rec);
        p.segment(NodeId(2), SegmentKind::Send(NodeId(3)), rat(1, 2), rat(3, 2));
        p.buffer(NodeId(3), rat(3, 2), 4);
        p.queue_depth(rat(3, 2), 7);
        assert_eq!(rec.events.len(), 3);
        assert_eq!(rec.events[0].kind, EventKind::Begin);
        assert_eq!(rec.events[0].track, 2 * 3 + 2);
        assert_eq!(rec.events[1].kind, EventKind::End);
        assert_eq!(rec.metrics.counter("sim.segments.send"), 1);
        assert_eq!(rec.metrics.histograms["sim.event_queue_depth"].max, 7.0);
        assert_eq!(rec.metrics.histograms["sim.buffer_occupancy"].max, 4.0);
    }

    #[test]
    fn tuple_probe_fans_out() {
        let mut g = GanttProbe::new(true);
        let mut u = UtilizationProbe::new(1, rat(10, 1));
        {
            let mut both = (&mut g, &mut u);
            both.segment(NodeId(0), SegmentKind::Receive, rat(0, 1), rat(1, 1));
        }
        assert_eq!(g.into_gantt().unwrap().segments.len(), 1);
        assert_eq!(u.finish().fraction(NodeId(0), 0), rat(1, 10));
    }
}
