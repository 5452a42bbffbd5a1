//! The single-port node kernel every executor runs on.
//!
//! Section 3 gives each node the same three resources — one CPU, one
//! sending port and one receiving port, fully overlapped — and every
//! executor in this crate simulates exactly those. The [`Kernel`] owns
//! them: per-node CPU and port state, the FIFO queues of tasks committed to
//! the CPU or to a send, buffer accounting, the one event loop (horizon
//! cut-off, queue-depth samples), probe calls, completions with their
//! latencies, and the final [`SimReport`].
//!
//! What differs between executors — when a task is routed where, when a
//! port may start, which events exist at all — is a [`Policy`], monomorphised
//! into [`Kernel::run`] so the hot loop has no dynamic dispatch. A policy
//! drives the kernel through its helpers; the order of those calls *is* the
//! executor's event push order and probe call order, which the queue's
//! insertion-order tie-break makes observable.

use crate::engine::{tick_scale_hint, BufferTracker, EventQueue, SimConfig, SimReport};
use crate::error::SimError;
use crate::gantt::SegmentKind;
use crate::probe::{GanttProbe, Probe, TaskAction};
use bwfirst_core::schedule::TreeSchedule;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::Rat;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Every event any executor schedules.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Ev {
    /// The root releases one task (paced injection).
    Release,
    /// A downward transfer ended: task `id` reaches `node`.
    Arrive(NodeId, u64),
    /// A node's CPU finished one task.
    CpuEnd(NodeId),
    /// A node's sending port finished one transfer.
    PortEnd(NodeId),
    /// A transfer holding `from`'s sending port and `to`'s receiving port
    /// finished, delivering the task and freeing both ports at once.
    Hop { from: NodeId, to: NodeId },
    /// An upward result transfer from `from` to its parent `to` finished.
    Return { from: NodeId, to: NodeId },
    /// `from`'s transfer `token` finished; an interrupted transfer's
    /// completion carries a stale token.
    Transfer { from: NodeId, token: u64 },
    /// A node's compute window opens (clocked, period `T^c`).
    CpuTick(NodeId),
    /// A node's send window opens (clocked, period `T^s`).
    SendTick(NodeId),
    /// The `idx`-th scheduled link change hits the platform.
    Change(usize),
    /// The platform re-negotiates and every node swaps schedules.
    Adapt,
}

/// One node's Section 3 resources.
#[derive(Default)]
pub(crate) struct Node {
    /// Ids of tasks committed to the CPU, not yet started.
    pub cpu_queue: VecDeque<u64>,
    /// Committed sends `(child, task id)`, oldest first.
    pub send_queue: VecDeque<(NodeId, u64)>,
    pub cpu_busy: bool,
    /// Id of the task on the CPU.
    pub cpu_task: u64,
    /// The CPU may not start tasks yet (the prefill start-up).
    pub cpu_off: bool,
    pub send_busy: bool,
    pub recv_busy: bool,
    /// Tasks received from the parent (root: tasks injected).
    pub received: u64,
    pub computed: u64,
}

/// What one executor decides; the [`Kernel`] does the rest.
pub(crate) trait Policy {
    /// What the policy can reject mid-run.
    type Error;
    /// Whether the report carries per-task sojourn latencies.
    const LATENCIES: bool = false;

    /// Seeds the queue (and any pre-placed stock) before the first event.
    fn start<P: Probe>(&mut self, k: &mut Kernel<'_, P>) -> Result<(), Self::Error>;

    /// Handles one event popped at `t`.
    fn on_event<P: Probe>(
        &mut self,
        k: &mut Kernel<'_, P>,
        t: Rat,
        ev: Ev,
    ) -> Result<(), Self::Error>;
}

/// Per-node resources, the event queue and the measurements of one run.
pub(crate) struct Kernel<'a, P: Probe> {
    /// Borrowed unless a policy changes it mid-run (link changes).
    pub platform: Cow<'a, Platform>,
    pub cfg: &'a SimConfig,
    pub queue: EventQueue<Ev>,
    pub nodes: Vec<Node>,
    pub buffers: BufferTracker,
    pub probe: P,
    /// `(time, node)` of every completed task.
    completions: Vec<(Rat, NodeId)>,
    /// Sojourn time of each completion, when the policy reports them.
    latencies: Option<Vec<Rat>>,
    /// Injection time of each task id, kept while latencies are.
    entered: Vec<Rat>,
    injected: u64,
    last_injection: Option<Rat>,
}

impl<'a, P: Probe> Kernel<'a, P> {
    /// A kernel at `t = 0`; `extras` are durations beyond the platform's
    /// own that event times may include (see [`tick_scale_hint`]).
    pub fn new(platform: &'a Platform, cfg: &'a SimConfig, extras: &[Rat], probe: P) -> Self {
        let n = platform.len();
        Kernel {
            queue: EventQueue::with_scale(cfg.queue_scale(tick_scale_hint(platform, extras))),
            platform: Cow::Borrowed(platform),
            cfg,
            nodes: (0..n).map(|_| Node::default()).collect(),
            buffers: BufferTracker::new(n),
            probe,
            completions: Vec::new(),
            latencies: None,
            entered: Vec::new(),
            injected: 0,
            last_injection: None,
        }
    }

    /// Runs `policy` to the horizon and builds the report.
    pub fn run<Pol: Policy>(mut self, policy: &mut Pol) -> Result<SimReport, Pol::Error> {
        self.latencies = Pol::LATENCIES.then(Vec::new);
        policy.start(&mut self)?;
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.cfg.horizon {
                break;
            }
            self.probe.queue_depth(t, self.queue.len());
            policy.on_event(&mut self, t, ev)?;
        }
        Ok(self.report())
    }

    #[inline]
    pub fn root(&self) -> NodeId {
        self.platform.root()
    }

    #[inline]
    pub fn link(&self, child: NodeId) -> Result<Rat, SimError> {
        self.platform.link_time(child).ok_or(SimError::MissingLink(child))
    }

    /// Whether the root may still inject at `t` (horizon, stop time and
    /// task budget).
    #[inline]
    pub fn supply(&self, t: Rat) -> bool {
        t < self.cfg.injection_end() && self.cfg.total_tasks.is_none_or(|n| self.injected < n)
    }

    /// Schedules the root's next paced release at `t`, supply permitting.
    #[inline]
    pub fn release_at(&mut self, t: Rat) {
        if self.supply(t) {
            self.queue.push(t, Ev::Release);
        }
    }

    /// A fresh task enters at the root; returns its id. Tasks are numbered
    /// in injection order; stock drawn by count (clocked, demand) and
    /// result relays carry no identity and use id 0.
    #[inline]
    pub fn inject(&mut self, t: Rat) -> u64 {
        let (root, id) = (self.root(), self.injected);
        if self.latencies.is_some() {
            self.entered.push(t);
        }
        self.injected += 1;
        self.last_injection = Some(t);
        self.nodes[root.index()].received += 1;
        self.probe.task_enter(root, t, false);
        id
    }

    /// Changes `node`'s buffer by `delta` tasks.
    #[inline]
    pub fn stock(&mut self, node: NodeId, t: Rat, delta: i64) {
        self.buffers.add(node, t, delta);
        self.probe.buffer(node, t, self.buffers.size(node));
    }

    /// A task from the parent lands in `node`'s buffer.
    #[inline]
    pub fn receive(&mut self, node: NodeId, t: Rat) {
        self.nodes[node.index()].received += 1;
        self.stock(node, t, 1);
    }

    /// Takes one task for immediate use: the root injects one if supply
    /// lasts, other nodes draw on their buffer. `false` if none is at hand.
    #[inline]
    pub fn take(&mut self, node: NodeId, t: Rat) -> bool {
        if node == self.root() {
            let ok = self.supply(t);
            if ok {
                self.inject(t);
            }
            ok
        } else if self.buffers.size(node) > 0 {
            self.stock(node, t, -1);
            true
        } else {
            false
        }
    }

    /// Commits `node`'s oldest buffered task to `action` (still buffered
    /// until its resource starts it).
    #[inline]
    pub fn commit(
        &mut self,
        node: NodeId,
        t: Rat,
        action: TaskAction,
        slot: Option<u64>,
        task: u64,
    ) {
        self.probe.task_dispatch(node, t, action, slot);
        let n = &mut self.nodes[node.index()];
        match action {
            TaskAction::Compute => n.cpu_queue.push_back(task),
            TaskAction::Send(child) => n.send_queue.push_back((child, task)),
        }
    }

    /// [`commit`](Kernel::commit)s, then tries the resource it went to.
    #[inline]
    pub fn route(
        &mut self,
        node: NodeId,
        t: Rat,
        action: TaskAction,
        slot: Option<u64>,
        task: u64,
    ) -> Result<(), SimError> {
        self.commit(node, t, action, slot, task);
        match action {
            TaskAction::Compute => self.try_cpu(node, t),
            TaskAction::Send(_) => self.try_port(node, t),
        }
    }

    /// Starts the oldest CPU-committed task if the CPU is idle and on.
    #[inline]
    pub fn try_cpu(&mut self, node: NodeId, t: Rat) -> Result<(), SimError> {
        let n = &self.nodes[node.index()];
        if n.cpu_busy || n.cpu_off || n.cpu_queue.is_empty() {
            return Ok(());
        }
        let w = self.platform.weight(node).time().ok_or(SimError::SwitchComputes(node))?;
        let task =
            self.nodes[node.index()].cpu_queue.pop_front().ok_or(SimError::EmptyQueue(node))?;
        self.stock(node, t, -1);
        self.start_cpu(node, t, w, task);
        Ok(())
    }

    /// Starts the oldest committed send if the sending port is idle.
    #[inline]
    pub fn try_port(&mut self, node: NodeId, t: Rat) -> Result<(), SimError> {
        let i = node.index();
        if self.nodes[i].send_busy {
            return Ok(());
        }
        let Some((child, task)) = self.nodes[i].send_queue.pop_front() else { return Ok(()) };
        let c = self.link(child)?;
        self.stock(node, t, -1);
        self.start_hop(node, child, t, c, task);
        Ok(())
    }

    /// Occupies `node`'s CPU with `task` for `w`.
    #[inline]
    pub fn start_cpu(&mut self, node: NodeId, t: Rat, w: Rat, task: u64) {
        let n = &mut self.nodes[node.index()];
        n.cpu_busy = true;
        n.cpu_task = task;
        self.probe.segment(node, SegmentKind::Compute, t, t + w);
        self.queue.push(t + w, Ev::CpuEnd(node));
    }

    /// Sends `task` to `child` over `c`: the port frees, then the task
    /// arrives, both at `t + c`.
    #[inline]
    pub fn start_hop(&mut self, node: NodeId, child: NodeId, t: Rat, c: Rat, task: u64) {
        self.nodes[node.index()].send_busy = true;
        self.probe.segment(node, SegmentKind::Send(child), t, t + c);
        self.probe.segment(child, SegmentKind::Receive, t, t + c);
        self.queue.push(t + c, Ev::PortEnd(node));
        self.queue.push(t + c, Ev::Arrive(child, task));
    }

    /// Occupies `from`'s sending and `to`'s receiving port for `d`, ending
    /// with `end` (an [`Ev::Hop`] or [`Ev::Return`]).
    #[inline]
    pub fn start_transfer(&mut self, from: NodeId, to: NodeId, t: Rat, d: Rat, end: Ev) {
        self.nodes[from.index()].send_busy = true;
        self.nodes[to.index()].recv_busy = true;
        self.probe.segment(from, SegmentKind::Send(to), t, t + d);
        self.probe.segment(to, SegmentKind::Receive, t, t + d);
        self.queue.push(t + d, end);
    }

    /// Frees `node`'s CPU after a task; `complete` counts the task as done
    /// here (otherwise its result still has to travel).
    #[inline]
    pub fn cpu_end(&mut self, node: NodeId, t: Rat, complete: bool) {
        let n = &mut self.nodes[node.index()];
        n.cpu_busy = false;
        n.computed += 1;
        if complete {
            self.completions.push((t, node));
            if let (Some(lat), Some(&t0)) =
                (&mut self.latencies, self.entered.get(n.cpu_task as usize))
            {
                lat.push(t - t0);
            }
        }
    }

    /// Counts a completion at `node` (a result reached its destination).
    #[inline]
    pub fn complete(&mut self, node: NodeId, t: Rat) {
        self.completions.push((t, node));
    }

    fn report(self) -> SimReport {
        let cfg = self.cfg;
        let exhausted = cfg.total_tasks.is_some_and(|n| self.injected >= n);
        let injection_stopped_at = if exhausted {
            self.last_injection
        } else {
            cfg.stop_injection_at.filter(|&s| s <= cfg.horizon)
        };
        let by_time = |a: &(Rat, NodeId), b: &(Rat, NodeId)| a.0.cmp(&b.0).then(a.1.cmp(&b.1));
        let (completions, latencies) = match self.latencies {
            Some(lat) => {
                let mut joined: Vec<_> = self.completions.into_iter().zip(lat).collect();
                joined.sort_by(|a, b| by_time(&a.0, &b.0));
                let (completions, lat) = joined.into_iter().unzip();
                (completions, Some(lat))
            }
            None => {
                let mut completions = self.completions;
                completions.sort_by(by_time);
                (completions, None)
            }
        };
        SimReport {
            horizon: cfg.horizon,
            injection_stopped_at,
            completions,
            latencies,
            computed: self.nodes.iter().map(|n| n.computed).collect(),
            received: self.nodes.iter().map(|n| n.received).collect(),
            buffers: self.buffers.finalize(cfg.horizon),
            gantt: None,
        }
    }
}

/// Checks that `tree` was built for `platform`: every scheduled node
/// exists, every scheduled send goes to one of the sender's children, and
/// only nodes with a CPU compute.
pub(crate) fn fits(platform: &Platform, tree: &TreeSchedule) -> Result<(), SimError> {
    let exists = |id: NodeId| id.index() < platform.len();
    for s in tree.iter() {
        if !exists(s.node) {
            return Err(SimError::ForeignSchedule(s.node));
        }
        if s.psi_self > 0 && platform.weight(s.node).time().is_none() {
            return Err(SimError::SwitchComputes(s.node));
        }
        for &(child, _) in &s.psi_children {
            if !exists(child) || platform.parent(child) != Some(s.node) {
                return Err(SimError::ForeignSchedule(child));
            }
        }
    }
    Ok(())
}

/// Runs `sim` under a [`GanttProbe`] (active per `cfg.record_gantt`) and
/// attaches the chart to its report.
pub(crate) fn with_gantt<E>(
    cfg: &SimConfig,
    sim: impl FnOnce(&mut GanttProbe) -> Result<SimReport, E>,
) -> Result<SimReport, E> {
    let mut probe = GanttProbe::new(cfg.record_gantt);
    let mut rep = sim(&mut probe)?;
    rep.gantt = probe.into_gantt();
    Ok(rep)
}
