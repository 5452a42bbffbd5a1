//! `negotiate`: renegotiation rounds on a live actor tree. One op applies a
//! seeded `set_link` or `set_weight`, runs `negotiate`, and streams whole
//! root bunches through the tree with `run_flow`. A session lives for six
//! rounds; its spawn and teardown count in the wall time of its first and
//! last round. One session in eight runs over localhost TCP.
//!
//! Why: the protocol layer (actors, machine, wire, channels, TCP) is
//! measured nowhere else; this is the paper's re-initiation of BW-First
//! after a platform change (Section 5).

use crate::common::{self, OpResult, Stream, Workload};
use crate::trace::Tracer;
use bwfirst_core::{bw_first, SteadyState, TreeSchedule};
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::{io, NodeId, Platform, Weight};
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::{rat, Rat};

/// Sessions per pass; the last of every eight uses TCP.
const SESSIONS: usize = 32;

/// A script is used only if every round's root bunch holds at most this
/// many tasks: `run_flow` streams whole bunches, and rational rates can make
/// a bunch hold 10^5 tasks or more.
const BUNCH_MAX: i128 = 128;

/// Each round streams the fewest whole bunches that hold this many tasks,
/// so every round streams 256 to 383 tasks whatever its bunch size.
const FLOW_TASKS: u64 = 256;

/// Rounds per session. The first round spawns the session and the last
/// tears it down, so they take several times as long as the others; with
/// six rounds the median op is a plain round, not one at the edge between
/// the two groups.
const ROUNDS: usize = 6;

/// Payload bytes per streamed task.
const PAYLOAD: usize = 64;

#[derive(Clone, Copy)]
enum Change {
    Link(NodeId, Rat),
    Weight(NodeId, Weight),
}

struct Script {
    json: String,
    tcp: bool,
    changes: Vec<Change>,
}

impl Script {
    /// A random tree and a change per round, with values drawn from the
    /// generator's own ranges; `None` if some round's bunch is too large.
    fn draw(s: &mut Stream, size: usize, tcp: bool) -> Option<Script> {
        let mut p = random_tree(&RandomTreeConfig { size, seed: s.next(), ..Default::default() });
        let json = io::to_json(&p);
        let mut changes = Vec::with_capacity(ROUNDS);
        for _ in 0..ROUNDS {
            let node = NodeId(s.range(1, size as u64 - 1) as u32);
            let change = if s.next().is_multiple_of(2) {
                Change::Link(node, rat(s.range(1, 6) as i128, s.range(1, 3) as i128))
            } else {
                Change::Weight(
                    node,
                    Weight::Time(rat(s.range(1, 12) as i128, s.range(1, 3) as i128)),
                )
            };
            change.apply(&mut p);
            let ss = SteadyState::from_solution(&bw_first(&p));
            let bunch = TreeSchedule::build(&p, &ss).ok()?.get(p.root())?.bunch;
            if bunch > BUNCH_MAX {
                return None;
            }
            changes.push(change);
        }
        Some(Script { json, tcp, changes })
    }
}

impl Change {
    fn apply(self, p: &mut Platform) {
        match self {
            Change::Link(child, c) => p.set_link_time(child, c),
            Change::Weight(node, w) => p.set_weight(node, w),
        }
    }
}

pub struct Negotiate {
    scripts: Vec<Script>,
    live: Option<(ProtocolSession, Platform)>,
}

impl Negotiate {
    pub fn new(seed: u64) -> Negotiate {
        let mut s = Stream::new(seed, 3);
        let sizes = common::linear_sizes(&mut s, SESSIONS, 31, 255);
        let scripts = sizes
            .into_iter()
            .enumerate()
            .map(|(j, size)| loop {
                if let Some(script) = Script::draw(&mut s, size, j % 8 == 7) {
                    break script;
                }
            })
            .collect();
        Negotiate { scripts, live: None }
    }

    fn round(&mut self, t: &mut Tracer, script: usize, round: usize) -> Result<OpResult, String> {
        let sc = &self.scripts[script];
        let name = |plain: &'static str, tcp: &'static str| if sc.tcp { tcp } else { plain };
        if round == 0 {
            self.live = None;
            let p = common::parse(t, &sc.json)?;
            let session = t.span(name("proto.spawn", "proto.tcp.spawn"), || {
                if sc.tcp {
                    ProtocolSession::spawn_tcp(&p)
                } else {
                    ProtocolSession::spawn(&p)
                }
            });
            self.live = Some((session.map_err(|e| format!("spawn: {e}"))?, p));
        }
        let (session, mirror) = self.live.as_mut().ok_or("no live session")?;
        let change = sc.changes[round];
        change.apply(mirror);
        let sent = t.span("proto.control", || match change {
            Change::Link(child, c) => session.set_link(child, c),
            Change::Weight(node, w) => session.set_weight(node, w),
        });
        sent.map_err(|e| format!("control: {e}"))?;
        let neg = t.span(name("proto.negotiate", "proto.tcp.negotiate"), || session.negotiate());
        let neg = neg.map_err(|e| format!("negotiate: {e}"))?;

        // The benchmark's own mirror, solved centrally, is the reference.
        let (sol, ss) = common::solve(t, mirror);
        if neg.throughput != sol.throughput() {
            return Err(format!(
                "negotiated {} but bw_first gives {}",
                neg.throughput,
                sol.throughput()
            ));
        }
        if neg.protocol_messages as usize != sol.message_count() + 2 {
            return Err(format!(
                "{} protocol messages, Prop. 2 count is {}",
                neg.protocol_messages,
                sol.message_count() + 2
            ));
        }
        let tree = common::tree_schedule(t, mirror, &ss)?;
        let root = tree.get(mirror.root()).ok_or("the root is idle")?;
        let bunch = u64::try_from(root.bunch).map_err(|e| e.to_string())?;
        let bunches = FLOW_TASKS.div_ceil(bunch);
        let flow =
            t.span(name("proto.flow", "proto.tcp.flow"), || session.run_flow(bunches, PAYLOAD));
        let flow = flow.map_err(|e| format!("flow: {e}"))?;
        conserved(mirror, &flow.computed, &flow.forwarded, bunches * bunch)?;

        let mut out = OpResult { work: bunches * bunch, ..OpResult::default() };
        out.count("proto.messages", neg.protocol_messages);
        out.count("proto.wire_bytes", neg.wire_bytes);
        if round + 1 == ROUNDS {
            if let Some((session, _)) = self.live.take() {
                t.span(name("proto.shutdown", "proto.tcp.shutdown"), || drop(session));
            }
        }
        Ok(out)
    }
}

/// `tasks` entered the tree and every task was computed exactly once: each
/// node computes or forwards what it receives.
fn conserved(p: &Platform, computed: &[u64], forwarded: &[u64], tasks: u64) -> Result<(), String> {
    let total: u64 = computed.iter().sum();
    if total != tasks {
        return Err(format!("flow computed {total} of {tasks} streamed tasks"));
    }
    let root = p.root().index();
    if computed[root] + forwarded[root] != tasks {
        return Err(format!(
            "the root handled {} of {tasks} streamed tasks",
            computed[root] + forwarded[root]
        ));
    }
    for id in p.node_ids() {
        let i = id.index();
        let received: u64 =
            p.children(id).iter().map(|k| computed[k.index()] + forwarded[k.index()]).sum();
        if received != forwarded[i] {
            return Err(format!(
                "{id} forwarded {} tasks, its children handled {received}",
                forwarded[i]
            ));
        }
    }
    Ok(())
}

impl Workload for Negotiate {
    fn ops(&self) -> usize {
        self.scripts.len() * ROUNDS
    }

    /// The rounds of the first session, on the smallest tree.
    fn warmup(&self) -> Vec<usize> {
        (0..ROUNDS).collect()
    }

    fn pass_seconds(&self) -> f64 {
        0.75
    }

    fn work_name(&self) -> &'static str {
        "flow_tasks_per_s"
    }

    fn digest(&self) -> u64 {
        common::digest(self.scripts.iter().map(|s| s.json.as_bytes()))
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> OpResult {
        let (script, round) = (i / ROUNDS, i % ROUNDS);
        match self.round(t, script, round) {
            Ok(out) => out,
            Err(e) => {
                // A failed round ends its session; the next round respawns.
                self.live = None;
                OpResult::fail(e)
            }
        }
    }
}
