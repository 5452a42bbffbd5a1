//! `plan`: parse, solve with both solvers (and the LP on small trees),
//! build the tree and local schedules, and validate them.
//!
//! Why: platform and core do almost all the work here; sim and proto do
//! none. The four shapes and the sizes vary the share of the tree that
//! BW-First visits, which is what its pruning is for.

use crate::common::{self, OpResult, Stream, Workload};
use crate::trace::Tracer;
use bwfirst_bench::trees::{bottleneck, supply_tree};
use bwfirst_core::{bottom_up, bw_first, validate_schedule, SteadyState, TreeSchedule};
use bwfirst_lp::steady::steady_state_lp;
use bwfirst_platform::generators::{daisy_chain, random_tree, RandomTreeConfig};
use bwfirst_platform::{io, Platform, Weight};
use bwfirst_rational::rat;

/// Ops where some node's bunch Ψ exceeds this skip the local-schedule step
/// and count as refused. The standard schedule stores every action of every
/// bunch, so an open tree with Ψ in the billions exhausts memory.
pub const PSI_CAP: i128 = 1 << 16;

/// The LP oracle runs only on trees up to this size.
const LP_MAX_NODES: usize = 63;

/// Sizes per shape (one per log-uniform stratum of 30..10^5 nodes); four
/// shapes make the 100 ops of a pass.
const SIZES_PER_SHAPE: usize = 25;

/// A `supply_tree` is drawn at most this many times to get the outcome its
/// stratum asks for (see `Plan::new`).
const SUPPLY_DRAWS: usize = 64;

/// Nominal wall time of a pass (see `Workload::pass_seconds`).
const PASS_SECONDS: f64 = 2.5;

pub struct Plan {
    inputs: Vec<String>,
    /// The smallest input of each shape.
    warm: Vec<usize>,
}

/// Whether the op on `p` is refused by the Ψ guard; `None` on a
/// `ScheduleError`.
fn refused(p: &Platform) -> Option<bool> {
    let ss = SteadyState::from_solution(&bw_first(p));
    let tree = TreeSchedule::build(p, &ss).ok()?;
    Some(tree.iter().map(|s| s.bunch).max().unwrap_or(0) > PSI_CAP)
}

impl Plan {
    pub fn new(seed: u64) -> Plan {
        let mut s = Stream::new(seed, 1);
        let mut inputs = Vec::new();
        for shape in 0..4 {
            for (j, size) in common::log_sizes(SIZES_PER_SHAPE, 30.0, 1e5).into_iter().enumerate() {
                let sub = s.next();
                let p = match shape {
                    // Default random trees: a bottleneck near the root
                    // leaves 2 to 6 nodes visited.
                    0 => random_tree(&RandomTreeConfig { size, seed: sub, ..Default::default() }),
                    // Slow integer CPUs: the flow fans out (~15 visited).
                    // About a third of these trees exceed the Ψ cap; which
                    // third would change the pass's cost from seed to
                    // seed, so every third size is drawn until refused and
                    // the others until not.
                    1 => {
                        let want = j % 3 == 1;
                        let mut p = supply_tree(size, sub);
                        for _ in 1..SUPPLY_DRAWS {
                            if refused(&p).is_none_or(|r| r == want) {
                                break;
                            }
                            p = supply_tree(size, s.next());
                        }
                        p
                    }
                    // Root links at full speed: 40+ visited and a huge Ψ.
                    2 => bottleneck(size, sub, 1),
                    // A chain whose flow runs ~w hops deep before the CPUs
                    // on it absorb the root link's bandwidth.
                    _ => {
                        let w = Weight::Time(rat(s.range(950, 1050) as i128, 1));
                        daisy_chain(w, &vec![(w, rat(1, 1)); size - 1])
                    }
                };
                inputs.push(io::to_json(&p));
            }
        }
        let order = s.permutation(inputs.len());
        let warm = (0..4)
            .filter_map(|shape| order.iter().position(|&i| i == shape * SIZES_PER_SHAPE))
            .collect();
        let inputs = order.into_iter().map(|i| std::mem::take(&mut inputs[i])).collect();
        Plan { inputs, warm }
    }
}

impl Workload for Plan {
    fn ops(&self) -> usize {
        self.inputs.len()
    }

    fn work_name(&self) -> &'static str {
        "nodes_per_s"
    }

    fn warmup(&self) -> Vec<usize> {
        self.warm.clone()
    }

    fn pass_seconds(&self) -> f64 {
        PASS_SECONDS
    }

    fn digest(&self) -> u64 {
        common::digest(self.inputs.iter().map(String::as_bytes))
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> OpResult {
        let json = &self.inputs[i];
        let p = match common::parse(t, json) {
            Ok(p) => p,
            Err(e) => return OpResult::fail(e),
        };
        let mut out = OpResult { work: p.len() as u64, ..OpResult::default() };
        out.count("platform.json_bytes", json.len() as u64);
        let (sol, ss) = common::solve(t, &p);
        out.count("core.visited", sol.visit_count() as u64);
        let bu = t.span("core.bottom_up", || bottom_up(&p));
        if bu.throughput != sol.throughput() {
            return OpResult::fail(format!(
                "bw_first {} != bottom_up {} on {} nodes",
                sol.throughput(),
                bu.throughput,
                p.len()
            ));
        }
        if p.len() <= LP_MAX_NODES {
            let lp = t.span("lp.steady_state", || steady_state_lp(&p));
            if lp.throughput != sol.throughput() {
                return OpResult::fail(format!(
                    "bw_first {} != LP {}",
                    sol.throughput(),
                    lp.throughput
                ));
            }
        }
        let tree = match common::tree_schedule(t, &p, &ss) {
            Ok(tree) => tree,
            Err(e) => return OpResult::fail(e),
        };
        if tree.iter().map(|s| s.bunch).max().unwrap_or(0) > PSI_CAP {
            out.refused = true;
            out.count("core.psi_refused", 1);
            return out;
        }
        let ev = common::local_schedules(t, &p, tree);
        let actions = ev.locals.iter().flatten().map(|l| l.actions.len() as u64).sum();
        out.count("core.local_actions", actions);
        let violations = t.span("core.validate", || validate_schedule(&p, &ss, &ev));
        if let Some(v) = violations.first() {
            return OpResult::fail(format!(
                "{} schedule violation(s), first: {v}",
                violations.len()
            ));
        }
        out
    }
}
