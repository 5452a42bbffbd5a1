//! `simulate`: solve, build the schedule, then run one executor with
//! `NoProbe`, rotating through every executor.
//!
//! Why: the executors and their event queue dominate; probes and exporters
//! are bypassed, so a probe or exporter change should not move this
//! workload.

use crate::common::{self, OpResult, Stream, Workload};
use crate::observe;
use crate::trace::Tracer;
use bwfirst_core::schedule::synchronous_period;
use bwfirst_core::startup::tree_startup_bound;
use bwfirst_core::{bw_first, EventDrivenSchedule, SteadyState, TreeSchedule};
use bwfirst_platform::examples::example_tree;
use bwfirst_platform::generators::{random_tree, RandomTreeConfig};
use bwfirst_platform::{io, Platform};
use bwfirst_rational::Rat;
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::dynamic::{self, AdaptPolicy};
use bwfirst_sim::{event_driven, NoProbe, Probe, SimConfig, SimError, SimReport};

/// The executors, as the CLI's `--protocol` names them.
pub const EXECUTORS: [&str; 5] = ["event", "clocked", "demand", "demand-int", "dynamic"];

/// Random trees besides the paper's example tree.
const RANDOM_TREES: usize = 47;

/// A tree is used only if one synchronous period carries at most this many
/// tasks. An `observe` op records 8 periods (at least 200 time units), and
/// recording costs tens of microseconds per task, so longer periods would
/// make single ops take seconds.
const PERIOD_TASKS_MAX: i128 = 60;

/// A tree is used only if, over the horizon an `observe` op records (8
/// periods, clamped to [200, 10^5]), this many task arrivals at nodes are
/// due, both in the schedule's steady state (Σ η_in × horizon) and in a
/// demand-driven run, whose start-up stock can double them. A task counts
/// once per node it enters, and recording and exporting cost about that
/// much. Across random trees it spreads over 80 to 2000; drawing from one
/// band keeps the cost of an `observe` pass, and its largest artifact,
/// about the same for every seed.
const RECORDED_ARRIVALS: std::ops::RangeInclusive<i128> = 600..=1000;

/// Tasks a `simulate` op injects, rounded up to whole synchronous periods:
/// at least 100 periods, since a period carries at most `PERIOD_TASKS_MAX`.
const SIM_TASKS: i128 = 6_000;

/// The span (and metric prefix) of an executor.
pub fn span_name(exec: &str) -> &'static str {
    match exec {
        "event" => "sim.event_driven",
        "clocked" => "sim.clocked",
        "demand" | "demand-int" => "sim.demand_driven",
        _ => "sim.dynamic",
    }
}

/// The trees `simulate` and `observe` share: the paper's example tree and
/// default random trees of 31 to 255 nodes whose synchronous period carries
/// at most `PERIOD_TASKS_MAX` tasks and whose recorded horizon carries
/// `RECORDED_ARRIVALS`.
pub fn trees(seed: u64) -> Vec<String> {
    let mut s = Stream::new(seed, 2);
    let mut out = vec![io::to_json(&example_tree())];
    for size in common::linear_sizes(&mut s, RANDOM_TREES, 31, 255) {
        loop {
            let p = random_tree(&RandomTreeConfig { size, seed: s.next(), ..Default::default() });
            let ss = SteadyState::from_solution(&bw_first(&p));
            let fits = synchronous_period(&ss).is_ok_and(|t| {
                let horizon = observe::horizon(t);
                let arrivals = ss.eta_in.iter().fold(Rat::ZERO, |a, &b| a + b);
                ss.throughput * Rat::from_int(t) <= Rat::from_int(PERIOD_TASKS_MAX)
                    && RECORDED_ARRIVALS.contains(&(arrivals * horizon).floor())
                    && RECORDED_ARRIVALS.contains(&demand_arrivals(&p, horizon))
            });
            if ss.throughput.is_positive() && fits {
                out.push(io::to_json(&p));
                break;
            }
        }
    }
    out
}

/// Task arrivals at nodes in a demand-driven run over `horizon`.
fn demand_arrivals(p: &Platform, horizon: Rat) -> i128 {
    let rep =
        demand_driven::simulate_probed(p, DemandConfig::default(), &config(horizon), &mut NoProbe);
    rep.received.iter().sum::<u64>().into()
}

/// Everything an executor run needs, from parse to schedule.
pub struct Planned {
    pub p: Platform,
    pub ss: SteadyState,
    pub ev: EventDrivenSchedule,
    /// Synchronous period `T`.
    pub period: i128,
}

/// parse → bw_first → TreeSchedule::build → local schedules, traced.
pub fn plan(t: &mut Tracer, json: &str) -> Result<Planned, String> {
    let p = common::parse(t, json)?;
    let (_, ss) = common::solve(t, &p);
    let period = synchronous_period(&ss).map_err(|e| e.to_string())?;
    let tree = common::tree_schedule(t, &p, &ss)?;
    let ev = common::local_schedules(t, &p, tree);
    Ok(Planned { p, ss, ev, period })
}

/// Runs `exec` on the planned tree under `probe`.
pub fn execute(
    pl: &Planned,
    exec: &str,
    cfg: &SimConfig,
    probe: &mut impl Probe,
) -> Result<SimReport, SimError> {
    let p = &pl.p;
    match exec {
        "event" => event_driven::simulate_probed(p, &pl.ev, cfg, probe),
        "clocked" => clocked::simulate_probed(p, &pl.ev.tree, ClockedConfig::default(), cfg, probe),
        "demand" => Ok(demand_driven::simulate_probed(p, DemandConfig::default(), cfg, probe)),
        "demand-int" => {
            Ok(demand_driven::simulate_probed(p, DemandConfig::interruptible(), cfg, probe))
        }
        _ => dynamic::simulate_dynamic_probed(p, &[], AdaptPolicy::Stale, cfg, probe).map(|r| r.0),
    }
}

pub fn config(horizon: Rat) -> SimConfig {
    SimConfig {
        horizon,
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    }
}

/// `SIM_TASKS` tasks' worth of time, in whole synchronous periods.
fn horizon(ss: &SteadyState, period: i128) -> Rat {
    let periods = (Rat::from_int(SIM_TASKS) / (ss.throughput * Rat::from_int(period))).ceil();
    Rat::from_int(period * periods)
}

/// Tasks an executor may hold before steady state: the clocked prefill
/// stock, or the buffers the greedy demand protocol fills, plus one task
/// in flight per node.
fn startup_stock(exec: &str, p: &Platform, tree: &TreeSchedule) -> i128 {
    let n = p.len() as i128;
    match exec {
        "clocked" => n + tree.iter().filter_map(|s| s.chi_in).sum::<i128>(),
        "demand" | "demand-int" => n * (DemandConfig::default().buffer_target as i128 + 1),
        _ => n,
    }
}

/// The checks every executor run must pass.
pub fn check(pl: &Planned, exec: &str, horizon: Rat, rep: &SimReport) -> Result<(), String> {
    let thr = pl.ss.throughput;
    let done = Rat::from(rep.total_computed() as usize);
    let stock = startup_stock(exec, &pl.p, &pl.ev.tree);
    if done > thr * horizon + Rat::from_int(stock) {
        return Err(format!("{exec}: {done} tasks beat the optimum {thr} over {horizon} by more than the start-up stock {stock}"));
    }
    if matches!(exec, "event" | "clocked") {
        let t = Rat::from_int(pl.period);
        let settle = Rat::from_int(tree_startup_bound(&pl.p, &pl.ev.tree)) + t;
        let window = t * Rat::TWO;
        if settle + window <= horizon {
            let got = rep.completions_in(settle, settle + window);
            let want = thr * window;
            if Rat::from(got as usize) != want {
                return Err(format!(
                    "{exec}: {got} tasks in two periods after start-up, want {want}"
                ));
            }
        }
    }
    Ok(())
}

pub struct Simulate {
    trees: Vec<String>,
}

impl Simulate {
    pub fn new(seed: u64) -> Simulate {
        Simulate { trees: trees(seed) }
    }
}

impl Workload for Simulate {
    fn ops(&self) -> usize {
        self.trees.len() * EXECUTORS.len()
    }

    fn work_name(&self) -> &'static str {
        "sim_tasks_per_s"
    }

    /// The paper's example tree, under the first two executors.
    fn warmup(&self) -> Vec<usize> {
        vec![0, 1]
    }

    fn pass_seconds(&self) -> f64 {
        1.1
    }

    fn digest(&self) -> u64 {
        common::digest(self.trees.iter().map(String::as_bytes))
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> OpResult {
        let (tree, exec) = (i / EXECUTORS.len(), EXECUTORS[i % EXECUTORS.len()]);
        let pl = match plan(t, &self.trees[tree]) {
            Ok(pl) => pl,
            Err(e) => return OpResult::fail(e),
        };
        let horizon = horizon(&pl.ss, pl.period);
        let cfg = config(horizon);
        let name = span_name(exec);
        let rep = match t.span(name, || execute(&pl, exec, &cfg, &mut NoProbe)) {
            Ok(rep) => rep,
            Err(e) => return OpResult::fail(format!("{exec}: {e}")),
        };
        if let Err(e) = check(&pl, exec, horizon, &rep) {
            return OpResult::fail(e);
        }
        let tasks = rep.total_computed();
        let mut out = OpResult { work: tasks, ..OpResult::default() };
        out.count("sim.tasks", tasks);
        out.count(tasks_count(name), tasks);
        out
    }
}

/// The count of tasks simulated under an executor's span.
pub fn tasks_count(span: &str) -> &'static str {
    match span {
        "sim.event_driven" => "sim.event_driven.tasks",
        "sim.clocked" => "sim.clocked.tasks",
        "sim.demand_driven" => "sim.demand_driven.tasks",
        _ => "sim.dynamic.tasks",
    }
}
