//! `observe`: the same executors, recorded. First under `ProvenanceProbe`,
//! whose trace is written as JSONL, parsed back, validated and exported to
//! Chrome JSON; then under `MonitorProbe`, whose snapshots are written as
//! JSONL and validated — as `bwfirst trace record` and `bwfirst monitor` do.
//!
//! Why: the same sim layer with recording on, and every artifact both
//! written and read back.

use crate::common::{self, OpResult, Workload};
use crate::simulate::{self, Planned};
use crate::trace::Tracer;
use bwfirst_core::MonitorExpectations;
use bwfirst_obs::{chrome, MemoryRecorder, Trace};
use bwfirst_rational::Rat;
use bwfirst_sim::probe::track_names;
use bwfirst_sim::{trace_header, MonitorConfig, MonitorProbe, NoProbe, ProvenanceProbe};

/// The executors both recorders support, as `bwfirst monitor` names them.
const EXECUTORS: [&str; 4] = ["event", "clocked", "demand", "demand-int"];

pub struct Observe {
    trees: Vec<String>,
}

impl Observe {
    pub fn new(seed: u64) -> Observe {
        Observe { trees: simulate::trees(seed) }
    }

    fn op(&self, i: usize) -> (&str, &'static str) {
        (&self.trees[i / EXECUTORS.len()], EXECUTORS[i % EXECUTORS.len()])
    }
}

/// The CLI's default recording horizon: 8 periods, clamped to [200, 10^5].
pub fn horizon(period: i128) -> Rat {
    Rat::from_int((period * 8).clamp(200, 100_000))
}

fn schedule_driven(exec: &str) -> bool {
    matches!(exec, "event" | "clocked")
}

fn record(t: &mut Tracer, pl: &Planned, exec: &str, out: &mut OpResult) -> Result<(), String> {
    let cfg = simulate::config(horizon(pl.period));
    let sched = schedule_driven(exec).then_some(&pl.ev.tree);
    let trace = t.span("sim.provenance", || {
        let mut probe = ProvenanceProbe::new(&pl.p, sched);
        let rep = simulate::execute(pl, exec, &cfg, &mut probe);
        let header = trace_header(&pl.p, sched, exec, &cfg, Some(pl.ss.throughput));
        rep.map(|rep| (rep, probe.into_trace(header)))
    });
    let (rep, trace) = trace.map_err(|e| format!("{exec} under provenance: {e}"))?;
    simulate::check(pl, exec, cfg.horizon, &rep)?;
    out.count("sim.tasks", rep.total_computed());

    let text = t.span("obs.trace_to_jsonl", || trace.to_jsonl());
    let parsed = t.span("obs.trace_parse", || Trace::parse(&text)).map_err(|e| e.to_string())?;
    if parsed != trace {
        return Err(format!("{exec}: trace JSONL round trip changed the records"));
    }
    let summary = t
        .span("analyze.trace_validate", || bwfirst_analyze::trace::validate_jsonl(&text))
        .map_err(|e| format!("{exec}: trace rejected: {}", e[0]))?;
    let view = t.span("obs.chrome_export", || {
        let mut rec = MemoryRecorder::new();
        rec.events = parsed.to_events();
        chrome::to_chrome_trace_named(&rec, 1000.0, "bwfirst", &track_names(pl.p.len()))
    });
    if !view.contains("traceEvents") {
        return Err(format!("{exec}: Chrome export has no events"));
    }
    out.work += (summary.injected + summary.stock) as u64;
    out.count("obs.trace_bytes", text.len() as u64);
    Ok(())
}

fn monitor(t: &mut Tracer, pl: &Planned, exec: &str) -> Result<(), String> {
    let cfg = simulate::config(horizon(pl.period));
    let mut mon_cfg = MonitorConfig::new(Rat::from_int(pl.period));
    if schedule_driven(exec) {
        if let Some(exp) = MonitorExpectations::build(&pl.p, &pl.ss, &pl.ev.tree) {
            mon_cfg = mon_cfg.with_expectations(exp);
        }
    } else {
        mon_cfg = mon_cfg.relaxed();
    }
    let rep = t.span("sim.monitor", || {
        let mut mon = MonitorProbe::new(pl.p.len(), pl.p.root(), mon_cfg);
        simulate::execute(pl, exec, &cfg, &mut mon).map(|_| mon.finish())
    });
    let rep = rep.map_err(|e| format!("{exec} under the monitor: {e}"))?;
    if !rep.ok() {
        return Err(format!(
            "{exec}: monitor found {} violation(s), first: {}",
            rep.violations.len(),
            rep.violations[0]
        ));
    }
    let text = t.span("obs.snapshots_jsonl", || rep.snapshots_jsonl());
    let lines = t
        .span("analyze.snapshots_validate", || bwfirst_analyze::snapshots::validate_jsonl(&text))
        .map_err(|e| format!("{exec}: snapshots rejected: {}", e[0]))?;
    if lines != rep.snapshots.len() {
        return Err(format!(
            "{exec}: {lines} snapshot lines for {} snapshots",
            rep.snapshots.len()
        ));
    }
    Ok(())
}

impl Workload for Observe {
    fn ops(&self) -> usize {
        self.trees.len() * EXECUTORS.len()
    }

    fn work_name(&self) -> &'static str {
        "traced_tasks_per_s"
    }

    /// The paper's example tree, under the first two executors.
    fn warmup(&self) -> Vec<usize> {
        vec![0, 1]
    }

    fn pass_seconds(&self) -> f64 {
        2.5
    }

    fn digest(&self) -> u64 {
        common::digest(self.trees.iter().map(String::as_bytes))
    }

    fn run(&mut self, i: usize, t: &mut Tracer) -> OpResult {
        let (json, exec) = self.op(i);
        let pl = match simulate::plan(t, json) {
            Ok(pl) => pl,
            Err(e) => return OpResult::fail(e),
        };
        let mut out = OpResult::default();
        if let Err(e) = record(t, &pl, exec, &mut out).and_then(|()| monitor(t, &pl, exec)) {
            return OpResult::fail(e);
        }
        out
    }

    /// The same executor and horizon with `NoProbe`: the base of
    /// `sim.provenance_overhead_x` and `sim.monitor_overhead_x`.
    fn baseline(&mut self, i: usize, t: &mut Tracer) {
        let (json, exec) = self.op(i);
        let mut quiet = Tracer::new(false);
        // A tree the op could not plan failed the op already.
        if let Ok(pl) = simulate::plan(&mut quiet, json) {
            let cfg = simulate::config(horizon(pl.period));
            let _ = t.span("sim.baseline", || simulate::execute(&pl, exec, &cfg, &mut NoProbe));
        }
    }
}
