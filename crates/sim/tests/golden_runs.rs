//! Golden runs: every executor on the Figure 2 tree, pinned byte for byte.
//!
//! Each run records its `bwfirst-trace/1` provenance JSONL, its monitor
//! snapshot JSONL (where the monitor applies) and a `{:#?}` dump of the
//! [`SimReport`] with its Gantt chart. The event queue breaks time ties by
//! insertion order, so any change to an executor's event push order or
//! probe call order shows up here as a diff. Set `BLESS=1` to regenerate
//! the files under `testdata/` after an intentional behaviour change.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::rat;
use bwfirst_sim::clocked::{self, ClockedConfig};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::dynamic::{simulate_dynamic_probed, AdaptPolicy, LinkChange};
use bwfirst_sim::event_driven::{self, StartupPolicy};
use bwfirst_sim::monitor::{MonitorConfig, MonitorProbe};
use bwfirst_sim::returns::{simulate_with_returns, ReturnConfig};
use bwfirst_sim::{result_return, trace_header, GanttProbe, ProvenanceProbe, SimConfig, SimReport};

const PERIOD: i128 = 36; // synchronous period of the example tree

/// Horizon of the traced runs: the start-up plus two steady periods.
const TRACED: i128 = 100;

/// Horizon of the monitored runs: ten monitor windows.
const MONITORED: i128 = 10 * PERIOD;

fn cfg(horizon: i128) -> SimConfig {
    SimConfig::to_horizon(rat(horizon, 1))
}

fn setup() -> (Platform, SteadyState, EventDrivenSchedule) {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    (p, ss, ev)
}

/// Compares `got` with `testdata/<name>` (or rewrites it under `BLESS=1`).
fn check(name: &str, got: &str) {
    let path = format!("{}/testdata/{name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(&path, got).expect("regenerate golden file");
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    if got != golden {
        let line = got.lines().zip(golden.lines()).position(|(a, b)| a != b);
        panic!("{name} drifted from the committed golden file (first differing line: {line:?})");
    }
}

fn report_dump(rep: &SimReport, gantt: GanttProbe) -> String {
    let mut rep = rep.clone();
    rep.gantt = gantt.into_gantt();
    format!("{rep:#?}\n")
}

/// Records `name`'s provenance trace and report dump from one run.
fn record(
    name: &str,
    p: &Platform,
    ss: &SteadyState,
    ev: Option<&EventDrivenSchedule>,
    cfg: &SimConfig,
    run: impl FnOnce(&mut (ProvenanceProbe, GanttProbe)) -> String,
) {
    let tree = ev.map(|ev| &ev.tree);
    let mut probe = (ProvenanceProbe::new(p, tree), GanttProbe::new(true));
    let dump = run(&mut probe);
    let (prov, _) = probe;
    let header = trace_header(p, tree, name, cfg, Some(ss.throughput));
    check(&format!("{name}.trace.jsonl"), &prov.into_trace(header).to_jsonl());
    check(&format!("{name}.report.txt"), &dump);
}

fn monitor(p: &Platform, strict: bool) -> MonitorProbe {
    let mut mon_cfg = MonitorConfig::new(rat(PERIOD, 1));
    if !strict {
        mon_cfg = mon_cfg.relaxed();
    }
    MonitorProbe::new(p.len(), p.root(), mon_cfg)
}

fn check_snapshots(name: &str, mon: MonitorProbe) {
    let rep = mon.finish();
    assert!(rep.ok(), "{name}: {:?}", rep.violations);
    check(&format!("{name}.snapshots.jsonl"), &rep.snapshots_jsonl());
}

#[test]
fn event_driven_runs_are_pinned() {
    let (p, ss, ev) = setup();
    let c = cfg(TRACED);
    for (name, policy) in
        [("event", StartupPolicy::EventDriven), ("event-prefill", StartupPolicy::Prefill)]
    {
        record(name, &p, &ss, Some(&ev), &c, |probe| {
            let rep = event_driven::simulate_with_policy_probed(&p, &ev, &c, policy, &mut *probe)
                .unwrap();
            report_dump(&rep, std::mem::take(&mut probe.1))
        });
    }
    let mut mon = monitor(&p, true);
    event_driven::simulate_probed(&p, &ev, &cfg(MONITORED), &mut mon).unwrap();
    check_snapshots("event", mon);
}

#[test]
fn clocked_runs_are_pinned() {
    let (p, ss, ev) = setup();
    let c = cfg(TRACED);
    for (name, prefill) in [("clocked", true), ("clocked-noprefill", false)] {
        record(name, &p, &ss, Some(&ev), &c, |probe| {
            let cc = ClockedConfig { prefill };
            let rep = clocked::simulate_probed(&p, &ev.tree, cc, &c, &mut *probe).unwrap();
            report_dump(&rep, std::mem::take(&mut probe.1))
        });
    }
    let mut mon = monitor(&p, true);
    clocked::simulate_probed(&p, &ev.tree, ClockedConfig::default(), &cfg(MONITORED), &mut mon)
        .unwrap();
    check_snapshots("clocked", mon);
}

#[test]
fn demand_driven_runs_are_pinned() {
    let (p, ss, _) = setup();
    let c = cfg(TRACED);
    for (name, demand) in
        [("demand", DemandConfig::default()), ("demand-int", DemandConfig::interruptible())]
    {
        record(name, &p, &ss, None, &c, |probe| {
            let rep = demand_driven::simulate_probed(&p, demand, &c, &mut *probe);
            report_dump(&rep, std::mem::take(&mut probe.1))
        });
        let mut mon = monitor(&p, false);
        let _ = demand_driven::simulate_probed(&p, demand, &cfg(MONITORED), &mut mon);
        check_snapshots(name, mon);
    }
}

#[test]
fn dynamic_runs_are_pinned() {
    let (p, ss, ev) = setup();
    let change = [LinkChange { at: rat(60, 1), child: NodeId(1), new_c: rat(12, 1) }];
    let runs: [(&str, &[LinkChange], AdaptPolicy, i128); 2] = [
        ("dynamic-stale", &[], AdaptPolicy::Stale, TRACED),
        ("dynamic-renegotiate", &change, AdaptPolicy::Renegotiate { delay: rat(5, 1) }, 140),
    ];
    for (name, changes, policy, horizon) in runs {
        let c = cfg(horizon);
        record(name, &p, &ss, Some(&ev), &c, |probe| {
            let (rep, adaptations) =
                simulate_dynamic_probed(&p, changes, policy, &c, &mut *probe).unwrap();
            format!(
                "{}adaptations: {adaptations:?}\n",
                report_dump(&rep, std::mem::take(&mut probe.1))
            )
        });
    }
}

#[test]
fn result_return_runs_are_pinned() {
    let rr = section9_counterexample();
    let c = cfg(40);
    check(
        "result-return.report.txt",
        &format!("{:#?}\n", result_return::simulate(&rr, &c).unwrap()),
    );
    check(
        "result-return-merged.report.txt",
        &format!("{:#?}\n", result_return::simulate_merged(&rr, &c).unwrap()),
    );
}

#[test]
fn returns_run_is_pinned() {
    let (p, _, ev) = setup();
    let ret = ReturnConfig { return_ratio: rat(1, 2) };
    let rep = simulate_with_returns(&p, &ev, ret, &cfg(TRACED)).unwrap();
    check("returns.report.txt", &format!("{rep:#?}\n"));
}
