//! The result-return executors run on the shared node kernel, so they take
//! any probe: their Gantt chart comes from a `GanttProbe`, their tasks can
//! be traced, and the monitor's structural checks hold on their upward
//! result transfers.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_obs::TraceRecord;
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_rational::rat;
use bwfirst_sim::monitor::{MonitorConfig, MonitorProbe};
use bwfirst_sim::result_return;
use bwfirst_sim::returns::{simulate_with_returns, simulate_with_returns_probed, ReturnConfig};
use bwfirst_sim::{GanttProbe, ProvenanceProbe, SimConfig, SimReport};

/// Checks one probed run against its unprobed twin: same report, the same
/// Gantt chart from the probe, one trace entry per injected task and one
/// compute record per started computation, and no monitor violation.
fn check(
    plain: &SimReport,
    probed: SimReport,
    probe: (ProvenanceProbe, (GanttProbe, MonitorProbe)),
) {
    let (prov, (gantt, mon)) = probe;
    assert_eq!(format!("{:?}", plain.completions), format!("{:?}", probed.completions));
    assert_eq!(plain.computed, probed.computed);
    let chart = gantt.into_gantt().expect("active Gantt probe");
    assert_eq!(format!("{:?}", plain.gantt), format!("{:?}", Some(chart)));
    let records = prov.into_records();
    let count = |f: fn(&TraceRecord) -> bool| records.iter().filter(|r| f(r)).count() as u64;
    assert_eq!(count(|r| matches!(r, TraceRecord::Enter { .. })), probed.received[0]);
    assert!(count(|r| matches!(r, TraceRecord::Compute { .. })) >= probed.total_computed());
    let rep = mon.finish();
    assert!(rep.ok(), "{:?}", rep.violations);
}

fn probe(p: &bwfirst_platform::Platform) -> (ProvenanceProbe, (GanttProbe, MonitorProbe)) {
    // Relaxed: an upward result send drains no buffer.
    let mon = MonitorProbe::new(p.len(), p.root(), MonitorConfig::new(rat(36, 1)).relaxed());
    (ProvenanceProbe::new(p, None), (GanttProbe::new(true), mon))
}

#[test]
fn returns_take_any_probe() {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let cfg = SimConfig::to_horizon(rat(200, 1));
    let ret = ReturnConfig { return_ratio: rat(1, 2) };
    let plain = simulate_with_returns(&p, &ev, ret, &cfg).unwrap();
    let mut pr = probe(&p);
    let probed = simulate_with_returns_probed(&p, &ev, ret, &cfg, &mut pr).unwrap();
    check(&plain, probed, pr);
}

#[test]
fn result_return_takes_any_probe() {
    let rr = section9_counterexample();
    let cfg = SimConfig::to_horizon(rat(60, 1));
    let plain = result_return::simulate(&rr, &cfg).unwrap();
    let mut pr = probe(&rr.platform);
    let probed =
        result_return::simulate_probed(&rr.platform, &rr.return_time, &cfg, &mut pr).unwrap();
    check(&plain, probed, pr);
}
