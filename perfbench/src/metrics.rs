//! Turning a run into named metrics, the human summary and the result line.

use crate::host::{self, Fingerprint};
use crate::trace::{json_str, GLUE};
use crate::Run;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::time::Duration;

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The per-layer metrics every traced run reports, in order. `Mean` is the
/// mean self time per call of the span of that name; layers a workload
/// does not call read 0.
enum Source {
    /// Mean self time per call of this span, in ms.
    Mean(&'static str),
    /// Count summed over the first pass of the inputs.
    Pass(&'static str),
    /// Self time of this span per task it simulated, in ns.
    NsPerTask(&'static str),
    /// Self time of the span over that of `sim.baseline`.
    OverBase(&'static str),
}

const LAYERS: &[(&str, &str, Source)] = &[
    ("platform.from_json_ms", "ms", Source::Mean("platform.from_json")),
    ("platform.json_mb", "MB", Source::Pass("platform.json_bytes")),
    ("core.bw_first_ms", "ms", Source::Mean("core.bw_first")),
    ("core.visited", "count", Source::Pass("core.visited")),
    ("core.bottom_up_ms", "ms", Source::Mean("core.bottom_up")),
    ("core.tree_schedule_ms", "ms", Source::Mean("core.tree_schedule")),
    ("core.local_schedule_ms", "ms", Source::Mean("core.local_schedule")),
    ("core.local_actions", "count", Source::Pass("core.local_actions")),
    ("core.validate_ms", "ms", Source::Mean("core.validate")),
    ("core.psi_refused", "count", Source::Pass("core.psi_refused")),
    ("lp.steady_state_ms", "ms", Source::Mean("lp.steady_state")),
    ("sim.event_driven.ms", "ms", Source::Mean("sim.event_driven")),
    ("sim.event_driven.ns_per_task", "ns", Source::NsPerTask("sim.event_driven")),
    ("sim.clocked.ms", "ms", Source::Mean("sim.clocked")),
    ("sim.clocked.ns_per_task", "ns", Source::NsPerTask("sim.clocked")),
    ("sim.demand_driven.ms", "ms", Source::Mean("sim.demand_driven")),
    ("sim.demand_driven.ns_per_task", "ns", Source::NsPerTask("sim.demand_driven")),
    ("sim.dynamic.ms", "ms", Source::Mean("sim.dynamic")),
    ("sim.dynamic.ns_per_task", "ns", Source::NsPerTask("sim.dynamic")),
    ("sim.tasks", "count", Source::Pass("sim.tasks")),
    ("sim.monitor_ms", "ms", Source::Mean("sim.monitor")),
    ("sim.provenance_ms", "ms", Source::Mean("sim.provenance")),
    ("sim.probe_base_ms", "ms", Source::Mean("sim.baseline")),
    ("sim.monitor_overhead_x", "x", Source::OverBase("sim.monitor")),
    ("sim.provenance_overhead_x", "x", Source::OverBase("sim.provenance")),
    ("obs.trace_to_jsonl_ms", "ms", Source::Mean("obs.trace_to_jsonl")),
    ("obs.trace_parse_ms", "ms", Source::Mean("obs.trace_parse")),
    ("obs.chrome_export_ms", "ms", Source::Mean("obs.chrome_export")),
    ("obs.snapshots_jsonl_ms", "ms", Source::Mean("obs.snapshots_jsonl")),
    ("obs.trace_bytes", "B", Source::Pass("obs.trace_bytes")),
    ("analyze.trace_validate_ms", "ms", Source::Mean("analyze.trace_validate")),
    ("analyze.snapshots_validate_ms", "ms", Source::Mean("analyze.snapshots_validate")),
    ("proto.spawn_ms", "ms", Source::Mean("proto.spawn")),
    ("proto.control_ms", "ms", Source::Mean("proto.control")),
    ("proto.negotiate_ms", "ms", Source::Mean("proto.negotiate")),
    ("proto.flow_ms", "ms", Source::Mean("proto.flow")),
    ("proto.shutdown_ms", "ms", Source::Mean("proto.shutdown")),
    ("proto.tcp.spawn_ms", "ms", Source::Mean("proto.tcp.spawn")),
    ("proto.tcp.negotiate_ms", "ms", Source::Mean("proto.tcp.negotiate")),
    ("proto.tcp.flow_ms", "ms", Source::Mean("proto.tcp.flow")),
    ("proto.tcp.shutdown_ms", "ms", Source::Mean("proto.tcp.shutdown")),
    ("proto.messages", "count", Source::Pass("proto.messages")),
    ("proto.wire_bytes", "B", Source::Pass("proto.wire_bytes")),
    ("bench.glue_ms", "ms", Source::Mean(GLUE)),
];

pub struct Report {
    pub correct: bool,
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    attempted: usize,
    failed: usize,
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The fastest run of each op of the pass, sorted.
fn fastest_per_op(r: &Run) -> Vec<u64> {
    let mut best = vec![u64::MAX; r.op_ns.len() / r.passes];
    for (&ns, &i) in r.op_ns.iter().zip(&r.op_input) {
        best[i] = best[i].min(ns);
    }
    best.sort_unstable();
    best
}

fn count(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts.iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v)
}

impl Report {
    pub fn new(r: &Run, traced: bool) -> Report {
        let mut problems: Vec<String> = Vec::new();
        for (op, e) in r.failed.iter().take(5) {
            problems.push(format!("op {op} failed: {e}"));
        }
        for (op, e) in r.unrepeatable.iter().take(5) {
            problems.push(format!("op {op} counts did not repeat: {e}"));
        }
        let ops = r.op_ns.len();
        let metrics = if traced { Self::per_layer(r, &mut problems) } else { Self::end_to_end(r) };
        for &(name, value, _) in &metrics {
            if !value.is_finite() {
                problems.push(format!("{name} is not a finite number"));
            }
        }
        let failed = r.failed.len() + r.unrepeatable.len();
        Report { correct: problems.is_empty(), problems, metrics, attempted: ops, failed }
    }

    /// Every pass runs the same ops, and other load on a shared host only
    /// ever adds time, so each op of the pass is timed by its fastest run.
    /// The number of passes does not depend on the program's speed, so two
    /// builds take the minimum over the same number of runs.
    fn end_to_end(r: &Run) -> Vec<Metric> {
        let best = fastest_per_op(r);
        let pass_s = best.iter().sum::<u64>() as f64 / 1e9;
        vec![
            ("setup_s", median(r.setup.iter().map(Duration::as_secs_f64).collect()), "s"),
            ("ops_per_s", best.len() as f64 / pass_s, "1/s"),
            ("op_ms.p50", percentile(&best, 0.5) as f64 / 1e6, "ms"),
            ("op_ms.p90", percentile(&best, 0.9) as f64 / 1e6, "ms"),
            ("work_per_s", r.work as f64 / r.passes as f64 / pass_s, "1/s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ]
    }

    fn per_layer(r: &Run, problems: &mut Vec<String>) -> Vec<Metric> {
        let misfits = r.tracer.misfit_ops();
        if let Some(op) = misfits.first() {
            problems.push(format!(
                "{} op(s) whose layer spans do not fit inside the op's measured time, first {op}",
                misfits.len()
            ));
        }
        let self_times: BTreeMap<&str, (u64, u64)> = r.tracer.self_times();
        let total = |span: &str| self_times.get(span).map_or(0.0, |&(ns, _)| ns as f64);
        let mean_ms = |span: &str| {
            self_times.get(span).map_or(0.0, |&(ns, calls)| ns as f64 / calls as f64 / 1e6)
        };
        let mut out: Vec<Metric> = LAYERS
            .iter()
            .map(|(name, unit, source)| {
                let value = match source {
                    Source::Mean(span) => mean_ms(span),
                    Source::Pass(c) => {
                        let v = count(&r.pass_counts, c) as f64;
                        if *unit == "MB" {
                            v / 1e6
                        } else {
                            v
                        }
                    }
                    Source::NsPerTask(span) => {
                        let tasks = count(&r.all_counts, &format!("{span}.tasks")) as f64;
                        if tasks > 0.0 {
                            total(span) / tasks
                        } else {
                            0.0
                        }
                    }
                    Source::OverBase(span) => {
                        let base = total("sim.baseline");
                        if base > 0.0 {
                            total(span) / base
                        } else {
                            0.0
                        }
                    }
                };
                (*name, value, *unit)
            })
            .collect();
        let best = fastest_per_op(r);
        let pass_s = best.iter().sum::<u64>() as f64 / 1e9;
        out.push(("bench.traced_ops_per_s", best.len() as f64 / pass_s, "1/s"));
        out
    }

    /// The last stdout line: one JSON object with `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_line(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(
                m,
                "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// The readable summary printed before the result line.
    pub fn print_human(&self, r: &Run, host: &Fingerprint) {
        let ops = r.op_ns.len();
        println!(
            "perfbench workload={} seed={} passes={} ops={ops} wall={:.3}s",
            r.workload,
            r.seed,
            r.passes,
            r.wall.as_secs_f64()
        );
        if r.passes < r.planned_passes {
            println!(
                "  stopped early: {} of {} passes took more than {}x --seconds",
                r.passes,
                r.planned_passes,
                crate::OVERRUN
            );
        }
        let fp: Vec<String> = host.fields().iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("host {}", fp.join(" "));
        for &(name, value, unit) in &self.metrics {
            let alias =
                if name == "work_per_s" { format!("  ({})", r.work_name) } else { String::new() };
            println!("  {name:<32} {value:>14.4} {unit}{alias}");
        }
        let n = ops / r.passes;
        let beyond = n - n.min((0.9 * n as f64).ceil() as usize);
        let mut all = r.op_ns.clone();
        all.sort_unstable();
        println!(
            "  op samples {n} (fastest of {} passes each), {beyond} beyond p90; over all {ops} ops: \
             {:.4} ops/s, p50 {:.4} ms, p90 {:.4} ms",
            r.passes,
            ops as f64 / (r.op_ns.iter().sum::<u64>() as f64 / 1e9),
            percentile(&all, 0.5) as f64 / 1e6,
            percentile(&all, 0.9) as f64 / 1e6
        );
        println!(
            "  failed_share {:.4} ({} failed check(s), {} refused by the guard on bunches over {} tasks)",
            (r.failed.len() as f64 + r.refused as f64) / ops as f64,
            r.failed.len(),
            r.refused,
            crate::plan::PSI_CAP
        );
        if r.tracer.on {
            let op_total: u64 = r.op_ns.iter().sum();
            println!(
                "  {:<28} {:>8} {:>12} {:>7}",
                "span (self time)", "calls", "total ms", "share"
            );
            for (name, (ns, calls)) in r.tracer.self_times() {
                let share = if name == "sim.baseline" {
                    "(base)".to_string()
                } else {
                    format!("{:.1}%", 100.0 * ns as f64 / op_total as f64)
                };
                println!("  {name:<28} {calls:>8} {:>12.3} {share:>7}", ns as f64 / 1e6);
            }
        }
        for p in &self.problems {
            println!("  PROBLEM {p}");
        }
    }

    /// Writes the result (and, when traced, the spans) under `perfbench/out`.
    pub fn write_files(&self, r: &Run, host: &Fingerprint) -> std::io::Result<()> {
        let dir = "perfbench/out";
        fs::create_dir_all(dir)?;
        let tag = format!("{}-seed{}-trace{}", r.workload, r.seed, u8::from(r.tracer.on));
        let mut sorted = r.op_ns.clone();
        sorted.sort_unstable();
        let q = |p| percentile(&sorted, p) as f64 / 1e6;
        let mut text = String::from("{\n  \"host\": {");
        for (i, (k, v)) in host.fields().iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(text, "{sep}{}: {}", json_str(k), json_str(v)).expect("write to String");
        }
        write!(
            text,
            "}},\n  \"workload\": {},\n  \"passes\": {},\n  \"op_ms\": {{\"p25\": {}, \"p50\": {}, \"p75\": {}, \"p90\": {}, \"n\": {}}},\n  \"refused\": {},\n",
            json_str(&r.workload),
            r.passes,
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9),
            sorted.len(),
            r.refused
        )
        .expect("write to String");
        writeln!(text, "  \"result\": {}\n}}", self.result_line()).expect("write to String");
        fs::write(format!("{dir}/{tag}.json"), text)?;
        let mut ops = String::from("op,input,ns\n");
        for (op, (ns, input)) in r.op_ns.iter().zip(&r.op_input).enumerate() {
            writeln!(ops, "{op},{input},{ns}").expect("write to String");
        }
        fs::write(format!("{dir}/{tag}.ops.csv"), ops)?;
        if r.tracer.on {
            fs::write(format!("{dir}/{tag}.chrome.json"), r.tracer.to_chrome(&host.fields()))?;
        }
        Ok(())
    }
}
