//! Machine-readable experiment records: the quantitative core of the key
//! experiments as JSON-serializable structs, for plotting and regression
//! tracking (written to `paper_output/records.json` by
//! `paper_experiments records`).

use crate::trees::{bottleneck, supply_tree};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule, TreeSchedule};
use bwfirst_core::{bottom_up, bw_first, quantize, startup, SteadyState};
use bwfirst_obs::json::{obj, Value};
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::demand_driven::DemandConfig;
use bwfirst_sim::makespan;
use bwfirst_sim::{event_driven, result_return, SimConfig};

/// One point of the E6 visits sweep.
#[derive(Debug, Clone)]
pub struct VisitRecord {
    /// Tree size in nodes.
    pub nodes: usize,
    /// Root-link slowdown factor.
    pub slowdown: i64,
    /// Exact throughput (as a string rational and an f64).
    pub throughput: String,
    /// Throughput as f64 for plotting.
    pub throughput_f64: f64,
    /// Nodes BW-First visited.
    pub bwfirst_visits: usize,
    /// Edges the bottom-up reduction processed.
    pub bottom_up_edges: usize,
}

/// One point of the E13 makespan sweep.
#[derive(Debug, Clone)]
pub struct MakespanRecord {
    /// Workload size.
    pub tasks: u64,
    /// `N/throughput` lower bound.
    pub lower_bound: f64,
    /// Event-driven measured makespan.
    pub event_driven: f64,
    /// Demand-driven measured makespan.
    pub demand_driven: f64,
}

/// One point of the E15 quantization sweep.
#[derive(Debug, Clone)]
pub struct QuantizeRecord {
    /// Grid denominator `G` (`0` = exact schedule).
    pub grid: i64,
    /// Throughput after quantization.
    pub throughput_f64: f64,
    /// Relative loss vs exact.
    pub loss_pct: f64,
    /// Largest per-node consuming period.
    pub max_t_omega: i128,
}

/// The E5 headline metrics.
#[derive(Debug, Clone)]
pub struct Figure5Record {
    /// Exact steady throughput as a rational string.
    pub throughput: String,
    /// Synchronous period.
    pub period: i128,
    /// Proposition 4 bound.
    pub startup_bound: i128,
    /// Measured steady-state entry.
    pub steady_entry: f64,
    /// Tasks completed in the first period.
    pub first_period_tasks: u64,
    /// Wind-down length after stopping injection at t=115.
    pub wind_down: f64,
    /// Peak buffered tasks at any node.
    pub peak_buffer: u64,
}

/// The E8 result-return rates.
#[derive(Debug, Clone)]
pub struct ResultReturnRecord {
    /// Separated send/return accounting.
    pub separated_rate: f64,
    /// Merged-cost simplification.
    pub merged_rate: f64,
}

/// Everything `paper_experiments records` emits.
#[derive(Debug, Clone)]
pub struct Records {
    /// E5 metrics on the example tree.
    pub figure5: Figure5Record,
    /// E6 sweep.
    pub visits: Vec<VisitRecord>,
    /// E8 counter-example rates.
    pub result_return: ResultReturnRecord,
    /// E13 sweep on the example tree.
    pub makespan: Vec<MakespanRecord>,
    /// E15 sweep on a period-exploding platform.
    pub quantization: Vec<QuantizeRecord>,
}

/// Recomputes the record set serially (exact library calls, no parsing).
#[must_use]
pub fn collect() -> Records {
    collect_pooled(bwfirst_parallel::Pool::new(1))
}

/// Recomputes the record set, fanning the E6 sweep (the only grid big
/// enough to matter — 16 independent solver runs on up-to-1023-node trees)
/// out over `pool`. Records come back in grid order for any thread count.
#[must_use]
pub fn collect_pooled(pool: bwfirst_parallel::Pool) -> Records {
    // E5.
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let period = synchronous_period(&ss).unwrap();
    let bound = startup::tree_startup_bound(&p, &ev.tree);
    let stop = rat(115, 1);
    let cfg = SimConfig {
        horizon: rat(220, 1),
        stop_injection_at: Some(stop),
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let rep = event_driven::simulate(&p, &ev, &cfg).expect("simulate");
    let figure5 = Figure5Record {
        throughput: ss.throughput.to_string(),
        period,
        startup_bound: bound,
        steady_entry: rep
            .steady_state_entry(ss.throughput, Rat::from_int(period), stop)
            .map_or(f64::NAN, Rat::to_f64),
        first_period_tasks: rep.completions_in(Rat::ZERO, Rat::from_int(period)),
        wind_down: rep.wind_down().map_or(f64::NAN, Rat::to_f64),
        peak_buffer: rep.buffers.iter().map(|b| b.max).max().unwrap_or(0),
    };

    // E6.
    let mut grid = Vec::new();
    for &size in &crate::trees::SIZES {
        for slow in [1i64, 4, 16, 64] {
            grid.push((size, slow));
        }
    }
    let visits = pool.map(grid, |(size, slow)| {
        let p = bottleneck(size, 42, slow as i128);
        let sol = bw_first(&p);
        let bu = bottom_up(&p);
        VisitRecord {
            nodes: size,
            slowdown: slow,
            throughput: sol.throughput().to_string(),
            throughput_f64: sol.throughput().to_f64(),
            bwfirst_visits: sol.visit_count(),
            bottom_up_edges: bu.children_processed,
        }
    });

    // E8.
    let rr = section9_counterexample();
    let cfg = SimConfig {
        horizon: rat(400, 1),
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let sep = result_return::simulate(&rr, &cfg).unwrap();
    let merged = result_return::simulate_merged(&rr, &cfg).unwrap();
    let result_return = ResultReturnRecord {
        separated_rate: sep.throughput_in(rat(200, 1), rat(400, 1)).to_f64(),
        merged_rate: merged.throughput_in(rat(200, 1), rat(400, 1)).to_f64(),
    };

    // E13.
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let makespan = [50u64, 200, 1000]
        .into_iter()
        .map(|n| MakespanRecord {
            tasks: n,
            lower_bound: makespan::lower_bound(&ss, n).to_f64(),
            event_driven: makespan::event_driven_makespan(&p, &ss, &ev, n).to_f64(),
            demand_driven: makespan::demand_driven_makespan(&p, &ss, DemandConfig::default(), n)
                .to_f64(),
        })
        .collect();

    // E15.
    let p = supply_tree(63, 1);
    let exact = SteadyState::from_solution(&bw_first(&p));
    let mut quantization = Vec::new();
    let exact_sched = TreeSchedule::build(&p, &exact).unwrap();
    quantization.push(QuantizeRecord {
        grid: 0,
        throughput_f64: exact.throughput.to_f64(),
        loss_pct: 0.0,
        max_t_omega: exact_sched.iter().map(|s| s.t_omega).max().unwrap_or(1),
    });
    for grid in [60i64, 360, 2520] {
        let q = quantize::quantize(&p, &exact, grid as i128);
        let sched = TreeSchedule::build(&p, &q).unwrap();
        quantization.push(QuantizeRecord {
            grid,
            throughput_f64: q.throughput.to_f64(),
            loss_pct: 100.0 * ((exact.throughput - q.throughput) / exact.throughput).to_f64(),
            max_t_omega: sched.iter().map(|s| s.t_omega).max().unwrap_or(1),
        });
    }

    Records { figure5, visits, result_return, makespan, quantization }
}

/// Serializes the records as pretty JSON.
#[must_use]
pub fn to_json(records: &Records) -> String {
    let visits: Vec<Value> = records
        .visits
        .iter()
        .map(|v| {
            obj(vec![
                ("nodes", v.nodes.into()),
                ("slowdown", i128::from(v.slowdown).into()),
                ("throughput", v.throughput.as_str().into()),
                ("throughput_f64", v.throughput_f64.into()),
                ("bwfirst_visits", v.bwfirst_visits.into()),
                ("bottom_up_edges", v.bottom_up_edges.into()),
            ])
        })
        .collect();
    let makespan: Vec<Value> = records
        .makespan
        .iter()
        .map(|m| {
            obj(vec![
                ("tasks", m.tasks.into()),
                ("lower_bound", m.lower_bound.into()),
                ("event_driven", m.event_driven.into()),
                ("demand_driven", m.demand_driven.into()),
            ])
        })
        .collect();
    let quantization: Vec<Value> = records
        .quantization
        .iter()
        .map(|q| {
            obj(vec![
                ("grid", i128::from(q.grid).into()),
                ("throughput_f64", q.throughput_f64.into()),
                ("loss_pct", q.loss_pct.into()),
                ("max_t_omega", q.max_t_omega.into()),
            ])
        })
        .collect();
    let f = &records.figure5;
    let figure5 = obj(vec![
        ("throughput", f.throughput.as_str().into()),
        ("period", f.period.into()),
        ("startup_bound", f.startup_bound.into()),
        ("steady_entry", f.steady_entry.into()),
        ("first_period_tasks", f.first_period_tasks.into()),
        ("wind_down", f.wind_down.into()),
        ("peak_buffer", f.peak_buffer.into()),
    ]);
    let rr = obj(vec![
        ("separated_rate", records.result_return.separated_rate.into()),
        ("merged_rate", records.result_return.merged_rate.into()),
    ]);
    obj(vec![
        ("figure5", figure5),
        ("visits", Value::Array(visits)),
        ("result_return", rr),
        ("makespan", Value::Array(makespan)),
        ("quantization", Value::Array(quantization)),
    ])
    .to_string_pretty()
}

// ---------------------------------------------------------------------------
// Perf-baseline records (`BENCH_core.json` / `BENCH_sim.json`).
//
// Written by the `perf_baseline` binary and committed at the repo root so
// every PR carries a before/after perf trajectory. `before_ns` is the
// comparison point named by `baseline` — either a measurement taken at the
// seed commit on the same host, or a runtime toggle (reference `Rat` lane,
// exact `Rat`-keyed event queue, serial model checking) re-measured in the
// same process.

/// One measured benchmark with its comparison point.
#[derive(Debug, Clone)]
pub struct BenchPoint {
    /// Stable benchmark id, e.g. `deep_tree_scaling_sweep`.
    pub id: String,
    /// Comparison-point wall time per iteration, nanoseconds.
    pub before_ns: f64,
    /// Current wall time per iteration, nanoseconds.
    pub after_ns: f64,
    /// What `before_ns` is: `seed <commit>` or `runtime toggle: <what>`.
    pub baseline: String,
    /// Iterations the reported time is the best of.
    pub iters: u32,
}

impl BenchPoint {
    /// `before/after` — above 1.0 means the current code is faster.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        if self.after_ns > 0.0 {
            self.before_ns / self.after_ns
        } else {
            f64::NAN
        }
    }
}

/// One committed benchmark suite (`core` or `sim`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Suite name: `core` (arithmetic, solvers, model checker) or `sim`.
    pub suite: String,
    /// `std::thread::available_parallelism()` on the measuring host — the
    /// honest context for any worker-pool numbers.
    pub host_threads: usize,
    /// Worker threads the pooled measurements ran with.
    pub threads: usize,
    /// True when produced by the CI smoke run (few iterations; timings are
    /// indicative only and not meant to be committed).
    pub smoke: bool,
    /// Merged per-worker `obs` counters from the pooled sweeps.
    pub metrics: Vec<(String, i128)>,
    /// The measurements.
    pub points: Vec<BenchPoint>,
}

impl BenchReport {
    /// The point with the given id, if measured.
    #[must_use]
    pub fn point(&self, id: &str) -> Option<&BenchPoint> {
        self.points.iter().find(|p| p.id == id)
    }
}

/// Serializes a [`BenchReport`] as pretty JSON.
#[must_use]
pub fn bench_to_json(report: &BenchReport) -> String {
    let points: Vec<Value> = report
        .points
        .iter()
        .map(|p| {
            obj(vec![
                ("id", p.id.as_str().into()),
                ("before_ns", p.before_ns.into()),
                ("after_ns", p.after_ns.into()),
                ("speedup", p.speedup().into()),
                ("baseline", p.baseline.as_str().into()),
                ("iters", i128::from(p.iters).into()),
            ])
        })
        .collect();
    let metrics: Vec<Value> = report
        .metrics
        .iter()
        .map(|(name, v)| obj(vec![("name", name.as_str().into()), ("value", (*v).into())]))
        .collect();
    obj(vec![
        ("suite", report.suite.as_str().into()),
        ("host_threads", (report.host_threads as i128).into()),
        ("threads", (report.threads as i128).into()),
        ("smoke", Value::Bool(report.smoke)),
        ("metrics", Value::Array(metrics)),
        ("points", Value::Array(points)),
    ])
    .to_string_pretty()
}

/// Parses and schema-checks a committed `BENCH_*.json` file. Every field the
/// writer emits must be present and well-typed; CI calls this to reject
/// hand-edited or truncated baselines.
pub fn bench_from_json(text: &str) -> Result<BenchReport, String> {
    let v = bwfirst_obs::json::parse(text).map_err(|e| e.to_string())?;
    let str_field = |v: &Value, key: &str| -> Result<String, String> {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing or non-string field `{key}`"))
    };
    let num_field = |v: &Value, key: &str| -> Result<f64, String> {
        v.get(key).and_then(Value::as_f64).ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let suite = str_field(&v, "suite")?;
    if suite != "core" && suite != "sim" {
        return Err(format!("unknown suite `{suite}`"));
    }
    let smoke = match v.get("smoke") {
        Some(Value::Bool(b)) => *b,
        _ => return Err("missing boolean field `smoke`".to_string()),
    };
    let metrics = v
        .get("metrics")
        .and_then(Value::as_array)
        .ok_or("missing array field `metrics`")?
        .iter()
        .map(|m| {
            Ok((
                str_field(m, "name")?,
                m.get("value").and_then(Value::as_i128).ok_or("metric value must be an integer")?,
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let points = v
        .get("points")
        .and_then(Value::as_array)
        .ok_or("missing array field `points`")?
        .iter()
        .map(|p| {
            let point = BenchPoint {
                id: str_field(p, "id")?,
                before_ns: num_field(p, "before_ns")?,
                after_ns: num_field(p, "after_ns")?,
                baseline: str_field(p, "baseline")?,
                iters: num_field(p, "iters")? as u32,
            };
            if point.before_ns <= 0.0 || point.after_ns <= 0.0 {
                return Err(format!("point `{}` has non-positive timings", point.id));
            }
            num_field(p, "speedup")?; // present and numeric, even if derived
            Ok(point)
        })
        .collect::<Result<Vec<_>, String>>()?;
    if points.is_empty() {
        return Err("bench report has no points".to_string());
    }
    Ok(BenchReport {
        suite,
        host_threads: num_field(&v, "host_threads")? as usize,
        threads: num_field(&v, "threads")? as usize,
        smoke,
        metrics,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_round_trip_through_json() {
        let report = BenchReport {
            suite: "core".to_string(),
            host_threads: 8,
            threads: 4,
            smoke: false,
            metrics: vec![("sweep.trees_solved".to_string(), 32)],
            points: vec![BenchPoint {
                id: "deep_tree_scaling_sweep".to_string(),
                before_ns: 3_000_000.0,
                after_ns: 1_000_000.0,
                baseline: "seed d221d19".to_string(),
                iters: 5,
            }],
        };
        let json = bench_to_json(&report);
        let back = bench_from_json(&json).expect("schema round-trip");
        assert_eq!(back.suite, "core");
        assert_eq!(back.host_threads, 8);
        assert_eq!(back.metrics, report.metrics);
        let p = back.point("deep_tree_scaling_sweep").expect("point survives");
        assert!((p.speedup() - 3.0).abs() < 1e-9);
        // Schema violations are rejected, not silently defaulted.
        assert!(bench_from_json("{}").is_err());
        assert!(bench_from_json(&json.replace("\"suite\": \"core\"", "\"suite\": \"x\"")).is_err());
    }

    #[test]
    fn records_capture_the_headlines() {
        let r = collect();
        assert_eq!(r.figure5.throughput, "10/9");
        assert_eq!(r.figure5.period, 36);
        assert_eq!(r.figure5.startup_bound, 27);
        assert!(r.figure5.steady_entry <= 27.0);
        assert!((r.result_return.separated_rate - 2.0).abs() < 0.05);
        assert!((r.result_return.merged_rate - 1.0).abs() < 0.05);
        assert_eq!(r.visits.len(), 16);
        assert!(r.visits.iter().all(|v| v.bwfirst_visits <= v.nodes));
        // Quantization monotone: finer grid, smaller loss.
        let losses: Vec<f64> = r.quantization.iter().skip(1).map(|q| q.loss_pct).collect();
        assert!(losses.windows(2).all(|w| w[1] <= w[0] + 1e-9));
        // Makespan ratios decrease with N.
        let ratios: Vec<f64> = r.makespan.iter().map(|m| m.event_driven / m.lower_bound).collect();
        assert!(ratios.windows(2).all(|w| w[1] <= w[0]));
        // JSON output parses back.
        let json = to_json(&r);
        let v = bwfirst_obs::json::parse(&json).unwrap();
        assert!(v["figure5"]["throughput"].is_string());
    }
}
