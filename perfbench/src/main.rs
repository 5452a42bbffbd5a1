//! Layered closed-loop benchmark of the BW-First pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan --seed 1 --seconds 10 --trace 0
//! ```
//!
//! One client thread runs ops back to back (a closed loop) over inputs
//! generated from `--seed`, in whole passes. The number of passes is fixed
//! by `--seconds` and the workload's nominal pass time, so two builds of the
//! program time every op over the same number of runs. Every op's output is
//! checked. With `--trace 0` the last
//! stdout line carries the end-to-end metrics; with `--trace 1` every layer
//! call is wrapped in a span and it carries the per-layer metrics instead.
//! See `perfbench/README.md` for the workloads and metrics.

mod common;
mod host;
mod metrics;
mod negotiate;
mod observe;
mod plan;
mod simulate;
mod trace;

use common::Workload;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;

/// A run makes at least this many passes. Set-up runs before every pass,
/// and `setup_s` is the median, so one slow phase of the host moves it
/// little.
const MIN_PASSES: usize = 5;

/// The end-to-end latencies are taken over the ops of one pass, so every
/// workload has at least this many per pass and ten or more lie beyond p90.
const MIN_OPS: usize = 100;

/// A run stops early, after the pass in progress, once its passes have
/// taken this many times `--seconds`; only a program several times slower
/// than the one the pass times were measured on gets there.
pub const OVERRUN: u32 = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn make(workload: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match workload {
        "plan" => Box::new(plan::Plan::new(seed)),
        "simulate" => Box::new(simulate::Simulate::new(seed)),
        "observe" => Box::new(observe::Observe::new(seed)),
        "negotiate" => Box::new(negotiate::Negotiate::new(seed)),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Everything measured in one run.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    /// Wall-clock time of each set-up.
    pub setup: Vec<Duration>,
    /// Wall-clock time of the measured loop, set-ups excluded.
    pub wall: Duration,
    /// Wall-clock time of each op, and its position in the pass.
    pub op_ns: Vec<u64>,
    pub op_input: Vec<usize>,
    pub passes: usize,
    /// Passes the run was to make; more than `passes` if it stopped early.
    pub planned_passes: usize,
    pub failed: Vec<(u64, String)>,
    pub refused: u64,
    pub work: u64,
    pub work_name: &'static str,
    /// Counts of the first pass, summed by name.
    pub pass_counts: Vec<(&'static str, u64)>,
    /// Counts of all ops, summed by name.
    pub all_counts: Vec<(&'static str, u64)>,
    /// Ops whose counts differed from the same input's first run.
    pub unrepeatable: Vec<(u64, String)>,
    pub tracer: Tracer,
}

fn add(into: &mut Vec<(&'static str, u64)>, counts: &[(&'static str, u64)]) {
    for &(k, v) in counts {
        match into.iter_mut().find(|(name, _)| *name == k) {
            Some((_, total)) => *total += v,
            None => into.push((k, v)),
        }
    }
}

/// Generates the inputs from the seed and runs the warm-up ops.
fn set_up(args: &Args) -> Result<(Box<dyn Workload>, Duration), String> {
    let started = Instant::now();
    let mut w = make(&args.workload, args.seed)?;
    let mut quiet = Tracer::new(false);
    for i in w.warmup() {
        if let Some(e) = w.run(i, &mut quiet).error {
            return Err(format!("warm-up op {i} failed: {e}"));
        }
    }
    Ok((w, started.elapsed()))
}

fn run(args: &Args) -> Result<Run, String> {
    let (mut w, first_setup) = set_up(args)?;
    let digest = w.digest();
    let mut tracer = Tracer::new(args.trace);
    let n = w.ops();
    if n < MIN_OPS {
        return Err(format!("a pass holds {n} ops, fewer than {MIN_OPS}"));
    }
    let passes = pass_count(args.seconds, w.pass_seconds());
    let mut first: Vec<Vec<(&'static str, u64)>> = Vec::with_capacity(n);
    let mut r = Run {
        workload: args.workload.clone(),
        seed: args.seed,
        setup: vec![first_setup],
        wall: Duration::ZERO,
        op_ns: Vec::new(),
        op_input: Vec::new(),
        passes: 0,
        planned_passes: passes,
        failed: Vec::new(),
        refused: 0,
        work: 0,
        work_name: w.work_name(),
        pass_counts: Vec::new(),
        all_counts: Vec::new(),
        unrepeatable: Vec::new(),
        tracer: Tracer::new(false),
    };
    let limit = Duration::from_secs(args.seconds) * OVERRUN;
    let started = Instant::now();
    let mut setting_up = Duration::ZERO;
    let mut op = 0u64;
    while r.passes < passes && started.elapsed() - setting_up < limit {
        for i in 0..n {
            let t0 = Instant::now();
            tracer.begin_op(op, t0);
            let res = w.run(i, &mut tracer);
            let dt = t0.elapsed();
            tracer.end_op(dt);
            if tracer.on {
                w.baseline(i, &mut tracer);
            }
            r.op_ns.push(u64::try_from(dt.as_nanos()).expect("op shorter than 584 years"));
            r.op_input.push(i);
            if let Some(e) = res.error {
                r.failed.push((op, e));
            }
            r.refused += u64::from(res.refused);
            r.work += res.work;
            add(&mut r.all_counts, &res.counts);
            if r.passes == 0 {
                add(&mut r.pass_counts, &res.counts);
                first.push(res.counts);
            } else if first[i] != res.counts {
                r.unrepeatable
                    .push((op, format!("input {i}: {:?} then {:?}", first[i], res.counts)));
            }
            op += 1;
        }
        r.passes += 1;
        if r.passes < passes {
            // Every pass ends with no session open, so the workload can be
            // rebuilt; the same seed must give the same inputs.
            drop(w);
            let again;
            (w, again) = set_up(args)?;
            if w.digest() != digest {
                return Err("the same seed generated different inputs".to_string());
            }
            r.setup.push(again);
            setting_up += again;
        }
    }
    r.wall = started.elapsed() - setting_up;
    r.tracer = tracer;
    Ok(r)
}

/// Passes in a run of `seconds`, at a nominal `pass_seconds` per pass.
fn pass_count(seconds: u64, pass_seconds: f64) -> usize {
    ((seconds as f64 / pass_seconds).round() as usize).max(MIN_PASSES)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <plan|simulate|observe|negotiate> --seed <n> --seconds <n> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let r = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host = host::Fingerprint::collect(args.seed);
    let report = metrics::Report::new(&r, args.trace);
    report.print_human(&r, &host);
    if let Err(e) = report.write_files(&r, &host) {
        eprintln!("perfbench: cannot write results: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.result_line());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
