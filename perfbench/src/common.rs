//! Pieces every workload shares: the op outcome, the seeded input streams,
//! and the traced calls into the layers that several workloads make in the
//! same order the `bwfirst` CLI makes them.

use crate::trace::Tracer;
use bwfirst_core::schedule::{LocalSchedule, LocalScheduleKind};
use bwfirst_core::{bw_first, BwFirstSolution, EventDrivenSchedule, SteadyState, TreeSchedule};
use bwfirst_platform::{io, Platform};

/// What one op did. `counts` must repeat exactly whenever the same input
/// runs again; the runner fails the run if they do not.
#[derive(Debug, Default)]
pub struct OpResult {
    /// A failed check or a typed error from the program.
    pub error: Option<String>,
    /// The op was refused by the Ψ guard (see `plan::PSI_CAP`).
    pub refused: bool,
    /// Units of the workload's own work (nodes planned, tasks simulated...).
    pub work: u64,
    /// Named deterministic counts.
    pub counts: Vec<(&'static str, u64)>,
}

impl OpResult {
    pub fn fail(error: impl Into<String>) -> OpResult {
        OpResult { error: Some(error.into()), ..OpResult::default() }
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        self.counts.push((name, n));
    }
}

/// One benchmark workload: a fixed list of ops built from the seed.
pub trait Workload {
    /// Ops in one pass over the inputs.
    fn ops(&self) -> usize;
    /// Runs op `i` of the pass (`i < ops()`), in order within a pass.
    fn run(&mut self, i: usize, t: &mut Tracer) -> OpResult;
    /// A traced run's reference measurement for op `i`, made after the op
    /// and outside its span (the `NoProbe` base of the probe overheads).
    fn baseline(&mut self, _i: usize, _t: &mut Tracer) {}
    /// Ops run once, untimed, at the end of set-up. They are the same
    /// inputs whatever the seed (or the smallest the seed drew), so set-up
    /// time does not depend on which inputs came first.
    fn warmup(&self) -> Vec<usize>;
    /// Nominal wall time of one pass, measured on the host the README
    /// names. A run of `--seconds` makes `--seconds / pass_seconds` passes,
    /// a count that does not depend on how fast the program runs.
    fn pass_seconds(&self) -> f64;
    /// A digest of the generated inputs; equal seeds must give equal digests.
    fn digest(&self) -> u64;
    /// Name of the workload's unit of work, as an end-to-end metric.
    fn work_name(&self) -> &'static str;
}

/// SplitMix64: a small seeded stream, stable across platforms and releases.
pub struct Stream(u64);

impl Stream {
    pub fn new(seed: u64, tag: u64) -> Stream {
        let mut s = Stream(seed ^ tag.wrapping_mul(0xA076_1D64_78BD_642F));
        s.next();
        s
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// The positions `0..n` in a seeded order.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// `n` sizes spread log-uniformly over `lo..=hi`, one at the middle of each
/// stratum of equal log-width. The sizes are the same for every seed; the
/// seed varies the trees.
pub fn log_sizes(n: usize, lo: f64, hi: f64) -> Vec<usize> {
    (0..n).map(|j| (lo * (hi / lo).powf((j as f64 + 0.5) / n as f64)).round() as usize).collect()
}

/// `n` sizes spread evenly over `lo..=hi`, one in each stratum of equal
/// width at a seeded point.
pub fn linear_sizes(s: &mut Stream, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as u64;
    (0..n as u64).map(|j| lo + ((width * j + s.range(0, width - 1)) / n as u64) as usize).collect()
}

/// FNV-1a over the bytes of every input.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for part in parts {
        for &b in part {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        h = (h ^ 0xFF).wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// `platform::io::from_json`, traced.
pub fn parse(t: &mut Tracer, json: &str) -> Result<Platform, String> {
    t.span("platform.from_json", || io::from_json(json)).map_err(|e| format!("from_json: {e}"))
}

/// `core::bw_first`, traced, with its steady state.
pub fn solve(t: &mut Tracer, p: &Platform) -> (BwFirstSolution, SteadyState) {
    let sol = t.span("core.bw_first", || bw_first(p));
    let ss = SteadyState::from_solution(&sol);
    (sol, ss)
}

/// `TreeSchedule::build`, traced; a `ScheduleError` becomes the op's error.
pub fn tree_schedule(
    t: &mut Tracer,
    p: &Platform,
    ss: &SteadyState,
) -> Result<TreeSchedule, String> {
    t.span("core.tree_schedule", || TreeSchedule::build(p, ss))
        .map_err(|e| format!("schedule: {e}"))
}

/// The interleaved local schedule of every active node (what
/// `EventDrivenSchedule::standard` builds after the tree schedule), traced.
pub fn local_schedules(t: &mut Tracer, p: &Platform, tree: TreeSchedule) -> EventDrivenSchedule {
    let kind = LocalScheduleKind::Interleaved;
    let locals = t.span("core.local_schedule", || {
        p.node_ids().map(|id| tree.get(id).map(|s| LocalSchedule::build(s, kind))).collect()
    });
    EventDrivenSchedule { tree, locals, kind }
}
