//! Shared simulator plumbing: configuration, event queue, buffer accounting
//! and the measurement report.

use crate::gantt::Gantt;
use bwfirst_platform::{NodeId, Platform};
use bwfirst_rational::{lcm_i128, Rat};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration shared by all executors.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulate events up to this time.
    pub horizon: Rat,
    /// Stop injecting tasks at the root at this time (wind-down studies).
    pub stop_injection_at: Option<Rat>,
    /// Inject at most this many tasks in total (makespan studies).
    pub total_tasks: Option<u64>,
    /// Record the full Gantt trace (costs memory on long runs).
    pub record_gantt: bool,
    /// Force the exact `Rat`-keyed event queue instead of the integer-tick
    /// fast path. Both orderings are identical (conformance-tested); this
    /// switch exists for benchmarking and cross-checking.
    pub exact_queue: bool,
    /// Seed for randomized executor policies. Every executor in the repo
    /// is fully deterministic today (the event queue breaks time ties by
    /// insertion order), so the seed changes nothing at runtime — but it
    /// is threaded through the demand-driven and dynamic executors and
    /// recorded in `bwfirst-trace/1` headers so recorded runs stay
    /// replayable bit-for-bit once stochastic policies exist.
    pub seed: u64,
}

impl SimConfig {
    /// A config that just runs to `horizon` with a Gantt trace.
    #[must_use]
    pub fn to_horizon(horizon: Rat) -> SimConfig {
        SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: true,
            exact_queue: false,
            seed: 0,
        }
    }

    /// The effective injection cut-off: `stop_injection_at` clipped to the
    /// horizon.
    #[must_use]
    pub fn injection_end(&self) -> Rat {
        self.stop_injection_at.map_or(self.horizon, |s| s.min(self.horizon))
    }

    /// The tick scale an executor should hand to [`EventQueue::with_scale`]:
    /// the computed `hint` unless the config forces exact keys.
    pub(crate) fn queue_scale(&self, hint: Option<i128>) -> Option<i128> {
        if self.exact_queue {
            None
        } else {
            hint
        }
    }
}

/// Scales larger than this fall back to exact keys: they signal pathological
/// denominators where tick magnitudes (and the lcm itself) stop being cheap.
const MAX_TICK_SCALE: i128 = i64::MAX as i128;

/// The least common multiple of the denominators of every duration a run can
/// schedule: node compute times, link communication times, and any
/// executor-specific steps in `extras` (e.g. the root's release step).
///
/// Every event time is a sum of such durations, so its denominator divides
/// the returned scale and the time rescales to an integer *tick*. Returns
/// `None` — meaning "use exact `Rat` keys" — when the lcm overflows `i128`
/// or exceeds [`MAX_TICK_SCALE`].
pub(crate) fn tick_scale_hint(platform: &Platform, extras: &[Rat]) -> Option<i128> {
    let mut scale: i128 = 1;
    let mut fold = |den: i128| -> bool {
        match lcm_i128(scale, den) {
            Some(l) if l <= MAX_TICK_SCALE => {
                scale = l;
                true
            }
            _ => false,
        }
    };
    for id in platform.node_ids() {
        if let Some(w) = platform.weight(id).time() {
            if !fold(w.denom()) {
                return None;
            }
        }
        if let Some(c) = platform.link_time(id) {
            if !fold(c.denom()) {
                return None;
            }
        }
    }
    for r in extras {
        if !fold(r.denom()) {
            return None;
        }
    }
    Some(scale)
}

/// Priority event queue ordered by `(time, insertion sequence)` — ties fire
/// in insertion order, keeping runs deterministic.
///
/// Two key lanes share one payload arena and one sequence counter:
///
/// * **ticks** — when the queue was built with a scale `S` (the lcm of all
///   duration denominators, see [`tick_scale_hint`]) and an event's time
///   `n/d` satisfies `d | S`, the key is the integer `n·(S/d)`. Heap
///   sift-up/down then costs plain `i128` compares instead of rational
///   comparisons.
/// * **rats** — exact `Rat` keys, used for every event when no scale is set
///   and as a per-event fallback when a time does not rescale (denominator
///   does not divide `S`, or the tick multiplication would overflow).
///
/// Both lanes are exact — a tick is the time, rescaled, not a rounding — so
/// pop order (including tie-breaks via the shared sequence counter) is
/// identical whichever lane an event lands in; the conformance tests pin
/// this down. The popped time is the original `Rat`, kept in the payload
/// slot, never reconstructed from the tick.
///
/// Payload slots freed by [`pop`](EventQueue::pop) are recycled through a
/// free list, so the payload arena stays bounded by the peak number of
/// *pending* events instead of growing with every event ever pushed (long
/// horizons used to leak one `Option<E>` per event).
pub(crate) struct EventQueue<E> {
    ticks: BinaryHeap<Reverse<(i128, u64, u64)>>,
    rats: BinaryHeap<Reverse<(Rat, u64, u64)>>,
    payloads: Vec<Option<(Rat, E)>>,
    free: Vec<u64>,
    seq: u64,
    scale: Option<i128>,
}

impl<E> EventQueue<E> {
    /// An exact-keyed queue (no tick rescaling).
    #[allow(dead_code)] // the unit tests build exact queues directly
    pub fn new() -> Self {
        EventQueue::with_scale(None)
    }

    /// A queue keyed by integer ticks at `scale` (`None` = exact keys).
    pub fn with_scale(scale: Option<i128>) -> Self {
        EventQueue {
            ticks: BinaryHeap::new(),
            rats: BinaryHeap::new(),
            payloads: Vec::new(),
            free: Vec::new(),
            seq: 0,
            scale,
        }
    }

    /// `time` rescaled to an integer tick, when the scale divides cleanly
    /// and the product fits.
    fn tick_of(&self, time: Rat) -> Option<i128> {
        let scale = self.scale?;
        let den = time.denom();
        if scale % den != 0 {
            return None;
        }
        time.numer().checked_mul(scale / den)
    }

    pub fn push(&mut self, time: Rat, ev: E) {
        let idx = match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.payloads[idx as usize].is_none());
                self.payloads[idx as usize] = Some((time, ev));
                idx
            }
            None => {
                self.payloads.push(Some((time, ev)));
                (self.payloads.len() - 1) as u64
            }
        };
        match self.tick_of(time) {
            Some(tick) => self.ticks.push(Reverse((tick, self.seq, idx))),
            None => self.rats.push(Reverse((time, self.seq, idx))),
        }
        self.seq += 1;
    }

    pub fn pop(&mut self) -> Option<(Rat, E)> {
        // Every heap entry refers to a live arena slot (push is the only
        // producer); skip rather than panic if that invariant ever breaks.
        loop {
            let take_ticks = match (self.ticks.peek(), self.rats.peek()) {
                (None, None) => return None,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (
                    Some(&Reverse((_, tick_seq, tick_idx))),
                    Some(&Reverse((rat_time, rat_seq, _))),
                ) => {
                    // Cross-lane compare is exact: the tick head's original
                    // time sits in its payload slot. Ties break on the shared
                    // insertion sequence, same as within a lane.
                    match self.payloads.get(tick_idx as usize).and_then(|s| s.as_ref()) {
                        Some(&(tick_time, _)) => (tick_time, tick_seq) < (rat_time, rat_seq),
                        None => true, // dead entry: drain it from the tick lane
                    }
                }
            };
            let head = if take_ticks {
                self.ticks.pop().map(|Reverse((_, _, idx))| idx)
            } else {
                self.rats.pop().map(|Reverse((_, _, idx))| idx)
            };
            let idx = head?;
            let slot = self.payloads.get_mut(idx as usize).and_then(Option::take);
            debug_assert!(slot.is_some(), "heap entry without payload");
            if let Some((time, ev)) = slot {
                self.free.push(idx);
                return Some((time, ev));
            }
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.ticks.len() + self.rats.len()
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.ticks.is_empty() && self.rats.is_empty()
    }

    /// Size of the payload arena (bounded by the peak pending count).
    #[cfg(test)]
    pub fn arena_capacity(&self) -> usize {
        self.payloads.len()
    }

    /// Pending events currently keyed by integer ticks (diagnostics).
    #[cfg(test)]
    pub fn ticked_len(&self) -> usize {
        self.ticks.len()
    }
}

/// Time-weighted buffer occupancy accounting for one run.
pub(crate) struct BufferTracker {
    size: Vec<u64>,
    max: Vec<u64>,
    weighted: Vec<Rat>, // ∫ size dt
    last_change: Vec<Rat>,
}

impl BufferTracker {
    pub fn new(n: usize) -> Self {
        BufferTracker {
            size: vec![0; n],
            max: vec![0; n],
            weighted: vec![Rat::ZERO; n],
            last_change: vec![Rat::ZERO; n],
        }
    }

    pub fn set(&mut self, node: NodeId, t: Rat, new_size: u64) {
        let i = node.index();
        self.weighted[i] += Rat::from(self.size[i] as usize) * (t - self.last_change[i]);
        self.last_change[i] = t;
        self.size[i] = new_size;
        self.max[i] = self.max[i].max(new_size);
    }

    pub fn add(&mut self, node: NodeId, t: Rat, delta: i64) {
        let cur = self.size[node.index()] as i64 + delta;
        debug_assert!(cur >= 0, "buffer underflow at {node}");
        self.set(node, t, cur as u64);
    }

    /// Current occupancy of one node's buffer.
    pub fn size(&self, node: NodeId) -> u64 {
        self.size[node.index()]
    }

    pub fn finalize(mut self, end: Rat) -> Vec<BufferStats> {
        let n = self.size.len();
        (0..n)
            .map(|i| {
                self.weighted[i] += Rat::from(self.size[i] as usize) * (end - self.last_change[i]);
                BufferStats {
                    max: self.max[i],
                    time_avg: if end.is_positive() { self.weighted[i] / end } else { Rat::ZERO },
                }
            })
            .collect()
    }
}

/// Buffer occupancy summary of one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BufferStats {
    /// Peak number of buffered tasks.
    pub max: u64,
    /// Time-averaged number of buffered tasks over the run.
    pub time_avg: Rat,
}

/// Everything measured during a simulation run.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// The simulated horizon.
    pub horizon: Rat,
    /// When injection actually stopped (None = ran to horizon with supply).
    pub injection_stopped_at: Option<Rat>,
    /// `(completion time, node)` of every computed task, in time order.
    pub completions: Vec<(Rat, NodeId)>,
    /// Per-completion sojourn times (completion − injection at the root),
    /// aligned with `completions`. `None` for executors that do not stamp
    /// tasks.
    pub latencies: Option<Vec<Rat>>,
    /// Tasks computed per node.
    pub computed: Vec<u64>,
    /// Tasks received from the parent per node (root: tasks injected).
    pub received: Vec<u64>,
    /// Buffer occupancy per node.
    pub buffers: Vec<BufferStats>,
    /// Full activity trace, if requested.
    pub gantt: Option<Gantt>,
}

impl SimReport {
    /// Total tasks computed platform-wide.
    #[must_use]
    pub fn total_computed(&self) -> u64 {
        self.computed.iter().sum()
    }

    /// Completions in the half-open window `[from, to)`.
    #[must_use]
    pub fn completions_in(&self, from: Rat, to: Rat) -> u64 {
        let lo = self.completions.partition_point(|&(t, _)| t < from);
        let hi = self.completions.partition_point(|&(t, _)| t < to);
        (hi - lo) as u64
    }

    /// Average throughput over `[from, to)` in tasks per time unit.
    #[must_use]
    pub fn throughput_in(&self, from: Rat, to: Rat) -> Rat {
        assert!(to > from);
        Rat::from(self.completions_in(from, to) as usize) / (to - from)
    }

    /// Time of the last completion, if any task completed.
    #[must_use]
    pub fn last_completion(&self) -> Option<Rat> {
        self.completions.last().map(|&(t, _)| t)
    }

    /// Mean task sojourn time (injection at the root → completion), when
    /// tracked.
    #[must_use]
    pub fn mean_latency(&self) -> Option<Rat> {
        let lats = self.latencies.as_ref()?;
        if lats.is_empty() {
            return None;
        }
        Some(lats.iter().copied().sum::<Rat>() / Rat::from(lats.len()))
    }

    /// Maximum task sojourn time, when tracked.
    #[must_use]
    pub fn max_latency(&self) -> Option<Rat> {
        self.latencies.as_ref()?.iter().copied().max()
    }

    /// Wind-down length: time from the injection stop to the last
    /// completion. `None` when injection never stopped inside the horizon.
    #[must_use]
    pub fn wind_down(&self) -> Option<Rat> {
        let stop = self.injection_stopped_at?;
        Some((self.last_completion()? - stop).max(Rat::ZERO))
    }

    /// Earliest steady-state entry: the first time `t` (a completion time or
    /// 0) such that *every* full window `[t + kW, t + (k+1)W]` before
    /// `until` contains at least `⌊rate·W⌋` completions. Returns `None` when
    /// no candidate qualifies or no full window fits.
    #[must_use]
    pub fn steady_state_entry(&self, rate: Rat, window: Rat, until: Rat) -> Option<Rat> {
        assert!(window.is_positive());
        let expected = (rate * window).floor() as u64;
        let qualifies = |t: Rat| -> bool {
            if t + window > until {
                return false;
            }
            let mut lo = t;
            while lo + window <= until {
                if self.completions_in(lo, lo + window) < expected {
                    return false;
                }
                lo += window;
            }
            true
        };
        if qualifies(Rat::ZERO) {
            return Some(Rat::ZERO);
        }
        self.completions.iter().map(|&(t, _)| t).find(|&t| qualifies(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwfirst_rational::rat;

    fn report(times: &[(i128, u32)]) -> SimReport {
        SimReport {
            horizon: rat(100, 1),
            injection_stopped_at: None,
            completions: times.iter().map(|&(t, n)| (rat(t, 1), NodeId(n))).collect(),
            latencies: None,
            computed: vec![],
            received: vec![],
            buffers: vec![],
            gantt: None,
        }
    }

    #[test]
    fn queue_orders_by_time_then_insertion() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(rat(2, 1), "b");
        q.push(rat(1, 1), "a1");
        q.push(rat(1, 1), "a2");
        assert_eq!(q.pop(), Some((rat(1, 1), "a1")));
        assert_eq!(q.pop(), Some((rat(1, 1), "a2")));
        assert_eq!(q.pop(), Some((rat(2, 1), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn queue_arena_stays_bounded() {
        // Regression: popped payload slots must be reused, or the arena
        // grows by one slot per event over the whole run.
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..10_000u64 {
            // Keep at most 3 events pending at any moment.
            q.push(rat(round as i128, 1), round);
            q.push(rat(round as i128, 1), round);
            q.push(rat(round as i128 + 1, 1), round);
            q.pop();
            q.pop();
            q.pop();
        }
        assert!(q.is_empty());
        assert!(
            q.arena_capacity() <= 3,
            "payload arena grew to {} slots for 3 concurrent events",
            q.arena_capacity()
        );
    }

    #[test]
    fn tick_queue_matches_exact_queue_order() {
        // Same pushes, same pops, whichever lane the keys use. Includes
        // duplicate times so the seq tie-break is exercised.
        let times = [
            rat(3, 2),
            rat(1, 6),
            rat(1, 6),
            rat(2, 3),
            rat(0, 1),
            rat(5, 6),
            rat(3, 2),
            rat(1, 1),
        ];
        let mut exact: EventQueue<usize> = EventQueue::new();
        let mut ticked: EventQueue<usize> = EventQueue::with_scale(Some(6));
        for (i, &t) in times.iter().enumerate() {
            exact.push(t, i);
            ticked.push(t, i);
        }
        assert_eq!(ticked.ticked_len(), times.len(), "every key should rescale");
        for _ in 0..times.len() {
            assert_eq!(ticked.pop(), exact.pop());
        }
        assert!(ticked.is_empty() && exact.is_empty());
    }

    #[test]
    fn non_dividing_denominators_demote_per_event() {
        // Scale 6 cannot represent sevenths: those events fall back to the
        // exact lane, and the merged pop order is still globally correct.
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(rat(1, 7), "sevenths-early");
        q.push(rat(1, 6), "sixths");
        q.push(rat(1, 7), "sevenths-tie");
        q.push(rat(1, 1), "late");
        assert_eq!(q.ticked_len(), 2);
        assert_eq!(q.pop(), Some((rat(1, 7), "sevenths-early")));
        assert_eq!(q.pop(), Some((rat(1, 7), "sevenths-tie")));
        assert_eq!(q.pop(), Some((rat(1, 6), "sixths")));
        assert_eq!(q.pop(), Some((rat(1, 1), "late")));
        assert!(q.is_empty());
    }

    #[test]
    fn cross_lane_order_is_globally_correct() {
        // Events interleave across lanes; the merge respects time order and
        // breaks cross-lane ties by insertion sequence.
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(rat(5, 21), "rat-early"); // exact lane (21 ∤ 6)
        q.push(rat(1, 6), "tick-first"); // tick lane, earliest time
        q.push(rat(5, 21), "rat-tie"); // exact lane, tie with rat-early
        q.push(rat(1, 2), "tick-late");
        assert_eq!(q.ticked_len(), 2);
        assert_eq!(q.pop(), Some((rat(1, 6), "tick-first")));
        assert_eq!(q.pop(), Some((rat(5, 21), "rat-early")));
        assert_eq!(q.pop(), Some((rat(5, 21), "rat-tie")));
        assert_eq!(q.pop(), Some((rat(1, 2), "tick-late")));
        assert!(q.is_empty());
    }

    #[test]
    fn overflowing_tick_products_demote() {
        // A time whose numerator is huge: tick = num · (scale/den) would
        // overflow i128, so the event must take the exact lane.
        let huge = Rat::new(i128::MAX / 2, 1); // tick would be num·6: overflow
        let mut q: EventQueue<&str> = EventQueue::with_scale(Some(6));
        q.push(huge, "huge");
        q.push(rat(1, 2), "small");
        assert_eq!(q.ticked_len(), 1);
        assert_eq!(q.pop(), Some((rat(1, 2), "small")));
        assert_eq!(q.pop(), Some((huge, "huge")));
    }

    #[test]
    fn tick_scale_hint_covers_example_tree() {
        use bwfirst_platform::examples::example_tree;
        let p = example_tree();
        // The example tree's weights and links are all integers.
        assert_eq!(tick_scale_hint(&p, &[]), Some(1));
        assert_eq!(tick_scale_hint(&p, &[rat(9, 10), rat(1, 4)]), Some(20));
        // An un-representable extra (lcm beyond the cap) falls back to exact.
        assert_eq!(tick_scale_hint(&p, &[Rat::new(1, i128::MAX / 2)]), None);
    }

    #[test]
    fn completions_in_and_throughput() {
        let r = report(&[(1, 0), (2, 0), (3, 1), (10, 1)]);
        assert_eq!(r.completions_in(rat(1, 1), rat(3, 1)), 2);
        assert_eq!(r.completions_in(rat(0, 1), rat(100, 1)), 4);
        assert_eq!(r.throughput_in(rat(0, 1), rat(4, 1)), rat(3, 4));
        assert_eq!(r.total_computed(), 0); // `computed` vec empty here
    }

    #[test]
    fn steady_state_entry_finds_rampup() {
        // One completion per unit from t=5 on; rate 1, window 2.
        let times: Vec<(i128, u32)> = (5..50).map(|t| (t, 0)).collect();
        let r = report(&times);
        let entry = r.steady_state_entry(rat(1, 1), rat(2, 1), rat(49, 1)).unwrap();
        assert_eq!(entry, rat(5, 1));
    }

    #[test]
    fn steady_state_entry_none_when_rate_never_met() {
        let r = report(&[(1, 0), (50, 0)]);
        assert_eq!(r.steady_state_entry(rat(1, 1), rat(5, 1), rat(100, 1)), None);
    }

    #[test]
    fn buffer_tracker_time_average() {
        let mut b = BufferTracker::new(1);
        b.add(NodeId(0), rat(0, 1), 2); // size 2 during [0, 4)
        b.add(NodeId(0), rat(4, 1), -1); // size 1 during [4, 10)
        let stats = b.finalize(rat(10, 1));
        assert_eq!(stats[0].max, 2);
        assert_eq!(stats[0].time_avg, rat(14, 10));
    }

    #[test]
    fn wind_down_measures_drain() {
        let mut r = report(&[(1, 0), (2, 0), (12, 0)]);
        r.injection_stopped_at = Some(rat(10, 1));
        assert_eq!(r.wind_down(), Some(rat(2, 1)));
    }
}
