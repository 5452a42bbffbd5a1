//! `f64` evaluator for throughput-only queries.
//!
//! Exact rationals are mandatory for *schedule construction* (lcm of
//! denominators is meaningless in floating point), but a throughput-only
//! query — scoring thousands of candidate overlay trees in a topology
//! search (`bwfirst-overlay`'s `convert`) — can use `f64`. This module (one
//! of the two files lint rule R1 lets use floats) gives the shared
//! [`NodeMachine`](crate::NodeMachine) its `f64` arithmetic and runs it under
//! the same driver as the exact solver. The `rational_vs_float` bench
//! quantifies the speed difference and the unit tests bound the numeric
//! drift.

use crate::driver::{t_max, traverse};
use crate::lazy::TreeSource;
use crate::machine::Num;
use bwfirst_platform::{NodeId, Platform};

impl Num for f64 {
    const ZERO: f64 = 0.0;
    const ONE: f64 = 1.0;
}

/// A platform's rates and link times rounded to `f64`, children in the
/// exact bandwidth-centric order.
struct FloatSource<'a>(&'a Platform);

impl TreeSource<f64> for FloatSource<'_> {
    type Node = NodeId;

    fn root(&self) -> (NodeId, f64) {
        (self.0.root(), self.0.compute_rate(self.0.root()).to_f64())
    }

    fn children(&self, node: &NodeId) -> Vec<(NodeId, f64, f64)> {
        let p = self.0;
        let link = |k: NodeId| p.link_time(k).expect("child link").to_f64();
        let kids = p.children_bandwidth_centric(*node);
        kids.into_iter().map(|k| (k, link(k), p.compute_rate(k).to_f64())).collect()
    }
}

/// `BW-First` on `f64`: returns the steady-state throughput approximation.
#[must_use]
pub fn bw_first_f64(platform: &Platform) -> f64 {
    let source = FloatSource(platform);
    let (root, rate) = source.root();
    let t_max = t_max(rate, source.children(&root).into_iter().map(|(_, c, _)| c));
    let theta = traverse(&source, t_max, None, |_| {})
        .expect("BW-First's machines accept each other's acks");
    t_max - theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bwfirst::bw_first;
    use bwfirst_platform::examples::example_tree;
    use bwfirst_platform::generators::{random_tree, RandomTreeConfig};

    #[test]
    fn matches_exact_on_example() {
        let p = example_tree();
        let exact = bw_first(&p).throughput().to_f64();
        let approx = bw_first_f64(&p);
        assert!((exact - approx).abs() < 1e-12, "exact {exact} vs float {approx}");
    }

    #[test]
    fn matches_exact_on_random_trees() {
        for seed in 0..20 {
            let p = random_tree(&RandomTreeConfig { size: 64, seed, ..Default::default() });
            let exact = bw_first(&p).throughput().to_f64();
            let approx = bw_first_f64(&p);
            assert!(
                (exact - approx).abs() < 1e-9 * exact.max(1.0),
                "seed {seed}: exact {exact} vs float {approx}"
            );
        }
    }
}
