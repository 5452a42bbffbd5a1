//! Inputs an executor cannot run come back as a [`SimError`], never as a
//! panic.

use bwfirst_core::schedule::EventDrivenSchedule;
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_platform::generators::star;
use bwfirst_platform::{NodeId, Weight};
use bwfirst_rational::rat;
use bwfirst_sim::returns::{simulate_with_returns, ReturnConfig};
use bwfirst_sim::{event_driven, SimConfig, SimError};

fn fig2_schedule() -> EventDrivenSchedule {
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    EventDrivenSchedule::standard(&p, &ss).unwrap()
}

#[test]
fn returns_rejects_a_schedule_built_for_another_platform() {
    // The Figure 2 schedule sends from the root to P3, which a two-worker
    // star does not have.
    let other = star(Weight::Time(rat(1, 1)), 2, Weight::Time(rat(2, 1)), rat(1, 1));
    let ret = ReturnConfig { return_ratio: rat(1, 2) };
    let cfg = SimConfig::to_horizon(rat(50, 1));
    let err = simulate_with_returns(&other, &fig2_schedule(), ret, &cfg).unwrap_err();
    assert_eq!(err, SimError::ForeignSchedule(NodeId(3)));
    // The event-driven executor shares the check.
    let err = event_driven::simulate(&other, &fig2_schedule(), &cfg).unwrap_err();
    assert_eq!(err, SimError::ForeignSchedule(NodeId(3)));
}

#[test]
fn returns_rejects_a_negative_return_ratio() {
    let ret = ReturnConfig { return_ratio: rat(-1, 2) };
    let cfg = SimConfig::to_horizon(rat(50, 1));
    let err = simulate_with_returns(&example_tree(), &fig2_schedule(), ret, &cfg).unwrap_err();
    assert!(matches!(err, SimError::BadInput(_)), "{err}");
}

#[test]
fn result_return_rejects_a_return_time_table_of_the_wrong_length() {
    let mut rr = section9_counterexample();
    rr.return_time.pop();
    let err =
        bwfirst_sim::result_return::simulate(&rr, &SimConfig::to_horizon(rat(10, 1))).unwrap_err();
    assert!(matches!(err, SimError::BadInput(_)), "{err}");
}
