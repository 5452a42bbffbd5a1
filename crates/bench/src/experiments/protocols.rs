//! E7, E8, E11: protocol-level experiments.

use crate::table::Table;
use crate::trees::{f, tree};
use bwfirst_core::schedule::{synchronous_period, EventDrivenSchedule};
use bwfirst_core::{bw_first, SteadyState};
use bwfirst_platform::examples::{example_tree, section9_counterexample};
use bwfirst_proto::ProtocolSession;
use bwfirst_rational::{rat, Rat};
use bwfirst_sim::demand_driven::{self, DemandConfig};
use bwfirst_sim::{event_driven, result_return, SimConfig, SimReport};
use std::fmt::Write;

fn peak_buffer(rep: &SimReport) -> u64 {
    rep.buffers.iter().map(|b| b.max).max().unwrap_or(0)
}

/// E7 — the paper's event-driven schedule vs a Kreaseck-style demand-driven
/// autonomous protocol: throughput, start-up, and buffering.
#[must_use]
pub fn e7_protocol_comparison() -> String {
    let mut out = String::new();
    writeln!(out, "E7  event-driven (paper) vs demand-driven (Kreaseck-style) protocols\n")
        .unwrap();
    let mut t = Table::new([
        "tree",
        "protocol",
        "steady rate",
        "optimal",
        "startup entry",
        "peak buffer",
        "wasted feeds",
    ]);
    let cases: Vec<(String, bwfirst_platform::Platform)> =
        std::iter::once(("example".to_string(), example_tree()))
            .chain([11u64, 12, 13].into_iter().map(|s| (format!("random-31 #{s}"), tree(31, s))))
            .collect();
    for (name, p) in cases {
        let ss = SteadyState::from_solution(&bw_first(&p));
        if !ss.throughput.is_positive() {
            continue;
        }
        let window = Rat::from_int(synchronous_period(&ss).unwrap());
        let horizon = (window * rat(8, 1)).max(rat(240, 1));
        let cfg = SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };

        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let er = event_driven::simulate(&p, &ev, &cfg).expect("example tree simulates");
        let dr = demand_driven::simulate(&p, DemandConfig::default(), &cfg);
        let ir = demand_driven::simulate(&p, DemandConfig::interruptible(), &cfg);

        // Tasks delivered into subtrees the optimal schedule never uses.
        let wasted = |rep: &SimReport| -> u64 {
            p.node_ids().filter(|&n| !ss.is_active(n)).map(|n| rep.received[n.index()]).sum()
        };
        let measure = |rep: &SimReport| -> (String, String) {
            let entry = rep.steady_state_entry(ss.throughput, window, horizon);
            let tail = rep.throughput_in(horizon / Rat::TWO, horizon);
            (f(tail), entry.map_or("never".to_string(), f))
        };
        let (er_rate, er_entry) = measure(&er);
        let (dr_rate, dr_entry) = measure(&dr);
        t.row([
            name.clone(),
            "event-driven".to_string(),
            er_rate,
            f(ss.throughput),
            er_entry,
            peak_buffer(&er).to_string(),
            wasted(&er).to_string(),
        ]);
        let (ir_rate, ir_entry) = measure(&ir);
        t.row([
            name.clone(),
            "demand-driven".to_string(),
            dr_rate,
            f(ss.throughput),
            dr_entry,
            peak_buffer(&dr).to_string(),
            wasted(&dr).to_string(),
        ]);
        t.row([
            name,
            "demand (interruptible)".to_string(),
            ir_rate,
            f(ss.throughput),
            ir_entry,
            peak_buffer(&ir).to_string(),
            wasted(&ir).to_string(),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out, "\nthe demand-driven protocol wastes feeds on pruned subtrees, buffers more,")
        .unwrap();
    writeln!(out, "and can settle below the optimal rate — the Sections 2/7 criticism.").unwrap();
    out
}

/// E8 — Section 9: separate send/return port accounting sustains 2 tasks per
/// time unit where the merged simplification predicts (and gets) only 1.
#[must_use]
pub fn e8_result_return() -> String {
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
    let window = (rat(200, 1), rat(400, 1));
    let mut t = Table::new(["model", "measured rate", "paper"]);
    t.row([
        "separated send (0.5) + return (0.5)".to_string(),
        f(sep.throughput_in(window.0, window.1)),
        "2 tasks/unit".to_string(),
    ]);
    t.row([
        "merged c = 1 (the simplification)".to_string(),
        f(merged.throughput_in(window.0, window.1)),
        "1 task/unit".to_string(),
    ]);
    let mut out = String::new();
    writeln!(out, "E8  Section 9 result-return counter-example (master + 2 unit-speed workers)\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nmerging send and return times halves the platform: the receiving port is a")
        .unwrap();
    writeln!(out, "resource of its own, so the bandwidth-centric simplification is erroneous.")
        .unwrap();
    out
}

/// E11 — the distributed protocol is lightweight: single-number messages,
/// negotiation latency tiny next to task traffic.
#[must_use]
pub fn e11_distributed_protocol() -> String {
    let mut out = String::new();
    writeln!(out, "E11  distributed BW-First over threads + channels\n").unwrap();
    let mut t = Table::new([
        "nodes",
        "throughput (== centralized)",
        "messages",
        "wire bytes",
        "negotiate wall-time",
        "flow volume (64 B tasks)",
        "flow wall-time",
    ]);
    for &size in &[15usize, 63, 255] {
        let p = crate::trees::supply_tree(size, 21); // slow CPUs: wide fan-out
        let session = ProtocolSession::spawn(&p).expect("spawn actor tree");
        let neg = session.negotiate().expect("negotiation completes");
        let check = bw_first(&p);
        assert_eq!(neg.throughput, check.throughput(), "distributed must match centralized");
        // Size the flow phase to a few thousand tasks regardless of the
        // root's bunch length Ψ (which grows with the rate denominators).
        let ss = SteadyState::from_solution(&check);
        let sched = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
        let root_bunch = sched.get(p.root()).map_or(1, |s| s.bunch.max(1)) as u64;
        let bunches = (4000 / root_bunch).clamp(1, 200);
        let flow = session.run_flow(bunches, 64).expect("flow completes");
        let wire_bytes = bwfirst_proto::wire::negotiation_wire_bytes(&check);
        t.row([
            size.to_string(),
            crate::trees::f(neg.throughput),
            neg.protocol_messages.to_string(),
            wire_bytes.to_string(),
            format!("{:?}", neg.elapsed),
            format!("{} tasks", flow.total_computed()),
            format!("{:?}", flow.elapsed),
        ]);
    }
    out.push_str(&t.render());
    writeln!(out, "\n(wire bytes: the whole negotiation encoded with the varint codec — a few")
        .unwrap();
    writeln!(out, " bytes per message, dwarfed by a single task payload)").unwrap();

    // The same protocol over real localhost TCP sockets.
    let p_tcp = example_tree();
    let tcp = ProtocolSession::spawn_tcp(&p_tcp).expect("spawn over TCP");
    let neg_tcp = tcp.negotiate().expect("negotiation completes");
    writeln!(
        out,
        "\nsame negotiation over real TCP sockets (example tree): throughput {}, {} messages, {:?}",
        neg_tcp.throughput, neg_tcp.protocol_messages, neg_tcp.elapsed
    )
    .unwrap();

    // Dynamic adaptation: drop a link, renegotiate, recover.
    writeln!(out, "\ndynamic adaptation (example tree):").unwrap();
    let p = example_tree();
    let mut session = ProtocolSession::spawn(&p).expect("spawn actor tree");
    let before = session.negotiate().expect("negotiation completes");
    session.set_link(bwfirst_platform::NodeId(1), rat(12, 1)).expect("set_link");
    let degraded = session.negotiate().expect("negotiation completes");
    session.set_link(bwfirst_platform::NodeId(1), rat(1, 1)).expect("set_link");
    let recovered = session.negotiate().expect("negotiation completes");
    writeln!(out, "  initial throughput   {}", before.throughput).unwrap();
    writeln!(
        out,
        "  after P0->P1 slows   {} ({} messages to renegotiate, {:?})",
        degraded.throughput, degraded.protocol_messages, degraded.elapsed
    )
    .unwrap();
    writeln!(out, "  after link recovers  {}", recovered.throughput).unwrap();
    out
}

/// E13 — Section 2's claim: the steady-state schedule with quick start-up
/// and wind-down is a strong heuristic for Dutot's NP-hard makespan
/// problem. Measured makespans converge onto the `N/throughput` lower bound.
#[must_use]
pub fn e13_makespan() -> String {
    use bwfirst_sim::makespan::{demand_driven_makespan, event_driven_makespan, lower_bound};
    let mut out = String::new();
    writeln!(out, "E13  makespan of finite workloads vs the steady-state lower bound\n").unwrap();
    let mut t = Table::new([
        "tree",
        "tasks N",
        "lower bound N/rate",
        "event-driven makespan",
        "ratio",
        "demand-driven makespan",
        "ratio",
    ]);
    let cases: Vec<(String, bwfirst_platform::Platform)> =
        std::iter::once(("example".to_string(), example_tree()))
            .chain(std::iter::once((
                "supply-31 #33".to_string(),
                crate::trees::supply_tree(31, 33),
            )))
            .collect();
    for (name, p) in cases {
        let ss = SteadyState::from_solution(&bw_first(&p));
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        for n in [50u64, 200, 1000] {
            let lb = lower_bound(&ss, n);
            let emk = event_driven_makespan(&p, &ss, &ev, n);
            let dmk = demand_driven_makespan(
                &p,
                &ss,
                bwfirst_sim::demand_driven::DemandConfig::default(),
                n,
            );
            t.row([
                name.clone(),
                n.to_string(),
                f(lb),
                f(emk),
                format!("{:.3}", (emk / lb).to_f64()),
                f(dmk),
                format!("{:.3}", (dmk / lb).to_f64()),
            ]);
        }
    }
    out.push_str(&t.render());
    writeln!(out, "\nquick start-up and wind-down push the event-driven makespan toward the")
        .unwrap();
    writeln!(out, "information-theoretic bound as N grows — the Section 2 heuristic argument.")
        .unwrap();
    out
}

/// E16 — the Lemma 1 clocked schedule (with Proposition 3's χ prefill) vs
/// the clockless event-driven schedule: same steady rate, but the clocked
/// variant needs the prefill stock to start cleanly.
#[must_use]
pub fn e16_clocked_vs_event() -> String {
    use bwfirst_sim::clocked::{self, ClockedConfig};
    let p = example_tree();
    let ss = SteadyState::from_solution(&bw_first(&p));
    let ts = bwfirst_core::schedule::TreeSchedule::build(&p, &ss).unwrap();
    let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
    let cfg = SimConfig::to_horizon(rat(216, 1));
    let event = event_driven::simulate(&p, &ev, &cfg).expect("example tree simulates");
    let traditional = event_driven::simulate_with_policy(
        &p,
        &ev,
        &cfg,
        bwfirst_sim::event_driven::StartupPolicy::Prefill,
    )
    .expect("example tree simulates");
    let warm = clocked::simulate(&p, &ts, ClockedConfig { prefill: true }, &cfg)
        .expect("example tree simulates");
    let cold = clocked::simulate(&p, &ts, ClockedConfig { prefill: false }, &cfg)
        .expect("example tree simulates");

    let mut t = Table::new([
        "executor",
        "tasks in period 1",
        "tasks in period 2",
        "steady (periods 3+)",
        "prefilled tasks",
        "peak buffer",
    ]);
    let peak = |r: &SimReport| r.buffers.iter().map(|b| b.max).max().unwrap().to_string();
    let row = |r: &SimReport, prefill: u64| {
        [
            r.completions_in(rat(0, 1), rat(36, 1)).to_string(),
            r.completions_in(rat(36, 1), rat(72, 1)).to_string(),
            r.completions_in(rat(72, 1), rat(108, 1)).to_string(),
            prefill.to_string(),
            peak(r),
        ]
    };
    let chi_total: u64 = ts.iter().filter_map(|s| s.chi_in).map(|c| c as u64).sum();
    let e = row(&event, 0);
    t.row([
        "event-driven (paper)".to_string(),
        e[0].clone(),
        e[1].clone(),
        e[2].clone(),
        e[3].clone(),
        e[4].clone(),
    ]);
    let tr = row(&traditional, 0);
    t.row([
        "traditional prefill (Sec. 7 baseline)".to_string(),
        tr[0].clone(),
        tr[1].clone(),
        tr[2].clone(),
        tr[3].clone(),
        tr[4].clone(),
    ]);
    let w = row(&warm, chi_total);
    t.row([
        "clocked + chi prefill".to_string(),
        w[0].clone(),
        w[1].clone(),
        w[2].clone(),
        w[3].clone(),
        w[4].clone(),
    ]);
    let c = row(&cold, 0);
    t.row([
        "clocked, cold".to_string(),
        c[0].clone(),
        c[1].clone(),
        c[2].clone(),
        c[3].clone(),
        c[4].clone(),
    ]);

    let mut out = String::new();
    writeln!(out, "E16  Lemma 1 clocked schedule vs the event-driven schedule (example tree)\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(out, "\nthe clocked schedule needs Proposition 3's buffered stock to start at full")
        .unwrap();
    writeln!(out, "rate; the event-driven schedule gets there without prefill or clocks —")
        .unwrap();
    writeln!(out, "the paper's Sections 6.2 and 7 in one table.").unwrap();
    out
}

/// E18 — platform dynamics in simulated time: a mid-run link degradation
/// under the stale schedule vs the Section 5 re-negotiation strategy.
#[must_use]
pub fn e18_dynamic_adaptation() -> String {
    use bwfirst_sim::dynamic::{simulate_dynamic, AdaptPolicy, LinkChange};
    let p = example_tree();
    let changes = vec![
        LinkChange { at: rat(120, 1), child: bwfirst_platform::NodeId(1), new_c: rat(12, 1) },
        LinkChange { at: rat(320, 1), child: bwfirst_platform::NodeId(1), new_c: rat(1, 1) },
    ];
    let cfg = SimConfig {
        horizon: rat(560, 1),
        stop_injection_at: None,
        total_tasks: None,
        record_gantt: false,
        exact_queue: false,
        seed: 0,
    };
    let (stale, _) = simulate_dynamic(&p, &changes, AdaptPolicy::Stale, &cfg).expect("schedulable");
    let (adaptive, swaps) =
        simulate_dynamic(&p, &changes, AdaptPolicy::Renegotiate { delay: rat(5, 1) }, &cfg)
            .expect("schedulable");

    let mut t =
        Table::new(["window", "platform state", "optimum", "stale schedule", "renegotiated"]);
    let windows: [(i128, i128, &str, &str); 3] = [
        (76, 112, "healthy (c=1)", "10/9 = 1.1111"),
        (200, 308, "degraded (c=12)", "21/20 = 1.05"),
        (420, 556, "healed (c=1)", "10/9 = 1.1111"),
    ];
    for (a, b, state, opt) in windows {
        t.row([
            format!("[{a}, {b})"),
            state.to_string(),
            opt.to_string(),
            f(stale.throughput_in(rat(a, 1), rat(b, 1))),
            f(adaptive.throughput_in(rat(a, 1), rat(b, 1))),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "E18  mid-run link dynamics: P0->P1 degrades 12x at t=120, heals at t=320\n")
        .unwrap();
    out.push_str(&t.render());
    writeln!(
        out,
        "\nschedule swaps at t = {:?} (5 time units after each change —",
        swaps.iter().map(|s| s.to_f64()).collect::<Vec<_>>()
    )
    .unwrap();
    writeln!(out, "E11 shows the real renegotiation costs microseconds and ~100 bytes).").unwrap();
    writeln!(out, "the stale schedule keeps pushing 1/3 task/unit into the slow link and clogs")
        .unwrap();
    writeln!(out, "the root's port; re-negotiation tracks the platform's optimum throughout.")
        .unwrap();
    out
}

/// E19 — result returns on whole trees (Section 9's open problem,
/// quantified): running the forward-optimal schedule while results of
/// relative size ρ relay back to the master.
#[must_use]
pub fn e19_returns_on_trees() -> String {
    use bwfirst_sim::returns::{simulate_with_returns, ReturnConfig};
    let mut out = String::new();
    writeln!(out, "E19  forward-optimal schedule under result returns (relative size rho)\n")
        .unwrap();
    let mut t =
        Table::new(["tree", "rho=0 (paper model)", "rho=1/8", "rho=1/4", "rho=1/2", "rho=1"]);
    let cases: Vec<(String, bwfirst_platform::Platform)> =
        std::iter::once(("example".to_string(), example_tree()))
            .chain(std::iter::once((
                "supply-31 #33".to_string(),
                crate::trees::supply_tree(31, 33),
            )))
            .collect();
    for (name, p) in cases {
        let ss = SteadyState::from_solution(&bw_first(&p));
        // Quantize lcm-exploded rates so the schedule (and the simulated
        // window) stays compact; loss is < 0.2% at this grid (E15).
        let ss = if synchronous_period(&ss).unwrap() > 10_000 {
            bwfirst_core::quantize::quantize(&p, &ss, 2520)
        } else {
            ss
        };
        let ev = EventDrivenSchedule::standard(&p, &ss).unwrap();
        let start = rat(200, 1);
        let horizon = rat(600, 1);
        let cfg = SimConfig {
            horizon,
            stop_injection_at: None,
            total_tasks: None,
            record_gantt: false,
            exact_queue: false,
            seed: 0,
        };
        let mut row = vec![name];
        for (num, den) in [(0i128, 1i128), (1, 8), (1, 4), (1, 2), (1, 1)] {
            let ret = ReturnConfig { return_ratio: rat(num, den) };
            let rep = simulate_with_returns(&p, &ev, ret, &cfg).unwrap();
            row.push(f(rep.throughput_in(start, horizon)));
        }
        t.row(row);
    }
    out.push_str(&t.render());
    writeln!(out, "\nthe paper proves the merge-the-costs simplification wrong (E8) and leaves")
        .unwrap();
    writeln!(out, "scheduling-with-returns open; here the *forward-optimal* schedule is run")
        .unwrap();
    writeln!(out, "against growing return traffic: the loss at rho=1 is the price of ignoring")
        .unwrap();
    writeln!(out, "the receiving-port resource when building the schedule.").unwrap();
    out
}
