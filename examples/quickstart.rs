//! Quickstart: solve the paper's delayed-gratification problem.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Given a UAV that just came into range at `d0` carrying `Mdata`, should
//! it transmit now or fly closer first? This example evaluates Eq. (1)
//! over the feasible distances, solves Eq. (2) for both of the paper's
//! baseline scenarios, and prints the decision an on-board planner would
//! receive.

use skyferry::core::prelude::*;
use skyferry::core::utility::utility_breakdown;
use skyferry_units::Meters;

fn show(name: &str, scenario: Scenario<'_>) {
    println!("scenario: {name}");
    println!(
        "  d0 = {:.0} m, v = {:.1} m/s, Mdata = {:.1} MB",
        scenario.d0_m,
        scenario.v_mps,
        scenario.mdata_bytes / 1e6
    );

    // A few sample points of U(d) — the curve of Figure 8.
    println!("  U(d) samples:");
    let n = 5;
    for i in 0..n {
        let d = scenario.d_min_m + (scenario.d0_m - scenario.d_min_m) * i as f64 / (n - 1) as f64;
        let b = utility_breakdown(scenario, Meters::new(d));
        println!(
            "    d = {d:>5.1} m   ship {:>6.1} s + tx {:>6.1} s   survival {:.4}   U = {:.5}",
            b.delay.ship_s(),
            b.delay.tx_s(),
            b.survival,
            b.utility
        );
    }

    // The optimum (Eq. 2).
    let opt = optimize(scenario);
    println!(
        "  optimum: transmit at d = {:.1} m (U = {:.5}, Cdelay = {:.1} s)",
        opt.d_opt,
        opt.utility,
        opt.cdelay_s()
    );

    // What the planner would tell the UAV.
    let engine = DecisionEngine::from_scenario(scenario);
    let (decision, _) = engine.decide(
        scenario.d0(),
        scenario.mdata(),
        match scenario.failure {
            skyferry::core::failure::FailureSpec::Exponential(e) => e.rho_per_m,
            _ => 0.0,
        },
    );
    match decision {
        TransferDecision::TransmitNow { expected_tx_s } => {
            println!("  decision: TRANSMIT NOW (expect {expected_tx_s:.1} s)");
        }
        TransferDecision::MoveThenTransmit {
            target_d_m,
            expected_ship_s,
            expected_tx_s,
        } => {
            println!(
                "  decision: MOVE to {target_d_m:.1} m ({expected_ship_s:.1} s), then transmit ({expected_tx_s:.1} s)"
            );
        }
    }
    println!();
}

fn main() {
    println!("skyferry quickstart — now or later?\n");
    show("airplane-baseline", Scenario::airplane_baseline());
    show("quadrocopter-baseline", Scenario::quadrocopter_baseline());

    // A smaller batch changes the answer: with only 5 MB to deliver,
    // repositioning is not worth it.
    let light = Scenario::airplane_baseline().with_mdata_mb(5.0);
    show("airplane, 5 MB", light);
}
