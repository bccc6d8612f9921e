//! Sweep the strategy space: where is the sweet spot?
//!
//! ```text
//! cargo run --example strategy_sweep [-- <Mdata-MB> <speed-mps>]
//! ```
//!
//! Reproduces the reasoning behind Figures 8 and 9 interactively: prints
//! the optimal rendezvous distance across batch sizes, speeds and failure
//! rates for the airplane scenario, plus a side-by-side evaluation of the
//! concrete strategies for one chosen parameter point.

use skyferry::core::prelude::*;
use skyferry::core::strategy::{evaluate_panel, EvalConfig};
use skyferry::core::sweep::{gratification_sweep, paper_grid, paper_rhos, rho_sweep};
use skyferry::stats::table::{Column, Table, Value};

fn main() {
    let mut args = std::env::args().skip(1);
    let mdata_mb: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(15.0);
    let speed: f64 = args.next().and_then(|s| s.parse().ok()).unwrap_or(10.0);

    println!("skyferry strategy sweep (airplane scenario)\n");

    // --- Figure 8: how risk moves the optimum. --------------------------
    let base = Scenario::airplane_baseline()
        .with_mdata_mb(mdata_mb)
        .with_speed(speed);
    let mut t = Table::new(vec![
        Column::sci("rho (1/m)", 2).left(),
        Column::float("dopt (m)", 1),
        Column::float("U(dopt)", 4),
        Column::float("ship (s)", 1),
        Column::float("tx (s)", 1),
    ]);
    for c in rho_sweep(base, &paper_rhos::AIRPLANE, 2) {
        t.push(vec![
            Value::Num(c.rho_per_m),
            c.optimum.d_opt.into(),
            c.optimum.utility.into(),
            c.optimum.ship_s.into(),
            c.optimum.tx_s.into(),
        ]);
    }
    println!("risk sweep for Mdata = {mdata_mb} MB, v = {speed} m/s:");
    println!("{}", t.render_text());

    // --- Figure 9: the Mdata × v landscape. ------------------------------
    let grid = gratification_sweep(
        Scenario::airplane_baseline(),
        &paper_grid::MDATA_MB,
        &paper_grid::SPEEDS_MPS,
    );
    let mut g = Table::new(vec![
        Column::text("Mdata \\ v"),
        Column::int("3"),
        Column::int("5"),
        Column::int("10"),
        Column::int("15"),
        Column::int("20  (dopt in m)"),
    ]);
    for row in &grid {
        let cells: Vec<f64> = row.iter().map(|p| p.optimum.d_opt).collect();
        g.row_f64(&format!("{:.0} MB", row[0].mdata_mb), &cells);
    }
    println!("optimal rendezvous distance across the Figure 9 grid:");
    println!("{}", g.render_text());

    // --- Concrete strategies at the chosen point. ------------------------
    let mut s = Table::new(vec![
        Column::text("strategy"),
        Column::float("completion (s)", 1),
        Column::float("survival", 4),
        Column::float("utility", 5),
    ]);
    for e in evaluate_panel(
        base,
        &[20.0, 60.0, 120.0, base.d0_m],
        &EvalConfig::default(),
    ) {
        s.push(vec![
            Value::from(e.label.as_str()),
            e.completion_s.into(),
            e.survival.into(),
            e.utility.into(),
        ]);
    }
    println!("strategy panel at Mdata = {mdata_mb} MB, v = {speed} m/s:");
    println!("{}", s.render_text());

    let opt = optimize(base);
    println!(
        "=> solve Eq. (2): wait until d = {:.1} m, expected delivery in {:.1} s",
        opt.d_opt,
        opt.cdelay_s()
    );
}
