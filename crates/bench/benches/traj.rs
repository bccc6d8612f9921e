//! Trajectory-planner microbench, and the DP-grid build-time gate.
//!
//! The planner's cost is one dense sweep over the distance × battery
//! grid (rings × sectors × buckets states, three successor legs each)
//! plus two golden-section refinements. This bench times:
//!
//! * **quick-grid** — the `--quick` resolution used by CI smoke runs;
//! * **baseline-grid** — the full golden-experiment resolution;
//! * **degenerate-calm** — the calm-air case, whose straight
//!   refinement must reproduce the scalar optimizer bit-for-bit.
//!
//! Then the gate: one timed cold baseline-grid plan must finish under
//! `SKYFERRY_TRAJ_GATE_MS` milliseconds (default 500) — the planner
//! runs per replication inside campaigns, so it must stay cheap.
//! Results land in `BENCH_traj.json`.

use std::hint::black_box;

use skyferry_bench::microbench::Harness;
use skyferry_stats::json::Json;
use skyferry_trace::clock::monotonic_ns;
use skyferry_traj::campaign::battery_budget;
use skyferry_traj::planner::{plan, TrajConfig};
use skyferry_traj::GridSpec;
use skyferry_uav::platform::PlatformKind;
use skyferry_uav::wind::WindConfig;
use skyferry_units::MetersPerSec;

fn config(wind: WindConfig, grid: GridSpec) -> TrajConfig {
    let mut cfg = TrajConfig::baseline(
        "bench",
        wind,
        battery_budget(PlatformKind::Quadrocopter, 0.016),
    );
    cfg.grid = grid;
    cfg
}

fn crosswind() -> WindConfig {
    WindConfig::steady(0.0, MetersPerSec::new(3.5))
}

fn main() {
    let quick = config(crosswind(), GridSpec::quick());
    let baseline = config(crosswind(), GridSpec::baseline());
    let calm = config(WindConfig::calm(), GridSpec::baseline());
    println!(
        "grids: quick {} states, baseline {} states\n",
        quick.grid.states(),
        baseline.grid.states()
    );

    let mut h = Harness::from_env();
    h.bench("traj/quick-grid", || {
        black_box(plan(&quick).optimized.d_tx_m)
    });
    h.bench("traj/baseline-grid", || {
        black_box(plan(&baseline).optimized.d_tx_m)
    });
    h.bench("traj/degenerate-calm", || {
        black_box(plan(&calm).optimized.d_tx_m)
    });

    // The gate: one fresh cold plan at the golden resolution (the bench
    // medians above are steady-state; the gate catches a pathological
    // cold cost that warm-up batches would hide).
    let gate_ms: f64 = std::env::var("SKYFERRY_TRAJ_GATE_MS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500.0);
    let t0 = monotonic_ns();
    let sol = plan(&baseline);
    let build_s = (monotonic_ns() - t0) as f64 / 1e9;
    println!(
        "\nbaseline DP build: {:.4} s, d_tx {:.2} m, gain {:.4} (gate {:.2} s)",
        build_s,
        sol.optimized.d_tx_m,
        sol.gain(),
        gate_ms / 1e3
    );

    let json = Json::obj([
        ("bench", Json::str("traj-planner")),
        (
            "grid",
            Json::obj([
                ("quick_states", Json::Int(quick.grid.states() as i64)),
                ("baseline_states", Json::Int(baseline.grid.states() as i64)),
            ]),
        ),
        (
            "plan_ns",
            Json::obj([
                ("quick_grid", Json::Fixed(h.median_ns("traj/quick-grid"), 1)),
                (
                    "baseline_grid",
                    Json::Fixed(h.median_ns("traj/baseline-grid"), 1),
                ),
                (
                    "degenerate_calm",
                    Json::Fixed(h.median_ns("traj/degenerate-calm"), 1),
                ),
            ]),
        ),
        (
            "gate",
            Json::obj([
                ("dp_build_s", Json::Fixed(build_s, 4)),
                ("budget_s", Json::Fixed(gate_ms / 1e3, 4)),
            ]),
        ),
    ]);
    h.write_report("traj", &json);
    h.finish();

    if build_s * 1e3 >= gate_ms {
        eprintln!(
            "GATE FAILED: baseline DP plan {build_s:.4} s >= {:.2} s budget",
            gate_ms / 1e3
        );
        std::process::exit(1);
    }
}
