//! Benchmarks of the computational kernels underneath the reproduction:
//! the Eq. (2) optimizer, the PHY error chain and the bracketed loss
//! decision that avoids it, one MAC TXOP, a second of simulated
//! saturated traffic, and a campaign-store fill.
//!
//! Writes `BENCH_kernels.json`: median ns per solve of the optimizer
//! benches, median ns per call of every other kernel, and objective and
//! bound calls per solve on the Fig. 9 grid and the quick policy grid —
//! pruned, and with an infinite bound (the full scan) as the base.
//!
//! The single-scenario `optimizer/*` benches solve one scenario over
//! and over; `policy_quick_strided` solves a different quick-grid cell
//! on each call, the mix `PolicyTable::build` sweeps. Likewise
//! `mac/txop` is a hovering quadrocopter, whose TXOPs rarely resample
//! the channel or evaluate a PER; `mac/txop-airplane-20mps` has the
//! shape of Figure 6's fixed-MCS campaigns, which dominate a full
//! `repro` run. `store/fig6-fixed-mcs-one-rep-second` fills Figure 6's
//! fixed-MCS grid for one replication through a fresh campaign store: its
//! 52 cells read one fading stream, so it is the kernel that shows the
//! shared normal tape, whose computed and read normals the report gives
//! under `store_fill_normals`.

use std::hint::black_box;

use skyferry_bench::experiments::fig6;
use skyferry_bench::microbench::Harness;
use skyferry_bench::solver_calls::{figure9_calls, quick_policy_calls, SolveCalls};
use skyferry_bench::store::CampaignStore;
use skyferry_control::mission::{run_mission, MissionConfig};
use skyferry_core::mixed::{optimize_mixed, MixedConfig};
use skyferry_core::optimizer::optimize;
use skyferry_core::policy::PolicyGrid;
use skyferry_core::scenario::Scenario;
use skyferry_core::sweep::{gratification_sweep, paper_grid};
use skyferry_geo::vector::Vec3;
use skyferry_mac::link::{LinkConfig, LinkState};
use skyferry_mac::queue::TxQueue;
use skyferry_mac::rate::{Arf, FixedMcs, RateController, TxFeedback};
use skyferry_net::campaign::{measure_throughput, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_phy::channel::db_to_linear;
use skyferry_phy::error::{coded_per, effective_snr_linear, PerCurve};
use skyferry_phy::fading::FadingProcess;
use skyferry_phy::mcs::Mcs;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::prelude::*;
use skyferry_sim::rng::NormalWork;
use skyferry_stats::json::Json;
use skyferry_units::{Db, MetersPerSec};

/// The kernels below the optimizer, reported per call under `kernel_ns`.
const KERNELS: [&str; 8] = [
    "phy/per-subframe-error-chain",
    "phy/per-subframe-decision",
    "mac/txop",
    "mac/txop-airplane-20mps",
    "mac/arf-full-ladder-feedback",
    "campaign/one-simulated-second-autorate",
    "store/fig6-fixed-mcs-one-rep-second",
    "mission/single-uav-full-mission",
];

fn bench_optimizer(h: &mut Harness) {
    let air = Scenario::airplane_baseline();
    let quad = Scenario::quadrocopter_baseline();
    h.bench("optimizer/airplane-baseline", || {
        black_box(optimize(black_box(air)))
    });
    h.bench("optimizer/quadrocopter-baseline", || {
        black_box(optimize(black_box(quad)))
    });
    h.bench("optimizer/figure9-grid-30-cells", || {
        black_box(gratification_sweep(
            air,
            &paper_grid::MDATA_MB,
            &paper_grid::SPEEDS_MPS,
        ))
    });
    let s = Scenario::quadrocopter_baseline().with_mdata_mb(15.0);
    let cfg = MixedConfig::for_speed(MetersPerSec::new(4.5));
    h.bench("optimizer/mixed-2d", || black_box(optimize_mixed(s, &cfg)));
    // A prime stride, coprime to the 7,560 cells: consecutive solves
    // differ in every axis, and every cell is visited once per lap.
    const STRIDE: usize = 211;
    let grid = PolicyGrid::quick();
    let mut cell = 0;
    h.bench("optimizer/policy-quick-strided", || {
        cell = (cell + STRIDE) % grid.cells();
        black_box(grid.params_at(cell).solve())
    });
}

fn bench_phy(h: &mut Harness) {
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    let snr = db_to_linear(preset.mean_snr(skyferry_units::Meters::new(100.0)).get());
    // Opaque, as a rate controller's choice is to the link: a literal
    // MCS lets the compiler fold the chain's per-MCS constants.
    let mcs = black_box(Mcs::new(3));
    // Both benches walk one fading sequence, a state every 500 µs.
    let channel = || {
        let mut fading = FadingProcess::new(preset.fading, DetRng::seed(1));
        let mut t = SimTime::ZERO;
        move || {
            t += SimDuration::from_micros(500);
            effective_snr_linear(mcs, true, snr, &fading.state_at(t), Db::new(12.0))
        }
    };
    let mut eff = channel();
    h.bench("phy/per-subframe-error-chain", || {
        black_box(coded_per(mcs, eff(), 1500))
    });
    // The link's decision: one draw against the frame's bracketed PER,
    // and the exact chain only when the draw falls inside the bracket.
    let mut eff = channel();
    let curve = PerCurve::shared(mcs, 1500);
    let mut draws = DetRng::seed(2);
    let mut exact_runs = 0;
    h.bench("phy/per-subframe-decision", || {
        black_box(curve.bracket(eff(), 1500).lost(&mut draws, &mut exact_runs))
    });
}

fn bench_mac(h: &mut Harness) {
    let seeds = SeedStream::new(5);
    let preset = ChannelPreset::quadrocopter(MetersPerSec::new(0.0));
    let mut link = LinkState::new(
        LinkConfig::paper_default(preset),
        Box::new(FixedMcs(Mcs::new(1))),
        seeds.rng("fading"),
        seeds.rng("link"),
    );
    let mut queue = TxQueue::saturated(1e9, 1 << 20);
    let mut now = SimTime::ZERO;
    h.bench("mac/txop", || {
        let out = link.execute_txop(now, 40.0, 0.0, &mut queue);
        now += out.airtime;
        black_box(out.delivered)
    });

    // Figure 6's fixed-MCS cell at mid range: the airplane preset's host
    // rate, and the channel at the preset's 20 m/s floor speed.
    let preset = ChannelPreset::airplane(MetersPerSec::new(20.0));
    let mut link = LinkState::new(
        LinkConfig::paper_default(preset),
        Box::new(FixedMcs(Mcs::new(3))),
        seeds.rng("fading"),
        seeds.rng("link"),
    );
    let mut queue = TxQueue::saturated(preset.host_fill_rate_bps, 1 << 17);
    let mut now = SimTime::ZERO;
    h.bench("mac/txop-airplane-20mps", || {
        let out = link.execute_txop(now, 140.0, 20.0, &mut queue);
        now += out.airtime;
        black_box(out.delivered)
    });

    let mut arf = Arf::new();
    let mut rng = DetRng::seed(6);
    let mut i = 0u64;
    h.bench("mac/arf-full-ladder-feedback", || {
        let mcs = arf.select(SimTime::from_millis(i), &mut rng);
        arf.feedback(&TxFeedback {
            mcs,
            attempted: 14,
            delivered: (i % 15) as u32,
            at: SimTime::from_millis(i),
        });
        i += 1;
        black_box(mcs)
    });
}

fn bench_campaign_second(h: &mut Harness) {
    let cfg = CampaignConfig {
        preset: ChannelPreset::airplane(MetersPerSec::new(20.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(1),
        seed: 3,
    };
    let mut rep = 0;
    h.bench("campaign/one-simulated-second-autorate", || {
        rep += 1;
        black_box(measure_throughput(&cfg, MotionProfile::hover(100.0), rep))
    });
}

/// Figure 6's four fixed MCS × 13 distances, one replication of one
/// simulated second, through a fresh store on a new seed per call; the
/// normals computed and read over every call.
fn bench_store_fill(h: &mut Harness) -> NormalWork {
    let before = NormalWork::totals();
    let mut seed = 0;
    h.bench("store/fig6-fixed-mcs-one-rep-second", || {
        seed += 1;
        let mut requests = Vec::new();
        for m in fig6::FIXED_MCS {
            let c = CampaignConfig {
                preset: ChannelPreset::airplane(MetersPerSec::new(20.0)),
                controller: ControllerKind::Fixed(Mcs::new(m)),
                duration: SimDuration::from_secs(1),
                seed,
            };
            requests.extend(fig6::distances().into_iter().map(|d| (c, d)));
        }
        let mut store = CampaignStore::new(false);
        store.ensure(&requests, 1);
        black_box(store.misses())
    });
    let normals = NormalWork::totals().since(before);
    println!(
        "  normals: {} computed, {} read",
        normals.computed, normals.read
    );
    normals
}

fn bench_mission(h: &mut Harness) {
    let mut cfg = MissionConfig::quadrocopter_fleet(1, 50.0, 5);
    cfg.relay_position = Vec3::new(100.0, 25.0, 10.0);
    cfg.horizon_s = 900.0;
    h.bench("mission/single-uav-full-mission", || {
        black_box(run_mission(&cfg).completions())
    });
}

fn calls_json(pruned: SolveCalls, full: SolveCalls) -> Json {
    let calls = |c: SolveCalls| {
        Json::obj([
            ("objective", Json::Fixed(c.objective, 1)),
            ("bound", Json::Fixed(c.bound, 1)),
            ("total", Json::Fixed(c.total(), 1)),
        ])
    };
    // The full scan's bound calls return a constant and cost nothing, so
    // the reduction is taken against its objective calls alone.
    Json::obj([
        ("full_scan", calls(full)),
        ("pruned", calls(pruned)),
        ("reduction", Json::Fixed(full.objective / pruned.total(), 2)),
    ])
}

fn main() {
    let mut h = Harness::from_env();
    bench_optimizer(&mut h);
    bench_phy(&mut h);
    bench_mac(&mut h);
    bench_campaign_second(&mut h);
    let normals = bench_store_fill(&mut h);
    bench_mission(&mut h);

    let ns = |name: &str, solves: f64| Json::Fixed(h.median_ns(name) / solves, 1);
    let json = Json::obj([
        ("bench", Json::str("kernels")),
        (
            "solve_ns",
            Json::obj([
                ("airplane_baseline", ns("optimizer/airplane-baseline", 1.0)),
                (
                    "quadrocopter_baseline",
                    ns("optimizer/quadrocopter-baseline", 1.0),
                ),
                (
                    "figure9_grid_per_cell",
                    ns("optimizer/figure9-grid-30-cells", 30.0),
                ),
                ("mixed_2d", ns("optimizer/mixed-2d", 1.0)),
                (
                    "policy_quick_strided",
                    ns("optimizer/policy-quick-strided", 1.0),
                ),
            ]),
        ),
        (
            "kernel_ns",
            Json::Obj(
                KERNELS
                    .iter()
                    .map(|&k| (k.to_string(), ns(k, 1.0)))
                    .collect(),
            ),
        ),
        (
            "store_fill_normals",
            Json::obj([
                ("computed", Json::Int(normals.computed as i64)),
                ("read", Json::Int(normals.read as i64)),
                (
                    "computed_per_read",
                    Json::Fixed(normals.computed as f64 / normals.read as f64, 4),
                ),
            ]),
        ),
        (
            "calls_per_solve",
            Json::obj([
                (
                    "figure9",
                    calls_json(figure9_calls(true), figure9_calls(false)),
                ),
                (
                    "policy_quick",
                    calls_json(quick_policy_calls(true), quick_policy_calls(false)),
                ),
            ]),
        ),
    ]);
    h.write_report("kernels", &json);
    h.finish();
}
