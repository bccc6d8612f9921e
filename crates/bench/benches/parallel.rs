//! Serial-versus-parallel timing of the deterministic replication engine,
//! written to `BENCH_parallel.json`:
//!
//! * **replications** — `run_replications` over a short saturated-traffic
//!   campaign at 1, 2, 4 and 8 worker threads; the pooled output must be
//!   bit-identical at every count;
//! * **figures** — the replication- and sweep-heavy experiments (full
//!   size, default seed) end to end on a fresh campaign store, on one
//!   worker and on one worker per hardware thread.
//!
//! On a single hardware thread the parallel columns measure the
//! engine's overhead, not a speedup.

use skyferry_bench::experiments;
use skyferry_bench::microbench::Harness;
use skyferry_bench::report::ReproConfig;
use skyferry_bench::store::CampaignStore;
use skyferry_net::campaign::{measure_throughput, CampaignConfig, ControllerKind};
use skyferry_net::profile::MotionProfile;
use skyferry_phy::presets::ChannelPreset;
use skyferry_sim::parallel::{max_threads, run_replications, set_max_threads};
use skyferry_sim::prelude::*;
use skyferry_stats::json::Json;
use skyferry_units::MetersPerSec;

const REPS: u64 = 16;

/// Worker counts of the replication-engine benches.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The experiments timed serially and in parallel.
const FIGURES: [&str; 4] = ["fig1", "fig4", "fig8", "fig9"];

fn campaign() -> CampaignConfig {
    CampaignConfig {
        preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(2),
        seed: 0x5CA1_AB1E,
    }
}

fn run_once(cfg: &CampaignConfig) -> Vec<Vec<f64>> {
    // The replication body ignores the engine-provided RNG: the campaign
    // derives its own substreams from (seed, rep), which is exactly the
    // determinism contract run_replications exists to preserve.
    run_replications(cfg.seed, "bench-campaign", REPS, |rep, _rng| {
        measure_throughput(cfg, MotionProfile::hover(50.0), rep)
    })
}

fn main() {
    let mut h = Harness::from_env();
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let cfg = campaign();
    set_max_threads(1);
    let reference = run_once(&cfg);
    for threads in THREADS {
        set_max_threads(threads);
        assert_eq!(
            run_once(&cfg),
            reference,
            "outputs differ at {threads} threads"
        );
        h.bench(&format!("parallel/replications-{threads}-threads"), || {
            run_once(&cfg)
        });
    }

    let repro = ReproConfig::default();
    for id in FIGURES {
        for (mode, threads) in [("serial", 1), ("parallel", 0)] {
            set_max_threads(threads);
            h.bench(&format!("parallel/{id}-{mode}"), || {
                let mut store = CampaignStore::new(repro.quick);
                let report = experiments::run(id, &repro, &mut store).expect("known experiment");
                report.tables.len()
            });
        }
    }
    set_max_threads(0);

    let secs = |name: String| h.median_ns(&name) / 1e9;
    let replications = THREADS.map(|threads| {
        Json::obj([
            ("threads", Json::Int(threads as i64)),
            (
                "s",
                Json::Fixed(secs(format!("parallel/replications-{threads}-threads")), 6),
            ),
        ])
    });
    let figures = FIGURES.map(|id| {
        let serial = secs(format!("parallel/{id}-serial"));
        let parallel = secs(format!("parallel/{id}-parallel"));
        Json::obj([
            ("figure", Json::str(id)),
            ("serial_s", Json::Fixed(serial, 6)),
            ("parallel_s", Json::Fixed(parallel, 6)),
            ("speedup", Json::Fixed(serial / parallel, 4)),
        ])
    });
    let json = Json::obj([
        ("bench", Json::str("parallel")),
        ("quick", Json::Bool(repro.quick)),
        ("seed", Json::Int(repro.seed as i64)),
        ("threads", Json::Int(max_threads() as i64)),
        ("hardware_threads", Json::Int(hardware_threads as i64)),
        ("replications", Json::Arr(replications.into())),
        ("figures", Json::Arr(figures.into())),
    ]);
    h.write_report("parallel", &json);
    h.finish();
}
