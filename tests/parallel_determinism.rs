//! The parallel replication engine's core guarantee, checked end to end:
//! campaign replications, campaign-store batches (whose cells share each
//! replication's fading normals), analytic sweeps, and raw
//! `run_replications` fan-outs produce *bit-identical* output at any
//! thread count, and repeated runs with the same seed reproduce the same
//! bits.
//!
//! Everything lives in ONE test function: the worker cap
//! (`set_max_threads`) is process-global state, so concurrent test
//! functions would race on it.

use skyferry::core::scenario::Scenario;
use skyferry::core::sweep::{gratification_sweep, paper_rhos, rho_sweep};
use skyferry::net::campaign::{
    measure_throughput_replicated, throughput_vs_distance, CampaignConfig, ControllerKind,
};
use skyferry::net::profile::MotionProfile;
use skyferry::phy::mcs::Mcs;
use skyferry::phy::presets::ChannelPreset;
use skyferry::sim::prelude::*;
use skyferry_bench::store::CampaignStore;
use skyferry_units::MetersPerSec;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn campaign(seed: u64) -> CampaignConfig {
    CampaignConfig {
        preset: ChannelPreset::quadrocopter(MetersPerSec::new(0.0)),
        controller: ControllerKind::Arf,
        duration: SimDuration::from_secs(3),
        seed,
    }
}

/// One store batch: two controllers on one seed, so every cell of a
/// replication reads the same fading stream; the pooled cells in request
/// order.
fn store_batch(cfg: &CampaignConfig) -> Vec<Vec<f64>> {
    let mut requests = Vec::new();
    for controller in [ControllerKind::Arf, ControllerKind::Fixed(Mcs::new(2))] {
        let c = CampaignConfig { controller, ..*cfg };
        requests.extend([30.0, 60.0, 90.0].map(|d| (c, d)));
    }
    let mut store = CampaignStore::new(true);
    store.ensure(&requests, 3);
    requests
        .iter()
        .map(|(c, d)| store.samples(c, *d, 3))
        .collect()
}

#[test]
fn outputs_bit_identical_across_thread_counts_and_runs() {
    let cfg = campaign(0x00DE_7E12);
    let base = Scenario::quadrocopter_baseline();
    let mdata = [5.0, 20.0, 56.2];
    let speeds = [2.0, 8.0, 14.0];

    // Reference bits, computed serially.
    set_max_threads(1);
    let ref_reps = measure_throughput_replicated(&cfg, MotionProfile::hover(50.0), 6);
    let ref_dist = throughput_vs_distance(&cfg, &[30.0, 60.0, 90.0], 3);
    let ref_batch = store_batch(&cfg);
    // The batch's autorate cells are the distance campaign's rows.
    assert!(ref_dist.iter().map(|(_, s)| s).eq(&ref_batch[..3]));
    let ref_rho = rho_sweep(base, &paper_rhos::QUADROCOPTER, 32);
    let ref_grat = gratification_sweep(base, &mdata, &speeds);
    let ref_raw = run_replications(cfg.seed, "det-check", 12, |rep, mut rng| {
        (rep, rng.next_u64(), rng.uniform())
    });

    for threads in THREAD_COUNTS {
        set_max_threads(threads);
        // Twice per thread count: same-seed reruns must also agree.
        for run in 0..2 {
            let label = format!("threads={threads} run={run}");

            let reps = measure_throughput_replicated(&cfg, MotionProfile::hover(50.0), 6);
            assert_eq!(reps, ref_reps, "campaign replications diverged at {label}");

            let dist = throughput_vs_distance(&cfg, &[30.0, 60.0, 90.0], 3);
            assert_eq!(dist, ref_dist, "distance campaign diverged at {label}");

            let batch = store_batch(&cfg);
            assert_eq!(batch, ref_batch, "store batch diverged at {label}");

            let rho = rho_sweep(base, &paper_rhos::QUADROCOPTER, 32);
            for (a, b) in rho.iter().zip(&ref_rho) {
                assert_eq!(a.rho_per_m.to_bits(), b.rho_per_m.to_bits(), "{label}");
                assert_eq!(a.curve.len(), b.curve.len(), "{label}");
                for ((da, ua), (db, ub)) in a.curve.iter().zip(&b.curve) {
                    assert_eq!(da.to_bits(), db.to_bits(), "rho curve d at {label}");
                    assert_eq!(ua.to_bits(), ub.to_bits(), "rho curve U at {label}");
                }
                assert_eq!(
                    a.optimum.d_opt.to_bits(),
                    b.optimum.d_opt.to_bits(),
                    "rho optimum at {label}"
                );
            }

            let grat = gratification_sweep(base, &mdata, &speeds);
            assert_eq!(grat.len(), ref_grat.len());
            for (ra, rb) in grat.iter().zip(&ref_grat) {
                for (pa, pb) in ra.iter().zip(rb) {
                    assert_eq!(
                        pa.optimum.d_opt.to_bits(),
                        pb.optimum.d_opt.to_bits(),
                        "gratification d_opt at {label}"
                    );
                    assert_eq!(
                        pa.optimum.utility.to_bits(),
                        pb.optimum.utility.to_bits(),
                        "gratification U at {label}"
                    );
                }
            }

            let raw = run_replications(cfg.seed, "det-check", 12, |rep, mut rng| {
                (rep, rng.next_u64(), rng.uniform())
            });
            assert_eq!(raw, ref_raw, "run_replications diverged at {label}");
        }
    }

    // Different seeds must still produce different worlds (the engine
    // must not be deterministic by virtue of ignoring the seed).
    set_max_threads(0);
    let other =
        measure_throughput_replicated(&campaign(0x00DE_7E13), MotionProfile::hover(50.0), 6);
    assert_ne!(other, ref_reps, "seed is being ignored");
}
