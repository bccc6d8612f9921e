//! The simulated-work totals of `repro`'s footer are counts of what was
//! simulated, not of how: a quick run reports the same TXOPs, subframes
//! and fading resamples at one worker and at two, and those figures are
//! pinned.
//!
//! Everything lives in ONE test function: the worker cap and the link
//! work totals are both process-wide, so a concurrent test function
//! would race on the first and count into the second.

use skyferry::mac::link::LinkWork;
use skyferry::sim::parallel::set_max_threads;
use skyferry_bench::experiments::REGISTRY;
use skyferry_bench::report::ReproConfig;
use skyferry_bench::store::CampaignStore;

fn quick_run_work(threads: usize) -> LinkWork {
    set_max_threads(threads);
    let cfg = ReproConfig::quick();
    let mut store = CampaignStore::new(cfg.quick);
    for e in REGISTRY {
        e.run(&cfg, &mut store);
    }
    store.simulated()
}

#[test]
fn quick_run_work_is_pinned_and_thread_count_free() {
    let one = quick_run_work(1);
    let two = quick_run_work(2);
    set_max_threads(0);
    assert_eq!(one, two, "work totals depend on the worker count");
    assert_eq!(
        (one.txops, one.subframes, one.resamples),
        (618_677, 7_166_387, 1_556_831),
        "a quick run simulated different work: {one:?}"
    );
    // Each subframe and each non-idle TXOP's block ACK takes exactly one
    // PER, computed or remembered; idle polls take none.
    let pers = one.per_evals + one.per_memo_hits;
    assert!(
        (one.subframes..=one.subframes + one.txops).contains(&pers),
        "PER look-ups are not one per frame: {one:?}"
    );
}
