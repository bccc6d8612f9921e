//! Campaign cells that read one seeded fading stream compute its
//! normals once between them: the store fills its cells replication by
//! replication, and every fading process of one replication reads the
//! same shared tape. A slowdown that keeps every bit — a pool that goes
//! back to cell-major order, or a tape key that stops matching — shows
//! here as a count, not as a timing.
//!
//! ONE test function: the normal totals are process-wide, so a
//! concurrent test function would count into them.

use skyferry::sim::parallel::set_max_threads;
use skyferry::sim::rng::NormalWork;
use skyferry_bench::experiments::{fig5, fig6};
use skyferry_bench::report::ReproConfig;
use skyferry_bench::store::CampaignStore;

#[test]
fn quick_fig5_and_fig6_compute_at_most_a_tenth_of_the_normals_they_read() {
    // One worker runs the tasks one after another: cells share a tape
    // only through the thread's last one, so the pool order decides.
    set_max_threads(1);
    let cfg = ReproConfig::quick();
    let mut store = CampaignStore::new(cfg.quick);
    let before = NormalWork::totals();
    fig5::simulate(&cfg, &mut store);
    fig6::simulate(&cfg, &mut store);
    let work = NormalWork::totals().since(before);
    set_max_threads(0);
    assert!(
        work.read > 1_000_000,
        "quick fig5 + fig6 read too little: {work:?}"
    );
    assert!(
        work.computed * 10 <= work.read,
        "cells of one replication stopped sharing its normals: {work:?}"
    );
}
