//! The reproduction harness, driven end to end in quick mode: every
//! experiment id must run, render non-trivially, and carry its findings.

use skyferry_bench::experiments::{self, ExperimentError, REGISTRY};
use skyferry_bench::report::ReproConfig;
use skyferry_bench::store::CampaignStore;

#[test]
fn every_experiment_runs_and_renders() {
    let cfg = ReproConfig::quick();
    let mut store = CampaignStore::new(cfg.quick);
    for e in REGISTRY {
        let id = e.id();
        let report = e.run(&cfg, &mut store);
        assert_eq!(report.id, id);
        assert!(!report.tables.is_empty(), "{id} produced no tables");
        let text = report.render();
        assert!(text.contains(id), "{id} render lacks its id");
        assert!(text.len() > 200, "{id} render suspiciously short");
        for (name, table) in &report.tables {
            assert!(!table.rows().is_empty(), "{id}/{name} is empty");
        }
    }
    assert!(
        store.hits() > 0,
        "a full registry pass must reuse shared campaign cells"
    );
}

#[test]
fn unknown_experiment_is_rejected() {
    let cfg = ReproConfig::quick();
    let err = experiments::run("fig99", &cfg, &mut CampaignStore::new(cfg.quick)).unwrap_err();
    assert_eq!(err, ExperimentError::UnknownId("fig99".into()));
}

#[test]
fn csv_export_writes_every_table() {
    let dir = std::env::temp_dir().join(format!("skyferry-harness-{}", std::process::id()));
    let cfg = ReproConfig {
        quick: true,
        out_dir: Some(dir.clone()),
        ..ReproConfig::default()
    };
    // One light analytic experiment is enough to exercise the IO path.
    let report =
        experiments::run("fig9", &cfg, &mut CampaignStore::new(cfg.quick)).expect("fig9 exists");
    report.write_csv(&cfg).expect("CSV export");
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("out dir created")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(
        written.len(),
        report.tables.len(),
        "one CSV per table: {written:?}"
    );
    assert!(written
        .iter()
        .all(|f| f.starts_with("fig9_") && f.ends_with(".csv")));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn same_seed_same_report() {
    let cfg = ReproConfig::quick();
    let a = experiments::run("fig5", &cfg, &mut CampaignStore::new(cfg.quick)).expect("fig5");
    let b = experiments::run("fig5", &cfg, &mut CampaignStore::new(cfg.quick)).expect("fig5");
    assert_eq!(a.render(), b.render(), "campaigns must be deterministic");
}

#[test]
fn memoized_rerun_is_bit_identical_to_fresh() {
    // The same store serving fig5 twice must render the exact same
    // report the second time, entirely from cell hits.
    let cfg = ReproConfig::quick();
    let mut store = CampaignStore::new(cfg.quick);
    let a = experiments::run("fig5", &cfg, &mut store).expect("fig5");
    let misses = store.misses();
    let b = experiments::run("fig5", &cfg, &mut store).expect("fig5");
    assert_eq!(a.render(), b.render());
    assert_eq!(store.misses(), misses, "second pass must be all hits");
}

#[test]
fn different_seed_different_campaign() {
    let quick = ReproConfig::quick();
    let a = experiments::run("fig5", &quick, &mut CampaignStore::new(true)).expect("fig5");
    let mut cfg = ReproConfig::quick();
    cfg.seed ^= 0xDEAD_BEEF;
    let b = experiments::run("fig5", &cfg, &mut CampaignStore::new(true)).expect("fig5");
    assert_ne!(a.render(), b.render());
}
