//! Fixture-based self-tests: every rule in the registry must fire on
//! its known-bad fixture with the exact `file:line` span, stay silent on
//! the known-good twin, and be suppressible via a justified
//! `lint:allow`.

use std::fs;
use std::path::Path;

use skyferry_lint::rules::{lint_files, lint_source, registry, Finding};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Lint a fixture as if it lived at `virtual_path` (which drives rule
/// scoping), returning `(rule, line)` pairs.
fn lint_at(virtual_path: &str, name: &str) -> Vec<(String, usize)> {
    let findings = lint_source(virtual_path, &fixture(name));
    for f in &findings {
        assert_eq!(f.file, virtual_path, "finding carries the linted path");
    }
    findings
        .into_iter()
        .map(|f| (f.rule.to_string(), f.line))
        .collect()
}

fn all(rule: &str, lines: &[usize]) -> Vec<(String, usize)> {
    lines.iter().map(|&l| (rule.to_string(), l)).collect()
}

/// [`all`] for several rules at once, in the engine's (line, rule)
/// order.
fn spans(parts: &[(&str, &[usize])]) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = parts
        .iter()
        .flat_map(|&(rule, lines)| all(rule, lines))
        .collect();
    out.sort_by(|a, b| (a.1, &a.0).cmp(&(b.1, &b.0)));
    out
}

/// Rule fixtures are linted as one-file workspaces, so a `pub` item in a
/// library-file fixture that nothing else in the fixture names is a
/// real `test-only-pub` finding: these are its lines.
fn orphans(lines: &[usize]) -> Vec<(String, usize)> {
    all("test-only-pub", lines)
}

const CORE: &str = "crates/core/src/fixture.rs";

#[test]
fn registry_has_at_least_ten_rules_with_unique_ids() {
    let rules = registry();
    assert!(rules.len() >= 10, "only {} rules", rules.len());
    let mut ids: Vec<_> = rules.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), registry().len(), "duplicate rule ids");
}

#[test]
fn wall_clock_fires_with_exact_spans() {
    assert_eq!(
        lint_at(CORE, "bad_wall_clock.rs"),
        all("wall-clock", &[1, 4, 5])
    );
    assert!(lint_at(CORE, "good_wall_clock.rs").is_empty());
}

#[test]
fn wall_clock_scope_excludes_bench_and_serve() {
    // The wall-clock rule is out of scope there (the serving layer
    // measures real request latency on purpose), but the raw reads now
    // belong to the stricter instant-now-outside-clock rule instead.
    for path in ["crates/bench/src/fixture.rs", "crates/serve/src/fixture.rs"] {
        let got = lint_at(path, "bad_wall_clock.rs");
        assert!(
            got.iter().all(|(id, _)| id != "wall-clock"),
            "wall-clock fired at {path}: {got:?}"
        );
        assert!(
            got.iter().all(|(id, _)| id == "instant-now-outside-clock"),
            "unexpected rules at {path}: {got:?}"
        );
    }
}

#[test]
fn instant_now_fires_in_realtime_crates_with_exact_spans() {
    for path in [
        "crates/bench/src/fixture.rs",
        "crates/serve/src/fixture.rs",
        "crates/trace/src/collector.rs",
    ] {
        assert_eq!(
            lint_at(path, "bad_instant_now.rs"),
            all("instant-now-outside-clock", &[1, 4, 5]),
            "at {path}"
        );
        assert!(lint_at(path, "good_instant_now.rs").is_empty(), "at {path}");
    }
}

#[test]
fn instant_now_scope_spares_clock_module_and_model_crates() {
    // The one sanctioned reader of the process clock …
    assert!(lint_at("crates/trace/src/clock.rs", "bad_instant_now.rs").is_empty());
    // … and simulation crates, where the broader wall-clock rule owns
    // the diagnostic instead.
    assert_eq!(
        lint_at(CORE, "bad_instant_now.rs"),
        all("wall-clock", &[1, 4, 5])
    );
}

#[test]
fn ambient_rng_fires_with_exact_spans() {
    // Line 2 hits both `thread_rng` and `rand::`; line 3 both
    // `from_entropy` and `rand::`; line 4 `OsRng`.
    assert_eq!(
        lint_at(CORE, "bad_ambient_rng.rs"),
        all("ambient-rng", &[2, 2, 3, 3, 4])
    );
    assert!(lint_at(CORE, "good_ambient_rng.rs").is_empty());
}

#[test]
fn hash_collection_fires_in_scope_only() {
    assert_eq!(
        lint_at(CORE, "bad_hash_collection.rs"),
        all("hash-collection", &[1, 3, 4])
    );
    assert!(lint_at(CORE, "good_hash_collection.rs").is_empty());
    // Out of scope: the geo crate has no result-producing sim paths.
    assert!(lint_at("crates/geo/src/fixture.rs", "bad_hash_collection.rs").is_empty());
}

#[test]
fn justified_lint_allow_suppresses() {
    assert!(lint_at(CORE, "allowed_hash_collection.rs").is_empty());
}

#[test]
fn unjustified_lint_allow_is_a_finding_and_does_not_suppress() {
    let got = lint_at(CORE, "bad_allow_missing_reason.rs");
    // The reason-less escape is flagged on its own line …
    assert!(got.contains(&("allow-no-reason".to_string(), 1)), "{got:?}");
    // … and the rule it tried to silence still fires.
    for line in [2, 4, 5] {
        assert!(got.contains(&("wall-clock".to_string(), line)), "{got:?}");
    }
}

#[test]
fn float_narrowing_fires_with_exact_spans() {
    assert_eq!(
        lint_at(CORE, "bad_float_narrowing.rs"),
        all("float-narrowing", &[2])
    );
    assert!(lint_at(CORE, "good_float_narrowing.rs").is_empty());
}

#[test]
fn unsafe_requires_safety_comment() {
    assert_eq!(
        lint_at(CORE, "bad_unsafe.rs"),
        all("unsafe-no-safety", &[2])
    );
    assert!(lint_at(CORE, "good_unsafe.rs").is_empty());
}

#[test]
fn undocumented_pub_fires_in_model_crates() {
    assert_eq!(
        lint_at("crates/phy/src/fixture.rs", "bad_undocumented_pub.rs"),
        spans(&[
            ("undocumented-pub", &[1, 6, 10]),
            ("test-only-pub", &[1, 6, 10])
        ])
    );
    assert_eq!(
        lint_at("crates/phy/src/fixture.rs", "good_undocumented_pub.rs"),
        orphans(&[2, 8, 13])
    );
    // Out of scope: the control crate is not part of the model API.
    assert_eq!(
        lint_at("crates/control/src/fixture.rs", "bad_undocumented_pub.rs"),
        orphans(&[1, 6, 10])
    );
}

#[test]
fn allow_without_justification_fires() {
    assert_eq!(lint_at(CORE, "bad_allow.rs"), all("allow-no-reason", &[1]));
    assert!(lint_at(CORE, "good_allow.rs").is_empty());
}

#[test]
fn debug_macros_fire_with_exact_spans() {
    assert_eq!(
        lint_at(CORE, "bad_debug_macros.rs"),
        all("debug-macros", &[2, 4, 6])
    );
    assert!(lint_at(CORE, "good_debug_macros.rs").is_empty());
}

#[test]
fn unwrap_in_lib_fires_outside_test_code() {
    assert_eq!(
        lint_at(CORE, "bad_unwrap_in_lib.rs"),
        all("unwrap-in-lib", &[2, 6])
    );
    // `unwrap_or_else` / `unwrap_or`, and anything after the trailing
    // `#[cfg(test)]` module, stay silent.
    assert!(lint_at(CORE, "good_unwrap_in_lib.rs").is_empty());
    // A justified escape suppresses the rule.
    assert!(lint_at(CORE, "allowed_unwrap_in_lib.rs").is_empty());
    // Integration-test trees are out of scope entirely.
    assert!(lint_at("crates/serve/tests/fixture.rs", "bad_unwrap_in_lib.rs").is_empty());
}

#[test]
fn env_read_fires_outside_bench() {
    assert_eq!(lint_at(CORE, "bad_env_read.rs"), all("env-read", &[2]));
    assert!(lint_at(CORE, "good_env_read.rs").is_empty());
    assert!(lint_at("crates/bench/src/fixture.rs", "bad_env_read.rs").is_empty());
}

#[test]
fn raw_endian_bytes_fires_with_exact_spans() {
    assert_eq!(
        lint_at(CORE, "bad_raw_endian.rs"),
        all("raw-endian-bytes", &[2, 6, 10])
    );
    assert!(lint_at(CORE, "good_raw_endian.rs").is_empty());
}

#[test]
fn raw_endian_bytes_spares_the_codec_and_the_vendored_bufs() {
    // The policy artifact codec is the sanctioned serialisation site …
    assert!(lint_at("crates/core/src/policy.rs", "bad_raw_endian.rs").is_empty());
    // … the vendored buffer crate predates the convention …
    assert!(lint_at("crates/bufs/src/lib.rs", "bad_raw_endian.rs").is_empty());
    // … and a justified file-scoped escape silences it anywhere.
    assert!(lint_at(CORE, "allowed_raw_endian.rs").is_empty());
}

const PHY: &str = "crates/phy/src/fixture.rs";
const SERVER: &str = "crates/serve/src/server.rs";
const ENGINE: &str = "crates/serve/src/engine.rs";

#[test]
fn unit_safety_fires_with_exact_spans() {
    // Line 2: bare-f64 `d_m` parameter; line 6: `*_s` fn returning f64.
    assert_eq!(
        lint_at(PHY, "bad_unit_safety.rs"),
        spans(&[("unit-safety", &[2, 6]), ("test-only-pub", &[2, 6])])
    );
    assert_eq!(lint_at(PHY, "good_unit_safety.rs"), orphans(&[2, 6, 10]));
    // A justified line escape suppresses it …
    assert_eq!(lint_at(PHY, "allowed_unit_safety.rs"), orphans(&[2]));
    // … and the rule is scoped to the model crates only.
    assert_eq!(
        lint_at("crates/serve/src/fixture.rs", "bad_unit_safety.rs"),
        orphans(&[2, 6])
    );
}

const FLEET: &str = "crates/fleet/src/fixture.rs";

#[test]
fn unit_safety_covers_fleet_trait_surfaces() {
    // Trait methods inherit the trait's visibility: a `pub trait`'s
    // bare-f64 unit-suffixed signatures are public API even though the
    // method syntax carries no `pub` of its own. Line 4 fires twice
    // (`gap_s` param and `guard_s` return); line 9 is a free fn.
    assert_eq!(
        lint_at(FLEET, "bad_unit_safety_trait.rs"),
        spans(&[("unit-safety", &[4, 4, 9]), ("test-only-pub", &[2, 9])])
    );
    // Newtyped signatures, compound `_per_` rates, and private traits
    // stay silent …
    assert_eq!(lint_at(FLEET, "good_unit_safety_trait.rs"), orphans(&[2]));
    // … and a justified line escape covers a sanctioned raw boundary.
    assert_eq!(
        lint_at(FLEET, "allowed_unit_safety_trait.rs"),
        orphans(&[2])
    );
    // The fleet crate sits in the rule's scope like the model crates.
    assert_eq!(
        lint_at(FLEET, "bad_unit_safety.rs"),
        spans(&[("unit-safety", &[2, 6]), ("test-only-pub", &[2, 6])])
    );
}

const TRAJ: &str = "crates/traj/src/fixture.rs";

#[test]
fn unit_safety_covers_the_traj_dp_tables() {
    // The trajectory crate's DP tables carry leg times and battery
    // spends; a bare-f64 unit-suffixed cell accessor is exactly the
    // newtype-that-never-happened the rule exists for. Line 2: bare
    // `travel_m` parameter; line 6: `*_j` fn returning f64.
    assert_eq!(
        lint_at(TRAJ, "bad_unit_safety_dp.rs"),
        spans(&[("unit-safety", &[2, 6]), ("test-only-pub", &[2, 6])])
    );
    // Newtyped cells and dimensionless bucket indices stay silent …
    assert_eq!(
        lint_at(TRAJ, "good_unit_safety_dp.rs"),
        orphans(&[2, 6, 10])
    );
    // … and the same table code is out of scope elsewhere.
    assert_eq!(
        lint_at("crates/serve/src/fixture.rs", "bad_unit_safety_dp.rs"),
        orphans(&[2, 6])
    );
}

#[test]
fn determinism_taint_fires_through_the_call_chain() {
    // `respond` feeds decision_response but reaches monotonic_ns via
    // `now`; flagged at the first hop inside the emitter.
    assert_eq!(
        lint_at(ENGINE, "bad_determinism_taint.rs"),
        spans(&[("determinism-taint", &[6]), ("test-only-pub", &[5])])
    );
    // The --deterministic gate absorbs the taint …
    assert_eq!(lint_at(ENGINE, "good_determinism_taint.rs"), orphans(&[5]));
    // … and a justified line escape suppresses the finding.
    assert_eq!(
        lint_at(ENGINE, "allowed_determinism_taint.rs"),
        orphans(&[5])
    );
}

#[test]
fn blocking_in_reader_fires_on_reachable_fns() {
    // `handle` is reachable from the read_line root: sleep on line 6,
    // file I/O on line 7.
    assert_eq!(
        lint_at(SERVER, "bad_blocking_in_reader.rs"),
        spans(&[("blocking-in-reader", &[6, 7]), ("test-only-pub", &[1])])
    );
    assert_eq!(lint_at(SERVER, "good_blocking_in_reader.rs"), orphans(&[1]));
    assert_eq!(
        lint_at(SERVER, "allowed_blocking_in_reader.rs"),
        orphans(&[1])
    );
    // Roots live in the request-path files only; the same code
    // elsewhere is silent.
    assert_eq!(
        lint_at("crates/serve/src/loadgen.rs", "bad_blocking_in_reader.rs"),
        orphans(&[1])
    );
}

#[test]
fn blocking_in_reader_roots_on_shard_event_loops() {
    // `handle_event` is reachable from the `poller.wait` root: sleep on
    // line 6, file I/O on line 7, a cross-shard lock on line 8.
    const SHARD: &str = "crates/serve/src/shard.rs";
    assert_eq!(
        lint_at(SHARD, "bad_shard_event_loop.rs"),
        spans(&[("blocking-in-reader", &[6, 7, 8]), ("test-only-pub", &[1])])
    );
    // A shard's own mailbox lock and a cross-shard `send` are the
    // sanctioned channel.
    assert_eq!(lint_at(SHARD, "good_shard_event_loop.rs"), orphans(&[1]));
    // Event-loop roots are recognized only in shard.rs.
    assert_eq!(
        lint_at("crates/serve/src/loadgen.rs", "bad_shard_event_loop.rs"),
        orphans(&[1])
    );
}

#[test]
fn stale_allow_fires_and_is_line_escapable() {
    assert_eq!(
        lint_at(CORE, "bad_stale_allow.rs"),
        all("stale-allow", &[1])
    );
    // A deliberately-kept escape pins itself with allow-line(stale-allow).
    assert!(lint_at(CORE, "allowed_stale_allow.rs").is_empty());
    // A *used* escape is not stale (fixture already exercised above).
    assert!(lint_at(CORE, "allowed_hash_collection.rs").is_empty());
}

#[test]
fn test_only_pub_fires_with_exact_spans() {
    // Line 4 is named only below `#[cfg(test)]`; line 10 only in a doc
    // comment, a string and two re-exports (one-line and multi-line).
    assert_eq!(lint_at(CORE, "bad_test_only_pub.rs"), orphans(&[4, 10]));
    // Every pub item has a live caller; `pub(crate)` is out of scope.
    assert!(lint_at(CORE, "good_test_only_pub.rs").is_empty());
    // An escape naming the test that needs the item suppresses it.
    assert!(lint_at(CORE, "allowed_test_only_pub.rs").is_empty());
    // Binaries and test trees are not library files.
    assert!(lint_at("crates/core/src/bin/fixture.rs", "bad_test_only_pub.rs").is_empty());
    assert!(lint_at("tests/fixture.rs", "bad_test_only_pub.rs").is_empty());
}

#[test]
fn file_level_allow_cannot_blanket_semantic_rules() {
    let got = lint_at(PHY, "bad_file_allow_semantic.rs");
    // The blanket escape is itself flagged …
    assert!(got.contains(&("stale-allow".to_string(), 1)), "{got:?}");
    // … and the rule it tried to blanket still fires.
    assert!(got.contains(&("unit-safety".to_string(), 3)), "{got:?}");
}

#[test]
fn exhaustive_proto_errors_links_construction_and_checker() {
    let bad = vec![
        (
            "crates/serve/src/proto.rs".to_string(),
            fixture("proto_errors_kind.rs"),
        ),
        (SERVER.to_string(), fixture("proto_errors_server_bad.rs")),
        (
            "crates/serve/src/loadgen.rs".to_string(),
            fixture("proto_errors_loadgen_bad.rs"),
        ),
    ];
    let got: Vec<(String, String, usize)> = lint_files(&bad)
        .into_iter()
        .filter(|f| f.rule == "exhaustive-proto-errors")
        .map(|f| (f.file, f.message, f.line))
        .collect();
    // `Overloaded` (declared on line 4) is neither constructed by the
    // server nor matched by loadgen's checker.
    assert_eq!(got.len(), 2, "{got:?}");
    assert!(got
        .iter()
        .all(|(p, _, l)| p == "crates/serve/src/proto.rs" && *l == 4));
    assert!(got.iter().any(|(_, m, _)| m.contains("never constructed")));
    assert!(got.iter().any(|(_, m, _)| m.contains("never matched")));

    let good = vec![
        (
            "crates/serve/src/proto.rs".to_string(),
            fixture("proto_errors_kind.rs"),
        ),
        (SERVER.to_string(), fixture("proto_errors_server_good.rs")),
        (
            "crates/serve/src/loadgen.rs".to_string(),
            fixture("proto_errors_loadgen_good.rs"),
        ),
    ];
    assert!(
        lint_files(&good)
            .iter()
            .all(|f| f.rule != "exhaustive-proto-errors"),
        "good proto triple should be clean"
    );
}

#[test]
fn every_rule_has_a_firing_bad_fixture() {
    // The pairing that proves each registry entry is live.
    let cases: Vec<(&str, &str, &str)> = vec![
        ("wall-clock", CORE, "bad_wall_clock.rs"),
        ("ambient-rng", CORE, "bad_ambient_rng.rs"),
        ("hash-collection", CORE, "bad_hash_collection.rs"),
        ("float-narrowing", CORE, "bad_float_narrowing.rs"),
        ("unsafe-no-safety", CORE, "bad_unsafe.rs"),
        (
            "undocumented-pub",
            "crates/phy/src/fixture.rs",
            "bad_undocumented_pub.rs",
        ),
        ("unwrap-in-lib", CORE, "bad_unwrap_in_lib.rs"),
        ("allow-no-reason", CORE, "bad_allow.rs"),
        ("debug-macros", CORE, "bad_debug_macros.rs"),
        ("env-read", CORE, "bad_env_read.rs"),
        (
            "instant-now-outside-clock",
            "crates/serve/src/fixture.rs",
            "bad_instant_now.rs",
        ),
        ("raw-endian-bytes", CORE, "bad_raw_endian.rs"),
        ("unit-safety", PHY, "bad_unit_safety.rs"),
        ("determinism-taint", ENGINE, "bad_determinism_taint.rs"),
        ("blocking-in-reader", SERVER, "bad_blocking_in_reader.rs"),
        // With only proto.rs in the file set, every variant is
        // unconstructed — the rule fires.
        (
            "exhaustive-proto-errors",
            "crates/serve/src/proto.rs",
            "proto_errors_kind.rs",
        ),
        ("test-only-pub", CORE, "bad_test_only_pub.rs"),
        ("stale-allow", CORE, "bad_stale_allow.rs"),
    ];
    for rule in registry() {
        let (_, path, file) = cases
            .iter()
            .find(|(id, _, _)| *id == rule.id)
            .unwrap_or_else(|| panic!("rule {} has no fixture case", rule.id));
        let got = lint_at(path, file);
        assert!(
            got.iter().any(|(id, _)| id == rule.id),
            "rule {} did not fire on {file}: {got:?}",
            rule.id
        );
    }
}

#[test]
fn json_report_round_trips_fields() {
    let findings: Vec<Finding> = lint_source(CORE, &fixture("bad_float_narrowing.rs"));
    let json = skyferry_lint::report::render_json(&findings);
    assert!(json.contains("\"rule\": \"float-narrowing\""));
    assert!(json.contains("\"file\": \"crates/core/src/fixture.rs\""));
    assert!(json.contains("\"line\": 2"));
    assert!(json.contains("\"count\": 1"));
}
