//! End-to-end checks on the compiled-policy artifact: build → write →
//! load round trip, typed rejection of corrupted and version-mismatched
//! files, and the `repro --verify-policy` audit against the exact
//! optimizer — the cross-crate counterpart of the unit tests in
//! `core::policy` and `bench::policy`.

// lint:allow(raw-endian-bytes): this test forges artifact bytes (version
// bump + recomputed checksum) to prove the decoder rejects them; the
// patching is the point, not a second codec.

use std::fs;
use std::path::PathBuf;

use skyferry_bench::policy::{compile_policy, verify_policy, INTERP_LOSS_BOUND};
use skyferry_core::policy::{Axis, PolicyError, PolicyGrid, PolicyTable};

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("skyferry-policy-roundtrip");
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn tiny_table() -> PolicyTable {
    let grid = PolicyGrid::new(
        Axis::from_range(20.0, 20.0, 120.0), // 6 buckets
        Axis::from_range(10.0, 10.0, 30.0),  // 3
        Axis::from_range(1e-4, 0.0, 2e-4),   // 3
        Axis::from_range(2.0, 2.0, 6.0),     // 3
    )
    .expect("valid grid");
    PolicyTable::build(grid, 0xF00D)
}

#[test]
fn file_round_trip_preserves_every_cell_bitwise() {
    let table = tiny_table();
    let path = temp_path("roundtrip.bin");
    fs::write(&path, table.to_bytes()).expect("write");
    let back = PolicyTable::load_file(&path).expect("load");
    assert_eq!(back, table);
    for cell in 0..table.len() {
        let a = table.value(cell);
        let b = back.value(cell);
        assert_eq!(a.d_opt.to_bits(), b.d_opt.to_bits(), "cell {cell}");
        assert_eq!(a.utility.to_bits(), b.utility.to_bits(), "cell {cell}");
    }
    fs::remove_file(&path).ok();
}

#[test]
fn corrupted_file_is_rejected_with_checksum_error() {
    let table = tiny_table();
    let path = temp_path("corrupt.bin");
    fs::write(&path, table.to_bytes()).expect("write");
    let mut bytes = fs::read(&path).expect("read back");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&path, &bytes).expect("rewrite");
    assert!(matches!(
        PolicyTable::load_file(&path),
        Err(PolicyError::ChecksumMismatch { .. })
    ));
    fs::remove_file(&path).ok();
}

#[test]
fn version_bump_is_rejected_even_with_a_fixed_checksum() {
    let table = tiny_table();
    let mut bytes = table.to_bytes();
    // Bump the version field and recompute an honest checksum over the
    // doctored body, so only the version gate can reject it.
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    let body_len = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body_len]);
    let tail = bytes.len() - 8;
    bytes[tail..].copy_from_slice(&checksum.to_le_bytes());
    assert!(matches!(
        PolicyTable::from_bytes(&bytes),
        Err(PolicyError::UnsupportedVersion { found: 2 })
    ));
}

/// Same FNV-1a-64 the codec uses (tiny enough to restate here; the
/// values must agree or `version_bump_is_rejected…` would see a
/// checksum error instead of the version gate).
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn quick_table_bytes_are_pinned() {
    // The table `repro --quick --compile-policy` writes: any changed
    // bit in any solved cell changes the trailing FNV-1a checksum.
    let table = PolicyTable::build(PolicyGrid::quick(), 0x5AFE5EED);
    let bytes = table.to_bytes();
    assert_eq!((table.len(), bytes.len()), (7_560, 302_536));
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let stored = u64::from_le_bytes(tail.try_into().expect("8-byte checksum"));
    assert_eq!(stored, fnv1a(body));
    assert_eq!(stored, 0x8ad4_3c42_d003_e03b, "checksum {stored:#018x}");
}

#[test]
fn compile_and_verify_agree_end_to_end() {
    let out = temp_path("quick.bin");
    let summary = compile_policy(&out, true, 0xC0FFEE).expect("compile");
    assert_eq!(summary.cells, PolicyGrid::quick().cells());
    let v = verify_policy(&out).expect("table must match the optimizer");
    assert_eq!(v.cells, summary.cells);
    assert!(v.sampled > 0);
    assert!(v.max_interp_loss <= INTERP_LOSS_BOUND);
    fs::remove_file(&out).ok();
    fs::remove_file(&summary.manifest_path).ok();
}

#[test]
fn bucket_edge_requests_resolve_to_quantizer_buckets() {
    let table = tiny_table();
    let grid = table.grid;
    let q = grid.quantizer();
    // A value exactly on a bucket boundary must land in the same bucket
    // the serving quantizer snaps it to, so table and cache agree.
    for d0 in [30.0, 50.0, 70.0, 110.0] {
        let mut p = grid.params_at(0);
        p.d0_m = d0;
        let snapped = q.snap(&p);
        let via_raw = table.lookup(&p).expect("in range");
        let via_snapped = table.lookup(&snapped).expect("in range");
        assert_eq!(
            via_raw.d_opt.to_bits(),
            via_snapped.d_opt.to_bits(),
            "edge d0 {d0}"
        );
    }
}

#[test]
fn interpolation_stays_within_the_loss_bound_on_a_seeded_sample() {
    let table = tiny_table();
    let grid = table.grid;
    let stream = skyferry_sim::rng::SeedStream::new(0xBEEF);
    let mut rng = stream.rng("roundtrip-interp");
    for _ in 0..64 {
        let cell = rng.index(grid.cells());
        let centre = grid.params_at(cell);
        let mut p = centre;
        p.d0_m = (centre.d0_m + rng.uniform_range(-0.45, 0.45) * grid.d0.step)
            .clamp(grid.d0.lo_value(), grid.d0.hi_value());
        let interp = table.interpolate(&p).expect("in range");
        let exact = p.solve();
        let loss = (exact.utility - interp.utility).abs() / exact.utility.max(f64::MIN_POSITIVE);
        assert!(
            loss <= INTERP_LOSS_BOUND,
            "cell {cell}: relative utility loss {loss:.4} over bound"
        );
    }
}
