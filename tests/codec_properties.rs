//! Randomised tests of the workspace's wire sizes and its one wire
//! codec: A-MPDU length alignment, and the round trip and rejection of
//! the XBee telemetry record.
//!
//! The generators run on a fixed-seed [`DetRng`] loop (the workspace
//! builds offline, so no proptest): every case is reproducible from the
//! constant seed and the iteration count matches the old proptest
//! configuration.

use bytes::Bytes;
use skyferry::control::message::{Telemetry, UavId};
use skyferry::geo::vector::Vec3;
use skyferry::mac::frame::{ampdu_length, DELIMITER_BYTES};
use skyferry::sim::rng::DetRng;

const CASES: usize = 256;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0xC0DEC ^ salt)
}

fn arb_vec3(rng: &mut DetRng) -> Vec3 {
    Vec3::new(
        rng.uniform_range(-2000.0, 2000.0),
        rng.uniform_range(-2000.0, 2000.0),
        rng.uniform_range(0.0, 300.0),
    )
}

fn arb_bytes(rng: &mut DetRng, min: usize, max: usize) -> Vec<u8> {
    let len = min + rng.index(max - min);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

#[test]
fn ampdu_length_is_four_byte_aligned() {
    let mut rng = rng(4);
    for _ in 0..CASES {
        let lens = [rng.index(4096), rng.index(4096)];
        let total = ampdu_length(&lens);
        // Aggregated length is always 4-byte aligned, and each subframe
        // pays its delimiter plus at most 3 bytes of padding.
        assert_eq!(total % 4, 0);
        let bare = lens.iter().sum::<usize>() + lens.len() * DELIMITER_BYTES;
        assert!((bare..bare + 3 * lens.len() + 1).contains(&total));
    }
}

#[test]
fn telemetry_roundtrip() {
    let mut rng = rng(5);
    for _ in 0..CASES {
        let t = Telemetry {
            uav: UavId(rng.next_u64() as u16),
            position: arb_vec3(&mut rng),
            speed_mps: rng.uniform_range(0.0, 30.0),
            battery_fraction: rng.uniform(),
            data_ready_bytes: rng.next_u64(),
        };
        let back = Telemetry::decode(t.encode()).unwrap();
        assert_eq!(back.uav, t.uav);
        // f32 on the wire: positions round-trip to ~mm at mission scale.
        assert!(back.position.distance(t.position) < 0.01);
        assert!((back.speed_mps - t.speed_mps).abs() < 1e-3);
        assert!((back.battery_fraction - t.battery_fraction).abs() < 1e-3);
        assert_eq!(back.data_ready_bytes, t.data_ready_bytes);
    }
}

#[test]
fn random_noise_never_decodes_as_telemetry() {
    let mut rng = rng(7);
    for _ in 0..CASES {
        let noise = arb_bytes(&mut rng, 0, 64);
        // Either wrong length or failed checksum/kind — random bytes must
        // virtually never parse. (The 8-bit checksum admits 1/256 false
        // positives on correctly-sized buffers with the right kind byte;
        // filter that corner explicitly.)
        if noise.len() == 32 && noise[0] == 0x01 {
            continue;
        }
        assert!(Telemetry::decode(Bytes::from(noise)).is_err());
    }
}
