//! Randomised tests of the workspace's wire sizes: A-MPDU length
//! alignment.
//!
//! The generators run on a fixed-seed [`DetRng`] loop (the workspace
//! builds offline, so no proptest): every case is reproducible from the
//! constant seed and the iteration count matches the old proptest
//! configuration.

use skyferry::mac::frame::{ampdu_length, DELIMITER_BYTES};
use skyferry::sim::rng::DetRng;

const CASES: usize = 256;

fn rng(salt: u64) -> DetRng {
    DetRng::seed(0xC0DEC ^ salt)
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
