//! 802.11 frame sizes.
//!
//! The link model charges airtime for the three frame kinds it
//! exchanges — QoS data MPDUs, A-MPDU subframe delimiters and
//! compressed block ACKs — by their on-air length. It never builds the
//! bytes, so this module keeps only the lengths, with each field's
//! width written out beside the constant that sums it.

/// Fixed per-MPDU overhead of a QoS data frame: the 26-byte header —
/// frame control (2), duration (2), addr1/addr2/addr3 (3 × 6), sequence
/// control (2), QoS control (2) — plus the 4-byte FCS after the payload.
pub const DATA_OVERHEAD_BYTES: usize = 30;

/// On-air size of a compressed block ACK: frame control (2), duration
/// (2), RA (6), TA (6), BA control (2), starting sequence control (2),
/// 64-bit bitmap (8), FCS (4).
pub const BLOCK_ACK_BYTES: usize = 32;

/// Size of an A-MPDU subframe delimiter: reserved bits plus the 12-bit
/// MPDU length (2), CRC-8 (1), signature 0x4E (1). The MPDU that
/// follows is padded to a 4-byte boundary.
pub const DELIMITER_BYTES: usize = 4;

/// Padding after an `len`-byte MPDU so the next delimiter is 4-aligned.
fn padding_for(len: usize) -> usize {
    (4 - len % 4) % 4
}

/// Total on-air size of an A-MPDU containing MPDUs of the given lengths.
pub fn ampdu_length(mpdu_lens: &[usize]) -> usize {
    mpdu_lens
        .iter()
        .map(|&l| DELIMITER_BYTES + l + padding_for(l))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_aligns_to_four() {
        assert_eq!(padding_for(0), 0);
        assert_eq!(padding_for(1), 3);
        assert_eq!(padding_for(4), 0);
        assert_eq!(padding_for(1471), 1);
    }

    #[test]
    fn ampdu_length_accounts_delimiters_and_padding() {
        // Two 1470-byte MPDUs: each 4 + 1470 + 2 padding = 1476.
        assert_eq!(ampdu_length(&[1470, 1470]), 2 * 1476);
        assert_eq!(ampdu_length(&[]), 0);
    }
}
