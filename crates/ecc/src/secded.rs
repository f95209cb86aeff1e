//! (72,64) SECDED — single-error-correction, double-error-detection.
//!
//! This is the extended Hamming code used by conventional 9-chip x8
//! ECC-DIMMs: each 64-bit data word carries 8 check bits in the ECC chip
//! (12.5% overhead, the same overhead SYNERGY re-purposes for the MAC).
//!
//! Encoding places data and check bits in the classic Hamming positions
//! (check bits at powers of two, plus an overall parity bit at position 0).
//! Decoding computes the syndrome and overall parity:
//!
//! | syndrome | parity | meaning |
//! |---|---|---|
//! | 0 | even | clean |
//! | s ≠ 0 | odd | single-bit error at position `s` — corrected |
//! | 0 | odd | error in the overall parity bit — corrected |
//! | s ≠ 0 | even | double-bit error — detected, uncorrectable |
//!
//! The line codecs never build the 72-bit codeword: they compute on the
//! stored (data word, check byte) pair. The code is linear, so a word's
//! check byte is the XOR of its eight bytes' check bytes, read from a
//! constant table; a syndrome maps to its data bit through another. Only
//! the bit-serial test oracle materializes the 72-bit codeword.

use crate::DecodeOutcome;

/// Total codeword length including the overall parity bit at position 0.
const CODEWORD_BITS: usize = 72;

/// The codeword position (1..72) of each data bit: the positions that are not
/// powers of two, in increasing order.
const DATA_POSITIONS: [usize; 64] = {
    let mut positions = [0; 64];
    let (mut pos, mut d) = (1, 0);
    while pos < CODEWORD_BITS {
        if !pos.is_power_of_two() {
            positions[d] = pos;
            d += 1;
        }
        pos += 1;
    }
    positions
};

/// `SYNDROME_FLIPS[s]`: the data-word bit that a single-bit error at
/// codeword position `s` flipped, or 0 when `s` is a check position or
/// lies past the codeword (a 7-bit syndrome reaches 127, the codeword
/// ends at 71).
const SYNDROME_FLIPS: [u64; 128] = {
    let mut flips = [0; 128];
    let mut d = 0;
    while d < 64 {
        flips[DATA_POSITIONS[d]] = 1 << d;
        d += 1;
    }
    flips
};

/// Parity of `x`: 1 when an odd number of its bits are set. An XOR fold,
/// because the default x86-64 target has no `popcnt` instruction.
#[inline]
const fn parity(x: u64) -> u8 {
    let mut x = x ^ (x >> 32);
    x ^= x >> 16;
    x ^= x >> 8;
    x ^= x >> 4;
    x ^= x >> 2;
    x ^= x >> 1;
    (x & 1) as u8
}

/// `CHECK_TABLE[k][b]`: the check byte of the data word whose only set
/// bits are byte `b` at byte `k`. Bits 1..8 are the seven Hamming check
/// bits: the XOR of the codeword positions of the set data bits. Bit 0
/// is the overall parity of those data bits and check bits. Every part is
/// an XOR, so [`check_byte`] of a word is the XOR of its bytes' entries.
const CHECK_TABLE: [[u8; 256]; 8] = {
    let mut table = [[0; 256]; 8];
    let mut k = 0;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let mut hamming = 0;
            let mut j = 0;
            while j < 8 {
                if (b >> j) & 1 == 1 {
                    hamming ^= DATA_POSITIONS[8 * k + j];
                }
                j += 1;
            }
            table[k][b] = ((hamming as u8) << 1) | (parity(b as u64) ^ parity(hamming as u64));
            b += 1;
        }
        k += 1;
    }
    table
};

/// The stored check byte of `data`: bits 1..8 are the Hamming check bits
/// of codeword positions 1, 2, 4, …, 64, and bit 0 is the overall parity
/// (codeword position 0) that makes the whole codeword even-weight.
#[inline]
fn check_byte(data: u64) -> u8 {
    let mut check = 0;
    for (row, byte) in CHECK_TABLE.iter().zip(data.to_le_bytes()) {
        check ^= row[usize::from(byte)];
    }
    check
}

/// Decodes one stored (data word, check byte) pair: the corrected data
/// word (or `None` for a detected uncorrectable error) and the
/// [`DecodeOutcome`].
///
/// **Phantom-bit corrections.** With odd overall parity, a nonzero
/// syndrome that names a check position, or a position past bit 71
/// (the 7-bit syndrome reaches 127), flips no data bit: the data comes
/// back unchanged and the outcome is [`DecodeOutcome::Corrected`]. An
/// odd-weight multi-bit error confined to the check byte can land here
/// — the check-chip aliasing note in EXPERIMENTS.md, which the
/// campaign's even-weight check-byte guard relies on.
#[inline]
fn decode_word(data: u64, check: u8) -> (Option<u64>, DecodeOutcome) {
    // The code is linear: the stored check byte XOR the one recomputed
    // from the stored data is the check byte of the error. Its Hamming
    // bits are the syndrome (the XOR of the positions of all flipped
    // bits), and its parity is the parity of the whole stored codeword.
    let diff = check_byte(data) ^ check;
    let syndrome = usize::from(diff >> 1);
    let parity_odd = parity(u64::from(diff)) == 1;
    match (syndrome, parity_odd) {
        (0, false) => (Some(data), DecodeOutcome::Clean),
        // Syndrome 0 means the overall parity bit itself flipped; a check
        // position or one past the codeword flips no data bit.
        (s, true) => (Some(data ^ SYNDROME_FLIPS[s]), DecodeOutcome::Corrected),
        (_, false) => (None, DecodeOutcome::DetectedUncorrectable),
    }
}

/// Encodes all eight 64-bit words of a 64-byte cacheline, producing the
/// 8 check bytes stored in the ECC chip.
pub fn encode_line(words: &[u64; 8]) -> [u8; 8] {
    words.map(check_byte)
}

/// Decodes a full cacheline of eight words against its 8 check bytes.
///
/// Returns the corrected words and the worst outcome across the line
/// (a line is only usable if every word decodes). Each word decodes on
/// its own, phantom-bit corrections included (see `decode_word`).
pub fn decode_line(words: &[u64; 8], check: &[u8; 8]) -> (Option<[u64; 8]>, DecodeOutcome) {
    let mut out = [0u64; 8];
    let mut worst = DecodeOutcome::Clean;
    for i in 0..8 {
        let (decoded, outcome) = decode_word(words[i], check[i]);
        match decoded {
            Some(w) => out[i] = w,
            None => return (None, DecodeOutcome::DetectedUncorrectable),
        }
        if outcome == DecodeOutcome::Corrected {
            worst = DecodeOutcome::Corrected;
        }
    }
    (Some(out), worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-serial textbook code: scatter the word into Hamming
    /// positions, sum positions for the syndrome, flip the named bit of the
    /// 128-bit register. The oracle for the mask-and-table code.
    mod oracle {
        use super::super::CODEWORD_BITS;
        use crate::DecodeOutcome;

        /// The 72-bit codeword of a stored pair: the overall parity at
        /// position 0, check bit `i` at position `2^i`, the data bits at the
        /// other positions in order.
        pub fn codeword(data: u64, check: u8) -> u128 {
            let mut bits = u128::from(check & 1);
            for i in 0..7 {
                bits |= u128::from((check >> (i + 1)) & 1) << (1usize << i);
            }
            let mut d = 0;
            for pos in 1..CODEWORD_BITS {
                if !pos.is_power_of_two() {
                    bits |= u128::from((data >> d) & 1) << pos;
                    d += 1;
                }
            }
            bits
        }

        /// The stored pair of a codeword; the inverse of [`codeword`].
        pub fn split(bits: u128) -> (u64, u8) {
            let mut check = (bits & 1) as u8;
            for i in 0..7 {
                check |= (((bits >> (1usize << i)) & 1) as u8) << (i + 1);
            }
            let (mut data, mut d) = (0u64, 0);
            for pos in 1..CODEWORD_BITS {
                if !pos.is_power_of_two() {
                    data |= (((bits >> pos) & 1) as u64) << d;
                    d += 1;
                }
            }
            (data, check)
        }

        pub fn encode(data: u64) -> u8 {
            let mut bits = codeword(data, 0);
            for i in 0..7 {
                let mask = 1usize << i;
                let mut parity = 0u32;
                for pos in 1..CODEWORD_BITS {
                    if pos & mask != 0 && !pos.is_power_of_two() && (bits >> pos) & 1 == 1 {
                        parity ^= 1;
                    }
                }
                if parity == 1 {
                    bits |= 1 << mask;
                }
            }
            if bits.count_ones() & 1 == 1 {
                bits |= 1;
            }
            split(bits).1
        }

        pub fn decode(data: u64, check: u8) -> (Option<u64>, DecodeOutcome) {
            let bits = codeword(data, check);
            let mut syndrome = 0usize;
            for pos in 1..CODEWORD_BITS {
                if (bits >> pos) & 1 == 1 {
                    syndrome ^= pos;
                }
            }
            match (syndrome, bits.count_ones() & 1 == 1) {
                (0, false) => (Some(split(bits).0), DecodeOutcome::Clean),
                (0, true) => (Some(split(bits).0), DecodeOutcome::Corrected),
                (s, true) => (Some(split(bits ^ (1 << s)).0), DecodeOutcome::Corrected),
                (_, false) => (None, DecodeOutcome::DetectedUncorrectable),
            }
        }

        pub fn decode_line(words: &[u64; 8], check: &[u8; 8]) -> (Option<[u64; 8]>, DecodeOutcome) {
            let mut out = [0u64; 8];
            let mut worst = DecodeOutcome::Clean;
            for i in 0..8 {
                match decode(words[i], check[i]) {
                    (Some(w), outcome) => {
                        out[i] = w;
                        if outcome == DecodeOutcome::Corrected {
                            worst = outcome;
                        }
                    }
                    (None, _) => return (None, DecodeOutcome::DetectedUncorrectable),
                }
            }
            (Some(out), worst)
        }
    }

    /// Decodes the stored pair of a 72-bit codeword.
    fn decode_codeword(bits: u128) -> (Option<u64>, DecodeOutcome) {
        let (data, check) = oracle::split(bits);
        decode_word(data, check)
    }

    #[test]
    fn corrects_every_single_bit_error() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF, 1 << 63, 0xA5A5_5A5A_DEAD_BEEF] {
            let check = check_byte(data);
            let cw = oracle::codeword(data, check);
            assert_eq!(oracle::split(cw), (data, check));
            assert_eq!(decode_codeword(cw), (Some(data), DecodeOutcome::Clean));
            for pos in 0..72 {
                let decoded = decode_codeword(cw ^ (1 << pos));
                assert_eq!(decoded, (Some(data), DecodeOutcome::Corrected), "position {pos}");
            }
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        let data = 0x0F0F_F0F0_1234_5678;
        let cw = oracle::codeword(data, check_byte(data));
        for a in 0..72 {
            for b in (a + 1)..72 {
                let decoded = decode_codeword(cw ^ (1 << a) ^ (1 << b));
                assert_eq!(
                    decoded,
                    (None, DecodeOutcome::DetectedUncorrectable),
                    "positions {a},{b} miscorrected"
                );
            }
        }
    }

    #[test]
    fn chip_failure_exceeds_secded() {
        // An entire x8 chip supplies 8 adjacent data bits of each word; its
        // failure flips up to 8 bits — far beyond SECDED. Flip four bits of
        // the word (part of one chip's slice). Positions are chosen so the
        // syndrome XOR (10^11^12^14 = 3) is nonzero — with a *different*
        // unlucky set (e.g. 10,11,12,13) the syndromes cancel and the error
        // is silent, which is precisely why SECDED is inadequate against
        // chip failures (§II-B of the paper).
        let data = 0xFFFF_0000_FFFF_0000u64;
        let cw = oracle::codeword(data, check_byte(data));
        let flip = |positions: [usize; 4]| positions.iter().fold(cw, |bits, &p| bits ^ (1 << p));
        let decoded = decode_codeword(flip([10, 11, 12, 14]));
        assert_eq!(decoded, (None, DecodeOutcome::DetectedUncorrectable));

        // And demonstrate the silent-aliasing case explicitly:
        let (decoded, outcome) = decode_codeword(flip([10, 11, 12, 13]));
        assert_eq!(outcome, DecodeOutcome::Clean, "4-bit chip error aliases");
        assert_ne!(decoded, Some(data), "…and silently corrupts data");
    }

    #[test]
    fn line_encode_decode_clean() {
        let words = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let check = encode_line(&words);
        let (decoded, outcome) = decode_line(&words, &check);
        assert_eq!(decoded, Some(words));
        assert_eq!(outcome, DecodeOutcome::Clean);
    }

    #[test]
    fn line_corrects_one_bit_per_word() {
        let words = [0xAAAA_AAAA_AAAA_AAAAu64; 8];
        let check = encode_line(&words);
        let mut corrupted = words;
        // One single-bit error in every word — a "single column" DRAM fault:
        // SECDED corrects each word independently.
        for w in corrupted.iter_mut() {
            *w ^= 1 << 13;
        }
        let (decoded, outcome) = decode_line(&corrupted, &check);
        assert_eq!(decoded, Some(words));
        assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    #[test]
    fn line_detects_word_fault() {
        let words = [7u64; 8];
        let check = encode_line(&words);
        let mut corrupted = words;
        corrupted[3] ^= 0b11 << 20; // two bits in one word
        let (decoded, outcome) = decode_line(&corrupted, &check);
        assert_eq!(decoded, None);
        assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable);
    }

    #[test]
    fn every_check_byte_decodes_like_the_oracle() {
        for data in [0u64, u64::MAX, 0xA5A5_5A5A_DEAD_BEEF, 1 << 63, 0x0123_4567_89AB_CDEF] {
            assert_eq!(encode_line(&[data; 8])[0], oracle::encode(data));
            for check in 0..=255u8 {
                let expected = oracle::decode(data, check);
                assert_eq!(decode_word(data, check), expected, "{data:#x} {check:#04x}");
            }
        }
    }

    /// An odd-weight error confined to the check byte whose syndrome names
    /// a check position or a position past bit 71 "corrects" a phantom bit:
    /// the data reads back unchanged as `Corrected` (EXPERIMENTS.md,
    /// check-chip aliasing). One naming a data position miscorrects that
    /// data bit instead, and any even-weight check-byte error is a DUE —
    /// which is why the campaign's sampler keeps check-byte errors even.
    #[test]
    fn odd_weight_check_byte_errors_correct_a_phantom_bit() {
        let data = 0x0F1E_2D3C_4B5A_6978u64;
        let check = encode_line(&[data; 8])[0];
        let (mut phantom_multi_bit, mut past_end) = (0, 0);
        for error in 1..=255u8 {
            let syndrome = usize::from(error >> 1);
            let (decoded, outcome) = decode_word(data, check ^ error);
            if error.count_ones() % 2 == 0 {
                assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable, "error {error:#04x}");
                continue;
            }
            assert_eq!(outcome, DecodeOutcome::Corrected, "error {error:#04x}");
            if syndrome == 0 || syndrome.is_power_of_two() || syndrome >= CODEWORD_BITS {
                assert_eq!(decoded, Some(data), "error {error:#04x}");
                phantom_multi_bit += usize::from(error.count_ones() > 1);
                past_end += usize::from(syndrome >= CODEWORD_BITS);
            } else {
                assert_eq!(decoded, Some(data ^ SYNDROME_FLIPS[syndrome]), "error {error:#04x}");
            }
        }
        assert!(phantom_multi_bit > 0 && past_end > 0);
    }

    #[test]
    fn zero_word_has_a_zero_check_byte() {
        // Memories rely on this to start from all-zero storage.
        assert_eq!(check_byte(0), 0);
        assert_eq!(encode_line(&[0; 8]), [0; 8]);
    }

    proptest! {
        /// Every word encodes to a codeword that decodes clean to itself.
        #[test]
        fn secded_roundtrip(data in any::<u64>()) {
            let decoded = decode_word(data, check_byte(data));
            prop_assert_eq!(decoded, (Some(data), DecodeOutcome::Clean));
        }

        /// Any single-bit error in any codeword is corrected.
        #[test]
        fn secded_corrects_single_bit(data in any::<u64>(), pos in 0usize..72) {
            let cw = oracle::codeword(data, check_byte(data));
            let decoded = decode_codeword(cw ^ (1 << pos));
            prop_assert_eq!(decoded, (Some(data), DecodeOutcome::Corrected));
        }

        /// Any double-bit error is detected, never miscorrected.
        #[test]
        fn secded_detects_double_bits(data in any::<u64>(), a in 0usize..72, b in 0usize..72) {
            prop_assume!(a != b);
            let cw = oracle::codeword(data, check_byte(data));
            let decoded = decode_codeword(cw ^ (1 << a) ^ (1 << b));
            prop_assert_eq!(decoded, (None, DecodeOutcome::DetectedUncorrectable));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn word_codec_matches_the_bit_serial_oracle(data in any::<u64>(), check in any::<u8>()) {
            prop_assert_eq!(check_byte(data), oracle::encode(data));
            prop_assert_eq!(decode_word(data, check), oracle::decode(data, check));
            // A valid codeword with one stored bit flipped, too.
            let near = check_byte(data) ^ (1 << (check % 8));
            prop_assert_eq!(decode_word(data, near), oracle::decode(data, near));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn line_codec_matches_the_bit_serial_oracle(
            words in any::<[u64; 8]>(),
            check in any::<[u8; 8]>(),
        ) {
            prop_assert_eq!(encode_line(&words), words.map(oracle::encode));
            prop_assert_eq!(decode_line(&words, &check), oracle::decode_line(&words, &check));
            // Mostly-valid lines too: the true check bytes with one byte hit.
            let mut near = encode_line(&words);
            near[(check[0] % 8) as usize] ^= check[1];
            prop_assert_eq!(decode_line(&words, &near), oracle::decode_line(&words, &near));
        }
    }
}
