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
//! constant table; a syndrome maps to its data bit through another.
//! [`Codeword`]'s bit-position API is the only place the codeword layout
//! is materialized.

use crate::DecodeOutcome;

/// Number of Hamming check bits (positions 1,2,4,...,64).
const CHECK_BITS: usize = 7;
/// Total codeword length including the overall parity bit at position 0.
const CODEWORD_BITS: usize = 72;

/// Codeword position (1..72) of each data bit: the positions that are not
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

/// The stored check byte of `data` (see [`Codeword::from_parts`] for the
/// layout): the Hamming check bits, and an overall parity that makes the
/// whole codeword even-weight.
#[inline]
fn check_byte(data: u64) -> u8 {
    let mut check = 0;
    for (row, byte) in CHECK_TABLE.iter().zip(data.to_le_bytes()) {
        check ^= row[usize::from(byte)];
    }
    check
}

/// Decodes one stored (data word, check byte) pair; see
/// [`Codeword::decode`].
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

/// A (72,64) SECDED codeword: 64 data bits plus 8 check bits.
///
/// ```
/// use synergy_ecc::secded::Codeword;
/// use synergy_ecc::DecodeOutcome;
///
/// let cw = Codeword::encode(0xDEAD_BEEF_0123_4567);
/// // A single-bit upset anywhere in the 72 bits is corrected:
/// let (data, outcome) = cw.with_bit_flipped(17).decode();
/// assert_eq!(data, Some(0xDEAD_BEEF_0123_4567));
/// assert_eq!(outcome, DecodeOutcome::Corrected);
///
/// // Two upsets are detected but not corrected:
/// let (_, outcome) = cw.with_bit_flipped(3).with_bit_flipped(40).decode();
/// assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codeword(u128);

impl Codeword {
    /// Encodes a 64-bit data word into a 72-bit SECDED codeword.
    pub fn encode(data: u64) -> Self {
        Self::from_parts(data, check_byte(data))
    }

    /// Reassembles a codeword from stored data + check byte, as read from
    /// the 8 data chips and the ECC chip.
    ///
    /// Check byte layout: bit 0 = overall parity, bits 1..8 = Hamming
    /// check bits in position order 1,2,4,8,16,32,64.
    pub fn from_parts(data: u64, check: u8) -> Self {
        let mut bits = u128::from(check & 1);
        for (d, &pos) in DATA_POSITIONS.iter().enumerate() {
            bits |= u128::from((data >> d) & 1) << pos;
        }
        for i in 0..CHECK_BITS {
            bits |= u128::from((check >> (i + 1)) & 1) << (1usize << i);
        }
        Self(bits)
    }

    /// Splits the codeword into the stored representation:
    /// `(data word, check byte)`.
    pub fn to_parts(self) -> (u64, u8) {
        let mut data = 0u64;
        for (d, &pos) in DATA_POSITIONS.iter().enumerate() {
            data |= (((self.0 >> pos) & 1) as u64) << d;
        }
        let mut check = (self.0 & 1) as u8;
        for i in 0..CHECK_BITS {
            check |= (((self.0 >> (1usize << i)) & 1) as u8) << (i + 1);
        }
        (data, check)
    }

    /// Returns the raw 72-bit codeword (bits above 71 are zero).
    pub fn raw(self) -> u128 {
        self.0
    }

    /// Returns a copy with bit `pos` (0..72) flipped — fault injection.
    ///
    /// # Panics
    ///
    /// Panics if `pos >= 72`.
    #[must_use]
    pub fn with_bit_flipped(self, pos: usize) -> Self {
        assert!(pos < CODEWORD_BITS, "bit position {pos} out of range");
        Self(self.0 ^ (1 << pos))
    }

    /// Decodes the codeword.
    ///
    /// Returns the corrected data word (or `None` for a detected
    /// uncorrectable error) along with the [`DecodeOutcome`].
    ///
    /// **Phantom-bit corrections.** With odd overall parity, a nonzero
    /// syndrome that names a check position, or a position past bit 71
    /// (the 7-bit syndrome reaches 127), flips no data bit: the data comes
    /// back unchanged and the outcome is [`DecodeOutcome::Corrected`]. An
    /// odd-weight multi-bit error confined to the check byte can land here
    /// — the check-chip aliasing note in EXPERIMENTS.md, which the
    /// campaign's even-weight check-byte guard relies on.
    pub fn decode(self) -> (Option<u64>, DecodeOutcome) {
        let (data, check) = self.to_parts();
        decode_word(data, check)
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
/// (a line is only usable if every word decodes). Each word decodes as
/// [`Codeword::decode`] does, phantom-bit corrections included.
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

    #[test]
    fn clean_roundtrip() {
        for data in [0u64, u64::MAX, 0xDEAD_BEEF, 1, 1 << 63, 0x5555_5555_5555_5555] {
            let cw = Codeword::encode(data);
            let (decoded, outcome) = cw.decode();
            assert_eq!(decoded, Some(data));
            assert_eq!(outcome, DecodeOutcome::Clean);
        }
    }

    #[test]
    fn parts_roundtrip() {
        let cw = Codeword::encode(0x0123_4567_89AB_CDEF);
        let (data, check) = cw.to_parts();
        assert_eq!(Codeword::from_parts(data, check), cw);
    }

    #[test]
    fn corrects_every_single_bit_error() {
        let data = 0xA5A5_5A5A_DEAD_BEEF;
        let cw = Codeword::encode(data);
        for pos in 0..72 {
            let (decoded, outcome) = cw.with_bit_flipped(pos).decode();
            assert_eq!(decoded, Some(data), "position {pos}");
            assert_eq!(outcome, DecodeOutcome::Corrected, "position {pos}");
        }
    }

    #[test]
    fn detects_every_double_bit_error() {
        let data = 0x0F0F_F0F0_1234_5678;
        let cw = Codeword::encode(data);
        for a in 0..72 {
            for b in (a + 1)..72 {
                let (decoded, outcome) = cw.with_bit_flipped(a).with_bit_flipped(b).decode();
                assert_eq!(
                    outcome,
                    DecodeOutcome::DetectedUncorrectable,
                    "positions {a},{b} miscorrected"
                );
                assert_eq!(decoded, None);
            }
        }
    }

    #[test]
    fn chip_failure_exceeds_secded() {
        // An entire x8 chip supplies 8 adjacent data bits of each word; its
        // failure flips up to 8 bits — far beyond SECDED. With 8 flipped
        // bits (even count) the error is at best detected, and may alias;
        // we verify it is never silently *corrected to wrong data*... which
        // SECDED cannot actually guarantee — this is exactly why the paper
        // needs Chipkill/SYNERGY. Here we just confirm multi-bit chip errors
        // are not reliably corrected.
        let data = 0xFFFF_0000_FFFF_0000u64;
        let cw = Codeword::encode(data);
        // Flip four bits of the word (part of one chip's slice). Positions
        // are chosen so the syndrome XOR (10^11^12^14 = 3) is nonzero —
        // with a *different* unlucky set (e.g. 10,11,12,13) the syndromes
        // cancel and the error is silent, which is precisely why SECDED is
        // inadequate against chip failures (§II-B of the paper).
        let mut corrupted = cw;
        for pos in [10usize, 11, 12, 14] {
            corrupted = corrupted.with_bit_flipped(pos);
        }
        let (decoded, outcome) = corrupted.decode();
        assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable);
        assert_eq!(decoded, None);

        // And demonstrate the silent-aliasing case explicitly:
        let mut aliased = cw;
        for pos in [10usize, 11, 12, 13] {
            aliased = aliased.with_bit_flipped(pos);
        }
        let (decoded, outcome) = aliased.decode();
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
    fn check_bits_differ_across_data() {
        // Different words should (typically) produce different check bytes.
        let a = Codeword::encode(0).to_parts().1;
        let b = Codeword::encode(1).to_parts().1;
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn flip_bounds_checked() {
        let _ = Codeword::encode(0).with_bit_flipped(72);
    }

    /// The bit-serial textbook code: scatter the word into Hamming
    /// positions, sum positions for the syndrome, flip the named bit of the
    /// 128-bit register. The oracle for the mask-and-table code.
    mod oracle {
        use super::super::CODEWORD_BITS;
        use crate::DecodeOutcome;

        fn scatter(data: u64) -> u128 {
            let mut bits = 0u128;
            let mut d = 0;
            for pos in 1..CODEWORD_BITS {
                if !pos.is_power_of_two() {
                    bits |= u128::from((data >> d) & 1) << pos;
                    d += 1;
                }
            }
            bits
        }

        fn gather(bits: u128) -> u64 {
            let mut data = 0u64;
            let mut d = 0;
            for pos in 1..CODEWORD_BITS {
                if !pos.is_power_of_two() {
                    data |= (((bits >> pos) & 1) as u64) << d;
                    d += 1;
                }
            }
            data
        }

        fn check_of(bits: u128) -> u8 {
            let mut check = (bits & 1) as u8;
            for i in 0..7 {
                check |= (((bits >> (1usize << i)) & 1) as u8) << (i + 1);
            }
            check
        }

        pub fn encode(data: u64) -> u8 {
            let mut bits = scatter(data);
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
            check_of(bits)
        }

        pub fn decode(data: u64, check: u8) -> (Option<u64>, DecodeOutcome) {
            let mut bits = scatter(data) | u128::from(check & 1);
            for i in 0..7 {
                bits |= u128::from((check >> (i + 1)) & 1) << (1usize << i);
            }
            let mut syndrome = 0usize;
            for pos in 1..CODEWORD_BITS {
                if (bits >> pos) & 1 == 1 {
                    syndrome ^= pos;
                }
            }
            match (syndrome, bits.count_ones() & 1 == 1) {
                (0, false) => (Some(gather(bits)), DecodeOutcome::Clean),
                (0, true) => (Some(gather(bits)), DecodeOutcome::Corrected),
                (s, true) => (Some(gather(bits ^ (1 << s))), DecodeOutcome::Corrected),
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

    #[test]
    fn every_check_byte_decodes_like_the_oracle() {
        for data in [0u64, u64::MAX, 0xA5A5_5A5A_DEAD_BEEF, 1 << 63, 0x0123_4567_89AB_CDEF] {
            assert_eq!(encode_line(&[data; 8])[0], oracle::encode(data));
            for check in 0..=255u8 {
                let expected = oracle::decode(data, check);
                assert_eq!(decode_word(data, check), expected, "{data:#x} {check:#04x}");
                assert_eq!(Codeword::from_parts(data, check).decode(), expected);
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
            let (decoded, outcome) = Codeword::from_parts(data, check ^ error).decode();
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

    /// The popcount form of the codec that the byte-sliced table
    /// replaced: one masked parity per check bit.
    mod popcount {
        use super::super::{CHECK_BITS, DATA_POSITIONS, SYNDROME_FLIPS};
        use crate::DecodeOutcome;

        /// `CHECK_MASKS[i]`: the data bits whose codeword position has bit
        /// `i` set — the coverage of the check bit at position `2^i`.
        const CHECK_MASKS: [u64; CHECK_BITS] = {
            let mut masks = [0; CHECK_BITS];
            let mut d = 0;
            while d < 64 {
                let mut i = 0;
                while i < CHECK_BITS {
                    if DATA_POSITIONS[d] & (1 << i) != 0 {
                        masks[i] |= 1 << d;
                    }
                    i += 1;
                }
                d += 1;
            }
            masks
        };

        fn hamming_bits(data: u64) -> u8 {
            let mut bits = 0;
            for (i, mask) in CHECK_MASKS.iter().enumerate() {
                bits |= (((data & mask).count_ones() & 1) as u8) << i;
            }
            bits
        }

        pub fn check_byte(data: u64) -> u8 {
            let hamming = hamming_bits(data);
            let overall = ((data.count_ones() + hamming.count_ones()) & 1) as u8;
            (hamming << 1) | overall
        }

        pub fn decode_word(data: u64, check: u8) -> (Option<u64>, DecodeOutcome) {
            let syndrome = usize::from(hamming_bits(data) ^ (check >> 1));
            match (syndrome, (data.count_ones() + check.count_ones()) & 1 == 1) {
                (0, false) => (Some(data), DecodeOutcome::Clean),
                (s, true) => (Some(data ^ SYNDROME_FLIPS[s]), DecodeOutcome::Corrected),
                (_, false) => (None, DecodeOutcome::DetectedUncorrectable),
            }
        }
    }

    #[test]
    fn zero_word_has_a_zero_check_byte() {
        // Memories rely on this to start from all-zero storage.
        assert_eq!(check_byte(0), 0);
        assert_eq!(encode_line(&[0; 8]), [0; 8]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn table_codec_matches_the_popcount_form(data in any::<u64>(), check in any::<u8>()) {
            prop_assert_eq!(check_byte(data), popcount::check_byte(data));
            prop_assert_eq!(decode_word(data, check), popcount::decode_word(data, check));
            // A valid codeword with one stored bit flipped, too.
            let near = check_byte(data) ^ (1 << (check % 8));
            prop_assert_eq!(decode_word(data, near), popcount::decode_word(data, near));
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
