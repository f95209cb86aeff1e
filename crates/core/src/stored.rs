//! The 9-chip stored representation of a cacheline (Figure 7(a)).
//!
//! Every 64-byte line on a SYNERGY ECC-DIMM is physically striped over
//! 9 x8 chips: 8 bytes per chip from the 8 "data" chips plus 8 bytes from
//! the ECC chip. What those bytes *mean* depends on the line's region:
//!
//! | Region | Chips 0–7 | ECC chip (8) |
//! |---|---|---|
//! | Data | ciphertext | 64-bit MAC |
//! | Counter / tree | 56-bit counter + 1 MAC byte each | `ParityC` over chips 0–7 |
//! | Parity | eight 8-byte parities | `ParityP` over chips 0–7 |
//!
//! Fault injection operates on this representation: a failed chip corrupts
//! its 8-byte slice of every line it touches, whatever the region.
//!
//! [`StoredLine`] is the line as the bus carries it, nine 8-byte slices:
//! the view of the adversary primitives and of fault injection. The
//! memory keeps each line as nine little-endian words instead
//! (`LineWords`), so that parity folds, `ParityC` and the counter fields
//! are word XORs and masks.

use synergy_crypto::CacheLine;

/// One chip's 8-byte contribution.
pub type ChipSlice = [u8; 8];

/// Number of chips on the DIMM (8 data + 1 ECC).
pub const CHIPS: usize = 9;

/// 56-bit counter mask.
pub(crate) const MASK56: u64 = (1 << 56) - 1;

/// A line as physically stored across the 9 chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredLine {
    /// `chips[0..8]` are the data chips; `chips[8]` is the ECC chip.
    pub chips: [ChipSlice; CHIPS],
}

impl StoredLine {
    /// Builds a data-region line: ciphertext in chips 0–7, MAC in the ECC
    /// chip.
    pub fn from_data(ciphertext: &CacheLine, mac: u64) -> Self {
        LineWords::from_data(ciphertext, mac).into()
    }

    /// Splits a data-region line into `(ciphertext, mac)`.
    pub fn data_parts(&self) -> (CacheLine, u64) {
        LineWords::from(*self).data_parts()
    }

    /// Builds a counter-region line: chip *i* carries counter *i*
    /// (56 bits, low 7 bytes) plus byte *i* of the distributed 64-bit MAC;
    /// the ECC chip carries `ParityC`, the XOR of chips 0–7.
    pub fn from_counters(counters: &[u64; 8], mac: u64) -> Self {
        LineWords::from_counters(counters, mac).into()
    }

    /// Splits a counter-region line into `(counters, mac, parity_c)`,
    /// reading each data chip as one little-endian word: counter *i* in its
    /// low 56 bits, MAC byte *i* in its top byte.
    pub fn counter_parts(&self) -> ([u64; 8], u64, ChipSlice) {
        let (counters, mac) = LineWords::from(*self).counter_parts();
        (counters, mac, self.chips[8])
    }

    /// Builds a parity-region line: eight parity slots plus `ParityP`.
    pub fn from_parities(slots: &[ChipSlice; 8]) -> Self {
        LineWords::from_parities(&slots.map(u64::from_le_bytes)).into()
    }

    /// Splits a parity-region line into `(slots, parity_p)`.
    pub fn parity_parts(&self) -> ([ChipSlice; 8], ChipSlice) {
        (core::array::from_fn(|i| self.chips[i]), self.chips[8])
    }

    /// XOR of all nine chip slices — the value stored in the parity region
    /// for data lines (`P = C0 ⊕ … ⊕ C7 ⊕ MAC`, §III).
    pub fn xor_of_nine(&self) -> ChipSlice {
        LineWords::from(*self).xor_of_nine().to_le_bytes()
    }

    /// Flips `pattern` into chip `chip`'s slice (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9`.
    pub fn corrupt_chip(&mut self, chip: usize, pattern: ChipSlice) {
        assert!(chip < CHIPS, "chip {chip} out of range");
        for (d, s) in self.chips[chip].iter_mut().zip(pattern) {
            *d ^= s;
        }
    }
}

/// A line as the memory keeps it: chip *i*'s eight bytes as one
/// little-endian word, `words[i].to_le_bytes() == chips[i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LineWords(pub(crate) [u64; CHIPS]);

impl From<StoredLine> for LineWords {
    fn from(line: StoredLine) -> Self {
        Self(line.chips.map(u64::from_le_bytes))
    }
}

impl From<LineWords> for StoredLine {
    fn from(line: LineWords) -> Self {
        Self { chips: line.0.map(u64::to_le_bytes) }
    }
}

impl LineWords {
    /// The all-zero line.
    pub(crate) const ZERO: Self = Self([0; CHIPS]);

    /// [`StoredLine::from_data`].
    pub(crate) fn from_data(ciphertext: &CacheLine, mac: u64) -> Self {
        let mut words = [0; CHIPS];
        words[..8].copy_from_slice(&ciphertext.to_words());
        words[8] = mac;
        Self(words)
    }

    /// [`StoredLine::data_parts`].
    pub(crate) fn data_parts(&self) -> (CacheLine, u64) {
        (CacheLine::from_words(core::array::from_fn(|i| self.0[i])), self.0[8])
    }

    /// [`StoredLine::from_counters`].
    pub(crate) fn from_counters(counters: &[u64; 8], mac: u64) -> Self {
        let mut words = [0; CHIPS];
        for (i, (word, counter)) in words.iter_mut().zip(counters).enumerate() {
            *word = (counter & MASK56) | ((mac >> (8 * i)) << 56);
        }
        words[8] = words[..8].iter().fold(0, |acc, w| acc ^ w);
        Self(words)
    }

    /// `(counters, mac)` of a counter-region line; the ECC chip is
    /// `self.0[8]`.
    pub(crate) fn counter_parts(&self) -> ([u64; 8], u64) {
        let mut mac = 0;
        let counters = core::array::from_fn(|i| {
            mac |= (self.0[i] >> 56) << (8 * i);
            self.0[i] & MASK56
        });
        (counters, mac)
    }

    /// [`StoredLine::from_parities`].
    pub(crate) fn from_parities(slots: &[u64; 8]) -> Self {
        let mut words = [0; CHIPS];
        words[..8].copy_from_slice(slots);
        words[8] = slots.iter().fold(0, |acc, w| acc ^ w);
        Self(words)
    }

    /// [`StoredLine::xor_of_nine`]. Zero for a parity line whose `ParityP`
    /// agrees with its slots, and for a counter line whose `ParityC` does.
    pub(crate) fn xor_of_nine(&self) -> u64 {
        self.0.iter().fold(0, |acc, w| acc ^ w)
    }

    /// A copy with `delta` XORed into chip `chip`. The RAID-3
    /// reconstruction of chip `c` from a parity `p` over all nine chips is
    /// `with_chip_xored(c, p ^ xor_of_nine())`, and from `ParityC` it is
    /// `with_chip_xored(c, xor_of_nine())`: one base per line, one XOR per
    /// candidate.
    #[must_use]
    pub(crate) fn with_chip_xored(&self, chip: usize, delta: u64) -> Self {
        let mut out = *self;
        out.0[chip] ^= delta;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let line = CacheLine::from_bytes([0x3C; 64]);
        let stored = StoredLine::from_data(&line, 0xDEAD_BEEF_0123_4567);
        let (l2, m2) = stored.data_parts();
        assert_eq!(l2, line);
        assert_eq!(m2, 0xDEAD_BEEF_0123_4567);
        assert_eq!(stored.chips[8], 0xDEAD_BEEF_0123_4567u64.to_le_bytes());
    }

    #[test]
    fn counter_roundtrip_and_parity_consistency() {
        let counters = [1u64, 2, 3, 4, 5, 6, 7, (1 << 56) - 1];
        let stored = StoredLine::from_counters(&counters, 0xAABB_CCDD_EEFF_0011);
        let (c2, m2, pc) = stored.counter_parts();
        assert_eq!(c2, counters);
        assert_eq!(m2, 0xAABB_CCDD_EEFF_0011);
        let mut fold = [0u8; 8];
        for chip in &stored.chips[..8] {
            for (f, b) in fold.iter_mut().zip(chip) {
                *f ^= b;
            }
        }
        assert_eq!(pc, fold);
        // Counter i in the low seven bytes of chip i, MAC byte i on top.
        assert_eq!(stored.chips[7], [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xAA]);
    }

    #[test]
    fn counters_mask_to_56_bits() {
        let stored = StoredLine::from_counters(&[u64::MAX; 8], 0);
        let (c, _, _) = stored.counter_parts();
        assert!(c.iter().all(|&v| v == (1 << 56) - 1));
    }

    #[test]
    fn parity_roundtrip() {
        let slots = [[7u8; 8]; 8];
        let stored = StoredLine::from_parities(&slots);
        let (s2, pp) = stored.parity_parts();
        assert_eq!(s2, slots);
        assert_eq!(pp, [0u8; 8], "XOR of 8 equal slots is zero");
        assert_eq!(LineWords::from(stored).xor_of_nine(), 0);
    }

    #[test]
    fn words_and_slices_are_the_same_line() {
        let mut stored = StoredLine::from_data(&CacheLine::from_bytes([0x5D; 64]), 99);
        stored.corrupt_chip(4, [1, 2, 3, 4, 5, 6, 7, 8]);
        let words = LineWords::from(stored);
        assert_eq!(words.0[4], u64::from_le_bytes(stored.chips[4]));
        assert_eq!(StoredLine::from(words), stored);
        assert_eq!(words.xor_of_nine().to_le_bytes(), stored.xor_of_nine());
    }

    #[test]
    fn nine_chip_reconstruction_recovers_any_chip() {
        let line = CacheLine::from_bytes([0x11; 64]);
        let clean = LineWords::from_data(&line, 42);
        let parity = clean.xor_of_nine();
        for failed in 0..9 {
            let bad = clean.with_chip_xored(failed, u64::MAX);
            let fixed = bad.with_chip_xored(failed, parity ^ bad.xor_of_nine());
            assert_eq!(fixed, clean, "chip {failed}");
            // Any other chip's reconstruction leaves a wrong line.
            let wrong = (failed + 1) % CHIPS;
            assert_ne!(bad.with_chip_xored(wrong, parity ^ bad.xor_of_nine()), clean);
        }
    }

    #[test]
    fn ecc_parity_reconstruction_recovers_counter_chips() {
        let counters = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let clean = LineWords::from_counters(&counters, 99);
        for failed in 0..8 {
            let bad = clean.with_chip_xored(failed, 0x5A5A_5A5A_5A5A_5A5A);
            assert_eq!(bad.with_chip_xored(failed, bad.xor_of_nine()), clean, "chip {failed}");
        }
    }

    #[test]
    fn corrupt_chip_is_xor() {
        let line = CacheLine::zeroed();
        let mut stored = StoredLine::from_data(&line, 0);
        stored.corrupt_chip(2, [0xAA; 8]);
        stored.corrupt_chip(2, [0xAA; 8]);
        assert_eq!(stored, StoredLine::from_data(&line, 0));
    }
}
