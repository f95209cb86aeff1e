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

use synergy_crypto::CacheLine;

/// One chip's 8-byte contribution.
pub type ChipSlice = [u8; 8];

/// Number of chips on the DIMM (8 data + 1 ECC).
pub const CHIPS: usize = 9;

/// A line as physically stored across the 9 chips.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredLine {
    /// `chips[0..8]` are the data chips; `chips[8]` is the ECC chip.
    pub chips: [ChipSlice; CHIPS],
}

impl StoredLine {
    /// Builds a data-region line: ciphertext in chips 0–7, MAC in the ECC
    /// chip. The line is decomposed in a single pass over its bytes.
    pub fn from_data(ciphertext: &CacheLine, mac: u64) -> Self {
        let mut chips = [[0u8; 8]; CHIPS];
        for (chip, bytes) in chips.iter_mut().zip(ciphertext.as_bytes().chunks_exact(8)) {
            chip.copy_from_slice(bytes);
        }
        chips[8] = mac.to_le_bytes();
        Self { chips }
    }

    /// Splits a data-region line into `(ciphertext, mac)` — one pass, no
    /// per-chip slice round trips.
    pub fn data_parts(&self) -> (CacheLine, u64) {
        let mut bytes = [0u8; 64];
        for (chunk, chip) in bytes.chunks_exact_mut(8).zip(self.chips.iter()) {
            chunk.copy_from_slice(chip);
        }
        (CacheLine::from_bytes(bytes), u64::from_le_bytes(self.chips[8]))
    }

    /// Builds a counter-region line: chip *i* carries counter *i*
    /// (56 bits, low 7 bytes) plus byte *i* of the distributed 64-bit MAC;
    /// the ECC chip carries `ParityC`, the XOR of chips 0–7.
    pub fn from_counters(counters: &[u64; 8], mac: u64) -> Self {
        let mac_bytes = mac.to_le_bytes();
        let mut chips = [[0u8; 8]; CHIPS];
        for i in 0..8 {
            let c = counters[i] & ((1 << 56) - 1);
            chips[i][..7].copy_from_slice(&c.to_le_bytes()[..7]);
            chips[i][7] = mac_bytes[i];
        }
        chips[8] = xor_slices(&chips[..8]);
        Self { chips }
    }

    /// Splits a counter-region line into `(counters, mac, parity_c)`,
    /// reading each data chip as one little-endian word: counter *i* in its
    /// low 56 bits, MAC byte *i* in its top byte.
    #[inline]
    pub fn counter_parts(&self) -> ([u64; 8], u64, ChipSlice) {
        let mut counters = [0u64; 8];
        let mut mac = 0u64;
        for (i, chip) in self.chips[..8].iter().enumerate() {
            let word = u64::from_le_bytes(*chip);
            counters[i] = word & ((1 << 56) - 1);
            mac |= (word >> 56) << (8 * i);
        }
        (counters, mac, self.chips[8])
    }

    /// Builds a parity-region line: eight parity slots plus `ParityP`.
    pub fn from_parities(slots: &[ChipSlice; 8]) -> Self {
        let mut chips = [[0u8; 8]; CHIPS];
        chips[..8].copy_from_slice(slots);
        chips[8] = xor_slices(slots);
        Self { chips }
    }

    /// Splits a parity-region line into `(slots, parity_p)`.
    pub fn parity_parts(&self) -> ([ChipSlice; 8], ChipSlice) {
        let mut slots = [[0u8; 8]; 8];
        slots.copy_from_slice(&self.chips[..8]);
        (slots, self.chips[8])
    }

    /// XOR of all nine chip slices — the value stored in the parity region
    /// for data lines (`P = C0 ⊕ … ⊕ C7 ⊕ MAC`, §III).
    pub fn xor_of_nine(&self) -> ChipSlice {
        xor_slices(&self.chips)
    }

    /// Returns a copy with chip `failed` replaced by the RAID-3
    /// reconstruction `parity ⊕ (XOR of the other chips)` over all nine
    /// chips — the data-line reconstruction engine's unit step.
    ///
    /// # Panics
    ///
    /// Panics if `failed >= 9`.
    #[must_use]
    pub fn with_chip_reconstructed(&self, failed: usize, parity: &ChipSlice) -> Self {
        assert!(failed < CHIPS, "chip {failed} out of range");
        let mut out = *self;
        let mut slice = *parity;
        for (i, chip) in self.chips.iter().enumerate() {
            if i != failed {
                xor_into(&mut slice, chip);
            }
        }
        out.chips[failed] = slice;
        out
    }

    /// Returns a copy with data chip `failed` (0–7) rebuilt from the
    /// ECC-chip parity over chips 0–7 — the counter-line reconstruction
    /// step (`ParityC`).
    ///
    /// # Panics
    ///
    /// Panics if `failed >= 8`.
    #[must_use]
    pub fn with_chip_reconstructed_from_ecc(&self, failed: usize) -> Self {
        assert!(failed < 8, "only chips 0..8 are covered by ParityC");
        let mut out = *self;
        let mut slice = self.chips[8];
        for (i, chip) in self.chips.iter().take(8).enumerate() {
            if i != failed {
                xor_into(&mut slice, chip);
            }
        }
        out.chips[failed] = slice;
        out
    }

    /// Returns a copy with chip `chip`'s slice replaced by `slice`.
    ///
    /// Combined with a hoisted XOR base (`parity ⊕ xor_of_nine`), this lets
    /// the correction engine build the candidate that verified with a
    /// single 8-byte XOR instead of re-folding all nine chips (see
    /// `SynergyMemory::correct_data_line`).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9`.
    #[must_use]
    pub fn with_chip_replaced(&self, chip: usize, slice: ChipSlice) -> Self {
        assert!(chip < CHIPS, "chip {chip} out of range");
        let mut out = *self;
        out.chips[chip] = slice;
        out
    }

    /// Flips `pattern` into chip `chip`'s slice (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9`.
    pub fn corrupt_chip(&mut self, chip: usize, pattern: ChipSlice) {
        assert!(chip < CHIPS, "chip {chip} out of range");
        xor_into(&mut self.chips[chip], &pattern);
    }
}

/// XOR of a set of slices.
pub fn xor_slices(slices: &[ChipSlice]) -> ChipSlice {
    let mut out = [0u8; 8];
    for s in slices {
        xor_into(&mut out, s);
    }
    out
}

#[inline]
fn xor_into(dst: &mut ChipSlice, src: &ChipSlice) {
    for (d, s) in dst.iter_mut().zip(src.iter()) {
        *d ^= s;
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
    }

    #[test]
    fn counter_roundtrip_and_parity_consistency() {
        let counters = [1u64, 2, 3, 4, 5, 6, 7, (1 << 56) - 1];
        let stored = StoredLine::from_counters(&counters, 0xAABB_CCDD_EEFF_0011);
        let (c2, m2, pc) = stored.counter_parts();
        assert_eq!(c2, counters);
        assert_eq!(m2, 0xAABB_CCDD_EEFF_0011);
        assert_eq!(pc, xor_slices(&stored.chips[..8]));
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
    }

    #[test]
    fn nine_chip_reconstruction_recovers_any_chip() {
        let line = CacheLine::from_bytes([0x11; 64]);
        let clean = StoredLine::from_data(&line, 42);
        let parity = clean.xor_of_nine();
        for failed in 0..9 {
            let mut bad = clean;
            bad.corrupt_chip(failed, [0xFF; 8]);
            let fixed = bad.with_chip_reconstructed(failed, &parity);
            assert_eq!(fixed, clean, "chip {failed}");
        }
    }

    #[test]
    fn ecc_parity_reconstruction_recovers_counter_chips() {
        let counters = [10u64, 20, 30, 40, 50, 60, 70, 80];
        let clean = StoredLine::from_counters(&counters, 99);
        for failed in 0..8 {
            let mut bad = clean;
            bad.corrupt_chip(failed, [0x5A; 8]);
            let fixed = bad.with_chip_reconstructed_from_ecc(failed);
            assert_eq!(fixed, clean, "chip {failed}");
        }
    }

    #[test]
    fn reconstructing_the_wrong_chip_fails() {
        let line = CacheLine::from_bytes([0x99; 64]);
        let clean = StoredLine::from_data(&line, 7);
        let parity = clean.xor_of_nine();
        let mut bad = clean;
        bad.corrupt_chip(3, [0x01; 8]);
        let attempt = bad.with_chip_reconstructed(5, &parity);
        assert_ne!(attempt, clean);
    }

    #[test]
    fn hoisted_base_reconstruction_matches_with_chip_reconstructed() {
        // The correction engine's fast form: candidate chip value is
        // `base ^ chips[failed]` with `base = parity ⊕ xor_of_nine`.
        let line = CacheLine::from_bytes([0x2B; 64]);
        let clean = StoredLine::from_data(&line, 1234);
        let parity = clean.xor_of_nine();
        let mut bad = clean;
        bad.corrupt_chip(4, [0x0F; 8]);
        let base = xor_slices(&[parity, bad.xor_of_nine()]);
        for failed in 0..9 {
            assert_eq!(
                bad.with_chip_replaced(failed, xor_slices(&[base, bad.chips[failed]])),
                bad.with_chip_reconstructed(failed, &parity),
                "chip {failed}"
            );
        }
        // Same identity for the ParityC (ECC-chip) form over chips 0–7.
        let base_c = bad.xor_of_nine();
        for failed in 0..8 {
            assert_eq!(
                bad.with_chip_replaced(failed, xor_slices(&[base_c, bad.chips[failed]])),
                bad.with_chip_reconstructed_from_ecc(failed),
                "chip {failed}"
            );
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
