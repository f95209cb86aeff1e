//! A functional SECDED ECC-DIMM memory — the reliability baseline.
//!
//! This is the conventional 9-chip ECC-DIMM the SGX / SGX_O baselines run
//! on: each 64-bit word carries (72,64) SECDED check bits in the ECC chip.
//! It corrects single-bit upsets but, unlike [`crate::memory::SynergyMemory`],
//! a whole-chip failure is at best *detected* — and can silently corrupt
//! data when the per-word error pattern aliases (see
//! `synergy_ecc::secded` tests). Examples use the two side by side to
//! demonstrate the paper's reliability claim.

use synergy_crypto::CacheLine;
use synergy_ecc::{secded, DecodeOutcome};

use crate::stored::ChipSlice;

/// Errors from the SECDED memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SecdedError {
    /// A word had a detected-uncorrectable error (≥2 bits).
    UncorrectableError {
        /// Line address.
        addr: u64,
    },
    /// Address beyond capacity.
    OutOfRange {
        /// Offending address.
        addr: u64,
        /// Capacity in bytes.
        capacity: u64,
    },
    /// Address not 64-byte aligned.
    Misaligned {
        /// Offending address.
        addr: u64,
    },
}

impl core::fmt::Display for SecdedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SecdedError::UncorrectableError { addr } => {
                write!(f, "detected uncorrectable error at {addr:#x}")
            }
            SecdedError::OutOfRange { addr, capacity } => {
                write!(f, "address {addr:#x} beyond capacity {capacity:#x}")
            }
            SecdedError::Misaligned { addr } => write!(f, "address {addr:#x} misaligned"),
        }
    }
}

impl std::error::Error for SecdedError {}

/// Result of a SECDED read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SecdedReadOutput {
    /// The line contents (as decoded — possibly silently wrong if a
    /// multi-bit error aliased!).
    pub data: CacheLine,
    /// Worst per-word outcome across the line.
    pub outcome: DecodeOutcome,
}

/// One stored line: eight data words and their eight check bytes.
type Line = ([u64; 8], [u8; 8]);

/// A plain ECC-DIMM memory with (72,64) SECDED per word.
#[derive(Debug, Clone)]
pub struct SecdedMemory {
    capacity: u64,
    /// Every line, indexed by address / 64. All-zero storage is the
    /// encoded zero line: a zero word has a zero check byte.
    lines: Vec<Line>,
}

impl SecdedMemory {
    /// Creates a zeroed memory of `capacity` bytes. The line store is
    /// allocated up front, 72 bytes of host memory per 64-byte line, so
    /// `capacity` must fit in host memory.
    pub fn new(capacity: u64) -> Self {
        let lines = usize::try_from(capacity.div_ceil(64)).expect("line count fits in usize");
        Self { capacity, lines: vec![([0; 8], [0; 8]); lines] }
    }

    fn check(&self, addr: u64) -> Result<(), SecdedError> {
        if !addr.is_multiple_of(64) {
            return Err(SecdedError::Misaligned { addr });
        }
        if addr >= self.capacity {
            return Err(SecdedError::OutOfRange { addr, capacity: self.capacity });
        }
        Ok(())
    }

    /// Writes a line, regenerating its check bytes.
    ///
    /// # Errors
    ///
    /// Returns address-validation errors.
    pub fn write_line(&mut self, addr: u64, line: &CacheLine) -> Result<(), SecdedError> {
        self.check(addr)?;
        let words = line.to_words();
        self.lines[(addr / 64) as usize] = (words, secded::encode_line(&words));
        Ok(())
    }

    /// Reads a line, correcting single-bit errors per word.
    ///
    /// # Errors
    ///
    /// Returns [`SecdedError::UncorrectableError`] when any word has a
    /// detected multi-bit error.
    pub fn read_line(&self, addr: u64) -> Result<SecdedReadOutput, SecdedError> {
        self.check(addr)?;
        let (words, check) = &self.lines[(addr / 64) as usize];
        match secded::decode_line(words, check) {
            (Some(decoded), outcome) => {
                Ok(SecdedReadOutput { data: CacheLine::from_words(decoded), outcome })
            }
            (None, _) => Err(SecdedError::UncorrectableError { addr }),
        }
    }

    /// Flips one stored data bit (word `word`, bit `bit`).
    ///
    /// # Panics
    ///
    /// Panics if `word >= 8`, `bit >= 64`, or the address is invalid.
    pub fn inject_bit_flip(&mut self, addr: u64, word: usize, bit: usize) {
        assert!(word < 8 && bit < 64);
        self.line_mut(addr).0[word] ^= 1 << bit;
    }

    /// Corrupts chip `chip`'s contribution (byte `chip` of every word, or
    /// the check byte for the ECC chip) — a chip failure at this line.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9` or the address is invalid.
    pub fn inject_chip_error(&mut self, addr: u64, chip: usize) {
        self.inject_chip_pattern(addr, chip, crate::testsupport::CHIP_CORRUPTION_PATTERN);
    }

    /// XORs an arbitrary per-word pattern into chip `chip`'s contribution:
    /// `pattern[w]` corrupts word `w`'s byte on that chip (or word `w`'s
    /// check byte for the ECC chip). The shared-pattern mirror of
    /// [`crate::memory::SynergyMemory::inject_chip_pattern`], with the
    /// byte-sliced orientation of an ECC-DIMM.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9` or the address is invalid.
    pub fn inject_chip_pattern(&mut self, addr: u64, chip: usize, pattern: ChipSlice) {
        assert!(chip < 9);
        let entry = self.line_mut(addr);
        if chip < 8 {
            for (w, p) in entry.0.iter_mut().zip(pattern) {
                *w ^= u64::from(p) << (chip * 8);
            }
        } else {
            for (c, p) in entry.1.iter_mut().zip(pattern) {
                *c ^= p;
            }
        }
    }

    fn line_mut(&mut self, addr: u64) -> &mut Line {
        assert!(addr.is_multiple_of(64) && addr < self.capacity, "invalid address {addr:#x}");
        &mut self.lines[(addr / 64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut m = SecdedMemory::new(1 << 16);
        let line = CacheLine::from_bytes([0x42; 64]);
        m.write_line(0, &line).unwrap();
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line);
        assert_eq!(out.outcome, DecodeOutcome::Clean);
    }

    #[test]
    fn single_bit_corrected() {
        let mut m = SecdedMemory::new(1 << 16);
        m.write_line(64, &CacheLine::from_bytes([9; 64])).unwrap();
        m.inject_bit_flip(64, 3, 17);
        let out = m.read_line(64).unwrap();
        assert_eq!(out.data, CacheLine::from_bytes([9; 64]));
        assert_eq!(out.outcome, DecodeOutcome::Corrected);
    }

    #[test]
    fn chip_failure_is_not_correctable() {
        // The motivating contrast with SynergyMemory.
        let mut m = SecdedMemory::new(1 << 16);
        m.write_line(0, &CacheLine::from_bytes([7; 64])).unwrap();
        m.inject_chip_error(0, 4);
        assert!(matches!(
            m.read_line(0),
            Err(SecdedError::UncorrectableError { .. })
        ));
    }

    #[test]
    fn ecc_chip_failure_also_detected() {
        let mut m = SecdedMemory::new(1 << 16);
        m.write_line(0, &CacheLine::from_bytes([1; 64])).unwrap();
        m.inject_chip_error(0, 8);
        assert!(m.read_line(0).is_err());
    }

    #[test]
    fn validation() {
        let mut m = SecdedMemory::new(4096);
        assert!(m.read_line(33).is_err());
        assert!(m.read_line(4096).is_err());
        assert!(m.write_line(8192, &CacheLine::zeroed()).is_err());
    }

    #[test]
    fn unwritten_reads_zero() {
        let m = SecdedMemory::new(4096);
        assert_eq!(m.read_line(0).unwrap().data, CacheLine::zeroed());
        assert_eq!(m.read_line(4032).unwrap().outcome, DecodeOutcome::Clean);
    }
}
