//! Error-correction substrate for the SYNERGY reproduction.
//!
//! The paper evaluates three reliability mechanisms, all implemented here
//! from scratch, each as the one fixed-shape code the system runs with one
//! private test oracle beside it:
//!
//! * [`secded`] — the (72,64) single-error-correct / double-error-detect
//!   Hamming code stored in the 9th chip of a conventional ECC-DIMM. This is
//!   what the SGX / SGX_O baselines use.
//! * [`reed_solomon`] — x8 Chipkill, an (18,16) Reed–Solomon code over
//!   GF(2^8) ([`gf256`]): with two check symbols per beat, any single
//!   failed chip (symbol) out of 18 is corrected.
//! * [`parity`] — the RAID-3 XOR parity that SYNERGY pairs with its MAC:
//!   an 8-byte parity over 9 chip slices (8 data + 1 MAC) reconstructs the
//!   contents of any one failed chip.
//!
//! # Which code tolerates what
//!
//! | Code | Corrects | Detects | Paper role |
//! |---|---|---|---|
//! | SECDED | 1 bit / 72-bit word | 2 bits | baseline ECC-DIMM |
//! | Chipkill RS | 1 chip / 18 | 2 chips (flagged) | costly baseline, Fig 11 |
//! | MAC + parity | 1 chip / 9 | any corruption (via MAC) | SYNERGY |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gf256;
pub mod parity;
pub mod reed_solomon;
pub mod secded;

/// Outcome of an ECC decode attempt, common to every code in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeOutcome {
    /// The word was error-free.
    Clean,
    /// An error was present and corrected; the payload is now trustworthy.
    Corrected,
    /// An error was detected but exceeds the code's correction capability
    /// (a DUE — detected uncorrectable error).
    DetectedUncorrectable,
}

impl DecodeOutcome {
    /// True when the decoded data is usable (clean or corrected).
    pub fn is_ok(self) -> bool {
        !matches!(self, DecodeOutcome::DetectedUncorrectable)
    }
}

impl core::fmt::Display for DecodeOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DecodeOutcome::Clean => "clean",
            DecodeOutcome::Corrected => "corrected",
            DecodeOutcome::DetectedUncorrectable => "detected-uncorrectable",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_usability() {
        assert!(DecodeOutcome::Clean.is_ok());
        assert!(DecodeOutcome::Corrected.is_ok());
        assert!(!DecodeOutcome::DetectedUncorrectable.is_ok());
    }

    #[test]
    fn outcome_display() {
        assert_eq!(DecodeOutcome::Clean.to_string(), "clean");
        assert_eq!(
            DecodeOutcome::DetectedUncorrectable.to_string(),
            "detected-uncorrectable"
        );
    }
}
