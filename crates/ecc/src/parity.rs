//! RAID-3 chip parity — SYNERGY's correction mechanism (§III, Figure 5).
//!
//! SYNERGY detects errors with the MAC and corrects them with a simple XOR
//! parity constructed over the nine chips of the ECC-DIMM: the eight 8-byte
//! data slices plus the 8-byte MAC held in the ECC chip. Given the parity
//! and any eight of the nine slices, the ninth is reconstructed as the XOR
//! of the rest — exactly RAID-3.
//!
//! Because the faulty chip's identity is unknown, the reconstruction engine
//! (in `synergy-core`) tries each chip in turn and validates each attempt
//! with a MAC recomputation. This module provides the pure parity algebra
//! over one data line's nine slices: construction and single-slice
//! reconstruction. `synergy-core` keeps its own word-form parity, and the
//! parity-of-parities that protects the parity cachelines (§III-A), on its
//! line store.

/// Number of protected chips: 8 data + 1 MAC.
pub const CHIPS: usize = 9;

/// One chip's 8-byte contribution to a cacheline.
pub type ChipSlice = [u8; 8];

/// Computes the 8-byte parity over nine chip slices
/// (`P = C0 ⊕ C1 ⊕ … ⊕ C7 ⊕ MAC`).
pub fn compute(slices: &[ChipSlice; CHIPS]) -> ChipSlice {
    let mut parity = [0u8; 8];
    for slice in slices {
        for (p, b) in parity.iter_mut().zip(slice.iter()) {
            *p ^= b;
        }
    }
    parity
}

/// Reconstructs the slice of chip `failed` from the other eight slices and
/// the parity: `C_f = P ⊕ ⊕_{i≠f} C_i`.
///
/// The contents currently stored for chip `failed` are ignored.
///
/// # Panics
///
/// Panics if `failed >= 9`.
pub fn reconstruct(slices: &[ChipSlice; CHIPS], parity: &ChipSlice, failed: usize) -> ChipSlice {
    assert!(failed < CHIPS, "chip index {failed} out of range");
    let mut out = *parity;
    for (i, slice) in slices.iter().enumerate() {
        if i != failed {
            for (o, b) in out.iter_mut().zip(slice.iter()) {
                *o ^= b;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_slices() -> [ChipSlice; CHIPS] {
        let mut slices = [[0u8; 8]; CHIPS];
        for (i, s) in slices.iter_mut().enumerate() {
            for (j, b) in s.iter_mut().enumerate() {
                *b = (i * 8 + j) as u8 ^ 0x5A;
            }
        }
        slices
    }

    #[test]
    fn reconstruct_every_chip() {
        let slices = sample_slices();
        let p = compute(&slices);
        for failed in 0..CHIPS {
            let mut corrupted = slices;
            corrupted[failed] = [0xEE; 8]; // garbage from the failed chip
            let rebuilt = reconstruct(&corrupted, &p, failed);
            assert_eq!(rebuilt, slices[failed], "chip {failed}");
        }
    }

    #[test]
    fn reconstruct_ignores_failed_chip_contents() {
        let slices = sample_slices();
        let p = compute(&slices);
        let mut a = slices;
        a[4] = [0; 8];
        let mut b = slices;
        b[4] = [0xFF; 8];
        assert_eq!(reconstruct(&a, &p, 4), reconstruct(&b, &p, 4));
    }

    #[test]
    fn two_chip_failure_reconstruction_is_wrong() {
        // RAID-3 cannot fix two failed chips — the MAC check in the
        // reconstruction engine is what catches this case.
        let slices = sample_slices();
        let p = compute(&slices);
        let mut corrupted = slices;
        corrupted[1] = [0; 8];
        corrupted[2] = [0; 8];
        assert_ne!(reconstruct(&corrupted, &p, 1), slices[1]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reconstruct_bounds_checked() {
        let slices = sample_slices();
        let p = compute(&slices);
        reconstruct(&slices, &p, 9);
    }
}
