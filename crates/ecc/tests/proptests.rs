//! Property-based tests of the ECC substrate's public API. The tests that
//! compare a codec with its private oracle live beside the codec.

use proptest::prelude::*;
use synergy_ecc::parity;
use synergy_ecc::reed_solomon::Chipkill;
use synergy_ecc::DecodeOutcome;

proptest! {
    /// RAID-3 reconstruction recovers any chip from the other eight plus
    /// the parity, regardless of what the failed chip currently holds.
    #[test]
    fn parity_reconstructs_any_chip(
        slices in any::<[[u8; 8]; 9]>(),
        failed in 0usize..9,
        garbage in any::<[u8; 8]>(),
    ) {
        let p = parity::compute(&slices);
        let mut corrupted = slices;
        corrupted[failed] = garbage;
        prop_assert_eq!(parity::reconstruct(&corrupted, &p, failed), slices[failed]);
    }

    /// Chipkill corrects any single-symbol corruption — any chip, any beat,
    /// any nonzero magnitude — on a random cacheline.
    #[test]
    fn chipkill_corrects_any_single_symbol(
        data in any::<[u8; 64]>(),
        beat in 0usize..Chipkill::BEATS,
        chip in 0usize..Chipkill::TOTAL_CHIPS,
        magnitude in 1u8..=255,
    ) {
        let ck = Chipkill::new().expect("fixed geometry");
        let mut beats = ck.encode_line(&data).expect("encode");
        beats[beat][chip] ^= magnitude;
        let (line, outcome) = ck.correct_line(&mut beats).expect("well-formed");
        prop_assert_eq!(line, Some(data));
        prop_assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    /// A whole failed chip (one bad symbol in every beat) is still a
    /// single-symbol error per codeword, so the full line is recovered.
    #[test]
    fn chipkill_corrects_any_single_chip_failure(
        data in any::<[u8; 64]>(),
        chip in 0usize..Chipkill::TOTAL_CHIPS,
        magnitudes in any::<[u8; 4]>(),
    ) {
        prop_assume!(magnitudes.iter().any(|&m| m != 0));
        let ck = Chipkill::new().expect("fixed geometry");
        let mut beats = ck.encode_line(&data).expect("encode");
        for (beat, &m) in beats.iter_mut().zip(&magnitudes) {
            beat[chip] ^= m;
        }
        let (line, outcome) = ck.correct_line(&mut beats).expect("well-formed");
        prop_assert_eq!(line, Some(data));
        prop_assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    /// Two-symbol corruptions (two chips hit in the same beat) are never
    /// silently accepted: a weight-2 error sits below the code's minimum
    /// distance, so the corrupted word is never itself a valid codeword and
    /// the decode is never `Clean`. The bounded-distance decoder either
    /// flags the beat (no line returned) or miscorrects onto a *different*
    /// codeword — observably wrong data, caught by any integrity layer
    /// above (SYNERGY's MAC), never the original data passed off as clean.
    #[test]
    fn chipkill_never_silently_accepts_double_symbol(
        data in any::<[u8; 64]>(),
        beat in 0usize..Chipkill::BEATS,
        a in 0usize..Chipkill::TOTAL_CHIPS,
        b in 0usize..Chipkill::TOTAL_CHIPS,
        ma in 1u8..=255,
        mb in 1u8..=255,
    ) {
        prop_assume!(a != b);
        let ck = Chipkill::new().expect("fixed geometry");
        let mut beats = ck.encode_line(&data).expect("encode");
        beats[beat][a] ^= ma;
        beats[beat][b] ^= mb;
        let (line, outcome) = ck.correct_line(&mut beats).expect("well-formed");
        prop_assert_ne!(outcome, DecodeOutcome::Clean);
        match line {
            None => prop_assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable),
            Some(l) => {
                prop_assert_eq!(outcome, DecodeOutcome::Corrected);
                prop_assert_ne!(l, data, "miscorrection must not alias to the original line");
            }
        }
    }
}
