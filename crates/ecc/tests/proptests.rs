//! Property-based tests for the ECC substrate.

use proptest::prelude::*;
use synergy_ecc::parity::{self, ParityLine};
use synergy_ecc::reed_solomon::{Chipkill, ReedSolomon};
use synergy_ecc::secded::Codeword;
use synergy_ecc::DecodeOutcome;

proptest! {
    /// Every word encodes to a codeword that decodes clean to itself.
    #[test]
    fn secded_roundtrip(data in any::<u64>()) {
        let (decoded, outcome) = Codeword::encode(data).decode();
        prop_assert_eq!(decoded, Some(data));
        prop_assert_eq!(outcome, DecodeOutcome::Clean);
    }

    /// Any single-bit error in any codeword is corrected.
    #[test]
    fn secded_corrects_single_bit(data in any::<u64>(), pos in 0usize..72) {
        let (decoded, outcome) = Codeword::encode(data).with_bit_flipped(pos).decode();
        prop_assert_eq!(decoded, Some(data));
        prop_assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    /// Any double-bit error is detected, never miscorrected.
    #[test]
    fn secded_detects_double_bits(data in any::<u64>(), a in 0usize..72, b in 0usize..72) {
        prop_assume!(a != b);
        let (decoded, outcome) =
            Codeword::encode(data).with_bit_flipped(a).with_bit_flipped(b).decode();
        prop_assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable);
        prop_assert_eq!(decoded, None);
    }

    /// Reed–Solomon corrects any single symbol error at any position and
    /// magnitude, for arbitrary data.
    #[test]
    fn rs_corrects_single_symbol(
        data in proptest::collection::vec(any::<u8>(), 16),
        pos in 0usize..18,
        magnitude in 1u8..=255,
    ) {
        let rs = ReedSolomon::new(16, 2).expect("valid geometry");
        let clean = rs.encode_codeword(&data).expect("encode");
        let mut cw = clean.clone();
        cw[pos] ^= magnitude;
        let report = rs.correct(&mut cw).expect("well-formed call");
        prop_assert_eq!(report.outcome, DecodeOutcome::Corrected);
        prop_assert_eq!(cw, clean);
    }

    /// A wider RS code corrects any two symbol errors.
    #[test]
    fn rs_corrects_double_symbol(
        data in proptest::collection::vec(any::<u8>(), 12),
        a in 0usize..16,
        b in 0usize..16,
        ma in 1u8..=255,
        mb in 1u8..=255,
    ) {
        prop_assume!(a != b);
        let rs = ReedSolomon::new(12, 4).expect("valid geometry");
        let clean = rs.encode_codeword(&data).expect("encode");
        let mut cw = clean.clone();
        cw[a] ^= ma;
        cw[b] ^= mb;
        let report = rs.correct(&mut cw).expect("well-formed call");
        prop_assert_eq!(report.outcome, DecodeOutcome::Corrected);
        prop_assert_eq!(cw, clean);
    }

    /// Erasure decoding repairs any two known-bad symbols with only two
    /// check symbols.
    #[test]
    fn rs_erasures(
        data in proptest::collection::vec(any::<u8>(), 16),
        a in 0usize..18,
        b in 0usize..18,
        garbage in any::<[u8; 2]>(),
    ) {
        prop_assume!(a != b);
        let rs = ReedSolomon::new(16, 2).expect("valid geometry");
        let clean = rs.encode_codeword(&data).expect("encode");
        let mut cw = clean.clone();
        cw[a] = garbage[0];
        cw[b] = garbage[1];
        let report = rs.correct_with_erasures(&mut cw, &[a, b]).expect("well-formed call");
        prop_assert_eq!(report.outcome, DecodeOutcome::Corrected);
        prop_assert_eq!(cw, clean);
    }

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

    /// The parity-of-parities reconstructs any parity slot.
    #[test]
    fn parity_line_reconstructs_any_slot(slots in any::<[[u8; 8]; 8]>(), failed in 0usize..8) {
        let line = ParityLine::new(slots);
        prop_assert!(line.is_consistent());
        prop_assert_eq!(line.reconstruct_parity(failed), slots[failed]);
    }

    /// The table-driven Chipkill encoder equals the general code's serial
    /// division on every beat of a random line.
    #[test]
    fn chipkill_encoder_matches_reed_solomon_encode(data in any::<[u8; 64]>()) {
        let ck = Chipkill::new().expect("fixed geometry");
        let code = ReedSolomon::new(Chipkill::DATA_CHIPS, 2).expect("valid code");
        let beats = ck.encode_line(&data).expect("encode");
        for (beat, chunk) in beats.iter().zip(data.chunks_exact(Chipkill::DATA_CHIPS)) {
            prop_assert_eq!(&beat[..Chipkill::DATA_CHIPS], chunk);
            prop_assert_eq!(&beat[Chipkill::DATA_CHIPS..], &code.encode(chunk).expect("encode")[..]);
        }
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
