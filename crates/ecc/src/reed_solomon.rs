//! The x8 Chipkill code — a single-symbol-correcting Reed–Solomon code.
//!
//! Chipkill-correct memory \[11\] stripes each beat of a memory transfer
//! across many DRAM chips, one field symbol per chip, and adds check
//! symbols so that the failure of *any one whole chip* is a single-symbol
//! error the code corrects. With x8 devices this requires ganging two
//! ECC-DIMMs (18 chips) in lock-step across two channels — the
//! bandwidth-halving cost that motivates SYNERGY (Figure 1(b)).
//!
//! [`Chipkill`] is that (18, 16) code over GF(2^8), with generator
//! `g(x) = (x − 1)(x − α)`: it encodes into stack arrays from tables and
//! corrects each beat in closed form. The serial division by `g(x)` that
//! builds its tables is also the encoder's test oracle, and a
//! search-based single-symbol decoder is the decoder's.

use core::convert::Infallible;

use crate::gf256 as gf;
use crate::DecodeOutcome;

/// The check symbols of one beat, `data · x² mod g(x)`, by serial division
/// one data symbol at a time, returned as the whole `data || check` beat.
/// `g(x) = (x − 1)(x − α) = x² + (1 ⊕ α)·x + α`.
fn encode_beat_reference(data: &[u8; Chipkill::DATA_CHIPS]) -> [u8; Chipkill::TOTAL_CHIPS] {
    let (g1, g0) = (1 ^ gf::alpha_pow(1), gf::alpha_pow(1));
    let mut rem = [0u8; 2];
    for &d in data {
        let coef = d ^ rem[0];
        rem = [rem[1] ^ gf::mul(coef, g1), gf::mul(coef, g0)];
    }
    let mut beat = [0u8; Chipkill::TOTAL_CHIPS];
    beat[..Chipkill::DATA_CHIPS].copy_from_slice(data);
    beat[Chipkill::DATA_CHIPS..].copy_from_slice(&rem);
    beat
}

/// The x8 Chipkill organization the paper evaluates: 18 chips across two
/// lock-stepped ECC-DIMMs, each beat carrying one byte per chip (16 data +
/// 2 check symbols), correcting any one failed chip of the 18.
///
/// A 64-byte cacheline is striped over [`Chipkill::BEATS`] beats.
///
/// ```
/// use synergy_ecc::reed_solomon::Chipkill;
/// use synergy_ecc::DecodeOutcome;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ck = Chipkill::new()?;
/// let data = [0x5A; 64];
/// let mut beats = ck.encode_line(&data)?;
///
/// // Chip 7 dies: every beat loses its 8th symbol.
/// for beat in beats.iter_mut() {
///     beat[7] = 0x00;
/// }
/// let (line, outcome) = ck.correct_line(&mut beats)?;
/// assert_eq!(line, Some(data));
/// assert_eq!(outcome, DecodeOutcome::Corrected);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Chipkill {
    /// `check[p][b]`: the two check symbols of a beat whose only nonzero
    /// data symbol is `b` at position `p`, symbol 16 in the low byte. The
    /// code is linear, so a beat's check symbols are the XOR of its
    /// sixteen entries.
    check: [[u16; 256]; Self::DATA_CHIPS],
    /// `syndrome[i][b] = b · α^(17 − i)`: what symbol `b` at beat index
    /// `i` adds to the syndrome `S1`, so `S1` is eighteen independent
    /// lookups instead of an eighteen-step Horner chain.
    syndrome: [[u8; 256]; Self::TOTAL_CHIPS],
}

impl Chipkill {
    /// Total chips in the lock-stepped pair of x8 ECC-DIMMs.
    pub const TOTAL_CHIPS: usize = 18;
    /// Data chips (the other two carry check symbols).
    pub const DATA_CHIPS: usize = 16;
    /// Beats per 64-byte cacheline (16 data bytes per beat).
    pub const BEATS: usize = 4;

    /// Creates the 18-chip Chipkill code.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for existing callers.
    pub fn new() -> Result<Self, Infallible> {
        let mut check = [[0u16; 256]; Self::DATA_CHIPS];
        for (p, row) in check.iter_mut().enumerate() {
            // The unit symbol's check symbols, scaled by every byte.
            let mut unit = [0u8; Self::DATA_CHIPS];
            unit[p] = 1;
            let parity = &encode_beat_reference(&unit)[Self::DATA_CHIPS..];
            for (b, entry) in row.iter_mut().enumerate() {
                let b = b as u8;
                *entry = u16::from_le_bytes([gf::mul(b, parity[0]), gf::mul(b, parity[1])]);
            }
        }
        let syndrome =
            core::array::from_fn(|i| gf::mul_row(gf::alpha_pow(Self::TOTAL_CHIPS - 1 - i)));
        Ok(Self { check, syndrome })
    }

    /// Encodes a 64-byte line into four 18-symbol beats (`data || check`).
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for existing callers.
    pub fn encode_line(&self, data: &[u8; 64]) -> Result<[[u8; 18]; 4], Infallible> {
        let mut beats = [[0u8; 18]; 4];
        for (beat, chunk) in beats.iter_mut().zip(data.chunks_exact(Self::DATA_CHIPS)) {
            // Sixteen independent lookups, not the serial division of
            // `encode_beat_reference`.
            let check =
                chunk.iter().zip(&self.check).fold(0, |acc, (&d, row)| acc ^ row[usize::from(d)]);
            beat[..Self::DATA_CHIPS].copy_from_slice(chunk);
            beat[Self::DATA_CHIPS..].copy_from_slice(&u16::to_le_bytes(check));
        }
        Ok(beats)
    }

    /// Corrects one beat in place, in closed form for a single-symbol code.
    ///
    /// An error `e` at beat index `i` (coefficient position `p = 17 − i`)
    /// gives `S0 = e` and `S1 = e·α^p`, so `p = log S1 − log S0`. Both
    /// syndromes zero is clean; exactly one zero, or a position past the
    /// beat, is uncorrectable and leaves the beat untouched. The tests pin
    /// this exhaustively against a decoder that searches the eighteen
    /// positions instead.
    fn correct_beat(&self, beat: &mut [u8; 18]) -> DecodeOutcome {
        // Evaluation at α^0 = 1 (a plain XOR) and at α.
        let (s0, s1) = beat
            .iter()
            .zip(&self.syndrome)
            .fold((0u8, 0u8), |(s0, s1), (&c, row)| (s0 ^ c, s1 ^ row[usize::from(c)]));
        match (s0, s1) {
            (0, 0) => DecodeOutcome::Clean,
            (0, _) | (_, 0) => DecodeOutcome::DetectedUncorrectable,
            _ => {
                let p = (gf::log(s1) + 255 - gf::log(s0)) % 255;
                if p >= Self::TOTAL_CHIPS {
                    return DecodeOutcome::DetectedUncorrectable;
                }
                beat[Self::TOTAL_CHIPS - 1 - p] ^= s0;
                DecodeOutcome::Corrected
            }
        }
    }

    /// Corrects all four beats and reassembles the line.
    ///
    /// Returns `(Some(line), outcome)` when every beat decodes; `(None,
    /// DetectedUncorrectable)` when any beat is beyond repair (e.g. two
    /// chips failed). Beats before the first uncorrectable one are left
    /// corrected, that beat and those after it untouched.
    ///
    /// # Errors
    ///
    /// Never fails; the `Result` is kept for existing callers.
    pub fn correct_line(
        &self,
        beats: &mut [[u8; 18]; 4],
    ) -> Result<(Option<[u8; 64]>, DecodeOutcome), Infallible> {
        let mut line = [0u8; 64];
        let mut worst = DecodeOutcome::Clean;
        for (beat, chunk) in beats.iter_mut().zip(line.chunks_exact_mut(Self::DATA_CHIPS)) {
            match self.correct_beat(beat) {
                DecodeOutcome::DetectedUncorrectable => {
                    return Ok((None, DecodeOutcome::DetectedUncorrectable))
                }
                DecodeOutcome::Corrected => worst = DecodeOutcome::Corrected,
                DecodeOutcome::Clean => {}
            }
            chunk.copy_from_slice(&beat[..Self::DATA_CHIPS]);
        }
        Ok((Some(line), worst))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The single-symbol decoder spelled out: `S0` and `S1` by Horner, a
    /// search of the eighteen beat indices for the one `i` with
    /// `S0·α^(17 − i) = S1`, the repair, and a re-check that the result is
    /// a codeword (rolled back if not). The oracle for the closed form.
    fn correct_beat_reference(beat: &mut [u8; 18]) -> DecodeOutcome {
        let syndromes = |beat: &[u8; 18]| {
            beat.iter().fold((0u8, 0u8), |(s0, s1), &c| (s0 ^ c, gf::mul(s1, gf::alpha_pow(1)) ^ c))
        };
        let (s0, s1) = syndromes(beat);
        if (s0, s1) == (0, 0) {
            return DecodeOutcome::Clean;
        }
        let Some(i) = (0..18).find(|&i| gf::mul(s0, gf::alpha_pow(17 - i)) == s1) else {
            return DecodeOutcome::DetectedUncorrectable;
        };
        beat[i] ^= s0;
        if syndromes(beat) == (0, 0) {
            return DecodeOutcome::Corrected;
        }
        beat[i] ^= s0;
        DecodeOutcome::DetectedUncorrectable
    }

    #[test]
    fn chipkill_roundtrip_and_chip_failure() {
        let ck = Chipkill::new().unwrap();
        let mut data = [0u8; 64];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i * 3) as u8;
        }
        let mut beats = ck.encode_line(&data).unwrap();
        let (line, outcome) = ck.correct_line(&mut beats.clone()).unwrap();
        assert_eq!(line, Some(data));
        assert_eq!(outcome, DecodeOutcome::Clean);

        // Kill chip 12 (a data chip) across all beats.
        for beat in beats.iter_mut() {
            beat[12] ^= 0xDE;
        }
        let (line, outcome) = ck.correct_line(&mut beats).unwrap();
        assert_eq!(line, Some(data));
        assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    #[test]
    fn chipkill_check_chip_failure_is_also_corrected() {
        let ck = Chipkill::new().unwrap();
        let data = [0xA7; 64];
        let mut beats = ck.encode_line(&data).unwrap();
        for beat in beats.iter_mut() {
            beat[17] = !beat[17]; // the last check chip
        }
        let (line, outcome) = ck.correct_line(&mut beats).unwrap();
        assert_eq!(line, Some(data));
        assert_eq!(outcome, DecodeOutcome::Corrected);
    }

    #[test]
    fn chipkill_two_chip_failure_detected() {
        let ck = Chipkill::new().unwrap();
        let data = [0x11; 64];
        let mut beats = ck.encode_line(&data).unwrap();
        for beat in beats.iter_mut() {
            beat[3] ^= 0x77;
            beat[8] ^= 0x21;
        }
        let (line, outcome) = ck.correct_line(&mut beats).unwrap();
        // Two whole chips exceed Chipkill — the paper's motivation for
        // counting "1 failure out of 18" as the reliability unit.
        assert_eq!(outcome, DecodeOutcome::DetectedUncorrectable);
        assert_eq!(line, None);
    }

    /// Every line with exactly one nonzero symbol, which reaches every
    /// entry of the contribution tables, against the serial division
    /// (random lines: `chipkill_encoder_matches_the_reference_on_random_lines`).
    #[test]
    fn chipkill_encoder_matches_the_reference_on_every_single_symbol_line() {
        let ck = Chipkill::new().unwrap();
        for pos in 0..64 {
            for symbol in 1..=255u8 {
                let mut data = [0u8; 64];
                data[pos] = symbol;
                let beats = ck.encode_line(&data).unwrap();
                for (beat, chunk) in beats.iter().zip(data.chunks_exact(16)) {
                    let expected = encode_beat_reference(chunk.try_into().unwrap());
                    assert_eq!(*beat, expected, "position {pos} symbol {symbol:#04x}");
                }
            }
        }
    }

    /// Every error pair `(e_a, e_b)` on two position pairs, through the
    /// closed-form beat decoder and through the search-based reference:
    /// same outcome, same bytes afterwards. On the check symbols (16, 17)
    /// the syndrome map is a bijection, so every `(S0, S1)` pair — every
    /// branch of the closed form — is reached.
    #[test]
    fn chipkill_beat_decoder_matches_the_reference_exhaustively() {
        let ck = Chipkill::new().unwrap();
        let data: [u8; 16] = core::array::from_fn(|i| (i * 29 + 7) as u8);
        let clean = encode_beat_reference(&data);
        assert_eq!(correct_beat_reference(&mut clean.clone()), DecodeOutcome::Clean);
        for (a, b) in [(16usize, 17usize), (2, 11)] {
            let mut outcomes = [0usize; 3];
            for e_a in 0..=255u8 {
                for e_b in 0..=255u8 {
                    let mut expected_beat = clean;
                    expected_beat[a] ^= e_a;
                    expected_beat[b] ^= e_b;
                    let mut beat = expected_beat;
                    let expected = correct_beat_reference(&mut expected_beat);
                    let outcome = ck.correct_beat(&mut beat);
                    let case = format!("positions {a},{b} errors {e_a:#04x},{e_b:#04x}");
                    assert_eq!(outcome, expected, "{case}");
                    assert_eq!(beat, expected_beat, "{case}");
                    outcomes[outcome as usize] += 1;
                }
            }
            assert!(outcomes.iter().all(|&n| n > 0), "positions {a},{b}: {outcomes:?}");
        }
    }

    proptest! {
        /// The table-driven encoder equals the serial division on every
        /// beat of a random line.
        #[test]
        fn chipkill_encoder_matches_the_reference_on_random_lines(data in any::<[u8; 64]>()) {
            let beats = Chipkill::new().unwrap().encode_line(&data).unwrap();
            for (beat, chunk) in beats.iter().zip(data.chunks_exact(Chipkill::DATA_CHIPS)) {
                prop_assert_eq!(*beat, encode_beat_reference(chunk.try_into().unwrap()));
            }
        }
    }
}
