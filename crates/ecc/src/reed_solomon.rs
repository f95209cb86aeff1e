//! Reed–Solomon codes over GF(2^8) — the substrate of commercial Chipkill.
//!
//! Chipkill-correct memory \[11\] stripes each beat of a memory transfer
//! across many DRAM chips, one field symbol per chip, and adds check
//! symbols so that the failure of *any one whole chip* is a single-symbol
//! error the code corrects. With x8 devices this requires ganging two
//! ECC-DIMMs (18 chips) in lock-step across two channels — the
//! bandwidth-halving cost that motivates SYNERGY (Figure 1(b)).
//!
//! [`ReedSolomon`] is a general systematic RS encoder/decoder (any data and
//! parity length with `n ≤ 255`), with Berlekamp–Massey error location and
//! syndrome-solving magnitude recovery. [`Chipkill`] is the fixed
//! 18-chip, 2-check-symbol organization the paper compares against: it
//! encodes into stack arrays and corrects each beat in closed form, with
//! the general code as its test oracle.

use crate::gf256 as gf;
use crate::DecodeOutcome;

/// Errors reported by the Reed–Solomon APIs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Requested code parameters exceed the field (n > 255) or are empty.
    InvalidParameters {
        /// Requested number of data symbols.
        data_len: usize,
        /// Requested number of parity symbols.
        parity_len: usize,
    },
    /// Input slice length does not match the code's expectation.
    LengthMismatch {
        /// Expected number of symbols.
        expected: usize,
        /// Provided number of symbols.
        actual: usize,
    },
}

impl core::fmt::Display for RsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            RsError::InvalidParameters { data_len, parity_len } => write!(
                f,
                "invalid reed-solomon parameters: {data_len} data + {parity_len} parity symbols"
            ),
            RsError::LengthMismatch { expected, actual } => {
                write!(f, "expected {expected} symbols, got {actual}")
            }
        }
    }
}

impl std::error::Error for RsError {}

/// Report of a successful correction pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrectionReport {
    /// Outcome classification (clean / corrected / uncorrectable).
    pub outcome: DecodeOutcome,
    /// Codeword indices that were repaired (empty when clean).
    pub corrected_positions: Vec<usize>,
}

/// A systematic Reed–Solomon code over GF(2^8).
///
/// Codewords are laid out `data || parity` with index 0 the
/// highest-degree coefficient.
///
/// ```
/// use synergy_ecc::reed_solomon::ReedSolomon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rs = ReedSolomon::new(16, 2)?; // the x8-Chipkill geometry
/// let data: Vec<u8> = (0..16).collect();
/// let mut cw = rs.encode_codeword(&data)?;
///
/// cw[5] ^= 0xFF; // an entire chip's symbol goes bad
/// let report = rs.correct(&mut cw)?;
/// assert_eq!(&cw[..16], &data[..]);
/// assert_eq!(report.corrected_positions, vec![5]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    data_len: usize,
    parity_len: usize,
    /// Generator polynomial, descending coefficient order, monic.
    gen: Vec<u8>,
    /// Per-generator-coefficient multiplication rows (`gen[k+1] · x`),
    /// turning the encode inner loop into one load per parity symbol.
    enc_rows: Vec<[u8; 256]>,
    /// Per-syndrome-index multiplication rows (`α^j · x`) for the Horner
    /// step of syndrome evaluation.
    synd_rows: Vec<[u8; 256]>,
}

impl ReedSolomon {
    /// Constructs a code with `data_len` data and `parity_len` check symbols.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] when either length is zero or
    /// the codeword would exceed the 255-symbol field bound.
    pub fn new(data_len: usize, parity_len: usize) -> Result<Self, RsError> {
        if data_len == 0 || parity_len == 0 || data_len + parity_len > 255 {
            return Err(RsError::InvalidParameters { data_len, parity_len });
        }
        // g(x) = Π_{i=0}^{parity_len-1} (x - α^i)
        let mut gen = vec![1u8];
        for i in 0..parity_len {
            gen = poly_mul(&gen, &[1, gf::alpha_pow(i)]);
        }
        let enc_rows = gen[1..].iter().map(|&g| gf::mul_row(g)).collect();
        let synd_rows = (0..parity_len)
            .map(|j| gf::mul_row(gf::alpha_pow(j)))
            .collect();
        Ok(Self { data_len, parity_len, gen, enc_rows, synd_rows })
    }

    /// Number of data symbols per codeword.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Number of parity symbols per codeword.
    pub fn parity_len(&self) -> usize {
        self.parity_len
    }

    /// Total codeword length.
    pub fn codeword_len(&self) -> usize {
        self.data_len + self.parity_len
    }

    /// The generator polynomial `g(x) = Π (x - α^i)`, descending
    /// coefficient order, monic (`parity_len + 1` coefficients).
    pub fn generator(&self) -> &[u8] {
        &self.gen
    }

    /// Maximum number of unknown-position symbol errors the code corrects.
    pub fn correctable_errors(&self) -> usize {
        self.parity_len / 2
    }

    /// Computes the parity symbols for `data`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data` is not `data_len` long.
    pub fn encode(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        if data.len() != self.data_len {
            return Err(RsError::LengthMismatch { expected: self.data_len, actual: data.len() });
        }
        // Synthetic division of data·x^parity_len by the generator. Each
        // step multiplies every generator coefficient by the same `coef`,
        // so the precomputed per-coefficient rows make the inner loop a
        // single indexed load per parity symbol.
        let mut rem = vec![0u8; self.parity_len];
        for &d in data {
            let coef = d ^ rem[0];
            rem.rotate_left(1);
            *rem.last_mut().unwrap() = 0;
            if coef != 0 {
                for (r, row) in rem.iter_mut().zip(self.enc_rows.iter()) {
                    *r ^= row[coef as usize];
                }
            }
        }
        Ok(rem)
    }

    /// Encodes `data` into a full `data || parity` codeword.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `data` is not `data_len` long.
    pub fn encode_codeword(&self, data: &[u8]) -> Result<Vec<u8>, RsError> {
        let parity = self.encode(data)?;
        let mut cw = Vec::with_capacity(self.codeword_len());
        cw.extend_from_slice(data);
        cw.extend_from_slice(&parity);
        Ok(cw)
    }

    /// Computes the syndrome vector `S_j = c(α^j)` — Horner evaluation with
    /// the per-`α^j` multiplication row doing the fold step.
    fn syndromes(&self, codeword: &[u8]) -> Vec<u8> {
        self.synd_rows
            .iter()
            .map(|row| {
                codeword
                    .iter()
                    .fold(0u8, |acc, &c| row[acc as usize] ^ c)
            })
            .collect()
    }

    /// Detects and corrects up to `parity_len / 2` symbol errors in place.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] if `codeword` has the wrong
    /// length. An uncorrectable pattern is *not* an `Err`: it is reported as
    /// [`DecodeOutcome::DetectedUncorrectable`] so callers can distinguish
    /// API misuse from data loss.
    pub fn correct(&self, codeword: &mut [u8]) -> Result<CorrectionReport, RsError> {
        self.correct_with_erasures(codeword, &[])
    }

    /// Corrects with prior knowledge that the symbols at `erasures`
    /// (codeword indices) may be wrong — e.g. a chip already identified as
    /// failed. Erasures cost one check symbol each instead of two, so a
    /// 2-parity code can repair up to 2 known-bad chips.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] for a wrong-length codeword or an
    /// out-of-range erasure index.
    pub fn correct_with_erasures(
        &self,
        codeword: &mut [u8],
        erasures: &[usize],
    ) -> Result<CorrectionReport, RsError> {
        let n = self.codeword_len();
        if codeword.len() != n {
            return Err(RsError::LengthMismatch { expected: n, actual: codeword.len() });
        }
        for &e in erasures {
            if e >= n {
                return Err(RsError::LengthMismatch { expected: n, actual: e });
            }
        }

        let synd = self.syndromes(codeword);
        if synd.iter().all(|&s| s == 0) {
            return Ok(CorrectionReport {
                outcome: DecodeOutcome::Clean,
                corrected_positions: Vec::new(),
            });
        }

        // Candidate error coefficient-positions: erasures first, then
        // Berlekamp–Massey for the unknown ones.
        let erasure_coefs: Vec<usize> = erasures.iter().map(|&i| n - 1 - i).collect();
        let coef_positions = if erasures.is_empty() {
            match self.locate_errors(&synd, n) {
                Some(p) => p,
                None => {
                    return Ok(CorrectionReport {
                        outcome: DecodeOutcome::DetectedUncorrectable,
                        corrected_positions: Vec::new(),
                    })
                }
            }
        } else {
            erasure_coefs
        };

        if coef_positions.is_empty() || coef_positions.len() > self.parity_len {
            return Ok(CorrectionReport {
                outcome: DecodeOutcome::DetectedUncorrectable,
                corrected_positions: Vec::new(),
            });
        }

        // Solve S_j = Σ_i v_i · α^(j·p_i) for the magnitudes v_i using the
        // first t syndrome equations (Gaussian elimination over GF(2^8)).
        let magnitudes = match solve_magnitudes(&synd, &coef_positions) {
            Some(m) => m,
            None => {
                return Ok(CorrectionReport {
                    outcome: DecodeOutcome::DetectedUncorrectable,
                    corrected_positions: Vec::new(),
                })
            }
        };

        let mut corrected_positions = Vec::new();
        for (&p, &v) in coef_positions.iter().zip(magnitudes.iter()) {
            if v != 0 {
                codeword[n - 1 - p] ^= v;
                corrected_positions.push(n - 1 - p);
            }
        }
        corrected_positions.sort_unstable();

        // A decode is only trustworthy if the repaired word is a codeword.
        if self.syndromes(codeword).iter().any(|&s| s != 0) {
            // Roll back to avoid handing back a half-patched buffer.
            for (&p, &v) in coef_positions.iter().zip(magnitudes.iter()) {
                codeword[n - 1 - p] ^= v;
            }
            return Ok(CorrectionReport {
                outcome: DecodeOutcome::DetectedUncorrectable,
                corrected_positions: Vec::new(),
            });
        }

        Ok(CorrectionReport { outcome: DecodeOutcome::Corrected, corrected_positions })
    }

    /// Berlekamp–Massey + Chien search: returns error coefficient-positions,
    /// or `None` when the locator is inconsistent (too many errors).
    fn locate_errors(&self, synd: &[u8], n: usize) -> Option<Vec<usize>> {
        // Berlekamp–Massey, ascending coefficient order, Λ[0] = 1.
        let mut lambda = vec![1u8];
        let mut prev = vec![1u8];
        let mut l = 0usize;
        let mut m = 1usize;
        let mut b = 1u8;
        for i in 0..synd.len() {
            let mut delta = synd[i];
            for j in 1..=l.min(lambda.len() - 1) {
                delta ^= gf::mul(lambda[j], synd[i - j]);
            }
            if delta == 0 {
                m += 1;
            } else if 2 * l <= i {
                let t = lambda.clone();
                lambda = poly_sub_scaled_shifted(&lambda, &prev, gf::div(delta, b), m);
                l = i + 1 - l;
                prev = t;
                b = delta;
                m = 1;
            } else {
                lambda = poly_sub_scaled_shifted(&lambda, &prev, gf::div(delta, b), m);
                m += 1;
            }
        }
        if l > self.correctable_errors() {
            return None;
        }
        // Chien search: coefficient position p is in error iff Λ(α^{-p}) = 0.
        let mut positions = Vec::new();
        for p in 0..n {
            let x = gf::alpha_pow((255 - (p % 255)) % 255);
            if poly_eval_ascending(&lambda, x) == 0 {
                positions.push(p);
            }
        }
        if positions.len() == l {
            Some(positions)
        } else {
            None
        }
    }
}

/// Gaussian elimination over GF(2^8): solve `A v = S` where
/// `A[j][i] = α^(j·p_i)` for the first `t` syndromes.
fn solve_magnitudes(synd: &[u8], coef_positions: &[usize]) -> Option<Vec<u8>> {
    let t = coef_positions.len();
    let mut a: Vec<Vec<u8>> = (0..t)
        .map(|j| {
            coef_positions
                .iter()
                .map(|&p| gf::alpha_pow(j * p % 255))
                .collect()
        })
        .collect();
    let mut s: Vec<u8> = synd[..t].to_vec();

    for col in 0..t {
        let pivot = (col..t).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        s.swap(col, pivot);
        let inv = gf::inv(a[col][col]);
        gf::mul_slice(&mut a[col][col..], inv);
        s[col] = gf::mul(s[col], inv);
        for r in 0..t {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                // Rows `r` and `col` alias the same matrix, so an indexed
                // loop stays (iterating `a[r]` mutably would borrow-conflict
                // with reading the pivot row).
                #[allow(clippy::needless_range_loop)]
                for c in col..t {
                    a[r][c] ^= gf::mul(f, a[col][c]);
                }
                s[r] ^= gf::mul(f, s[col]);
            }
        }
    }
    Some(s)
}

/// `lambda - scale · x^shift · prev`, ascending coefficient order.
fn poly_sub_scaled_shifted(lambda: &[u8], prev: &[u8], scale: u8, shift: usize) -> Vec<u8> {
    let mut out = lambda.to_vec();
    if out.len() < prev.len() + shift {
        out.resize(prev.len() + shift, 0);
    }
    for (k, &c) in prev.iter().enumerate() {
        out[k + shift] ^= gf::mul(scale, c);
    }
    out
}

/// Polynomial multiplication, descending coefficient order.
fn poly_mul(a: &[u8], b: &[u8]) -> Vec<u8> {
    let mut out = vec![0u8; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        for (j, &y) in b.iter().enumerate() {
            out[i + j] ^= gf::mul(x, y);
        }
    }
    out
}

/// Horner evaluation, descending coefficient order — oracle for the
/// row-table syndrome loop.
#[cfg(test)]
fn poly_eval(poly: &[u8], x: u8) -> u8 {
    poly.iter().fold(0u8, |acc, &c| gf::mul(acc, x) ^ c)
}

/// Horner evaluation, ascending coefficient order.
fn poly_eval_ascending(poly: &[u8], x: u8) -> u8 {
    poly.iter().rev().fold(0u8, |acc, &c| gf::mul(acc, x) ^ c)
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
    /// Never fails in practice; the signature mirrors [`ReedSolomon::new`].
    pub fn new() -> Result<Self, RsError> {
        let rs = ReedSolomon::new(Self::DATA_CHIPS, 2)?;
        let mut check = [[0u16; 256]; Self::DATA_CHIPS];
        for (p, row) in check.iter_mut().enumerate() {
            // The unit symbol's check symbols, scaled by every byte.
            let mut unit = [0u8; Self::DATA_CHIPS];
            unit[p] = 1;
            let parity = rs.encode(&unit)?;
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
    /// Never fails; the `Result` mirrors [`ReedSolomon::encode`].
    pub fn encode_line(&self, data: &[u8; 64]) -> Result<[[u8; 18]; 4], RsError> {
        let mut beats = [[0u8; 18]; 4];
        for (beat, chunk) in beats.iter_mut().zip(data.chunks_exact(Self::DATA_CHIPS)) {
            // Sixteen independent lookups, not the serial division of
            // `ReedSolomon::encode`.
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
    /// beat, is uncorrectable and leaves the beat untouched. This is what
    /// [`ReedSolomon::correct`] decides for this code (Berlekamp–Massey,
    /// Chien search and the one-unknown magnitude solve), pinned
    /// exhaustively by the tests.
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
    /// Never fails; the `Result` mirrors [`ReedSolomon::correct`].
    pub fn correct_line(
        &self,
        beats: &mut [[u8; 18]; 4],
    ) -> Result<(Option<[u8; 64]>, DecodeOutcome), RsError> {
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

    fn rs(d: usize, p: usize) -> ReedSolomon {
        ReedSolomon::new(d, p).unwrap()
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(ReedSolomon::new(0, 2).is_err());
        assert!(ReedSolomon::new(16, 0).is_err());
        assert!(ReedSolomon::new(254, 2).is_err());
        assert!(ReedSolomon::new(253, 2).is_ok());
    }

    #[test]
    fn row_table_syndromes_match_direct_evaluation() {
        for (d, p) in [(16usize, 2usize), (12, 4), (32, 8)] {
            let code = rs(d, p);
            let cw: Vec<u8> = (0..d + p).map(|i| (i * 29 + 5) as u8).collect();
            let direct: Vec<u8> = (0..p)
                .map(|j| poly_eval(&cw, gf::alpha_pow(j)))
                .collect();
            assert_eq!(code.syndromes(&cw), direct, "({d},{p})");
        }
    }

    #[test]
    fn codeword_has_zero_syndromes() {
        let code = rs(16, 4);
        let data: Vec<u8> = (0..16).map(|i| i * 7 + 3).collect();
        let cw = code.encode_codeword(&data).unwrap();
        assert!(code.syndromes(&cw).iter().all(|&s| s == 0));
    }

    #[test]
    fn clean_decode() {
        let code = rs(16, 2);
        let data = vec![9u8; 16];
        let mut cw = code.encode_codeword(&data).unwrap();
        let report = code.correct(&mut cw).unwrap();
        assert_eq!(report.outcome, DecodeOutcome::Clean);
        assert!(report.corrected_positions.is_empty());
    }

    #[test]
    fn corrects_single_error_at_every_position() {
        let code = rs(16, 2);
        let data: Vec<u8> = (0..16).collect();
        let clean = code.encode_codeword(&data).unwrap();
        for pos in 0..code.codeword_len() {
            for magnitude in [0x01u8, 0x80, 0xFF] {
                let mut cw = clean.clone();
                cw[pos] ^= magnitude;
                let report = code.correct(&mut cw).unwrap();
                assert_eq!(report.outcome, DecodeOutcome::Corrected, "pos {pos}");
                assert_eq!(report.corrected_positions, vec![pos]);
                assert_eq!(cw, clean);
            }
        }
    }

    #[test]
    fn corrects_double_errors_with_four_check_symbols() {
        let code = rs(12, 4);
        let data: Vec<u8> = (0..12).map(|i| i * 13 + 1).collect();
        let clean = code.encode_codeword(&data).unwrap();
        for a in 0..16 {
            for b in (a + 1)..16 {
                let mut cw = clean.clone();
                cw[a] ^= 0x3C;
                cw[b] ^= 0xA1;
                let report = code.correct(&mut cw).unwrap();
                assert_eq!(report.outcome, DecodeOutcome::Corrected, "pos {a},{b}");
                assert_eq!(cw, clean);
            }
        }
    }

    #[test]
    fn double_error_beyond_single_correct_capability_is_flagged_or_safe() {
        // With only 2 check symbols, two symbol errors exceed capability.
        // A bounded-distance decoder either flags them or (rarely) lands on
        // a different codeword; our decoder re-checks syndromes so a silent
        // wrong answer must itself be a valid codeword — count how often
        // the decode is flagged.
        let code = rs(16, 2);
        let data: Vec<u8> = (0..16).collect();
        let clean = code.encode_codeword(&data).unwrap();
        let mut flagged = 0;
        let mut total = 0;
        for a in 0..17 {
            let b = a + 1;
            let mut corrupted = clean.clone();
            corrupted[a] ^= 0x55;
            corrupted[b] ^= 0x55;
            total += 1;
            let mut cw = corrupted.clone();
            let report = code.correct(&mut cw).unwrap();
            // Miscorrection to some valid codeword is possible in
            // principle for beyond-capability errors, so only the flagged
            // outcome carries an obligation.
            if report.outcome == DecodeOutcome::DetectedUncorrectable {
                flagged += 1;
                // On a flagged decode the buffer must be left exactly as
                // the caller provided it (no half-applied patches).
                assert_eq!(cw, corrupted, "buffer must be rolled back");
            }
        }
        assert!(flagged * 2 >= total, "most double errors should be flagged");
    }

    #[test]
    fn erasure_correction_repairs_two_known_chips() {
        let code = rs(16, 2);
        let data: Vec<u8> = (0..16).map(|i| 255 - i).collect();
        let clean = code.encode_codeword(&data).unwrap();
        let mut cw = clean.clone();
        cw[2] = 0;
        cw[9] = 0xEE;
        let report = code.correct_with_erasures(&mut cw, &[2, 9]).unwrap();
        assert_eq!(report.outcome, DecodeOutcome::Corrected);
        assert_eq!(cw, clean);
    }

    #[test]
    fn erasure_with_clean_symbol_is_benign() {
        let code = rs(8, 2);
        let data = vec![1u8; 8];
        let clean = code.encode_codeword(&data).unwrap();
        let mut cw = clean.clone();
        cw[4] ^= 0x10;
        // Declare both a truly-bad and an actually-fine position.
        let report = code.correct_with_erasures(&mut cw, &[4, 6]).unwrap();
        assert_eq!(report.outcome, DecodeOutcome::Corrected);
        assert_eq!(cw, clean);
        assert_eq!(report.corrected_positions, vec![4]);
    }

    #[test]
    fn wrong_length_is_an_error() {
        let code = rs(16, 2);
        assert!(matches!(
            code.encode(&[0u8; 15]),
            Err(RsError::LengthMismatch { expected: 16, actual: 15 })
        ));
        let mut short = vec![0u8; 17];
        assert!(code.correct(&mut short).is_err());
    }

    #[test]
    fn random_single_errors_fuzz() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let code = rs(16, 2);
        for _ in 0..500 {
            let data: Vec<u8> = (0..16).map(|_| rng.gen()).collect();
            let clean = code.encode_codeword(&data).unwrap();
            let mut cw = clean.clone();
            let pos = rng.gen_range(0..18);
            let mag = rng.gen_range(1..=255u8);
            cw[pos] ^= mag;
            let report = code.correct(&mut cw).unwrap();
            assert_eq!(report.outcome, DecodeOutcome::Corrected);
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn random_t_errors_fuzz_with_wide_code() {
        use rand::{seq::SliceRandom, Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let code = rs(32, 8); // corrects 4 errors
        for trial in 0..200 {
            let data: Vec<u8> = (0..32).map(|_| rng.gen()).collect();
            let clean = code.encode_codeword(&data).unwrap();
            let mut cw = clean.clone();
            let nerr = rng.gen_range(1..=4);
            let mut positions: Vec<usize> = (0..40).collect();
            positions.shuffle(&mut rng);
            for &pos in positions.iter().take(nerr) {
                cw[pos] ^= rng.gen_range(1..=255u8);
            }
            let report = code.correct(&mut cw).unwrap();
            assert_eq!(
                report.outcome,
                DecodeOutcome::Corrected,
                "trial {trial}, {nerr} errors"
            );
            assert_eq!(cw, clean, "trial {trial}");
        }
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
    /// (random lines: `chipkill_encoder_matches_reed_solomon_encode` in
    /// the proptests).
    #[test]
    fn chipkill_encoder_matches_the_general_code_on_every_single_symbol_line() {
        let ck = Chipkill::new().unwrap();
        let code = rs(16, 2);
        for pos in 0..64 {
            for symbol in 1..=255u8 {
                let mut data = [0u8; 64];
                data[pos] = symbol;
                let beats = ck.encode_line(&data).unwrap();
                for (beat, chunk) in beats.iter().zip(data.chunks_exact(16)) {
                    let expected = code.encode_codeword(chunk).unwrap();
                    assert_eq!(beat[..], expected[..], "position {pos} symbol {symbol:#04x}");
                }
            }
        }
    }

    /// Every error pair `(e_a, e_b)` on two position pairs, through the
    /// closed-form beat decoder and through the general Berlekamp–Massey
    /// decoder: same outcome, same bytes afterwards. On the check symbols
    /// (16, 17) the syndrome map is a bijection, so every `(S0, S1)` pair
    /// — every branch of the closed form — is reached.
    #[test]
    fn chipkill_beat_decoder_matches_the_general_code_exhaustively() {
        let ck = Chipkill::new().unwrap();
        let code = rs(16, 2);
        let data: Vec<u8> = (0..16usize).map(|i| (i * 29 + 7) as u8).collect();
        let clean = code.encode_codeword(&data).unwrap();
        for (a, b) in [(16usize, 17usize), (2, 11)] {
            let mut outcomes = [0usize; 3];
            for e_a in 0..=255u8 {
                for e_b in 0..=255u8 {
                    let mut general = clean.clone();
                    general[a] ^= e_a;
                    general[b] ^= e_b;
                    let mut beat: [u8; 18] = general[..].try_into().unwrap();
                    let expected = code.correct(&mut general).unwrap().outcome;
                    let outcome = ck.correct_beat(&mut beat);
                    let case = format!("positions {a},{b} errors {e_a:#04x},{e_b:#04x}");
                    assert_eq!(outcome, expected, "{case}");
                    assert_eq!(beat[..], general[..], "{case}");
                    outcomes[outcome as usize] += 1;
                }
            }
            assert!(outcomes.iter().all(|&n| n > 0), "positions {a},{b}: {outcomes:?}");
        }
    }
}
