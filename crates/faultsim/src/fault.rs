//! DRAM fault representation and range-intersection logic.
//!
//! Following the FAULTSIM methodology \[29\], a fault is a region of one
//! DRAM chip: each address dimension (bank, row, column, bit) is either
//! pinned to a value or wildcarded. Two faults collide when every
//! dimension intersects — the condition under which two chips contribute
//! simultaneous errors to the same ECC codeword.

/// Per-chip geometry used to scope fault regions (x8 DDR3, Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipGeometry {
    /// Banks per chip.
    pub banks: u32,
    /// Rows per bank.
    pub rows: u32,
    /// Word positions (cacheline beats) per row.
    pub cols: u32,
    /// Bits the chip contributes per word (x8 device → 8).
    pub bits_per_word: u32,
}

impl Default for ChipGeometry {
    fn default() -> Self {
        Self { banks: 8, rows: 65536, cols: 128, bits_per_word: 8 }
    }
}

/// The DRAM failure modes of Table I (Sridharan & Liberty field study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// One bit.
    SingleBit,
    /// One word (the chip's whole contribution to one codeword).
    SingleWord,
    /// One column: one bit position across every row of a bank.
    SingleColumn,
    /// One row: the chip's contribution to every word of one row.
    SingleRow,
    /// One whole bank.
    SingleBank,
    /// Multiple banks — modeled as the whole chip.
    MultiBank,
    /// Multiple ranks (shared-circuitry fault) — modeled as the whole chip
    /// within the evaluated rank.
    MultiRank,
}

impl FaultMode {
    /// All modes, Table I order.
    pub const ALL: [FaultMode; 7] = [
        FaultMode::SingleBit,
        FaultMode::SingleWord,
        FaultMode::SingleColumn,
        FaultMode::SingleRow,
        FaultMode::SingleBank,
        FaultMode::MultiBank,
        FaultMode::MultiRank,
    ];

    /// True when a single fault of this mode corrupts ≥ 2 bits of some
    /// 72-bit SECDED word — i.e. SECDED alone cannot correct it.
    ///
    /// Single-bit and single-column faults put at most one bit in any
    /// word; everything else takes out the chip's whole 8-bit contribution
    /// to at least one word.
    pub fn defeats_secded(self) -> bool {
        !matches!(self, FaultMode::SingleBit | FaultMode::SingleColumn)
    }
}

impl core::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FaultMode::SingleBit => "single-bit",
            FaultMode::SingleWord => "single-word",
            FaultMode::SingleColumn => "single-column",
            FaultMode::SingleRow => "single-row",
            FaultMode::SingleBank => "single-bank",
            FaultMode::MultiBank => "multi-bank",
            FaultMode::MultiRank => "multi-rank",
        };
        f.write_str(s)
    }
}

/// A cacheline-sized window of word columns within one bank row — the
/// coordinates of one accessed line. Fault-injection campaigns pin faults
/// inside a `LineRegion` so every sampled fault is guaranteed to touch the
/// line under test (see [`Fault::sample_in_line`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LineRegion {
    /// Bank holding the line.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
    /// First word column of the line (line-aligned).
    pub col_base: u32,
    /// Word columns per line (8 for a 64-byte line of 64-bit words).
    pub cols: u32,
}

impl LineRegion {
    /// Samples a line-aligned region within `geo`.
    pub fn sample<R: rand::Rng>(rng: &mut R, geo: &ChipGeometry, cols: u32) -> Self {
        let slots = (geo.cols / cols).max(1);
        Self {
            bank: rng.gen_range(0..geo.banks),
            row: rng.gen_range(0..geo.rows),
            col_base: rng.gen_range(0..slots) * cols,
            cols,
        }
    }
}

/// A fault region within one chip. `None` dimensions are wildcards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// Which chip of the correction domain (0-based).
    pub chip: usize,
    /// The failure mode that produced this region.
    pub mode: FaultMode,
    /// Whether the fault is permanent (persists forever) or transient
    /// (cleared by scrubbing, when enabled).
    pub permanent: bool,
    /// Arrival time in hours since deployment.
    pub at_hours: f64,
    /// Pinned bank, or all banks.
    pub bank: Option<u32>,
    /// Pinned row, or all rows.
    pub row: Option<u32>,
    /// Pinned column, or all columns.
    pub col: Option<u32>,
    /// Pinned bit within the chip's word contribution, or all bits.
    pub bit: Option<u32>,
}

impl Fault {
    /// Builds the fault region for `mode` at a uniformly random location.
    pub fn sample<R: rand::Rng>(
        rng: &mut R,
        geo: &ChipGeometry,
        chip: usize,
        mode: FaultMode,
        permanent: bool,
        at_hours: f64,
    ) -> Self {
        let bank = Some(rng.gen_range(0..geo.banks));
        let row = Some(rng.gen_range(0..geo.rows));
        let col = Some(rng.gen_range(0..geo.cols));
        let bit = Some(rng.gen_range(0..geo.bits_per_word));
        let (bank, row, col, bit) = match mode {
            FaultMode::SingleBit => (bank, row, col, bit),
            FaultMode::SingleWord => (bank, row, col, None),
            FaultMode::SingleColumn => (bank, None, col, bit),
            FaultMode::SingleRow => (bank, row, None, None),
            FaultMode::SingleBank => (bank, None, None, None),
            FaultMode::MultiBank | FaultMode::MultiRank => (None, None, None, None),
        };
        Self { chip, mode, permanent, at_hours, bank, row, col, bit }
    }

    /// Builds the fault region for `mode` with every per-mode pinned
    /// dimension drawn from inside `line`, so the fault is guaranteed to
    /// cover that line. Wildcard dimensions stay wildcards exactly as in
    /// [`Fault::sample`] — a `SingleColumn` fault still spans every row,
    /// but its pinned column falls inside the line's window.
    ///
    /// Differential fault-injection campaigns use this to generate
    /// scenarios whose functional injection (into one concrete stored
    /// line) and analytic evaluation (range intersection) describe the
    /// same physical event.
    pub fn sample_in_line<R: rand::Rng>(
        rng: &mut R,
        geo: &ChipGeometry,
        chip: usize,
        mode: FaultMode,
        permanent: bool,
        at_hours: f64,
        line: &LineRegion,
    ) -> Self {
        let mut f = Self::sample(rng, geo, chip, mode, permanent, at_hours);
        if f.bank.is_some() {
            f.bank = Some(line.bank);
        }
        if f.row.is_some() {
            f.row = Some(line.row);
        }
        if f.col.is_some() {
            f.col = Some(line.col_base + rng.gen_range(0..line.cols));
        }
        f
    }

    /// True when the two regions share at least one *word* address
    /// (bank, row, column) — the collision condition for symbol-based
    /// codes, where two bad chips in one codeword are fatal.
    pub fn words_intersect(&self, other: &Fault) -> bool {
        self.granules_intersect(other, 1)
    }

    /// True when the two regions share at least one correction *granule* —
    /// a run of `granule_cols` consecutive word columns within one
    /// (bank, row). A granule is the span of one correction codeword:
    /// 1 column for per-word SECDED, 2 columns for a beat-level Chipkill
    /// symbol code, 8 columns (a whole cacheline) for SYNERGY's
    /// line-granular MAC + RAID-3 flow. Two chips failing anywhere inside
    /// the same granule defeat a single-symbol-correcting code even when
    /// the word columns differ — the differential campaign caught exactly
    /// this divergence between word-granular analytics and the functional
    /// decoders.
    pub fn granules_intersect(&self, other: &Fault, granule_cols: u32) -> bool {
        let g = granule_cols.max(1);
        dim_intersects(self.bank, other.bank)
            && dim_intersects(self.row, other.row)
            && dim_intersects(self.col.map(|c| c / g), other.col.map(|c| c / g))
    }
}

#[inline]
fn dim_intersects(a: Option<u32>, b: Option<u32>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x == y,
        _ => true, // a wildcard intersects everything
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    fn fault(chip: usize, mode: FaultMode) -> Fault {
        Fault::sample(&mut rng(), &ChipGeometry::default(), chip, mode, true, 0.0)
    }

    #[test]
    fn mode_secded_classification_matches_paper() {
        // §II-B: SECDED covers single-bit (and per-word-disjoint column)
        // faults — about half the FIT budget — and nothing larger.
        assert!(!FaultMode::SingleBit.defeats_secded());
        assert!(!FaultMode::SingleColumn.defeats_secded());
        for m in [
            FaultMode::SingleWord,
            FaultMode::SingleRow,
            FaultMode::SingleBank,
            FaultMode::MultiBank,
            FaultMode::MultiRank,
        ] {
            assert!(m.defeats_secded(), "{m}");
        }
    }

    #[test]
    fn sampled_region_shape_per_mode() {
        let f = fault(0, FaultMode::SingleBit);
        assert!(f.bank.is_some() && f.row.is_some() && f.col.is_some() && f.bit.is_some());
        let f = fault(0, FaultMode::SingleColumn);
        assert!(f.row.is_none() && f.col.is_some());
        let f = fault(0, FaultMode::SingleRow);
        assert!(f.row.is_some() && f.col.is_none());
        let f = fault(0, FaultMode::SingleBank);
        assert!(f.bank.is_some() && f.row.is_none() && f.col.is_none());
        let f = fault(0, FaultMode::MultiBank);
        assert!(f.bank.is_none());
    }

    #[test]
    fn whole_chip_fault_intersects_everything() {
        let whole = fault(0, FaultMode::MultiBank);
        for mode in FaultMode::ALL {
            let other = fault(1, mode);
            assert!(whole.words_intersect(&other), "{mode}");
        }
    }

    #[test]
    fn pinned_dimensions_must_match() {
        let mut a = fault(0, FaultMode::SingleBit);
        let mut b = fault(1, FaultMode::SingleBit);
        a.bank = Some(0);
        a.row = Some(10);
        a.col = Some(5);
        b.bank = Some(0);
        b.row = Some(10);
        b.col = Some(5);
        assert!(a.words_intersect(&b));
        b.col = Some(6);
        assert!(!a.words_intersect(&b));
    }

    #[test]
    fn row_and_column_faults_cross_at_one_word() {
        // A row fault (row pinned, col wild) and a column fault (col
        // pinned, row wild) in the same bank always share one word.
        let mut row_f = fault(0, FaultMode::SingleRow);
        let mut col_f = fault(1, FaultMode::SingleColumn);
        row_f.bank = Some(3);
        col_f.bank = Some(3);
        assert!(row_f.words_intersect(&col_f));
        col_f.bank = Some(4);
        assert!(!row_f.words_intersect(&col_f));
    }

    #[test]
    fn sample_in_line_always_covers_the_line() {
        let geo = ChipGeometry::default();
        let mut r = rng();
        for _ in 0..200 {
            let line = LineRegion::sample(&mut r, &geo, 8);
            for mode in FaultMode::ALL {
                let f = Fault::sample_in_line(&mut r, &geo, 0, mode, true, 0.0, &line);
                // The fault intersects a fully pinned word inside the line.
                let probe = Fault {
                    chip: 1,
                    mode: FaultMode::SingleBit,
                    permanent: true,
                    at_hours: 0.0,
                    bank: Some(line.bank),
                    row: Some(line.row),
                    col: Some(f.col.unwrap_or(line.col_base)),
                    bit: None,
                };
                assert!(f.words_intersect(&probe), "{mode} must cover its line");
                if let Some(c) = f.col {
                    assert!(
                        c >= line.col_base && c < line.col_base + line.cols,
                        "{mode}: col {c} outside line at {}",
                        line.col_base
                    );
                }
                assert_eq!(f.bank.is_some(), Fault::sample(&mut r, &geo, 0, mode, true, 0.0).bank.is_some());
            }
        }
    }

    #[test]
    fn granule_intersection_coarsens_word_intersection() {
        let mut a = fault(0, FaultMode::SingleBit);
        let mut b = fault(1, FaultMode::SingleBit);
        a.bank = Some(0);
        a.row = Some(7);
        a.col = Some(4);
        b.bank = Some(0);
        b.row = Some(7);
        b.col = Some(5);
        // Different words: no word-level collision, but the same 2-column
        // beat and the same 8-column line.
        assert!(!a.words_intersect(&b));
        assert!(a.granules_intersect(&b, 2));
        assert!(a.granules_intersect(&b, 8));
        // Adjacent columns in different beats still share the line granule.
        b.col = Some(3);
        assert!(!a.granules_intersect(&b, 2));
        assert!(a.granules_intersect(&b, 8));
        // Different lines: nothing intersects.
        b.col = Some(13);
        assert!(!a.granules_intersect(&b, 8));
        // Wildcards intersect at any granularity.
        b.col = None;
        assert!(a.granules_intersect(&b, 1));
        assert!(a.granules_intersect(&b, 8));
    }
}
