//! Deterministic fault-scenario construction.
//!
//! A [`Scenario`] is the complete, replayable description of one
//! differential injection: which design is under test, which metadata
//! region is hit, the accessed line's DRAM coordinates, one or two
//! [`Fault`] regions pinned inside that line, and the exact per-word XOR
//! masks the faults stamp onto their chip. Scenario `index` under campaign
//! `seed` always reconstructs the identical scenario
//! ([`scenario_for`]), which is what makes every mismatch replayable from
//! its `(seed, index)` pair alone.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use synergy_ecc::reed_solomon::Chipkill;
use synergy_faultsim::{ChipGeometry, EccPolicy, Fault, FaultMode, FaultModel, LineRegion};
use synergy_obs::InlineVec;

/// Word columns per 64-byte cacheline (64-bit words).
pub const WORDS_PER_LINE: usize = 8;

/// Chips in the widest correction domain, Chipkill's: the length of
/// [`Scenario::chip_masks`].
pub const MAX_CHIPS: usize = Chipkill::TOTAL_CHIPS;

/// Odd multiplier decorrelating per-index RNG streams (splitmix64 gamma).
const INDEX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The three functional designs the campaign exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Design {
    /// 9-chip ECC-DIMM with (72,64) SECDED per word.
    Secded,
    /// 18-chip lock-stepped Chipkill (RS symbol correction, 4 beats/line).
    Chipkill,
    /// 9-chip SYNERGY: MAC detection + RAID-3 chip reconstruction.
    Synergy,
}

impl Design {
    /// All designs, Figure 11 order.
    pub const ALL: [Design; 3] = [Design::Secded, Design::Chipkill, Design::Synergy];

    /// The analytic policy this design is diffed against.
    pub fn policy(self) -> EccPolicy {
        match self {
            Design::Secded => EccPolicy::Secded,
            Design::Chipkill => EccPolicy::Chipkill,
            Design::Synergy => EccPolicy::Synergy,
        }
    }

    /// Chips in the correction domain (fault-injection targets).
    pub fn chips(self) -> usize {
        self.policy().domain_chips()
    }

    /// Stable lower-case label (metric/CSV keys).
    pub fn label(self) -> &'static str {
        match self {
            Design::Secded => "secded",
            Design::Chipkill => "chipkill",
            Design::Synergy => "synergy",
        }
    }
}

/// Which stored region the faults land in.
///
/// Only SYNERGY has distinct metadata regions; SECDED and Chipkill
/// scenarios always target data lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetRegion {
    /// The accessed data line itself.
    Data,
    /// The line holding the access's encryption counter (+ ParityC).
    Counter,
    /// The line holding the access's RAID-3 parity (+ ParityP).
    Parity,
}

impl TargetRegion {
    /// Stable lower-case label.
    pub fn label(self) -> &'static str {
        match self {
            TargetRegion::Data => "data",
            TargetRegion::Counter => "counter",
            TargetRegion::Parity => "parity",
        }
    }
}

/// One fault plus the concrete per-word XOR masks it stamps onto its chip
/// within the accessed line (`masks[w]` corrupts word `col_base + w`; zero
/// means the word is outside the fault's region).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioFault {
    /// The analytic fault region (chip, mode, pinned dims).
    pub fault: Fault,
    /// Per-word corruption masks, aligned to the line's word columns.
    pub masks: [u8; WORDS_PER_LINE],
}

/// A fault that stamps nothing: a transient single bit of chip 0 with
/// every mask zero. It fills the unused inline slots of
/// [`Scenario::faults`]; the sampler never emits it.
impl Default for ScenarioFault {
    fn default() -> Self {
        let fault = Fault {
            chip: 0,
            mode: FaultMode::SingleBit,
            permanent: false,
            at_hours: 0.0,
            bank: None,
            row: None,
            col: None,
            bit: None,
        };
        Self { fault, masks: [0; WORDS_PER_LINE] }
    }
}

/// The faults of one scenario: the one or two a sampled scenario carries
/// live inline, so building a scenario allocates nothing.
pub type ScenarioFaults = InlineVec<ScenarioFault, 2>;

/// A complete, replayable differential-injection scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Design under test.
    pub design: Design,
    /// Region the faults are injected into.
    pub region: TargetRegion,
    /// DRAM coordinates of the accessed line.
    pub line: LineRegion,
    /// Data-line address used for the functional run (64-byte aligned,
    /// within the runner's memory capacity).
    pub data_addr: u64,
    /// One or two faults pinned inside `line`.
    pub faults: ScenarioFaults,
    /// Plaintext truth written before injection.
    pub truth: [u8; 64],
}

impl Scenario {
    /// Per-chip union of all fault masks, OR-combined per word. Entry `c`
    /// is chip `c`'s; the entries past the design's
    /// [`chips`](Design::chips) stay zero.
    ///
    /// OR (not XOR) models stuck-at semantics: two faults pinning the same
    /// bit of the same word are one physical error, which is exactly the
    /// analytic model's same-chip same-bit exception for SECDED.
    pub fn chip_masks(&self) -> [[u8; WORDS_PER_LINE]; MAX_CHIPS] {
        let mut masks = [[0u8; WORDS_PER_LINE]; MAX_CHIPS];
        for sf in &self.faults {
            let chip = &mut masks[sf.fault.chip];
            for (m, s) in chip.iter_mut().zip(sf.masks) {
                *m |= s;
            }
        }
        masks
    }

    /// Calls `f` with the bare analytic faults, for
    /// [`EccPolicy::first_failure`]. The one or two faults a sampled
    /// scenario carries are passed on the stack.
    pub fn with_analytic_faults<T>(&self, f: impl FnOnce(&[Fault]) -> T) -> T {
        match self.faults.as_slice() {
            [a] => f(&[a.fault]),
            [a, b] => f(&[a.fault, b.fault]),
            many => f(&many.iter().map(|sf| sf.fault).collect::<Vec<_>>()),
        }
    }
}

/// Reconstructs scenario `index` of the campaign seeded with `seed`.
///
/// Deterministic: the same `(seed, index, model, geometry)` always yields
/// the identical scenario regardless of sharding or thread count. Designs
/// rotate by index (`index % 3`) so every design sees exactly a third of
/// any contiguous index range. Allocation-free.
pub fn scenario_for(
    seed: u64,
    index: u64,
    model: &FaultModel,
    geo: &ChipGeometry,
    data_lines: u64,
) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ index.wrapping_mul(INDEX_GAMMA));
    let design = Design::ALL[(index % 3) as usize];
    let line = LineRegion::sample(&mut rng, geo, WORDS_PER_LINE as u32);
    let region = if design == Design::Synergy {
        match rng.gen_range(0..8u32) {
            0 => TargetRegion::Counter,
            1 => TargetRegion::Parity,
            _ => TargetRegion::Data,
        }
    } else {
        TargetRegion::Data
    };
    // Parity-region scenarios stay single-fault: a multi-chip corruption of
    // an unread parity line is functionally benign (the data read never
    // consults it) while the region-blind analytic model calls it fatal —
    // a modeling gap outside this campaign's scope, excluded by
    // construction and documented in EXPERIMENTS.md.
    let n_faults = if region == TargetRegion::Parity { 1 } else { 1 + rng.gen_range(0..2u32) };
    let mut faults = ScenarioFaults::new();
    for _ in 0..n_faults {
        let chip = rng.gen_range(0..design.chips() as u32) as usize;
        let (mode, permanent) = model.sample_mode(&mut rng);
        let fault = Fault::sample_in_line(&mut rng, geo, chip, mode, permanent, 0.0, &line);
        let masks = sample_masks(&mut rng, &fault, &line);
        faults.push(ScenarioFault { fault, masks });
    }
    if design == Design::Secded {
        constrain_check_chip(&mut rng, &mut faults, &line, design.chips() - 1);
    }
    let data_addr = rng.gen_range(0..data_lines) * 64;
    let mut truth = [0u8; 64];
    rng.fill_bytes(&mut truth);
    Scenario { design, region, line, data_addr, faults, truth }
}

/// Keeps every per-word error union on the SECDED check chip at even (or
/// single-bit) weight.
///
/// The (72,64) code stores its check bits at power-of-two codeword
/// positions. An odd-weight multi-bit error confined to the check byte
/// leaves the data untouched and produces an odd overall parity with a
/// syndrome that is the XOR of power-of-two positions — which can point
/// past the end of the codeword (e.g. positions 2⊕16⊕64 = 82 > 71). The
/// decoder then "corrects" a phantom bit and returns the intact data: a
/// benign outcome the mode-level analytic model (which cannot see *where*
/// in the byte the flips landed) scores as fatal. Even-weight check-byte
/// errors can never alias this way — the syndrome is nonzero (powers of
/// two are linearly independent) with even parity, a guaranteed DUE.
/// Individual masks are already even ([`ACCEPT`]), but the OR
/// union of a bit-pinned and a wildcard fault on the same word can be odd,
/// so wildcard masks are re-drawn until the union is safe. This was found
/// by the campaign itself (seed `0x5E_CA3B`, index 963) and is recorded in
/// EXPERIMENTS.md.
fn constrain_check_chip<R: Rng>(
    rng: &mut R,
    faults: &mut [ScenarioFault],
    line: &LineRegion,
    check_chip: usize,
) {
    loop {
        let mut union = [0u8; WORDS_PER_LINE];
        for sf in faults.iter().filter(|sf| sf.fault.chip == check_chip) {
            for (u, m) in union.iter_mut().zip(sf.masks) {
                *u |= m;
            }
        }
        if union.iter().all(|&m| m.count_ones() < 2 || m.count_ones().is_multiple_of(2)) {
            return;
        }
        // An odd union of weight >= 3 always involves a wildcard fault
        // (bit-pinned faults contribute one bit each, and there are at
        // most two faults), so re-drawing wildcard masks can always fix it.
        for sf in faults
            .iter_mut()
            .filter(|sf| sf.fault.chip == check_chip && sf.fault.bit.is_none())
        {
            sf.masks = sample_masks(rng, &sf.fault, line);
        }
    }
}

/// `ACCEPT[b]` is 1 when byte `b` has an even number (≥ 2) of bits set.
///
/// Even weight keeps the functional SECDED outcome aligned with the
/// analytic verdict for wildcard-bit faults: an even number of flips in
/// one codeword can never masquerade as a correctable single-bit error
/// (overall parity stays even), so it is always a DUE or an observable
/// miscorrection — exactly the "defeats SECDED" failure the mode-level
/// model predicts. See [`constrain_check_chip`] for the check-chip
/// aliasing this rules out.
const ACCEPT: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut b = 0;
    while b < 256 {
        let weight = (b as u8).count_ones();
        table[b] = (weight >= 2 && weight.is_multiple_of(2)) as u8;
        b += 1;
    }
    table
};

/// Concrete per-word corruption masks for a line-pinned fault.
///
/// Bit-pinned faults (single-bit, single-column) flip exactly their pinned
/// bit. Wildcard-bit faults (word, row, bank, chip modes) corrupt the
/// chip's whole per-word contribution with a uniformly random byte of even
/// weight ≥ 2 ([`ACCEPT`]) — the physical signature that makes those modes
/// defeat SECDED, keeping the functional injection aligned with
/// [`FaultMode::defeats_secded`].
///
/// The wildcard masks are drawn by rejection in one loop over the covered
/// words: every draw is stored in the current word, which is kept only
/// when the draw is acceptable. Each draw is one `next_u64`, as
/// `Rng::gen::<u8>` takes it, so the stream is the per-word rejection
/// loop's.
fn sample_masks<R: Rng>(rng: &mut R, fault: &Fault, line: &LineRegion) -> [u8; WORDS_PER_LINE] {
    let mut masks = [0u8; WORDS_PER_LINE];
    let words = match fault.col {
        None => 0..WORDS_PER_LINE,
        Some(col) => match col.checked_sub(line.col_base).map(|w| w as usize) {
            Some(w) if w < WORDS_PER_LINE => w..w + 1,
            _ => 0..0,
        },
    };
    match fault.bit {
        Some(b) => masks[words].fill(1u8 << b),
        None => {
            let mut w = words.start;
            while w < words.end {
                let b = rng.next_u64() as u8;
                masks[w] = b;
                w += usize::from(ACCEPT[usize::from(b)]);
            }
        }
    }
    masks
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FaultModel {
        FaultModel::sridharan()
    }

    #[test]
    fn scenarios_are_deterministic() {
        let geo = ChipGeometry::default();
        for index in 0..200 {
            let a = scenario_for(0xC0FFEE, index, &model(), &geo, 64);
            let b = scenario_for(0xC0FFEE, index, &model(), &geo, 64);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn designs_rotate_by_index() {
        let geo = ChipGeometry::default();
        for index in 0..9 {
            let s = scenario_for(1, index, &model(), &geo, 64);
            assert_eq!(s.design, Design::ALL[(index % 3) as usize]);
        }
    }

    #[test]
    fn every_fault_stamps_a_nonzero_mask_on_its_chip() {
        let geo = ChipGeometry::default();
        for index in 0..500 {
            let s = scenario_for(7, index, &model(), &geo, 64);
            assert!(!s.faults.is_empty() && s.faults.len() <= 2);
            for sf in &s.faults {
                assert!(sf.fault.chip < s.design.chips());
                assert!(
                    sf.masks.iter().any(|&m| m != 0),
                    "fault must corrupt at least one word of its line"
                );
                // Defeating modes carry even-weight ≥2-bit masks in every
                // affected byte (see `ACCEPT`).
                if sf.fault.mode.defeats_secded() {
                    for &m in sf.masks.iter().filter(|&&m| m != 0) {
                        assert!(
                            m.count_ones() >= 2 && m.count_ones().is_multiple_of(2),
                            "{:?}: mask {m:#x}",
                            sf.fault.mode
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parity_region_scenarios_are_single_fault() {
        let geo = ChipGeometry::default();
        let mut seen_parity = false;
        for index in 0..3000 {
            let s = scenario_for(3, index, &model(), &geo, 64);
            if s.region == TargetRegion::Parity {
                seen_parity = true;
                assert_eq!(s.faults.len(), 1);
            }
            if s.design != Design::Synergy {
                assert_eq!(s.region, TargetRegion::Data);
            }
        }
        assert!(seen_parity, "parity region must be sampled");
    }

    #[test]
    fn secded_check_chip_unions_are_never_odd_multibit() {
        // Odd-weight multi-bit errors on the check chip can alias to a
        // phantom-bit "correction" (see `constrain_check_chip`); the
        // sampler must never emit one.
        let geo = ChipGeometry::default();
        let model = model();
        for index in 0..5000 {
            let s = scenario_for(11, index, &model, &geo, 64);
            if s.design != Design::Secded {
                continue;
            }
            let check = s.design.chips() - 1;
            for &m in &s.chip_masks()[check] {
                assert!(
                    m.count_ones() < 2 || m.count_ones().is_multiple_of(2),
                    "index {index}: odd multi-bit check-chip union {m:#x}"
                );
            }
        }
    }

    #[test]
    fn chip_masks_cover_every_design() {
        assert!(Design::ALL.iter().all(|d| d.chips() <= MAX_CHIPS));
        let geo = ChipGeometry::default();
        for index in 0..30 {
            let s = scenario_for(13, index, &model(), &geo, 64);
            let masks = s.chip_masks();
            assert!(masks[s.design.chips()..].iter().all(|m| *m == [0; WORDS_PER_LINE]));
            for sf in &s.faults {
                assert!(masks[sf.fault.chip].iter().zip(sf.masks).all(|(u, m)| u & m == m));
            }
        }
    }

    #[test]
    fn analytic_faults_keep_every_fault_in_order() {
        let geo = ChipGeometry::default();
        let pool: Vec<ScenarioFault> =
            (0..4).map(|i| scenario_for(5, i, &model(), &geo, 64).faults[0]).collect();
        let mut s = scenario_for(5, 0, &model(), &geo, 64);
        for n in 0..=pool.len() {
            s.faults = pool[..n].iter().copied().collect();
            let expected: Vec<Fault> = s.faults.iter().map(|sf| sf.fault).collect();
            s.with_analytic_faults(|faults| assert_eq!(faults, expected.as_slice()));
        }
    }

    #[test]
    fn chip_masks_or_union_preserves_same_bit_overlap() {
        let geo = ChipGeometry::default();
        let model = model();
        let mut s = scenario_for(5, 0, &model, &geo, 64);
        // Force two identical single-bit faults on the same chip/word/bit.
        let f = s.faults[0];
        s.faults = [f, f].into_iter().collect();
        let masks = s.chip_masks();
        let total_bits: u32 = masks[f.fault.chip].iter().map(|m| m.count_ones()).sum();
        let single_bits: u32 = f.masks.iter().map(|m| m.count_ones()).sum();
        assert_eq!(total_bits, single_bits, "OR union must not double-count");
    }
}
