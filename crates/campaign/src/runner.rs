//! Functional execution of one scenario, and its analytic verdict.
//!
//! The runner is the "ground truth" half of the differential: it pushes a
//! scenario's corruption through the real storage + recovery code of each
//! design and reduces the result to an [`Outcome`]. The analytic half is a
//! single [`EccPolicy::first_failure`] call over the same faults.
//!
//! [`EccPolicy::first_failure`]: synergy_faultsim::EccPolicy::first_failure

use std::cell::RefCell;
use std::sync::OnceLock;

use synergy_core::memory::{MemoryError, SynergyMemory, SynergyMemoryConfig};
use synergy_core::secded_memory::{SecdedError, SecdedMemory};
use synergy_crypto::CacheLine;
use synergy_ecc::reed_solomon::Chipkill;
use synergy_faultsim::HOURS_PER_YEAR;

use crate::scenario::{Design, Scenario, TargetRegion, WORDS_PER_LINE};

/// Data capacity of the per-scenario functional memories (bytes).
pub const MEMORY_CAPACITY: u64 = 1 << 12;

/// Device lifetime assumed for the analytic verdict (paper: 7 years).
pub const LIFETIME_HOURS: f64 = 7.0 * HOURS_PER_YEAR;

/// Classification of one functional recovery attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The read returned the original data (clean or corrected).
    Corrected,
    /// The decoder flagged the error as uncorrectable (DUE).
    DetectedUncorrectable,
    /// The read "succeeded" with wrong data — silent data corruption.
    SilentDataCorruption,
    /// SYNERGY declared an attack / unrecoverable integrity violation.
    CrashDetected,
}

impl Outcome {
    /// All outcomes, matrix-column order.
    pub const ALL: [Outcome; 4] = [
        Outcome::Corrected,
        Outcome::DetectedUncorrectable,
        Outcome::SilentDataCorruption,
        Outcome::CrashDetected,
    ];

    /// Stable lower-case label (metric/CSV keys).
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Corrected => "corrected",
            Outcome::DetectedUncorrectable => "due",
            Outcome::SilentDataCorruption => "sdc",
            Outcome::CrashDetected => "crash",
        }
    }

    /// Whether this outcome counts as a device failure (the analytic
    /// model's "uncorrectable" bucket): anything but a clean correction.
    pub fn is_failure(self) -> bool {
        !matches!(self, Outcome::Corrected)
    }

    /// Inverse of [`label`](Self::label) — used when deserializing
    /// checkpointed campaign aggregates.
    pub fn from_label(label: &str) -> Option<Outcome> {
        Outcome::ALL.into_iter().find(|o| o.label() == label)
    }
}

/// Result of one functional injection run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FunctionalResult {
    /// Outcome classification.
    pub outcome: Outcome,
    /// MAC computations the read performed (SYNERGY only; 0 otherwise).
    pub mac_computations: u32,
}

/// Runs the scenario through its design's functional pipeline.
///
/// The SECDED and SYNERGY pipelines run on this thread's working memory
/// for their design, pristine whenever an injection starts: a warm
/// injection allocates nothing, and each scenario stays a self-contained
/// `(seed, index)` reproducer. SYNERGY's is restored from the template in
/// place first. A SECDED scenario writes, corrupts and reads only its own
/// line, so zeroing that line afterwards restores SECDED's.
pub fn run_functional(scenario: &Scenario) -> FunctionalResult {
    match scenario.design {
        Design::Secded => WORKING_SECDED.with_borrow_mut(|m| {
            let result = run_secded(m, scenario);
            m.write_line(scenario.data_addr, &CacheLine::zeroed()).expect("in range");
            result
        }),
        Design::Chipkill => run_chipkill(scenario),
        Design::Synergy => WORKING_SYNERGY.with_borrow_mut(|m| {
            m.clone_from(pristine_synergy());
            run_synergy(m, scenario)
        }),
    }
}

/// The analytic verdict for the scenario's faults: `true` when
/// [`EccPolicy::first_failure`] predicts an uncorrectable error within the
/// device lifetime (no scrubbing — scenarios inject at `t = 0`).
///
/// [`EccPolicy::first_failure`]: synergy_faultsim::EccPolicy::first_failure
pub fn analytic_fails(scenario: &Scenario) -> bool {
    let policy = scenario.design.policy();
    scenario
        .with_analytic_faults(|faults| policy.first_failure(faults, LIFETIME_HOURS, None).is_some())
}

thread_local! {
    /// This thread's working memories (see [`run_functional`]).
    static WORKING_SECDED: RefCell<SecdedMemory> =
        RefCell::new(SecdedMemory::new(MEMORY_CAPACITY));
    static WORKING_SYNERGY: RefCell<SynergyMemory> =
        RefCell::new(pristine_synergy().clone());
}

fn run_secded(m: &mut SecdedMemory, scenario: &Scenario) -> FunctionalResult {
    let addr = scenario.data_addr;
    let truth = CacheLine::from_bytes(scenario.truth);
    m.write_line(addr, &truth).expect("in range");
    for (chip, masks) in scenario.chip_masks().into_iter().enumerate() {
        if masks != [0; WORDS_PER_LINE] {
            m.inject_chip_pattern(addr, chip, masks);
        }
    }
    let outcome = match m.read_line(addr) {
        Ok(out) if out.data == truth => Outcome::Corrected,
        Ok(_) => Outcome::SilentDataCorruption,
        Err(SecdedError::UncorrectableError { .. }) => Outcome::DetectedUncorrectable,
        Err(e) => unreachable!("SECDED read failed structurally: {e}"),
    };
    FunctionalResult { outcome, mac_computations: 0 }
}

/// The Chipkill codec, built once per process; it is immutable.
fn chipkill() -> &'static Chipkill {
    static CHIPKILL: OnceLock<Chipkill> = OnceLock::new();
    CHIPKILL.get_or_init(|| Chipkill::new().expect("fixed geometry"))
}

/// A pristine SYNERGY memory of [`MEMORY_CAPACITY`] bytes, keyed and
/// fully materialized once per process, so no injection rebuilds the zero
/// state of the lines it touches. It is never written: each thread's
/// working memory is restored from it before every injection. (Scenarios
/// corrupt single lines, never a whole chip, so materializing every line
/// up front changes no outcome.)
fn pristine_synergy() -> &'static SynergyMemory {
    static TEMPLATE: OnceLock<SynergyMemory> = OnceLock::new();
    TEMPLATE.get_or_init(|| {
        let mut m = SynergyMemory::new(SynergyMemoryConfig {
            // Cross-read fault tracking would make outcomes depend on
            // scenario order.
            fault_tracking_threshold: None,
            ..SynergyMemoryConfig::with_capacity(MEMORY_CAPACITY)
        })
        .expect("valid capacity");
        m.materialize_all();
        m
    })
}

fn run_chipkill(scenario: &Scenario) -> FunctionalResult {
    let ck = chipkill();
    let mut beats = ck.encode_line(&scenario.truth).expect("encode");
    // Chip `c` contributes one RS symbol per beat; a beat spans two word
    // columns, so the symbol's corruption is the union of both words'
    // masks (stuck-at semantics, as in `Scenario::chip_masks`).
    for (chip, masks) in scenario.chip_masks().into_iter().enumerate() {
        for (b, beat) in beats.iter_mut().enumerate() {
            beat[chip] ^= masks[2 * b] | masks[2 * b + 1];
        }
    }
    let outcome = match ck.correct_line(&mut beats).expect("well-formed") {
        (Some(line), _) if line == scenario.truth => Outcome::Corrected,
        (Some(_), _) => Outcome::SilentDataCorruption,
        (None, _) => Outcome::DetectedUncorrectable,
    };
    FunctionalResult { outcome, mac_computations: 0 }
}

fn run_synergy(m: &mut SynergyMemory, scenario: &Scenario) -> FunctionalResult {
    let addr = scenario.data_addr;
    let truth = CacheLine::from_bytes(scenario.truth);
    m.write_line(addr, &truth).expect("in range");
    let target = match scenario.region {
        TargetRegion::Data => addr,
        TargetRegion::Counter => m.layout().counter_line_addr(addr),
        TargetRegion::Parity => m.layout().parity_line_addr(addr),
    };
    for (chip, masks) in scenario.chip_masks().into_iter().enumerate() {
        if masks != [0; WORDS_PER_LINE] {
            m.inject_chip_pattern(target, chip, masks);
        }
    }
    match m.read_line(addr) {
        Ok(out) if out.data == truth => {
            FunctionalResult { outcome: Outcome::Corrected, mac_computations: out.mac_computations }
        }
        Ok(out) => FunctionalResult {
            outcome: Outcome::SilentDataCorruption,
            mac_computations: out.mac_computations,
        },
        Err(MemoryError::AttackDetected { .. }) => {
            FunctionalResult { outcome: Outcome::CrashDetected, mac_computations: 0 }
        }
        Err(e) => unreachable!("SYNERGY read failed structurally: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::scenario_for;
    use synergy_faultsim::{ChipGeometry, FaultModel};

    #[test]
    fn every_sampled_scenario_agrees_with_the_analytic_model() {
        let geo = ChipGeometry::default();
        let model = FaultModel::sridharan();
        for index in 0..600 {
            let s = scenario_for(0xD1FF, index, &model, &geo, MEMORY_CAPACITY / 64);
            let functional = run_functional(&s);
            let analytic = analytic_fails(&s);
            assert_eq!(
                functional.outcome.is_failure(),
                analytic,
                "index {index}: functional {:?} vs analytic fail={analytic}\n{s:#?}",
                functional.outcome
            );
        }
    }

    /// Scenario `i` on a fresh memory of its design.
    fn run_fresh(s: &Scenario) -> FunctionalResult {
        match s.design {
            Design::Secded => run_secded(&mut SecdedMemory::new(MEMORY_CAPACITY), s),
            Design::Chipkill => run_chipkill(s),
            Design::Synergy => run_synergy(&mut pristine_synergy().clone(), s),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The working memory a scenario leaves behind does not leak into
        /// the next: scenario `j` then scenario `i` on one thread gives
        /// `i` the result it has on a fresh clone of the template. `j`
        /// shares `i`'s design, so it ran on the same working memory.
        #[test]
        fn restored_working_memory_isolates_scenarios(
            seed in 0u64..1 << 20,
            i in 0u64..30_000,
            j in 0u64..10_000,
        ) {
            let geo = ChipGeometry::default();
            let model = FaultModel::sridharan();
            let scenario = |index| scenario_for(seed, index, &model, &geo, MEMORY_CAPACITY / 64);
            let (si, sj) = (scenario(i), scenario(3 * j + i % 3));
            run_functional(&sj);
            proptest::prop_assert_eq!(run_functional(&si), run_fresh(&si));
        }
    }

    #[test]
    fn synergy_single_chip_scenarios_never_fail() {
        let geo = ChipGeometry::default();
        let model = FaultModel::sridharan();
        let mut checked = 0;
        for index in 0..900 {
            let s = scenario_for(0xBEEF, index, &model, &geo, MEMORY_CAPACITY / 64);
            if s.design != Design::Synergy {
                continue;
            }
            let chips: std::collections::HashSet<usize> =
                s.faults.iter().map(|f| f.fault.chip).collect();
            if chips.len() != 1 {
                continue;
            }
            checked += 1;
            let out = run_functional(&s).outcome;
            assert_eq!(out, Outcome::Corrected, "index {index}: {s:#?}");
        }
        assert!(checked > 30, "only {checked} single-chip SYNERGY scenarios");
    }
}
