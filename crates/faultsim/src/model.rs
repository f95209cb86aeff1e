//! The fault-rate model: Table I of the paper (Sridharan & Liberty \[8\]).

use crate::fault::FaultMode;

/// FIT rates (failures per billion device-hours) for one failure mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModeRate {
    /// The failure mode.
    pub mode: FaultMode,
    /// Transient-fault FIT.
    pub transient_fit: f64,
    /// Permanent-fault FIT.
    pub permanent_fit: f64,
}

impl ModeRate {
    /// Combined FIT for the mode.
    pub fn total_fit(&self) -> f64 {
        self.transient_fit + self.permanent_fit
    }
}

/// A complete per-chip fault model.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    rates: Vec<ModeRate>,
    /// [`Self::total_fit`], summed once: `sample_mode` reads it per fault.
    total_fit: f64,
}

impl FaultModel {
    /// Table I of the paper — DRAM failures per billion hours per chip.
    pub fn sridharan() -> Self {
        use FaultMode::*;
        Self::with_rates(vec![
            ModeRate { mode: SingleBit, transient_fit: 14.2, permanent_fit: 18.6 },
            ModeRate { mode: SingleWord, transient_fit: 1.4, permanent_fit: 0.3 },
            ModeRate { mode: SingleColumn, transient_fit: 1.4, permanent_fit: 5.6 },
            ModeRate { mode: SingleRow, transient_fit: 0.2, permanent_fit: 8.2 },
            ModeRate { mode: SingleBank, transient_fit: 0.8, permanent_fit: 10.0 },
            ModeRate { mode: MultiBank, transient_fit: 0.3, permanent_fit: 1.4 },
            ModeRate { mode: MultiRank, transient_fit: 0.9, permanent_fit: 2.8 },
        ])
    }

    /// Builds a custom model.
    ///
    /// # Panics
    ///
    /// Panics if `rates` is empty or contains a negative rate.
    pub fn new(rates: Vec<ModeRate>) -> Self {
        assert!(!rates.is_empty(), "fault model needs at least one mode");
        for r in &rates {
            assert!(
                r.transient_fit >= 0.0 && r.permanent_fit >= 0.0,
                "FIT rates must be non-negative"
            );
        }
        Self::with_rates(rates)
    }

    fn with_rates(rates: Vec<ModeRate>) -> Self {
        let total_fit = rates.iter().map(ModeRate::total_fit).sum();
        Self { rates, total_fit }
    }

    /// Scales every rate by `factor` (for acceleration studies).
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        Self::with_rates(
            self.rates
                .iter()
                .map(|r| ModeRate {
                    mode: r.mode,
                    transient_fit: r.transient_fit * factor,
                    permanent_fit: r.permanent_fit * factor,
                })
                .collect(),
        )
    }

    /// Per-mode rates.
    pub fn rates(&self) -> &[ModeRate] {
        &self.rates
    }

    /// Total per-chip FIT across modes.
    pub fn total_fit(&self) -> f64 {
        self.total_fit
    }

    /// Expected faults for one chip over `hours`.
    pub fn expected_faults_per_chip(&self, hours: f64) -> f64 {
        self.total_fit() * 1e-9 * hours
    }

    /// Samples a (mode, permanent) pair proportionally to the rates.
    pub fn sample_mode<R: rand::Rng>(&self, rng: &mut R) -> (FaultMode, bool) {
        let mut x = rng.gen_range(0.0..self.total_fit);
        for r in &self.rates {
            if x < r.transient_fit {
                return (r.mode, false);
            }
            x -= r.transient_fit;
            if x < r.permanent_fit {
                return (r.mode, true);
            }
            x -= r.permanent_fit;
        }
        // Floating-point edge: attribute to the last mode.
        let last = self.rates.last().expect("non-empty by construction");
        (last.mode, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn table_one_totals() {
        let m = FaultModel::sridharan();
        // Sum of Table I: 14.2+18.6+1.4+0.3+1.4+5.6+0.2+8.2+0.8+10+0.3+1.4+0.9+2.8
        assert!((m.total_fit() - 66.1).abs() < 1e-9, "total {}", m.total_fit());
        assert_eq!(m.rates().len(), 7);
    }

    #[test]
    fn roughly_half_the_fits_defeat_secded() {
        // §II-B: single-bit failures are ~50% of the total; SECDED halves
        // the failure probability.
        let m = FaultModel::sridharan();
        let uncorrectable: f64 = m
            .rates()
            .iter()
            .filter(|r| r.mode.defeats_secded())
            .map(ModeRate::total_fit)
            .sum();
        let frac = uncorrectable / m.total_fit();
        assert!(frac > 0.3 && frac < 0.6, "uncorrectable fraction {frac}");
    }

    #[test]
    fn expected_faults_scale() {
        let m = FaultModel::sridharan();
        let seven_years = 7.0 * 365.25 * 24.0;
        let e = m.expected_faults_per_chip(seven_years);
        // 66.1e-9 * 61362 ≈ 4.06e-3 faults per chip over 7 years.
        assert!((e - 4.06e-3).abs() < 2e-4, "expected {e}");
        assert!((m.scaled(10.0).expected_faults_per_chip(seven_years) - 10.0 * e).abs() < 1e-9);
    }

    #[test]
    fn sample_mode_distribution_tracks_rates() {
        let m = FaultModel::sridharan();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let n = 100_000;
        let mut single_bit = 0;
        let mut permanent = 0;
        for _ in 0..n {
            let (mode, perm) = m.sample_mode(&mut rng);
            if mode == FaultMode::SingleBit {
                single_bit += 1;
            }
            if perm {
                permanent += 1;
            }
        }
        let sb_frac = single_bit as f64 / n as f64;
        let expected_sb = 32.8 / 66.1;
        assert!((sb_frac - expected_sb).abs() < 0.01, "single-bit {sb_frac}");
        let perm_frac = permanent as f64 / n as f64;
        let expected_perm = 46.9 / 66.1;
        assert!((perm_frac - expected_perm).abs() < 0.01, "permanent {perm_frac}");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_rates_rejected() {
        FaultModel::new(vec![ModeRate {
            mode: FaultMode::SingleBit,
            transient_fit: -1.0,
            permanent_fit: 0.0,
        }]);
    }
}
