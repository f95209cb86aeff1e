//! DRAM energy accounting (Micron-current-model style).
//!
//! Energy is attributed per event — activations, read/write bursts and I/O —
//! plus background power integrated over simulated time. This matches how
//! USIMM reports memory power and is what Figure 10's energy and EDP bars
//! are built from: designs that issue more bursts (SGX, SGX_O MAC traffic)
//! pay proportionally more dynamic energy, and designs that run longer pay
//! more background energy.

use crate::config::PowerParams;
use crate::stats::DramStats;

/// Energy breakdown for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyBreakdown {
    /// Activation + precharge energy, joules.
    pub activate_j: f64,
    /// Read burst energy, joules.
    pub read_j: f64,
    /// Write burst energy, joules.
    pub write_j: f64,
    /// I/O and termination energy, joules.
    pub io_j: f64,
    /// Background (standby/refresh) energy, joules.
    pub background_j: f64,
}

impl EnergyBreakdown {
    /// Total DRAM energy in joules.
    pub fn total_j(&self) -> f64 {
        self.activate_j + self.read_j + self.write_j + self.io_j + self.background_j
    }
}

/// Computes the energy breakdown from event counts.
///
/// * `stats` — event counters from the controller.
/// * `elapsed_seconds` — simulated wall-clock time.
/// * `total_ranks` — ranks across all channels (background power scales
///   with ranks).
pub fn energy(
    params: &PowerParams,
    stats: &DramStats,
    elapsed_seconds: f64,
    total_ranks: usize,
) -> EnergyBreakdown {
    let nj = 1e-9;
    EnergyBreakdown {
        activate_j: stats.activates as f64 * params.activate_nj * nj,
        read_j: stats.total_reads() as f64 * params.read_nj * nj,
        write_j: stats.total_writes() as f64 * params.write_nj * nj,
        io_j: stats.bursts as f64 * params.io_nj * nj,
        background_j: params.background_w_per_rank * total_ranks as f64 * elapsed_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_scales_with_events() {
        let p = PowerParams::default();
        let mut s = DramStats { activates: 1000, ..DramStats::default() };
        s.reads_by_class[0] = 500;
        s.writes_by_class[0] = 250;
        s.bursts = 750;
        let e1 = energy(&p, &s, 1e-3, 4);
        let mut s2 = s;
        s2.activates = 2000;
        let e2 = energy(&p, &s2, 1e-3, 4);
        assert!(e2.activate_j > e1.activate_j * 1.99);
        assert_eq!(e1.read_j, 500.0 * p.read_nj * 1e-9);
    }

    #[test]
    fn background_scales_with_time_and_ranks() {
        let p = PowerParams::default();
        let s = DramStats::default();
        let e = energy(&p, &s, 2.0, 4);
        assert!((e.background_j - p.background_w_per_rank * 4.0 * 2.0).abs() < 1e-12);
    }
}
