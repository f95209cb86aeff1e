//! Schedulable runtime faults for the timing simulator.
//!
//! The Monte-Carlo half of this crate reasons about fault *arrival* over a
//! 7-year lifetime; the performance simulator needs the same vocabulary at
//! *cycle* granularity: "chip 3 fails permanently at memory cycle 50 000
//! and execution continues". A [`FaultSchedule`] is that bridge — an
//! ordered list of [`ScheduledFault`]s which `synergy-core` applies at
//! exact memory-bus cycles, driving the secure engine through the paper's
//! §IV-A degraded-mode lifecycle (detect → diagnose → track).
//!
//! Schedules are deliberately immutable after construction: a schedule is
//! part of a simulation *configuration*, shared (cloned) between the
//! healthy/degraded cells of a sweep, so the consuming loop keeps its own
//! cursor and the same schedule value always produces the same run.

use crate::fault::FaultMode;

/// One fault injection at an exact simulator cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduledFault {
    /// Memory-bus cycle at which the fault manifests.
    pub at_mem_cycle: u64,
    /// Which chip of the 9-chip correction domain fails (0–7 data, 8 ECC).
    pub chip: usize,
    /// Failure mode. The timing model treats every mode that defeats
    /// SECDED as a whole-chip outage — the paper's degraded-mode scenario;
    /// the mode is kept so campaigns can label sub-chip injections too.
    pub mode: FaultMode,
    /// Permanent (persists for the rest of the run). Transient faults are
    /// accepted in the descriptor but the timing lifecycle models the
    /// permanent case the paper evaluates.
    pub permanent: bool,
}

impl ScheduledFault {
    /// A permanent whole-chip failure at `at_mem_cycle` — the scenario of
    /// §IV-A's permanent-fault mitigation.
    pub fn chip_failure(at_mem_cycle: u64, chip: usize) -> Self {
        Self { at_mem_cycle, chip, mode: FaultMode::MultiBank, permanent: true }
    }
}

/// An immutable, time-ordered fault schedule for one simulation run.
///
/// The default (empty) schedule is the healthy baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSchedule {
    faults: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// Builds a schedule, sorting the faults by injection cycle (stable:
    /// same-cycle faults keep their given order).
    pub fn new(mut faults: Vec<ScheduledFault>) -> Self {
        faults.sort_by_key(|f| f.at_mem_cycle);
        Self { faults }
    }

    /// Convenience: a single permanent chip failure at `at_mem_cycle`.
    pub fn chip_failure_at(at_mem_cycle: u64, chip: usize) -> Self {
        Self::new(vec![ScheduledFault::chip_failure(at_mem_cycle, chip)])
    }

    /// The scheduled faults in injection order.
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }

    /// True when nothing is scheduled (the healthy baseline).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_sorts_and_queries() {
        let s = FaultSchedule::new(vec![
            ScheduledFault::chip_failure(500, 1),
            ScheduledFault::chip_failure(100, 8),
            ScheduledFault::chip_failure(300, 3),
        ]);
        let cycles: Vec<u64> = s.faults().iter().map(|f| f.at_mem_cycle).collect();
        assert_eq!(cycles, vec![100, 300, 500]);
        assert!(!s.is_empty());
    }

    #[test]
    fn default_schedule_is_healthy() {
        let s = FaultSchedule::default();
        assert!(s.is_empty());
        assert_eq!(s, FaultSchedule::new(Vec::new()));
    }

    #[test]
    fn chip_failure_descriptor_defeats_secded() {
        let f = ScheduledFault::chip_failure(42, 3);
        assert_eq!(f.chip, 3);
        assert!(f.permanent);
        assert!(f.mode.defeats_secded(), "a whole-chip outage must overwhelm SECDED");
    }
}
