//! Fleet-scale lifetime reliability — the paper's §V story at datacenter
//! scale, on the checkpointable job fabric.
//!
//! `synergy-faultsim` answers "does one correction domain survive its
//! lifetime?"; the differential campaign (`synergy-campaign`) validates
//! that analytic verdict against the functional decoders. This crate asks
//! the question operators actually face: across **N DIMMs over a T-year
//! horizon**, what availability, silent-data-corruption rate, and
//! performance does each Table II design deliver?
//!
//! Per DIMM and design, fault arrivals are Poisson with
//! λ = chips × FIT × 10⁻⁹ × hours from the Sridharan Table I
//! [`FaultModel`](synergy_faultsim::FaultModel) (transient faults clear at
//! scrub boundaries, permanent faults persist), and the arrival set is
//! judged by [`EccPolicy::first_failure`]. On top of that verdict the
//! fleet model prices what the reliability-only simulator ignores:
//!
//! * **DUE vs SDC** — an uncorrectable SECDED error aliases to a clean or
//!   single-bit syndrome with probability ≈ 73/256 and silently corrupts
//!   data; MAC-protected and symbol-based designs detect instead
//!   ([`SECDED_SDC_GIVEN_UNCORRECTABLE`]).
//! * **Repair downtime** — every DUE costs
//!   [`FleetParams::repair_hours`] of unavailability; availability is
//!   1 − downtime / fleet-hours.
//! * **Degraded-mode slowdown** — a surviving permanent chip-scale fault
//!   puts the DIMM in the PR 5 degraded lifecycle; its remaining hours are
//!   priced by the measured `fig_degraded` gmean slowdowns
//!   ([`degraded_slowdown`]).
//!
//! DIMMs shard onto the [`JobFabric`](synergy_obs::fabric::JobFabric):
//! fixed-size shards seeded by their first DIMM index, shard-ordered
//! streaming merge (memory independent of the fleet size), and frontier
//! checkpoints so a killed million-DIMM run resumes **bit-identically**.
//!
//! # Example
//!
//! ```
//! use synergy_fleet::{run, FleetParams, FLEET_DESIGNS};
//!
//! let params = FleetParams { dimms: 2_000, ..Default::default() };
//! let result = run(&params);
//! for design in FLEET_DESIGNS {
//!     let r = result.report(design);
//!     assert!(r.availability >= 0.999, "{design}: {}", r.availability);
//! }
//! ```
//!
//! [`EccPolicy::first_failure`]: synergy_faultsim::EccPolicy::first_failure

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod model;

pub use engine::{
    run, run_with_fabric, DesignReport, DesignTally, FleetAggregate, FleetJob, FleetResult,
    SHARD_DIMMS,
};
pub use model::{
    degraded_slowdown, is_chip_degrading, FleetParams, FLEET_DESIGNS,
    SECDED_SDC_GIVEN_UNCORRECTABLE,
};
