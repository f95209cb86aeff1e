//! Monte-Carlo DRAM reliability simulator — the FAULTSIM substitute.
//!
//! The paper evaluates reliability (Figure 11) with FAULTSIM \[29\]: Monte
//! Carlo fault injection over a billion devices and a 7-year lifetime,
//! using the real-world DRAM failure rates of Sridharan & Liberty (Table
//! I). This crate reproduces that methodology from scratch:
//!
//! * [`fault`] — faults as address-range regions within a chip (bank /
//!   row / column / bit, pinned or wildcarded), with the range-intersection
//!   test that decides when two faults corrupt the same codeword.
//! * [`model`] — the Table I FIT rates, scalable for accelerated studies.
//! * [`policy`] — evaluation rules for SECDED (1 bit of 72), Chipkill
//!   (1 chip of 18), SYNERGY (1 chip of 9) and IVEC (1 chip of 16).
//! * [`sim`] — the parallel, conditioned-sampling Monte Carlo engine.
//! * [`schedule`] — cycle-exact fault schedules consumed by the timing
//!   simulator in `synergy-core` (the §IV-A degraded-mode lifecycle).
//!
//! # Example: a miniature Figure 11
//!
//! ```
//! use synergy_faultsim::{EccPolicy, FaultModel, SimParams, simulate};
//!
//! let model = FaultModel::sridharan().scaled(50.0); // accelerate for the doctest
//! let params = SimParams { devices: 20_000, ..Default::default() };
//! let secded = simulate(EccPolicy::Secded, &model, &params);
//! let synergy = simulate(EccPolicy::Synergy, &model, &params);
//! assert!(synergy.failure_probability < secded.failure_probability);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod model;
pub mod policy;
pub mod schedule;
pub mod sim;

pub use fault::{ChipGeometry, Fault, FaultMode, LineRegion};
pub use model::{FaultModel, ModeRate};
pub use schedule::{FaultSchedule, ScheduledFault};
pub use policy::EccPolicy;
pub use sim::{
    poisson, simulate, FaultyDevices, ReliabilityResult, SimParams, HOURS_PER_YEAR, SHARD_DEVICES,
};
