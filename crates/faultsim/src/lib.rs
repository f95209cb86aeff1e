//! DRAM fault model and fault-arrival samplers — the FAULTSIM substitute.
//!
//! The paper evaluates reliability (Figure 11) with FAULTSIM \[29\]: Monte
//! Carlo fault injection over a billion devices and a 7-year lifetime,
//! using the real-world DRAM failure rates of Sridharan & Liberty (Table
//! I). This crate holds that methodology's parts; the Monte Carlo itself
//! runs in `synergy-fleet`, on the checkpointable job fabric:
//!
//! * [`fault`] — faults as address-range regions within a chip (bank /
//!   row / column / bit, pinned or wildcarded), with the range-intersection
//!   test that decides when two faults corrupt the same codeword.
//! * [`model`] — the Table I FIT rates, scalable for accelerated studies.
//! * [`policy`] — evaluation rules for SECDED (1 bit of 72), Chipkill
//!   (1 chip of 18), SYNERGY (1 chip of 9) and IVEC (1 chip of 16).
//! * [`sim`] — the fault-arrival samplers: [`FaultyDevices`] skips to the
//!   devices that see a fault, [`poisson`] draws every device's count.
//! * [`schedule`] — cycle-exact fault schedules consumed by the timing
//!   simulator in `synergy-core` (the §IV-A degraded-mode lifecycle).
//!
//! # Example: sampling arrivals and judging them
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use synergy_faultsim::{
//!     ChipGeometry, EccPolicy, Fault, FaultMode, FaultyDevices, HOURS_PER_YEAR,
//! };
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // At λ = 0.5 arrivals per device, 1 − e^−0.5 ≈ 39% of devices see one.
//! let mut faulty = 0;
//! FaultyDevices::new(0.5).for_each(&mut rng, 20_000, |_, _, k| {
//!     assert!(k >= 1);
//!     faulty += 1;
//! });
//! assert!((7_500..8_250).contains(&faulty), "{faulty}");
//!
//! // One chip's bank fails for good after 1,000 hours: SECDED fails
//! // then, SYNERGY corrects it for the rest of the 7-year lifetime.
//! let bank = Fault::sample(&mut rng, &ChipGeometry::default(), 3, FaultMode::SingleBank, true, 1_000.0);
//! let life = 7.0 * HOURS_PER_YEAR;
//! assert_eq!(EccPolicy::Secded.first_failure(&[bank], life, None), Some(1_000.0));
//! assert_eq!(EccPolicy::Synergy.first_failure(&[bank], life, None), None);
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
pub use sim::{poisson, FaultyDevices, HOURS_PER_YEAR};
