//! SYNERGY — the paper's core contribution, plus the full-system simulator.
//!
//! This crate ties the substrates together into the two artifacts the
//! HPCA 2018 paper is about:
//!
//! 1. **The functional SYNERGY memory** ([`memory::SynergyMemory`]): a
//!    byte-accurate model of a 9-chip ECC-DIMM secure memory that
//!    co-locates the 64-bit GMAC with data in the ECC chip, detects errors
//!    with the MAC, corrects any single-chip failure with RAID-3 parity
//!    (including the parity-of-parities corner case), protects counters
//!    with a Bonsai counter tree, and declares an attack only when
//!    correction is impossible. [`secded_memory::SecdedMemory`] provides
//!    the conventional ECC-DIMM baseline for contrast.
//!
//! 2. **The performance simulator** ([`system`]): a USIMM-style
//!    trace-driven multicore + DDR3 model in which every secure-memory
//!    design of Table II can be evaluated for IPC, traffic breakdown,
//!    power, energy and EDP — the engine behind Figures 6, 8, 9, 10, 12,
//!    13, 14, 16 and 17.
//!
//! [`analysis`] holds the closed-form §IV bounds (MAC collision
//! probability, effective MAC strength, SDC rate, correction-latency
//! limits).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod memory;
pub mod secded_memory;
pub mod stored;
pub mod system;
pub mod testsupport;

pub use memory::{MemoryError, MemoryStats, ReadOutput, SynergyMemory, SynergyMemoryConfig};
pub use secded_memory::{SecdedError, SecdedMemory, SecdedReadOutput};
pub use stored::StoredLine;
pub use system::{run, SimResult, SystemConfig, SystemError, TrafficBreakdown};
