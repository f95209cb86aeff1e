//! # SYNERGY — secure-memory / reliability co-design for ECC-DIMMs
//!
//! This is the umbrella crate of a from-scratch Rust reproduction of
//! *SYNERGY: Rethinking Secure-Memory Design for Error-Correcting Memories*
//! (HPCA 2018). It re-exports every subsystem crate so downstream users can
//! depend on a single crate:
//!
//! * [`crypto`] — forward AES-128, GHASH and the 64-bit GMAC, counter-mode
//!   line encryption.
//! * [`ecc`] — SECDED (extended Hamming 72,64), Reed–Solomon x8 Chipkill, RAID-3 chip
//!   parity.
//! * [`dram`] — cycle-level DDR3 memory-system simulator (USIMM-style).
//! * [`cache`] — set-associative cache models (LLC, metadata cache).
//! * [`trace`] — synthetic SPEC2006/GAP-like workload trace generators.
//! * [`secure`] — secure-memory designs: the metadata layout with
//!   monolithic and split counter organizations, Bonsai counter tree, MAC
//!   tree, and the access-expansion engines for SGX, SGX_O, Synergy,
//!   IVEC, LOT-ECC and Non-Secure.
//! * [`faultsim`] — the Sridharan field-study DRAM fault model, ECC
//!   failure policies and fault-arrival samplers.
//! * [`campaign`] — differential fault-injection campaign: the analytic
//!   reliability verdicts cross-checked against the functional SECDED /
//!   Chipkill / SYNERGY recovery pipelines, with replayable reproducers
//!   for any disagreement. Also home of the generic checkpointable
//!   [`JobFabric`](campaign::JobFabric).
//! * [`fleet`] — the reliability Monte Carlo (Figure 11) at fleet scale:
//!   N DIMMs over a T-year horizon on the job fabric, with per-design
//!   availability / SDC / DUE / degraded-slowdown curves.
//! * [`obs`] — telemetry: log-bucketed latency histograms, the named
//!   metric registry, request-lifecycle span tracing, JSON/CSV export.
//! * [`core`] — the SYNERGY functional memory (MAC-in-ECC-chip co-location,
//!   RAID-3 reconstruction engine, tree-integrated error correction) and the
//!   full-system performance simulator.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record of every reproduced table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use synergy::core::memory::{SynergyMemory, SynergyMemoryConfig};
//! use synergy::crypto::CacheLine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A functional SYNERGY-protected memory of 1 MiB.
//! let mut mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 20))?;
//! let line = CacheLine::from_bytes([0xAB; 64]);
//! mem.write_line(0x4000, &line)?;
//!
//! // A whole DRAM chip fails...
//! mem.inject_chip_error(0x4000, 3);
//!
//! // ...and the read still returns the correct data, transparently.
//! let out = mem.read_line(0x4000)?;
//! assert_eq!(out.data, line);
//! assert!(out.corrected);
//! # Ok(())
//! # }
//! ```

pub use synergy_cache as cache;
pub use synergy_campaign as campaign;
pub use synergy_core as core;
pub use synergy_crypto as crypto;
pub use synergy_dram as dram;
pub use synergy_ecc as ecc;
pub use synergy_faultsim as faultsim;
pub use synergy_fleet as fleet;
pub use synergy_obs as obs;
pub use synergy_secure as secure;
pub use synergy_trace as trace;
