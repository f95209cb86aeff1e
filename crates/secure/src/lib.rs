//! Secure-memory designs for the SYNERGY reproduction.
//!
//! This crate models the *architecture* of secure memory — the metadata a
//! design stores, where it lives, where it is cached, and what each data
//! access costs — for every design the paper evaluates (Table II):
//!
//! | Design | Integrity tree | Counter caching | MAC | Reliability |
//! |---|---|---|---|---|
//! | SGX | Bonsai counter tree | dedicated | separate access | SECDED |
//! | SGX_O | Bonsai counter tree | dedicated + LLC | separate access | SECDED |
//! | Synergy | Bonsai counter tree | dedicated + LLC | **in ECC chip** | MAC+parity |
//! | IVEC | non-Bonsai GMAC tree | dedicated | LLC-cached | MAC+parity |
//! | LOT-ECC | Bonsai counter tree | dedicated + LLC | separate access | tiered parity |
//!
//! Modules:
//!
//! * [`layout`] — the metadata address map (counters, MACs, parity, tree)
//!   and the monolithic or split counter organization ([`CounterOrg`]).
//! * [`design`] — the design configuration space and Table II presets.
//! * [`engine`] — the access-expansion engine used by the performance
//!   simulator in `synergy-core`.
//!
//! The byte-accurate functional implementation (real MACs, real parity,
//! real correction) lives in `synergy-core`; this crate supplies the shared
//! architectural vocabulary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod design;
pub mod engine;
pub mod layout;

pub use design::{ChipFailureResponse, DesignConfig, MacPlacement, ReliabilityScheme};
pub use engine::{
    default_metadata_cache_config, AccessSpec, DegradedStats, EngineStats, Expansion, SecureEngine,
};
pub use layout::{CounterOrg, MetadataLayout, Region, TreeLeaves};
