//! The secure-memory designs evaluated in the paper (Table II).
//!
//! Each design is a point in a small configuration space: how MACs are
//! obtained (separate access, co-located in the ECC chip, or absent), where
//! counters may be cached, what the integrity tree protects, and what
//! reliability traffic writes cost.

use crate::layout::{CounterOrg, TreeLeaves};

/// How the per-line MAC reaches the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacPlacement {
    /// No MACs (non-secure baseline).
    None,
    /// MACs live in a separate metadata region: +1 access per data access
    /// (SGX, SGX_O, LOT-ECC-on-secure).
    SeparateRegion,
    /// MACs live in the ECC chip, fetched in the same burst as data —
    /// SYNERGY's co-location: zero extra accesses.
    EccChip,
    /// MACs live in a separate region but are cached in the LLC (IVEC).
    SeparateRegionLlcCached,
}

/// Reliability mechanism and its write-path cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReliabilityScheme {
    /// SECDED in the ECC chip: free (fetched with data), corrects 1 bit.
    Secded,
    /// Chipkill over 18 chips in two lock-stepped channels: every access
    /// occupies both channels (halves channel parallelism).
    Chipkill,
    /// MAC-as-detection + RAID-3 parity in a separate region:
    /// +1 parity write per data write (SYNERGY, IVEC).
    MacParity,
    /// LOT-ECC tier-1 checksum (with data) + tier-2 parity writes;
    /// `write_coalescing` halves the parity-write traffic.
    LotEcc {
        /// Whether tier-2 writes coalesce in a write buffer.
        write_coalescing: bool,
    },
    /// No reliability (commodity DIMM).
    None,
}

/// How a design responds, at run time, to a permanently failed chip —
/// the §IV-A degraded-mode lifecycle as seen by the timing simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChipFailureResponse {
    /// The MAC identifies the bad chip and RAID-3 parity reconstructs its
    /// contribution: every degraded data read additionally needs the
    /// line's parity slot (a cacheable parity-line fetch), plus a one-time
    /// trial-reconstruction diagnosis burst on first detection (§III-B).
    ParityReconstruct,
    /// The symbol code corrects the dead chip within the normal access —
    /// no extra traffic (Chipkill lock-step; Synergy+16B, whose co-located
    /// 16 B metadata field carries the parity in the same burst).
    InlineCorrect,
    /// The reliability scheme cannot correct a whole dead chip: every read
    /// of a line touching it is a detected-uncorrectable error (SECDED and
    /// unprotected DIMMs).
    Uncorrectable,
}

/// A complete secure-memory design configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignConfig {
    /// Display name ("SGX_O", "Synergy", …).
    pub name: &'static str,
    /// Whether encryption/integrity metadata exists at all.
    pub secure: bool,
    /// MAC handling.
    pub mac: MacPlacement,
    /// Counter organization (Figure 13 axis).
    pub counter_org: CounterOrg,
    /// Counters (and tree nodes) may be cached in the LLC in addition to
    /// the dedicated metadata cache (Figure 14 axis; Table II "Caching").
    pub counters_in_llc: bool,
    /// What the integrity tree covers.
    pub tree_leaves: TreeLeaves,
    /// Reliability scheme.
    pub reliability: ReliabilityScheme,
    /// §VI-B extension: a custom DIMM with 16 B of metadata per 64 B line
    /// co-locates the parity alongside the MAC, removing the separate
    /// parity-update write as well.
    pub custom_dimm_colocated_parity: bool,
    /// §VII-B extension: PoisonIvy-style speculative use of unverified
    /// data — metadata fetches still consume bandwidth but leave the
    /// load's critical path.
    pub speculative_verification: bool,
}

impl DesignConfig {
    /// Non-secure baseline with SECDED ECC-DIMM (Figure 6's "Non-Secure").
    pub fn non_secure() -> Self {
        Self {
            name: "NonSecure",
            secure: false,
            mac: MacPlacement::None,
            counter_org: CounterOrg::Monolithic,
            counters_in_llc: false,
            tree_leaves: TreeLeaves::CounterLines,
            reliability: ReliabilityScheme::Secded,
            custom_dimm_colocated_parity: false,
            speculative_verification: false,
        }
    }

    /// SGX: counters in the dedicated cache only, separate MAC access,
    /// SECDED reliability.
    pub fn sgx() -> Self {
        Self {
            name: "SGX",
            secure: true,
            mac: MacPlacement::SeparateRegion,
            counter_org: CounterOrg::Monolithic,
            counters_in_llc: false,
            tree_leaves: TreeLeaves::CounterLines,
            reliability: ReliabilityScheme::Secded,
            custom_dimm_colocated_parity: false,
            speculative_verification: false,
        }
    }

    /// SGX_O: the paper's baseline — SGX plus counter caching in the LLC.
    pub fn sgx_o() -> Self {
        Self { name: "SGX_O", counters_in_llc: true, ..Self::sgx() }
    }

    /// SYNERGY: MAC in the ECC chip, counters in dedicated + LLC,
    /// MAC+parity reliability.
    pub fn synergy() -> Self {
        Self {
            name: "Synergy",
            secure: true,
            mac: MacPlacement::EccChip,
            counter_org: CounterOrg::Monolithic,
            counters_in_llc: true,
            tree_leaves: TreeLeaves::CounterLines,
            reliability: ReliabilityScheme::MacParity,
            custom_dimm_colocated_parity: false,
            speculative_verification: false,
        }
    }

    /// IVEC: non-Bonsai GMAC tree, MACs cached in the LLC, split counters
    /// in the dedicated cache only, MAC+parity reliability (Table II).
    pub fn ivec() -> Self {
        Self {
            name: "IVEC",
            secure: true,
            mac: MacPlacement::SeparateRegionLlcCached,
            counter_org: CounterOrg::Split,
            counters_in_llc: false,
            tree_leaves: TreeLeaves::MacLines,
            reliability: ReliabilityScheme::MacParity,
            custom_dimm_colocated_parity: false,
            speculative_verification: false,
        }
    }

    /// LOT-ECC layered on the SGX_O secure baseline (Figure 17).
    pub fn lot_ecc(write_coalescing: bool) -> Self {
        Self {
            name: if write_coalescing { "LOT-ECC+WC" } else { "LOT-ECC" },
            reliability: ReliabilityScheme::LotEcc { write_coalescing },
            ..Self::sgx_o()
        }
    }

    /// §VI-B extension: Synergy on a custom DIMM carrying 16 B of
    /// metadata per line — both MAC and parity co-located, eliminating
    /// the parity-update writes too.
    pub fn synergy_custom_dimm() -> Self {
        Self {
            name: "Synergy+16B",
            custom_dimm_colocated_parity: true,
            ..Self::synergy()
        }
    }

    /// §VII-B extension: Synergy with PoisonIvy-style speculation —
    /// verification (counter/tree fetches) runs off the critical path.
    pub fn synergy_speculative() -> Self {
        Self { name: "Synergy+Spec", speculative_verification: true, ..Self::synergy() }
    }

    /// SGX_O with PoisonIvy-style speculation (§VII-B: "these designs
    /// would benefit from the bandwidth savings provided by Synergy" —
    /// the comparison point).
    pub fn sgx_o_speculative() -> Self {
        Self { name: "SGX_O+Spec", speculative_verification: true, ..Self::sgx_o() }
    }

    /// Chipkill reliability on the SGX_O secure baseline (Figure 11's
    /// middle bar): dual-channel lock-step operation.
    pub fn sgx_o_chipkill() -> Self {
        Self {
            name: "SGX_O+Chipkill",
            reliability: ReliabilityScheme::Chipkill,
            ..Self::sgx_o()
        }
    }

    /// Returns a copy using split counters (Figure 13).
    #[must_use]
    pub fn with_split_counters(mut self) -> Self {
        self.counter_org = CounterOrg::Split;
        self
    }

    /// Returns a copy caching counters only in the dedicated cache
    /// (Figure 14).
    #[must_use]
    pub fn with_dedicated_cache_only(mut self) -> Self {
        self.counters_in_llc = false;
        self
    }

    /// True when data writes must also update a parity line.
    pub fn parity_write_factor(&self) -> f64 {
        if self.custom_dimm_colocated_parity {
            return 0.0;
        }
        match self.reliability {
            ReliabilityScheme::MacParity => 1.0,
            ReliabilityScheme::LotEcc { write_coalescing } => {
                if write_coalescing {
                    0.5
                } else {
                    1.0
                }
            }
            _ => 0.0,
        }
    }

    /// True when every access occupies two channels (Chipkill lock-step).
    pub fn dual_channel_lockstep(&self) -> bool {
        matches!(self.reliability, ReliabilityScheme::Chipkill)
    }

    /// How this design keeps running (or fails to) once a chip dies.
    pub fn chip_failure_response(&self) -> ChipFailureResponse {
        if self.custom_dimm_colocated_parity {
            // §VI-B custom DIMM: parity rides in the per-line metadata
            // field, so reconstruction needs no separate access.
            return ChipFailureResponse::InlineCorrect;
        }
        match self.reliability {
            ReliabilityScheme::MacParity | ReliabilityScheme::LotEcc { .. } => {
                ChipFailureResponse::ParityReconstruct
            }
            ReliabilityScheme::Chipkill => ChipFailureResponse::InlineCorrect,
            ReliabilityScheme::Secded | ReliabilityScheme::None => {
                ChipFailureResponse::Uncorrectable
            }
        }
    }
}

impl core::fmt::Display for DesignConfig {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_rows() {
        let sgx = DesignConfig::sgx();
        assert!(!sgx.counters_in_llc);
        assert_eq!(sgx.mac, MacPlacement::SeparateRegion);
        assert_eq!(sgx.reliability, ReliabilityScheme::Secded);

        let sgx_o = DesignConfig::sgx_o();
        assert!(sgx_o.counters_in_llc);
        assert_eq!(sgx_o.mac, MacPlacement::SeparateRegion);

        let syn = DesignConfig::synergy();
        assert!(syn.counters_in_llc);
        assert_eq!(syn.mac, MacPlacement::EccChip, "Synergy MAC rides in the ECC chip");
        assert_eq!(syn.parity_write_factor(), 1.0);

        let ivec = DesignConfig::ivec();
        assert_eq!(ivec.tree_leaves, TreeLeaves::MacLines);
        assert!(!ivec.counters_in_llc);
        assert_eq!(ivec.mac, MacPlacement::SeparateRegionLlcCached, "IVEC MACs are LLC-cached");

        let ns = DesignConfig::non_secure();
        assert!(!ns.secure);
        assert_eq!(ns.parity_write_factor(), 0.0);
    }

    #[test]
    fn custom_dimm_removes_parity_writes() {
        let d = DesignConfig::synergy_custom_dimm();
        assert_eq!(d.parity_write_factor(), 0.0);
        assert_eq!(d.mac, MacPlacement::EccChip);
        assert_eq!(DesignConfig::synergy().parity_write_factor(), 1.0);
    }

    #[test]
    fn speculative_variants() {
        assert!(DesignConfig::synergy_speculative().speculative_verification);
        assert!(DesignConfig::sgx_o_speculative().speculative_verification);
        assert!(!DesignConfig::synergy().speculative_verification);
    }

    #[test]
    fn lot_ecc_coalescing_halves_parity_writes() {
        assert_eq!(DesignConfig::lot_ecc(false).parity_write_factor(), 1.0);
        assert_eq!(DesignConfig::lot_ecc(true).parity_write_factor(), 0.5);
    }

    #[test]
    fn chipkill_locks_channels() {
        assert!(DesignConfig::sgx_o_chipkill().dual_channel_lockstep());
        assert!(!DesignConfig::synergy().dual_channel_lockstep());
    }

    #[test]
    fn chip_failure_responses_follow_reliability() {
        use ChipFailureResponse::*;
        assert_eq!(DesignConfig::synergy().chip_failure_response(), ParityReconstruct);
        assert_eq!(DesignConfig::ivec().chip_failure_response(), ParityReconstruct);
        assert_eq!(DesignConfig::lot_ecc(true).chip_failure_response(), ParityReconstruct);
        assert_eq!(DesignConfig::sgx_o_chipkill().chip_failure_response(), InlineCorrect);
        assert_eq!(DesignConfig::synergy_custom_dimm().chip_failure_response(), InlineCorrect);
        assert_eq!(DesignConfig::sgx_o().chip_failure_response(), Uncorrectable);
        assert_eq!(DesignConfig::non_secure().chip_failure_response(), Uncorrectable);
    }

    #[test]
    fn sensitivity_modifiers() {
        let s = DesignConfig::synergy().with_split_counters();
        assert_eq!(s.counter_org, CounterOrg::Split);
        let d = DesignConfig::synergy().with_dedicated_cache_only();
        assert!(!d.counters_in_llc);
        // Name survives modification for labeling sweeps.
        assert_eq!(s.name, "Synergy");
    }
}
