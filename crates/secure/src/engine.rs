//! The secure-memory access-expansion engine (performance layer).
//!
//! Every off-chip data access in a secure memory fans out into additional
//! metadata accesses — this is the "security bloat" of Figure 9 and the
//! whole performance story of the paper. The engine turns a single data
//! read or writeback into the exact list of DRAM accesses the configured
//! design performs, filtering counter and tree lookups through the
//! dedicated 128 KB metadata cache and (depending on the design) the
//! shared LLC:
//!
//! * **read**: data (+MAC unless co-located), counter on metadata-cache /
//!   LLC miss, then an integrity-tree walk upward until a node hits
//!   on-chip.
//! * **writeback**: data (+MAC write unless co-located), counter
//!   increment (fetching and dirtying the counter line), lazy dirty-walk
//!   up the tree, and a parity write for MAC+parity designs.
//!
//! Counter/tree lines displaced from the caches generate their own
//! writebacks; data lines displaced from the LLC by metadata fills are
//! returned to the caller to re-enter the expansion as data writebacks —
//! this is precisely the LLC-contention effect behind the `*-web`
//! anomaly in Figure 8.

use synergy_cache::{CacheConfig, CacheStats, Eviction, SetAssocCache};
use synergy_dram::{AccessKind, RequestClass};
use synergy_obs::InlineVec;

use crate::design::{ChipFailureResponse, DesignConfig, MacPlacement};
use crate::layout::{MetadataLayout, Region, TreeLeaves};

/// One DRAM access produced by expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessSpec {
    /// Physical address.
    pub addr: u64,
    /// Read or write.
    pub kind: AccessKind,
    /// Traffic class for accounting.
    pub class: RequestClass,
}

impl Default for AccessSpec {
    fn default() -> Self {
        Self { addr: 0, kind: AccessKind::Read, class: RequestClass::Data }
    }
}

/// Inline capacity of [`Expansion::accesses`]. The deepest expansion any
/// Table II design produces is data + MAC + counter + a full cold tree
/// walk (≤ 10 levels for a 16 GB+ memory) plus dirty-victim writebacks
/// from each fill — 32 slots absorb every case observed in practice;
/// pathological cascades spill to the heap once and then reuse that
/// capacity.
pub const EXPANSION_INLINE_ACCESSES: usize = 32;

/// Inline capacity of [`Expansion::evicted_dirty_data`]: at most one data
/// victim per LLC fill of the expansion, typically 0–2.
pub const EXPANSION_INLINE_EVICTIONS: usize = 8;

/// The result of expanding one data access.
///
/// Both buffers hold their elements inline (no heap allocation) up to the
/// `EXPANSION_INLINE_*` capacities; a reused `Expansion` — see
/// [`SecureEngine::expand_read_into`] — is allocation-free in steady
/// state even if an early pathological access spilled it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Expansion {
    /// DRAM accesses to issue (the data access itself is first).
    pub accesses: InlineVec<AccessSpec, EXPANSION_INLINE_ACCESSES>,
    /// Dirty *data* lines displaced from the LLC by metadata fills; the
    /// caller must expand each as a data writeback (cascade).
    pub evicted_dirty_data: InlineVec<u64, EXPANSION_INLINE_EVICTIONS>,
    /// True when this read performed the one-time failed-chip diagnosis
    /// burst (§III-B trial reconstruction, first detection after
    /// [`SecureEngine::fail_chip`]): the system layer charges the burst's
    /// MAC-recomputation latency to this load.
    pub diagnosis: bool,
}

impl Expansion {
    /// Empties the expansion for reuse, retaining any spill capacity.
    pub fn clear(&mut self) {
        self.accesses.clear();
        self.evicted_dirty_data.clear();
        self.diagnosis = false;
    }

    fn read(&mut self, addr: u64, class: RequestClass) {
        self.accesses.push(AccessSpec { addr, kind: AccessKind::Read, class });
    }

    fn write(&mut self, addr: u64, class: RequestClass) {
        self.accesses.push(AccessSpec { addr, kind: AccessKind::Write, class });
    }
}

/// Expansion statistics beyond what the DRAM controller counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Data reads expanded.
    pub data_reads: u64,
    /// Data writebacks expanded.
    pub data_writebacks: u64,
    /// Counter lookups that hit the dedicated metadata cache.
    pub counter_dedicated_hits: u64,
    /// Counter lookups that hit the LLC.
    pub counter_llc_hits: u64,
    /// Counter lookups that went to DRAM.
    pub counter_misses: u64,
    /// Tree-node fetches that went to DRAM.
    pub tree_fetches: u64,
}

impl EngineStats {
    /// Counter lookups served without DRAM (dedicated cache or LLC).
    pub fn counter_hits(&self) -> u64 {
        self.counter_dedicated_hits + self.counter_llc_hits
    }

    /// Fraction of counter lookups that went to DRAM (0 when none).
    pub fn counter_miss_ratio(&self) -> f64 {
        let total = self.counter_hits() + self.counter_misses;
        if total == 0 {
            0.0
        } else {
            self.counter_misses as f64 / total as f64
        }
    }
}

impl synergy_obs::Observe for EngineStats {
    fn observe(&self, prefix: &str, registry: &mut synergy_obs::MetricRegistry) {
        use synergy_obs::metric_name;
        registry.set_counter(&metric_name(prefix, "data_reads"), self.data_reads);
        registry.set_counter(&metric_name(prefix, "data_writebacks"), self.data_writebacks);
        registry.set_counter(
            &metric_name(prefix, "counter_dedicated_hits"),
            self.counter_dedicated_hits,
        );
        registry.set_counter(&metric_name(prefix, "counter_llc_hits"), self.counter_llc_hits);
        registry.set_counter(&metric_name(prefix, "counter_misses"), self.counter_misses);
        registry.set_counter(&metric_name(prefix, "tree_fetches"), self.tree_fetches);
        registry.set_gauge(&metric_name(prefix, "counter_miss_ratio"), self.counter_miss_ratio());
    }
}

/// Statistics of the degraded-mode (failed-chip) lifecycle of §IV-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DegradedStats {
    /// First-detection events — each paid the one-time trial-
    /// reconstruction diagnosis burst (§III-B).
    pub detections: u64,
    /// Degraded data reads the reliability scheme corrected.
    pub corrections: u64,
    /// Extra parity-line DRAM reads issued for reconstruction.
    pub parity_reads: u64,
    /// Parity-line lookups served by a cache (no DRAM access).
    pub parity_hits: u64,
    /// Degraded data reads the scheme could *not* correct (detected
    /// uncorrectable errors — SECDED under a whole-chip failure).
    pub due_events: u64,
}

impl synergy_obs::Observe for DegradedStats {
    fn observe(&self, prefix: &str, registry: &mut synergy_obs::MetricRegistry) {
        use synergy_obs::metric_name;
        registry.set_counter(&metric_name(prefix, "detections"), self.detections);
        registry.set_counter(&metric_name(prefix, "corrections"), self.corrections);
        registry.set_counter(&metric_name(prefix, "parity_reads"), self.parity_reads);
        registry.set_counter(&metric_name(prefix, "parity_hits"), self.parity_hits);
        registry.set_counter(&metric_name(prefix, "due_events"), self.due_events);
    }
}

/// The per-design access-expansion engine.
#[derive(Debug, Clone)]
pub struct SecureEngine {
    design: DesignConfig,
    layout: MetadataLayout,
    metadata_cache: SetAssocCache,
    parity_accumulator: f64,
    stats: EngineStats,
    /// Permanently failed chip of the 9-chip correction domain, if any.
    failed_chip: Option<usize>,
    /// Whether the failed chip has been diagnosed (tracked fast path).
    diagnosed: bool,
    degraded: DegradedStats,
}

/// Default metadata-cache geometry: 128 KB, 8-way, 64 B lines (Table III).
pub fn default_metadata_cache_config() -> CacheConfig {
    CacheConfig::new(128 << 10, 8, 64).expect("static geometry is valid")
}

impl SecureEngine {
    /// Creates an engine for `design` protecting `data_bytes` of memory.
    pub fn new(design: DesignConfig, data_bytes: u64) -> Self {
        Self::with_metadata_cache(design, data_bytes, default_metadata_cache_config())
    }

    /// Creates an engine with a custom metadata-cache geometry.
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero or not line-aligned, or if the
    /// metadata layout reaches the metadata cache's
    /// [`CacheConfig::address_limit`] (see
    /// [`MetadataLayout::check_cache_reach`]).
    pub fn with_metadata_cache(
        design: DesignConfig,
        data_bytes: u64,
        metadata_cache: CacheConfig,
    ) -> Self {
        let layout = MetadataLayout::new(data_bytes, design.counter_org, design.tree_leaves);
        if let Err(reason) = layout.check_cache_reach(&metadata_cache, "metadata cache") {
            panic!("{reason}");
        }
        Self {
            design,
            layout,
            metadata_cache: SetAssocCache::new(metadata_cache),
            parity_accumulator: 0.0,
            stats: EngineStats::default(),
            failed_chip: None,
            diagnosed: false,
            degraded: DegradedStats::default(),
        }
    }

    /// Injects a permanent whole-chip failure: from now on every off-chip
    /// data read carries the correction cost of the design's
    /// [`ChipFailureResponse`]. For parity-based designs the first
    /// corrected read performs the one-time diagnosis burst
    /// ([`Expansion::diagnosis`]); once the chip is tracked (§IV-A),
    /// corrections collapse to the error-free MAC count and only the
    /// parity-line fetch remains.
    ///
    /// # Panics
    ///
    /// Panics if `chip` is outside the 9-chip correction domain.
    pub fn fail_chip(&mut self, chip: usize) {
        assert!(chip < 9, "chip {chip} outside the 9-chip correction domain");
        if self.failed_chip != Some(chip) {
            self.failed_chip = Some(chip);
            self.diagnosed = false;
        }
    }

    /// The currently failed chip, if a fault has been injected.
    pub fn failed_chip(&self) -> Option<usize> {
        self.failed_chip
    }

    /// Degraded-mode lifecycle statistics.
    pub fn degraded_stats(&self) -> &DegradedStats {
        &self.degraded
    }

    /// The design being modeled.
    pub fn design(&self) -> &DesignConfig {
        &self.design
    }

    /// The metadata address map.
    pub fn layout(&self) -> &MetadataLayout {
        &self.layout
    }

    /// Engine-level statistics.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Metadata-cache statistics.
    pub fn metadata_cache_stats(&self) -> &CacheStats {
        self.metadata_cache.stats()
    }

    /// Drains the dedicated metadata cache's dirty lines (clearing their
    /// dirty bits) and appends their addresses to `dirty` (not cleared
    /// first) — the writebacks an end-of-run flush would issue. Together
    /// with the LLC's `drain_dirty_into`, this accounts for every
    /// increment that has not yet reached DRAM, which is what the
    /// counter-conservation property test audits.
    pub fn drain_dirty_metadata_into(&mut self, dirty: &mut Vec<u64>) {
        self.metadata_cache.drain_dirty_into(dirty);
    }

    /// Expands an off-chip data *read* (LLC miss) into DRAM accesses in
    /// `out`, which is cleared first. With a warmed `out` this is allocation-free.
    pub fn expand_read_into(
        &mut self,
        data_addr: u64,
        llc: &mut SetAssocCache,
        out: &mut Expansion,
    ) {
        self.stats.data_reads += 1;
        out.clear();
        out.read(data_addr, RequestClass::Data);
        if self.design.secure {
            self.mac_on_read(data_addr, llc, out);

            let ctr_addr = self.layout.counter_line_addr(data_addr);
            let ctr_hit = self.fetch_counter_line(ctr_addr, llc, false, out);
            // Bonsai designs verify counters up the counter tree. IVEC's
            // tree covers MAC lines instead — its walk is in `mac_on_read`.
            if !ctr_hit && self.design.tree_leaves == TreeLeaves::CounterLines {
                self.walk_tree(ctr_addr, llc, out);
            }
        }
        if self.failed_chip.is_some() {
            self.degraded_read(data_addr, llc, out);
        }
    }

    /// The §IV-A degraded-mode read flow. A data line stripes across all
    /// nine chips, so with a failed chip *every* off-chip data read must
    /// reconstruct that chip's contribution before the line is usable.
    /// Metadata lines correct in-line against the ECC chip's ParityC slot
    /// (§III-B) and add no traffic, so only the data read pays here.
    fn degraded_read(&mut self, data_addr: u64, llc: &mut SetAssocCache, out: &mut Expansion) {
        match self.design.chip_failure_response() {
            ChipFailureResponse::Uncorrectable => self.degraded.due_events += 1,
            ChipFailureResponse::InlineCorrect => self.degraded.corrections += 1,
            ChipFailureResponse::ParityReconstruct => {
                // RAID-3 reconstruction needs the line's parity slot. One
                // parity line covers eight data lines, and while a chip is
                // failed the engine caches parity like other metadata
                // (dedicated + LLC per the design's caching columns), so
                // the recurring overhead amortizes across neighbours.
                let p_addr = self.layout.parity_line_addr(data_addr);
                let hit = self.fetch_metadata_line(p_addr, RequestClass::Parity, llc, false, out);
                if hit == MetaHit::Memory {
                    self.degraded.parity_reads += 1;
                } else {
                    self.degraded.parity_hits += 1;
                }
                self.degraded.corrections += 1;
                if !self.diagnosed {
                    // First detection: trial reconstruction tries chip
                    // candidates until the MAC verifies (≤9 MAC
                    // recomputations, §III-B). Afterwards the chip is
                    // tracked and corrections cost no extra MAC work.
                    self.diagnosed = true;
                    self.degraded.detections += 1;
                    out.diagnosis = true;
                }
            }
        }
    }

    /// Expands an off-chip data *writeback* (dirty LLC eviction) into
    /// `out`, which is cleared first. With a warmed `out` this is
    /// allocation-free.
    pub fn expand_writeback_into(
        &mut self,
        data_addr: u64,
        llc: &mut SetAssocCache,
        out: &mut Expansion,
    ) {
        self.stats.data_writebacks += 1;
        out.clear();
        out.write(data_addr, RequestClass::Data);
        if !self.design.secure {
            return;
        }

        // Counter increment: the line must be resident to bump it, then it
        // becomes dirty in the metadata cache.
        let ctr_addr = self.layout.counter_line_addr(data_addr);
        let ctr_hit = self.fetch_counter_line(ctr_addr, llc, true, out);
        if self.design.tree_leaves == TreeLeaves::CounterLines {
            if !ctr_hit {
                self.walk_tree(ctr_addr, llc, out);
            }
            self.dirty_walk(ctr_addr, llc, out);
        }

        // MAC update.
        match self.design.mac {
            MacPlacement::None | MacPlacement::EccChip => {}
            MacPlacement::SeparateRegion => {
                out.write(self.layout.mac_line_addr(data_addr), RequestClass::Mac);
            }
            MacPlacement::SeparateRegionLlcCached => {
                let mac_addr = self.layout.mac_line_addr(data_addr);
                if !llc.write(mac_addr) {
                    // Partial-line MAC merge: allocate dirty without a fetch.
                    self.llc_fill(mac_addr, true, llc, out);
                }
                // IVEC: the changed MAC must propagate up the Merkle
                // tree. A cached ancestor absorbs the update; a missing
                // node must be *fetched* (its hash is recomputed from the
                // modified child), dirtied, and the propagation continues
                // — the eager write-path cost of a non-Bonsai tree.
                if self.design.tree_leaves == TreeLeaves::MacLines {
                    for node in self.layout.tree_path_iter(mac_addr) {
                        if llc.write(node) {
                            break;
                        }
                        out.read(node, RequestClass::TreeNode);
                        self.stats.tree_fetches += 1;
                        self.llc_fill(node, true, llc, out);
                    }
                }
            }
        }

        // Reliability: parity update (fractional for LOT-ECC coalescing).
        self.parity_accumulator += self.design.parity_write_factor();
        if self.parity_accumulator >= 1.0 {
            self.parity_accumulator -= 1.0;
            out.write(self.layout.parity_line_addr(data_addr), RequestClass::Parity);
        }
    }

    /// MAC handling on the read path.
    fn mac_on_read(&mut self, data_addr: u64, llc: &mut SetAssocCache, out: &mut Expansion) {
        match self.design.mac {
            MacPlacement::None | MacPlacement::EccChip => {}
            MacPlacement::SeparateRegion => {
                out.read(self.layout.mac_line_addr(data_addr), RequestClass::Mac);
            }
            MacPlacement::SeparateRegionLlcCached => {
                let mac_addr = self.layout.mac_line_addr(data_addr);
                if !llc.read(mac_addr) {
                    out.read(mac_addr, RequestClass::Mac);
                    self.llc_fill(mac_addr, false, llc, out);
                    // In IVEC the MAC line is a tree leaf: verify it up the
                    // MAC tree.
                    if self.design.tree_leaves == TreeLeaves::MacLines {
                        self.walk_tree(mac_addr, llc, out);
                    }
                }
            }
        }
    }

    /// Which caches hold lines of `region` under this design.
    ///
    /// "Counters" in the paper's caching columns means both encryption
    /// counters and integrity-tree counters (§II-A5): SGX_O and Synergy
    /// cache both in the LLC in addition to the dedicated cache.
    fn caching_policy(&self, region: Region) -> (bool, bool) {
        match region {
            Region::Counter => (true, self.design.counters_in_llc),
            Region::Tree(_) => match self.design.tree_leaves {
                TreeLeaves::CounterLines => (true, self.design.counters_in_llc),
                // IVEC's tree nodes are MAC material: LLC only.
                TreeLeaves::MacLines => (false, true),
            },
            // Parity lines are write-only while healthy (posted updates,
            // never re-read), so caching them would only waste capacity.
            // Under a failed chip every data read re-reads its parity
            // slot for reconstruction — then they cache like counters.
            Region::Parity if self.failed_chip.is_some() => {
                (true, self.design.counters_in_llc)
            }
            _ => (false, false),
        }
    }

    /// Looks up / fetches a counter line. Returns `true` when it was found
    /// in a cache (no DRAM access). `dirty` marks the line modified
    /// (counter increment).
    fn fetch_counter_line(
        &mut self,
        ctr_addr: u64,
        llc: &mut SetAssocCache,
        dirty: bool,
        out: &mut Expansion,
    ) -> bool {
        let hit = self.fetch_metadata_line(ctr_addr, RequestClass::Counter, llc, dirty, out);
        match hit {
            MetaHit::Dedicated => self.stats.counter_dedicated_hits += 1,
            MetaHit::Llc => self.stats.counter_llc_hits += 1,
            MetaHit::Memory => self.stats.counter_misses += 1,
        }
        hit != MetaHit::Memory
    }

    /// Walks the integrity tree upward from leaf line `leaf_addr`,
    /// fetching nodes until one hits in a cache (or the on-chip root).
    fn walk_tree(&mut self, leaf_addr: u64, llc: &mut SetAssocCache, out: &mut Expansion) {
        for node in self.layout.tree_path_iter(leaf_addr) {
            let hit = self.fetch_metadata_line(node, RequestClass::TreeNode, llc, false, out);
            if hit != MetaHit::Memory {
                return; // verified against a trusted cached copy
            }
            self.stats.tree_fetches += 1;
        }
    }

    /// Lazy dirty propagation on writes: mark tree nodes dirty up the path
    /// until one was already cached (it absorbs the update).
    ///
    /// A node may live in either cache — on a counter hit `walk_tree` never
    /// ran, so the path can be LLC-resident only (`counters_in_llc`
    /// designs) or not resident at all. The walk dirties the node wherever
    /// it is held (dedicated first, falling through to the LLC); a node
    /// held nowhere is write-allocated dirty *without a fetch* — its new
    /// value derives from the modified child, not from DRAM — and
    /// propagation continues to its parent.
    fn dirty_walk(&mut self, leaf_addr: u64, llc: &mut SetAssocCache, out: &mut Expansion) {
        for node in self.layout.tree_path_iter(leaf_addr) {
            let (use_dedicated, use_llc) = self.caching_policy(self.layout.classify(node));
            if use_dedicated && self.metadata_cache.contains(node) {
                self.metadata_cache.write(node);
                break;
            }
            if use_llc && llc.contains(node) {
                llc.write(node);
                break;
            }
            if use_dedicated {
                self.dedicated_fill(node, true, llc, out);
            } else if use_llc {
                self.llc_fill(node, true, llc, out);
            }
        }
    }

    /// Generic metadata-line lookup + fill with eviction handling.
    fn fetch_metadata_line(
        &mut self,
        addr: u64,
        class: RequestClass,
        llc: &mut SetAssocCache,
        dirty: bool,
        out: &mut Expansion,
    ) -> MetaHit {
        let region = self.layout.classify(addr);
        let (use_dedicated, use_llc) = self.caching_policy(region);

        if use_dedicated {
            let hit = if dirty { self.metadata_cache.write(addr) } else { self.metadata_cache.read(addr) };
            if hit {
                return MetaHit::Dedicated;
            }
        }
        if use_llc {
            // When the line is promoted into the dedicated cache the LLC
            // lookup is a plain probe — dirtying the outer copy too would
            // create two dirty owners and, eventually, two writebacks for
            // one logical dirty episode.
            let hit = if dirty && !use_dedicated { llc.write(addr) } else { llc.read(addr) };
            if hit {
                if use_dedicated {
                    // Promote inward, claiming any pending writeback
                    // obligation from the outer copy so dirtiness always
                    // has exactly one owner (the innermost cache).
                    let claimed = llc.take_dirty(addr);
                    self.dedicated_fill(addr, dirty || claimed, llc, out);
                }
                return MetaHit::Llc;
            }
        }

        // DRAM fetch. The dirty bit lands in the innermost cache holding
        // the line; any LLC shadow copy is filled clean.
        out.read(addr, class);
        if use_dedicated {
            self.dedicated_fill(addr, dirty, llc, out);
        }
        if use_llc {
            self.llc_fill(addr, dirty && !use_dedicated, llc, out);
        }
        MetaHit::Memory
    }

    /// Fills the dedicated metadata cache, spilling dirty victims to the
    /// LLC (when the design caches metadata there) or to DRAM.
    fn dedicated_fill(
        &mut self,
        addr: u64,
        dirty: bool,
        llc: &mut SetAssocCache,
        out: &mut Expansion,
    ) {
        if let Some(ev) = self.metadata_cache.fill(addr, dirty) {
            if ev.dirty {
                let (_, victim_in_llc) = self.caching_policy(self.layout.classify(ev.addr));
                if victim_in_llc {
                    // The LLC may still hold the victim's clean shadow.
                    let displaced = llc.fill(ev.addr, true);
                    self.spill(displaced, out);
                } else {
                    out.write(ev.addr, self.class_of(ev.addr));
                }
            }
        }
    }

    /// Fills the LLC with a metadata line its lookup has just missed (see
    /// [`SetAssocCache::fill_missing`]), spilling the displaced line.
    fn llc_fill(&self, addr: u64, dirty: bool, llc: &mut SetAssocCache, out: &mut Expansion) {
        let displaced = llc.fill_missing(addr, dirty);
        self.spill(displaced, out);
    }

    /// Turns a line an LLC fill displaced into a writeback (dirty metadata
    /// → DRAM write; dirty data → returned to the caller for full
    /// expansion).
    fn spill(&self, displaced: Option<Eviction>, out: &mut Expansion) {
        if let Some(ev) = displaced {
            if ev.dirty {
                match self.layout.classify(ev.addr) {
                    Region::Data => out.evicted_dirty_data.push(ev.addr),
                    _ => out.write(ev.addr, self.class_of(ev.addr)),
                }
            }
        }
    }

    /// The traffic class of an address, by metadata region — used by the
    /// system simulator to classify LLC writebacks.
    pub fn class_of(&self, addr: u64) -> RequestClass {
        let region = self.layout.classify(addr);
        debug_assert!(
            region != Region::OutOfRange,
            "address {addr:#x} lies beyond the metadata layout — a layout or \
             address-generation bug, not a classifiable access"
        );
        match region {
            Region::Data => RequestClass::Data,
            Region::Counter => RequestClass::Counter,
            Region::Mac => RequestClass::Mac,
            Region::Parity => RequestClass::Parity,
            Region::Tree(_) => RequestClass::TreeNode,
            // Release builds degrade gracefully: account it as data.
            Region::OutOfRange => RequestClass::Data,
        }
    }
}

/// Where a metadata lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaHit {
    Dedicated,
    Llc,
    Memory,
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: u64 = 1 << 26; // 64 MB protected region

    fn llc() -> SetAssocCache {
        SetAssocCache::new(CacheConfig::new(8 << 20, 8, 64).unwrap())
    }

    fn count(out: &Expansion, class: RequestClass, kind: AccessKind) -> usize {
        out.accesses.iter().filter(|a| a.class == class && a.kind == kind).count()
    }

    /// Expands a read into a fresh buffer.
    fn read(e: &mut SecureEngine, addr: u64, llc: &mut SetAssocCache) -> Expansion {
        let mut out = Expansion::default();
        e.expand_read_into(addr, llc, &mut out);
        out
    }

    /// Expands a writeback into a fresh buffer.
    fn writeback(e: &mut SecureEngine, addr: u64, llc: &mut SetAssocCache) -> Expansion {
        let mut out = Expansion::default();
        e.expand_writeback_into(addr, llc, &mut out);
        out
    }

    #[test]
    fn non_secure_read_is_one_access() {
        let mut e = SecureEngine::new(DesignConfig::non_secure(), DATA);
        let out = read(&mut e, 0x4000, &mut llc());
        assert_eq!(out.accesses.len(), 1);
        assert_eq!(out.accesses[0].class, RequestClass::Data);
    }

    #[test]
    fn sgx_o_cold_read_fetches_mac_counter_and_tree() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        let mut llc = llc();
        let out = read(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&out, RequestClass::Data, AccessKind::Read), 1);
        assert_eq!(count(&out, RequestClass::Mac, AccessKind::Read), 1);
        assert_eq!(count(&out, RequestClass::Counter, AccessKind::Read), 1);
        // Cold tree walk reaches the on-chip root: every level fetched.
        let depth = e.layout().tree_depth();
        assert_eq!(count(&out, RequestClass::TreeNode, AccessKind::Read), depth);
    }

    #[test]
    fn warm_read_skips_counter_and_tree_but_not_mac() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        let mut llc = llc();
        let _ = read(&mut e, 0x4000, &mut llc);
        let out = read(&mut e, 0x4040, &mut llc); // same counter line
        assert_eq!(out.accesses.len(), 2, "{:?}", out.accesses);
        assert_eq!(count(&out, RequestClass::Mac, AccessKind::Read), 1);
    }

    #[test]
    fn synergy_read_has_no_mac_access() {
        let mut e = SecureEngine::new(DesignConfig::synergy(), DATA);
        let mut llc = llc();
        let cold = read(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&cold, RequestClass::Mac, AccessKind::Read), 0);
        let warm = read(&mut e, 0x4040, &mut llc);
        assert_eq!(warm.accesses.len(), 1, "warm Synergy read = data only");
    }

    #[test]
    fn synergy_writeback_pays_parity_not_mac() {
        let mut e = SecureEngine::new(DesignConfig::synergy(), DATA);
        let mut llc = llc();
        let _ = read(&mut e, 0x4000, &mut llc); // warm the counter path
        let out = writeback(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&out, RequestClass::Data, AccessKind::Write), 1);
        assert_eq!(count(&out, RequestClass::Parity, AccessKind::Write), 1);
        assert_eq!(count(&out, RequestClass::Mac, AccessKind::Write), 0);
    }

    #[test]
    fn sgx_o_writeback_pays_mac_not_parity() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        let mut llc = llc();
        let _ = read(&mut e, 0x4000, &mut llc);
        let out = writeback(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&out, RequestClass::Mac, AccessKind::Write), 1);
        assert_eq!(count(&out, RequestClass::Parity, AccessKind::Write), 0);
    }

    #[test]
    fn lot_ecc_coalescing_halves_parity_writes() {
        let mut full = SecureEngine::new(DesignConfig::lot_ecc(false), DATA);
        let mut half = SecureEngine::new(DesignConfig::lot_ecc(true), DATA);
        let mut llc_a = llc();
        let mut llc_b = llc();
        let mut parity_full = 0;
        let mut parity_half = 0;
        for i in 0..100u64 {
            let addr = i * 64;
            parity_full +=
                count(&writeback(&mut full, addr, &mut llc_a), RequestClass::Parity, AccessKind::Write);
            parity_half +=
                count(&writeback(&mut half, addr, &mut llc_b), RequestClass::Parity, AccessKind::Write);
        }
        assert_eq!(parity_full, 100);
        assert_eq!(parity_half, 50);
    }

    #[test]
    fn sgx_counters_never_touch_llc() {
        let mut e = SecureEngine::new(DesignConfig::sgx(), DATA);
        let mut llc = llc();
        for i in 0..1000u64 {
            let _ = read(&mut e, i * 64 * 8, &mut llc); // distinct counter lines
        }
        assert_eq!(llc.resident_lines(), 0, "SGX must not pollute the LLC");
        assert!(e.stats().counter_llc_hits == 0);
    }

    #[test]
    fn sgx_o_counters_spill_into_llc() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        let mut llc = llc();
        // Touch more counter lines than the 2048-line metadata cache holds.
        for i in 0..4096u64 {
            let _ = read(&mut e, i * 64 * 8, &mut llc);
        }
        assert!(llc.resident_lines() > 0, "counters must fill the LLC");
        // Re-touching early lines: many now hit in LLC.
        let before = e.stats().counter_llc_hits;
        for i in 0..1024u64 {
            let _ = read(&mut e, i * 64 * 8, &mut llc);
        }
        assert!(e.stats().counter_llc_hits > before);
    }

    #[test]
    fn metadata_fills_evict_dirty_data_for_cascading() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        // Tiny LLC so metadata fills displace data immediately.
        let mut llc = SetAssocCache::new(CacheConfig::new(4096, 2, 64).unwrap());
        // Fill the LLC with dirty data lines.
        for i in 0..64u64 {
            llc.fill(i * 64, true);
        }
        let mut evicted = 0;
        for i in 0..64u64 {
            let out = read(&mut e, i * 64 * 512, &mut llc);
            evicted += out.evicted_dirty_data.len();
        }
        assert!(evicted > 0, "metadata must displace dirty data lines");
    }

    #[test]
    fn ivec_mac_misses_walk_the_mac_tree() {
        let mut e = SecureEngine::new(DesignConfig::ivec(), DATA);
        let mut llc = llc();
        let out = read(&mut e, 0x4000, &mut llc);
        // IVEC: data + MAC + counter + MAC-tree walk.
        assert_eq!(count(&out, RequestClass::Mac, AccessKind::Read), 1);
        assert!(count(&out, RequestClass::TreeNode, AccessKind::Read) > 0);
        // Second access to a line sharing the MAC line: MAC now in LLC.
        let out2 = read(&mut e, 0x4040, &mut llc);
        assert_eq!(count(&out2, RequestClass::Mac, AccessKind::Read), 0);
    }

    #[test]
    fn split_counters_reduce_counter_misses() {
        let mono = DesignConfig::synergy();
        let split = DesignConfig::synergy().with_split_counters();
        let mut e_mono = SecureEngine::new(mono, DATA);
        let mut e_split = SecureEngine::new(split, DATA);
        let mut llc_a = llc();
        let mut llc_b = llc();
        // A strided scan over many lines: split counters cover 8x more data
        // per counter line, so they miss less.
        for i in 0..20_000u64 {
            let addr = (i * 64 * 8) % DATA;
            let _ = read(&mut e_mono, addr, &mut llc_a);
            let _ = read(&mut e_split, addr, &mut llc_b);
        }
        assert!(
            e_split.stats().counter_misses < e_mono.stats().counter_misses / 2,
            "split {} vs mono {}",
            e_split.stats().counter_misses,
            e_mono.stats().counter_misses
        );
    }

    #[test]
    #[should_panic(expected = "past the metadata cache's address limit of 68719476736 bytes")]
    fn metadata_cache_too_small_to_tag_the_layout_panics_at_construction() {
        // One 64 B-line set tags the first 64 GiB; 64 GiB of data plus
        // its metadata reaches past that.
        let one_set = CacheConfig::new(64, 1, 64).unwrap();
        let _ = SecureEngine::with_metadata_cache(DesignConfig::synergy(), 64 << 30, one_set);
    }

    #[test]
    fn dirty_walk_dirties_llc_resident_tree_nodes() {
        // The lost-dirty-propagation pin: with a tiny dedicated cache the
        // integrity-tree path survives only in the LLC (SGX_O caches tree
        // nodes there). A writeback whose counter hits the LLC must still
        // dirty the level-0 tree node — in the LLC, since the dedicated
        // cache no longer holds it. The old code wrote only the dedicated
        // cache (a silent no-op on miss), so no tree writeback ever
        // surfaced from this path and tree write traffic was undercounted.
        let tiny = CacheConfig::new(128, 1, 64).unwrap(); // 2 lines
        let mut e = SecureEngine::with_metadata_cache(DesignConfig::sgx_o(), DATA, tiny);
        let mut llc = llc();
        let addr = 0x4000;
        let _ = read(&mut e, addr, &mut llc); // path now in dedicated + LLC
        // Thrash the dedicated cache with distant counter lines.
        for i in 0..64u64 {
            let _ = read(&mut e, (1 << 20) + i * 64 * 8, &mut llc);
        }
        let ctr = e.layout().counter_line_addr(addr);
        let l0 = e.layout().tree_path(ctr)[0];
        assert!(!e.metadata_cache.contains(l0), "setup: node thrashed out of dedicated");
        assert!(llc.contains(l0), "setup: node still LLC-resident");

        let misses_before = e.metadata_cache.stats().write_misses;
        let _ = writeback(&mut e, addr, &mut llc);
        let mut dirty = Vec::new();
        llc.drain_dirty_into(&mut dirty);
        let tree_dirty = dirty
            .into_iter()
            .filter(|&a| matches!(e.layout().classify(a), Region::Tree(_)))
            .count();
        assert!(tree_dirty >= 1, "tree node must be dirtied in the LLC");
        assert_eq!(
            e.metadata_cache.stats().write_misses,
            misses_before + 1,
            "only the counter lookup may count a write miss — the tree walk \
             probes with contains() and must not pollute miss stats"
        );
    }

    #[test]
    fn degraded_synergy_read_pays_parity_then_tracks() {
        let mut e = SecureEngine::new(DesignConfig::synergy(), DATA);
        let mut llc = llc();
        let healthy = read(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&healthy, RequestClass::Parity, AccessKind::Read), 0);

        e.fail_chip(3);
        assert_eq!(e.failed_chip(), Some(3));
        let first = read(&mut e, 0x8000, &mut llc);
        assert_eq!(count(&first, RequestClass::Parity, AccessKind::Read), 1);
        assert!(first.diagnosis, "first corrected read runs the diagnosis burst");
        let again = read(&mut e, 0x8000, &mut llc);
        assert_eq!(
            count(&again, RequestClass::Parity, AccessKind::Read),
            0,
            "parity line now cached"
        );
        assert!(!again.diagnosis, "tracked fast path after diagnosis");
        let d = e.degraded_stats();
        assert_eq!(d.detections, 1);
        assert_eq!(d.corrections, 2);
        assert_eq!(d.parity_reads, 1);
        assert_eq!(d.parity_hits, 1);
        assert_eq!(d.due_events, 0);
    }

    #[test]
    fn degraded_secded_design_counts_uncorrectable_errors() {
        let mut e = SecureEngine::new(DesignConfig::sgx_o(), DATA);
        let mut llc = llc();
        e.fail_chip(0);
        let out = read(&mut e, 0x4000, &mut llc);
        assert_eq!(count(&out, RequestClass::Parity, AccessKind::Read), 0);
        assert!(!out.diagnosis);
        assert_eq!(e.degraded_stats().due_events, 1);
        assert_eq!(e.degraded_stats().corrections, 0);
    }

    #[test]
    fn degraded_inline_correct_designs_add_no_traffic() {
        for design in [DesignConfig::synergy_custom_dimm(), DesignConfig::sgx_o_chipkill()] {
            let mut healthy = SecureEngine::new(design.clone(), DATA);
            let mut failed = SecureEngine::new(design, DATA);
            let mut llc_a = llc();
            let mut llc_b = llc();
            failed.fail_chip(8);
            let a = read(&mut healthy, 0x4000, &mut llc_a);
            let b = read(&mut failed, 0x4000, &mut llc_b);
            assert_eq!(a.accesses, b.accesses, "in-line correction is traffic-free");
            assert_eq!(failed.degraded_stats().corrections, 1);
            assert_eq!(failed.degraded_stats().parity_reads, 0);
        }
    }

    #[test]
    #[should_panic(expected = "correction domain")]
    fn fail_chip_rejects_out_of_domain() {
        SecureEngine::new(DesignConfig::synergy(), DATA).fail_chip(9);
    }

    #[test]
    fn dirty_counters_written_back_eventually() {
        let mut e = SecureEngine::new(DesignConfig::sgx(), DATA);
        let mut llc = llc();
        // Dirty many distinct counter lines (writebacks), overflowing the
        // metadata cache: dirty victims must emerge as Counter writes.
        let mut counter_writes = 0;
        for i in 0..4096u64 {
            let out = writeback(&mut e, i * 64 * 8, &mut llc);
            counter_writes += count(&out, RequestClass::Counter, AccessKind::Write);
        }
        assert!(counter_writes > 0, "dirty counter lines must write back");
    }
}
