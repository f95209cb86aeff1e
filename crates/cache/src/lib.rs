//! Set-associative cache models for the SYNERGY performance simulator.
//!
//! The paper's system (Table III) has two caches that matter to the secure
//! memory engine:
//!
//! * the shared **last-level cache** (8 MB, 8-way, 64 B lines), which in the
//!   SGX_O and Synergy designs also holds encryption/tree counters, and
//! * the dedicated **metadata cache** (128 KB, 8-way), which holds counters
//!   and integrity-tree nodes close to the memory controller.
//!
//! Whether a counter lookup hits in these caches decides whether a data
//! access costs one DRAM request or several — the entire performance story
//! of the paper flows through these models, so they are exact
//! (true-LRU, write-back, write-allocate) rather than probabilistic.
//!
//! # Example
//!
//! ```
//! use synergy_cache::{CacheConfig, SetAssocCache};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut llc = SetAssocCache::new(CacheConfig::new(8 << 20, 8, 64)?);
//! assert!(!llc.read(0x4000)); // cold miss
//! llc.fill(0x4000, false);
//! assert!(llc.read(0x4000)); // hit
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Errors from cache construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheError {
    /// A size parameter was zero or not a power of two, or the geometry is
    /// inconsistent (capacity not divisible into sets).
    InvalidGeometry {
        /// Human-readable description of the offending parameter.
        reason: String,
    },
}

impl core::fmt::Display for CacheError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CacheError::InvalidGeometry { reason } => {
                write!(f, "invalid cache geometry: {reason}")
            }
        }
    }
}

impl std::error::Error for CacheError {}

/// Geometry of a set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    capacity_bytes: usize,
    ways: usize,
    line_bytes: usize,
}

impl CacheConfig {
    /// Builds and validates a cache geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError::InvalidGeometry`] when any parameter is zero,
    /// `line_bytes` is not a power of two, or the capacity does not divide
    /// evenly into `ways × line_bytes` sets.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Result<Self, CacheError> {
        let invalid = |reason: String| Err(CacheError::InvalidGeometry { reason });
        if capacity_bytes == 0 || ways == 0 || line_bytes == 0 {
            return invalid("parameters must be nonzero".into());
        }
        if !line_bytes.is_power_of_two() {
            return invalid(format!("line size {line_bytes} is not a power of two"));
        }
        let way_bytes = ways * line_bytes;
        if !capacity_bytes.is_multiple_of(way_bytes) {
            return invalid(format!(
                "capacity {capacity_bytes} not divisible by ways*line ({way_bytes})"
            ));
        }
        let sets = capacity_bytes / way_bytes;
        if !sets.is_power_of_two() {
            return invalid(format!("set count {sets} is not a power of two"));
        }
        Ok(Self { capacity_bytes, ways, line_bytes })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Cacheline size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.line_bytes
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.ways * self.line_bytes)
    }
}

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// Byte address of the evicted line (aligned to the line size).
    pub addr: u64,
    /// Whether the victim was dirty (requires a writeback to memory).
    pub dirty: bool,
}

// Per-way state is packed into one u64 "meta word" per way:
//
//   bit 0      valid
//   bit 1      dirty
//   bits 2..   tag
//
// A probe compares `word & !DIRTY` against `tag << TAG_SHIFT | VALID`, so
// hit detection is a single load + mask + compare per way. The tag of a
// 64-bit byte address loses `line_shift + set_bits` low bits first (≥ 7 in
// every modeled geometry), so shifting it up by 2 cannot overflow.
const WAY_VALID: u64 = 1;
const WAY_DIRTY: u64 = 2;
const TAG_SHIFT: u32 = 2;

/// Hit/miss statistics, separable by read and write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups that hit.
    pub write_hits: u64,
    /// Write lookups that missed.
    pub write_misses: u64,
    /// Fills performed.
    pub fills: u64,
    /// Evictions of valid lines.
    pub evictions: u64,
    /// Evictions of dirty lines (writebacks generated).
    pub writebacks: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Miss ratio over all lookups (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            (self.read_misses + self.write_misses) as f64 / total as f64
        }
    }
}

impl synergy_obs::Observe for CacheStats {
    fn observe(&self, prefix: &str, registry: &mut synergy_obs::MetricRegistry) {
        use synergy_obs::metric_name;
        registry.set_counter(&metric_name(prefix, "read_hits"), self.read_hits);
        registry.set_counter(&metric_name(prefix, "read_misses"), self.read_misses);
        registry.set_counter(&metric_name(prefix, "write_hits"), self.write_hits);
        registry.set_counter(&metric_name(prefix, "write_misses"), self.write_misses);
        registry.set_counter(&metric_name(prefix, "fills"), self.fills);
        registry.set_counter(&metric_name(prefix, "evictions"), self.evictions);
        registry.set_counter(&metric_name(prefix, "writebacks"), self.writebacks);
        registry.set_gauge(&metric_name(prefix, "miss_ratio"), self.miss_ratio());
    }
}

/// A write-back, write-allocate, true-LRU set-associative cache model.
///
/// The cache tracks presence and dirtiness only — data contents live in the
/// functional layer. Addresses are byte addresses; the cache masks them to
/// line granularity internally.
///
/// # Storage layout
///
/// Way state lives in two flat parallel arrays indexed by
/// `set * ways + way`:
///
/// ```text
/// meta:     [ tag|d|v ][ tag|d|v ] ... one packed u64 per way
/// last_use: [   u64   ][   u64   ] ... LRU clocks, probed only on evict
/// ```
///
/// Splitting the LRU clocks out of the probe array means a lookup touches
/// one contiguous `ways`-long run of packed words (a single cacheline for
/// 8-way geometries) and only the hitting way's clock; set index and tag
/// come from precomputed shift/mask (line size and set count are validated
/// powers of two, so the div/mod forms are exact shifts).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Packed valid/dirty/tag words, `sets * ways` long.
    meta: Box<[u64]>,
    /// LRU clocks, parallel to `meta`.
    last_use: Box<[u64]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_bits: u32,
    /// `sets - 1`.
    set_mask: u64,
    use_clock: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let slots = config.sets() * config.ways;
        Self {
            config,
            meta: vec![0u64; slots].into_boxed_slice(),
            last_use: vec![0u64; slots].into_boxed_slice(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: config.sets().trailing_zeros(),
            set_mask: config.sets() as u64 - 1,
            use_clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (e.g. after simulator warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    #[inline]
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line >> self.set_bits)
    }

    /// Byte address of the line stored at `slot` (inverse of
    /// [`Self::set_and_tag`] given the slot's set).
    #[inline]
    fn slot_addr(&self, slot: usize) -> u64 {
        let set = (slot / self.config.ways) as u64;
        let tag = self.meta[slot] >> TAG_SHIFT;
        ((tag << self.set_bits) | set) << self.line_shift
    }

    /// Flat index of the first way of `set`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.config.ways
    }

    /// Probes `set` for `tag`; returns the hitting slot index.
    #[inline]
    fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        let want = (tag << TAG_SHIFT) | WAY_VALID;
        let base = self.base(set);
        self.meta[base..base + self.config.ways]
            .iter()
            .position(|&w| w & !WAY_DIRTY == want)
            .map(|i| base + i)
    }

    /// Performs a read lookup, updating LRU state. Returns `true` on hit.
    #[inline]
    pub fn read(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr, false);
        if hit {
            self.stats.read_hits += 1;
        } else {
            self.stats.read_misses += 1;
        }
        hit
    }

    /// Performs a write lookup, updating LRU state and marking the line
    /// dirty on hit. Returns `true` on hit.
    #[inline]
    pub fn write(&mut self, addr: u64) -> bool {
        let hit = self.touch(addr, true);
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
        hit
    }

    #[inline]
    fn touch(&mut self, addr: u64, mark_dirty: bool) -> bool {
        self.use_clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        if let Some(slot) = self.probe(set, tag) {
            self.last_use[slot] = self.use_clock;
            if mark_dirty {
                self.meta[slot] |= WAY_DIRTY;
            }
            true
        } else {
            false
        }
    }

    /// Checks for presence without disturbing LRU or statistics.
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.probe(set, tag).is_some()
    }

    /// Inserts a line (after a miss was serviced from the next level),
    /// evicting the LRU way if the set is full.
    ///
    /// Returns the eviction, if a valid line was displaced. Filling a line
    /// that is already present just updates its dirty bit.
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.use_clock += 1;
        self.stats.fills += 1;
        let (set, tag) = self.set_and_tag(addr);

        // Already present (e.g. raced fills): refresh rather than duplicate.
        if let Some(slot) = self.probe(set, tag) {
            self.last_use[slot] = self.use_clock;
            if dirty {
                self.meta[slot] |= WAY_DIRTY;
            }
            return None;
        }

        // Victim: first invalid way, else the first way with the minimal
        // LRU clock (scan order matches the original nested-Vec model).
        let base = self.base(set);
        let ways = self.config.ways;
        let mut victim = base;
        let mut victim_clock = u64::MAX;
        let mut found_invalid = false;
        for slot in base..base + ways {
            if self.meta[slot] & WAY_VALID == 0 {
                victim = slot;
                found_invalid = true;
                break;
            }
            let clock = self.last_use[slot];
            if clock < victim_clock {
                victim = slot;
                victim_clock = clock;
            }
        }

        let eviction = if !found_invalid {
            let word = self.meta[victim];
            let was_dirty = word & WAY_DIRTY != 0;
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            Some(Eviction { addr: self.slot_addr(victim), dirty: was_dirty })
        } else {
            None
        };

        self.meta[victim] =
            (tag << TAG_SHIFT) | WAY_VALID | if dirty { WAY_DIRTY } else { 0 };
        self.last_use[victim] = self.use_clock;
        eviction
    }

    /// Clears the dirty bit of a resident line, returning whether it was
    /// dirty. LRU order and statistics are untouched (this is a coherence
    /// action, not an access). Cache hierarchies that keep a *single*
    /// dirty owner per line use this when a line is promoted into an
    /// inner cache: the outer copy's pending writeback obligation is
    /// claimed and travels inward with the line, so the same logical
    /// dirty episode can never generate two writebacks.
    #[inline]
    pub fn take_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        if let Some(slot) = self.probe(set, tag) {
            let was = self.meta[slot] & WAY_DIRTY != 0;
            self.meta[slot] &= !WAY_DIRTY;
            was
        } else {
            false
        }
    }

    /// Removes a line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        self.probe(set, tag).map(|slot| {
            let was = self.meta[slot] & WAY_DIRTY != 0;
            self.meta[slot] = 0;
            was
        })
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.meta.iter().filter(|&&w| w & WAY_VALID != 0).count()
    }

    /// Drains every dirty line, returning their addresses (used at
    /// simulation end to flush pending writebacks). Convenience wrapper
    /// around [`Self::drain_dirty_into`].
    pub fn drain_dirty(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        self.drain_dirty_into(&mut dirty);
        dirty
    }

    /// Drains every dirty line into a caller-owned buffer (not cleared
    /// first), clearing the dirty bits. Addresses are appended in flat
    /// slot order — identical to the original set-major / way-minor scan.
    pub fn drain_dirty_into(&mut self, dirty: &mut Vec<u64>) {
        for slot in 0..self.meta.len() {
            let word = self.meta[slot];
            if word & (WAY_VALID | WAY_DIRTY) == (WAY_VALID | WAY_DIRTY) {
                dirty.push(self.slot_addr(slot));
                self.meta[slot] &= !WAY_DIRTY;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets × 2 ways × 64 B lines = 256 B.
        SetAssocCache::new(CacheConfig::new(256, 2, 64).unwrap())
    }

    #[test]
    fn geometry_validation() {
        assert!(CacheConfig::new(0, 8, 64).is_err());
        assert!(CacheConfig::new(8192, 0, 64).is_err());
        assert!(CacheConfig::new(8192, 8, 0).is_err());
        assert!(CacheConfig::new(8192, 8, 48).is_err()); // line not pow2
        assert!(CacheConfig::new(1000, 2, 64).is_err()); // not divisible
        let cfg = CacheConfig::new(8 << 20, 8, 64).unwrap();
        assert_eq!(cfg.sets(), 16384);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.read(0));
        c.fill(0, false);
        assert!(c.read(0));
        assert_eq!(c.stats().read_hits, 1);
        assert_eq!(c.stats().read_misses, 1);
    }

    #[test]
    fn sub_line_addresses_share_a_line() {
        let mut c = small();
        c.fill(0x40, false);
        assert!(c.read(0x40));
        assert!(c.read(0x7F)); // same 64 B line
        assert!(!c.read(0x80)); // next line
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small();
        // Set 0 holds lines with (line % 2 == 0): addrs 0, 128, 256.
        c.fill(0, false);
        c.fill(128, false);
        assert!(c.read(0)); // 0 is now MRU; 128 is LRU
        let ev = c.fill(256, false).expect("must evict");
        assert_eq!(ev.addr, 128);
        assert!(!ev.dirty);
        assert!(c.contains(0));
        assert!(!c.contains(128));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.fill(0, false);
        assert!(c.write(0)); // dirty it
        c.fill(128, false);
        let ev = c.fill(256, false).expect("evicts line 0 (LRU)");
        // Recency order: write(0), fill(128) → LRU is 0.
        assert_eq!(ev.addr, 0);
        assert!(ev.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn fill_existing_line_does_not_evict() {
        let mut c = small();
        c.fill(0, false);
        c.fill(128, false);
        assert!(c.fill(0, true).is_none());
        assert!(c.contains(0));
        assert!(c.contains(128));
    }

    #[test]
    fn take_dirty_claims_writeback_obligation_once() {
        let mut c = small();
        c.fill(0, true);
        let stats_before = *c.stats();
        assert!(c.take_dirty(0), "first claim returns the dirty state");
        assert!(!c.take_dirty(0), "second claim finds the line clean");
        assert!(!c.take_dirty(64), "absent line is never dirty");
        assert!(c.contains(0), "line stays resident");
        assert_eq!(*c.stats(), stats_before, "no statistics disturbed");
        // A clean eviction follows: the obligation left with the claimer.
        c.fill(128, false);
        let ev = c.fill(256, false).expect("set 0 overflows");
        assert_eq!(ev.addr, 0);
        assert!(!ev.dirty);
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = small();
        c.fill(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.contains(0));
    }

    #[test]
    fn eviction_address_reconstruction() {
        // The reported eviction address must map back to the same set/tag.
        let mut c = SetAssocCache::new(CacheConfig::new(8192, 2, 64).unwrap());
        let addr = 0xAB40u64;
        c.fill(addr, true);
        // Fill the same set with two more lines to force the eviction.
        let sets = c.config().sets() as u64;
        let way_stride = sets * 64;
        c.fill(addr + way_stride, false);
        let ev = c.fill(addr + 2 * way_stride, false).unwrap();
        assert_eq!(ev.addr, addr & !63);
        assert!(ev.dirty);
    }

    #[test]
    fn drain_dirty_returns_all_dirty_lines() {
        let mut c = small();
        c.fill(0, true);
        c.fill(64, false);
        c.fill(128, true);
        let mut drained = c.drain_dirty();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 128]);
        // Second drain is empty.
        assert!(c.drain_dirty().is_empty());
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = SetAssocCache::new(CacheConfig::new(4096, 4, 64).unwrap());
        for i in 0..1000u64 {
            c.fill(i * 64, false);
        }
        assert_eq!(c.resident_lines(), 4096 / 64);
    }

    #[test]
    fn stats_miss_ratio() {
        let mut c = small();
        assert_eq!(c.stats().miss_ratio(), 0.0);
        c.read(0);
        c.fill(0, false);
        c.read(0);
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        // Streaming through 2x the capacity with LRU yields ~0% hits on the
        // second pass — the behaviour behind the paper's metadata-cache
        // pressure argument (SGX's 128 KB dedicated cache thrashing).
        let mut c = SetAssocCache::new(CacheConfig::new(4096, 4, 64).unwrap());
        let lines = 2 * 4096 / 64;
        for pass in 0..2 {
            for i in 0..lines as u64 {
                let hit = c.read(i * 64);
                if pass == 1 {
                    assert!(!hit, "LRU must thrash on a 2x working set");
                }
                if !hit {
                    c.fill(i * 64, false);
                }
            }
        }
    }
}
