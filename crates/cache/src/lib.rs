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

/// Largest supported associativity: a set's recency order is one `u64` of
/// 4-bit way indices.
pub const MAX_WAYS: usize = 16;

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
    /// `ways` exceeds [`MAX_WAYS`], `line_bytes` is not a power of two, or
    /// the capacity does not divide evenly into `ways × line_bytes` sets.
    pub fn new(capacity_bytes: usize, ways: usize, line_bytes: usize) -> Result<Self, CacheError> {
        let invalid = |reason: String| Err(CacheError::InvalidGeometry { reason });
        if capacity_bytes == 0 || ways == 0 || line_bytes == 0 {
            return invalid("parameters must be nonzero".into());
        }
        if ways > MAX_WAYS {
            return invalid(format!("{ways} ways exceed the maximum of {MAX_WAYS}"));
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

    /// One past the highest byte address the cache can hold:
    /// `2^(30 + log2 line_bytes + log2 sets)`, the first address whose
    /// tag no longer fits a way word's 30 tag bits. 1 PiB for the
    /// Table III LLC, 16 TiB for its metadata cache. Saturates at
    /// `u64::MAX` for geometries whose tags hold every 64-bit address.
    /// Every probe and fill asserts its address is below this limit.
    pub fn address_limit(&self) -> u64 {
        let shift = TAG_BITS + self.line_bytes.trailing_zeros() + self.sets().trailing_zeros();
        1u64.checked_shl(shift).unwrap_or(u64::MAX)
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

// Per-way state is packed into one u32 "way word" per way:
//
//   bit 0       valid
//   bit 1       dirty
//   bits 2..32  tag (30 bits)
//
// A probe compares `word & !DIRTY` against `tag << TAG_SHIFT | VALID`, so
// hit detection is a single load + mask + compare per way, and an invalid
// way (valid bit clear) never matches, whatever its tag bits. A tag of 30
// bits or more would alias a smaller one, so `way_word` asserts it fits:
// addresses must stay below `CacheConfig::address_limit()`.
const WAY_VALID: u32 = 1;
const WAY_DIRTY: u32 = 2;
const TAG_SHIFT: u32 = 2;
const TAG_BITS: u32 = u32::BITS - TAG_SHIFT;

/// The valid, clean way word of `tag`.
///
/// # Panics
///
/// Panics if `tag` needs more than [`TAG_BITS`] bits, i.e. its address
/// is at or past [`CacheConfig::address_limit`].
#[inline]
fn way_word(tag: u64) -> u32 {
    assert!(
        tag < 1 << TAG_BITS,
        "tag {tag:#x} does not fit 30 bits: address at or past the cache's address limit"
    );
    (tag as u32) << TAG_SHIFT | WAY_VALID
}

// A set's LRU order is packed into one u64 "recency word" of 4-bit
// fields: field i (bits 4i..4i+4) holds the index of the set's i-th most
// recently used way, so field 0 names the MRU way and field `ways - 1`
// the LRU way of a full set. Lines are never removed, and a fill takes
// the first invalid way, so the valid ways of a set are always the
// prefix 0..n. The word's first n fields are then a permutation of 0..n
// and the rest are zero, which makes the all-zero word the empty set.
const FIELD_BITS: u32 = 4;
const FIELD_MASK: u64 = (1 << FIELD_BITS) - 1;
const FIELD_ONES: u64 = 0x1111_1111_1111_1111;
const FIELD_HIGHS: u64 = FIELD_ONES << (FIELD_BITS - 1);

/// Moves the field at bit offset `shift` of `order`, which holds `way`,
/// to the front, sliding the fields before it back by one.
#[inline]
fn move_to_front(order: u64, shift: u32, way: usize) -> u64 {
    let before = (1u64 << shift) - 1;
    (order & !(before | FIELD_MASK << shift)) | (order & before) << FIELD_BITS | way as u64
}

/// Moves the valid `way` to the front of `order`. The field holding it
/// is found branch-free: fields equal to `way` are zero in `x`, and the
/// lowest field the zero test flags is the first true zero (a borrow can
/// only flag fields above one). Way 0 may also match the zero fields
/// past the valid prefix, but its own field comes first.
#[inline]
fn promote(order: u64, way: usize) -> u64 {
    let x = order ^ (way as u64 * FIELD_ONES);
    let zeros = x.wrapping_sub(FIELD_ONES) & !x & FIELD_HIGHS;
    debug_assert!(zeros != 0, "way {way} missing from recency word {order:#x}");
    move_to_front(order, zeros.trailing_zeros() & !(FIELD_BITS - 1), way)
}

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
/// Way state lives in one flat array indexed by `set * ways + way`, and
/// LRU order in one word per set:
///
/// ```text
/// meta:    [ tag|d|v ][ tag|d|v ] ... one packed u32 per way, 30-bit tag
/// recency: [ w15 .. w1 w0 ]       ... one u64 per set, 4-bit way
///                                     indices in MRU (w0) → LRU order
/// ```
///
/// The Table III LLC (16384 sets × 8 ways) is 512 KiB of way words plus
/// 128 KiB of recency words. Addresses must stay below
/// [`CacheConfig::address_limit`], where the 30-bit tag runs out; every
/// probe and fill asserts it, so a larger address panics rather than
/// aliasing a smaller one.
///
/// A lookup touches one contiguous `ways`-long run of packed words (half
/// a cacheline for 8-way geometries) and its set's recency word. It
/// compares every way of the run, four at a time, into a bit mask whose
/// lowest set bit is the hitting way, with no branch per way. A hit
/// moves its way to the front of that word, and a full set's victim
/// is read from its LRU field, each with a few shifts and masks. Both
/// arrays start zeroed, which is the empty cache, so construction maps
/// them lazily. Set index and tag come from precomputed shift/mask (line
/// size and set count are validated powers of two, so the div/mod forms
/// are exact shifts). At most [`MAX_WAYS`] ways fit in a recency word.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    config: CacheConfig,
    /// Packed valid/dirty/tag words, `sets * ways` long.
    meta: Box<[u32]>,
    /// One recency word per set: way indices in MRU → LRU order.
    recency: Box<[u64]>,
    /// `log2(line_bytes)`.
    line_shift: u32,
    /// `log2(sets)`.
    set_bits: u32,
    /// `sets - 1`.
    set_mask: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        Self {
            config,
            meta: vec![0u32; sets * config.ways].into_boxed_slice(),
            recency: vec![0u64; sets].into_boxed_slice(),
            line_shift: config.line_bytes.trailing_zeros(),
            set_bits: sets.trailing_zeros(),
            set_mask: sets as u64 - 1,
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

    /// Byte address of the line stored at `slot` of `set` (inverse of
    /// [`Self::set_and_tag`]).
    #[inline]
    fn slot_addr(&self, set: usize, slot: usize) -> u64 {
        let tag = u64::from(self.meta[slot] >> TAG_SHIFT);
        ((tag << self.set_bits) | set as u64) << self.line_shift
    }

    /// Flat index of the first way of `set`.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.config.ways
    }

    /// Probes `set` for `tag`; returns the hitting slot index.
    ///
    /// Every way is compared, without an early exit: way `i`'s match sets
    /// bit `i` of a hit mask, and the lowest set bit names the slot. A tag
    /// is stored at most once per set, so at most one bit is set and the
    /// slot is the one a first-match search finds. Ways are compared four
    /// at a time (one vector compare and mask), the last `ways % 4` one by
    /// one. With no data-dependent branch per way this measured faster
    /// than the early-exit search on hits and no slower on misses.
    #[inline]
    fn probe(&self, set: usize, tag: u64) -> Option<usize> {
        let want = way_word(tag);
        let base = self.base(set);
        let matches = |w: u32| u32::from(w & !WAY_DIRTY == want);
        let (quads, rest) = self.meta[base..base + self.config.ways].as_chunks::<4>();
        let mut hits = 0u32;
        for (i, quad) in (0..).step_by(4).zip(quads) {
            let [a, b, c, d] = quad.map(matches);
            hits |= (a | b << 1 | c << 2 | d << 3) << i;
        }
        for (i, &w) in (4 * quads.len() as u32..).zip(rest) {
            hits |= matches(w) << i;
        }
        (hits != 0).then(|| base + hits.trailing_zeros() as usize)
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
        let (set, tag) = self.set_and_tag(addr);
        if let Some(slot) = self.probe(set, tag) {
            self.hit(set, slot, mark_dirty);
            true
        } else {
            false
        }
    }

    /// Makes the valid line at `slot` its set's MRU and, if asked, dirty.
    #[inline]
    fn hit(&mut self, set: usize, slot: usize, mark_dirty: bool) {
        self.recency[set] = promote(self.recency[set], slot - self.base(set));
        if mark_dirty {
            self.meta[slot] |= WAY_DIRTY;
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
    /// that is already present evicts nothing: the line becomes its set's
    /// MRU, and `dirty` sets its dirty bit but never clears it.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is at or past [`CacheConfig::address_limit`]
    /// (as does every lookup).
    pub fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.stats.fills += 1;
        let (set, tag) = self.set_and_tag(addr);

        // Already present (e.g. raced fills): refresh rather than duplicate.
        if let Some(slot) = self.probe(set, tag) {
            self.hit(set, slot, dirty);
            return None;
        }
        self.insert(set, tag, dirty)
    }

    /// [`Self::fill`] of a line the caller knows is absent: one whose
    /// lookup has just missed, with no fill of the same line since. It
    /// skips the presence probe, and so behaves as `fill` does on a miss.
    ///
    /// # Panics
    ///
    /// As [`Self::fill`]; in debug builds also if the line is present.
    pub fn fill_missing(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.stats.fills += 1;
        let (set, tag) = self.set_and_tag(addr);
        debug_assert!(self.probe(set, tag).is_none(), "fill_missing of resident line {addr:#x}");
        self.insert(set, tag, dirty)
    }

    /// Inserts `tag`, absent from `set`, as the set's MRU line.
    #[inline]
    fn insert(&mut self, set: usize, tag: u64, dirty: bool) -> Option<Eviction> {
        // Victim: the first invalid way, else the LRU way. Valid ways are
        // a prefix, so the set is full exactly when its last way is valid,
        // and the first invalid way `n` sits at field `n` of the recency
        // word, past the valid ones.
        let base = self.base(set);
        let ways = self.config.ways;
        let order = self.recency[set];
        let (way, shift, eviction) = if self.meta[base + ways - 1] & WAY_VALID != 0 {
            let shift = (ways as u32 - 1) * FIELD_BITS;
            let way = (order >> shift & FIELD_MASK) as usize;
            let was_dirty = self.meta[base + way] & WAY_DIRTY != 0;
            self.stats.evictions += 1;
            if was_dirty {
                self.stats.writebacks += 1;
            }
            (way, shift, Some(Eviction { addr: self.slot_addr(set, base + way), dirty: was_dirty }))
        } else {
            let way = self.meta[base..base + ways]
                .iter()
                .position(|&w| w & WAY_VALID == 0)
                .expect("a set whose last way is invalid has an invalid way");
            (way, way as u32 * FIELD_BITS, None)
        };

        self.meta[base + way] = way_word(tag) | if dirty { WAY_DIRTY } else { 0 };
        self.recency[set] = move_to_front(order, shift, way);
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

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.meta.iter().filter(|&&w| w & WAY_VALID != 0).count()
    }

    /// Drains every dirty line into a caller-owned buffer (not cleared
    /// first), clearing the dirty bits — the writebacks a flush at
    /// simulation end would issue. Addresses are appended in flat slot
    /// order, set-major and way-minor.
    pub fn drain_dirty_into(&mut self, dirty: &mut Vec<u64>) {
        for slot in 0..self.meta.len() {
            let word = self.meta[slot];
            if word & (WAY_VALID | WAY_DIRTY) == (WAY_VALID | WAY_DIRTY) {
                dirty.push(self.slot_addr(slot / self.config.ways, slot));
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
    fn more_ways_than_a_recency_word_holds_are_rejected() {
        assert!(CacheConfig::new(16 * 64, MAX_WAYS, 64).is_ok());
        assert!(matches!(
            CacheConfig::new(17 * 64, 17, 64),
            Err(CacheError::InvalidGeometry { .. })
        ));
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
        let mut drained = Vec::new();
        c.drain_dirty_into(&mut drained);
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 128]);
        // Second drain is empty.
        drained.clear();
        c.drain_dirty_into(&mut drained);
        assert!(drained.is_empty());
    }

    #[test]
    fn address_limit_of_table_iii_caches() {
        let llc = CacheConfig::new(8 << 20, 8, 64).unwrap();
        assert_eq!(llc.address_limit(), 1 << 50, "1 PiB");
        let metadata = CacheConfig::new(128 << 10, 8, 64).unwrap();
        assert_eq!(metadata.address_limit(), 1 << 44, "16 TiB");
        let huge = CacheConfig::new(1 << 40, 1, 1 << 20).unwrap();
        assert_eq!(huge.address_limit(), u64::MAX, "saturates past 2^64");
    }

    #[test]
    fn last_line_below_address_limit_round_trips() {
        let mut c = small();
        let limit = c.config().address_limit();
        assert_eq!(limit, 1 << (30 + 6 + 1));
        let last = limit - 64;
        assert!(c.fill(last, true).is_none());
        assert!(c.read(last), "the top line hits");
        // The top line sits in set 1 with the largest tag; two more lines
        // of set 1 evict it, and its address comes back whole.
        c.fill(64, false);
        let ev = c.fill(192, false).expect("set 1 overflows");
        assert_eq!(ev, Eviction { addr: last, dirty: true });
        assert!(!c.contains(last));
    }

    #[test]
    #[should_panic(expected = "at or past the cache's address limit")]
    fn first_line_past_address_limit_panics() {
        let mut c = small();
        let limit = c.config().address_limit();
        // Its tag is 2^30, which a 30-bit field would alias with tag 0.
        c.fill(limit, false);
    }

    #[test]
    fn probe_for_tag_0_never_hits_an_invalid_way() {
        // Tag 0 in set 0 is address 0; every way word of an empty set is 0.
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 64, MAX_WAYS, 64).unwrap());
        assert!(!c.contains(0));
        assert!(!c.read(0));
        assert!(!c.write(0));
        assert!(!c.take_dirty(0));
        // A partly filled set: the invalid ways past the valid prefix are
        // still all-zero words.
        c.fill(64, true);
        assert!(!c.contains(0));
        assert_eq!(c.fill(0, false), None, "a miss fills the first invalid way");
        assert!(c.contains(0));
    }

    #[test]
    fn probe_finds_a_match_in_the_last_of_16_ways_among_near_misses() {
        // One set of 16 ways, so a line's tag is its line number. Ways
        // 0..15 hold near misses of `want`: way 0 differs only in the top
        // tag bit, way j > 0 only in tag bit j - 1, and every other one is
        // dirty, so its word also differs in the dirty bit. `want` fills
        // the last way.
        let mut c = SetAssocCache::new(CacheConfig::new(16 * 64, MAX_WAYS, 64).unwrap());
        let want = 0x2AAA_AAAAu64 & ((1 << TAG_BITS) - 1);
        let flip = |j: usize| if j == 0 { 1 << (TAG_BITS - 1) } else { 1u64 << (j - 1) };
        for j in 0..MAX_WAYS - 1 {
            assert_eq!(c.fill((want ^ flip(j)) << 6, j % 2 == 1), None);
        }
        assert_eq!(c.fill(want << 6, false), None);
        assert_eq!(c.meta[MAX_WAYS - 1], way_word(want), "the set is full, `want` last");
        assert_eq!(c.probe(0, want), Some(MAX_WAYS - 1));
        assert!(c.write(want << 6), "the write hits");
        assert_eq!(c.probe(0, want), Some(MAX_WAYS - 1), "its dirty bit is ignored");
        for j in 0..MAX_WAYS - 1 {
            assert_eq!(c.probe(0, want ^ flip(j)), Some(j), "near miss {j}");
        }
        assert_eq!(c.probe(0, want ^ 1 << 20), None, "an absent tag misses");
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
