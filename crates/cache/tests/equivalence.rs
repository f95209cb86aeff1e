//! Observation-equivalence proptest for the flat `SetAssocCache`.
//!
//! The production cache stores way state in one flat array of packed
//! 32-bit valid/dirty/tag words (a 30-bit tag) with shift/mask set
//! indexing, and each set's LRU order in one recency word of 4-bit way
//! indices. This test pins its *observable behaviour* — every hit/miss
//! outcome, eviction (address and dirtiness), `take_dirty` / `contains`
//! result, `drain_dirty_into` output, and the full `CacheStats` — against
//! `RefCache`, a deliberately naive nested `Vec<Vec<Way>>` model with a
//! `u64` tag and one `u64` LRU clock per way, written the way the cache
//! was before any of these changes. Geometries range over 1–16 sets with
//! 1–5, 8 (the Table III LLC and metadata caches) and 16 ways (the most a
//! recency word holds), under random access streams whose addresses are
//! dense, strided, or spread over the top bits of the 30-bit tag range
//! (up to the cache's `address_limit()`), where a truncated tag would
//! alias.

use proptest::prelude::*;
use synergy_cache::{CacheConfig, Eviction, SetAssocCache};

/// Reference model: nested storage, true LRU, write-back write-allocate.
/// Victim choice is "first invalid way, else first way with minimal
/// `last_use`" — the contract the flat implementation must match.
#[derive(Clone, Copy, Default)]
struct RefWay {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_use: u64,
}

struct RefCache {
    sets: Vec<Vec<RefWay>>,
    line_bytes: u64,
    use_clock: u64,
}

impl RefCache {
    fn new(cfg: &CacheConfig) -> Self {
        Self {
            sets: vec![vec![RefWay::default(); cfg.ways()]; cfg.sets()],
            line_bytes: cfg.line_bytes() as u64,
            use_clock: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line_bytes;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn touch(&mut self, addr: u64, mark_dirty: bool) -> bool {
        self.use_clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                way.last_use = self.use_clock;
                way.dirty |= mark_dirty;
                return true;
            }
        }
        false
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|w| w.valid && w.tag == tag)
    }

    fn fill(&mut self, addr: u64, dirty: bool) -> Option<Eviction> {
        self.use_clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        let sets_count = self.sets.len() as u64;
        if let Some(w) = self.sets[set].iter_mut().find(|w| w.valid && w.tag == tag) {
            w.last_use = self.use_clock;
            w.dirty |= dirty;
            return None;
        }
        let victim_idx = self.sets[set]
            .iter()
            .position(|w| !w.valid)
            .unwrap_or_else(|| {
                self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.last_use)
                    .map(|(i, _)| i)
                    .unwrap()
            });
        let victim = self.sets[set][victim_idx];
        let eviction = victim.valid.then(|| Eviction {
            addr: (victim.tag * sets_count + set as u64) * self.line_bytes,
            dirty: victim.dirty,
        });
        self.sets[set][victim_idx] =
            RefWay { tag, valid: true, dirty, last_use: self.use_clock };
        eviction
    }

    fn take_dirty(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for way in &mut self.sets[set] {
            if way.valid && way.tag == tag {
                return std::mem::take(&mut way.dirty);
            }
        }
        false
    }

    fn resident_lines(&self) -> usize {
        self.sets.iter().flatten().filter(|w| w.valid).count()
    }

    fn drain_dirty(&mut self) -> Vec<u64> {
        let sets_count = self.sets.len() as u64;
        let mut out = Vec::new();
        for (set, ways) in self.sets.iter_mut().enumerate() {
            for way in ways.iter_mut() {
                if way.valid && way.dirty {
                    out.push((way.tag * sets_count + set as u64) * self.line_bytes);
                    way.dirty = false;
                }
            }
        }
        out
    }
}

/// `addr_scale` arm that gives line index `i` the tag `i << 24` in set
/// `i % sets`: tags differ only in bits 24..30, the top of the 30-bit
/// tag field, so dropping any tag bit aliases lines of one set. The
/// highest address, of line index 63, sits just below `address_limit()`.
const TOP_TAG_BITS: u64 = 0;

/// Drains `cache`'s dirty lines into a fresh vector.
fn drained(cache: &mut SetAssocCache) -> Vec<u64> {
    let mut dirty = Vec::new();
    cache.drain_dirty_into(&mut dirty);
    dirty
}

/// One step of a random access stream.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64),
    Fill { addr: u64, dirty: bool },
    /// [`SetAssocCache::fill_missing`] when the line is absent, else a
    /// plain fill.
    FillMissing { addr: u64, dirty: bool },
    Contains(u64),
    TakeDirty(u64),
    Drain,
}

fn geometry() -> impl Strategy<Value = CacheConfig> {
    // sets in 1..=16 (power of two), ways in 1..=5 (half the cases), 8 or
    // 16, lines 32/64/128.
    let ways = prop_oneof![1usize..6, 1usize..6, Just(8usize), Just(16usize)];
    (0u32..5, ways, prop_oneof![Just(32usize), Just(64usize), Just(128usize)]).prop_map(
        |(set_log2, ways, line)| {
            let sets = 1usize << set_log2;
            CacheConfig::new(sets * ways * line, ways, line).unwrap()
        },
    )
}

fn ops(max_addr_lines: u64) -> impl Strategy<Value = Vec<Op>> {
    // The vendored proptest's `prop_oneof!` is unweighted; bias toward
    // read/write/fill by repeating those arms.
    let addr = 0u64..max_addr_lines;
    let op = prop_oneof![
        addr.clone().prop_map(Op::Read),
        addr.clone().prop_map(Op::Read),
        addr.clone().prop_map(Op::Write),
        addr.clone().prop_map(Op::Write),
        (addr.clone(), any::<bool>()).prop_map(|(a, dirty)| Op::Fill { addr: a, dirty }),
        (addr.clone(), any::<bool>()).prop_map(|(a, dirty)| Op::Fill { addr: a, dirty }),
        (addr.clone(), any::<bool>()).prop_map(|(a, dirty)| Op::FillMissing { addr: a, dirty }),
        addr.clone().prop_map(Op::Contains),
        addr.prop_map(Op::TakeDirty),
        Just(Op::Drain),
    ];
    proptest::collection::vec(op, 1..400)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat cache and the nested reference observe identically on
    /// every operation of a random stream, and agree on final stats.
    #[test]
    fn flat_cache_matches_nested_reference(
        cfg in geometry(),
        stream in ops(64),
        addr_scale in prop_oneof![Just(1u64), Just(17u64), Just(1u64 << 20), Just(TOP_TAG_BITS)],
    ) {
        let mut flat = SetAssocCache::new(cfg);
        let mut reference = RefCache::new(&cfg);
        let line = cfg.line_bytes() as u64;
        let sets = cfg.sets() as u64;
        let line_number = |line_idx: u64| match addr_scale {
            TOP_TAG_BITS => ((line_idx * sets) << 24) | (line_idx % sets),
            scale => line_idx * scale,
        };
        // Sub-line offset exercises line masking; addr_scale exercises
        // tags far beyond the set space.
        for (i, op) in stream.iter().enumerate() {
            let at = |line_idx: u64| line_number(line_idx) * line + (line_idx % line);
            match *op {
                Op::Read(a) => {
                    prop_assert_eq!(flat.read(at(a)), reference.touch(at(a), false), "read #{}", i);
                }
                Op::Write(a) => {
                    prop_assert_eq!(flat.write(at(a)), reference.touch(at(a), true), "write #{}", i);
                }
                Op::Fill { addr, dirty } => {
                    prop_assert_eq!(flat.fill(at(addr), dirty), reference.fill(at(addr), dirty), "fill #{}", i);
                }
                Op::FillMissing { addr, dirty } => {
                    let got = if reference.contains(at(addr)) {
                        flat.fill(at(addr), dirty)
                    } else {
                        flat.fill_missing(at(addr), dirty)
                    };
                    prop_assert_eq!(got, reference.fill(at(addr), dirty), "fill_missing #{}", i);
                }
                Op::Contains(a) => {
                    prop_assert_eq!(flat.contains(at(a)), reference.contains(at(a)), "contains #{}", i);
                }
                Op::TakeDirty(a) => {
                    prop_assert_eq!(flat.take_dirty(at(a)), reference.take_dirty(at(a)), "take_dirty #{}", i);
                }
                Op::Drain => {
                    prop_assert_eq!(drained(&mut flat), reference.drain_dirty(), "drain #{}", i);
                }
            }
            prop_assert_eq!(flat.resident_lines(), reference.resident_lines(), "resident #{}", i);
        }
        prop_assert_eq!(drained(&mut flat), reference.drain_dirty());
    }

    /// Hit/miss statistics stay exact under pure read/write/fill streams.
    #[test]
    fn stats_match_reference_counts(cfg in geometry(), stream in ops(32)) {
        let mut flat = SetAssocCache::new(cfg);
        let mut reference = RefCache::new(&cfg);
        let line = cfg.line_bytes() as u64;
        let (mut rh, mut rm, mut wh, mut wm, mut fills, mut ev, mut wb) =
            (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
        for op in &stream {
            match *op {
                Op::Read(a) => {
                    if reference.touch(a * line, false) { rh += 1 } else { rm += 1 }
                    flat.read(a * line);
                }
                Op::Write(a) => {
                    if reference.touch(a * line, true) { wh += 1 } else { wm += 1 }
                    flat.write(a * line);
                }
                Op::Fill { addr, dirty } | Op::FillMissing { addr, dirty } => {
                    fills += 1;
                    let missing = matches!(op, Op::FillMissing { .. }) && !reference.contains(addr * line);
                    if let Some(e) = reference.fill(addr * line, dirty) {
                        ev += 1;
                        if e.dirty { wb += 1 }
                    }
                    if missing { flat.fill_missing(addr * line, dirty); } else { flat.fill(addr * line, dirty); }
                }
                // Stats-neutral ops in the real cache; mirror on reference.
                Op::Contains(a) => { reference.contains(a * line); flat.contains(a * line); }
                Op::TakeDirty(a) => { reference.take_dirty(a * line); flat.take_dirty(a * line); }
                Op::Drain => { reference.drain_dirty(); drained(&mut flat); }
            }
        }
        let s = flat.stats();
        prop_assert_eq!(
            (s.read_hits, s.read_misses, s.write_hits, s.write_misses, s.fills, s.evictions, s.writebacks),
            (rh, rm, wh, wm, fills, ev, wb)
        );
    }
}
