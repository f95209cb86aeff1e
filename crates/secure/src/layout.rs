//! Metadata address layout — where counters, MACs, integrity-tree nodes and
//! parities live in physical memory.
//!
//! Secure memory partitions physical memory into a data region plus
//! metadata regions (§II-A, §III-A):
//!
//! ```text
//! ┌────────────┬───────────┬─────────┬─────────┬──────────────┐
//! │    data    │ counters  │  MACs   │ parity  │ tree L0..Ln  │
//! └────────────┴───────────┴─────────┴─────────┴──────────────┘
//! ```
//!
//! * **Counters**: one 64 B line holds the write counters of
//!   [`CounterOrg::counters_per_line`] data lines (8 monolithic 56-bit
//!   counters, or 64 split minors + 1 major).
//! * **MACs**: 8 × 64-bit MACs per line (one per data line). SYNERGY does
//!   not use this region — its MACs ride in the ECC chip — but SGX/SGX_O
//!   and IVEC fetch from it on every access.
//! * **Parity**: 8 × 8-byte RAID-3 parities per line (SYNERGY/IVEC).
//! * **Integrity tree**: an 8-ary tree whose leaves cover the counter
//!   lines (Bonsai counter tree) or the MAC lines (IVEC's GMAC tree);
//!   the top level with ≤ 8 nodes is held on-chip and costs no traffic.

use synergy_cache::CacheConfig;

/// Counter organization (Figure 13's sensitivity axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterOrg {
    /// One 56-bit counter per data line, 8 per counter line (SGX default).
    Monolithic,
    /// Split counters \[17\]: a shared 64-bit major counter plus 64 7-bit
    /// minors per line, covering 64 data lines — 8x better cacheability.
    Split,
}

impl CounterOrg {
    /// Number of data lines covered by one 64 B counter line.
    pub fn counters_per_line(self) -> u64 {
        match self {
            CounterOrg::Monolithic => 8,
            CounterOrg::Split => 64,
        }
    }

    /// `log2(counters_per_line)` — both organizations are powers of two,
    /// so per-access divisions reduce to shifts.
    fn counters_per_line_shift(self) -> u32 {
        match self {
            CounterOrg::Monolithic => 3,
            CounterOrg::Split => 6,
        }
    }
}

/// What the integrity tree's leaves protect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeLeaves {
    /// Bonsai counter tree: leaves are encryption-counter lines (SGX,
    /// SGX_O, SYNERGY). Data MACs are *not* part of the tree.
    CounterLines,
    /// Non-Bonsai MAC (Merkle/GMAC) tree: leaves are the data-MAC lines
    /// (IVEC). Larger leaf count → deeper tree, more traffic.
    MacLines,
}

/// Region classification for an address (drives traffic accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// Program data.
    Data,
    /// Encryption counters.
    Counter,
    /// Per-line MACs.
    Mac,
    /// RAID-3 parity lines.
    Parity,
    /// Integrity-tree level (0 = closest to leaves).
    Tree(usize),
    /// Beyond the layout (invalid).
    OutOfRange,
}

/// The full metadata map for a protected memory of a given size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetadataLayout {
    data_bytes: u64,
    counter_org: CounterOrg,
    tree_leaves: TreeLeaves,
    counter_base: u64,
    counter_bytes: u64,
    mac_base: u64,
    mac_bytes: u64,
    parity_base: u64,
    parity_bytes: u64,
    /// Base address and node count of each in-memory tree level,
    /// level 0 first.
    tree_levels: Vec<(u64, u64)>,
    /// One-past-the-end address of each tree level (prefix table for
    /// branch-light [`Self::classify`]), parallel to `tree_levels`.
    tree_level_ends: Box<[u64]>,
    /// `log2(counters_per_line)` — counter-line math without div/mod.
    counter_shift: u32,
    /// `counters_per_line - 1`.
    counter_slot_mask: u64,
    /// Base address of the tree-leaf region (counter or MAC region).
    tree_leaf_base: u64,
    /// Number of lines in the tree-leaf region.
    tree_leaf_lines: u64,
    total_bytes: u64,
}

/// Cacheline size (fixed at 64 bytes).
pub const LINE: u64 = 64;

/// `log2(LINE)` — line math throughout the layout is shift/mask.
pub const LINE_SHIFT: u32 = 6;

impl MetadataLayout {
    /// Builds the layout for `data_bytes` of protected data.
    ///
    /// # Panics
    ///
    /// Panics if `data_bytes` is zero or not line-aligned.
    pub fn new(data_bytes: u64, counter_org: CounterOrg, tree_leaves: TreeLeaves) -> Self {
        assert!(data_bytes > 0 && data_bytes.is_multiple_of(LINE), "data size must be line-aligned");
        let data_lines = data_bytes / LINE;

        let counter_lines = data_lines.div_ceil(counter_org.counters_per_line());
        let mac_lines = data_lines.div_ceil(8);
        let parity_lines = data_lines.div_ceil(8);

        let counter_base = data_bytes;
        let counter_bytes = counter_lines * LINE;
        let mac_base = counter_base + counter_bytes;
        let mac_bytes = mac_lines * LINE;
        let parity_base = mac_base + mac_bytes;
        let parity_bytes = parity_lines * LINE;

        // Tree levels: 8-ary reduction over the leaf lines until ≤ 8 nodes
        // remain (those are verified against on-chip root registers).
        let mut leaf_count = match tree_leaves {
            TreeLeaves::CounterLines => counter_lines,
            TreeLeaves::MacLines => mac_lines,
        };
        let mut tree_levels = Vec::new();
        let mut base = parity_base + parity_bytes;
        while leaf_count > 8 {
            let nodes = leaf_count.div_ceil(8);
            tree_levels.push((base, nodes));
            base += nodes * LINE;
            leaf_count = nodes;
        }

        let tree_level_ends: Box<[u64]> =
            tree_levels.iter().map(|&(b, n)| b + n * LINE).collect();
        let (tree_leaf_base, tree_leaf_lines) = match tree_leaves {
            TreeLeaves::CounterLines => (counter_base, counter_lines),
            TreeLeaves::MacLines => (mac_base, mac_lines),
        };
        Self {
            data_bytes,
            counter_org,
            tree_leaves,
            counter_base,
            counter_bytes,
            mac_base,
            mac_bytes,
            parity_base,
            parity_bytes,
            tree_levels,
            tree_level_ends,
            counter_shift: counter_org.counters_per_line_shift(),
            counter_slot_mask: counter_org.counters_per_line() - 1,
            tree_leaf_base,
            tree_leaf_lines,
            total_bytes: base,
        }
    }

    /// Size of the protected data region.
    pub fn data_bytes(&self) -> u64 {
        self.data_bytes
    }

    /// Counter organization in use.
    pub fn counter_org(&self) -> CounterOrg {
        self.counter_org
    }

    /// What the tree protects.
    pub fn tree_leaves(&self) -> TreeLeaves {
        self.tree_leaves
    }

    /// Total physical bytes including all metadata.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Number of in-memory tree levels (the on-chip top is excluded).
    pub fn tree_depth(&self) -> usize {
        self.tree_levels.len()
    }

    /// Address of the counter line covering `data_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `data_addr` is outside the data region.
    #[inline]
    pub fn counter_line_addr(&self, data_addr: u64) -> u64 {
        self.assert_data(data_addr);
        self.counter_base + ((data_addr >> (LINE_SHIFT + self.counter_shift)) << LINE_SHIFT)
    }

    /// Which counter slot within its line `data_addr` uses.
    #[inline]
    pub fn counter_slot(&self, data_addr: u64) -> usize {
        self.assert_data(data_addr);
        ((data_addr >> LINE_SHIFT) & self.counter_slot_mask) as usize
    }

    /// Address of the MAC line covering `data_addr` (8 MACs per line).
    ///
    /// # Panics
    ///
    /// Panics if `data_addr` is outside the data region.
    #[inline]
    pub fn mac_line_addr(&self, data_addr: u64) -> u64 {
        self.assert_data(data_addr);
        self.mac_base + ((data_addr >> (LINE_SHIFT + 3)) << LINE_SHIFT)
    }

    /// MAC slot within its line.
    #[inline]
    pub fn mac_slot(&self, data_addr: u64) -> usize {
        self.assert_data(data_addr);
        ((data_addr >> LINE_SHIFT) & 7) as usize
    }

    /// Address of the parity line covering `data_addr` (8 parities per
    /// line, each supplied by one chip — Figure 7(a)).
    ///
    /// # Panics
    ///
    /// Panics if `data_addr` is outside the data region.
    #[inline]
    pub fn parity_line_addr(&self, data_addr: u64) -> u64 {
        self.assert_data(data_addr);
        self.parity_base + ((data_addr >> (LINE_SHIFT + 3)) << LINE_SHIFT)
    }

    /// Parity slot within its line.
    #[inline]
    pub fn parity_slot(&self, data_addr: u64) -> usize {
        self.assert_data(data_addr);
        ((data_addr >> LINE_SHIFT) & 7) as usize
    }

    /// Base address of the counter region.
    pub fn counter_base(&self) -> u64 {
        self.counter_base
    }

    /// Number of counter lines.
    pub fn counter_lines(&self) -> u64 {
        self.counter_bytes / LINE
    }

    /// Base address of the parity region.
    pub fn parity_base(&self) -> u64 {
        self.parity_base
    }

    /// Node count of tree `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= tree_depth()`.
    pub fn tree_level_nodes(&self, level: usize) -> u64 {
        self.tree_levels[level].1
    }

    /// Base address of tree `level`.
    ///
    /// # Panics
    ///
    /// Panics if `level >= tree_depth()`.
    pub fn tree_level_base(&self, level: usize) -> u64 {
        self.tree_levels[level].0
    }

    /// Number of root counters held on-chip: the children of the virtual
    /// root — nodes of the top in-memory level, or the tree leaves
    /// themselves when the memory is small enough to need no in-memory
    /// tree.
    pub fn root_counter_count(&self) -> u64 {
        match self.tree_levels.last() {
            Some(&(_, nodes)) => nodes,
            None => match self.tree_leaves {
                TreeLeaves::CounterLines => self.counter_bytes / LINE,
                TreeLeaves::MacLines => self.mac_bytes / LINE,
            },
        }
    }

    /// Address of tree node `idx` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if the level or index is out of range.
    pub fn tree_node_addr(&self, level: usize, idx: u64) -> u64 {
        let (base, count) = self.tree_levels[level];
        assert!(idx < count, "tree node {idx} out of range at level {level}");
        base + idx * LINE
    }

    /// The tree path protecting a leaf line (counter line for Bonsai,
    /// MAC line for IVEC): node addresses from level 0 up to the last
    /// in-memory level. Walking stops earlier in practice when a node hits
    /// in a cache.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_addr` is not in the leaf region.
    pub fn tree_path(&self, leaf_addr: u64) -> Vec<u64> {
        self.tree_path_iter(leaf_addr).collect()
    }

    /// Iterator form of [`Self::tree_path`]: yields the protecting node
    /// addresses from level 0 upward without heap allocation. The
    /// iterator is fully owned (tree levels are contiguous, each an
    /// 8-ary `div_ceil` reduction of the one below, so the walk needs no
    /// borrow of the layout) — the secure engine's per-access tree walks
    /// use this form while mutating caches mid-walk.
    ///
    /// # Panics
    ///
    /// Panics if `leaf_addr` is not in the leaf region.
    #[inline]
    pub fn tree_path_iter(&self, leaf_addr: u64) -> TreePathIter {
        assert!(
            leaf_addr >= self.tree_leaf_base
                && leaf_addr < self.tree_leaf_base + (self.tree_leaf_lines << LINE_SHIFT),
            "address {leaf_addr:#x} is not a tree leaf"
        );
        let (base, nodes) = self.tree_levels.first().copied().unwrap_or((0, 0));
        TreePathIter {
            base,
            nodes,
            idx: (leaf_addr - self.tree_leaf_base) >> LINE_SHIFT,
            levels_left: self.tree_levels.len(),
        }
    }

    /// Classifies an address into its region.
    ///
    /// The non-tree regions resolve with three compares against
    /// precomputed bases; a tree address resolves by scanning the flat
    /// prefix table of level end addresses (≤ 10 entries for any modeled
    /// memory, monotonically increasing, contiguous from `parity` end).
    #[inline]
    pub fn classify(&self, addr: u64) -> Region {
        if addr < self.data_bytes {
            return Region::Data;
        }
        if addr < self.mac_base {
            return Region::Counter;
        }
        if addr < self.parity_base {
            return Region::Mac;
        }
        if addr < self.parity_base + self.parity_bytes {
            return Region::Parity;
        }
        // Tree levels are contiguous, so the first end address beyond
        // `addr` names the level.
        for (level, &end) in self.tree_level_ends.iter().enumerate() {
            if addr < end {
                return Region::Tree(level);
            }
        }
        Region::OutOfRange
    }

    /// Checks that every address of the layout, data and metadata alike,
    /// lies below the [`CacheConfig::address_limit`] of `cache` (called
    /// `name` in the message), so that cache can hold any of its lines.
    ///
    /// # Errors
    ///
    /// A message naming the layout's size and the cache's limit, in
    /// bytes, when the layout's top address reaches the limit.
    pub fn check_cache_reach(&self, cache: &CacheConfig, name: &str) -> Result<(), String> {
        let limit = cache.address_limit();
        if self.total_bytes > limit {
            return Err(format!(
                "the metadata layout spans {} bytes, past the {name}'s address limit of \
                 {limit} bytes",
                self.total_bytes
            ));
        }
        Ok(())
    }

    /// Storage overhead of each metadata region relative to data, as
    /// fractions (counters, MACs, parity, tree).
    pub fn overheads(&self) -> (f64, f64, f64, f64) {
        let d = self.data_bytes as f64;
        let tree: u64 = self.tree_levels.iter().map(|&(_, n)| n * LINE).sum();
        (
            self.counter_bytes as f64 / d,
            self.mac_bytes as f64 / d,
            self.parity_bytes as f64 / d,
            tree as f64 / d,
        )
    }

    #[inline]
    fn assert_data(&self, addr: u64) {
        assert!(addr < self.data_bytes, "address {addr:#x} outside data region");
    }
}

/// Non-allocating, fully owned iterator over a leaf's protecting
/// tree-node addresses, level 0 first. Produced by
/// [`MetadataLayout::tree_path_iter`]. It regenerates each level's base
/// and node count with the same arithmetic `MetadataLayout::new` used to
/// lay the levels out (contiguous, 8-ary `div_ceil` reduction), so it
/// borrows nothing.
#[derive(Debug, Clone, Copy)]
pub struct TreePathIter {
    /// Base address of the current level.
    base: u64,
    /// Node count of the current level.
    nodes: u64,
    /// Node index within the *child* level (divided by 8 per step).
    idx: u64,
    /// Levels not yet yielded.
    levels_left: usize,
}

impl Iterator for TreePathIter {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.levels_left == 0 {
            return None;
        }
        self.levels_left -= 1;
        self.idx >>= 3; // 8-ary tree
        debug_assert!(self.idx < self.nodes, "tree node {} out of range", self.idx);
        let addr = self.base + (self.idx << LINE_SHIFT);
        self.base += self.nodes << LINE_SHIFT;
        self.nodes = self.nodes.div_ceil(8);
        Some(addr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.levels_left, Some(self.levels_left))
    }
}

impl ExactSizeIterator for TreePathIter {}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> MetadataLayout {
        MetadataLayout::new(1 << 30, CounterOrg::Monolithic, TreeLeaves::CounterLines)
    }

    #[test]
    fn regions_are_disjoint_and_ordered() {
        let l = layout();
        assert_eq!(l.classify(0), Region::Data);
        assert_eq!(l.classify((1 << 30) - 1), Region::Data);
        assert_eq!(l.classify(l.counter_line_addr(0)), Region::Counter);
        assert_eq!(l.classify(l.mac_line_addr(0)), Region::Mac);
        assert_eq!(l.classify(l.parity_line_addr(0)), Region::Parity);
        let path = l.tree_path(l.counter_line_addr(0));
        for (i, addr) in path.iter().enumerate() {
            assert_eq!(l.classify(*addr), Region::Tree(i));
        }
        assert_eq!(l.classify(l.total_bytes()), Region::OutOfRange);
    }

    #[test]
    fn eight_data_lines_share_a_counter_line_monolithic() {
        let l = layout();
        let base = l.counter_line_addr(0);
        for i in 0..8 {
            assert_eq!(l.counter_line_addr(i * 64), base);
            assert_eq!(l.counter_slot(i * 64), i as usize);
        }
        assert_ne!(l.counter_line_addr(8 * 64), base);
    }

    #[test]
    fn split_counters_cover_64_lines() {
        let l = MetadataLayout::new(1 << 30, CounterOrg::Split, TreeLeaves::CounterLines);
        let base = l.counter_line_addr(0);
        for i in 0..64 {
            assert_eq!(l.counter_line_addr(i * 64), base, "line {i}");
        }
        assert_ne!(l.counter_line_addr(64 * 64), base);
        // 8x fewer counter lines than monolithic.
        let mono = layout();
        let (c_split, ..) = l.overheads();
        let (c_mono, ..) = mono.overheads();
        assert!((c_mono / c_split - 8.0).abs() < 0.01);
    }

    #[test]
    fn storage_overheads_match_paper() {
        // §IV-A: counters 12.5%, MACs 12.5%, tree ~1.8%, parity 12.5%.
        let (ctr, mac, parity, tree) = layout().overheads();
        assert!((ctr - 0.125).abs() < 1e-6, "counters {ctr}");
        assert!((mac - 0.125).abs() < 1e-6, "macs {mac}");
        assert!((parity - 0.125).abs() < 1e-6, "parity {parity}");
        assert!(tree > 0.015 && tree < 0.02, "tree {tree}");
    }

    #[test]
    fn tree_depth_matches_paper_for_16gb() {
        // §IV-A footnote: a 9-level tree protects 16 GB. Counting: counter
        // lines = 32 M; in-memory levels of an 8-ary tree until ≤8 nodes:
        // 4M, 512K, 64K, 8K, 1K, 128, 16, 2 → 8 levels + the leaf-counter
        // level itself = 9 MAC computations up the tree.
        let l = MetadataLayout::new(16 << 30, CounterOrg::Monolithic, TreeLeaves::CounterLines);
        assert_eq!(l.tree_depth(), 8);
    }

    #[test]
    fn tree_path_is_monotone_and_shrinks() {
        let l = layout();
        // Two counter lines under the same level-0 node share the whole path.
        let a = l.tree_path(l.counter_line_addr(0));
        let b = l.tree_path(l.counter_line_addr(7 * 8 * 64));
        assert_eq!(a, b);
        // A distant counter line diverges at level 0 but converges at the
        // top in-memory level (each top node covers 128 MB of data here, so
        // 64 MB away shares node 0).
        let c = l.tree_path(l.counter_line_addr(1 << 26));
        assert_ne!(a[0], c[0]);
        assert_eq!(a.last(), c.last());
        // Beyond 128 MB the top in-memory nodes differ; only the on-chip
        // root (not in the path) is shared.
        let d = l.tree_path(l.counter_line_addr((1 << 29) - 64));
        assert_ne!(a.last(), d.last());
        assert_eq!(a.len(), d.len());
    }

    #[test]
    fn mac_tree_is_deeper_footprint_equal_counters() {
        // IVEC's MAC tree has the same leaf count as a monolithic counter
        // tree (both cover data/8 lines) — but with split counters the
        // Bonsai tree shrinks 8x while the MAC tree cannot.
        let bonsai_split =
            MetadataLayout::new(1 << 30, CounterOrg::Split, TreeLeaves::CounterLines);
        let mac_tree = MetadataLayout::new(1 << 30, CounterOrg::Split, TreeLeaves::MacLines);
        assert!(mac_tree.tree_depth() > bonsai_split.tree_depth());
    }

    #[test]
    fn parity_and_mac_slots() {
        let l = layout();
        assert_eq!(l.mac_slot(0), 0);
        assert_eq!(l.mac_slot(7 * 64), 7);
        assert_eq!(l.parity_slot(3 * 64), 3);
    }

    #[test]
    #[should_panic(expected = "outside data region")]
    fn counter_lookup_rejects_metadata_addresses() {
        let l = layout();
        l.counter_line_addr(l.data_bytes());
    }

    #[test]
    fn small_memory_has_no_in_memory_tree() {
        // 64 data lines → 8 counter lines → all verified on-chip.
        let l = MetadataLayout::new(64 * 64, CounterOrg::Monolithic, TreeLeaves::CounterLines);
        assert_eq!(l.tree_depth(), 0);
        assert!(l.tree_path(l.counter_line_addr(0)).is_empty());
    }
}
