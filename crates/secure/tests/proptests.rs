//! Property-based tests for the secure-memory layer: layout invariants and
//! access-expansion conservation laws.

use proptest::prelude::*;
use synergy_cache::{CacheConfig, SetAssocCache};
use synergy_dram::{AccessKind, RequestClass};
use synergy_secure::layout::{CounterOrg, MetadataLayout, Region, TreeLeaves, LINE};
use synergy_secure::{DesignConfig, Expansion, SecureEngine};

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

fn layout_strategy() -> impl Strategy<Value = MetadataLayout> {
    (12u32..26, prop_oneof![Just(CounterOrg::Monolithic), Just(CounterOrg::Split)]).prop_map(
        |(log2, org)| MetadataLayout::new(1u64 << log2, org, TreeLeaves::CounterLines),
    )
}

proptest! {
    /// Every data address maps into the correct region, and its metadata
    /// addresses classify as their own regions.
    #[test]
    fn layout_regions_consistent(layout in layout_strategy(), frac in 0.0f64..1.0) {
        let lines = layout.data_bytes() / LINE;
        let addr = ((lines as f64 * frac) as u64).min(lines - 1) * LINE;
        prop_assert_eq!(layout.classify(addr), Region::Data);
        prop_assert_eq!(layout.classify(layout.counter_line_addr(addr)), Region::Counter);
        prop_assert_eq!(layout.classify(layout.mac_line_addr(addr)), Region::Mac);
        prop_assert_eq!(layout.classify(layout.parity_line_addr(addr)), Region::Parity);
        for (level, node) in layout.tree_path(layout.counter_line_addr(addr)).iter().enumerate() {
            prop_assert_eq!(layout.classify(*node), Region::Tree(level));
        }
    }

    /// Addresses within one counter group share all metadata lines; the
    /// slot function is a bijection within the group.
    #[test]
    fn layout_grouping(layout in layout_strategy(), frac in 0.0f64..1.0) {
        let per = layout.counter_org().counters_per_line();
        let groups = layout.data_bytes() / LINE / per;
        let group = ((groups as f64 * frac) as u64).min(groups - 1);
        let base = group * per * LINE;
        let ctr = layout.counter_line_addr(base);
        let mut seen = std::collections::HashSet::new();
        for i in 0..per {
            let a = base + i * LINE;
            prop_assert_eq!(layout.counter_line_addr(a), ctr);
            prop_assert!(seen.insert(layout.counter_slot(a)));
        }
    }

    /// The tree path is strictly level-ascending and shared prefixes
    /// converge monotonically: once two leaves' paths meet, they never
    /// diverge again.
    #[test]
    fn tree_paths_converge_monotonically(
        layout in layout_strategy(),
        fa in 0.0f64..1.0,
        fb in 0.0f64..1.0,
    ) {
        let lines = layout.data_bytes() / LINE;
        let a = layout.counter_line_addr(((lines as f64 * fa) as u64).min(lines - 1) * LINE);
        let b = layout.counter_line_addr(((lines as f64 * fb) as u64).min(lines - 1) * LINE);
        let pa = layout.tree_path(a);
        let pb = layout.tree_path(b);
        prop_assert_eq!(pa.len(), pb.len());
        let mut met = false;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if met {
                prop_assert_eq!(x, y, "paths diverged after meeting");
            }
            if x == y {
                met = true;
            }
        }
    }

    /// Expansion conservation: a read expansion contains exactly one data
    /// read; Synergy expansions never contain MAC accesses; non-secure
    /// expansions contain nothing else at all.
    #[test]
    fn expansion_invariants(addrs in proptest::collection::vec(0u64..(1 << 24), 1..50)) {
        let mut llc = SetAssocCache::new(CacheConfig::new(1 << 20, 8, 64).unwrap());
        let mut syn = SecureEngine::new(DesignConfig::synergy(), 1 << 26);
        let mut ns = SecureEngine::new(DesignConfig::non_secure(), 1 << 26);
        let mut llc2 = SetAssocCache::new(CacheConfig::new(1 << 20, 8, 64).unwrap());
        for addr in addrs {
            let addr = addr & !63;
            let e = read(&mut syn, addr, &mut llc);
            let data_reads = e
                .accesses
                .iter()
                .filter(|a| a.class == RequestClass::Data && a.kind == AccessKind::Read)
                .count();
            prop_assert_eq!(data_reads, 1);
            prop_assert!(e.accesses.iter().all(|a| a.class != RequestClass::Mac));

            let e = read(&mut ns, addr, &mut llc2);
            prop_assert_eq!(e.accesses.len(), 1);

            let w = writeback(&mut syn, addr, &mut llc);
            let parity_writes = w
                .accesses
                .iter()
                .filter(|a| a.class == RequestClass::Parity && a.kind == AccessKind::Write)
                .count();
            prop_assert_eq!(parity_writes, 1, "Synergy pays exactly one parity write");
        }
    }

    /// Region boundaries round-trip through `classify` exactly: each
    /// region's base and last line classify as that region, the line just
    /// below each base classifies as the preceding region, and the first
    /// line past the layout is `OutOfRange` — the address the engine's
    /// `class_of` debug-assertion exists to catch.
    #[test]
    fn region_boundaries_round_trip(layout in layout_strategy()) {
        let mac_base = layout.counter_base() + layout.counter_lines() * LINE;

        prop_assert_eq!(layout.classify(0), Region::Data);
        prop_assert_eq!(layout.classify(layout.data_bytes() - LINE), Region::Data);
        prop_assert_eq!(layout.counter_base(), layout.data_bytes());
        prop_assert_eq!(layout.classify(layout.counter_base()), Region::Counter);
        prop_assert_eq!(layout.classify(mac_base - LINE), Region::Counter);
        prop_assert_eq!(layout.classify(mac_base), Region::Mac);
        prop_assert_eq!(layout.classify(layout.parity_base() - LINE), Region::Mac);
        prop_assert_eq!(layout.classify(layout.parity_base()), Region::Parity);

        let mut prev_end = None;
        for level in 0..layout.tree_depth() {
            let base = layout.tree_level_base(level);
            let nodes = layout.tree_level_nodes(level);
            prop_assert_eq!(layout.classify(base), Region::Tree(level));
            prop_assert_eq!(layout.classify(base + (nodes - 1) * LINE), Region::Tree(level));
            prop_assert_eq!(
                layout.classify(base - LINE),
                if level == 0 { Region::Parity } else { Region::Tree(level - 1) },
                "tree levels must be contiguous after parity"
            );
            prev_end = Some(base + nodes * LINE);
        }
        if let Some(end) = prev_end {
            prop_assert_eq!(end, layout.total_bytes());
        }
        prop_assert_eq!(layout.classify(layout.total_bytes()), Region::OutOfRange);
        prop_assert_eq!(layout.classify(layout.total_bytes() + LINE), Region::OutOfRange);
    }

    /// Counter-writeback conservation: every counter-line increment is
    /// written back to DRAM exactly once — never lost in a cache, never
    /// duplicated across the dedicated cache and the LLC. Deliberately
    /// tiny caches force constant evictions and dual residency, covering
    /// the clean-fill + dirty-increment miss path and the
    /// dedicated-promotion-of-a-dirty-LLC-line path.
    #[test]
    fn counter_writebacks_conserve_increments(
        ops in proptest::collection::vec((0u64..(1 << 22), any::<bool>()), 1..120),
    ) {
        let presets = [
            DesignConfig::sgx(),
            DesignConfig::sgx_o(),
            DesignConfig::synergy(),
            DesignConfig::ivec(),
            DesignConfig::lot_ecc(true),
        ];
        for design in presets {
            let name = design.name;
            let mut llc = SetAssocCache::new(CacheConfig::new(8 << 10, 2, 64).unwrap());
            let mut engine = SecureEngine::with_metadata_cache(
                design,
                1 << 26,
                CacheConfig::new(1 << 10, 2, 64).unwrap(),
            );
            // Logically-dirty counter lines: incremented but not yet in DRAM.
            let mut dirty = std::collections::HashSet::new();
            for &(addr, is_write) in &ops {
                let addr = addr & !63;
                let exp = if is_write {
                    let ctr = engine.layout().counter_line_addr(addr);
                    let exp = writeback(&mut engine, addr, &mut llc);
                    dirty.insert(ctr);
                    exp
                } else {
                    read(&mut engine, addr, &mut llc)
                };
                for a in &exp.accesses {
                    if a.class == RequestClass::Counter && a.kind == AccessKind::Write {
                        prop_assert!(
                            dirty.remove(&a.addr),
                            "{}: counter line {:#x} written back while logically \
                             clean — a lost or duplicated increment",
                            name,
                            a.addr
                        );
                    }
                }
            }
            // Flush: whatever is still dirty in either cache must be
            // exactly the remaining logically-dirty set.
            let mut resident = Vec::new();
            engine.drain_dirty_metadata_into(&mut resident);
            llc.drain_dirty_into(&mut resident);
            for addr in resident {
                if engine.layout().classify(addr) == Region::Counter {
                    prop_assert!(
                        dirty.remove(&addr),
                        "{}: cache holds dirty counter {:#x} that was never incremented \
                         (or was already written back)",
                        name,
                        addr
                    );
                }
            }
            prop_assert!(
                dirty.is_empty(),
                "{}: increments lost — dirty bits stranded for {:x?}",
                name,
                dirty
            );
        }
    }

    /// Warm counter lines stop generating counter traffic: expanding the
    /// same read twice in a row, the second expansion is data-only for
    /// Synergy.
    #[test]
    fn warm_reads_are_data_only(addr in 0u64..(1 << 24)) {
        let addr = addr & !63;
        let mut llc = SetAssocCache::new(CacheConfig::new(1 << 20, 8, 64).unwrap());
        let mut e = SecureEngine::new(DesignConfig::synergy(), 1 << 26);
        let _ = read(&mut e, addr, &mut llc);
        let again = read(&mut e, addr, &mut llc);
        prop_assert_eq!(again.accesses.len(), 1);
        prop_assert_eq!(again.accesses[0].class, RequestClass::Data);
    }
}
