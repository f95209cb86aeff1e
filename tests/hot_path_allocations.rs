//! Steady-state allocation audit for the per-access hot paths.
//!
//! The simulator's issue path (`expand_read_into` / `expand_writeback_into`
//! with a caller-owned [`Expansion`], flat caches, owned tree-path
//! iterators) is designed to touch the heap only while warming up —
//! inline expansion buffers, retained spill capacity, and cache arrays
//! are all allocated once. The functional [`SynergyMemory`] allocates its
//! line store at construction and nothing per operation. These tests
//! install a counting global allocator and assert the warm paths perform
//! literally zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use synergy::cache::{CacheConfig, SetAssocCache};
use synergy::core::{SynergyMemory, SynergyMemoryConfig};
use synergy::crypto::CacheLine;
use synergy::secure::{DesignConfig, Expansion, SecureEngine};

struct CountingAllocator;

thread_local! {
    /// Per-thread count, so tests running in parallel (and the harness's
    /// own threads) do not see each other's allocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: the allocator may run while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations made so far by the calling thread.
fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Drives reads and writebacks the way `system::step_core` does: reusable
/// `Expansion` buffers, a reusable dirty-metadata scratch `Vec`.
fn drive(
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    exp: &mut Expansion,
    dirty: &mut Vec<u64>,
    rounds: u64,
) -> u64 {
    let mut sink = 0u64;
    for r in 0..rounds {
        for i in 0..2048u64 {
            // Mixed hot (reused) and sweeping (evicting) addresses.
            let addr = if i % 4 == 0 { (r * 2048 + i) * 64 } else { (i % 512) * 64 };
            engine.expand_read_into(addr, llc, exp);
            sink += exp.accesses.len() as u64;
            if i % 3 == 0 {
                engine.expand_writeback_into(addr, llc, exp);
                sink += exp.evicted_dirty_data.len() as u64;
            }
        }
        dirty.clear();
        engine.drain_dirty_metadata_into(dirty);
        sink += dirty.len() as u64;
    }
    sink
}

#[test]
fn warm_hot_path_performs_zero_allocations() {
    // Single-design is enough: all designs share the expansion machinery.
    let mut engine = SecureEngine::new(DesignConfig::synergy(), 1 << 30);
    let mut llc = SetAssocCache::new(CacheConfig::new(1 << 20, 8, 64).unwrap());
    let mut exp = Expansion::default();
    let mut dirty = Vec::new();

    // Warm-up: populate caches, spill inline buffers if they ever will,
    // and grow the dirty-scratch vector to its steady-state capacity.
    let warm = drive(&mut engine, &mut llc, &mut exp, &mut dirty, 4);
    assert!(warm > 0);

    // Steady state: the identical access recipe must not allocate.
    let before = allocation_count();
    let steady = drive(&mut engine, &mut llc, &mut exp, &mut dirty, 4);
    let after = allocation_count();
    assert!(steady > 0);
    assert_eq!(
        after - before,
        0,
        "hot path allocated {} times in steady state",
        after - before
    );
}

/// A seeded mix of reads and writes over `lines` lines (xorshift, so the
/// stream itself allocates nothing). Returns the number of successful ops.
fn drive_memory(
    mem: &mut SynergyMemory,
    lines: u64,
    seed: &mut u64,
    ops: u64,
    writes: bool,
) -> u64 {
    let mut ok = 0;
    for _ in 0..ops {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        let addr = (*seed % lines) * 64;
        let result = if writes && *seed % 10 < 3 {
            mem.write_line(addr, &CacheLine::from_words([*seed; 8])).is_ok()
        } else {
            mem.read_line(addr).is_ok()
        };
        ok += u64::from(result);
    }
    ok
}

#[test]
fn warm_functional_memory_performs_zero_allocations() {
    const CAPACITY: u64 = 1 << 20;
    let lines = CAPACITY / 64;
    let mut mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(CAPACITY)).unwrap();
    for i in 0..lines {
        mem.write_line(i * 64, &CacheLine::from_words([i; 8])).unwrap();
    }
    let mut seed = 0x9E37_79B9_7F4A_7C15;
    assert_eq!(drive_memory(&mut mem, lines, &mut seed, 4096, true), 4096);

    // Healthy reads and writes, a whole-chip failure, then degraded reads
    // until the failed chip is tracked and reads take the fast path.
    let before = allocation_count();
    let healthy = drive_memory(&mut mem, lines, &mut seed, 8192, true);
    mem.inject_chip_failure(3);
    let degraded = drive_memory(&mut mem, lines, &mut seed, 8192, false);
    let after = allocation_count();
    assert_eq!((healthy, degraded), (8192, 8192));
    assert_eq!(mem.tracked_faulty_chip(), Some(3));
    assert!(mem.stats().preemptive_corrections > 0);
    assert_eq!(
        after - before,
        0,
        "functional memory allocated {} times in steady state",
        after - before
    );
}
