//! Steady-state allocation audit for the per-access hot paths.
//!
//! The simulator's issue path (`expand_read_into` / `expand_writeback_into`
//! with a caller-owned [`Expansion`], flat caches, owned tree-path
//! iterators) is designed to touch the heap only while warming up —
//! inline expansion buffers, retained spill capacity, and cache arrays
//! are all allocated once. The functional [`SynergyMemory`] allocates its
//! line store at construction and nothing per operation, the SECDED
//! and Chipkill line codecs work on stack arrays only, the simulator's
//! in-flight [`RequestLedger`] reuses its table slots and builds a span
//! only for a read that enters the top-K, and the DRAM model keeps both
//! request queues of a channel in one slab sized at construction. A
//! campaign injection builds its scenario with the faults inline and runs
//! on its thread's working memories, restored from the template in place.
//! These tests install a counting global allocator and assert the warm
//! paths perform literally zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use synergy::cache::{CacheConfig, SetAssocCache};
use synergy::campaign::runner::MEMORY_CAPACITY;
use synergy::campaign::{
    analytic_fails, run_functional, scenario_for, CampaignParams, Design, Scenario, TargetRegion,
};
use synergy::core::{SynergyMemory, SynergyMemoryConfig};
use synergy::crypto::CacheLine;
use synergy::dram::{AccessKind, Completion, DramConfig, MemorySystem, Request, RequestClass};
use synergy::ecc::reed_solomon::Chipkill;
use synergy::ecc::{secded, DecodeOutcome};
use synergy::obs::{ReadTimes, RequestLedger, SpanPhase};
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

/// Encodes and decodes one line through both ECC codecs: SECDED with a
/// single-bit and a double-bit word error, Chipkill clean, with one failed
/// chip and with two. Returns the decoded lines' outcomes.
fn drive_ecc(ck: &Chipkill, line: &[u8; 64]) -> [DecodeOutcome; 5] {
    let words = CacheLine::from_bytes(*line).to_words();
    let check = secded::encode_line(&words);
    let mut single = words;
    single[1] ^= 1 << 9;
    let mut double = words;
    double[6] ^= 0b101 << 30;

    let clean = ck.encode_line(line).expect("encode");
    let mut one_chip = clean;
    let mut two_chips = clean;
    for beat in one_chip.iter_mut().chain(two_chips.iter_mut()) {
        beat[3] ^= 0x77;
    }
    for beat in two_chips.iter_mut() {
        beat[8] ^= 0x21;
    }
    [
        secded::decode_line(&single, &check).1,
        secded::decode_line(&double, &check).1,
        ck.correct_line(&mut clean.clone()).expect("well-formed").1,
        ck.correct_line(&mut one_chip).expect("well-formed").1,
        ck.correct_line(&mut two_chips).expect("well-formed").1,
    ]
}

#[test]
fn warm_ecc_line_codecs_perform_zero_allocations() {
    let ck = Chipkill::new().expect("fixed geometry");
    let line: [u8; 64] = std::array::from_fn(|i| (i * 37 + 11) as u8);
    let warm = drive_ecc(&ck, &line);

    let before = allocation_count();
    let steady = drive_ecc(&ck, &line);
    let after = allocation_count();
    use DecodeOutcome::{Clean, Corrected, DetectedUncorrectable as Due};
    assert_eq!(steady, [Corrected, Due, Clean, Corrected, Due]);
    assert_eq!(warm, steady);
    assert_eq!(
        after - before,
        0,
        "ECC line codecs allocated {} times in steady state",
        after - before
    );
}

/// The first request id the ledger audit opens.
const FIRST_ID: u64 = 1_000;

/// Opens, stamps and closes `n` reads the way the simulator's memory side
/// does, starting at request id `*id`: every read is followed by a write
/// id (an empty slot in the table), eight reads are in flight at a time,
/// and each read takes `latency` cycles from open to close. Returns the
/// number of loads handed back.
fn drive_ledger(ledger: &mut RequestLedger, id: &mut u64, n: u64, latency: u64) -> u64 {
    let mut delivered = 0;
    for i in 0..n {
        // The cycle a read opens is its id, so latencies are exact.
        let cycle = *id;
        ledger.open(*id, (i % 5) as usize, cycle * 64, cycle, Some((0, i)));
        ledger.stamp(*id, SpanPhase::EngineExpand, cycle);
        ledger.stamp(*id, SpanPhase::MetaCacheProbe, cycle);
        ledger.stamp(*id, SpanPhase::DramEnqueue, cycle + 1);
        ledger.stamp(*id + 1, SpanPhase::DramEnqueue, cycle + 1);
        if *id >= FIRST_ID + 16 {
            let old = *id - 16;
            let t = ReadTimes {
                enqueue: old + 1,
                bank_ready: old + 2,
                issue: old + latency - 4,
                complete: old + latency,
            };
            delivered += u64::from(ledger.close(old, t, |_, _| 0).is_some());
        }
        *id += 2;
    }
    delivered
}

#[test]
fn warm_request_ledger_performs_zero_allocations() {
    let classes = ["data", "counter", "tree", "mac", "parity"];
    let mut ledger = RequestLedger::new(&classes, 4096, 16, true);
    let mut id = FIRST_ID;
    // Warm-up: slow reads fill the top-K and grow the table and the
    // histograms to their working size.
    assert_eq!(drive_ledger(&mut ledger, &mut id, 4096, 1_000), 4096 - 8);

    // Steady state: faster reads never enter the top-K, so opening,
    // stamping and closing them must not allocate.
    let before = allocation_count();
    let delivered = drive_ledger(&mut ledger, &mut id, 8192, 100);
    let after = allocation_count();
    assert_eq!(delivered, 8192);
    assert_eq!(ledger.completed(), 4096 - 8 + 8192);
    assert!(ledger.slowest(16).iter().all(|s| s.total_latency() == 1_000));
    ledger.attribution().unwrap().verify().unwrap();
    assert_eq!(
        after - before,
        0,
        "request ledger allocated {} times in steady state",
        after - before
    );
}

/// What a [`drive_dram`] window saw: reads completed, and whether the
/// write queue reached the high drain watermark and later fell to the low
/// one.
struct DramWindow {
    reads: u64,
    crossed_hi: bool,
    crossed_lo_after_hi: bool,
}

/// Ticks the one-channel `mem` for `cycles` cycles, offering every cycle
/// a read and, one cycle in eight, a write, at random lines over 16 rows
/// per bank (xorshift, so the stream allocates nothing). Reads arrive as
/// fast as the read queue drains, so it stays full; writes pile up until
/// the high watermark starts a drain down to the low one.
fn drive_dram(
    mem: &mut MemorySystem,
    seed: &mut u64,
    id: &mut u64,
    cycles: u64,
    done: &mut Vec<Completion>,
) -> DramWindow {
    let cfg = mem.config().clone();
    let banks = (cfg.ranks_per_channel * cfg.banks_per_rank) as u64;
    let lines = banks * cfg.lines_per_row * 16;
    let mut window = DramWindow { reads: 0, crossed_hi: false, crossed_lo_after_hi: false };
    for _ in 0..cycles {
        for kind in [AccessKind::Read, AccessKind::Write] {
            *seed ^= *seed << 13;
            *seed ^= *seed >> 7;
            *seed ^= *seed << 17;
            if kind == AccessKind::Write && !seed.is_multiple_of(8) {
                continue;
            }
            let class = RequestClass::ALL[(*seed % 5) as usize];
            let req = Request { id: *id, addr: (*seed % lines) * 64, kind, class, core: 0 };
            *id += u64::from(mem.enqueue(req));
        }
        mem.tick_into(done);
        window.reads += done.len() as u64;
        done.clear();
        let writes = mem.write_queue_occupancy();
        window.crossed_hi |= writes >= cfg.write_hi_watermark;
        window.crossed_lo_after_hi |= window.crossed_hi && writes <= cfg.write_lo_watermark;
    }
    window
}

#[test]
fn warm_dram_performs_zero_allocations() {
    let cfg = DramConfig::with_channels(1);
    let mut mem = MemorySystem::new(cfg.clone()).unwrap();
    let (mut seed, mut id) = (0x9E37_79B9_7F4A_7C15u64, 0);
    let mut done = Vec::new();
    // Warm-up: grows the completion buffer and the latency histograms to
    // their working size.
    let warm = drive_dram(&mut mem, &mut seed, &mut id, 40_000, &mut done);
    assert!(warm.reads > 0);

    let refreshes = mem.stats().refreshes;
    let before = allocation_count();
    let steady = drive_dram(&mut mem, &mut seed, &mut id, 20_000, &mut done);
    let after = allocation_count();
    assert!(steady.reads > 0);
    assert!(steady.crossed_hi && steady.crossed_lo_after_hi, "no write drain in the steady window");
    assert!(mem.stats().refreshes > refreshes, "no refresh in the steady window");
    assert_eq!(mem.read_queue_occupancy(), cfg.read_queue_capacity, "read queue not saturated");
    assert_eq!(
        after - before,
        0,
        "DRAM model allocated {} times in steady state",
        after - before
    );
}

/// Injections of the campaign test below.
const INJECTIONS: u64 = 900;

/// Builds each scenario of the default campaign and runs it through its
/// functional pipeline and the analytic model, as a campaign shard does;
/// returns the failure verdicts, summed.
fn inject(p: &CampaignParams) -> u64 {
    (0..INJECTIONS)
        .map(|i| {
            let s = scenario_for(p.seed, i, &p.model, &p.geometry, MEMORY_CAPACITY / 64);
            u64::from(run_functional(&s).outcome.is_failure()) + u64::from(analytic_fails(&s))
        })
        .sum()
}

#[test]
fn warm_campaign_injection_performs_zero_allocations() {
    let p = CampaignParams::default();
    // The injections reach every design, fault count and SYNERGY region.
    let scenarios: Vec<Scenario> = (0..INJECTIONS)
        .map(|i| scenario_for(p.seed, i, &p.model, &p.geometry, MEMORY_CAPACITY / 64))
        .collect();
    for design in Design::ALL {
        for faults in 1..=2 {
            assert!(
                scenarios.iter().any(|s| s.design == design && s.faults.len() == faults),
                "no {faults}-fault {design:?} scenario"
            );
        }
    }
    for region in [TargetRegion::Data, TargetRegion::Counter, TargetRegion::Parity] {
        assert!(
            scenarios.iter().any(|s| s.design == Design::Synergy && s.region == region),
            "no SYNERGY scenario targets the {region:?} region"
        );
    }
    // Warm-up: the SYNERGY template, the Chipkill codec and this thread's
    // working memories.
    let warm = inject(&p);
    assert!(warm > 0);

    let before = allocation_count();
    let steady = inject(&p);
    let after = allocation_count();
    assert_eq!(steady, warm);
    assert_eq!(
        after - before,
        0,
        "campaign injections allocated {} times in steady state",
        after - before
    );
}
