//! Criterion micro-benchmarks for the cycle-level DRAM model and the
//! event-horizon fast path.
//!
//! Three layers, each with the fast path and a per-cycle reference so the
//! speedup is visible directly in the report:
//!
//! * `dram_busy_burst` — servicing a 32-request burst with bank
//!   conflicts: `run_until_idle` (skips inter-event gaps) vs ticking
//!   every cycle.
//! * `dram_idle_window` — traversing 100k idle cycles (refresh is the
//!   only activity): `next_event_cycle`/`skip_to` hops vs per-cycle
//!   ticks.
//! * `dram_saturated_queues` — host ns per memory tick with every read
//!   queue held at capacity and every write queue between its drain
//!   watermarks, requests spread over all banks with row conflicts: the
//!   FR-FCFS scheduler's busiest case, with queues that never drain.
//! * `dram_simulator_occupancy` — host ns per memory tick at the queue
//!   occupancy the simulator's memory-bound cells run at (about 10 reads
//!   and 7–34 writes per channel) with random rows: the row-miss regime
//!   where about as many ACT+PRE as column commands issue.
//! * `system_run` — an end-to-end `run`-driven workload (the same shape
//!   as `synergy_bench::run_workload`, scaled down for criterion) with
//!   `SystemConfig::fast_forward` on vs off; the measured quantity the
//!   sweep cares about is simulated memory cycles per wall second.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use synergy_bench::trace_seed;
use synergy_core::system::{run, SystemConfig};
use synergy_dram::{AccessKind, DramConfig, MemorySystem, Request, RequestClass};
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace};

/// A loaded memory system: 32 requests interleaved across channels,
/// banks, rows and directions (same shape as the dram crate's
/// fast-forward determinism test).
fn loaded_system() -> MemorySystem {
    let cfg = DramConfig::default();
    let mut mem = MemorySystem::new(cfg.clone()).unwrap();
    let bank_stride = cfg.channels as u64 * cfg.lines_per_row * 64;
    let row_stride = bank_stride * cfg.banks_per_rank as u64 * cfg.ranks_per_channel as u64;
    for i in 0..32u64 {
        let addr = (i % 2) * 64 + (i % 5) * bank_stride + (i % 3) * row_stride;
        let kind = if i % 4 == 3 { AccessKind::Write } else { AccessKind::Read };
        let req = Request { id: i, addr, kind, class: RequestClass::Data, core: 0 };
        assert!(mem.enqueue(req));
    }
    mem
}

fn bench_busy_burst(c: &mut Criterion) {
    const DEADLINE: u64 = 4096;
    let mut g = c.benchmark_group("dram_busy_burst");
    g.throughput(Throughput::Elements(DEADLINE));
    g.bench_function("fast_forward", |b| {
        b.iter(|| {
            let mut mem = loaded_system();
            black_box(mem.run_until_idle(DEADLINE))
        })
    });
    g.bench_function("per_cycle", |b| {
        b.iter(|| {
            let mut mem = loaded_system();
            let mut done = Vec::new();
            for _ in 0..DEADLINE {
                mem.tick_into(&mut done);
            }
            black_box(done)
        })
    });
    g.finish();
}

fn bench_idle_window(c: &mut Criterion) {
    const WINDOW: u64 = 100_000;
    let mut g = c.benchmark_group("dram_idle_window");
    g.throughput(Throughput::Elements(WINDOW));
    g.bench_function("skip_to", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
            let mut done = Vec::new();
            while mem.cycle() < WINDOW {
                mem.tick_into(&mut done);
                match mem.next_event_cycle() {
                    Some(event) if event > mem.cycle() => mem.skip_to(event.min(WINDOW)),
                    Some(_) => {}
                    None => mem.skip_to(WINDOW),
                }
            }
            black_box(mem.stats().refreshes)
        })
    });
    g.bench_function("per_cycle", |b| {
        b.iter(|| {
            let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
            let mut done = Vec::new();
            for _ in 0..WINDOW {
                mem.tick_into(&mut done);
            }
            black_box(mem.stats().refreshes)
        })
    });
    g.finish();
}

/// Tops every channel's queues up to `reads` and `writes` requests (the
/// channels' totals reach `reads` and `writes` times the channel count),
/// at random lines over all banks and the first `rows` rows of each.
fn refill(
    mem: &mut MemorySystem,
    rng: &mut u64,
    next_id: &mut u64,
    reads: usize,
    writes: usize,
    rows: u64,
) {
    let cfg = mem.config().clone();
    let lines = cfg.lines_per_row * cfg.banks_per_rank as u64 * cfg.ranks_per_channel as u64 * rows;
    for ch in 0..cfg.channels {
        let mut enqueue = |mem: &mut MemorySystem, kind| {
            *rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let line = ((*rng >> 24) % lines) * cfg.channels as u64 + ch as u64;
            *next_id += 1;
            let addr = line * cfg.line_bytes;
            let req = Request { id: *next_id, addr, kind, class: RequestClass::Data, core: 0 };
            mem.enqueue(req)
        };
        while mem.read_queue_occupancy() < (ch + 1) * reads && enqueue(mem, AccessKind::Read) {}
        while mem.write_queue_occupancy() < (ch + 1) * writes && enqueue(mem, AccessKind::Write) {}
    }
}

fn bench_saturated_queues(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_saturated_queues");
    g.throughput(Throughput::Elements(1));
    // One long-lived system stays saturated across batches; each
    // iteration refills the queues (reads to capacity, writes midway
    // between the drain watermarks, four rows per bank) and ticks once.
    let cfg = DramConfig::default();
    let writes = (cfg.write_lo_watermark + cfg.write_hi_watermark) / 2;
    let mut mem = MemorySystem::new(cfg.clone()).unwrap();
    let (mut rng, mut next_id) = (0x9E37_79B9_7F4A_7C15u64, 0);
    let mut done = Vec::new();
    g.bench_function("ns_per_tick", |b| {
        b.iter(|| {
            refill(&mut mem, &mut rng, &mut next_id, cfg.read_queue_capacity, writes, 4);
            mem.tick_into(&mut done);
            done.clear();
        })
    });
    g.finish();
    black_box(mem.stats().bursts);
}

fn bench_simulator_occupancy(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_simulator_occupancy");
    g.throughput(Throughput::Elements(1));
    // The queues the simulator's memory-bound cells hold: about 10 reads
    // and 7 to 34 writes per channel (the write target redrawn every
    // tick, below the drain watermark), at random rows, so nearly every
    // request needs a precharge and an activate.
    let cfg = DramConfig::default();
    let mut mem = MemorySystem::new(cfg.clone()).unwrap();
    let (mut rng, mut next_id) = (0x2545_F491_4F6C_DD1Du64, 0);
    let mut done = Vec::new();
    g.bench_function("ns_per_tick", |b| {
        b.iter(|| {
            let writes = 7 + (rng >> 40) as usize % 28;
            refill(&mut mem, &mut rng, &mut next_id, 10, writes, cfg.rows_per_bank);
            mem.tick_into(&mut done);
            done.clear();
        })
    });
    g.finish();
    black_box(mem.stats().bursts);
}

fn run_workload_scaled(fast_forward: bool) -> u64 {
    let w = presets::by_name("mcf").unwrap();
    let mut cfg = SystemConfig::new(DesignConfig::synergy());
    cfg.dram = DramConfig::with_channels(2);
    cfg.warmup_records_per_core = 1_000;
    cfg.fast_forward = fast_forward;
    let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(2));
    run(&cfg, &mut trace, 5_000).expect("valid config").mem_cycles
}

fn bench_system_run(c: &mut Criterion) {
    // Both variants simulate the identical cycle count (that's the
    // fast path's bit-identity guarantee), so wall-time ratios here ARE
    // simulated-cycles-per-second ratios.
    let cycles = run_workload_scaled(true);
    assert_eq!(cycles, run_workload_scaled(false), "fast path must be invisible");
    let mut g = c.benchmark_group("system_run");
    g.throughput(Throughput::Elements(cycles));
    g.bench_function("fast_forward", |b| b.iter(|| black_box(run_workload_scaled(true))));
    g.bench_function("per_cycle", |b| b.iter(|| black_box(run_workload_scaled(false))));
    g.finish();
}

criterion_group!(
    benches,
    bench_busy_burst,
    bench_idle_window,
    bench_saturated_queues,
    bench_simulator_occupancy,
    bench_system_run
);
criterion_main!(benches);
