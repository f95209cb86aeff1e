//! `sim-saturated` and `sim-light`: the timing simulator end to end
//! (`synergy::core::system::run`), and its trace, cache, secure-engine and
//! DRAM layers replayed through their public APIs on each cell's own
//! record stream.

use std::time::Instant;

use synergy::cache::SetAssocCache;
use synergy::core::system::{run, SimResult, SystemConfig};
use synergy::dram::{AccessKind, Completion, DramConfig, MemorySystem, Request};
use synergy::faultsim::FaultSchedule;
use synergy::obs::LogHistogram;
use synergy::secure::{AccessSpec, DesignConfig, Expansion, Region, SecureEngine};
use synergy::trace::{presets, MultiCoreTrace, WorkloadSpec};

use crate::report::{median, mix_seed, rounds, LayerId, Parent, PartTimes, Report, Tally, Tracer};
use crate::Scale;

/// DRAM channels of every cell (the figure runs' default).
const CHANNELS: usize = 2;
/// The chip that fails in the degraded cells.
const FAILED_CHIP: usize = 3;

/// One simulated cell: a workload preset under a design, healthy or with a
/// chip failing early in the run.
#[derive(Debug, Clone)]
pub struct Cell {
    workload: WorkloadSpec,
    design: DesignConfig,
    degraded: bool,
}

impl Cell {
    fn new(workload: &str, design: DesignConfig, degraded: bool) -> Self {
        let workload = presets::by_name(workload).expect("the cell names a preset");
        Self {
            workload,
            design,
            degraded,
        }
    }

    fn label(&self) -> String {
        let failure = if self.degraded { "+chip-failure" } else { "" };
        format!("{}/{}{failure}", self.workload.name, self.design.name)
    }
}

/// The cells of a sim workload and their size.
#[derive(Debug, Clone)]
pub struct Spec {
    cells: Vec<Cell>,
    insts_per_core: u64,
    warmup_records: u64,
    /// Memory cycle at which the degraded cell's chip fails: 2000 at full
    /// scale (`fig_degraded`'s default); earlier at smoke scale, whose
    /// cells end before cycle 2000.
    fail_cycle: u64,
}

impl Spec {
    /// `sim-saturated`: memory-bound cells whose host time goes to the
    /// secure engine, the metadata cache and the DRAM scheduler.
    pub fn saturated(scale: Scale) -> Self {
        let mut cells = Vec::new();
        for workload in ["mcf", "lbm", "pr-web"] {
            for design in [DesignConfig::sgx_o(), DesignConfig::synergy()] {
                cells.push(Cell::new(workload, design, false));
            }
        }
        cells.push(Cell::new("mcf", DesignConfig::synergy(), true));
        let (insts_per_core, warmup_records, fail_cycle) = match scale {
            Scale::Full => (200_000, 60_000, 2_000),
            Scale::Smoke => (2_000, 1_000, 200),
        };
        Self {
            cells,
            insts_per_core,
            warmup_records,
            fail_cycle,
        }
    }

    /// `sim-light`: cache-resident cells whose host time goes to the
    /// core-step loop and trace generation. Its degraded cell runs the
    /// parity path in the control workload too, so `secure.parity_reads`
    /// is never 0 here.
    pub fn light(scale: Scale) -> Self {
        let mut cells = Vec::new();
        for workload in ["gobmk", "h264ref"] {
            for design in [DesignConfig::sgx_o(), DesignConfig::synergy()] {
                cells.push(Cell::new(workload, design, false));
            }
        }
        cells.push(Cell::new("gobmk", DesignConfig::synergy(), true));
        let (insts_per_core, warmup_records, fail_cycle) = match scale {
            Scale::Full => (12_000_000, 60_000, 2_000),
            // Full warm-up: a colder LLC evicts no dirty line, so nothing
            // would be written back.
            Scale::Smoke => (20_000, 60_000, 200),
        };
        Self {
            cells,
            insts_per_core,
            warmup_records,
            fail_cycle,
        }
    }

    /// Simulated instructions per cell (all cores).
    fn cell_insts(&self) -> u64 {
        self.insts_per_core * 4
    }

    fn config(&self, cell: &Cell) -> SystemConfig {
        let mut cfg = SystemConfig::new(cell.design.clone());
        cfg.dram = DramConfig::with_channels(CHANNELS);
        cfg.warmup_records_per_core = self.warmup_records;
        if cell.degraded {
            cfg.fault_schedule = FaultSchedule::chip_failure_at(self.fail_cycle, FAILED_CHIP);
        }
        cfg
    }

    /// Runs one cell end to end; returns its result and `run()` wall time.
    fn run_cell(
        &self,
        cell: &Cell,
        seed: u64,
        insts_per_core: u64,
        tweak: impl FnOnce(&mut SystemConfig),
    ) -> Result<(SimResult, f64), String> {
        let mut cfg = self.config(cell);
        tweak(&mut cfg);
        let mut trace = MultiCoreTrace::rate_mode(&cell.workload, cfg.cores, trace_seed(seed));
        let t0 = Instant::now();
        let r =
            run(&cfg, &mut trace, insts_per_core).map_err(|e| format!("{}: {e}", cell.label()))?;
        Ok((r, t0.elapsed().as_secs_f64()))
    }

    /// Measured-phase trace records of a cell: what the replay and `run()`
    /// consume after warm-up.
    fn measured_records(&self, cell: &Cell, seed: u64) -> u64 {
        let cores = self.config(cell).cores;
        let mut trace = MultiCoreTrace::rate_mode(&cell.workload, cores, trace_seed(seed));
        for _ in 0..self.warmup_records {
            for core in 0..cores {
                trace.next_record(core);
            }
        }
        let mut left = vec![self.insts_per_core; cores];
        let mut records = 0;
        while left.iter().any(|&l| l > 0) {
            for (core, left) in left.iter_mut().enumerate().filter(|(_, l)| **l > 0) {
                let rec = trace.next_record(core);
                *left = left.saturating_sub(u64::from(rec.gap) + 1);
                records += 1;
            }
        }
        records
    }
}

/// The trace seed of a run seed. Seed 0 gives `trace_seed(2)`, the stream
/// the figure runs use. The top bit stays clear so `rate_mode`'s per-core
/// seed offsets cannot overflow.
fn trace_seed(seed: u64) -> u64 {
    mix_seed(synergy_bench::trace_seed(CHANNELS), seed) & (u64::MAX >> 1)
}

/// The correctness check of one cell.
fn cell_ok(r: &SimResult) -> bool {
    r.attrib.verify().is_ok() && r.ipc.is_finite() && r.ipc > 0.0
}

/// End-to-end pass: rounds over every cell until `seconds` have elapsed.
/// `ops_per_s` is the simulated instructions of all cells over the summed
/// `run()` wall time of each cell's fastest round; `setup_s` is the median
/// over rounds of the fixed cost of one `run()` call per cell
/// (construction plus warm-up), measured as runs of one instruction per
/// core.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Report, String> {
    let (mut setups, mut times) = (Vec::new(), PartTimes::default());
    rounds(seconds, || {
        let mut setup = 0.0;
        for cell in &spec.cells {
            setup += spec.run_cell(cell, seed, 1, |_| {})?.1;
        }
        setups.push(setup);
        for (i, cell) in spec.cells.iter().enumerate() {
            let (r, secs) = spec.run_cell(cell, seed, spec.insts_per_core, |_| {})?;
            tally.record(1, cell_ok(&r));
            times.record(i, secs);
        }
        Ok(())
    })?;
    let insts = spec.cell_insts() * spec.cells.len() as u64;
    let mut report = Report::default();
    report.set("setup_s", median(&setups), "s");
    report.set("ops_per_s", insts as f64 / times.fastest_total(), "1/s");
    Ok(report)
}

/// Call sites the replay times.
#[derive(Clone, Copy)]
struct Ids {
    record: LayerId,
    llc: LayerId,
    expand_read: LayerId,
    expand_writeback: LayerId,
    enqueue: LayerId,
    tick: LayerId,
}

impl Ids {
    fn new(t: &mut Tracer) -> Self {
        Self {
            record: t.layer("trace.record"),
            llc: t.layer("cache.llc_access"),
            expand_read: t.layer("secure.expand_read"),
            expand_writeback: t.layer("secure.expand_writeback"),
            enqueue: t.layer("dram.enqueue"),
            tick: t.layer("dram.tick"),
        }
    }
}

/// Work the replay did.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayCounts {
    /// Trace records consumed, warm-up included.
    records: u64,
    /// LLC read/write/fill calls.
    llc_calls: u64,
    /// Read and writeback expansions after warm-up.
    expansions: u64,
    /// DRAM accesses issued after warm-up.
    accesses: u64,
}

/// One cell's layers driven by the benchmark in the order `run()` uses
/// them: trace record → LLC probe → secure-engine expansion on a miss →
/// DRAM enqueue, with dirty evictions expanded as writebacks. DRAM ticks
/// at the cell's own ticked-cycles-per-record ratio, so its queues see the
/// load they see in `run()`.
struct Replay<'t> {
    t: &'t mut Tracer,
    ids: Ids,
    parent: Parent,
    llc: SetAssocCache,
    engine: SecureEngine,
    dram: MemorySystem,
    completions: Vec<Completion>,
    exp: Expansion,
    wb: Expansion,
    pending: Vec<u64>,
    next_id: u64,
    counts: ReplayCounts,
}

impl Replay<'_> {
    fn llc<R>(&mut self, f: impl FnOnce(&mut SetAssocCache) -> R) -> R {
        self.counts.llc_calls += 1;
        let llc = &mut self.llc;
        self.t.time(self.ids.llc, self.parent, || f(llc))
    }

    fn tick(&mut self) {
        let (dram, done) = (&mut self.dram, &mut self.completions);
        self.t
            .time(self.ids.tick, self.parent, || dram.tick_into(done));
        done.clear();
    }

    fn push(&mut self, spec: AccessSpec) {
        let req = Request {
            id: self.next_id,
            addr: spec.addr,
            kind: spec.kind,
            class: spec.class,
            core: 0,
        };
        self.next_id += 1;
        self.counts.accesses += 1;
        loop {
            let dram = &mut self.dram;
            if self
                .t
                .time(self.ids.enqueue, self.parent, || dram.enqueue(req))
            {
                return;
            }
            self.tick();
        }
    }

    /// Expands the dirty data lines in `pending` as writebacks, following
    /// any further dirty displacement (as `run()`'s cascade does).
    fn cascade(&mut self) {
        while let Some(addr) = self.pending.pop() {
            let (engine, llc, wb) = (&mut self.engine, &mut self.llc, &mut self.wb);
            self.t.time(self.ids.expand_writeback, self.parent, || {
                engine.expand_writeback_into(addr, llc, wb)
            });
            self.counts.expansions += 1;
            for i in 0..self.wb.accesses.len() {
                self.push(self.wb.accesses[i]);
            }
            self.pending.extend_from_slice(&self.wb.evicted_dirty_data);
        }
    }

    fn fill(&mut self, addr: u64, dirty: bool) {
        let Some(ev) = self.llc(|llc| llc.fill(addr, dirty)) else {
            return;
        };
        if !ev.dirty {
            return;
        }
        if self.engine.layout().classify(ev.addr) == Region::Data {
            self.pending.push(ev.addr);
            self.cascade();
        } else {
            let class = self.engine.class_of(ev.addr);
            self.push(AccessSpec {
                addr: ev.addr,
                kind: AccessKind::Write,
                class,
            });
        }
    }

    fn load_miss(&mut self, addr: u64) {
        let (engine, llc, exp) = (&mut self.engine, &mut self.llc, &mut self.exp);
        self.t.time(self.ids.expand_read, self.parent, || {
            engine.expand_read_into(addr, llc, exp)
        });
        self.counts.expansions += 1;
        for i in 0..self.exp.accesses.len() {
            self.push(self.exp.accesses[i]);
        }
        self.fill(addr, false);
        self.pending.extend_from_slice(&self.exp.evicted_dirty_data);
        self.cascade();
    }
}

fn replay(
    spec: &Spec,
    cell: &Cell,
    seed: u64,
    ticks_per_record: f64,
    t: &mut Tracer,
    ids: Ids,
) -> Result<ReplayCounts, String> {
    let cfg = spec.config(cell);
    let mut dram_cfg = cfg.dram.clone();
    if cfg.design.dual_channel_lockstep() {
        dram_cfg.channels = (dram_cfg.channels / 2).max(1);
    }
    let dram = MemorySystem::new(dram_cfg).map_err(|e| format!("{}: {e}", cell.label()))?;
    let mut trace = MultiCoreTrace::rate_mode(&cell.workload, cfg.cores, trace_seed(seed));
    let parent = t.open(format!("replay {}", cell.label()));
    let mut r = Replay {
        t,
        ids,
        parent,
        llc: SetAssocCache::new(cfg.llc),
        engine: SecureEngine::new(cfg.design.clone(), cfg.data_capacity),
        dram,
        completions: Vec::new(),
        exp: Expansion::default(),
        wb: Expansion::default(),
        pending: Vec::new(),
        next_id: 1,
        counts: ReplayCounts::default(),
    };
    let line = |addr: u64| (addr % cfg.data_capacity) & !63;

    // Warm-up: caches only, no DRAM (as `run()` warms up).
    for _ in 0..spec.warmup_records {
        for core in 0..cfg.cores {
            let rec = r.t.time(ids.record, parent, || trace.next_record(core));
            r.counts.records += 1;
            let addr = line(rec.addr);
            if rec.is_write {
                if !r.llc(|llc| llc.write(addr)) {
                    r.llc(|llc| llc.fill(addr, true));
                }
            } else if !r.llc(|llc| llc.read(addr)) {
                let (engine, llc, exp) = (&mut r.engine, &mut r.llc, &mut r.exp);
                r.t.time(ids.expand_read, parent, || {
                    engine.expand_read_into(addr, llc, exp)
                });
                r.llc(|llc| llc.fill(addr, false));
            }
        }
    }
    if cell.degraded {
        r.engine.fail_chip(FAILED_CHIP);
    }

    let mut left = vec![spec.insts_per_core; cfg.cores];
    let mut tick_credit = 0.0;
    while left.iter().any(|&l| l > 0) {
        for (core, left) in left.iter_mut().enumerate().filter(|(_, l)| **l > 0) {
            let rec = r.t.time(ids.record, parent, || trace.next_record(core));
            r.counts.records += 1;
            *left = left.saturating_sub(u64::from(rec.gap) + 1);
            let addr = line(rec.addr);
            if rec.is_write {
                if !r.llc(|llc| llc.write(addr)) {
                    r.fill(addr, true);
                }
            } else if !r.llc(|llc| llc.read(addr)) {
                r.load_miss(addr);
            }
            tick_credit += ticks_per_record;
            while tick_credit >= 1.0 {
                r.tick();
                tick_credit -= 1.0;
            }
        }
    }
    let counts = r.counts;
    t.close(parent);
    Ok(counts)
}

/// Memory cycles `run()` actually ticked (not fast-forwarded over).
fn ticked_cycles(r: &SimResult) -> u64 {
    r.mem_cycles - ff_skipped(r)
}

fn ff_skipped(r: &SimResult) -> u64 {
    r.telemetry
        .registry
        .counter("sim.ff_skipped_cycles")
        .unwrap_or(0)
}

/// A 52-bit FNV-1a hash of every simulated statistic of every cell: equal
/// digests mean identical simulations, so any host-only change must keep it.
fn sim_digest(results: &[SimResult]) -> f64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for r in results {
        let stats = format!(
            "{:?}",
            (
                r.ipc.to_bits(),
                r.mem_cycles,
                &r.core_cycles,
                &r.dram,
                &r.engine,
                &r.degraded,
                &r.metadata_cache,
                &r.llc,
                &r.traffic,
                &r.attrib,
            )
        );
        for b in stats.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h >> 12) as f64
}

/// Geometric mean of Synergy's IPC over SGX_O's, over the healthy cells
/// that have both designs (the paper reports 1.20× on its full suite).
fn ipc_gain(spec: &Spec, results: &[SimResult]) -> f64 {
    let healthy: Vec<(&Cell, f64)> = spec
        .cells
        .iter()
        .zip(results)
        .filter(|(c, _)| !c.degraded)
        .map(|(c, r)| (c, r.ipc))
        .collect();
    let ipc = |workload: &str, design: &str| {
        healthy
            .iter()
            .find(|(c, _)| c.workload.name == workload && c.design.name == design)
            .map(|&(_, ipc)| ipc)
    };
    let ratios: Vec<f64> = healthy
        .iter()
        .filter(|(c, _)| c.design.name == DesignConfig::synergy().name)
        .filter_map(|&(c, synergy)| {
            Some(synergy / ipc(c.workload.name, DesignConfig::sgx_o().name)?)
        })
        .collect();
    synergy_bench::gmean(&ratios)
}

/// Traced pass: every cell end to end once (counts, `run()` time), the
/// first cell again with span tracing and attribution off, then each
/// cell's replay untimed and timed. Returns (timed, untimed) replay
/// seconds, which price the benchmark's own timers.
pub fn layers(
    spec: &Spec,
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let mut results = Vec::new();
    let mut walls = Vec::new();
    for cell in &spec.cells {
        let parent = t.open(format!("run {}", cell.label()));
        let (r, wall) = spec.run_cell(cell, seed, spec.insts_per_core, |_| {})?;
        t.close(parent);
        tally.record(1, cell_ok(&r));
        results.push(r);
        walls.push(wall);
    }
    let run_s: f64 = walls.iter().sum();
    let (_, quiet) = spec.run_cell(&spec.cells[0], seed, spec.insts_per_core, |cfg| {
        cfg.telemetry.trace_spans = false;
        cfg.telemetry.attribution = false;
    })?;

    let ids = Ids::new(t);
    let mut untimed = Tracer::disabled();
    let (mut timed_s, mut untimed_s) = (0.0, 0.0);
    let mut counts = ReplayCounts::default();
    for (cell, r) in spec.cells.iter().zip(&results) {
        let ticks_per_record = ticked_cycles(r) as f64 / spec.measured_records(cell, seed) as f64;
        let t0 = Instant::now();
        replay(spec, cell, seed, ticks_per_record, &mut untimed, ids)?;
        untimed_s += t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let c = replay(spec, cell, seed, ticks_per_record, t, ids)?;
        timed_s += t0.elapsed().as_secs_f64();
        counts.records += c.records;
        counts.llc_calls += c.llc_calls;
        counts.expansions += c.expansions;
        counts.accesses += c.accesses;
    }

    let sum = |f: &dyn Fn(&SimResult) -> u64| results.iter().map(f).sum::<u64>();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let llc_accesses = sum(&|r| r.llc.accesses());
    let llc_misses = sum(&|r| r.llc.read_misses + r.llc.write_misses);
    let meta_accesses = sum(&|r| r.metadata_cache.accesses());
    let meta_misses = sum(&|r| r.metadata_cache.read_misses + r.metadata_cache.write_misses);
    let data_reads = sum(&|r| r.engine.data_reads);
    let data_writebacks = sum(&|r| r.engine.data_writebacks);
    let counter_misses = sum(&|r| r.engine.counter_misses);
    let counter_lookups = sum(&|r| r.engine.counter_hits() + r.engine.counter_misses);
    let requests = sum(&|r| r.dram.total_accesses());
    let mem_cycles = sum(&|r| r.mem_cycles);
    let ticked = sum(&ticked_cycles);
    let mut read_latency = LogHistogram::new();
    for r in &results {
        read_latency.merge(&r.dram.read_latency_all());
    }

    let record_ns = t.mean_ns(ids.record);
    let llc_ns = t.mean_ns(ids.llc);
    let read_ns = t.mean_ns(ids.expand_read);
    let wb_ns = t.mean_ns(ids.expand_writeback);
    let enqueue_ns = t.mean_ns(ids.enqueue);
    let tick_ns = t.mean_ns(ids.tick);
    let run_ns = run_s * 1e9;
    let share_trace = counts.records as f64 * record_ns / run_ns;
    let share_cache = counts.llc_calls as f64 * llc_ns / run_ns;
    let share_secure = (data_reads as f64 * read_ns + data_writebacks as f64 * wb_ns) / run_ns;
    let share_dram = (requests as f64 * enqueue_ns + ticked as f64 * tick_ns) / run_ns;

    report.set("trace.record_ns", record_ns, "ns");
    report.set("trace.records", counts.records as f64, "count");
    report.set("cache.llc_access_ns", llc_ns, "ns");
    report.set("cache.llc_accesses", llc_accesses as f64, "count");
    report.set(
        "cache.llc_miss_ratio",
        ratio(llc_misses, llc_accesses),
        "ratio",
    );
    report.set(
        "cache.meta_miss_ratio",
        ratio(meta_misses, meta_accesses),
        "ratio",
    );
    report.set("secure.expand_read_ns", read_ns, "ns");
    report.set("secure.expand_writeback_ns", wb_ns, "ns");
    report.set(
        "secure.accesses_per_expand",
        ratio(counts.accesses, counts.expansions),
        "ratio",
    );
    report.set("secure.data_reads", data_reads as f64, "count");
    report.set("secure.data_writebacks", data_writebacks as f64, "count");
    report.set(
        "secure.counter_miss_ratio",
        ratio(counter_misses, counter_lookups),
        "ratio",
    );
    report.set(
        "secure.tree_fetches",
        sum(&|r| r.engine.tree_fetches) as f64,
        "count",
    );
    report.set(
        "secure.parity_reads",
        sum(&|r| r.degraded.parity_reads) as f64,
        "count",
    );
    report.set("dram.enqueue_ns", enqueue_ns, "ns");
    report.set("dram.tick_ns", tick_ns, "ns");
    report.set("dram.requests", requests as f64, "count");
    report.set("dram.ticked_cycles", ticked as f64, "cycles");
    report.set(
        "dram.ff_skip_share",
        ratio(mem_cycles - ticked, mem_cycles),
        "share",
    );
    report.set(
        "dram.read_latency_p50_cycles",
        read_latency.percentile(50.0) as f64,
        "cycles",
    );
    report.set(
        "dram.read_latency_p99_cycles",
        read_latency.percentile(99.0) as f64,
        "cycles",
    );
    report.set("core.run_s", run_s, "s");
    report.set(
        "core.host_ns_per_mem_cycle",
        run_ns / mem_cycles as f64,
        "ns",
    );
    report.set("core.est_share.trace", share_trace, "share");
    report.set("core.est_share.cache", share_cache, "share");
    report.set("core.est_share.secure", share_secure, "share");
    report.set("core.est_share.dram", share_dram, "share");
    report.set(
        "core.residual_share",
        1.0 - share_trace - share_cache - share_secure - share_dram,
        "share",
    );
    report.set("core.ipc_gain", ipc_gain(spec, &results), "ratio");
    report.set("core.sim_digest", sim_digest(&results), "hash");
    report.set("obs.telemetry_share", 1.0 - quiet / walls[0], "share");
    Ok((timed_s, untimed_s))
}
