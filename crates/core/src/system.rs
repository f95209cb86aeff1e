//! The full-system performance simulator (USIMM-style, Table III).
//!
//! Four trace-driven cores (192-entry ROB, 4-wide retire, 3.2 GHz) issue
//! memory operations into a shared LLC; misses are expanded by the
//! configured secure-memory design ([`synergy_secure::SecureEngine`]) into
//! the design's actual DRAM traffic (data, counters, tree nodes, MACs,
//! parity), which drains through the cycle-level DDR3 model
//! ([`synergy_dram::MemorySystem`]).
//!
//! The model captures the effects the paper's evaluation hinges on:
//!
//! * **Bandwidth bloat** — extra metadata accesses queue behind data and
//!   raise effective memory latency (Figures 6, 8, 9).
//! * **ROB-limited memory-level parallelism** — loads block retirement at
//!   the ROB head; dependent (pointer-chasing) loads serialize.
//! * **LLC contention** — counters cached in the LLC (SGX_O, Synergy)
//!   displace data, which converts into extra misses and writebacks (the
//!   `*-web` anomaly of Figure 8).
//! * **Posted writes** — stores retire immediately; write traffic costs
//!   bandwidth (and parity-update bloat) but not latency.
//! * **Energy/EDP** — event-based DRAM energy plus constant core power,
//!   integrated over the simulated time (Figure 10).
//! * **Degraded-mode operation** — a [`SystemConfig::fault_schedule`]
//!   injects a permanent chip failure mid-run; the engine then expands
//!   every data read with the design's correction traffic (§IV-A
//!   lifecycle: detect → diagnose → track), and the one-time diagnosis
//!   burst is charged as MAC latency on the detecting load.

use std::collections::VecDeque;
use std::time::Instant;

use synergy_cache::{CacheConfig, SetAssocCache};
use synergy_dram::{
    AccessKind, DramConfig, EnergyBreakdown, MemorySystem, Request, RequestClass,
};
use synergy_faultsim::FaultSchedule;
use synergy_obs::{
    AttribBucket, CycleAttribution, MetricRegistry, Observe, ReadTimes, RequestLedger, Span,
    SpanPhase,
};
use synergy_secure::layout::Region;
use synergy_secure::{
    default_metadata_cache_config, DesignConfig, Expansion, MetadataLayout, SecureEngine,
};
use synergy_trace::{MultiCoreTrace, TraceRecord};

use crate::analysis;

/// Errors from system-simulation setup.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    /// Invalid configuration.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
}

impl core::fmt::Display for SystemError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SystemError::InvalidConfig { reason } => write!(f, "invalid system config: {reason}"),
        }
    }
}

impl std::error::Error for SystemError {}

/// Full system configuration (defaults = the paper's Table III).
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Number of cores (trace streams).
    pub cores: usize,
    /// Reorder-buffer size in instructions.
    pub rob_size: u64,
    /// Instructions retired (and fetched) per CPU cycle.
    pub retire_width: u64,
    /// CPU cycles per memory-bus cycle (3.2 GHz / 800 MHz = 4).
    pub cpu_cycles_per_mem_cycle: u64,
    /// Shared LLC geometry (8 MB, 8-way).
    pub llc: CacheConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// The secure-memory design under evaluation.
    pub design: DesignConfig,
    /// Protected data capacity for the metadata layout (must exceed the
    /// trace footprint).
    pub data_capacity: u64,
    /// LLC hit latency in memory-bus cycles.
    pub llc_hit_latency: u64,
    /// Constant core+cache power in watts (identical across designs; only
    /// affects absolute, not relative, energy).
    pub core_power_w: f64,
    /// Trace records per core consumed to warm the LLC and metadata cache
    /// to steady state before measurement begins (no DRAM traffic, no
    /// simulated time). The paper's 1-billion-instruction slices run at
    /// LLC steady state; without warm-up a short simulation would see no
    /// capacity evictions and hence no writeback traffic.
    ///
    /// Only the LLC's statistics are reset after warm-up. The warm-up's
    /// read misses run the secure engine's expansion, so
    /// [`SimResult::engine`] and [`SimResult::metadata_cache`] (and their
    /// `secure.engine.*` and `secure.metadata_cache.*` registry metrics)
    /// include the warm-up's lookups. [`SimResult::llc`],
    /// [`SimResult::dram`], [`SimResult::traffic`], [`SimResult::attrib`],
    /// [`SimResult::degraded`] (no fault applies before measurement) and
    /// the cycle, time and energy fields cover the measured phase only.
    pub warmup_records_per_core: u64,
    /// Telemetry collection (spans, epoch time-series).
    pub telemetry: TelemetryConfig,
    /// Event-driven fast path. Each core takes a real step only at its own
    /// wake cycle (its next trace read or memory issue, or its finishing
    /// cycle) and is advanced in closed form over the cycles in between;
    /// the clock jumps straight to the earliest of the DRAM event horizon,
    /// an LLC-hit delivery, a core wake, a fault injection or an epoch
    /// boundary. Results are bit-identical to the eager reference this
    /// flag selects when off — every unfinished core stepped every CPU
    /// cycle, DRAM ticked every memory cycle — as
    /// `tests/sweep_determinism.rs` pins; disable only to produce that
    /// reference.
    pub fast_forward: bool,
    /// Runtime fault schedule: permanent chip failures injected at exact
    /// memory-bus cycles (empty = healthy run). Injection points also cap
    /// fast-forward jumps, so degraded runs stay bit-identical with the
    /// fast path on or off.
    pub fault_schedule: FaultSchedule,
    /// Memory-bus cycles one MAC computation adds to a load's latency
    /// when correction work sits on its critical path — today only the
    /// one-time diagnosis burst after a chip failure is detected
    /// ([`analysis::diagnosis_mac_computations`] recomputations, charged
    /// serially). Table III's ~40 ns AES-GCM pipeline at the 800 MHz bus
    /// ≈ 32 cycles per MAC.
    pub mac_latency_mem_cycles: u64,
}

/// Telemetry collection configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Memory cycles between epoch samples of the metric registry into the
    /// time-series exported with the run (0 disables sampling).
    pub epoch_mem_cycles: u64,
    /// Whether to trace read lifecycles (bounded: at most 4096 traced reads
    /// open at once, phase histograms over all, the `top_k` slowest kept).
    pub trace_spans: bool,
    /// How many slowest requests to retain with per-phase breakdowns.
    pub top_k: usize,
    /// Whether to attribute every cycle of request latency to a
    /// [`AttribBucket`] (fixed per-completion cost; no allocation on the
    /// hot path). Attribution never feeds back into simulated timing, so
    /// toggling it leaves every other [`SimResult`] field byte-identical.
    pub attribution: bool,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self { epoch_mem_cycles: 0, trace_spans: true, top_k: 16, attribution: true }
    }
}

impl SystemConfig {
    /// Table III defaults for a given design.
    pub fn new(design: DesignConfig) -> Self {
        Self {
            cores: 4,
            rob_size: 192,
            retire_width: 4,
            cpu_cycles_per_mem_cycle: 4,
            llc: CacheConfig::new(8 << 20, 8, 64).expect("static geometry"),
            dram: DramConfig::default(),
            design,
            data_capacity: 16 << 30,
            llc_hit_latency: 8,
            core_power_w: 12.0,
            warmup_records_per_core: 0,
            telemetry: TelemetryConfig::default(),
            fast_forward: true,
            fault_schedule: FaultSchedule::default(),
            mac_latency_mem_cycles: 32,
        }
    }
}

/// Per-class, per-direction traffic in accesses per kilo-instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TrafficBreakdown {
    /// Read APKI per [`RequestClass`] index.
    pub read_apki: [f64; 5],
    /// Write APKI per [`RequestClass`] index.
    pub write_apki: [f64; 5],
}

impl TrafficBreakdown {
    /// Total accesses per kilo-instruction.
    pub fn total_apki(&self) -> f64 {
        self.read_apki.iter().sum::<f64>() + self.write_apki.iter().sum::<f64>()
    }

    /// Read APKI of one class.
    pub fn reads(&self, class: RequestClass) -> f64 {
        self.read_apki[class.index()]
    }

    /// Write APKI of one class.
    pub fn writes(&self, class: RequestClass) -> f64 {
        self.write_apki[class.index()]
    }
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Design evaluated.
    pub design: String,
    /// Instructions retired per core.
    pub instructions_per_core: u64,
    /// CPU cycles each core needed to retire its instructions.
    pub core_cycles: Vec<u64>,
    /// System IPC (sum of per-core IPC).
    pub ipc: f64,
    /// Total memory-bus cycles simulated.
    pub mem_cycles: u64,
    /// DRAM statistics.
    pub dram: synergy_dram::DramStats,
    /// Simulated seconds (slowest core).
    pub seconds: f64,
    /// DRAM energy breakdown.
    pub dram_energy: EnergyBreakdown,
    /// Core energy in joules (constant power × time).
    pub core_energy_j: f64,
    /// Traffic normalized per kilo-instruction.
    pub traffic: TrafficBreakdown,
    /// Secure-engine statistics (counter/tree cache behaviour).
    pub engine: synergy_secure::EngineStats,
    /// Degraded-mode (failed-chip) lifecycle statistics; all zero on a
    /// healthy run.
    pub degraded: synergy_secure::DegradedStats,
    /// Metadata-cache statistics.
    pub metadata_cache: synergy_cache::CacheStats,
    /// LLC statistics over the measured phase.
    pub llc: synergy_cache::CacheStats,
    /// Telemetry gathered during the run (metric registry, epoch
    /// time-series, slowest-request spans).
    pub telemetry: Telemetry,
    /// Cycle attribution: every cycle of read latency charged to exactly
    /// one bucket per request class, conserving end-to-end latency
    /// ([`CycleAttribution::verify`]). Empty when
    /// [`TelemetryConfig::attribution`] is off.
    pub attrib: CycleAttribution,
}

/// Telemetry attached to a [`SimResult`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    /// Every component's metrics, published at end of run (and at each
    /// epoch boundary when sampling is enabled — see
    /// [`MetricRegistry::epochs`]).
    pub registry: MetricRegistry,
    /// The slowest traced requests, descending by latency, with
    /// per-phase cycle breakdowns.
    pub slowest: Vec<Span>,
    /// Traced reads completed.
    pub spans_completed: u64,
    /// Reads left untraced: 4096 were already open, or tracing is off.
    pub spans_dropped: u64,
}

impl SimResult {
    /// Total system energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.dram_energy.total_j() + self.core_energy_j
    }

    /// Mean system power in watts.
    pub fn power_w(&self) -> f64 {
        if self.seconds > 0.0 {
            self.total_energy_j() / self.seconds
        } else {
            0.0
        }
    }

    /// Energy-delay product in joule-seconds (Figure 10's metric).
    pub fn edp(&self) -> f64 {
        self.total_energy_j() * self.seconds
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutstandingLoad {
    pos: u64,
    /// DRAM reads this load still waits on (data + counter chain — the
    /// counter is needed to decrypt, so its fetch is on the critical path;
    /// all fetches proceed in parallel, the load completes at the max).
    remaining: u32,
}

/// The ROB geometry every core shares.
#[derive(Debug, Clone, Copy)]
struct Pipeline {
    /// Reorder-buffer entries.
    rob: u64,
    /// Instructions retired and fetched per CPU cycle.
    width: u64,
}

#[derive(Debug, Clone)]
struct Core {
    fetch_pos: u64,
    retire_pos: u64,
    target: u64,
    finished_at: Option<u64>,
    gap_left: u32,
    pending: Option<TraceRecord>,
    loads: VecDeque<OutstandingLoad>,
    llc_hits: Vec<(u64, u64)>, // (mem_cycle_complete, pos)
    /// The shared ROB geometry, kept here so events can sync the core.
    pipe: Pipeline,
    /// First CPU cycle not yet applied to this state.
    synced: u64,
    /// First CPU cycle at which the core needs a real `step_core`: its
    /// next trace read or memory issue, its finishing cycle, or
    /// `u64::MAX` once nothing but a memory-side event can move it.
    /// Every cycle before it is a stretch of [`advance`].
    wake: u64,
    /// Whether the pending record could not issue (back-pressure, or a
    /// dependent load behind an incomplete one) when `wake` was planned:
    /// the stretch then parks fetch at the end of the gap instead of
    /// waking the core there.
    issue_blocked: bool,
}

impl Core {
    fn new(target: u64, pipe: Pipeline) -> Self {
        Self {
            fetch_pos: 0,
            retire_pos: 0,
            target,
            finished_at: None,
            gap_left: 0,
            pending: None,
            loads: VecDeque::new(),
            llc_hits: Vec::new(),
            pipe,
            synced: 0,
            wake: 0,
            issue_blocked: false,
        }
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn rob_free(&self, rob: u64) -> bool {
        self.fetch_pos - self.retire_pos < rob
    }

    fn any_load_incomplete(&self) -> bool {
        self.loads.iter().any(|l| l.remaining > 0)
    }

    fn first_incomplete_load(&self) -> Option<u64> {
        self.loads.iter().find(|l| l.remaining > 0).map(|l| l.pos)
    }

    fn mark_progress(&mut self, pos: u64) {
        if let Some(l) = self.loads.iter_mut().find(|l| l.pos == pos) {
            l.remaining = l.remaining.saturating_sub(1);
        }
    }

    fn retire(&mut self, width: u64, cpu_cycle: u64) {
        let limit = self.first_incomplete_load().unwrap_or(self.fetch_pos);
        let new_pos = (self.retire_pos + width).min(limit).min(self.fetch_pos);
        self.retire_pos = new_pos;
        self.pop_retired_loads();
        if self.retire_pos >= self.target && self.finished_at.is_none() {
            self.finished_at = Some(cpu_cycle + 1);
        }
    }

    fn pop_retired_loads(&mut self) {
        while self
            .loads
            .front()
            .is_some_and(|l| l.remaining == 0 && l.pos < self.retire_pos)
        {
            self.loads.pop_front();
        }
    }

    fn lane(&self) -> Lane {
        Lane {
            cycle: self.synced,
            retire: self.retire_pos,
            fetch: self.fetch_pos,
            gap: u64::from(self.gap_left),
        }
    }

    fn bounds(&self) -> Bounds {
        Bounds {
            head: self.first_incomplete_load(),
            target: self.target,
            issue_blocked: self.issue_blocked,
            pipe: self.pipe,
        }
    }

    /// Applies every CPU cycle before `to` in closed form. Those cycles
    /// lie before `wake`, so none of them reads the trace, issues or
    /// finishes the core.
    fn sync(&mut self, to: u64) {
        debug_assert!(
            self.synced <= to && to <= self.wake,
            "sync to {to} past wake {}",
            self.wake
        );
        if self.synced == to {
            return;
        }
        let lane = advance(self.lane(), &self.bounds(), to);
        debug_assert_eq!(lane.cycle, to, "a stretch ended before its wake");
        self.synced = to;
        self.retire_pos = lane.retire;
        self.fetch_pos = lane.fetch;
        self.gap_left = lane.gap as u32;
        self.pop_retired_loads();
    }

    /// A memory-side event reached the core at CPU cycle `now`: brings it
    /// up to date and wakes it for a real step at `now`, which replans.
    fn touch(&mut self, now: u64) {
        if !self.finished() {
            self.sync(now);
            self.wake = now;
        }
    }

    /// Load `pos` got one of its fetches back at CPU cycle `now`.
    fn deliver(&mut self, pos: u64, now: u64) {
        self.touch(now);
        self.mark_progress(pos);
    }

    /// Plans the next wake from `synced`, after a real step. An eager
    /// core (the per-cycle reference) wakes every cycle; otherwise the
    /// wake is the end of the core's current stretch under today's
    /// back-pressure.
    fn plan(&mut self, backpressure: bool, eager: bool) {
        self.wake = if self.finished() {
            u64::MAX
        } else if eager {
            self.synced
        } else {
            self.issue_blocked = self
                .pending
                .is_some_and(|rec| backpressure || (rec.dependent && self.any_load_incomplete()));
            advance(self.lane(), &self.bounds(), u64::MAX).cycle
        };
    }
}

/// The part of a core's state that moves on its own between events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lane {
    /// Next CPU cycle to apply.
    cycle: u64,
    retire: u64,
    fetch: u64,
    /// Non-memory instructions left before the pending record.
    gap: u64,
}

/// What a lane runs against: fixed until the next event.
#[derive(Debug, Clone, Copy)]
struct Bounds {
    /// The first incomplete load; retirement stops there.
    head: Option<u64>,
    target: u64,
    /// See [`Core::issue_blocked`].
    issue_blocked: bool,
    pipe: Pipeline,
}

/// One cycle of the retire/fetch recurrence: the instructions it retires
/// and fetches, or `None` when the cycle needs a real step (it finishes
/// the core, or fetch reaches a record to read or issue with width and
/// ROB space left).
fn lane_step(l: &Lane, b: &Bounds) -> Option<(u64, u64)> {
    let Pipeline { rob, width } = b.pipe;
    let retired = width.min(b.head.unwrap_or(l.fetch) - l.retire);
    if l.retire + retired >= b.target {
        return None;
    }
    let cap = width.min(rob - (l.fetch - l.retire - retired));
    if l.gap < cap && !b.issue_blocked {
        return None;
    }
    Some((retired, l.gap.min(cap)))
}

/// How many cycles from `l` on retire `r` and fetch `f` each with no
/// event, given that the first one does. Every condition that keeps the
/// step the same is linear in the cycle index and holds at index 0, so
/// each bounds a prefix and the run is the shortest prefix; a condition
/// that could change after one cycle bounds it at 1.
fn run_length(l: &Lane, b: &Bounds, r: u64, f: u64) -> u64 {
    let Pipeline { rob, width } = b.pipe;
    let mut k = u64::MAX;
    // Finishing: retire + (j + 1)·r < target.
    if let Some(left) = (b.target - 1 - l.retire).checked_div(r) {
        k = k.min(left);
    }
    // Retirement: full width while the limit stays `width` ahead; a
    // partial retire repeats only if its limit does not move.
    let occupancy = l.fetch - l.retire;
    match b.head {
        Some(head) if r == width => k = k.min((head - l.retire) / width),
        Some(_) if r > 0 => k = 1,
        Some(_) => {}
        None if r == width && f < r => k = k.min((occupancy - width) / (r - f) + 1),
        None if r < width && f != r => k = 1,
        None => {}
    }
    // Fetch: capped by width and the ROB space left after retirement.
    // With nothing fetched the gap is spent against a blocked record (a
    // full ROB would leave nothing to retire either: a fixed point), and
    // fetch stays parked.
    let space = rob - occupancy + r;
    if f > 0 && f == width.min(space) {
        k = k.min(l.gap / f);
        if f == width && f > r {
            k = k.min((space - width) / (f - r) + 1);
        } else if f < width && f != r {
            k = 1;
        }
    } else if f > 0 {
        // The last of the gap against a blocked record.
        k = 1;
    }
    k
}

/// Advances `l` in closed form through the cycles before `to`, stopping
/// early at the first cycle that needs a real step (the returned lane's
/// `cycle`). A lane at a fixed point — nothing retires or fetches —
/// jumps straight to `to`.
///
/// Always inlined: `Core::sync` runs it on every core wake, LLVM's own
/// choice flips with unrelated edits to this crate, and the outlined
/// call measured about 10 % slower on the cache-resident cells.
#[inline(always)]
fn advance(mut l: Lane, b: &Bounds, to: u64) -> Lane {
    while l.cycle < to {
        let Some((r, f)) = lane_step(&l, b) else {
            break;
        };
        if r == 0 && f == 0 {
            l.cycle = to;
            break;
        }
        let k = run_length(&l, b, r, f).min(to - l.cycle);
        debug_assert!(k > 0, "empty stretch at cycle {}", l.cycle);
        l.cycle += k;
        l.retire += k * r;
        l.fetch += k * f;
        l.gap -= k * f;
    }
    l
}

/// Reusable buffers for the per-access issue path, created once per run
/// and threaded alongside [`MemSide`] through `step_core` and the issue
/// helpers. With these (plus the engine's inline [`Expansion`] buffers)
/// the steady-state expand_read / expand_writeback path performs zero
/// heap allocations — pinned by `tests/hot_path_allocations.rs`.
///
/// It travels as its own `&mut` parameter rather than inside `MemSide`
/// so the issue helpers can borrow an expansion buffer and push requests
/// into `MemSide` at the same time without split-borrow contortions.
#[derive(Default)]
struct Scratch {
    /// Expansion of the access currently being issued.
    exp: Expansion,
    /// Expansion buffer for cascade writebacks (kept separate so the
    /// primary expansion's eviction list stays readable mid-cascade).
    cascade_exp: Expansion,
    /// Worklist of dirty data lines awaiting writeback expansion.
    pending: Vec<u64>,
}

/// The memory side of the system — DRAM, its back-pressure queue,
/// request-id allocation and the ledger of in-flight reads — bundled so
/// the issue path threads one mutable handle instead of loose references.
struct MemSide {
    dram: MemorySystem,
    /// Requests the DRAM queues rejected, replayed in order.
    deferred: VecDeque<Request>,
    next_id: u64,
    /// Every outstanding read (its waiting load and phase stamps), folded
    /// at completion into spans and cycle attribution.
    ledger: RequestLedger,
    /// Reused DRAM drain buffer (avoids a `Vec` allocation per cycle).
    completions: Vec<synergy_dram::Completion>,
}

impl MemSide {
    fn new(dram: MemorySystem, t: &TelemetryConfig) -> Self {
        // With tracing off no read is traced: every one counts as dropped.
        let (spans, top_k) = if t.trace_spans { (4096, t.top_k) } else { (0, 0) };
        let classes = RequestClass::ALL.map(|c| c.name());
        Self {
            dram,
            deferred: VecDeque::new(),
            next_id: 1,
            ledger: RequestLedger::new(&classes, spans, top_k, t.attribution),
            completions: Vec::with_capacity(64),
        }
    }

    /// Charges a data access that never reached DRAM (an LLC hit, the
    /// §III-B ≤9-MAC diagnosis burst) to one attribution bucket.
    fn charge(&mut self, bucket: AttribBucket, cycles: u64) {
        self.ledger.charge(RequestClass::Data.index(), bucket, cycles);
    }

    /// Advances DRAM one cycle: closes completed reads in the ledger
    /// (unblocking their loads) and replays deferred requests into freed
    /// queues. Every core a completion reaches, and every core once
    /// back-pressure is released, is brought up to CPU cycle `now` and
    /// woken there.
    fn tick(&mut self, cores: &mut [Core], cycle: u64, now: u64) {
        let mut buf = std::mem::take(&mut self.completions);
        buf.clear();
        self.dram.tick_into(&mut buf);
        let timing = &self.dram.config().timing;
        for c in buf.drain(..) {
            let times = ReadTimes {
                enqueue: c.enqueue_cycle,
                bank_ready: c.bank_ready_cycle,
                issue: c.issue_cycle,
                complete: cycle,
            };
            if let Some((core, pos)) =
                self.ledger.close(c.id, times, |from, to| timing.refresh_overlap(from, to))
            {
                cores[core].deliver(pos, now);
            }
        }
        self.completions = buf;
        let backpressure = self.has_backpressure();
        while let Some(req) = self.deferred.front().copied() {
            if self.dram.enqueue(req) {
                self.ledger.stamp(req.id, SpanPhase::DramEnqueue, cycle);
                self.deferred.pop_front();
            } else {
                break;
            }
        }
        // A release can unblock any core's pending issue. A rise needs no
        // such pass: a core only looks at back-pressure when it issues,
        // and an issue is always a real step.
        if backpressure && !self.has_backpressure() {
            for core in cores.iter_mut() {
                core.touch(now);
            }
        }
    }

    /// Enqueues an access (deferring on full queues) and opens a read in
    /// the ledger, with the `(core, ROB position)` of the load it blocks,
    /// if any. Writes are posted (they never complete), so only reads are
    /// tracked.
    fn push_request(
        &mut self,
        spec: synergy_secure::AccessSpec,
        cycle: u64,
        load: Option<(usize, u64)>,
    ) {
        let id = self.next_id;
        self.next_id += 1;
        if spec.kind == AccessKind::Read {
            self.ledger.open(id, spec.class.index(), spec.addr, cycle, load);
            self.ledger.stamp(id, SpanPhase::EngineExpand, cycle);
            if spec.class != RequestClass::Data {
                self.ledger.stamp(id, SpanPhase::MetaCacheProbe, cycle);
            }
        }
        let req = Request { id, addr: spec.addr, kind: spec.kind, class: spec.class, core: 0 };
        if !self.deferred.is_empty() || !self.dram.enqueue(req) {
            self.deferred.push_back(req);
        } else {
            self.ledger.stamp(id, SpanPhase::DramEnqueue, cycle);
        }
    }

    fn has_backpressure(&self) -> bool {
        !self.deferred.is_empty()
    }
}

/// Publishes every component's statistics into the registry under the
/// standard prefixes.
fn publish_components(
    registry: &mut MetricRegistry,
    dram: &synergy_dram::DramStats,
    llc: &synergy_cache::CacheStats,
    engine: &SecureEngine,
    attrib: Option<&CycleAttribution>,
) {
    if let Some(attrib) = attrib {
        attrib.observe("attrib", registry);
    }
    dram.observe("dram", registry);
    llc.observe("llc", registry);
    engine.stats().observe("secure.engine", registry);
    engine
        .metadata_cache_stats()
        .observe("secure.metadata_cache", registry);
    engine.degraded_stats().observe("degraded", registry);
    registry.set_gauge(
        "degraded.active",
        if engine.failed_chip().is_some() { 1.0 } else { 0.0 },
    );
    registry.set_counter(
        "degraded.diagnosis_macs",
        engine.degraded_stats().detections * u64::from(analysis::diagnosis_mac_computations()),
    );
}

/// Rejects a [`SystemConfig::data_capacity`] that is zero, not
/// line-aligned, or whose metadata layout reaches the LLC's or the
/// metadata cache's [`CacheConfig::address_limit`]: every line either
/// cache sees, data or metadata, lies inside the layout.
fn check_data_capacity(cfg: &SystemConfig) -> Result<(), SystemError> {
    if cfg.data_capacity == 0 || !cfg.data_capacity.is_multiple_of(64) {
        return Err(SystemError::InvalidConfig {
            reason: format!(
                "data capacity {} is not a nonzero multiple of the 64-byte line",
                cfg.data_capacity
            ),
        });
    }
    let layout =
        MetadataLayout::new(cfg.data_capacity, cfg.design.counter_org, cfg.design.tree_leaves);
    for (cache, name) in [(cfg.llc, "LLC"), (default_metadata_cache_config(), "metadata cache")] {
        layout
            .check_cache_reach(&cache, name)
            .map_err(|reason| SystemError::InvalidConfig { reason })?;
    }
    Ok(())
}

/// Runs one workload through the full system.
///
/// # Errors
///
/// Returns [`SystemError::InvalidConfig`] for inconsistent configurations,
/// including a [`SystemConfig::data_capacity`] whose metadata layout
/// reaches the LLC's or the metadata cache's
/// [`CacheConfig::address_limit`].
pub fn run(
    cfg: &SystemConfig,
    trace: &mut MultiCoreTrace,
    instructions_per_core: u64,
) -> Result<SimResult, SystemError> {
    if trace.cores() != cfg.cores {
        return Err(SystemError::InvalidConfig {
            reason: format!("trace has {} cores, config {}", trace.cores(), cfg.cores),
        });
    }
    if instructions_per_core == 0 {
        return Err(SystemError::InvalidConfig { reason: "zero instructions".into() });
    }
    if cfg.rob_size == 0 || cfg.retire_width == 0 || cfg.cpu_cycles_per_mem_cycle == 0 {
        return Err(SystemError::InvalidConfig {
            reason: "ROB size, retire width and CPU cycles per memory cycle must be nonzero".into(),
        });
    }
    check_data_capacity(cfg)?;

    // Chipkill lock-steps two channels: model as half the independent
    // channels (each logical access occupies what were two channels).
    let mut dram_cfg = cfg.dram.clone();
    if cfg.design.dual_channel_lockstep() {
        dram_cfg.channels = (dram_cfg.channels / 2).max(1);
    }
    let dram = MemorySystem::new(dram_cfg)
        .map_err(|e| SystemError::InvalidConfig { reason: e.to_string() })?;
    let mut llc = SetAssocCache::new(cfg.llc);
    let mut engine = SecureEngine::new(cfg.design.clone(), cfg.data_capacity);
    let mut scratch = Scratch::default();

    warmup(cfg, trace, &mut llc, &mut engine, &mut scratch);

    let pipe = Pipeline {
        rob: cfg.rob_size,
        width: cfg.retire_width,
    };
    let mut cores: Vec<Core> = (0..cfg.cores)
        .map(|_| Core::new(instructions_per_core, pipe))
        .collect();
    let mut mem = MemSide::new(dram, &cfg.telemetry);
    let mut registry = MetricRegistry::new();
    let wall = Instant::now();
    let mut ff_jumps: u64 = 0;
    let mut ff_skipped_cycles: u64 = 0;
    let mut core_steps: u64 = 0;
    let cpm = cfg.cpu_cycles_per_mem_cycle;

    let mut mem_cycle: u64 = 0;
    // Generous deadlock guard: a core retiring one instruction per 1000
    // CPU cycles would still finish within this bound.
    let max_mem_cycles = instructions_per_core
        .saturating_mul(400)
        .saturating_add(10_000_000);

    // Cursor into the (sorted) fault schedule: faults due at or before the
    // current cycle apply before any instruction issues in it.
    let mut next_fault = 0usize;

    while cores.iter().any(|c| !c.finished()) {
        // 0. Scheduled faults manifest. A fast-forward jump never lands
        // past an injection point (the jump target caps on it), so this
        // applies at the exact scheduled cycle either way.
        while let Some(fault) = cfg.fault_schedule.faults().get(next_fault) {
            if fault.at_mem_cycle > mem_cycle {
                break;
            }
            engine.fail_chip(fault.chip);
            next_fault += 1;
        }

        // 1–2. DRAM advances; reads complete; deferred requests replay.
        let now = mem_cycle * cpm;
        mem.tick(&mut cores, mem_cycle, now);

        // 3. LLC-hit loads complete. In-place swap_remove scan instead of
        // a collected `due` list: each entry's `deliver` decrements its
        // own load's counter, so delivery order within a cycle is
        // immaterial and the scan allocates nothing.
        for core in cores.iter_mut() {
            let mut i = 0;
            while i < core.llc_hits.len() {
                if core.llc_hits[i].0 <= mem_cycle {
                    let (_, pos) = core.llc_hits.swap_remove(i);
                    core.deliver(pos, now);
                } else {
                    i += 1;
                }
            }
        }

        // 4. CPU cycles: each core takes a real step at its wake cycle and
        // plans the next one; the cycles in between are applied in
        // closed form when something next needs the core's state.
        for cpu_cycle in now..now + cpm {
            for (core_idx, core) in cores.iter_mut().enumerate() {
                if cpu_cycle < core.wake {
                    continue;
                }
                core.sync(cpu_cycle);
                step_core(
                    core_idx,
                    cpu_cycle,
                    mem_cycle,
                    cfg,
                    core,
                    trace,
                    &mut llc,
                    &mut engine,
                    &mut mem,
                    &mut scratch,
                );
                core.synced = cpu_cycle + 1;
                core.plan(mem.has_backpressure(), !cfg.fast_forward);
                core_steps += 1;
            }
        }

        mem_cycle += 1;

        // 5. Epoch boundary: snapshot every scalar metric into the
        // time-series.
        let epoch = cfg.telemetry.epoch_mem_cycles;
        if epoch > 0 && mem_cycle.is_multiple_of(epoch) {
            publish_components(
                &mut registry,
                mem.dram.stats(),
                llc.stats(),
                &engine,
                mem.ledger.attribution(),
            );
            registry.sample_epoch(mem_cycle);
        }
        if mem_cycle > max_mem_cycles {
            panic!(
                "simulation deadlock: {} cores unfinished after {max_mem_cycles} memory cycles",
                cores.iter().filter(|c| !c.finished()).count()
            );
        }

        // 6. Event-horizon fast path: nothing can happen before the
        // earliest of the DRAM event horizon, a scheduled LLC-hit
        // delivery, the memory cycle holding the earliest core wake and
        // the next fault injection, so the clock jumps straight there.
        // Epoch boundaries cap the jump one cycle short so the increment
        // above still performs the scheduled sample; span timestamps are
        // unaffected because no traced event falls inside the skipped
        // window. Once every core is finished the loop exits; jumping
        // further would only inflate the final cycle count past the
        // per-cycle reference.
        if cfg.fast_forward && cores.iter().any(|c| !c.finished()) {
            let mut target = cores.iter().map(|c| c.wake).min().unwrap_or(u64::MAX);
            if target != u64::MAX {
                target /= cpm;
            }
            if let Some(e) = mem.dram.next_event_cycle() {
                target = target.min(e);
            }
            for core in &cores {
                for &(at, _) in &core.llc_hits {
                    target = target.min(at);
                }
            }
            if let Some(fault) = cfg.fault_schedule.faults().get(next_fault) {
                target = target.min(fault.at_mem_cycle);
            }
            if let Some(epochs_done) = mem_cycle.checked_div(epoch) {
                target = target.min((epochs_done + 1) * epoch - 1);
            }
            // `u64::MAX` with nothing pending at all: a genuine deadlock,
            // left to the guard above to report.
            if target > mem_cycle && target != u64::MAX {
                ff_jumps += 1;
                ff_skipped_cycles += target - mem_cycle;
                mem.dram.skip_to(target);
                mem_cycle = target;
            }
        }
    }

    let core_cycles: Vec<u64> =
        cores.iter().map(|c| c.finished_at.expect("loop exits when finished")).collect();
    let ipc: f64 =
        core_cycles.iter().map(|&c| instructions_per_core as f64 / c as f64).sum();
    let seconds = mem.dram.cycles_to_seconds(mem_cycle);
    let dram_energy = mem.dram.energy(seconds);
    let total_insts = instructions_per_core * cfg.cores as u64;
    let stats = mem.dram.stats().clone();

    let mut traffic = TrafficBreakdown::default();
    for i in 0..5 {
        traffic.read_apki[i] = stats.reads_by_class[i] as f64 * 1000.0 / total_insts as f64;
        traffic.write_apki[i] = stats.writes_by_class[i] as f64 * 1000.0 / total_insts as f64;
    }

    // Final metric publication, plus the system-level metrics only this
    // layer knows.
    publish_components(&mut registry, &stats, llc.stats(), &engine, mem.ledger.attribution());
    registry.set_counter("core.system.instructions", total_insts);
    registry.set_counter("core.system.mem_cycles", mem_cycle);
    registry.set_gauge("core.system.ipc", ipc);
    registry.set_gauge("core.system.seconds", seconds);
    registry.set_counter("core.system.spans_completed", mem.ledger.completed());
    registry.set_counter("core.system.spans_dropped", mem.ledger.dropped());
    // Simulator-throughput metrics: wall-clock speed and how much work the
    // event-horizon fast path saved. These describe the simulator itself,
    // not the simulated system, and are the only wall-clock-dependent
    // values in the result (excluded from determinism comparisons).
    let wall_secs = wall.elapsed().as_secs_f64();
    let cycles_per_sec = if wall_secs > 0.0 { mem_cycle as f64 / wall_secs } else { 0.0 };
    registry.set_gauge("sim.cycles_per_sec", cycles_per_sec);
    registry.set_gauge("sim.wall_seconds", wall_secs);
    registry.set_counter("sim.ff_jumps", ff_jumps);
    registry.set_counter("sim.ff_skipped_cycles", ff_skipped_cycles);
    // Real `step_core` calls; cycles a core spends in closed-form
    // stretches are not steps.
    registry.set_counter("sim.core_steps", core_steps);
    // FR-FCFS scans the DRAM event horizons made unnecessary, per channel
    // and ticked cycle (see `MemorySystem::scan_skips`); cycles the fast
    // path jumps are not ticked and do not count.
    registry.set_counter("sim.issue_scan_skips", mem.dram.scan_skips());
    mem.ledger.observe("span", &mut registry);
    let attrib = mem.ledger.attribution().cloned().unwrap_or_default();
    debug_assert_eq!(attrib.verify(), Ok(()), "cycle attribution must conserve latency");
    let telemetry = Telemetry {
        slowest: mem.ledger.slowest(cfg.telemetry.top_k),
        spans_completed: mem.ledger.completed(),
        spans_dropped: mem.ledger.dropped(),
        registry,
    };

    Ok(SimResult {
        design: cfg.design.name.to_string(),
        instructions_per_core,
        core_cycles,
        ipc,
        mem_cycles: mem_cycle,
        dram: stats,
        seconds,
        dram_energy,
        core_energy_j: cfg.core_power_w * seconds,
        traffic,
        engine: *engine.stats(),
        degraded: *engine.degraded_stats(),
        metadata_cache: *engine.metadata_cache_stats(),
        llc: *llc.stats(),
        telemetry,
        attrib,
    })
}

/// The line address a trace record's byte address maps to: the address
/// wrapped into the protected capacity, cache-line aligned. Trace
/// addresses mostly lie below the capacity already (every preset at the
/// default 16 GiB), and the test skips a 64-bit division per record.
#[inline]
fn line_addr(addr: u64, data_capacity: u64) -> u64 {
    let addr = if addr < data_capacity { addr } else { addr % data_capacity };
    addr & !63
}

/// Warms the LLC and metadata cache to steady state: trace records flow
/// through the cache hierarchy (with the design's metadata expansion side
/// effects) but produce no DRAM traffic. The LLC's statistics are reset
/// at the end; the secure engine's and its metadata cache's are not, so
/// they carry the warm-up into the [`SimResult`] (see
/// [`SystemConfig::warmup_records_per_core`]).
fn warmup(
    cfg: &SystemConfig,
    trace: &mut MultiCoreTrace,
    llc: &mut SetAssocCache,
    engine: &mut SecureEngine,
    scratch: &mut Scratch,
) {
    for _ in 0..cfg.warmup_records_per_core {
        for core in 0..cfg.cores {
            let rec = trace.next_record(core);
            let addr = line_addr(rec.addr, cfg.data_capacity);
            if rec.is_write {
                if !llc.write(addr) {
                    let _ = llc.fill_missing(addr, true);
                }
            } else if !llc.read(addr) {
                // Metadata caches fill as they would on a real miss; the
                // expansion itself is discarded. It fills only metadata
                // lines, so the data line is still missing.
                engine.expand_read_into(addr, llc, &mut scratch.exp);
                let _ = llc.fill_missing(addr, false);
            }
        }
    }
    llc.reset_stats();
}

/// One CPU cycle for one core: retire, then fetch/issue.
#[allow(clippy::too_many_arguments)]
fn step_core(
    core_idx: usize,
    cpu_cycle: u64,
    mem_cycle: u64,
    cfg: &SystemConfig,
    core: &mut Core,
    trace: &mut MultiCoreTrace,
    llc: &mut SetAssocCache,
    engine: &mut SecureEngine,
    mem: &mut MemSide,
    scratch: &mut Scratch,
) {
    core.retire(cfg.retire_width, cpu_cycle);
    if core.finished() {
        return;
    }

    let mut budget = cfg.retire_width;
    while budget > 0 && core.rob_free(cfg.rob_size) {
        if core.pending.is_none() && core.gap_left == 0 {
            let rec = trace.next_record(core_idx);
            core.gap_left = rec.gap;
            core.pending = Some(rec);
        }
        if core.gap_left > 0 {
            let n = (core.gap_left as u64)
                .min(budget)
                .min(cfg.rob_size - (core.fetch_pos - core.retire_pos));
            core.fetch_pos += n;
            core.gap_left -= n as u32;
            budget -= n;
            continue;
        }
        let Some(rec) = core.pending else { break };

        // Back-pressure: while deferred requests exist, no new memory
        // instruction enters the system.
        if mem.has_backpressure() {
            break;
        }
        // Dependent load: must wait for all prior loads.
        if rec.dependent && core.any_load_incomplete() {
            break;
        }

        let addr = line_addr(rec.addr, cfg.data_capacity);
        if rec.is_write {
            issue_store(addr, engine, llc, mem, mem_cycle, scratch);
        } else {
            let pos = core.fetch_pos;
            if llc.read(addr) {
                core.loads.push_back(OutstandingLoad { pos, remaining: 1 });
                core.llc_hits.push((mem_cycle + cfg.llc_hit_latency, pos));
                mem.charge(AttribBucket::LlcHit, cfg.llc_hit_latency);
            } else {
                let (mut remaining, diagnosis) =
                    issue_load_miss(addr, (core_idx, pos), engine, llc, mem, mem_cycle, scratch);
                if diagnosis {
                    // First detection of the failed chip: the trial-
                    // reconstruction burst recomputes MACs serially before
                    // the load's data is usable. Charged as an extra
                    // scheduled completion (the same mechanism as LLC-hit
                    // delivery, so the fast path's wake scan sees it).
                    let delay = u64::from(analysis::diagnosis_mac_computations())
                        * cfg.mac_latency_mem_cycles;
                    if delay > 0 {
                        remaining += 1;
                        core.llc_hits.push((mem_cycle + delay, pos));
                        mem.charge(AttribBucket::CryptoWork, delay);
                    }
                }
                core.loads.push_back(OutstandingLoad { pos, remaining });
            }
        }
        core.pending = None;
        core.fetch_pos += 1;
        budget -= 1;
    }
}

/// Expands and issues a load miss for `load` (core, ROB position). Returns
/// how many reads the load blocks on — the data read plus the
/// counter-chain reads (the counter is needed for decryption, tree nodes
/// for its verification — all fetched in parallel) — and whether this
/// read performed the one-time failed-chip diagnosis burst (the caller
/// charges its MAC latency). MAC reads verify off the critical path (the
/// paper's speculative-use assumption); parity/writeback traffic is
/// posted, and the degraded parity-line fetch follows the same rule
/// (reconstruction pipelines with verification).
fn issue_load_miss(
    addr: u64,
    load: (usize, u64),
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) -> (u32, bool) {
    engine.expand_read_into(addr, llc, &mut scratch.exp);
    // In a MAC-tree (non-Bonsai) design like IVEC, the MAC chain *is* the
    // integrity mechanism: its fetches gate data use. Bonsai designs
    // verify the MAC off the critical path (the counter tree alone
    // prevents replay), so only data + counter chain block there.
    let mac_blocks =
        engine.design().tree_leaves == synergy_secure::TreeLeaves::MacLines;
    // PoisonIvy-style speculation (§VII-B): unverified data is consumed
    // immediately; metadata fetches cost bandwidth only.
    let speculative = engine.design().speculative_verification;
    let mut blocking = 0;
    for spec in &scratch.exp.accesses {
        let blocks = spec.kind == AccessKind::Read
            && match spec.class {
                RequestClass::Data => true,
                RequestClass::Counter | RequestClass::TreeNode => !speculative,
                RequestClass::Mac => mac_blocks && !speculative,
                RequestClass::Parity => false,
            };
        blocking += u32::from(blocks);
        mem.push_request(*spec, cycle, blocks.then_some(load));
    }
    // Fill the data line; handle displaced lines.
    fill_data_line(addr, false, engine, llc, mem, cycle, scratch);
    scratch.pending.clear();
    scratch.pending.extend_from_slice(&scratch.exp.evicted_dirty_data);
    cascade_writebacks(engine, llc, mem, cycle, scratch);
    (blocking, scratch.exp.diagnosis)
}

/// A store: write-allocate into the LLC; dirty evictions become
/// writebacks. Stores are posted full-line writes, as in USIMM and the
/// paper: a miss allocates the line dirty with no fetch, so a secure
/// design never reads, decrypts and verifies a line only to merge into it.
/// This understates read traffic for partial-line writes.
fn issue_store(
    addr: u64,
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) {
    if !llc.write(addr) {
        fill_data_line(addr, true, engine, llc, mem, cycle, scratch);
    }
}

/// Fills the LLC with a data line its lookup has just missed (the read
/// miss's expansion in between fills only metadata lines) and writes back
/// the line it displaces.
fn fill_data_line(
    addr: u64,
    dirty: bool,
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) {
    if let Some(ev) = llc.fill_missing(addr, dirty) {
        if ev.dirty {
            match engine.layout().classify(ev.addr) {
                Region::Data => {
                    scratch.pending.clear();
                    scratch.pending.push(ev.addr);
                    cascade_writebacks(engine, llc, mem, cycle, scratch);
                }
                _ => {
                    let spec = synergy_secure::AccessSpec {
                        addr: ev.addr,
                        kind: AccessKind::Write,
                        class: engine.class_of(ev.addr),
                    };
                    mem.push_request(spec, cycle, None);
                }
            }
        }
    }
}

/// Expands data writebacks, following any further dirty-data displacement
/// caused by metadata fills (terminates: every step removes a dirty line).
/// The worklist is `scratch.pending`, seeded by the caller; `scratch.exp`
/// is left untouched so callers can still read the triggering expansion.
fn cascade_writebacks(
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) {
    while let Some(addr) = scratch.pending.pop() {
        engine.expand_writeback_into(addr, llc, &mut scratch.cascade_exp);
        for spec in &scratch.cascade_exp.accesses {
            mem.push_request(*spec, cycle, None);
        }
        scratch.pending.extend_from_slice(&scratch.cascade_exp.evicted_dirty_data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_trace::{AccessPattern, Suite, WorkloadSpec};

    fn spec(apki: f64, pattern: AccessPattern) -> WorkloadSpec {
        WorkloadSpec {
            name: "t",
            suite: Suite::SpecInt,
            apki,
            read_fraction: 0.75,
            footprint_bytes: 8 << 20,
            pattern,
        }
    }

    fn run_design(design: DesignConfig, apki: f64, insts: u64) -> SimResult {
        let cfg = SystemConfig::new(design);
        let s = spec(apki, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 42);
        run(&cfg, &mut trace, insts).unwrap()
    }

    #[test]
    fn completes_and_reports_sane_ipc() {
        let r = run_design(DesignConfig::non_secure(), 10.0, 20_000);
        assert!(r.ipc > 0.1 && r.ipc < 16.1, "ipc {}", r.ipc);
        assert_eq!(r.core_cycles.len(), 4);
        assert!(r.seconds > 0.0);
        assert!(r.dram.total_accesses() > 0);
    }

    #[test]
    fn non_secure_beats_sgx_o_beats_sgx() {
        // Figure 6's ordering, at miniature scale. The workload footprint
        // must overflow the 128 KB metadata cache's 1 MB counter coverage
        // (so SGX pays counter misses) while its counter working set still
        // fits the LLC (so SGX_O recovers them) — the regime the paper's
        // memory-intensive workloads sit in.
        let mk = |design| {
            let mut cfg = SystemConfig::new(design);
            // Warm the caches: counter reuse at LLC reach is a
            // steady-state effect.
            cfg.warmup_records_per_core = 40_000;
            // 12 MB/core: counter working set 4×1.5 MB = 6 MB fits the
            // 8 MB LLC (SGX_O recovers counters) but far exceeds the
            // metadata cache's 1 MB coverage (SGX thrashes).
            let mut s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.0, hot_bytes: 0 });
            s.footprint_bytes = 12 << 20;
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 42);
            run(&cfg, &mut trace, 30_000).unwrap()
        };
        let ns = mk(DesignConfig::non_secure());
        let sgx_o = mk(DesignConfig::sgx_o());
        let sgx = mk(DesignConfig::sgx());
        assert!(ns.ipc > sgx_o.ipc, "ns {} vs sgx_o {}", ns.ipc, sgx_o.ipc);
        assert!(sgx_o.ipc > sgx.ipc, "sgx_o {} vs sgx {}", sgx_o.ipc, sgx.ipc);
    }

    #[test]
    fn synergy_beats_sgx_o() {
        let syn = run_design(DesignConfig::synergy(), 25.0, 30_000);
        let sgx_o = run_design(DesignConfig::sgx_o(), 25.0, 30_000);
        assert!(
            syn.ipc > sgx_o.ipc,
            "synergy {} vs sgx_o {}",
            syn.ipc,
            sgx_o.ipc
        );
    }

    #[test]
    fn synergy_has_no_mac_traffic_sgx_o_does() {
        // Large footprint so dirty lines actually evict (writebacks flow).
        let mk = |design| {
            let cfg = SystemConfig::new(design);
            let mut cfg = cfg;
            cfg.warmup_records_per_core = 40_000;
            let mut s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
            s.footprint_bytes = 64 << 20;
            s.read_fraction = 0.6;
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 42);
            run(&cfg, &mut trace, 60_000).unwrap()
        };
        let syn = mk(DesignConfig::synergy());
        let sgx_o = mk(DesignConfig::sgx_o());
        assert_eq!(syn.traffic.reads(RequestClass::Mac), 0.0);
        assert!(sgx_o.traffic.reads(RequestClass::Mac) > 1.0);
        // And Synergy pays parity on writes instead.
        assert!(syn.traffic.writes(RequestClass::Parity) > 0.0);
        assert_eq!(sgx_o.traffic.writes(RequestClass::Parity), 0.0);
        assert!(sgx_o.traffic.writes(RequestClass::Mac) > 0.0);
    }

    #[test]
    fn low_apki_workloads_are_insensitive() {
        // §VI-A: bandwidth-insensitive workloads show no Synergy benefit.
        let syn = run_design(DesignConfig::synergy(), 0.5, 60_000);
        let sgx_o = run_design(DesignConfig::sgx_o(), 0.5, 60_000);
        let speedup = syn.ipc / sgx_o.ipc;
        assert!(
            (speedup - 1.0).abs() < 0.08,
            "low-intensity speedup should be ~1.0, got {speedup}"
        );
    }

    #[test]
    fn energy_and_edp_track_traffic() {
        let syn = run_design(DesignConfig::synergy(), 25.0, 20_000);
        let sgx_o = run_design(DesignConfig::sgx_o(), 25.0, 20_000);
        assert!(syn.total_energy_j() > 0.0);
        assert!(syn.edp() < sgx_o.edp(), "synergy EDP must be lower");
    }

    #[test]
    fn dependent_loads_lower_ipc() {
        let cfg = SystemConfig::new(DesignConfig::non_secure());
        let mut chase = MultiCoreTrace::rate_mode(&spec(20.0, AccessPattern::PointerChase { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 }), 4, 7);
        let mut rand = MultiCoreTrace::rate_mode(&spec(20.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 }), 4, 7);
        let r_chase = run(&cfg, &mut chase, 20_000).unwrap();
        let r_rand = run(&cfg, &mut rand, 20_000).unwrap();
        assert!(
            r_chase.ipc < r_rand.ipc * 0.9,
            "chase {} vs random {}",
            r_chase.ipc,
            r_rand.ipc
        );
    }

    #[test]
    fn streaming_has_better_row_locality_than_random() {
        let cfg = SystemConfig::new(DesignConfig::non_secure());
        let mut s_stream = spec(30.0, AccessPattern::Streaming { stride: 64 });
        s_stream.footprint_bytes = 64 << 20; // well beyond the LLC
        let mut s_rand = spec(30.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        s_rand.footprint_bytes = 64 << 20;
        let mut stream = MultiCoreTrace::rate_mode(&s_stream, 4, 7);
        let mut rand = MultiCoreTrace::rate_mode(&s_rand, 4, 7);
        let r_stream = run(&cfg, &mut stream, 20_000).unwrap();
        let r_rand = run(&cfg, &mut rand, 20_000).unwrap();
        assert!(
            r_stream.dram.row_hit_rate() > r_rand.dram.row_hit_rate() + 0.1,
            "stream {} vs random {}",
            r_stream.dram.row_hit_rate(),
            r_rand.dram.row_hit_rate()
        );
    }

    #[test]
    fn synergy_run_traces_metadata_spans_with_phases() {
        // Footprint well past the metadata cache's counter coverage so
        // counter reads go to DRAM and get traced end to end.
        let mut cfg = SystemConfig::new(DesignConfig::synergy());
        cfg.telemetry.top_k = 32;
        let mut s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.0, hot_bytes: 0 });
        s.footprint_bytes = 24 << 20;
        let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 42);
        let r = run(&cfg, &mut trace, 30_000).unwrap();

        let t = &r.telemetry;
        assert!(t.spans_completed > 0, "no spans completed");
        assert!(!t.slowest.is_empty());
        // Slowest spans are sorted descending and have full lifecycles.
        for pair in t.slowest.windows(2) {
            assert!(pair[0].total_latency() >= pair[1].total_latency());
        }
        let metadata_span = t
            .slowest
            .iter()
            .find(|s| s.label != "data")
            .expect("at least one Synergy metadata access among the slowest spans");
        assert!(metadata_span.cycle_of(SpanPhase::MetaCacheProbe).is_some());
        assert!(metadata_span.cycle_of(SpanPhase::DramIssue).is_some());
        assert!(metadata_span.cycle_of(SpanPhase::Complete).is_some());
        assert!(!metadata_span.phase_durations().is_empty());
        assert!(metadata_span.total_latency() > 0);
        // Cycles within a span never decrease.
        for s in &t.slowest {
            for pair in s.events.windows(2) {
                assert!(pair[0].1 <= pair[1].1, "events out of order: {s:?}");
            }
        }
        // Every completed span — including the ones evicted from the
        // top-K — folded into the registry's per-phase histograms.
        let issue_wait = t.registry.get_histogram("span.phase_cycles.dram_issue").unwrap();
        assert!(issue_wait.count() > 0);
        assert_eq!(t.registry.counter("span.completed"), Some(t.spans_completed));
        // The registry carries the per-class DRAM latency histograms.
        let h = t.registry.get_histogram("dram.read_latency.counter").unwrap();
        assert!(h.count() > 0);
        assert!(h.percentile(99.0) >= h.percentile(50.0));
        assert_eq!(t.registry.counter("dram.reads.counter"), Some(r.dram.reads(RequestClass::Counter)));
        assert!(t.registry.counter("secure.engine.counter_misses").unwrap() > 0);

        // Cycle attribution conserves end-to-end latency exactly, covers
        // every traced class, and lands in the registry.
        r.attrib.verify().unwrap();
        assert!(r.attrib.total_requests() > 0);
        let counter_row = r.attrib.class_cycles(RequestClass::Counter.index());
        assert!(counter_row > 0, "counter reads must be attributed");
        assert_eq!(
            t.registry.counter("attrib.total_cycles"),
            Some(r.attrib.total_cycles())
        );
    }

    #[test]
    fn epoch_sampling_produces_time_series() {
        let mut cfg = SystemConfig::new(DesignConfig::sgx_o());
        cfg.telemetry.epoch_mem_cycles = 2_000;
        let s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 7);
        let r = run(&cfg, &mut trace, 20_000).unwrap();
        let epochs = r.telemetry.registry.epochs();
        assert!(epochs.len() >= 2, "expected ≥2 epochs, got {}", epochs.len());
        // Cycle stamps ascend and cumulative counters never decrease.
        for pair in epochs.windows(2) {
            assert!(pair[0].cycle < pair[1].cycle);
            let key = "dram.bursts";
            assert!(pair[0].values[key] <= pair[1].values[key]);
        }
        // Spans can be disabled without losing the registry.
        let mut cfg2 = SystemConfig::new(DesignConfig::sgx_o());
        cfg2.telemetry.trace_spans = false;
        let mut trace2 = MultiCoreTrace::rate_mode(&s, cfg2.cores, 7);
        let r2 = run(&cfg2, &mut trace2, 5_000).unwrap();
        assert_eq!(r2.telemetry.spans_completed, 0);
        assert!(!r2.telemetry.registry.is_empty());
    }

    #[test]
    fn degraded_synergy_corrects_everything_and_slows_down() {
        // A permanent chip failure early in the run: Synergy must complete
        // with every degraded read corrected (no DUE), one diagnosis, new
        // parity read traffic, and a measurable slowdown vs healthy.
        let mk = |schedule: FaultSchedule| {
            let mut cfg = SystemConfig::new(DesignConfig::synergy());
            cfg.fault_schedule = schedule;
            let mut s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.0, hot_bytes: 0 });
            s.footprint_bytes = 24 << 20;
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 42);
            run(&cfg, &mut trace, 30_000).unwrap()
        };
        let healthy = mk(FaultSchedule::default());
        let degraded = mk(FaultSchedule::chip_failure_at(500, 3));

        assert_eq!(healthy.degraded, synergy_secure::DegradedStats::default());
        assert_eq!(healthy.traffic.reads(RequestClass::Parity), 0.0);

        let d = &degraded.degraded;
        assert_eq!(d.detections, 1, "exactly one diagnosis burst");
        assert!(d.corrections > 0, "degraded reads must be corrected");
        assert_eq!(d.due_events, 0, "Synergy never drops to DUE");
        assert!(d.parity_reads > 0, "reconstruction reads parity lines");
        assert!(degraded.traffic.reads(RequestClass::Parity) > 0.0);
        assert!(
            degraded.ipc < healthy.ipc,
            "correction traffic must cost performance: degraded {} vs healthy {}",
            degraded.ipc,
            healthy.ipc
        );
        // Telemetry carries the lifecycle under the degraded.* prefix.
        let reg = &degraded.telemetry.registry;
        assert_eq!(reg.counter("degraded.corrections"), Some(d.corrections));
        assert_eq!(reg.counter("degraded.detections"), Some(1));
        assert_eq!(
            reg.counter("degraded.diagnosis_macs"),
            Some(u64::from(analysis::diagnosis_mac_computations()))
        );
    }

    #[test]
    fn degraded_secded_design_reports_due_without_extra_traffic() {
        // SGX_O's SECDED cannot correct a dead chip: the run completes but
        // every off-chip data read is a detected-uncorrectable error, with
        // no correction traffic added (timing equals the healthy run).
        let mk = |schedule: FaultSchedule| {
            let mut cfg = SystemConfig::new(DesignConfig::sgx_o());
            cfg.fault_schedule = schedule;
            let s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 7);
            run(&cfg, &mut trace, 20_000).unwrap()
        };
        let healthy = mk(FaultSchedule::default());
        let degraded = mk(FaultSchedule::chip_failure_at(500, 0));
        assert!(degraded.degraded.due_events > 0);
        assert_eq!(degraded.degraded.corrections, 0);
        assert_eq!(degraded.ipc.to_bits(), healthy.ipc.to_bits(), "DUE adds no traffic");
    }

    #[test]
    fn fast_forward_matches_reference_under_backpressure() {
        // Stores only, through a tiny LLC into tiny write queues:
        // writebacks are deferred again and again, and a core held back
        // by them has no load outstanding, so nothing but the
        // back-pressure release can wake it.
        let mk = |fast_forward| {
            let mut cfg = SystemConfig::new(DesignConfig::synergy());
            cfg.fast_forward = fast_forward;
            cfg.llc = CacheConfig::new(64 << 10, 8, 64).unwrap();
            cfg.dram.write_queue_capacity = 4;
            cfg.dram.write_hi_watermark = 3;
            cfg.dram.write_lo_watermark = 1;
            let mut s = spec(20.0, AccessPattern::Streaming { stride: 64 });
            s.read_fraction = 0.0;
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 3);
            run(&cfg, &mut trace, 20_000).unwrap()
        };
        let (reference, fast) = (mk(false), mk(true));
        assert!(
            reference.dram.writes(RequestClass::Parity) > 0,
            "no writebacks"
        );
        // Stores are posted full-line writes: no store miss fetches its line.
        assert_eq!(reference.dram.reads(RequestClass::Data), 0);
        assert_eq!(reference.core_cycles, fast.core_cycles);
        assert_eq!(reference.mem_cycles, fast.mem_cycles);
        assert_eq!(reference.dram, fast.dram);
        assert!(fast.telemetry.registry.counter("sim.ff_jumps").unwrap() > 0);
    }

    #[test]
    fn config_validation() {
        let cfg = SystemConfig::new(DesignConfig::non_secure());
        let s = spec(10.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        let mut wrong_cores = MultiCoreTrace::rate_mode(&s, 2, 1);
        assert!(run(&cfg, &mut wrong_cores, 1000).is_err());
        let mut ok = MultiCoreTrace::rate_mode(&s, 4, 1);
        assert!(run(&cfg, &mut ok, 0).is_err());
        let mut narrow = cfg.clone();
        narrow.retire_width = 0;
        assert!(run(&narrow, &mut ok, 1000).is_err());
        let mut unaligned = cfg.clone();
        unaligned.data_capacity = (16 << 30) + 32;
        assert!(run(&unaligned, &mut ok, 1000).is_err());
    }

    #[test]
    fn data_capacity_past_a_cache_address_limit_is_rejected() {
        let s = spec(10.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        let mut trace = MultiCoreTrace::rate_mode(&s, 4, 1);
        // The error names the layout's size and the cache's limit.
        let mut check = |cfg: &SystemConfig, cache: &str, limit: u64| {
            let design = &cfg.design;
            let top = MetadataLayout::new(cfg.data_capacity, design.counter_org, design.tree_leaves)
                .total_bytes();
            match run(cfg, &mut trace, 1000) {
                Err(SystemError::InvalidConfig { reason }) => assert!(
                    reason.contains(cache)
                        && reason.contains(&top.to_string())
                        && reason.contains(&limit.to_string()),
                    "{reason}"
                ),
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        // 16 TiB of data plus its metadata passes the Table III metadata
        // cache's 16 TiB limit (the LLC's is 1 PiB).
        let mut cfg = SystemConfig::new(DesignConfig::synergy());
        cfg.data_capacity = 16 << 40;
        check(&cfg, "metadata cache", 1 << 44);
        // A one-set LLC of 64 B lines tags only the first 64 GiB.
        let mut cfg = SystemConfig::new(DesignConfig::non_secure());
        cfg.llc = CacheConfig::new(512, 8, 64).unwrap();
        cfg.data_capacity = 64 << 30;
        check(&cfg, "LLC", 1 << 36);
    }

    #[test]
    fn more_channels_reduce_slowdown_gap() {
        // Figure 12's direction: with more channels the system is less
        // bandwidth-bound, so Synergy's edge over SGX_O shrinks.
        let mut gaps = Vec::new();
        for ch in [2usize, 8] {
            let mut cfg_s = SystemConfig::new(DesignConfig::synergy());
            cfg_s.dram = DramConfig::with_channels(ch);
            cfg_s.warmup_records_per_core = 20_000;
            let mut cfg_o = SystemConfig::new(DesignConfig::sgx_o());
            cfg_o.dram = DramConfig::with_channels(ch);
            cfg_o.warmup_records_per_core = 20_000;
            let mut s = spec(30.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
            s.footprint_bytes = 48 << 20; // steady-state DRAM misses
            let mut t1 = MultiCoreTrace::rate_mode(&s, 4, 11);
            let mut t2 = MultiCoreTrace::rate_mode(&s, 4, 11);
            let syn = run(&cfg_s, &mut t1, 30_000).unwrap();
            let sgx_o = run(&cfg_o, &mut t2, 30_000).unwrap();
            gaps.push(syn.ipc / sgx_o.ipc);
        }
        assert!(
            gaps[1] < gaps[0],
            "speedup must shrink as channels remove the bandwidth bound: {gaps:?}"
        );
    }

    /// One CPU cycle of the per-cycle retire/fetch recurrence `step_core`
    /// runs, on `core` alone. Returns `true`, with `core` part-way through
    /// the cycle, when the cycle needs the rest of the system: it finishes
    /// the core, reads a trace record, or issues the pending one.
    fn reference_cycle(core: &mut Core, cycle: u64, backpressure: bool) -> bool {
        let Pipeline { rob, width } = core.pipe;
        core.retire(width, cycle);
        if core.finished() {
            return true;
        }
        let mut budget = width;
        while budget > 0 && core.rob_free(rob) {
            if core.gap_left == 0 {
                match core.pending {
                    Some(rec) if backpressure || (rec.dependent && core.any_load_incomplete()) => {
                        break
                    }
                    _ => return true,
                }
            }
            let n = u64::from(core.gap_left)
                .min(budget)
                .min(rob - (core.fetch_pos - core.retire_pos));
            core.fetch_pos += n;
            core.gap_left -= n as u32;
            budget -= n;
        }
        false
    }

    /// Steps `core` cycle by cycle from `synced` up to `to`, stopping
    /// before the first cycle that needs a real step; returns that cycle
    /// (or `to`).
    fn reference_run(core: &mut Core, backpressure: bool, to: u64) -> u64 {
        while core.synced < to {
            let mut next = core.clone();
            if reference_cycle(&mut next, core.synced, backpressure) {
                if next.finished() {
                    assert_eq!(next.finished_at, Some(core.synced + 1));
                }
                return core.synced;
            }
            next.synced += 1;
            *core = next;
        }
        to
    }

    /// A random core state: ROB geometry, positions, gap, pending record,
    /// outstanding loads and target, all within the invariants `run`
    /// keeps (loads sorted inside the ROB, no gap without a pending
    /// record, at least one instruction left to retire).
    #[allow(clippy::type_complexity)]
    fn random_core(
        (rob, width, retire, occupancy): (u64, u64, u64, u64),
        (gap, pending, target_ahead, synced): (u64, u64, u64, u64),
        loads: &[(u64, bool)],
    ) -> Core {
        let mut core = Core::new(retire + target_ahead, Pipeline { rob, width });
        core.synced = synced;
        core.retire_pos = retire;
        core.fetch_pos = retire + occupancy % (rob + 1);
        core.pending = (pending > 0).then_some(TraceRecord {
            gap: 0,
            is_write: false,
            addr: 0,
            dependent: pending == 2,
        });
        core.gap_left = if pending > 0 { gap as u32 } else { 0 };
        let in_rob = core.fetch_pos - core.retire_pos;
        if in_rob > 0 {
            let mut positions: Vec<(u64, bool)> = loads
                .iter()
                .map(|&(off, done)| (retire + off % in_rob, done))
                .collect();
            positions.sort_unstable();
            positions.dedup_by_key(|l| l.0);
            core.loads = positions
                .into_iter()
                .map(|(pos, done)| OutstandingLoad {
                    pos,
                    remaining: u32::from(!done),
                })
                .collect();
        }
        core
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2000))]

        /// The closed-form advance stops at the cycle per-cycle stepping
        /// first needs a real step (the finishing cycle included), and
        /// syncing to any cycle before it leaves the same positions, gap
        /// and outstanding loads.
        #[test]
        fn closed_form_advance_matches_per_cycle_stepping(
            geometry in (
                proptest::prop_oneof![1u64..12, 1u64..40, proptest::Just(192u64)],
                1u64..6,
                0u64..50,
                0u64..200,
            ),
            flow in (0u64..40, 0u64..3, 1u64..300, 0u64..100),
            loads in proptest::collection::vec((0u64..200, proptest::any::<bool>()), 0..6),
            backpressure in proptest::any::<bool>(),
            sync_at in 0u64..400,
        ) {
            let mut core = random_core(geometry, flow, &loads);
            core.plan(backpressure, false);
            let horizon = core.synced + 2_000;
            let mut reference = core.clone();
            let stop = reference_run(&mut reference, backpressure, horizon);
            proptest::prop_assert_eq!(core.wake.min(horizon), stop, "wake of {:?}", core);

            let to = core.synced + sync_at % (stop - core.synced + 1);
            let mut reference = core.clone();
            reference_run(&mut reference, backpressure, to);
            core.sync(to);
            reference.pop_retired_loads();
            proptest::prop_assert_eq!(
                (core.retire_pos, core.fetch_pos, core.gap_left, core.synced),
                (reference.retire_pos, reference.fetch_pos, reference.gap_left, reference.synced)
            );
            proptest::prop_assert_eq!(&core.loads, &reference.loads);
        }
    }
}
