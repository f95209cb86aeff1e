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

use std::collections::{HashMap, VecDeque};

use synergy_cache::{CacheConfig, SetAssocCache};
use synergy_dram::{
    AccessKind, DramConfig, EnergyBreakdown, MemorySystem, Request, RequestClass,
};
use synergy_faultsim::FaultSchedule;
use synergy_obs::{
    AttribBucket, CycleAttribution, MetricRegistry, Observe, Span, SpanPhase, SpanTracer,
};
use synergy_secure::layout::Region;
use synergy_secure::{DesignConfig, Expansion, SecureEngine};
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

/// How a store that misses the LLC is modeled.
///
/// A real secure memory cannot merge a partial-line write blindly: the
/// line must be fetched, decrypted and verified before new bytes are
/// merged. The USIMM tradition (and the paper's posted-write evaluation)
/// instead assumes stores overwrite whole lines, making the assumption
/// explicit — and optional — is the point of this knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreMissPolicy {
    /// Write-allocate without a memory read: every store is assumed to
    /// overwrite its full 64 B line, so nothing needs fetching or
    /// verifying. Understates read traffic for partial-line writes but
    /// keeps results comparable with the recorded healthy baselines.
    #[default]
    FullLineWrite,
    /// Model the read-decrypt-verify-merge: a store miss first expands a
    /// full secure read (data + metadata traffic, counted in the engine's
    /// `data_reads`), then allocates the line dirty. The store still
    /// retires immediately — the fetch is posted, costing bandwidth but
    /// not commit latency.
    FetchAndVerify,
}

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
    /// to steady state before measurement begins (no DRAM timing, no
    /// statistics). The paper's 1-billion-instruction slices run at LLC
    /// steady state; without warm-up a short simulation would see no
    /// capacity evictions and hence no writeback traffic.
    pub warmup_records_per_core: u64,
    /// Telemetry collection (spans, epoch time-series).
    pub telemetry: TelemetryConfig,
    /// Event-horizon fast path: when every core is provably stalled on
    /// memory, jump the clock to the next event (DRAM completion, refresh,
    /// command-issue horizon, LLC-hit delivery or epoch boundary) instead
    /// of ticking idle cycles one by one. Results are bit-identical to
    /// per-cycle ticking (`tests/sweep_determinism.rs` pins this); disable
    /// only to produce the reference run for that comparison.
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
    /// How store misses are modeled (see [`StoreMissPolicy`]).
    pub store_miss: StoreMissPolicy,
}

/// Telemetry collection configuration.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Memory cycles between epoch samples of the metric registry into the
    /// time-series exported with the run (0 disables sampling).
    pub epoch_mem_cycles: u64,
    /// Whether to trace individual request lifecycles (bounded cost:
    /// fixed-capacity open table + ring + top-K).
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
            store_miss: StoreMissPolicy::default(),
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
    /// Spans completed by the tracer.
    pub spans_completed: u64,
    /// Spans dropped because the tracer's open table was full.
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

#[derive(Debug)]
struct Core {
    fetch_pos: u64,
    retire_pos: u64,
    target: u64,
    finished_at: Option<u64>,
    gap_left: u32,
    pending: Option<TraceRecord>,
    loads: VecDeque<OutstandingLoad>,
    llc_hits: Vec<(u64, u64)>, // (mem_cycle_complete, pos)
}

impl Core {
    fn new(target: u64) -> Self {
        Self {
            fetch_pos: 0,
            retire_pos: 0,
            target,
            finished_at: None,
            gap_left: 0,
            pending: None,
            loads: VecDeque::new(),
            llc_hits: Vec::new(),
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
        while self.loads.front().is_some_and(|l| l.remaining == 0 && l.pos < self.retire_pos) {
            self.loads.pop_front();
        }
        if self.retire_pos >= self.target && self.finished_at.is_none() {
            self.finished_at = Some(cpu_cycle + 1);
        }
    }
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
    /// Request ids the load being issued blocks on.
    blocking: Vec<u64>,
}

/// Hasher for request-id keyed maps. Ids are sequential `u64`s handed out
/// by [`MemSide::push_request`], so Fibonacci multiplicative hashing
/// scatters them perfectly well and costs one multiply instead of
/// SipHash's full pass. The maps are only ever probed by key — iteration
/// order is never observed — so this cannot affect determinism.
#[derive(Default, Clone, Copy)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Request-id maps only ever hash u64 keys; route any other use
        // through a simple byte fold for correctness.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01B3);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type IdHashMap<V> = HashMap<u64, V, std::hash::BuildHasherDefault<IdHasher>>;

/// The memory side of the system — DRAM, its back-pressure queue, the
/// outstanding-load map, request-id allocation and the request tracer —
/// bundled so the issue path threads one mutable handle instead of five
/// parallel loose references.
struct MemSide {
    dram: MemorySystem,
    /// Requests the DRAM queues rejected, replayed in order.
    deferred: VecDeque<Request>,
    /// Request id → (core, rob position) for loads blocking retirement.
    load_map: IdHashMap<(usize, u64)>,
    next_id: u64,
    tracer: SpanTracer,
    /// Reused DRAM drain buffer (avoids a `Vec` allocation per cycle).
    completions: Vec<synergy_dram::Completion>,
    /// Cycle attribution ledger (one row per [`RequestClass`]).
    attrib: CycleAttribution,
    /// Whether attribution hooks record anything.
    attrib_on: bool,
    /// Request id → cycle `push_request` accepted it; the completion hook
    /// telescopes push→enqueue→bank-ready→issue→complete into buckets.
    push_cycle: IdHashMap<u64>,
    /// DDR timing (copied out of the DRAM config so the completion loop
    /// can consult refresh geometry without re-borrowing the system).
    timing: synergy_dram::TimingParams,
}

impl MemSide {
    fn new(dram: MemorySystem, tracer: SpanTracer, attrib_on: bool) -> Self {
        let timing = dram.config().timing;
        Self {
            dram,
            deferred: VecDeque::new(),
            load_map: IdHashMap::default(),
            next_id: 1,
            tracer,
            completions: Vec::with_capacity(64),
            attrib: CycleAttribution::new(&RequestClass::ALL.map(|c| c.name())),
            attrib_on,
            push_cycle: IdHashMap::default(),
            timing,
        }
    }

    /// The attribution ledger, if enabled (for publication).
    fn attribution(&self) -> Option<&CycleAttribution> {
        self.attrib_on.then_some(&self.attrib)
    }

    /// Charges an LLC hit's fixed latency to the `LlcHit` bucket.
    fn note_llc_hit(&mut self, latency: u64) {
        if self.attrib_on {
            let class = RequestClass::Data.index();
            self.attrib.record(class, AttribBucket::LlcHit, latency);
            self.attrib.close_request(class, latency);
        }
    }

    /// Charges an on-controller crypto stall (e.g. the §III-B ≤9-MAC
    /// diagnosis burst) to the `CryptoWork` bucket.
    fn note_crypto_stall(&mut self, cycles: u64) {
        if self.attrib_on {
            let class = RequestClass::Data.index();
            self.attrib.record(class, AttribBucket::CryptoWork, cycles);
            self.attrib.close_request(class, cycles);
        }
    }

    /// Advances DRAM one cycle: delivers completions (closing spans and
    /// unblocking loads) and replays deferred requests into freed queues.
    fn tick(&mut self, cores: &mut [Core], cycle: u64) {
        let mut buf = std::mem::take(&mut self.completions);
        buf.clear();
        self.dram.tick_into(&mut buf);
        for completion in buf.drain(..) {
            self.tracer
                .event(completion.id, SpanPhase::DramIssue, completion.issue_cycle);
            self.tracer.complete(completion.id, cycle);
            if let Some(push) = self.push_cycle.remove(&completion.id) {
                // Telescoping decomposition push → enqueue → bank-ready →
                // issue → complete: every cycle lands in exactly one
                // bucket, so the ledger conserves end-to-end latency by
                // construction (zero tolerance — see tests/attribution.rs).
                let class = completion.class.index();
                let enq = completion.enqueue_cycle.max(push);
                let ready = completion.bank_ready_cycle.clamp(enq, completion.issue_cycle);
                let issue = completion.issue_cycle.max(ready).min(cycle);
                let refresh = self.timing.refresh_overlap(enq, ready);
                self.attrib.record(
                    class,
                    AttribBucket::QueueWait,
                    (enq - push) + (issue - ready),
                );
                self.attrib.record(class, AttribBucket::RefreshStall, refresh);
                self.attrib.record(class, AttribBucket::BankBusy, (ready - enq) - refresh);
                self.attrib.record(class, AttribBucket::BusTransfer, cycle - issue);
                self.attrib.close_request(class, cycle - push);
            }
            if let Some((core, pos)) = self.load_map.remove(&completion.id) {
                cores[core].mark_progress(pos);
            }
        }
        self.completions = buf;
        while let Some(req) = self.deferred.front().copied() {
            if self.dram.enqueue(req) {
                self.tracer.event(req.id, SpanPhase::DramEnqueue, cycle);
                self.deferred.pop_front();
            } else {
                break;
            }
        }
    }

    /// Enqueues an access (deferring on full queues) and traces reads
    /// through their lifecycle phases.
    fn push_request(&mut self, spec: synergy_secure::AccessSpec, cycle: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if spec.kind == AccessKind::Read {
            // Writes are posted (no completion event to close the span),
            // so only reads are traced and attributed.
            if self.attrib_on {
                self.push_cycle.insert(id, cycle);
            }
            self.tracer
                .start(id, spec.addr, spec.class.name(), SpanPhase::LlcMiss, cycle);
            self.tracer.event(id, SpanPhase::EngineExpand, cycle);
            if spec.class != RequestClass::Data {
                self.tracer.event(id, SpanPhase::MetaCacheProbe, cycle);
            }
        }
        let req = Request { id, addr: spec.addr, kind: spec.kind, class: spec.class, core: 0 };
        if !self.deferred.is_empty() || !self.dram.enqueue(req) {
            self.deferred.push_back(req);
        } else {
            self.tracer.event(id, SpanPhase::DramEnqueue, cycle);
        }
        id
    }

    fn has_backpressure(&self) -> bool {
        !self.deferred.is_empty()
    }
}

/// Fast-path economics: a jump shorter than this many cycles does not pay
/// for the stall scan that proved it safe, so the run loop treats it as a
/// miss and backs off before re-checking. Tuning either constant trades
/// wall-clock only — skips are bit-invisible by construction.
const FF_MIN_PROFITABLE_SKIP: u64 = 4;
/// Cycles to wait before re-attempting a fast-forward after a miss; doubles
/// on consecutive misses up to [`FF_BACKOFF_MAX`] so a saturated memory
/// phase (events every cycle or two) pays for the stall scan at most once
/// per 64 cycles, and resets on the first profitable jump.
const FF_BACKOFF_CYCLES: u64 = 8;
/// Upper bound for the exponential backoff; also the most idle cycles a
/// late re-check can leave on the table, which per-cycle ticking absorbs.
const FF_BACKOFF_MAX: u64 = 64;

/// True when `core` can make no progress this cycle *and* its state
/// cannot change until a memory-side event (a DRAM completion, a DRAM
/// command issuing — which is what frees queue space and clears
/// back-pressure — or a scheduled LLC-hit delivery).
///
/// The conditions are stable over time: between events, a stalled core's
/// state is only touched by its own (no-op) stepping, so a window in which
/// every core is stalled and no memory event falls may be skipped outright.
/// The check is conservative — any doubt (e.g. the next trace record has
/// not been fetched yet) counts as "not stalled" and falls back to
/// per-cycle stepping.
fn core_stalled(core: &Core, cfg: &SystemConfig, backpressure: bool) -> bool {
    if core.finished() {
        return true;
    }
    // Retirement must be blocked: either the ROB head is an incomplete
    // load, or the ROB is empty (fetch decides below).
    let retire_blocked = core.first_incomplete_load() == Some(core.retire_pos)
        || core.fetch_pos == core.retire_pos;
    if !retire_blocked {
        return false;
    }
    // Fetch must be blocked too.
    if !core.rob_free(cfg.rob_size) {
        return true; // ROB full; only a completion can free it.
    }
    if core.gap_left > 0 {
        return false; // Gap instructions still fetch.
    }
    match core.pending {
        Some(rec) => backpressure || (rec.dependent && core.any_load_incomplete()),
        None => false, // Next record unknown — must fetch to find out.
    }
}

/// The earliest cycle at which any stalled core can wake: the DRAM event
/// horizon or a scheduled LLC-hit delivery. `None` means no event is ever
/// coming (a genuine deadlock — left to the per-cycle guard to report).
fn next_wake_cycle(cores: &[Core], mem: &MemSide) -> Option<u64> {
    let mut wake = u64::MAX;
    if let Some(e) = mem.dram.next_event_cycle() {
        wake = wake.min(e);
    }
    for core in cores {
        for &(at, _) in &core.llc_hits {
            wake = wake.min(at);
        }
    }
    if wake == u64::MAX {
        None
    } else {
        Some(wake)
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

/// Runs one workload through the full system.
///
/// # Errors
///
/// Returns [`SystemError::InvalidConfig`] for inconsistent configurations.
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

    let mut cores: Vec<Core> = (0..cfg.cores).map(|_| Core::new(instructions_per_core)).collect();
    let tracer = if cfg.telemetry.trace_spans {
        SpanTracer::new(4096, cfg.telemetry.top_k)
    } else {
        SpanTracer::disabled()
    };
    let mut mem = MemSide::new(dram, tracer, cfg.telemetry.attribution);
    let mut registry = MetricRegistry::new();
    let wall = synergy_obs::Stopwatch::start();
    let mut ff_jumps: u64 = 0;
    let mut ff_skipped_cycles: u64 = 0;
    let mut ff_retry_at: u64 = 0;
    let mut ff_backoff: u64 = FF_BACKOFF_CYCLES;

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
        // past an injection point (the wake computation caps on it), so
        // this applies at the exact scheduled cycle either way.
        while let Some(fault) = cfg.fault_schedule.faults().get(next_fault) {
            if fault.at_mem_cycle > mem_cycle {
                break;
            }
            engine.fail_chip(fault.chip);
            next_fault += 1;
        }

        // 1–2. DRAM advances; reads complete; deferred requests replay.
        mem.tick(&mut cores, mem_cycle);

        // 3. LLC-hit loads complete. In-place swap_remove scan instead of
        // a collected `due` list: each entry's `mark_progress` decrements
        // its own load's counter, so delivery order within a cycle is
        // immaterial and the scan allocates nothing.
        for core in cores.iter_mut() {
            let mut i = 0;
            while i < core.llc_hits.len() {
                if core.llc_hits[i].0 <= mem_cycle {
                    let (_, pos) = core.llc_hits.swap_remove(i);
                    core.mark_progress(pos);
                } else {
                    i += 1;
                }
            }
        }

        // 4. CPU cycles.
        for sub in 0..cfg.cpu_cycles_per_mem_cycle {
            let cpu_cycle = mem_cycle * cfg.cpu_cycles_per_mem_cycle + sub;
            for core_idx in 0..cfg.cores {
                step_core(
                    core_idx,
                    cpu_cycle,
                    mem_cycle,
                    cfg,
                    &mut cores[core_idx],
                    trace,
                    &mut llc,
                    &mut engine,
                    &mut mem,
                    &mut scratch,
                );
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
                mem.attribution(),
            );
            registry.sample_epoch(mem_cycle);
        }
        if mem_cycle > max_mem_cycles {
            panic!(
                "simulation deadlock: {} cores unfinished after {max_mem_cycles} memory cycles",
                cores.iter().filter(|c| !c.finished()).count()
            );
        }

        // 6. Event-horizon fast path: if every core is provably stalled on
        // memory, nothing can happen until the next event — jump straight
        // to it instead of ticking empty cycles. Epoch boundaries cap the
        // jump one cycle short so the increment above still performs the
        // scheduled sample; span timestamps are unaffected because no
        // traced event falls inside the skipped window.
        //
        // A failed or tiny jump backs off for a few cycles: when events
        // are dense (heavily loaded channels) the stall scan and wake
        // computation cost more than the one or two skipped cycles buy
        // back, so re-checking every cycle would make the fast path a net
        // loss. Backing off only forgoes skips — it cannot change results.
        //
        // Once every core is finished the loop exits; jumping further
        // would only inflate the final cycle count past the sequential
        // reference.
        if cfg.fast_forward && mem_cycle >= ff_retry_at {
            let mut skipped = 0;
            if cores.iter().any(|c| !c.finished())
                && cores
                    .iter()
                    .all(|c| core_stalled(c, cfg, mem.has_backpressure()))
            {
                if let Some(mut target) = next_wake_cycle(&cores, &mem) {
                    if let Some(epochs_done) = mem_cycle.checked_div(epoch) {
                        let next_boundary = (epochs_done + 1) * epoch;
                        target = target.min(next_boundary - 1);
                    }
                    // Never jump over a scheduled fault-injection point:
                    // the failure must manifest at its exact cycle for
                    // fast-forwarded runs to stay bit-identical.
                    if let Some(at) = cfg.fault_schedule.next_after(mem_cycle) {
                        target = target.min(at);
                    }
                    if target > mem_cycle {
                        skipped = target - mem_cycle;
                        ff_jumps += 1;
                        ff_skipped_cycles += skipped;
                        mem.dram.skip_to(target);
                        mem_cycle = target;
                    }
                }
            }
            if skipped < FF_MIN_PROFITABLE_SKIP {
                ff_retry_at = mem_cycle + ff_backoff;
                ff_backoff = (ff_backoff * 2).min(FF_BACKOFF_MAX);
            } else {
                ff_backoff = FF_BACKOFF_CYCLES;
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
    publish_components(&mut registry, &stats, llc.stats(), &engine, mem.attribution());
    registry.set_counter("core.system.instructions", total_insts);
    registry.set_counter("core.system.mem_cycles", mem_cycle);
    registry.set_gauge("core.system.ipc", ipc);
    registry.set_gauge("core.system.seconds", seconds);
    registry.set_counter("core.system.spans_completed", mem.tracer.completed());
    registry.set_counter("core.system.spans_dropped", mem.tracer.dropped());
    // Simulator-throughput metrics: wall-clock speed and how much work the
    // event-horizon fast path saved. These describe the simulator itself,
    // not the simulated system, and are the only wall-clock-dependent
    // values in the result (excluded from determinism comparisons).
    registry.set_gauge("sim.cycles_per_sec", wall.rate(mem_cycle));
    registry.set_gauge("sim.wall_seconds", wall.elapsed_secs());
    registry.set_counter("sim.ff_jumps", ff_jumps);
    registry.set_counter("sim.ff_skipped_cycles", ff_skipped_cycles);
    // FR-FCFS scans the DRAM event horizons made unnecessary, per channel
    // and ticked cycle (see `MemorySystem::scan_skips`).
    registry.set_counter("sim.issue_scan_skips", mem.dram.scan_skips());
    mem.tracer.observe("span", &mut registry);
    debug_assert!(
        mem.attrib.verify().is_ok(),
        "cycle-attribution conservation violated: {}",
        mem.attrib.verify().unwrap_err()
    );
    let telemetry = Telemetry {
        slowest: mem.tracer.slowest(cfg.telemetry.top_k),
        spans_completed: mem.tracer.completed(),
        spans_dropped: mem.tracer.dropped(),
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
        attrib: if mem.attrib_on { mem.attrib } else { CycleAttribution::default() },
    })
}

/// Warms the LLC and metadata cache to steady state: trace records flow
/// through the cache hierarchy (with the design's metadata expansion side
/// effects) but produce no DRAM traffic or statistics.
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
            let addr = (rec.addr % cfg.data_capacity) & !63;
            if rec.is_write {
                if !llc.write(addr) {
                    let _ = llc.fill(addr, true);
                }
            } else if !llc.read(addr) {
                // Metadata caches fill as they would on a real miss; the
                // expansion itself is discarded.
                engine.expand_read_into(addr, llc, &mut scratch.exp);
                let _ = llc.fill(addr, false);
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

        let addr = (rec.addr % cfg.data_capacity) & !63;
        if rec.is_write {
            issue_store(addr, cfg, engine, llc, mem, mem_cycle, scratch);
        } else {
            let pos = core.fetch_pos;
            if llc.read(addr) {
                core.loads.push_back(OutstandingLoad { pos, remaining: 1 });
                core.llc_hits.push((mem_cycle + cfg.llc_hit_latency, pos));
                mem.note_llc_hit(cfg.llc_hit_latency);
            } else {
                let diagnosis = issue_load_miss(addr, engine, llc, mem, mem_cycle, scratch);
                let mut remaining = scratch.blocking.len() as u32;
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
                        mem.note_crypto_stall(delay);
                    }
                }
                core.loads.push_back(OutstandingLoad { pos, remaining });
                for &id in &scratch.blocking {
                    mem.load_map.insert(id, (core_idx, pos));
                }
            }
        }
        core.pending = None;
        core.fetch_pos += 1;
        budget -= 1;
    }
}

/// Expands and issues a load miss; leaves the request ids the load blocks
/// on in `scratch.blocking` — the data read plus the counter-chain reads
/// (the counter is needed for decryption, tree nodes for its verification
/// — all fetched in parallel) — and returns whether this read performed
/// the one-time failed-chip diagnosis burst (the caller charges its MAC
/// latency). MAC reads verify off the critical path (the paper's
/// speculative-use assumption); parity/writeback traffic is posted, and
/// the degraded parity-line fetch follows the same rule (reconstruction
/// pipelines with verification).
fn issue_load_miss(
    addr: u64,
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) -> bool {
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
    scratch.blocking.clear();
    for spec in &scratch.exp.accesses {
        let id = mem.push_request(*spec, cycle);
        let blocks = spec.kind == AccessKind::Read
            && match spec.class {
                RequestClass::Data => true,
                RequestClass::Counter | RequestClass::TreeNode => !speculative,
                RequestClass::Mac => mac_blocks && !speculative,
                RequestClass::Parity => false,
            };
        if blocks {
            scratch.blocking.push(id);
        }
    }
    // Fill the data line; handle displaced lines.
    fill_data_line(addr, false, engine, llc, mem, cycle, scratch);
    scratch.pending.clear();
    scratch.pending.extend_from_slice(&scratch.exp.evicted_dirty_data);
    cascade_writebacks(engine, llc, mem, cycle, scratch);
    scratch.exp.diagnosis
}

/// A store: write-allocate into the LLC; dirty evictions become
/// writebacks. Under [`StoreMissPolicy::FetchAndVerify`] a miss first
/// expands a posted secure read of the line (read-decrypt-verify-merge);
/// under the default full-line-write assumption it allocates with no
/// fetch.
fn issue_store(
    addr: u64,
    cfg: &SystemConfig,
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) {
    if !llc.write(addr) {
        if cfg.store_miss == StoreMissPolicy::FetchAndVerify {
            engine.expand_read_into(addr, llc, &mut scratch.exp);
            for spec in &scratch.exp.accesses {
                mem.push_request(*spec, cycle);
            }
            fill_data_line(addr, true, engine, llc, mem, cycle, scratch);
            scratch.pending.clear();
            scratch.pending.extend_from_slice(&scratch.exp.evicted_dirty_data);
            cascade_writebacks(engine, llc, mem, cycle, scratch);
        } else {
            fill_data_line(addr, true, engine, llc, mem, cycle, scratch);
        }
    }
}

fn fill_data_line(
    addr: u64,
    dirty: bool,
    engine: &mut SecureEngine,
    llc: &mut SetAssocCache,
    mem: &mut MemSide,
    cycle: u64,
    scratch: &mut Scratch,
) {
    if let Some(ev) = llc.fill(addr, dirty) {
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
                    mem.push_request(spec, cycle);
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
            mem.push_request(*spec, cycle);
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
    fn store_miss_policy_controls_fetch_traffic() {
        // Write-heavy workload: FetchAndVerify must generate strictly more
        // data-read traffic (the read-decrypt-verify-merge fetch) than the
        // default full-line-write assumption, which the healthy baselines
        // rely on.
        let mk = |policy: StoreMissPolicy| {
            let mut cfg = SystemConfig::new(DesignConfig::synergy());
            cfg.store_miss = policy;
            let mut s = spec(25.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.0, hot_bytes: 0 });
            s.read_fraction = 0.3;
            s.footprint_bytes = 24 << 20;
            let mut trace = MultiCoreTrace::rate_mode(&s, cfg.cores, 13);
            run(&cfg, &mut trace, 20_000).unwrap()
        };
        let posted = mk(StoreMissPolicy::FullLineWrite);
        let verified = mk(StoreMissPolicy::FetchAndVerify);
        assert!(
            verified.traffic.reads(RequestClass::Data) > posted.traffic.reads(RequestClass::Data) * 1.5,
            "fetch-and-verify data reads {} vs full-line-write {}",
            verified.traffic.reads(RequestClass::Data),
            posted.traffic.reads(RequestClass::Data)
        );
        // The fetch also drags the metadata chain along on a secure design.
        assert!(
            verified.traffic.reads(RequestClass::Counter)
                > posted.traffic.reads(RequestClass::Counter)
        );
    }

    #[test]
    fn config_validation() {
        let cfg = SystemConfig::new(DesignConfig::non_secure());
        let s = spec(10.0, AccessPattern::Random { cluster: 4, hot_fraction: 0.6, hot_bytes: 2 << 20 });
        let mut wrong_cores = MultiCoreTrace::rate_mode(&s, 2, 1);
        assert!(run(&cfg, &mut wrong_cores, 1000).is_err());
        let mut ok = MultiCoreTrace::rate_mode(&s, 4, 1);
        assert!(run(&cfg, &mut ok, 0).is_err());
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
}
