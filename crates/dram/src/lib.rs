//! Cycle-level DDR3 memory-system simulator — the USIMM substitute.
//!
//! The paper evaluates performance on USIMM \[27\], the Utah SImulated Memory
//! Module. This crate re-implements the relevant subset from scratch:
//!
//! * DDR3-1600 device timing (tRCD/tRP/CL/tRAS/tRC/tCCD/tRRD/tFAW/tWR/tWTR/
//!   tRTP, refresh) per bank/rank, with a shared per-channel data bus and
//!   direction-turnaround penalties ([`config::TimingParams`]).
//! * An FR-FCFS scheduler with posted writes and watermark-based write
//!   drain — the USIMM baseline policy.
//! * Channel/rank/bank/row/column address mapping with cacheline channel
//!   interleaving ([`mapping`]).
//! * A Micron-style event-energy power model ([`power`]).
//!
//! The simulator is driven in memory-bus cycles via [`MemorySystem::tick`];
//! the CPU model in `synergy-core` runs 4 CPU cycles (3.2 GHz) per memory
//! cycle (800 MHz).
//!
//! # Example: latency gap between row hits and misses
//!
//! ```
//! use synergy_dram::{MemorySystem, DramConfig, Request, AccessKind, RequestClass};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut mem = MemorySystem::new(DramConfig::default())?;
//! mem.enqueue(Request {
//!     id: 1, addr: 0, kind: AccessKind::Read, class: RequestClass::Data, core: 0,
//! });
//! let done = mem.run_until_idle(10_000);
//! assert_eq!(done.len(), 1);
//! // Cold access: ACT + CAS + burst ≈ 26 memory cycles.
//! assert!(done[0].latency >= 26);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod mapping;
pub mod power;
pub mod request;
pub mod stats;

mod channel;

pub use config::{ConfigError, DramConfig, PowerParams, TimingParams};
pub use mapping::{map_address, DramLocation};
pub use power::EnergyBreakdown;
pub use request::{AccessKind, Completion, Request, RequestClass};
pub use stats::DramStats;

use channel::Channel;

/// The top-level memory system: all channels plus global statistics.
#[derive(Debug, Clone)]
pub struct MemorySystem {
    cfg: DramConfig,
    channels: Vec<Channel>,
    cycle: u64,
    stats: DramStats,
    /// Each channel's next event cycle (`u64::MAX` when idle): recomputed
    /// after every tick of that channel, lowered by enqueues into it. A
    /// channel is ticked only from its event on.
    channel_events: Vec<u64>,
    /// The minimum of `channel_events`. Ticks before it are no-ops for
    /// every channel and return at once.
    next_event: u64,
    /// Channel ticks skipped as no-ops because of `channel_events`.
    idle_channel_ticks: u64,
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the configuration is inconsistent.
    pub fn new(cfg: DramConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let channels: Vec<Channel> = (0..cfg.channels).map(|_| Channel::new(&cfg)).collect();
        let channel_events: Vec<u64> =
            channels.iter().map(|ch| ch.next_event_cycle(&cfg, 0)).collect();
        let next_event = channel_events.iter().copied().min().unwrap_or(u64::MAX);
        Ok(Self {
            cfg,
            channels,
            cycle: 0,
            stats: DramStats::default(),
            channel_events,
            next_event,
            idle_channel_ticks: 0,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Current memory-bus cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    fn has_room(&self, channel: usize, kind: AccessKind) -> bool {
        let ch = &self.channels[channel];
        match kind {
            AccessKind::Read => ch.read_queue_len() < self.cfg.read_queue_capacity,
            AccessKind::Write => ch.write_queue_len() < self.cfg.write_queue_capacity,
        }
    }

    /// Enqueues a request. Returns `false` (and drops nothing) when the
    /// target queue is full — the caller must retry later, modeling
    /// back-pressure into the core.
    pub fn enqueue(&mut self, req: Request) -> bool {
        let loc = map_address(&self.cfg, req.addr);
        if !self.has_room(loc.channel, req.kind) {
            return false;
        }
        let event = self.channels[loc.channel].enqueue(req, loc, self.cycle, &self.cfg);
        let channel_event = &mut self.channel_events[loc.channel];
        *channel_event = (*channel_event).min(event);
        self.next_event = self.next_event.min(event);
        true
    }

    /// Advances one memory-bus cycle, returning reads completed this cycle.
    ///
    /// Convenience wrapper around [`Self::tick_into`] that allocates a
    /// fresh vector per call; hot loops should own a drain buffer and call
    /// [`Self::tick_into`] directly.
    pub fn tick(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.tick_into(&mut completions);
        completions
    }

    /// Advances one memory-bus cycle, appending reads completed this cycle
    /// to the caller-owned `completions` buffer (not cleared first).
    ///
    /// Only the channels whose own next event is due are ticked; a tick
    /// before [`Self::next_event_cycle`] is a no-op for every channel and
    /// only advances the clock.
    pub fn tick_into(&mut self, completions: &mut Vec<Completion>) {
        if self.cycle < self.next_event {
            debug_assert!(
                self.channels.iter().all(|ch| ch.is_quiet_at(self.cycle, &self.cfg)),
                "skipped a tick with work at cycle {}",
                self.cycle
            );
            self.idle_channel_ticks += self.channels.len() as u64;
            self.cycle += 1;
            return;
        }
        let mut next_event = u64::MAX;
        for (ch, event) in self.channels.iter_mut().zip(&mut self.channel_events) {
            if self.cycle < *event {
                debug_assert!(
                    ch.is_quiet_at(self.cycle, &self.cfg),
                    "skipped a channel tick with work at cycle {}",
                    self.cycle
                );
                self.idle_channel_ticks += 1;
            } else {
                ch.tick(self.cycle, &self.cfg, completions, &mut self.stats);
                *event = ch.next_event_cycle(&self.cfg, self.cycle + 1);
            }
            next_event = next_event.min(*event);
        }
        self.cycle += 1;
        self.next_event = next_event;
    }

    /// The earliest cycle, never before [`Self::cycle`], at which any
    /// channel's state can change on its own: a pending completion, a
    /// refresh deadline, a write-drain watermark crossing, or a queued
    /// command becoming issueable. Returns `None` when the system is
    /// completely idle (no queued work, no pending data, refresh
    /// disabled). `Some(self.cycle())` means the next tick has work.
    ///
    /// Ticking every cycle strictly before the returned event is a no-op
    /// for the whole memory system, so a driver may [`Self::skip_to`] the
    /// event directly and observe bit-identical behaviour.
    pub fn next_event_cycle(&self) -> Option<u64> {
        debug_assert!(self.next_event >= self.cycle, "event horizon fell behind the clock");
        (self.next_event != u64::MAX).then_some(self.next_event)
    }

    /// Fast-forwards the clock to `cycle` without ticking the skipped
    /// range. Only sound when `cycle` does not lie beyond
    /// [`Self::next_event_cycle`] — i.e. every skipped cycle would have
    /// been a no-op tick. The clock never moves backwards.
    pub fn skip_to(&mut self, cycle: u64) {
        debug_assert!(
            self.next_event_cycle().is_none_or(|e| cycle <= e),
            "skip_to({cycle}) would jump over a channel event"
        );
        self.cycle = self.cycle.max(cycle);
    }

    /// FR-FCFS scans skipped thanks to the event horizons, counted per
    /// channel and ticked cycle (observability; see `sim.*` metrics): a
    /// channel tick below the channel's issue horizon, plus every channel
    /// tick skipped as a no-op because the channel's event was not due.
    /// Cycles jumped by [`Self::skip_to`] are not ticks and do not count.
    pub fn scan_skips(&self) -> u64 {
        self.idle_channel_ticks + self.channels.iter().map(Channel::scan_skips).sum::<u64>()
    }

    /// Requests still queued or in flight.
    pub fn in_flight(&self) -> usize {
        self.channels.iter().map(Channel::in_flight).sum()
    }

    /// Occupancy of the read queues across channels.
    pub fn read_queue_occupancy(&self) -> usize {
        self.channels.iter().map(Channel::read_queue_len).sum()
    }

    /// Occupancy of the write queues across channels.
    pub fn write_queue_occupancy(&self) -> usize {
        self.channels.iter().map(Channel::write_queue_len).sum()
    }

    /// Runs until all queued work drains (or `max_cycles` elapse),
    /// collecting completions. Intended for tests and simple examples.
    ///
    /// Uses the event-horizon fast path: cycles in which no channel can
    /// retire, refresh or issue are skipped in one [`Self::skip_to`] jump.
    /// Results are bit-identical to ticking every cycle.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Vec<Completion> {
        let mut all = Vec::new();
        let deadline = self.cycle + max_cycles;
        while self.in_flight() > 0 && self.cycle < deadline {
            self.tick_into(&mut all);
            if let Some(event) = self.next_event_cycle() {
                if event > self.cycle {
                    self.skip_to(event.min(deadline));
                }
            }
        }
        all
    }

    /// Total ranks across channels (for background-power accounting).
    pub fn total_ranks(&self) -> usize {
        self.cfg.channels * self.cfg.ranks_per_channel
    }

    /// Energy consumed so far, given the elapsed simulated seconds.
    pub fn energy(&self, elapsed_seconds: f64) -> EnergyBreakdown {
        power::energy(&self.cfg.power, &self.stats, elapsed_seconds, self.total_ranks())
    }

    /// Seconds represented by `cycles` memory-bus cycles (800 MHz default).
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 * 1.25e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: u64, addr: u64) -> Request {
        Request { id, addr, kind: AccessKind::Read, class: RequestClass::Data, core: 0 }
    }

    fn write(id: u64, addr: u64) -> Request {
        Request { id, addr, kind: AccessKind::Write, class: RequestClass::Data, core: 0 }
    }

    #[test]
    fn single_read_cold_latency() {
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        assert!(mem.enqueue(read(1, 0)));
        let done = mem.run_until_idle(1000);
        assert_eq!(done.len(), 1);
        let t = TimingParams::default();
        // ACT at cycle 0, RD at tRCD, data at tRCD+CAS+burst.
        assert_eq!(done[0].latency, t.t_rcd + t.t_cas + t.t_burst);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let t = TimingParams::default();
        // Two reads to the same row: second sees no ACT.
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        mem.enqueue(read(1, 0));
        mem.enqueue(read(2, 128)); // same channel (line 2), same row, next col
        let done = mem.run_until_idle(1000);
        assert_eq!(done.len(), 2);
        let hit_latency = done.iter().find(|c| c.id == 2).unwrap().latency;
        let miss_latency = done.iter().find(|c| c.id == 1).unwrap().latency;
        assert!(
            hit_latency < miss_latency + t.t_rcd,
            "row hit {hit_latency} vs miss {miss_latency}"
        );

        // Conflict: same bank, different row → PRE+ACT+CAS.
        let cfg = DramConfig::default();
        let row_stride = cfg.channels as u64 * cfg.lines_per_row * cfg.banks_per_rank as u64
            * cfg.ranks_per_channel as u64 * 64;
        let mut mem2 = MemorySystem::new(cfg).unwrap();
        mem2.enqueue(read(1, 0));
        mem2.enqueue(read(2, row_stride)); // same bank, next row
        let done2 = mem2.run_until_idle(2000);
        let conflict_latency = done2.iter().find(|c| c.id == 2).unwrap().latency;
        assert!(conflict_latency > hit_latency + t.t_rp);
    }

    #[test]
    fn channel_parallelism_overlaps() {
        // Two reads to different channels complete in nearly the same time;
        // two to the same bank+row serialize only on the data bus.
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        mem.enqueue(read(1, 0)); // channel 0
        mem.enqueue(read(2, 64)); // channel 1
        let done = mem.run_until_idle(1000);
        let l1 = done.iter().find(|c| c.id == 1).unwrap().latency;
        let l2 = done.iter().find(|c| c.id == 2).unwrap().latency;
        assert_eq!(l1, l2, "independent channels are fully parallel");
    }

    #[test]
    fn bank_parallelism_beats_serialization() {
        let cfg = DramConfig::default();
        let bank_stride = cfg.channels as u64 * cfg.lines_per_row * 64;
        // 8 reads across 8 banks of channel 0.
        let mut mem = MemorySystem::new(cfg.clone()).unwrap();
        for i in 0..8u64 {
            mem.enqueue(read(i, i * bank_stride));
        }
        let parallel = {
            let done = mem.run_until_idle(10_000);
            done.iter().map(|c| c.latency).max().unwrap()
        };
        // 8 reads to the same bank, different rows (worst case).
        let row_stride = bank_stride * cfg.banks_per_rank as u64 * cfg.ranks_per_channel as u64;
        let mut mem2 = MemorySystem::new(cfg).unwrap();
        for i in 0..8u64 {
            mem2.enqueue(read(i, i * row_stride));
        }
        let serial = {
            let done = mem2.run_until_idle(10_000);
            done.iter().map(|c| c.latency).max().unwrap()
        };
        assert!(
            serial > parallel + 100,
            "bank conflicts must serialize: serial={serial}, parallel={parallel}"
        );
    }

    #[test]
    fn writes_are_posted_and_drain() {
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        for i in 0..10u64 {
            assert!(mem.enqueue(write(i, i * 64)));
        }
        let done = mem.run_until_idle(20_000);
        assert!(done.is_empty(), "writes produce no completions");
        assert_eq!(mem.in_flight(), 0);
        assert_eq!(mem.stats().total_writes(), 10);
    }

    #[test]
    fn write_drain_watermarks() {
        // Fill the write queue past the high watermark while reads flow;
        // everything must still drain.
        let cfg = DramConfig::default();
        let hi = cfg.write_hi_watermark;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for (wid, i) in (1000u64..).zip(0..(hi + 10) as u64) {
            // All writes to channel 0 (even lines).
            assert!(mem.enqueue(write(wid, i * 128)), "write {i}");
        }
        mem.enqueue(read(1, 0));
        let done = mem.run_until_idle(100_000);
        assert_eq!(done.len(), 1);
        assert_eq!(mem.in_flight(), 0);
    }

    #[test]
    fn queue_capacity_backpressure() {
        let cfg = DramConfig::default();
        let cap = cfg.read_queue_capacity;
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut accepted = 0;
        for i in 0..(2 * cap) as u64 {
            if mem.enqueue(read(i, i * 128)) {
                // all even lines → channel 0
                accepted += 1;
            }
        }
        assert_eq!(accepted, cap, "reads beyond capacity are rejected");
        // After draining some, the queue accepts again.
        for _ in 0..2000 {
            mem.tick();
        }
        assert!(mem.enqueue(read(9999, 0)));
    }

    #[test]
    fn throughput_approaches_bus_bandwidth_for_streaming() {
        // Stream 2000 row-hitting reads per channel: the data bus (4 cycles
        // per burst) should be the bottleneck, not bank timing.
        let mut cfg = DramConfig::default();
        cfg.timing.t_refi = 0; // disable refresh for a clean measurement
        let mut mem = MemorySystem::new(cfg).unwrap();
        let mut completed = 0usize;
        let mut id = 0u64;
        let mut next_addr = 0u64;
        let start = mem.cycle();
        while completed < 4000 {
            for _ in 0..4 {
                let req = read(id, next_addr);
                if mem.enqueue(req) {
                    id += 1;
                    next_addr += 64;
                }
            }
            completed += mem.tick().len();
            if mem.cycle() > 1_000_000 {
                panic!("deadlock: {completed} completed");
            }
        }
        let elapsed = mem.cycle() - start;
        // Ideal: 4000 bursts * 4 cycles / 2 channels = 8000 cycles.
        assert!(elapsed < 16_000, "streaming took {elapsed} cycles");
    }

    #[test]
    fn contention_increases_latency() {
        // Average read latency grows when many requests pile onto one bank.
        let cfg = DramConfig::default();
        let row_stride = cfg.channels as u64
            * cfg.lines_per_row
            * cfg.banks_per_rank as u64
            * cfg.ranks_per_channel as u64
            * 64;
        let mut mem = MemorySystem::new(cfg).unwrap();
        for i in 0..32u64 {
            mem.enqueue(read(i, i * row_stride));
        }
        mem.run_until_idle(100_000);
        let avg = mem.stats().avg_read_latency();
        assert!(avg > 100.0, "bank-conflict storm must queue: avg={avg}");
    }

    #[test]
    fn stats_track_classes() {
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        mem.enqueue(Request {
            id: 1,
            addr: 0,
            kind: AccessKind::Read,
            class: RequestClass::Mac,
            core: 0,
        });
        mem.enqueue(Request {
            id: 2,
            addr: 64,
            kind: AccessKind::Write,
            class: RequestClass::Parity,
            core: 0,
        });
        mem.run_until_idle(10_000);
        assert_eq!(mem.stats().reads(RequestClass::Mac), 1);
        assert_eq!(mem.stats().writes(RequestClass::Parity), 1);
        assert_eq!(mem.stats().total_accesses(), 2);
    }

    #[test]
    fn refresh_occurs() {
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        mem.enqueue(read(1, 0));
        for _ in 0..7000 {
            mem.tick();
        }
        assert!(mem.stats().refreshes > 0);
    }

    #[test]
    fn fast_forward_matches_per_cycle_tick() {
        // A mixed read/write burst with bank conflicts, row hits and
        // refresh activity: the event-horizon path must reproduce the
        // per-cycle-tick reference bit for bit — same completions in the
        // same order, same statistics (including refresh counts).
        let mk = || {
            let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
            let cfg = DramConfig::default();
            let bank_stride = cfg.channels as u64 * cfg.lines_per_row * 64;
            let row_stride =
                bank_stride * cfg.banks_per_rank as u64 * cfg.ranks_per_channel as u64;
            for i in 0..24u64 {
                // Interleave channels, banks, rows and directions.
                let addr = (i % 2) * 64 + (i % 5) * bank_stride + (i % 3) * row_stride;
                let req = if i % 4 == 3 { write(i, addr) } else { read(i, addr) };
                assert!(mem.enqueue(req));
            }
            mem
        };

        // Reference: tick every cycle until idle, then through a refresh.
        let mut reference = mk();
        let mut ref_done = Vec::new();
        for _ in 0..8000 {
            reference.tick_into(&mut ref_done);
        }

        // Fast path: run_until_idle skips idle gaps, then jump through the
        // same total cycle count via next_event_cycle/skip_to.
        let mut fast = mk();
        let mut fast_done = fast.run_until_idle(8000);
        while fast.cycle() < 8000 {
            fast.tick_into(&mut fast_done);
            if let Some(event) = fast.next_event_cycle() {
                if event > fast.cycle() {
                    fast.skip_to(event.min(8000));
                }
            } else {
                fast.skip_to(8000);
            }
        }

        assert_eq!(ref_done, fast_done);
        assert_eq!(reference.stats(), fast.stats());
        assert!(fast.scan_skips() < reference.scan_skips() + 8000);
    }

    #[test]
    fn energy_nonzero_after_traffic() {
        let mut mem = MemorySystem::new(DramConfig::default()).unwrap();
        for i in 0..16u64 {
            mem.enqueue(read(i, i * 6400));
        }
        mem.run_until_idle(100_000);
        let secs = mem.cycles_to_seconds(mem.cycle());
        let e = mem.energy(secs);
        assert!(e.activate_j > 0.0);
        assert!(e.read_j > 0.0);
        assert!(e.background_j > 0.0);
        assert!(e.total_j() > e.read_j);
    }
}
