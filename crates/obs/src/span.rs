//! Request-lifecycle spans.
//!
//! A [`Span`] is one memory request's journey through the simulation
//! pipeline — LLC miss, secure-engine expansion, metadata-cache probe,
//! DRAM enqueue, DRAM issue, completion — with a cycle timestamp per
//! [`SpanPhase`]. The [`crate::RequestLedger`] builds spans only for the
//! slowest requests it keeps as exemplars; the exporters
//! ([`crate::export::spans_to_json`], [`crate::ChromeTrace`]) render them.

/// Lifecycle phases of a traced request, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanPhase {
    /// The data load missed the LLC — the request enters the system.
    LlcMiss,
    /// The secure engine expanded the miss into its DRAM access list.
    EngineExpand,
    /// The engine probed the dedicated metadata cache.
    MetaCacheProbe,
    /// The request entered a DRAM controller queue.
    DramEnqueue,
    /// The DRAM column command issued (data on the bus).
    DramIssue,
    /// Data returned; the requester unblocked.
    Complete,
}

impl SpanPhase {
    /// All phases in pipeline order.
    pub const ALL: [SpanPhase; 6] = [
        SpanPhase::LlcMiss,
        SpanPhase::EngineExpand,
        SpanPhase::MetaCacheProbe,
        SpanPhase::DramEnqueue,
        SpanPhase::DramIssue,
        SpanPhase::Complete,
    ];

    /// Dense index, matching the position in [`SpanPhase::ALL`].
    pub const fn index(self) -> usize {
        match self {
            SpanPhase::LlcMiss => 0,
            SpanPhase::EngineExpand => 1,
            SpanPhase::MetaCacheProbe => 2,
            SpanPhase::DramEnqueue => 3,
            SpanPhase::DramIssue => 4,
            SpanPhase::Complete => 5,
        }
    }

    /// Stable lowercase name for export.
    pub const fn name(self) -> &'static str {
        match self {
            SpanPhase::LlcMiss => "llc_miss",
            SpanPhase::EngineExpand => "engine_expand",
            SpanPhase::MetaCacheProbe => "meta_cache_probe",
            SpanPhase::DramEnqueue => "dram_enqueue",
            SpanPhase::DramIssue => "dram_issue",
            SpanPhase::Complete => "complete",
        }
    }
}

impl core::fmt::Display for SpanPhase {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// One traced request: identity plus its timestamped phase events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request identifier (the DRAM request id of the data read).
    pub id: u64,
    /// Physical address of the data line.
    pub addr: u64,
    /// Free-form label (request class, design name, …).
    pub label: &'static str,
    /// `(phase, cycle)` events in the order they were recorded.
    pub events: Vec<(SpanPhase, u64)>,
}

impl Span {
    /// Cycle of the first event (0 if none).
    pub fn start_cycle(&self) -> u64 {
        self.events.first().map_or(0, |&(_, c)| c)
    }

    /// Cycle of the last event.
    pub fn end_cycle(&self) -> u64 {
        self.events.last().map_or(0, |&(_, c)| c)
    }

    /// End-to-end latency in cycles.
    pub fn total_latency(&self) -> u64 {
        self.end_cycle() - self.start_cycle()
    }

    /// Cycle at which `phase` was recorded, if it was.
    pub fn cycle_of(&self, phase: SpanPhase) -> Option<u64> {
        self.events.iter().find(|&&(p, _)| p == phase).map(|&(_, c)| c)
    }

    /// Per-phase breakdown: each event paired with the cycles until the
    /// next event (the final event gets 0).
    pub fn phase_durations(&self) -> Vec<(SpanPhase, u64)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, &(p, c))| {
                let next = self.events.get(i + 1).map_or(c, |&(_, n)| n);
                (p, next.saturating_sub(c))
            })
            .collect()
    }
}
