//! The in-flight request ledger: one table of outstanding DRAM reads.
//!
//! Request ids are dense and only reads complete, so the table is a window
//! indexed by `id - base` that starts at the oldest open read; ids that
//! never complete (posted writes) are empty slots that fall off the front.
//! Nothing allocates once the window has grown to its working size, except
//! building the [`Span`] of a read that enters the top-K.

use std::collections::VecDeque;

use crate::attrib::{AttribBucket, CycleAttribution};
use crate::hist::LogHistogram;
use crate::registry::{metric_name, MetricRegistry, Observe};
use crate::span::{Span, SpanPhase};

/// Stamp of a phase the read has not passed through.
const UNSTAMPED: u64 = u64::MAX;

/// One outstanding read.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    class: usize,
    addr: u64,
    /// The caller's load blocked on this read.
    load: Option<(usize, u64)>,
    /// Cycle per [`SpanPhase`]; `LlcMiss` is the cycle the read opened.
    stamps: [u64; SpanPhase::ALL.len()],
    /// Whether the read holds one of the span-tracing slots.
    traced: bool,
}

/// DRAM timestamps of a finished read (see `synergy_dram::Completion`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadTimes {
    /// Entered the controller queue.
    pub enqueue: u64,
    /// Its row became usable.
    pub bank_ready: u64,
    /// Its column command issued.
    pub issue: u64,
    /// Its data returned.
    pub complete: u64,
}

/// The in-flight table plus what closed reads fold into: the attribution
/// matrix, phase and latency histograms and the top-K slowest spans.
#[derive(Debug, Clone, Default)]
pub struct RequestLedger {
    /// Id of `slots[0]`.
    base: u64,
    slots: VecDeque<Option<InFlight>>,
    labels: Vec<&'static str>,
    attrib: Option<CycleAttribution>,
    span_capacity: usize,
    traced_open: usize,
    top_k: usize,
    /// Slowest traced reads, ascending by latency.
    slowest: Vec<Span>,
    phase_cycles: [LogHistogram; SpanPhase::ALL.len()],
    latency: LogHistogram,
    completed: u64,
    dropped: u64,
}

impl RequestLedger {
    /// An empty ledger for reads of `classes` (labels by class index).
    /// At most `span_capacity` reads are traced at once; reads opened
    /// beyond that are still delivered and attributed but count as
    /// dropped. The `top_k` slowest traced reads are kept as [`Span`]s.
    pub fn new(
        classes: &[&'static str],
        span_capacity: usize,
        top_k: usize,
        attribution: bool,
    ) -> Self {
        Self {
            labels: classes.to_vec(),
            attrib: attribution.then(|| CycleAttribution::new(classes)),
            span_capacity,
            top_k,
            ..Self::default()
        }
    }

    /// Opens read `id` at `cycle` (its [`SpanPhase::LlcMiss`] stamp);
    /// `load` comes back when it closes. Ids must increase call to call.
    pub fn open(
        &mut self,
        id: u64,
        class: usize,
        addr: u64,
        cycle: u64,
        load: Option<(usize, u64)>,
    ) {
        if self.slots.is_empty() {
            self.base = id;
        }
        let end = self.base + self.slots.len() as u64;
        assert!(id >= end, "read {id} opened out of order (next free id {end})");
        self.slots.resize(self.slots.len() + (id - end) as usize, None);
        let traced = self.traced_open < self.span_capacity;
        self.traced_open += usize::from(traced);
        self.dropped += u64::from(!traced);
        let mut stamps = [UNSTAMPED; SpanPhase::ALL.len()];
        stamps[SpanPhase::LlcMiss.index()] = cycle;
        self.slots.push_back(Some(InFlight { class, addr, load, stamps, traced }));
    }

    /// Stamps `phase` of read `id` at `cycle`; a no-op unless `id` is open.
    pub fn stamp(&mut self, id: u64, phase: SpanPhase, cycle: u64) {
        if let Some(rec) = self.slot(id).and_then(Option::as_mut) {
            rec.stamps[phase.index()] = cycle;
        }
    }

    fn slot(&mut self, id: u64) -> Option<&mut Option<InFlight>> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        self.slots.get_mut(i)
    }

    /// Closes read `id` and returns its load, folding it once: the
    /// push → enqueue → bank-ready → issue → complete split goes to the
    /// attribution matrix (`refresh_overlap(from, to)` gives the refresh
    /// cycles inside a bank wait); a traced read's phase durations and
    /// latency go to the histograms and, if it ranks among the slowest,
    /// into the top-K. A no-op returning `None` unless `id` is open.
    pub fn close(
        &mut self,
        id: u64,
        t: ReadTimes,
        refresh_overlap: impl FnOnce(u64, u64) -> u64,
    ) -> Option<(usize, u64)> {
        let mut rec = self.slot(id)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        let push = rec.stamps[SpanPhase::LlcMiss.index()];
        if let Some(attrib) = &mut self.attrib {
            // The split telescopes: every cycle lands in exactly one
            // bucket, so the matrix conserves end-to-end latency.
            let enq = t.enqueue.max(push);
            let ready = t.bank_ready.clamp(enq, t.issue);
            let issue = t.issue.max(ready).min(t.complete);
            let refresh = refresh_overlap(enq, ready);
            let cycles = [
                (AttribBucket::QueueWait, (enq - push) + (issue - ready)),
                (AttribBucket::RefreshStall, refresh),
                (AttribBucket::BankBusy, (ready - enq) - refresh),
                (AttribBucket::BusTransfer, t.complete - issue),
            ];
            attrib.close_request(rec.class, &cycles, t.complete - push);
        }
        if !rec.traced {
            return rec.load;
        }
        self.traced_open -= 1;
        self.completed += 1;
        rec.stamps[SpanPhase::DramIssue.index()] = t.issue;
        rec.stamps[SpanPhase::Complete.index()] = t.complete;
        let lat = t.complete - push;
        self.latency.record(lat);
        // A stamped phase lasts until the next stamped one; the terminal
        // `Complete` has no duration.
        let mut prev = (SpanPhase::LlcMiss.index(), push);
        for (i, &cycle) in rec.stamps.iter().enumerate().skip(1) {
            if cycle != UNSTAMPED {
                self.phase_cycles[prev.0].record(cycle.saturating_sub(prev.1));
                prev = (i, cycle);
            }
        }
        let full = self.slowest.len() >= self.top_k;
        if self.top_k > 0 && !(full && lat <= self.slowest[0].total_latency()) {
            let events = SpanPhase::ALL.into_iter().zip(rec.stamps);
            let events = events.filter(|&(_, cycle)| cycle != UNSTAMPED).collect();
            let span = Span { id, addr: rec.addr, label: self.labels[rec.class], events };
            if full {
                self.slowest[0] = span;
            } else {
                self.slowest.push(span);
            }
            self.slowest.sort_by_key(Span::total_latency);
        }
        rec.load
    }

    /// Closes a request that never reached DRAM (an LLC hit, a crypto
    /// stall) with all of its `cycles` in one attribution bucket.
    pub fn charge(&mut self, class: usize, bucket: AttribBucket, cycles: u64) {
        if let Some(attrib) = &mut self.attrib {
            attrib.close_request(class, &[(bucket, cycles)], cycles);
        }
    }

    /// The attribution matrix, or `None` when attribution is off.
    pub fn attribution(&self) -> Option<&CycleAttribution> {
        self.attrib.as_ref()
    }

    /// The slowest traced reads, descending by latency, at most `k`.
    pub fn slowest(&self, k: usize) -> Vec<Span> {
        self.slowest.iter().rev().take(k).cloned().collect()
    }

    /// Traced reads closed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Reads opened while every span-tracing slot was taken.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl Observe for RequestLedger {
    /// Publishes the span metrics over every traced read closed:
    /// `<prefix>.phase_cycles.<phase>` and `<prefix>.latency` histograms
    /// and the started/completed/dropped counters.
    fn observe(&self, prefix: &str, registry: &mut MetricRegistry) {
        for (phase, h) in SpanPhase::ALL.into_iter().zip(&self.phase_cycles) {
            if h.count() > 0 {
                registry.set_histogram(&metric_name(prefix, &format!("phase_cycles.{phase}")), h);
            }
        }
        if self.latency.count() > 0 {
            registry.set_histogram(&metric_name(prefix, "latency"), &self.latency);
        }
        // Every opened read is open and traced, closed, or dropped.
        let started = self.traced_open as u64 + self.completed + self.dropped;
        registry.set_counter(&metric_name(prefix, "started"), started);
        registry.set_counter(&metric_name(prefix, "completed"), self.completed);
        registry.set_counter(&metric_name(prefix, "dropped"), self.dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLASSES: [&str; 2] = ["data", "counter"];

    fn ledger(span_capacity: usize, top_k: usize) -> RequestLedger {
        RequestLedger::new(&CLASSES, span_capacity, top_k, true)
    }

    fn open_len(l: &RequestLedger) -> usize {
        l.slots.iter().flatten().count()
    }

    fn no_refresh(_: u64, _: u64) -> u64 {
        0
    }

    /// Opens and closes data read `id`: enqueued one cycle after `start`,
    /// issued at `issue`, complete at `end`.
    fn trace_one(l: &mut RequestLedger, id: u64, start: u64, issue: u64, end: u64) {
        l.open(id, 0, 0x1000 + id, start, Some((0, id)));
        l.stamp(id, SpanPhase::EngineExpand, start);
        l.stamp(id, SpanPhase::DramEnqueue, start + 1);
        let t = ReadTimes { enqueue: start + 1, bank_ready: start + 1, issue, complete: end };
        assert_eq!(l.close(id, t, no_refresh), Some((0, id)));
    }

    #[test]
    fn lifecycle_records_all_phases() {
        let mut l = ledger(4096, 16);
        trace_one(&mut l, 1, 100, 140, 150);
        assert_eq!(l.completed(), 1);
        assert_eq!(open_len(&l), 0);
        let spans = l.slowest(10);
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.id, s.addr, s.label), (1, 0x1001, "data"));
        assert_eq!(s.total_latency(), 50);
        assert_eq!(s.cycle_of(SpanPhase::DramIssue), Some(140));
        assert_eq!(s.cycle_of(SpanPhase::MetaCacheProbe), None);
        let durs = s.phase_durations();
        assert_eq!(durs.len(), 5);
        assert_eq!(durs.last().unwrap().1, 0);
        // Durations sum to total latency.
        assert_eq!(durs.iter().map(|&(_, d)| d).sum::<u64>(), 50);
    }

    #[test]
    fn top_k_keeps_slowest_descending() {
        let mut l = ledger(64, 3);
        for (id, lat) in [(1, 10), (2, 50), (3, 20), (4, 40), (5, 30)] {
            trace_one(&mut l, id, 0, lat - 5, lat);
        }
        let lats: Vec<u64> = l.slowest(10).iter().map(Span::total_latency).collect();
        assert_eq!(lats, [50, 40, 30]);
        assert_eq!(l.slowest(2).len(), 2);
    }

    #[test]
    fn capacity_limits_traced_reads_but_not_delivery() {
        let mut l = ledger(2, 4);
        for id in 1..=3 {
            l.open(id, 1, 0, 0, Some((1, id)));
        }
        assert_eq!(open_len(&l), 3);
        assert_eq!(l.dropped(), 1);
        // The untraced read is still delivered and attributed.
        let t = ReadTimes { enqueue: 0, bank_ready: 0, issue: 5, complete: 9 };
        assert_eq!(l.close(3, t, no_refresh), Some((1, 3)));
        assert_eq!(l.completed(), 0);
        assert_eq!(l.attribution().unwrap().total_requests(), 1);
        // A slot freed by a traced read is reused.
        l.close(1, t, no_refresh);
        l.open(4, 0, 0, 10, None);
        assert_eq!(l.dropped(), 1);
    }

    #[test]
    fn write_ids_are_gaps_that_close_with_their_neighbours() {
        let mut l = ledger(64, 4);
        let t = ReadTimes { enqueue: 0, bank_ready: 0, issue: 1, complete: 2 };
        l.open(10, 0, 0, 0, Some((0, 10)));
        // Ids 11..15 are writes: stamps and closes on them are no-ops.
        l.open(15, 0, 0, 0, Some((0, 15)));
        l.stamp(12, SpanPhase::DramEnqueue, 1);
        assert_eq!(l.close(12, t, no_refresh), None);
        assert_eq!(l.close(15, t, no_refresh), Some((0, 15)));
        assert_eq!(l.close(10, t, no_refresh), Some((0, 10)));
        assert_eq!((open_len(&l), l.slots.len()), (0, 0));
        // Closed and out-of-window ids are ignored.
        assert_eq!(l.close(10, t, no_refresh), None);
        assert_eq!(l.close(99, t, no_refresh), None);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn ids_must_increase() {
        let mut l = ledger(64, 4);
        l.open(5, 0, 0, 0, None);
        l.open(5, 0, 0, 0, None);
    }

    #[test]
    fn attribution_split_telescopes_and_conserves() {
        let mut l = ledger(0, 0);
        l.open(1, 1, 0, 100, None);
        // Queued 100→110, bank busy 110→130 (4 of them refresh), scheduler
        // wait 130→135, bus 135→150.
        let t = ReadTimes { enqueue: 110, bank_ready: 130, issue: 135, complete: 150 };
        l.close(1, t, |from, to| {
            assert_eq!((from, to), (110, 130));
            4
        });
        l.charge(0, AttribBucket::LlcHit, 8);
        let a = l.attribution().unwrap();
        a.verify().unwrap();
        assert_eq!(a.cell(1, AttribBucket::QueueWait), 10 + 5);
        assert_eq!(a.cell(1, AttribBucket::RefreshStall), 4);
        assert_eq!(a.cell(1, AttribBucket::BankBusy), 16);
        assert_eq!(a.cell(1, AttribBucket::BusTransfer), 15);
        assert_eq!(a.cell(0, AttribBucket::LlcHit), 8);
        assert_eq!(a.total_requests(), 2);
        // Tracing was off: every read dropped, nothing traced.
        assert_eq!((l.dropped(), l.completed()), (1, 0));
    }

    #[test]
    fn attribution_off_attributes_nothing() {
        let mut l = RequestLedger::new(&CLASSES, 64, 4, false);
        trace_one(&mut l, 1, 0, 5, 10);
        l.charge(0, AttribBucket::LlcHit, 8);
        assert!(l.attribution().is_none());
        assert_eq!(l.completed(), 1);
    }

    #[test]
    fn phase_histograms_cover_spans_evicted_from_top_k() {
        // top_k = 1: only the slowest span survives as an exemplar, yet
        // the histograms see all three completions.
        let mut l = ledger(64, 1);
        for (id, lat) in [(1, 10), (2, 50), (3, 20)] {
            trace_one(&mut l, id, 0, lat - 5, lat);
        }
        assert_eq!(l.slowest(10).len(), 1);
        assert_eq!(l.latency.count(), 3);
        assert_eq!(l.latency.max(), 50);
        // Each completed span records one duration per non-terminal event.
        assert_eq!(l.phase_cycles[SpanPhase::LlcMiss.index()].count(), 3);
        assert_eq!(l.phase_cycles[SpanPhase::DramIssue.index()].count(), 3);
        // DramIssue → Complete is 5 cycles in every exemplar above.
        assert_eq!(l.phase_cycles[SpanPhase::DramIssue.index()].max(), 5);
        // Unstamped phases and the terminal Complete contribute nothing.
        assert_eq!(l.phase_cycles[SpanPhase::MetaCacheProbe.index()].count(), 0);
        assert_eq!(l.phase_cycles[SpanPhase::Complete.index()].count(), 0);
    }

    #[test]
    fn observe_publishes_histograms_and_counters() {
        let mut l = ledger(64, 2);
        trace_one(&mut l, 1, 0, 5, 10);
        let mut reg = MetricRegistry::new();
        l.observe("span", &mut reg);
        assert_eq!(reg.counter("span.started"), Some(1));
        assert_eq!(reg.counter("span.completed"), Some(1));
        assert_eq!(reg.counter("span.dropped"), Some(0));
        assert_eq!(reg.get_histogram("span.latency").unwrap().count(), 1);
        assert_eq!(reg.get_histogram("span.phase_cycles.dram_enqueue").unwrap().count(), 1);
        // Phases with no samples stay unpublished.
        assert!(reg.get_histogram("span.phase_cycles.complete").is_none());
    }
}
