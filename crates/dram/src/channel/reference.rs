//! A two-pass FR-FCFS scheduler and per-request issue horizon, kept as a
//! test oracle for the per-bank scheduler, and the differential tests
//! that hold the two to the same command on every cycle.
//!
//! The reference never reads the banks' request lists, their oldest
//! entries or offers, nor a rank's `act_floor`. It scans an
//! age-ordered view of each queue, built from the slab's queued entries
//! sorted by scan key (arrival order): pass 1 looks for the oldest ready
//! column command, pass 2 for the oldest request whose bank accepts its
//! row command, with row-hit friendliness decided by rescanning both
//! queues and the tRRD/tFAW limits recomputed from each rank's ACT
//! window. Its horizon takes the minimum over every queued request.

use super::{qi, BankDetail, Candidate, Channel, Queued, CLOSED, NIL};
use crate::config::{DramConfig, TimingParams};
use crate::request::{AccessKind, Completion, Request};
use crate::stats::DramStats;

impl BankDetail {
    /// The open row, `None` while precharged.
    fn open(&self) -> Option<u64> {
        (self.open_row != CLOSED).then_some(self.open_row)
    }
}

impl Channel {
    /// One memory cycle under the reference scheduler: the same retire,
    /// refresh, drain-mode and issue steps as [`Channel::tick`], with the
    /// reference scan run every cycle and no horizon. Returns the command
    /// it issued.
    pub(super) fn tick_reference(
        &mut self,
        cycle: u64,
        cfg: &DramConfig,
        completions: &mut Vec<Completion>,
        stats: &mut DramStats,
    ) -> Option<Candidate> {
        self.retire(cycle, completions);
        self.handle_refresh(cycle, &cfg.timing, stats);
        self.update_drain_mode(cfg);
        let c = self.find_candidate_reference(cycle, &cfg.timing);
        if let Some(c) = c {
            self.issue(cycle, &cfg.timing, stats, c);
        }
        c
    }

    /// `kind`'s queue, oldest first: `(slab slot, request)` for every
    /// queued entry of that kind, sorted by scan key (arrival order).
    fn queue_view(&self, kind: AccessKind) -> Vec<(u32, &Queued)> {
        let mut view: Vec<(u32, &Queued)> = (0u32..)
            .zip(&self.slab)
            .filter(|(_, q)| q.kind == Some(kind))
            .collect();
        view.sort_by_key(|(_, q)| q.key);
        view
    }

    /// The reference scheduler's pick: drained queue first, then the other.
    pub(super) fn find_candidate_reference(
        &self,
        cycle: u64,
        t: &TimingParams,
    ) -> Option<Candidate> {
        let primary = if self.draining || self.queue_view(AccessKind::Read).is_empty() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let secondary = match primary {
            AccessKind::Read => AccessKind::Write,
            AccessKind::Write => AccessKind::Read,
        };
        self.find_candidate_for_queue_reference(cycle, t, primary)
            .or_else(|| self.find_candidate_for_queue_reference(cycle, t, secondary))
    }

    fn find_candidate_for_queue_reference(
        &self,
        cycle: u64,
        t: &TimingParams,
        kind: AccessKind,
    ) -> Option<Candidate> {
        let queue = self.queue_view(kind);
        // Pass 1 — FR: oldest request whose column command is ready now.
        let bus_ready = self.bus_ready(t, kind);
        if let Some(&(s, _)) = queue
            .iter()
            .find(|(_, q)| self.col_command_ready(cycle, t, q, kind, bus_ready))
        {
            return Some(Candidate::Col(kind, s));
        }

        // Pass 2 — FCFS: oldest requests' row commands (ACT or PRE), with
        // a bitmap skipping banks already proved blocked.
        let mut blocked_banks = 0u64;
        queue.iter().find_map(|&(_, q)| {
            let b = q.bank as usize;
            let bank = &self.details[b];
            let bit = Self::bank_bit(b);
            if blocked_banks & bit != 0 {
                return None;
            }
            match bank.open() {
                Some(row) if row == q.row => None, // waiting on tCCD/bus only
                Some(_) => {
                    if cycle >= bank.ready_pre && !self.row_has_waiting_hit(b) {
                        Some(Candidate::Pre(b))
                    } else {
                        blocked_banks |= bit;
                        None
                    }
                }
                None => {
                    if self.act_allowed(cycle, t, b) {
                        Some(Candidate::Act { bank: b, row: q.row })
                    } else {
                        blocked_banks |= bit;
                        None
                    }
                }
            }
        })
    }

    /// One bit per bank for the dedup bitmaps; banks beyond the first 64
    /// get none and are simply never deduplicated.
    fn bank_bit(b: usize) -> u64 {
        if b < 64 {
            1u64 << b
        } else {
            0
        }
    }

    /// The reference horizon: a lower bound (> `cycle`) on the next cycle
    /// any queued command could issue, as a minimum over every queued
    /// request's next command.
    pub(super) fn next_issue_cycle_reference(&self, cycle: u64, t: &TimingParams) -> u64 {
        let mut earliest = u64::MAX;
        for kind in [AccessKind::Read, AccessKind::Write] {
            let bus_ready = self.bus_ready(t, kind);
            let lead = super::lead(t, kind);
            let mut seen_row_match = 0u64; // col (open) / ACT (closed)
            let mut seen_pre = 0u64;
            for (_, q) in self.queue_view(kind) {
                let b = q.bank as usize;
                let bank = &self.details[b];
                let bit = Self::bank_bit(b);
                let candidate = match bank.open() {
                    Some(row) if row == q.row => {
                        if seen_row_match & bit != 0 {
                            continue;
                        }
                        seen_row_match |= bit;
                        bank.ready_col.max(bus_ready.saturating_sub(lead))
                    }
                    Some(_) => {
                        if seen_pre & bit != 0 {
                            continue;
                        }
                        seen_pre |= bit;
                        if self.row_has_waiting_hit(b) {
                            continue;
                        }
                        bank.ready_pre
                    }
                    None => {
                        if seen_row_match & bit != 0 {
                            continue;
                        }
                        seen_row_match |= bit;
                        let rank = &self.ranks[b / self.banks_per_rank];
                        let mut c = bank.ready_act;
                        if let Some(last_act) = rank.act_window[0].filter(|&at| at != 0) {
                            c = c.max(last_act + t.t_rrd);
                        }
                        let mut in_window = 0usize;
                        let mut oldest = u64::MAX;
                        for &at in rank.act_window.iter().flatten() {
                            if at + t.t_faw > cycle {
                                in_window += 1;
                                oldest = oldest.min(at);
                            }
                        }
                        if in_window >= 4 {
                            c = c.max(oldest + t.t_faw);
                        }
                        c
                    }
                };
                earliest = earliest.min(candidate);
            }
        }
        earliest.max(cycle + 1)
    }

    fn row_has_waiting_hit(&self, b: usize) -> bool {
        let Some(open) = self.details[b].open() else {
            return false;
        };
        self.slab
            .iter()
            .any(|q| q.kind.is_some() && q.bank as usize == b && q.row == open)
    }

    fn col_command_ready(
        &self,
        cycle: u64,
        t: &TimingParams,
        q: &Queued,
        kind: AccessKind,
        bus_ready: u64,
    ) -> bool {
        let b = q.bank as usize;
        if self.details[b].open() != Some(q.row) || cycle < self.details[b].ready_col {
            return false;
        }
        cycle + super::lead(t, kind) >= bus_ready
    }

    fn act_allowed(&self, cycle: u64, t: &TimingParams, b: usize) -> bool {
        if cycle < self.details[b].ready_act {
            return false;
        }
        let rank = &self.ranks[b / self.banks_per_rank];
        if rank.act_window[0].is_some_and(|last_act| last_act != 0 && cycle < last_act + t.t_rrd) {
            return false;
        }
        let in_window = rank
            .act_window
            .iter()
            .flatten()
            .filter(|&&at| at + t.t_faw > cycle)
            .count();
        in_window < 4
    }

    /// Everything the scheduler's decisions depend on or change, minus the
    /// horizon bookkeeping the two models keep differently. Queues appear
    /// as their age-ordered views, without slot numbers or links.
    fn decision_state(&self) -> String {
        let queue = |kind| {
            self.queue_view(kind)
                .into_iter()
                .map(|(_, q)| (q.key, q.bank, q.row, q.id, q.addr, q.class, q.enqueue_cycle))
                .collect::<Vec<_>>()
        };
        let banks: Vec<_> = self
            .details
            .iter()
            .map(|d| (d.open(), d.opened_at, d.ready_act, d.ready_col, d.ready_pre))
            .collect();
        format!(
            "{:?}",
            (
                banks,
                &self.ranks,
                queue(AccessKind::Read),
                queue(AccessKind::Write),
                &self.pending,
                self.draining,
                self.bus_free_at,
                self.last_bus_op,
            )
        )
    }

    /// The slots on bank `b`'s list for queue `k`, oldest first.
    fn bank_list(&self, b: usize, k: usize) -> impl Iterator<Item = u32> + '_ {
        let slot = |s: u32| (s != NIL).then_some(s);
        std::iter::successors(slot(self.details[b].head[k]), move |&s| {
            slot(self.slab[s as usize].next)
        })
    }

    /// Checks every bank's lists against the slab: each holds exactly the
    /// bank's queued requests of its kind, oldest first, with consistent
    /// back links, and the bank's hit slot is its oldest row hit; the free
    /// list holds every other slot.
    fn check_lists(&self) {
        let mut listed = 0;
        for kind in [AccessKind::Read, AccessKind::Write] {
            let k = qi(kind);
            let view = self.queue_view(kind);
            for b in 0..self.banks.len() {
                let list: Vec<u32> = self.bank_list(b, k).collect();
                let expected: Vec<u32> =
                    view.iter().filter(|(_, q)| q.bank as usize == b).map(|&(s, _)| s).collect();
                assert_eq!(list, expected, "bank {b} {kind:?} list");
                let detail = &self.details[b];
                assert_eq!(detail.tail[k], *list.last().unwrap_or(&NIL));
                let hits = |&s: &u32| self.slab[s as usize].row == detail.open_row;
                let hit = list.iter().copied().find(hits);
                assert_eq!(detail.hit[k], hit.unwrap_or(NIL), "bank {b} {kind:?} oldest hit");
                let mut prev = NIL;
                for &s in &list {
                    assert_eq!(self.slab[s as usize].prev, prev, "bank {b} back link");
                    prev = s;
                }
                listed += list.len();
            }
        }
        let mut free = 0;
        let mut s = self.free;
        while s != NIL {
            assert_eq!(self.slab[s as usize].kind, None, "queued slot on the free list");
            free += 1;
            s = self.slab[s as usize].next;
        }
        assert_eq!(listed + free, self.slab.len(), "slots lost from the lists");
        assert_eq!(listed, self.len[0] + self.len[1]);
    }
}

mod tests {
    use super::*;
    use crate::request::RequestClass;
    use crate::MemorySystem;
    use proptest::prelude::*;

    /// One request of a generated stream: issued `gap` cycles after the
    /// previous one, to (flat bank, row, column) of a one-channel system.
    type Op = (u64, bool, usize, u64, u64);

    /// A one-channel configuration with `rows` rows per bank, small
    /// queues with watermarks the stream crosses, and refresh every 700
    /// cycles.
    fn config(ranks: usize, banks: usize, rows: u64) -> DramConfig {
        let mut cfg = DramConfig {
            channels: 1,
            ranks_per_channel: ranks,
            banks_per_rank: banks,
            rows_per_bank: rows,
            lines_per_row: 4,
            read_queue_capacity: 8,
            write_queue_capacity: 12,
            write_hi_watermark: 8,
            write_lo_watermark: 3,
            ..DramConfig::default()
        };
        cfg.timing.t_refi = 700;
        cfg
    }

    /// [`config`] with four rows per bank, so requests often share a row.
    fn small_config(ranks: usize, banks: usize) -> DramConfig {
        config(ranks, banks, 4)
    }

    /// The byte address of (flat bank, row, column) on channel 0, the
    /// inverse of [`crate::map_address`] for a one-channel system.
    fn addr(cfg: &DramConfig, bank: usize, row: u64, col: u64) -> u64 {
        let b = (bank % (cfg.ranks_per_channel * cfg.banks_per_rank)) as u64;
        let (rank, bank) = (b / cfg.banks_per_rank as u64, b % cfg.banks_per_rank as u64);
        let line = ((row * cfg.ranks_per_channel as u64 + rank) * cfg.banks_per_rank as u64 + bank)
            * cfg.lines_per_row
            + col;
        line * cfg.line_bytes
    }

    fn request(cfg: &DramConfig, id: u64, op: Op) -> Request {
        let (_, write, bank, row, col) = op;
        Request {
            id,
            addr: addr(cfg, bank, row % cfg.rows_per_bank, col % cfg.lines_per_row),
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
            class: RequestClass::ALL[(id % 5) as usize],
            core: 0,
        }
    }

    /// Cycles that cover every gap of `ops`, a bus-bound service time per
    /// request, and `tail`.
    fn run_length(ops: &[Op], tail: u64) -> u64 {
        ops.iter().map(|op| op.0 + 8).sum::<u64>() + tail
    }

    /// Replays a stream of [`Op`]s into a memory system.
    struct Feed<'a> {
        cfg: &'a DramConfig,
        ops: &'a [Op],
        next: usize,
        /// Cycle at which `ops[next]` is due.
        due: u64,
    }

    impl<'a> Feed<'a> {
        fn new(cfg: &'a DramConfig, ops: &'a [Op]) -> Self {
            Self { cfg, ops, next: 0, due: ops.first().map_or(0, |op| op.0) }
        }

        /// Enqueues every request due by `cycle` (the next cycle `mem`
        /// ticks), passing each accepted one to `accepted`; a full queue
        /// stalls the stream until a later cycle.
        fn feed(&mut self, mem: &mut MemorySystem, cycle: u64, mut accepted: impl FnMut(Request)) {
            while self.next < self.ops.len() && self.due <= cycle {
                let req = request(self.cfg, self.next as u64, self.ops[self.next]);
                if !mem.enqueue(req) {
                    break;
                }
                accepted(req);
                self.next += 1;
                self.due = cycle + self.ops.get(self.next).map_or(0, |op| op.0);
            }
        }

        /// The next cycle the stream has a request due, if any remain.
        fn next_due(&self) -> Option<u64> {
            (self.next < self.ops.len()).then_some(self.due)
        }
    }

    /// A queued read as the eager attribution oracle tracks it.
    struct Waiting {
        bank: usize,
        row: u64,
        enqueue: u64,
        /// When the read's row became usable, if it is usable now.
        stamp: Option<u64>,
        /// The ACT that set `stamp`, if one did.
        act: Option<u64>,
    }

    /// Eager attribution stamps, kept beside a channel run under the
    /// reference scheduler: a read is stamped at enqueue when its row is
    /// already open, else at the ACT that opens its row (+ tRCD); a
    /// precharge or refresh of its bank clears the stamp. Its completion
    /// must report the stamp it held at its column command, clamped to
    /// `[enqueue, issue]` (the issue cycle when unstamped).
    #[derive(Default)]
    struct EagerStamps {
        waiting: std::collections::HashMap<u64, Waiting>,
        /// `bank_ready_cycle` each issued read must complete with.
        expected: std::collections::HashMap<u64, u64>,
        /// Completions checked so far.
        checked: usize,
        /// Issued reads stamped at arrival (their row was open), at an
        /// ACT in their arrival cycle, and at a later ACT.
        arrived_open: usize,
        arrived_at_act: usize,
        waited_for_act: usize,
    }

    impl EagerStamps {
        /// `req` is about to be enqueued into `ch` at `cycle`.
        fn enqueue(&mut self, ch: &Channel, req: &Request, cfg: &DramConfig, cycle: u64) {
            if req.kind == AccessKind::Read {
                let loc = crate::map_address(cfg, req.addr);
                let bank = loc.rank * cfg.banks_per_rank + loc.bank;
                let stamp = (ch.details[bank].open() == Some(loc.row)).then_some(cycle);
                let w = Waiting { bank, row: loc.row, enqueue: cycle, stamp, act: None };
                self.waiting.insert(req.id, w);
            }
        }

        /// `ch` has just ticked `cycle` under the reference scheduler,
        /// refreshing the ranks in `refreshed` and issuing `c`.
        fn ticked(
            &mut self,
            ch: &Channel,
            t: &TimingParams,
            cycle: u64,
            refreshed: &[usize],
            c: Option<Candidate>,
        ) {
            let banks_per_rank = ch.banks_per_rank;
            for w in self.waiting.values_mut() {
                if refreshed.contains(&(w.bank / banks_per_rank)) {
                    (w.stamp, w.act) = (None, None);
                }
            }
            match c {
                Some(Candidate::Act { bank, row }) => {
                    for w in self.waiting.values_mut() {
                        if w.bank == bank && w.row == row && w.stamp.is_none() {
                            w.stamp = Some(cycle + t.t_rcd);
                            w.act = Some(cycle);
                        }
                    }
                }
                Some(Candidate::Pre(bank)) => {
                    for w in self.waiting.values_mut().filter(|w| w.bank == bank) {
                        (w.stamp, w.act) = (None, None);
                    }
                }
                Some(Candidate::Col(AccessKind::Read, _)) => {
                    let id = ch.pending.back().expect("an issued read is pending").id;
                    let w = self.waiting.remove(&id).expect("issued read was queued");
                    match w.act {
                        None => self.arrived_open += 1,
                        Some(act) if act == w.enqueue => self.arrived_at_act += 1,
                        Some(_) => self.waited_for_act += 1,
                    }
                    let ready = w.stamp.unwrap_or(cycle).clamp(w.enqueue, cycle);
                    self.expected.insert(id, ready);
                }
                Some(Candidate::Col(AccessKind::Write, _)) | None => {}
            }
        }

        /// Every completion in `done` not yet checked carries its stamp.
        fn check(&mut self, done: &[Completion], cycle: u64) {
            for c in &done[self.checked..] {
                let expected = self.expected.remove(&c.id).expect("completed read was issued");
                assert_eq!(
                    c.bank_ready_cycle, expected,
                    "cycle {cycle}: read {} bank-ready stamp",
                    c.id
                );
            }
            self.checked = done.len();
        }
    }

    /// Feeds `ops` to a one-channel [`MemorySystem`] ticked every cycle and
    /// to a mirror channel under the reference scheduler, then ticks both
    /// for `tail` more cycles. On every cycle: the same command issues
    /// (whole decision state, completions and stats equal), the reference
    /// never issues where the new model skipped its scan, a completed
    /// scan's horizon equals the reference horizon, every bank's lists
    /// oldest (hit) scan keys and occupancy bits match the slab, and every
    /// completed read's bank-ready cycle equals its [`EagerStamps`] stamp.
    fn assert_matches_reference(cfg: &DramConfig, ops: &[Op], tail: u64) -> MemorySystem {
        assert_matches_reference_observing(cfg, ops, tail, |_| {})
    }

    /// [`assert_matches_reference`], showing `observe` the new model's
    /// channel after every cycle's checks.
    fn assert_matches_reference_observing(
        cfg: &DramConfig,
        ops: &[Op],
        tail: u64,
        observe: impl FnMut(&Channel),
    ) -> MemorySystem {
        run_against_reference(cfg, ops, tail, observe).0
    }

    /// [`assert_matches_reference_observing`], also returning the eager
    /// stamp table.
    fn run_against_reference(
        cfg: &DramConfig,
        ops: &[Op],
        tail: u64,
        mut observe: impl FnMut(&Channel),
    ) -> (MemorySystem, EagerStamps) {
        let mut mem = MemorySystem::new(cfg.clone()).unwrap();
        let mut reference = mem.channels[0].clone();
        let mut ref_stats = DramStats::default();
        let (mut done, mut ref_done) = (Vec::new(), Vec::new());
        let mut feed = Feed::new(cfg, ops);
        let mut stamps = EagerStamps::default();
        let mut issued = 0;
        for cycle in 0..run_length(ops, tail) {
            feed.feed(&mut mem, cycle, |req| {
                stamps.enqueue(&reference, &req, cfg, cycle);
                reference.enqueue(req, crate::map_address(cfg, req.addr), cycle, cfg);
            });

            let system_event = mem.next_event_cycle().unwrap_or(u64::MAX);
            let horizon = mem.channels[0].issue_horizon;
            let (skips, refreshes) = (mem.scan_skips(), mem.stats().refreshes);
            mem.tick_into(&mut done);
            let refresh_due: Vec<u64> = reference.ranks.iter().map(|r| r.next_refresh).collect();
            let c = reference.tick_reference(cycle, cfg, &mut ref_done, &mut ref_stats);
            let refreshed = mem.stats().refreshes > refreshes;
            let ranks_refreshed: Vec<usize> = (0..refresh_due.len())
                .filter(|&r| reference.ranks[r].next_refresh != refresh_due[r])
                .collect();
            stamps.ticked(&reference, &cfg.timing, cycle, &ranks_refreshed, c);

            let ch = &mem.channels[0];
            assert_eq!(
                ch.decision_state(),
                reference.decision_state(),
                "cycle {cycle}: {c:?}"
            );
            assert_eq!(done, ref_done, "cycle {cycle}: completions");
            stamps.check(&done, cycle);
            assert_eq!(mem.stats(), &ref_stats, "cycle {cycle}: stats");
            if c.is_some() {
                issued += 1;
                assert!(
                    cycle >= system_event,
                    "cycle {cycle}: skipped tick hid {c:?}"
                );
                assert!(
                    cycle >= horizon || refreshed,
                    "cycle {cycle}: horizon {horizon} hid {c:?}"
                );
            }
            if mem.scan_skips() == skips {
                assert_eq!(
                    ch.issue_horizon,
                    ch.next_issue_cycle_reference(cycle, &cfg.timing),
                    "cycle {cycle}: horizon after a scan"
                );
            }
            for b in 0..ch.banks.len() {
                assert_eq!(ch.kept(b), ch.recount(b), "cycle {cycle}: bank {b}");
            }
            ch.check_lists();
            observe(ch);
        }
        assert_eq!(feed.next_due(), None, "stream not fully enqueued");
        assert!(issued > 0 && ref_stats.refreshes > 0, "vacuous run");
        assert!(stamps.checked > 0 || ops.iter().all(|op| op.1), "no read completed");
        (mem, stamps)
    }

    /// Runs `ops` with the event-horizon fast path (`next_event_cycle` +
    /// `skip_to` between enqueues) and returns completions and stats.
    fn run_fast_forward(cfg: &DramConfig, ops: &[Op], end: u64) -> (Vec<Completion>, DramStats) {
        let mut mem = MemorySystem::new(cfg.clone()).unwrap();
        let mut done = Vec::new();
        let mut feed = Feed::new(cfg, ops);
        while mem.cycle() < end {
            let cycle = mem.cycle();
            feed.feed(&mut mem, cycle, |_| {});
            mem.tick_into(&mut done);
            let mut target = mem.next_event_cycle().unwrap_or(end).min(end);
            if let Some(due) = feed.next_due() {
                target = target.min(due.max(mem.cycle()));
            }
            if target > mem.cycle() {
                mem.skip_to(target);
            }
        }
        (done, mem.stats().clone())
    }

    /// Per-cycle ticking (through `assert_matches_reference`) and
    /// fast-forwarding observe the same completions and statistics.
    fn assert_fast_forward_matches(cfg: &DramConfig, ops: &[Op], tail: u64) {
        let end = run_length(ops, tail);
        let mut per_cycle = MemorySystem::new(cfg.clone()).unwrap();
        let mut done = Vec::new();
        let mut feed = Feed::new(cfg, ops);
        for cycle in 0..end {
            feed.feed(&mut per_cycle, cycle, |_| {});
            per_cycle.tick_into(&mut done);
        }
        let (fast_done, fast_stats) = run_fast_forward(cfg, ops, end);
        assert_eq!(done, fast_done, "completions");
        assert_eq!(per_cycle.stats(), &fast_stats, "stats");
    }

    fn ops(banks: usize, rows: u64) -> impl Strategy<Value = Vec<Op>> {
        proptest::collection::vec(
            (
                prop_oneof![Just(0u64), Just(1u64), 0u64..6, 10u64..60],
                prop_oneof![Just(false), Just(true)],
                0..banks,
                0u64..rows,
                0u64..4,
            ),
            1..300,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random streams over few banks and rows, crossing the drain
        /// watermarks with refresh on: the bank-indexed scheduler issues
        /// the reference's command on every cycle.
        #[test]
        fn scheduler_matches_two_pass_reference(
            geometry in 0usize..4,
            stream in ops(8, 4),
        ) {
            // (ranks, banks per rank)
            let (ranks, banks) = [(1, 2), (1, 4), (2, 2), (2, 4)][geometry];
            let cfg = small_config(ranks, banks);
            assert_matches_reference(&cfg, &stream, 1500);
            assert_fast_forward_matches(&cfg, &stream, 1500);
        }

        /// The same check with 64 rows per bank, where nearly every
        /// request is a row miss: row commands, not column commands,
        /// decide most scans (the simulator's memory-bound regime issues
        /// about as many ACT+PRE as column commands). Ranks of eight banks
        /// activate often enough for tFAW, not only tRRD, to bind.
        #[test]
        fn scheduler_matches_reference_in_row_miss_regime(
            geometry in 0usize..4,
            stream in ops(16, 64),
        ) {
            let (ranks, banks) = [(1, 2), (1, 8), (2, 4), (2, 8)][geometry];
            let cfg = config(ranks, banks, 64);
            // Nearly every request pays a precharge and an activate, up to
            // tRC per request when the stream keeps to one bank.
            let tail = 1500 + 40 * stream.len() as u64;
            let mem = assert_matches_reference(&cfg, &stream, tail);
            let stats = mem.stats();
            prop_assert!(
                2 * stats.activates >= stats.bursts,
                "{} activates for {} bursts: not the row-miss regime",
                stats.activates,
                stats.bursts
            );
            assert_fast_forward_matches(&cfg, &stream, tail);
        }
    }

    #[test]
    fn completions_carry_the_eager_bank_ready_stamps() {
        // One rank of two banks and three rows per bank, reads with a
        // few writes, gaps from back-to-back to idle: reads arrive on an
        // open row, on an idle bank (activated in their arrival cycle)
        // and behind a conflict (activated later), and refreshes close
        // rows under waiting reads.
        let cfg = config(1, 2, 3);
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        let ops: Vec<Op> = (0..800)
            .map(|i| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let gap = [0, 1, 3, 30][(x >> 61) as usize % 4];
                (gap, i % 7 == 0, (x >> 40) as usize % 2, (x >> 20) % 3, (x >> 10) % 4)
            })
            .collect();
        let (_, stamps) = run_against_reference(&cfg, &ops, 2000, |_| {});
        assert!(
            stamps.arrived_open > 0 && stamps.arrived_at_act > 0 && stamps.waited_for_act > 0,
            "stamp cases not all seen: {} at arrival, {} at an ACT in the arrival cycle, \
             {} at a later ACT",
            stamps.arrived_open,
            stamps.arrived_at_act,
            stamps.waited_for_act
        );
    }

    #[test]
    fn channel_with_128_banks_matches_reference_and_fast_forward() {
        // 8 ranks × 16 banks: 128 banks in one channel, past any 64-bit
        // per-bank bitmap. Requests spread over every bank with row
        // conflicts and bursts that fill the queues.
        let mut cfg = small_config(8, 16);
        cfg.read_queue_capacity = 32;
        cfg.write_queue_capacity = 48;
        cfg.write_hi_watermark = 32;
        cfg.write_lo_watermark = 16;
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let ops: Vec<Op> = (0..3000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let gap = if i % 200 < 150 { 0 } else { (x >> 60) % 6 };
                (
                    gap,
                    (x >> 33).is_multiple_of(3),
                    ((x >> 40) % 128) as usize,
                    (x >> 20) % 4,
                    (x >> 10) % 4,
                )
            })
            .collect();
        let mem = assert_matches_reference(&cfg, &ops, 2000);
        assert!(
            mem.channels[0].details[64..].iter().any(|b| b.ready_act > 0),
            "banks past 64 never activated"
        );
        assert_fast_forward_matches(&cfg, &ops, 2000);
    }

    #[test]
    fn banks_past_64_empty_and_refill_against_reference() {
        // 8 ranks × 16 banks: banks 64..128 live in the occupancy set's
        // second word. A burst over every bank, then a long stretch on
        // banks 0..64 only (the second word drains to zero while the first
        // stays busy), then a burst on banks 64..128 that refills it.
        let mut cfg = small_config(8, 16);
        cfg.read_queue_capacity = 32;
        cfg.write_queue_capacity = 48;
        cfg.write_hi_watermark = 32;
        cfg.write_lo_watermark = 16;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut op = |banks: std::ops::Range<usize>, gap: u64| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (
                (x >> 60) % (gap + 1),
                (x >> 33).is_multiple_of(3),
                banks.start + ((x >> 40) as usize % banks.len()),
                (x >> 20) % 4,
                (x >> 10) % 4,
            )
        };
        let mut ops: Vec<Op> = (0..400).map(|_| op(0..128, 1)).collect();
        ops.extend((0..1200).map(|_| op(0..64, 4)));
        ops.extend((0..400).map(|_| op(64..128, 1)));
        // 0: second word not yet busy; 1: busy; 2: empty while the first
        // word is busy; 3: busy again.
        let mut phase = 0;
        let mem = assert_matches_reference_observing(&cfg, &ops, 2000, |ch| {
            let (low, high) = (ch.occupied[0], ch.occupied[1]);
            phase = match (phase, low != 0, high != 0) {
                (0, _, true) => 1,
                (1, true, false) => 2,
                (2, _, true) => 3,
                (p, _, _) => p,
            };
        });
        assert_eq!(phase, 3, "banks 64..128 never emptied and refilled");
        assert_eq!(mem.channels[0].occupied, [0, 0], "queues drained at the end");
        assert_fast_forward_matches(&cfg, &ops, 2000);
    }
}
