//! Per-channel DRAM state: banks, ranks, queues and the FR-FCFS scheduler.
//!
//! Scheduling policy (the USIMM baseline scheduler):
//!
//! * Reads have priority; writes buffer in a write queue and drain in
//!   batches between a high and a low watermark (posted writes).
//! * FR-FCFS: among the serviced queue, ready row-hit column commands issue
//!   first (oldest first); otherwise the oldest request's precharge or
//!   activate issues, provided no younger request still wants the open row.
//! * One command per channel per cycle; all DDR3 bank/rank/bus timing
//!   constraints (tRCD/tRP/tRAS/tRC/tCCD/tRRD/tFAW/tWR/tWTR/tRTP/refresh and
//!   data-bus occupancy with direction-switch penalties) are enforced.
//!
//! Every bank counts the queued requests that target it and, of those, the
//! row hits, per queue. Whether a bank can issue anything is then a
//! bank-level question, so a scan first asks it of every bank and only
//! walks the queue (once, oldest first) when some bank can; the issue
//! horizon is a minimum over banks rather than over queued requests.

use std::collections::VecDeque;

use crate::config::{DramConfig, TimingParams};
use crate::mapping::DramLocation;
use crate::request::{AccessKind, Completion, Request, RequestClass};
use crate::stats::DramStats;

#[cfg(test)]
mod reference;

#[derive(Debug, Clone, Copy)]
struct Bank {
    open_row: Option<u64>,
    ready_act: u64,
    ready_col: u64,
    ready_pre: u64,
    /// Queued requests that target this bank, per queue (indexed by
    /// [`qi`]).
    queued: [u32; 2],
    /// Of `queued`, those that target `open_row`; zero while the bank is
    /// closed.
    hits: [u32; 2],
}

impl Bank {
    fn new() -> Self {
        Self {
            open_row: None,
            ready_act: 0,
            ready_col: 0,
            ready_pre: 0,
            queued: [0; 2],
            hits: [0; 2],
        }
    }

    /// True while a request in either queue targets the open row, which
    /// blocks the bank's precharge (row-hit friendliness).
    fn has_hit(&self) -> bool {
        self.hits[0] + self.hits[1] > 0
    }

    /// True when some queued request needs a row command (PRE or ACT).
    fn has_miss(&self) -> bool {
        self.queued[0] + self.queued[1] > self.hits[0] + self.hits[1]
    }
}

/// Index of `kind`'s queue in the per-bank count arrays.
fn qi(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Read => 0,
        AccessKind::Write => 1,
    }
}

/// Cycles from a column command to its data burst.
fn lead(t: &TimingParams, kind: AccessKind) -> u64 {
    match kind {
        AccessKind::Read => t.t_cas,
        AccessKind::Write => t.t_cwd,
    }
}

#[derive(Debug, Clone)]
struct Rank {
    /// ACT timestamps inside the rolling tFAW window.
    act_window: VecDeque<u64>,
    last_act: u64,
    next_refresh: u64,
}

/// A queued request: the scheduler reads `bank` and `row` (kept first and
/// small so a queue walk touches one cache line per entry); the rest is
/// echoed in the completion.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Flat index of the target bank in [`Channel::banks`].
    bank: usize,
    row: u64,
    id: u64,
    addr: u64,
    class: RequestClass,
    enqueue_cycle: u64,
    /// When the row serving this request became usable: stamped at
    /// enqueue if the row was already open, at ACT completion otherwise;
    /// cleared when a precharge or refresh closes the row again. Pure
    /// bookkeeping for cycle attribution — never consulted by the
    /// scheduler.
    bank_ready: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct PendingCompletion {
    at: u64,
    id: u64,
    addr: u64,
    class: RequestClass,
    latency: u64,
    issue_cycle: u64,
    enqueue_cycle: u64,
    bank_ready_cycle: u64,
}

/// A command the FR-FCFS scan found issueable this cycle.
#[derive(Debug, Clone, Copy)]
enum Candidate {
    /// Column command for queue `kind`, request index `idx`.
    Col(AccessKind, usize),
    /// Activation of `row` in flat bank `bank`.
    Act { bank: usize, row: u64 },
    /// Precharge of flat bank `bank`.
    Pre(usize),
}

/// One DRAM channel with its queues and device state.
#[derive(Debug, Clone)]
pub(crate) struct Channel {
    /// Every bank of the channel, rank-major: `rank * banks_per_rank + bank`.
    banks: Vec<Bank>,
    banks_per_rank: usize,
    ranks: Vec<Rank>,
    read_q: VecDeque<Queued>,
    write_q: VecDeque<Queued>,
    pending: Vec<PendingCompletion>,
    draining: bool,
    bus_free_at: u64,
    last_bus_op: Option<AccessKind>,
    /// A lower bound on the next cycle at which any queued command could
    /// legally issue, `u64::MAX` with both queues empty. Recomputed after
    /// every scan (whether or not it issued), lowered by each enqueue to
    /// cover the new request's bank, and zeroed by a refresh to force a
    /// scan in the same tick. While `cycle < issue_horizon`, the FR-FCFS
    /// scan is provably fruitless and skipped.
    issue_horizon: u64,
    /// Ticks whose FR-FCFS scan `issue_horizon` skipped (observability).
    scan_skips: u64,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let ranks = (0..cfg.ranks_per_channel)
            .map(|_| Rank {
                act_window: VecDeque::new(),
                last_act: 0,
                next_refresh: cfg.timing.t_refi,
            })
            .collect();
        Self {
            banks: vec![Bank::new(); cfg.ranks_per_channel * cfg.banks_per_rank],
            banks_per_rank: cfg.banks_per_rank,
            ranks,
            read_q: VecDeque::new(),
            write_q: VecDeque::new(),
            pending: Vec::new(),
            draining: false,
            bus_free_at: 0,
            last_bus_op: None,
            issue_horizon: u64::MAX,
            scan_skips: 0,
        }
    }

    pub(crate) fn read_queue_len(&self) -> usize {
        self.read_q.len()
    }

    pub(crate) fn write_queue_len(&self) -> usize {
        self.write_q.len()
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.read_q.len() + self.write_q.len() + self.pending.len()
    }

    /// Queues `req` at `cycle` (the next cycle to be ticked) and returns
    /// the earliest cycle at which this channel's next tick may now have
    /// work: the caller's cached event horizon must drop to it.
    pub(crate) fn enqueue(
        &mut self,
        req: Request,
        loc: DramLocation,
        cycle: u64,
        cfg: &DramConfig,
    ) -> u64 {
        let b = loc.rank * self.banks_per_rank + loc.bank;
        let bank = &mut self.banks[b];
        let hit = bank.open_row == Some(loc.row);
        bank.queued[qi(req.kind)] += 1;
        if hit {
            bank.hits[qi(req.kind)] += 1;
        }
        // Attribution bookkeeping: a request arriving to an already-open
        // row never waits on the bank at all.
        let q = Queued {
            bank: b,
            row: loc.row,
            id: req.id,
            addr: req.addr,
            class: req.class,
            enqueue_cycle: cycle,
            bank_ready: hit.then_some(cycle),
        };
        match req.kind {
            AccessKind::Read => self.read_q.push_back(q),
            AccessKind::Write => self.write_q.push_back(q),
        }
        self.debug_check_counts(b);
        // The horizon already bounds every other request; the new one adds
        // the bound of its own next command. (As a row hit it may also
        // block its bank's precharge, which only makes the old horizon
        // conservative, never optimistic.)
        let t = &cfg.timing;
        let bank = &self.banks[b];
        let bound = match bank.open_row {
            _ if hit => bank.ready_col.max(self.col_floor(t, req.kind)),
            Some(_) if bank.has_hit() => u64::MAX,
            Some(_) => bank.ready_pre,
            None => bank.ready_act.max(self.act_floor(t, loc.rank, cycle)),
        };
        self.issue_horizon = self.issue_horizon.min(bound.max(cycle));
        if self.drain_flip_pending(cfg) {
            cycle
        } else {
            self.issue_horizon
        }
    }

    pub(crate) fn scan_skips(&self) -> u64 {
        self.scan_skips
    }

    /// The earliest cycle, at or after `now` (the next cycle to be
    /// ticked), at which this channel's next tick can do anything: a
    /// pending read completing, a refresh deadline, a write-drain
    /// watermark crossing not yet acted on, or a queued command becoming
    /// issueable. Queue occupancy only moves when a command issues or the
    /// caller enqueues, and both update the horizon. Returns `u64::MAX`
    /// when nothing is pending at all.
    pub(crate) fn next_event_cycle(&self, cfg: &DramConfig, now: u64) -> u64 {
        if self.drain_flip_pending(cfg) {
            return now;
        }
        let mut event = self.issue_horizon;
        for p in &self.pending {
            event = event.min(p.at);
        }
        if cfg.timing.t_refi != 0 {
            for r in &self.ranks {
                event = event.min(r.next_refresh);
            }
        }
        event
    }

    /// Advances one memory cycle: retires finished reads, handles refresh,
    /// and issues at most one DRAM command.
    pub(crate) fn tick(
        &mut self,
        cycle: u64,
        cfg: &DramConfig,
        completions: &mut Vec<Completion>,
        stats: &mut DramStats,
    ) {
        self.retire(cycle, completions);
        self.handle_refresh(cycle, &cfg.timing, stats);
        self.update_drain_mode(cfg);
        if cycle < self.issue_horizon {
            // The horizon proves no command can issue before it, and
            // nothing has lowered it since.
            debug_assert!(
                self.find_candidate(cycle, &cfg.timing).is_none(),
                "issue horizon skipped over a ready command at cycle {cycle}"
            );
            self.scan_skips += 1;
            return;
        }
        if let Some(c) = self.find_candidate(cycle, &cfg.timing) {
            self.issue(cycle, &cfg.timing, stats, c);
        }
        self.issue_horizon = self.next_issue_cycle(cycle + 1, &cfg.timing);
    }

    /// Moves reads whose data has arrived by `cycle` to `completions`.
    fn retire(&mut self, cycle: u64, completions: &mut Vec<Completion>) {
        let mut i = 0;
        while i < self.pending.len() {
            if self.pending[i].at <= cycle {
                let p = self.pending.swap_remove(i);
                completions.push(Completion {
                    id: p.id,
                    addr: p.addr,
                    class: p.class,
                    latency: p.latency,
                    issue_cycle: p.issue_cycle,
                    enqueue_cycle: p.enqueue_cycle,
                    bank_ready_cycle: p.bank_ready_cycle,
                });
            } else {
                i += 1;
            }
        }
    }

    fn issue(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, c: Candidate) {
        match c {
            Candidate::Col(kind, idx) => self.issue_col_command(cycle, t, stats, kind, idx),
            Candidate::Act { bank, row } => self.issue_act(cycle, t, stats, bank, row),
            Candidate::Pre(bank) => self.issue_pre(cycle, t, stats, bank),
        }
    }

    /// True when nothing can happen in this channel's tick at `cycle`
    /// (debug check of a tick the memory system skipped).
    pub(crate) fn is_quiet_at(&self, cycle: u64, cfg: &DramConfig) -> bool {
        self.pending.iter().all(|p| p.at > cycle)
            && (cfg.timing.t_refi == 0 || self.ranks.iter().all(|r| r.next_refresh > cycle))
            && !self.drain_flip_pending(cfg)
            && self.find_candidate(cycle, &cfg.timing).is_none()
    }

    fn handle_refresh(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats) {
        if t.t_refi == 0 {
            return;
        }
        for (r, rank) in self.ranks.iter_mut().enumerate() {
            if cycle >= rank.next_refresh {
                // Close all rows and lock the rank for tRFC.
                let banks = r * self.banks_per_rank..(r + 1) * self.banks_per_rank;
                for bank in &mut self.banks[banks.clone()] {
                    bank.open_row = None;
                    bank.hits = [0; 2];
                    bank.ready_act = bank.ready_act.max(cycle + t.t_rfc);
                }
                // Attribution: every waiter in the rank must reacquire its
                // row after the refresh window.
                for q in self.read_q.iter_mut().filter(|q| banks.contains(&q.bank)) {
                    q.bank_ready = None;
                }
                rank.next_refresh += t.t_refi;
                stats.refreshes += 1;
                // Closed rows flip column candidates into ACT candidates:
                // rescan this tick.
                self.issue_horizon = 0;
            }
        }
    }

    fn update_drain_mode(&mut self, cfg: &DramConfig) {
        if self.write_q.len() >= cfg.write_hi_watermark {
            self.draining = true;
        } else if self.write_q.len() <= cfg.write_lo_watermark {
            self.draining = false;
        }
    }

    /// True when the next tick's [`Self::update_drain_mode`] would flip
    /// the drain mode.
    fn drain_flip_pending(&self, cfg: &DramConfig) -> bool {
        if self.draining {
            self.write_q.len() <= cfg.write_lo_watermark
        } else {
            self.write_q.len() >= cfg.write_hi_watermark
        }
    }

    fn queue(&self, kind: AccessKind) -> &VecDeque<Queued> {
        match kind {
            AccessKind::Read => &self.read_q,
            AccessKind::Write => &self.write_q,
        }
    }

    /// The command the scheduler would issue this cycle, if any.
    ///
    /// Service order: the drained queue first, then the other when the
    /// primary can make no progress this cycle. The fallback matters
    /// beyond opportunism: a queued write that row-hits an open row
    /// blocks the precharge a queued read needs (row-hit friendliness),
    /// so the write must be allowed to issue or the pair deadlocks
    /// until a refresh closes the row.
    fn find_candidate(&self, cycle: u64, t: &TimingParams) -> Option<Candidate> {
        let primary = if self.draining || self.read_q.is_empty() {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let secondary = match primary {
            AccessKind::Read => AccessKind::Write,
            AccessKind::Write => AccessKind::Read,
        };
        self.find_candidate_for_queue(cycle, t, primary)
            .or_else(|| self.find_candidate_for_queue(cycle, t, secondary))
    }

    /// FR-FCFS over `kind`'s queue: the oldest request whose column
    /// command is ready, else the oldest request whose bank accepts its
    /// row command.
    ///
    /// Both readiness tests are bank-level: a column command needs a row
    /// hit on a bank past `ready_col` (plus a bus free for `kind`), a row
    /// command a miss on a bank whose PRE or ACT is allowed. A pre-check
    /// over the banks' counts settles which of the two the queue holds,
    /// so the queue is walked at most once and not at all when no bank
    /// can issue.
    fn find_candidate_for_queue(
        &self,
        cycle: u64,
        t: &TimingParams,
        kind: AccessKind,
    ) -> Option<Candidate> {
        let k = qi(kind);
        let bus_ok = cycle + lead(t, kind) >= self.bus_ready(t, kind);
        let col_ready = |bank: &Bank| cycle >= bank.ready_col;
        let mut any_col = false;
        let mut any_row = false;
        for (b, bank) in self.banks.iter().enumerate() {
            if bus_ok && bank.hits[k] > 0 && col_ready(bank) {
                any_col = true;
                break;
            }
            any_row = any_row
                || (bank.queued[k] > bank.hits[k] && self.row_command_ready(cycle, t, b));
        }
        if any_col {
            self.queue(kind).iter().position(|q| {
                let bank = &self.banks[q.bank];
                bank.open_row == Some(q.row) && col_ready(bank)
            })
            .map(|idx| Candidate::Col(kind, idx))
        } else if any_row {
            self.queue(kind).iter().find_map(|q| {
                let bank = &self.banks[q.bank];
                if bank.open_row == Some(q.row) || !self.row_command_ready(cycle, t, q.bank) {
                    None
                } else if bank.open_row.is_some() {
                    Some(Candidate::Pre(q.bank))
                } else {
                    Some(Candidate::Act { bank: q.bank, row: q.row })
                }
            })
        } else {
            None
        }
    }

    /// Whether bank `b` accepts its row command for a missing request this
    /// cycle: a precharge once `ready_pre` passed and no queued request
    /// still hits the open row, an activate once the bank and rank allow.
    fn row_command_ready(&self, cycle: u64, t: &TimingParams, b: usize) -> bool {
        let bank = &self.banks[b];
        match bank.open_row {
            Some(_) => cycle >= bank.ready_pre && !bank.has_hit(),
            None => {
                let r = b / self.banks_per_rank;
                cycle >= bank.ready_act && self.act_floor(t, r, cycle) <= cycle
            }
        }
    }

    /// A conservative lower bound (≥ `from`) on the next cycle at which
    /// any queued command could issue, assuming no external state change
    /// (issues and refreshes recompute [`Self::issue_horizon`], enqueues
    /// lower it). `u64::MAX` when both queues are empty.
    fn next_issue_cycle(&self, from: u64, t: &TimingParams) -> u64 {
        if self.read_q.is_empty() && self.write_q.is_empty() {
            return u64::MAX;
        }
        let col_floor = [AccessKind::Read, AccessKind::Write].map(|kind| self.col_floor(t, kind));
        let mut earliest = u64::MAX;
        for r in 0..self.ranks.len() {
            let mut act_floor = None;
            for b in r * self.banks_per_rank..(r + 1) * self.banks_per_rank {
                let bound = self.bank_bound(b, col_floor, || {
                    *act_floor.get_or_insert_with(|| self.act_floor(t, r, from))
                });
                earliest = earliest.min(bound);
            }
        }
        earliest.max(from)
    }

    /// The earliest cycle bank `b` could issue a command for a request it
    /// holds: a column command per queue with row hits (`col_floor` is
    /// that queue's data-bus floor), a precharge when a miss waits on an
    /// open row nobody hits, or an activate (`act_floor` supplies the
    /// rank's tRRD/tFAW floor) when a miss waits on a closed bank. A
    /// precharge blocked by row-hit friendliness contributes no bound of
    /// its own: it can only unblock when the hitting request issues, and
    /// the horizon is recomputed then.
    fn bank_bound(&self, b: usize, col_floor: [u64; 2], act_floor: impl FnOnce() -> u64) -> u64 {
        let bank = &self.banks[b];
        let mut bound = u64::MAX;
        for (hits, floor) in bank.hits.into_iter().zip(col_floor) {
            if hits > 0 {
                bound = bound.min(bank.ready_col.max(floor));
            }
        }
        if bank.has_miss() {
            match bank.open_row {
                Some(_) if bank.has_hit() => {}
                Some(_) => bound = bound.min(bank.ready_pre),
                None => bound = bound.min(bank.ready_act.max(act_floor())),
            }
        }
        bound
    }

    /// The earliest cycle a column command of `kind` may issue given the
    /// data bus (its burst must not start before the bus is ready).
    fn col_floor(&self, t: &TimingParams, kind: AccessKind) -> u64 {
        self.bus_ready(t, kind).saturating_sub(lead(t, kind))
    }

    /// A lower bound on the first cycle at or after `from` at which rank
    /// `r`'s tRRD spacing and tFAW window allow an activate (0 when they
    /// impose nothing); the rank allows one at `from` itself exactly when
    /// the bound is at most `from`.
    fn act_floor(&self, t: &TimingParams, r: usize, from: u64) -> u64 {
        let rank = &self.ranks[r];
        let mut c = 0;
        if rank.last_act != 0 {
            c = rank.last_act + t.t_rrd;
        }
        let mut in_window = 0usize;
        let mut oldest = u64::MAX;
        for &at in &rank.act_window {
            if at + t.t_faw > from {
                in_window += 1;
                oldest = oldest.min(at);
            }
        }
        if in_window >= 4 {
            // The oldest in-window ACT expiring frees a tFAW slot.
            c = c.max(oldest + t.t_faw);
        }
        c
    }

    /// Earliest cycle the data bus can start a burst of `kind`, including
    /// any turnaround/WTR penalty versus the last burst.
    fn bus_ready(&self, t: &TimingParams, kind: AccessKind) -> u64 {
        let mut bus_ready = self.bus_free_at;
        if let Some(last) = self.last_bus_op {
            if last != kind {
                bus_ready += t.t_turnaround;
                if last == AccessKind::Write && kind == AccessKind::Read {
                    bus_ready += t.t_wtr;
                }
            }
        }
        bus_ready
    }

    /// Debug check: bank `b`'s counts equal a recount of both queues.
    fn debug_check_counts(&self, b: usize) {
        debug_assert_eq!(
            (self.banks[b].queued, self.banks[b].hits),
            self.recount(b),
            "bank {b} counts drifted from its queued requests"
        );
    }

    /// `(queued, hits)` of bank `b`, counted from the queues.
    fn recount(&self, b: usize) -> ([u32; 2], [u32; 2]) {
        let open = self.banks[b].open_row;
        let mut queued = [0; 2];
        let mut hits = [0; 2];
        for (k, q) in [&self.read_q, &self.write_q].into_iter().enumerate() {
            for q in q.iter().filter(|q| q.bank == b) {
                queued[k] += 1;
                hits[k] += u32::from(open == Some(q.row));
            }
        }
        (queued, hits)
    }

    fn issue_act(
        &mut self,
        cycle: u64,
        t: &TimingParams,
        stats: &mut DramStats,
        b: usize,
        row: u64,
    ) {
        let bank = &mut self.banks[b];
        bank.open_row = Some(row);
        bank.ready_col = cycle + t.t_rcd;
        bank.ready_pre = bank.ready_pre.max(cycle + t.t_ras);
        bank.ready_act = cycle + t.t_rc;
        let rank = &mut self.ranks[b / self.banks_per_rank];
        rank.last_act = cycle;
        rank.act_window.push_back(cycle);
        while rank.act_window.len() > 4 {
            rank.act_window.pop_front();
        }
        stats.activates += 1;
        // Recount the bank's row hits against the new open row, and
        // (attribution) give every unstamped read waiting on it its row at
        // tRCD after the activate.
        let ready = cycle + t.t_rcd;
        let mut hits = [0; 2];
        for q in self.read_q.iter_mut().filter(|q| q.bank == b && q.row == row) {
            q.bank_ready.get_or_insert(ready);
            hits[0] += 1;
        }
        hits[1] = self.write_q.iter().filter(|q| q.bank == b && q.row == row).count() as u32;
        self.banks[b].hits = hits;
        self.debug_check_counts(b);
    }

    fn issue_pre(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, b: usize) {
        let bank = &mut self.banks[b];
        // PRE issues now; `cycle >= ready_pre` was checked by the caller.
        bank.open_row = None;
        bank.hits = [0; 2];
        bank.ready_act = bank.ready_act.max(cycle + t.t_rp);
        stats.precharges += 1;
        // Attribution: waiters on this bank lose their open row (a stamped
        // waiter on the *closed* row goes back to waiting on the bank; a
        // waiter on another row never had a stamp).
        for q in self.read_q.iter_mut().filter(|q| q.bank == b) {
            q.bank_ready = None;
        }
        self.debug_check_counts(b);
    }

    fn issue_col_command(
        &mut self,
        cycle: u64,
        t: &TimingParams,
        stats: &mut DramStats,
        kind: AccessKind,
        idx: usize,
    ) {
        let q = match kind {
            AccessKind::Read => self.read_q.remove(idx),
            AccessKind::Write => self.write_q.remove(idx),
        }
        .expect("candidate index valid");
        let bank = &mut self.banks[q.bank];
        bank.queued[qi(kind)] -= 1;
        bank.hits[qi(kind)] -= 1;
        bank.ready_col = cycle + t.t_ccd;

        match kind {
            AccessKind::Read => {
                let done = cycle + t.t_cas + t.t_burst;
                bank.ready_pre = bank.ready_pre.max(cycle + t.t_rtp);
                self.bus_free_at = done;
                // An unstamped request here means its ACT predates the
                // stamping bookkeeping (can't happen via `enqueue`/
                // `issue_act`, but be defensive); clamp keeps the
                // enqueue ≤ bank_ready ≤ issue invariant unconditional.
                let bank_ready =
                    q.bank_ready.unwrap_or(cycle).clamp(q.enqueue_cycle, cycle);
                self.pending.push(PendingCompletion {
                    at: done,
                    id: q.id,
                    addr: q.addr,
                    class: q.class,
                    latency: done - q.enqueue_cycle,
                    issue_cycle: cycle,
                    enqueue_cycle: q.enqueue_cycle,
                    bank_ready_cycle: bank_ready,
                });
                stats.record_read(q.class, done - q.enqueue_cycle);
            }
            AccessKind::Write => {
                let data_end = cycle + t.t_cwd + t.t_burst;
                bank.ready_pre = bank.ready_pre.max(data_end + t.t_wr);
                self.bus_free_at = data_end;
                stats.record_write(q.class, data_end - q.enqueue_cycle);
            }
        }
        stats.bursts += 1;
        stats.busy_cycles += t.t_burst;
        self.last_bus_op = Some(kind);
        self.debug_check_counts(q.bank);
    }
}
