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
//! Both queues live in one fixed slab per channel, sized once to the two
//! queue capacities. Each request carries a scan key fixed at enqueue,
//! its channel sequence number (its age) with its bank in the low bits,
//! and sits on its bank's list for its queue, oldest first. Each bank
//! keeps, per queue, the keys of its oldest request and of its oldest
//! request that hits the open row, plus the cycles from which its column
//! command and its row command may issue. The request a bank would serve
//! is one of those two, so a scan is one pass over the occupied banks
//! (a per-channel bitset names the banks holding queued requests) taking
//! the smallest key among the ready ones, and the issue horizon is a
//! minimum over those banks rather than over queued requests. Only an
//! ACT (new open row) and a column command (next hit) walk one bank's
//! list.
//!
//! Every read's data arrives a fixed `tCAS + tBurst` after its column
//! command, and at most one command issues per cycle, so in-flight reads
//! complete in issue order: they wait in a FIFO whose front is the next
//! completion.

use std::collections::VecDeque;

use crate::config::{DramConfig, TimingParams};
use crate::mapping::DramLocation;
use crate::request::{AccessKind, Completion, Request, RequestClass};
use crate::stats::DramStats;

#[cfg(test)]
mod reference;

/// End of a list (and of the free list): no slab slot.
const NIL: u32 = u32::MAX;

/// [`BankDetail::open_row`] of a precharged bank (no row is this large).
const CLOSED: u64 = u64::MAX;

/// The scan key of a request that does not exist, and the cycle of a
/// command that cannot issue.
const NONE: u64 = u64::MAX;

/// What the scheduler's scans read of one bank: per queue (indexed by
/// [`qi`]) the scan keys of its oldest queued request and of its oldest
/// row hit, and the cycles from which its column command and its row
/// command may issue.
#[derive(Debug, Clone, Copy)]
struct Bank {
    /// Scan key of the bank's oldest queued request, [`NONE`] when it
    /// has none.
    oldest: [u64; 2],
    /// Scan key of the bank's oldest queued request that targets the
    /// open row, [`NONE`] when none does (always, while closed).
    oldest_hit: [u64; 2],
    ready_col: u64,
    /// First cycle the bank's row command may issue: `ready_pre` while a
    /// row is open, the later of `ready_act` and the rank's activate floor
    /// while closed. [`NONE`] when the bank needs no row command: nothing
    /// is queued, or a queued row hit holds the open row (row-hit
    /// friendliness blocks the precharge). Kept by [`Channel::settle_row`].
    ready_row: u64,
}

/// The rest of a bank's state: its open row and row timing, and where its
/// requests sit in the slab.
#[derive(Debug, Clone, Copy)]
struct BankDetail {
    /// Index of the bank's rank in [`Channel::ranks`].
    rank: usize,
    /// The open row, [`CLOSED`] when precharged.
    open_row: u64,
    ready_act: u64,
    ready_pre: u64,
    /// Per queue: slab slots of the oldest and youngest queued request
    /// and of the oldest row hit, [`NIL`] when there is none.
    head: [u32; 2],
    tail: [u32; 2],
    hit: [u32; 2],
}

/// `x` when `cond` holds, else [`NONE`] (`u64::MAX`), as a conditional
/// move: a plain `if` compiles to branches on the scans' data-dependent
/// readiness tests, which measured slower in the benchmark's traced
/// `dram.tick_ns`.
fn if_ready(cond: bool, x: u64) -> u64 {
    std::hint::select_unpredictable(cond, x, NONE)
}

/// Index of `kind`'s queue in the per-bank arrays.
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

#[derive(Debug, Clone, Copy)]
struct Rank {
    /// The rank's last four ACTs, newest first (the tFAW window); `None`
    /// where the rank has activated fewer times.
    act_window: [Option<u64>; 4],
    /// The rank's activate floor, set at each ACT: the newest ACT
    /// `+ tRRD` (nothing after an ACT at cycle 0) and, with four ACTs on
    /// record, the oldest one `+ tFAW`. An activate may issue at `cycle`
    /// iff `act_floor <= cycle`; once the oldest ACT leaves the window its
    /// term lies at or before any cycle it is compared or clamped at.
    act_floor: u64,
    next_refresh: u64,
}

/// A queued request in the channel's slab. The scheduler reads `key`,
/// `row` and the links (kept together in the first 24 bytes); the rest is
/// echoed in the completion.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Scan key, fixed at enqueue: the channel sequence number (arrival
    /// order) shifted up by [`Channel::bank_bits`], with the flat bank
    /// index in the low bits. Sequence numbers are unique and stay below
    /// `2^(63 - bank_bits)`, so keys order as arrivals do (smaller is
    /// older), never reach [`NONE`], and the minimum of a scan names its
    /// bank.
    key: u64,
    row: u64,
    /// Younger and older neighbours on the bank's list for `kind`
    /// ([`NIL`] at the ends); `next` chains the free list in a free slot.
    next: u32,
    prev: u32,
    /// Flat index of the target bank in [`Channel::banks`].
    bank: u32,
    /// The queue holding the request; `None` for a free slot.
    kind: Option<AccessKind>,
    class: RequestClass,
    id: u64,
    addr: u64,
    enqueue_cycle: u64,
    /// When the row serving this request became usable: stamped at
    /// enqueue if the row was already open, at ACT completion otherwise;
    /// cleared when a precharge or refresh closes the row again. Pure
    /// bookkeeping for cycle attribution — never consulted by the
    /// scheduler.
    bank_ready: Option<u64>,
}

impl Queued {
    /// A free slot whose free-list successor is `next`.
    fn free(next: u32) -> Self {
        Self {
            key: 0,
            row: 0,
            next,
            prev: NIL,
            bank: 0,
            kind: None,
            class: RequestClass::Data,
            id: 0,
            addr: 0,
            enqueue_cycle: 0,
            bank_ready: None,
        }
    }
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
    /// Column command for queue `kind`, request in slab slot `slot`.
    Col(AccessKind, u32),
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
    /// The rest of each bank's state, indexed like `banks`.
    details: Vec<BankDetail>,
    banks_per_rank: usize,
    ranks: Vec<Rank>,
    /// Both queues' requests, sized once to the two capacities; free
    /// slots are chained from `free`.
    slab: Vec<Queued>,
    free: u32,
    /// Requests queued per queue.
    len: [usize; 2],
    /// One bit per bank (bit `b % 64` of word `b / 64`), set while the
    /// bank holds a queued request of either queue. The scans visit only
    /// these banks: every other bank's oldest keys and `ready_row` are
    /// [`NONE`], so it could add nothing to a minimum.
    occupied: Vec<u64>,
    /// Sequence number of the next request enqueued.
    next_seq: u64,
    /// `ceil(log2(banks))`: the low bits of a scan key that name its bank.
    bank_bits: u32,
    /// Issued reads awaiting their data, in completion order.
    pending: VecDeque<PendingCompletion>,
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
        let banks = cfg.ranks_per_channel * cfg.banks_per_rank;
        let bank = Bank { oldest: [NONE; 2], oldest_hit: [NONE; 2], ready_col: 0, ready_row: NONE };
        let details = (0..banks)
            .map(|b| BankDetail {
                rank: b / cfg.banks_per_rank,
                open_row: CLOSED,
                ready_act: 0,
                ready_pre: 0,
                head: [NIL; 2],
                tail: [NIL; 2],
                hit: [NIL; 2],
            })
            .collect();
        let rank = Rank {
            act_window: [None; 4],
            act_floor: 0,
            next_refresh: cfg.timing.t_refi,
        };
        let slots = u32::try_from(cfg.read_queue_capacity + cfg.write_queue_capacity)
            .expect("validated: queue capacities fit a u32 slab index");
        Self {
            banks: vec![bank; banks],
            details,
            banks_per_rank: cfg.banks_per_rank,
            ranks: vec![rank; cfg.ranks_per_channel],
            slab: (1..=slots)
                .map(|next| Queued::free(if next < slots { next } else { NIL }))
                .collect(),
            free: if slots > 0 { 0 } else { NIL },
            len: [0; 2],
            occupied: vec![0; banks.div_ceil(64)],
            next_seq: 0,
            bank_bits: banks.next_power_of_two().trailing_zeros(),
            pending: VecDeque::with_capacity(cfg.read_queue_capacity),
            draining: false,
            bus_free_at: 0,
            last_bus_op: None,
            issue_horizon: u64::MAX,
            scan_skips: 0,
        }
    }

    pub(crate) fn read_queue_len(&self) -> usize {
        self.len[0]
    }

    pub(crate) fn write_queue_len(&self) -> usize {
        self.len[1]
    }

    pub(crate) fn in_flight(&self) -> usize {
        self.len[0] + self.len[1] + self.pending.len()
    }

    /// Queues `req` at `cycle` (the next cycle to be ticked) and returns
    /// the earliest cycle at which this channel's next tick may now have
    /// work: the caller's cached event horizon must drop to it. The
    /// caller keeps each queue within its capacity.
    pub(crate) fn enqueue(
        &mut self,
        req: Request,
        loc: DramLocation,
        cycle: u64,
        cfg: &DramConfig,
    ) -> u64 {
        let b = loc.rank * self.banks_per_rank + loc.bank;
        let k = qi(req.kind);
        let seq = self.next_seq;
        debug_assert!(
            seq.leading_zeros() > self.bank_bits,
            "sequence number {seq} overflows a scan key"
        );
        self.next_seq += 1;
        let key = seq << self.bank_bits | b as u64;
        let s = self.free;
        assert_ne!(s, NIL, "enqueue past the channel's queue capacity");
        self.free = self.slab[s as usize].next;
        self.len[k] += 1;
        self.occupied[b / 64] |= 1 << (b % 64);
        let (bank, detail) = (&mut self.banks[b], &mut self.details[b]);
        let hit = detail.open_row == loc.row;
        let tail = detail.tail[k];
        if tail == NIL {
            detail.head[k] = s;
            bank.oldest[k] = key;
        } else {
            self.slab[tail as usize].next = s;
        }
        detail.tail[k] = s;
        if hit && detail.hit[k] == NIL {
            detail.hit[k] = s;
            bank.oldest_hit[k] = key;
        }
        // Attribution bookkeeping: a request arriving to an already-open
        // row never waits on the bank at all.
        self.slab[s as usize] = Queued {
            key,
            row: loc.row,
            next: NIL,
            prev: tail,
            bank: b as u32,
            kind: Some(req.kind),
            class: req.class,
            id: req.id,
            addr: req.addr,
            enqueue_cycle: cycle,
            bank_ready: hit.then_some(cycle),
        };
        self.settle_row(b);
        self.debug_check_bank(b);
        // The horizon already bounds every other request; the new one adds
        // the bound of its own next command. (As a row hit it may also
        // block its bank's precharge, which only makes the old horizon
        // conservative, never optimistic.)
        let bound = if hit {
            self.banks[b].ready_col.max(self.col_floor(&cfg.timing, req.kind))
        } else {
            self.banks[b].ready_row
        };
        self.issue_horizon = self.issue_horizon.min(bound.max(cycle));
        if self.drain_flip_pending(cfg) {
            cycle
        } else {
            self.issue_horizon
        }
    }

    /// Takes slot `s` off its bank's list and returns it to the free list;
    /// a bank left with no queued request leaves the occupied set.
    fn unlink(&mut self, s: u32) -> Queued {
        let q = self.slab[s as usize];
        let k = qi(q.kind.expect("unlinking a queued request"));
        let b = q.bank as usize;
        let detail = &mut self.details[b];
        match q.prev {
            NIL => {
                detail.head[k] = q.next;
                self.banks[b].oldest[k] = match q.next {
                    NIL => NONE,
                    next => self.slab[next as usize].key,
                };
            }
            prev => self.slab[prev as usize].next = q.next,
        }
        match q.next {
            NIL => detail.tail[k] = q.prev,
            next => self.slab[next as usize].prev = q.prev,
        }
        if detail.head == [NIL; 2] {
            self.occupied[b / 64] &= !(1 << (b % 64));
        }
        self.slab[s as usize] = Queued::free(self.free);
        self.free = s;
        self.len[k] -= 1;
        q
    }

    /// Points bank `b`'s oldest hit for queue `k` at the first request on
    /// its list, from slot `s` on, that targets the open row.
    fn seek_hit(&mut self, b: usize, k: usize, mut s: u32) {
        let row = self.details[b].open_row;
        while s != NIL && self.slab[s as usize].row != row {
            s = self.slab[s as usize].next;
        }
        self.details[b].hit[k] = s;
        self.banks[b].oldest_hit[k] = match s {
            NIL => NONE,
            s => self.slab[s as usize].key,
        };
    }

    /// Calls `f` with each occupied bank, ascending.
    #[inline]
    fn for_each_occupied(&self, mut f: impl FnMut(&Bank)) {
        for (base, &word) in (0..).step_by(64).zip(&self.occupied) {
            let mut bits = word;
            while bits != 0 {
                f(&self.banks[base + bits.trailing_zeros() as usize]);
                bits &= bits - 1;
            }
        }
    }

    /// Recomputes bank `b`'s [`Bank::ready_row`] after a change to its
    /// queue, its row or its rank's activate floor.
    fn settle_row(&mut self, b: usize) {
        let (bank, detail) = (&mut self.banks[b], &self.details[b]);
        bank.ready_row = if bank.oldest == [NONE; 2] || bank.oldest_hit != [NONE; 2] {
            NONE
        } else if detail.open_row != CLOSED {
            detail.ready_pre
        } else {
            detail.ready_act.max(self.ranks[detail.rank].act_floor)
        };
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
        if let Some(p) = self.pending.front() {
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
        while let Some(p) = self.pending.pop_front_if(|p| p.at <= cycle) {
            completions.push(Completion {
                id: p.id,
                addr: p.addr,
                class: p.class,
                latency: p.latency,
                issue_cycle: p.issue_cycle,
                enqueue_cycle: p.enqueue_cycle,
                bank_ready_cycle: p.bank_ready_cycle,
            });
        }
    }

    fn issue(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, c: Candidate) {
        match c {
            Candidate::Col(kind, s) => self.issue_col_command(cycle, t, stats, kind, s),
            Candidate::Act { bank, row } => self.issue_act(cycle, t, stats, bank, row),
            Candidate::Pre(bank) => self.issue_pre(cycle, t, stats, bank),
        }
    }

    /// True when nothing can happen in this channel's tick at `cycle`
    /// (debug check of a tick the memory system skipped).
    pub(crate) fn is_quiet_at(&self, cycle: u64, cfg: &DramConfig) -> bool {
        self.pending.front().is_none_or(|p| p.at > cycle)
            && (cfg.timing.t_refi == 0 || self.ranks.iter().all(|r| r.next_refresh > cycle))
            && !self.drain_flip_pending(cfg)
            && self.find_candidate(cycle, &cfg.timing).is_none()
    }

    fn handle_refresh(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats) {
        if t.t_refi == 0 {
            return;
        }
        for r in 0..self.ranks.len() {
            if cycle < self.ranks[r].next_refresh {
                continue;
            }
            // Close all rows and lock the rank for tRFC. (Attribution: every
            // waiter in the rank must reacquire its row after the refresh
            // window.)
            for b in r * self.banks_per_rank..(r + 1) * self.banks_per_rank {
                self.close_row(b, cycle + t.t_rfc);
            }
            self.ranks[r].next_refresh += t.t_refi;
            stats.refreshes += 1;
            // Closed rows flip column candidates into ACT candidates:
            // rescan this tick.
            self.issue_horizon = 0;
        }
    }

    /// Closes bank `b`'s row (precharge or refresh), holding its next
    /// activate until `ready_act` at the earliest: nothing hits any more,
    /// and (attribution) its queued reads lose their open row.
    fn close_row(&mut self, b: usize, ready_act: u64) {
        let detail = &mut self.details[b];
        detail.open_row = CLOSED;
        detail.ready_act = detail.ready_act.max(ready_act);
        detail.hit = [NIL; 2];
        self.banks[b].oldest_hit = [NONE; 2];
        let mut s = detail.head[0];
        while s != NIL {
            let q = &mut self.slab[s as usize];
            q.bank_ready = None;
            s = q.next;
        }
        self.settle_row(b);
    }

    fn update_drain_mode(&mut self, cfg: &DramConfig) {
        if self.len[1] >= cfg.write_hi_watermark {
            self.draining = true;
        } else if self.len[1] <= cfg.write_lo_watermark {
            self.draining = false;
        }
    }

    /// True when the next tick's [`Self::update_drain_mode`] would flip
    /// the drain mode.
    fn drain_flip_pending(&self, cfg: &DramConfig) -> bool {
        if self.draining {
            self.len[1] <= cfg.write_lo_watermark
        } else {
            self.len[1] >= cfg.write_hi_watermark
        }
    }

    /// The command the scheduler would issue this cycle, if any: FR-FCFS
    /// over the serviced queue (the oldest request whose column command is
    /// ready, else the oldest request whose bank accepts its row command),
    /// then over the other queue when the first can make no progress.
    ///
    /// The fallback matters beyond opportunism: a queued write that
    /// row-hits an open row blocks the precharge a queued read needs
    /// (row-hit friendliness), so the write must be allowed to issue or
    /// the pair deadlocks until a refresh closes the row.
    ///
    /// Every readiness test is bank-level: a column command needs a row
    /// hit on a bank past `ready_col` (plus a data bus free for its
    /// queue), a row command a bank past `ready_row`, which holds no row
    /// hit, so that its oldest request misses. One pass over the
    /// occupied banks (an empty bank offers only [`NONE`]) takes, per
    /// queue, the smallest scan key (see [`Queued::key`]) each kind of
    /// ready bank offers, so the minimum is the oldest request and also
    /// names its bank.
    fn find_candidate(&self, cycle: u64, t: &TimingParams) -> Option<Candidate> {
        // Per queue: the key of the oldest column-ready hit and of the
        // oldest request of a row-ready bank.
        let mut col = [NONE; 2];
        let mut row = [NONE; 2];
        self.for_each_occupied(|bank| {
            let col_ready = cycle >= bank.ready_col;
            let row_ready = cycle >= bank.ready_row;
            for k in 0..2 {
                col[k] = col[k].min(if_ready(col_ready, bank.oldest_hit[k]));
                row[k] = row[k].min(if_ready(row_ready, bank.oldest[k]));
            }
        });
        let bank_of = |key: u64| (key & ((1 << self.bank_bits) - 1)) as usize;
        let primary = if self.draining || self.len[0] == 0 {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let secondary = match primary {
            AccessKind::Read => AccessKind::Write,
            AccessKind::Write => AccessKind::Read,
        };
        [primary, secondary].into_iter().find_map(|kind| {
            let k = qi(kind);
            if col[k] != NONE && cycle + lead(t, kind) >= self.bus_ready(t, kind) {
                return Some(Candidate::Col(kind, self.details[bank_of(col[k])].hit[k]));
            }
            if row[k] == NONE {
                return None;
            }
            let b = bank_of(row[k]);
            let detail = &self.details[b];
            Some(if detail.open_row != CLOSED {
                Candidate::Pre(b)
            } else {
                Candidate::Act { bank: b, row: self.slab[detail.head[k] as usize].row }
            })
        })
    }

    /// A conservative lower bound (≥ `from`) on the next cycle at which
    /// any queued command could issue, assuming no external state change
    /// (issues and refreshes recompute [`Self::issue_horizon`], enqueues
    /// lower it). `u64::MAX` when both queues are empty.
    ///
    /// One pass over the occupied banks (an empty bank bounds nothing):
    /// per queue, the earliest `ready_col` of a bank with row hits
    /// (clamped once to the queue's data-bus floor), and the earliest
    /// `ready_row`. A precharge blocked by row-hit friendliness
    /// contributes no bound of its own: it can only unblock when the
    /// hitting request issues, and the horizon is recomputed then.
    fn next_issue_cycle(&self, from: u64, t: &TimingParams) -> u64 {
        if self.len == [0, 0] {
            return u64::MAX;
        }
        let mut col = [NONE; 2];
        let mut earliest = NONE;
        self.for_each_occupied(|bank| {
            for (col, &hit) in col.iter_mut().zip(&bank.oldest_hit) {
                *col = (*col).min(if_ready(hit != NONE, bank.ready_col));
            }
            earliest = earliest.min(bank.ready_row);
        });
        for (kind, col) in [AccessKind::Read, AccessKind::Write].into_iter().zip(col) {
            earliest = earliest.min(col.max(self.col_floor(t, kind)));
        }
        earliest.max(from)
    }

    /// The earliest cycle a column command of `kind` may issue given the
    /// data bus (its burst must not start before the bus is ready).
    fn col_floor(&self, t: &TimingParams, kind: AccessKind) -> u64 {
        self.bus_ready(t, kind).saturating_sub(lead(t, kind))
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

    /// Debug check: bank `b`'s oldest request and oldest row hit per
    /// queue, and its occupancy bit, equal a recount of the slab.
    fn debug_check_bank(&self, b: usize) {
        debug_assert_eq!(
            self.kept(b),
            self.recount(b),
            "bank {b} drifted from its queued requests"
        );
    }

    /// `(oldest, oldest_hit, occupied)` of bank `b` as the scans read it.
    fn kept(&self, b: usize) -> ([u64; 2], [u64; 2], bool) {
        let occupied = self.occupied[b / 64] >> (b % 64) & 1 != 0;
        (self.banks[b].oldest, self.banks[b].oldest_hit, occupied)
    }

    /// [`Self::kept`] recounted from every queued request in the slab
    /// (not from the bank's lists): the bank is occupied iff it has a
    /// queued request.
    fn recount(&self, b: usize) -> ([u64; 2], [u64; 2], bool) {
        let open = self.details[b].open_row;
        let mut oldest = [NONE; 2];
        let mut oldest_hit = [NONE; 2];
        let mut occupied = false;
        for q in self.slab.iter().filter(|q| q.bank as usize == b) {
            if let Some(kind) = q.kind {
                let k = qi(kind);
                occupied = true;
                oldest[k] = oldest[k].min(q.key);
                if q.row == open {
                    oldest_hit[k] = oldest_hit[k].min(q.key);
                }
            }
        }
        (oldest, oldest_hit, occupied)
    }

    fn issue_act(
        &mut self,
        cycle: u64,
        t: &TimingParams,
        stats: &mut DramStats,
        b: usize,
        row: u64,
    ) {
        let detail = &mut self.details[b];
        detail.open_row = row;
        detail.ready_pre = detail.ready_pre.max(cycle + t.t_ras);
        detail.ready_act = cycle + t.t_rc;
        self.banks[b].ready_col = cycle + t.t_rcd;
        let r = detail.rank;
        let rank = &mut self.ranks[r];
        rank.act_window.rotate_right(1);
        rank.act_window[0] = Some(cycle);
        let rrd = if cycle != 0 { cycle + t.t_rrd } else { 0 };
        rank.act_floor = rrd.max(rank.act_window[3].map_or(0, |oldest| oldest + t.t_faw));
        stats.activates += 1;
        // Attribution: every unstamped read waiting on the new row gets
        // its row at tRCD after the activate.
        let ready = cycle + t.t_rcd;
        let mut s = self.details[b].head[0];
        while s != NIL {
            let q = &mut self.slab[s as usize];
            if q.row == row {
                q.bank_ready.get_or_insert(ready);
            }
            s = q.next;
        }
        for k in 0..2 {
            self.seek_hit(b, k, self.details[b].head[k]);
        }
        // The new activate floor holds every closed bank of the rank.
        for b in r * self.banks_per_rank..(r + 1) * self.banks_per_rank {
            self.settle_row(b);
        }
        self.debug_check_bank(b);
    }

    fn issue_pre(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, b: usize) {
        // PRE issues now; `cycle >= ready_pre` was checked by the caller.
        // (Attribution: a stamped waiter on the closed row goes back to
        // waiting on the bank; a waiter on another row never had a stamp.)
        self.close_row(b, cycle + t.t_rp);
        stats.precharges += 1;
        self.debug_check_bank(b);
    }

    fn issue_col_command(
        &mut self,
        cycle: u64,
        t: &TimingParams,
        stats: &mut DramStats,
        kind: AccessKind,
        s: u32,
    ) {
        let b = self.slab[s as usize].bank as usize;
        let k = qi(kind);
        debug_assert_eq!(self.details[b].hit[k], s, "column command for a younger hit");
        self.seek_hit(b, k, self.slab[s as usize].next);
        let q = self.unlink(s);
        self.banks[b].ready_col = cycle + t.t_ccd;
        let detail = &mut self.details[b];
        match kind {
            AccessKind::Read => {
                let done = cycle + t.t_cas + t.t_burst;
                detail.ready_pre = detail.ready_pre.max(cycle + t.t_rtp);
                self.bus_free_at = done;
                // An unstamped request here means its ACT predates the
                // stamping bookkeeping (can't happen via `enqueue`/
                // `issue_act`, but be defensive); clamp keeps the
                // enqueue ≤ bank_ready ≤ issue invariant unconditional.
                let bank_ready =
                    q.bank_ready.unwrap_or(cycle).clamp(q.enqueue_cycle, cycle);
                debug_assert!(
                    self.pending.back().is_none_or(|p| p.at < done),
                    "reads must complete in issue order"
                );
                self.pending.push_back(PendingCompletion {
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
                detail.ready_pre = detail.ready_pre.max(data_end + t.t_wr);
                self.bus_free_at = data_end;
                stats.record_write(q.class, data_end - q.enqueue_cycle);
            }
        }
        stats.bursts += 1;
        stats.busy_cycles += t.t_burst;
        self.last_bus_op = Some(kind);
        self.settle_row(b);
        self.debug_check_bank(b);
    }
}
