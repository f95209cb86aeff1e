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
//! request that hits the open row. The request a bank would serve is one
//! of those two, so each bank offers, per queue, one key and one cycle
//! from which it may issue ([`Bank`]). A scan is one pass over the
//! occupied banks (a per-channel bitset names the banks holding queued
//! requests) taking the smallest offer among the ready ones, and the same
//! pass gathers the issue horizon, a minimum over those banks rather than
//! over queued requests. After a column command or a precharge only the
//! issued bank's part of the pass is redone; after an ACT, which moves the
//! activate floor of every bank in its rank, the whole pass is. Only an
//! ACT (new open row) and a column command (next hit) walk one bank's
//! list, each as far as that bank's oldest row hit.
//!
//! A read's completion reports when its row became usable (attribution
//! only, never read by the scheduler): the bank remembers the cycle of the
//! ACT that opened its row, and the column command derives the read's
//! stamp from it and the read's arrival.
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

/// Set in an offer ([`Bank::offer`]) of a row command; clear in one of a
/// column command. Scan keys stay below it (see [`Queued::key`]).
const ROW: u64 = 1 << 63;

/// Width of each counter field of [`Bank::terms`].
const TERM_BITS: u32 = 21;
/// Where the counter fields of [`Bank::terms`] start: a column term of
/// the read and of the write queue, and a row term.
const COL_SHIFT: [u32; 2] = [0, TERM_BITS];
const ROW_SHIFT: u32 = 2 * TERM_BITS;
/// One column term of each queue, and one row term.
const COL_TERM: [u64; 2] = [1 << COL_SHIFT[0], 1 << COL_SHIFT[1]];
const ROW_TERM: u64 = 1 << ROW_SHIFT;

/// What the scheduler's scans read of one bank: what it offers to issue
/// and from which cycle. Derived from the bank's [`BankDetail`] by
/// [`Channel::settle`] after each change to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Bank {
    /// First cycle the bank's offers may issue: `ready_col` while it holds
    /// a row hit; otherwise that of its row command, `ready_pre` while a
    /// row is open and the later of `ready_act` and the rank's activate
    /// floor while closed. [`NONE`] when nothing is queued.
    ready: u64,
    /// Per queue (indexed by [`qi`]): the scan key of the bank's oldest
    /// row hit (a column command), or, when the bank holds no row hit in
    /// either queue, of its oldest request with [`ROW`] set (its row
    /// command: precharge or activate). [`NONE`] when it offers nothing
    /// to the queue: the queue holds none of its requests, or only misses
    /// while a row hit in the other queue holds the open row (row-hit
    /// friendliness blocks the precharge).
    offer: [u64; 2],
    /// The bank's terms of the issue horizon, one [`TERM_BITS`]-bit
    /// counter field each: [`COL_TERM`] of each queue it offers a column
    /// command, else [`ROW_TERM`]. A scan sums the terms of the banks ready
    /// at its cycle.
    terms: u64,
}

impl Bank {
    /// A bank with nothing queued.
    const EMPTY: Bank = Bank { ready: NONE, offer: [NONE; 2], terms: 0 };
}

/// The rest of a bank's state: its open row, its queues' oldest entries
/// and row timing, and where its requests sit in the slab.
#[derive(Debug, Clone, Copy)]
struct BankDetail {
    /// Index of the bank's rank in [`Channel::ranks`].
    rank: usize,
    /// The open row, [`CLOSED`] when precharged.
    open_row: u64,
    /// Per queue: scan key of the bank's oldest queued request, [`NONE`]
    /// when it has none.
    oldest: [u64; 2],
    /// Per queue: scan key of the bank's oldest queued request that
    /// targets the open row, [`NONE`] when none does (always, while
    /// closed).
    oldest_hit: [u64; 2],
    ready_col: u64,
    ready_act: u64,
    ready_pre: u64,
    /// Cycle of the ACT that opened `open_row` (stale while closed).
    opened_at: u64,
    /// Per queue: slab slots of the oldest and youngest queued request
    /// and of the oldest row hit, [`NIL`] when there is none.
    head: [u32; 2],
    tail: [u32; 2],
    hit: [u32; 2],
}

/// `x` when `cond` holds, else [`NONE`] (`u64::MAX`), as a mask: a
/// select, even `std::hint::select_unpredictable`, can compile to a branch
/// on the scan's data-dependent readiness test, which mispredicts.
#[inline(always)]
fn if_ready(cond: bool, x: u64) -> u64 {
    x | u64::from(cond).wrapping_sub(1)
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
    /// older), stay below [`ROW`], and the minimum of a scan names its
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

impl Candidate {
    /// The flat index of the bank the command goes to.
    fn bank(self, slab: &[Queued]) -> usize {
        match self {
            Candidate::Col(_, s) => slab[s as usize].bank as usize,
            Candidate::Act { bank, .. } | Candidate::Pre(bank) => bank,
        }
    }
}

/// What one pass over the occupied banks finds at `cycle`: per queue the
/// smallest offer the pick may take, and what the issue horizon needs.
/// Each bank's terms are its `ready` cycle, as a column term of each
/// queue it offers a column command, else as a row term. A term at or
/// before `cycle` is only counted: the horizon is never below
/// `cycle + 1`, so every such term bounds it alike, and the count lets an
/// issue take its own bank's terms back out ([`Scan::remove_ready`]).
#[derive(Debug, Clone, Copy)]
struct Scan {
    cycle: u64,
    /// Per queue: the smallest offer below which a ready bank's offer is
    /// passed over: `0`, or [`ROW`] to pass over column commands while
    /// the data bus cannot take the queue's burst.
    floor: [u64; 2],
    /// Per queue: the smallest offer of a bank ready at `cycle`, at or
    /// above `floor`.
    best: [u64; 2],
    /// Per queue: the earliest column term after `cycle`.
    col_wait: [u64; 2],
    /// The earliest row term after `cycle`.
    row_wait: u64,
    /// The sum of [`Bank::terms`] over the banks ready at `cycle`.
    ready: u64,
}

impl Scan {
    fn new(cycle: u64, floor: [u64; 2]) -> Self {
        Self { cycle, floor, best: [NONE; 2], col_wait: [NONE; 2], row_wait: NONE, ready: 0 }
    }

    /// Adds `bank`'s offers and terms. An empty bank adds nothing.
    #[inline(always)]
    fn add(&mut self, bank: &Bank) {
        // All ones while the bank waits, else zero. Opaque to the
        // optimiser, which would otherwise branch on it (each value makes
        // half of the updates below no-ops) and mispredict.
        let waits = std::hint::black_box(u64::from(self.cycle < bank.ready).wrapping_neg());
        let wait = bank.ready | !waits;
        for k in 0..2 {
            let offer = bank.offer[k];
            self.best[k] = self.best[k].min(offer | waits | if_ready(offer >= self.floor[k], 0));
            self.col_wait[k] = self.col_wait[k].min(if_ready(offer < ROW, wait));
        }
        self.row_wait = self.row_wait.min(if_ready(bank.terms >= ROW_TERM, wait));
        self.ready += bank.terms & !waits;
    }

    /// Takes back the terms of `bank`, which the pick found ready: they
    /// were all counted, none was a wait.
    fn remove_ready(&mut self, bank: &Bank) {
        debug_assert!(self.cycle >= bank.ready, "the issued bank was not ready");
        self.ready -= bank.terms;
    }

    /// The issue horizon the terms give (≥ `cycle + 1`, `u64::MAX` when
    /// there are none): the earliest row term, or column term of a queue
    /// clamped to the queue's data-bus floor in `col_floor`.
    fn horizon(&self, col_floor: [u64; 2]) -> u64 {
        let term = |shift: u32, wait: u64| {
            if (self.ready >> shift) & ((1 << TERM_BITS) - 1) != 0 {
                self.cycle
            } else {
                wait
            }
        };
        let mut earliest = term(ROW_SHIFT, self.row_wait);
        for k in 0..2 {
            earliest = earliest.min(term(COL_SHIFT[k], self.col_wait[k]).max(col_floor[k]));
        }
        earliest.max(self.cycle + 1)
    }

    /// Drops every row term, for [`Scan::add_row`] to count them afresh.
    fn clear_rows(&mut self) {
        self.row_wait = NONE;
        self.ready &= !(((1 << TERM_BITS) - 1) << ROW_SHIFT);
    }

    /// Adds `bank`'s row term, if it has one.
    #[inline(always)]
    fn add_row(&mut self, bank: &Bank) {
        let term = if_ready(bank.terms >= ROW_TERM, bank.ready);
        let waits = std::hint::black_box(u64::from(self.cycle < term).wrapping_neg());
        self.row_wait = self.row_wait.min(term | !waits);
        self.ready += ROW_TERM & !waits;
    }
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
    /// these banks: every other bank is [`Bank::EMPTY`], which adds
    /// nothing to a scan.
    occupied: Vec<u64>,
    /// Sequence number of the next request enqueued.
    next_seq: u64,
    /// `ceil(log2(banks))`: the low bits of a scan key that name its bank.
    bank_bits: u32,
    /// Issued reads awaiting their data, in completion order.
    pending: VecDeque<PendingCompletion>,
    draining: bool,
    /// The earliest of the ranks' refresh deadlines.
    next_refresh: u64,
    bus_free_at: u64,
    last_bus_op: Option<AccessKind>,
    /// A lower bound on the next cycle at which any queued command could
    /// legally issue, `u64::MAX` with both queues empty. Recomputed after
    /// every scan (whether or not it issued) from the scan's own pass,
    /// lowered by each enqueue to cover the new request's bank, and
    /// zeroed by a refresh to force a scan in the same tick. A precharge
    /// blocked by row-hit friendliness contributes no bound of its own: it
    /// can only unblock when the hitting request issues, and the horizon
    /// is recomputed then. While `cycle < issue_horizon`, the FR-FCFS
    /// scan is provably fruitless and skipped.
    issue_horizon: u64,
    /// Ticks whose FR-FCFS scan `issue_horizon` skipped (observability).
    scan_skips: u64,
}

impl Channel {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let banks = cfg.ranks_per_channel * cfg.banks_per_rank;
        let details = (0..banks)
            .map(|b| BankDetail {
                rank: b / cfg.banks_per_rank,
                open_row: CLOSED,
                oldest: [NONE; 2],
                oldest_hit: [NONE; 2],
                ready_col: 0,
                ready_act: 0,
                ready_pre: 0,
                opened_at: 0,
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
        // At most one bank per queued request is occupied, so a scan's
        // term counters never carry into the next field.
        assert!(
            banks.min(slots as usize) < 1 << TERM_BITS,
            "a channel of more than 2^{TERM_BITS} banks and queue slots"
        );
        Self {
            banks: vec![Bank::EMPTY; banks],
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
            next_refresh: cfg.timing.t_refi,
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
        let detail = &mut self.details[b];
        let hit = detail.open_row == loc.row;
        let tail = detail.tail[k];
        if tail == NIL {
            detail.head[k] = s;
            detail.oldest[k] = key;
        } else {
            self.slab[tail as usize].next = s;
        }
        detail.tail[k] = s;
        if hit && detail.hit[k] == NIL {
            detail.hit[k] = s;
            detail.oldest_hit[k] = key;
        }
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
        };
        self.settle(b);
        self.debug_check_bank(b);
        // The horizon already bounds every other request; the new one adds
        // the bound of its own next command. (As a row hit it may also
        // block its bank's precharge, which only makes the old horizon
        // conservative, never optimistic.) A miss's bank offers a row
        // command unless a row hit blocks it.
        let bank = &self.banks[b];
        let bound = if hit {
            self.details[b].ready_col.max(self.col_floor(&cfg.timing, req.kind))
        } else if bank.terms >= ROW_TERM {
            bank.ready
        } else {
            NONE
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
                detail.oldest[k] = match q.next {
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
        self.details[b].oldest_hit[k] = match s {
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

    /// One pass over the occupied banks at `cycle` (see [`Scan`]), column
    /// commands of a queue passed over while the data bus cannot take its
    /// burst.
    fn scan(&self, cycle: u64, t: &TimingParams) -> Scan {
        let floor = [AccessKind::Read, AccessKind::Write]
            .map(|kind| if cycle + lead(t, kind) >= self.bus_ready(t, kind) { 0 } else { ROW });
        let mut scan = Scan::new(cycle, floor);
        self.for_each_occupied(|bank| scan.add(bank));
        scan
    }

    /// Rederives bank `b`'s [`Bank`] after a change to its queue, its row
    /// or its row timing, or to its rank's activate floor.
    fn settle(&mut self, b: usize) {
        self.banks[b] = self.derive(b);
    }

    /// Bank `b`'s [`Bank`], derived from its detail and its rank's
    /// activate floor.
    fn derive(&self, b: usize) -> Bank {
        let detail = &self.details[b];
        let [hit_r, hit_w] = detail.oldest_hit;
        if hit_r != NONE || hit_w != NONE {
            Bank {
                ready: detail.ready_col,
                offer: detail.oldest_hit,
                terms: COL_TERM[0] * u64::from(hit_r != NONE)
                    + COL_TERM[1] * u64::from(hit_w != NONE),
            }
        } else if detail.oldest == [NONE; 2] {
            Bank::EMPTY
        } else {
            let ready = if detail.open_row != CLOSED {
                detail.ready_pre
            } else {
                detail.ready_act.max(self.ranks[detail.rank].act_floor)
            };
            Bank { ready, offer: detail.oldest.map(|key| key | ROW), terms: ROW_TERM }
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
        if let Some(p) = self.pending.front() {
            event = event.min(p.at);
        }
        if cfg.timing.t_refi != 0 {
            event = event.min(self.next_refresh);
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
        let t = &cfg.timing;
        let mut scan = self.scan(cycle, t);
        if let Some(c) = self.pick(&scan) {
            let b = c.bank(&self.slab);
            scan.remove_ready(&self.banks[b]);
            self.issue(cycle, t, stats, c);
            if let Candidate::Act { .. } = c {
                // The ACT raised its rank's activate floor, and with it
                // the row term of every closed bank of the rank.
                scan.clear_rows();
                self.for_each_occupied(|bank| scan.add_row(bank));
            }
            // Otherwise only the issued bank changed.
            scan.add(&self.banks[b]);
        }
        self.issue_horizon = scan.horizon(self.col_floors(t));
        debug_assert_eq!(
            self.issue_horizon,
            self.scan(cycle, t).horizon(self.col_floors(t)),
            "issue horizon drifted from a fresh pass at cycle {cycle}"
        );
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
            && (cfg.timing.t_refi == 0 || self.next_refresh > cycle)
            && !self.drain_flip_pending(cfg)
            && self.find_candidate(cycle, &cfg.timing).is_none()
    }

    fn handle_refresh(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats) {
        if t.t_refi == 0 || cycle < self.next_refresh {
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
        self.next_refresh = self.ranks.iter().map(|r| r.next_refresh).min().unwrap_or(NONE);
    }

    /// Closes bank `b`'s row (precharge or refresh), holding its next
    /// activate until `ready_act` at the earliest: nothing hits any more.
    /// (Attribution needs nothing here: a read's row becomes usable at
    /// the ACT that reopens it, see [`Self::issue_col_command`].)
    fn close_row(&mut self, b: usize, ready_act: u64) {
        let detail = &mut self.details[b];
        detail.open_row = CLOSED;
        detail.ready_act = detail.ready_act.max(ready_act);
        detail.hit = [NIL; 2];
        detail.oldest_hit = [NONE; 2];
        self.settle(b);
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

    /// The command the scheduler would issue at `cycle`, if any (see
    /// [`Self::pick`]).
    fn find_candidate(&self, cycle: u64, t: &TimingParams) -> Option<Candidate> {
        self.pick(&self.scan(cycle, t))
    }

    /// The command the scheduler issues after `scan`, if any: FR-FCFS
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
    /// queue), a row command a bank past its row command's cycle, which
    /// holds no row hit, so that its oldest request misses. Each bank
    /// offers one of the two per queue, the scan kept the smallest ready
    /// offer, and a column command's offer (the scan key of its request,
    /// see [`Queued::key`]) sorts below every row command's, so the
    /// smallest offer is the oldest ready column command, else the oldest
    /// request of a row-ready bank, and names its bank.
    fn pick(&self, scan: &Scan) -> Option<Candidate> {
        let (primary, secondary) = if self.draining || self.len[0] == 0 {
            (AccessKind::Write, AccessKind::Read)
        } else {
            (AccessKind::Read, AccessKind::Write)
        };
        let kind = if scan.best[qi(primary)] != NONE { primary } else { secondary };
        let k = qi(kind);
        let offer = scan.best[k];
        if offer == NONE {
            return None;
        }
        let b = (offer & ((1 << self.bank_bits) - 1)) as usize;
        let detail = &self.details[b];
        Some(if offer < ROW {
            Candidate::Col(kind, detail.hit[k])
        } else if detail.open_row != CLOSED {
            Candidate::Pre(b)
        } else {
            Candidate::Act { bank: b, row: self.slab[detail.head[k] as usize].row }
        })
    }

    /// Each queue's data-bus floor for its column commands.
    fn col_floors(&self, t: &TimingParams) -> [u64; 2] {
        [self.col_floor(t, AccessKind::Read), self.col_floor(t, AccessKind::Write)]
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
    /// queue, its occupancy bit and its [`Bank`] equal a recount.
    fn debug_check_bank(&self, b: usize) {
        debug_assert_eq!(
            self.kept(b),
            self.recount(b),
            "bank {b} drifted from its queued requests"
        );
    }

    /// `(oldest, oldest_hit, occupied, bank)` of bank `b` as the scans
    /// read it.
    fn kept(&self, b: usize) -> ([u64; 2], [u64; 2], bool, Bank) {
        let occupied = self.occupied[b / 64] >> (b % 64) & 1 != 0;
        (self.details[b].oldest, self.details[b].oldest_hit, occupied, self.banks[b])
    }

    /// [`Self::kept`] recounted from every queued request in the slab
    /// (not from the bank's lists): the bank is occupied iff it has a
    /// queued request, and its [`Bank`] is derived afresh.
    fn recount(&self, b: usize) -> ([u64; 2], [u64; 2], bool, Bank) {
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
        (oldest, oldest_hit, occupied, self.derive(b))
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
        detail.opened_at = cycle;
        detail.ready_pre = detail.ready_pre.max(cycle + t.t_ras);
        detail.ready_act = cycle + t.t_rc;
        detail.ready_col = cycle + t.t_rcd;
        let r = detail.rank;
        let rank = &mut self.ranks[r];
        rank.act_window.rotate_right(1);
        rank.act_window[0] = Some(cycle);
        let rrd = if cycle != 0 { cycle + t.t_rrd } else { 0 };
        rank.act_floor = rrd.max(rank.act_window[3].map_or(0, |oldest| oldest + t.t_faw));
        stats.activates += 1;
        for k in 0..2 {
            self.seek_hit(b, k, self.details[b].head[k]);
        }
        self.settle(b);
        // The new activate floor holds every other closed bank of the rank
        // that offers an activate (a bank with nothing queued, or with a
        // row hit, offers none). The floor only rises, so it raises such a
        // bank's `ready` (the later of `ready_act` and the floor) to itself.
        let floor = self.ranks[r].act_floor;
        let rank = r * self.banks_per_rank..(r + 1) * self.banks_per_rank;
        for w in rank.start / 64..rank.end.div_ceil(64) {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let bank = &mut self.banks[o];
                if rank.contains(&o) && bank.terms >= ROW_TERM && self.details[o].open_row == CLOSED {
                    bank.ready = bank.ready.max(floor);
                }
            }
        }
        self.debug_check_bank(b);
    }

    fn issue_pre(&mut self, cycle: u64, t: &TimingParams, stats: &mut DramStats, b: usize) {
        // PRE issues now; `cycle >= ready_pre` was checked by the caller.
        // (Attribution: every waiter now waits for the next ACT, whose
        // cycle the bank records.)
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
        let detail = &mut self.details[b];
        detail.ready_col = cycle + t.t_ccd;
        match kind {
            AccessKind::Read => {
                let done = cycle + t.t_cas + t.t_burst;
                detail.ready_pre = detail.ready_pre.max(cycle + t.t_rtp);
                self.bus_free_at = done;
                // Attribution: a read that arrived after the ACT that
                // opened its row found the row open; an older one waited
                // for that ACT to complete (a close since would have
                // needed another ACT). The clamp keeps the
                // enqueue ≤ bank_ready ≤ issue invariant unconditional.
                let opened = detail.opened_at;
                let ready = if q.enqueue_cycle > opened {
                    q.enqueue_cycle
                } else {
                    opened + t.t_rcd
                };
                let bank_ready = ready.clamp(q.enqueue_cycle, cycle);
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
        self.settle(b);
        self.debug_check_bank(b);
    }
}
