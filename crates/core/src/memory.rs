//! The functional SYNERGY memory — the paper's contribution, byte-accurate.
//!
//! [`SynergyMemory`] models a 9-chip ECC-DIMM protected memory exactly as
//! §III describes:
//!
//! * **Writes** encrypt the line in counter mode, bump the per-line 56-bit
//!   counter, recompute the 64-bit GMAC (stored in the ECC chip, co-located
//!   with data), update the RAID-3 parity slot (`P = C0 ⊕ … ⊕ C7 ⊕ MAC`) in
//!   the parity region, and propagate counter bumps + MAC recomputation up
//!   the Bonsai counter tree to the on-chip root.
//! * **Reads** verify the counter chain top-down (every counter/tree line
//!   has a distributed MAC keyed by its parent counter), then verify the
//!   data MAC. A mismatch triggers the §III-B correction flow instead of an
//!   immediate attack declaration: reconstruct each candidate chip from the
//!   parity (MAC chip first, then the 8 data chips) and accept the first
//!   reconstruction whose MAC verifies; if all fail, rebuild the parity
//!   itself from `ParityP` and retry — up to ~16 MAC recomputations.
//!   Counter/tree lines correct through `ParityC` in their ECC chip
//!   (≤ 8 recomputations). If nothing verifies, the event is
//!   indistinguishable from tampering and an **attack is declared**.
//! * **Permanent-fault tracking** (§IV-A): after a configurable number of
//!   corrections blame the same chip, reads preemptively reconstruct that
//!   chip first, collapsing correction cost to one MAC computation.
//!
//! Error injection APIs corrupt specific chips of specific lines (or a
//! whole chip across the DIMM), letting tests and examples exercise every
//! scenario of Figure 7(c).

use std::sync::Arc;

use synergy_crypto::ctr::LineCipher;
use synergy_crypto::gmac::{ChainLevel, Gmac};
use synergy_crypto::{CacheLine, EncryptionKey, MacKey};
use synergy_secure::layout::{CounterOrg, MetadataLayout, Region, TreeLeaves, LINE, LINE_SHIFT};

use crate::stored::{ChipSlice, LineWords, StoredLine, CHIPS, MASK56};

/// Bound on a counter chain: the counter line plus every in-memory tree
/// level. Each tree level covers 8× the capacity of the one below; a
/// 16 MiB memory has 4, so 15 levels take 2^57 bytes, whose line store no
/// host can allocate. [`SynergyMemory::new`] rejects a deeper layout.
const MAX_CHAIN: usize = 16;

/// Errors returned by the functional memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Verification failed and correction was impossible: either a
    /// multi-chip error or actual tampering — SYNERGY cannot tell them
    /// apart and halts (§III-B "Detected Uncorrectable Errors or Attack").
    AttackDetected {
        /// The line that failed verification.
        addr: u64,
    },
    /// Address beyond the protected capacity.
    OutOfRange {
        /// Offending address.
        addr: u64,
        /// Configured capacity.
        capacity: u64,
    },
    /// Address not aligned to the 64-byte line size.
    Misaligned {
        /// Offending address.
        addr: u64,
    },
    /// Invalid configuration.
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
}

impl core::fmt::Display for MemoryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MemoryError::AttackDetected { addr } => {
                write!(f, "uncorrectable error or attack at {addr:#x}")
            }
            MemoryError::OutOfRange { addr, capacity } => {
                write!(f, "address {addr:#x} beyond capacity {capacity:#x}")
            }
            MemoryError::Misaligned { addr } => {
                write!(f, "address {addr:#x} is not 64-byte aligned")
            }
            MemoryError::InvalidConfig { reason } => write!(f, "invalid config: {reason}"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Configuration of a [`SynergyMemory`].
#[derive(Debug, Clone)]
pub struct SynergyMemoryConfig {
    /// Protected data capacity in bytes (multiple of 512).
    ///
    /// The memory keeps every data, counter, parity and tree line in one
    /// dense array allocated up front: 72 bytes of host memory (nine 8-byte
    /// chip slices) per 64-byte line, over about 1.27 lines per data line,
    /// which is about 1.43 bytes of host memory per protected byte.
    /// Construction is O(capacity) in time and space.
    pub capacity_bytes: u64,
    /// Key for counter-mode encryption.
    pub encryption_key: EncryptionKey,
    /// Key for GMAC computation.
    pub mac_key: MacKey,
    /// Corrections blamed on one chip before it is treated as failed and
    /// preemptively reconstructed (§IV-A). `None` disables tracking.
    pub fault_tracking_threshold: Option<u64>,
}

impl SynergyMemoryConfig {
    /// A configuration with deterministic demo keys — convenient for
    /// examples and tests. Production users supply their own keys.
    pub fn with_capacity(capacity_bytes: u64) -> Self {
        Self {
            capacity_bytes,
            encryption_key: EncryptionKey::from_bytes(*b"synergy-demo-ek!"),
            mac_key: MacKey::from_bytes(*b"synergy-demo-mk!"),
            fault_tracking_threshold: Some(16),
        }
    }
}

/// Result of a successful read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutput {
    /// The decrypted plaintext line.
    pub data: CacheLine,
    /// Whether an error was detected and corrected on this read.
    pub corrected: bool,
    /// MAC computations this read performed (1 on the clean fast path,
    /// up to ~16 + tree correction during reconstruction).
    pub mac_computations: u32,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// Lines read.
    pub reads: u64,
    /// Lines written.
    pub writes: u64,
    /// Total MAC computations (verification + reconstruction + updates).
    pub mac_computations: u64,
    /// Successful corrections.
    pub corrections: u64,
    /// Corrections that needed the parity-of-parities path (data and
    /// parity simultaneously bad — Scenario D of Figure 7(c)).
    pub parity_reconstructions: u64,
    /// Reads fixed by the tracked-chip fast path.
    pub preemptive_corrections: u64,
    /// Attack declarations (uncorrectable).
    pub attacks_declared: u64,
    /// Corrections attributed to each chip.
    pub per_chip_corrections: [u64; CHIPS],
}

impl synergy_obs::Observe for MemoryStats {
    fn observe(&self, prefix: &str, registry: &mut synergy_obs::MetricRegistry) {
        use synergy_obs::metric_name;
        registry.set_counter(&metric_name(prefix, "reads"), self.reads);
        registry.set_counter(&metric_name(prefix, "writes"), self.writes);
        registry.set_counter(&metric_name(prefix, "mac_computations"), self.mac_computations);
        registry.set_counter(&metric_name(prefix, "corrections"), self.corrections);
        registry.set_counter(
            &metric_name(prefix, "parity_reconstructions"),
            self.parity_reconstructions,
        );
        registry.set_counter(
            &metric_name(prefix, "preemptive_corrections"),
            self.preemptive_corrections,
        );
        registry.set_counter(&metric_name(prefix, "attacks_declared"), self.attacks_declared);
        for (chip, v) in self.per_chip_corrections.iter().enumerate() {
            registry.set_counter(&metric_name(prefix, &format!("corrections.chip{chip}")), *v);
        }
    }
}

/// A data line's counter chain: the counter line first, then one tree
/// node per in-memory level. [`SynergyMemory::chain`] fills each level's
/// address and the slot a write to the data line bumps in it (the counter
/// of the level below, or of the data line); the verify walk fills in the
/// rest.
struct Chain {
    levels: [ChainLevel; MAX_CHAIN],
    len: usize,
    /// Index of the top line's on-chip root counter.
    root: usize,
}

impl Chain {
    fn levels(&self) -> &[ChainLevel] {
        &self.levels[..self.len]
    }
}

/// The functional SYNERGY-protected memory.
///
/// ```
/// use synergy_core::memory::{SynergyMemory, SynergyMemoryConfig};
/// use synergy_crypto::CacheLine;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 16))?;
/// let secret = CacheLine::from_bytes([0x42; 64]);
/// mem.write_line(0x1000, &secret)?;
///
/// // A whole chip fails in the stored line…
/// mem.inject_chip_error(0x1000, 5);
/// // …and the read transparently reconstructs it via MAC + parity.
/// let out = mem.read_line(0x1000)?;
/// assert_eq!(out.data, secret);
/// assert!(out.corrected);
/// # Ok(())
/// # }
/// ```
///
/// Cloning copies the line store and shares the layout and keys, which
/// never change after construction: a clone of a pristine memory is a
/// fresh memory without repeating the key setup. `clone_from` copies into
/// the destination's buffers, so restoring a working memory from a
/// template of the same capacity allocates nothing.
#[derive(Debug)]
pub struct SynergyMemory {
    fixed: Arc<Fixed>,
    /// Every line of the layout except the MAC region (SYNERGY keeps its
    /// MACs in the ECC chip), indexed by [`Self::index`].
    lines: Vec<LineWords>,
    /// One bit per entry of `lines`: set once the line has left its
    /// implicit zero state. Unset entries hold no meaningful value.
    materialized: Vec<u64>,
    /// First address of the MAC region, which `lines` leaves out.
    mac_base: u64,
    /// Lines in the MAC region.
    mac_lines: u64,
    root_counters: Vec<u64>,
    stats: MemoryStats,
    fault_tracking_threshold: Option<u64>,
    tracked_faulty_chip: Option<usize>,
}

/// The layout and keyed crypto of a [`SynergyMemory`]: fixed at
/// construction, and shared by its clones.
#[derive(Debug)]
struct Fixed {
    layout: MetadataLayout,
    cipher: LineCipher,
    gmac: Gmac,
}

impl Clone for SynergyMemory {
    fn clone(&self) -> Self {
        let Self {
            fixed,
            lines,
            materialized,
            mac_base,
            mac_lines,
            root_counters,
            stats,
            fault_tracking_threshold,
            tracked_faulty_chip,
        } = self;
        Self {
            fixed: Arc::clone(fixed),
            lines: lines.clone(),
            materialized: materialized.clone(),
            mac_base: *mac_base,
            mac_lines: *mac_lines,
            root_counters: root_counters.clone(),
            stats: *stats,
            fault_tracking_threshold: *fault_tracking_threshold,
            tracked_faulty_chip: *tracked_faulty_chip,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        // Exhaustive, so that a new field does not compile until it is
        // restored here too.
        let Self {
            fixed,
            lines,
            materialized,
            mac_base,
            mac_lines,
            root_counters,
            stats,
            fault_tracking_threshold,
            tracked_faulty_chip,
        } = self;
        // Only repoint when the source differs: clones of one template
        // then never touch the shared reference count.
        if !Arc::ptr_eq(fixed, &source.fixed) {
            *fixed = Arc::clone(&source.fixed);
        }
        lines.clone_from(&source.lines);
        materialized.clone_from(&source.materialized);
        *mac_base = source.mac_base;
        *mac_lines = source.mac_lines;
        root_counters.clone_from(&source.root_counters);
        *stats = source.stats;
        *fault_tracking_threshold = source.fault_tracking_threshold;
        *tracked_faulty_chip = source.tracked_faulty_chip;
    }
}

impl SynergyMemory {
    /// Creates a zero-initialized protected memory.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::InvalidConfig`] when the capacity is zero or
    /// not a multiple of 512 bytes (8 lines — one parity-line group), or
    /// when the host cannot allocate the line store (see
    /// [`SynergyMemoryConfig::capacity_bytes`]).
    pub fn new(config: SynergyMemoryConfig) -> Result<Self, MemoryError> {
        if config.capacity_bytes == 0 || !config.capacity_bytes.is_multiple_of(8 * LINE) {
            return Err(MemoryError::InvalidConfig {
                reason: format!(
                    "capacity {} must be a nonzero multiple of 512 bytes",
                    config.capacity_bytes
                ),
            });
        }
        let layout = MetadataLayout::new(
            config.capacity_bytes,
            CounterOrg::Monolithic,
            TreeLeaves::CounterLines,
        );
        let chain = layout.tree_depth() + 1;
        if chain > MAX_CHAIN {
            return Err(MemoryError::InvalidConfig {
                reason: format!(
                    "capacity {} needs a {chain}-line counter chain, beyond the bound of \
                     {MAX_CHAIN}",
                    config.capacity_bytes
                ),
            });
        }
        let mac_base = layout.mac_line_addr(0);
        let mac_lines = (layout.parity_base() - mac_base) >> LINE_SHIFT;
        let stored_lines = (layout.total_bytes() >> LINE_SHIFT) - mac_lines;
        let too_large = || MemoryError::InvalidConfig {
            reason: format!(
                "cannot allocate the {stored_lines}-line store for capacity {}",
                config.capacity_bytes
            ),
        };
        let stored_lines = usize::try_from(stored_lines).map_err(|_| too_large())?;
        let mut lines = Vec::new();
        lines.try_reserve_exact(stored_lines).map_err(|_| too_large())?;
        let mut materialized = Vec::new();
        materialized.try_reserve_exact(stored_lines.div_ceil(64)).map_err(|_| too_large())?;
        lines.resize(stored_lines, LineWords::ZERO);
        materialized.resize(stored_lines.div_ceil(64), 0);
        let roots = layout.root_counter_count() as usize;
        Ok(Self {
            fixed: Arc::new(Fixed {
                layout,
                cipher: LineCipher::new(&config.encryption_key),
                gmac: Gmac::new(&config.mac_key),
            }),
            lines,
            materialized,
            mac_base,
            mac_lines,
            root_counters: vec![0; roots],
            stats: MemoryStats::default(),
            fault_tracking_threshold: config.fault_tracking_threshold,
            tracked_faulty_chip: None,
        })
    }

    /// The metadata layout in use.
    pub fn layout(&self) -> &MetadataLayout {
        &self.fixed.layout
    }

    /// Operation statistics.
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// The chip currently tracked as failed, if any (§IV-A mitigation).
    pub fn tracked_faulty_chip(&self) -> Option<usize> {
        self.tracked_faulty_chip
    }

    /// Materializes every line of the layout in its zero state, which a
    /// line otherwise reaches on first touch, so that clones of this
    /// memory start with all of them built. Reads, writes, corrections and
    /// [`MemoryStats`] are unchanged: a line's zero state is the same
    /// whenever it is built, and building it is not counted. The one
    /// difference is [`Self::inject_chip_failure`], which corrupts every
    /// materialized line: after this call, that is every line of the
    /// layout, not only the lines touched so far.
    pub fn materialize_all(&mut self) {
        for group in 0..self.fixed.layout.data_bytes() / (8 * LINE) {
            self.ensure_line(self.fixed.layout.parity_base() + group * LINE);
        }
        for c in 0..self.fixed.layout.counter_lines() {
            self.ensure_line(self.fixed.layout.counter_base() + c * LINE);
        }
        for level in 0..self.fixed.layout.tree_depth() {
            for n in 0..self.fixed.layout.tree_level_nodes(level) {
                self.ensure_line(self.fixed.layout.tree_node_addr(level, n));
            }
        }
    }

    /// Writes a plaintext line: encrypt, MAC, parity update, tree update.
    ///
    /// Every counter on the chain is bumped and every chain line re-MACed
    /// under its parent's bumped counter (Bonsai update). The new tags come
    /// from the GHASH states of the verify walk by linearity, in one
    /// [`Gmac::bonsai_update`] call with the data line's CTR pad and tag;
    /// [`MemoryStats::mac_computations`] still counts one MAC per level.
    ///
    /// # Errors
    ///
    /// Returns address-validation errors, or [`MemoryError::AttackDetected`]
    /// when the counter chain cannot be verified/corrected.
    pub fn write_line(&mut self, addr: u64, plaintext: &CacheLine) -> Result<(), MemoryError> {
        self.check_data_addr(addr)?;
        let mut chain = self.chain(addr);
        self.prepare_write(addr, &mut chain)?;
        let levels = chain.levels();
        let mut tags = [0; MAX_CHAIN];
        let (ciphertext, mac) = self.fixed.gmac.bonsai_update(
            &self.fixed.cipher,
            levels,
            addr,
            plaintext,
            &mut tags[..levels.len()],
        );
        self.stats.mac_computations += levels.len() as u64 + 1;
        self.root_counters[chain.root] = (self.root_counters[chain.root] + 1) & MASK56;
        // The verified walk left every chain line materialized.
        for (level, &tag) in levels.iter().zip(&tags) {
            let i = self.index(level.addr);
            let (mut counters, _) = self.lines[i].counter_parts();
            counters[level.slot] = (counters[level.slot] + 1) & MASK56;
            self.lines[i] = LineWords::from_counters(&counters, tag);
        }
        self.store_data(addr, LineWords::from_data(&ciphertext, mac));
        Ok(())
    }

    /// [`Self::write_line`] with the Bonsai update computed the long way,
    /// root-down: each chain line's counters are bumped and re-MACed by
    /// [`Gmac::node_tag`] under its parent's fresh counter, then the data
    /// line is encrypted and tagged. The oracle the memory-level
    /// differential test holds `write_line` to: the same stored lines and
    /// the same [`MemoryStats`].
    ///
    /// # Errors
    ///
    /// As [`Self::write_line`].
    pub fn write_line_reference(
        &mut self,
        addr: u64,
        plaintext: &CacheLine,
    ) -> Result<(), MemoryError> {
        self.check_data_addr(addr)?;
        let mut chain = self.chain(addr);
        self.prepare_write(addr, &mut chain)?;
        let root = &mut self.root_counters[chain.root];
        *root = (*root + 1) & MASK56;
        let mut parent_ctr = *root;
        for level in chain.levels().iter().rev() {
            let i = self.index(level.addr);
            let (mut counters, _) = self.lines[i].counter_parts();
            counters[level.slot] = (counters[level.slot] + 1) & MASK56;
            let mac = self.fixed.gmac.node_tag(level.addr, parent_ctr, &pack_counters(&counters));
            self.stats.mac_computations += 1;
            self.lines[i] = LineWords::from_counters(&counters, mac);
            parent_ctr = counters[level.slot];
        }
        let ciphertext = self.fixed.cipher.encrypt(addr, parent_ctr, plaintext);
        let mac = self.fixed.gmac.line_tag(addr, parent_ctr, &ciphertext);
        self.stats.mac_computations += 1;
        self.store_data(addr, LineWords::from_data(&ciphertext, mac));
        Ok(())
    }

    /// A write's steps before the update, on the chain of a valid data
    /// address: verify (and correct) the whole counter chain, and bring
    /// the parity group into agreement with its data. The caller's chain
    /// is filled in place: at 784 bytes it is too large to move through a
    /// `Result` on every write.
    fn prepare_write(&mut self, addr: u64, chain: &mut Chain) -> Result<(), MemoryError> {
        self.stats.writes += 1;
        self.touch(addr, chain);
        self.verify_chain(chain)?;
        self.repair_parity_group(addr);
        Ok(())
    }

    /// Stores a freshly written data line and its parity slot
    /// (P = XOR of all nine chips).
    fn store_data(&mut self, addr: u64, line: LineWords) {
        let pi = self.ensure_line(self.fixed.layout.parity_line_addr(addr));
        let mut slots: [u64; 8] = core::array::from_fn(|k| self.lines[pi].0[k]);
        slots[self.fixed.layout.parity_slot(addr)] = line.xor_of_nine();
        self.lines[pi] = LineWords::from_parities(&slots);
        let i = self.ensure_line(addr);
        self.lines[i] = line;
    }

    /// Reads and verifies a line, correcting single-chip errors.
    ///
    /// # Errors
    ///
    /// Returns address-validation errors, or [`MemoryError::AttackDetected`]
    /// for uncorrectable corruption (multi-chip error or tampering).
    pub fn read_line(&mut self, addr: u64) -> Result<ReadOutput, MemoryError> {
        self.check_data_addr(addr)?;
        self.stats.reads += 1;
        let macs_before = self.stats.mac_computations;
        let (stored, counter, corrected) = self.verified_data(addr)?;
        let (ciphertext, _) = stored.data_parts();
        Ok(ReadOutput {
            data: self.fixed.cipher.decrypt(addr, counter, &ciphertext),
            corrected,
            mac_computations: (self.stats.mac_computations - macs_before) as u32,
        })
    }

    /// Verifies (correcting if need be) the stored data line at `addr`;
    /// returns it with its counter and whether it was corrected.
    fn verified_data(&mut self, addr: u64) -> Result<(LineWords, u64, bool), MemoryError> {
        let mut chain = self.chain(addr);
        self.touch(addr, &chain);
        let counter = self.verify_chain(&mut chain)?;
        let i = self.ensure_line(addr);

        // Fast path for a tracked permanent chip failure: reconstruct that
        // chip first; the MAC verification that follows is the same single
        // computation the error-free path performs (§IV-A).
        let stored = self.lines[i];
        if let Some(chip) = self.tracked_faulty_chip {
            let parity = self.parity_slot_value(addr);
            let candidate = stored.with_chip_xored(chip, parity ^ stored.xor_of_nine());
            let (cl, cmac) = candidate.data_parts();
            self.stats.mac_computations += 1;
            if self.fixed.gmac.line_tag(addr, counter, &cl) == cmac {
                let fixed = candidate != stored;
                if fixed {
                    self.lines[i] = candidate;
                    self.stats.preemptive_corrections += 1;
                }
                return Ok((candidate, counter, fixed));
            }
        }

        let (ciphertext, mac) = stored.data_parts();
        self.stats.mac_computations += 1;
        let tag = self.fixed.gmac.line_tag(addr, counter, &ciphertext);
        if tag == mac {
            return Ok((stored, counter, false));
        }

        // §III-B: correction instead of immediate attack declaration.
        Ok((self.correct_data_line(addr, counter, tag)?, counter, true))
    }

    /// Before `addr`'s slot is rewritten, brings its group's parity line
    /// back into agreement with the data. A healthy line holds `ParityP =
    /// XOR of its slots` (one fold to check). Otherwise a slot or ParityP
    /// is corrupt, and rebuilding ParityP from it would lose Scenario D's
    /// only copy of the truth: so each other line of the group is verified
    /// (and corrected) and its slot reset from it. A line that fails
    /// verification keeps its slot; its own next read reports the attack.
    fn repair_parity_group(&mut self, addr: u64) {
        let pi = self.ensure_line(self.fixed.layout.parity_line_addr(addr));
        if self.lines[pi].xor_of_nine() == 0 {
            return;
        }
        let p_slot = self.fixed.layout.parity_slot(addr);
        let first = addr - p_slot as u64 * LINE;
        for k in (0..8).filter(|&k| k != p_slot) {
            if let Ok((line, _, _)) = self.verified_data(first + k as u64 * LINE) {
                self.lines[pi].0[k] = line.xor_of_nine();
            }
        }
    }

    // ------------------------------------------------------------------
    // Error / attack injection
    // ------------------------------------------------------------------

    /// XORs a fixed corruption pattern into chip `chip` of the line at
    /// `line_addr` (any region: data, counter, tree or parity).
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9` or the address is outside the layout.
    pub fn inject_chip_error(&mut self, line_addr: u64, chip: usize) {
        self.inject_chip_pattern(line_addr, chip, crate::testsupport::CHIP_CORRUPTION_PATTERN);
    }

    /// XORs an arbitrary pattern into one chip of one line.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9` or the address is not a stored line (see
    /// [`Self::snapshot_raw`]).
    pub fn inject_chip_pattern(&mut self, line_addr: u64, chip: usize, pattern: ChipSlice) {
        assert!(chip < CHIPS, "chip {chip} out of range");
        let i = self.raw_line(line_addr);
        self.lines[i].0[chip] ^= u64::from_le_bytes(pattern);
    }

    /// Flips a single bit (0..64) of one chip of one line.
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9`, `bit >= 64`, or the address is invalid.
    pub fn inject_bit_flip(&mut self, line_addr: u64, chip: usize, bit: usize) {
        self.inject_chip_pattern(line_addr, chip, crate::testsupport::bit_flip_pattern(bit));
    }

    /// Fails an entire chip: corrupts its slice in every materialized line
    /// (all regions) — the full Chipkill scenario. A line still in its
    /// implicit zero state is built clean when first touched, so only the
    /// lines touched so far are corrupted, or every line after
    /// [`Self::materialize_all`].
    ///
    /// # Panics
    ///
    /// Panics if `chip >= 9`.
    pub fn inject_chip_failure(&mut self, chip: usize) {
        assert!(chip < CHIPS, "chip {chip} out of range");
        let pattern = u64::from_le_bytes(crate::testsupport::CHIP_FAILURE_PATTERN);
        for (w, &word) in self.materialized.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.lines[i].0[chip] ^= pattern;
                bits &= bits - 1;
            }
        }
    }

    /// Adversary primitive: snapshot the raw stored line (as read off the
    /// bus by a physical attacker).
    ///
    /// # Panics
    ///
    /// Panics if the address is not line-aligned, lies outside the layout,
    /// or lies in the MAC region (SYNERGY stores its MACs in the ECC chip).
    pub fn snapshot_raw(&mut self, line_addr: u64) -> StoredLine {
        let i = self.raw_line(line_addr);
        self.lines[i].into()
    }

    /// Adversary primitive: overwrite the raw stored line (splicing or
    /// replaying stale contents).
    ///
    /// # Panics
    ///
    /// Panics if the address is not a stored line (see
    /// [`Self::snapshot_raw`]).
    pub fn overwrite_raw(&mut self, line_addr: u64, stored: StoredLine) {
        let i = self.raw_line(line_addr);
        self.lines[i] = stored.into();
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Validates an adversary/injection address and materializes its line.
    fn raw_line(&mut self, line_addr: u64) -> usize {
        assert!(line_addr.is_multiple_of(LINE), "address {line_addr:#x} is not line-aligned");
        match self.fixed.layout.classify(line_addr) {
            Region::Mac => panic!("SYNERGY stores no separate MAC region; addr {line_addr:#x}"),
            Region::OutOfRange => panic!("address {line_addr:#x} outside layout"),
            _ => self.ensure_line(line_addr),
        }
    }

    fn check_data_addr(&self, addr: u64) -> Result<(), MemoryError> {
        if !addr.is_multiple_of(LINE) {
            return Err(MemoryError::Misaligned { addr });
        }
        if addr >= self.fixed.layout.data_bytes() {
            return Err(MemoryError::OutOfRange { addr, capacity: self.fixed.layout.data_bytes() });
        }
        Ok(())
    }

    /// The counter chain of data line `addr`: each line's address and the
    /// slot a write bumps in it, from the counter line up along
    /// [`MetadataLayout::tree_path_iter`], and the top line's root counter.
    fn chain(&self, addr: u64) -> Chain {
        let mut chain =
            Chain { levels: [ChainLevel::default(); MAX_CHAIN], len: 0, root: 0 };
        let mut line = self.fixed.layout.counter_line_addr(addr);
        let mut slot = self.fixed.layout.counter_slot(addr);
        // Index of `line` within its level: its low three bits are its
        // slot in its parent; the top line's whole index is its root slot.
        let mut idx = (line - self.fixed.layout.counter_base()) >> LINE_SHIFT;
        for parent in self.fixed.layout.tree_path_iter(line) {
            chain.levels[chain.len] = ChainLevel { addr: line, slot, ..ChainLevel::default() };
            chain.len += 1;
            slot = (idx & 7) as usize;
            idx >>= 3;
            line = parent;
        }
        chain.levels[chain.len] = ChainLevel { addr: line, slot, ..ChainLevel::default() };
        chain.len += 1;
        chain.root = idx as usize;
        chain
    }

    /// Prefetches every line an operation on data line `addr` reads (its
    /// counter chain, the line and its parity line), so their cache misses
    /// start together instead of each chain level's load waiting behind
    /// the MAC of the level above. A 72-byte stored line spans two cache
    /// lines, hence its first and last word. The prefetch does not block,
    /// so the misses overlap without filling the out-of-order window.
    fn touch(&self, addr: u64, chain: &Chain) {
        let parity = self.fixed.layout.parity_line_addr(addr);
        for line in chain.levels().iter().map(|l| l.addr).chain([addr, parity]) {
            synergy_crypto::prefetch(&self.lines[self.index(line)].0);
        }
    }

    /// Verifies (correcting via `ParityC`) every line of `chain` top-down,
    /// each against its parent's counter, fills in each level's parent
    /// counter, GHASH state and bumped-slot counter, and returns the data
    /// line's counter.
    fn verify_chain(&mut self, chain: &mut Chain) -> Result<u64, MemoryError> {
        let mut parent_ctr = self.root_counters[chain.root];
        for level in chain.levels[..chain.len].iter_mut().rev() {
            let (counters, state) = self.verified_node(level.addr, parent_ctr)?;
            level.parent_counter = parent_ctr;
            level.state = state;
            level.counter = counters[level.slot];
            parent_ctr = level.counter;
        }
        Ok(parent_ctr)
    }

    /// Verified read of one counter/tree line against its parent's
    /// counter, correcting via `ParityC`. Returns the line's counters and
    /// the GHASH state of its (corrected) payload under that counter.
    fn verified_node(
        &mut self,
        line_addr: u64,
        parent_ctr: u64,
    ) -> Result<([u64; 8], u128), MemoryError> {
        let i = self.ensure_line(line_addr);
        let stored = self.lines[i];
        let (mut counters, mac) = stored.counter_parts();
        let payload = pack_counters(&counters);
        self.stats.mac_computations += 1;
        let (tag, state) = self.fixed.gmac.node_tag_state(line_addr, parent_ctr, &payload);
        if tag == mac {
            return Ok((counters, state));
        }
        // Correction: up to 8 reconstruction attempts (Scenario B/C). The
        // ParityC reconstruction of chip c XORs `base = XOR of all nine
        // chips` into chip c's word: its low 56 bits into counter c, its
        // top byte into MAC byte c. Only the counter bits enter the MAC
        // payload, so one candidate kernel call tags all eight.
        let base = stored.xor_of_nine();
        let delta = (base & MASK56).to_le_bytes();
        let (_, tags) = self.fixed.gmac.line_tag_candidates(line_addr, parent_ctr, &payload, delta);
        let found = (0..8).find(|&chip| tags[chip] == mac ^ ((base >> 56) << (8 * chip)));
        // Every candidate up to and including the match, as if each had
        // been tagged in turn.
        self.stats.mac_computations += found.map_or(8, |chip| chip + 1) as u64;
        let Some(chip) = found else {
            self.stats.attacks_declared += 1;
            return Err(MemoryError::AttackDetected { addr: line_addr });
        };
        self.lines[i] = stored.with_chip_xored(chip, base);
        self.record_correction(chip);
        counters[chip] ^= base & MASK56;
        // The corrected payload's state, by the same linearity.
        Ok((counters, state ^ self.fixed.gmac.chip_delta_state(chip, delta)))
    }

    /// The §III-B data-line reconstruction engine (Scenario D included).
    /// `failed_tag` is the tag of the stored line, which did not match its
    /// MAC.
    fn correct_data_line(
        &mut self,
        addr: u64,
        counter: u64,
        failed_tag: u64,
    ) -> Result<LineWords, MemoryError> {
        let i = self.ensure_line(addr);
        let stored = self.lines[i];
        let (ciphertext, mac) = stored.data_parts();
        let p_slot = self.fixed.layout.parity_slot(addr);
        let pi = self.ensure_line(self.fixed.layout.parity_line_addr(addr));
        let parity_line = self.lines[pi];
        let primary = parity_line.0[p_slot];

        for pass in 0..2 {
            let (parity, reconstructed_parity) = if pass == 0 {
                (primary, false)
            } else {
                // The parity itself may sit in the failed chip: rebuild it
                // from ParityP and the other seven slots (all nine words
                // fold to ParityP ⊕ its slots; XORing `primary` back out
                // leaves the other seven).
                let rebuilt = parity_line.xor_of_nine() ^ primary;
                if rebuilt == primary {
                    break; // nothing new to try
                }
                (rebuilt, true)
            };

            // Reconstruction of any chip is `base ^ chips[chip]` with
            // `base = parity ⊕ xor_of_nine`, folded once per parity pass.
            // The candidates go MAC chip first, then the data chips
            // (§III-B ordering). The MAC chip's candidate keeps the
            // ciphertext, so its tag is the one that already failed; a
            // data chip's candidate keeps the MAC, and one candidate
            // kernel call tags all eight.
            let base = parity ^ stored.xor_of_nine();
            let found = if mac ^ base == failed_tag {
                Some(8)
            } else {
                let (_, tags) = self.fixed.gmac.line_tag_candidates(
                    addr,
                    counter,
                    ciphertext.as_bytes(),
                    base.to_le_bytes(),
                );
                tags.iter().position(|&t| t == mac)
            };
            // Every candidate up to and including the match, as if each
            // had been tagged in turn.
            self.stats.mac_computations += match found {
                Some(8) => 1,
                Some(chip) => chip as u64 + 2,
                None => CHIPS as u64,
            };
            if let Some(chip) = found {
                let candidate = stored.with_chip_xored(chip, base);
                self.lines[i] = candidate;
                if reconstructed_parity {
                    let mut new_slots: [u64; 8] = core::array::from_fn(|k| parity_line.0[k]);
                    new_slots[p_slot] = parity;
                    self.lines[pi] = LineWords::from_parities(&new_slots);
                    self.stats.parity_reconstructions += 1;
                }
                self.record_correction(chip);
                return Ok(candidate);
            }
        }
        self.stats.attacks_declared += 1;
        Err(MemoryError::AttackDetected { addr })
    }

    fn record_correction(&mut self, chip: usize) {
        self.stats.corrections += 1;
        self.stats.per_chip_corrections[chip] += 1;
        if let Some(threshold) = self.fault_tracking_threshold {
            if self.stats.per_chip_corrections[chip] >= threshold {
                self.tracked_faulty_chip = Some(chip);
            }
        }
    }

    /// Current parity value protecting the data line at `addr`.
    fn parity_slot_value(&mut self, addr: u64) -> u64 {
        let pi = self.ensure_line(self.fixed.layout.parity_line_addr(addr));
        self.lines[pi].0[self.fixed.layout.parity_slot(addr)]
    }

    /// Index of a line in `lines`: its line number, with the MAC region
    /// cut out. Only meaningful for data, counter, parity and tree lines.
    #[inline]
    fn index(&self, line_addr: u64) -> usize {
        let line = line_addr >> LINE_SHIFT;
        (if line_addr < self.mac_base { line } else { line - self.mac_lines }) as usize
    }

    #[inline]
    fn is_materialized(&self, i: usize) -> bool {
        self.materialized[i / 64] & (1 << (i % 64)) != 0
    }

    #[inline]
    fn store(&mut self, i: usize, stored: LineWords) {
        self.lines[i] = stored;
        self.materialized[i / 64] |= 1 << (i % 64);
    }

    /// Materializes the consistent zero-state of an untouched line and
    /// returns its index in `lines`.
    ///
    /// A data line and its parity line are materialized together, so a
    /// parity line is always built from clean zero-state data, never from
    /// data a later fault has already corrupted.
    #[inline]
    fn ensure_line(&mut self, line_addr: u64) -> usize {
        let i = self.index(line_addr);
        if !self.is_materialized(i) {
            match self.fixed.layout.classify(line_addr) {
                Region::Data => {
                    self.materialize_parity_group(self.fixed.layout.parity_line_addr(line_addr))
                }
                Region::Parity => self.materialize_parity_group(line_addr),
                Region::Counter | Region::Tree(_) => {
                    // All-zero counters, MAC keyed by the (necessarily zero)
                    // parent counter.
                    let mac = self.fixed.gmac.node_tag(line_addr, 0, &pack_counters(&[0; 8]));
                    self.store(i, LineWords::from_counters(&[0; 8], mac));
                }
                Region::Mac | Region::OutOfRange => {
                    unreachable!("SYNERGY stores no separate MAC region; addr {line_addr:#x}")
                }
            }
        }
        i
    }

    /// Materializes the parity line at `p_addr` together with the eight
    /// data lines it covers (the capacity is a multiple of 512 bytes, so
    /// every group is full), all in their zero state: plaintext zero under
    /// counter zero, and the parity slots they imply.
    fn materialize_parity_group(&mut self, p_addr: u64) {
        let first_data = (p_addr - self.fixed.layout.parity_base()) * 8;
        let mut slots = [0u64; 8];
        for (k, slot) in slots.iter_mut().enumerate() {
            let d = first_data + k as u64 * LINE;
            let di = self.index(d);
            debug_assert!(!self.is_materialized(di), "data line {d:#x} without its parity");
            let ciphertext = self.fixed.cipher.encrypt(d, 0, &CacheLine::zeroed());
            let mac = self.fixed.gmac.line_tag(d, 0, &ciphertext);
            let stored = LineWords::from_data(&ciphertext, mac);
            *slot = stored.xor_of_nine();
            self.store(di, stored);
        }
        let pi = self.index(p_addr);
        self.store(pi, LineWords::from_parities(&slots));
    }
}

/// Packs eight 56-bit counters into the 64-byte MAC payload, one
/// little-endian word each.
#[inline]
fn pack_counters(counters: &[u64; 8]) -> [u8; 64] {
    *CacheLine::from_words(*counters).as_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1 << 16; // 64 KiB: 1024 data lines, 128 counter lines

    fn mem() -> SynergyMemory {
        SynergyMemory::new(SynergyMemoryConfig::with_capacity(CAP)).unwrap()
    }

    fn line(fill: u8) -> CacheLine {
        CacheLine::from_bytes([fill; 64])
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = mem();
        for i in 0..32u64 {
            m.write_line(i * 64, &line(i as u8)).unwrap();
        }
        for i in 0..32u64 {
            let out = m.read_line(i * 64).unwrap();
            assert_eq!(out.data, line(i as u8));
            assert!(!out.corrected);
            assert!(out.mac_computations >= 1);
        }
    }

    #[test]
    fn unwritten_lines_read_as_zero() {
        let mut m = mem();
        let out = m.read_line(0x8000).unwrap();
        assert_eq!(out.data, CacheLine::zeroed());
        assert!(!out.corrected);
    }

    #[test]
    fn overwrites_bump_counters_and_stay_readable() {
        let mut m = mem();
        for round in 0..20u8 {
            m.write_line(0, &line(round)).unwrap();
            assert_eq!(m.read_line(0).unwrap().data, line(round));
        }
    }

    #[test]
    fn address_validation() {
        let mut m = mem();
        assert!(matches!(m.read_line(13), Err(MemoryError::Misaligned { .. })));
        assert!(matches!(m.read_line(CAP), Err(MemoryError::OutOfRange { .. })));
        assert!(matches!(
            m.write_line(CAP + 64, &line(0)),
            Err(MemoryError::OutOfRange { .. })
        ));
        assert!(SynergyMemory::new(SynergyMemoryConfig::with_capacity(100)).is_err());
    }

    #[test]
    fn unallocatable_capacity_is_an_error_not_an_abort() {
        let err = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 50)).unwrap_err();
        assert!(matches!(err, MemoryError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn a_chain_beyond_the_bound_is_an_error() {
        // 2^60 bytes: 16 tree levels above the counter line.
        let err = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 60)).unwrap_err();
        assert!(err.to_string().contains("counter chain"), "{err}");
    }

    #[test]
    fn read_only_line_survives_chip_failure() {
        // The line's parity is built while its zero-state data is clean, so
        // the failed chip stays correctable even though the line was never
        // written.
        let mut m = mem();
        assert_eq!(m.read_line(0x1000).unwrap().data, CacheLine::zeroed());
        m.inject_chip_failure(3);
        let out = m.read_line(0x1000).unwrap();
        assert_eq!(out.data, CacheLine::zeroed());
        assert!(out.corrected);
    }

    #[test]
    fn chip_failure_after_materialize_all_corrupts_untouched_lines() {
        let mut eager = mem();
        eager.materialize_all();
        eager.inject_chip_failure(2);
        let mut lazy = mem();
        lazy.inject_chip_failure(2);
        let ctr = lazy.layout().counter_line_addr(0x2000);
        for addr in [0x2000, ctr, lazy.layout().parity_line_addr(0x2000)] {
            let (clean, failed) = (lazy.snapshot_raw(addr), eager.snapshot_raw(addr));
            assert_ne!(clean.chips[2], failed.chips[2], "line {addr:#x}");
            assert_eq!(clean.chips[..2], failed.chips[..2], "line {addr:#x}");
        }
        // Both still read the zero line back; the eager one corrects it.
        assert!(!lazy.read_line(0x2000).unwrap().corrected);
        assert!(eager.read_line(0x2000).unwrap().corrected);
    }

    #[test]
    #[should_panic(expected = "no separate MAC region")]
    fn raw_access_to_the_mac_region_panics() {
        let mut m = mem();
        let mac_line = m.layout().mac_line_addr(0);
        m.snapshot_raw(mac_line);
    }

    #[test]
    fn ciphertext_differs_from_plaintext_and_varies_per_write() {
        let mut m = mem();
        m.write_line(0, &line(0x77)).unwrap();
        let first = m.snapshot_raw(0);
        let (ct1, _) = first.data_parts();
        assert_ne!(ct1, line(0x77), "data must be encrypted at rest");
        m.write_line(0, &line(0x77)).unwrap();
        let (ct2, _) = m.snapshot_raw(0).data_parts();
        assert_ne!(ct1, ct2, "counter bump must change the ciphertext");
    }

    #[test]
    fn corrects_every_single_chip_error_on_data_lines() {
        for chip in 0..9 {
            let mut m = mem();
            m.write_line(0x400, &line(0xCD)).unwrap();
            m.inject_chip_error(0x400, chip);
            let out = m.read_line(0x400).unwrap();
            assert_eq!(out.data, line(0xCD), "chip {chip}");
            assert!(out.corrected, "chip {chip}");
            assert_eq!(m.stats().corrections, 1);
            assert_eq!(m.stats().per_chip_corrections[chip], 1);
            // Scrubbed: the next read is clean and cheap.
            let again = m.read_line(0x400).unwrap();
            assert!(!again.corrected, "chip {chip} must be scrubbed");
        }
    }

    #[test]
    fn single_bit_flip_is_corrected() {
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        m.inject_bit_flip(0, 3, 17);
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line(1));
        assert!(out.corrected);
    }

    #[test]
    fn two_chip_error_declares_attack() {
        let mut m = mem();
        m.write_line(0, &line(9)).unwrap();
        m.inject_chip_error(0, 2);
        m.inject_chip_error(0, 6);
        assert!(matches!(m.read_line(0), Err(MemoryError::AttackDetected { .. })));
        assert_eq!(m.stats().attacks_declared, 1);
    }

    #[test]
    fn counter_line_chip_error_is_corrected() {
        let mut m = mem();
        m.write_line(0, &line(5)).unwrap();
        let ctr_addr = m.layout().counter_line_addr(0);
        m.inject_chip_error(ctr_addr, 4);
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line(5));
        // The correction happened on the counter line, before data verify.
        assert_eq!(m.stats().corrections, 1);
    }

    #[test]
    fn tree_node_chip_error_is_corrected() {
        let mut m = mem();
        assert!(m.layout().tree_depth() >= 1, "need an in-memory tree level");
        m.write_line(0, &line(7)).unwrap();
        let node = m.layout().tree_node_addr(0, 0);
        m.inject_chip_error(node, 1);
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line(7));
        assert_eq!(m.stats().corrections, 1);
    }

    #[test]
    fn data_and_parity_in_same_failed_chip_scenario_d() {
        // Scenario D of Figure 7(c): the data line and its parity slot are
        // both corrupted. ParityP rebuilds the parity, which rebuilds the
        // data.
        let mut m = mem();
        m.write_line(0x200, &line(0xEE)).unwrap();
        let p_addr = m.layout().parity_line_addr(0x200);
        let p_slot = m.layout().parity_slot(0x200);
        m.inject_chip_error(0x200, 3);
        // Corrupt exactly the parity slot protecting our line.
        m.inject_chip_pattern(p_addr, p_slot, [0x3C; 8]);
        let out = m.read_line(0x200).unwrap();
        assert_eq!(out.data, line(0xEE));
        assert!(out.corrected);
        assert_eq!(m.stats().parity_reconstructions, 1);
        assert!(out.mac_computations > 9, "needed the second parity pass");
    }

    #[test]
    fn whole_chip_failure_everything_still_readable() {
        // The headline claim: any 1 of 9 chips can die entirely.
        for chip in [0, 4, 8] {
            let mut m = mem();
            for i in 0..64u64 {
                m.write_line(i * 64, &line(i as u8)).unwrap();
            }
            m.inject_chip_failure(chip);
            for i in 0..64u64 {
                let out = m.read_line(i * 64).unwrap();
                assert_eq!(out.data, line(i as u8), "chip {chip}, line {i}");
            }
            assert!(m.stats().corrections > 0);
        }
    }

    #[test]
    fn fault_tracking_kicks_in_and_shortens_correction() {
        let mut m = SynergyMemory::new(SynergyMemoryConfig {
            fault_tracking_threshold: Some(4),
            ..SynergyMemoryConfig::with_capacity(CAP)
        })
        .unwrap();
        for i in 0..16u64 {
            m.write_line(i * 64, &line(3)).unwrap();
        }
        // Chip 6 keeps failing.
        for i in 0..8u64 {
            m.inject_chip_error(i * 64, 6);
            let _ = m.read_line(i * 64).unwrap();
        }
        assert_eq!(m.tracked_faulty_chip(), Some(6));
        // Now an error on chip 6 is fixed with ~1 data MAC computation
        // (plus the counter-chain verifies).
        m.inject_chip_error(8 * 64, 6);
        let out = m.read_line(8 * 64).unwrap();
        assert!(out.corrected);
        assert!(m.stats().preemptive_corrections >= 1);
        let chain_macs = 1 + m.layout().tree_depth() as u32;
        assert_eq!(out.mac_computations, chain_macs + 1, "fast path is 1 data MAC");
    }

    #[test]
    fn tracking_set_by_a_chain_correction_applies_to_the_same_read() {
        // The counter line's correction makes chip 3 the tracked chip in
        // the middle of the read, so the data line's chip 3 is then
        // rebuilt on the tracked-chip fast path.
        let mut m = SynergyMemory::new(SynergyMemoryConfig {
            fault_tracking_threshold: Some(1),
            ..SynergyMemoryConfig::with_capacity(CAP)
        })
        .unwrap();
        m.write_line(0x400, &line(0x42)).unwrap();
        m.inject_chip_error(m.layout().counter_line_addr(0x400), 3);
        m.inject_chip_error(0x400, 3);
        let out = m.read_line(0x400).unwrap();
        assert_eq!(out.data, line(0x42));
        assert_eq!(m.tracked_faulty_chip(), Some(3));
        assert_eq!(m.stats().preemptive_corrections, 1);
        assert_eq!(m.stats().corrections, 1, "only the counter line needed the slow path");
    }

    #[test]
    fn replay_of_stale_data_is_detected() {
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        let stale = m.snapshot_raw(0); // adversary records {data, MAC}
        m.write_line(0, &line(2)).unwrap();
        m.overwrite_raw(0, stale); // and replays it later
        // The stale tuple verifies against the *old* counter only; the
        // counter has moved on, so every correction attempt fails.
        assert!(matches!(m.read_line(0), Err(MemoryError::AttackDetected { .. })));
    }

    #[test]
    fn replay_of_counter_and_data_together_is_detected_by_tree() {
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        let ctr_addr = m.layout().counter_line_addr(0);
        let stale_data = m.snapshot_raw(0);
        let stale_ctr = m.snapshot_raw(ctr_addr);
        m.write_line(0, &line(2)).unwrap();
        // Replay the whole {data, MAC, counter} tuple (§II-A4's attack).
        m.overwrite_raw(0, stale_data);
        m.overwrite_raw(ctr_addr, stale_ctr);
        // The counter line's MAC is keyed by the parent tree counter,
        // which advanced — the tree catches the replay.
        assert!(matches!(m.read_line(0), Err(MemoryError::AttackDetected { .. })));
    }

    #[test]
    fn tampered_ciphertext_is_detected_or_corrected_never_silent() {
        let mut m = mem();
        m.write_line(0, &line(0x5A)).unwrap();
        let mut raw = m.snapshot_raw(0);
        raw.corrupt_chip(0, [1, 0, 0, 0, 0, 0, 0, 0]);
        m.overwrite_raw(0, raw);
        // A single-chip modification is indistinguishable from an error:
        // SYNERGY corrects it back to the authentic data (never returns
        // the tampered value).
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line(0x5A));
        assert!(out.corrected);
    }

    #[test]
    fn tampered_parity_alone_is_harmless_and_cannot_forge() {
        // §IV-B: parity is unprotected, but a tampered parity is only used
        // under a MAC mismatch, where it fails to produce a verifying line.
        let mut m = mem();
        m.write_line(0, &line(0x11)).unwrap();
        let p_addr = m.layout().parity_line_addr(0);
        m.inject_chip_error(p_addr, m.layout().parity_slot(0));
        // Clean read: parity never consulted.
        assert_eq!(m.read_line(0).unwrap().data, line(0x11));
        // Now the data also breaks: primary parity is wrong, but ParityP
        // rebuilds the true parity and correction still succeeds.
        m.inject_chip_error(0, 2);
        let out = m.read_line(0).unwrap();
        assert_eq!(out.data, line(0x11));
        assert!(out.corrected);
    }

    #[test]
    fn mac_computation_counts_match_paper_bounds() {
        // Clean read: 1 data MAC + one per tree chain level.
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        let chain = 1 + m.layout().tree_depth() as u32;
        let out = m.read_line(0).unwrap();
        assert_eq!(out.mac_computations, chain + 1);

        // Worst single-chip data error: ≤ chain + 1 (clean attempt) + 9
        // (first parity pass); Scenario D adds ≤ 9 more — within the
        // paper's "up to 16 MAC re-computations" for the data line plus
        // the chain.
        m.inject_chip_error(0, 0);
        let out = m.read_line(0).unwrap();
        assert!(out.corrected);
        assert!(out.mac_computations <= chain + 1 + 18);
    }

    #[test]
    fn writes_propagate_to_root_so_siblings_unaffected() {
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        // A sibling data line under the same counter line still reads fine
        // after its neighbour was rewritten many times.
        for _ in 0..10 {
            m.write_line(64, &line(2)).unwrap();
        }
        assert_eq!(m.read_line(0).unwrap().data, line(1));
        assert_eq!(m.read_line(64).unwrap().data, line(2));
    }

    #[test]
    fn stats_accumulate() {
        let mut m = mem();
        m.write_line(0, &line(1)).unwrap();
        let _ = m.read_line(0).unwrap();
        assert_eq!(m.stats().reads, 1);
        assert_eq!(m.stats().writes, 1);
        assert!(m.stats().mac_computations > 2);
        assert_eq!(m.stats().attacks_declared, 0);
    }
}
