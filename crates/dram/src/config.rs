//! DRAM system configuration: geometry, DDR3 timing and power parameters.
//!
//! Defaults follow the paper's Table III: DDR3 at an 800 MHz bus clock
//! (DDR3-1600), 2 channels, 2 ranks/channel, 8 banks/rank, 64 K rows/bank,
//! 128 cachelines per row, 64-byte lines.

/// Errors from DRAM configuration validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// What was wrong.
    pub reason: String,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid dram config: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

/// DDR3 timing parameters in memory-bus cycles (1.25 ns at 800 MHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// ACT-to-column-command delay (tRCD).
    pub t_rcd: u64,
    /// PRE-to-ACT delay (tRP).
    pub t_rp: u64,
    /// Read column-command-to-data delay (CL).
    pub t_cas: u64,
    /// Write column-command-to-data delay (CWL).
    pub t_cwd: u64,
    /// Minimum ACT-to-PRE interval (tRAS).
    pub t_ras: u64,
    /// Minimum ACT-to-ACT interval, same bank (tRC).
    pub t_rc: u64,
    /// Data-burst duration for BL8 (4 bus cycles).
    pub t_burst: u64,
    /// Column-to-column command spacing (tCCD).
    pub t_ccd: u64,
    /// ACT-to-ACT spacing across banks of a rank (tRRD).
    pub t_rrd: u64,
    /// Four-activate window (tFAW).
    pub t_faw: u64,
    /// Write-recovery time: WR data end to PRE (tWR).
    pub t_wr: u64,
    /// Write-to-read turnaround, same rank (tWTR).
    pub t_wtr: u64,
    /// Read-to-PRE spacing (tRTP).
    pub t_rtp: u64,
    /// Refresh cycle time (tRFC).
    pub t_rfc: u64,
    /// Average refresh interval (tREFI); 0 disables refresh.
    pub t_refi: u64,
    /// Bus turnaround penalty when the data bus switches direction.
    pub t_turnaround: u64,
}

impl Default for TimingParams {
    fn default() -> Self {
        // DDR3-1600 (11-11-11) in 800 MHz bus cycles.
        Self {
            t_rcd: 11,
            t_rp: 11,
            t_cas: 11,
            t_cwd: 8,
            t_ras: 28,
            t_rc: 39,
            t_burst: 4,
            t_ccd: 4,
            t_rrd: 5,
            t_faw: 24,
            t_wr: 12,
            t_wtr: 6,
            t_rtp: 6,
            t_rfc: 128,
            t_refi: 6240, // 7.8 us
            t_turnaround: 2,
        }
    }
}

impl TimingParams {
    /// Cycles of `[from, to)` that fall inside a refresh window.
    ///
    /// Refresh fires at exactly `k·t_refi` for `k ≥ 1` (every rank
    /// initializes `next_refresh = t_refi` and advances it by `t_refi`
    /// per fire; the fast-forward path never skips a deadline), locking
    /// the rank for the `[k·t_refi, k·t_refi + t_rfc)` window. Cycle
    /// attribution uses this to split a request's bank wait into
    /// refresh-stall vs genuine precharge/activate serialization.
    pub fn refresh_overlap(&self, from: u64, to: u64) -> u64 {
        if self.t_refi == 0 || to <= from {
            return 0;
        }
        // First candidate window that could reach past `from`.
        let mut k = (from.saturating_sub(self.t_rfc) / self.t_refi).max(1);
        let mut total = 0;
        while k * self.t_refi < to {
            let start = k * self.t_refi;
            let end = start + self.t_rfc;
            let lo = start.max(from);
            let hi = end.min(to);
            if hi > lo {
                total += hi - lo;
            }
            k += 1;
        }
        total
    }
}

/// Current-based DRAM energy parameters, Micron-power-model style, expressed
/// as energy-per-event for a whole rank (9-chip x8 ECC-DIMM).
///
/// The absolute values are representative of DDR3 datasheets; the paper's
/// energy results (Fig 10) are relative, so only ratios between activate,
/// burst and background energy matter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Energy per ACT+PRE pair, in nanojoules.
    pub activate_nj: f64,
    /// Energy per 64-byte read burst, in nanojoules.
    pub read_nj: f64,
    /// Energy per 64-byte write burst, in nanojoules.
    pub write_nj: f64,
    /// Background power per rank, in watts.
    pub background_w_per_rank: f64,
    /// I/O + termination energy per 64-byte transfer, in nanojoules.
    pub io_nj: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        Self {
            activate_nj: 22.0,
            read_nj: 12.0,
            write_nj: 13.0,
            background_w_per_rank: 0.45,
            io_nj: 5.0,
        }
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Rows per bank.
    pub rows_per_bank: u64,
    /// Cachelines per row (row-buffer size / line size).
    pub lines_per_row: u64,
    /// Cacheline size in bytes.
    pub line_bytes: u64,
    /// Read-queue capacity per channel.
    pub read_queue_capacity: usize,
    /// Write-queue capacity per channel.
    pub write_queue_capacity: usize,
    /// Write-drain starts when the write queue reaches this occupancy.
    pub write_hi_watermark: usize,
    /// Write-drain stops when the write queue falls to this occupancy.
    pub write_lo_watermark: usize,
    /// Timing parameters.
    pub timing: TimingParams,
    /// Power parameters.
    pub power: PowerParams,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 65536,
            lines_per_row: 128,
            line_bytes: 64,
            read_queue_capacity: 64,
            write_queue_capacity: 96,
            write_hi_watermark: 64,
            write_lo_watermark: 32,
            timing: TimingParams::default(),
            power: PowerParams::default(),
        }
    }
}

impl DramConfig {
    /// Table III configuration with a different channel count (Fig 12 sweep).
    pub fn with_channels(channels: usize) -> Self {
        Self { channels, ..Self::default() }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any count is zero, watermarks are
    /// inconsistent, sizes are not powers of two, or the queues together
    /// hold 2^32 - 1 requests or more.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fail = |reason: &str| Err(ConfigError { reason: reason.to_string() });
        if self.channels == 0
            || self.ranks_per_channel == 0
            || self.banks_per_rank == 0
            || self.rows_per_bank == 0
            || self.lines_per_row == 0
        {
            return fail("all geometry counts must be nonzero");
        }
        if !self.line_bytes.is_power_of_two() {
            return fail("line_bytes must be a power of two");
        }
        if self.write_lo_watermark >= self.write_hi_watermark {
            return fail("write_lo_watermark must be below write_hi_watermark");
        }
        if self.write_hi_watermark > self.write_queue_capacity {
            return fail("write_hi_watermark exceeds write queue capacity");
        }
        if self.timing.t_burst == 0 {
            return fail("t_burst must be nonzero");
        }
        if self.read_queue_capacity.saturating_add(self.write_queue_capacity) >= u32::MAX as usize {
            return fail("queue capacities must total below 2^32 - 1");
        }
        Ok(())
    }

    /// Total addressable capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.channels as u64
            * self.ranks_per_channel as u64
            * self.banks_per_rank as u64
            * self.rows_per_bank
            * self.lines_per_row
            * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid_and_matches_table_iii() {
        let cfg = DramConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.channels, 2);
        assert_eq!(cfg.ranks_per_channel, 2);
        assert_eq!(cfg.banks_per_rank, 8);
        assert_eq!(cfg.rows_per_bank, 65536);
        assert_eq!(cfg.lines_per_row, 128);
    }

    #[test]
    fn capacity_computation() {
        let cfg = DramConfig::default();
        // 2ch * 2rk * 8bk * 64K rows * 128 lines * 64 B = 16 GiB.
        assert_eq!(cfg.capacity_bytes(), 16 << 30);
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = DramConfig { channels: 0, ..DramConfig::default() };
        assert!(cfg.validate().is_err());

        let mut cfg = DramConfig::default();
        cfg.write_lo_watermark = cfg.write_hi_watermark;
        assert!(cfg.validate().is_err());

        let cfg = DramConfig { line_bytes: 48, ..DramConfig::default() };
        assert!(cfg.validate().is_err());

        let cfg = DramConfig { read_queue_capacity: u32::MAX as usize, ..DramConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn refresh_overlap_clips_windows_to_the_interval() {
        let t = TimingParams { t_refi: 100, t_rfc: 10, ..TimingParams::default() };
        // Entirely before the first window (refresh never fires at k=0).
        assert_eq!(t.refresh_overlap(0, 100), 0);
        // Covers the first window exactly.
        assert_eq!(t.refresh_overlap(100, 110), 10);
        // Partial overlap on each side.
        assert_eq!(t.refresh_overlap(95, 105), 5);
        assert_eq!(t.refresh_overlap(105, 300), 5 + 10);
        // Interval inside a window.
        assert_eq!(t.refresh_overlap(102, 106), 4);
        // Spanning several windows.
        assert_eq!(t.refresh_overlap(0, 1000), 9 * 10);
        // Large offsets don't iterate from k=1 (would be slow) and stay
        // exact.
        assert_eq!(t.refresh_overlap(1_000_000_095, 1_000_000_205), 10 + 5);
        // Degenerate cases.
        assert_eq!(t.refresh_overlap(50, 50), 0);
        assert_eq!(t.refresh_overlap(60, 40), 0);
        let off = TimingParams { t_refi: 0, ..TimingParams::default() };
        assert_eq!(off.refresh_overlap(0, 10_000), 0);
    }

    #[test]
    fn channel_sweep_constructor() {
        for ch in [2, 4, 8] {
            let cfg = DramConfig::with_channels(ch);
            cfg.validate().unwrap();
            assert_eq!(cfg.channels, ch);
        }
    }
}
