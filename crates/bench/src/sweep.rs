//! Zero-dependency parallel sweep runner: the one way a figure runs its
//! simulator cells.
//!
//! The paper's performance figures are grids of (design, workload,
//! channels) cells — ~35 workloads × 3 designs for Figures 8–9, 10 design
//! columns for `fig_degraded` — and every cell is an independent
//! simulation: [`SweepCell::run`] builds each cell's configuration and
//! seeds its trace from the *cell parameters alone* (`trace_seed`, shared
//! across designs by design), never from global mutable state. Cells can therefore run on any thread in any
//! order and still produce byte-identical [`SimResult`]s; [`run_sweep`]
//! owns the cell order and hands the results back as
//! `results[workload][design]`, and the order-sensitive fold into
//! [`crate::MetricsSnapshot`] stays on the calling thread.
//!
//! Cells run on [`synergy_obs::shard::run_in_order`], the workspace's one
//! shard runner. The worker count comes from `SYNERGY_BENCH_THREADS`,
//! defaulting to the machine's available parallelism;
//! `SYNERGY_BENCH_THREADS=1` reproduces the sequential run exactly, which
//! `tests/sweep_determinism.rs` and this module's tests pin.

use std::convert::Infallible;
use std::thread;
use std::time::Instant;

use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::DramConfig;
use synergy_faultsim::FaultSchedule;
use synergy_obs::{shard, MetricRegistry};
use synergy_secure::DesignConfig;
use synergy_trace::presets::{self, MixSpec};
use synergy_trace::{MultiCoreTrace, WorkloadSpec};

use crate::{bench_insts, bench_warmup, trace_seed};

/// Worker threads for [`run_sweep`]: `SYNERGY_BENCH_THREADS`, defaulting
/// to the machine's available parallelism.
pub fn sweep_threads() -> usize {
    shard::resolve_threads(crate::env_u64("SYNERGY_BENCH_THREADS", 0) as usize)
}

/// The workload half of a sweep cell: a single benchmark in rate mode or
/// a 4-benchmark mix.
#[derive(Debug, Clone)]
pub enum SweepWorkload {
    /// One benchmark replicated across all cores (rate mode).
    Single(WorkloadSpec),
    /// A 4-benchmark mix, one member per core.
    Mix(MixSpec),
}

impl SweepWorkload {
    /// The workload name as shown on figure axes.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Single(w) => w.name,
            Self::Mix(m) => m.name,
        }
    }
}

/// One independent simulation of the sweep grid.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// The secure-memory design under evaluation.
    pub design: DesignConfig,
    /// The workload driving it.
    pub workload: SweepWorkload,
    /// DRAM channel count (affects the trace seed — see `trace_seed`).
    pub channels: usize,
    /// Scheduled fault injections (empty for healthy runs). Deliberately
    /// NOT part of the trace seed: a degraded cell replays the identical
    /// trace as its healthy twin, so their IPC ratio is a pure
    /// correction-traffic slowdown.
    pub fault_schedule: FaultSchedule,
}

impl SweepCell {
    /// A healthy cell.
    pub fn new(design: &DesignConfig, workload: SweepWorkload, channels: usize) -> Self {
        Self {
            design: design.clone(),
            workload,
            channels,
            fault_schedule: FaultSchedule::default(),
        }
    }

    /// A healthy single-benchmark (rate-mode) cell.
    pub fn single(design: &DesignConfig, workload: &WorkloadSpec, channels: usize) -> Self {
        Self::new(design, SweepWorkload::Single(workload.clone()), channels)
    }

    /// Attaches a fault schedule (builder-style).
    #[must_use]
    pub fn with_fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.fault_schedule = faults;
        self
    }

    /// Runs this cell at the `SYNERGY_BENCH_INSTS` / `SYNERGY_BENCH_WARMUP`
    /// scale (4 cores, rate mode or one mix member per core).
    pub fn run(&self) -> SimResult {
        self.run_with(|_| {})
    }

    /// [`run`](Self::run) with a config hook: `tweak` runs on the cell's
    /// fully-populated [`SystemConfig`] just before the trace is built —
    /// for a knob the grid pins, e.g. `fig_degraded`'s epoch-sampled
    /// timeline run.
    pub fn run_with(&self, tweak: impl FnOnce(&mut SystemConfig)) -> SimResult {
        let mut cfg = SystemConfig::new(self.design.clone());
        cfg.dram = DramConfig::with_channels(self.channels);
        cfg.warmup_records_per_core = bench_warmup();
        cfg.fault_schedule = self.fault_schedule.clone();
        tweak(&mut cfg);
        let seed = trace_seed(self.channels);
        let mut trace = match &self.workload {
            SweepWorkload::Single(w) => MultiCoreTrace::rate_mode(w, cfg.cores, seed),
            SweepWorkload::Mix(m) => MultiCoreTrace::mixed(&presets::mix_members(m), seed),
        };
        run(&cfg, &mut trace, bench_insts()).expect("simulation config is valid")
    }
}

/// Outcome of a sweep: the grid's results plus timing.
#[derive(Debug)]
pub struct SweepReport {
    /// `results[w][d]` is the cell of workload `w` and design `d`, in the
    /// order [`run_sweep`] was given them, regardless of which thread ran
    /// which cell.
    pub results: Vec<Vec<SimResult>>,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
}

impl SweepReport {
    /// Cells in the grid.
    pub fn cells(&self) -> usize {
        self.results.iter().map(Vec::len).sum()
    }

    /// `metric` of design `design` over that of design `base`, one ratio
    /// per workload in workload order — the per-workload normalization
    /// every performance figure averages with [`crate::gmean`].
    pub fn ratios(
        &self,
        design: usize,
        base: usize,
        metric: impl Fn(&SimResult) -> f64,
    ) -> Vec<f64> {
        self.results.iter().map(|row| metric(&row[design]) / metric(&row[base])).collect()
    }

    /// The sweep's own timing as a metric registry, for folding into a
    /// [`crate::MetricsSnapshot`] so exported artifacts carry the
    /// simulator-throughput trajectory alongside the simulated results.
    pub fn registry(&self) -> MetricRegistry {
        let mut reg = MetricRegistry::new();
        reg.set_gauge("sweep.wall_seconds", self.wall_seconds);
        reg.set_counter("sweep.threads", self.threads as u64);
        // Recorded so exported artifacts are honest about the host: a
        // 1-core machine cannot demonstrate parallel speedup no matter
        // how many worker threads the sweep spawned.
        reg.set_counter(
            "sweep.host_cpus",
            thread::available_parallelism().map_or(0, |n| n.get() as u64),
        );
        reg.set_counter("sweep.cells", self.cells() as u64);
        let total_cycles: u64 = self.results.iter().flatten().map(|r| r.mem_cycles).sum();
        reg.set_counter("sweep.mem_cycles", total_cycles);
        if self.wall_seconds > 0.0 {
            reg.set_gauge("sweep.cycles_per_sec", total_cycles as f64 / self.wall_seconds);
        }
        reg
    }

    /// Prints the standard one-line sweep timing summary.
    pub fn print_summary(&self) {
        let cells = self.cells();
        println!(
            "[sweep] {} cells on {} thread{} in {:.2}s ({:.2} cells/s)",
            cells,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall_seconds,
            if self.wall_seconds > 0.0 { cells as f64 / self.wall_seconds } else { 0.0 },
        );
    }
}

/// Runs the `workloads` × `designs` grid on [`sweep_threads`] workers and
/// prints the timing summary. `cell(w, d)` describes each cell, and the
/// report's `results[w][d]` holds its result. Byte-identical to running
/// the cells one by one.
pub fn run_sweep<W, D>(
    workloads: &[W],
    designs: &[D],
    cell: impl Fn(&W, &D) -> SweepCell,
) -> SweepReport {
    let report = sweep_grid(workloads, designs, cell, sweep_threads());
    report.print_summary();
    report
}

/// [`run_sweep`] on `threads` workers.
fn sweep_grid<W, D>(
    workloads: &[W],
    designs: &[D],
    cell: impl Fn(&W, &D) -> SweepCell,
    threads: usize,
) -> SweepReport {
    let cells: Vec<SweepCell> =
        workloads.iter().flat_map(|w| designs.iter().map(|d| cell(w, d))).collect();
    let wall = Instant::now();
    let mut flat = parallel_map(&cells, threads, |_, c| c.run()).into_iter();
    let results = workloads.iter().map(|_| flat.by_ref().take(designs.len()).collect()).collect();
    SweepReport {
        results,
        wall_seconds: wall.elapsed().as_secs_f64(),
        threads: threads.min(cells.len().max(1)),
    }
}

/// Deterministic parallel map: applies `f` to every item on up to
/// `threads` workers (0 = available parallelism) and returns the outputs in
/// item order, independent of scheduling. A thin caller of
/// [`shard::run_in_order`], so one worker runs inline on the caller.
///
/// `f` must be a pure function of its arguments for the determinism
/// guarantee to mean anything; the simulation entry points qualify because
/// each run is seeded from cell parameters only.
///
/// # Panics
///
/// Propagates a panic from any worker.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    let work = |i: u64| f(i as usize, &items[i as usize]);
    let Ok(()) = shard::run_in_order(0..items.len() as u64, threads, work, |_, r| {
        out.push(r);
        Ok::<(), Infallible>(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_registry_records_host_cpus() {
        let report = SweepReport { results: Vec::new(), wall_seconds: 0.0, threads: 1 };
        let reg = report.registry();
        // available_parallelism never reports 0 on a host that runs tests.
        assert!(reg.counter("sweep.host_cpus").unwrap() >= 1);
    }

    #[test]
    fn sweep_threads_defaults_to_parallelism() {
        // Can't assume the env var is unset under `cargo test`, but the
        // value must always be positive.
        assert!(sweep_threads() >= 1);
    }

    #[test]
    fn workload_names_cover_both_kinds() {
        let w = presets::by_name("mcf").unwrap();
        assert_eq!(SweepWorkload::Single(w).name(), "mcf");
        assert_eq!(SweepWorkload::Mix(presets::mixes().remove(0)).name(), "mix1");
    }

    #[test]
    fn grid_results_come_back_workload_major() {
        let designs = [DesignConfig::sgx_o(), DesignConfig::synergy()];
        let workloads: Vec<WorkloadSpec> =
            ["gobmk", "h264ref"].iter().map(|n| presets::by_name(n).unwrap()).collect();
        let cell = |w: &WorkloadSpec, d: &DesignConfig| SweepCell::single(d, w, 2);
        let alone: Vec<Vec<SimResult>> =
            workloads.iter().map(|w| designs.iter().map(|d| cell(w, d).run()).collect()).collect();
        for threads in [1, 2] {
            let report = sweep_grid(&workloads, &designs, cell, threads);
            assert_eq!(report.cells(), 4);
            assert_eq!(report.results.len(), workloads.len());
            for (w, (row, alone_row)) in report.results.iter().zip(&alone).enumerate() {
                assert_eq!(row.len(), designs.len());
                for (d, (r, a)) in row.iter().zip(alone_row).enumerate() {
                    let what = format!("{threads} threads, workload {w}, design {d}");
                    assert_eq!(r.design, designs[d].name, "{what}");
                    assert_eq!(r.design, a.design, "{what}");
                    assert_eq!(r.mem_cycles, a.mem_cycles, "{what}");
                    assert_eq!(r.ipc.to_bits(), a.ipc.to_bits(), "{what}");
                    assert_eq!(r.traffic, a.traffic, "{what}");
                }
            }
        }
        // The four cells differ, so a transposed or shifted grid cannot pass.
        let ipcs: Vec<u64> = alone.iter().flatten().map(|r| r.ipc.to_bits()).collect();
        for (i, a) in ipcs.iter().enumerate() {
            assert!(!ipcs[i + 1..].contains(a), "cells {i} and a later one share an IPC");
        }
    }
}
