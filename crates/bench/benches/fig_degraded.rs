//! Degraded-mode experiment — performance with a failed DRAM chip.
//!
//! The paper's §IV-A argument is that SYNERGY keeps running after a
//! permanent chip failure: the first erroneous read pays a one-time
//! diagnosis burst (≤9 MAC recomputations, §III-B), after which the chip
//! is *tracked* and every read costs only one extra (cacheable) parity
//! fetch. This experiment quantifies that: each workload runs twice per
//! design — healthy, and with a permanent whole-chip failure injected at
//! `SYNERGY_BENCH_FAIL_CYCLE` (default 2,000) — over the identical trace
//! stream, so the IPC ratio isolates the correction traffic.
//!
//! Designs cover all three [`ChipFailureResponse`] classes:
//!
//! * SGX_O (SECDED) — cannot correct: the run completes but every
//!   off-chip read is a detected-uncorrectable error (DUE) and no
//!   correction traffic is added.
//! * SGX_O + Chipkill — corrects inline within the wider ECC word: no
//!   extra memory traffic, slowdown ≈ 1.
//! * Synergy / IVEC / LOT-ECC — reconstruct from RAID-3 parity: one
//!   diagnosis, then parity-line reads whose cacheability determines the
//!   slowdown.

use synergy_bench::*;
use synergy_faultsim::FaultSchedule;
use synergy_secure::DesignConfig;

/// The failed chip: a data chip (not the ECC chip), the common case.
const FAILED_CHIP: usize = 3;

fn main() {
    banner(
        "Degraded mode — performance under a permanent chip failure",
        "§III-B/§IV-A",
    );
    let fail_cycle = bench_fail_cycle();
    println!("chip {FAILED_CHIP} fails permanently at memory cycle {fail_cycle}\n");
    let workloads = perf_workloads();
    let designs = [
        DesignConfig::sgx_o(),
        DesignConfig::sgx_o_chipkill(),
        DesignConfig::synergy(),
        DesignConfig::ivec(),
        DesignConfig::lot_ecc(true),
    ];

    // Each design is two grid columns, its healthy and its degraded twin.
    // The fault schedule is not part of the trace seed: both twins replay
    // the identical trace.
    let failure = FaultSchedule::chip_failure_at(fail_cycle, FAILED_CHIP);
    let columns: Vec<(&DesignConfig, FaultSchedule)> = designs
        .iter()
        .flat_map(|d| [(d, FaultSchedule::default()), (d, failure.clone())])
        .collect();
    let report = run_sweep(&workloads, &columns, |w, (d, faults)| {
        SweepCell::single(d, w, 2).with_fault_schedule(faults.clone())
    });

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut metrics = MetricsSnapshot::new();
    let mut slowdowns: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();

    let twins = workloads.iter().zip(&report.results).flat_map(|(w, row)| {
        designs.iter().zip(row.chunks_exact(2)).map(move |(d, pair)| (w.name, d.name, pair))
    });
    for (workload, design, pair) in twins {
        let [healthy, degraded] = pair else { unreachable!("two twins per design") };
        for r in pair {
            r.attrib
                .verify()
                .unwrap_or_else(|e| panic!("{design}/{workload}: {e}"));
        }
        metrics.add_run(design, workload, healthy);
        metrics.add_run(&format!("{design}+failed"), workload, degraded);

        let d = &degraded.degraded;
        assert_eq!(
            healthy.degraded,
            Default::default(),
            "healthy runs must carry no degraded-mode stats"
        );
        let slowdown = healthy.ipc / degraded.ipc;
        slowdowns.entry(design).or_default().push(slowdown);
        rows.push(vec![
            workload.to_string(),
            design.to_string(),
            format!("{:.3}", healthy.ipc),
            format!("{:.3}", degraded.ipc),
            format!("{slowdown:.3}"),
            d.corrections.to_string(),
            d.parity_reads.to_string(),
            d.due_events.to_string(),
        ]);
        csv.push(format!(
            "{workload},{design},{:.6},{:.6},{slowdown:.6},{},{},{},{},{}",
            healthy.ipc, degraded.ipc, d.detections, d.corrections, d.parity_reads, d.parity_hits, d.due_events
        ));
    }

    for (design, v) in &slowdowns {
        rows.push(vec![
            "GMEAN".into(),
            design.to_string(),
            "-".into(),
            "-".into(),
            format!("{:.3}", gmean(v)),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);
    }

    print_table(
        &["workload", "design", "healthy IPC", "failed IPC", "slowdown", "corrections", "parity rds", "DUE"],
        &rows,
    );
    println!(
        "\npaper: after the one-time diagnosis the failed chip is tracked and \
         corrections cost no more MAC work than error-free reads (§IV-A);\n\
         the residual slowdown is the cacheable parity-fetch traffic."
    );
    write_csv(
        "fig_degraded",
        "workload,design,healthy_ipc,degraded_ipc,slowdown,detections,corrections,parity_reads,parity_hits,due_events",
        &csv,
    );
    metrics.add_registry("sweep", &report.registry(), &[]);
    metrics.write("fig_degraded");
    degraded_timeline_trace(&workloads[0], fail_cycle);
}

/// One extra epoch-sampled degraded Synergy run exported as a Perfetto
/// trace: the stacked `attrib.cycles.*` counter chart shows the failure
/// as a shift in the cycle budget (parity traffic and the diagnosis
/// burst's crypto-work cycles appear at the injection point).
fn degraded_timeline_trace(workload: &synergy_trace::WorkloadSpec, fail_cycle: u64) {
    let r = SweepCell::single(&DesignConfig::synergy(), workload, 2)
        .with_fault_schedule(FaultSchedule::chip_failure_at(fail_cycle, FAILED_CHIP))
        .run_with(|cfg| cfg.telemetry.epoch_mem_cycles = 1_000);
    r.attrib.verify().expect("degraded timeline run conserves attribution");
    write_chrome_trace(&format!("fig_degraded_synergy_{}", workload.name), &r);
}
