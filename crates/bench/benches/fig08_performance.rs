//! Figure 8 — IPC of SGX, SGX_O and Synergy across all workloads,
//! normalized to SGX_O.
//!
//! Paper: Synergy improves secure-execution performance by 20% (gmean)
//! over SGX_O; SGX is 30% below SGX_O; the `*-web` graph workloads are the
//! exception where SGX_O trails SGX (counters thrash the LLC).
//!
//! Run with `SYNERGY_BENCH_WORKLOADS=all` for all 29 workloads + 6 mixes.

use synergy_bench::*;
use synergy_secure::DesignConfig;
use synergy_trace::{presets, Suite};

fn main() {
    banner("Figure 8 — performance of SGX, SGX_O, Synergy", "Figure 8");
    // Every single workload, then (full sweep only) the mixes.
    let mixes = if full_sweep() { presets::mixes() } else { Vec::new() };
    let workloads: Vec<SweepWorkload> = perf_workloads()
        .into_iter()
        .map(SweepWorkload::Single)
        .chain(mixes.into_iter().map(SweepWorkload::Mix))
        .collect();
    let designs = [DesignConfig::sgx_o(), DesignConfig::sgx(), DesignConfig::synergy()];
    let report = run_sweep(&workloads, &designs, |w, d| SweepCell::new(d, w.clone(), 2));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut by_suite: std::collections::HashMap<Suite, (Vec<f64>, Vec<f64>)> =
        std::collections::HashMap::new();
    let mut sgx_all = Vec::new();
    let mut syn_all = Vec::new();
    let mut metrics = MetricsSnapshot::new();
    for (w, row) in workloads.iter().zip(&report.results) {
        let [base, sgx, syn] = &row[..] else { unreachable!("three designs per row") };
        let name = w.name();
        // Conservation invariant, zero tolerance: in every cell, the
        // attribution buckets must sum to the end-to-end request cycles.
        for r in row {
            r.attrib
                .verify()
                .unwrap_or_else(|e| panic!("{} / {name}: {e}", r.design));
        }
        metrics.add_run("sgx_o", name, base);
        metrics.add_run("sgx", name, sgx);
        metrics.add_run("synergy", name, syn);
        let sgx_rel = sgx.ipc / base.ipc;
        let syn_rel = syn.ipc / base.ipc;
        sgx_all.push(sgx_rel);
        syn_all.push(syn_rel);
        let (suite_key, suite_label) = match w {
            SweepWorkload::Single(w) => (w.suite, w.suite.to_string()),
            SweepWorkload::Mix(_) => (Suite::Mix, "MIX".to_string()),
        };
        let entry = by_suite.entry(suite_key).or_default();
        entry.0.push(sgx_rel);
        entry.1.push(syn_rel);
        rows.push(vec![
            name.to_string(),
            suite_label.clone(),
            format!("{sgx_rel:.2}"),
            "1.00".into(),
            format!("{syn_rel:.2}"),
        ]);
        csv.push(format!("{name},{suite_label},{sgx_rel:.4},1.0,{syn_rel:.4}"));
    }

    for (suite, (sgx_v, syn_v)) in &by_suite {
        rows.push(vec![
            format!("GMEAN {suite}"),
            suite.to_string(),
            format!("{:.2}", gmean(sgx_v)),
            "1.00".into(),
            format!("{:.2}", gmean(syn_v)),
        ]);
    }
    rows.push(vec![
        "GMEAN all".into(),
        "-".into(),
        format!("{:.2}", gmean(&sgx_all)),
        "1.00".into(),
        format!("{:.2}", gmean(&syn_all)),
    ]);

    print_table(&["workload", "suite", "SGX", "SGX_O", "Synergy"], &rows);
    println!("\npaper:    Synergy ≈ 1.20x, SGX ≈ 0.70x (gmean)");
    println!(
        "measured: Synergy ≈ {:.2}x, SGX ≈ {:.2}x",
        gmean(&syn_all),
        gmean(&sgx_all)
    );
    write_csv("fig08_performance", "workload,suite,sgx,sgx_o,synergy", &csv);
    metrics.add_registry("sweep", &report.registry(), &[]);
    metrics.write("fig08_performance");

    // Perfetto-loadable trace of the last Synergy cell: the slowest
    // request spans, one track each ("where did my cycles go", §13 of
    // DESIGN.md).
    if let Some(last) = report.results.last() {
        write_chrome_trace("fig08_synergy", &last[2]);
    }
}
