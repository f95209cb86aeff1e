//! Figure 6 — the cost of secure execution: SGX, SGX_O and Non-Secure IPC,
//! all normalized to SGX_O.
//!
//! Paper: Non-Secure is 112% faster than SGX_O; SGX is 30% slower.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 6 — performance of SGX, SGX_O and Non-Secure", "Figure 6");
    let workloads = perf_workloads();
    let designs = [DesignConfig::sgx_o(), DesignConfig::non_secure(), DesignConfig::sgx()];
    let report = run_sweep(&workloads, &designs, |w, d| SweepCell::single(d, w, 2));
    let ns_all = report.ratios(1, 0, |r| r.ipc);
    let sgx_all = report.ratios(2, 0, |r| r.ipc);

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for ((w, &ns_rel), &sgx_rel) in workloads.iter().zip(&ns_all).zip(&sgx_all) {
        rows.push(vec![
            w.name.to_string(),
            format!("{sgx_rel:.2}"),
            "1.00".to_string(),
            format!("{ns_rel:.2}"),
        ]);
        csv.push(format!("{},{sgx_rel:.4},1.0,{ns_rel:.4}", w.name));
    }
    rows.push(vec![
        "GMEAN".into(),
        format!("{:.2}", gmean(&sgx_all)),
        "1.00".into(),
        format!("{:.2}", gmean(&ns_all)),
    ]);
    print_table(&["workload", "SGX", "SGX_O", "Non-Secure"], &rows);

    println!("\npaper:    SGX ≈ 0.70x, Non-Secure ≈ 2.12x (memory-intensive gmean)");
    println!(
        "measured: SGX ≈ {:.2}x, Non-Secure ≈ {:.2}x",
        gmean(&sgx_all),
        gmean(&ns_all)
    );
    write_csv("fig06_secure_overhead", "workload,sgx,sgx_o,non_secure", &csv);
}
