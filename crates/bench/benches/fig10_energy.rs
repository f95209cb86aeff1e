//! Figure 10 — power, performance, energy and EDP of SGX, SGX_O and
//! Synergy, normalized to SGX_O.
//!
//! Paper: power is similar across designs; Synergy reduces system EDP by
//! 31%; SGX's extra accesses raise its energy while its longer execution
//! keeps power flat.

use synergy_bench::*;
use synergy_core::system::SimResult;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 10 — power / performance / energy / EDP", "Figure 10");
    let workloads = perf_workloads();
    let designs = [DesignConfig::sgx(), DesignConfig::sgx_o(), DesignConfig::synergy()];
    let report = run_sweep(&workloads, &designs, |w, d| SweepCell::single(d, w, 2));

    // Per design: geometric means of per-workload ratios vs SGX_O (design 1).
    let edp: Vec<f64> =
        (0..designs.len()).map(|i| gmean(&report.ratios(i, 1, SimResult::edp))).collect();
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (i, (d, edp)) in designs.iter().zip(&edp).enumerate() {
        let power = gmean(&report.ratios(i, 1, SimResult::power_w));
        let perf = gmean(&report.ratios(i, 1, |r| r.ipc));
        let energy = gmean(&report.ratios(i, 1, SimResult::total_energy_j));
        rows.push(vec![
            d.name.to_string(),
            format!("{power:.2}"),
            format!("{perf:.2}"),
            format!("{energy:.2}"),
            format!("{edp:.2}"),
        ]);
        csv.push(format!("{},{power:.4},{perf:.4},{energy:.4},{edp:.4}", d.name));
    }
    print_table(&["design", "power", "performance", "energy", "EDP"], &rows);

    println!("\npaper:    Synergy EDP ≈ 0.69x (−31%), power ≈ 1.0x across designs");
    println!("measured: Synergy EDP ≈ {:.2}x", edp[2]);
    write_csv("fig10_energy", "design,power,performance,energy,edp", &csv);
}
