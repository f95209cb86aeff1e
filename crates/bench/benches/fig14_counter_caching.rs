//! Figure 14 — Synergy speedup when counters use the dedicated cache plus
//! the LLC (default, vs SGX_O) vs the dedicated cache only (vs SGX).
//!
//! Paper: dedicated-only Synergy shows a smaller speedup (13%) than
//! LLC-caching Synergy (20%), because counters form a larger share of the
//! traffic when they are cached worse — but Synergy helps both.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 14 — sensitivity to counter caching", "Figure 14");
    let designs = [
        DesignConfig::sgx_o(),
        DesignConfig::synergy(),
        DesignConfig::sgx(),
        DesignConfig::synergy().with_dedicated_cache_only(),
    ];
    let report = run_sweep(&sensitivity_workloads(), &designs, |w, d| SweepCell::single(d, w, 2));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut speedups = Vec::new();
    // (label, Synergy design, its matching baseline) as indices into `designs`.
    for (label, syn, base) in [("dedicated + LLC", 1, 0), ("dedicated only", 3, 2)] {
        let g = gmean(&report.ratios(syn, base, |r| r.ipc));
        rows.push(vec![label.to_string(), format!("{g:.3}")]);
        csv.push(format!("{label},{g:.4}"));
        speedups.push(g);
    }
    print_table(&["counter caching", "Synergy speedup vs matching baseline"], &rows);

    println!("\npaper:    dedicated+LLC ≈ 20% speedup; dedicated-only ≈ 13%");
    println!(
        "measured: dedicated+LLC {:.1}%, dedicated-only {:.1}%",
        100.0 * (speedups[0] - 1.0),
        100.0 * (speedups[1] - 1.0)
    );
    write_csv("fig14_counter_caching", "caching,synergy_speedup", &csv);
}
