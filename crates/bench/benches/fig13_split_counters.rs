//! Figure 13 — Synergy speedup with monolithic vs split counters.
//!
//! Each counter organization is compared against SGX_O using the *same*
//! organization. Paper: split counters give Synergy ~3% extra speedup
//! (counters become more cacheable, making MACs a larger share of the
//! remaining bloat).

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 13 — monolithic vs split counters", "Figure 13");
    let designs = [
        DesignConfig::sgx_o(),
        DesignConfig::synergy(),
        DesignConfig::sgx_o().with_split_counters(),
        DesignConfig::synergy().with_split_counters(),
    ];
    let report = run_sweep(&sensitivity_workloads(), &designs, |w, d| SweepCell::single(d, w, 2));

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut speedups = Vec::new();
    // (label, Synergy design, its SGX_O baseline) as indices into `designs`.
    for (label, syn, base) in [("monolithic", 1, 0), ("split", 3, 2)] {
        let g = gmean(&report.ratios(syn, base, |r| r.ipc));
        rows.push(vec![label.to_string(), format!("{g:.3}")]);
        csv.push(format!("{label},{g:.4}"));
        speedups.push(g);
    }
    print_table(&["counter organization", "Synergy speedup vs SGX_O"], &rows);

    println!("\npaper:    Synergy is effective for both; split adds ~3% extra speedup");
    println!(
        "measured: monolithic {:.1}%, split {:.1}% (delta {:+.1}pp)",
        100.0 * (speedups[0] - 1.0),
        100.0 * (speedups[1] - 1.0),
        100.0 * (speedups[1] - speedups[0])
    );
    write_csv("fig13_split_counters", "counter_org,synergy_speedup", &csv);
}
