//! Figure 12 — sensitivity to memory channels (2, 4, 8).
//!
//! Paper: with more channels the system becomes less bandwidth-bound;
//! SGX's slowdown shrinks from 29% to 21% and Synergy's speedup from 20%
//! to 6%.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 12 — sensitivity to channel count", "Figure 12");
    // A mixed-intensity subset: the channel sweep's point is the
    // transition out of the bandwidth-bound regime, which the very
    // heaviest workloads never leave even at 8 channels.
    let names = ["mcf", "omnetpp", "xalancbmk", "sphinx3", "leslie3d", "gcc"];
    let workloads: Vec<_> =
        names.iter().map(|n| synergy_trace::presets::by_name(n).expect("preset")).collect();

    let designs = [DesignConfig::sgx_o(), DesignConfig::sgx(), DesignConfig::synergy()];

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    let mut summary = Vec::new();
    for channels in [2usize, 4, 8] {
        let report = run_sweep(&workloads, &designs, |w, d| SweepCell::single(d, w, channels));
        let sgx_g = gmean(&report.ratios(1, 0, |r| r.ipc));
        let syn_g = gmean(&report.ratios(2, 0, |r| r.ipc));
        rows.push(vec![
            format!("{channels} channels"),
            format!("{sgx_g:.2}"),
            "1.00".into(),
            format!("{syn_g:.2}"),
        ]);
        csv.push(format!("{channels},{sgx_g:.4},1.0,{syn_g:.4}"));
        summary.push((channels, sgx_g, syn_g));
    }
    print_table(&["configuration", "SGX", "SGX_O", "Synergy"], &rows);

    println!("\npaper:    Synergy speedup 20% → 6% and SGX slowdown 29% → 21% from 2 to 8 channels");
    println!(
        "measured: Synergy speedup {:.0}% → {:.0}%, SGX slowdown {:.0}% → {:.0}%",
        100.0 * (summary[0].2 - 1.0),
        100.0 * (summary[2].2 - 1.0),
        100.0 * (1.0 - summary[0].1),
        100.0 * (1.0 - summary[2].1),
    );
    write_csv("fig12_channels", "channels,sgx,sgx_o,synergy", &csv);
}
