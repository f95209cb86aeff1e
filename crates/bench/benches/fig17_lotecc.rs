//! Figure 17 — LOT-ECC (with and without write coalescing) vs Synergy on a
//! secure-memory baseline, normalized to SGX_O.
//!
//! Paper: LOT-ECC incurs a 15–20% slowdown (tier-2 parity write traffic)
//! where Synergy gains 20% by re-using the MAC as the detection code.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 17 — LOT-ECC vs Synergy", "Figure 17 / §VII-C");
    let designs =
        [DesignConfig::lot_ecc(false), DesignConfig::lot_ecc(true), DesignConfig::synergy()];
    let g = perf_edp_vs_sgx_o("fig17_lotecc", &designs);
    println!("\npaper:    LOT-ECC 15–20% slowdown; Synergy +20%");
    println!(
        "measured: LOT-ECC {:.0}%, LOT-ECC+WC {:.0}%, Synergy {:+.0}%",
        100.0 * (g[0].0 - 1.0),
        100.0 * (g[1].0 - 1.0),
        100.0 * (g[2].0 - 1.0)
    );
}
