//! Figure 16 — IVEC vs Synergy, performance and EDP normalized to SGX_O.
//!
//! Paper: IVEC's non-Bonsai GMAC tree and dedicated-only counter caching
//! cost it a 26% slowdown (1.9x EDP) while Synergy gains 20% (0.69x EDP) —
//! a 63% performance advantage for Synergy.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Figure 16 — IVEC vs Synergy", "Figure 16 / §VII-A");
    let g = perf_edp_vs_sgx_o("fig16_ivec", &[DesignConfig::ivec(), DesignConfig::synergy()]);
    let [(ivec_perf, ivec_edp), (syn_perf, syn_edp)] = g[..] else { unreachable!("two designs") };
    println!("\npaper:    IVEC ≈ 0.74x perf / 1.9x EDP; Synergy ≈ 1.20x / 0.69x (63% advantage)");
    println!(
        "measured: IVEC ≈ {ivec_perf:.2}x / {ivec_edp:.2}x; Synergy ≈ {syn_perf:.2}x / {syn_edp:.2}x ({:.0}% advantage)",
        100.0 * (syn_perf / ivec_perf - 1.0)
    );
}
