//! Ablation — the paper's extension designs (§VI-B, §VII-B):
//!
//! * **Synergy+16B** (custom DIMM, §VI-B): 16 bytes of per-line metadata
//!   co-locate the parity with the MAC, removing the parity-update writes
//!   — "such organizations may be used for future standards".
//! * **Synergy+Spec / SGX_O+Spec** (PoisonIvy, §VII-B): speculative use of
//!   unverified data takes metadata fetches off the critical path; the
//!   paper argues those designs "would benefit from the bandwidth savings
//!   provided by Synergy" — which the Spec-vs-Spec comparison shows.

use synergy_bench::*;
use synergy_secure::DesignConfig;

fn main() {
    banner("Ablation — custom-DIMM parity co-location and speculation", "§VI-B / §VII-B");
    perf_edp_vs_sgx_o(
        "ablation_extensions",
        &[
            DesignConfig::synergy(),
            DesignConfig::synergy_custom_dimm(),
            DesignConfig::sgx_o_speculative(),
            DesignConfig::synergy_speculative(),
        ],
    );
    println!(
        "\nSynergy+16B removes the write-path parity bloat on top of Synergy;\n\
         with speculation everywhere, Synergy's bandwidth savings remain\n\
         (Spec-vs-Spec gap ≈ the MAC traffic share, §VII-B)."
    );
}
