//! Figure 11 — probability of system failure over 7 years for SECDED,
//! Chipkill and Synergy (plus No-ECC and IVEC for §VII context).
//!
//! Paper: Chipkill reduces failure probability 37x vs SECDED; Synergy
//! 185x vs SECDED (5x vs Chipkill). IVEC provides ~50x (its own paper).
//!
//! The ECC designs come from one fleet Monte Carlo (`synergy_fleet::run`,
//! skip-ahead fault sampling on the job fabric): P(failure) is P(DUE) +
//! P(SDC). No-ECC fails on its first fault arrival, so its row is the
//! exact `1 − e^−λ` over 8 chips. Scale with `SYNERGY_BENCH_DEVICES`
//! (default 50 M DIMMs; paper: 1 B devices) and `SYNERGY_BENCH_THREADS`;
//! the CSV is identical at any thread count.

use synergy_bench::{banner, bench_devices, print_table, sweep_threads, write_csv};
use synergy_faultsim::EccPolicy;
use synergy_fleet::{run, FleetParams};

fn main() {
    banner("Figure 11 — probability of system failure (7 years)", "Figure 11");
    let params = FleetParams { dimms: bench_devices(), threads: sweep_threads(), ..Default::default() };
    println!("DIMMs: {} (fleet Monte Carlo, skip-ahead sampling; No-ECC exact)\n", params.dimms);

    let hours = params.horizon_hours();
    let fleet = run(&params);
    let failure_probability = |policy: EccPolicy| {
        if policy == EccPolicy::None {
            let lambda = policy.domain_chips() as f64 * params.model.total_fit() * 1e-9 * hours;
            -(-lambda).exp_m1()
        } else {
            let r = fleet.report(policy);
            r.due_probability + r.sdc_probability
        }
    };
    let policies = [
        EccPolicy::None,
        EccPolicy::Secded,
        EccPolicy::Chipkill,
        EccPolicy::Ivec,
        EccPolicy::Synergy,
    ];
    let p: Vec<f64> = policies.iter().map(|&d| failure_probability(d)).collect();
    let [_, secded_p, chipkill_p, _, synergy_p] = p[..] else { unreachable!("five policies") };

    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (policy, &p) in policies.iter().zip(&p) {
        let fit = p / hours * 1e9;
        let improvement = secded_p / p.max(1e-300);
        rows.push(vec![
            policy.name().to_string(),
            format!("{} chips", policy.domain_chips()),
            format!("{p:.3e}"),
            format!("{fit:.2}"),
            format!("{improvement:.1}x"),
        ]);
        csv.push(format!("{},{},{p:.6e},{fit:.4},{improvement:.2}", policy.name(), policy.domain_chips()));
    }
    print_table(
        &["scheme", "correction domain", "P(failure, 7y)", "FIT", "vs SECDED"],
        &rows,
    );

    println!("\npaper:    Chipkill 37x, Synergy 185x better than SECDED (Synergy 5x vs Chipkill)");
    println!(
        "measured: Chipkill {:.0}x, Synergy {:.0}x better than SECDED (Synergy {:.1}x vs Chipkill)",
        secded_p / chipkill_p,
        secded_p / synergy_p,
        chipkill_p / synergy_p
    );
    write_csv(
        "fig11_reliability",
        "scheme,domain_chips,failure_probability,fit,improvement_vs_secded",
        &csv,
    );
}
