//! Differential fault-injection campaign driver.
//!
//! Runs `synergy_campaign::run` — the functional SECDED / Chipkill /
//! SYNERGY recovery pipelines diffed against the analytic reliability
//! model over randomly sampled fault scenarios — and writes the outcome
//! matrix to `target/experiments/campaign.csv` plus a metric snapshot to
//! `target/experiments/metrics/campaign.json`.
//!
//! Usage: `campaign [--devices N] [--seed S] [--threads T]`
//! where `N` accepts `10k` / `2m` style suffixes (`--devices` counts
//! injections, named for symmetry with the Figure 11 Monte-Carlo knob;
//! `--injections` is accepted as an alias). Exits nonzero and prints the
//! minimized reproducers if any functional outcome disagrees with the
//! analytic verdict.

use synergy_bench::{banner, print_table, scaled_arg, write_csv, write_metrics_registry};
use synergy_campaign::{run, CampaignParams, Design, Outcome};
use synergy_obs::MetricRegistry;

fn parse_args() -> CampaignParams {
    let mut params = CampaignParams { injections: 100_000, ..Default::default() };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--devices" | "--injections" => {
                let v = value(&flag);
                params.injections = scaled_arg(&flag, &v);
            }
            "--seed" => {
                let v = value(&flag);
                params.seed = scaled_arg(&flag, &v);
            }
            "--threads" => {
                let v = value(&flag);
                params.threads =
                    v.parse().unwrap_or_else(|_| panic!("bad thread count: {v}"));
            }
            other => panic!("unknown flag: {other} (try --devices/--seed/--threads)"),
        }
    }
    params
}

fn main() {
    let params = parse_args();
    banner("Differential fault-injection campaign", "the Figure 11 failure taxonomy");
    println!(
        "campaign: {} injections, seed {:#x}, {} threads\n",
        params.injections,
        params.seed,
        if params.threads == 0 { "auto".to_string() } else { params.threads.to_string() }
    );

    let result = run(&params);

    let rows: Vec<Vec<String>> = Design::ALL
        .iter()
        .map(|&d| {
            vec![
                d.label().to_string(),
                result.matrix.get(d, Outcome::Corrected).to_string(),
                result.matrix.get(d, Outcome::DetectedUncorrectable).to_string(),
                result.matrix.get(d, Outcome::SilentDataCorruption).to_string(),
                result.matrix.get(d, Outcome::CrashDetected).to_string(),
                format!("{:.6}", result.functional_rate(d)),
                format!("{:.6}", result.analytic_rate(d)),
            ]
        })
        .collect();
    print_table(
        &["design", "corrected", "due", "sdc", "crash", "func_rate", "analytic_rate"],
        &rows,
    );

    let mut reg = MetricRegistry::new();
    result.export(&mut reg);
    write_metrics_registry("campaign", &reg);
    write_csv(
        "campaign",
        "design,corrected,due,sdc,crash,functional_rate,analytic_rate",
        &result.csv_rows(),
    );

    if !result.passed() {
        eprintln!(
            "\nFAIL: {} functional-vs-analytic mismatch(es); minimized reproducers:",
            result.mismatch_count
        );
        for m in &result.mismatches {
            eprintln!(
                "  seed={:#x} index={} functional={:?} analytic_fail={}\n  {:#?}",
                m.seed, m.index, m.functional, m.analytic_fail, m.minimized
            );
        }
        std::process::exit(1);
    }
    println!(
        "\nPASS: all {} functional outcomes agree with the analytic model",
        result.injections
    );
}
