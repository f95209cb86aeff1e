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
//! analytic verdict. A missing or malformed value, or an unknown flag,
//! exits with code 2 and an `error: …` line.

use synergy_bench::{
    banner, fail, flag_value, parsed_arg, print_table, scaled_arg, write_csv,
    write_metrics_registry,
};
use synergy_campaign::{run, CampaignParams, Design, Outcome};
use synergy_obs::MetricRegistry;

/// Parses the command line (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<CampaignParams, String> {
    let mut params = CampaignParams { injections: 100_000, ..Default::default() };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || flag_value(&flag, &mut args);
        match flag.as_str() {
            "--devices" | "--injections" => params.injections = scaled_arg(&flag, &value()?)?,
            "--seed" => params.seed = scaled_arg(&flag, &value()?)?,
            "--threads" => params.threads = parsed_arg(&flag, &value()?, "a thread count")?,
            other => return Err(format!("unknown flag {other} (try --devices/--seed/--threads)")),
        }
    }
    Ok(params)
}

fn main() {
    let params = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| fail(&msg));
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CampaignParams, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_flag() {
        let p = parse(&["--devices", "20k", "--seed", "7", "--threads", "3"]).unwrap();
        assert_eq!((p.injections, p.seed, p.threads), (20_000, 7, 3));
        assert_eq!(parse(&["--injections", "5"]).unwrap().injections, 5);
        assert_eq!(parse(&[]).unwrap().injections, 100_000);
    }

    #[test]
    fn rejects_bad_input_with_a_message_naming_the_flag() {
        for (args, needle) in [
            (&["--threads"][..], "--threads requires a value"),
            (&["--devices"][..], "--devices requires a value"),
            (&["--threads", "two"][..], "--threads: \"two\" is not a thread count"),
            (&["--threads", "-1"][..], "--threads"),
            (&["--devices", "1x"][..], "--devices"),
            (&["--seed", ""][..], "--seed"),
            (&["--bogus"][..], "unknown flag --bogus"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
