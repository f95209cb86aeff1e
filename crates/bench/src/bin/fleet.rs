//! Fleet-scale lifetime reliability driver.
//!
//! Runs `synergy_fleet::run_with_fabric` — N DIMMs over a T-year horizon,
//! every Table II design raced per DIMM — and writes the per-design
//! summary to `target/experiments/fleet.csv`, the per-year cumulative
//! failure curves to `target/experiments/fleet_curve.csv`, and a metric
//! snapshot to `target/experiments/metrics/fleet.json`.
//!
//! Usage:
//! `fleet [--dimms N] [--years Y] [--seed S] [--threads T]
//!        [--scrub HOURS] [--repair HOURS]
//!        [--checkpoint PATH] [--checkpoint-every SHARDS]
//!        [--stop-after-shards SHARDS]`
//!
//! `N` accepts `10k` / `2m` / `1b` suffixes. With `--checkpoint` the run
//! writes frontier checkpoints every `--checkpoint-every` shards (default
//! 8) and **resumes** from the file when it already exists — so a killed
//! run (or one cut short by `--stop-after-shards`, the deterministic
//! stand-in for `kill -9`) continues bit-identically. An interrupted run
//! exits with code 3 so scripts can distinguish "checkpointed, rerun to
//! finish" from success. A missing or malformed value, or an unknown
//! flag, exits with code 2 and an `error: …` line.

use std::path::PathBuf;

use synergy_bench::{
    banner, fail, flag_value, parsed_arg, print_table, scaled_arg, write_csv,
    write_metrics_registry,
};
use synergy_fleet::{run_with_fabric, FleetParams, SHARD_DIMMS};
use synergy_obs::fabric::FabricConfig;
use synergy_obs::MetricRegistry;

/// The value of `flag` as a finite number of years or hours, above zero
/// (or at least zero when `zero_ok`).
fn duration_arg(flag: &str, value: &str, zero_ok: bool) -> Result<f64, String> {
    let what = if zero_ok { "a finite number >= 0" } else { "a finite number > 0" };
    let x: f64 = parsed_arg(flag, value, what)?;
    if x.is_finite() && (x > 0.0 || (zero_ok && x == 0.0)) {
        Ok(x)
    } else {
        Err(format!("{flag}: {value:?} is not {what}"))
    }
}

/// Parses the command line (without the program name).
fn parse_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(FleetParams, FabricConfig), String> {
    let mut params = FleetParams { dimms: 1_000_000, ..Default::default() };
    let mut cfg = FabricConfig::default();
    let mut every: u64 = 8;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let mut value = || flag_value(&flag, &mut args);
        match flag.as_str() {
            "--dimms" | "--devices" => params.dimms = scaled_arg(&flag, &value()?)?,
            "--years" => params.years = duration_arg(&flag, &value()?, false)?,
            "--seed" => params.seed = scaled_arg(&flag, &value()?)?,
            "--threads" => params.threads = parsed_arg(&flag, &value()?, "a thread count")?,
            "--scrub" => {
                params.scrub_interval_hours = Some(duration_arg(&flag, &value()?, false)?);
            }
            "--repair" => params.repair_hours = duration_arg(&flag, &value()?, true)?,
            "--checkpoint" => cfg.checkpoint_path = Some(PathBuf::from(value()?)),
            "--checkpoint-every" => every = parsed_arg(&flag, &value()?, "a shard count")?,
            "--stop-after-shards" => {
                cfg.stop_after_shards = Some(parsed_arg(&flag, &value()?, "a shard count")?);
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (try --dimms/--years/--seed/--threads/--scrub/--repair/--checkpoint/--checkpoint-every/--stop-after-shards)"
                ))
            }
        }
    }
    cfg.threads = params.threads;
    if cfg.checkpoint_path.is_some() {
        cfg.checkpoint_every = Some(every);
    }
    Ok((params, cfg))
}

fn main() {
    let (params, cfg) = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| fail(&msg));
    banner(
        "Fleet-scale lifetime reliability",
        "N DIMM-lifetimes per Table II design on the checkpointable job fabric",
    );
    println!(
        "fleet: {} DIMMs x {} designs over {} years, seed {:#x}, {} threads{}",
        params.dimms,
        synergy_fleet::FLEET_DESIGNS.len(),
        params.years,
        params.seed,
        if params.threads == 0 { "auto".to_string() } else { params.threads.to_string() },
        match &cfg.checkpoint_path {
            Some(p) => format!(", checkpoint {}", p.display()),
            None => String::new(),
        }
    );

    let stop = cfg.stop_after_shards;
    let result = match run_with_fabric(&params, cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("\nFAIL: {e}");
            std::process::exit(1);
        }
    };

    let total_shards = params.dimms.div_ceil(SHARD_DIMMS);
    let done = result.tally(synergy_fleet::FLEET_DESIGNS[0]).dimms;
    if done < params.dimms {
        println!(
            "\nINTERRUPTED after {done}/{} DIMMs (--stop-after-shards {:?} of {total_shards}); \
             rerun with the same --checkpoint to finish",
            params.dimms, stop
        );
        std::process::exit(3);
    }

    let rows: Vec<Vec<String>> = result
        .reports()
        .iter()
        .map(|r| {
            vec![
                r.policy.name().to_string(),
                r.dimms.to_string(),
                format!("{:.4}", r.fault_incidence),
                r.due.to_string(),
                r.sdc.to_string(),
                r.degraded_dimms.to_string(),
                format!("{:.9}", r.availability),
                format!("{:.6}", r.expected_slowdown),
            ]
        })
        .collect();
    print_table(
        &["design", "dimms", "p_fault", "due", "sdc", "degraded", "availability", "slowdown"],
        &rows,
    );

    let mut reg = MetricRegistry::new();
    result.export(&mut reg);
    write_metrics_registry("fleet", &reg);
    write_csv(
        "fleet",
        "design,dimms,dimms_with_faults,due,sdc,degraded_dimms,due_probability,sdc_probability,availability,expected_slowdown,mttf_hours",
        &result.csv_rows(),
    );
    write_csv(
        "fleet_curve",
        "design,year,cum_due_probability,cum_sdc_probability",
        &result.curve_csv_rows(),
    );
    println!("\nPASS: {} DIMM-lifetimes evaluated per design", params.dimms);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(FleetParams, FabricConfig), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn accepts_every_flag() {
        let args = "--dimms 2k --years 6.5 --seed 9 --threads 2 --scrub 24 --repair 0 \
                    --checkpoint f.json --checkpoint-every 3 --stop-after-shards 5";
        let (p, cfg) = parse(&args.split_whitespace().collect::<Vec<_>>()).unwrap();
        assert_eq!((p.dimms, p.years, p.seed, p.threads), (2_000, 6.5, 9, 2));
        assert_eq!((p.scrub_interval_hours, p.repair_hours), (Some(24.0), 0.0));
        assert_eq!(cfg.checkpoint_path, Some(PathBuf::from("f.json")));
        assert_eq!(
            (cfg.threads, cfg.checkpoint_every, cfg.stop_after_shards),
            (2, Some(3), Some(5))
        );
        let (p, cfg) = parse(&[]).unwrap();
        assert_eq!((p.dimms, cfg.checkpoint_every), (1_000_000, None));
    }

    #[test]
    fn rejects_bad_input_with_a_message_naming_the_flag() {
        for (args, needle) in [
            (&["--years"][..], "--years requires a value"),
            (&["--checkpoint"][..], "--checkpoint requires a value"),
            (&["--threads", "x"][..], "--threads: \"x\" is not a thread count"),
            (&["--years", "seven"][..], "--years"),
            (&["--years", "0"][..], "--years"),
            (&["--years", "NaN"][..], "--years"),
            (&["--scrub", "-4"][..], "--scrub"),
            (&["--scrub", "inf"][..], "--scrub"),
            (&["--repair", "-1"][..], "--repair"),
            (&["--repair", "soon"][..], "--repair"),
            (&["--checkpoint-every", "2.5"][..], "--checkpoint-every"),
            (&["--stop-after-shards", "-3"][..], "--stop-after-shards"),
            (&["--dimms", "1q"][..], "--dimms"),
            (&["--bogus", "1"][..], "unknown flag --bogus"),
            (&["200k"][..], "unknown flag 200k"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }
}
