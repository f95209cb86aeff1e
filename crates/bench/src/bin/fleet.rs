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
//! finish" from success.

use std::path::PathBuf;

use synergy_bench::{banner, print_table, scaled_arg, write_csv, write_metrics_registry};
use synergy_campaign::FabricConfig;
use synergy_fleet::{run_with_fabric, FleetParams, SHARD_DIMMS};
use synergy_obs::MetricRegistry;

fn parse_args() -> (FleetParams, FabricConfig) {
    let mut params = FleetParams { dimms: 1_000_000, ..Default::default() };
    let mut cfg = FabricConfig::default();
    let mut every: u64 = 8;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match flag.as_str() {
            "--dimms" | "--devices" => {
                let v = value(&flag);
                params.dimms = scaled_arg(&flag, &v);
            }
            "--years" => {
                let v = value(&flag);
                params.years = v.parse().unwrap_or_else(|_| panic!("bad years: {v}"));
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
            "--scrub" => {
                let v = value(&flag);
                params.scrub_interval_hours =
                    Some(v.parse().unwrap_or_else(|_| panic!("bad scrub interval: {v}")));
            }
            "--repair" => {
                let v = value(&flag);
                params.repair_hours =
                    v.parse().unwrap_or_else(|_| panic!("bad repair hours: {v}"));
            }
            "--checkpoint" => {
                cfg.checkpoint_path = Some(PathBuf::from(value(&flag)));
            }
            "--checkpoint-every" => {
                let v = value(&flag);
                every = v.parse().unwrap_or_else(|_| panic!("bad shard count: {v}"));
            }
            "--stop-after-shards" => {
                let v = value(&flag);
                cfg.stop_after_shards =
                    Some(v.parse().unwrap_or_else(|_| panic!("bad shard count: {v}")));
            }
            other => panic!(
                "unknown flag: {other} (try --dimms/--years/--seed/--threads/--scrub/--repair/--checkpoint/--checkpoint-every/--stop-after-shards)"
            ),
        }
    }
    cfg.threads = params.threads;
    if cfg.checkpoint_path.is_some() {
        cfg.checkpoint_every = Some(every);
    }
    (params, cfg)
}

fn main() {
    let (params, cfg) = parse_args();
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
