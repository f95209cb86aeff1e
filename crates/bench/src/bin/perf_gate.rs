//! CI perf-regression gate.
//!
//! ```text
//! perf_gate --check            # gate fresh metrics against baselines/
//! perf_gate --bless            # copy fresh gated snapshots into baselines/
//! perf_gate --check \
//!   --baselines <dir> --metrics <dir>   # override either directory
//! ```
//!
//! `--check` compares the gated snapshots (see
//! [`synergy_bench::gate::GATED_SNAPSHOTS`]) freshly written under
//! `target/experiments/metrics/` by the fig08/fig_degraded bench targets
//! against the committed copies under `baselines/metrics/`, using the
//! per-prefix tolerances of [`synergy_bench::gate::DEFAULT_RULES`]. Any
//! violation prints one line and the process exits nonzero. `--bless`
//! replaces the baselines with the fresh snapshots (run it after an
//! intentional performance change, with the same scale env knobs CI uses).
//! A missing flag value, an unknown flag or a missing mode exits 2 with the
//! usage line; a snapshot `--bless` cannot copy exits 1, naming the path.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use synergy_bench::gate::{gate_dirs, DEFAULT_RULES, GATED_SNAPSHOTS};
use synergy_bench::{flag_value, metrics_dir};

const USAGE: &str = "usage: perf_gate (--check | --bless) [--baselines DIR] [--metrics DIR]";

/// A parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    /// `--bless` (copy snapshots into the baselines) rather than `--check`.
    bless: bool,
    baselines: PathBuf,
    /// `None`: the bench targets' metrics directory.
    metrics: Option<PathBuf>,
}

/// Parses the command line (without the program name).
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut check, mut bless) = (false, false);
    let mut baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/metrics");
    let mut metrics = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--check" => check = true,
            "--bless" => bless = true,
            "--baselines" => baselines = PathBuf::from(flag_value(&flag, &mut args)?),
            "--metrics" => metrics = Some(PathBuf::from(flag_value(&flag, &mut args)?)),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if check == bless {
        return Err("pick exactly one of --check or --bless".to_string());
    }
    Ok(Args { bless, baselines, metrics })
}

/// Copies every gated snapshot found under `metrics` into `baselines`.
/// Returns whether all of them were there; an I/O error names its path.
fn bless(baselines: &Path, metrics: &Path) -> Result<bool, String> {
    std::fs::create_dir_all(baselines)
        .map_err(|e| format!("cannot create {}: {e}", baselines.display()))?;
    let mut copied = 0;
    for file in GATED_SNAPSHOTS {
        let src = metrics.join(file);
        if !src.exists() {
            eprintln!("[bless] {} missing — run its bench target first", src.display());
            continue;
        }
        let dst = baselines.join(file);
        std::fs::copy(&src, &dst)
            .map_err(|e| format!("cannot copy {} to {}: {e}", src.display(), dst.display()))?;
        println!("[bless] {} -> {}", src.display(), dst.display());
        copied += 1;
    }
    Ok(copied == GATED_SNAPSHOTS.len())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (baselines, metrics) = (args.baselines, args.metrics.unwrap_or_else(metrics_dir));

    if args.bless {
        return match bless(&baselines, &metrics) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(msg) => {
                eprintln!("[bless] error: {msg}");
                ExitCode::FAILURE
            }
        };
    }

    match gate_dirs(&baselines, &metrics, DEFAULT_RULES) {
        Ok(violations) if violations.is_empty() => {
            println!(
                "[perf-gate] OK — {} snapshot(s) within tolerance ({} vs {})",
                GATED_SNAPSHOTS.len(),
                metrics.display(),
                baselines.display()
            );
            ExitCode::SUCCESS
        }
        Ok(violations) => {
            eprintln!("[perf-gate] {} violation(s):", violations.len());
            for v in &violations {
                eprintln!("  {v}");
            }
            eprintln!("[perf-gate] if intentional, re-bless with: cargo run --release -p synergy-bench --bin perf_gate -- --bless");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[perf-gate] error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn a_flag_without_its_value_is_an_error() {
        for flag in ["--baselines", "--metrics"] {
            let err = parse(&["--check", flag]).unwrap_err();
            assert!(err.contains(&format!("{flag} requires a value")), "{flag}: {err}");
        }
    }

    #[test]
    fn parses_both_modes_and_rejects_the_rest() {
        let args = parse(&["--bless", "--baselines", "b", "--metrics", "m"]).unwrap();
        let expected = Args { bless: true, baselines: "b".into(), metrics: Some("m".into()) };
        assert_eq!(args, expected);
        assert!(!parse(&["--check"]).unwrap().bless);
        for (args, needle) in [
            (&[][..], "exactly one"),
            (&["--check", "--bless"][..], "exactly one"),
            (&["--check", "--fast"][..], "unknown argument: --fast"),
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
    }

    #[test]
    fn bless_names_the_path_it_cannot_create() {
        let baselines = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml/baselines");
        let err = bless(&baselines, Path::new(".")).unwrap_err();
        assert!(err.contains(&baselines.display().to_string()), "{err}");
    }
}
