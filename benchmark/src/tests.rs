//! Smoke-scale checks of every workload, of the metric list against
//! BENCHMARK.json, and of input handling.

use std::path::Path;

use synergy::obs::Json;

use crate::report::{Report, Tally, Tracer};
use crate::{
    end_to_end, parse_args, traced, Command, Opts, Scale, Workload, END_TO_END, PER_LAYER,
};

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

/// `(name, unit)` of every metric BENCHMARK.json lists under `key`.
fn listed(spec: &Json, key: &str) -> Vec<(String, String)> {
    let entries = spec
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {key}"));
    entries
        .iter()
        .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn smoke(workload: Workload, traced_run: bool) -> (Report, Tally) {
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 1e-3,
        traced: traced_run,
        scale: Scale::Smoke,
    };
    let mut tally = Tally::default();
    let report = if traced_run {
        traced(&opts, &mut Tracer::new(), &mut tally)
    } else {
        end_to_end(&opts, &mut tally)
    };
    (
        report.unwrap_or_else(|e| panic!("{}: {e}", workload.name())),
        tally,
    )
}

#[test]
fn benchmark_json_lists_what_the_binary_emits() {
    let spec = spec();
    let workloads: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name"))
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
    assert_eq!(listed(&spec, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&spec, "per_layer"), owned(&PER_LAYER));
    for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
        let valid = name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(!name.is_empty() && valid, "metric name {name:?}");
    }
}

#[test]
fn every_smoke_run_passes_and_emits_every_listed_metric() {
    let spec = spec();
    for workload in Workload::ALL {
        for traced_run in [false, true] {
            let (report, tally) = smoke(workload, traced_run);
            assert!(
                tally.attempted > 0 && tally.failed == 0,
                "{}: {tally:?}",
                workload.name()
            );
            let key = if traced_run {
                "per_layer"
            } else {
                "end_to_end"
            };
            for (name, unit) in listed(&spec, key) {
                let m = report
                    .metrics()
                    .iter()
                    .find(|m| m.name == name)
                    .unwrap_or_else(|| panic!("{} does not emit {name}", workload.name()));
                assert_eq!(m.unit, unit, "{name}");
                // Listed metrics must never be 0: a zero cannot show a
                // relative change.
                assert!(
                    m.value.is_finite() && m.value != 0.0,
                    "{}: {name} = {}",
                    workload.name(),
                    m.value
                );
            }
        }
    }
}

#[test]
fn counts_repeat_exactly_for_a_seed() {
    let (a, _) = smoke(Workload::SimSaturated, true);
    let (b, _) = smoke(Workload::SimSaturated, true);
    for (x, y) in a.metrics().iter().zip(b.metrics()) {
        if matches!(x.unit, "count" | "cycles" | "hash" | "ratio") {
            assert_eq!(x, y, "{} differs between identical runs", x.name);
        }
    }
}

#[test]
fn malformed_arguments_are_rejected() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    for bad in [
        "--workload nope",
        "--workload secmem --seed 12x",
        "--workload secmem --seed -1",
        "--workload secmem --seed 99999999999999999999",
        "--workload secmem --frobnicate",
        "--workload secmem --trace 2",
        "--workload secmem --trace",
        "--workload secmem --seconds 0",
        "--workload secmem --seconds",
        "--seed 1",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
    }
    assert_eq!(parse_args(&args("--list")), Ok(Command::List));
    let run = parse_args(&args("--workload fleet --seed 9 --seconds 3 --trace 1"));
    let expected = Opts {
        workload: Workload::Fleet,
        seed: 9,
        seconds: 3.0,
        traced: true,
        scale: Scale::Full,
    };
    assert_eq!(run, Ok(Command::Run(expected)));
}
