//! One-command layered benchmark of the SYNERGY reproduction.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --list
//! ```
//!
//! Every run prints each metric with its unit, checks the outputs of every
//! operation it times, writes `target/benchmark/<workload>.json` (plus the
//! layer summary and a Perfetto trace when traced), and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. An untraced run
//! reports the end-to-end metrics; a traced run reports the per-layer
//! metrics. See README.md beside this crate for what each workload and
//! metric is for.

mod campaign;
mod fleet;
mod report;
mod secmem;
mod sim;
#[cfg(test)]
mod tests;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{fabric_threads, peak_rss_mb, Report, Tally, Tracer};
use synergy::crypto::Backend;
use synergy::obs::export::json_f64;

/// The workloads, in `--list` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Memory-bound timing-simulator cells.
    SimSaturated,
    /// Cache-resident timing-simulator cells.
    SimLight,
    /// The functional secure memory.
    Secmem,
    /// The fleet lifetime simulator.
    Fleet,
    /// The differential fault-injection campaign.
    Campaign,
}

impl Workload {
    /// Every workload.
    const ALL: [Workload; 5] = [
        Workload::SimSaturated,
        Workload::SimLight,
        Workload::Secmem,
        Workload::Fleet,
        Workload::Campaign,
    ];

    /// The workload's command-line name.
    fn name(self) -> &'static str {
        match self {
            Workload::SimSaturated => "sim-saturated",
            Workload::SimLight => "sim-light",
            Workload::Secmem => "secmem",
            Workload::Fleet => "fleet",
            Workload::Campaign => "campaign",
        }
    }

    fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload size: `Full` for measurement, `Smoke` for the tests' check of
/// every code path (and the reference input of layers a traced workload
/// does not exercise itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    /// The measured size.
    Full,
    /// A few milliseconds of each path.
    Smoke,
}

/// End-to-end metrics (`--trace 0`), every workload: name and unit.
const END_TO_END: [(&str, &str); 3] = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), every workload: name and unit.
const PER_LAYER: [(&str, &str); 65] = [
    ("trace.record_ns", "ns"),
    ("trace.records", "count"),
    ("cache.llc_access_ns", "ns"),
    ("cache.llc_accesses", "count"),
    ("cache.llc_miss_ratio", "ratio"),
    ("cache.meta_miss_ratio", "ratio"),
    ("secure.expand_read_ns", "ns"),
    ("secure.expand_writeback_ns", "ns"),
    ("secure.accesses_per_expand", "ratio"),
    ("secure.data_reads", "count"),
    ("secure.data_writebacks", "count"),
    ("secure.counter_miss_ratio", "ratio"),
    ("secure.tree_fetches", "count"),
    ("secure.parity_reads", "count"),
    ("dram.enqueue_ns", "ns"),
    ("dram.tick_ns", "ns"),
    ("dram.requests", "count"),
    ("dram.ticked_cycles", "cycles"),
    ("dram.ff_skip_share", "share"),
    ("dram.read_latency_p50_cycles", "cycles"),
    ("dram.read_latency_p99_cycles", "cycles"),
    ("core.run_s", "s"),
    ("core.host_ns_per_mem_cycle", "ns"),
    ("core.est_share.trace", "share"),
    ("core.est_share.cache", "share"),
    ("core.est_share.secure", "share"),
    ("core.est_share.dram", "share"),
    ("core.residual_share", "share"),
    ("core.ipc_gain", "ratio"),
    ("core.sim_digest", "hash"),
    ("obs.telemetry_share", "share"),
    ("memory.read_p50_us", "us"),
    ("memory.read_p99_us", "us"),
    ("memory.read_samples", "count"),
    ("memory.write_p50_us", "us"),
    ("memory.write_p99_us", "us"),
    ("memory.write_samples", "count"),
    ("memory.degraded_read_p50_us", "us"),
    ("memory.degraded_read_p99_us", "us"),
    ("memory.degraded_read_samples", "count"),
    ("memory.macs_per_read", "ratio"),
    ("memory.macs_per_write", "ratio"),
    ("memory.macs_per_degraded_read", "ratio"),
    ("memory.corrections", "count"),
    ("memory.preemptive_corrections", "count"),
    ("memory.parity_reconstructions", "count"),
    ("memory.chip_failure_inject_s", "s"),
    ("memory.crypto_est_share", "share"),
    ("crypto.line_tag_ns", "ns"),
    ("crypto.node_tag_ns", "ns"),
    ("crypto.ctr_line_ns", "ns"),
    ("faultsim.first_failure_ns", "ns"),
    ("fleet.shard_ms", "ms"),
    ("fleet.fabric_overhead_share", "share"),
    ("fleet.faulty_dimms", "count"),
    ("campaign.shard_ms", "ms"),
    ("campaign.functional_ns.secded", "ns"),
    ("campaign.functional_ns.chipkill", "ns"),
    ("campaign.functional_ns.synergy", "ns"),
    ("campaign.fabric_overhead_share", "share"),
    ("ecc.secded_decode_line_ns", "ns"),
    ("ecc.rs_correct_line_ns", "ns"),
    ("ecc.parity_reconstruct_ns", "ns"),
    ("bench.tracing_overhead_share", "share"),
    ("bench.timer_ns", "ns"),
];

/// Default measured seconds per run: `run_seconds` in BENCHMARK.json, which
/// a runner of BENCHMARK.json passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       benchmark --list";

/// A validated run request.
#[derive(Debug, Clone, PartialEq)]
struct Opts {
    /// Which workload.
    workload: Workload,
    /// Input seed; the same seed gives the same inputs.
    seed: u64,
    /// Measured seconds (end-to-end rounds repeat until they pass).
    seconds: f64,
    /// Per-layer (traced) run instead of end-to-end.
    traced: bool,
    /// Workload size.
    scale: Scale,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Opts),
    List,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds) = (None, 0, DEFAULT_SECONDS);
    let (mut traced, mut list) = (false, false);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let v = value()?;
                let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(v).ok_or_else(|| {
                    format!(
                        "unknown workload {v:?} (expected one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => {
                let v = value()?;
                seed = v
                    .parse()
                    .map_err(|_| format!("malformed seed {v:?} (expected an unsigned integer)"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| {
                        format!("malformed --seconds {v:?} (expected a positive number)")
                    })?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("malformed --trace {v:?} (expected 0 or 1)")),
                };
            }
            "--list" => list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if list {
        return Ok(Command::List);
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Opts {
        workload,
        seed,
        seconds,
        traced,
        scale: Scale::Full,
    }))
}

/// An end-to-end pass of `opts.workload`.
fn end_to_end(opts: &Opts, tally: &mut Tally) -> Result<Report, String> {
    let (seed, secs, scale) = (opts.seed, opts.seconds, opts.scale);
    let mut report = match opts.workload {
        Workload::SimSaturated => sim::measure(&sim::Spec::saturated(scale), seed, secs, tally)?,
        Workload::SimLight => sim::measure(&sim::Spec::light(scale), seed, secs, tally)?,
        Workload::Secmem => secmem::measure(&secmem::Spec::new(scale), seed, secs, tally)?,
        Workload::Fleet => fleet::measure(&fleet::Spec::new(scale), seed, secs, tally)?,
        Workload::Campaign => campaign::measure(&campaign::Spec::new(scale), seed, secs, tally)?,
    };
    report.set("peak_rss_mb", peak_rss_mb()?, "MiB");
    Ok(report)
}

/// A traced pass: every layer group runs, the workload's own at its scale
/// and the others on their smoke-scale reference input, so every traced
/// run reports the whole per-layer set.
fn traced(opts: &Opts, t: &mut Tracer, tally: &mut Tally) -> Result<Report, String> {
    let (w, seed) = (opts.workload, opts.seed);
    let scale = |own: Workload| if w == own { opts.scale } else { Scale::Smoke };
    let sim_spec = match w {
        Workload::SimLight => sim::Spec::light(opts.scale),
        _ => sim::Spec::saturated(scale(Workload::SimSaturated)),
    };
    let mut report = Report::default();
    let sim = sim::layers(&sim_spec, seed, t, &mut report, tally)?;
    let mem = secmem::layers(
        &secmem::Spec::new(scale(Workload::Secmem)),
        seed,
        t,
        &mut report,
        tally,
    )?;
    let fleet = fleet::layers(
        &fleet::Spec::new(scale(Workload::Fleet)),
        seed,
        t,
        &mut report,
        tally,
    )?;
    let campaign = campaign::layers(
        &campaign::Spec::new(scale(Workload::Campaign)),
        seed,
        t,
        &mut report,
        tally,
    )?;
    let (timed, untimed) = match w {
        Workload::SimSaturated | Workload::SimLight => sim,
        Workload::Secmem => mem,
        Workload::Fleet => fleet,
        Workload::Campaign => campaign,
    };
    report.set(
        "bench.tracing_overhead_share",
        timed / untimed - 1.0,
        "share",
    );
    report.set("bench.timer_ns", t.timer_ns(), "ns");
    Ok(report)
}

/// The commit this tree was checked out at, read from `.git`, or
/// `"unknown"` outside a git checkout.
fn revision(repo: &Path) -> String {
    let git = repo.join(".git");
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(id) = std::fs::read_to_string(git.join(name)) {
            return Some(id.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed
            .lines()
            .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

fn manifest(opts: &Opts, repo: &Path) -> String {
    let fabric = opts.traced || matches!(opts.workload, Workload::Fleet | Workload::Campaign);
    let threads = if fabric { fabric_threads() } else { 1 };
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let backend = match Backend::detect() {
        Backend::Simd => "simd",
        Backend::Table => "table",
    };
    let scale = match opts.scale {
        Scale::Full => "full",
        Scale::Smoke => "smoke",
    };
    format!(
        "{{\"revision\":\"{}\",\"host_cpus\":{cpus},\"threads\":{threads},\"crypto_backend\":\"{backend}\",\
         \"seed\":{},\"seconds\":{},\"scale\":\"{scale}\"}}",
        revision(repo),
        opts.seed,
        json_f64(opts.seconds),
    )
}

/// `{"name": {"value": v, "unit": u}, ...}` over `listed`, in its order.
fn metrics_json(report: &Report, listed: &[(&str, &str)]) -> Result<String, String> {
    let mut out = Vec::new();
    for (name, unit) in listed {
        let value = report
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        out.push(format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_f64(value)
        ));
    }
    Ok(format!("{{{}}}", out.join(",")))
}

fn run(opts: &Opts) -> Result<(), String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut tally = Tally::default();
    let mut tracer = if opts.traced {
        Tracer::new()
    } else {
        Tracer::disabled()
    };
    let (report, listed) = if opts.traced {
        (traced(opts, &mut tracer, &mut tally)?, &PER_LAYER[..])
    } else {
        (end_to_end(opts, &mut tally)?, &END_TO_END[..])
    };
    let correct = tally.failed == 0 && tally.attempted > 0;
    let metrics = metrics_json(&report, listed)?;

    let manifest = manifest(opts, &repo);
    println!("workload {} manifest {manifest}", opts.workload.name());
    for (name, unit) in listed {
        println!(
            "  {name:<34} {:>18} {unit}",
            json_f64(report.get(name).unwrap_or(f64::NAN))
        );
    }
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "  {:<34} {:>18} ({} of {} operations failed)",
        "error_rate",
        json_f64(error_rate),
        tally.failed,
        tally.attempted
    );

    let dir = repo.join("target/benchmark");
    let stem = if opts.traced {
        format!("{}.traced", opts.workload.name())
    } else {
        opts.workload.name().to_string()
    };
    let layers = if opts.traced {
        tracer.layers_json()
    } else {
        "{}".to_string()
    };
    let doc = format!(
        "{{\"workload\":\"{}\",\"traced\":{},\"manifest\":{manifest},\"correct\":{correct},\
         \"attempted\":{},\"failed\":{},\"error_rate\":{},\"metrics\":{metrics},\"layer_calls\":{layers}}}\n",
        opts.workload.name(),
        opts.traced,
        tally.attempted,
        tally.failed,
        json_f64(error_rate),
    );
    let write = |path: PathBuf, text: &str| {
        synergy::obs::export::write_file(&path, text)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("[benchmark] {}", path.display());
        Ok::<(), String>(())
    };
    write(dir.join(format!("{stem}.json")), &doc)?;
    if opts.traced {
        let process = format!("benchmark {}", opts.workload.name());
        write(
            dir.join(format!("{}.trace.json", opts.workload.name())),
            &tracer.chrome_trace(&process),
        )?;
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        tally.attempted, tally.failed
    );
    Ok(())
}

fn print_list() {
    println!("workloads:");
    for w in Workload::ALL {
        println!("  {}", w.name());
    }
    println!("end-to-end metrics (--trace 0):");
    for (name, unit) in END_TO_END {
        println!("  {name} [{unit}]");
    }
    println!("per-layer metrics (--trace 1):");
    for (name, unit) in PER_LAYER {
        println!("  {name} [{unit}]");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::List) => {
            print_list();
            ExitCode::SUCCESS
        }
        Ok(Command::Run(opts)) => match run(&opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("benchmark: {msg}");
                ExitCode::FAILURE
            }
        },
    }
}
