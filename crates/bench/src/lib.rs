//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every table and figure of the paper has a bench target in `benches/`
//! (custom `harness = false` executables) that prints the same rows or
//! series the paper reports and writes a CSV under `target/experiments/`.
//! This library holds the common machinery: the sweep grid every simulator
//! figure runs on ([`sweep`]), geometric means, table formatting, and CSV
//! output.
//!
//! Scale knobs (environment variables):
//!
//! * `SYNERGY_BENCH_INSTS` — instructions per core per run
//!   (default 200,000; the paper uses 1 billion — relative results
//!   stabilize far earlier).
//! * `SYNERGY_BENCH_WARMUP` — warm-up trace records per core
//!   (default 60,000; enough to reach LLC steady state).
//! * `SYNERGY_BENCH_DEVICES` — Monte-Carlo devices for Figure 11
//!   (default 50,000,000).
//! * `SYNERGY_BENCH_WORKLOADS` — `all` (29 + 6 mixes) or `quick`
//!   (a representative memory-intensive subset; the default). Any other
//!   value exits with a message.
//! * `SYNERGY_BENCH_THREADS` — worker threads for the parallel sweep
//!   runner ([`sweep`]); defaults to the machine's available parallelism.
//!   `1` reproduces the sequential run (results are byte-identical either
//!   way — see [`trace_seed`]).
//! * `SYNERGY_BENCH_FAIL_CYCLE` — memory cycle at which the degraded-mode
//!   experiment (`fig_degraded`) injects its permanent chip failure
//!   (default 2,000 — early enough that most of the run executes
//!   degraded).
//! * `SYNERGY_CRYPTO_BACKEND` — crypto implementation: `auto` (default),
//!   `simd` or `table` (read by `synergy-crypto`, see its `Backend`).
//!
//! An unset numeric knob takes its default; a set one that is not an
//! unsigned integer (`SYNERGY_BENCH_INSTS=20k`) exits with a message
//! naming the variable and its value.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gate;
pub mod sweep;

pub use sweep::{parallel_map, run_sweep, sweep_threads, SweepCell, SweepReport, SweepWorkload};

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use synergy_core::system::SimResult;
use synergy_dram::RequestClass;
use synergy_obs::{export, ChromeTrace, CycleAttribution, MetricRegistry, Span};
use synergy_secure::DesignConfig;
use synergy_trace::{presets, WorkloadSpec};

/// Instructions per core for performance runs.
pub fn bench_insts() -> u64 {
    env_u64("SYNERGY_BENCH_INSTS", 200_000)
}

/// Warm-up records per core.
pub fn bench_warmup() -> u64 {
    env_u64("SYNERGY_BENCH_WARMUP", 60_000)
}

/// Monte-Carlo devices for reliability runs.
pub fn bench_devices() -> u64 {
    env_u64("SYNERGY_BENCH_DEVICES", 50_000_000)
}

/// Whether to run the full 35-workload sweep or the quick subset; any
/// `SYNERGY_BENCH_WORKLOADS` other than `all`, `quick` or unset exits the
/// process with a message naming the value.
pub fn full_sweep() -> bool {
    let value = std::env::var("SYNERGY_BENCH_WORKLOADS").ok();
    parse_workloads(value.as_deref()).unwrap_or_else(|msg| fail(&msg))
}

/// Parses `SYNERGY_BENCH_WORKLOADS` (`None` when unset): `all` is the
/// full sweep, `quick` or unset the subset.
fn parse_workloads(value: Option<&str>) -> Result<bool, String> {
    match value {
        None | Some("quick") => Ok(false),
        Some("all") => Ok(true),
        Some(v) => Err(format!("SYNERGY_BENCH_WORKLOADS={v:?} is neither \"all\" nor \"quick\"")),
    }
}

/// A numeric knob: `default` when `name` is unset; a set value that is not
/// an unsigned integer exits the process with a message naming both.
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    parse_knob(name, std::env::var(name).ok().as_deref(), default).unwrap_or_else(|msg| fail(&msg))
}

/// Prints `error: <msg>` and exits with code 2: how the knobs and the
/// command-line tools reject malformed input.
pub fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parses the value of knob `name` (`None` when unset).
fn parse_knob(name: &str, value: Option<&str>, default: u64) -> Result<u64, String> {
    match value {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name}={v:?} is not an unsigned integer")),
    }
}

/// Parses a count with an optional case-insensitive `k`, `m` or `b`
/// suffix (×10³, ×10⁶, ×10⁹): `10k`, `2m`, `1b`. An empty or malformed
/// value, or one past `u64::MAX`, is an error naming the value.
pub fn parse_scaled(s: &str) -> Result<u64, String> {
    let t = s.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix(['k', 'm', 'b']) {
        Some(d) if t.ends_with('k') => (d, 1_000),
        Some(d) if t.ends_with('m') => (d, 1_000_000),
        Some(d) => (d, 1_000_000_000),
        None => (t.as_str(), 1),
    };
    let n: u64 = digits.parse().map_err(|_| format!("{s:?} is not a count like 10k, 2m or 1b"))?;
    n.checked_mul(mult).ok_or_else(|| format!("{s:?} exceeds {}", u64::MAX))
}

/// The value that follows command-line flag `flag`; its absence is an
/// error naming the flag.
pub fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} requires a value"))
}

/// The value of command-line flag `flag` as a [`parse_scaled`] count; a
/// bad value is an error naming the flag.
pub fn scaled_arg(flag: &str, value: &str) -> Result<u64, String> {
    parse_scaled(value).map_err(|msg| format!("{flag}: {msg}"))
}

/// The value of command-line flag `flag` parsed as a `T`; a bad value is
/// an error naming the flag, the value and `what` was expected.
pub fn parsed_arg<T: std::str::FromStr>(flag: &str, value: &str, what: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag}: {value:?} is not {what}"))
}

/// The workload list for performance figures: all 29 when `full_sweep()`,
/// otherwise the memory-intensive subset the headline numbers average.
pub fn perf_workloads() -> Vec<WorkloadSpec> {
    if full_sweep() {
        presets::all()
    } else {
        presets::memory_intensive()
    }
}

/// The workloads of the sensitivity studies (Figures 13, 14, 16, 17 and
/// the extension ablation): the five SPEC benchmarks of at least 20 APKI
/// plus PageRank on the twitter graph for the GAP kernels. Their metadata
/// traffic, which those studies vary, is the heaviest. The `*-web` graphs
/// stay out: their counters thrash the LLC, the one Figure 8 regime where
/// SGX_O trails SGX, which would mix a second effect into every comparison.
pub fn sensitivity_workloads() -> Vec<WorkloadSpec> {
    let names = ["mcf", "libquantum", "lbm", "milc", "soplex", "pr-twi"];
    names.iter().map(|n| presets::by_name(n).expect("preset")).collect()
}

/// The trace seed for a sweep cell, as [`SweepCell::run`] derives it.
///
/// **Invariant (the sweep runner and every figure depend on it):** the
/// seed is a function of the *cell parameters only* — here the channel
/// count — and deliberately NOT of the design. Every design evaluated on
/// a (workload, channels) cell therefore consumes the *identical* trace
/// stream, which is what makes normalized IPC and traffic ratios
/// meaningful, and what lets [`sweep::run_sweep`] execute cells on any
/// thread in any order while staying byte-identical to a sequential run:
/// no shared RNG, no issue-order dependence. Pinned by
/// `trace_seed_is_design_independent` below and `tests/sweep_determinism.rs`.
pub fn trace_seed(channels: usize) -> u64 {
    0xBEEF ^ channels as u64
}

/// Memory cycle at which `fig_degraded` injects its chip failure
/// (`SYNERGY_BENCH_FAIL_CYCLE`, default 2,000).
pub fn bench_fail_cycle() -> u64 {
    env_u64("SYNERGY_BENCH_FAIL_CYCLE", 2_000)
}

/// The body shared by Figures 16 and 17 and the extension ablation: runs
/// SGX_O and `designs` on the [`sensitivity_workloads`] at 2 channels,
/// prints each design's performance and EDP normalized to SGX_O
/// (geometric means of the per-workload ratios) and writes them to
/// `target/experiments/<csv_name>.csv`. Returns the `(performance, EDP)`
/// pairs in `designs` order.
pub fn perf_edp_vs_sgx_o(csv_name: &str, designs: &[DesignConfig]) -> Vec<(f64, f64)> {
    let workloads = sensitivity_workloads();
    let columns: Vec<DesignConfig> =
        std::iter::once(DesignConfig::sgx_o()).chain(designs.iter().cloned()).collect();
    let report = run_sweep(&workloads, &columns, |w, d| SweepCell::single(d, w, 2));
    let gmeans: Vec<(f64, f64)> = (1..columns.len())
        .map(|i| {
            (gmean(&report.ratios(i, 0, |r| r.ipc)), gmean(&report.ratios(i, 0, SimResult::edp)))
        })
        .collect();
    let rows: Vec<Vec<String>> = designs
        .iter()
        .zip(&gmeans)
        .map(|(d, (perf, edp))| vec![d.name.to_string(), format!("{perf:.2}"), format!("{edp:.2}")])
        .collect();
    print_table(&["design", "performance (vs SGX_O)", "EDP (vs SGX_O)"], &rows);
    let csv: Vec<String> = designs
        .iter()
        .zip(&gmeans)
        .map(|(d, (perf, edp))| format!("{},{perf:.4},{edp:.4}", d.name))
        .collect();
    write_csv(csv_name, "design,performance,edp", &csv);
    gmeans
}

/// Geometric mean.
///
/// # Panics
///
/// Panics if `values` is empty or contains a non-positive value.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of empty slice");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Creates `dir` and its parents and returns it; the error names the path.
fn output_dir(dir: PathBuf) -> Result<PathBuf, String> {
    fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Writes `content` to `path` through [`export::write_file`] (atomic
/// replace); the error names the path.
fn write_output(path: &Path, content: &str) -> Result<(), String> {
    export::write_file(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Unwraps an output-path result, or prints the error and exits 1, as
/// `perf_gate --bless` does: an output that cannot be written fails the
/// run with a message, not a panic.
fn or_exit<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(1)
    })
}

/// Directory for experiment CSVs (`target/experiments/`). Exits 1,
/// naming the path, when it cannot be created.
pub fn experiments_dir() -> PathBuf {
    or_exit(output_dir(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments")))
}

/// Directory for machine-readable metric snapshots
/// (`target/experiments/metrics/`). Exits 1, naming the path, when it
/// cannot be created.
pub fn metrics_dir() -> PathBuf {
    or_exit(output_dir(experiments_dir().join("metrics")))
}

/// Writes a [`MetricRegistry`] snapshot to
/// `target/experiments/metrics/<name>.json` and returns the path — the
/// one metrics-dir plumbing shared by every bin that exports a registry
/// (`campaign`, `fleet`, ...).
pub fn write_metrics_registry(
    name: &str,
    reg: &synergy_obs::MetricRegistry,
) -> PathBuf {
    let path = metrics_dir().join(format!("{name}.json"));
    or_exit(write_output(&path, &export::registry_to_json(reg)));
    println!("\n[metrics] {}", path.display());
    path
}

/// Directory for Chrome-trace JSON documents
/// (`target/experiments/trace/`). Exits 1, naming the path, when it
/// cannot be created.
pub fn trace_dir() -> PathBuf {
    or_exit(output_dir(experiments_dir().join("trace")))
}

/// Writes a Perfetto-loadable Chrome trace of one run under
/// [`trace_dir`]: the slowest request spans (one track each) plus the
/// epoch-sampled attribution counters (stacked cycle-budget chart, when
/// epoch sampling was enabled). Returns the written path.
pub fn write_chrome_trace(name: &str, r: &SimResult) -> PathBuf {
    let mut trace = ChromeTrace::new();
    trace.process_name(1, &format!("synergy-sim {}", r.design));
    for (i, span) in r.telemetry.slowest.iter().enumerate() {
        trace.add_span(span, 1, i as u64 + 1);
    }
    trace.add_epoch_counters(
        1,
        "cycle budget (per epoch)",
        r.telemetry.registry.epochs(),
        "attrib.cycles.",
    );
    let path = trace_dir().join(format!("{name}.trace.json"));
    or_exit(write_output(&path, &trace.finish()));
    println!("[trace] {}", path.display());
    path
}

#[derive(Default)]
struct DesignMetrics {
    registry: MetricRegistry,
    slowest: Vec<Span>,
    attrib: CycleAttribution,
}

impl DesignMetrics {
    /// The stored registry with the aggregated attribution folded in.
    fn full_registry(&self) -> MetricRegistry {
        let mut reg = self.registry.clone();
        if !self.attrib.is_empty() {
            use synergy_obs::Observe as _;
            self.attrib.observe("attrib", &mut reg);
        }
        reg
    }
}

/// Cross-run telemetry accumulator for one bench target.
///
/// Bench targets feed every [`SimResult`] into a snapshot (keyed by design,
/// or any other grouping string) and write one JSON document plus per-key
/// CSVs under [`metrics_dir`] at the end. Per-class DRAM latency histograms
/// merge losslessly across workloads; the slowest-request span dump keeps
/// the global top-K per key.
pub struct MetricsSnapshot {
    designs: BTreeMap<String, DesignMetrics>,
    top_k: usize,
}

impl Default for MetricsSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsSnapshot {
    /// An empty snapshot retaining the 10 slowest requests per key.
    pub fn new() -> Self {
        Self::with_top_k(10)
    }

    /// An empty snapshot retaining the `top_k` slowest requests per key.
    pub fn with_top_k(top_k: usize) -> Self {
        Self { designs: BTreeMap::new(), top_k }
    }

    /// Folds one simulation run of `workload` into `design`'s aggregate:
    /// per-class DRAM latency histograms and traffic counters, a
    /// per-workload IPC gauge, secure-engine hot-path counters
    /// (`engine.*` — gated by the perf-regression gate), and the
    /// slowest-request spans.
    pub fn add_run(&mut self, design: &str, workload: &str, r: &SimResult) {
        let d = self.designs.entry(design.to_string()).or_default();
        for class in RequestClass::ALL {
            let n = class.name();
            d.registry.add_counter(&format!("dram.reads.{n}"), r.dram.reads(class));
            d.registry.add_counter(&format!("dram.writes.{n}"), r.dram.writes(class));
            d.registry
                .merge_histogram(&format!("dram.read_latency.{n}"), r.dram.read_latency(class));
            d.registry
                .merge_histogram(&format!("dram.write_latency.{n}"), r.dram.write_latency(class));
        }
        d.registry.merge_histogram("dram.read_latency", &r.dram.read_latency_all());
        d.registry.merge_histogram("dram.write_latency", &r.dram.write_latency_all());
        d.registry.set_gauge(&format!("ipc.{workload}"), r.ipc);
        d.registry.add_counter("engine.data_reads", r.engine.data_reads);
        d.registry.add_counter("engine.data_writebacks", r.engine.data_writebacks);
        d.registry.add_counter("engine.counter_dedicated_hits", r.engine.counter_dedicated_hits);
        d.registry.add_counter("engine.counter_llc_hits", r.engine.counter_llc_hits);
        d.registry.add_counter("engine.counter_misses", r.engine.counter_misses);
        d.registry.add_counter("engine.tree_fetches", r.engine.tree_fetches);
        d.registry.add_counter("spans.completed", r.telemetry.spans_completed);
        d.registry.add_counter("spans.dropped", r.telemetry.spans_dropped);
        d.attrib.merge(&r.attrib);
        self.merge_spans(design, &r.telemetry.slowest);
    }

    /// Stores a registry verbatim under `key` rather than as an aggregate
    /// (the figures store their [`SweepReport::registry`] this way).
    pub fn add_registry(&mut self, key: &str, registry: &MetricRegistry, spans: &[Span]) {
        let d = self.designs.entry(key.to_string()).or_default();
        d.registry = registry.clone();
        self.merge_spans(key, spans);
    }

    fn merge_spans(&mut self, key: &str, spans: &[Span]) {
        let d = self.designs.get_mut(key).expect("key was just inserted");
        d.slowest.extend(spans.iter().cloned());
        d.slowest.sort_by_key(|s| std::cmp::Reverse(s.total_latency()));
        d.slowest.truncate(self.top_k);
    }

    /// Renders the whole snapshot as one JSON document:
    /// `{"designs": {<key>: {"telemetry": ..., "slowest_spans": [...]}}}`.
    pub fn to_json(&self) -> String {
        let designs: Vec<String> = self
            .designs
            .iter()
            .map(|(name, d)| {
                format!(
                    "\"{}\":{{\"telemetry\":{},\"slowest_spans\":{}}}",
                    export::json_escape(name),
                    export::registry_to_json(&d.full_registry()),
                    export::spans_to_json(&d.slowest)
                )
            })
            .collect();
        format!("{{\"designs\":{{{}}}}}", designs.join(","))
    }

    /// Writes `<name>.json` plus one `<name>.<key>.csv` per key under
    /// [`metrics_dir`] and returns the JSON path.
    pub fn write(&self, name: &str) -> PathBuf {
        let dir = metrics_dir();
        let json_path = dir.join(format!("{name}.json"));
        or_exit(write_output(&json_path, &self.to_json()));
        for (key, d) in &self.designs {
            let safe: String = key
                .chars()
                .map(|c| if c.is_alphanumeric() || c == '-' || c == '_' { c } else { '_' })
                .collect();
            let csv_path = dir.join(format!("{name}.{safe}.csv"));
            or_exit(write_output(&csv_path, &export::registry_to_csv(&d.full_registry())));
            if !d.attrib.is_empty() {
                let attrib_path = dir.join(format!("{name}.{safe}.attrib.csv"));
                or_exit(write_output(&attrib_path, &d.attrib.to_csv()));
            }
        }
        println!("[metrics] {}", json_path.display());
        json_path
    }
}

/// Writes a CSV file of `rows` under `target/experiments/<name>.csv`,
/// replacing it atomically. Exits 1, naming the path, when it cannot be
/// written.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let path = experiments_dir().join(format!("{name}.csv"));
    let mut out = String::with_capacity(rows.len() * 64 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    or_exit(write_output(&path, &out));
    println!("\n[csv] {}", path.display());
}

/// Prints an aligned table: a header row then data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<w$}", c, w = widths[i]));
            } else {
                s.push_str(&format!("  {:>w$}", c, w = widths[i]));
            }
        }
        println!("{s}");
    };
    line(headers.iter().map(|s| s.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Prints the standard bench banner with the effective scale settings.
pub fn banner(title: &str, paper_ref: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("(reproduces {paper_ref} of SYNERGY, HPCA 2018)");
    println!(
        "scale: {} insts/core, {} warmup records/core{}",
        bench_insts(),
        bench_warmup(),
        if full_sweep() { ", full workload sweep" } else { ", quick workload subset" }
    );
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use synergy_trace::MultiCoreTrace;

    #[test]
    fn knobs_parse_or_name_the_bad_value() {
        assert_eq!(parse_knob("SYNERGY_BENCH_INSTS", None, 7), Ok(7));
        assert_eq!(parse_knob("SYNERGY_BENCH_INSTS", Some("20000"), 7), Ok(20_000));
        for bad in ["20k", "", "-1", "1e6", " 5"] {
            let err = parse_knob("SYNERGY_BENCH_INSTS", Some(bad), 7).unwrap_err();
            assert!(err.contains("SYNERGY_BENCH_INSTS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn workloads_knob_accepts_only_all_or_quick() {
        assert_eq!(parse_workloads(None), Ok(false));
        assert_eq!(parse_workloads(Some("quick")), Ok(false));
        assert_eq!(parse_workloads(Some("all")), Ok(true));
        for bad in ["All", "al", "", "full", " all", "all "] {
            let err = parse_workloads(Some(bad)).unwrap_err();
            assert!(err.contains("SYNERGY_BENCH_WORKLOADS"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn unwritable_output_paths_are_errors_naming_the_path() {
        // A directory under a regular file cannot be created, not even by root.
        let file = std::env::temp_dir().join(format!("synergy_bench_file_{}", std::process::id()));
        fs::write(&file, "").unwrap();
        let dir = file.join("sub");
        let err = output_dir(dir.clone()).unwrap_err();
        assert!(err.contains(&dir.display().to_string()), "{err}");
        let csv = dir.join("x.csv");
        let err = write_output(&csv, "a\n").unwrap_err();
        assert!(err.contains(&csv.display().to_string()), "{err}");
        fs::remove_file(&file).unwrap();
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_non_positive() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    fn scaled_counts_parse_with_checked_suffixes() {
        assert_eq!(parse_scaled("10k"), Ok(10_000));
        assert_eq!(parse_scaled("2m"), Ok(2_000_000));
        assert_eq!(parse_scaled("1b"), Ok(1_000_000_000));
        assert_eq!(parse_scaled(" 7K "), Ok(7_000));
        assert_eq!(parse_scaled("99999b"), Ok(99_999_000_000_000));
        // 2·10¹⁹ wraps u64 silently without the checked multiply.
        let err = parse_scaled("20000000000b").unwrap_err();
        assert!(err.contains("20000000000b") && err.contains("exceeds"), "{err}");
        for bad in ["", "k", "-1", "1.5m", "10x"] {
            let err = parse_scaled(bad).unwrap_err();
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn env_defaults() {
        assert!(bench_insts() > 0);
        assert!(bench_devices() > 0);
    }

    #[test]
    fn metrics_snapshot_aggregates_and_renders() {
        use synergy_obs::{Span, SpanPhase};
        let span = |id, addr, label, start, end| Span {
            id,
            addr,
            label,
            events: vec![(SpanPhase::LlcMiss, start), (SpanPhase::Complete, end)],
        };
        let spans = [span(2, 0x80, "counter", 10, 100), span(1, 0x40, "data", 0, 50)];
        let mut reg = MetricRegistry::new();
        reg.set_counter("x", 3);
        let mut snap = MetricsSnapshot::with_top_k(1);
        snap.add_registry("probe", &reg, &spans);
        let j = snap.to_json();
        assert!(j.contains("\"probe\""), "{j}");
        assert!(j.contains("\"x\":{\"kind\":\"counter\",\"value\":3}"), "{j}");
        // top_k = 1 keeps only the slowest span (latency 90, not 50).
        assert!(j.contains("\"latency\":90") && !j.contains("\"latency\":50"), "{j}");
    }

    #[test]
    fn trace_seed_is_design_independent() {
        // The exact constant is load-bearing: changing it invalidates
        // every recorded baseline, and making it design-dependent would
        // silently break the normalized figures AND the parallel sweep's
        // byte-identity guarantee.
        assert_eq!(trace_seed(2), 0xBEEF ^ 2);
        assert_eq!(trace_seed(8), 0xBEEF ^ 8);
        // Two traces built the way SweepCell::run builds them — for two
        // *different* designs — must yield the identical record stream.
        let w = presets::by_name("mcf").unwrap();
        let mut a = MultiCoreTrace::rate_mode(&w, 4, trace_seed(2));
        let mut b = MultiCoreTrace::rate_mode(&w, 4, trace_seed(2));
        for core in 0..4 {
            for _ in 0..1000 {
                assert_eq!(a.next_record(core), b.next_record(core));
            }
        }
    }

    #[test]
    fn quick_workload_list_is_memory_intensive() {
        for w in perf_workloads() {
            assert!(w.apki >= 10.0 || full_sweep());
        }
    }
}
