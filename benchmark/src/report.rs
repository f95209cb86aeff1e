//! Metric collection, failure accounting, per-call layer timing and span
//! export — the benchmark's own instrumentation, wrapped around calls into
//! the layers' public APIs (no layer crate is instrumented).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use synergy::campaign::{FabricConfig, FabricRun, Job, JobFabric};
use synergy::obs::export::json_f64;
use synergy::obs::{ChromeTrace, LogHistogram};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `s`, `ns`, `1/s`, `count`.
    pub unit: &'static str,
}

/// Metrics in the order they were measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Records `name` = `value`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// All metrics in insertion order.
    #[cfg(test)]
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// Operations attempted and failed. A failed correctness check counts as a
/// failed operation; nothing in the benchmark panics on one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

impl Tally {
    /// Records `ops` operations that all passed (`ok`) or all failed.
    pub fn record(&mut self, ops: u64, ok: bool) {
        self.add(ops, if ok { 0 } else { ops });
    }

    /// Records `attempted` operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Runs `round` until `seconds` have elapsed, at least once.
pub fn rounds(seconds: f64, mut round: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let start = Instant::now();
    loop {
        round()?;
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(());
        }
    }
}

/// Host seconds of each timed part of a round, over identical rounds.
///
/// Throughput uses each part's fastest repetition: other tenants of the
/// host only ever slow a repetition down, so the fastest one is the least
/// disturbed measurement of the same work, and it varies far less from
/// run to run than the median does on a shared machine.
#[derive(Debug, Clone, Default)]
pub struct PartTimes(Vec<Vec<f64>>);

impl PartTimes {
    /// Records one repetition of part `part`.
    pub fn record(&mut self, part: usize, secs: f64) {
        if self.0.len() <= part {
            self.0.resize(part + 1, Vec::new());
        }
        self.0[part].push(secs);
    }

    /// Σ over parts of the part's fastest repetition.
    pub fn fastest_total(&self) -> f64 {
        self.0
            .iter()
            .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min))
            .sum()
    }
}

/// Median of `values` (the mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A timed call site in a [`Tracer`].
#[derive(Debug, Clone, Copy)]
pub struct LayerId(usize);

/// An enclosing unit of work (a cell, a phase of operations) that timed
/// calls name as their parent span.
#[derive(Debug, Clone, Copy)]
pub struct Parent(u32);

/// One timed sample in this many is also kept as a span.
const SPAN_SAMPLE: u64 = 1024;

/// Calls per timed sample for kernels that take about as long as the timer
/// itself: timing them one by one would mostly measure the timer.
pub const KERNEL_BATCH: usize = 64;

#[derive(Debug)]
struct Layer {
    name: &'static str,
    /// Nanoseconds of each timed sample (one call, or one batch of calls).
    hist: LogHistogram,
    calls: u64,
}

#[derive(Debug)]
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    parent: u32,
}

#[derive(Debug)]
struct ParentRec {
    name: String,
    start_ns: u64,
    dur_ns: u64,
}

/// Times calls into the layers' public functions: every call (or batch of
/// calls to a tiny kernel) lands in a per-layer [`LogHistogram`] of
/// nanoseconds, and one sample in 1024 is kept as a span under its parent.
/// A disabled tracer runs the same calls untimed — the twin pass that
/// prices the tracing itself.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    timer_ns: f64,
    layers: Vec<Layer>,
    parents: Vec<ParentRec>,
    spans: Vec<SpanRec>,
}

impl Tracer {
    /// An enabled tracer; calibrates the cost of an empty timed call as
    /// the mean of the fastest 99 % of 4096 samples (the rest are
    /// interrupted).
    pub fn new() -> Self {
        let mut samples: Vec<f64> = (0..4096)
            .map(|_| {
                let t0 = Instant::now();
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let kept = &samples[..samples.len() * 99 / 100];
        let timer_ns = kept.iter().sum::<f64>() / kept.len() as f64;
        Self {
            enabled: true,
            timer_ns,
            ..Self::disabled()
        }
    }

    /// A tracer whose [`time`](Self::time) just runs the call.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            epoch: Instant::now(),
            timer_ns: 0.0,
            layers: Vec::new(),
            parents: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Cost of an empty timed sample, subtracted from every reported time.
    pub fn timer_ns(&self) -> f64 {
        self.timer_ns
    }

    /// The call site named `name` (created on first use).
    pub fn layer(&mut self, name: &'static str) -> LayerId {
        if let Some(i) = self.layers.iter().position(|l| l.name == name) {
            return LayerId(i);
        }
        self.layers.push(Layer {
            name,
            hist: LogHistogram::new(),
            calls: 0,
        });
        LayerId(self.layers.len() - 1)
    }

    /// Opens a parent span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: String) -> Parent {
        let start_ns = self.now_ns(Instant::now());
        self.parents.push(ParentRec {
            name,
            start_ns,
            dur_ns: 0,
        });
        Parent(self.parents.len() as u32 - 1)
    }

    /// Closes a parent span.
    pub fn close(&mut self, p: Parent) {
        let now = self.now_ns(Instant::now());
        let rec = &mut self.parents[p.0 as usize];
        rec.dur_ns = now.saturating_sub(rec.start_ns);
    }

    fn now_ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f`, timing it as one call of `id` under `parent`.
    #[inline(always)]
    pub fn time<R>(&mut self, id: LayerId, parent: Parent, f: impl FnOnce() -> R) -> R {
        self.time_batch(id, parent, 1, f)
    }

    /// Runs `f`, which makes `calls` calls of `id`, as one timed sample.
    #[inline(always)]
    pub fn time_batch<R>(
        &mut self,
        id: LayerId,
        parent: Parent,
        calls: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let r = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        let layer = &mut self.layers[id.0];
        layer.hist.record(dur_ns);
        layer.calls += calls as u64;
        if layer.hist.count() % SPAN_SAMPLE == 1 {
            let name = layer.name;
            let start_ns = self.now_ns(t0);
            self.spans.push(SpanRec {
                name,
                start_ns,
                dur_ns,
                parent: parent.0,
            });
        }
        r
    }

    /// Calls timed for `id`.
    pub fn calls(&self, id: LayerId) -> u64 {
        self.layers[id.0].calls
    }

    /// Mean nanoseconds per call of `id`, net of the timer's own cost.
    pub fn mean_ns(&self, id: LayerId) -> f64 {
        self.mean_of(&self.layers[id.0])
    }

    fn mean_of(&self, l: &Layer) -> f64 {
        let net = l.hist.sum() as f64 - l.hist.count() as f64 * self.timer_ns;
        net / l.calls.max(1) as f64
    }

    /// The `p`-th percentile of `id`'s per-sample time in nanoseconds
    /// (within 1/64 of exact, see [`LogHistogram::percentile`]), net of the
    /// timer's own cost.
    pub fn percentile_ns(&self, id: LayerId, p: f64) -> f64 {
        self.percentile_of(&self.layers[id.0], p)
    }

    fn percentile_of(&self, l: &Layer, p: f64) -> f64 {
        l.hist.percentile(p) as f64 - self.timer_ns
    }

    /// Summaries of every call site — calls, timed samples, mean ns per
    /// call, p50 and p99 ns per sample — as a JSON object.
    pub fn layers_json(&self) -> String {
        let rows: Vec<String> = self
            .layers
            .iter()
            .map(|l| {
                format!(
                    "\"{}\":{{\"calls\":{},\"samples\":{},\"mean_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
                    l.name,
                    l.calls,
                    l.hist.count(),
                    json_f64(self.mean_of(l)),
                    json_f64(self.percentile_of(l, 50.0)),
                    json_f64(self.percentile_of(l, 99.0)),
                )
            })
            .collect();
        format!("{{{}}}", rows.join(","))
    }

    /// The kept spans as a Chrome-trace document (Perfetto opens it). Each
    /// parent gets its own track, with its sampled calls nested inside.
    /// Timestamps are host nanoseconds written into the format's
    /// microsecond fields, so "1 µs" on screen is 1 ns.
    pub fn chrome_trace(&self, process: &str) -> String {
        let mut trace = ChromeTrace::new();
        trace.process_name(1, process);
        for (i, p) in self.parents.iter().enumerate() {
            let tid = i as u64 + 1;
            trace.thread_name(1, tid, &p.name);
            trace.complete_event(&p.name, "parent", 1, tid, p.start_ns, p.dur_ns, &[]);
        }
        for s in &self.spans {
            trace.complete_event(
                s.name,
                "call",
                1,
                u64::from(s.parent) + 1,
                s.start_ns,
                s.dur_ns,
                &[("parent", s.parent.to_string())],
            );
        }
        trace.finish()
    }
}

/// A fabric job that sums the time its shards take.
struct TimedJob<J> {
    inner: J,
    busy_ns: AtomicU64,
}

impl<J: Job> Job for TimedJob<J> {
    type Agg = J::Agg;

    fn items(&self) -> u64 {
        self.inner.items()
    }

    fn shard_items(&self) -> u64 {
        self.inner.shard_items()
    }

    fn run_shard(&self, start: u64, count: u64) -> J::Agg {
        let t0 = Instant::now();
        let agg = self.inner.run_shard(start, count);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        agg
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }
}

/// Worker threads for the fabric workloads: two, or fewer on a smaller host.
pub fn fabric_threads() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

/// The fabric configuration of the fleet and campaign workloads.
pub fn fabric() -> FabricConfig {
    FabricConfig {
        threads: fabric_threads(),
        ..FabricConfig::default()
    }
}

/// Runs `job` on the fabric with its shards timed, under a span named
/// `name`. Returns the run, its wall seconds, and the fabric's overhead
/// share: 1 − (Σ shard time ÷ threads) ÷ wall time.
pub fn timed_fabric_run<J: Job>(
    job: J,
    t: &mut Tracer,
    name: &str,
) -> (FabricRun<J::Agg>, f64, f64) {
    let fabric = JobFabric::new(
        TimedJob {
            inner: job,
            busy_ns: AtomicU64::new(0),
        },
        fabric(),
    );
    let parent = t.open(name.to_string());
    let t0 = Instant::now();
    let run = fabric.run();
    let wall_s = t0.elapsed().as_secs_f64();
    t.close(parent);
    let busy_s = fabric.job().busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    (run, wall_s, 1.0 - busy_s / fabric_threads() as f64 / wall_s)
}

/// `base` with the run seed mixed in; seed 0 keeps `base`, the
/// repository's default input.
pub fn mix_seed(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
