//! Telemetry layer for the SYNERGY reproduction.
//!
//! Zero-dependency observability shared by the whole performance stack
//! (DRAM model, caches, secure engine, system simulator, fault simulator,
//! bench harness):
//!
//! * [`LogHistogram`] — log-bucketed `u64` histograms with ≤1.6% quantile
//!   error, exact count/sum/min/max, and lossless merging. Replaces the
//!   `latency_sum / count` averaging pattern with full distributions
//!   (p50/p90/p99/max).
//! * [`MetricRegistry`] — a named registry of counters, gauges and
//!   histograms. Components publish into it via [`Observe`]; periodic
//!   [`MetricRegistry::sample_epoch`] calls build a time-series of every
//!   scalar metric.
//! * [`RequestLedger`] — the one table of in-flight DRAM reads, indexed
//!   by request id. Each record carries the read's waiting load and a
//!   cycle stamp per [`SpanPhase`] (LLC miss → engine expansion →
//!   metadata-cache probe → DRAM enqueue → issue → complete) and is folded
//!   once at completion into the attribution matrix, per-phase duration
//!   histograms and the K slowest requests, kept as [`Span`]s.
//! * [`CycleAttribution`] — per-request-class × per-bucket cycle
//!   accounting ("where did my cycles go") with a zero-tolerance
//!   conservation invariant: buckets sum to end-to-end latency.
//! * [`ChromeTrace`] — `chrome://tracing` / Perfetto JSON export of span
//!   lifecycles and epoch-sampled attribution counters.
//! * [`export`] — hand-rolled JSON/CSV snapshot serialization used by the
//!   fig0x bench targets and the `calibrate` / `debug_probe` bins, written
//!   under `target/experiments/metrics/`.
//! * [`Json`] — a matching minimal JSON reader, enough to re-read the
//!   crate's own exports (round-trip tests, the `perf_gate` bin).
//! * [`shard`] — the in-order shard runner behind the parallel sweeps,
//!   the fault-simulation Monte Carlo and the checkpointable job fabric.
//! * [`fabric`] — that job fabric: fixed-size shards, a streaming
//!   in-order merge and JSON frontier checkpoints, shared by the
//!   differential campaign and the fleet lifetime simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod export;
pub mod fabric;
pub mod hist;
pub mod inline_vec;
pub mod json;
pub mod ledger;
pub mod registry;
pub mod shard;
pub mod span;
pub mod trace_export;

pub use attrib::{AttribBucket, CycleAttribution};
pub use hist::{HistogramSummary, LogHistogram};
pub use inline_vec::InlineVec;
pub use json::Json;
pub use ledger::{ReadTimes, RequestLedger};
pub use registry::{metric_name, EpochSample, Metric, MetricRegistry, Observe};
pub use span::{Span, SpanPhase};
pub use trace_export::ChromeTrace;
