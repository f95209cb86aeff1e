//! Chrome-trace (`chrome://tracing` / Perfetto) JSON export.
//!
//! Renders [`Span`] lifecycles and epoch-sampled attribution counters as a
//! [Trace Event Format] document (the JSON-object form:
//! `{"traceEvents": [...]}`), loadable in Perfetto and catapult without
//! plugins. Timestamps in the format are microseconds; we emit **memory
//! cycles as-if-microseconds** — relative durations and orderings are what
//! matter when inspecting a simulation, and the 1:1 mapping keeps the
//! numbers readable ("1 µs" on screen = 1 simulated cycle).
//!
//! Each span is laid out on its own thread track: an umbrella slice for
//! the whole request, then one child slice per phase (nested by
//! containment), so a request's journey LLC → engine → meta-cache → DRAM
//! is visually inspectable. Epoch counter series render as "C" events,
//! which Perfetto draws as stacked area charts — the per-epoch cycle
//! budget over time.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! use synergy_obs::{ChromeTrace, Span, SpanPhase::*};
//!
//! let events = vec![(LlcMiss, 100), (DramIssue, 130), (Complete, 140)];
//! let span = Span { id: 1, addr: 0x40, label: "data", events };
//!
//! let mut trace = ChromeTrace::new();
//! trace.process_name(0, "synergy-sim");
//! trace.add_span(&span, 0, 1);
//! let json = trace.finish();
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::fmt::Write as _;

use crate::export::{json_escape, json_f64};
use crate::registry::EpochSample;
use crate::span::Span;

/// Incremental builder for a Chrome-trace JSON document.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<String>,
}

impl ChromeTrace {
    /// An empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events added so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been added.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Names a process track ("M" metadata event).
    pub fn process_name(&mut self, pid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Names a thread track ("M" metadata event).
    pub fn thread_name(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(format!(
            "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }

    /// Adds a complete slice ("X" event). `args` are `(key, value)` pairs
    /// where `value` is a pre-rendered JSON value.
    #[allow(clippy::too_many_arguments)]
    pub fn complete_event(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts: u64,
        dur: u64,
        args: &[(&str, String)],
    ) {
        let mut rendered = String::new();
        for (i, (k, v)) in args.iter().enumerate() {
            if i > 0 {
                rendered.push(',');
            }
            let _ = write!(rendered, "\"{}\":{}", json_escape(k), v);
        }
        self.events.push(format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":{pid},\"tid\":{tid},\
             \"ts\":{ts},\"dur\":{dur},\"args\":{{{rendered}}}}}",
            json_escape(name),
            json_escape(cat),
        ));
    }

    /// Adds a counter sample ("C" event). Perfetto stacks the series into
    /// an area chart under the track named `name`.
    fn counter_event(&mut self, name: &str, pid: u64, ts: u64, series: &[(&str, f64)]) {
        let mut rendered = String::new();
        for (i, (k, v)) in series.iter().enumerate() {
            if i > 0 {
                rendered.push(',');
            }
            let _ = write!(rendered, "\"{}\":{}", json_escape(k), json_f64(*v));
        }
        self.events.push(format!(
            "{{\"ph\":\"C\",\"name\":\"{}\",\"pid\":{pid},\"ts\":{ts},\
             \"args\":{{{rendered}}}}}",
            json_escape(name),
        ));
    }

    /// Renders one span on thread `tid`: an umbrella slice spanning the
    /// whole request plus per-phase child slices (zero-duration phases
    /// included — they show the event ordering). Also names the thread
    /// track after the span.
    pub fn add_span(&mut self, span: &Span, pid: u64, tid: u64) {
        self.thread_name(pid, tid, &format!("{} #{} (+{} cyc)", span.label, span.id, span.total_latency()));
        self.complete_event(
            span.label,
            "request",
            pid,
            tid,
            span.start_cycle(),
            span.total_latency(),
            &[
                ("id", span.id.to_string()),
                ("addr", format!("\"{:#x}\"", span.addr)),
                ("latency_cycles", span.total_latency().to_string()),
            ],
        );
        for (phase, dur) in span.phase_durations() {
            let ts = span.cycle_of(phase).unwrap_or(0);
            self.complete_event(
                phase.name(),
                "phase",
                pid,
                tid,
                ts,
                dur,
                &[("cycles", dur.to_string())],
            );
        }
    }

    /// Renders an epoch time-series as counter events: one "C" event per
    /// epoch carrying every sampled value whose name starts with `prefix`
    /// (stripped from the series key). No-op for epochs with no matches.
    pub fn add_epoch_counters(&mut self, pid: u64, name: &str, epochs: &[EpochSample], prefix: &str) {
        for e in epochs {
            let series: Vec<(&str, f64)> = e
                .values
                .iter()
                .filter_map(|(k, v)| k.strip_prefix(prefix).map(|s| (s, *v)))
                .collect();
            if !series.is_empty() {
                self.counter_event(name, pid, e.cycle, &series);
            }
        }
    }

    /// Finishes the document: `{"traceEvents": [...]}`.
    pub fn finish(self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(e);
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::registry::MetricRegistry;
    use crate::span::SpanPhase;

    fn traced_span() -> Span {
        Span {
            id: 7,
            addr: 0x1240,
            label: "counter",
            events: vec![
                (SpanPhase::LlcMiss, 100),
                (SpanPhase::EngineExpand, 100),
                (SpanPhase::DramEnqueue, 101),
                (SpanPhase::DramIssue, 130),
                (SpanPhase::Complete, 145),
            ],
        }
    }

    #[test]
    fn document_is_valid_json_with_one_track_per_span() {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "synergy-sim synergy");
        trace.add_span(&traced_span(), 0, 1);
        let doc = Json::parse(&trace.finish()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        // 2 metadata + 1 umbrella + 5 phase slices.
        assert_eq!(events.len(), 8);
        let umbrella = events
            .iter()
            .find(|e| e.get("cat").and_then(Json::as_str) == Some("request"))
            .unwrap();
        assert_eq!(umbrella.get("name").unwrap().as_str(), Some("counter"));
        assert_eq!(umbrella.get("ts").unwrap().as_f64(), Some(100.0));
        assert_eq!(umbrella.get("dur").unwrap().as_f64(), Some(45.0));
        assert_eq!(
            umbrella.get_path(&["args", "addr"]).unwrap().as_str(),
            Some("0x1240")
        );
        // Phase slices tile the umbrella: durations sum to its duration.
        let phase_total: f64 = events
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("phase"))
            .map(|e| e.get("dur").unwrap().as_f64().unwrap())
            .sum();
        assert_eq!(phase_total, 45.0);
    }

    #[test]
    fn epoch_counters_strip_prefix_and_skip_foreign_metrics() {
        let mut reg = MetricRegistry::new();
        reg.set_counter("attrib.cycles.queue_wait", 10);
        reg.set_counter("dram.reads", 5);
        reg.sample_epoch(1000);
        reg.set_counter("attrib.cycles.queue_wait", 30);
        reg.sample_epoch(2000);

        let mut trace = ChromeTrace::new();
        trace.add_epoch_counters(0, "cycle budget", reg.epochs(), "attrib.cycles.");
        let doc = Json::parse(&trace.finish()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ph").unwrap().as_str(), Some("C"));
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1000.0));
        assert_eq!(
            events[1].get_path(&["args", "queue_wait"]).unwrap().as_f64(),
            Some(30.0)
        );
        assert!(events[0].get_path(&["args", "dram.reads"]).is_none());
    }

    #[test]
    fn empty_trace_is_still_a_valid_document() {
        let doc = Json::parse(&ChromeTrace::new().finish()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn names_are_json_escaped() {
        let mut trace = ChromeTrace::new();
        trace.process_name(0, "weird \"name\"\nwith newline");
        let doc = Json::parse(&trace.finish()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(
            events[0].get_path(&["args", "name"]).unwrap().as_str(),
            Some("weird \"name\"\nwith newline")
        );
    }
}
