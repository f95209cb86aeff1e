//! Machine-readable snapshot export: JSON and CSV.
//!
//! Hand-rolled serialization (the workspace builds offline, without serde)
//! with a small composable surface: each telemetry type renders to a JSON
//! fragment, and callers stitch fragments into experiment-level documents.
//! [`write_file`] creates parent directories, so bench targets can write
//! straight to `target/experiments/metrics/<name>.json`, and replaces the
//! target atomically, so a killed writer never leaves a truncated file.

use std::ffi::OsString;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

use crate::hist::LogHistogram;
use crate::registry::{Metric, MetricRegistry};
use crate::span::Span;

/// Escapes a string for inclusion in a JSON string literal (no quotes).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (`null` for non-finite values).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Quotes a CSV field per RFC 4180 when it needs it: fields containing a
/// comma, double quote, or newline are wrapped in quotes with embedded
/// quotes doubled; all other fields pass through unchanged.
pub fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Splits one CSV record into fields, honoring RFC 4180 quoting — the
/// inverse of [`csv_escape`] applied per field. Unbalanced quotes consume
/// to end of line (lenient, like most readers).
pub fn csv_split(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => fields.push(std::mem::take(&mut cur)),
                _ => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

/// Renders a histogram as a JSON object with summary quantiles and the
/// non-empty buckets (`[lo, hi, count]` triples).
pub fn histogram_to_json(h: &LogHistogram) -> String {
    let s = h.summary();
    let buckets: Vec<String> = h
        .nonzero_buckets()
        .map(|(lo, hi, c)| format!("[{lo},{hi},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\
         \"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
        s.count,
        s.sum,
        s.min,
        s.max,
        json_f64(s.mean),
        s.p50,
        s.p90,
        s.p99,
        buckets.join(",")
    )
}

/// Renders one metric as a JSON object tagged with its kind.
fn metric_to_json(m: &Metric) -> String {
    match m {
        Metric::Counter(v) => format!("{{\"kind\":\"counter\",\"value\":{v}}}"),
        Metric::Gauge(v) => format!("{{\"kind\":\"gauge\",\"value\":{}}}", json_f64(*v)),
        Metric::Histogram(h) => {
            format!("{{\"kind\":\"histogram\",\"value\":{}}}", histogram_to_json(h))
        }
    }
}

/// Renders a registry as `{"metrics": {...}, "epochs": [...]}`.
pub fn registry_to_json(reg: &MetricRegistry) -> String {
    let metrics: Vec<String> = reg
        .iter()
        .map(|(name, m)| format!("\"{}\":{}", json_escape(name), metric_to_json(m)))
        .collect();
    let epochs: Vec<String> = reg
        .epochs()
        .iter()
        .map(|e| {
            let vals: Vec<String> = e
                .values
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", json_escape(k), json_f64(*v)))
                .collect();
            format!("{{\"cycle\":{},\"values\":{{{}}}}}", e.cycle, vals.join(","))
        })
        .collect();
    format!(
        "{{\"metrics\":{{{}}},\"epochs\":[{}]}}",
        metrics.join(","),
        epochs.join(",")
    )
}

/// Renders a span with its per-phase breakdown.
fn span_to_json(span: &Span) -> String {
    let phases: Vec<String> = span
        .phase_durations()
        .iter()
        .map(|(p, d)| {
            let cycle = span.cycle_of(*p).unwrap_or(0);
            format!(
                "{{\"phase\":\"{}\",\"cycle\":{cycle},\"cycles_to_next\":{d}}}",
                p.name()
            )
        })
        .collect();
    format!(
        "{{\"id\":{},\"addr\":{},\"label\":\"{}\",\"start\":{},\"end\":{},\
         \"latency\":{},\"phases\":[{}]}}",
        span.id,
        span.addr,
        json_escape(span.label),
        span.start_cycle(),
        span.end_cycle(),
        span.total_latency(),
        phases.join(",")
    )
}

/// Renders a span list as a JSON array.
pub fn spans_to_json(spans: &[Span]) -> String {
    let items: Vec<String> = spans.iter().map(span_to_json).collect();
    format!("[{}]", items.join(","))
}

/// Renders a registry as CSV: one row per metric.
///
/// Columns: `metric,kind,value,count,sum,min,p50,p90,p99,max` — scalar
/// metrics fill `value` and leave the distribution columns empty;
/// histograms do the reverse.
pub fn registry_to_csv(reg: &MetricRegistry) -> String {
    let mut out = String::from("metric,kind,value,count,sum,min,p50,p90,p99,max\n");
    for (name, m) in reg.iter() {
        let name = csv_escape(name);
        match m {
            Metric::Counter(v) => {
                let _ = writeln!(out, "{name},counter,{v},,,,,,,");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "{name},gauge,{v},,,,,,,");
            }
            Metric::Histogram(h) => {
                let s = h.summary();
                let _ = writeln!(
                    out,
                    "{name},histogram,,{},{},{},{},{},{},{}",
                    s.count, s.sum, s.min, s.p50, s.p90, s.p99, s.max
                );
            }
        }
    }
    out
}

/// Writes `content` to `path`, creating parent directories as needed.
///
/// The content goes to a sibling temp file that is synced and then
/// renamed over `path`, and on Unix the directory is synced too, so
/// readers (and a resume after a kill) see either the old file or the new
/// one whole, never a prefix.
///
/// # Errors
///
/// Propagates directory-creation, write, sync and rename failures; the
/// temp file is removed on failure.
pub fn write_file(path: &Path, content: &str) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty()).unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir)?;
    let name = path.file_name().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "path has no file name")
    })?;
    let mut tmp_name = OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(tmp_name);
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(content.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    });
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written?;
    // The rename survives a crash only once the directory entry does.
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanPhase;

    #[test]
    fn escaping_controls_and_quotes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn histogram_json_has_quantiles_and_buckets() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(100);
        let j = histogram_to_json(&h);
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"p99\":"));
        assert!(j.contains("\"buckets\":[[10,10,1],[100,100,1]]"), "{j}");
    }

    #[test]
    fn registry_json_roundtrips_names() {
        let mut r = MetricRegistry::new();
        r.set_counter("dram.reads", 7);
        r.set_gauge("llc.miss_ratio", 0.25);
        r.record("lat", 42);
        r.sample_epoch(1000);
        let j = registry_to_json(&r);
        assert!(j.contains("\"dram.reads\":{\"kind\":\"counter\",\"value\":7}"));
        assert!(j.contains("\"llc.miss_ratio\""));
        assert!(j.contains("\"epochs\":[{\"cycle\":1000"));
    }

    #[test]
    fn span_json_has_phase_breakdown() {
        let span = Span {
            id: 9,
            addr: 0x40,
            label: "data",
            events: vec![
                (SpanPhase::LlcMiss, 100),
                (SpanPhase::DramEnqueue, 101),
                (SpanPhase::DramIssue, 130),
                (SpanPhase::Complete, 140),
            ],
        };
        let j = spans_to_json(&[span]);
        assert!(j.starts_with('[') && j.ends_with(']'));
        assert!(j.contains("\"latency\":40"));
        assert!(j.contains("\"phase\":\"dram_issue\""));
        assert!(j.contains("\"cycles_to_next\":29"), "{j}");
    }

    #[test]
    fn registry_csv_one_row_per_metric() {
        let mut r = MetricRegistry::new();
        r.set_counter("c", 1);
        r.record("h", 5);
        let csv = registry_to_csv(&r);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("metric,kind,"));
        assert!(lines[1].starts_with("c,counter,1,"));
        assert!(lines[2].starts_with("h,histogram,,1,5,5,"));
    }

    #[test]
    fn csv_quoting_round_trips_awkward_metric_names() {
        // Names with commas, quotes and both — e.g. a metric keyed by a
        // human-written workload label.
        let names = [
            "plain",
            "ipc.mix(mcf,lbm)",
            "note,with,commas",
            "say \"hi\"",
            "both, \"quoted\"",
        ];
        for n in names {
            let fields = csv_split(&format!("{},counter", csv_escape(n)));
            assert_eq!(fields, vec![n.to_string(), "counter".to_string()], "field {n:?}");
        }

        // Whole-registry round trip: every data row parses back to
        // exactly 10 columns with the original name in column 0.
        let mut r = MetricRegistry::new();
        for n in names {
            r.set_counter(n, 1);
        }
        let csv = registry_to_csv(&r);
        let mut seen: Vec<String> = csv
            .lines()
            .skip(1)
            .map(|line| {
                let fields = csv_split(line);
                assert_eq!(fields.len(), 10, "row {line:?}");
                fields[0].clone()
            })
            .collect();
        seen.sort();
        let mut expect: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn write_file_creates_parents() {
        let dir = std::env::temp_dir().join("synergy_obs_test_export");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.json");
        write_file(&path, "{}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_file_replaces_whole_and_leaves_no_temp() {
        let dir = std::env::temp_dir().join(format!("synergy_obs_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.json");
        write_file(&path, &"x".repeat(4096)).unwrap();
        write_file(&path, "short").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "short");
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["ckpt.json"]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
