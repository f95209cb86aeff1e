//! Perf-regression gate over exported metric snapshots.
//!
//! Compares fresh `target/experiments/metrics/*.json` documents (written
//! by the bench targets via [`crate::MetricsSnapshot::write`]) against
//! committed baselines under `baselines/metrics/`, metric by metric, with
//! per-prefix relative or absolute tolerances. Only *simulation-determined*
//! metrics are gated — anything wall-clock- or host-dependent (`sim.*`
//! throughput gauges, `sweep.*` host parallelism) is skipped, so the gate is stable
//! across machines and CI runners as long as the scale knobs
//! (`SYNERGY_BENCH_INSTS` etc.) match the ones the baselines were blessed
//! with.
//!
//! The `perf_gate` bin wraps this: `--check` exits nonzero on any
//! violation; `--bless` copies the fresh snapshots over the baselines.

use std::fmt;
use std::path::Path;

use synergy_obs::Json;

/// How one metric family is compared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Relative: `|fresh - base| <= tol * max(|base|, epsilon)`.
    Relative(f64),
    /// Absolute: `|fresh - base| <= tol`.
    Absolute(f64),
    /// Not gated.
    Skip,
}

/// A prefix-matched gating rule. First match wins.
#[derive(Debug, Clone, Copy)]
pub struct GateRule {
    /// Metric-name prefix this rule applies to.
    pub prefix: &'static str,
    /// Comparison mode.
    pub tolerance: Tolerance,
}

/// The default rule table.
///
/// Shares (`attrib.share.*`) get an absolute band — a 5-point shift in
/// where cycles go is a real change in system behaviour regardless of the
/// run's absolute cycle count. Raw attribution counters, traffic counts
/// and degraded-lifecycle counters get generous relative bands; IPC gets
/// the tightest one since it is the headline number. Secure-engine
/// hot-path counters (`engine.*` — expansion and metadata-cache traffic)
/// get a tight 5% band: they are simulation-determined, and a drift there
/// means the per-access path changed behaviour, not just speed.
/// Everything without a
/// matching rule is ungated (histogram summaries, cache internals, span
/// bookkeeping — all either derived from gated metrics or too noisy at CI
/// scale to pin).
pub const DEFAULT_RULES: &[GateRule] = &[
    GateRule { prefix: "sim.", tolerance: Tolerance::Skip },
    GateRule { prefix: "sweep.", tolerance: Tolerance::Skip },
    GateRule { prefix: "attrib.share.", tolerance: Tolerance::Absolute(0.05) },
    GateRule { prefix: "attrib.", tolerance: Tolerance::Relative(0.08) },
    GateRule { prefix: "ipc.", tolerance: Tolerance::Relative(0.05) },
    GateRule { prefix: "core.system.ipc", tolerance: Tolerance::Relative(0.05) },
    GateRule { prefix: "dram.reads.", tolerance: Tolerance::Relative(0.10) },
    GateRule { prefix: "dram.writes.", tolerance: Tolerance::Relative(0.10) },
    GateRule { prefix: "engine.", tolerance: Tolerance::Relative(0.05) },
    GateRule { prefix: "degraded.", tolerance: Tolerance::Relative(0.10) },
];

/// The metric snapshots the gate covers: the headline performance figure
/// and the degraded-mode experiment. Other snapshots (traffic, probes)
/// are informational artifacts, not gates.
pub const GATED_SNAPSHOTS: &[&str] = &["fig08_performance.json", "fig_degraded.json"];

/// One gated metric that moved outside its tolerance (or went missing).
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Snapshot file the metric came from.
    pub file: String,
    /// Design / grouping key inside the snapshot.
    pub design: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the fresh side is missing entirely).
    pub baseline: Option<f64>,
    /// Fresh value (`None` when missing from the fresh snapshot).
    pub fresh: Option<f64>,
    /// Human-readable reason.
    pub reason: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {} (baseline {}, fresh {})",
            self.file,
            self.design,
            self.metric,
            self.reason,
            self.baseline.map_or_else(|| "absent".into(), |v| format!("{v:.6}")),
            self.fresh.map_or_else(|| "absent".into(), |v| format!("{v:.6}")),
        )
    }
}

/// Looks up the first matching rule for a metric name.
pub fn rule_for(rules: &[GateRule], metric: &str) -> Tolerance {
    rules
        .iter()
        .find(|r| metric.starts_with(r.prefix))
        .map_or(Tolerance::Skip, |r| r.tolerance)
}

/// Extracts `designs.<key>.telemetry.metrics.<name>.value` scalars from a
/// parsed snapshot document as `(design, metric, value)` triples.
/// Histogram metrics (no scalar `value` field) are ignored.
fn scalar_metrics(doc: &Json) -> Vec<(String, String, f64)> {
    let mut out = Vec::new();
    let Some(designs) = doc.get("designs").and_then(Json::as_object) else {
        return out;
    };
    for (design, body) in designs {
        let Some(metrics) = body.get_path(&["telemetry", "metrics"]).and_then(Json::as_object)
        else {
            continue;
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.push((design.clone(), name.clone(), v));
            }
        }
    }
    out
}

/// Gates one fresh snapshot against its baseline. Both arguments are the
/// raw JSON text of a [`crate::MetricsSnapshot::to_json`] document.
///
/// # Errors
///
/// Returns an error string when either document fails to parse.
pub fn gate_snapshot(
    file: &str,
    baseline_text: &str,
    fresh_text: &str,
    rules: &[GateRule],
) -> Result<Vec<Violation>, String> {
    let baseline = Json::parse(baseline_text).map_err(|e| format!("{file} baseline: {e}"))?;
    let fresh = Json::parse(fresh_text).map_err(|e| format!("{file} fresh: {e}"))?;
    let fresh_metrics = scalar_metrics(&fresh);
    let lookup = |design: &str, metric: &str| {
        fresh_metrics
            .iter()
            .find(|(d, m, _)| d == design && m == metric)
            .map(|&(_, _, v)| v)
    };

    let mut violations = Vec::new();
    for (design, metric, base) in scalar_metrics(&baseline) {
        let tol = rule_for(rules, &metric);
        if tol == Tolerance::Skip {
            continue;
        }
        let Some(new) = lookup(&design, &metric) else {
            violations.push(Violation {
                file: file.to_string(),
                design,
                metric,
                baseline: Some(base),
                fresh: None,
                reason: "gated metric missing from fresh snapshot".to_string(),
            });
            continue;
        };
        let diff = (new - base).abs();
        let (ok, reason) = match tol {
            Tolerance::Relative(t) => {
                let bound = t * base.abs().max(1e-9);
                (diff <= bound, format!("moved {diff:.6} > ±{:.0}% of baseline", t * 100.0))
            }
            Tolerance::Absolute(t) => (diff <= t, format!("moved {diff:.6} > ±{t}")),
            Tolerance::Skip => unreachable!("skipped above"),
        };
        if !ok {
            violations.push(Violation {
                file: file.to_string(),
                design,
                metric,
                baseline: Some(base),
                fresh: Some(new),
                reason,
            });
        }
    }
    violations.sort_by(|a, b| (&a.design, &a.metric).cmp(&(&b.design, &b.metric)));
    Ok(violations)
}

/// Gates every [`GATED_SNAPSHOTS`] file in `baseline_dir` against its
/// counterpart in `fresh_dir`. A baseline file with no fresh counterpart
/// is itself a violation (the bench that produces it did not run); a
/// fresh file with no baseline is ignored (new experiments gate only once
/// blessed).
///
/// # Errors
///
/// Returns an error string on unreadable files or malformed JSON.
pub fn gate_dirs(
    baseline_dir: &Path,
    fresh_dir: &Path,
    rules: &[GateRule],
) -> Result<Vec<Violation>, String> {
    let mut all = Vec::new();
    for file in GATED_SNAPSHOTS {
        let base_path = baseline_dir.join(file);
        if !base_path.exists() {
            continue; // Not blessed yet — nothing to gate against.
        }
        let baseline_text = std::fs::read_to_string(&base_path)
            .map_err(|e| format!("read {}: {e}", base_path.display()))?;
        let fresh_path = fresh_dir.join(file);
        if !fresh_path.exists() {
            all.push(Violation {
                file: (*file).to_string(),
                design: "-".to_string(),
                metric: "-".to_string(),
                baseline: None,
                fresh: None,
                reason: format!("fresh snapshot {} missing — did the bench run?", fresh_path.display()),
            });
            continue;
        }
        let fresh_text = std::fs::read_to_string(&fresh_path)
            .map_err(|e| format!("read {}: {e}", fresh_path.display()))?;
        all.extend(gate_snapshot(file, &baseline_text, &fresh_text, rules)?);
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(ipc: f64, queue_wait: u64, bank_busy: u64) -> String {
        let total = queue_wait + bank_busy;
        format!(
            "{{\"designs\":{{\"synergy\":{{\"telemetry\":{{\"metrics\":{{\
             \"ipc.mcf\":{{\"kind\":\"gauge\",\"value\":{ipc}}},\
             \"attrib.cycles.queue_wait\":{{\"kind\":\"counter\",\"value\":{queue_wait}}},\
             \"attrib.cycles.bank_busy\":{{\"kind\":\"counter\",\"value\":{bank_busy}}},\
             \"attrib.share.queue_wait\":{{\"kind\":\"gauge\",\"value\":{}}},\
             \"sim.wall_seconds\":{{\"kind\":\"gauge\",\"value\":123.0}},\
             \"dram.read_latency\":{{\"kind\":\"histogram\",\"count\":5}}\
             }},\"epochs\":[]}},\"slowest_spans\":[]}}}}}}",
            queue_wait as f64 / total as f64
        )
    }

    #[test]
    fn identical_snapshots_pass() {
        let s = snapshot(1.5, 6_000, 4_000);
        let v = gate_snapshot("t.json", &s, &s, DEFAULT_RULES).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ten_percent_attribution_shift_is_flagged() {
        // queue_wait share moves 0.60 → 0.66 (abs 0.06 > 0.05) and the raw
        // counter moves 10% (> 8%): both trip their rules.
        let base = snapshot(1.5, 6_000, 4_000);
        let fresh = snapshot(1.5, 6_600, 3_400);
        let v = gate_snapshot("t.json", &base, &fresh, DEFAULT_RULES).unwrap();
        assert!(
            v.iter().any(|x| x.metric == "attrib.share.queue_wait"),
            "share shift must be flagged: {v:?}"
        );
        assert!(v.iter().any(|x| x.metric == "attrib.cycles.queue_wait"), "{v:?}");
    }

    #[test]
    fn small_drift_within_tolerance_passes() {
        let base = snapshot(1.50, 6_000, 4_000);
        let fresh = snapshot(1.45, 6_100, 3_950); // ~3% IPC, ~2% counters
        let v = gate_snapshot("t.json", &base, &fresh, DEFAULT_RULES).unwrap();
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn ipc_regression_is_flagged_but_wall_clock_is_not() {
        let base = snapshot(1.5, 6_000, 4_000);
        // 20% IPC drop; sim.wall_seconds differs wildly but is skipped.
        let fresh = snapshot(1.2, 6_000, 4_000).replace("123.0", "999.0");
        let v = gate_snapshot("t.json", &base, &fresh, DEFAULT_RULES).unwrap();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].metric, "ipc.mcf");
    }

    #[test]
    fn missing_gated_metric_is_a_violation() {
        let base = snapshot(1.5, 6_000, 4_000);
        let fresh = base.replace("\"ipc.mcf\":{\"kind\":\"gauge\",\"value\":1.5},", "");
        let v = gate_snapshot("t.json", &base, &fresh, DEFAULT_RULES).unwrap();
        assert!(v.iter().any(|x| x.metric == "ipc.mcf" && x.fresh.is_none()), "{v:?}");
    }

    #[test]
    fn first_matching_rule_wins() {
        assert_eq!(rule_for(DEFAULT_RULES, "attrib.share.queue_wait"), Tolerance::Absolute(0.05));
        assert_eq!(rule_for(DEFAULT_RULES, "attrib.cycles.queue_wait"), Tolerance::Relative(0.08));
        assert_eq!(rule_for(DEFAULT_RULES, "sim.cycles_per_sec"), Tolerance::Skip);
        assert_eq!(rule_for(DEFAULT_RULES, "engine.counter_misses"), Tolerance::Relative(0.05));
        assert_eq!(rule_for(DEFAULT_RULES, "llc.hits"), Tolerance::Skip);
    }
}
