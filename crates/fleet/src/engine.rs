//! The fleet engine: a [`Job`] on the campaign's checkpointable fabric,
//! its streaming aggregate, and the derived operator-facing report.
//!
//! Each shard walks [`FLEET_DESIGNS`] in fixed order on one per-shard RNG
//! stream; per design, [`FaultyDevices`] skips straight to the DIMMs that
//! see a fault, so a shard costs O(faulty DIMMs), not O(DIMMs × designs)
//! (about 5% of (DIMM, design) pairs under the Table I rates). The whole
//! run is a pure function of `(params, shard decomposition)` —
//! bit-identical at any thread count, and resumable from a frontier
//! checkpoint after a kill.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use synergy_faultsim::{EccPolicy, Fault, FaultyDevices, HOURS_PER_YEAR};
use synergy_obs::fabric::{Aggregate, FabricConfig, Job, JobFabric};
use synergy_obs::{Json, MetricRegistry};

use crate::model::{
    degraded_slowdown, is_chip_degrading, FleetParams, FLEET_DESIGNS,
    SECDED_SDC_GIVEN_UNCORRECTABLE,
};

/// DIMMs per deterministic work shard: one shard is well under a
/// millisecond of work at the Table I rates, small enough for
/// fine-grained checkpoints, large enough to amortize the merge lock.
pub const SHARD_DIMMS: u64 = 16_384;

const INDEX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Per-design running counts — one row of the fleet aggregate.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DesignTally {
    /// DIMM-lifetimes evaluated.
    pub dimms: u64,
    /// DIMMs that saw ≥ 1 fault arrival.
    pub dimms_with_faults: u64,
    /// Detected uncorrectable errors (each costs `repair_hours` downtime).
    pub due: u64,
    /// Silent data corruptions (SECDED syndrome aliasing).
    pub sdc: u64,
    /// DIMMs that entered the degraded (failed-chip) lifecycle.
    pub degraded_dimms: u64,
    /// Fleet hours spent operating degraded (priced by
    /// [`degraded_slowdown`]).
    pub degraded_hours: f64,
    /// Sum of first-failure times over failed DIMMs (MTTF numerator).
    pub failure_time_sum: f64,
    /// DUE count per horizon year (`[0]` = first year).
    pub due_by_year: Vec<u64>,
    /// SDC count per horizon year.
    pub sdc_by_year: Vec<u64>,
}

impl DesignTally {
    fn merge(&mut self, other: &DesignTally) {
        self.dimms += other.dimms;
        self.dimms_with_faults += other.dimms_with_faults;
        self.due += other.due;
        self.sdc += other.sdc;
        self.degraded_dimms += other.degraded_dimms;
        self.degraded_hours += other.degraded_hours;
        self.failure_time_sum += other.failure_time_sum;
        merge_years(&mut self.due_by_year, &other.due_by_year);
        merge_years(&mut self.sdc_by_year, &other.sdc_by_year);
    }

    fn to_json(&self, design: EccPolicy) -> String {
        format!(
            "{{\"design\":\"{}\",\"dimms\":{},\"dimms_with_faults\":{},\"due\":{},\"sdc\":{},\"degraded_dimms\":{},\"degraded_hours\":{},\"failure_time_sum\":{},\"due_by_year\":{},\"sdc_by_year\":{}}}",
            design.name(),
            self.dimms,
            self.dimms_with_faults,
            self.due,
            self.sdc,
            self.degraded_dimms,
            self.degraded_hours,
            self.failure_time_sum,
            years_json(&self.due_by_year),
            years_json(&self.sdc_by_year),
        )
    }

    fn from_json(json: &Json, design: EccPolicy) -> Result<Self, String> {
        let name = json
            .get("design")
            .and_then(Json::as_str)
            .ok_or("fleet tally: missing 'design'")?;
        if name != design.name() {
            return Err(format!("fleet tally: expected design {}, found {name}", design.name()));
        }
        // Hours: a finite, non-negative float, so the tally re-renders to a
        // checkpoint that `Json::parse` reads back.
        let hours = |key: &str| -> Result<f64, String> {
            let v = json
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("fleet tally: missing '{key}'"))?;
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(format!("fleet tally: '{key}' is not a finite, non-negative number of hours"))
            }
        };
        let count = |key: &str| -> Result<u64, String> {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("fleet tally: '{key}' is not a count"))
        };
        let years = |key: &str| -> Result<Vec<u64>, String> {
            json.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("fleet tally: missing '{key}'"))?
                .iter()
                .map(|v| v.as_u64().ok_or_else(|| format!("bad count in {key}")))
                .collect()
        };
        Ok(Self {
            dimms: count("dimms")?,
            dimms_with_faults: count("dimms_with_faults")?,
            due: count("due")?,
            sdc: count("sdc")?,
            degraded_dimms: count("degraded_dimms")?,
            degraded_hours: hours("degraded_hours")?,
            failure_time_sum: hours("failure_time_sum")?,
            due_by_year: years("due_by_year")?,
            sdc_by_year: years("sdc_by_year")?,
        })
    }
}

fn merge_years(into: &mut Vec<u64>, from: &[u64]) {
    if into.len() < from.len() {
        into.resize(from.len(), 0);
    }
    for (a, b) in into.iter_mut().zip(from) {
        *a += b;
    }
}

fn years_json(v: &[u64]) -> String {
    let cells: Vec<String> = v.iter().map(u64::to_string).collect();
    format!("[{}]", cells.join(","))
}

/// The fleet's streaming shard aggregate: one [`DesignTally`] per
/// [`FLEET_DESIGNS`] entry, in that order. Memory is O(designs × horizon
/// years) regardless of fleet size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetAggregate {
    /// Tallies in [`FLEET_DESIGNS`] order (empty until the first merge).
    pub designs: Vec<DesignTally>,
}

impl Aggregate for FleetAggregate {
    fn empty() -> Self {
        Self::default()
    }

    fn merge(&mut self, other: &Self) {
        if self.designs.is_empty() {
            self.designs = other.designs.clone();
            return;
        }
        assert_eq!(self.designs.len(), other.designs.len(), "mismatched fleet aggregates");
        for (a, b) in self.designs.iter_mut().zip(&other.designs) {
            a.merge(b);
        }
    }

    fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .designs
            .iter()
            .zip(FLEET_DESIGNS)
            .map(|(t, d)| t.to_json(d))
            .collect();
        format!("{{\"designs\":[{}]}}", rows.join(","))
    }

    fn from_json(json: &Json) -> Result<Self, String> {
        let rows = json
            .get("designs")
            .and_then(Json::as_array)
            .ok_or("fleet aggregate: missing 'designs'")?;
        if rows.is_empty() {
            return Ok(Self::empty());
        }
        if rows.len() != FLEET_DESIGNS.len() {
            return Err(format!("fleet aggregate: expected {} designs", FLEET_DESIGNS.len()));
        }
        let designs = rows
            .iter()
            .zip(FLEET_DESIGNS)
            .map(|(row, d)| DesignTally::from_json(row, d))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { designs })
    }
}

/// The fleet simulation as a fabric [`Job`]: items are DIMM indices,
/// shards seed their own RNG stream from the first index.
pub struct FleetJob {
    params: FleetParams,
    shard_items: u64,
}

impl FleetJob {
    /// Wraps `params` with the standard [`SHARD_DIMMS`] shard size.
    pub fn new(params: &FleetParams) -> Self {
        Self { params: params.clone(), shard_items: SHARD_DIMMS }
    }

    /// Overrides the shard size. Fleet RNG streams are per-shard, so —
    /// unlike the campaign — changing the shard size changes the sampled
    /// fleet (it is a different, equally valid Monte-Carlo draw). Kill /
    /// resume equivalence always compares runs at one fixed shard size.
    pub fn with_shard_items(mut self, shard_items: u64) -> Self {
        assert!(shard_items > 0, "shard size must be positive");
        self.shard_items = shard_items;
        self
    }

    /// The shard's RNG stream, a function of the seed and its first DIMM.
    fn shard_rng(&self, start: u64) -> StdRng {
        StdRng::seed_from_u64(self.params.seed ^ start.wrapping_mul(INDEX_GAMMA))
    }

    /// Mean fault arrivals per DIMM under `design` over the horizon:
    /// chips × FIT × 10⁻⁹ × hours.
    fn lambda(&self, design: EccPolicy) -> f64 {
        let p = &self.params;
        design.domain_chips() as f64 * p.model.total_fit() * 1e-9 * p.horizon_hours()
    }

    /// One all-zero tally per design for a shard of `count` DIMMs.
    fn fresh_tallies(&self, count: u64) -> Vec<DesignTally> {
        let years = self.params.curve_years();
        FLEET_DESIGNS
            .iter()
            .map(|_| DesignTally {
                dimms: count,
                due_by_year: vec![0; years],
                sdc_by_year: vec![0; years],
                ..DesignTally::default()
            })
            .collect()
    }

    /// One DIMM's lifetime under `design` given its `k ≥ 1` fault
    /// arrivals: draws the faults, judges them, and tallies the failure,
    /// its year, DUE vs SDC, and any degraded hours.
    fn lifetime(
        &self,
        rng: &mut StdRng,
        design: EccPolicy,
        k: u32,
        faults: &mut Vec<Fault>,
        tally: &mut DesignTally,
    ) {
        let p = &self.params;
        let horizon = p.horizon_hours();
        let chips = design.domain_chips();
        tally.dimms_with_faults += 1;
        faults.clear();
        for _ in 0..k {
            let chip = rng.gen_range(0..chips);
            let (mode, permanent) = p.model.sample_mode(rng);
            let at = rng.gen_range(0.0..horizon);
            faults.push(Fault::sample(rng, &p.geometry, chip, mode, permanent, at));
        }
        let failure = design.first_failure(faults, horizon, p.scrub_interval_hours);
        // The DIMM is observed until it fails (then it is swapped for a
        // fresh one we no longer track) or the horizon ends.
        let end = failure.unwrap_or(horizon);
        if degraded_slowdown(design).is_some() {
            let onset = faults
                .iter()
                .filter(|f| is_chip_degrading(f) && f.at_hours < end)
                .map(|f| f.at_hours)
                .fold(f64::INFINITY, f64::min);
            if onset.is_finite() {
                tally.degraded_dimms += 1;
                tally.degraded_hours += end - onset;
            }
        }
        if let Some(t) = failure {
            tally.failure_time_sum += t;
            let year = ((t / HOURS_PER_YEAR) as usize).min(tally.due_by_year.len() - 1);
            let silent = design == EccPolicy::Secded
                && rng.gen_range(0.0..1.0) < SECDED_SDC_GIVEN_UNCORRECTABLE;
            if silent {
                tally.sdc += 1;
                tally.sdc_by_year[year] += 1;
            } else {
                tally.due += 1;
                tally.due_by_year[year] += 1;
            }
        }
    }

    /// The per-DIMM sampler that [`FaultyDevices`] replaced, kept as the
    /// differential oracle: DIMM-outer, design-inner, one Knuth
    /// `synergy_faultsim::poisson` draw per (DIMM, design).
    #[cfg(test)]
    fn run_shard_reference(&self, start: u64, count: u64) -> FleetAggregate {
        let mut rng = self.shard_rng(start);
        let mut designs = self.fresh_tallies(count);
        let mut faults: Vec<Fault> = Vec::with_capacity(4);
        let exp_neg_lambda: Vec<f64> =
            FLEET_DESIGNS.iter().map(|&d| (-self.lambda(d)).exp()).collect();
        for _ in 0..count {
            for (di, &design) in FLEET_DESIGNS.iter().enumerate() {
                let k = synergy_faultsim::poisson(&mut rng, exp_neg_lambda[di]);
                if k > 0 {
                    self.lifetime(&mut rng, design, k, &mut faults, &mut designs[di]);
                }
            }
        }
        FleetAggregate { designs }
    }
}

impl Job for FleetJob {
    type Agg = FleetAggregate;

    fn items(&self) -> u64 {
        self.params.dimms
    }

    fn shard_items(&self) -> u64 {
        self.shard_items
    }

    fn run_shard(&self, start: u64, count: u64) -> FleetAggregate {
        let mut rng = self.shard_rng(start);
        let mut designs = self.fresh_tallies(count);
        let mut faults: Vec<Fault> = Vec::with_capacity(4);
        for (tally, &design) in designs.iter_mut().zip(&FLEET_DESIGNS) {
            FaultyDevices::new(self.lambda(design)).for_each(&mut rng, count, |rng, _, k| {
                self.lifetime(rng, design, k, &mut faults, tally);
            });
        }
        FleetAggregate { designs }
    }

    fn fingerprint(&self) -> String {
        let p = &self.params;
        let g = &p.geometry;
        let model: Vec<String> = p
            .model
            .rates()
            .iter()
            .map(|r| format!("{}:{}/{}", r.mode, r.transient_fit, r.permanent_fit))
            .collect();
        format!(
            "fleet-v2 seed={:#x} dimms={} years={} shard={} scrub={:?} repair={} geometry={}x{}x{}x{} model=[{}]",
            p.seed,
            p.dimms,
            p.years,
            self.shard_items,
            p.scrub_interval_hours,
            p.repair_hours,
            g.banks,
            g.rows,
            g.cols,
            g.bits_per_word,
            model.join(",")
        )
    }
}

/// Operator-facing numbers derived from one design's tally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignReport {
    /// The design.
    pub policy: EccPolicy,
    /// DIMM-lifetimes evaluated.
    pub dimms: u64,
    /// P(≥ 1 fault arrival) over the horizon.
    pub fault_incidence: f64,
    /// Detected uncorrectable errors.
    pub due: u64,
    /// Silent data corruptions.
    pub sdc: u64,
    /// P(DUE) over the horizon.
    pub due_probability: f64,
    /// P(SDC) over the horizon.
    pub sdc_probability: f64,
    /// 1 − repair downtime / fleet hours.
    pub availability: f64,
    /// Fleet-time-weighted slowdown from degraded-mode operation.
    pub expected_slowdown: f64,
    /// DIMMs that entered the degraded lifecycle.
    pub degraded_dimms: u64,
    /// Mean first-failure time among failed DIMMs (hours; 0 if none).
    pub mean_time_to_failure_hours: f64,
}

/// Finalized fleet simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// The parameters that produced this result.
    pub params: FleetParams,
    /// Raw per-design tallies.
    pub aggregate: FleetAggregate,
}

impl FleetResult {
    fn design_index(policy: EccPolicy) -> usize {
        FLEET_DESIGNS
            .iter()
            .position(|&d| d == policy)
            .unwrap_or_else(|| panic!("{policy} is not a fleet design"))
    }

    /// Raw tally for one design (a default all-zero tally if the run made
    /// no progress).
    pub fn tally(&self, policy: EccPolicy) -> DesignTally {
        self.aggregate
            .designs
            .get(Self::design_index(policy))
            .cloned()
            .unwrap_or_default()
    }

    /// Derived report for one design.
    pub fn report(&self, policy: EccPolicy) -> DesignReport {
        let t = self.tally(policy);
        let fleet_hours = t.dimms as f64 * self.params.horizon_hours();
        let failures = t.due + t.sdc;
        let frac = |n: u64| if t.dimms == 0 { 0.0 } else { n as f64 / t.dimms as f64 };
        let downtime = t.due as f64 * self.params.repair_hours;
        let slowdown = degraded_slowdown(policy).unwrap_or(1.0);
        DesignReport {
            policy,
            dimms: t.dimms,
            fault_incidence: frac(t.dimms_with_faults),
            due: t.due,
            sdc: t.sdc,
            due_probability: frac(t.due),
            sdc_probability: frac(t.sdc),
            availability: if fleet_hours == 0.0 { 1.0 } else { 1.0 - downtime / fleet_hours },
            expected_slowdown: if fleet_hours == 0.0 {
                1.0
            } else {
                1.0 + t.degraded_hours * (slowdown - 1.0) / fleet_hours
            },
            degraded_dimms: t.degraded_dimms,
            mean_time_to_failure_hours: if failures == 0 {
                0.0
            } else {
                t.failure_time_sum / failures as f64
            },
        }
    }

    /// All design reports, [`FLEET_DESIGNS`] order.
    pub fn reports(&self) -> Vec<DesignReport> {
        FLEET_DESIGNS.iter().map(|&d| self.report(d)).collect()
    }

    /// Exports per-design counters and gauges
    /// (`fleet_<design>_<metric>`) into a registry.
    pub fn export(&self, reg: &mut MetricRegistry) {
        for r in self.reports() {
            let d = r.policy.name().to_lowercase();
            reg.set_counter(&format!("fleet_{d}_dimms"), r.dimms);
            reg.set_counter(&format!("fleet_{d}_due"), r.due);
            reg.set_counter(&format!("fleet_{d}_sdc"), r.sdc);
            reg.set_counter(&format!("fleet_{d}_degraded_dimms"), r.degraded_dimms);
            reg.set_gauge(&format!("fleet_{d}_fault_incidence"), r.fault_incidence);
            reg.set_gauge(&format!("fleet_{d}_due_probability"), r.due_probability);
            reg.set_gauge(&format!("fleet_{d}_sdc_probability"), r.sdc_probability);
            reg.set_gauge(&format!("fleet_{d}_availability"), r.availability);
            reg.set_gauge(&format!("fleet_{d}_expected_slowdown"), r.expected_slowdown);
            reg.set_gauge(&format!("fleet_{d}_mttf_hours"), r.mean_time_to_failure_hours);
        }
    }

    /// Summary CSV rows
    /// (`design,dimms,dimms_with_faults,due,sdc,degraded_dimms,due_probability,sdc_probability,availability,expected_slowdown,mttf_hours`).
    pub fn csv_rows(&self) -> Vec<String> {
        self.reports()
            .iter()
            .map(|r| {
                let t = self.tally(r.policy);
                format!(
                    "{},{},{},{},{},{},{:.3e},{:.3e},{:.9},{:.6},{:.1}",
                    r.policy.name(),
                    r.dimms,
                    t.dimms_with_faults,
                    r.due,
                    r.sdc,
                    r.degraded_dimms,
                    r.due_probability,
                    r.sdc_probability,
                    r.availability,
                    r.expected_slowdown,
                    r.mean_time_to_failure_hours,
                )
            })
            .collect()
    }

    /// Per-year cumulative failure-curve CSV rows
    /// (`design,year,cum_due_probability,cum_sdc_probability`).
    pub fn curve_csv_rows(&self) -> Vec<String> {
        let mut rows = Vec::new();
        for &design in &FLEET_DESIGNS {
            let t = self.tally(design);
            let dimms = t.dimms.max(1) as f64;
            let (mut due, mut sdc) = (0u64, 0u64);
            let years = t.due_by_year.len().max(t.sdc_by_year.len());
            for y in 0..years {
                due += t.due_by_year.get(y).copied().unwrap_or(0);
                sdc += t.sdc_by_year.get(y).copied().unwrap_or(0);
                rows.push(format!(
                    "{},{},{:.6e},{:.6e}",
                    design.name(),
                    y + 1,
                    due as f64 / dimms,
                    sdc as f64 / dimms,
                ));
            }
        }
        rows
    }
}

/// Runs a fleet simulation (see the crate docs for the model).
pub fn run(params: &FleetParams) -> FleetResult {
    run_with_fabric(params, FabricConfig { threads: params.threads, ..Default::default() })
        .expect("fresh fleet runs cannot have checkpoint mismatches")
}

/// [`run`] with full fabric control: checkpointing, simulated kills, and
/// resume from an on-disk frontier. `cfg.threads` supersedes
/// `params.threads`.
pub fn run_with_fabric(
    params: &FleetParams,
    cfg: FabricConfig,
) -> Result<FleetResult, String> {
    let fabric = JobFabric::new(FleetJob::new(params), cfg);
    let run = fabric.resume()?;
    Ok(FleetResult { params: params.clone(), aggregate: run.aggregate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use synergy_faultsim::FaultModel;
    use synergy_obs::fabric::Checkpoint;

    fn quick(dimms: u64, threads: usize) -> FleetParams {
        FleetParams { dimms, threads, ..Default::default() }
    }

    fn scaled(dimms: u64) -> FleetParams {
        FleetParams { dimms, threads: 2, model: FaultModel::sridharan().scaled(20.0), ..Default::default() }
    }

    #[test]
    fn identical_results_for_any_thread_count() {
        // Every field of every design's tally (f64s by bit pattern) folds
        // into one FNV-1a hash, pinned so a change to sampling, sharding or
        // merge order cannot pass unnoticed at any thread count.
        const GOLDEN: u64 = 0xb229_98c7_c601_2764;
        for threads in [1usize, 2, 8] {
            let r = run(&FleetParams { dimms: 2 * SHARD_DIMMS + 900, threads, ..Default::default() });
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for t in &r.aggregate.designs {
                let fields = [
                    t.dimms,
                    t.dimms_with_faults,
                    t.due,
                    t.sdc,
                    t.degraded_dimms,
                    t.degraded_hours.to_bits(),
                    t.failure_time_sum.to_bits(),
                ];
                for v in fields.iter().chain(&t.due_by_year).chain(&t.sdc_by_year) {
                    h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, GOLDEN, "threads={threads}: {h:#018x}");
        }
    }

    #[test]
    fn aggregate_json_round_trips() {
        let job = FleetJob::new(&scaled(4_000)).with_shard_items(4_000);
        let agg = job.run_shard(0, 4_000);
        assert!(agg.designs.iter().any(|t| t.due > 0), "scaled model produces failures");
        assert!(agg.designs.iter().any(|t| t.degraded_hours > 0.0));
        let json = Json::parse(&agg.to_json()).expect("aggregate JSON parses");
        let back = FleetAggregate::from_json(&json).expect("aggregate deserializes");
        assert_eq!(agg, back);
    }

    #[test]
    fn malformed_counts_and_hours_are_rejected() {
        let job = FleetJob::new(&scaled(400)).with_shard_items(400);
        let text = job.run_shard(0, 400).to_json();
        // The first number after `key`: a tally field, or a year cell.
        let counts = ["-3", "1.5", "1e300"];
        let hours = ["1e999", "-5", "-1e999"];
        for (key, field, bads) in [
            ("\"dimms\":", "dimms", counts),
            ("\"due_by_year\":[", "due_by_year", counts),
            ("\"degraded_hours\":", "degraded_hours", hours),
            ("\"failure_time_sum\":", "failure_time_sum", hours),
        ] {
            let at = text.find(key).expect("key present") + key.len();
            let end = at + text[at..].find([',', ']']).expect("number ends");
            for bad in bads {
                let doc = format!("{}{bad}{}", &text[..at], &text[end..]);
                let json = Json::parse(&doc).expect("still JSON");
                match FleetAggregate::from_json(&json) {
                    Err(e) => assert!(e.contains(field), "{key}{bad}: {e} names the field"),
                    Ok(_) => panic!("{key}{bad} accepted"),
                }
            }
        }
    }

    #[test]
    fn reliability_ordering_matches_figure_11() {
        let r = run(&scaled(120_000));
        let p = |d| r.report(d).due_probability + r.report(d).sdc_probability;
        assert!(p(EccPolicy::Secded) > p(EccPolicy::Chipkill), "SECDED worst");
        assert!(p(EccPolicy::Chipkill) > p(EccPolicy::Synergy), "Chipkill above Synergy");
    }

    #[test]
    fn scrubbing_reduces_synergy_failures() {
        let params = FleetParams { model: FaultModel::sridharan().scaled(50.0), ..quick(100_000, 2) };
        let scrubbed = FleetParams { scrub_interval_hours: Some(24.0), ..params.clone() };
        let p = |params: &FleetParams| {
            let r = run(params).report(EccPolicy::Synergy);
            r.due_probability + r.sdc_probability
        };
        let (without, with) = (p(&params), p(&scrubbed));
        assert!(with < without, "scrubbed {with} vs unscrubbed {without}");
    }

    #[test]
    fn secded_sdc_fraction_tracks_syndrome_aliasing() {
        let r = run(&scaled(150_000));
        let t = r.tally(EccPolicy::Secded);
        let frac = t.sdc as f64 / (t.due + t.sdc) as f64;
        assert!(
            (frac - SECDED_SDC_GIVEN_UNCORRECTABLE).abs() < 0.05,
            "SDC fraction {frac} vs {SECDED_SDC_GIVEN_UNCORRECTABLE}"
        );
        // The chip-survivable designs never silently corrupt in this model.
        assert_eq!(r.tally(EccPolicy::Synergy).sdc, 0);
        assert_eq!(r.tally(EccPolicy::Chipkill).sdc, 0);
    }

    #[test]
    fn derived_metrics_are_sane() {
        let r = run(&scaled(50_000));
        for rep in r.reports() {
            assert!(rep.availability > 0.99 && rep.availability <= 1.0, "{rep:?}");
            assert!(rep.expected_slowdown >= 1.0 && rep.expected_slowdown < 1.2, "{rep:?}");
            assert!(rep.due_probability + rep.sdc_probability <= rep.fault_incidence);
        }
        // Only degraded-capable designs accumulate slowdown.
        assert_eq!(r.report(EccPolicy::Secded).expected_slowdown, 1.0);
        assert_eq!(r.report(EccPolicy::Chipkill).expected_slowdown, 1.0);
        assert!(r.report(EccPolicy::Synergy).expected_slowdown > 1.0);
        // CSV surfaces one summary row per design and per-year curves.
        assert_eq!(r.csv_rows().len(), FLEET_DESIGNS.len());
        assert_eq!(r.curve_csv_rows().len(), FLEET_DESIGNS.len() * r.params.curve_years());
    }

    /// Both samplers over ≥ 200k DIMMs at ten times the Table I rates,
    /// where k ≥ 2 arrivals are common: every design's faulty, failed and
    /// degraded DIMM counts agree within 5σ of their difference.
    #[test]
    fn skip_ahead_sampler_matches_the_per_dimm_reference() {
        const SHARDS: u64 = 13;
        let params = FleetParams {
            dimms: SHARDS * SHARD_DIMMS,
            model: FaultModel::sridharan().scaled(10.0),
            ..Default::default()
        };
        let job = FleetJob::new(&params);
        let (mut fast, mut reference) = (FleetAggregate::empty(), FleetAggregate::empty());
        for shard in 0..SHARDS {
            let start = shard * SHARD_DIMMS;
            fast.merge(&job.run_shard(start, SHARD_DIMMS));
            reference.merge(&job.run_shard_reference(start, SHARD_DIMMS));
        }
        let n = params.dimms as f64;
        for ((a, b), design) in fast.designs.iter().zip(&reference.designs).zip(FLEET_DESIGNS) {
            assert_eq!(a.dimms, b.dimms);
            for (what, x, y) in [
                ("dimms_with_faults", a.dimms_with_faults, b.dimms_with_faults),
                ("due + sdc", a.due + a.sdc, b.due + b.sdc),
                ("degraded_dimms", a.degraded_dimms, b.degraded_dimms),
            ] {
                // Two independent Binomial(n, p) counts: Var(x − y) = 2np(1 − p).
                let p = (x + y) as f64 / (2.0 * n);
                let bound = 5.0 * (2.0 * n * p * (1.0 - p)).sqrt();
                assert!(
                    (x as f64 - y as f64).abs() <= bound,
                    "{design} {what}: skip-ahead {x} vs reference {y} (±{bound:.0})"
                );
            }
        }
    }

    #[test]
    fn zero_fit_model_has_no_faulty_dimm() {
        let r = run(&FleetParams { model: FaultModel::sridharan().scaled(0.0), ..quick(40_000, 2) });
        for design in FLEET_DESIGNS {
            let t = r.tally(design);
            assert_eq!((t.dimms, t.dimms_with_faults, t.due + t.sdc), (40_000, 0, 0), "{design}");
        }
    }

    /// A checkpoint written under the per-DIMM sampler (`fleet-v1`) holds
    /// a different Monte-Carlo draw: resuming it must fail, not mix draws.
    #[test]
    fn stale_sampler_checkpoint_is_refused() {
        let params = quick(4 * SHARD_DIMMS, 1);
        let job = FleetJob::new(&params);
        let fingerprint = job.fingerprint();
        assert!(fingerprint.starts_with("fleet-v2 "), "{fingerprint}");
        let path = std::env::temp_dir()
            .join(format!("synergy-fleet-v1-{}.ckpt.json", std::process::id()));
        Checkpoint {
            fingerprint: fingerprint.replacen("fleet-v2", "fleet-v1", 1),
            total_shards: 4,
            watermark: 1,
            aggregate: job.run_shard(0, SHARD_DIMMS),
        }
        .write(&path)
        .expect("write checkpoint");
        let cfg = FabricConfig { checkpoint_path: Some(path.clone()), ..Default::default() };
        let err = run_with_fabric(&params, cfg).expect_err("stale checkpoint resumed");
        std::fs::remove_file(&path).ok();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn export_fills_registry() {
        let r = run(&quick(5_000, 1));
        let mut reg = MetricRegistry::new();
        r.export(&mut reg);
        assert_eq!(reg.counter("fleet_secded_dimms"), Some(5_000));
        assert!(reg.gauge("fleet_synergy_availability").is_some());
    }

    proptest! {
        // Each case already walks about 20 000 mutated documents (the JSON
        // layout, and so the mutation set, is the same in every case).
        #![proptest_config(ProptestConfig::with_cases(4))]

        /// Every prefix and every single-byte mutation of a serialized
        /// aggregate parses and rebuilds to `Ok` or `Err`, reporting from a
        /// rebuilt aggregate never panics, and a rebuilt aggregate
        /// re-renders to a checkpoint that loads back equal.
        #[test]
        fn truncated_or_mutated_fleet_aggregates_never_panic(
            start in 0u64..100_000,
            count in 1u64..60,
        ) {
            let params = scaled(start + count);
            let text = FleetJob::new(&params).run_shard(start, count).to_json();
            let rebuild = |doc: &str| {
                if let Ok(json) = Json::parse(doc) {
                    if let Ok(aggregate) = FleetAggregate::from_json(&json) {
                        let again = Json::parse(&aggregate.to_json())
                            .and_then(|json| FleetAggregate::from_json(&json));
                        assert_eq!(again.as_ref(), Ok(&aggregate), "{doc}");
                        let r = FleetResult { params: params.clone(), aggregate };
                        r.csv_rows();
                        r.curve_csv_rows();
                        r.export(&mut MetricRegistry::new());
                    }
                }
            };
            for end in 0..text.len() {
                rebuild(&text[..end]);
            }
            let mut bytes = text.into_bytes();
            for i in 0..bytes.len() {
                let original = bytes[i];
                for &b in b"0123456789eE+-.,:[]{}\"\\ an" {
                    bytes[i] = b;
                    rebuild(std::str::from_utf8(&bytes).expect("ASCII"));
                }
                bytes[i] = original;
            }
        }
    }
}
