//! `fleet`: the fleet lifetime simulator (`synergy::fleet::run_with_fabric`)
//! over the four Figure 11 designs on the job fabric, and its shard and
//! faultsim-verdict layers.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synergy::campaign::Job;
use synergy::faultsim::{poisson, EccPolicy, Fault};
use synergy::fleet::{
    run_with_fabric, FleetJob, FleetParams, FleetResult, FLEET_DESIGNS, SHARD_DIMMS,
};

use crate::report::{
    fabric, fabric_threads, median, mix_seed, rounds, timed_fabric_run, PartTimes, Report, Tally,
    Tracer, KERNEL_BATCH,
};
use crate::Scale;

/// Shards timed one at a time on the calling thread.
const DIRECT_SHARDS: u64 = 4;

/// Fleet size of one round, and fault histories timed through the verdicts.
#[derive(Debug, Clone)]
pub struct Spec {
    dimms: u64,
    histories: usize,
}

impl Spec {
    /// The `fleet` workload at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                dimms: 8_000_000,
                histories: 50_000,
            },
            Scale::Smoke => Self {
                dimms: 2 * SHARD_DIMMS,
                histories: 2_000,
            },
        }
    }
}

/// Fleet parameters of a run seed; seed 0 is the fleet's default seed.
fn params(seed: u64, dimms: u64) -> FleetParams {
    let defaults = FleetParams::default();
    FleetParams {
        dimms,
        seed: mix_seed(defaults.seed, seed),
        threads: fabric_threads(),
        ..defaults
    }
}

/// Half-width of a ±5σ binomial interval: with dozens of seeds and several
/// checks each, a 4σ check would fail spuriously about once in a hundred
/// runs.
fn ci(p: f64, n: f64) -> f64 {
    5.0 * (p * (1.0 - p) / n).sqrt()
}

/// The correctness check of one fleet result: every design tallies the
/// requested DIMMs; each design's fault incidence lies within the binomial
/// interval of `1 − e^−λ`; and SECDED's failure probability lies, within
/// the same interval, between two analytic bounds of the fault model.
///
/// `EccPolicy::first_failure` fails SECDED on a single SECDED-defeating
/// fault or on a colliding pair of faults, never on one weaker fault. With
/// Poisson arrivals of rate `λd` (defeating) and `λw` (weaker) per DIMM:
/// - at least every DIMM with a defeating fault fails: `1 − e^−λd`, the
///   dominant term `tests/fleet_resume.rs` pins at 10k DIMMs;
/// - at most every DIMM with a defeating fault or two faults fails:
///   `1 − e^−λd · e^−λw · (1 + λw)`.
///
/// For the default model over 7 years the bounds are 1.4410e-2 and
/// 1.4644e-2; 256M DIMMs (four seeds) measured 1.4423e-2 ± 0.0007e-2.
fn result_ok(r: &FleetResult) -> bool {
    let n = r.params.dimms as f64;
    let hours = r.params.horizon_hours();
    let model = &r.params.model;
    let counted = FLEET_DESIGNS
        .iter()
        .all(|&d| r.tally(d).dimms == r.params.dimms);
    let incidence = FLEET_DESIGNS.iter().all(|&d| {
        let lambda = d.domain_chips() as f64 * model.total_fit() * 1e-9 * hours;
        let expected = 1.0 - (-lambda).exp();
        (r.report(d).fault_incidence - expected).abs() <= ci(expected, n)
    });
    let defeating_fit: f64 = model
        .rates()
        .iter()
        .filter(|m| m.mode.defeats_secded())
        .map(|m| m.total_fit())
        .sum();
    let per_fit = EccPolicy::Secded.domain_chips() as f64 * 1e-9 * hours;
    let lambda_d = defeating_fit * per_fit;
    let lambda_w = (model.total_fit() - defeating_fit) * per_fit;
    let lower = 1.0 - (-lambda_d).exp();
    let upper = 1.0 - (-lambda_d - lambda_w).exp() * (1.0 + lambda_w);
    let secded = r.report(EccPolicy::Secded);
    let p_fail = secded.due_probability + secded.sdc_probability;
    counted && incidence && p_fail >= lower - ci(lower, n) && p_fail <= upper + ci(upper, n)
}

/// End-to-end pass: fleet rounds until `seconds` have elapsed.
/// `ops_per_s` is DIMM-lifetimes (each evaluated under all four designs)
/// per second of the fastest round; `setup_s` is the median over rounds of
/// the fixed cost of a fleet run, measured as a run of one DIMM.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Report, String> {
    let (p, one) = (params(seed, spec.dimms), params(seed, 1));
    let (mut setups, mut times) = (Vec::new(), PartTimes::default());
    rounds(seconds, || {
        let t0 = Instant::now();
        run_with_fabric(&one, fabric())?;
        setups.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let r = run_with_fabric(&p, fabric())?;
        times.record(0, t0.elapsed().as_secs_f64());
        tally.record(spec.dimms, result_ok(&r));
        Ok(())
    })?;
    let mut report = Report::default();
    report.set("setup_s", median(&setups), "s");
    report.set(
        "ops_per_s",
        spec.dimms as f64 / times.fastest_total(),
        "1/s",
    );
    Ok(report)
}

/// A fault history of a DIMM with at least one fault, drawn the way the
/// fleet draws them.
fn history(rng: &mut StdRng, p: &FleetParams, design: EccPolicy) -> Vec<Fault> {
    let chips = design.domain_chips();
    let horizon = p.horizon_hours();
    let exp_neg_lambda = (-(chips as f64 * p.model.total_fit() * 1e-9 * horizon)).exp();
    let k = loop {
        let k = poisson(rng, exp_neg_lambda);
        if k > 0 {
            break k;
        }
    };
    (0..k)
        .map(|_| {
            let chip = rng.gen_range(0..chips);
            let (mode, permanent) = p.model.sample_mode(rng);
            let at = rng.gen_range(0.0..horizon);
            Fault::sample(rng, &p.geometry, chip, mode, permanent, at)
        })
        .collect()
}

/// Traced pass: the fleet run plain and with its shards timed (fabric
/// overhead), shards one at a time on this thread, and the designs'
/// verdicts on sampled fault histories. Returns (timed, plain) fabric
/// seconds.
pub fn layers(
    spec: &Spec,
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let p = params(seed, spec.dimms);
    let t0 = Instant::now();
    let plain = run_with_fabric(&p, fabric())?;
    let plain_s = t0.elapsed().as_secs_f64();
    tally.record(spec.dimms, result_ok(&plain));

    let (_, timed_s, overhead) = timed_fabric_run(FleetJob::new(&p), t, "fleet fabric run");

    let shard = t.layer("fleet.shard");
    let job = FleetJob::new(&p);
    let parent = t.open("fleet shards".to_string());
    for i in 0..(spec.dimms / SHARD_DIMMS).clamp(1, DIRECT_SHARDS) {
        let count = SHARD_DIMMS.min(spec.dimms);
        black_box(t.time(shard, parent, || job.run_shard(i * SHARD_DIMMS, count)));
    }
    t.close(parent);

    let verdict = t.layer("faultsim.first_failure");
    let mut rng = StdRng::seed_from_u64(p.seed);
    let horizon = p.horizon_hours();
    let histories: Vec<(EccPolicy, Vec<Fault>)> = (0..spec.histories)
        .flat_map(|_| FLEET_DESIGNS)
        .map(|design| (design, history(&mut rng, &p, design)))
        .collect();
    let parent = t.open("faultsim verdicts".to_string());
    for batch in histories.chunks(KERNEL_BATCH) {
        t.time_batch(verdict, parent, batch.len(), || {
            for (design, faults) in batch {
                black_box(design.first_failure(faults, horizon, None));
            }
        });
    }
    t.close(parent);

    let faulty: u64 = FLEET_DESIGNS
        .iter()
        .map(|&d| plain.tally(d).dimms_with_faults)
        .sum();
    report.set("faultsim.first_failure_ns", t.mean_ns(verdict), "ns");
    report.set("fleet.shard_ms", t.mean_ns(shard) / 1e6, "ms");
    report.set("fleet.fabric_overhead_share", overhead, "share");
    report.set("fleet.faulty_dimms", faulty as f64, "count");
    Ok((timed_s, plain_s))
}
