//! The Monte-Carlo reliability engine.
//!
//! The paper runs FAULTSIM over one billion devices for a 7-year lifetime
//! (§V). We reproduce that scale with two standard accelerations:
//!
//! * **Conditioned sampling** — the number of faults per device is Poisson
//!   with a small mean (~0.037 for 9 chips over 7 years), so the ~96% of
//!   devices with zero faults are dispatched with a single random draw.
//! * **Parallelism** — devices are independent; they are decomposed into
//!   fixed-size shards whose seeds derive from the shard's first device
//!   index (never from the worker count), and
//!   [`synergy_obs::shard::run_in_order`] runs them on worker threads and
//!   merges their partial results in shard order. Results are therefore
//!   **bit-identical** for any thread count at a fixed seed.

use std::convert::Infallible;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::fault::{ChipGeometry, Fault};
use crate::model::FaultModel;
use crate::policy::EccPolicy;

/// Hours in a (Julian) year.
pub const HOURS_PER_YEAR: f64 = 365.25 * 24.0;

/// Monte-Carlo parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct SimParams {
    /// Device lifetime in years (paper: 7).
    pub years: f64,
    /// Number of simulated devices.
    pub devices: u64,
    /// RNG seed (deterministic results for a given seed and device count).
    pub seed: u64,
    /// Optional scrub interval in hours (clears transient faults).
    pub scrub_interval_hours: Option<f64>,
    /// Worker threads (0 = use available parallelism).
    pub threads: usize,
    /// Chip geometry.
    pub geometry: ChipGeometry,
}

impl Default for SimParams {
    fn default() -> Self {
        Self {
            years: 7.0,
            devices: 1_000_000,
            seed: 0xFA017,
            scrub_interval_hours: None,
            threads: 0,
            geometry: ChipGeometry::default(),
        }
    }
}

/// Aggregate result of a reliability simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliabilityResult {
    /// Devices simulated.
    pub devices: u64,
    /// Devices that hit an uncorrectable error within the lifetime.
    pub failures: u64,
    /// Devices that experienced at least one fault.
    pub devices_with_faults: u64,
    /// Probability of device failure over the lifetime.
    pub failure_probability: f64,
    /// Equivalent FIT rate (failures per billion device-hours).
    pub fit: f64,
    /// Mean time of first failure among failed devices, in hours.
    pub mean_time_to_failure_hours: f64,
}

impl synergy_obs::Observe for ReliabilityResult {
    fn observe(&self, prefix: &str, registry: &mut synergy_obs::MetricRegistry) {
        use synergy_obs::metric_name;
        registry.set_counter(&metric_name(prefix, "devices"), self.devices);
        registry.set_counter(&metric_name(prefix, "failures"), self.failures);
        registry.set_counter(
            &metric_name(prefix, "devices_with_faults"),
            self.devices_with_faults,
        );
        registry.set_gauge(
            &metric_name(prefix, "failure_probability"),
            self.failure_probability,
        );
        registry.set_gauge(&metric_name(prefix, "fit"), self.fit);
        registry.set_gauge(
            &metric_name(prefix, "mttf_hours"),
            self.mean_time_to_failure_hours,
        );
    }
}

/// Devices per deterministic work shard. The shard decomposition — and
/// with it every shard's RNG seed — depends only on the device count, so
/// any worker-thread count reproduces the same result bit for bit.
pub const SHARD_DEVICES: u64 = 16_384;

/// Runs the Monte Carlo for one ECC policy.
pub fn simulate(policy: EccPolicy, model: &FaultModel, params: &SimParams) -> ReliabilityResult {
    let shards = params.devices.div_ceil(SHARD_DEVICES);
    let work = |i: u64| {
        let start = i * SHARD_DEVICES;
        run_batch(policy, model, params, start, SHARD_DEVICES.min(params.devices - start))
    };
    // Shard results arrive in shard order, so even the floating-point
    // time-to-failure sum is order-deterministic.
    let (mut failures, mut with_faults, mut ttf_sum) = (0u64, 0u64, 0.0f64);
    let Ok(()) = synergy_obs::shard::run_in_order(0..shards, params.threads, work, |_, (f, w, t)| {
        failures += f;
        with_faults += w;
        ttf_sum += t;
        Ok::<(), Infallible>(())
    });

    let p = failures as f64 / params.devices as f64;
    let hours = params.years * HOURS_PER_YEAR;
    ReliabilityResult {
        devices: params.devices,
        failures,
        devices_with_faults: with_faults,
        failure_probability: p,
        fit: p / hours * 1e9,
        mean_time_to_failure_hours: if failures == 0 { 0.0 } else { ttf_sum / failures as f64 },
    }
}

/// Runs `count` devices with a shard-specific deterministic RNG (seeded by
/// the shard's first device index), returning
/// `(failures, devices_with_faults, sum_of_failure_times)`.
fn run_batch(
    policy: EccPolicy,
    model: &FaultModel,
    params: &SimParams,
    batch_start: u64,
    count: u64,
) -> (u64, u64, f64) {
    let mut rng = StdRng::seed_from_u64(params.seed ^ batch_start.wrapping_mul(0x9E3779B97F4A7C15));
    let hours = params.years * HOURS_PER_YEAR;
    let chips = policy.domain_chips();
    let lambda = chips as f64 * model.total_fit() * 1e-9 * hours;
    let exp_neg_lambda = (-lambda).exp();

    let mut failures = 0u64;
    let mut with_faults = 0u64;
    let mut ttf_sum = 0.0;
    let mut faults: Vec<Fault> = Vec::with_capacity(4);

    for _ in 0..count {
        let k = poisson(&mut rng, exp_neg_lambda);
        if k == 0 {
            continue;
        }
        with_faults += 1;
        faults.clear();
        for _ in 0..k {
            let chip = rng.gen_range(0..chips);
            let (mode, permanent) = model.sample_mode(&mut rng);
            let at = rng.gen_range(0.0..hours);
            faults.push(Fault::sample(&mut rng, &params.geometry, chip, mode, permanent, at));
        }
        if let Some(t) = policy.first_failure(&faults, hours, params.scrub_interval_hours) {
            failures += 1;
            ttf_sum += t;
        }
    }
    (failures, with_faults, ttf_sum)
}

/// Knuth's Poisson sampler — ideal for small λ (λ ≈ 0.04 here, so the
/// expected iteration count is barely above 1). Takes `exp(-λ)`
/// precomputed so per-device dispatch stays one multiply + one compare on
/// the (dominant) zero-fault path. Shared with `synergy-fleet`, whose
/// per-DIMM fault arrivals use the same conditioned-sampling trick.
pub fn poisson<R: Rng>(rng: &mut R, exp_neg_lambda: f64) -> u32 {
    let mut k = 0u32;
    let mut p = 1.0f64;
    loop {
        p *= rng.gen_range(0.0..1.0f64);
        if p <= exp_neg_lambda {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params(devices: u64) -> SimParams {
        SimParams { devices, threads: 2, ..Default::default() }
    }

    #[test]
    fn deterministic_across_runs() {
        let m = FaultModel::sridharan();
        let p = quick_params(50_000);
        let a = simulate(EccPolicy::Secded, &m, &p);
        let b = simulate(EccPolicy::Secded, &m, &p);
        assert_eq!(a.failures, b.failures);
        assert_eq!(a.devices_with_faults, b.devices_with_faults);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The shard decomposition is fixed (SHARD_DEVICES-sized shards seeded
        // by their first device index) and shards are merged in shard order,
        // so results are bit-identical regardless of worker count. Every
        // field of the Secded, Chipkill and Synergy results (f64s by bit
        // pattern) folds into one FNV-1a-style hash, pinned so a change to
        // sampling, sharding or merge order cannot pass unnoticed.
        const GOLDEN: u64 = 0x0a4f_4cca_29a3_5a7e;
        let m = FaultModel::sridharan();
        // Spans multiple shards so the work queue actually interleaves.
        let devices = 3 * SHARD_DEVICES + 1_000;
        for threads in [1usize, 2, 8] {
            let p = SimParams { devices, threads, ..Default::default() };
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for policy in [EccPolicy::Secded, EccPolicy::Chipkill, EccPolicy::Synergy] {
                let r = simulate(policy, &m, &p);
                for v in [
                    r.devices,
                    r.failures,
                    r.devices_with_faults,
                    r.failure_probability.to_bits(),
                    r.fit.to_bits(),
                    r.mean_time_to_failure_hours.to_bits(),
                ] {
                    h = (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
            assert_eq!(h, GOLDEN, "threads={threads}: {h:#018x}");
        }
    }

    #[test]
    fn fault_incidence_matches_expectation() {
        let m = FaultModel::sridharan();
        let p = quick_params(200_000);
        let r = simulate(EccPolicy::Secded, &m, &p);
        // P(≥1 fault) = 1 - e^-λ with λ = 9 chips × 66.1 FIT × 61362 h.
        let lambda = 9.0 * m.total_fit() * 1e-9 * 7.0 * HOURS_PER_YEAR;
        let expected = 1.0 - (-lambda).exp();
        let measured = r.devices_with_faults as f64 / r.devices as f64;
        assert!(
            (measured - expected).abs() / expected < 0.05,
            "measured {measured}, expected {expected}"
        );
    }

    #[test]
    fn reliability_ordering_secded_chipkill_synergy() {
        // The Figure 11 ordering with a scaled-up fault rate so modest
        // device counts give tight estimates.
        let m = FaultModel::sridharan().scaled(20.0);
        let p = quick_params(200_000);
        let secded = simulate(EccPolicy::Secded, &m, &p);
        let chipkill = simulate(EccPolicy::Chipkill, &m, &p);
        let synergy = simulate(EccPolicy::Synergy, &m, &p);
        assert!(
            secded.failure_probability > chipkill.failure_probability,
            "secded {} vs chipkill {}",
            secded.failure_probability,
            chipkill.failure_probability
        );
        assert!(
            chipkill.failure_probability > synergy.failure_probability,
            "chipkill {} vs synergy {}",
            chipkill.failure_probability,
            synergy.failure_probability
        );
        // And everything beats no ECC.
        let none = simulate(EccPolicy::None, &m, &p);
        assert!(none.failure_probability > secded.failure_probability);
    }

    #[test]
    fn secded_failure_rate_tracks_uncorrectable_fits() {
        let m = FaultModel::sridharan();
        let p = quick_params(300_000);
        let r = simulate(EccPolicy::Secded, &m, &p);
        // Dominant term: single faults whose mode defeats SECDED
        // (~26.3 FIT/chip × 9 chips over 7 years ≈ 1.45e-2).
        let expected = 9.0 * 26.3e-9 * 7.0 * HOURS_PER_YEAR;
        assert!(
            (r.failure_probability - expected).abs() / expected < 0.15,
            "measured {}, expected ~{expected}",
            r.failure_probability
        );
    }

    #[test]
    fn scrubbing_reduces_synergy_failures() {
        let m = FaultModel::sridharan().scaled(50.0);
        let base = quick_params(100_000);
        let scrubbed = SimParams { scrub_interval_hours: Some(24.0), ..base.clone() };
        let without = simulate(EccPolicy::Synergy, &m, &base);
        let with = simulate(EccPolicy::Synergy, &m, &scrubbed);
        assert!(
            with.failure_probability <= without.failure_probability,
            "scrubbed {} vs unscrubbed {}",
            with.failure_probability,
            without.failure_probability
        );
    }
}
