//! The Monte-Carlo reliability engine.
//!
//! The paper runs FAULTSIM over one billion devices for a 7-year lifetime
//! (§V). We reproduce that scale with two standard accelerations:
//!
//! * **Conditioned sampling** — the number of faults per device is Poisson
//!   with a small mean (~0.037 for 9 chips over 7 years), so the ~96% of
//!   devices with zero faults are dispatched with a single random draw.
//!   [`FaultyDevices`] goes further and skips them altogether, drawing the
//!   index of the next faulty device; the fleet simulator uses it, while
//!   [`simulate`] keeps its per-device draw.
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
/// the (dominant) zero-fault path. `run_batch` draws every device's
/// fault count with it; [`FaultyDevices`] skips the zero counts instead.
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

/// Largest mean that [`FaultyDevices::fault_count`] inverts directly:
/// the first term of the pmf, `λ·e^−λ`, stays far above underflow.
const INVERSION_MAX_LAMBDA: f64 = 30.0;

/// Skip-ahead sampler of the devices that see at least one fault when
/// every device of a run draws Poisson(λ) fault arrivals.
///
/// Drawing each device's count costs one draw per device, yet for the
/// Table I rates ~96% of those draws are zero. This sampler draws the
/// index of the next faulty device directly: the run of fault-free
/// devices before it is `G = ⌊−ln(U) / λ⌋` with `U ∈ (0, 1]`, so
/// `P(G ≥ g) = e^−λg` — exactly the run that per-device draws produce.
/// The faulty device's count is then drawn from Poisson(λ) conditioned
/// on `k ≥ 1`. The work is O(faulty devices), and the (index, count)
/// pairs have the same joint law as per-device Poisson draws (not the
/// same stream of draws).
#[derive(Debug, Clone, Copy)]
pub struct FaultyDevices {
    lambda: f64,
    /// `e^−λ`.
    exp_neg_lambda: f64,
    /// `1 − e^−λ`, the share of devices with a fault.
    p_faulty: f64,
}

impl FaultyDevices {
    /// The sampler for a per-device mean of `lambda` fault arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `lambda` is negative or not finite.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda >= 0.0,
            "fault mean λ = {lambda} is not finite and non-negative"
        );
        Self { lambda, exp_neg_lambda: (-lambda).exp(), p_faulty: -(-lambda).exp_m1() }
    }

    /// Calls `visit(rng, index, k)` for every device of `0..count` that
    /// sees `k ≥ 1` faults, in increasing index order, handing `rng` back
    /// so the visitor draws the faults themselves from the same stream.
    /// λ = 0 visits nothing; a gap past the end stops the walk, however
    /// large `count` is.
    pub fn for_each<R: Rng>(
        &self,
        rng: &mut R,
        count: u64,
        mut visit: impl FnMut(&mut R, u64, u32),
    ) {
        if self.lambda == 0.0 {
            return;
        }
        let mut next = 0u64;
        loop {
            // U = 1 − [0, 1) ∈ (0, 1], so the gap is finite and ≥ 0.
            let u = 1.0 - rng.gen::<f64>();
            let gap = (-u.ln() / self.lambda).floor();
            // A gap below the (rounded) remaining count is an integer
            // below the exact one, so `index < count` never overflows.
            if gap >= (count - next) as f64 {
                return;
            }
            let index = next + gap as u64;
            let k = self.fault_count(rng);
            visit(rng, index, k);
            next = index + 1;
        }
    }

    /// One draw of Poisson(λ) conditioned on `k ≥ 1`, for λ > 0: inversion
    /// of the zero-truncated pmf for λ ≤ 30; above that, where `e^−λ`
    /// heads for underflow and `P(k = 0) < 1e-13`, an unconditioned draw
    /// summed from Knuth draws of mean ≤ 30, redrawn on the rare zero.
    fn fault_count<R: Rng>(&self, rng: &mut R) -> u32 {
        if self.lambda > INVERSION_MAX_LAMBDA {
            let chunks = (self.lambda / INVERSION_MAX_LAMBDA).ceil();
            let exp_neg_chunk = (-self.lambda / chunks).exp();
            loop {
                let k: u32 = (0..chunks as u32).map(|_| poisson(rng, exp_neg_chunk)).sum();
                if k > 0 {
                    return k;
                }
            }
        }
        // Walk the pmf from k = 1, spending `u` ∈ [0, 1 − e^−λ). The walk
        // ends once a term underflows, so rounding cannot keep it going.
        let mut u = rng.gen::<f64>() * self.p_faulty;
        let mut p = self.lambda * self.exp_neg_lambda;
        let mut k = 1u32;
        while u >= p && p > 0.0 {
            u -= p;
            k += 1;
            p *= self.lambda / f64::from(k);
        }
        k
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

    /// Half-width of a ±5σ binomial interval around `n·p`.
    fn binomial_bound(n: f64, p: f64) -> f64 {
        5.0 * (n * p * (1.0 - p)).sqrt()
    }

    /// The zero-truncated Poisson pmf `P(k | k ≥ 1)` for `k = 0..=max`
    /// (entry 0 is zero).
    fn truncated_pmf(lambda: f64, max: usize) -> Vec<f64> {
        let mut term = (-lambda).exp();
        let faulty = -(-lambda).exp_m1();
        let mut pmf = vec![0.0];
        for k in 1..=max {
            term *= lambda / k as f64;
            pmf.push(term / faulty);
        }
        pmf
    }

    #[test]
    fn fault_counts_follow_the_zero_truncated_pmf() {
        const DRAWS: usize = 200_000;
        let mut rng = StdRng::seed_from_u64(0x5A3D);
        for lambda in [0.036, 0.07, 1.0, 50.0] {
            let sampler = FaultyDevices::new(lambda);
            let mut hist = vec![0u64; 1];
            for _ in 0..DRAWS {
                let k = sampler.fault_count(&mut rng) as usize;
                assert!(k >= 1, "λ={lambda}: drew k = 0");
                if k >= hist.len() {
                    hist.resize(k + 1, 0);
                }
                hist[k] += 1;
            }
            let pmf = truncated_pmf(lambda, hist.len() + 200);
            // Bins expecting ≥ 10 draws stand alone; the rest pool into one.
            let n = DRAWS as f64;
            let (mut rest_seen, mut rest_p) = (0u64, 0.0);
            for (k, &p) in pmf.iter().enumerate().skip(1) {
                let seen = hist.get(k).copied().unwrap_or(0);
                if n * p >= 10.0 {
                    let dev = (seen as f64 - n * p).abs();
                    assert!(
                        dev <= binomial_bound(n, p),
                        "λ={lambda} k={k}: {seen} draws vs {} expected",
                        n * p
                    );
                } else {
                    rest_seen += seen;
                    rest_p += p;
                }
            }
            let dev = (rest_seen as f64 - n * rest_p).abs();
            assert!(
                dev <= binomial_bound(n, rest_p).max(5.0),
                "λ={lambda} pooled tail: {rest_seen} draws vs {} expected",
                n * rest_p
            );
        }
    }

    #[test]
    fn faulty_share_and_total_faults_match_per_device_poisson() {
        const DEVICES: u64 = 1_000_000;
        let mut rng = StdRng::seed_from_u64(0xFA5E);
        for lambda in [0.036, 0.07, 1.0] {
            let (mut visits, mut faults, mut last) = (0u64, 0u64, None);
            FaultyDevices::new(lambda).for_each(&mut rng, DEVICES, |_, index, k| {
                assert!(index < DEVICES && last < Some(index), "λ={lambda}: index {index}");
                last = Some(index);
                visits += 1;
                faults += u64::from(k);
            });
            let n = DEVICES as f64;
            let p = -(-lambda).exp_m1();
            assert!(
                (visits as f64 - n * p).abs() <= binomial_bound(n, p),
                "λ={lambda}: {visits} faulty devices vs {} expected",
                n * p
            );
            // Every fault of the run: Poisson(N·λ), σ = √(N·λ).
            assert!(
                (faults as f64 - n * lambda).abs() <= 5.0 * (n * lambda).sqrt(),
                "λ={lambda}: {faults} faults vs {} expected",
                n * lambda
            );
        }
    }

    #[test]
    fn zero_fit_model_has_no_faulty_device() {
        let m = FaultModel::sridharan().scaled(0.0);
        let lambda = 9.0 * m.total_fit() * 1e-9 * 7.0 * HOURS_PER_YEAR;
        assert_eq!(lambda, 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        FaultyDevices::new(lambda).for_each(&mut rng, u64::MAX, |_, index, k| {
            panic!("λ = 0 visited device {index} with {k} faults");
        });
        // U = 1 makes the gap −ln(1) / 0 = NaN, which `as u64` turns into 0.
        struct Ones;
        impl rand::RngCore for Ones {
            fn next_u64(&mut self) -> u64 {
                0
            }
        }
        FaultyDevices::new(lambda).for_each(&mut Ones, 10, |_, index, k| {
            panic!("U = 1 at λ = 0 visited device {index} with {k} faults");
        });
    }

    #[test]
    fn tiny_lambda_stops_at_the_run_end_without_overflow() {
        let mut rng = StdRng::seed_from_u64(2);
        for (lambda, count) in [(1e-12, 10_000_000_000_000u64), (1e-18, u64::MAX)] {
            let mut visits = Vec::new();
            FaultyDevices::new(lambda).for_each(&mut rng, count, |_, index, k| {
                assert!(k >= 1);
                visits.push(index);
            });
            let mean = count as f64 * lambda;
            assert!(
                (visits.len() as f64 - mean).abs() <= 5.0 * mean.sqrt(),
                "λ={lambda}: {} visits vs {mean} expected",
                visits.len()
            );
            assert!(visits.windows(2).all(|w| w[0] < w[1]), "λ={lambda}: {visits:?}");
            assert!(visits.iter().all(|&i| i < count), "λ={lambda}: {visits:?}");
        }
    }

    #[test]
    fn huge_lambda_terminates_with_mean_near_lambda() {
        const DRAWS: u32 = 2_000;
        let lambda: f64 = 800.0;
        assert_eq!((-lambda).exp(), 0.0, "e^-λ underflows");
        let sampler = FaultyDevices::new(lambda);
        let mut rng = StdRng::seed_from_u64(3);
        let mut sum = 0u64;
        for _ in 0..DRAWS {
            let k = sampler.fault_count(&mut rng);
            assert!(k >= 1);
            sum += u64::from(k);
        }
        let mean = sum as f64 / f64::from(DRAWS);
        let sigma = (lambda / f64::from(DRAWS)).sqrt();
        assert!((mean - lambda).abs() <= 5.0 * sigma, "mean {mean} vs λ = {lambda}");
        // Every device of a run is faulty.
        let mut visits = 0u64;
        sampler.for_each(&mut rng, 100, |_, index, _| {
            assert_eq!(index, visits);
            visits += 1;
        });
        assert_eq!(visits, 100);
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
