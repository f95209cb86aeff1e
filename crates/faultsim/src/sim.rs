//! The fault-arrival samplers behind the reliability Monte Carlo.
//!
//! The paper runs FAULTSIM over one billion devices for a 7-year lifetime
//! (§V). Fault arrivals per device are Poisson with a small mean (~0.037
//! for 9 chips over 7 years), so ~96% of devices see no fault at all.
//! [`FaultyDevices`] skips them: it draws the index of the next faulty
//! device and its zero-truncated count, so a run costs O(faulty devices).
//! [`poisson`] is the plain per-device draw, kept as the reference. The
//! fleet engine (`synergy-fleet`) runs the Monte Carlo on these samplers
//! and judges each device's arrivals with
//! [`EccPolicy::first_failure`](crate::EccPolicy::first_failure).

use rand::Rng;

/// Hours in a (Julian) year.
pub const HOURS_PER_YEAR: f64 = 365.25 * 24.0;

/// Knuth's Poisson sampler — ideal for small λ (λ ≈ 0.04 here, so the
/// expected iteration count is barely above 1). Takes `exp(-λ)`
/// precomputed so per-device dispatch stays one multiply + one compare on
/// the (dominant) zero-fault path. The fleet's per-DIMM reference sampler
/// draws every device's fault count with it; [`FaultyDevices`] skips the
/// zero counts instead.
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
            let gap = -u.ln() / self.lambda;
            // The run is ⌊gap⌋, and ⌊gap⌋ ≥ N exactly when gap ≥ N for an
            // integer N, such as the (rounded) remaining count. A run below
            // it is also below the exact count, so `index < count` never
            // overflows; `as u64` truncates, which is ⌊·⌋ for gap ≥ 0.
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
    use crate::model::FaultModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
}
