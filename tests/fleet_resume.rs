//! Tier-1 resume/determinism harness for the job fabric (PR 8).
//!
//! The fabric's contract: a run killed at **any** shard boundary and
//! resumed from its frontier checkpoint produces an aggregate
//! **bit-identical** to an uninterrupted run, at any worker-thread count.
//! Proptest picks the kill boundary and the thread count (1/2/8); both
//! the differential campaign and the fleet simulator are exercised, each
//! against a single uninterrupted threads=1 baseline.
//!
//! Also pins the fleet simulator, the one reliability Monte Carlo (Figure
//! 11), against the analytic fault-arrival model: the measured 7-year
//! ≥1-fault probability of a 10k-DIMM sample must land inside a binomial
//! confidence interval of `1 − e^−λ`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use synergy::campaign::{
    finalize, CampaignJob, CampaignParams, CampaignResult, FabricConfig, JobFabric,
};
use synergy::faultsim::{EccPolicy, FaultModel, HOURS_PER_YEAR};
use synergy::fleet::{FleetAggregate, FleetJob, FleetParams, FLEET_DESIGNS};

/// Small shards so proptest can cut at many boundaries cheaply. The
/// campaign aggregate derives from global injection indices, so this only
/// changes the cut granularity, never the result.
const CAMPAIGN_INJECTIONS: u64 = 1_280;
const CAMPAIGN_SHARD: u64 = 128; // 10 shards
const FLEET_DIMMS: u64 = 40_960;
const FLEET_SHARD: u64 = 4_096; // 10 shards

fn unique_checkpoint(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "synergy-resume-{}-{tag}-{n}.ckpt.json",
        std::process::id()
    ))
}

fn campaign_params() -> CampaignParams {
    CampaignParams { injections: CAMPAIGN_INJECTIONS, seed: 0x5E50E, ..Default::default() }
}

fn run_campaign(threads: usize, cfg_rest: FabricConfig) -> CampaignResult {
    let params = campaign_params();
    let job = CampaignJob::new(&params).with_shard_items(CAMPAIGN_SHARD);
    let cfg = FabricConfig { threads, ..cfg_rest };
    let run = JobFabric::new(job, cfg).resume().expect("campaign fabric run");
    finalize(&params, &run)
}

fn campaign_baseline() -> &'static CampaignResult {
    static BASELINE: OnceLock<CampaignResult> = OnceLock::new();
    BASELINE.get_or_init(|| run_campaign(1, FabricConfig::default()))
}

fn fleet_params() -> FleetParams {
    FleetParams { dimms: FLEET_DIMMS, seed: 0xF1EE7, ..Default::default() }
}

fn run_fleet(threads: usize, cfg_rest: FabricConfig) -> FleetAggregate {
    let job = FleetJob::new(&fleet_params()).with_shard_items(FLEET_SHARD);
    let cfg = FabricConfig { threads, ..cfg_rest };
    JobFabric::new(job, cfg).resume().expect("fleet fabric run").aggregate
}

fn fleet_baseline() -> &'static FleetAggregate {
    static BASELINE: OnceLock<FleetAggregate> = OnceLock::new();
    BASELINE.get_or_init(|| run_fleet(1, FabricConfig::default()))
}

fn thread_counts() -> impl Strategy<Value = usize> {
    prop_oneof![Just(1usize), Just(2usize), Just(8usize)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn killed_campaign_resumes_bit_identically(
        kill_at in 1u64..10,
        threads in thread_counts(),
    ) {
        let path = unique_checkpoint("campaign");
        let killed = run_campaign(threads, FabricConfig {
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            stop_after_shards: Some(kill_at),
            ..FabricConfig::default()
        });
        prop_assert!(
            killed.matrix.total() < CAMPAIGN_INJECTIONS,
            "kill at shard {kill_at} actually interrupted the run"
        );
        let resumed = run_campaign(threads, FabricConfig {
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..FabricConfig::default()
        });
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(campaign_baseline(), &resumed);
    }

    #[test]
    fn killed_fleet_resumes_bit_identically(
        kill_at in 1u64..10,
        threads in thread_counts(),
    ) {
        let path = unique_checkpoint("fleet");
        let killed = run_fleet(threads, FabricConfig {
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            stop_after_shards: Some(kill_at),
            ..FabricConfig::default()
        });
        prop_assert!(
            killed.designs.iter().all(|t| t.dimms < FLEET_DIMMS),
            "kill at shard {kill_at} actually interrupted the run"
        );
        let resumed = run_fleet(threads, FabricConfig {
            checkpoint_every: Some(1),
            checkpoint_path: Some(path.clone()),
            ..FabricConfig::default()
        });
        std::fs::remove_file(&path).ok();
        prop_assert_eq!(fleet_baseline(), &resumed);
    }
}

#[test]
fn uninterrupted_fleet_is_thread_invariant() {
    for threads in [2usize, 8] {
        assert_eq!(
            fleet_baseline(),
            &run_fleet(threads, FabricConfig::default()),
            "threads={threads} diverged from threads=1"
        );
    }
}

/// The fleet-vs-analytic pin: measured 7-year ≥1-fault probability for a
/// 10k-DIMM sample within a ±4σ binomial CI of `1 − e^−λ` for every
/// design, and the SECDED failure probability against its dominant-term
/// estimate.
#[test]
fn fleet_incidence_within_binomial_ci_of_analytic_bound() {
    let params = FleetParams { dimms: 10_000, threads: 2, ..Default::default() };
    let result = synergy::fleet::run(&params);
    let model = FaultModel::sridharan();
    let hours = 7.0 * HOURS_PER_YEAR;
    // ±4σ binomial CI: false-failure probability < 1e-4.
    let ci = |p: f64, n: f64| 4.0 * (p * (1.0 - p) / n).sqrt();

    for design in FLEET_DESIGNS {
        let r = result.report(design);
        let lambda = design.domain_chips() as f64 * model.total_fit() * 1e-9 * hours;
        let expected = 1.0 - (-lambda).exp();
        let tol = ci(expected, r.dimms as f64);
        assert!(
            (r.fault_incidence - expected).abs() < tol,
            "{design}: measured {} vs 1-e^-λ = {expected} (±{tol})",
            r.fault_incidence
        );
    }

    // SECDED uncorrectable probability ≈ single faults whose mode defeats
    // SECDED: 9 chips × 26.3 FIT over 7 years.
    let secded = result.report(EccPolicy::Secded);
    let expected = 9.0 * 26.3e-9 * hours;
    let measured = secded.due_probability + secded.sdc_probability;
    let tol = ci(expected, secded.dimms as f64);
    assert!(
        (measured - expected).abs() < tol,
        "SECDED: measured {measured} vs dominant-term {expected} (±{tol})"
    );
}
