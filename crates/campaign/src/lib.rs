//! Differential fault-injection campaign — the analytic reliability model
//! checked against the functional recovery pipelines.
//!
//! Figure 11's headline numbers come from `synergy-faultsim`, whose
//! [`EccPolicy`](synergy_faultsim::EccPolicy) verdicts are *analytic*:
//! range-intersection rules decide whether a set of faults defeats SECDED,
//! Chipkill or SYNERGY without ever touching a decoder. This crate closes
//! the loop. Each injection:
//!
//! 1. samples a fault scenario from the Sridharan
//!    [`FaultModel`](synergy_faultsim::FaultModel) — single-bit through
//!    whole-chip, pinned inside one accessed cacheline
//!    ([`Fault::sample_in_line`](synergy_faultsim::Fault::sample_in_line)),
//!    targeting the data, counter, or parity region;
//! 2. injects it bit-for-bit through the real storage models
//!    (`SecdedMemory`, the Chipkill RS line code, `SynergyMemory`);
//! 3. runs the *functional* recovery path — SECDED word correction,
//!    Chipkill symbol correction, SYNERGY MAC-detect + RAID-3
//!    reconstruction — and classifies the result as one of the four
//!    [`Outcome`]s;
//! 4. diffs that outcome against the analytic
//!    [`first_failure`](synergy_faultsim::EccPolicy::first_failure) verdict
//!    for the very same faults. Any disagreement is a [`Mismatch`]: a
//!    campaign failure carrying a minimized, replayable `(seed, index)`
//!    reproducer.
//!
//! Campaigns shard deterministically (fixed-size shards, per-shard seeds
//! derived from global injection indices, shard-ordered merge), so the
//! outcome matrix is **bit-identical for any thread count** at a fixed
//! seed. Results export through
//! [`MetricRegistry`](synergy_obs::MetricRegistry) to JSON/CSV; the
//! `campaign` bin in `crates/bench` drives the full flow.
//!
//! # Example
//!
//! ```
//! use synergy_campaign::{run, CampaignParams};
//!
//! let params = CampaignParams { injections: 300, ..Default::default() };
//! let result = run(&params);
//! assert_eq!(result.mismatch_count, 0, "functional and analytic verdicts agree");
//! assert_eq!(result.matrix.total(), 300);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod runner;
pub mod scenario;

pub use engine::{
    finalize, run, run_with_fabric, CampaignAggregate, CampaignJob, CampaignParams,
    CampaignResult, Mismatch, MismatchKey, OutcomeMatrix, SHARD_INJECTIONS,
};
pub use synergy_obs::fabric::{Aggregate, Checkpoint, FabricConfig, FabricRun, Job, JobFabric};
pub use runner::{analytic_fails, run_functional, Outcome};
pub use scenario::{scenario_for, Design, Scenario, ScenarioFault, TargetRegion};
