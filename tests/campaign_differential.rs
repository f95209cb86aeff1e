//! Tier-1 differential campaign: the functional recovery pipelines must
//! agree with the analytic reliability model, identically for any thread
//! count, and a fixed-seed campaign's results are pinned.

use synergy::campaign::runner::MEMORY_CAPACITY;
use synergy::campaign::{
    run, scenario_for, CampaignParams, CampaignResult, Design, Outcome, SHARD_INJECTIONS,
};

fn params(injections: u64, threads: usize) -> CampaignParams {
    CampaignParams { injections, threads, seed: 0x7E57_CA3B, ..Default::default() }
}

#[test]
fn small_campaign_has_zero_mismatches() {
    let r = run(&params(1_200, 0));
    assert!(r.passed(), "functional-vs-analytic mismatches: {:#?}", r.mismatches);
    assert_eq!(r.matrix.total(), 1_200);
    // Mismatch-free means the functional failure count IS the analytic one.
    for (i, d) in Design::ALL.iter().enumerate() {
        assert_eq!(r.matrix.design_failures(*d), r.analytic_failures[i]);
    }
}

#[test]
fn synergy_never_silently_corrupts() {
    // The paper's core claim: MAC-based detection converts would-be SDCs
    // into corrections (one chip) or detected crashes (multi-chip).
    let r = run(&params(1_200, 0));
    assert_eq!(r.matrix.get(Design::Synergy, Outcome::SilentDataCorruption), 0);
    assert_eq!(r.matrix.get(Design::Synergy, Outcome::DetectedUncorrectable), 0);
}

#[test]
fn campaign_results_are_thread_count_invariant() {
    // Spans shard boundaries so the work queue genuinely interleaves.
    let injections = SHARD_INJECTIONS + 700;
    let baseline = run(&params(injections, 1));
    for threads in [2, 8] {
        assert_eq!(baseline, run(&params(injections, threads)), "threads={threads} diverged");
    }
}

/// The digest of the 30k-injection campaign below when it was recorded.
const GOLDEN: u64 = 0x62c3_ac75_31a6_5525;

/// Order-sensitive fold of the outcome matrix, the analytic failure
/// counts, the mismatch count and the MAC-count histogram snapshot.
fn digest(r: &CampaignResult) -> u64 {
    let mut d = 0xCBF2_9CE4_8422_2325u64;
    let mut word = |x: u64| d = (d ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    r.matrix.cells().iter().flatten().for_each(|&x| word(x));
    r.analytic_failures.iter().for_each(|&x| word(x));
    word(r.mismatch_count);
    r.mac_computations.snapshot_json().bytes().for_each(|b| word(u64::from(b)));
    d
}

#[test]
fn campaign_golden_pin() {
    // Any change to what a decoder or the functional memory returns for a
    // corrupted line, or to how many MACs a SYNERGY read computes, moves
    // the digest.
    let r = run(&params(30_000, 2));
    assert!(r.passed(), "functional-vs-analytic mismatches: {:#?}", r.mismatches);
    assert_eq!(digest(&r), GOLDEN, "campaign digest {:#018x}", digest(&r));
}

/// The digests of the scenario streams below when they were recorded,
/// one per seed.
const SCENARIO_STREAMS: [(u64, u64); 3] = [
    (0x7E57_CA3B, 0xda36_254b_46f4_ed9d),
    (0x5E_CA3B, 0x86ac_42c5_bdfe_03ae),
    (u64::MAX, 0xef4a_331f_2fb4_e247),
];

#[test]
fn scenario_stream_pin() {
    // Any change to what the sampler draws, or in which order, moves a
    // digest: every field of every scenario goes into it through `Debug`.
    let p = CampaignParams::default();
    let mut digests = Vec::new();
    for (seed, _) in SCENARIO_STREAMS {
        let mut d = 0xCBF2_9CE4_8422_2325u64;
        for index in 0..50_000 {
            let s = scenario_for(seed, index, &p.model, &p.geometry, MEMORY_CAPACITY / 64);
            for b in format!("{s:?}").bytes() {
                d = (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        digests.push((seed, d));
    }
    assert_eq!(digests, SCENARIO_STREAMS, "scenario streams moved: {digests:#x?}");
}
