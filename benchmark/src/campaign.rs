//! `campaign`: the differential fault-injection campaign
//! (`synergy::campaign::run_with_fabric`) on the job fabric, and its
//! functional-runner and ECC-decoder layers.

use std::hint::black_box;
use std::time::Instant;

use synergy::campaign::runner::MEMORY_CAPACITY;
use synergy::campaign::{
    run_functional, run_with_fabric, scenario_for, CampaignJob, CampaignParams, CampaignResult,
    Design, Job, Scenario, SHARD_INJECTIONS,
};
use synergy::core::StoredLine;
use synergy::crypto::CacheLine;
use synergy::ecc::parity::{self, ChipSlice};
use synergy::ecc::reed_solomon::Chipkill;
use synergy::ecc::secded;

use crate::report::{
    fabric, fabric_threads, median, mix_seed, rounds, timed_fabric_run, PartTimes, Report, Tally,
    Tracer, KERNEL_BATCH,
};
use crate::Scale;

/// Shards timed one at a time on the calling thread.
const DIRECT_SHARDS: u64 = 2;
/// Passes of the ECC decoders over the scenarios' lines.
const ECC_PASSES: usize = 8;

/// Injections of one round, and scenarios timed through each layer.
#[derive(Debug, Clone)]
pub struct Spec {
    injections: u64,
    scenarios: u64,
}

impl Spec {
    /// The `campaign` workload at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                injections: 40_000,
                scenarios: 6_000,
            },
            Scale::Smoke => Self {
                injections: 600,
                scenarios: 300,
            },
        }
    }
}

/// Campaign parameters of a run seed; seed 0 is the campaign's default seed.
fn params(seed: u64, injections: u64) -> CampaignParams {
    let defaults = CampaignParams::default();
    CampaignParams {
        injections,
        seed: mix_seed(defaults.seed, seed),
        threads: fabric_threads(),
        ..defaults
    }
}

/// Failed injections of one result: every functional-vs-analytic mismatch,
/// or all of them when the outcome matrix does not account for exactly
/// the requested injections (designs rotate by index, so each gets its
/// third).
fn failures(r: &CampaignResult, injections: u64) -> u64 {
    let counted = r.matrix.total() == injections
        && Design::ALL
            .iter()
            .enumerate()
            .all(|(i, &d)| r.matrix.design_total(d) == (injections + 2 - i as u64) / 3);
    if counted {
        r.mismatch_count
    } else {
        injections
    }
}

/// End-to-end pass: campaign rounds until `seconds` have elapsed.
/// `ops_per_s` is injections per second of the fastest round; `setup_s`
/// is the median over rounds of the fixed cost of a campaign run, measured
/// as a run of one injection.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Report, String> {
    let (p, one) = (params(seed, spec.injections), params(seed, 1));
    let (mut setups, mut times) = (Vec::new(), PartTimes::default());
    rounds(seconds, || {
        let t0 = Instant::now();
        run_with_fabric(&one, fabric())?;
        setups.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let r = run_with_fabric(&p, fabric())?;
        times.record(0, t0.elapsed().as_secs_f64());
        tally.add(spec.injections, failures(&r, spec.injections));
        Ok(())
    })?;
    let mut report = Report::default();
    report.set("setup_s", median(&setups), "s");
    report.set(
        "ops_per_s",
        spec.injections as f64 / times.fastest_total(),
        "1/s",
    );
    Ok(report)
}

/// Chip `chip`'s per-word masks applied to a SECDED line (byte `chip` of
/// every word, or the check byte for the ECC chip), as `SecdedMemory`
/// stores it.
fn secded_line(s: &Scenario) -> ([u64; 8], [u8; 8]) {
    let mut words = CacheLine::from_bytes(s.truth).to_words();
    let mut check = secded::encode_line(&words);
    for (chip, masks) in s.chip_masks().into_iter().enumerate() {
        for (w, m) in masks.into_iter().enumerate() {
            if chip < 8 {
                words[w] ^= u64::from(m) << (chip * 8);
            } else {
                check[w] ^= m;
            }
        }
    }
    (words, check)
}

/// A Chipkill line with each chip's symbol corrupted by its masks, as the
/// campaign's runner corrupts it.
fn chipkill_beats(ck: &Chipkill, s: &Scenario) -> Result<[[u8; 18]; 4], String> {
    let mut beats = ck.encode_line(&s.truth).map_err(|e| e.to_string())?;
    for (chip, masks) in s.chip_masks().into_iter().enumerate() {
        for (b, beat) in beats.iter_mut().enumerate() {
            beat[chip] ^= masks[2 * b] | masks[2 * b + 1];
        }
    }
    Ok(beats)
}

/// A SYNERGY data line of the scenario's truth with its first faulty chip
/// corrupted, the line's RAID-3 parity, and that chip.
fn parity_line(s: &Scenario) -> (StoredLine, ChipSlice, usize) {
    let line = CacheLine::from_bytes(s.truth);
    let mut stored = StoredLine::from_data(&line, line.to_words()[0]);
    let parity_slice = parity::compute(&stored.chips);
    let failed = s.faults[0].fault.chip;
    stored.corrupt_chip(failed, s.chip_masks()[failed]);
    (stored, parity_slice, failed)
}

/// Traced pass: the campaign plain and with its shards timed (fabric
/// overhead), shards one at a time on this thread, then the functional
/// runner per design and the ECC decoders on the campaign's own
/// scenarios. Returns (timed, plain) fabric seconds.
pub fn layers(
    spec: &Spec,
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let p = params(seed, spec.injections);
    let t0 = Instant::now();
    let plain = run_with_fabric(&p, fabric())?;
    let plain_s = t0.elapsed().as_secs_f64();
    tally.add(spec.injections, failures(&plain, spec.injections));

    let (_, timed_s, overhead) = timed_fabric_run(CampaignJob::new(&p), t, "campaign fabric run");

    let shard = t.layer("campaign.shard");
    let job = CampaignJob::new(&p);
    let parent = t.open("campaign shards".to_string());
    for i in 0..spec
        .injections
        .div_ceil(SHARD_INJECTIONS)
        .min(DIRECT_SHARDS)
    {
        let start = i * SHARD_INJECTIONS;
        let count = SHARD_INJECTIONS.min(spec.injections - start);
        black_box(t.time(shard, parent, || job.run_shard(start, count)));
    }
    t.close(parent);

    let functional = [
        (Design::Secded, t.layer("campaign.functional.secded")),
        (Design::Chipkill, t.layer("campaign.functional.chipkill")),
        (Design::Synergy, t.layer("campaign.functional.synergy")),
    ];
    let scenarios: Vec<Scenario> = (0..spec.scenarios)
        .map(|index| scenario_for(p.seed, index, &p.model, &p.geometry, MEMORY_CAPACITY / 64))
        .collect();
    let parent = t.open("campaign scenarios".to_string());
    for s in &scenarios {
        let (_, id) = functional
            .into_iter()
            .find(|(d, _)| *d == s.design)
            .expect("every design has a call site");
        black_box(t.time(id, parent, || run_functional(s)));
    }
    t.close(parent);

    // The decoders on the same scenarios' corrupted lines, timed in
    // batches: the parity kernel takes about as long as the timer.
    let (secded_id, rs_id, parity_id) = (
        t.layer("ecc.secded_decode_line"),
        t.layer("ecc.rs_correct_line"),
        t.layer("ecc.parity_reconstruct"),
    );
    let ck = Chipkill::new().map_err(|e| e.to_string())?;
    let of = |design| scenarios.iter().filter(move |s| s.design == design);
    let secded_lines: Vec<_> = of(Design::Secded).map(secded_line).collect();
    let chipkill_lines = of(Design::Chipkill)
        .map(|s| chipkill_beats(&ck, s))
        .collect::<Result<Vec<_>, _>>()?;
    let parity_lines: Vec<_> = of(Design::Synergy).map(parity_line).collect();
    let parent = t.open("ecc kernels".to_string());
    for _ in 0..ECC_PASSES {
        for batch in secded_lines.chunks(KERNEL_BATCH) {
            t.time_batch(secded_id, parent, batch.len(), || {
                for (words, check) in batch {
                    black_box(secded::decode_line(words, check));
                }
            });
        }
        for batch in chipkill_lines.chunks(KERNEL_BATCH) {
            // Correction works in place: copy the corrupted beats first.
            let mut beats = batch.to_vec();
            t.time_batch(rs_id, parent, batch.len(), || {
                for b in &mut beats {
                    let _ = black_box(ck.correct_line(b));
                }
            });
        }
        for batch in parity_lines.chunks(KERNEL_BATCH) {
            t.time_batch(parity_id, parent, batch.len(), || {
                for (stored, parity_slice, failed) in batch {
                    black_box(parity::reconstruct(&stored.chips, parity_slice, *failed));
                }
            });
        }
    }
    t.close(parent);

    report.set("campaign.shard_ms", t.mean_ns(shard) / 1e6, "ms");
    for (d, id) in functional {
        let name = format!("campaign.functional_ns.{}", d.label());
        report.set(&name, t.mean_ns(id), "ns");
    }
    report.set("campaign.fabric_overhead_share", overhead, "share");
    report.set("ecc.secded_decode_line_ns", t.mean_ns(secded_id), "ns");
    report.set("ecc.rs_correct_line_ns", t.mean_ns(rs_id), "ns");
    report.set("ecc.parity_reconstruct_ns", t.mean_ns(parity_id), "ns");
    Ok((timed_s, plain_s))
}
