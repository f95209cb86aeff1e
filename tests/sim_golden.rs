//! Golden pin of the timing simulator's results.
//!
//! Two FNV-1a digests over every deterministic field of [`SimResult`], each
//! over a set of cells on 2 channels run once with `fast_forward` on and
//! once with it off:
//!
//! * the memory-bound pin: mcf on SGX_O, mcf on Synergy, and Synergy/mcf
//!   with chip 3 failing at memory cycle 200, at 20k instructions per
//!   core — cores spend most cycles stalled on DRAM;
//! * the light pin: gobmk and h264ref on SGX_O and Synergy, and
//!   Synergy/gobmk with chip 3 failing — cache-resident cells whose cores
//!   mostly run through the non-memory gaps between records.
//!
//! A third digest pins the span telemetry of both cell sets (fast path
//! on): the slowest-request exemplars and every `span.*` histogram and
//! counter in the run's registry.
//!
//! Any change that moves a digest changes simulated behaviour, not just
//! host speed: a pure performance change must leave all three alone, and a
//! deliberate model change must say why it re-records a value.

use synergy_bench::trace_seed;
use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::DramConfig;
use synergy_faultsim::FaultSchedule;
use synergy_obs::Metric;
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace};

const INSTS: u64 = 20_000;
const WARMUP: u64 = 4_000;
const CHANNELS: usize = 2;

/// Recorded on the simulator before the DRAM scheduler was rewritten
/// around per-bank row-hit counts (the two-pass FR-FCFS scan with a
/// per-request issue horizon).
const GOLDEN_DIGEST: u64 = 0xe34a_9e6f_4c35_e67b;

/// Instructions per core of the light cells: low-APKI cores retire several
/// instructions per cycle, so this is still a short run.
const LIGHT_INSTS: u64 = 60_000;
/// Recorded on the simulator that stepped every core every CPU cycle and
/// fast-forwarded only when all cores were stalled, before cores were
/// given their own wake cycles and closed-form gap runs.
const LIGHT_GOLDEN_DIGEST: u64 = 0x0eb5_68ab_273f_690f;

/// Recorded on the simulator that traced spans through a `SpanTracer`
/// (an id-keyed open-span map holding a `Vec` of events per read), before
/// spans, load delivery and cycle attribution shared one in-flight table.
const TELEMETRY_GOLDEN_DIGEST: u64 = 0xc686_7122_6076_c1c8;

fn run_cell(
    workload: &str,
    insts: u64,
    design: DesignConfig,
    fast_forward: bool,
    faults: FaultSchedule,
) -> SimResult {
    let w = presets::by_name(workload).expect("workload preset exists");
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(CHANNELS);
    cfg.warmup_records_per_core = WARMUP;
    cfg.fast_forward = fast_forward;
    cfg.fault_schedule = faults;
    let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(CHANNELS));
    run(&cfg, &mut trace, insts).expect("simulation config is valid")
}

/// Folds every simulated (not wall-clock) field of `r` into `h`.
fn fold(h: &mut u64, r: &SimResult) {
    let fields = format!(
        "{:?}{:?}",
        (
            &r.design,
            r.instructions_per_core,
            &r.core_cycles,
            r.ipc.to_bits(),
            r.mem_cycles,
            &r.dram,
            r.seconds.to_bits(),
            &r.dram_energy,
            r.core_energy_j.to_bits(),
        ),
        (
            &r.traffic,
            &r.engine,
            &r.degraded,
            &r.metadata_cache,
            &r.llc,
            r.telemetry.spans_completed,
            r.telemetry.spans_dropped,
            &r.attrib,
        )
    );
    for b in fields.bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Folds `r`'s span telemetry into `h`: the slowest-request exemplars,
/// then every `span.*` histogram (exact snapshot) and counter, in
/// registry order.
fn fold_telemetry(h: &mut u64, r: &SimResult) {
    let mut text = format!("{:?}", r.telemetry.slowest);
    for (name, metric) in r.telemetry.registry.iter() {
        if !name.starts_with("span.") {
            continue;
        }
        match metric {
            Metric::Histogram(hist) => text.push_str(&format!("{name}={}", hist.snapshot_json())),
            other => text.push_str(&format!("{name}={other:?}")),
        }
    }
    for b in text.bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Digests `cells` (workload, design, faults) at `insts` per core, fast
/// path on then off, checking that every failing cell's fault took effect.
fn digest(cells: &[(&str, DesignConfig, FaultSchedule)], insts: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fast_forward in [true, false] {
        for (workload, design, faults) in cells {
            let r = run_cell(
                workload,
                insts,
                design.clone(),
                fast_forward,
                faults.clone(),
            );
            if !faults.is_empty() {
                // Not vacuous: the chip failure must take effect.
                assert!(
                    r.degraded.detections + r.degraded.due_events > 0,
                    "{workload}/{}: fault never hit",
                    r.design
                );
            }
            fold(&mut h, &r);
        }
    }
    h
}

#[test]
fn simulator_results_match_golden_digest() {
    let h = digest(
        &[
            ("mcf", DesignConfig::sgx_o(), FaultSchedule::default()),
            ("mcf", DesignConfig::synergy(), FaultSchedule::default()),
            (
                "mcf",
                DesignConfig::synergy(),
                FaultSchedule::chip_failure_at(200, 3),
            ),
        ],
        INSTS,
    );
    assert_eq!(h, GOLDEN_DIGEST, "simulated results moved: digest {h:#x}");
}

#[test]
fn light_cells_match_golden_digest() {
    let h = digest(
        &[
            ("gobmk", DesignConfig::sgx_o(), FaultSchedule::default()),
            ("gobmk", DesignConfig::synergy(), FaultSchedule::default()),
            ("h264ref", DesignConfig::sgx_o(), FaultSchedule::default()),
            ("h264ref", DesignConfig::synergy(), FaultSchedule::default()),
            (
                "gobmk",
                DesignConfig::synergy(),
                FaultSchedule::chip_failure_at(200, 3),
            ),
        ],
        LIGHT_INSTS,
    );
    assert_eq!(
        h, LIGHT_GOLDEN_DIGEST,
        "simulated results moved: digest {h:#x}"
    );
}

#[test]
fn telemetry_matches_golden_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let memory_bound = [
        ("mcf", DesignConfig::sgx_o(), FaultSchedule::default()),
        ("mcf", DesignConfig::synergy(), FaultSchedule::default()),
        ("mcf", DesignConfig::synergy(), FaultSchedule::chip_failure_at(200, 3)),
    ];
    let light = [
        ("gobmk", DesignConfig::sgx_o(), FaultSchedule::default()),
        ("gobmk", DesignConfig::synergy(), FaultSchedule::default()),
        ("h264ref", DesignConfig::sgx_o(), FaultSchedule::default()),
        ("h264ref", DesignConfig::synergy(), FaultSchedule::default()),
        ("gobmk", DesignConfig::synergy(), FaultSchedule::chip_failure_at(200, 3)),
    ];
    for (cells, insts) in [(&memory_bound[..], INSTS), (&light[..], LIGHT_INSTS)] {
        for (workload, design, faults) in cells {
            let r = run_cell(workload, insts, design.clone(), true, faults.clone());
            // Not vacuous: every cell completes traced reads.
            assert!(r.telemetry.spans_completed > 0, "{workload}/{}: no spans", r.design);
            assert!(!r.telemetry.slowest.is_empty(), "{workload}/{}: no exemplars", r.design);
            fold_telemetry(&mut h, &r);
        }
    }
    assert_eq!(
        h, TELEMETRY_GOLDEN_DIGEST,
        "span telemetry moved: digest {h:#x}"
    );
}
