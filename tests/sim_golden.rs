//! Golden pin of the timing simulator's results.
//!
//! One FNV-1a digest over every deterministic field of [`SimResult`] for
//! three cells — mcf on SGX_O, mcf on Synergy, and Synergy/mcf with chip 3
//! failing at memory cycle 200 — at 20k instructions per core on 2
//! channels, run once with `fast_forward` on and once with it off.
//!
//! The expected digest was recorded on the simulator before the DRAM
//! scheduler was rewritten around per-bank row-hit counts (the two-pass
//! FR-FCFS scan with a per-request issue horizon). Any change that moves
//! it changes simulated behaviour, not just host speed: a pure performance
//! change must leave it alone, and a deliberate model change must say why
//! it re-records the value.

use synergy_bench::trace_seed;
use synergy_core::system::{run, SimResult, SystemConfig};
use synergy_dram::DramConfig;
use synergy_faultsim::FaultSchedule;
use synergy_secure::DesignConfig;
use synergy_trace::{presets, MultiCoreTrace};

const INSTS: u64 = 20_000;
const WARMUP: u64 = 4_000;
const CHANNELS: usize = 2;

/// Recorded on the pre-rewrite scheduler; see the module docs.
const GOLDEN_DIGEST: u64 = 0xe34a_9e6f_4c35_e67b;

fn run_cell(design: DesignConfig, fast_forward: bool, faults: FaultSchedule) -> SimResult {
    let w = presets::by_name("mcf").expect("workload preset exists");
    let mut cfg = SystemConfig::new(design);
    cfg.dram = DramConfig::with_channels(CHANNELS);
    cfg.warmup_records_per_core = WARMUP;
    cfg.fast_forward = fast_forward;
    cfg.fault_schedule = faults;
    let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, trace_seed(CHANNELS));
    run(&cfg, &mut trace, INSTS).expect("simulation config is valid")
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

#[test]
fn simulator_results_match_golden_digest() {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for fast_forward in [true, false] {
        let cells = [
            (DesignConfig::sgx_o(), FaultSchedule::default()),
            (DesignConfig::synergy(), FaultSchedule::default()),
            (
                DesignConfig::synergy(),
                FaultSchedule::chip_failure_at(200, 3),
            ),
        ];
        for (design, faults) in cells {
            let failing = !faults.is_empty();
            let r = run_cell(design, fast_forward, faults);
            if failing {
                // Not vacuous: the chip failure must take effect.
                assert!(
                    r.degraded.detections + r.degraded.due_events > 0,
                    "fault never hit"
                );
            }
            fold(&mut h, &r);
        }
    }
    assert_eq!(h, GOLDEN_DIGEST, "simulated results moved: digest {h:#x}");
}
