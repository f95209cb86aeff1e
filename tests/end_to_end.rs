//! Cross-crate integration tests: the full SYNERGY stack working together —
//! crypto + ECC + layout + functional memory + reliability policy +
//! performance simulator.

use synergy::core::memory::{MemoryError, SynergyMemory, SynergyMemoryConfig};
use synergy::core::secded_memory::{SecdedError, SecdedMemory};
use synergy::core::system::{run, SystemConfig};
use synergy::crypto::CacheLine;
use synergy::faultsim::{EccPolicy, FaultModel};
use synergy::fleet::FleetParams;
use synergy::secure::DesignConfig;
use synergy::trace::{presets, MultiCoreTrace};

fn line(fill: u8) -> CacheLine {
    CacheLine::from_bytes([fill; 64])
}

/// The paper's headline reliability contrast, end to end on real bytes:
/// the same chip failure that SECDED cannot survive is transparent to
/// SYNERGY.
#[test]
fn chip_failure_synergy_survives_secded_does_not() {
    let mut secded = SecdedMemory::new(1 << 16);
    let mut synergy = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 16)).unwrap();

    for i in 0..32u64 {
        secded.write_line(i * 64, &line(i as u8)).unwrap();
        synergy.write_line(i * 64, &line(i as u8)).unwrap();
    }

    // Chip 3 fails at a line in both memories.
    secded.inject_chip_error(0x400, 3);
    synergy.inject_chip_error(0x400, 3);

    assert!(matches!(
        secded.read_line(0x400),
        Err(SecdedError::UncorrectableError { .. })
    ));
    let out = synergy.read_line(0x400).unwrap();
    assert_eq!(out.data, line(16));
    assert!(out.corrected);
}

/// The Monte-Carlo policy model and the functional memory agree on what is
/// correctable: any single-chip fault is fine for Synergy, and a
/// two-chip fault defeats it — in both layers.
#[test]
fn faultsim_policy_agrees_with_functional_memory() {
    // Functional: one chip — corrected; two chips — attack.
    let mut mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 16)).unwrap();
    mem.write_line(0, &line(9)).unwrap();
    mem.inject_chip_error(0, 2);
    assert!(mem.read_line(0).unwrap().corrected);
    mem.inject_chip_error(0, 2);
    mem.inject_chip_error(0, 7);
    assert!(matches!(mem.read_line(0), Err(MemoryError::AttackDetected { .. })));

    // Monte Carlo at a (mildly) accelerated fault rate: Synergy's failure
    // probability is far below SECDED's, consistent with chip-level
    // tolerance. (Heavier acceleration compresses the ratio — Synergy's
    // failures grow quadratically with the rate while SECDED's grow
    // linearly.)
    let model = FaultModel::sridharan().scaled(10.0);
    let fleet = synergy::fleet::run(&FleetParams { dimms: 200_000, threads: 2, model, ..Default::default() });
    let p = |d| fleet.report(d).due_probability + fleet.report(d).sdc_probability;
    let (secded, synergy) = (p(EccPolicy::Secded), p(EccPolicy::Synergy));
    assert!(synergy * 5.0 < secded, "synergy {synergy} vs secded {secded}");
}

/// Full performance stack: traces → LLC → secure engine → DRAM, for every
/// Table II design, on a real preset workload — and the paper's ordering
/// holds.
#[test]
fn performance_stack_orders_designs() {
    let w = presets::by_name("milc").unwrap();
    let mut results = Vec::new();
    for design in [
        DesignConfig::non_secure(),
        DesignConfig::synergy(),
        DesignConfig::sgx_o(),
        DesignConfig::sgx(),
    ] {
        let mut cfg = SystemConfig::new(design);
        cfg.warmup_records_per_core = 20_000;
        let mut trace = MultiCoreTrace::rate_mode(&w, cfg.cores, 99);
        let r = run(&cfg, &mut trace, 40_000).unwrap();
        results.push((r.design.clone(), r.ipc));
    }
    // NonSecure ≥ Synergy ≥ SGX_O ≥ SGX.
    assert!(results[0].1 > results[1].1, "{results:?}");
    assert!(results[1].1 > results[2].1, "{results:?}");
    assert!(results[2].1 > results[3].1, "{results:?}");
}

/// The metadata layout, the engine and the functional memory agree on the
/// address map: engine expansions reference exactly the regions the
/// functional memory maintains.
#[test]
fn layout_consistency_between_engine_and_memory() {
    let mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 20)).unwrap();
    let layout = mem.layout();
    for addr in [0u64, 64, 0x8000, (1 << 20) - 64] {
        let ctr = layout.counter_line_addr(addr);
        let parity = layout.parity_line_addr(addr);
        assert_eq!(layout.classify(ctr), synergy::secure::Region::Counter);
        assert_eq!(layout.classify(parity), synergy::secure::Region::Parity);
        assert_eq!(layout.classify(addr), synergy::secure::Region::Data);
    }
    // Storage overheads match the paper's §IV-A accounting.
    let (ctr, mac, parity, tree) = layout.overheads();
    assert!((ctr - 0.125).abs() < 1e-9);
    assert!((mac - 0.125).abs() < 1e-9);
    assert!((parity - 0.125).abs() < 1e-9);
    assert!(tree < 0.02);
}

/// A sustained mixed read/write workload over a memory with a tracked
/// permanent chip failure: everything stays correct, and the fast path
/// engages.
#[test]
fn sustained_operation_under_permanent_chip_failure() {
    let mut mem = SynergyMemory::new(SynergyMemoryConfig {
        fault_tracking_threshold: Some(8),
        ..SynergyMemoryConfig::with_capacity(1 << 16)
    })
    .unwrap();

    let lines = 128u64;
    for i in 0..lines {
        mem.write_line(i * 64, &line(i as u8)).unwrap();
    }
    // Chip 5 fails permanently across the whole DIMM.
    mem.inject_chip_failure(5);

    for i in 0..lines {
        let out = mem.read_line(i * 64).unwrap();
        assert_eq!(out.data, line(i as u8), "line {i}");
    }
    assert_eq!(mem.tracked_faulty_chip(), Some(5));
    assert!(mem.stats().preemptive_corrections > 0 || mem.stats().corrections >= 8);

    // Writes (which scrub lines) interleaved with reads keep working.
    for i in 0..lines {
        mem.write_line(i * 64, &line(!i as u8)).unwrap();
        assert_eq!(mem.read_line(i * 64).unwrap().data, line(!i as u8));
    }
    assert_eq!(mem.stats().attacks_declared, 0);
}

/// Crypto/ECC substrate round trip through the public umbrella crate.
#[test]
fn umbrella_crate_reexports_work() {
    use synergy::crypto::gmac::Gmac;
    use synergy::crypto::MacKey;
    use synergy::ecc::reed_solomon::Chipkill;

    let gmac = Gmac::new(&MacKey::from_bytes([1; 16]));
    let l = line(0x42);
    let tag = gmac.line_tag(0, 0, &l);
    assert!(gmac.verify_line(0, 0, &l, tag));

    let ck = Chipkill::new().unwrap();
    let mut beats = ck.encode_line(l.as_bytes()).unwrap();
    for beat in beats.iter_mut() {
        beat[4] ^= 0xFF;
    }
    let (decoded, _) = ck.correct_line(&mut beats).unwrap();
    assert_eq!(decoded, Some(*l.as_bytes()));
}
