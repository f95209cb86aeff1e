//! Reliability shoot-out: SECDED vs Chipkill vs SYNERGY against escalating
//! DRAM faults, on real bytes (functional models) *and* in expectation
//! (the fleet Monte Carlo) — a miniature of the paper's Figure 11 with a
//! live demo.
//!
//! Run with `cargo run --release --example reliability_shootout`.

use synergy::core::memory::{SynergyMemory, SynergyMemoryConfig};
use synergy::core::secded_memory::SecdedMemory;
use synergy::crypto::CacheLine;
use synergy::ecc::reed_solomon::Chipkill;
use synergy::faultsim::EccPolicy;
use synergy::fleet::FleetParams;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Part 1: functional models vs a failed chip ==\n");
    let payload = CacheLine::from_bytes([0xC0; 64]);

    // SECDED ECC-DIMM (the SGX/SGX_O baseline).
    let mut secded = SecdedMemory::new(1 << 16);
    secded.write_line(0, &payload)?;
    secded.inject_chip_error(0, 4);
    println!("SECDED   vs chip failure: {:?}", secded.read_line(0).err().map(|e| e.to_string()));

    // Chipkill: corrects it, but needs 18 lock-stepped chips.
    let ck = Chipkill::new()?;
    let mut beats = ck.encode_line(payload.as_bytes())?;
    for beat in beats.iter_mut() {
        beat[4] ^= 0xA5;
    }
    let (fixed, outcome) = ck.correct_line(&mut beats)?;
    println!(
        "Chipkill vs chip failure: {} ({} chips occupied)",
        outcome,
        Chipkill::TOTAL_CHIPS
    );
    assert_eq!(fixed, Some(*payload.as_bytes()));

    // SYNERGY: corrects it with 9 chips and no extra hardware.
    let mut syn = SynergyMemory::new(SynergyMemoryConfig::with_capacity(1 << 16))?;
    syn.write_line(0, &payload)?;
    syn.inject_chip_error(0, 4);
    let out = syn.read_line(0)?;
    println!(
        "SYNERGY  vs chip failure: corrected ({} MAC recomputations, 9 chips, single channel)",
        out.mac_computations
    );
    assert_eq!(out.data, payload);

    println!("\n== Part 2: fleet Monte Carlo over a 7-year lifetime ==\n");
    let fleet = synergy::fleet::run(&FleetParams { dimms: 5_000_000, ..Default::default() });
    let p = |d| fleet.report(d).due_probability + fleet.report(d).sdc_probability;
    for policy in [EccPolicy::Secded, EccPolicy::Chipkill, EccPolicy::Synergy] {
        println!(
            "{:9} P(fail, 7y) = {:.3e}   ({:.0}x better than SECDED)",
            policy.name(),
            p(policy),
            p(EccPolicy::Secded) / p(policy)
        );
    }
    println!("\npaper: Chipkill 37x, Synergy 185x (Figure 11)");
    Ok(())
}
