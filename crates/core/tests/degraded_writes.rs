//! Writes after a whole-chip failure.
//!
//! A failed chip corrupts one slot of every parity line (slot `k` lives in
//! chip `k`). A write that rebuilt the parity-of-parities from that
//! corrupted slot lost the only way to recover it, so the neighbour whose
//! data and slot both sit in the failed chip (Scenario D of Figure 7(c))
//! could no longer be read. These tests pin that a write first brings the
//! group's parity back into agreement with its data.

use synergy_core::memory::{SynergyMemory, SynergyMemoryConfig};
use synergy_crypto::CacheLine;

const CAP: u64 = 64 << 10;
const LINES: u64 = CAP / 64;

fn line(i: u64) -> CacheLine {
    CacheLine::from_words(std::array::from_fn(|w| i * 8 + w as u64))
}

fn written_memory(threshold: Option<u64>) -> SynergyMemory {
    let mut m = SynergyMemory::new(SynergyMemoryConfig {
        fault_tracking_threshold: threshold,
        ..SynergyMemoryConfig::with_capacity(CAP)
    })
    .unwrap();
    for i in 0..LINES {
        m.write_line(i * 64, &line(i)).unwrap();
    }
    m
}

/// Chip 3 failing and line 0 being written is the reported case: line 3
/// (0xc0) keeps its parity in slot 3, i.e. in the failed chip, and read
/// back as `AttackDetected` once the write had rebuilt ParityP. Every
/// chip, with and without fault tracking, and a write at every slot
/// position are covered the same way.
#[test]
fn every_line_survives_writes_to_its_group_after_any_chip_fails() {
    for chip in 0..9 {
        for threshold in [None, SynergyMemoryConfig::with_capacity(CAP).fault_tracking_threshold] {
            let mut m = written_memory(threshold);
            m.inject_chip_failure(chip);
            // One write per parity group, at a rotating slot (group 0 at
            // slot 0).
            for g in 0..LINES / 8 {
                let addr = (g * 8 + g % 8) * 64;
                m.write_line(addr, &line(addr + 1)).unwrap();
            }
            for i in 0..LINES {
                let want = if i % 8 == (i / 8) % 8 { line(i * 64 + 1) } else { line(i) };
                let got = m.read_line(i * 64);
                assert_eq!(
                    got.map(|out| out.data),
                    Ok(want),
                    "chip {chip}, tracking {threshold:?}, line {i}"
                );
            }
            assert_eq!(m.stats().attacks_declared, 0, "chip {chip}, tracking {threshold:?}");
        }
    }
}
