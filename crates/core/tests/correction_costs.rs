//! The cost of every correction path, pinned read by read.
//!
//! One line is corrupted on a fresh copy of a written memory, then its
//! data line is read. Each case records the MAC computations the read
//! counted and how it ended: clean, the corruption not covered by the MAC
//! (`N`), corrected on the first parity pass (`C`),
//! corrected through the rebuilt parity (`P`) or declared an attack
//! (`A`). The table was recorded before the correction engine checked its
//! candidates by GHASH linearity; the engine must keep its candidate order
//! and count every candidate it tries, so the table holds unchanged.

use synergy_core::memory::{MemoryStats, SynergyMemory, SynergyMemoryConfig};
use synergy_core::testsupport::CHIP_CORRUPTION_PATTERN;
use synergy_crypto::CacheLine;

const CAP: u64 = 1 << 16;
const ADDR: u64 = 0x1c0;

/// Which stored line the chips are corrupted in.
#[derive(Debug, Clone, Copy)]
enum Target {
    /// The data line itself.
    Data,
    /// Its counter line (corrected through ParityC).
    Counter,
    /// The counter line's level-0 tree node.
    Tree,
    /// The data line plus its own parity slot (Scenario D).
    DataAndParity,
}

/// Chip `chip` and, for two-chip cases, chip `(chip + 3) % 9`.
fn chips(chip: usize, n: usize) -> Vec<usize> {
    if n == 1 {
        vec![chip]
    } else {
        vec![chip, (chip + 3) % 9]
    }
}

const PATTERNS: [(&str, [u8; 8]); 3] = [
    ("a5", CHIP_CORRUPTION_PATTERN),
    ("bit3", [8, 0, 0, 0, 0, 0, 0, 0]),
    // Byte 7: a counter line's MAC byte, which carries no counter bits.
    ("bit61", [0, 0, 0, 0, 0, 0, 0, 0x20]),
];

/// `(target, pattern, chips per case, MAC computations per chip 0..9,
/// outcome per chip 0..9)`, recorded before the linearity change.
type Row = (&'static str, &'static str, usize, [u64; 9], &'static str);

const EXPECTED: [Row; 24] = [
    ("Data", "a5", 1, [6, 7, 8, 9, 10, 11, 12, 13, 5], "CCCCCCCCC"),
    ("Data", "a5", 2, [13, 13, 13, 13, 13, 13, 13, 13, 13], "AAAAAAAAA"),
    ("Data", "bit3", 1, [6, 7, 8, 9, 10, 11, 12, 13, 5], "CCCCCCCCC"),
    ("Data", "bit3", 2, [13, 13, 13, 13, 13, 13, 13, 13, 13], "AAAAAAAAA"),
    ("Data", "bit61", 1, [6, 7, 8, 9, 10, 11, 12, 13, 5], "CCCCCCCCC"),
    ("Data", "bit61", 2, [13, 13, 13, 13, 13, 13, 13, 13, 13], "AAAAAAAAA"),
    ("Counter", "a5", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Counter", "a5", 2, [11, 11, 11, 11, 11, 11, 11, 11, 11], "AAAAAAAAA"),
    ("Counter", "bit3", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Counter", "bit3", 2, [11, 11, 11, 11, 11, 11, 11, 11, 11], "AAAAAAAAA"),
    ("Counter", "bit61", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Counter", "bit61", 2, [11, 11, 11, 11, 11, 11, 11, 11, 11], "AAAAAAAAA"),
    ("Tree", "a5", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Tree", "a5", 2, [10, 10, 10, 10, 10, 10, 10, 10, 10], "AAAAAAAAA"),
    ("Tree", "bit3", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Tree", "bit3", 2, [10, 10, 10, 10, 10, 10, 10, 10, 10], "AAAAAAAAA"),
    ("Tree", "bit61", 1, [5, 6, 7, 8, 9, 10, 11, 12, 4], "CCCCCCCCN"),
    ("Tree", "bit61", 2, [10, 10, 10, 10, 10, 10, 10, 10, 10], "AAAAAAAAA"),
    ("DataAndParity", "a5", 1, [15, 16, 17, 18, 19, 20, 21, 22, 14], "PPPPPPPPP"),
    ("DataAndParity", "a5", 2, [22, 22, 22, 22, 22, 22, 22, 22, 22], "AAAAAAAAA"),
    ("DataAndParity", "bit3", 1, [15, 16, 17, 18, 19, 20, 21, 22, 14], "PPPPPPPPP"),
    ("DataAndParity", "bit3", 2, [22, 22, 22, 22, 22, 22, 22, 22, 22], "AAAAAAAAA"),
    ("DataAndParity", "bit61", 1, [15, 16, 17, 18, 19, 20, 21, 22, 14], "PPPPPPPPP"),
    ("DataAndParity", "bit61", 2, [22, 22, 22, 22, 22, 22, 22, 22, 22], "AAAAAAAAA"),
];

fn written() -> SynergyMemory {
    let mut m = SynergyMemory::new(SynergyMemoryConfig {
        fault_tracking_threshold: None,
        ..SynergyMemoryConfig::with_capacity(CAP)
    })
    .unwrap();
    for (i, addr) in (0..CAP).step_by(64 * 5).enumerate() {
        m.write_line(addr, &CacheLine::from_bytes([i as u8 ^ 0x5c; 64])).unwrap();
    }
    m.write_line(ADDR, &CacheLine::from_bytes([0x3e; 64])).unwrap();
    m
}

/// Corrupts `target` in a copy of `base`, reads `ADDR`, and returns the
/// MAC computations the read counted and its outcome letter.
fn case(base: &SynergyMemory, target: Target, pattern: [u8; 8], chips: &[usize]) -> (u64, char) {
    let mut m = base.clone();
    let layout = m.layout().clone();
    let line = match target {
        Target::Data | Target::DataAndParity => ADDR,
        Target::Counter => layout.counter_line_addr(ADDR),
        Target::Tree => layout.tree_path(layout.counter_line_addr(ADDR))[0],
    };
    for &chip in chips {
        m.inject_chip_pattern(line, chip, pattern);
    }
    if let Target::DataAndParity = target {
        m.inject_chip_pattern(layout.parity_line_addr(ADDR), layout.parity_slot(ADDR), [0x3c; 8]);
    }
    let before: MemoryStats = *m.stats();
    let result = m.read_line(ADDR);
    let after = m.stats();
    let macs = after.mac_computations - before.mac_computations;
    let outcome = match result {
        Ok(out) => {
            assert_eq!(out.data, CacheLine::from_bytes([0x3e; 64]), "{target:?} {chips:?}");
            assert_eq!(u64::from(out.mac_computations), macs);
            match (after.corrections - before.corrections, after.parity_reconstructions) {
                (0, _) => 'N',
                (1, p) if p > before.parity_reconstructions => 'P',
                (1, _) => 'C',
                (n, _) => panic!("{target:?} {chips:?}: {n} corrections on one read"),
            }
        }
        Err(_) => {
            assert_eq!(after.attacks_declared - before.attacks_declared, 1);
            assert_eq!(after.corrections, before.corrections);
            'A'
        }
    };
    (macs, outcome)
}

#[test]
fn every_correction_path_counts_the_recorded_macs() {
    let base = written();
    assert!(base.layout().tree_depth() >= 1, "the cases need an in-memory tree line");
    let mut actual = Vec::new();
    for (target, name) in [
        (Target::Data, "Data"),
        (Target::Counter, "Counter"),
        (Target::Tree, "Tree"),
        (Target::DataAndParity, "DataAndParity"),
    ] {
        for (pattern_name, pattern) in PATTERNS {
            for n in 1..=2 {
                let mut macs = [0u64; 9];
                let mut outcomes = String::new();
                for (chip, slot) in macs.iter_mut().enumerate() {
                    let (count, outcome) = case(&base, target, pattern, &chips(chip, n));
                    *slot = count;
                    outcomes.push(outcome);
                }
                actual.push((name, pattern_name, n, macs, outcomes));
            }
        }
    }
    let rendered: Vec<String> = actual
        .iter()
        .map(|(t, p, n, macs, o)| format!("    ({t:?}, {p:?}, {n}, {macs:?}, {o:?}),"))
        .collect();
    let matches = actual.len() == EXPECTED.len()
        && actual
            .iter()
            .zip(EXPECTED)
            .all(|(a, e)| (a.0, a.1, a.2, a.3, a.4.as_str()) == (e.0, e.1, e.2, e.3, e.4));
    assert!(matches, "MAC counts moved; now:\n{}", rendered.join("\n"));
}
