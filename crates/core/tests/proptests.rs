//! Property-based tests for the functional SYNERGY memory: the paper's
//! correction guarantee, quantified over random workloads and faults.

use proptest::prelude::*;
use synergy_core::memory::{MemoryError, SynergyMemory, SynergyMemoryConfig};
use synergy_core::stored::{ChipSlice, StoredLine};
use synergy_crypto::CacheLine;

const CAP: u64 = 1 << 15; // 32 KiB: small enough for fast cases

fn mem() -> SynergyMemory {
    SynergyMemory::new(SynergyMemoryConfig::with_capacity(CAP)).expect("valid capacity")
}

/// XOR of a set of chip slices.
fn fold(slices: &[ChipSlice]) -> ChipSlice {
    let mut out = [0u8; 8];
    for slice in slices {
        for (o, b) in out.iter_mut().zip(slice) {
            *o ^= b;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever is written is read back, across arbitrary write sequences
    /// (including overwrites).
    #[test]
    fn write_read_consistency(
        ops in proptest::collection::vec((0u64..CAP / 64, any::<u8>()), 1..40),
    ) {
        let mut m = mem();
        let mut shadow = std::collections::HashMap::new();
        for (line, fill) in &ops {
            let addr = line * 64;
            m.write_line(addr, &CacheLine::from_bytes([*fill; 64])).expect("in range");
            shadow.insert(addr, *fill);
        }
        for (addr, fill) in shadow {
            let out = m.read_line(addr).expect("verifies");
            prop_assert_eq!(out.data, CacheLine::from_bytes([fill; 64]));
            prop_assert!(!out.corrected);
        }
    }

    /// **The paper's central claim (§III):** any corruption confined to one
    /// chip of one data line — any chip, any bit pattern — is corrected
    /// transparently and the original data returned.
    #[test]
    fn any_single_chip_corruption_is_corrected(
        line in 0u64..CAP / 64,
        fill in any::<u8>(),
        chip in 0usize..9,
        pattern in any::<[u8; 8]>(),
    ) {
        prop_assume!(pattern != [0u8; 8]);
        let mut m = mem();
        let addr = line * 64;
        m.write_line(addr, &CacheLine::from_bytes([fill; 64])).expect("in range");
        m.inject_chip_pattern(addr, chip, pattern);
        let out = m.read_line(addr).expect("single-chip errors are correctable");
        prop_assert_eq!(out.data, CacheLine::from_bytes([fill; 64]));
        prop_assert!(out.corrected);
    }

    /// Counter-line corruption confined to one chip is also corrected
    /// (Scenario B of Figure 7(c)).
    #[test]
    fn counter_line_chip_corruption_is_corrected(
        line in 0u64..CAP / 64,
        fill in any::<u8>(),
        chip in 0usize..8,
        pattern in any::<[u8; 8]>(),
    ) {
        prop_assume!(pattern != [0u8; 8]);
        let mut m = mem();
        let addr = line * 64;
        m.write_line(addr, &CacheLine::from_bytes([fill; 64])).expect("in range");
        let ctr = m.layout().counter_line_addr(addr);
        m.inject_chip_pattern(ctr, chip, pattern);
        let out = m.read_line(addr).expect("correctable");
        prop_assert_eq!(out.data, CacheLine::from_bytes([fill; 64]));
    }

    /// Corruption across two different chips is never silently accepted:
    /// the read either fails (attack declared) — it must not return wrong
    /// data.
    #[test]
    fn multi_chip_corruption_never_silent(
        line in 0u64..CAP / 64,
        fill in any::<u8>(),
        chips in proptest::sample::subsequence(vec![0usize, 1, 2, 3, 4, 5, 6, 7, 8], 2..=3),
        pattern in any::<[u8; 8]>(),
    ) {
        prop_assume!(pattern != [0u8; 8]);
        let mut m = mem();
        let addr = line * 64;
        let expected = CacheLine::from_bytes([fill; 64]);
        m.write_line(addr, &expected).expect("in range");
        for &chip in &chips {
            m.inject_chip_pattern(addr, chip, pattern);
        }
        match m.read_line(addr) {
            // 2^-64 mis-correction chance: treat success as the data being
            // right (a wrong result is the only failure).
            Ok(out) => prop_assert_eq!(out.data, expected),
            Err(MemoryError::AttackDetected { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected error {}", e),
        }
    }

    /// Replay of any stale data line (a recorded {ciphertext, MAC} pair
    /// from before the latest write) is always rejected.
    #[test]
    fn stale_replay_always_detected(
        line in 0u64..CAP / 64,
        v1 in any::<u8>(),
        v2 in any::<u8>(),
    ) {
        let mut m = mem();
        let addr = line * 64;
        m.write_line(addr, &CacheLine::from_bytes([v1; 64])).expect("in range");
        let stale = m.snapshot_raw(addr);
        m.write_line(addr, &CacheLine::from_bytes([v2; 64])).expect("in range");
        m.overwrite_raw(addr, stale);
        // (bound to a variable: prop_assert! would stringify the `{ .. }`
        // pattern into its failure message and trip the format parser)
        let detected = matches!(m.read_line(addr), Err(MemoryError::AttackDetected { .. }));
        prop_assert!(detected);
    }

    /// Data-region lines decompose and reassemble losslessly: the stored
    /// chip striping never drops or aliases a bit.
    #[test]
    fn stored_data_roundtrip(bytes in any::<[u8; 64]>(), mac in any::<u64>()) {
        let line = CacheLine::from_bytes(bytes);
        let (l2, m2) = StoredLine::from_data(&line, mac).data_parts();
        prop_assert_eq!(l2, line);
        prop_assert_eq!(m2, mac);
    }

    /// Counter-region lines round-trip all eight 56-bit counters and the
    /// distributed MAC, and the ECC chip always holds `ParityC`.
    #[test]
    fn stored_counter_roundtrip(raw in any::<[u64; 8]>(), mac in any::<u64>()) {
        let counters = raw.map(|c| c & ((1 << 56) - 1));
        let stored = StoredLine::from_counters(&counters, mac);
        let (c2, m2, pc) = stored.counter_parts();
        prop_assert_eq!(c2, counters);
        prop_assert_eq!(m2, mac);
        prop_assert_eq!(pc, fold(&stored.chips[..8]));
    }

    /// Parity-region lines round-trip all eight slots, and the ECC chip
    /// always holds `ParityP` (the XOR of the slots).
    #[test]
    fn stored_parity_roundtrip(slots in any::<[[u8; 8]; 8]>()) {
        let stored = StoredLine::from_parities(&slots);
        let (s2, pp) = stored.parity_parts();
        prop_assert_eq!(s2, slots);
        prop_assert_eq!(pp, fold(&slots));
    }

    /// `corrupt_chip` is an involution: re-applying the same XOR pattern
    /// restores the line exactly, for any region's content and any chip.
    #[test]
    fn corrupt_chip_is_an_involution(
        bytes in any::<[u8; 64]>(),
        mac in any::<u64>(),
        chip in 0usize..9,
        pattern in any::<ChipSlice>(),
    ) {
        let clean = StoredLine::from_data(&CacheLine::from_bytes(bytes), mac);
        let mut stored = clean;
        stored.corrupt_chip(chip, pattern);
        if pattern != [0; 8] {
            prop_assert_ne!(stored, clean);
        }
        stored.corrupt_chip(chip, pattern);
        prop_assert_eq!(stored, clean);
    }

    /// A clone of a fully materialized memory behaves exactly like a
    /// lazily materialized one: the same read and write results, the same
    /// statistics after every operation, and the same raw bytes in every
    /// line touched, over random writes, reads and one-chip corruptions of
    /// data, counter, parity and tree lines.
    #[test]
    fn materialize_all_is_invisible(
        ops in proptest::collection::vec(
            (0u8..4, 0u64..CAP / 64, 0usize..9, any::<[u8; 8]>()),
            1..60,
        ),
    ) {
        let mut lazy = mem();
        let mut eager = {
            let mut template = mem();
            template.materialize_all();
            prop_assert_eq!(*template.stats(), *lazy.stats());
            template.clone()
        };
        let mut touched = Vec::new();
        for (kind, line, chip, bytes) in ops {
            let addr = line * 64;
            match kind {
                0 => {
                    let data = CacheLine::from_bytes([bytes[0]; 64]);
                    prop_assert_eq!(lazy.write_line(addr, &data), eager.write_line(addr, &data));
                }
                1 => prop_assert_eq!(lazy.read_line(addr), eager.read_line(addr)),
                _ => {
                    let l = lazy.layout();
                    let ctr = l.counter_line_addr(addr);
                    let target = match bytes[1] % 4 {
                        0 => addr,
                        1 => ctr,
                        2 => l.parity_line_addr(addr),
                        _ => l.tree_path(ctr)[0],
                    };
                    lazy.inject_chip_pattern(target, chip, bytes);
                    eager.inject_chip_pattern(target, chip, bytes);
                    touched.push(target);
                }
            }
            touched.push(addr);
            prop_assert_eq!(*lazy.stats(), *eager.stats());
        }
        for addr in touched {
            prop_assert_eq!(lazy.snapshot_raw(addr), eager.snapshot_raw(addr));
        }
    }

    /// The Bonsai write update by GHASH linearity is invisible: over random
    /// streams of writes and reads with single- and multi-chip errors on
    /// the lines of the written chains (counter lines, every tree level,
    /// `ParityC`), occasional data-line errors and a rare whole-chip
    /// failure, `write_line` and the root-down `write_line_reference`
    /// return the same results, keep the same `MemoryStats` after every
    /// operation and leave every touched line byte for byte the same.
    /// The memory is 1 MiB (three tree levels); addresses stay in its
    /// first 64 KiB, so chains share their upper levels.
    #[test]
    fn write_line_matches_the_reference_bonsai_loop(
        ops in proptest::collection::vec(
            (0u8..16, 0u64..1024, (0usize..9, 0usize..4), any::<[u8; 8]>()),
            1..80,
        ),
    ) {
        let cfg = SynergyMemoryConfig::with_capacity(1 << 20);
        let mut fast = SynergyMemory::new(cfg.clone()).expect("valid capacity");
        let mut reference = SynergyMemory::new(cfg).expect("valid capacity");
        let mut touched = Vec::new();
        for (kind, line, (chip, level), bytes) in ops {
            let addr = line * 64;
            let l = fast.layout();
            let ctr = l.counter_line_addr(addr);
            let mut chain = vec![ctr];
            chain.extend(l.tree_path(ctr));
            let parity = l.parity_line_addr(addr);
            match kind {
                0..=5 => {
                    let data = CacheLine::from_bytes([bytes[0]; 64]);
                    prop_assert_eq!(
                        fast.write_line(addr, &data),
                        reference.write_line_reference(addr, &data)
                    );
                }
                6..=9 => prop_assert_eq!(fast.read_line(addr), reference.read_line(addr)),
                10..=13 => {
                    let target = chain[level % chain.len()];
                    fast.inject_chip_pattern(target, chip, bytes);
                    reference.inject_chip_pattern(target, chip, bytes);
                }
                14 => {
                    fast.inject_chip_pattern(addr, chip, bytes);
                    reference.inject_chip_pattern(addr, chip, bytes);
                }
                _ if bytes[1] == 0 => {
                    fast.inject_chip_failure(chip);
                    reference.inject_chip_failure(chip);
                }
                _ => {}
            }
            touched.extend([addr, parity]);
            touched.extend(chain);
            prop_assert_eq!(*fast.stats(), *reference.stats());
        }
        for addr in touched {
            prop_assert_eq!(fast.snapshot_raw(addr), reference.snapshot_raw(addr));
        }
    }
}
