//! Behaviour pin for the functional SYNERGY memory: one seeded stream of
//! writes, reads, chip errors, bit flips and a whole-chip failure on a
//! 64 KiB memory, folded into a single digest of every read result, every
//! stored line and the operation statistics. Any change to what the memory
//! stores, returns or counts moves the digest.

use synergy_core::memory::{MemoryStats, SynergyMemory, SynergyMemoryConfig};
use synergy_crypto::CacheLine;

const CAP: u64 = 1 << 16;
const LINE: u64 = 64;
const LINES: u64 = CAP / LINE;

/// The digest the stream below produced when it was recorded.
const GOLDEN: u64 = 0x6799_0a33_ddab_9c5e;

/// splitmix64: a seeded stream independent of any RNG crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn line(&mut self) -> CacheLine {
        CacheLine::from_words(std::array::from_fn(|_| self.next()))
    }
}

/// Order-sensitive fold of 64-bit words.
struct Digest(u64);

impl Digest {
    fn word(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    fn read(&mut self, m: &mut SynergyMemory, addr: u64) {
        match m.read_line(addr) {
            Ok(out) => {
                self.word(1);
                self.bytes(out.data.as_bytes());
                self.word(u64::from(out.corrected));
                self.word(u64::from(out.mac_computations));
            }
            Err(e) => {
                self.word(2);
                self.bytes(e.to_string().as_bytes());
            }
        }
    }

    fn stats(&mut self, s: &MemoryStats) {
        for x in [
            s.reads,
            s.writes,
            s.mac_computations,
            s.corrections,
            s.parity_reconstructions,
            s.preemptive_corrections,
            s.attacks_declared,
        ] {
            self.word(x);
        }
        for x in s.per_chip_corrections {
            self.word(x);
        }
    }
}

/// Every stored line of the layout: data, counter, parity and tree lines.
fn stored_lines(m: &SynergyMemory) -> Vec<u64> {
    let l = m.layout();
    let mut addrs: Vec<u64> = (0..LINES).map(|i| i * LINE).collect();
    addrs.extend((0..l.counter_lines()).map(|i| l.counter_base() + i * LINE));
    addrs.extend((0..LINES / 8).map(|i| l.parity_base() + i * LINE));
    for level in 0..l.tree_depth() {
        addrs.extend((0..l.tree_level_nodes(level)).map(|i| l.tree_node_addr(level, i)));
    }
    addrs
}

/// A random line of any stored region, and a data line it protects.
fn any_line(m: &SynergyMemory, rng: &mut Rng, region: u64) -> (u64, u64) {
    let l = m.layout();
    let data = rng.below(LINES) * LINE;
    let target = match region % 4 {
        0 => data,
        1 => l.counter_line_addr(data),
        2 => l.parity_line_addr(data),
        _ => {
            let level = rng.below(l.tree_depth() as u64) as usize;
            l.tree_path(l.counter_line_addr(data))[level]
        }
    };
    (target, data)
}

fn run_stream() -> (u64, SynergyMemory) {
    let mut m = SynergyMemory::new(SynergyMemoryConfig::with_capacity(CAP)).unwrap();
    assert!(m.layout().tree_depth() >= 1, "the stream needs in-memory tree lines");
    let mut rng = Rng(0x5EC0_DE5E);
    let mut d = Digest(0xCBF2_9CE4_8422_2325);

    // Every line written once.
    for i in 0..LINES {
        let data = rng.line();
        m.write_line(i * LINE, &data).unwrap();
    }
    // Mixed reads and writes.
    for _ in 0..4000 {
        let addr = rng.below(LINES) * LINE;
        if rng.below(10) < 7 {
            d.read(&mut m, addr);
        } else {
            let data = rng.line();
            d.word(u64::from(m.write_line(addr, &data).is_ok()));
        }
    }
    // Whole-chip errors on data, counter, parity and tree lines.
    for k in 0..24 {
        let (target, data) = any_line(&m, &mut rng, k);
        m.inject_chip_error(target, rng.below(9) as usize);
        d.read(&mut m, data);
    }
    // Single-bit flips, one chip of one line at a time.
    for k in 0..24 {
        let (target, data) = any_line(&m, &mut rng, k);
        m.inject_bit_flip(target, rng.below(9) as usize, rng.below(64) as usize);
        d.read(&mut m, data);
    }
    // A whole chip fails; reading everything engages the tracked-chip path.
    m.inject_chip_failure(3);
    for i in 0..LINES {
        d.read(&mut m, i * LINE);
    }
    for _ in 0..512 {
        d.read(&mut m, rng.below(LINES) * LINE);
    }

    for addr in stored_lines(&m) {
        let raw = m.snapshot_raw(addr);
        for chip in raw.chips {
            d.bytes(&chip);
        }
    }
    d.stats(m.stats());
    (d.0, m)
}

#[test]
fn seeded_stream_matches_the_recorded_digest() {
    let (digest, m) = run_stream();
    // The stream must reach every path it is meant to pin.
    let s = m.stats();
    assert!(s.corrections > 0 && s.preemptive_corrections > 0, "{s:?}");
    assert!(s.parity_reconstructions > 0 && s.attacks_declared > 0, "{s:?}");
    assert_eq!(m.tracked_faulty_chip(), Some(3));
    assert_eq!(digest, GOLDEN, "digest moved: {digest:#018x}");
}
