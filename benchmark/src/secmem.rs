//! `secmem`: the functional SYNERGY memory (`synergy::core::SynergyMemory`)
//! under a closed loop with one client — seeded reads and writes at uniform
//! addresses, then reads with a failed chip — and the crypto kernels timed
//! on the memory's own (address, counter, line) inputs.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use synergy::core::{SynergyMemory, SynergyMemoryConfig};
use synergy::crypto::ctr::LineCipher;
use synergy::crypto::gmac::Gmac;
use synergy::crypto::CacheLine;

use crate::report::{
    median, rounds, LayerId, Parent, PartTimes, Report, Tally, Tracer, KERNEL_BATCH,
};
use crate::Scale;

const LINE: u64 = 64;
/// Share of healthy-phase operations that are reads (the rest are writes).
const READ_SHARE: f64 = 0.7;
/// The chip that fails between the healthy and the degraded phase.
const FAILED_CHIP: usize = 3;
/// One healthy operation in this many contributes its inputs to the
/// crypto-kernel sample.
const CRYPTO_SAMPLE: u64 = 64;
/// Passes over the sampled inputs per crypto kernel.
const CRYPTO_PASSES: usize = 4;
/// Operations per timed chunk of a round (about 0.1 s at full scale).
const CHUNK_OPS: u64 = 50_000;

/// Memory size and operation counts of one round.
#[derive(Debug, Clone)]
pub struct Spec {
    capacity: u64,
    healthy_ops: u64,
    degraded_reads: u64,
}

impl Spec {
    /// The `secmem` workload at `scale`.
    pub fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                capacity: 16 << 20,
                healthy_ops: 600_000,
                degraded_reads: 250_000,
            },
            Scale::Smoke => Self {
                capacity: 64 << 10,
                healthy_ops: 4_000,
                degraded_reads: 2_000,
            },
        }
    }

    fn lines(&self) -> u64 {
        self.capacity / LINE
    }
}

/// Version `version` of line `addr`: every read has exactly one expected
/// plaintext, derived from the seed.
fn plaintext(seed: u64, addr: u64, version: u32) -> CacheLine {
    let mut x = seed ^ addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(version) << 32);
    CacheLine::from_words(std::array::from_fn(|_| {
        // splitmix64
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }))
}

/// A memory with every line written once, and the version each line holds.
struct Loaded {
    seed: u64,
    mem: SynergyMemory,
    versions: Vec<u32>,
}

impl Loaded {
    /// Builds the memory and writes every line once. Pre-writing keeps the
    /// degraded phase clear of the lazily built parity lines of
    /// never-written lines (the README's first known defect).
    fn new(capacity: u64, seed: u64) -> Result<Self, String> {
        let mut mem = SynergyMemory::new(SynergyMemoryConfig::with_capacity(capacity))
            .map_err(|e| e.to_string())?;
        for line in 0..capacity / LINE {
            let addr = line * LINE;
            mem.write_line(addr, &plaintext(seed, addr, 1))
                .map_err(|e| e.to_string())?;
        }
        Ok(Self {
            seed,
            mem,
            versions: vec![1; (capacity / LINE) as usize],
        })
    }

    /// Reads `line` and checks it against its expected plaintext; an `Err`
    /// or wrong data is a failed operation. Returns (passed, MACs computed).
    fn read(&mut self, line: u64, t: &mut Tracer, id: LayerId, p: Parent) -> (bool, u64) {
        let addr = line * LINE;
        let mem = &mut self.mem;
        match t.time(id, p, || mem.read_line(addr)) {
            Ok(out) => {
                let expected = plaintext(self.seed, addr, self.versions[line as usize]);
                (out.data == expected, u64::from(out.mac_computations))
            }
            Err(_) => (false, 0),
        }
    }

    /// Writes the next version of `line`. Returns (passed, MACs computed).
    fn write(&mut self, line: u64, t: &mut Tracer, id: LayerId, p: Parent) -> (bool, u64) {
        let addr = line * LINE;
        let version = self.versions[line as usize] + 1;
        let data = plaintext(self.seed, addr, version);
        let before = self.mem.stats().mac_computations;
        let mem = &mut self.mem;
        let ok = t.time(id, p, || mem.write_line(addr, &data)).is_ok();
        if ok {
            self.versions[line as usize] = version;
        }
        (ok, self.mem.stats().mac_computations - before)
    }
}

/// Crypto inputs taken from the memory: a data line's address, its write
/// counter and stored ciphertext, and its counter line's address and
/// packed counters.
struct CryptoInput {
    addr: u64,
    counter: u64,
    line: CacheLine,
    ctr_addr: u64,
    counters: [u8; 64],
}

fn crypto_input(loaded: &mut Loaded, line: u64) -> CryptoInput {
    let addr = line * LINE;
    let ctr_addr = loaded.mem.layout().counter_line_addr(addr);
    let (ciphertext, _) = loaded.mem.snapshot_raw(addr).data_parts();
    let (counters, _, _) = loaded.mem.snapshot_raw(ctr_addr).counter_parts();
    let mut packed = [0u8; 64];
    for (chunk, c) in packed.chunks_exact_mut(8).zip(counters) {
        chunk.copy_from_slice(&c.to_le_bytes());
    }
    CryptoInput {
        addr,
        counter: u64::from(loaded.versions[line as usize]),
        line: ciphertext,
        ctr_addr,
        counters: packed,
    }
}

/// Operations of one round and the MACs they computed.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    reads: u64,
    read_macs: u64,
    writes: u64,
    write_macs: u64,
    degraded_reads: u64,
    degraded_macs: u64,
}

/// What one round measured.
struct RoundStats {
    setup_s: f64,
    /// Seconds of each chunk of operations, healthy then degraded.
    chunks_s: Vec<f64>,
    inject_s: f64,
    counts: Counts,
    crypto: Vec<CryptoInput>,
}

impl RoundStats {
    fn ops_s(&self) -> f64 {
        self.chunks_s.iter().sum()
    }
}

/// Times `ops` operations in chunks of `CHUNK_OPS`, pushing each chunk's
/// seconds. Chunk `i` is the same work in every round, so the rate can use
/// each chunk's fastest repetition.
fn chunked(ops: u64, chunks_s: &mut Vec<f64>, mut op: impl FnMut(u64)) {
    let mut start = 0;
    while start < ops {
        let end = (start + CHUNK_OPS).min(ops);
        let t0 = Instant::now();
        (start..end).for_each(&mut op);
        chunks_s.push(t0.elapsed().as_secs_f64());
        start = end;
    }
}

/// Call sites a round times.
#[derive(Clone, Copy)]
struct Ids {
    read: LayerId,
    write: LayerId,
    degraded_read: LayerId,
}

impl Ids {
    fn new(t: &mut Tracer) -> Self {
        Self {
            read: t.layer("memory.read"),
            write: t.layer("memory.write"),
            degraded_read: t.layer("memory.degraded_read"),
        }
    }
}

/// One round: set up a pre-written memory, run the healthy reads and
/// writes, fail a chip, run the degraded reads. The degraded phase issues
/// reads only: a write after the failure can leave a sibling line
/// uncorrectable (the README's second known defect). The operation stream
/// is seeded, so counts repeat exactly.
fn round(
    spec: &Spec,
    seed: u64,
    t: &mut Tracer,
    ids: Ids,
    tally: &mut Tally,
    sample: bool,
) -> Result<(RoundStats, Loaded), String> {
    let t0 = Instant::now();
    let mut loaded = Loaded::new(spec.capacity, seed)?;
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005E_C3E3);
    let (mut c, mut crypto, mut chunks_s) = (Counts::default(), Vec::new(), Vec::new());

    let p = t.open("healthy ops".to_string());
    chunked(spec.healthy_ops, &mut chunks_s, |i| {
        let line = rng.gen_range(0..spec.lines());
        let ok = if rng.gen_range(0.0..1.0) < READ_SHARE {
            let (ok, macs) = loaded.read(line, t, ids.read, p);
            (c.reads, c.read_macs) = (c.reads + 1, c.read_macs + macs);
            ok
        } else {
            let (ok, macs) = loaded.write(line, t, ids.write, p);
            (c.writes, c.write_macs) = (c.writes + 1, c.write_macs + macs);
            ok
        };
        tally.record(1, ok);
        if sample && i % CRYPTO_SAMPLE == 0 {
            crypto.push(crypto_input(&mut loaded, line));
        }
    });
    t.close(p);

    let t0 = Instant::now();
    loaded.mem.inject_chip_failure(FAILED_CHIP);
    let inject_s = t0.elapsed().as_secs_f64();

    let p = t.open("degraded reads".to_string());
    chunked(spec.degraded_reads, &mut chunks_s, |_| {
        let (ok, macs) = loaded.read(rng.gen_range(0..spec.lines()), t, ids.degraded_read, p);
        (c.degraded_reads, c.degraded_macs) = (c.degraded_reads + 1, c.degraded_macs + macs);
        tally.record(1, ok);
    });
    t.close(p);
    let stats = RoundStats {
        setup_s,
        chunks_s,
        inject_s,
        counts: c,
        crypto,
    };
    Ok((stats, loaded))
}

/// End-to-end pass: rounds until `seconds` have elapsed. `ops_per_s` is
/// the operations of a round over the summed fastest repetition of each
/// chunk of operations (set-up and the chip-failure injection excluded);
/// `setup_s` is the median time to build and pre-write the memory.
pub fn measure(spec: &Spec, seed: u64, seconds: f64, tally: &mut Tally) -> Result<Report, String> {
    let mut t = Tracer::disabled();
    let ids = Ids::new(&mut t);
    let (mut setups, mut times) = (Vec::new(), PartTimes::default());
    rounds(seconds, || {
        let (s, _) = round(spec, seed, &mut t, ids, tally, false)?;
        setups.push(s.setup_s);
        for (chunk, secs) in s.chunks_s.iter().enumerate() {
            times.record(chunk, *secs);
        }
        Ok(())
    })?;
    let ops = spec.healthy_ops + spec.degraded_reads;
    let mut report = Report::default();
    report.set("setup_s", median(&setups), "s");
    report.set("ops_per_s", ops as f64 / times.fastest_total(), "1/s");
    Ok(report)
}

/// Traced pass: one untimed and one timed round (per-operation latency,
/// MAC counts, corrections), then the crypto kernels on the timed round's
/// sampled inputs. Returns (timed, untimed) operation seconds.
pub fn layers(
    spec: &Spec,
    seed: u64,
    t: &mut Tracer,
    report: &mut Report,
    tally: &mut Tally,
) -> Result<(f64, f64), String> {
    let mut off = Tracer::disabled();
    let off_ids = Ids::new(&mut off);
    let (untimed, _) = round(spec, seed, &mut off, off_ids, tally, false)?;
    let ids = Ids::new(t);
    let (s, loaded) = round(spec, seed, t, ids, tally, true)?;

    let cfg = SynergyMemoryConfig::with_capacity(spec.capacity);
    let gmac = Gmac::new(&cfg.mac_key);
    let cipher = LineCipher::new(&cfg.encryption_key);
    let (line_tag, node_tag, ctr) = (
        t.layer("crypto.line_tag"),
        t.layer("crypto.node_tag"),
        t.layer("crypto.ctr_line"),
    );
    let p = t.open("crypto kernels".to_string());
    for _ in 0..CRYPTO_PASSES {
        for batch in s.crypto.chunks(KERNEL_BATCH) {
            t.time_batch(line_tag, p, batch.len(), || {
                for c in batch {
                    black_box(gmac.line_tag(black_box(c.addr), c.counter, &c.line));
                }
            });
            t.time_batch(node_tag, p, batch.len(), || {
                for c in batch {
                    black_box(gmac.node_tag(black_box(c.ctr_addr), c.counter, &c.counters));
                }
            });
            t.time_batch(ctr, p, batch.len(), || {
                for c in batch {
                    black_box(cipher.encrypt(black_box(c.addr), c.counter, &c.line));
                }
            });
        }
    }
    t.close(p);

    let c = s.counts;
    let per = |macs: u64, ops: u64| {
        if ops == 0 {
            0.0
        } else {
            macs as f64 / ops as f64
        }
    };
    let us = |id, p| t.percentile_ns(id, p) / 1e3;
    let stats = loaded.mem.stats();
    // Crypto time estimate: one data-line MAC and one pad per operation,
    // every further MAC a counter-tree node MAC.
    let ops = c.reads + c.writes + c.degraded_reads;
    let macs = c.read_macs + c.write_macs + c.degraded_macs;
    let crypto_ns = ops as f64 * (t.mean_ns(line_tag) + t.mean_ns(ctr))
        + macs.saturating_sub(ops) as f64 * t.mean_ns(node_tag);

    report.set("memory.read_p50_us", us(ids.read, 50.0), "us");
    report.set("memory.read_p99_us", us(ids.read, 99.0), "us");
    report.set("memory.read_samples", t.calls(ids.read) as f64, "count");
    report.set("memory.write_p50_us", us(ids.write, 50.0), "us");
    report.set("memory.write_p99_us", us(ids.write, 99.0), "us");
    report.set("memory.write_samples", t.calls(ids.write) as f64, "count");
    report.set(
        "memory.degraded_read_p50_us",
        us(ids.degraded_read, 50.0),
        "us",
    );
    report.set(
        "memory.degraded_read_p99_us",
        us(ids.degraded_read, 99.0),
        "us",
    );
    report.set(
        "memory.degraded_read_samples",
        t.calls(ids.degraded_read) as f64,
        "count",
    );
    report.set("memory.macs_per_read", per(c.read_macs, c.reads), "ratio");
    report.set(
        "memory.macs_per_write",
        per(c.write_macs, c.writes),
        "ratio",
    );
    report.set(
        "memory.macs_per_degraded_read",
        per(c.degraded_macs, c.degraded_reads),
        "ratio",
    );
    report.set("memory.corrections", stats.corrections as f64, "count");
    report.set(
        "memory.preemptive_corrections",
        stats.preemptive_corrections as f64,
        "count",
    );
    report.set(
        "memory.parity_reconstructions",
        stats.parity_reconstructions as f64,
        "count",
    );
    report.set("memory.chip_failure_inject_s", s.inject_s, "s");
    report.set(
        "memory.crypto_est_share",
        crypto_ns / (s.ops_s() * 1e9),
        "share",
    );
    report.set("crypto.line_tag_ns", t.mean_ns(line_tag), "ns");
    report.set("crypto.node_tag_ns", t.mean_ns(node_tag), "ns");
    report.set("crypto.ctr_line_ns", t.mean_ns(ctr), "ns");
    Ok((s.ops_s(), untimed.ops_s()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_with_two_failed_chips_counts_as_failed() {
        let mut loaded = Loaded::new(64 << 10, 3).expect("memory builds");
        loaded.mem.inject_chip_error(5 * LINE, 1);
        loaded.mem.inject_chip_error(5 * LINE, 2);
        let mut t = Tracer::disabled();
        let (id, p) = (t.layer("memory.read"), t.open("test".to_string()));
        let mut tally = Tally::default();
        for line in [5, 6] {
            let (ok, _) = loaded.read(line, &mut t, id, p);
            tally.record(1, ok);
        }
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }
}
