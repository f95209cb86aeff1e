//! Synthetic workload traces — the SPEC2006 / GAP substitute.
//!
//! The paper drives USIMM with PinPoint slices (1 billion instructions) of
//! 23 memory-intensive SPEC2006 benchmarks and 6 GAP graph kernels, run in
//! rate mode on 4 cores, plus 6 random 4-benchmark mixes. Those traces are
//! proprietary, so this crate generates *synthetic equivalents*: each paper
//! workload becomes a parameterized generator whose memory intensity
//! (accesses per kilo-instruction), read/write split, footprint, spatial
//! locality and load-dependence are set to reproduce the *relative*
//! behaviours the paper's results depend on:
//!
//! * bandwidth demand (drives the secure-execution slowdown),
//! * counter-working-set size vs the 128 KB metadata cache (drives the
//!   SGX vs SGX_O gap),
//! * LLC contention between counters and data for the `*-web` graph
//!   workloads (drives the Figure 8 anomaly where SGX_O < SGX), and
//! * row-buffer locality (drives DRAM efficiency).
//!
//! Every design under comparison consumes the *same* trace stream, so the
//! relative metrics the paper reports (normalized IPC, traffic bloat, EDP)
//! are meaningful even though the absolute traces are synthetic.
//!
//! # Example
//!
//! ```
//! use synergy_trace::{presets, TraceGen};
//!
//! let spec = presets::by_name("mcf").expect("mcf is a preset");
//! let mut gen = TraceGen::new(spec.clone(), 42);
//! let rec = gen.next_record();
//! assert!(rec.addr % 64 == 0, "addresses are line-aligned");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod presets;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Cacheline size assumed by the generators.
pub const LINE_BYTES: u64 = 64;

/// One trace record: a burst of non-memory instructions followed by one
/// memory access (the USIMM trace format, in spirit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Non-memory instructions retired before this access.
    pub gap: u32,
    /// Whether the access is a write (store) rather than a read (load).
    pub is_write: bool,
    /// Line-aligned physical address.
    pub addr: u64,
    /// True when the access depends on the previous load's value
    /// (pointer chasing): the core cannot issue it until that load returns.
    pub dependent: bool,
}

/// Spatial access pattern of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Sequential streaming through the footprint (e.g. libquantum, lbm).
    Streaming {
        /// Stride between consecutive accesses in bytes.
        stride: u64,
    },
    /// Random block accesses over the footprint (e.g. omnetpp).
    ///
    /// Real irregular workloads show *spatial* locality (objects span
    /// several cachelines — `cluster` consecutive lines per visited block)
    /// and *temporal* locality (a hot working set): with probability
    /// `hot_fraction` the block is drawn from the first `hot_bytes` of the
    /// footprint, else uniformly from the whole footprint. The hot-set
    /// size is what positions a workload in the cache hierarchy: its
    /// *counter* working set (`hot_bytes / 8`) against the 128 KB
    /// dedicated metadata cache and the 8 MB LLC decides the SGX vs SGX_O
    /// vs Synergy behaviour.
    Random {
        /// Consecutive lines touched per visited block.
        cluster: u64,
        /// Probability of hitting the hot working set.
        hot_fraction: f64,
        /// Size of the hot working set in bytes.
        hot_bytes: u64,
    },
    /// Dependent random traversal — each block's first load feeds the next
    /// block address (e.g. mcf). Same locality knobs as [`Self::Random`].
    PointerChase {
        /// Consecutive lines touched per visited node.
        cluster: u64,
        /// Probability of hitting the hot working set.
        hot_fraction: f64,
        /// Size of the hot working set in bytes.
        hot_bytes: u64,
    },
    /// Graph-kernel mix: streaming edge scans interleaved with vertex
    /// accesses over a two-tier vertex popularity model (GAP pr/cc/bc).
    ///
    /// Vertex accesses hit a small *core* of super-hot vertices (the
    /// highest-degree hubs — this is what the LLC keeps resident) with
    /// probability `core_fraction`, a larger warm tier of `hot_bytes` with
    /// probability `hot_fraction`, and the uniform tail otherwise. The
    /// `*-web` datasets get a warm tier far beyond the LLC: under SGX_O
    /// its counter stream floods the LLC and evicts the core vertices —
    /// Figure 8's anomaly.
    Graph {
        /// Fraction of accesses that are streaming edge-list reads.
        stream_fraction: f64,
        /// Probability a vertex access hits the super-hot core.
        core_fraction: f64,
        /// Size of the super-hot vertex core in bytes.
        core_bytes: u64,
        /// Probability a vertex access hits the warm tier.
        hot_fraction: f64,
        /// Size of the warm vertex tier in bytes.
        hot_bytes: u64,
    },
}

/// Full parameterization of one synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name (the paper's benchmark name).
    pub name: &'static str,
    /// Suite for grouping results, as in Figure 8.
    pub suite: Suite,
    /// Memory accesses per 1000 instructions (LLC-miss traffic intensity).
    pub apki: f64,
    /// Fraction of accesses that are reads.
    pub read_fraction: f64,
    /// Touched memory footprint in bytes.
    pub footprint_bytes: u64,
    /// Spatial pattern.
    pub pattern: AccessPattern,
}

/// Benchmark suite tags used for the grouped geometric means in Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// SPEC2006 integer.
    SpecInt,
    /// SPEC2006 floating point.
    SpecFp,
    /// GAP graph kernels.
    Gap,
    /// 4-benchmark mixed workloads.
    Mix,
}

impl core::fmt::Display for Suite {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            Suite::SpecInt => "SPECint",
            Suite::SpecFp => "SPECfp",
            Suite::Gap => "GAP",
            Suite::Mix => "MIX",
        };
        f.write_str(s)
    }
}

/// A deterministic, infinite trace generator for one workload on one core.
#[derive(Debug, Clone)]
pub struct TraceGen {
    spec: WorkloadSpec,
    rng: StdRng,
    /// Exclusive upper bound of a record's gap, `2·max(1000/apki, 1)`.
    gap_bound: f64,
    /// Probability that a record is a write, `1 - read_fraction`.
    write_fraction: f64,
    /// Footprint in lines ([`WorkloadSpec::footprint_lines`]).
    lines: u64,
    /// The spec's access pattern with every per-record constant resolved.
    draw: Draw,
    /// Current position for streaming patterns, below `lines`.
    stream_pos: u64,
    /// Next line within the current random/pointer-chase block.
    burst_pos: u64,
    /// Lines remaining in the current block.
    burst_left: u64,
    /// Base address offset (so rate-mode copies don't share data).
    base: u64,
}

/// An [`AccessPattern`] resolved against a footprint of `lines` lines:
/// line counts clamped to `1..=lines`, probabilities to `[0, 1]` where
/// the pattern clamps them, and the stream step reduced below `lines`,
/// so a stream position plus its step stays below `2·lines`.
#[derive(Debug, Clone, Copy)]
enum Draw {
    Streaming {
        step: u64,
    },
    /// [`AccessPattern::Random`], or [`AccessPattern::PointerChase`]
    /// when `chase`: blocks of `cluster` lines.
    Block {
        cluster: u64,
        hot: HotSet,
        chase: bool,
    },
    Graph {
        stream_fraction: f64,
        core_fraction: f64,
        core_lines: u64,
        hot: HotSet,
    },
}

/// A hot working set: its first `lines` lines, drawn from with
/// probability `fraction`.
#[derive(Debug, Clone, Copy)]
struct HotSet {
    fraction: f64,
    lines: u64,
}

impl HotSet {
    fn new(fraction: f64, bytes: u64, lines: u64) -> Self {
        Self { fraction: fraction.clamp(0.0, 1.0), lines: (bytes / LINE_BYTES).clamp(1, lines) }
    }
}

impl Draw {
    fn new(pattern: AccessPattern, lines: u64) -> Self {
        let block = |cluster: u64, hot_fraction, hot_bytes, chase| Draw::Block {
            cluster: cluster.max(1).min(lines),
            hot: HotSet::new(hot_fraction, hot_bytes, lines),
            chase,
        };
        match pattern {
            AccessPattern::Streaming { stride } => {
                Draw::Streaming { step: (stride / LINE_BYTES).max(1) % lines }
            }
            AccessPattern::Random { cluster, hot_fraction, hot_bytes } => {
                block(cluster, hot_fraction, hot_bytes, false)
            }
            AccessPattern::PointerChase { cluster, hot_fraction, hot_bytes } => {
                block(cluster, hot_fraction, hot_bytes, true)
            }
            AccessPattern::Graph {
                stream_fraction,
                core_fraction,
                core_bytes,
                hot_fraction,
                hot_bytes,
            } => Draw::Graph {
                stream_fraction,
                core_fraction: core_fraction.clamp(0.0, 1.0),
                core_lines: (core_bytes / LINE_BYTES).clamp(1, lines),
                hot: HotSet::new(hot_fraction, hot_bytes, lines),
            },
        }
    }
}

/// `x % m` for `x < 2·m`.
fn wrap(x: u64, m: u64) -> u64 {
    debug_assert!(x / m < 2, "{x} is not below twice {m}");
    if x >= m {
        x - m
    } else {
        x
    }
}

impl TraceGen {
    /// Creates a generator with a deterministic seed.
    pub fn new(spec: WorkloadSpec, seed: u64) -> Self {
        Self::with_base(spec, seed, 0)
    }

    /// Creates a generator whose addresses are offset by `base` bytes —
    /// used to give each rate-mode core a private copy of the footprint.
    pub fn with_base(spec: WorkloadSpec, seed: u64, base: u64) -> Self {
        let rng = StdRng::seed_from_u64(seed ^ 0x5DEECE66D);
        let lines = spec.footprint_lines();
        Self {
            gap_bound: 2.0 * (1000.0 / spec.apki).max(1.0),
            write_fraction: 1.0 - spec.read_fraction,
            lines,
            draw: Draw::new(spec.pattern, lines),
            spec,
            rng,
            stream_pos: 0,
            burst_pos: 0,
            burst_left: 0,
            base,
        }
    }

    /// The workload parameterization.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Generates the next trace record.
    pub fn next_record(&mut self) -> TraceRecord {
        // Uniform around the mean keeps intensity exact in expectation
        // without the burstiness of heavy tails (PinPoint slices are
        // similarly smooth at the 1000-instruction scale).
        let gap = self.rng.gen_range(0.0..self.gap_bound) as u32;
        let is_write = self.rng.gen_bool(self.write_fraction);
        let (line, dependent) = self.next_line();
        TraceRecord {
            gap,
            is_write,
            addr: self.base + line * LINE_BYTES,
            dependent: dependent && !is_write,
        }
    }

    fn next_line(&mut self) -> (u64, bool) {
        match self.draw {
            Draw::Streaming { step } => (self.advance_stream(step), false),
            Draw::Block { cluster, hot, chase } => {
                // A pointer chase is *dependent*: the first load of each
                // node (block) is fed by the previous one, so MLP
                // collapses; the node's remaining lines issue in its
                // shadow.
                let fresh = self.advance_block(cluster, hot);
                (self.take_from_block(), chase && fresh)
            }
            Draw::Graph { stream_fraction, core_fraction, core_lines, hot } => {
                if self.rng.gen_bool(stream_fraction) {
                    (self.advance_stream(1), false)
                } else if self.rng.gen_bool(core_fraction) {
                    (self.rng.gen_range(0..core_lines), true)
                } else {
                    // Renormalize: hot_fraction is relative to non-core
                    // vertex accesses.
                    (self.hot_or_cold_line(hot), true)
                }
            }
        }
    }

    /// Returns the stream position and moves it `step` lines on.
    fn advance_stream(&mut self, step: u64) -> u64 {
        let line = self.stream_pos;
        self.stream_pos = wrap(line + step, self.lines);
        line
    }

    /// Starts a new block when the current one is exhausted. Returns true
    /// when a new block was selected.
    fn advance_block(&mut self, cluster: u64, hot: HotSet) -> bool {
        if self.burst_left > 0 {
            return false;
        }
        let first = self.hot_or_cold_line(hot);
        self.burst_pos = (first / cluster) * cluster;
        self.burst_left = cluster;
        true
    }

    /// Draws a line from the hot working set with probability
    /// `hot.fraction`, otherwise uniformly from the whole footprint.
    fn hot_or_cold_line(&mut self, hot: HotSet) -> u64 {
        if self.rng.gen_bool(hot.fraction) {
            self.rng.gen_range(0..hot.lines)
        } else {
            self.rng.gen_range(0..self.lines)
        }
    }

    /// The block's next line: the block starts at or below a line of the
    /// footprint and spans at most `lines` lines, so it ends below
    /// `2·lines`.
    fn take_from_block(&mut self) -> u64 {
        let line = wrap(self.burst_pos, self.lines);
        self.burst_pos += 1;
        self.burst_left -= 1;
        line
    }
}

impl WorkloadSpec {
    /// Footprint in cachelines (at least 1).
    fn footprint_lines(&self) -> u64 {
        (self.footprint_bytes / LINE_BYTES).max(1)
    }
}

/// A 4-core rate-mode (or mixed) workload: one generator per core.
#[derive(Debug, Clone)]
pub struct MultiCoreTrace {
    generators: Vec<TraceGen>,
}

impl MultiCoreTrace {
    /// Rate mode: `cores` copies of the same workload, each on a private
    /// copy of the footprint (as the paper runs SPEC in rate mode).
    pub fn rate_mode(spec: &WorkloadSpec, cores: usize, seed: u64) -> Self {
        let generators = (0..cores)
            .map(|c| {
                // Give each copy a disjoint address region.
                let base = c as u64 * spec.footprint_bytes.next_power_of_two();
                TraceGen::with_base(spec.clone(), seed + c as u64 * 7919, base)
            })
            .collect();
        Self { generators }
    }

    /// Mixed mode: one distinct workload per core.
    pub fn mixed(specs: &[WorkloadSpec], seed: u64) -> Self {
        let mut offset = 0u64;
        let generators = specs
            .iter()
            .enumerate()
            .map(|(c, spec)| {
                let base = offset;
                offset += spec.footprint_bytes.next_power_of_two();
                TraceGen::with_base(spec.clone(), seed + c as u64 * 104729, base)
            })
            .collect();
        Self { generators }
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.generators.len()
    }

    /// Next record for `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn next_record(&mut self, core: usize) -> TraceRecord {
        self.generators[core].next_record()
    }

    /// The per-core workload specs.
    pub fn specs(&self) -> Vec<&WorkloadSpec> {
        self.generators.iter().map(|g| g.spec()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pattern: AccessPattern) -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            suite: Suite::SpecInt,
            apki: 20.0,
            read_fraction: 0.75,
            footprint_bytes: 1 << 20,
            pattern,
        }
    }

    #[test]
    fn determinism_given_seed() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut a = TraceGen::new(s.clone(), 7);
        let mut b = TraceGen::new(s, 7);
        for _ in 0..1000 {
            assert_eq!(a.next_record(), b.next_record());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut a = TraceGen::new(s.clone(), 1);
        let mut b = TraceGen::new(s, 2);
        let same = (0..100).filter(|_| a.next_record() == b.next_record()).count();
        assert!(same < 10);
    }

    #[test]
    fn intensity_matches_apki() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut g = TraceGen::new(s, 3);
        let n = 20_000;
        let total_insts: u64 = (0..n).map(|_| g.next_record().gap as u64 + 1).sum();
        let apki = n as f64 * 1000.0 / total_insts as f64;
        assert!((apki - 20.0).abs() < 1.5, "measured apki {apki}");
    }

    #[test]
    fn read_fraction_respected() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut g = TraceGen::new(s, 4);
        let writes = (0..10_000).filter(|_| g.next_record().is_write).count();
        let frac = writes as f64 / 10_000.0;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn footprint_respected() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut g = TraceGen::new(s.clone(), 5);
        for _ in 0..10_000 {
            let r = g.next_record();
            assert!(r.addr < s.footprint_bytes);
            assert_eq!(r.addr % LINE_BYTES, 0);
        }
    }

    #[test]
    fn streaming_is_sequential() {
        let s = spec(AccessPattern::Streaming { stride: 64 });
        let mut g = TraceGen::new(s, 6);
        let mut prev = None;
        for _ in 0..100 {
            let r = g.next_record();
            if let Some(p) = prev {
                assert_eq!(r.addr, p + 64);
            }
            prev = Some(r.addr);
            assert!(!r.dependent);
        }
    }

    #[test]
    fn pointer_chase_reads_are_dependent() {
        let s = WorkloadSpec {
            read_fraction: 1.0,
            ..spec(AccessPattern::PointerChase { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 })
        };
        let mut g = TraceGen::new(s, 7);
        for _ in 0..100 {
            assert!(g.next_record().dependent);
        }
    }

    #[test]
    fn pointer_chase_cluster_marks_only_block_heads_dependent() {
        let s = WorkloadSpec {
            read_fraction: 1.0,
            ..spec(AccessPattern::PointerChase { cluster: 4, hot_fraction: 0.0, hot_bytes: 0 })
        };
        let mut g = TraceGen::new(s, 7);
        let recs: Vec<_> = (0..40).map(|_| g.next_record()).collect();
        let dependents = recs.iter().filter(|r| r.dependent).count();
        assert_eq!(dependents, 10, "one dependent head per 4-line block");
        // Lines within a block are consecutive.
        assert_eq!(recs[1].addr, recs[0].addr + 64);
        assert_eq!(recs[3].addr, recs[0].addr + 192);
    }

    #[test]
    fn random_cluster_improves_counter_line_reuse() {
        // Counter lines cover 8 consecutive data lines; a cluster of 4
        // guarantees ~4 accesses per counter-line visit.
        let clustered = spec(AccessPattern::Random { cluster: 8, hot_fraction: 0.0, hot_bytes: 0 });
        let mut g = TraceGen::new(clustered, 9);
        use std::collections::HashSet;
        let mut counter_lines = HashSet::new();
        for _ in 0..8000 {
            counter_lines.insert(g.next_record().addr / (64 * 8));
        }
        // 8000 accesses over 8-line blocks → about 1000 counter lines.
        assert!(counter_lines.len() < 1500, "{}", counter_lines.len());
    }

    #[test]
    fn hot_set_concentrates_accesses() {
        // 70% of accesses land in the 64 KB hot head of the 1 MB footprint.
        let hot = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.7, hot_bytes: 64 << 10 });
        let uniform = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let count_hot = |mut g: TraceGen| {
            (0..10_000).filter(|_| g.next_record().addr < (64 << 10)).count()
        };
        let in_hot = count_hot(TraceGen::new(hot, 3));
        let in_uni = count_hot(TraceGen::new(uniform, 3));
        // ~0.7 + 0.3/16 ≈ 0.72 vs 1/16 ≈ 0.0625.
        assert!(in_hot > 6500 && in_hot < 8000, "hot {in_hot}");
        assert!(in_uni < 1000, "uniform {in_uni}");
    }

    #[test]
    fn graph_vertex_accesses_prefer_hot_set() {
        let s = spec(AccessPattern::Graph {
            stream_fraction: 0.0,
            core_fraction: 0.3,
            core_bytes: 8 << 10,
            hot_fraction: 0.8,
            hot_bytes: 64 << 10,
        });
        let mut g = TraceGen::new(s.clone(), 8);
        let mut core = 0;
        let mut hot = 0;
        for _ in 0..20_000 {
            let a = g.next_record().addr;
            if a < (8 << 10) {
                core += 1;
            }
            if a < (64 << 10) {
                hot += 1;
            }
        }
        // core ≈ 0.3 + spillover from the hot tier (8 KB is 1/8 of 64 KB):
        // 0.3 + 0.7·0.8/8 ≈ 0.37; hot ≈ 0.3 + 0.7·(0.8 + 0.2/16) ≈ 0.87.
        assert!(core > 6000 && core < 9000, "core hits {core}");
        assert!(hot > 15_000, "hot-line hits: {hot} / 20000");
    }

    #[test]
    fn rate_mode_cores_use_disjoint_regions() {
        let s = spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 });
        let mut mc = MultiCoreTrace::rate_mode(&s, 4, 9);
        let fp = s.footprint_bytes.next_power_of_two();
        for core in 0..4 {
            for _ in 0..100 {
                let r = mc.next_record(core);
                assert!(r.addr >= core as u64 * fp);
                assert!(r.addr < core as u64 * fp + s.footprint_bytes);
            }
        }
    }

    #[test]
    fn mixed_mode_uses_each_spec() {
        let specs = vec![
            spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 }),
            WorkloadSpec { name: "b", ..spec(AccessPattern::Streaming { stride: 64 }) },
            WorkloadSpec { name: "c", ..spec(AccessPattern::Random { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 }) },
            WorkloadSpec { name: "d", ..spec(AccessPattern::PointerChase { cluster: 1, hot_fraction: 0.0, hot_bytes: 0 }) },
        ];
        let mc = MultiCoreTrace::mixed(&specs, 11);
        assert_eq!(mc.cores(), 4);
        let names: Vec<&str> = mc.specs().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["test", "b", "c", "d"]);
    }
}
