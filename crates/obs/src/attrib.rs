//! Cycle-attribution accounting.
//!
//! Every simulated cycle of request latency is attributed to exactly one
//! [`AttribBucket`], accumulated per request class (data / counter / tree /
//! mac / parity). The invariant that makes the numbers trustworthy is
//! *conservation*: for every closed request, the sum of the bucket
//! increments closed with it equals its end-to-end latency, so
//! [`CycleAttribution::total_cycles`] always equals
//! [`CycleAttribution::check_cycles`]. [`CycleAttribution::verify`] checks
//! this independently of how callers decomposed each request.
//!
//! The accounting is event-driven — it only consumes timestamps already
//! produced by the memory system (enqueue, bank-ready, issue, completion),
//! never per-cycle polling, so it is invisible to the event-horizon
//! fast-forward path and costs O(1) per request.

use crate::registry::{metric_name, MetricRegistry, Observe};

/// Where a cycle of request latency went.
///
/// Core compute and private-cache hits are outside the trace-driven model
/// boundary (they are absorbed into the trace's inter-request instruction
/// gaps), so the taxonomy starts at the shared LLC. Metadata-cache misses,
/// integrity-tree walks and parity reconstruction are distinguished by the
/// *request class* axis of [`CycleAttribution`], not by extra buckets: a
/// tree-walk cycle is a cycle in any bucket of the `tree` class row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AttribBucket {
    /// Fixed-latency shared-LLC hit service.
    LlcHit,
    /// Waiting in the engine backpressure queue or the channel command
    /// queue while other requests are scheduled ahead (FR-FCFS).
    QueueWait,
    /// Waiting for the bank to open the right row (precharge + activate
    /// serialization), excluding cycles the rank was locked by refresh.
    BankBusy,
    /// Waiting out a refresh window (`t_rfc` after each `t_refi` tick)
    /// that overlapped the bank wait.
    RefreshStall,
    /// Column access + data burst on the bus (`t_cas + t_burst`).
    BusTransfer,
    /// Modeled cryptographic latency: the degraded-mode diagnosis burst
    /// (≤9 MAC recomputations, §III-B) priced at `mac_latency` each.
    CryptoWork,
}

impl AttribBucket {
    /// Number of buckets (array dimension for per-class cells).
    pub const COUNT: usize = 6;

    /// Every bucket, in display order.
    pub const ALL: [AttribBucket; AttribBucket::COUNT] = [
        AttribBucket::LlcHit,
        AttribBucket::QueueWait,
        AttribBucket::BankBusy,
        AttribBucket::RefreshStall,
        AttribBucket::BusTransfer,
        AttribBucket::CryptoWork,
    ];

    /// Dense index, matching the position in [`AttribBucket::ALL`].
    pub fn index(self) -> usize {
        match self {
            AttribBucket::LlcHit => 0,
            AttribBucket::QueueWait => 1,
            AttribBucket::BankBusy => 2,
            AttribBucket::RefreshStall => 3,
            AttribBucket::BusTransfer => 4,
            AttribBucket::CryptoWork => 5,
        }
    }

    /// Stable snake_case name used in metric keys and CSV headers.
    pub const fn name(self) -> &'static str {
        match self {
            AttribBucket::LlcHit => "llc_hit",
            AttribBucket::QueueWait => "queue_wait",
            AttribBucket::BankBusy => "bank_busy",
            AttribBucket::RefreshStall => "refresh_stall",
            AttribBucket::BusTransfer => "bus_transfer",
            AttribBucket::CryptoWork => "crypto_work",
        }
    }
}

/// Per-class × per-bucket cycle accumulator with a conservation check.
///
/// [`CycleAttribution::close_request`] deposits one request's cycles into
/// cells and declares its end-to-end latency. When every request's
/// deposits sum to its declared latency, `total_cycles() ==
/// check_cycles()` and [`CycleAttribution::verify`] passes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CycleAttribution {
    classes: Vec<&'static str>,
    cells: Vec<[u64; AttribBucket::COUNT]>,
    requests: Vec<u64>,
    check_cycles: u64,
}

impl CycleAttribution {
    /// A new accumulator with one row per request class label.
    pub fn new(classes: &[&'static str]) -> Self {
        CycleAttribution {
            classes: classes.to_vec(),
            cells: vec![[0; AttribBucket::COUNT]; classes.len()],
            requests: vec![0; classes.len()],
            check_cycles: 0,
        }
    }

    /// True when constructed via `default()` with no class rows.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class labels, in row order.
    pub fn classes(&self) -> &[&'static str] {
        &self.classes
    }

    /// Close a finished request of `class`: deposit each `(bucket,
    /// cycles)` into its cell and declare the end-to-end latency. The
    /// deposits must sum to exactly `end_to_end` for the conservation
    /// check to hold.
    pub fn close_request(&mut self, class: usize, cycles: &[(AttribBucket, u64)], end_to_end: u64) {
        for &(bucket, c) in cycles {
            self.cells[class][bucket.index()] += c;
        }
        self.requests[class] += 1;
        self.check_cycles += end_to_end;
    }

    /// Cycles in one (`class`, `bucket`) cell.
    pub fn cell(&self, class: usize, bucket: AttribBucket) -> u64 {
        self.cells[class][bucket.index()]
    }

    /// Cycles in a bucket, summed over classes.
    pub fn bucket_cycles(&self, bucket: AttribBucket) -> u64 {
        self.cells.iter().map(|row| row[bucket.index()]).sum()
    }

    /// Cycles in a class, summed over buckets.
    pub fn class_cycles(&self, class: usize) -> u64 {
        self.cells[class].iter().sum()
    }

    /// Total attributed cycles over all cells.
    pub fn total_cycles(&self) -> u64 {
        self.cells.iter().flatten().sum()
    }

    /// Total end-to-end latency declared via [`CycleAttribution::close_request`].
    pub fn check_cycles(&self) -> u64 {
        self.check_cycles
    }

    /// Total requests closed.
    pub fn total_requests(&self) -> u64 {
        self.requests.iter().sum()
    }

    /// A bucket's share of all attributed cycles, in `[0, 1]` (0 when no
    /// cycles have been attributed yet).
    pub fn share(&self, bucket: AttribBucket) -> f64 {
        let total = self.total_cycles();
        if total == 0 {
            0.0
        } else {
            self.bucket_cycles(bucket) as f64 / total as f64
        }
    }

    /// The conservation invariant: every attributed cycle came from a
    /// closed request and vice versa. Zero tolerance.
    pub fn verify(&self) -> Result<(), String> {
        let total = self.total_cycles();
        if total == self.check_cycles {
            Ok(())
        } else {
            Err(format!(
                "attribution not conserved: {} bucket cycles vs {} end-to-end cycles \
                 over {} requests (diff {})",
                total,
                self.check_cycles,
                self.total_requests(),
                total.abs_diff(self.check_cycles)
            ))
        }
    }

    /// Fold another accumulator into this one. An empty side adopts the
    /// other's class rows; otherwise the labels must match.
    pub fn merge(&mut self, other: &CycleAttribution) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.classes, other.classes, "merging attributions with different classes");
        for (mine, theirs) in self.cells.iter_mut().zip(&other.cells) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                *m += *t;
            }
        }
        for (m, t) in self.requests.iter_mut().zip(&other.requests) {
            *m += *t;
        }
        self.check_cycles += other.check_cycles;
    }

    /// Render the class × bucket matrix as CSV with marginal totals.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("class");
        for b in AttribBucket::ALL {
            out.push(',');
            out.push_str(b.name());
        }
        out.push_str(",total,requests\n");
        for (i, class) in self.classes.iter().enumerate() {
            out.push_str(class);
            for b in AttribBucket::ALL {
                out.push_str(&format!(",{}", self.cell(i, b)));
            }
            out.push_str(&format!(",{},{}\n", self.class_cycles(i), self.requests[i]));
        }
        out.push_str("TOTAL");
        for b in AttribBucket::ALL {
            out.push_str(&format!(",{}", self.bucket_cycles(b)));
        }
        out.push_str(&format!(",{},{}\n", self.total_cycles(), self.total_requests()));
        out
    }
}

impl Observe for CycleAttribution {
    /// Publish counters `attrib.cycles.<class>.<bucket>`, the marginals
    /// `attrib.cycles.<bucket>` and `attrib.requests.<class>`, the
    /// conservation pair `attrib.total_cycles` / `attrib.check_cycles`,
    /// and `attrib.share.<bucket>` gauges. Emits nothing when empty.
    fn observe(&self, prefix: &str, registry: &mut MetricRegistry) {
        if self.is_empty() {
            return;
        }
        for (i, class) in self.classes.iter().enumerate() {
            for b in AttribBucket::ALL {
                registry.set_counter(
                    &metric_name(prefix, &format!("cycles.{class}.{}", b.name())),
                    self.cell(i, b),
                );
            }
            registry
                .set_counter(&metric_name(prefix, &format!("requests.{class}")), self.requests[i]);
        }
        for b in AttribBucket::ALL {
            registry.set_counter(
                &metric_name(prefix, &format!("cycles.{}", b.name())),
                self.bucket_cycles(b),
            );
            registry.set_gauge(&metric_name(prefix, &format!("share.{}", b.name())), self.share(b));
        }
        registry.set_counter(&metric_name(prefix, "total_cycles"), self.total_cycles());
        registry.set_counter(&metric_name(prefix, "check_cycles"), self.check_cycles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CycleAttribution {
        use AttribBucket::*;
        let mut a = CycleAttribution::new(&["data", "counter"]);
        a.close_request(0, &[(QueueWait, 10), (BusTransfer, 15)], 25);
        a.close_request(1, &[(BankBusy, 7), (RefreshStall, 3)], 10);
        a
    }

    #[test]
    fn conservation_holds_when_segments_telescope() {
        let a = sample();
        assert_eq!(a.total_cycles(), 35);
        assert_eq!(a.check_cycles(), 35);
        assert_eq!(a.total_requests(), 2);
        a.verify().unwrap();
    }

    #[test]
    fn conservation_catches_lost_cycles() {
        let mut a = sample();
        a.close_request(0, &[], 1); // declared latency with no matching deposit
        let err = a.verify().unwrap_err();
        assert!(err.contains("diff 1"), "{err}");
    }

    #[test]
    fn marginals_and_shares() {
        let a = sample();
        assert_eq!(a.bucket_cycles(AttribBucket::QueueWait), 10);
        assert_eq!(a.class_cycles(1), 10);
        assert_eq!(a.cell(0, AttribBucket::BusTransfer), 15);
        assert!((a.share(AttribBucket::QueueWait) - 10.0 / 35.0).abs() < 1e-12);
        assert_eq!(a.share(AttribBucket::LlcHit), 0.0);
    }

    #[test]
    fn merge_accumulates_and_adopts() {
        let mut empty = CycleAttribution::default();
        empty.merge(&sample());
        assert_eq!(empty, sample());

        let mut a = sample();
        a.merge(&sample());
        assert_eq!(a.total_cycles(), 70);
        assert_eq!(a.total_requests(), 4);
        a.verify().unwrap();

        // Merging an empty side is a no-op.
        a.merge(&CycleAttribution::default());
        assert_eq!(a.total_cycles(), 70);
    }

    #[test]
    fn observe_publishes_cells_marginals_and_shares() {
        let mut reg = MetricRegistry::new();
        sample().observe("attrib", &mut reg);
        assert_eq!(reg.counter("attrib.cycles.data.queue_wait"), Some(10));
        assert_eq!(reg.counter("attrib.cycles.queue_wait"), Some(10));
        assert_eq!(reg.counter("attrib.requests.counter"), Some(1));
        assert_eq!(reg.counter("attrib.total_cycles"), Some(35));
        assert_eq!(reg.counter("attrib.check_cycles"), Some(35));
        let share = reg.gauge("attrib.share.bus_transfer").unwrap();
        assert!((share - 15.0 / 35.0).abs() < 1e-12);

        // Empty attributions stay silent so unrelated registries are not
        // polluted with all-zero rows.
        let mut reg2 = MetricRegistry::new();
        CycleAttribution::default().observe("attrib", &mut reg2);
        assert!(reg2.is_empty());
    }

    #[test]
    fn csv_matrix_has_marginal_totals() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "class,llc_hit,queue_wait,bank_busy,refresh_stall,bus_transfer,crypto_work,total,requests"
        );
        assert_eq!(lines[1], "data,0,10,0,0,15,0,25,1");
        assert_eq!(lines[2], "counter,0,0,7,3,0,0,10,1");
        assert_eq!(lines[3], "TOTAL,0,10,7,3,15,0,35,2");
    }
}
