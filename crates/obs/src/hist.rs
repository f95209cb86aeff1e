//! Log-bucketed latency histograms.
//!
//! [`LogHistogram`] records `u64` values (cycle latencies) into
//! logarithmically spaced buckets: values below 64 get their own exact
//! bucket; above that, each power-of-two octave is split into 64 linear
//! sub-buckets. Bucket width is therefore at most `lo/64`, which bounds the
//! relative error of any reported quantile by 1/64 ≈ 1.6% — inside the 2%
//! budget the experiment harness assumes — while keeping the whole `u64`
//! range representable in at most 3776 buckets.
//!
//! Histograms merge bucket-wise (exactly: merge then query equals
//! concatenate then query), so per-channel or per-workload histograms can
//! be combined into per-design aggregates after the fact.

/// Values below this get one exact bucket each.
const LINEAR_CUTOFF: u64 = 64;
/// Linear sub-buckets per power-of-two octave above the cutoff.
const SUB_BUCKETS: u64 = 64;

/// Index of the bucket holding `v`.
fn bucket_index(v: u64) -> usize {
    if v < LINEAR_CUTOFF {
        v as usize
    } else {
        // Octave m = floor(log2 v) ∈ [6, 63]; sub-bucket from the 6 bits
        // below the leading one.
        let m = 63 - v.leading_zeros() as u64;
        (LINEAR_CUTOFF + (m - 6) * SUB_BUCKETS + ((v >> (m - 6)) - SUB_BUCKETS)) as usize
    }
}

/// Inclusive value range `[lo, hi]` covered by bucket `i`.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i < LINEAR_CUTOFF as usize {
        (i as u64, i as u64)
    } else {
        let oct = (i as u64 - LINEAR_CUTOFF) / SUB_BUCKETS;
        let sub = (i as u64 - LINEAR_CUTOFF) % SUB_BUCKETS;
        let lo = (SUB_BUCKETS + sub) << oct;
        (lo, lo + ((1u64 << oct) - 1))
    }
}

/// Point summary of a histogram, convenient for table rows and export.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// Median (nearest-rank, ≤1.6% relative error).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// A mergeable histogram of `u64` values with ≤1.6% quantile error.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Bucket counts, grown on demand; the last element is always nonzero
    /// (so equal contents compare equal regardless of record order).
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
    }

    /// Merges another histogram into this one. Exact: querying the merge
    /// equals querying a histogram fed both value streams.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (dst, src) in self.counts.iter_mut().zip(other.counts.iter()) {
            *dst += src;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value, exact (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 { 0 } else { self.min }
    }

    /// Largest recorded value, exact (0 when empty).
    pub fn max(&self) -> u64 {
        if self.count == 0 { 0 } else { self.max }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile, `p` in `[0, 100]`.
    ///
    /// The true rank-th value lies in the returned bucket, so the result is
    /// within one bucket width of exact: relative error ≤ 1/64.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= rank {
                let (lo, hi) = bucket_bounds(i);
                let rep = lo + (hi - lo) / 2;
                return rep.clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Count / sum / min / max / mean / p50 / p90 / p99 in one struct.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            mean: self.mean(),
            p50: self.percentile(50.0),
            p90: self.percentile(90.0),
            p99: self.percentile(99.0),
        }
    }

    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts.iter().enumerate().filter(|(_, &c)| c > 0).map(|(i, &c)| {
            let (lo, hi) = bucket_bounds(i);
            (lo, hi, c)
        })
    }

    /// Lossless JSON snapshot:
    /// `{"count":..,"sum":..,"min":..,"max":..,"buckets":[[index,count],..]}`.
    ///
    /// Values survive the JSON `f64` round-trip exactly up to 2^53, and
    /// [`LogHistogram::from_snapshot`] rejects anything larger — far
    /// beyond any checkpointed campaign or fleet aggregate.
    ///
    /// Unlike [`crate::export::histogram_to_json`] (a human-oriented
    /// summary), this preserves the internal state exactly — a histogram
    /// rebuilt by [`LogHistogram::from_snapshot`] compares `==` to the
    /// original. Checkpoint/resume machinery (the `synergy-campaign` job
    /// fabric) depends on that bit-identity.
    pub fn snapshot_json(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("[{i},{c}]"))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum,
            self.min(),
            self.max(),
            buckets.join(",")
        )
    }

    /// Rebuilds a histogram from a [`snapshot_json`](Self::snapshot_json)
    /// document parsed with [`crate::json::Json`]. Exact inverse: the
    /// result is `==` to the snapshotted histogram. A document no
    /// histogram could have produced (a bucket index past the `u64`
    /// range, bucket counts that do not add up to `count`, `min > max`)
    /// is an error, so a corrupted checkpoint never yields a histogram
    /// whose queries panic.
    ///
    /// Every number (`count`, `sum`, `min`, `max`, each bucket index and
    /// count) is read with [`crate::json::Json::as_u64`]: a negative,
    /// fractional or non-numeric value is an error naming the field,
    /// never coerced. So is any value above 2^53, including a `sum` that
    /// large, because JSON numbers are exact only up to there.
    pub fn from_snapshot(json: &crate::json::Json) -> Result<Self, String> {
        let exact = |v: Option<&crate::json::Json>, what: &str| -> Result<u64, String> {
            v.and_then(crate::json::Json::as_u64).ok_or_else(|| {
                format!("histogram snapshot: {what} is not an integer in [0, 2^53]")
            })
        };
        let field = |k: &str| exact(json.get(k), &format!("'{k}'"));
        let (count, sum, min, max) = (field("count")?, field("sum")?, field("min")?, field("max")?);
        if count == 0 {
            return Ok(Self::new());
        }
        let mut h = Self { counts: Vec::new(), count, sum, min, max };
        let buckets = json
            .get("buckets")
            .and_then(|v| v.as_array())
            .ok_or("histogram snapshot: missing 'buckets' array")?;
        for b in buckets {
            let pair = b.as_array().filter(|p| p.len() == 2);
            let (idx, c) = match pair {
                Some(p) => (
                    exact(Some(&p[0]), "bucket index")?,
                    exact(Some(&p[1]), "bucket count")?,
                ),
                None => return Err("histogram snapshot: bucket is not [index,count]".into()),
            };
            if idx > bucket_index(u64::MAX) as u64 {
                return Err(format!("histogram snapshot: bucket index {idx} out of range"));
            }
            let idx = idx as usize;
            if idx >= h.counts.len() {
                h.counts.resize(idx + 1, 0);
            }
            h.counts[idx] = c;
        }
        if h.counts.last() == Some(&0) {
            return Err("histogram snapshot: trailing empty bucket".into());
        }
        let total = h.counts.iter().try_fold(0u64, |sum, &c| sum.checked_add(c));
        if total != Some(count) {
            return Err("histogram snapshot: bucket counts do not add up to 'count'".into());
        }
        if h.min > h.max {
            return Err("histogram snapshot: 'min' exceeds 'max'".into());
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Reference: exact nearest-rank percentile over a sorted copy.
    fn oracle(values: &[u64], p: f64) -> u64 {
        let mut s = values.to_vec();
        s.sort_unstable();
        let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
        s[rank.clamp(1, s.len()) - 1]
    }

    fn within_two_percent(approx: u64, exact: u64) -> bool {
        let diff = approx.abs_diff(exact);
        // 1/64 bucket-width bound, with +1 slack for integer midpoints.
        diff <= exact / 50 + 1
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..64 {
            h.record(v);
        }
        for p in [1.0, 25.0, 50.0, 75.0, 100.0] {
            let vals: Vec<u64> = (0..64).collect();
            assert_eq!(h.percentile(p), oracle(&vals, p), "p{p}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.count(), 64);
    }

    #[test]
    fn bucket_roundtrip_bounds() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_index(v));
            assert!(lo <= v && v <= hi, "v={v} not in [{lo},{hi}]");
            assert!(hi - lo <= lo / 64 + 1, "bucket too wide at {v}");
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LogHistogram::new();
        a.record(100);
        a.record(5);
        let before = a.clone();
        a.merge(&LogHistogram::new());
        assert_eq!(a, before);
        let mut e = LogHistogram::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(777, 5);
        for _ in 0..5 {
            b.record(777);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_round_trips_empty() {
        let h = LogHistogram::new();
        let doc = crate::json::Json::parse(&h.snapshot_json()).unwrap();
        assert_eq!(LogHistogram::from_snapshot(&doc).unwrap(), h);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn snapshot_round_trips_exactly(
            values in proptest::collection::vec(0u64..2_000_000, 0..200),
        ) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let doc = crate::json::Json::parse(&h.snapshot_json()).unwrap();
            let back = LogHistogram::from_snapshot(&doc).unwrap();
            prop_assert_eq!(back, h);
        }

        /// Every prefix and every single-byte mutation of a snapshot
        /// parses and rebuilds to `Ok` or `Err`, and a rebuilt histogram
        /// answers queries: nothing panics.
        #[test]
        fn truncated_or_mutated_snapshots_never_panic(
            values in proptest::collection::vec(
                prop_oneof![0u64..100, 0u64..100_000, 0u64..1 << 40],
                0..24,
            ),
        ) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let text = h.snapshot_json();
            let rebuild = |doc: &str| {
                if let Ok(json) = crate::json::Json::parse(doc) {
                    if let Ok(back) = LogHistogram::from_snapshot(&json) {
                        back.summary();
                        back.nonzero_buckets().count();
                    }
                }
            };
            for end in 0..text.len() {
                rebuild(&text[..end]);
            }
            let mut bytes = text.clone().into_bytes();
            for i in 0..bytes.len() {
                let original = bytes[i];
                for &b in b"0123456789eE+-.,:[]{}\"\\ an" {
                    bytes[i] = b;
                    rebuild(std::str::from_utf8(&bytes).expect("ASCII"));
                }
                bytes[i] = original;
            }
        }

        #[test]
        fn percentiles_within_bound_of_oracle(
            values in proptest::collection::vec(1u64..1_000_000, 1..300),
            p in 0.0f64..=100.0,
        ) {
            let mut h = LogHistogram::new();
            for &v in &values {
                h.record(v);
            }
            let approx = h.percentile(p);
            let exact = oracle(&values, p);
            prop_assert!(
                within_two_percent(approx, exact),
                "p{}: approx {} vs exact {}", p, approx, exact
            );
            prop_assert_eq!(h.min(), *values.iter().min().unwrap());
            prop_assert_eq!(h.max(), *values.iter().max().unwrap());
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
        }

        #[test]
        fn merge_is_associative_and_matches_concatenation(
            xs in proptest::collection::vec(1u64..1_000_000, 0..80),
            ys in proptest::collection::vec(1u64..1_000_000, 0..80),
            zs in proptest::collection::vec(1u64..1_000_000, 0..80),
        ) {
            let mk = |vals: &[u64]| {
                let mut h = LogHistogram::new();
                for &v in vals {
                    h.record(v);
                }
                h
            };
            let (a, b, c) = (mk(&xs), mk(&ys), mk(&zs));

            // (a ⊕ b) ⊕ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ⊕ (b ⊕ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            prop_assert_eq!(&left, &right);

            // Merge equals one histogram over the concatenated stream.
            let mut all = xs.clone();
            all.extend_from_slice(&ys);
            all.extend_from_slice(&zs);
            prop_assert_eq!(&left, &mk(&all));

            // Commutativity.
            let mut ba = b.clone();
            ba.merge(&a);
            let mut ab = a.clone();
            ab.merge(&b);
            prop_assert_eq!(ab, ba);
        }
    }
}
