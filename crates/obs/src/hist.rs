//! A log-scaled latency histogram in the HDR-histogram style:
//! power-of-two bucket groups subdivided into linear sub-buckets.
//!
//! Why this shape: latencies span six-plus orders of magnitude (a buffer
//! hit is tens of nanoseconds, an fsync stall is milliseconds), so linear
//! buckets either blur the tail or explode in memory. Power-of-two groups
//! with [`SUB_BUCKETS`] linear sub-buckets each give a fixed **relative**
//! resolution instead: every recorded value lands in a bucket whose width
//! is at most `1/32` (≈3%) of the value, values `0..64` are exact, and the
//! whole table is [`BUCKET_COUNT`] (= 1920) atomic words — about 15 KiB —
//! no matter how many samples are recorded. That bounded footprint is what
//! lets the load harness keep one histogram per client thread instead of
//! one `u64` per batch.
//!
//! Recording is a handful of relaxed atomic adds (no lock, no allocation);
//! merging is exact (bucket-wise addition); `sum` and `max` are tracked
//! exactly on the side, so the mean and the maximum are not quantized —
//! only the interior percentiles are, by ≤3%.
//!
//! Percentiles use the **nearest-rank** definition: the p-th percentile of
//! N samples is the value of the sample at rank `ceil(p·N)` (1-based),
//! computed in integer arithmetic so `p·N` landing exactly on an index is
//! handled without floating-point rounding surprises. The reported value is
//! the containing bucket's upper bound, clamped to the exact observed
//! maximum.

use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per power-of-two group.
const SUB_BITS: u32 = 5;
/// Linear sub-buckets per power-of-two group (32).
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
/// Total buckets covering the whole `u64` range: values `0..64` exactly
/// (two groups), then one 32-bucket group per remaining power of two.
pub const BUCKET_COUNT: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS;

/// The bucket a value lands in. Values below `2 * SUB_BUCKETS` (= 64) map
/// to themselves; above that, the top [`SUB_BITS`]+1 significant bits pick
/// the bucket.
fn bucket_index(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS as u64 {
        value as usize
    } else {
        let top = 63 - value.leading_zeros();
        let group = (top - SUB_BITS + 1) as usize;
        group * SUB_BUCKETS + ((value >> (top - SUB_BITS)) as usize - SUB_BUCKETS)
    }
}

/// The largest value mapping to bucket `index` (inclusive upper bound).
fn bucket_upper(index: usize) -> u64 {
    if index < 2 * SUB_BUCKETS {
        index as u64
    } else {
        let group = index / SUB_BUCKETS;
        let within = (index % SUB_BUCKETS) as u128;
        let shift = (group - 1) as u32;
        let upper = ((within + SUB_BUCKETS as u128 + 1) << shift) - 1;
        upper.min(u64::MAX as u128) as u64
    }
}

/// A lock-free, fixed-memory latency histogram. Record from any number of
/// threads concurrently; snapshot from any thread at any time.
///
/// The unit is the caller's choice (this workspace records nanoseconds for
/// spans and microseconds for batch latencies); the histogram itself is
/// unit-agnostic.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (~15 KiB, allocated once).
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: (0..BUCKET_COUNT).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample: four relaxed atomic RMWs, no lock, no
    /// allocation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Copies the current state out for analysis. Concurrent recording is
    /// fine; the snapshot is then merely a consistent-enough point-in-time
    /// view (bucket totals may trail `count` by in-flight records).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Folds another histogram's counts into this one. Exact: bucket-wise
    /// addition loses nothing relative to recording every sample here.
    pub fn merge_from(&self, other: &LatencyHistogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Records one completed operation against its **scheduled** start time
    /// rather than its actual send time: the coordinated-omission-safe
    /// measurement for open-loop load generation. If the generator fell
    /// behind schedule, the queueing delay it induced is charged to the
    /// request (`completed - scheduled`) instead of being silently dropped
    /// the way closed-loop "measure from actual send" timing drops it.
    /// Saturates at zero if `completed` somehow precedes `scheduled`.
    pub fn record_scheduled(&self, scheduled: u64, completed: u64) {
        self.record(completed.saturating_sub(scheduled));
    }

    /// Folds an owned snapshot's counts into this live histogram (exact,
    /// like [`LatencyHistogram::merge_from`]) — how thread-local
    /// measurements get published into a shared registry histogram.
    pub fn merge_snapshot(&self, snapshot: &HistogramSnapshot) {
        for (mine, &theirs) in self.buckets.iter().zip(snapshot.buckets.iter()) {
            if theirs > 0 {
                mine.fetch_add(theirs, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(snapshot.count, Ordering::Relaxed);
        self.sum.fetch_add(snapshot.sum, Ordering::Relaxed);
        self.max.fetch_max(snapshot.max, Ordering::Relaxed);
    }
}

/// An owned point-in-time copy of a [`LatencyHistogram`], with percentile
/// queries and exact merging.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl HistogramSnapshot {
    /// Reassembles a snapshot from parts previously observed via
    /// [`HistogramSnapshot::buckets`]/`count`/`sum`/`max` — the decode half
    /// of a wire codec. `buckets` may be shorter than [`BUCKET_COUNT`]
    /// (trailing zeros elided, as a sparse encoding produces); anything
    /// longer is truncated to [`BUCKET_COUNT`].
    pub fn from_parts(buckets: Vec<u64>, count: u64, sum: u64, max: u64) -> HistogramSnapshot {
        let mut buckets = buckets;
        buckets.truncate(BUCKET_COUNT);
        HistogramSnapshot {
            buckets,
            count,
            sum,
            max,
        }
    }

    /// The raw per-bucket counts (index → samples in that bucket), for
    /// encoding; may be empty for a default snapshot. Bucket boundaries are
    /// an implementation detail — pair this only with
    /// [`HistogramSnapshot::from_parts`] on the other side.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean (0.0 when empty) — `sum` is tracked outside the buckets,
    /// so the mean is not quantized.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `num/den` quantile (e.g. `percentile(999, 1000)`
    /// for p99.9): the value at 1-based rank `ceil(count · num / den)`,
    /// clamped to rank 1 so tiny quantiles of non-empty data return the
    /// smallest sample. Returns 0 when empty. Exact for values below 64,
    /// within 1/32 above (the bucket's upper bound, capped at the exact
    /// observed max).
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        assert!(den > 0 && num <= den, "quantile must be in [0, 1]");
        if self.count == 0 {
            return 0;
        }
        // Integer ceiling avoids the float-rounding edge cases when
        // count · num / den lands exactly on an index.
        let rank = (self.count as u128 * num as u128)
            .div_ceil(den as u128)
            .max(1);
        let mut cumulative = 0u128;
        for (index, &n) in self.buckets.iter().enumerate() {
            cumulative += n as u128;
            if cumulative >= rank {
                return bucket_upper(index).min(self.max);
            }
        }
        self.max
    }

    /// The median (nearest-rank p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50, 100)
    }

    /// Nearest-rank p95.
    pub fn p95(&self) -> u64 {
        self.percentile(95, 100)
    }

    /// Nearest-rank p99.
    pub fn p99(&self) -> u64 {
        self.percentile(99, 100)
    }

    /// Nearest-rank p99.9.
    pub fn p999(&self) -> u64 {
        self.percentile(999, 1000)
    }

    /// Folds `other` into this snapshot (bucket-wise addition — exact).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, &theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Renders the summary as a JSON object string:
    /// `{"count":…,"sum":…,"max":…,"mean":…,"p50":…,"p95":…,"p99":…,"p999":…}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{:.3},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{}}}",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            self.p50(),
            self.p95(),
            self.p99(),
            self.p999()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..64u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper(v as usize), v);
        }
    }

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps into a bucket whose upper bound is >= the value,
        // and bucket boundaries never regress as values grow. Sample each
        // power-of-two group at its edges and interior.
        let mut samples: Vec<u64> = Vec::new();
        for shift in 0..64u32 {
            let base = 1u64 << shift;
            samples.extend([base, base + base / 2, base + (base - 1)]);
        }
        samples.push(u64::MAX);
        samples.sort_unstable();
        samples.dedup();
        let mut last_index = 0usize;
        for &v in &samples {
            let idx = bucket_index(v);
            assert!(idx >= last_index, "index regressed at {v}");
            assert!(bucket_upper(idx) >= v, "upper bound below value {v}");
            assert!(idx < BUCKET_COUNT);
            last_index = idx;
        }
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
        assert_eq!(bucket_upper(BUCKET_COUNT - 1), u64::MAX);
    }

    #[test]
    fn relative_error_is_bounded_by_one_thirty_second() {
        for &v in &[
            64u64,
            100,
            1_000,
            12_345,
            1 << 20,
            987_654_321,
            u64::MAX / 3,
        ] {
            let upper = bucket_upper(bucket_index(v));
            assert!(upper >= v);
            let error = (upper - v) as f64 / v as f64;
            assert!(error <= 1.0 / 32.0 + 1e-9, "error {error} too large at {v}");
        }
    }

    #[test]
    fn percentiles_of_one_to_one_hundred() {
        let h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), 50);
        assert_eq!(s.p95(), 95);
        assert_eq!(s.p99(), 99);
        assert_eq!(s.p999(), 100);
        assert_eq!(s.max(), 100);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_singleton() {
        let h = LatencyHistogram::new();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p999(), 0);
        assert_eq!(s.mean(), 0.0);
        h.record(7);
        let s = h.snapshot();
        assert_eq!(s.p50(), 7);
        assert_eq!(s.p99(), 7);
        assert_eq!(s.p999(), 7);
        assert_eq!(s.max(), 7);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        let all = LatencyHistogram::new();
        for v in 0..1_000u64 {
            let sample = v * v % 77_777;
            if v % 2 == 0 {
                a.record(sample)
            } else {
                b.record(sample)
            }
            all.record(sample);
        }
        a.merge_from(&b);
        assert_eq!(a.snapshot(), all.snapshot());

        let mut sa = a.snapshot();
        let empty = HistogramSnapshot::default();
        let before = sa.clone();
        sa.merge(&empty);
        assert_eq!(sa, before, "merging an empty snapshot is a no-op");
        let mut se = HistogramSnapshot::default();
        se.merge(&before);
        assert_eq!(se, before, "merging into an empty snapshot copies");
        let live = LatencyHistogram::new();
        live.merge_snapshot(&before);
        assert_eq!(live.snapshot(), before, "snapshot → live merge is exact");
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(LatencyHistogram::new());
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        h.record(t * 1_000 + i % 500);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), 40_000);
    }

    #[test]
    fn exact_rank_landings_use_integer_math() {
        // 10 samples: q=0.5 gives rank exactly 5 → the 5th smallest.
        let h = LatencyHistogram::new();
        for v in 1..=10u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.p50(), 5);
        assert_eq!(s.percentile(1, 10), 1, "p10 of 10 samples is the 1st");
        assert_eq!(s.percentile(0, 1), 1, "p0 clamps to the smallest sample");
        assert_eq!(s.percentile(1, 1), 10);
    }
}
