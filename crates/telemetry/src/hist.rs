//! Fixed-bucket atomic histograms.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::shard::Add;

/// Number of buckets in every histogram: bucket 0 holds zeros, bucket
/// `i >= 1` holds values in `[2^(i-1), 2^i)`, so the full `u64` range
/// is covered.
pub const BUCKETS: usize = 65;

/// Returns the bucket a value falls into.
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Returns the exclusive upper bound of a bucket (`u64::MAX` for the
/// last bucket, which closes the range).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        1
    } else if index >= 64 {
        u64::MAX
    } else {
        1u64 << index
    }
}

/// Nearest-rank position of the `q`-quantile (`q` in `[0, 1]`) in a
/// sorted sample of `count` observations: the 1-based rank
/// `ceil(q * count)`, clamped into `[1, count]`. Returns 0 when the
/// sample is empty. This is the one definition of "percentile" shared
/// by [`HistogramSnapshot::quantile`], the traffic harness's sorted
/// per-request latencies, and the windowed time-series path, so all
/// three report the same statistic.
pub fn nearest_rank(count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let q = q.clamp(0.0, 1.0);
    ((q * count as f64).ceil() as u64).clamp(1, count)
}

/// A lock-free histogram over power-of-two buckets.
///
/// Recording adds to the bucket, the count and the sum, each the way
/// the caller's [`Add`] says: a plain load and store on a per-thread
/// shard, so it is cheap enough for per-call paths. The bucketing is
/// exact for counts and approximate (factor-of-two) for the
/// distribution shape, which is what the evaluation needs: orders of
/// magnitude, not microsecond precision.
#[derive(Debug)]
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation, writing as `add` says (see
    /// [`crate::shard`]).
    #[inline]
    pub fn record(&self, value: u64, add: Add) {
        add.to(&self.buckets[bucket_index(value)], 1);
        add.to(&self.count, 1);
        add.to(&self.sum, value);
    }

    /// Freezes the current contents.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *out = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A frozen histogram: per-bucket counts plus totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per bucket (see [`bucket_index`]).
    pub buckets: [u64; BUCKETS],
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (wrapping at `u64::MAX`).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Returns whether no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Adds another snapshot's observations into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }

    /// Approximate `q`-quantile (`q` in `[0, 1]`): the exclusive upper
    /// bound of the bucket holding the `ceil(q * count)`-th smallest
    /// observation. Resolution is therefore a factor of two, which is
    /// all the power-of-two bucketing can promise. Returns 0 when the
    /// snapshot is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let rank = nearest_rank(self.count, q);
        if rank == 0 {
            return 0;
        }
        let mut seen = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return bucket_upper_bound(index);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }

    /// Returns the observations recorded since `earlier` was taken,
    /// assuming `earlier` is a prefix of this snapshot (same histogram,
    /// snapshotted earlier). Subtraction saturates bucket-wise so a
    /// racy pair of snapshots degrades to undercounting instead of
    /// wrapping.
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (out, (now, old)) in buckets.iter_mut().zip(self.buckets.iter().zip(&earlier.buckets)) {
            *out = now.saturating_sub(*old);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.wrapping_sub(earlier.sum),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_its_own_bucket() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
    }

    #[test]
    fn buckets_are_half_open_power_of_two_ranges() {
        for i in 1..64 {
            let lo = 1u64 << (i - 1);
            let hi = 1u64 << i;
            assert_eq!(bucket_index(lo), i, "lower edge of bucket {i}");
            assert_eq!(bucket_index(hi - 1), i, "upper edge of bucket {i}");
            assert_eq!(bucket_index(hi), i + 1, "first value of bucket {}", i + 1);
        }
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn upper_bounds_cover_their_bucket() {
        for value in [0u64, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX / 2, u64::MAX] {
            let idx = bucket_index(value);
            assert!(
                value < bucket_upper_bound(idx) || idx == 64,
                "value {value} outside bucket {idx}"
            );
            if idx > 0 {
                assert!(value >= bucket_upper_bound(idx - 1) || idx == 1);
            }
        }
    }

    #[test]
    fn record_updates_count_sum_and_bucket() {
        let h = AtomicHistogram::new();
        h.record(0, Add::Owned);
        h.record(5, Add::Owned);
        h.record(5, Add::Owned);
        h.record(1 << 20, Add::Owned);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum, 10 + (1 << 20));
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[bucket_index(5)], 2);
        assert_eq!(snap.buckets[21], 1);
    }

    #[test]
    fn merge_adds_bucketwise() {
        let a = AtomicHistogram::new();
        let b = AtomicHistogram::new();
        a.record(3, Add::Owned);
        a.record(100, Add::Owned);
        b.record(3, Add::Owned);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.sum, 106);
        assert_eq!(merged.buckets[bucket_index(3)], 2);
        assert_eq!(merged.buckets[bucket_index(100)], 1);
    }

    #[test]
    fn quantile_returns_bucket_upper_bounds() {
        let h = AtomicHistogram::new();
        for v in [3u64, 3, 3, 3, 3, 3, 3, 3, 3, 1000] {
            h.record(v, Add::Owned);
        }
        let snap = h.snapshot();
        // 3 lands in [2, 4); nine of ten samples are there.
        assert_eq!(snap.quantile(0.5), 4);
        assert_eq!(snap.quantile(0.9), 4);
        // 1000 lands in [512, 1024); only the max reaches it.
        assert_eq!(snap.quantile(1.0), 1024);
        assert_eq!(snap.quantile(0.0), 4, "q=0 is the first observation's bucket");
    }

    #[test]
    fn nearest_rank_matches_the_classic_definition() {
        assert_eq!(nearest_rank(0, 0.95), 0, "empty sample has no rank");
        assert_eq!(nearest_rank(10, 0.0), 1, "q=0 clamps to the minimum");
        assert_eq!(nearest_rank(10, 0.5), 5);
        assert_eq!(nearest_rank(10, 0.95), 10);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(3, 2.0), 3, "q clamps into [0, 1]");
        assert_eq!(nearest_rank(100, 0.501), 51);
    }

    #[test]
    fn quantile_of_empty_is_zero() {
        assert_eq!(HistogramSnapshot::default().quantile(0.95), 0);
    }

    #[test]
    fn diff_recovers_the_window() {
        let h = AtomicHistogram::new();
        h.record(5, Add::Owned);
        h.record(20, Add::Owned);
        let earlier = h.snapshot();
        h.record(5, Add::Owned);
        h.record(4096, Add::Owned);
        let window = h.snapshot().diff(&earlier);
        assert_eq!(window.count, 2);
        assert_eq!(window.sum, 5 + 4096);
        assert_eq!(window.buckets[bucket_index(5)], 1);
        assert_eq!(window.buckets[bucket_index(4096)], 1);
        assert_eq!(window.buckets[bucket_index(20)], 0);
    }

    #[test]
    fn diff_saturates_instead_of_wrapping() {
        let a = HistogramSnapshot::default();
        let mut b = HistogramSnapshot::default();
        b.buckets[3] = 2;
        b.count = 2;
        let window = a.diff(&b);
        assert_eq!(window.count, 0);
        assert!(window.buckets.iter().all(|&c| c == 0));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(AtomicHistogram::new());
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i, Add::Shared);
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.snapshot().count, 4000);
    }
}
