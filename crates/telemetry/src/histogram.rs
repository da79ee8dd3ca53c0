//! Fixed-bucket latency histogram with wait-free recording.
//!
//! Buckets are powers of two in microseconds (1us .. ~1.05s) plus an
//! overflow bucket, so bucket selection is branch-light and the layout
//! is identical for every histogram — snapshots and the Prometheus
//! renderer never need per-histogram bound tables.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of buckets: 21 power-of-two upper bounds (`le=1` .. `le=2^20`
/// microseconds) plus one overflow (`+Inf`) bucket.
pub const BUCKET_COUNT: usize = 22;

/// The finite upper bounds (inclusive, microseconds) of the first
/// `BUCKET_COUNT - 1` buckets.
pub fn bucket_bounds_us() -> [u64; BUCKET_COUNT - 1] {
    let mut bounds = [0u64; BUCKET_COUNT - 1];
    for (i, b) in bounds.iter_mut().enumerate() {
        *b = 1u64 << i;
    }
    bounds
}

/// Index of the bucket a `us` observation falls into.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        return 0;
    }
    let idx = 64 - (us - 1).leading_zeros() as usize;
    idx.min(BUCKET_COUNT - 1)
}

/// A lock-free latency histogram.
///
/// Recording touches one bucket, the running sum, the running max and
/// the count — in that order, with the count bumped **last** with
/// release ordering. Snapshots load the count **first** with acquire
/// ordering, which guarantees `count <= Σ buckets` in every snapshot:
/// a rank computed against `count` always lands on fully-written data.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum_us: AtomicU64,
    max_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one latency observation.
    pub fn record(&self, d: Duration) {
        self.record_us(u64::try_from(d.as_micros()).unwrap_or(u64::MAX));
    }

    /// Record one observation already expressed in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        // Most stages of a request take under a microsecond: adding 0
        // changes nothing, so it costs no read-modify-write.
        if us > 0 {
            self.sum_us.fetch_add(us, Ordering::Relaxed);
        }
        // A read-modify-write only for a new maximum: the max only grows,
        // so a value at or under a loaded one cannot become it.
        if us > self.max_us.load(Ordering::Relaxed) {
            self.max_us.fetch_max(us, Ordering::Relaxed);
        }
        // Publish last: a reader that observes this increment also
        // observes the bucket/sum/max writes above (release/acquire).
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Number of completed observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Acquire)
    }

    /// Point-in-time copy, tagged with `name` for export.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        // Count first (acquire): everything the `count`-th writer wrote
        // before its release increment is visible below.
        let count = self.count.load(Ordering::Acquire);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Serializable point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name, possibly carrying a `{label="value"}` suffix.
    pub name: String,
    /// Completed observations (never more than `buckets` total).
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Largest single observation, microseconds.
    pub max_us: u64,
    /// Per-bucket (non-cumulative) observation counts; the last entry
    /// is the overflow bucket.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Nearest-rank percentile, `p` in `(0, 100]`. Observations in a
    /// finite bucket report that bucket's upper bound; overflow
    /// observations report the recorded maximum. Returns 0 when empty.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let bounds = bucket_bounds_us();
        let mut seen = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i < bounds.len() {
                    bounds[i]
                } else {
                    self.max_us
                };
            }
        }
        self.max_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_power_of_two_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(1 << 20), 20);
        assert_eq!(bucket_index((1 << 20) + 1), BUCKET_COUNT - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKET_COUNT - 1);
    }

    #[test]
    fn every_value_lands_within_its_reported_bound() {
        let bounds = bucket_bounds_us();
        for us in [0u64, 1, 2, 3, 7, 8, 9, 100, 999, 1_000_000] {
            let i = bucket_index(us);
            assert!(i < bounds.len(), "finite value {us} overflowed");
            assert!(us <= bounds[i], "{us} above bound {}", bounds[i]);
            if i > 0 {
                assert!(us > bounds[i - 1], "{us} should be in bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn percentiles_are_nearest_rank_over_bucket_bounds() {
        let h = Histogram::new();
        for us in 1..=100u64 {
            h.record_us(us);
        }
        let s = h.snapshot("t");
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_us, 5050);
        assert_eq!(s.max_us, 100);
        // p50: rank 50 -> values 1..=50 span buckets up to le=64.
        assert_eq!(s.percentile_us(50.0), 64);
        assert_eq!(s.percentile_us(99.0), 128);
        assert_eq!(s.percentile_us(100.0), 128);
    }

    #[test]
    fn overflow_percentile_reports_recorded_max() {
        let h = Histogram::new();
        h.record(Duration::from_secs(5)); // 5_000_000us > 2^20
        let s = h.snapshot("t");
        assert_eq!(s.buckets[BUCKET_COUNT - 1], 1);
        assert_eq!(s.percentile_us(50.0), 5_000_000);
        assert_eq!(s.percentile_us(99.9), 5_000_000);
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new().snapshot("t");
        assert_eq!(s.count, 0);
        assert_eq!(s.percentile_us(50.0), 0);
    }
}
