//! Fixed-size log-linear nanosecond histogram, owned by the harness.
//!
//! Values below `2 * SUB` land in exact one-nanosecond buckets; above that
//! every power of two is split into `SUB` equal sub-buckets (relative width
//! below 1/128), and percentiles interpolate linearly inside the bucket they
//! fall in. The table is allocated once, so recording a sample never
//! allocates and a round of any length costs the same memory.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Largest recordable value (about 73 minutes); larger samples saturate.
const MAX_VALUE: u64 = (1 << 42) - 1;
const BUCKETS: usize = (2 * SUB + (42 - SUB_BITS as u64 - 1) * SUB) as usize;

pub struct Hist {
    counts: Box<[u64]>,
    total: u64,
}

fn index(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < 2 * SUB {
        return v as usize;
    }
    let shift = (63 - v.leading_zeros()) - SUB_BITS;
    (2 * SUB + u64::from(shift - 1) * SUB + ((v >> shift) - SUB)) as usize
}

/// Lower bound and width of bucket `i`.
fn bounds(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < 2 * SUB {
        return (i, 1);
    }
    let shift = (i - 2 * SUB) / SUB + 1;
    let top = SUB + (i - 2 * SUB) % SUB;
    (top << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Hist {
        Hist {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
        }
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[index(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `p`-th percentile (0 < p <= 100) in nanoseconds; 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = (p / 100.0 * self.total as f64).max(0.5);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 >= rank {
                let (lo, width) = bounds(i);
                let inside = (rank - below as f64) / c as f64;
                return lo as f64 + width as f64 * inside;
            }
            below += c;
        }
        MAX_VALUE as f64
    }
}

/// Median of a slice (mean of the two middle values for even lengths).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of a non-empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Inter-quartile range of a slice.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_cover_their_values() {
        let mut prev_end = 0u64;
        for i in 0..BUCKETS {
            let (lo, width) = bounds(i);
            assert_eq!(lo, prev_end, "bucket {i} starts where the last ended");
            assert_eq!(index(lo), i);
            assert_eq!(index(lo + width - 1), i);
            prev_end = lo + width;
        }
        assert_eq!(prev_end, MAX_VALUE + 1);
        assert_eq!(index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_track_a_uniform_sample_within_one_percent() {
        let mut h = Hist::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for p in [50.0, 90.0, 99.0] {
            let want = p / 100.0 * 1_000_000.0;
            let got = h.percentile(p);
            assert!((got - want).abs() / want < 0.01, "p{p}: {got} vs {want}");
        }
    }

    #[test]
    fn median_and_iqr() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(iqr(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
    }
}
