//! # septic-telemetry — lock-free metrics for the SEPTIC query path
//!
//! The event logger in `septic` keeps a *bounded* ring of incident
//! details: under sustained traffic it wraps, and any total derived from
//! it silently undercounts. So the logger keeps no totals; every total is
//! one of this crate's **monotonic counters** (with **fixed-bucket latency
//! histograms** beside them), updated lock-free where the fact happens and
//! exact regardless of how many events the ring has evicted.
//!
//! Three export surfaces sit on top of the same primitives:
//!
//! 1. [`MetricsSnapshot`] — a serializable point-in-time copy of every
//!    registered metric (the programmatic API);
//! 2. [`render_prometheus`] — Prometheus text exposition
//!    (`septic_attacks_total`, `…_bucket{le="…"}` series), plus a
//!    [`parse_prometheus`] used by CI to validate the export end to end;
//! 3. the `SHOW SEPTIC STATUS` admin statement in `septic-dbms`, which
//!    formats a snapshot as result rows.
//!
//! ## Exactness and torn-read freedom
//!
//! Counters are single `AtomicU64`s — trivially exact. Histograms update
//! several atomics per record (one bucket, the sum, the max, the count);
//! the writer bumps `count` **last** (release) and readers load it
//! **first** (acquire), so a snapshot always satisfies
//! `count <= Σ buckets` and `percentile` ranks computed against `count`
//! never read past data that is still being written. Snapshots are
//! wait-free for writers: recording never blocks on an in-progress read.

mod histogram;
mod prometheus;
mod registry;

pub use histogram::{bucket_bounds_us, Histogram, HistogramSnapshot, BUCKET_COUNT};
pub use prometheus::{
    escape_label_value, label_value, labeled_name, parse_prometheus, render_prometheus,
};
pub use registry::{CounterSample, MetricsRegistry, MetricsSnapshot};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A `Duration` as whole microseconds, saturating at `u64::MAX` instead
/// of panicking or wrapping. Span accounting across the query pipeline
/// uses this everywhere a stage time is turned into a metric sample:
/// a zero-length stage records 0 and a pathological clock reading
/// (`Duration::MAX`, a stalled VM resuming hours later) records
/// `u64::MAX` — never a wrapped small number that would hide the stall.
#[must_use]
pub fn saturating_micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Stage timing with one clock read per stage boundary: the end of one
/// stage is the start of the next, so a pipeline of `n` stages reads the
/// clock `n + 1` times, not `2n`.
#[derive(Debug, Clone, Copy)]
pub struct Laps {
    start: Instant,
    last: Instant,
}

impl Laps {
    /// Reads the clock: the first stage starts now.
    #[must_use]
    pub fn start() -> Self {
        let now = Instant::now();
        Laps {
            start: now,
            last: now,
        }
    }

    /// Reads the clock: the stage that ends now, since the last boundary.
    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let stage = now - self.last;
        self.last = now;
        stage
    }

    /// The last boundary, without reading the clock.
    #[must_use]
    pub fn last(&self) -> Instant {
        self.last
    }

    /// From the start to the last boundary, without reading the clock.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.last - self.start
    }
}

/// A monotonic event counter. Cheap to clone behind an `Arc`; all
/// operations are single relaxed atomic instructions.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Overwrite the value. Only for counters mirrored from another
    /// monotonic source (e.g. the logger's drop count); normal call
    /// sites should use [`Counter::inc`]/[`Counter::add`].
    pub fn set(&self, n: u64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn saturating_micros_handles_clock_edge_cases() {
        // A zero-length stage is 0, not garbage.
        assert_eq!(saturating_micros(Duration::ZERO), 0);
        assert_eq!(saturating_micros(Duration::from_micros(1)), 1);
        // A span that exceeds u64 microseconds saturates instead of
        // panicking or wrapping to a small value.
        assert_eq!(saturating_micros(Duration::MAX), u64::MAX);
        assert_eq!(
            saturating_micros(Duration::from_secs(u64::MAX / 1_000_000 + 1)),
            u64::MAX
        );
        // The largest representable span below the saturation point is
        // still exact.
        let exact = Duration::from_micros(u64::MAX / 2);
        assert_eq!(saturating_micros(exact), u64::MAX / 2);
    }

    #[test]
    fn counter_is_exact_across_threads() {
        let c = Arc::new(Counter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn registry_hammered_from_eight_threads_is_exact() {
        let reg = Arc::new(MetricsRegistry::new());
        // Handles are resolved once and shared, like real call sites.
        let hits = reg.counter("hits_total");
        let lat = reg.histogram("lat_microseconds");
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let hits = Arc::clone(&hits);
            let lat = Arc::clone(&lat);
            handles.push(thread::spawn(move || {
                for i in 0..5_000u64 {
                    hits.inc();
                    lat.record(Duration::from_micros(t * 5_000 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hits_total"), Some(40_000));
        let h = snap.histogram("lat_microseconds").unwrap();
        assert_eq!(h.count, 40_000);
        assert_eq!(h.buckets.iter().sum::<u64>(), 40_000);
        // Sum of 0..40_000 microseconds, exactly.
        assert_eq!(h.sum_us, (0..40_000u64).sum::<u64>());
        assert_eq!(h.max_us, 39_999);
    }

    #[test]
    fn snapshot_while_recording_never_tears() {
        // One writer records as fast as it can; a reader snapshots
        // concurrently and checks the count-last invariant on every
        // observation: `count` must never exceed the bucket total or
        // claim microseconds that `sum_us` has not yet absorbed.
        let h = Arc::new(Histogram::new());
        let writer = {
            let h = Arc::clone(&h);
            thread::spawn(move || {
                for i in 0..200_000u64 {
                    h.record(Duration::from_micros(i % 4096));
                }
            })
        };
        let mut observations = 0u64;
        while observations < 10_000 {
            let snap = h.snapshot("x");
            let bucket_total: u64 = snap.buckets.iter().sum();
            assert!(
                snap.count <= bucket_total,
                "torn read: count {} > bucket total {}",
                snap.count,
                bucket_total
            );
            // Every record contributes at most 4095us to sum and max.
            assert!(snap.sum_us <= 200_000 * 4095);
            assert!(snap.max_us <= 4095);
            // Percentiles must be computable mid-flight without panicking.
            let p = snap.percentile_us(99.0);
            assert!(p <= 4096 || p == snap.max_us);
            observations += 1;
        }
        writer.join().unwrap();
        let fin = h.snapshot("x");
        assert_eq!(fin.count, 200_000);
        assert_eq!(fin.buckets.iter().sum::<u64>(), 200_000);
    }
}
