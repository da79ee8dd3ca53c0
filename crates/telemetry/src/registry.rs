//! Name → metric registry and serializable snapshots.
//!
//! The registry is only locked on the *cold* path (first registration,
//! snapshotting); hot-path call sites resolve their `Arc` handles once
//! at construction time and then record lock-free.

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::prometheus::render_prometheus;
use crate::Counter;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A registry of named counters and histograms.
///
/// Names may embed a single Prometheus-style label set, e.g.
/// `septic_stage_duration_microseconds{stage="id_gen"}` — the exporter
/// folds the `le` bucket label into it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or register the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// Get or register the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .iter()
            .map(|(name, c)| CounterSample {
                name: name.clone(),
                value: c.get(),
            })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .iter()
            .map(|(name, h)| h.snapshot(name))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }
}

/// One named counter value inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample {
    /// Metric name (optionally with an embedded label set).
    pub name: String,
    /// Value at snapshot time.
    pub value: u64,
}

/// A serializable point-in-time copy of a [`MetricsRegistry`] — the
/// programmatic face of the telemetry layer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSample>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of the counter called `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// The histogram called `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Absorb all samples from `other` (used to merge the server's
    /// pipeline metrics with the guard's detection metrics).
    pub fn extend(&mut self, other: MetricsSnapshot) {
        self.counters.extend(other.counters);
        self.histograms.extend(other.histograms);
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// Render in Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        render_prometheus(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_returns_the_same_handle_for_a_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total");
        let b = reg.counter("x_total");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counter("x_total"), Some(3));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn extend_merges_and_sorts() {
        let a = MetricsRegistry::new();
        a.counter("m_total").inc();
        let b = MetricsRegistry::new();
        b.counter("a_total").inc();
        let mut snap = a.snapshot();
        snap.extend(b.snapshot());
        let names: Vec<_> = snap.counters.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a_total", "m_total"]);
    }
}
