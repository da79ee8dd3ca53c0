//! The `SHOW SEPTIC` admin statements, answered from telemetry without
//! entering the pipeline: `STATUS` as (`Variable_name`, `Value`) rows,
//! `METRICS` as the Prometheus export, one line per row.

use std::time::{Duration, Instant};

use septic_telemetry::{label_value, MetricsSnapshot};

use super::session::SessionState;
use super::{ExecResult, Server};
use crate::exec::QueryOutput;
use crate::value::Value;

impl Server {
    /// Recognizes and answers the telemetry admin statements. Returns
    /// `None` for anything else (the statement then takes the normal
    /// pipeline).
    pub(super) fn admin_statement(
        &self,
        session: &SessionState,
        raw_sql: &str,
    ) -> Option<ExecResult> {
        let mut words = raw_sql.trim().trim_end_matches(';').split_whitespace();
        let mut next_is = |word: &str| words.next().is_some_and(|w| w.eq_ignore_ascii_case(word));
        if !(next_is("SHOW") && next_is("SEPTIC")) {
            return None;
        }
        // Timed only once it is one: any other call reads no clock here.
        let started = Instant::now();
        let output = match (words.next(), words.next()) {
            (Some(w), None) if w.eq_ignore_ascii_case("STATUS") => {
                self.septic_status_output(session)
            }
            (Some(w), None) if w.eq_ignore_ascii_case("METRICS") => self.septic_metrics_output(),
            _ => return None,
        };
        Some(ExecResult {
            outputs: vec![output],
            elapsed: started.elapsed(),
            simulated_delay: Duration::ZERO,
        })
    }

    /// `SHOW SEPTIC STATUS`: two-column (`Variable_name`, `Value`) rows
    /// merging the guard's metrics, the server's pipeline metrics and
    /// the calling session's counters.
    fn septic_status_output(&self, session: &SessionState) -> QueryOutput {
        let mut rows: Vec<(String, String)> = Vec::new();
        let guard = self.guard.read().clone();
        rows.push((
            "guard_installed".into(),
            if guard.is_some() { "yes" } else { "no" }.into(),
        ));
        if let Some(guard) = &guard {
            rows.push(("guard_name".into(), guard.name().to_string()));
            if let Some(snap) = guard.metrics() {
                push_metric_rows(&mut rows, &snap);
            }
        }
        push_metric_rows(&mut rows, &self.metrics.registry.snapshot());
        let stats = session.stats();
        for (name, value) in [
            ("session_id", stats.id),
            ("session_queries_ok", stats.queries_ok),
            ("session_queries_blocked", stats.queries_blocked),
            ("session_queries_failed", stats.queries_failed),
            ("session_busy_us", stats.busy_us),
            ("session_observed_us", stats.observed_us),
        ] {
            rows.push((name.into(), value.to_string()));
        }
        QueryOutput {
            columns: vec!["Variable_name".into(), "Value".into()],
            rows: rows
                .into_iter()
                .map(|(k, v)| vec![Value::from(k.as_str()), Value::from(v.as_str())])
                .collect(),
            ..QueryOutput::default()
        }
    }

    /// `SHOW SEPTIC METRICS`: the merged Prometheus export, one text
    /// line per row — a scrape endpoint reachable through SQL.
    fn septic_metrics_output(&self) -> QueryOutput {
        QueryOutput {
            columns: vec!["metric".into()],
            rows: self
                .prometheus()
                .lines()
                .map(|line| vec![Value::from(line)])
                .collect(),
            ..QueryOutput::default()
        }
    }
}

/// Formats a metrics snapshot as (`Variable_name`, `Value`) rows:
/// counters verbatim, histograms as `<base>_count` / `_p50_us` /
/// `_p95_us` / `_p99_us` with any `{stage="…"}` label folded into the
/// variable name.
fn push_metric_rows(rows: &mut Vec<(String, String)>, snap: &MetricsSnapshot) {
    for c in &snap.counters {
        rows.push((c.name.clone(), c.value.to_string()));
    }
    for h in &snap.histograms {
        let base = metric_base_name(&h.name);
        rows.push((format!("{base}_count"), h.count.to_string()));
        rows.push((format!("{base}_p50_us"), h.percentile_us(50.0).to_string()));
        rows.push((format!("{base}_p95_us"), h.percentile_us(95.0).to_string()));
        rows.push((format!("{base}_p99_us"), h.percentile_us(99.0).to_string()));
    }
}

/// `septic_stage_duration_microseconds{stage="inspect"}` →
/// `septic_stage_inspect`; label-less names pass through unchanged.
fn metric_base_name(name: &str) -> String {
    let family = name.split('{').next().unwrap_or(name);
    match label_value(name, "stage") {
        Some(stage) => format!(
            "{}_{stage}",
            family.trim_end_matches("_duration_microseconds")
        ),
        None => family.to_string(),
    }
}
