//! Figure 5, measured: what each SEPTIC detector configuration adds to an
//! application request, against vanilla MySQL and against the noise of
//! vanilla measured twice.
//!
//! Six deployments of one application serve its recorded workload:
//! vanilla, a second vanilla (the A/A pair, whose difference is pure
//! noise), and SEPTIC trained on that workload in prevention mode under
//! NN, YN, NY and YY. Each round replays the whole workload once on every
//! deployment, in an order rotated per round, so drift and the tables'
//! growth hit all six alike. Each configuration is then compared with
//! vanilla round by round, and the median of those paired differences is
//! its overhead. Nothing is added to the measured time: the percentage is
//! of the vanilla request as served here, in-process.

use std::sync::Arc;
use std::time::Instant;

use septic::{DetectionConfig, Mode, Septic};
use septic_webapp::deployment::Deployment;
use septic_webapp::WebApp;

/// One configuration of one application.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// `vanilla`, `A/A`, `NN`, `YN`, `NY` or `YY`.
    pub config: &'static str,
    /// Median time this deployment took per request, in µs.
    pub us_per_request: f64,
    /// Median per-round difference from vanilla, in µs per request.
    pub delta_us: f64,
    /// `delta_us` as a % of the median vanilla request.
    pub delta_pct: f64,
    /// True when `delta_us` lies inside the A/A row's interquartile range.
    pub below_noise: bool,
}

/// The six rows of one application, vanilla first, then A/A.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    pub app: &'static str,
    pub requests: usize,
    /// Interquartile range of the A/A per-round differences, in µs per
    /// request: the noise floor.
    pub noise: (f64, f64),
    pub rows: Vec<Row>,
}

/// Measures `rounds` interleaved rounds of `app`'s workload.
///
/// # Panics
///
/// Panics when `rounds` is 0, when a deployment cannot install the
/// application, or when any response is not a success: a configuration
/// that blocks a benign workload request has no overhead to report.
#[must_use]
pub fn sweep(app: Arc<dyn WebApp>, rounds: usize) -> Sweep {
    assert!(rounds > 0, "at least one round");
    let workload = app.workload();
    let setups: Vec<(&'static str, Option<DetectionConfig>)> = [("vanilla", None), ("A/A", None)]
        .into_iter()
        .chain(DetectionConfig::all().map(|c| (c.label(), Some(c))))
        .collect();
    let deployments: Vec<Deployment> = setups
        .iter()
        .map(|(_, config)| {
            let septic = config.map(|c| Arc::new(Septic::with_config(c)));
            let deployment =
                Deployment::new(app.clone(), None, septic.clone()).expect("install the app");
            if let Some(septic) = &septic {
                septic.set_mode(Mode::Training);
            }
            // Every deployment replays the workload once before timing, so
            // all six hold the same rows; on SEPTIC that replay trains it.
            for request in &workload {
                let _ = deployment.request(request);
            }
            if let Some(septic) = septic {
                septic.set_mode(Mode::PREVENTION);
            }
            deployment
        })
        .collect();

    // times[d][r]: µs per request of deployment d in round r.
    let mut times = vec![Vec::with_capacity(rounds); deployments.len()];
    for round in 0..rounds {
        for offset in 0..deployments.len() {
            let d = (round + offset) % deployments.len();
            let started = Instant::now();
            for request in &workload {
                let reply = deployments[d].request(request);
                let config = setups[d].0;
                assert!(
                    reply.response.is_success(),
                    "{} under {config}: {reply:?}",
                    app.name()
                );
            }
            times[d].push(started.elapsed().as_secs_f64() * 1e6 / workload.len() as f64);
        }
    }

    let diffs = |d: usize| sorted(times[d].iter().zip(&times[0]).map(|(t, v)| t - v).collect());
    let aa = diffs(1);
    let noise = (quantile(&aa, 0.25), quantile(&aa, 0.75));
    let vanilla_us = quantile(&sorted(times[0].clone()), 0.5);
    let rows = setups
        .iter()
        .enumerate()
        .map(|(d, (config, _))| {
            let delta_us = quantile(&diffs(d), 0.5);
            Row {
                config,
                us_per_request: quantile(&sorted(times[d].clone()), 0.5),
                delta_us,
                delta_pct: delta_us / vanilla_us * 100.0,
                below_noise: (noise.0..=noise.1).contains(&delta_us),
            }
        })
        .collect();
    Sweep {
        app: app.name(),
        requests: workload.len(),
        noise,
        rows,
    }
}

fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// The `q` quantile of sorted samples, interpolated between ranks.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let at = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }
}
