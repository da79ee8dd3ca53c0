//! Regenerates **Figure 5**: what the four SEPTIC detector configurations
//! (NN, YN, NY, YY) add to a request of the three workload applications
//! (PHP Address Book, refbase, ZeroCMS), measured against vanilla MySQL,
//! with the A/A row (vanilla against vanilla) as the noise floor.
//!
//! ```text
//! cargo run --release -p septic-bench --bin fig5_overhead
//! ```

use septic_bench::{banner, fig5, render_table};
use septic_webapp::apps::workload_apps;

/// Interleaved rounds per application.
const ROUNDS: usize = 300;

fn main() {
    let title = format!("Figure 5 — SEPTIC overhead per application request ({ROUNDS} rounds)");
    println!("{}", banner(&title));
    let mut rows = Vec::new();
    for sweep in workload_apps()
        .into_iter()
        .map(|app| fig5::sweep(app, ROUNDS))
    {
        let (lo, hi) = sweep.noise;
        for row in &sweep.rows {
            let verdict = match row.config {
                "vanilla" => String::new(),
                "A/A" => format!("noise IQR [{lo:+.2}, {hi:+.2}]"),
                _ if row.below_noise => "below noise".to_string(),
                _ => "above noise".to_string(),
            };
            rows.push(vec![
                format!("{} ({} req)", sweep.app, sweep.requests),
                row.config.to_string(),
                format!("{:.2}", row.us_per_request),
                format!("{:+.2} ({:+.2}%)", row.delta_us, row.delta_pct),
                verdict,
            ]);
        }
    }
    let headers = [
        "application",
        "config",
        "µs/request",
        "Δ vs vanilla, µs (%)",
        "vs A/A",
    ];
    println!("{}", render_table(&headers, &rows));
    println!("µs/request and Δ are medians over interleaved rounds; Δ is paired per round.");
    println!("% is of the vanilla request as measured here, in-process, with no");
    println!("web or network tier added. The paper reported 0.5% (NN) to 2.2% (YY)");
    println!("of millisecond-scale requests through Apache, PHP and a LAN.");
}
