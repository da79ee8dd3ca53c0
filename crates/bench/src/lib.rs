//! # septic-bench
//!
//! The experiment harness regenerating every table and figure of the demo
//! paper. Each artefact has a dedicated binary:
//!
//! | artefact | binary | paper content |
//! |---|---|---|
//! | Figure 2 | `fig2_qs_qm` | QS and QM of the tickets query |
//! | Figures 3–4 | `fig2_qs_qm` | attacked query structures + detection |
//! | Table I | `table1_modes` | operation modes × actions (measured) |
//! | Figure 5 | `fig5_overhead` | SEPTIC overhead NN/YN/NY/YY, measured ([`fig5`]) |
//! | §IV-A…E | `demo_phases` | the five demonstration phases |
//! | — | `accuracy` | SEPTIC vs ModSecurity detection matrix |
//! | — | `ablation_ids` | external-identifier ablation |
//! | — | `sqlmap_scan` | sqlmap-style probing session |
//!
//! These binaries reproduce the paper's artefacts; Figure 5's is the
//! paper-shaped view of SEPTIC's cost. What the system costs, layer by
//! layer and with regression bounds, is measured by the repo benchmark
//! (`benchmark/`, `BENCHMARK.json`).

use std::fmt::Write as _;

pub mod fig5;

/// Renders an ASCII table with a header row.
#[must_use]
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+-{}-", "-".repeat(*w));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (i, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {:w$} ", h, w = widths[i]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            let _ = write!(out, "| {:w$} ", cell, w = widths[i]);
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Formats a boolean as the paper's Table I check mark (`x`) or blank.
#[must_use]
pub fn check(b: bool) -> String {
    if b {
        "x".to_string()
    } else {
        String::new()
    }
}

/// Section banner for harness output.
#[must_use]
pub fn banner(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".to_string(), "1".to_string()],
                vec!["longer".to_string(), "22".to_string()],
            ],
        );
        assert!(t.contains("| name   |"));
        assert!(t.contains("| longer |"));
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn check_marks() {
        assert_eq!(check(true), "x");
        assert_eq!(check(false), "");
    }
}
