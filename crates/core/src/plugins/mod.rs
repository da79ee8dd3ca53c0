//! Stored-injection detection **plugins**.
//!
//! For `INSERT`/`UPDATE` commands SEPTIC runs a two-step check over each
//! user input (Section II-C3): (1) a lightweight character filter decides
//! whether the input *might* carry a given attack class; (2) only then does
//! the plugin run its precise, more expensive validation. The current
//! implementation covers the classes the paper lists: stored XSS, remote
//! and local file inclusion (RFI/LFI), and OS/remote command execution
//! (OSCI/RCE).

use std::fmt;

pub mod fi;
pub mod osci;
pub mod xss;

pub use fi::{LfiPlugin, RfiPlugin};
pub use osci::{OsciPlugin, RcePlugin};
pub use xss::StoredXssPlugin;

/// A confirmed stored-injection finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredAttack {
    /// Attack class name, e.g. `stored XSS`.
    pub class: String,
    /// Human-readable evidence, e.g. `script tag <script>`.
    pub evidence: String,
}

impl StoredAttack {
    /// Creates a finding.
    #[must_use]
    pub fn new(class: impl Into<String>, evidence: impl Into<String>) -> Self {
        StoredAttack {
            class: class.into(),
            evidence: evidence.into(),
        }
    }
}

impl fmt::Display for StoredAttack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.evidence)
    }
}

/// A stored-injection detection plugin.
pub trait Plugin: Send + Sync {
    /// Plugin name (for logs).
    fn name(&self) -> &'static str;

    /// Step 1 — lightweight filter: does the input contain characters
    /// associated with this plugin's attack class? Must be cheap; it gates
    /// the precise check.
    fn quick_filter(&self, input: &str) -> bool;

    /// Step 2 — precise validation, run only when the filter fired.
    fn confirm(&self, input: &str) -> Option<StoredAttack>;

    /// Convenience: the full two-step pipeline.
    fn scan(&self, input: &str) -> Option<StoredAttack> {
        if self.quick_filter(input) {
            self.confirm(input)
        } else {
            None
        }
    }
}

/// The default plugin set (every class the paper's implementation has).
#[must_use]
pub fn default_plugins() -> Vec<Box<dyn Plugin>> {
    vec![
        Box::new(StoredXssPlugin::new()),
        Box::new(RfiPlugin),
        Box::new(LfiPlugin),
        Box::new(OsciPlugin::new()),
        Box::new(RcePlugin),
    ]
}

/// Runs every plugin over every user input; returns the first finding.
#[must_use]
pub fn scan_inputs(plugins: &[Box<dyn Plugin>], inputs: &[String]) -> Option<StoredAttack> {
    inputs.iter().find_map(|input| scan_input(plugins, input))
}

/// Runs every plugin over one user input; returns the first finding.
#[must_use]
pub fn scan_input(plugins: &[Box<dyn Plugin>], input: &str) -> Option<StoredAttack> {
    plugins.iter().find_map(|plugin| plugin.scan(input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_set_covers_the_paper_classes() {
        let names: Vec<&str> = default_plugins().iter().map(|p| p.name()).collect();
        for expected in ["stored-xss", "rfi", "lfi", "osci", "rce"] {
            assert!(names.contains(&expected), "missing plugin {expected}");
        }
    }

    #[test]
    fn scan_inputs_returns_first_finding() {
        let plugins = default_plugins();
        let inputs = vec![
            "benign".to_string(),
            "<script>alert(1)</script>".to_string(),
        ];
        let found = scan_inputs(&plugins, &inputs).expect("should find XSS");
        assert_eq!(found.class, "stored XSS");
    }

    #[test]
    fn benign_inputs_are_clean() {
        let plugins = default_plugins();
        let inputs = vec![
            "John O'Neil".to_string(),
            "3 < 4 is a fact".to_string(),
            "lisbon".to_string(),
            "a sentence with dashes - and such".to_string(),
        ];
        assert_eq!(scan_inputs(&plugins, &inputs), None);
    }
}
