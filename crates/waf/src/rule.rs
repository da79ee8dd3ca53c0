//! Rule definitions (the shape of a CRS rule).

use std::fmt;

use crate::pattern::Pattern;

/// CRS severities and their anomaly-score contributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    Critical,
    Error,
    Warning,
    Notice,
}

impl Severity {
    /// Anomaly points contributed by a match (CRS defaults).
    #[must_use]
    pub fn score(self) -> u32 {
        match self {
            Severity::Critical => 5,
            Severity::Error => 4,
            Severity::Warning => 3,
            Severity::Notice => 2,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Critical => f.write_str("CRITICAL"),
            Severity::Error => f.write_str("ERROR"),
            Severity::Warning => f.write_str("WARNING"),
            Severity::Notice => f.write_str("NOTICE"),
        }
    }
}

/// Where a rule looks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Request parameter values (ARGS).
    Args,
    /// The request path (REQUEST_URI).
    Path,
    /// Parameter names (ARGS_NAMES).
    ArgNames,
}

/// One detection rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// CRS-style numeric id (942xxx SQLI, 941xxx XSS, 93xxxx RCE/LFI).
    pub id: u32,
    /// Log message.
    pub msg: &'static str,
    pub severity: Severity,
    /// Paranoia level (1 = always on; higher = stricter configs only).
    pub paranoia: u8,
    pub target: Target,
    pub pattern: Pattern,
}

impl Rule {
    /// Builds a rule at paranoia level 1 targeting ARGS.
    #[must_use]
    pub fn args(id: u32, msg: &'static str, severity: Severity, pattern: Pattern) -> Self {
        Rule {
            id,
            msg,
            severity,
            paranoia: 1,
            target: Target::Args,
            pattern,
        }
    }
}

/// A rule match recorded in the audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleMatch {
    pub rule_id: u32,
    pub msg: &'static str,
    pub severity: Severity,
    /// Which parameter (or path) matched.
    pub location: String,
    /// The transformed value that matched (truncated).
    pub matched_value: String,
}

impl fmt::Display for RuleMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[id {}] {} ({}) at {}: {}",
            self.rule_id, self.msg, self.severity, self.location, self.matched_value
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_scores_follow_crs() {
        assert_eq!(Severity::Critical.score(), 5);
        assert_eq!(Severity::Error.score(), 4);
        assert_eq!(Severity::Warning.score(), 3);
        assert_eq!(Severity::Notice.score(), 2);
    }

    #[test]
    fn rule_builder_defaults() {
        let r = Rule::args(
            942_130,
            "taut",
            Severity::Critical,
            Pattern::NumericTautology,
        );
        assert_eq!(r.paranoia, 1);
        assert_eq!(r.target, Target::Args);
    }

    #[test]
    fn rule_match_display() {
        let m = RuleMatch {
            rule_id: 942_190,
            msg: "UNION probe",
            severity: Severity::Critical,
            location: "ARGS:q".into(),
            matched_value: "union select".into(),
        };
        let s = m.to_string();
        assert!(s.contains("942190") && s.contains("ARGS:q"));
    }
}
