//! Operation modes and the actions they take (Table I of the paper).
//!
//! | mode        | QM: training | QM: incremental | QM log | detect SQLI | detect stored | log attacks | drop query | exec query |
//! |-------------|--------------|-----------------|--------|-------------|---------------|-------------|------------|------------|
//! | training    | ✓            |                 | ✓      |             |               |             |            | ✓          |
//! | prevention  |              | ✓               | ✓      | ✓           | ✓             | ✓           | ✓          |            |
//! | detection   |              | ✓               | ✓      | ✓           | ✓             | ✓           |            | ✓          |
//!
//! (The last two columns read: what happens *when an attack is flagged* —
//! prevention drops the query, detection executes it anyway.)

use std::fmt;

use septic_dbms::FailurePolicy;

/// Normal-mode sub-mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NormalMode {
    /// Attacks are logged but queries still execute.
    Detection,
    /// Attacks are logged and the query is dropped.
    Prevention,
}

/// SEPTIC operation mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Learn query models; no detection.
    Training,
    /// Detect (and possibly block) attacks.
    Normal(NormalMode),
}

impl Mode {
    /// Shorthand for `Mode::Normal(NormalMode::Prevention)`.
    pub const PREVENTION: Mode = Mode::Normal(NormalMode::Prevention);
    /// Shorthand for `Mode::Normal(NormalMode::Detection)`.
    pub const DETECTION: Mode = Mode::Normal(NormalMode::Detection);
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Mode::Training => f.write_str("training"),
            Mode::Normal(NormalMode::Detection) => f.write_str("detection"),
            Mode::Normal(NormalMode::Prevention) => f.write_str("prevention"),
        }
    }
}

/// The action matrix of Table I, derivable from a mode. Used by the
/// `table1_modes` harness to print the table from behaviour rather than
/// hard-coding it, and by SEPTIC for its failure policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModeActions {
    /// Models are learned during an explicit training phase.
    pub qm_training: bool,
    /// Unknown queries create models incrementally during normal operation.
    pub qm_incremental: bool,
    /// Model creation is logged.
    pub qm_log: bool,
    /// SQLI detection runs.
    pub detect_sqli: bool,
    /// Stored-injection detection runs.
    pub detect_stored: bool,
    /// Flagged attacks are logged.
    pub log_attacks: bool,
    /// Flagged queries are dropped.
    pub drop_on_attack: bool,
    /// Flagged queries still execute.
    pub exec_on_attack: bool,
}

impl ModeActions {
    /// Actions taken in the given mode.
    #[must_use]
    pub fn for_mode(mode: Mode) -> Self {
        match mode {
            Mode::Training => ModeActions {
                qm_training: true,
                qm_incremental: false,
                qm_log: true,
                detect_sqli: false,
                detect_stored: false,
                log_attacks: false,
                drop_on_attack: false,
                exec_on_attack: true,
            },
            Mode::Normal(sub) => ModeActions {
                qm_training: false,
                qm_incremental: true,
                qm_log: true,
                detect_sqli: true,
                detect_stored: true,
                log_attacks: true,
                drop_on_attack: sub == NormalMode::Prevention,
                exec_on_attack: sub == NormalMode::Detection,
            },
        }
    }

    /// What the server does with a query when SEPTIC *itself* fails (a
    /// detector or plugin panics): Table I's drop column. A mode that
    /// drops flagged queries promises that nothing uncleared executes, so
    /// a query whose inspection failed is dropped (fail-closed); training
    /// and detection never drop even a real attack, so an outage must not
    /// either (fail-open).
    #[must_use]
    pub fn failure_policy(&self) -> FailurePolicy {
        if self.drop_on_attack {
            FailurePolicy::FailClosed
        } else {
            FailurePolicy::FailOpen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_training_row() {
        let a = ModeActions::for_mode(Mode::Training);
        assert!(a.qm_training && a.qm_log && a.exec_on_attack);
        assert!(!a.detect_sqli && !a.detect_stored && !a.drop_on_attack && !a.qm_incremental);
    }

    #[test]
    fn table1_prevention_row() {
        let a = ModeActions::for_mode(Mode::PREVENTION);
        assert!(a.qm_incremental && a.qm_log);
        assert!(a.detect_sqli && a.detect_stored && a.log_attacks && a.drop_on_attack);
        assert!(!a.exec_on_attack && !a.qm_training);
    }

    #[test]
    fn table1_detection_row() {
        let a = ModeActions::for_mode(Mode::DETECTION);
        assert!(a.detect_sqli && a.detect_stored && a.log_attacks && a.exec_on_attack);
        assert!(!a.drop_on_attack);
    }

    #[test]
    fn default_failure_policies_match_mode_contracts() {
        use septic_dbms::QueryGuard;

        let septic = crate::Septic::new();
        for (mode, policy) in [
            (Mode::Training, FailurePolicy::FailOpen),
            (Mode::DETECTION, FailurePolicy::FailOpen),
            (Mode::PREVENTION, FailurePolicy::FailClosed),
        ] {
            let actions = ModeActions::for_mode(mode);
            assert_eq!(actions.failure_policy(), policy, "{mode}");
            // Fail-closed exactly when the mode drops attacks.
            assert_eq!(
                actions.failure_policy() == FailurePolicy::FailClosed,
                actions.drop_on_attack,
                "{mode}"
            );
            septic.set_mode(mode);
            assert_eq!(septic.failure_policy(), policy, "{mode}");
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Mode::Training.to_string(), "training");
        assert_eq!(Mode::PREVENTION.to_string(), "prevention");
        assert_eq!(Mode::DETECTION.to_string(), "detection");
    }
}
