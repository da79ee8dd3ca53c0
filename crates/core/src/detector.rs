//! The **attack detector** module — SQLI detection.
//!
//! The paper's two-step algorithm (Section II-C3):
//!
//! 1. **structural verification** — the number of nodes of the query
//!    structure (QS) and the query model (QM) must be equal;
//! 2. **syntactic verification** — each QS node must match the
//!    corresponding QM node (runs only if step 1 passed).
//!
//! A failure in step 1 flags a *structural* attack (e.g. a second-order
//! injection that commented out part of the query, Figure 3); a failure in
//! step 2 flags a *syntax-mimicry* attack (same arity, different node
//! types, Figure 4).

use std::fmt;

use septic_sql::ItemStack;

use crate::model::QueryModel;

/// Which step of the SQLI algorithm flagged the query. Logged by the paper
/// ("it also logs if they are structural or syntactical, i.e., in which
/// step of the SQLI detection algorithm discovered the attack").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqliKind {
    /// Step 1: node counts differ.
    Structural {
        /// Node count the model expects.
        expected: usize,
        /// Node count observed in the incoming query.
        observed: usize,
    },
    /// Step 2: node `index` (from the bottom of the stack) differs.
    Mimicry {
        /// Index of the first mismatching node (bottom-up).
        index: usize,
        /// The model node at that position, rendered.
        expected: String,
        /// The observed node, rendered.
        observed: String,
    },
}

impl fmt::Display for SqliKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqliKind::Structural { expected, observed } => write!(
                f,
                "structural (step 1): model has {expected} nodes, query has {observed}"
            ),
            SqliKind::Mimicry {
                index,
                expected,
                observed,
            } => write!(
                f,
                "syntactic (step 2): node {index} expected [{expected}] observed [{observed}]"
            ),
        }
    }
}

/// Outcome of comparing a QS against a QM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqliOutcome {
    /// The structure matches the learned model.
    Clean,
    /// An injection was detected.
    Attack(SqliKind),
}

impl SqliOutcome {
    /// True when an attack was flagged.
    #[must_use]
    pub fn is_attack(&self) -> bool {
        matches!(self, SqliOutcome::Attack(_))
    }
}

/// Runs the two-step SQLI detection algorithm.
///
/// This is the readable reference implementation: `Septic` itself always
/// compares through [`detect_sqli_vm`], and the conformance suite holds
/// the two to the same [`SqliOutcome`] on every golden case.
///
/// # Examples
///
/// ```
/// use septic::detector::{detect_sqli, SqliOutcome};
/// use septic::model::QueryModel;
/// use septic_sql::{items, parse};
///
/// let learned = items::lower_all(
///     &parse("SELECT * FROM t WHERE a = 'benign' AND b = 1")?.statements,
/// );
/// let model = QueryModel::from_structure(&learned);
///
/// // Same structure, different literals: clean.
/// let qs = items::lower_all(&parse("SELECT * FROM t WHERE a = 'other' AND b = 2")?.statements);
/// assert_eq!(detect_sqli(&qs, &model), SqliOutcome::Clean);
///
/// // Tautology changes the structure: attack.
/// let qs = items::lower_all(&parse("SELECT * FROM t WHERE a = '' OR 1 = 1")?.statements);
/// assert!(detect_sqli(&qs, &model).is_attack());
/// # Ok::<(), septic_sql::ParseError>(())
/// ```
#[must_use]
pub fn detect_sqli(qs: &ItemStack, model: &QueryModel) -> SqliOutcome {
    // Step 1: structural verification.
    if qs.len() != model.len() {
        return SqliOutcome::Attack(SqliKind::Structural {
            expected: model.len(),
            observed: qs.len(),
        });
    }
    // Step 2: syntactic verification, node by node.
    for (index, (m, q)) in model.items().iter().zip(qs.items()).enumerate() {
        if !QueryModel::node_matches(m, q) {
            return SqliOutcome::Attack(SqliKind::Mimicry {
                index,
                expected: m.to_string(),
                observed: q.to_string(),
            });
        }
    }
    SqliOutcome::Clean
}

/// Runs the two-step SQLI algorithm through a model's **compiled
/// comparison program** (the bytecode-VM hot path) and renders the same
/// outcome [`detect_sqli`] would produce.
///
/// The program reports positions only; the mimicry node strings are
/// rendered here from the model and structure — off the hot path, and
/// through the very same `Item` `Display` the walker uses, so the two
/// paths are byte-identical (the differential conformance suite holds
/// them to that).
#[must_use]
pub fn detect_sqli_vm(
    program: &septic_vm::Program,
    qs: &ItemStack,
    model: &QueryModel,
) -> SqliOutcome {
    outcome_of(septic_vm::run_model(program, qs.items()), qs, model)
}

/// The [`SqliOutcome`] of a compiled program's verdict over `qs`, the
/// mimicry nodes rendered from the model and the structure.
#[must_use]
pub fn outcome_of(verdict: septic_vm::Verdict, qs: &ItemStack, model: &QueryModel) -> SqliOutcome {
    match verdict {
        septic_vm::Verdict::Clean => SqliOutcome::Clean,
        septic_vm::Verdict::Structural { expected, observed } => {
            SqliOutcome::Attack(SqliKind::Structural { expected, observed })
        }
        septic_vm::Verdict::Mimicry { index } => SqliOutcome::Attack(SqliKind::Mimicry {
            index,
            expected: model
                .items()
                .get(index)
                .map(ToString::to_string)
                .unwrap_or_default(),
            observed: qs
                .items()
                .get(index)
                .map(ToString::to_string)
                .unwrap_or_default(),
        }),
    }
}

/// Ablation variant: structural verification only (step 1). Used by the
/// detector benchmarks to quantify what the syntactic step adds.
#[must_use]
pub fn detect_sqli_structural_only(qs: &ItemStack, model: &QueryModel) -> SqliOutcome {
    if qs.len() != model.len() {
        return SqliOutcome::Attack(SqliKind::Structural {
            expected: model.len(),
            observed: qs.len(),
        });
    }
    SqliOutcome::Clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::{items, parse};

    fn qs(sql: &str) -> ItemStack {
        items::lower_all(&parse(sql).expect("parse").statements)
    }

    fn model(sql: &str) -> QueryModel {
        QueryModel::from_structure(&qs(sql))
    }

    const TICKETS: &str = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234";

    #[test]
    fn benign_variants_are_clean() {
        let m = model(TICKETS);
        for sql in [
            "SELECT * FROM tickets WHERE reservID = 'ZZ99' AND creditCard = 1",
            "SELECT * FROM tickets WHERE reservID = '' AND creditCard = 0",
        ] {
            assert_eq!(detect_sqli(&qs(sql), &m), SqliOutcome::Clean, "{sql}");
        }
    }

    #[test]
    fn paper_second_order_attack_is_structural() {
        // Figure 3: `ID34FG'-- ` collapses the WHERE clause.
        let m = model(TICKETS);
        let attacked = qs("SELECT * FROM tickets WHERE reservID = 'ID34FG'");
        let SqliOutcome::Attack(SqliKind::Structural { expected, observed }) =
            detect_sqli(&attacked, &m)
        else {
            panic!("expected structural detection");
        };
        assert_eq!(expected, 9);
        assert_eq!(observed, 5);
    }

    #[test]
    fn paper_mimicry_attack_is_syntactic() {
        // Figure 4: `ID34FG' AND 1=1-- ` reproduces the arity.
        let m = model(TICKETS);
        let attacked = qs("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1 = 1");
        let SqliOutcome::Attack(SqliKind::Mimicry {
            expected, observed, ..
        }) = detect_sqli(&attacked, &m)
        else {
            panic!("expected syntactic detection");
        };
        assert!(expected.contains("creditcard"), "expected: {expected}");
        assert!(observed.contains("INT_ITEM"), "observed: {observed}");
    }

    #[test]
    fn structural_only_misses_mimicry() {
        let m = model(TICKETS);
        let attacked = qs("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1 = 1");
        assert_eq!(
            detect_sqli_structural_only(&attacked, &m),
            SqliOutcome::Clean
        );
        assert!(detect_sqli(&attacked, &m).is_attack());
    }

    #[test]
    fn union_injection_is_structural() {
        let m = model("SELECT name FROM users WHERE id = 1");
        let attacked = qs("SELECT name FROM users WHERE id = 1 UNION SELECT password FROM users");
        assert!(matches!(
            detect_sqli(&attacked, &m),
            SqliOutcome::Attack(SqliKind::Structural { .. })
        ));
    }

    #[test]
    fn piggyback_is_structural() {
        let m = model("SELECT name FROM users WHERE id = 1");
        let attacked = qs("SELECT name FROM users WHERE id = 1; DROP TABLE users");
        assert!(detect_sqli(&attacked, &m).is_attack());
    }

    #[test]
    fn field_substitution_is_mimicry() {
        // Same arity but a different column smuggled in.
        let m = model("SELECT name FROM users WHERE name = 'x'");
        let attacked = qs("SELECT name FROM users WHERE password = 'x'");
        assert!(matches!(
            detect_sqli(&attacked, &m),
            SqliOutcome::Attack(SqliKind::Mimicry { .. })
        ));
    }

    #[test]
    fn string_vs_int_literal_is_mimicry() {
        // `WHERE a = 'x'` learned; `WHERE a = 0` probes type juggling.
        let m = model("SELECT * FROM t WHERE a = 'x'");
        let attacked = qs("SELECT * FROM t WHERE a = 0");
        assert!(matches!(
            detect_sqli(&attacked, &m),
            SqliOutcome::Attack(SqliKind::Mimicry { .. })
        ));
    }

    // --- degenerate inputs: the detector must never panic on them ---

    #[test]
    fn empty_qs_against_empty_model_is_clean() {
        let empty_model = QueryModel::from_structure(&ItemStack::new());
        assert_eq!(
            detect_sqli(&ItemStack::new(), &empty_model),
            SqliOutcome::Clean
        );
        assert_eq!(
            detect_sqli_structural_only(&ItemStack::new(), &empty_model),
            SqliOutcome::Clean
        );
    }

    #[test]
    fn empty_qs_against_nonempty_model_is_structural() {
        let m = model(TICKETS);
        let SqliOutcome::Attack(SqliKind::Structural { expected, observed }) =
            detect_sqli(&ItemStack::new(), &m)
        else {
            panic!("expected structural detection");
        };
        assert_eq!(expected, 9);
        assert_eq!(observed, 0);
    }

    #[test]
    fn zero_length_model_against_nonempty_qs_is_structural() {
        let empty_model = QueryModel::from_structure(&ItemStack::new());
        let observed_qs = qs(TICKETS);
        let SqliOutcome::Attack(SqliKind::Structural { expected, observed }) =
            detect_sqli(&observed_qs, &empty_model)
        else {
            panic!("expected structural detection");
        };
        assert_eq!(expected, 0);
        assert_eq!(observed, 9);
        assert!(detect_sqli_structural_only(&observed_qs, &empty_model).is_attack());
    }

    #[test]
    fn all_data_node_stacks_compare_by_tag_only() {
        use septic_sql::items::{Item, ItemData, ItemTag};
        // A pathological stack with no structure nodes at all: every node
        // is DATA. Training blanks the payloads, so any same-tag stack is
        // clean and a tag flip is mimicry — with no panics anywhere.
        let data_stack = |n: i64, s: &str| {
            ItemStack::from_iter([
                Item {
                    tag: ItemTag::IntItem,
                    data: ItemData::Int(n),
                },
                Item {
                    tag: ItemTag::StringItem,
                    data: ItemData::Text(s.to_string().into()),
                },
            ])
        };
        let m = QueryModel::from_structure(&data_stack(1, "a"));
        assert_eq!(detect_sqli(&data_stack(999, "zzz"), &m), SqliOutcome::Clean);
        let flipped = ItemStack::from_iter([
            Item {
                tag: ItemTag::StringItem,
                data: ItemData::Text("1".into()),
            },
            Item {
                tag: ItemTag::StringItem,
                data: ItemData::Text("a".into()),
            },
        ]);
        assert!(matches!(
            detect_sqli(&flipped, &m),
            SqliOutcome::Attack(SqliKind::Mimicry { index: 0, .. })
        ));
    }

    #[test]
    fn vm_and_walker_agree_on_every_outcome() {
        // The compiled-program path must reproduce the walker verdict
        // *including* the rendered mimicry node strings.
        let m = model(TICKETS);
        let program = septic_vm::compile_model(m.items());
        for sql in [
            "SELECT * FROM tickets WHERE reservID = 'ZZ99' AND creditCard = 1",
            "SELECT * FROM tickets WHERE reservID = 'ID34FG'",
            "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND 1 = 1",
            "SELECT * FROM tickets WHERE reservID = 'ID34FG' OR 1 = 1",
            "SELECT name FROM users WHERE id = 1; DROP TABLE users",
            TICKETS,
        ] {
            let stack = qs(sql);
            assert_eq!(
                detect_sqli_vm(&program, &stack, &m),
                detect_sqli(&stack, &m),
                "{sql}"
            );
        }
    }

    #[test]
    fn displays_name_the_algorithm_step() {
        let k = SqliKind::Structural {
            expected: 9,
            observed: 5,
        };
        assert!(k.to_string().contains("step 1"));
        let k = SqliKind::Mimicry {
            index: 3,
            expected: "a".into(),
            observed: "b".into(),
        };
        assert!(k.to_string().contains("step 2"));
    }
}
