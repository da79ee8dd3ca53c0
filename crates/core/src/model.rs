//! Query structures (QS) and query models (QM).
//!
//! The **query structure** is the item stack of the query being processed;
//! the **query model** is a learned structure whose `⟨DATA_TYPE, DATA⟩`
//! nodes have been blanked to ⊥ (Figure 2(b) of the paper). SEPTIC creates
//! a QM from a QS by replacing every data payload with ⊥ and keeping every
//! element node verbatim.

use std::fmt;

use septic_sql::{Item, ItemData, ItemStack};

/// A learned query model: an item stack with blanked data nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryModel {
    pub(crate) items: Vec<Item>,
}

impl QueryModel {
    /// Derives the model from a query structure: data payloads become ⊥,
    /// element nodes are kept (identifier payloads lowercased by the
    /// lowering step already).
    #[must_use]
    pub fn from_structure(qs: &ItemStack) -> Self {
        let items = qs
            .items()
            .iter()
            .map(|item| {
                if item.tag.is_data() {
                    Item {
                        tag: item.tag,
                        data: ItemData::Bot,
                    }
                } else {
                    item.clone()
                }
            })
            .collect();
        QueryModel { items }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when the model has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bottom-up node view.
    #[must_use]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Whether one node of the incoming structure matches one node of the
    /// model: tags must be equal; element payloads must be equal; data
    /// payloads are ignored (they are ⊥ in the model).
    #[must_use]
    pub fn node_matches(model: &Item, qs: &Item) -> bool {
        if model.tag != qs.tag {
            return false;
        }
        if model.tag.is_data() {
            return true;
        }
        match (&model.data, &qs.data) {
            (ItemData::Text(a), ItemData::Text(b)) => a.eq_ignore_ascii_case(b),
            (a, b) => a == b,
        }
    }

    /// Rows from the top of the stack down (figure order).
    pub fn rows_top_down(&self) -> impl Iterator<Item = &Item> {
        self.items.iter().rev()
    }
}

impl fmt::Display for QueryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for item in self.rows_top_down() {
            writeln!(f, "{item}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use septic_sql::{items, parse, ItemTag};

    fn qs(sql: &str) -> ItemStack {
        items::lower_all(&parse(sql).expect("parse").statements)
    }

    #[test]
    fn figure2b_model_blanks_data() {
        let stack = qs("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        let model = QueryModel::from_structure(&stack);
        let rows: Vec<_> = model.rows_top_down().collect();
        // Top-down: COND AND, FUNC =, INT ⊥, FIELD creditcard, FUNC =,
        // STRING ⊥, FIELD reservid, SELECT_FIELD *, FROM_TABLE tickets.
        assert_eq!(rows[2].tag, ItemTag::IntItem);
        assert_eq!(rows[2].data, ItemData::Bot);
        assert_eq!(rows[5].tag, ItemTag::StringItem);
        assert_eq!(rows[5].data, ItemData::Bot);
        assert_eq!(rows[3].data, ItemData::Text("creditcard".into()));
    }

    #[test]
    fn model_is_idempotent_across_data() {
        let a = QueryModel::from_structure(&qs("SELECT * FROM t WHERE x = 'aaa' AND y = 1"));
        let b = QueryModel::from_structure(&qs("SELECT * FROM t WHERE x = 'zzz' AND y = 42"));
        assert_eq!(a, b);
    }

    #[test]
    fn every_qs_matches_its_own_model() {
        for sql in [
            "SELECT * FROM t WHERE a = 'x'",
            "INSERT INTO t (a, b) VALUES ('x', 2)",
            "UPDATE t SET a = 'v' WHERE id = 9",
            "DELETE FROM t WHERE id = 3",
            "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 1 ORDER BY a LIMIT 5",
        ] {
            let stack = qs(sql);
            let model = QueryModel::from_structure(&stack);
            assert_eq!(model.len(), stack.len());
            for (m, s) in model.items().iter().zip(stack.items()) {
                assert!(QueryModel::node_matches(m, s), "{sql}: {m} vs {s}");
            }
        }
    }

    #[test]
    fn node_match_is_case_insensitive_for_elements() {
        let m = Item::elem(ItemTag::FieldItem, "creditcard");
        let q = Item::elem(ItemTag::FieldItem, "CreditCard");
        assert!(QueryModel::node_matches(&m, &q));
        let q2 = Item::elem(ItemTag::FieldItem, "other");
        assert!(!QueryModel::node_matches(&m, &q2));
    }

    #[test]
    fn data_node_matches_any_payload_of_same_type() {
        let m = Item {
            tag: ItemTag::IntItem,
            data: ItemData::Bot,
        };
        let q = Item {
            tag: ItemTag::IntItem,
            data: ItemData::Int(999),
        };
        assert!(QueryModel::node_matches(&m, &q));
        let wrong_type = Item {
            tag: ItemTag::StringItem,
            data: ItemData::Text("x".into()),
        };
        assert!(!QueryModel::node_matches(&m, &wrong_type));
    }

    #[test]
    fn display_shows_bot() {
        let model =
            QueryModel::from_structure(&qs("SELECT * FROM tickets WHERE reservID = 'ID34FG'"));
        assert!(model.to_string().contains('\u{22A5}'));
    }
}
