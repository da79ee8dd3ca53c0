//! Schema catalog: table and column metadata, name resolution.

use septic_sql::ast::{ColumnDef, ColumnType, Literal};

use crate::codec::{tagged, Codec};
use crate::codec_fields;
use crate::error::DbError;
use crate::value::Value;

/// Column metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    pub column_type: ColumnType,
    pub not_null: bool,
    pub primary_key: bool,
    pub auto_increment: bool,
    pub default: Option<Value>,
}

impl Column {
    /// Builds column metadata from an AST definition.
    #[must_use]
    pub fn from_def(def: &ColumnDef) -> Self {
        Column {
            name: def.name.to_ascii_lowercase(),
            column_type: def.column_type,
            not_null: def.not_null || def.primary_key,
            primary_key: def.primary_key,
            auto_increment: def.auto_increment,
            default: def.default.as_ref().map(|l| match l {
                Literal::Int(v) => Value::Int(*v),
                Literal::Float(v) => Value::Real(*v),
                Literal::Str(s) => Value::Str(s.clone()),
                Literal::Null => Value::Null,
            }),
        }
    }

    /// Coerces an incoming value to this column's storage type, MySQL-style
    /// (lossy, never failing for the supported types; VARCHAR truncates).
    #[must_use]
    pub fn coerce(&self, value: Value) -> Value {
        if value.is_null() {
            return Value::Null;
        }
        match self.column_type {
            ColumnType::Int | ColumnType::BigInt => Value::Int(value.to_int().unwrap_or(0)),
            ColumnType::Double => Value::Real(value.to_real().unwrap_or(0.0)),
            ColumnType::Varchar(n) => {
                let mut s = value.to_display_string();
                let max = n as usize;
                if s.chars().count() > max {
                    s = s.chars().take(max).collect();
                }
                Value::Str(s)
            }
            ColumnType::Text | ColumnType::DateTime => Value::Str(value.to_display_string()),
        }
    }
}

/// Table metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl TableSchema {
    /// Creates a schema from a `CREATE TABLE` definition.
    #[must_use]
    pub fn new(name: &str, defs: &[ColumnDef]) -> Self {
        TableSchema {
            name: name.to_ascii_lowercase(),
            columns: defs.iter().map(Column::from_def).collect(),
        }
    }

    /// Index of a column by (case-insensitive) name.
    ///
    /// # Errors
    ///
    /// [`DbError::UnknownColumn`] when the column does not exist.
    pub fn column_index(&self, name: &str) -> Result<usize, DbError> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::UnknownColumn(name.to_string()))
    }

    /// Index of the primary-key column, if any.
    #[must_use]
    pub fn primary_key_index(&self) -> Option<usize> {
        self.columns.iter().position(|c| c.primary_key)
    }
}

// The durable encoding of a schema (checkpoints, `crate::wal`).
codec_fields!(Column {
    name: String,
    column_type: ColumnType,
    not_null: bool,
    primary_key: bool,
    auto_increment: bool,
    default: Option<Value>,
});
codec_fields!(TableSchema { name: String, columns: Vec<Column> });

impl Codec for ColumnType {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ColumnType::Int => out.push(0),
            ColumnType::BigInt => out.push(1),
            ColumnType::Double => out.push(2),
            ColumnType::Varchar(n) => tagged(out, 3, n),
            ColumnType::Text => out.push(4),
            ColumnType::DateTime => out.push(5),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        match u8::decode(input)? {
            0 => Ok(ColumnType::Int),
            1 => Ok(ColumnType::BigInt),
            2 => Ok(ColumnType::Double),
            3 => u32::decode(input).map(ColumnType::Varchar),
            4 => Ok(ColumnType::Text),
            5 => Ok(ColumnType::DateTime),
            t => Err(format!("unknown column type tag {t}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        let defs = vec![
            ColumnDef {
                name: "Id".into(),
                column_type: ColumnType::Int,
                not_null: false,
                primary_key: true,
                auto_increment: true,
                default: None,
            },
            ColumnDef {
                name: "name".into(),
                column_type: ColumnType::Varchar(4),
                not_null: true,
                primary_key: false,
                auto_increment: false,
                default: Some(Literal::Str("anon".into())),
            },
        ];
        TableSchema::new("Users", &defs)
    }

    #[test]
    fn names_are_lowercased() {
        let s = schema();
        assert_eq!(s.name, "users");
        assert_eq!(s.columns[0].name, "id");
    }

    #[test]
    fn primary_key_implies_not_null() {
        assert!(schema().columns[0].not_null);
        assert_eq!(schema().primary_key_index(), Some(0));
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("NAME").unwrap(), 1);
        assert!(matches!(
            s.column_index("nope"),
            Err(DbError::UnknownColumn(_))
        ));
    }

    #[test]
    fn coercion_per_type() {
        let s = schema();
        assert_eq!(s.columns[0].coerce(Value::from("12abc")), Value::Int(12));
        // VARCHAR(4) truncates silently, as MySQL does in non-strict mode.
        assert_eq!(
            s.columns[1].coerce(Value::from("toolong")),
            Value::from("tool")
        );
        assert_eq!(s.columns[1].coerce(Value::Int(7)), Value::from("7"));
        assert_eq!(s.columns[0].coerce(Value::Null), Value::Null);
    }

    #[test]
    fn defaults_become_values() {
        let s = schema();
        assert_eq!(s.columns[1].default, Some(Value::from("anon")));
    }
}
