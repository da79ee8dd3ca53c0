//! # septic-sql
//!
//! MySQL-flavoured SQL front end for the SEPTIC reproduction: connection
//! charset decoding, lexer, recursive-descent parser, AST, SQL rendering,
//! and the lowering of validated statements into the **item stack**
//! representation SEPTIC's query structures are built from.
//!
//! The crate purposely reproduces the MySQL behaviours behind the paper's
//! *semantic mismatch*:
//!
//! * Unicode homoglyph folding during connection-charset decoding
//!   ([`charset::decode`]), e.g. `U+02BC` → `'`;
//! * `-- ` needing trailing whitespace, `#` comments, executable
//!   `/*! ... */` version comments;
//! * backslash *and* doubled-quote string escapes, hex literals.
//!
//! ## Example
//!
//! ```
//! use septic_sql::{charset, parse, items};
//!
//! // The application believed it sent a quoted string; the DBMS decodes the
//! // modifier apostrophe into a real quote and the structure changes.
//! let raw = "SELECT * FROM tickets WHERE reservID = 'ID34FG\u{02BC}-- '";
//! let decoded = charset::decode(raw);
//! let parsed = parse(&decoded.text)?;
//! let stack = items::lower_all(&parsed.statements);
//! assert!(stack.len() > 0);
//! # Ok::<(), septic_sql::ParseError>(())
//! ```

pub mod ast;
pub mod charset;
pub mod display;
pub mod error;
pub mod fnv;
pub mod items;
pub mod parser;
pub mod token;

pub use ast::Statement;
pub use error::{ParseError, Span};
pub use fnv::Fnv1a;
pub use items::{Item, ItemData, ItemStack, ItemTag, Node, Payload};
pub use parser::{parse, Parsed};

/// Convenience: charset-decode then parse, the way the server front end
/// receives a query.
///
/// # Errors
///
/// Propagates [`ParseError`] from the lexer/parser.
pub fn decode_and_parse(raw: &str) -> Result<Parsed, ParseError> {
    parse(&charset::decode(raw).text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decode_and_parse_applies_charset_folding() {
        // Sanitized-but-bypassed second-order payload: the U+02BC closes the
        // string once MySQL decodes it.
        let raw = "SELECT * FROM tickets WHERE reservID = 'ID34FG\u{02BC} OR 1=1-- '";
        let parsed = decode_and_parse(raw).expect("parse");
        // After folding, `OR 1=1` escapes the string literal.
        let sql = parsed.statements[0].to_string();
        assert!(sql.contains("OR"), "structure should contain OR: {sql}");
    }
}
