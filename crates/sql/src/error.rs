//! Parse-layer error types.

use std::error::Error;
use std::fmt;

/// Byte range in the source query (character indices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    pub start: usize,
    pub end: usize,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// Error produced while lexing or parsing a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// Lexical error (bad literal, unterminated string/comment, …).
    Lex { message: String, span: Span },
    /// Grammar error.
    Syntax { message: String, span: Span },
    /// The statement kind is recognised but not supported by this engine.
    Unsupported { message: String },
    /// The statement nests deeper than the parser allows: `limit` is
    /// whichever of `parser::MAX_EXPR_DEPTH` (AST levels) and
    /// `parser::MAX_PAREN_DEPTH` (parenthesis groups) it ran into. A
    /// variant of its own, not a `Syntax` message: the server counts
    /// refusals by matching on it, and the text may then change freely.
    TooDeep { limit: usize, span: Span },
}

impl ParseError {
    /// Convenience constructor for grammar errors.
    #[must_use]
    pub fn syntax(message: impl Into<String>, span: Span) -> Self {
        ParseError::Syntax {
            message: message.into(),
            span,
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Lex { message, span } => {
                write!(f, "lexical error at {span}: {message}")
            }
            ParseError::Syntax { message, span } => {
                write!(f, "syntax error at {span}: {message}")
            }
            ParseError::Unsupported { message } => write!(f, "unsupported SQL: {message}"),
            ParseError::TooDeep { limit, span } => {
                write!(
                    f,
                    "statement too deep at {span}: nests beyond {limit} levels"
                )
            }
        }
    }
}

impl Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = ParseError::syntax("expected FROM", Span { start: 3, end: 7 });
        assert_eq!(e.to_string(), "syntax error at 3..7: expected FROM");
        let e = ParseError::Unsupported {
            message: "LOAD DATA".into(),
        };
        assert_eq!(e.to_string(), "unsupported SQL: LOAD DATA");
        let e = ParseError::TooDeep {
            limit: 64,
            span: Span { start: 3, end: 4 },
        };
        assert_eq!(
            e.to_string(),
            "statement too deep at 3..4: nests beyond 64 levels"
        );
    }
}
