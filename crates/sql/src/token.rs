//! MySQL-flavoured lexer: one pass over the bytes of the query.
//!
//! Reproduces the tokenisation quirks that matter for injection analysis:
//!
//! * `-- ` line comments require a following whitespace character (MySQL
//!   rule), `#` comments do not;
//! * `/* ... */` block comments are skipped; those before the first token
//!   are *collected* (SEPTIC reads the optional external query identifier
//!   from them);
//! * `/*!12345 ... */` version comments have their body **executed** — a
//!   classic WAF-evasion channel that the lexer must honour;
//! * string literals accept both backslash escapes and doubled quotes;
//!   `\%` and `\_` keep their backslash, which LIKE reads as its escape;
//! * hexadecimal literals `0x41` / `X'41'` decode to strings.
//!
//! Tokens borrow from the query: a word is a slice of it, and a string or
//! quoted identifier is a slice too unless an escape or a doubled quote had
//! to be decoded. Each word carries its keyword class ([`Kw`]), found once
//! here, so the parser compares classes, not text. The lexer moves by byte
//! offset, yet spans count **characters**: a non-ASCII query converts each
//! offset with a cursor that only moves on from the last one converted.

use std::borrow::Cow;
use std::fmt;

use crate::error::{ParseError, Span};

/// Declares [`Kw`] and its one classifying `match`.
macro_rules! keywords {
    ($($kw:ident = $text:literal,)*) => {
        /// The keyword class of an unquoted word: which keyword it spells,
        /// ASCII case-insensitively, or [`Kw::Other`]. A class says what a
        /// word may mean, not what it is: the parser still takes any word
        /// as an identifier wherever MySQL's grammar lets it.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Kw {
            /// A word that spells no keyword the parser knows.
            Other,
            $($kw,)*
        }

        impl Kw {
            /// Every keyword class, [`Kw::Other`] excepted.
            pub const ALL: &'static [Kw] = &[$(Kw::$kw,)*];

            /// The class of `word`: one `match` over its ASCII-uppercased
            /// bytes.
            #[must_use]
            pub fn of(word: &str) -> Kw {
                let mut upper = [0u8; LONGEST_KEYWORD];
                let Some(upper) = upper.get_mut(..word.len()) else {
                    return Kw::Other;
                };
                for (to, from) in upper.iter_mut().zip(word.bytes()) {
                    *to = from.to_ascii_uppercase();
                }
                match &*upper {
                    $($text => Kw::$kw,)*
                    _ => Kw::Other,
                }
            }

            /// The keyword in upper case, as error messages name it.
            #[must_use]
            pub fn text(self) -> &'static str {
                let bytes: &[u8] = match self {
                    Kw::Other => b"",
                    $(Kw::$kw => $text,)*
                };
                std::str::from_utf8(bytes).expect("keywords are ASCII")
            }
        }
    };
}

/// `CURRENT_TIMESTAMP`: no longer word is a keyword.
const LONGEST_KEYWORD: usize = 17;

keywords! {
    All = b"ALL",
    And = b"AND",
    As = b"AS",
    Asc = b"ASC",
    AutoIncrement = b"AUTO_INCREMENT",
    Begin = b"BEGIN",
    Between = b"BETWEEN",
    By = b"BY",
    Case = b"CASE",
    Commit = b"COMMIT",
    Count = b"COUNT",
    Create = b"CREATE",
    CurrentTimestamp = b"CURRENT_TIMESTAMP",
    Default = b"DEFAULT",
    Delete = b"DELETE",
    Desc = b"DESC",
    Distinct = b"DISTINCT",
    Div = b"DIV",
    Drop = b"DROP",
    Else = b"ELSE",
    End = b"END",
    Exists = b"EXISTS",
    False = b"FALSE",
    From = b"FROM",
    Group = b"GROUP",
    Having = b"HAVING",
    If = b"IF",
    Ignore = b"IGNORE",
    In = b"IN",
    Inner = b"INNER",
    Insert = b"INSERT",
    Into = b"INTO",
    Is = b"IS",
    Join = b"JOIN",
    Key = b"KEY",
    Left = b"LEFT",
    Like = b"LIKE",
    Limit = b"LIMIT",
    Mod = b"MOD",
    Not = b"NOT",
    Null = b"NULL",
    Offset = b"OFFSET",
    On = b"ON",
    Or = b"OR",
    Order = b"ORDER",
    Outer = b"OUTER",
    Primary = b"PRIMARY",
    Rollback = b"ROLLBACK",
    Select = b"SELECT",
    Set = b"SET",
    Start = b"START",
    Table = b"TABLE",
    Then = b"THEN",
    Transaction = b"TRANSACTION",
    True = b"TRUE",
    Union = b"UNION",
    Unique = b"UNIQUE",
    Update = b"UPDATE",
    Value = b"VALUE",
    Values = b"VALUES",
    When = b"WHEN",
    Where = b"WHERE",
    Xor = b"XOR",
}

/// A lexical token, borrowing from the query it was lexed from.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// Unquoted identifier or keyword (case preserved) and its keyword
    /// class.
    Ident(&'a str, Kw),
    /// Backtick-quoted identifier.
    QuotedIdent(Cow<'a, str>),
    /// String literal, with escapes already decoded.
    Str(Cow<'a, str>),
    /// Unsigned integer literal. 2^63, which MySQL keeps an integer only
    /// under a minus sign, is held by its bits, as `i64::MIN`.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `?` positional parameter.
    Param,
    LParen,
    RParen,
    Comma,
    Semicolon,
    Dot,
    Star,
    Plus,
    Minus,
    Slash,
    Percent,
    Eq,
    NullSafeEq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
    Bang,
    Ampersand,
    Pipe,
    Caret,
    Tilde,
    Shl,
    Shr,
}

impl Token<'_> {
    /// The keyword class of an unquoted word; [`Kw::Other`] for any other
    /// token.
    #[must_use]
    pub fn kw(&self) -> Kw {
        match self {
            Token::Ident(_, kw) => *kw,
            _ => Kw::Other,
        }
    }
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s, _) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "`{s}`"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(v) => write!(f, "{}", v.unsigned_abs()),
            Token::Float(v) => write!(f, "{v}"),
            Token::Param => write!(f, "?"),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::Comma => write!(f, ","),
            Token::Semicolon => write!(f, ";"),
            Token::Dot => write!(f, "."),
            Token::Star => write!(f, "*"),
            Token::Plus => write!(f, "+"),
            Token::Minus => write!(f, "-"),
            Token::Slash => write!(f, "/"),
            Token::Percent => write!(f, "%"),
            Token::Eq => write!(f, "="),
            Token::NullSafeEq => write!(f, "<=>"),
            Token::Ne => write!(f, "<>"),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::AndAnd => write!(f, "&&"),
            Token::OrOr => write!(f, "||"),
            Token::Bang => write!(f, "!"),
            Token::Ampersand => write!(f, "&"),
            Token::Pipe => write!(f, "|"),
            Token::Caret => write!(f, "^"),
            Token::Tilde => write!(f, "~"),
            Token::Shl => write!(f, "<<"),
            Token::Shr => write!(f, ">>"),
        }
    }
}

/// A token together with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpannedToken<'a> {
    pub token: Token<'a>,
    pub span: Span,
}

/// Output of [`lex`]: the token stream plus side-channel information the
/// parser and SEPTIC need.
#[derive(Debug, Clone, Default)]
pub struct LexOutput<'a> {
    pub tokens: Vec<SpannedToken<'a>>,
    /// Bodies of the ordinary `/* ... */` block comments that come before
    /// the first token, in source order. SEPTIC's ID generator reads the
    /// external identifier from them. Only a leading comment may name a
    /// program point: user data never comes before the statement keyword,
    /// so a comment an injection smuggles in cannot mint a new query id.
    pub comments: Vec<String>,
    /// True when a `-- `/`#` comment swallowed the remainder of the query —
    /// the footprint of comment-based injection payloads.
    pub trailing_line_comment: bool,
}

struct Lexer<'a> {
    src: &'a str,
    /// Byte offset of the next unread character.
    pos: usize,
    /// The last offset converted to a span, as `(byte, character)`; `None`
    /// when the source is ASCII and the two are one.
    cursor: Option<(usize, usize)>,
}

/// Lexes a (charset-decoded) query string.
///
/// # Errors
///
/// Returns [`ParseError::Lex`] on unterminated strings/comments, invalid
/// hex literals or unexpected characters.
pub fn lex(src: &str) -> Result<LexOutput<'_>, ParseError> {
    let mut out = LexOutput {
        // Room for a token per four bytes: one allocation for usual SQL.
        tokens: Vec::with_capacity(src.len() / 4 + 1),
        ..LexOutput::default()
    };
    Lexer::new(src).run(&mut out)?;
    Ok(out)
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            cursor: (!src.is_ascii()).then_some((0, 0)),
        }
    }

    fn run(&mut self, out: &mut LexOutput<'a>) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            let start = self.pos;
            let Some(b) = self.byte(0) else { break };
            let token = match b {
                b'#' => {
                    self.skip_line_comment();
                    out.trailing_line_comment = self.at_end();
                    continue;
                }
                b'-' if self.byte(1) == Some(b'-')
                    && self
                        .char_at(self.pos + 2)
                        .is_none_or(|c| c.is_whitespace() || c == '\u{0}') =>
                {
                    // MySQL: `--` starts a comment only when followed by
                    // whitespace (or end of input).
                    self.skip_line_comment();
                    out.trailing_line_comment = self.at_end();
                    continue;
                }
                b'/' if self.byte(1) == Some(b'*') => {
                    if self.byte(2) == Some(b'!') {
                        self.version_comment(start, out)?;
                    } else {
                        self.block_comment(start, out)?;
                    }
                    continue;
                }
                b'\'' | b'"' => Token::Str(self.quoted(true, "unterminated string literal")?),
                b'`' => Token::QuotedIdent(self.quoted(false, "unterminated quoted identifier")?),
                b'0' if matches!(self.byte(1), Some(b'x' | b'X'))
                    && self.byte(2).is_some_and(|c| c.is_ascii_hexdigit()) =>
                {
                    self.pos += 2;
                    Token::Str(Cow::Owned(self.hex_digits(start)?))
                }
                b'x' | b'X' if self.byte(1) == Some(b'\'') => {
                    self.pos += 2;
                    let s = self.hex_digits(start)?;
                    if self.byte(0) != Some(b'\'') {
                        return Err(self.err(start, "unterminated hex literal"));
                    }
                    self.pos += 1;
                    Token::Str(Cow::Owned(s))
                }
                b if b.is_ascii_digit()
                    || (b == b'.' && self.byte(1).is_some_and(|d| d.is_ascii_digit())) =>
                {
                    self.number(start)?
                }
                // Digits went to `number`. A character that is not ASCII
                // and not whitespace starts a word, and any one continues it.
                b if is_word_byte(b) => {
                    while self.byte(0).is_some_and(is_word_byte) {
                        self.pos += 1;
                    }
                    let word = &self.src[start..self.pos];
                    Token::Ident(word, Kw::of(word))
                }
                _ => self.operator(start)?,
            };
            let span = self.span(start);
            out.tokens.push(SpannedToken { token, span });
        }
        Ok(())
    }

    fn byte(&self, ahead: usize) -> Option<u8> {
        self.src.as_bytes().get(self.pos + ahead).copied()
    }

    /// The character at byte offset `at`, a character boundary.
    fn char_at(&self, at: usize) -> Option<char> {
        self.src.get(at..).and_then(|rest| rest.chars().next())
    }

    fn at_end(&self) -> bool {
        self.pos >= self.src.len()
    }

    /// The character offset of byte offset `at`. Spans are taken in source
    /// order (`at` is never before the last offset converted), so the
    /// cursor only moves forward and reads each byte once, however long
    /// the query.
    fn chars_to(&mut self, at: usize) -> usize {
        let Some((byte, chars)) = self.cursor else {
            return at;
        };
        let starts = self.src.as_bytes()[byte..at]
            .iter()
            .filter(|&&b| b & 0xC0 != 0x80)
            .count();
        self.cursor = Some((at, chars + starts));
        chars + starts
    }

    /// The span from byte offset `start` to the current position.
    fn span(&mut self, start: usize) -> Span {
        let start = self.chars_to(start);
        let end = self.chars_to(self.pos);
        Span { start, end }
    }

    fn err(&mut self, at: usize, msg: &str) -> ParseError {
        ParseError::Lex {
            message: msg.to_string(),
            span: self.span(at),
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.byte(0) {
            let width = match b {
                b if b.is_ascii() && char::from(b).is_whitespace() => 1,
                b if b.is_ascii() => break,
                _ => match self.char_at(self.pos) {
                    Some(c) if c.is_whitespace() => c.len_utf8(),
                    _ => break,
                },
            };
            self.pos += width;
        }
    }

    fn skip_line_comment(&mut self) {
        let rest = &self.src.as_bytes()[self.pos..];
        self.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |newline| newline + 1);
    }

    /// Offset of the first `*/` at or after byte offset `from`.
    fn comment_end(&self, from: usize) -> Option<usize> {
        self.src[from..].find("*/").map(|at| from + at)
    }

    fn block_comment(&mut self, start: usize, out: &mut LexOutput<'a>) -> Result<(), ParseError> {
        let body_start = self.pos + 2; // `/*`
        let Some(end) = self.comment_end(body_start) else {
            self.pos = self.src.len();
            return Err(self.err(start, "unterminated block comment"));
        };
        self.pos = end + 2;
        if out.tokens.is_empty() {
            out.comments
                .push(self.src[body_start..end].trim().to_string());
        }
        Ok(())
    }

    /// `/*!NNNNN body */`: the prefix and the closing `*/` are stripped and
    /// the body stays in the token stream.
    fn version_comment(&mut self, start: usize, out: &mut LexOutput<'a>) -> Result<(), ParseError> {
        self.pos += 3;
        while self.byte(0).is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        let body_start = self.pos;
        let Some(end) = self.comment_end(body_start) else {
            self.pos = self.src.len();
            return Err(self.err(start, "unterminated version comment"));
        };
        self.pos = end + 2;
        // The body is lexed as a query of its own (its spans count from its
        // own start) straight into `out`. Whether a line comment ends the
        // *query* is for the text after the body to say.
        let trailing = out.trailing_line_comment;
        Lexer::new(&self.src[body_start..end]).run(out)?;
        out.trailing_line_comment = trailing;
        Ok(())
    }

    /// A string (`escapes`: backslash escapes too) or backtick-quoted
    /// identifier, its opening quote at the current position. Borrowed
    /// unless an escape or a doubled quote had to be decoded.
    fn quoted(&mut self, escapes: bool, unterminated: &str) -> Result<Cow<'a, str>, ParseError> {
        let start = self.pos;
        let quote = self.src.as_bytes()[start];
        self.pos += 1;
        let mut decoded: Option<String> = None;
        let mut run = self.pos;
        loop {
            let rest = &self.src.as_bytes()[self.pos..];
            let Some(at) = rest
                .iter()
                .position(|&b| b == quote || (escapes && b == b'\\'))
            else {
                self.pos = self.src.len();
                return Err(self.err(start, unterminated));
            };
            self.pos += at;
            let closing = rest[at] == quote && self.byte(1) != Some(quote);
            let text = &self.src[run..self.pos];
            if closing {
                self.pos += 1;
                return Ok(match decoded {
                    None => Cow::Borrowed(text),
                    Some(mut s) => {
                        s.push_str(text);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(text);
            if rest[at] == quote {
                // Doubled quote = literal quote.
                s.push(char::from(quote));
                self.pos += 2;
            } else {
                self.pos += 1;
                let Some(e) = self.char_at(self.pos) else {
                    return Err(self.err(start, unterminated));
                };
                if matches!(e, '%' | '_') {
                    // MySQL keeps the backslash of `\%` and `\_`, so LIKE
                    // reads them as an escaped wildcard.
                    s.push('\\');
                }
                s.push(unescape(e));
                self.pos += e.len_utf8();
            }
            run = self.pos;
        }
    }

    fn hex_digits(&mut self, start: usize) -> Result<String, ParseError> {
        let digit_start = self.pos;
        while self.byte(0).is_some_and(|b| b.is_ascii_hexdigit()) {
            self.pos += 1;
        }
        let digits = &self.src.as_bytes()[digit_start..self.pos];
        if digits.is_empty() || !digits.len().is_multiple_of(2) {
            return Err(self.err(start, "invalid hexadecimal literal"));
        }
        let nibble = |d: u8| char::from(d).to_digit(16).expect("hex digit") as u8;
        let bytes: Vec<u8> = digits
            .chunks(2)
            .map(|pair| nibble(pair[0]) * 16 + nibble(pair[1]))
            .collect();
        // MySQL treats hex literals as (binary) strings in string context.
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    fn number(&mut self, start: usize) -> Result<Token<'a>, ParseError> {
        let mut seen_dot = false;
        while let Some(b) = self.byte(0) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !seen_dot => {
                    seen_dot = true;
                    self.pos += 1;
                }
                b'e' | b'E'
                    if self
                        .byte(1)
                        .is_some_and(|c| c.is_ascii_digit() || c == b'+' || c == b'-') =>
                {
                    self.pos += 2;
                    while self.byte(0).is_some_and(|c| c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        let text = &self.src[start..self.pos];
        // Overflowing integers fall back to float, like MySQL DECIMAL;
        // 2^63 stays an integer token, for a minus sign to fold. Digits
        // with a `.` or an exponent never parse as a `u64`.
        match text.parse::<u64>() {
            Ok(v) if v <= 1 << 63 => Ok(Token::Int(v as i64)),
            _ => text
                .parse()
                .map(Token::Float)
                .map_err(|_| self.err(start, "invalid numeric literal")),
        }
    }

    fn operator(&mut self, start: usize) -> Result<Token<'a>, ParseError> {
        let b = self.src.as_bytes()[self.pos];
        let (token, width) = match (b, self.byte(1)) {
            (b'<', Some(b'=')) if self.byte(2) == Some(b'>') => (Token::NullSafeEq, 3),
            (b'<', Some(b'=')) => (Token::Le, 2),
            (b'<', Some(b'>')) | (b'!', Some(b'=')) => (Token::Ne, 2),
            (b'<', Some(b'<')) => (Token::Shl, 2),
            (b'>', Some(b'=')) => (Token::Ge, 2),
            (b'>', Some(b'>')) => (Token::Shr, 2),
            (b'&', Some(b'&')) => (Token::AndAnd, 2),
            (b'|', Some(b'|')) => (Token::OrOr, 2),
            _ => {
                let token = match b {
                    b'(' => Token::LParen,
                    b')' => Token::RParen,
                    b',' => Token::Comma,
                    b';' => Token::Semicolon,
                    b'.' => Token::Dot,
                    b'*' => Token::Star,
                    b'+' => Token::Plus,
                    b'-' => Token::Minus,
                    b'/' => Token::Slash,
                    b'%' => Token::Percent,
                    b'=' => Token::Eq,
                    b'<' => Token::Lt,
                    b'>' => Token::Gt,
                    b'!' => Token::Bang,
                    b'&' => Token::Ampersand,
                    b'|' => Token::Pipe,
                    b'^' => Token::Caret,
                    b'~' => Token::Tilde,
                    b'?' => Token::Param,
                    // Only ASCII reaches here: any other character is
                    // whitespace or a word.
                    other => {
                        self.pos += 1;
                        let msg = format!("unexpected character `{}`", char::from(other));
                        return Err(self.err(start, &msg));
                    }
                };
                (token, 1)
            }
        };
        self.pos += width;
        Ok(token)
    }
}

/// A byte of a word: ASCII letters, digits, `_`, `@`, `$`, and every byte
/// of a non-ASCII character.
fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b'@' | b'$') || !b.is_ascii()
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        'r' => '\r',
        't' => '\t',
        '0' => '\0',
        'b' => '\u{8}',
        'Z' => '\u{1a}',
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Token<'_>> {
        lex(src)
            .expect("lex ok")
            .tokens
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    fn word(s: &str) -> Token<'_> {
        Token::Ident(s, Kw::of(s))
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        assert_eq!(t[0], Token::Ident("SELECT", Kw::Select));
        assert_eq!(t[1], Token::Star);
        assert_eq!(t[3], Token::Ident("tickets", Kw::Other));
        assert!(t.contains(&Token::Str("ID34FG".into())));
        assert!(t.contains(&Token::Int(1234)));
    }

    #[test]
    fn keyword_classes_ignore_ascii_case_only() {
        for &kw in Kw::ALL {
            let text = kw.text();
            assert_eq!(Kw::of(text), kw);
            assert_eq!(Kw::of(&text.to_ascii_lowercase()), kw);
            let mixed: String = text
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_lowercase()
                    } else {
                        c
                    }
                })
                .collect();
            assert_eq!(Kw::of(&mixed), kw);
            assert_eq!(Kw::of(&format!("{text}x")), Kw::Other);
            assert_eq!(Kw::of(&format!("_{text}")), Kw::Other);
        }
        assert!(Kw::ALL.iter().all(|kw| kw.text().len() <= LONGEST_KEYWORD));
        // U+017F folds to `S` under Unicode case rules, not under ASCII ones.
        assert_eq!(Kw::of("\u{17F}ELECT"), Kw::Other);
        assert_eq!(Kw::of(""), Kw::Other);
        assert_eq!(Kw::of("CURRENT_TIMESTAMPS"), Kw::Other);
    }

    #[test]
    fn literals_borrow_unless_decoded() {
        let t = toks(r"'plain' 'it''s' 'a\nb' `col` `a``b`");
        assert!(matches!(&t[0], Token::Str(Cow::Borrowed("plain"))));
        assert!(matches!(&t[1], Token::Str(Cow::Owned(s)) if s == "it's"));
        assert!(matches!(&t[2], Token::Str(Cow::Owned(s)) if s == "a\nb"));
        assert!(matches!(&t[3], Token::QuotedIdent(Cow::Borrowed("col"))));
        assert!(matches!(&t[4], Token::QuotedIdent(Cow::Owned(s)) if s == "a`b"));
    }

    #[test]
    fn spans_count_characters() {
        let out = lex("SELECT 'é' , \u{00A0}naïve, 中 ").unwrap();
        let spans: Vec<(usize, usize)> = out
            .tokens
            .iter()
            .map(|t| (t.span.start, t.span.end))
            .collect();
        assert_eq!(
            spans,
            [(0, 6), (7, 10), (11, 12), (14, 19), (19, 20), (21, 22)]
        );
        let err = lex("SELECT 'é").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lexical error at 7..9: unterminated string literal"
        );
        // A version comment's body counts from its own start.
        let out = lex("SELECT 'é' /*!50000 中 1*/").unwrap();
        assert_eq!(out.tokens[2].span, Span { start: 1, end: 2 });
        assert_eq!(out.tokens[3].span, Span { start: 3, end: 4 });
    }

    #[test]
    fn double_dash_requires_whitespace() {
        // `a--b` is arithmetic (a - (-b)), not a comment.
        let t = toks("a--b");
        assert_eq!(t, vec![word("a"), Token::Minus, Token::Minus, word("b")]);
        // `a-- b` *is* a comment.
        let out = lex("a-- b").unwrap();
        assert_eq!(out.tokens.len(), 1);
        assert!(out.trailing_line_comment);
        // So is `--` before non-ASCII whitespace.
        assert_eq!(lex("a--\u{3000}b").unwrap().tokens.len(), 1);
    }

    #[test]
    fn double_dash_at_end_of_input_is_comment() {
        let out = lex("x = 1--").unwrap();
        assert_eq!(out.tokens.len(), 3);
        assert!(out.trailing_line_comment);
    }

    #[test]
    fn hash_comment() {
        let out = lex("SELECT 1 # trailing").unwrap();
        assert_eq!(out.tokens.len(), 2);
        assert!(out.trailing_line_comment);
    }

    #[test]
    fn block_comments_are_collected() {
        let out = lex("/* qid:login-1 */ SELECT 1").unwrap();
        assert_eq!(out.comments, vec!["qid:login-1".to_string()]);
        assert_eq!(out.tokens.len(), 2);
    }

    #[test]
    fn only_comments_before_the_first_token_are_collected() {
        let out = lex("/* a */ /* b */ SELECT /* c */ 1 /* qid:d */").unwrap();
        assert_eq!(out.comments, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn version_comment_body_is_executed() {
        // Classic WAF evasion: UNION hidden in a version comment.
        let t = toks("SELECT 1 /*!50000 UNION SELECT 2*/");
        assert!(t.iter().any(|t| t.kw() == Kw::Union));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r"'a\'b'"), vec![Token::Str("a'b".into())]);
        assert_eq!(toks("'a''b'"), vec![Token::Str("a'b".into())]);
        assert_eq!(toks(r"'a\nb'"), vec![Token::Str("a\nb".into())]);
        assert_eq!(toks(r#""dq""#), vec![Token::Str("dq".into())]);
        assert_eq!(toks("'\\é'"), vec![Token::Str("é".into())]);
        // `\%` and `\_` keep their backslash, for LIKE; `\x` is `x`.
        assert_eq!(toks(r"'a\%b\_c\xd'"), vec![Token::Str(r"a\%b\_cxd".into())]);
    }

    #[test]
    fn hex_literals_decode_to_strings() {
        assert_eq!(toks("0x414243"), vec![Token::Str("ABC".into())]);
        assert_eq!(toks("X'6162'"), vec![Token::Str("ab".into())]);
    }

    #[test]
    fn numbers() {
        assert_eq!(toks("42"), vec![Token::Int(42)]);
        assert_eq!(toks("3.5"), vec![Token::Float(3.5)]);
        assert_eq!(toks("1e3"), vec![Token::Float(1000.0)]);
        assert_eq!(toks(".5"), vec![Token::Float(0.5)]);
        assert_eq!(toks("99999999999999999999"), vec![Token::Float(1e20)]);
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <=> b <> c != d"),
            vec![
                word("a"),
                Token::NullSafeEq,
                word("b"),
                Token::Ne,
                word("c"),
                Token::Ne,
                word("d"),
            ]
        );
    }

    #[test]
    fn backtick_identifiers() {
        assert_eq!(
            toks("`weird name`"),
            vec![Token::QuotedIdent("weird name".into())]
        );
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex("'abc").is_err());
        assert!(lex("/* abc").is_err());
        assert!(lex("`abc").is_err());
        assert!(lex("'abc\\").is_err());
        assert!(lex("'abc\\é").is_err());
    }

    #[test]
    fn params() {
        assert_eq!(
            toks("? , ?"),
            vec![Token::Param, Token::Comma, Token::Param]
        );
    }
}
