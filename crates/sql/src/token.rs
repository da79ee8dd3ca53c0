//! MySQL-flavoured lexer.
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
//! * hexadecimal literals `0x41` / `X'41'` decode to strings.

use std::fmt;

use crate::error::{ParseError, Span};

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// Unquoted identifier or keyword (case preserved; parser matches
    /// keywords case-insensitively).
    Ident(String),
    /// Backtick-quoted identifier.
    QuotedIdent(String),
    /// String literal, with escapes already decoded.
    Str(String),
    /// Integer literal.
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

impl Token {
    /// Returns the identifier text if this token is an unquoted identifier.
    #[must_use]
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Token::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True when the token is the given keyword (ASCII case-insensitive).
    #[must_use]
    pub fn is_kw(&self, kw: &str) -> bool {
        matches!(self, Token::Ident(s) if s.eq_ignore_ascii_case(kw))
    }
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::QuotedIdent(s) => write!(f, "`{s}`"),
            Token::Str(s) => write!(f, "'{s}'"),
            Token::Int(v) => write!(f, "{v}"),
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
pub struct SpannedToken {
    pub token: Token,
    pub span: Span,
}

/// Output of [`lex`]: the token stream plus side-channel information the
/// parser and SEPTIC need.
#[derive(Debug, Clone, Default)]
pub struct LexOutput {
    pub tokens: Vec<SpannedToken>,
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

struct Lexer {
    chars: Vec<char>,
    pos: usize,
}

/// Lexes a (charset-decoded) query string.
///
/// # Errors
///
/// Returns [`ParseError::Lex`] on unterminated strings/comments, invalid
/// hex literals or unexpected characters.
pub fn lex(src: &str) -> Result<LexOutput, ParseError> {
    let mut out = LexOutput::default();
    let mut lexer = Lexer {
        chars: src.chars().collect(),
        pos: 0,
    };
    lexer.run(&mut out)?;
    Ok(out)
}

impl Lexer {
    fn run(&mut self, out: &mut LexOutput) -> Result<(), ParseError> {
        loop {
            self.skip_whitespace();
            let start = self.pos;
            let Some(c) = self.peek() else { break };
            match c {
                '#' => {
                    self.skip_line_comment();
                    out.trailing_line_comment = self.pos >= self.chars.len();
                }
                '-' if self.peek_at(1) == Some('-')
                    && self
                        .peek_at(2)
                        .is_none_or(|c| c.is_whitespace() || c == '\u{0}') =>
                {
                    // MySQL: `--` starts a comment only when followed by
                    // whitespace (or end of input).
                    self.skip_line_comment();
                    out.trailing_line_comment = self.pos >= self.chars.len();
                }
                '/' if self.peek_at(1) == Some('*') => {
                    if self.peek_at(2) == Some('!') {
                        // Version comment: strip the `/*!NNNNN` prefix and the
                        // closing `*/`; the body stays in the token stream.
                        self.pos += 3;
                        while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                            self.pos += 1;
                        }
                        // Tokens continue; the matching `*/` is handled below
                        // when encountered as `*` `/`. Simplest correct
                        // approach: scan for the terminator now and re-lex the
                        // body by splicing.
                        let body_start = self.pos;
                        let mut depth = 1usize;
                        while depth > 0 {
                            match (self.peek(), self.peek_at(1)) {
                                (Some('*'), Some('/')) => {
                                    depth -= 1;
                                    if depth == 0 {
                                        break;
                                    }
                                    self.pos += 2;
                                }
                                (Some(_), _) => self.pos += 1,
                                (None, _) => {
                                    return Err(self.err(start, "unterminated version comment"))
                                }
                            }
                        }
                        // The body is lexed as a query of its own (its
                        // spans count from its own start) straight into
                        // `out`: a frame-sized body is not worth two
                        // copies. Whether a line comment ends the *query*
                        // is for the text after the body to say.
                        let mut body = Lexer {
                            chars: self.chars[body_start..self.pos].to_vec(),
                            pos: 0,
                        };
                        self.pos += 2; // consume `*/`
                        let trailing = out.trailing_line_comment;
                        body.run(out)?;
                        out.trailing_line_comment = trailing;
                    } else {
                        let body = self.skip_block_comment(start)?;
                        if out.tokens.is_empty() {
                            out.comments.push(body);
                        }
                    }
                }
                '\'' | '"' => {
                    let s = self.lex_string(c)?;
                    out.tokens.push(self.spanned(start, Token::Str(s)));
                }
                '`' => {
                    let s = self.lex_backtick()?;
                    out.tokens.push(self.spanned(start, Token::QuotedIdent(s)));
                }
                '0' if matches!(self.peek_at(1), Some('x') | Some('X'))
                    && self.peek_at(2).is_some_and(|c| c.is_ascii_hexdigit()) =>
                {
                    self.pos += 2;
                    let s = self.lex_hex_digits(start)?;
                    out.tokens.push(self.spanned(start, Token::Str(s)));
                }
                'x' | 'X' if self.peek_at(1) == Some('\'') => {
                    self.pos += 2;
                    let s = self.lex_hex_digits(start)?;
                    if self.peek() != Some('\'') {
                        return Err(self.err(start, "unterminated hex literal"));
                    }
                    self.pos += 1;
                    out.tokens.push(self.spanned(start, Token::Str(s)));
                }
                c if c.is_ascii_digit()
                    || (c == '.' && self.peek_at(1).is_some_and(|d| d.is_ascii_digit())) =>
                {
                    let tok = self.lex_number(start)?;
                    out.tokens.push(self.spanned(start, tok));
                }
                c if is_ident_start(c) => {
                    let mut s = String::new();
                    while let Some(c) = self.peek() {
                        if is_ident_part(c) {
                            s.push(c);
                            self.pos += 1;
                        } else {
                            break;
                        }
                    }
                    out.tokens.push(self.spanned(start, Token::Ident(s)));
                }
                _ => {
                    let tok = self.lex_operator(start)?;
                    out.tokens.push(self.spanned(start, tok));
                }
            }
        }
        Ok(())
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, n: usize) -> Option<char> {
        self.chars.get(self.pos + n).copied()
    }

    fn spanned(&self, start: usize, token: Token) -> SpannedToken {
        SpannedToken {
            token,
            span: Span {
                start,
                end: self.pos,
            },
        }
    }

    fn err(&self, at: usize, msg: &str) -> ParseError {
        ParseError::Lex {
            message: msg.to_string(),
            span: Span {
                start: at,
                end: self.pos,
            },
        }
    }

    fn skip_whitespace(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.pos += 1;
        }
    }

    fn skip_line_comment(&mut self) {
        while let Some(c) = self.peek() {
            self.pos += 1;
            if c == '\n' {
                break;
            }
        }
    }

    fn skip_block_comment(&mut self, start: usize) -> Result<String, ParseError> {
        self.pos += 2; // `/*`
        let body_start = self.pos;
        loop {
            match (self.peek(), self.peek_at(1)) {
                (Some('*'), Some('/')) => {
                    let body: String = self.chars[body_start..self.pos].iter().collect();
                    self.pos += 2;
                    return Ok(body.trim().to_string());
                }
                (Some(_), _) => self.pos += 1,
                (None, _) => return Err(self.err(start, "unterminated block comment")),
            }
        }
    }

    fn lex_string(&mut self, quote: char) -> Result<String, ParseError> {
        let start = self.pos;
        self.pos += 1; // opening quote
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(start, "unterminated string literal")),
                Some('\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(self.err(start, "unterminated string literal")),
                        Some(e) => {
                            self.pos += 1;
                            s.push(unescape(e));
                        }
                    }
                }
                Some(c) if c == quote => {
                    if self.peek_at(1) == Some(quote) {
                        // Doubled quote = literal quote.
                        s.push(quote);
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        return Ok(s);
                    }
                }
                Some(c) => {
                    s.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn lex_backtick(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        self.pos += 1;
        let mut s = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(start, "unterminated quoted identifier")),
                Some('`') => {
                    if self.peek_at(1) == Some('`') {
                        s.push('`');
                        self.pos += 2;
                    } else {
                        self.pos += 1;
                        return Ok(s);
                    }
                }
                Some(c) => {
                    s.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn lex_hex_digits(&mut self, start: usize) -> Result<String, ParseError> {
        let digit_start = self.pos;
        while self.peek().is_some_and(|c| c.is_ascii_hexdigit()) {
            self.pos += 1;
        }
        let digits: String = self.chars[digit_start..self.pos].iter().collect();
        if digits.is_empty() || !digits.len().is_multiple_of(2) {
            return Err(self.err(start, "invalid hexadecimal literal"));
        }
        let mut bytes = Vec::with_capacity(digits.len() / 2);
        for pair in digits.as_bytes().chunks(2) {
            let hi = (pair[0] as char).to_digit(16).expect("hex digit");
            let lo = (pair[1] as char).to_digit(16).expect("hex digit");
            bytes.push((hi * 16 + lo) as u8);
        }
        // MySQL treats hex literals as (binary) strings in string context.
        Ok(String::from_utf8_lossy(&bytes).into_owned())
    }

    fn lex_number(&mut self, start: usize) -> Result<Token, ParseError> {
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                '0'..='9' => self.pos += 1,
                '.' if !is_float => {
                    is_float = true;
                    self.pos += 1;
                }
                'e' | 'E'
                    if self
                        .peek_at(1)
                        .is_some_and(|c| c.is_ascii_digit() || c == '+' || c == '-') =>
                {
                    is_float = true;
                    self.pos += 2;
                    while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                        self.pos += 1;
                    }
                    break;
                }
                _ => break,
            }
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        if is_float {
            text.parse::<f64>()
                .map(Token::Float)
                .map_err(|_| self.err(start, "invalid numeric literal"))
        } else {
            // Overflowing integers fall back to float, like MySQL DECIMAL.
            match text.parse::<i64>() {
                Ok(v) => Ok(Token::Int(v)),
                Err(_) => text
                    .parse::<f64>()
                    .map(Token::Float)
                    .map_err(|_| self.err(start, "invalid numeric literal")),
            }
        }
    }

    fn lex_operator(&mut self, start: usize) -> Result<Token, ParseError> {
        let c = self.peek().expect("caller checked");
        let two = (c, self.peek_at(1));
        let tok = match two {
            ('<', Some('=')) if self.peek_at(2) == Some('>') => {
                self.pos += 3;
                return Ok(Token::NullSafeEq);
            }
            ('<', Some('=')) => {
                self.pos += 2;
                Token::Le
            }
            ('<', Some('>')) => {
                self.pos += 2;
                Token::Ne
            }
            ('<', Some('<')) => {
                self.pos += 2;
                Token::Shl
            }
            ('>', Some('=')) => {
                self.pos += 2;
                Token::Ge
            }
            ('>', Some('>')) => {
                self.pos += 2;
                Token::Shr
            }
            ('!', Some('=')) => {
                self.pos += 2;
                Token::Ne
            }
            ('&', Some('&')) => {
                self.pos += 2;
                Token::AndAnd
            }
            ('|', Some('|')) => {
                self.pos += 2;
                Token::OrOr
            }
            _ => {
                self.pos += 1;
                match c {
                    '(' => Token::LParen,
                    ')' => Token::RParen,
                    ',' => Token::Comma,
                    ';' => Token::Semicolon,
                    '.' => Token::Dot,
                    '*' => Token::Star,
                    '+' => Token::Plus,
                    '-' => Token::Minus,
                    '/' => Token::Slash,
                    '%' => Token::Percent,
                    '=' => Token::Eq,
                    '<' => Token::Lt,
                    '>' => Token::Gt,
                    '!' => Token::Bang,
                    '&' => Token::Ampersand,
                    '|' => Token::Pipe,
                    '^' => Token::Caret,
                    '~' => Token::Tilde,
                    '?' => Token::Param,
                    other => {
                        return Err(self.err(start, &format!("unexpected character `{other}`")))
                    }
                }
            }
        };
        Ok(tok)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == '@' || c == '$' || !c.is_ascii()
}

fn is_ident_part(c: char) -> bool {
    is_ident_start(c) || c.is_ascii_digit()
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

    fn toks(src: &str) -> Vec<Token> {
        lex(src)
            .expect("lex ok")
            .tokens
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn lexes_simple_select() {
        let t = toks("SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234");
        assert_eq!(t[0], Token::Ident("SELECT".into()));
        assert_eq!(t[1], Token::Star);
        assert!(t.contains(&Token::Str("ID34FG".into())));
        assert!(t.contains(&Token::Int(1234)));
    }

    #[test]
    fn double_dash_requires_whitespace() {
        // `a--b` is arithmetic (a - (-b)), not a comment.
        let t = toks("a--b");
        assert_eq!(
            t,
            vec![
                Token::Ident("a".into()),
                Token::Minus,
                Token::Minus,
                Token::Ident("b".into())
            ]
        );
        // `a-- b` *is* a comment.
        let out = lex("a-- b").unwrap();
        assert_eq!(out.tokens.len(), 1);
        assert!(out.trailing_line_comment);
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
        assert!(t.iter().any(|t| t.is_kw("UNION")));
    }

    #[test]
    fn string_escapes() {
        assert_eq!(toks(r"'a\'b'"), vec![Token::Str("a'b".into())]);
        assert_eq!(toks("'a''b'"), vec![Token::Str("a'b".into())]);
        assert_eq!(toks(r"'a\nb'"), vec![Token::Str("a\nb".into())]);
        assert_eq!(toks(r#""dq""#), vec![Token::Str("dq".into())]);
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
    }

    #[test]
    fn operators() {
        assert_eq!(
            toks("a <=> b <> c != d"),
            vec![
                Token::Ident("a".into()),
                Token::NullSafeEq,
                Token::Ident("b".into()),
                Token::Ne,
                Token::Ident("c".into()),
                Token::Ne,
                Token::Ident("d".into()),
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
    }

    #[test]
    fn params() {
        assert_eq!(
            toks("? , ?"),
            vec![Token::Param, Token::Comma, Token::Param]
        );
    }
}
