//! The reference lexer: the character-at-a-time lexer `septic-sql` had
//! before its lexer walked bytes, kept as test code, the way the AST
//! walker is kept beside the VM.
//!
//! It collects the query into a `Vec<char>`, owns every token's text and
//! counts spans in characters by construction, which makes it slow and
//! easy to believe. `tests/lexer_differential.rs` lexes generated and
//! fuzzed queries with both and demands the same tokens, payloads, spans,
//! comments, trailing-comment flag and errors: the production lexer's
//! byte offsets, borrowed slices and span cursor must not show.
//!
//! Not for production use: `septic_sql::token::lex` is the one lexer.

use std::fmt;

use septic_sql::{ParseError, Span};

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
    /// Unsigned integer literal; 2^63 is held by its bits, as `i64::MIN`.
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

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
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
                            if matches!(e, '%' | '_') {
                                s.push('\\');
                            }
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
            // Overflowing integers fall back to float, like MySQL DECIMAL;
            // 2^63 stays an integer token, for a minus sign to fold.
            match text.parse::<u64>() {
                Ok(v) if v <= 1 << 63 => Ok(Token::Int(v as i64)),
                _ => text
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
