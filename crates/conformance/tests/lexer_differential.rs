//! The byte lexer against the character lexer it replaced.
//!
//! `septic_sql::token::lex` walks the query by byte offset, borrows its
//! words and literals, and converts offsets to character spans with a
//! cursor. [`charlex`] is the lexer before it: one `char` at a time,
//! every payload owned, spans counted by construction. On every input
//! below the two must produce the same tokens, payload text, spans,
//! leading comments, trailing-comment flag — or the same error, message
//! and span included. Every word's keyword class must be the keyword it
//! spells ASCII case-insensitively.
//!
//! The inputs: arbitrary Unicode; the parser fuzzer's corpus and its
//! mutants (lossy UTF-8, so full of U+FFFD); and pieces built to put
//! multibyte characters where a byte lexer slips — non-ASCII whitespace
//! between tokens and after `--`, multibyte words, `/*!` bodies holding
//! multibyte characters, and literals cut off right after one. A lexer
//! that slices off a character boundary panics here; one that counts a
//! span in bytes, or that drops a decoded escape, disagrees.
//!
//! `PROPTEST_CASES=20000 cargo test --release -p septic-conformance
//! --test lexer_differential` is the CI run.

use proptest::prelude::*;
use proptest::{fn_strategy, TestCaseError, TestRng};
use septic_conformance::charlex;
use septic_conformance::fuzz::{iteration_seed, mutant_for, seed_corpus, FUZZ_SEED};
use septic_sql::charset;
use septic_sql::token::{self, Kw};
use septic_sql::Span;

/// A token as both lexers can state it: kind, payload text, span.
#[derive(Debug, PartialEq)]
struct Seen {
    kind: &'static str,
    text: String,
    span: Span,
}

fn seen_reference(t: &charlex::SpannedToken) -> Seen {
    let (kind, text) = match &t.token {
        charlex::Token::Ident(s) => ("word", s.clone()),
        charlex::Token::QuotedIdent(s) => ("quoted", s.clone()),
        charlex::Token::Str(s) => ("string", s.clone()),
        charlex::Token::Int(v) => ("int", v.to_string()),
        charlex::Token::Float(v) => ("float", format!("{:#x}", v.to_bits())),
        other => ("operator", other.to_string()),
    };
    Seen {
        kind,
        text,
        span: t.span,
    }
}

fn seen_production(t: &token::SpannedToken) -> Seen {
    let (kind, text) = match &t.token {
        token::Token::Ident(s, _) => ("word", s.to_string()),
        token::Token::QuotedIdent(s) => ("quoted", s.to_string()),
        token::Token::Str(s) => ("string", s.to_string()),
        token::Token::Int(v) => ("int", v.to_string()),
        token::Token::Float(v) => ("float", format!("{:#x}", v.to_bits())),
        other => ("operator", other.to_string()),
    };
    Seen {
        kind,
        text,
        span: t.span,
    }
}

/// The keyword a word spells, found the slow way.
fn spelled(word: &str) -> Kw {
    Kw::ALL
        .iter()
        .copied()
        .find(|kw| word.eq_ignore_ascii_case(kw.text()))
        .unwrap_or(Kw::Other)
}

/// `Ok` when both lexers agree on `src`, else what differs.
fn agree(src: &str) -> Result<(), String> {
    match (charlex::lex(src), token::lex(src)) {
        (Ok(reference), Ok(production)) => {
            let expected: Vec<Seen> = reference.tokens.iter().map(seen_reference).collect();
            let got: Vec<Seen> = production.tokens.iter().map(seen_production).collect();
            if let Some(i) =
                (0..expected.len().max(got.len())).find(|&i| expected.get(i) != got.get(i))
            {
                return Err(format!(
                    "token {i}: reference {:?}, byte lexer {:?}",
                    expected.get(i),
                    got.get(i)
                ));
            }
            for t in &production.tokens {
                if let token::Token::Ident(word, kw) = t.token {
                    if kw != spelled(word) {
                        return Err(format!("`{word}` classed {kw:?}"));
                    }
                }
            }
            if reference.comments != production.comments {
                return Err(format!(
                    "comments: reference {:?}, byte lexer {:?}",
                    reference.comments, production.comments
                ));
            }
            if reference.trailing_line_comment != production.trailing_line_comment {
                return Err(format!(
                    "trailing line comment: reference {}, byte lexer {}",
                    reference.trailing_line_comment, production.trailing_line_comment
                ));
            }
            Ok(())
        }
        (Err(reference), Err(production)) if reference == production => Ok(()),
        (reference, production) => Err(format!(
            "reference {:?}, byte lexer {:?}",
            reference.map(|out| out.tokens.len()),
            production.map(|out| out.tokens.len())
        )),
    }
}

fn check(src: &str) -> Result<(), TestCaseError> {
    agree(src).map_err(|e| TestCaseError::fail(format!("{src:?}: {e}")))
}

/// Any scalar value: surrogates are skipped, the rest of the range is
/// fair game.
fn any_char(rng: &mut TestRng) -> char {
    loop {
        if let Some(c) = char::from_u32(rng.below(0x11_0000) as u32) {
            return c;
        }
    }
}

/// Characters with a meaning to the lexer, and multibyte ones it must
/// step over whole.
const SHARP: &[char] = &[
    '\'', '"', '`', '\\', '#', '-', '/', '*', '!', 'x', 'X', '0', '9', '.', 'e', '+', ' ', '\t',
    '\n', '\u{b}', ';', '(', '=', '<', '>', '|', '&', '?', 'a', '_', '%', '@', '$', '\0', '\u{a0}',
    '\u{85}', '\u{2028}', '\u{3000}', '\u{200b}', 'é', 'ß', '中', '😀', '\u{2bc}', '\u{fffd}',
];

fn unicode_query(rng: &mut TestRng) -> String {
    (0..rng.below(48))
        .map(|_| {
            if rng.bool() {
                *rng.pick(SHARP)
            } else {
                any_char(rng)
            }
        })
        .collect()
}

/// Up to `max` pieces of `pool`, concatenated.
fn pieces(rng: &mut TestRng, pool: &[&str], max: u64) -> String {
    (0..=rng.below(max)).map(|_| *rng.pick(pool)).collect()
}

const WHITESPACE_PIECES: &[&str] = &[
    "SELECT",
    "a",
    "1",
    "9223372036854775808",
    "'x'",
    "=",
    "--",
    "-",
    "#",
    "/* c */",
    "\u{a0}",
    "\u{2028}",
    "\u{3000}",
    "\u{85}",
    "\u{1680}",
    "\u{202f}",
    " ",
    "\n",
    "\u{b}",
    "\u{200b}",
    "\u{feff}",
];

const WORD_PIECES: &[&str] = &[
    "é",
    "中文",
    "naïve",
    "ß",
    "😀",
    "Ω",
    "_",
    "a",
    "1",
    "@",
    "$",
    ".",
    " ",
    "`",
    "SELECT",
    "sélect",
    "\u{17f}elect",
    "fRoM",
    "x",
    "X",
    "'",
    "0x",
    "e5",
    "IN",
    "current_timestamp",
];

const VERSION_PIECES: &[&str] = &[
    "/*!", "/*!50000", "/*!1", "*/", "*", "/", "中", "'é'", " ", "SELECT", "é", "-- ", "#", "/*",
    "1", "\u{3000}", "`ö`", "\u{2028}",
];

const UNTERMINATED_PIECES: &[&str] = &[
    "'", "\"", "`", "\\", "é", "中", "😀", "''", "a", "0x", "X'", "4", "\u{a0}", "/*", "/*!",
    "\\中",
];

proptest! {
    #[test]
    fn the_lexers_agree_on_arbitrary_unicode(src in fn_strategy(unicode_query)) {
        check(&src)?;
    }

    #[test]
    fn the_lexers_agree_around_non_ascii_whitespace(
        src in fn_strategy(|rng| pieces(rng, WHITESPACE_PIECES, 12)),
    ) {
        check(&src)?;
    }

    #[test]
    fn the_lexers_agree_on_multibyte_words(
        src in fn_strategy(|rng| pieces(rng, WORD_PIECES, 10)),
    ) {
        check(&src)?;
    }

    #[test]
    fn the_lexers_agree_inside_version_comments(
        src in fn_strategy(|rng| pieces(rng, VERSION_PIECES, 10)),
    ) {
        check(&src)?;
    }

    #[test]
    fn the_lexers_agree_on_literals_cut_off_mid_text(
        src in fn_strategy(|rng| pieces(rng, UNTERMINATED_PIECES, 8)),
    ) {
        check(&src)?;
    }
}

/// The parser fuzzer's seed corpus and mutants of it, raw and after the
/// charset decode, as the server sees them.
#[test]
fn the_lexers_agree_on_the_fuzz_corpus() {
    let corpus = seed_corpus();
    let mutants = (0..proptest::cases() as u64 * 20)
        .map(|i| mutant_for(iteration_seed(FUZZ_SEED, i), &corpus, 256));
    let mut disagreements = Vec::new();
    for bytes in corpus.iter().cloned().chain(mutants) {
        let raw = String::from_utf8_lossy(&bytes).into_owned();
        for src in [raw.clone(), charset::decode(&raw).text] {
            if let Err(e) = agree(&src) {
                disagreements.push(format!("{src:?}: {e}"));
            }
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} disagreements, the first: {}",
        disagreements.len(),
        disagreements[0]
    );
}
