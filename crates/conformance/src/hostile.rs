//! Hostile values, defined once: the byte mutator every decoder property
//! feeds ([`hostile`]), and the alphabet that literals, identifiers and
//! stored payloads are drawn from ([`PIECES`], [`text`], [`sql_literal`]),
//! with the integer and float edges beside it ([`int`], [`real`]).
//!
//! The mutator changes a byte to a small value half the time, and to its
//! neighbour a quarter of the time. A tag, an `Option` byte and a count's
//! low byte are small numbers, and the value next to a valid tag is the
//! one a decoder is most likely to take for another valid encoding. With
//! a uniformly random byte instead, two decoder mutations each survived
//! 20,000 cases of every format's property: reading the store's item data
//! tag 5 as ⊥, and reading `Value` tag 4 as a string
//! ([`crate::codec_property`] lists what fails them now).

use proptest::prelude::{Arbitrary, TestRng};

/// Text that SQL escaping, a JSON encoder and the id generator's comment
/// scan trip on: the backslash, both quotes, U+02BC, NUL, the `LIKE`
/// wildcards, letters a backslash before them decodes, the pieces of an
/// external id's comment, control characters (DEL included) and
/// multibyte text.
pub const PIECES: [&str; 26] = [
    "\\", "'", "\"", "\u{2BC}", "\0", "%", "_", "n", "t", "Z", "a", "C:\\new", "qid:", "*/", "\n",
    "\t", "\r", "\u{1}", "\u{8}", "\u{1a}", "\u{1b}", "\u{1f}", "\u{7f}", "é", "日本", "😀",
];

/// Up to seven pieces of [`PIECES`].
pub fn text(rng: &mut TestRng) -> String {
    (0..rng.below(8)).map(|_| *rng.pick(&PIECES)).collect()
}

/// A [`text`] as a quoted SQL string literal, each character in one of
/// the spellings the lexer decodes: a quote doubled or after a backslash,
/// `\\`, `\0`, `\b`, `\Z`, a newline or tab raw or escaped, and `%` / `_`
/// bare or after the backslash that `LIKE` keeps.
pub fn sql_literal(rng: &mut TestRng) -> String {
    let mut out = String::from("'");
    for c in text(rng).chars() {
        match c {
            '\'' if rng.bool() => out.push_str("''"),
            '\'' => out.push_str(r"\'"),
            '\\' => out.push_str(r"\\"),
            '\0' => out.push_str(r"\0"),
            '\u{8}' => out.push_str(r"\b"),
            '\u{1a}' => out.push_str(r"\Z"),
            '\n' if rng.bool() => out.push_str(r"\n"),
            '\t' if rng.bool() => out.push_str(r"\t"),
            '%' | '_' if rng.bool() => {
                out.push('\\');
                out.push(c);
            }
            c => out.push(c),
        }
    }
    out.push('\'');
    out
}

/// `i64::MIN`, `i64::MAX`, 0, -1 or any other integer.
pub fn int(rng: &mut TestRng) -> i64 {
    let any = rng.next_u64() as i64;
    *rng.pick(&[i64::MIN, i64::MAX, 0, -1, any])
}

/// Any float, any bit pattern (NaN payloads included), or an edge: ±inf,
/// NaN, -0.0 and two subnormals.
pub fn real(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => f64::arbitrary(rng),
        1 => f64::from_bits(rng.next_u64()),
        _ => *rng.pick(&[
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -0.0,
            f64::MIN_POSITIVE / 4.0,
            -f64::from_bits(1),
        ]),
    }
}

/// What a hostile peer or a damaged medium hands a decoder: noise, or a
/// `valid` encoding with one byte changed (half the time to a small
/// value, a quarter to its neighbour), cut short or one byte longer.
pub fn hostile(rng: &mut TestRng, valid: impl FnOnce(&mut TestRng) -> Vec<u8>) -> Vec<u8> {
    let mut bytes = match rng.below(4) {
        0 => (0..rng.below(40)).map(|_| rng.next_u64() as u8).collect(),
        _ => valid(rng),
    };
    let len = bytes.len() as u64;
    let byte = |rng: &mut TestRng, was: u8| match rng.below(4) {
        0 | 1 => rng.below(8) as u8,
        2 if rng.bool() => was.wrapping_add(1),
        2 => was.wrapping_sub(1),
        _ => rng.next_u64() as u8,
    };
    match rng.below(4) {
        0 if len > 0 => {
            let at = rng.below(len) as usize;
            bytes[at] = byte(rng, bytes[at]);
        }
        1 => bytes.truncate(rng.below(len + 1) as usize),
        2 => bytes.push(byte(rng, 0)),
        _ => {}
    }
    bytes
}
