//! Runtime values and MySQL's type-coercion semantics.
//!
//! MySQL's implicit conversions are a documented source of injection
//! surprises (another face of the *semantic mismatch*): a string compared
//! with a number is converted with a *leading numeric prefix* parse, so
//! `'1abc' = 1` is true and `'abc' = 0` is true. The executor reproduces
//! those rules here.

use std::cmp::Ordering;
use std::fmt;

/// A runtime cell value.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    #[default]
    Null,
    Int(i64),
    Real(f64),
    Str(String),
}

impl Value {
    /// True when the value is SQL `NULL`.
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// MySQL numeric coercion: strings parse their longest numeric prefix
    /// (`'1abc'` → 1, `'abc'` → 0), NULL stays NULL.
    #[must_use]
    pub fn to_real(&self) -> Option<f64> {
        match self {
            Value::Null => None,
            Value::Int(v) => Some(*v as f64),
            Value::Real(v) => Some(*v),
            Value::Str(s) => Some(numeric_prefix(s)),
        }
    }

    /// Integer view: an integer is itself, exactly; real values truncate
    /// toward zero (MySQL-style rounding differences are irrelevant for
    /// the reproduced workloads).
    #[must_use]
    pub fn to_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            other => other.to_real().map(|f| f as i64),
        }
    }

    /// MySQL truthiness: non-zero numeric value. `'abc'` coerces to 0 and
    /// is false; `'1'` is true. NULL is neither (treated as false in WHERE).
    #[must_use]
    pub fn is_truthy(&self) -> bool {
        self.to_real().is_some_and(|f| f != 0.0)
    }

    /// String rendering used by `CONCAT` and friends.
    #[must_use]
    pub fn to_display_string(&self) -> String {
        match self {
            Value::Null => String::new(),
            Value::Int(v) => v.to_string(),
            Value::Real(v) => format_real(*v),
            Value::Str(s) => s.clone(),
        }
    }

    /// Three-valued SQL equality under MySQL coercion rules:
    /// `None` when either side is NULL.
    #[must_use]
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Three-valued comparison under MySQL coercion:
    ///
    /// * NULL on either side → `None`;
    /// * string vs string → binary (case-sensitive) string comparison is
    ///   what `utf8_bin` would do, but MySQL's default collations are
    ///   case-insensitive — we follow the default (`a = 'A'` is true);
    /// * integer vs integer → exact integer comparison (no `f64` in
    ///   between, so integers past 2^53 stay distinct);
    /// * any other numeric operand → both sides coerce to doubles, MySQL's
    ///   rule for an integer against a real.
    #[must_use]
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(case_insensitive_cmp(a, b)),
            _ => {
                let a = self.to_real()?;
                let b = other.to_real()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// NULL-safe equality (`<=>`): never NULL, NULL <=> NULL is true.
    #[must_use]
    pub fn null_safe_eq(&self, other: &Value) -> bool {
        match (self.is_null(), other.is_null()) {
            (true, true) => true,
            (true, false) | (false, true) => false,
            (false, false) => self.sql_eq(other).unwrap_or(false),
        }
    }

    /// `LIKE` pattern match (`%` and `_` wildcards, `\` their escape,
    /// case-insensitive as in MySQL's default collation). Returns `None` if
    /// either side is NULL.
    #[must_use]
    pub fn sql_like(&self, pattern: &Value) -> Option<bool> {
        if self.is_null() || pattern.is_null() {
            return None;
        }
        // ASCII text against an ASCII pattern folds byte by byte as it is
        // matched; nothing is copied per evaluated row.
        if let (Value::Str(text), Value::Str(pat)) = (self, pattern) {
            if text.is_ascii() && pat.is_ascii() {
                let fold = |b: &u8| b.to_ascii_lowercase();
                return Some(like_match(text.as_bytes(), pat.as_bytes(), fold));
            }
        }
        let text = self.to_display_string().to_lowercase();
        let pat = pattern.to_display_string().to_lowercase();
        Some(like_match(
            &text.chars().collect::<Vec<_>>(),
            &pat.chars().collect::<Vec<_>>(),
            |c| *c,
        ))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => f.write_str(&format_real(*v)),
            Value::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

/// Case-folded string ordering (the executor compares strings per row in
/// WHERE evaluation): ASCII-folded bytes while both sides are ASCII, and
/// [`folded_chars_cmp`] over what is left from the first non-ASCII byte
/// of either side on. An ASCII character lower-cases to one ASCII
/// character, so up to there the two orderings read the same sequence,
/// and the split falls on a character boundary of both strings. A side
/// that ends first is a prefix of the other, and every character folds
/// to at least one: the shorter string sorts first. Two equal ASCII bytes
/// fold alike and are passed over unfolded; an equal byte from 0x80 up
/// may be part of a character that still differs, so it is not.
///
/// Equal ASCII bytes are passed over eight at a time: in the word
/// `(x ^ y) | ((x | y) & 0x80…80)` of eight bytes of each side, a byte
/// is zero exactly when the two bytes are equal and ASCII, so a zero word
/// is skipped whole and the lowest nonzero byte is the first one the
/// per-byte rule must look at. A case-only difference there goes on from
/// the byte after it; the tail shorter than a word goes byte by byte.
fn case_insensitive_cmp(a: &str, b: &str) -> Ordering {
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let (x, y) = (a.as_bytes(), b.as_bytes());
    let n = x.len().min(y.len());
    // The per-byte rule at a byte that differs or is not ASCII: the
    // order, or `None` when the two differ in case only.
    let differ = |at: usize| {
        let (p, q) = (x[at], y[at]);
        if !(p.is_ascii() && q.is_ascii()) {
            return Some(folded_chars_cmp(&a[at..], &b[at..]));
        }
        Some(p.to_ascii_lowercase().cmp(&q.to_ascii_lowercase())).filter(|o| o.is_ne())
    };
    let word = |s: &[u8], i: usize| u64::from_le_bytes(s[i..i + 8].try_into().expect("8 bytes"));
    let mut i = 0;
    while i + 8 <= n {
        let (p, q) = (word(x, i), word(y, i));
        let stop = (p ^ q) | ((p | q) & HIGH);
        if stop == 0 {
            i += 8;
            continue;
        }
        let at = i + (stop.trailing_zeros() / 8) as usize;
        if let Some(order) = differ(at) {
            return order;
        }
        i = at + 1;
    }
    for (at, (p, q)) in x[i..n].iter().zip(&y[i..n]).enumerate() {
        if p == q && p.is_ascii() {
            continue;
        }
        if let Some(order) = differ(i + at) {
            return order;
        }
    }
    x.len().cmp(&y.len())
}

/// Ordering of the two strings' characters, each lower-cased by
/// [`char::to_lowercase`] (one character may become several), without
/// allocating lowercase copies.
fn folded_chars_cmp(a: &str, b: &str) -> Ordering {
    let mut ai = a.chars().flat_map(char::to_lowercase);
    let mut bi = b.chars().flat_map(char::to_lowercase);
    loop {
        match (ai.next(), bi.next()) {
            (None, None) => return Ordering::Equal,
            (None, Some(_)) => return Ordering::Less,
            (Some(_), None) => return Ordering::Greater,
            (Some(x), Some(y)) => match x.cmp(&y) {
                Ordering::Equal => {}
                other => return other,
            },
        }
    }
}

fn format_real(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// MySQL's leading-numeric-prefix parse: skips leading whitespace, accepts
/// an optional sign, digits, one decimal point and an exponent; anything
/// after the prefix is ignored; no digits at all yields 0.
#[must_use]
pub fn numeric_prefix(s: &str) -> f64 {
    let t = s.trim_start();
    let bytes = t.as_bytes();
    let mut end = 0usize;
    let mut seen_digit = false;
    let mut seen_dot = false;
    if end < bytes.len() && (bytes[end] == b'+' || bytes[end] == b'-') {
        end += 1;
    }
    while end < bytes.len() {
        match bytes[end] {
            b'0'..=b'9' => {
                seen_digit = true;
                end += 1;
            }
            b'.' if !seen_dot => {
                seen_dot = true;
                end += 1;
            }
            b'e' | b'E' if seen_digit => {
                // exponent: e[+/-]digits — only accept if digits follow
                let mut k = end + 1;
                if k < bytes.len() && (bytes[k] == b'+' || bytes[k] == b'-') {
                    k += 1;
                }
                let exp_digits_start = k;
                while k < bytes.len() && bytes[k].is_ascii_digit() {
                    k += 1;
                }
                if k > exp_digits_start {
                    end = k;
                }
                break;
            }
            _ => break,
        }
    }
    if !seen_digit {
        return 0.0;
    }
    t[..end].parse::<f64>().unwrap_or(0.0)
}

/// `LIKE` over characters or bytes; `fold` is applied to both sides of a
/// literal comparison (the identity for input that is folded already). A
/// `\` makes the next pattern character literal, as MySQL's default
/// escape does, and a trailing `\` matches itself.
///
/// Two pointers, no recursion: when a literal stops matching, only the
/// last `%` seen takes one more character and the match resumes after it.
/// An earlier `%` never needs to: whatever it would swallow, the last one
/// can. So a pattern costs at most `text.len() * pat.len()` steps, however
/// many `%`s it holds.
fn like_match<T: Copy + PartialEq + From<u8>>(
    text: &[T],
    pat: &[T],
    fold: impl Fn(&T) -> T,
) -> bool {
    let (percent, any, escape) = (T::from(b'%'), T::from(b'_'), T::from(b'\\'));
    let (mut t, mut p) = (0, 0);
    // The pattern index just past the last `%`, and the text index its
    // swallowing currently ends at.
    let mut resume: Option<(usize, usize)> = None;
    while t < text.len() {
        if pat.get(p) == Some(&percent) {
            p += 1;
            resume = Some((p, t));
            continue;
        }
        // The pattern width the text character matched.
        let matched = match pat.get(p) {
            Some(c) if *c == any => Some(1),
            Some(c) if *c == escape => {
                let (literal, width) = pat.get(p + 1).map_or((c, 1), |next| (next, 2));
                (fold(literal) == fold(&text[t])).then_some(width)
            }
            Some(c) => (fold(c) == fold(&text[t])).then_some(1),
            None => None,
        };
        if let Some(width) = matched {
            p += width;
            t += 1;
        } else if let Some((after, swallowed)) = resume {
            resume = Some((after, swallowed + 1));
            p = after;
            t = swallowed + 1;
        } else {
            return false;
        }
    }
    pat[p..].iter().all(|c| *c == percent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn numeric_prefix_rules() {
        assert_eq!(numeric_prefix("1abc"), 1.0);
        assert_eq!(numeric_prefix("abc"), 0.0);
        assert_eq!(numeric_prefix("  -3.5x"), -3.5);
        assert_eq!(numeric_prefix("1e3zz"), 1000.0);
        assert_eq!(numeric_prefix("1e"), 1.0);
        assert_eq!(numeric_prefix(""), 0.0);
        assert_eq!(numeric_prefix("."), 0.0);
    }

    #[test]
    fn semantic_mismatch_comparisons() {
        // The classics: string/number type juggling.
        assert_eq!(Value::from("abc").sql_eq(&Value::Int(0)), Some(true));
        assert_eq!(Value::from("1abc").sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::from("2").sql_eq(&Value::Int(2)), Some(true));
        assert_eq!(Value::from("2x").sql_eq(&Value::from("2")), Some(false)); // str vs str
    }

    #[test]
    fn null_propagation() {
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert!(Value::Null.null_safe_eq(&Value::Null));
        assert!(!Value::Null.null_safe_eq(&Value::Int(0)));
        assert!(!Value::Null.is_truthy());
    }

    #[test]
    fn string_comparison_is_case_insensitive() {
        assert_eq!(Value::from("Ann").sql_eq(&Value::from("ann")), Some(true));
        assert_eq!(
            Value::from("a").sql_cmp(&Value::from("B")),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn ascii_collation_cases() {
        assert_eq!(Value::from("a").sql_eq(&Value::from("A")), Some(true));
        assert_eq!(
            Value::from("abc").sql_cmp(&Value::from("ABD")),
            Some(Ordering::Less)
        );
        // A strict prefix sorts first, whichever side folds.
        assert_eq!(case_insensitive_cmp("AB", "abc"), Ordering::Less);
        assert_eq!(case_insensitive_cmp("abc", "AB"), Ordering::Greater);
        assert_eq!(case_insensitive_cmp("", ""), Ordering::Equal);
    }

    #[test]
    fn non_ascii_collation_keeps_the_per_character_fold() {
        // U+212A KELVIN SIGN lower-cases to ASCII `k`.
        assert_eq!(case_insensitive_cmp("\u{212A}", "k"), Ordering::Equal);
        assert_eq!(case_insensitive_cmp("ab\u{212A}", "ABK"), Ordering::Equal);
        // U+0130 expands to `i` + U+0307: longer than a plain `i`.
        assert_eq!(case_insensitive_cmp("\u{130}", "i"), Ordering::Greater);
        assert_eq!(
            case_insensitive_cmp("x\u{130}", "Xi\u{307}"),
            Ordering::Equal
        );
        // `ß` does not fold to `ss`; `ǅ` folds to `ǆ`.
        assert_eq!(
            case_insensitive_cmp("stra\u{df}e", "STRASSE"),
            Ordering::Greater
        );
        assert_eq!(case_insensitive_cmp("\u{1C5}", "\u{1C6}"), Ordering::Equal);
        // Equal non-ASCII bytes, then the first difference: an ASCII case
        // pair, and a continuation byte after a shared lead byte.
        assert_eq!(case_insensitive_cmp("\u{e9}a", "\u{e9}B"), Ordering::Less);
        assert_eq!(case_insensitive_cmp("\u{e9}", "\u{c9}"), Ordering::Equal);
        assert_eq!(
            case_insensitive_cmp("x\u{e9}", "x\u{df}"),
            Ordering::Greater
        );
    }

    /// The word path at every offset of the first difference, 0 to 24 (so
    /// at each byte of three words and the tail), and with 0 to 9 bytes
    /// after it (so the rest starts inside a word or at the tail). Hand
    /// check: without the high-bit mask in `stop`, `é` / `É` skips its
    /// shared lead byte and splits the character, and this test fails.
    #[test]
    fn the_word_path_finds_the_first_difference_at_every_offset() {
        const DIFFERS: [(&str, &str); 8] = [
            ("a", "A"),
            ("b", "c"),
            ("c", "B"),
            ("\u{e9}", "e"),
            ("z", "\u{e9}"),
            ("\u{e9}", "\u{c9}"),
            ("K", "\u{212A}"),
            ("", "x"),
        ];
        let filler = "note-ABCDefghIJKLmnopQRSTuvwx";
        for k in 0..=24 {
            for after in 0..10 {
                for (x, y) in DIFFERS {
                    let tail = &filler[..after];
                    let a = format!("{}{x}{tail}", &filler[..k]);
                    let b = format!("{}{y}{}", &filler[..k], tail.to_lowercase());
                    for (a, b) in [(&a, &b), (&b, &a)] {
                        assert_eq!(
                            case_insensitive_cmp(a, b),
                            folded_chars_cmp(a, b),
                            "{a:?} against {b:?}"
                        );
                    }
                }
            }
        }
    }

    /// Strings biased toward what the byte path could get wrong: case
    /// pairs, characters whose lower-case form is ASCII or is several
    /// characters, combining marks, and ASCII prefixes of any length.
    fn collation_string() -> impl Strategy<Value = String> {
        const POOL: [&str; 17] = [
            "a", "A", "k", "K", "z", "i", "I", "\u{130}", "\u{212A}", "\u{df}", "\u{1C5}",
            "\u{1C6}", "\u{307}", "e\u{301}", "\u{3a3}", "\u{e9}", "\u{c9}",
        ];
        fn_strategy(|rng| {
            let mut s: String = (0..rng.below(5)).map(|_| *rng.pick(&POOL)).collect();
            if rng.bool() {
                s.insert_str(0, &"[a-cA-C]{0,4}".generate(rng));
            }
            s
        })
    }

    /// 0 to 64 bytes both sides of a comparison share, byte for byte,
    /// before they differ: ASCII, two-byte characters that share a lead
    /// byte with others (`é`, `É`, `ß`), and three- and four-byte ones.
    fn common_prefix() -> impl Strategy<Value = String> {
        const POOL: [&str; 10] = [
            "a",
            "B",
            "z",
            "7",
            "\u{e9}",
            "\u{c9}",
            "\u{df}",
            "\u{212A}",
            "\u{4e2d}",
            "\u{1F600}",
        ];
        fn_strategy(|rng| {
            let limit = rng.below(65) as usize;
            let mut prefix = String::new();
            loop {
                let piece = *rng.pick(&POOL);
                if prefix.len() + piece.len() > limit {
                    return prefix;
                }
                prefix.push_str(piece);
            }
        })
    }

    /// The recursive matcher `like_match` replaced: a `%` tries every
    /// suffix of the text, so its cost is exponential in the `%`s.
    fn like_match_reference(text: &[char], pat: &[char]) -> bool {
        let Some((p, rest)) = pat.split_first() else {
            return text.is_empty();
        };
        match (p, rest) {
            ('%', _) => (0..=text.len()).any(|i| like_match_reference(&text[i..], rest)),
            ('_', _) => !text.is_empty() && like_match_reference(&text[1..], rest),
            ('\\', [literal, rest @ ..]) => {
                text.first() == Some(literal) && like_match_reference(&text[1..], rest)
            }
            _ => text.first() == Some(p) && like_match_reference(&text[1..], rest),
        }
    }

    /// What `sql_like` was before it matched ASCII on bytes and without
    /// recursion: the per-character fold and the recursive matcher.
    fn sql_like_reference(text: &Value, pattern: &Value) -> Option<bool> {
        if text.is_null() || pattern.is_null() {
            return None;
        }
        let text: Vec<char> = text.to_display_string().to_lowercase().chars().collect();
        let pat: Vec<char> = pattern.to_display_string().to_lowercase().chars().collect();
        Some(like_match_reference(&text, &pat))
    }

    fn like_operand() -> impl Strategy<Value = Value> {
        fn_strategy(|rng| match rng.below(8) {
            0 => Value::Null,
            1 => Value::Int(rng.below(200) as i64 - 100),
            2 => Value::Str("[a-bA-B%_\\\\\u{e9}\u{c9}\u{3a3}]{0,12}".generate(rng)),
            _ => Value::Str("[a-bA-B%_\\\\]{0,12}".generate(rng)),
        })
    }

    proptest! {
        /// The byte path is the old per-character fold, on every input.
        /// Passing over an equal byte from 0x80 up as an equal ASCII byte
        /// is passed over fails it (and
        /// `non_ascii_collation_keeps_the_per_character_fold`).
        #[test]
        fn collation_matches_the_per_character_fold(
            a in collation_string(), b in collation_string(), c in "\\PC{0,6}", share in any::<bool>(),
            prefix in common_prefix()
        ) {
            // Half the pairs share a prefix up to case, so the fold gets
            // past it; every pair shares `prefix` byte for byte.
            let (a, b) = if share { (format!("{c}{a}"), format!("{}{b}", c.to_uppercase())) } else { (a, b) };
            let (a, b) = (format!("{prefix}{a}"), format!("{prefix}{b}"));
            prop_assert_eq!(case_insensitive_cmp(&a, &b), folded_chars_cmp(&a, &b));
            prop_assert_eq!(case_insensitive_cmp(&b, &a), folded_chars_cmp(&b, &a));
            // A string PK finds a row exactly when `=` calls the keys equal.
            let same_key = crate::storage::PkKey::text(&a) == crate::storage::PkKey::text(&b);
            prop_assert_eq!(same_key, case_insensitive_cmp(&a, &b) == Ordering::Equal);
        }

        #[test]
        fn like_matches_its_allocating_reference(text in like_operand(), pat in like_operand()) {
            prop_assert_eq!(text.sql_like(&pat), sql_like_reference(&text, &pat));
        }
    }

    #[test]
    fn truthiness() {
        assert!(Value::Int(1).is_truthy());
        assert!(!Value::Int(0).is_truthy());
        assert!(Value::from("1").is_truthy());
        assert!(!Value::from("abc").is_truthy());
        assert!(Value::Real(0.5).is_truthy());
    }

    #[test]
    fn like_wildcards() {
        let v = Value::from("hello world");
        assert_eq!(v.sql_like(&Value::from("hello%")), Some(true));
        assert_eq!(v.sql_like(&Value::from("%WORLD")), Some(true));
        assert_eq!(v.sql_like(&Value::from("h_llo%")), Some(true));
        assert_eq!(v.sql_like(&Value::from("nope")), Some(false));
        assert_eq!(v.sql_like(&Value::Null), None);
        assert_eq!(Value::from("").sql_like(&Value::from("%")), Some(true));
    }

    /// `\` makes the next pattern character literal (how applications
    /// escape LIKE input), and a trailing `\` matches itself.
    #[test]
    fn a_backslash_escapes_the_next_pattern_character() {
        for (text, pat, like) in [
            ("a%b", "a\\%b", true),
            ("axyb", "a\\%b", false),
            ("a_b", "a\\_b", true),
            ("axb", "a\\_b", false),
            ("a\\b", "a\\\\b", true),
            ("ab", "a\\b", true),
            ("AB", "a\\b", true),
            ("a\\", "a\\", true),
            ("a", "a\\", false),
            ("a%", "%\\%", true),
            ("a%x", "%\\%", false),
            ("é%", "_\\%", true),
        ] {
            assert_eq!(
                Value::from(text).sql_like(&Value::from(pat)),
                Some(like),
                "{text:?} LIKE {pat:?}"
            );
        }
    }

    #[test]
    fn like_cost_does_not_multiply_with_each_percent() {
        // The recursive matcher took seconds here at five `%a`s.
        let text = Value::from("a".repeat(200));
        for k in [1, 5, 200, 201] {
            let unmatched = Value::from(format!("{}b", "%a".repeat(k)));
            assert_eq!(text.sql_like(&unmatched), Some(false));
            let matched = Value::from("%a".repeat(k));
            assert_eq!(text.sql_like(&matched), Some(k <= 200));
        }
    }

    #[test]
    fn display_and_string_render() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(Value::Real(3.0).to_string(), "3");
        assert_eq!(Value::Real(3.25).to_string(), "3.25");
        assert_eq!(Value::Null.to_display_string(), "");
    }
}
