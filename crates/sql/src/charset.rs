//! Connection-charset decoding — the root of the *semantic mismatch*.
//!
//! MySQL receives query bytes in the connection character set and converts
//! them to its internal representation before parsing. Under the common
//! `utf8_general_ci`-style collations several Unicode code points collapse
//! onto ASCII characters with syntactic meaning. The canonical example from
//! the paper: `U+02BC` (MODIFIER LETTER APOSTROPHE) is decoded into a plain
//! prime `'`, *after* application-side sanitization (which only escapes the
//! ASCII quote) has already run. This gap between what the application
//! believes it sent and what the DBMS executes is what SEPTIC calls the
//! **semantic mismatch**.
//!
//! This module reproduces that behaviour for the code points that matter to
//! the attacks in the paper's demonstration, plus the usual homoglyph
//! suspects that real-world WAF bypasses use (fullwidth forms, smart
//! quotes).

/// How a single character was rewritten by [`decode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CharsetSubstitution {
    /// Byte offset in the *input* string where the substitution occurred.
    pub offset: usize,
    /// The original code point.
    pub from: char,
    /// The ASCII character MySQL folds it into.
    pub to: char,
}

/// Result of decoding a query string from the connection charset.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodedQuery {
    /// The query text as the parser will see it.
    pub text: String,
    /// Every homoglyph substitution that was applied, for diagnostics.
    pub substitutions: Vec<CharsetSubstitution>,
}

/// Maps a non-ASCII code point to the ASCII character MySQL's connection
/// charset conversion folds it into, if any.
///
/// The table intentionally covers only *syntactically dangerous* targets:
/// quotes, double quotes, backslash-lookalikes and fullwidth punctuation.
/// Folding of alphabetic homoglyphs (which only affects collation order,
/// not syntax) is irrelevant to injection and therefore omitted.
#[must_use]
pub fn fold_char(c: char) -> Option<char> {
    Some(match c {
        // Apostrophe / prime lookalikes → '
        '\u{02BC}' | '\u{2018}' | '\u{2019}' | '\u{201A}' | '\u{2032}' | '\u{FF07}'
        | '\u{02B9}' => '\'',
        // Double-quote lookalikes → "
        '\u{02BA}' | '\u{201C}' | '\u{201D}' | '\u{201E}' | '\u{2033}' | '\u{FF02}' => '"',
        // Backslash lookalikes → \
        '\u{FF3C}' | '\u{2216}' => '\\',
        // Fullwidth punctuation with SQL syntax meaning.
        '\u{FF08}' => '(',
        '\u{FF09}' => ')',
        '\u{FF0C}' => ',',
        '\u{FF1B}' => ';',
        '\u{FF1D}' => '=',
        '\u{FF0D}' => '-',
        '\u{FF03}' => '#',
        '\u{FF05}' => '%',
        _ => return None,
    })
}

/// Decodes a query string the way MySQL's connection-charset conversion
/// does: dangerous Unicode homoglyphs are folded to their ASCII
/// equivalents; everything else passes through unchanged.
///
/// # Examples
///
/// ```
/// use septic_sql::charset::decode;
///
/// // U+02BC is *not* an ASCII quote, so `mysql_real_escape_string` leaves
/// // it alone — but the DBMS decodes it into one.
/// let decoded = decode("SELECT * FROM t WHERE a = 'x\u{02BC} OR 1=1'");
/// assert!(decoded.text.contains("x' OR 1=1"));
/// assert_eq!(decoded.substitutions.len(), 1);
/// ```
#[must_use]
pub fn decode(raw: &str) -> DecodedQuery {
    // Every character the table folds is non-ASCII: an ASCII query is
    // copied whole.
    if raw.is_ascii() {
        return DecodedQuery {
            text: raw.to_owned(),
            substitutions: Vec::new(),
        };
    }
    let mut text = String::with_capacity(raw.len());
    let mut substitutions = Vec::new();
    // The text between two folded characters is copied as one run.
    let mut copied = 0;
    for (offset, c) in raw.char_indices() {
        let Some(folded) = fold_char(c) else { continue };
        text.push_str(&raw[copied..offset]);
        text.push(folded);
        copied = offset + c.len_utf8();
        substitutions.push(CharsetSubstitution {
            offset,
            from: c,
            to: folded,
        });
    }
    text.push_str(&raw[copied..]);
    DecodedQuery {
        text,
        substitutions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Run copying and the ASCII shortcut change no output: the text is
        /// the per-character fold, the substitutions each folded character.
        #[test]
        fn decode_is_the_per_character_fold(raw in "\\PC{0,40}") {
            let d = decode(&raw);
            let folded: String = raw.chars().map(|c| fold_char(c).unwrap_or(c)).collect();
            prop_assert_eq!(&d.text, &folded);
            let expected: Vec<CharsetSubstitution> = raw
                .char_indices()
                .filter_map(|(offset, c)| fold_char(c).map(|to| CharsetSubstitution { offset, from: c, to }))
                .collect();
            prop_assert_eq!(d.substitutions, expected);
        }
    }

    #[test]
    fn ascii_passes_through_untouched() {
        let q = "SELECT * FROM tickets WHERE reservID = 'ID34FG'";
        let d = decode(q);
        assert_eq!(d.text, q);
        assert!(d.substitutions.is_empty());
    }

    #[test]
    fn modifier_apostrophe_becomes_prime() {
        let d = decode("ID34FG\u{02BC}-- ");
        assert_eq!(d.text, "ID34FG'-- ");
        assert_eq!(d.substitutions.len(), 1);
        assert_eq!(d.substitutions[0].from, '\u{02BC}');
        assert_eq!(d.substitutions[0].to, '\'');
    }

    #[test]
    fn smart_quotes_fold() {
        let d = decode("\u{2018}a\u{2019} \u{201C}b\u{201D}");
        assert_eq!(d.text, "'a' \"b\"");
        assert_eq!(d.substitutions.len(), 4);
    }

    #[test]
    fn fullwidth_punctuation_folds() {
        let d = decode("1\u{FF1D}1\u{FF1B}");
        assert_eq!(d.text, "1=1;");
    }

    #[test]
    fn offsets_are_byte_offsets_into_input() {
        let d = decode("ab\u{02BC}");
        assert_eq!(d.substitutions[0].offset, 2);
    }

    #[test]
    fn alphabetic_homoglyphs_are_not_folded() {
        // Cyrillic 'а' looks like Latin 'a' but has no syntactic meaning.
        let d = decode("\u{0430}bc");
        assert_eq!(d.text, "\u{0430}bc");
        assert!(d.substitutions.is_empty());
    }
}
