//! What the front half of a request allocates: the lexer borrows every
//! word and literal from the query, so a parse allocates the token vector
//! and the tree it returns — the `Box`es, `Vec`s and `String`s the AST
//! keeps — and nothing per keyword, operator or number. The QS build
//! after it allocates the stack once and a `String` only for a node that
//! owns its text: an identifier or a string literal.
//!
//! Exact counts from `septic_conformance::alloc`'s counting allocator,
//! per test thread.

use std::borrow::Cow;

use septic_conformance::alloc::{allocations, Counting};
use septic_sql::items::lower_all;
use septic_sql::token::lex;
use septic_sql::{charset, parse, ItemData};

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The one allocation of a lex is its token vector, sized at a token per
/// four bytes of query, which SQL with words longer than a letter or two
/// stays under.
#[test]
fn keywords_operators_and_numbers_allocate_nothing() {
    let src = "SELECT DISTINCT name, price FROM tickets WHERE owner <=> 17 AND price <> 2.5 \
               OR seats >= 1e3 AND NOT kind IN (10, 20) ORDER BY name DESC LIMIT 100";
    assert_eq!(
        allocations(|| lex(src).expect("lexes")),
        1,
        "the token vector"
    );
    // Literals borrow unless an escape or a doubled quote is decoded, and a
    // comment is kept only before the first token.
    let literals = "SELECT 'plain', `quoted`, \"double\" /* dropped */ FROM t";
    assert_eq!(allocations(|| lex(literals).expect("lexes")), 1);
    let decoded = r"SELECT 'it''s', 'a\nb', `a``b` FROM t";
    assert_eq!(allocations(|| lex(decoded).expect("lexes")), 1 + 3);
    let leading = "/* qid:login-1 */ SELECT 1";
    assert_eq!(allocations(|| lex(leading).expect("lexes")), 1 + 2);
}

#[test]
fn an_ascii_query_decodes_with_one_copy() {
    let src = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234";
    assert_eq!(allocations(|| charset::decode(src)), 1);
}

/// The paper's query and a `guard_hot`-shaped one (a program-point
/// comment, a projection, five predicates): the lexer's one vector, the
/// comment, and the tree.
#[test]
fn a_parse_allocates_its_tree_and_one_token_vector() {
    for (sql, most) in [(PAPER, PAPER_QUERY), (GUARD_HOT, GUARD_HOT_QUERY)] {
        let made = allocations(|| parse(sql).expect("parses"));
        println!("{made} allocations: {sql}");
        assert!(made <= most, "{made} allocations, at most {most}: {sql}");
    }
}

const PAPER: &str = "SELECT * FROM tickets WHERE reservID = 'ID34FG' AND creditCard = 1234";
const GUARD_HOT: &str = "/* qid:gh-r07 */ SELECT id, reservID FROM tickets \
                         WHERE reservID = 'T0000042' AND price < 77 AND owner_id = 3 \
                         AND note = 'window seat' AND id < 44";

/// The statement, item and `FROM` vectors, the table name, two column
/// names, two `Box`es for each of the three binary nodes, the string
/// literal and the token vector.
const PAPER_QUERY: u64 = 14;
/// The comment vector and its comment, the projection's vector and two
/// names, five column names, two string literals, eighteen `Box`es for
/// nine binary nodes, and the statement, `FROM` and token vectors with
/// the table name.
const GUARD_HOT_QUERY: u64 = 34;

/// `lower_all` sizes the stack in a counting pass and allocates it once;
/// operators, keywords and `*` are `&'static` text. What is left is one
/// `String` per identifier or string-literal node: the paper's query has
/// three identifiers and a literal, the `guard_hot` one eight and two.
#[test]
fn the_qs_build_allocates_the_stack_and_the_text_it_owns() {
    for (sql, owning) in [(PAPER, 4), (GUARD_HOT, 10)] {
        let parsed = parse(sql).expect("parses");
        let made = allocations(|| lower_all(&parsed.statements));
        let stack = lower_all(&parsed.statements);
        let owned = stack
            .items()
            .iter()
            .filter(|i| matches!(i.data, ItemData::Text(Cow::Owned(_))))
            .count();
        assert_eq!(owned, owning, "{stack}");
        assert_eq!(made, owning as u64 + 1, "{sql}");
    }
}
