//! Scalar SQL function implementations (the non-aggregate builtins).

use std::borrow::Cow;

use septic_sql::Fnv1a;

use crate::error::DbError;
use crate::value::Value;

/// Outcome side effects of evaluating scalar functions that do more than
/// compute a value (currently `SLEEP`/`BENCHMARK`, which time-based blind
/// injection payloads rely on).
#[derive(Debug, Default, Clone)]
pub struct SideEffects {
    /// Total seconds of `SLEEP()` the query requested. The server adds this
    /// to the reported latency instead of actually blocking the thread.
    pub sleep_seconds: f64,
    /// Rows the statement's scans looked at — every candidate an access
    /// path proposed, subqueries included, whether or not it matched.
    pub rows_examined: u64,
}

/// The most rows one statement may examine, subqueries included. A nested
/// loop join multiplies what it examines (and what its arena holds) by
/// each table's size, so a short query over small tables can spend
/// seconds and gigabytes; this stops it within about 0.1 s and 50 MB in a
/// release build. Every statement the tests, examples and benchmark run
/// stays below 1/20 of it.
/// Past it a statement fails with [`DbError::RowsExamined`].
pub const MAX_ROWS_EXAMINED: u64 = 1 << 20;

/// The most bytes one value a string function builds may hold, MySQL's
/// `max_allowed_packet` in spirit. Nesting multiplies what a function
/// builds (`REPEAT(REPEAT('a', 2^20), 2^20)` is 2^40 bytes from 52 bytes
/// of SQL), and an allocation that fails aborts the process, which no
/// `catch_unwind` sees; so each builder computes its result's length with
/// checked arithmetic and refuses past this bound before it allocates.
/// Past it a statement fails with [`DbError::ValueBytes`].
pub const MAX_VALUE_BYTES: usize = 1 << 20;

/// The length a value is about to be built at, if it fits in
/// [`MAX_VALUE_BYTES`]; `None` stands for a length whose arithmetic
/// overflowed.
pub(crate) fn value_bytes(len: Option<usize>) -> Result<usize, DbError> {
    len.filter(|&n| n <= MAX_VALUE_BYTES)
        .ok_or(DbError::ValueBytes(MAX_VALUE_BYTES))
}

/// A SQL count as a `usize`: negative counts are 0, and a count past
/// `usize` saturates (the length it gives is then refused).
fn count(v: &Value) -> usize {
    usize::try_from(v.to_int().unwrap_or(0).max(0)).unwrap_or(usize::MAX)
}

/// Evaluates a scalar builtin over already-evaluated arguments.
///
/// # Errors
///
/// [`DbError::Runtime`] for unknown functions or arity violations, and
/// [`DbError::ValueBytes`] for a string past [`MAX_VALUE_BYTES`].
pub fn call_scalar(
    name: &str,
    args: &[Value],
    now: i64,
    effects: &mut SideEffects,
) -> Result<Value, DbError> {
    let need = |n: usize| -> Result<(), DbError> {
        if args.len() == n {
            Ok(())
        } else {
            Err(DbError::Runtime(format!(
                "{name}() expects {n} arguments, got {}",
                args.len()
            )))
        }
    };
    match name {
        "CONCAT" => {
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let parts: Vec<Cow<'_, str>> = args.iter().map(text).collect();
            value_bytes(
                parts
                    .iter()
                    .try_fold(0, |n: usize, p| n.checked_add(p.len())),
            )?;
            Ok(Value::Str(parts.concat()))
        }
        "CONCAT_WS" => {
            if args.is_empty() {
                return Err(DbError::Runtime("CONCAT_WS() needs a separator".into()));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let sep = text(&args[0]);
            let parts: Vec<Cow<'_, str>> = args[1..]
                .iter()
                .filter(|v| !v.is_null())
                .map(text)
                .collect();
            let seps = sep.len().checked_mul(parts.len().saturating_sub(1));
            value_bytes(
                seps.and_then(|n| parts.iter().try_fold(n, |n, p| n.checked_add(p.len()))),
            )?;
            Ok(Value::Str(parts.join(&*sep)))
        }
        "LENGTH" | "CHAR_LENGTH" | "CHARACTER_LENGTH" => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => Value::Int(text(v).chars().count() as i64),
            })
        }
        "UPPER" | "UCASE" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.to_uppercase()))
        }
        "LOWER" | "LCASE" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.to_lowercase()))
        }
        "TRIM" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.trim().to_string()))
        }
        "LTRIM" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.trim_start().to_string()))
        }
        "RTRIM" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.trim_end().to_string()))
        }
        "REVERSE" => {
            need(1)?;
            Ok(map_str(&args[0], |s| s.chars().rev().collect()))
        }
        "REPLACE" => {
            need(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let (s, from, to) = (text(&args[0]), text(&args[1]), text(&args[2]));
            // Matches do not overlap, so they take at most `s.len()` bytes.
            let hits = s.matches(&*from).count();
            let kept = s.len() - hits * from.len();
            value_bytes(hits.checked_mul(to.len()).and_then(|n| n.checked_add(kept)))?;
            Ok(Value::Str(s.replace(&*from, &to)))
        }
        "SUBSTRING" | "SUBSTR" | "MID" => {
            if args.len() != 2 && args.len() != 3 {
                return Err(DbError::Runtime(format!(
                    "{name}() expects 2 or 3 arguments, got {}",
                    args.len()
                )));
            }
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s: Vec<char> = args[0].to_display_string().chars().collect();
            let pos = args[1].to_int().unwrap_or(0);
            // MySQL: 1-based; negative counts from the end; 0 yields empty.
            let start = if pos > 0 {
                (pos - 1) as usize
            } else if pos < 0 {
                s.len().saturating_sub((-pos) as usize)
            } else {
                return Ok(Value::Str(String::new()));
            };
            let len = match args.get(2) {
                Some(v) => {
                    let l = v.to_int().unwrap_or(0);
                    if l <= 0 {
                        return Ok(Value::Str(String::new()));
                    }
                    l as usize
                }
                None => usize::MAX,
            };
            Ok(Value::Str(s.iter().skip(start).take(len).collect()))
        }
        "LEFT" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let n = args[1].to_int().unwrap_or(0).max(0) as usize;
            Ok(Value::Str(
                args[0].to_display_string().chars().take(n).collect(),
            ))
        }
        "RIGHT" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let s: Vec<char> = args[0].to_display_string().chars().collect();
            let n = (args[1].to_int().unwrap_or(0).max(0) as usize).min(s.len());
            Ok(Value::Str(s[s.len() - n..].iter().collect()))
        }
        "ABS" => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                Value::Int(v) => Value::Int(v.abs()),
                v => Value::Real(v.to_real().unwrap_or(0.0).abs()),
            })
        }
        "ROUND" => {
            if args.is_empty() || args.len() > 2 {
                return Err(DbError::Runtime("ROUND() expects 1 or 2 arguments".into()));
            }
            if args[0].is_null() {
                return Ok(Value::Null);
            }
            let v = args[0].to_real().unwrap_or(0.0);
            let d = args.get(1).and_then(Value::to_int).unwrap_or(0);
            let m = 10f64.powi(d as i32);
            let r = (v * m).round() / m;
            Ok(if d <= 0 {
                Value::Int(r as i64)
            } else {
                Value::Real(r)
            })
        }
        "FLOOR" => {
            need(1)?;
            Ok(num_to_int(&args[0], f64::floor))
        }
        "CEIL" | "CEILING" => {
            need(1)?;
            Ok(num_to_int(&args[0], f64::ceil))
        }
        "MOD" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let b = args[1].to_real().unwrap_or(0.0);
            if b == 0.0 {
                return Ok(Value::Null);
            }
            let a = args[0].to_real().unwrap_or(0.0);
            Ok(Value::Real(a % b))
        }
        "COALESCE" => Ok(args
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        "IFNULL" => {
            need(2)?;
            Ok(if args[0].is_null() {
                args[1].clone()
            } else {
                args[0].clone()
            })
        }
        "NULLIF" => {
            need(2)?;
            Ok(if args[0].sql_eq(&args[1]) == Some(true) {
                Value::Null
            } else {
                args[0].clone()
            })
        }
        "IF" => {
            need(3)?;
            Ok(if args[0].is_truthy() {
                args[1].clone()
            } else {
                args[2].clone()
            })
        }
        "GREATEST" => fold_extreme(args, true),
        "LEAST" => fold_extreme(args, false),
        "NOW" | "CURRENT_TIMESTAMP" | "SYSDATE" | "UNIX_TIMESTAMP" => Ok(Value::Int(now)),
        "VERSION" => Ok(Value::from("5.7.0-septic-sim")),
        "DATABASE" | "SCHEMA" => Ok(Value::from("app")),
        "USER" | "CURRENT_USER" => Ok(Value::from("webapp@localhost")),
        "MD5" | "SHA1" | "SHA" | "PASSWORD" => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => Value::Str(pseudo_digest(name, &v.to_display_string())),
            })
        }
        "HEX" => {
            need(1)?;
            if let Value::Str(s) = &args[0] {
                value_bytes(s.len().checked_mul(2))?;
            }
            Ok(map_str(&args[0], |s| {
                s.bytes().map(|b| format!("{b:02X}")).collect::<String>()
            }))
        }
        "ASCII" | "ORD" => {
            need(1)?;
            Ok(match &args[0] {
                Value::Null => Value::Null,
                v => Value::Int(v.to_display_string().bytes().next().map_or(0, i64::from)),
            })
        }
        "CHAR" => {
            // CHAR(65, 66) -> "AB" — beloved by obfuscated payloads.
            let mut s = String::new();
            for a in args {
                if let Some(code) = a.to_int() {
                    if let Some(c) = char::from_u32((code as u32) & 0xff) {
                        s.push(c);
                    }
                }
            }
            Ok(Value::Str(s))
        }
        "SLEEP" => {
            need(1)?;
            effects.sleep_seconds += args[0].to_real().unwrap_or(0.0).max(0.0);
            Ok(Value::Int(0))
        }
        "BENCHMARK" => {
            need(2)?;
            // Model BENCHMARK(n, expr) cost as n microseconds.
            let n = args[0].to_real().unwrap_or(0.0).max(0.0);
            effects.sleep_seconds += n * 1e-6;
            Ok(Value::Int(0))
        }
        "INSTR" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let hay = args[0].to_display_string().to_lowercase();
            let needle = args[1].to_display_string().to_lowercase();
            Ok(Value::Int(find_one_based(&hay, &needle)))
        }
        "LOCATE" | "POSITION" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            // LOCATE(substr, str) — argument order is reversed vs INSTR.
            let needle = args[0].to_display_string().to_lowercase();
            let hay = args[1].to_display_string().to_lowercase();
            Ok(Value::Int(find_one_based(&hay, &needle)))
        }
        "LPAD" | "RPAD" => {
            need(3)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            // Lengths count characters; the bound counts bytes.
            let (s, target, pad) = (text(&args[0]), count(&args[1]), text(&args[2]));
            let chars = s.chars().count();
            if target <= chars {
                return Ok(Value::from(&s[..char_boundary(&s, target)]));
            }
            let pad_chars = pad.chars().count();
            if pad_chars == 0 {
                return Ok(Value::Null); // MySQL returns NULL for empty pad
            }
            // The fill is whole copies of the pad, then a prefix of it.
            let fill = target - chars;
            let tail = &pad[..char_boundary(&pad, fill % pad_chars)];
            let fill_bytes = (fill / pad_chars).checked_mul(pad.len());
            let len = fill_bytes.and_then(|n| n.checked_add(tail.len() + s.len()));
            let mut out = String::with_capacity(value_bytes(len)?);
            if name == "RPAD" {
                out.push_str(&s);
            }
            for _ in 0..fill / pad_chars {
                out.push_str(&pad);
            }
            out.push_str(tail);
            if name == "LPAD" {
                out.push_str(&s);
            }
            Ok(Value::Str(out))
        }
        "REPEAT" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            let (s, n) = (text(&args[0]), count(&args[1]));
            value_bytes(s.len().checked_mul(n))?;
            Ok(Value::Str(s.repeat(n)))
        }
        "SPACE" => {
            need(1)?;
            Ok(Value::Str(" ".repeat(value_bytes(Some(count(&args[0])))?)))
        }
        "STRCMP" => {
            need(2)?;
            if args.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            Ok(Value::Int(match args[0].sql_cmp(&args[1]) {
                Some(std::cmp::Ordering::Less) => -1,
                Some(std::cmp::Ordering::Greater) => 1,
                _ => 0,
            }))
        }
        "SIGN" => {
            need(1)?;
            Ok(match args[0].to_real() {
                None => Value::Null,
                Some(v) if v > 0.0 => Value::Int(1),
                Some(v) if v < 0.0 => Value::Int(-1),
                Some(_) => Value::Int(0),
            })
        }
        "POW" | "POWER" => {
            need(2)?;
            match (args[0].to_real(), args[1].to_real()) {
                (Some(a), Some(b)) => Ok(Value::Real(a.powf(b))),
                _ => Ok(Value::Null),
            }
        }
        "SQRT" => {
            need(1)?;
            Ok(match args[0].to_real() {
                None => Value::Null,
                Some(v) if v < 0.0 => Value::Null,
                Some(v) => Value::Real(v.sqrt()),
            })
        }
        "TRUNCATE" => {
            need(2)?;
            match (args[0].to_real(), args[1].to_int()) {
                (Some(v), Some(d)) => {
                    let m = 10f64.powi(d as i32);
                    Ok(Value::Real((v * m).trunc() / m))
                }
                _ => Ok(Value::Null),
            }
        }
        "BIN" => {
            need(1)?;
            Ok(match args[0].to_int() {
                None => Value::Null,
                Some(v) => Value::Str(format!("{v:b}")),
            })
        }
        "OCT" => {
            need(1)?;
            Ok(match args[0].to_int() {
                None => Value::Null,
                Some(v) => Value::Str(format!("{v:o}")),
            })
        }
        "ELT" => {
            // ELT(n, a, b, c) — the n-th argument, 1-based.
            if args.len() < 2 {
                return Err(DbError::Runtime("ELT() needs an index and values".into()));
            }
            let n = args[0].to_int().unwrap_or(0);
            if n < 1 || (n as usize) >= args.len() {
                return Ok(Value::Null);
            }
            Ok(args[n as usize].clone())
        }
        "FIELD" => {
            // FIELD(needle, a, b, c) — 1-based index of needle, 0 if absent.
            if args.is_empty() {
                return Err(DbError::Runtime("FIELD() needs arguments".into()));
            }
            if args[0].is_null() {
                return Ok(Value::Int(0));
            }
            for (i, candidate) in args[1..].iter().enumerate() {
                if args[0].sql_eq(candidate) == Some(true) {
                    return Ok(Value::Int(i as i64 + 1));
                }
            }
            Ok(Value::Int(0))
        }
        "RAND" => Ok(Value::Real(0.42)), // deterministic stand-in
        "LAST_INSERT_ID" => Ok(Value::Int(0)),
        other => Err(DbError::Runtime(format!("unknown function {other}()"))),
    }
}

/// Names the executor treats as aggregates rather than scalars.
#[must_use]
pub fn is_aggregate(name: &str) -> bool {
    matches!(
        name,
        "COUNT" | "SUM" | "AVG" | "MIN" | "MAX" | "GROUP_CONCAT"
    )
}

/// 1-based position of `needle` in `hay`; 0 when absent (MySQL INSTR).
fn find_one_based(hay: &str, needle: &str) -> i64 {
    if needle.is_empty() {
        return 1;
    }
    match hay.find(needle) {
        Some(byte_pos) => hay[..byte_pos].chars().count() as i64 + 1,
        None => 0,
    }
}

/// A value's text, borrowed from a string: a builder measures its
/// arguments before it copies any of them.
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Str(s) => Cow::Borrowed(s),
        other => Cow::Owned(other.to_display_string()),
    }
}

/// The byte offset of `s`'s `n`th character, or `s.len()` past its end.
fn char_boundary(s: &str, n: usize) -> usize {
    s.char_indices().nth(n).map_or(s.len(), |(at, _)| at)
}

fn map_str(v: &Value, f: impl FnOnce(&str) -> String) -> Value {
    match v {
        Value::Null => Value::Null,
        other => Value::Str(f(&other.to_display_string())),
    }
}

fn num_to_int(v: &Value, f: impl FnOnce(f64) -> f64) -> Value {
    match v {
        Value::Null => Value::Null,
        other => Value::Int(f(other.to_real().unwrap_or(0.0)) as i64),
    }
}

fn fold_extreme(args: &[Value], greatest: bool) -> Result<Value, DbError> {
    if args.is_empty() {
        return Err(DbError::Runtime("GREATEST/LEAST need arguments".into()));
    }
    if args.iter().any(Value::is_null) {
        return Ok(Value::Null);
    }
    let mut best = args[0].clone();
    for v in &args[1..] {
        let take = match v.sql_cmp(&best) {
            Some(std::cmp::Ordering::Greater) => greatest,
            Some(std::cmp::Ordering::Less) => !greatest,
            _ => false,
        };
        if take {
            best = v.clone();
        }
    }
    Ok(best)
}

/// Deterministic stand-in for MySQL digest functions: not cryptographic,
/// but stable, hex-shaped and collision-resistant enough for the workloads
/// (FNV-1a folded to 32 hex chars).
#[must_use]
pub fn pseudo_digest(alg: &str, input: &str) -> String {
    let mut h1 = Fnv1a::default();
    h1.extend(alg.bytes().chain(input.bytes()));
    let mut h2 = Fnv1a(h1.0 ^ 0x9e37_79b9_7f4a_7c15);
    h2.extend(input.bytes().rev());
    format!("{:016x}{:016x}", h1.0, h2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str, args: &[Value]) -> Value {
        let mut fx = SideEffects::default();
        call_scalar(name, args, 1000, &mut fx).expect("call ok")
    }

    #[test]
    fn concat_and_null() {
        assert_eq!(
            call("CONCAT", &["a".into(), Value::Int(1)]),
            Value::from("a1")
        );
        assert_eq!(call("CONCAT", &["a".into(), Value::Null]), Value::Null);
        assert_eq!(
            call(
                "CONCAT_WS",
                &[",".into(), "a".into(), Value::Null, "b".into()]
            ),
            Value::from("a,b")
        );
    }

    #[test]
    fn string_functions() {
        assert_eq!(call("UPPER", &["ab".into()]), Value::from("AB"));
        assert_eq!(call("LENGTH", &["héllo".into()]), Value::Int(5));
        assert_eq!(
            call("SUBSTRING", &["hello".into(), Value::Int(2)]),
            Value::from("ello")
        );
        assert_eq!(
            call("SUBSTRING", &["hello".into(), Value::Int(2), Value::Int(2)]),
            Value::from("el")
        );
        assert_eq!(
            call("SUBSTRING", &["hello".into(), Value::Int(-3)]),
            Value::from("llo")
        );
        assert_eq!(
            call("LEFT", &["hello".into(), Value::Int(2)]),
            Value::from("he")
        );
        assert_eq!(
            call("RIGHT", &["hello".into(), Value::Int(2)]),
            Value::from("lo")
        );
        assert_eq!(
            call("REPLACE", &["a-b".into(), "-".into(), "+".into()]),
            Value::from("a+b")
        );
        assert_eq!(call("REVERSE", &["ab".into()]), Value::from("ba"));
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(call("ABS", &[Value::Int(-3)]), Value::Int(3));
        assert_eq!(call("ROUND", &[Value::Real(2.6)]), Value::Int(3));
        assert_eq!(
            call("ROUND", &[Value::Real(2.625), Value::Int(2)]),
            Value::Real(2.63)
        );
        assert_eq!(call("FLOOR", &[Value::Real(2.9)]), Value::Int(2));
        assert_eq!(call("CEIL", &[Value::Real(2.1)]), Value::Int(3));
        assert_eq!(call("MOD", &[Value::Int(7), Value::Int(0)]), Value::Null);
    }

    #[test]
    fn null_handling_functions() {
        assert_eq!(
            call("COALESCE", &[Value::Null, Value::Int(2)]),
            Value::Int(2)
        );
        assert_eq!(call("IFNULL", &[Value::Null, "x".into()]), Value::from("x"));
        assert_eq!(call("NULLIF", &[Value::Int(1), Value::Int(1)]), Value::Null);
        assert_eq!(
            call("IF", &[Value::Int(0), "t".into(), "f".into()]),
            Value::from("f")
        );
    }

    #[test]
    fn sleep_records_side_effect() {
        let mut fx = SideEffects::default();
        call_scalar("SLEEP", &[Value::Int(5)], 0, &mut fx).unwrap();
        assert_eq!(fx.sleep_seconds, 5.0);
        call_scalar(
            "BENCHMARK",
            &[Value::Int(1_000_000), Value::Int(1)],
            0,
            &mut fx,
        )
        .unwrap();
        assert!(fx.sleep_seconds > 5.9);
    }

    #[test]
    fn obfuscation_helpers() {
        assert_eq!(
            call("CHAR", &[Value::Int(65), Value::Int(66)]),
            Value::from("AB")
        );
        assert_eq!(call("HEX", &["AB".into()]), Value::from("4142"));
        assert_eq!(call("ASCII", &["A".into()]), Value::Int(65));
    }

    #[test]
    fn digests_are_stable_and_distinct() {
        let a = pseudo_digest("MD5", "secret");
        let b = pseudo_digest("MD5", "secret");
        let c = pseudo_digest("MD5", "other");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn a_digest_keeps_its_value_across_builds() {
        assert_eq!(
            pseudo_digest("MD5", "secret"),
            "ab9d67859cc45f9352be4271ee26543e"
        );
    }

    #[test]
    fn position_functions() {
        assert_eq!(
            call("INSTR", &["foobar".into(), "bar".into()]),
            Value::Int(4)
        );
        assert_eq!(
            call("INSTR", &["foobar".into(), "zzz".into()]),
            Value::Int(0)
        );
        assert_eq!(
            call("LOCATE", &["bar".into(), "foobar".into()]),
            Value::Int(4)
        );
        assert_eq!(
            call("INSTR", &["FooBar".into(), "bar".into()]),
            Value::Int(4)
        );
        assert_eq!(call("INSTR", &["x".into(), "".into()]), Value::Int(1));
    }

    #[test]
    fn padding_and_repeat() {
        assert_eq!(
            call("LPAD", &["5".into(), Value::Int(3), "0".into()]),
            Value::from("005")
        );
        assert_eq!(
            call("RPAD", &["ab".into(), Value::Int(5), "xy".into()]),
            Value::from("abxyx")
        );
        assert_eq!(
            call("LPAD", &["hello".into(), Value::Int(3), "0".into()]),
            Value::from("hel")
        );
        assert_eq!(
            call("LPAD", &["a".into(), Value::Int(3), "".into()]),
            Value::Null
        );
        assert_eq!(
            call("REPEAT", &["ab".into(), Value::Int(3)]),
            Value::from("ababab")
        );
        assert_eq!(
            call("REPEAT", &["ab".into(), Value::Int(-1)]),
            Value::from("")
        );
        assert_eq!(call("SPACE", &[Value::Int(3)]), Value::from("   "));
        assert_eq!(
            call("RPAD", &["é".into(), Value::Int(4), "ñü".into()]),
            Value::from("éñüñ")
        );
        assert_eq!(
            call("LPAD", &["héllo".into(), Value::Int(2), "x".into()]),
            Value::from("hé")
        );
    }

    #[test]
    fn every_builder_refuses_past_the_value_bound_before_allocating() {
        // The built length in bytes, or the refusal.
        let built = |name: &str, args: &[Value]| {
            let mut fx = SideEffects::default();
            call_scalar(name, args, 0, &mut fx).map(|v| v.to_display_string().len())
        };
        let max = MAX_VALUE_BYTES as i64;
        let big = || Value::Str("a".repeat(MAX_VALUE_BYTES));
        let over = Err(DbError::ValueBytes(MAX_VALUE_BYTES));
        // Exactly at the bound is built; one byte past it is not.
        assert_eq!(
            built("REPEAT", &["a".into(), Value::Int(max)]),
            Ok(MAX_VALUE_BYTES)
        );
        assert_eq!(
            built("REPEAT", &["ab".into(), Value::Int(max / 2 + 1)]),
            over
        );
        assert_eq!(built("REPEAT", &["ab".into(), Value::Int(i64::MAX)]), over);
        assert_eq!(built("REPEAT", &["".into(), Value::Int(i64::MAX)]), Ok(0));
        assert_eq!(built("SPACE", &[Value::Int(max)]), Ok(MAX_VALUE_BYTES));
        assert_eq!(built("SPACE", &[Value::Int(max + 1)]), over);
        for pad in ["LPAD", "RPAD"] {
            let at = built(pad, &["a".into(), Value::Int(max), "xy".into()]);
            assert_eq!(at, Ok(MAX_VALUE_BYTES), "{pad}");
            assert_eq!(
                built(pad, &["a".into(), Value::Int(max + 1), "x".into()]),
                over
            );
            assert_eq!(
                built(pad, &["a".into(), Value::Int(i64::MAX), "x".into()]),
                over
            );
            // Counted in characters, bounded in bytes.
            assert_eq!(built(pad, &["a".into(), Value::Int(max), "é".into()]), over);
        }
        assert_eq!(built("CONCAT", &[big(), "".into()]), Ok(MAX_VALUE_BYTES));
        assert_eq!(built("CONCAT", &[big(), "b".into()]), over);
        let just_under = Value::Str("a".repeat(MAX_VALUE_BYTES - 1));
        let ws = built("CONCAT_WS", &[",".into(), just_under.clone(), "".into()]);
        assert_eq!(ws, Ok(MAX_VALUE_BYTES));
        assert_eq!(built("CONCAT_WS", &[",".into(), big(), "".into()]), over);
        assert_eq!(
            built("CONCAT_WS", &[",".into(), big(), Value::Null]),
            Ok(MAX_VALUE_BYTES)
        );
        let same = built("REPLACE", &[big(), "a".into(), "b".into()]);
        assert_eq!(same, Ok(MAX_VALUE_BYTES));
        assert_eq!(
            built("REPLACE", &[just_under, "a".into(), "bb".into()]),
            over
        );
        assert_eq!(
            built("HEX", &["a".repeat(MAX_VALUE_BYTES / 2).into()]),
            Ok(MAX_VALUE_BYTES)
        );
        assert_eq!(built("HEX", &[big()]), over);
    }

    #[test]
    fn math_extras() {
        assert_eq!(call("SIGN", &[Value::Int(-9)]), Value::Int(-1));
        assert_eq!(call("SIGN", &[Value::Int(0)]), Value::Int(0));
        assert_eq!(
            call("POW", &[Value::Int(2), Value::Int(10)]),
            Value::Real(1024.0)
        );
        assert_eq!(call("SQRT", &[Value::Int(9)]), Value::Real(3.0));
        assert_eq!(call("SQRT", &[Value::Int(-1)]), Value::Null);
        assert_eq!(
            call("TRUNCATE", &[Value::Real(2.987), Value::Int(2)]),
            Value::Real(2.98)
        );
        assert_eq!(call("BIN", &[Value::Int(5)]), Value::from("101"));
        assert_eq!(call("OCT", &[Value::Int(9)]), Value::from("11"));
    }

    #[test]
    fn elt_and_field() {
        assert_eq!(
            call("ELT", &[Value::Int(2), "a".into(), "b".into(), "c".into()]),
            Value::from("b")
        );
        assert_eq!(call("ELT", &[Value::Int(9), "a".into()]), Value::Null);
        assert_eq!(
            call("FIELD", &["b".into(), "a".into(), "b".into(), "c".into()]),
            Value::Int(2)
        );
        assert_eq!(call("FIELD", &["z".into(), "a".into()]), Value::Int(0));
        assert_eq!(call("STRCMP", &["a".into(), "b".into()]), Value::Int(-1));
        assert_eq!(call("STRCMP", &["b".into(), "a".into()]), Value::Int(1));
        assert_eq!(call("STRCMP", &["A".into(), "a".into()]), Value::Int(0));
    }

    #[test]
    fn unknown_function_errors() {
        let mut fx = SideEffects::default();
        assert!(call_scalar("LOAD_FILE", &[], 0, &mut fx).is_err());
    }

    #[test]
    fn aggregates_identified() {
        assert!(is_aggregate("COUNT"));
        assert!(is_aggregate("SUM"));
        assert!(!is_aggregate("CONCAT"));
    }
}
