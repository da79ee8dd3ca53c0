//! The binary codec: the one encoding of the wire (`septic-net`'s frames)
//! and of the durable files (WAL records and checkpoints, [`crate::wal`]).
//!
//! | item | bytes |
//! |---|---|
//! | `u8` (a tag), `bool` | 1; a `bool` is `0` or `1` |
//! | `u32` (a count, a length, a version) | 4, little-endian |
//! | `u64`, `i64`, `usize` | 8, little-endian |
//! | `f64` | its bits (`to_bits`) as a `u64`: NaN, ±inf and -0.0 survive |
//! | string (`String`, `Arc<str>`) | `u32` byte length, then that many bytes of UTF-8 |
//! | `Option<T>` | `0`, or `1` then `T` |
//! | `Vec<T>`, `Arc<[T]>` | `u32` count, then each `T` |
//! | `Value` | tag `0` Null · `1` Int `i64` · `2` Real `f64` · `3` Str string |
//! | a struct ([`codec_fields!`](crate::codec_fields)) | its fields, in the order listed |
//!
//! The encoding is canonical: an item decodes only if encoding what it
//! decodes to gives back exactly its bytes. An unknown tag, an `Option`
//! or `bool` byte other than 0 or 1, a string that is not UTF-8, a count
//! larger than the bytes left can hold and (for [`decode_all`]) trailing
//! bytes are all errors. A count is checked against the bytes left
//! divided by its item's smallest encoding ([`Codec::MIN_LEN`]) before
//! anything is allocated for it, so no count can make the decoder
//! allocate past the payload it already holds.

use std::sync::Arc;

use crate::value::Value;

/// A type with an encoding.
pub trait Codec: Sized {
    /// Bytes of the smallest encoding: what a count is checked against
    /// before anything is allocated for it.
    const MIN_LEN: usize;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one item from the front of `input` and advances it.
    ///
    /// # Errors
    ///
    /// Why the bytes are not the encoding of an item.
    fn decode(input: &mut &[u8]) -> Result<Self, String>;
}

/// Decodes `payload` as exactly one `T`.
///
/// # Errors
///
/// Why the bytes are not the encoding of a `T`, trailing bytes included.
pub fn decode_all<T: Codec>(mut payload: &[u8]) -> Result<T, String> {
    let item = T::decode(&mut payload)?;
    match payload.len() {
        0 => Ok(item),
        n => Err(format!("{n} trailing bytes")),
    }
}

/// The next `n` bytes of `input`, which advances past them.
///
/// # Errors
///
/// How many bytes short `input` is.
#[inline]
pub fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
    let have = input.len();
    let short = || format!("payload ends {} bytes short", n - have);
    input.split_off(..n).ok_or_else(short)
}

/// A variant: its tag, then its content.
#[inline]
pub fn tagged(out: &mut Vec<u8>, tag: u8, content: &impl Codec) {
    out.push(tag);
    content.encode(out);
}

/// The body of a payload that starts with `tag`: [`tagged`]'s inverse for
/// a file's format tag.
///
/// # Errors
///
/// An empty payload, or one that starts with another tag.
pub fn untag(payload: &[u8], tag: u8) -> Result<&[u8], String> {
    match payload.split_first() {
        Some((&t, body)) if t == tag => Ok(body),
        Some((&t, _)) => Err(format!("format tag {t:#04x}, expected {tag:#04x}")),
        None => Err("empty payload".to_string()),
    }
}

/// A string's encoding: its byte length, then its bytes.
#[inline]
pub fn encode_str(s: &str, out: &mut Vec<u8>) {
    encode_count(s.len(), out);
    out.extend_from_slice(s.as_bytes());
}

/// A count or length, saturated: a count past `u32::MAX` means a payload
/// past it too, which every reader refuses.
#[inline]
pub fn encode_count(n: usize, out: &mut Vec<u8>) {
    u32::try_from(n).unwrap_or(u32::MAX).encode(out);
}

/// A count of items of at least `min_len` bytes each, refused when the
/// bytes left cannot hold that many.
///
/// # Errors
///
/// A short count field, or a count the bytes left cannot hold.
#[inline]
pub fn decode_count(input: &mut &[u8], min_len: usize) -> Result<usize, String> {
    let n = u32::decode(input)? as usize;
    if n > input.len() / min_len {
        return Err(format!("count {n} exceeds the {} bytes left", input.len()));
    }
    Ok(n)
}

/// A count, then each item: a `Vec<T>`'s encoding, and an `Arc<[T]>`'s.
pub fn encode_items<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    encode_count(items.len(), out);
    for item in items {
        item.encode(out);
    }
}

macro_rules! le_bytes {
    ($($ty:ty),*) => {$(
        impl Codec for $ty {
            const MIN_LEN: usize = std::mem::size_of::<$ty>();

            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode(input: &mut &[u8]) -> Result<Self, String> {
                let bytes = take(input, Self::MIN_LEN)?;
                Ok(<$ty>::from_le_bytes(bytes.try_into().expect("took MIN_LEN bytes")))
            }
        }
    )*};
}
// A tag is a `u8`; an `f64`'s little-endian bytes are its bits'.
le_bytes!(u8, u32, u64, i64, f64);

/// As a `u64`, whatever the host's pointer width.
impl Codec for usize {
    const MIN_LEN: usize = u64::MIN_LEN;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        let n = u64::decode(input)?;
        usize::try_from(n).map_err(|_| format!("{n} does not fit a usize"))
    }
}

impl Codec for bool {
    const MIN_LEN: usize = 1;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("unknown bool byte {b}")),
        }
    }
}

impl Codec for String {
    const MIN_LEN: usize = u32::MIN_LEN;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        let len = decode_count(input, 1)?;
        std::str::from_utf8(take(input, len)?)
            .map(str::to_owned)
            .map_err(|e| format!("string is not UTF-8: {e}"))
    }
}

/// As a `String`: an interned identifier encodes from its shared text.
impl Codec for Arc<str> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_str(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        String::decode(input).map(Arc::from)
    }
}

impl<T: Codec> Codec for Vec<T> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_items(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        let n = decode_count(input, T::MIN_LEN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::decode(input)?);
        }
        Ok(items)
    }
}

/// As a `Vec<T>`: a stored row encodes straight from its shared slice.
impl<T: Codec> Codec for Arc<[T]> {
    const MIN_LEN: usize = u32::MIN_LEN;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_items(self, out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        Vec::decode(input).map(Arc::from)
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_LEN: usize = 1;

    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => tagged(out, 1, v),
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            t => Err(format!("unknown option tag {t}")),
        }
    }
}

impl Codec for Value {
    const MIN_LEN: usize = 1;

    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => tagged(out, 1, v),
            Value::Real(v) => tagged(out, 2, v),
            Value::Str(s) => tagged(out, 3, s),
        }
    }

    #[inline]
    fn decode(input: &mut &[u8]) -> Result<Self, String> {
        match u8::decode(input)? {
            0 => Ok(Value::Null),
            1 => i64::decode(input).map(Value::Int),
            2 => f64::decode(input).map(Value::Real),
            3 => String::decode(input).map(Value::Str),
            t => Err(format!("unknown value tag {t}")),
        }
    }
}

/// Implements [`Codec`] for a struct: its fields, in the order listed.
#[macro_export]
macro_rules! codec_fields {
    ($ty:ident { $($field:ident: $fty:ty),* $(,)? }) => {
        impl $crate::codec::Codec for $ty {
            const MIN_LEN: usize = 0 $(+ <$fty as $crate::codec::Codec>::MIN_LEN)*;

            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::codec::Codec::encode(&self.$field, out);)*
            }

            fn decode(input: &mut &[u8]) -> Result<Self, String> {
                Ok($ty { $($field: <$fty as $crate::codec::Codec>::decode(input)?),* })
            }
        }
    };
}
