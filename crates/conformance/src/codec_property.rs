//! The one property of a binary format, for every format that has a
//! payload function: wire `Request` and `Response`, WAL record and
//! snapshot, model-store journal record and snapshot. A [`Format`] names
//! its generator, encoder and decoder as plain functions, so a crate's own
//! unit tests can hand in their private types: a unit test that
//! dev-depends on this crate links a second copy of that crate, and a
//! `T: Codec` bound would name the other copy's trait.
//!
//! Each check runs [`proptest::cases`] seeded cases and panics with the
//! case and its input:
//!
//! - [`Format::round_trips`]: every value decodes from its encoding to
//!   itself — the same `Debug` text, and the same bytes once encoded
//!   again, so a float comes back by its bits — and the encoding with one
//!   more byte behind it is refused as trailing bytes;
//! - [`Format::hostile_bytes_decode_only_canonically`]: [`hostile`] bytes
//!   never panic the decoder, and whatever they decode to encodes back to
//!   exactly them;
//! - [`Format::refuses_counts_past_the_payload`]: a `u32::MAX` count
//!   ([`declares_u32_max`]) is refused by the check that runs before
//!   anything is allocated for it.
//!
//! Hand-mutations the property fails at 20,000 cases (each was tried):
//!
//! | mutation | fails |
//! |---|---|
//! | the store's item data tag 5 decodes as ⊥ (`4 \| 5 => ItemData::Bot`, `crates/core/src/store.rs`) | `store::tests::hostile_journal_records_never_panic_and_decode_only_canonically`, `store::tests::hostile_snapshots_never_panic_and_decode_only_canonically` |
//! | `Value`'s tag 4 decodes as a string (`3 \| 4 => … Value::Str`, `crates/dbms/src/codec.rs`) | `wal::tests::hostile_snapshots_never_panic_and_decode_only_canonically`, `frame::tests::hostile_request_payloads_never_panic_and_decode_only_canonically` (at three seeds: most generated queries carry values), `frame::tests::hostile_response_payloads_never_panic_and_decode_only_canonically` |
//! | `Response`'s tag 7 decodes as `Pong` (`6 \| 7 => Ok(Response::Pong)`, `crates/net/src/frame.rs`) | `frame::tests::hostile_response_payloads_never_panic_and_decode_only_canonically` |

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::TestRng;
use septic_dbms::wal::build_frame;

use crate::hostile::hostile;

/// A binary format under test.
pub struct Format<T> {
    /// Names the format in a failure and seeds its cases.
    pub name: &'static str,
    /// Any value the format must carry.
    pub gen: fn(&mut TestRng) -> T,
    /// The payload of a value.
    pub encode: fn(&T) -> Vec<u8>,
    /// A payload's value, or why it is none.
    pub decode: fn(&[u8]) -> Result<T, String>,
}

impl<T: Debug> Format<T> {
    /// Every generated value decodes from its encoding to itself, and its
    /// encoding with one more byte behind it is refused as trailing bytes.
    pub fn round_trips(&self) {
        self.each_case("round trip", |rng| {
            let value = (self.gen)(rng);
            let mut bytes = (self.encode)(&value);
            let back = (self.decode)(&bytes).map_err(|e| format!("{e}: {value:?}"))?;
            if format!("{back:?}") != format!("{value:?}") || (self.encode)(&back) != bytes {
                return Err(format!("{value:?} came back as {back:?}"));
            }
            bytes.push(rng.next_u64() as u8);
            match (self.decode)(&bytes) {
                Err(e) if e.contains("trailing") => Ok(()),
                other => Err(format!("{bytes:?} with a trailing byte: {other:?}")),
            }
        });
    }

    /// Hostile bytes never panic the decoder, and decode only when they
    /// are the encoding of what they decode to.
    pub fn hostile_bytes_decode_only_canonically(&self) {
        self.each_case("hostile bytes", |rng| {
            let bytes = hostile(rng, |rng| (self.encode)(&(self.gen)(rng)));
            let decoded = catch_unwind(AssertUnwindSafe(|| (self.decode)(&bytes)))
                .map_err(|_| format!("the decoder panicked on {bytes:?}"))?;
            match decoded {
                Ok(value) if (self.encode)(&value) != bytes => Err(format!(
                    "{bytes:?} decoded to {value:?}, which encodes to other bytes"
                )),
                _ => Ok(()),
            }
        });
    }

    /// Each `(what, prefix, len)` names a payload whose next count, after
    /// `prefix`, is `u32::MAX` in `len` bytes: each is refused by the
    /// count check, before anything is allocated for the count.
    pub fn refuses_counts_past_the_payload(&self, counts: &[(&str, &[u8], usize)]) {
        for &(what, prefix, len) in counts {
            match (self.decode)(&declares_u32_max(prefix, len)) {
                Err(e) if e.starts_with("count 4294967295 exceeds the") => {}
                other => panic!("{}: a {what} count of u32::MAX: {other:?}", self.name),
            }
        }
    }

    /// Runs `case` [`proptest::cases`] times, seeded by the format and
    /// the check.
    fn each_case(&self, check: &str, mut case: impl FnMut(&mut TestRng) -> Result<(), String>) {
        let mut rng = TestRng::deterministic(&format!("{} {check}", self.name));
        let cases = proptest::cases();
        for n in 1..=cases {
            if let Err(e) = case(&mut rng) {
                panic!("{} {check}, case {n}/{cases}: {e}", self.name);
            }
        }
    }
}

/// A `len`-byte payload: `prefix`, a count of `u32::MAX`, zero padding.
#[must_use]
pub fn declares_u32_max(prefix: &[u8], len: usize) -> Vec<u8> {
    let mut payload = prefix.to_vec();
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    payload.resize(len, 0);
    payload
}

/// `payload` as one frame of a stored file, for a test that plants a file
/// by hand (an earlier build's JSON, a record at a limit, a torn tail).
#[must_use]
pub fn framed(payload: &[u8]) -> Vec<u8> {
    build_frame(payload.len(), |out| out.extend_from_slice(payload))
}
