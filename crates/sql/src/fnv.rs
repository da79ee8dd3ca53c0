//! 64-bit FNV-1a, the one byte hash of the workspace that is not a shape
//! key: the internal query id, the model map's hasher, a string key's
//! index partition and the digest stand-in all take it from here.

use std::hash::Hasher;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 64-bit FNV-1a state, starting at the offset basis. Bytes stream in
/// through [`Hasher::write`] or [`Extend<u8>`], so a caller that produces
/// bytes one piece at a time (`Item::canonical_bytes`) needs no buffer.
/// The field is the running state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(pub u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        self.extend(bytes.iter().copied());
    }

    /// One step for the whole word, not eight: a `u64` key is already a
    /// well-distributed hash (the model map's internal id), so it is mixed
    /// in, not digested again.
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(PRIME);
    }
}

impl Extend<u8> for Fnv1a {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, bytes: I) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let hash = |s: &str| {
            let mut h = Fnv1a::default();
            h.write(s.as_bytes());
            h.finish()
        };
        assert_eq!(hash(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(hash("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(hash("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn write_and_extend_agree_and_a_word_is_one_step() {
        let mut written = Fnv1a::default();
        written.write(b"canonical");
        let mut extended = Fnv1a::default();
        extended.extend("canonical".bytes());
        assert_eq!(written, extended);
        let mut word = Fnv1a(7);
        word.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(
            word.finish(),
            (7 ^ 0x0123_4567_89ab_cdef_u64).wrapping_mul(PRIME)
        );
    }
}
