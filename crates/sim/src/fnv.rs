//! FNV-1a, the 64-bit digest behind the workspace's pinned outputs
//! (rendered traces, reports, stdouts): cheap, dependency-free and the
//! same on every host.

use std::hash::Hasher;

/// A streaming 64-bit FNV-1a hasher. Folding bytes in several pieces
/// gives the digest of their concatenation, so a digest can be built line
/// by line without assembling the whole text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The digest of nothing: the FNV offset basis.
    pub const fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    /// The digest of `bytes` in one pass.
    pub fn digest(bytes: &[u8]) -> u64 {
        let mut h = Fnv1a::new();
        h.write(bytes);
        h.finish()
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference vectors of the FNV specification.
    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv1a::digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv1a::digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(Fnv1a::digest(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// Folding the pieces of a text equals one pass over the whole.
    #[test]
    fn streaming_equals_one_pass() {
        let text = b"lines 2 fnv1a\nproc.exit=1\n";
        for split in 0..=text.len() {
            let mut h = Fnv1a::default();
            h.write(&text[..split]);
            h.write(&text[split..]);
            assert_eq!(h.finish(), Fnv1a::digest(text), "split at {split}");
        }
    }
}
