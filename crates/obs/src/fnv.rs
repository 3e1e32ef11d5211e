//! The one 64-bit FNV-1a of the workspace.
//!
//! It lives here because this is the crate every layer that digests
//! something (checkpoint checksums, frame-cache keys, farm job digests)
//! already depends on. Not cryptographic: cheap corruption detection
//! and cache keying only.

/// Incremental 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// The empty digest (FNV offset basis).
    #[allow(clippy::new_without_default)]
    pub fn new() -> Self {
        Fnv1a(0xcbf29ce484222325)
    }

    /// Mix raw bytes in, in order.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    /// Mix a 64-bit word in as its eight little-endian bytes — the form
    /// every bit-pattern digest here uses (`f64::to_bits`, lengths,
    /// tags).
    #[inline]
    pub fn u64(&mut self, word: u64) {
        self.bytes(&word.to_le_bytes());
    }

    /// The digest of everything mixed in so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_published_fnv1a_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv1a::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf29ce484222325);
        assert_eq!(digest("a"), 0xaf63dc4c8601ec8c);
        assert_eq!(digest("foobar"), 0x85944171f73967e8);
        let mut words = Fnv1a::new();
        words.u64(0x0807060504030201);
        let mut bytes = Fnv1a::new();
        bytes.bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(words.finish(), bytes.finish());
    }
}
