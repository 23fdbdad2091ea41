//! Proxy identity hashes.
//!
//! Every proxy object carries a hash identifying its mirror in the
//! opposite runtime (§5.2). The paper's prototype uses Java identity
//! hash codes (31 bits of entropy, collisions possible) and notes that a
//! wide hash "like MD5" should be used to minimise collisions; this
//! module issues such a 128-bit hash.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The hash stored in a proxy object and used as the mirror-registry key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProxyHash(pub u128);

impl fmt::Display for ProxyHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// Issues 128-bit proxy hashes for one runtime ("a hashing algorithm
/// like MD5 should be used", §5.2): collision-free in practice.
///
/// Thread-safe and allocation-free.
#[derive(Debug)]
pub struct ProxyHasher {
    counter: AtomicU64,
    seed: u64,
}

impl ProxyHasher {
    /// Creates a hasher; `seed` decorrelates the two runtimes.
    pub fn new(seed: u64) -> Self {
        ProxyHasher { counter: AtomicU64::new(1), seed }
    }

    /// Issues the next proxy hash.
    pub fn next_hash(&self) -> ProxyHash {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        let mixed = split_mix(n ^ self.seed);
        let hi = split_mix(mixed ^ 0x9e37_79b9_7f4a_7c15);
        ProxyHash(((hi as u128) << 64) | mixed as u128)
    }
}

/// SplitMix64 finaliser: a well-distributed 64-bit mixer.
fn split_mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn wide_hashes_use_high_bits() {
        let h = ProxyHasher::new(7);
        assert!((0..100).any(|_| h.next_hash().0 > u64::MAX as u128));
    }

    #[test]
    fn wide_scheme_has_no_collisions_at_scale() {
        let h = ProxyHasher::new(42);
        let mut seen = HashSet::new();
        for _ in 0..200_000 {
            assert!(seen.insert(h.next_hash()), "wide hash collided");
        }
    }

    #[test]
    fn seeds_decorrelate_runtimes() {
        let a = ProxyHasher::new(1);
        let b = ProxyHasher::new(2);
        assert_ne!(a.next_hash(), b.next_hash());
    }

    #[test]
    fn display_is_hex() {
        let s = ProxyHash(0xabc).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.ends_with("abc"));
    }
}
