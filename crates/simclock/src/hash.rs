//! The workspace's two byte-string hashes, each defined once.
//!
//! [`fnv1a`] is FNV-1a 64: stable across releases and platforms, so it may
//! key a file format (the baked index), a placement (the cluster ring) or
//! a seed. [`fnv_shaped`] has FNV-1a's loop and offset basis but another
//! multiplier, so it is *not* FNV-1a; see its docs for why it stays.

/// The FNV-64 offset basis: the hash of no bytes.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-64 prime, 2^40 + 0x1b3.
const FNV1A_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(FNV1A_OFFSET, bytes)
}

/// FNV-1a 64 continued over `bytes` from `hash`, the hash of what came
/// before: `fnv1a_from(fnv1a(a), b)` is the hash of `a` then `b`.
#[inline]
pub fn fnv1a_from(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV1A_PRIME))
}

/// FNV-1a's loop and offset basis with the multiplier
/// `0x1000_0000_01b3` = 2^44 + 0x1b3 in place of the FNV prime
/// 2^40 + 0x1b3: **not** FNV-1a, though the three feature hashes that use
/// it were each written as "FNV-1a". It stays because its outputs are in
/// the paper record: it buckets URLNet's character n-grams and
/// VisualPhishNet's CSS classes (Table 2's rows) and fingerprints the
/// simulated SSL certificates, so the true prime would change those
/// numbers. It spreads short keys well enough for feature hashing; key
/// anything new with [`fnv1a`].
#[inline]
pub fn fnv_shaped(bytes: &[u8]) -> u64 {
    bytes.iter().fold(FNV1A_OFFSET, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_test_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(fnv1a_from(fnv1a(b"foo"), b"bar"), fnv1a(b"foobar"));
    }

    #[test]
    fn fnv_shaped_is_not_fnv1a() {
        assert_eq!(fnv_shaped(b""), fnv1a(b""));
        assert_ne!(fnv_shaped(b"a"), fnv1a(b"a"));
    }
}
