//! FNV-1a 64 — a compact, dependency-free digest that pins a large count
//! grid or a rendered artifact in a JSON report without serializing it.
//! The workspace's one definition: the streaming snapshots, the golden
//! traces and the mesh report all hash through [`fnv1a`].

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;
/// Folding a zero byte is `h ^= 0; h *= FNV_PRIME`, so eight of them (one
/// zero word) are a single multiply by this.
const FNV_PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);

/// Fold `bytes` into the running digest `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Hash a byte string and render the digest as 16 lowercase hex
/// characters.
pub fn fnv1a_hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, bytes))
}

/// Hash a sequence of `u64` words (as their 8 little-endian bytes each) and
/// render the digest as 16 lowercase hex characters. The count grids this
/// pins are mostly empty, so a zero word costs one multiply, not eight
/// byte steps; the digest is bit-identical either way.
pub fn fnv1a_u64s<I: IntoIterator<Item = u64>>(words: I) -> String {
    let h = words.into_iter().fold(FNV_OFFSET, |h, w| {
        if w == 0 {
            h.wrapping_mul(FNV_PRIME_POW8)
        } else {
            fnv1a(h, &w.to_le_bytes())
        }
    });
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_order_sensitive() {
        let a = fnv1a_u64s([1, 2, 3]);
        assert_eq!(a, fnv1a_u64s([1, 2, 3]));
        assert_ne!(a, fnv1a_u64s([3, 2, 1]));
        assert_eq!(a.len(), 16);
    }

    #[test]
    fn words_hash_as_their_little_endian_bytes() {
        // The published FNV-1a 64 test vector for "a".
        assert_eq!(fnv1a_hex(b"a"), "af63dc4c8601ec8c");
        assert_eq!(fnv1a_u64s([0x61]), fnv1a_hex(&[0x61, 0, 0, 0, 0, 0, 0, 0]));
    }
}
