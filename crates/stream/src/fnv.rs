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

/// Fold `words` into `h`, as their 8 little-endian bytes each.
fn fnv1a_words(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(h, |h, w| {
        if w == 0 {
            h.wrapping_mul(FNV_PRIME_POW8)
        } else {
            fnv1a(h, &w.to_le_bytes())
        }
    })
}

/// Fold `n` zero words into `h`: one multiply per run of up to
/// `u32::MAX` words.
fn fnv1a_zero_words(mut h: u64, mut n: usize) -> u64 {
    while n > 0 {
        let run = u32::try_from(n).unwrap_or(u32::MAX);
        h = h.wrapping_mul(FNV_PRIME_POW8.wrapping_pow(run));
        n -= run as usize;
    }
    h
}

/// Hash a sequence of `u64` words (as their 8 little-endian bytes each) and
/// render the digest as 16 lowercase hex characters. The count grids this
/// pins are mostly empty, so a zero word costs one multiply, not eight
/// byte steps; the digest is bit-identical either way.
pub fn fnv1a_u64s<I: IntoIterator<Item = u64>>(words: I) -> String {
    format!("{:016x}", fnv1a_words(FNV_OFFSET, words))
}

/// [`fnv1a_u64s`] of `lead` zero words, then `words`, then `trail` zero
/// words, for a grid stored as its occupied span: each zero run around
/// the span costs one multiply.
pub(crate) fn fnv1a_span(lead: usize, words: &[u64], trail: usize) -> String {
    let h = fnv1a_words(fnv1a_zero_words(FNV_OFFSET, lead), words.iter().copied());
    format!("{:016x}", fnv1a_zero_words(h, trail))
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

    #[test]
    fn a_span_hashes_as_its_zero_padded_words() {
        for (lead, words, trail) in [
            (0, &[][..], 0),
            (0, &[][..], 9),
            (3, &[7, 0, 9], 0),
            (70, &[1], 4_000),
        ] {
            let padded = std::iter::repeat_n(0, lead)
                .chain(words.iter().copied())
                .chain(std::iter::repeat_n(0, trail));
            assert_eq!(fnv1a_span(lead, words, trail), fnv1a_u64s(padded));
        }
    }
}
