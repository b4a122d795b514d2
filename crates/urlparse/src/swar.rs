//! SWAR (SIMD-within-a-register) byte classification over u64 words.
//!
//! The lexical URL features are all "count bytes of class X" scans. The
//! scalar versions walk `char`s and test each against a symbol list; these
//! kernels load 8 bytes at a time into a `u64` and classify all of them
//! with a handful of ALU ops — std only, no `unsafe`, no platform
//! intrinsics.
//!
//! All masks here are *exact per byte* (safe to `count_ones`), which rules
//! out the classic `(x - LO) & !x & HI` zero detector: its borrow can leak
//! into the byte above a zero and over-count. The carry-free variants used
//! instead:
//!
//! * zero byte:  `HI & !(x | ((x | HI) - LO))` — `x | HI` keeps every byte
//!   ≥ 0x80, so the subtraction never borrows across byte lanes;
//! * byte < n (n ≤ 0x80, high bit clear): `HI & !((x & !HI) + (0x80-n)·LO) & !x`
//!   — lane sums stay ≤ 0xFF, so no carries either;
//! * UTF-8 continuation (`10xxxxxx`): `x & !(x << 1) & HI` — bit 6 shifted
//!   onto bit 7 within the same lane.

const LO: u64 = 0x0101_0101_0101_0101;
const HI: u64 = 0x8080_8080_8080_8080;

/// Exact per-byte mask (high bit of each lane) of zero bytes in `x`.
#[inline]
fn zero_mask(x: u64) -> u64 {
    HI & !(x | ((x | HI).wrapping_sub(LO)))
}

/// Exact per-byte mask of bytes equal to the byte splatted in `splat`.
#[inline]
fn eq_mask(x: u64, splat: u64) -> u64 {
    zero_mask(x ^ splat)
}

/// Exact per-byte mask of ASCII digits `0x30..=0x39`.
#[inline]
fn digit_mask(x: u64) -> u64 {
    // XOR with 0x30 maps '0'..'9' to 0x00..0x09 (bits 4-5 cleared, low
    // nibble preserved); then test byte < 0x0A with the high bit clear.
    let y = x ^ (0x30 * LO);
    HI & !((y & !HI).wrapping_add((0x80 - 0x0A) * LO)) & !y
}

/// Exact per-byte mask of UTF-8 continuation bytes (`0b10xxxxxx`).
#[inline]
fn continuation_mask(x: u64) -> u64 {
    x & !(x << 1) & HI
}

#[inline]
fn words(b: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let chunks = b.chunks_exact(8);
    let rem = chunks.remainder();
    (
        chunks.map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        rem,
    )
}

/// Count occurrences of a single byte.
pub fn count_byte(s: &str, target: u8) -> usize {
    let splat = u64::from(target) * LO;
    let (ws, rem) = words(s.as_bytes());
    let mut n: u32 = ws.map(|w| eq_mask(w, splat).count_ones()).sum();
    n += rem.iter().filter(|&&b| b == target).count() as u32;
    n as usize
}

/// Count bytes belonging to any byte in `set` (each input byte can match at
/// most one set member, so the OR of the equality masks popcounts exactly).
pub fn count_any(s: &str, set: &[u8]) -> usize {
    let (ws, rem) = words(s.as_bytes());
    let mut n: u32 = ws
        .map(|w| {
            set.iter()
                .fold(0u64, |m, &b| m | eq_mask(w, u64::from(b) * LO))
                .count_ones()
        })
        .sum();
    n += rem.iter().filter(|b| set.contains(b)).count() as u32;
    n as usize
}

/// Count ASCII digit bytes (in valid UTF-8 this equals the count of digit
/// characters — digits are always single bytes).
pub fn digit_count(s: &str) -> usize {
    let (ws, rem) = words(s.as_bytes());
    let mut n: u32 = ws.map(|w| digit_mask(w).count_ones()).sum();
    n += rem.iter().filter(|b| b.is_ascii_digit()).count() as u32;
    n as usize
}

/// Count of `char`s (Unicode scalar values): total bytes minus UTF-8
/// continuation bytes.
pub fn char_count(s: &str) -> usize {
    let (ws, rem) = words(s.as_bytes());
    let cont: u32 = ws.map(|w| continuation_mask(w).count_ones()).sum::<u32>()
        + rem.iter().filter(|&&b| (b & 0xC0) == 0x80).count() as u32;
    s.len() - cont as usize
}

/// Fraction of characters that are ASCII digits (0 for the empty string) —
/// the SWAR twin of the scalar `digit_ratio`.
pub fn digit_ratio(s: &str) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    digit_count(s) as f64 / char_count(s) as f64
}

/// Exact per-byte mask of ASCII space and control bytes (byte < 0x21,
/// high bit clear).
#[inline]
fn space_control_mask(x: u64) -> u64 {
    HI & !((x & !HI).wrapping_add((0x80 - 0x21) * LO)) & !x
}

/// True when `s` contains an ASCII control byte or space — bytes no URL
/// arriving over the wire protocols can legally carry. Serving-path
/// admission uses this as a one-pass rejection before paying for a full
/// parse on garbage input.
pub fn has_space_or_control(s: &str) -> bool {
    let (mut ws, rem) = words(s.as_bytes());
    ws.any(|w| space_control_mask(w) != 0) || rem.iter().any(|&b| b < 0x21)
}

/// Bag-of-bytes fingerprint: bit `b & 63` is set for every byte `b` of `s`.
///
/// Byte values 64 apart collide onto the same bit, so a set bit only means
/// "some byte in this bucket occurs" — but a *clear* bit proves every byte
/// of its bucket is absent. That one-sided guarantee is what the brand
/// matcher's prefilters rely on: `byte_bag(needle) & !byte_bag(hay) != 0`
/// proves `needle` has a byte `hay` lacks, so `needle` cannot be a
/// substring of (or equal to) `hay`, and every distinct missing bit costs
/// at least one edit (an insert or substitution introduces one byte value).
pub fn byte_bag(s: &str) -> u64 {
    s.bytes().fold(0u64, |m, b| m | 1u64 << (b & 63))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLES: &[&str] = &[
        "",
        "a",
        "1234567",
        "12345678",
        "123456789",
        "https://paypal-secure.weebly.com/login?u=1&p=2",
        "~~~@@@%%%$$$!!!***===&&&",
        "abc\u{0}def\u{1}ghi",
        "héllo wörld — ünïcode ☃ 99",
        "\u{7f}\u{80}\u{ff}",
        "0/0.0:0@0",
        "a0b1c2d3e4f5g6h7i8j9",
    ];

    #[test]
    fn count_byte_matches_scalar() {
        for s in SAMPLES {
            for t in [b'.', b'-', b'0', b'@', 0u8, 0xFF] {
                let scalar = s.bytes().filter(|&b| b == t).count();
                assert_eq!(count_byte(s, t), scalar, "s={s:?} t={t:#x}");
            }
        }
    }

    #[test]
    fn count_any_matches_scalar() {
        let set = [b'@', b'~', b'%', b'$', b'!', b'*', b'=', b'&'];
        for s in SAMPLES {
            let scalar = s.bytes().filter(|b| set.contains(b)).count();
            assert_eq!(count_any(s, &set), scalar, "s={s:?}");
        }
    }

    #[test]
    fn digit_count_matches_scalar() {
        for s in SAMPLES {
            let scalar = s.chars().filter(|c| c.is_ascii_digit()).count();
            assert_eq!(digit_count(s), scalar, "s={s:?}");
        }
    }

    #[test]
    fn char_count_matches_scalar() {
        for s in SAMPLES {
            assert_eq!(char_count(s), s.chars().count(), "s={s:?}");
        }
    }

    #[test]
    fn zero_byte_after_zero_not_overcounted() {
        // The classic zero detector over-counts a 0x01 lane following a
        // zero lane; the carry-free mask must not.
        let s = "\u{0}\u{1}\u{0}\u{1}\u{0}\u{1}\u{0}\u{1}";
        assert_eq!(count_byte(s, 0), 4);
        assert_eq!(count_byte(s, 1), 4);
    }

    #[test]
    fn byte_bag_clear_bit_proves_absence() {
        for s in SAMPLES {
            let bag = byte_bag(s);
            for b in 0u8..=255 {
                if bag & (1u64 << (b & 63)) == 0 {
                    assert!(!s.as_bytes().contains(&b), "s={s:?} b={b:#x}");
                }
            }
            // Every present byte sets its bucket bit.
            for &b in s.as_bytes() {
                assert!(bag & (1u64 << (b & 63)) != 0, "s={s:?} b={b:#x}");
            }
        }
    }

    #[test]
    fn has_space_or_control_matches_scalar() {
        for s in SAMPLES {
            let scalar = s.bytes().any(|b| b < 0x21);
            assert_eq!(has_space_or_control(s), scalar, "s={s:?}");
        }
        // High-bit bytes are not control bytes.
        assert!(!has_space_or_control("\u{80}\u{ff}\u{7f}"));
        // A lone space or tab in any lane position trips the mask.
        for i in 0..12 {
            let mut s = "x".repeat(12);
            s.replace_range(i..i + 1, " ");
            assert!(has_space_or_control(&s), "space at {i}");
        }
    }

    #[test]
    fn digit_mask_rejects_high_bit_lookalikes() {
        // 0xB0..0xB9 are '0'..'9' with the high bit set — not digits.
        let bytes: Vec<u8> = vec![0xC2, 0xB0, 0xC2, 0xB9, b'5', b'a', 0xC2, 0xB5];
        let s = std::str::from_utf8(&bytes).unwrap();
        assert_eq!(digit_count(s), 1);
    }
}
